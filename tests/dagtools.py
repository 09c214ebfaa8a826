"""Shared helpers for structural tests: random DAG generation with random
payloads and a brute-force reference for the confirm relation."""

import random
from fractions import Fraction

from sdag.core import (
    EMPTY_TX,
    GENESIS_ID,
    Block,
    BlockClass,
    Params,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    block_id,
    sha256,
    sighash,
)
from sdag.dag import SDag
from sdag.sigs import DEFAULT_SCHEME

# d = 1 makes every nonce valid, so random DAGs cost one hash per block
RANDOM_PARAMS = Params(d=Fraction(1), p=Fraction(1, 3), c=Fraction(1, 10), r_n=1, r_m=2)


def random_dag(
    rng: random.Random,
    n_blocks: int = 50,
    n_miners: int = 5,
    params: Params = RANDOM_PARAMS,
    payload=lambda rng: EMPTY_TX,
) -> SDag:
    """Grow a valid random DAG one block at a time.

    Each block extends its miner's own head, references a random known
    milestone (or genesis) and a random regular block of another miner (or
    genesis); the milestone/regular class emerges from the real hash.
    `payload(rng)` gives each block's transaction.
    """
    sdag = SDag(params)
    miners = [sha256(b"rand-miner-%d" % i) for i in range(n_miners)]
    heads = {m: GENESIS_ID for m in miners}
    milestones = [GENESIS_ID]
    regular_by_miner = {m: [] for m in miners}
    for k in range(n_blocks):
        miner = rng.choice(miners)
        idm = rng.choice(milestones)
        others = [
            bid
            for m, blocks in regular_by_miner.items()
            if m != miner
            for bid in blocks
        ]
        idt = rng.choice(others) if others and rng.random() < 0.8 else GENESIS_ID
        block = Block(heads[miner], idm, idt, miner, rng.getrandbits(64), payload(rng))
        violation = sdag.insert(block)
        assert violation is None, violation
        bid = block_id(block)
        heads[miner] = bid
        if sdag.block_class(bid) is BlockClass.MILESTONE:
            milestones.append(bid)
        else:
            regular_by_miner[miner].append(bid)
    return sdag


class RandomPayloads:
    """Transactions for random DAGs: spends of genesis outputs and of earlier
    transactions' outputs, double spends, duplicates, overspends, bad
    signatures, registrations and empty payloads.  Every output, genesis
    included, is assumed to belong to the key `secret`."""

    def __init__(self, n_genesis, secret):
        self.outpoints = [(GENESIS_ID, i) for i in range(n_genesis)]
        self.made = []
        self.secret = secret
        self.address = DEFAULT_SCHEME.address(DEFAULT_SCHEME.derive_public(secret))

    def __call__(self, rng):
        r = rng.random()
        if r < 0.15:
            return EMPTY_TX
        if r < 0.25 and self.made:
            return rng.choice(self.made)
        if r < 0.35:
            tx = Transaction(TxKind.REGISTRATION, next_address=sha256(b"reg%d" % rng.getrandbits(32)))
            self.made.append(tx)
            return tx
        spent = rng.sample(self.outpoints, k=min(len(self.outpoints), rng.choice((1, 1, 2))))
        outputs = (TxOutput(rng.choice((1, 2, 3, 4)), self.address),)
        bare = Transaction(TxKind.NORMAL, tuple(TxInput(t, i, b"") for t, i in spent), outputs)
        secret = self.secret if rng.random() < 0.9 else sha256(b"thief")
        witness = DEFAULT_SCHEME.derive_public(secret) + DEFAULT_SCHEME.sign(secret, sighash(bare))
        tx = Transaction(TxKind.NORMAL, tuple(TxInput(t, i, witness) for t, i in spent), outputs)
        self.outpoints.append((tx.txid(), 0))
        self.made.append(tx)
        return tx


def brute_force_confirm(sdag: SDag, root: bytes) -> set[bytes]:
    """Reference transitive closure over all three references."""
    out = set()
    stack = [root]
    while stack:
        bid = stack.pop()
        if bid in out or bid not in sdag.blocks:
            continue
        out.add(bid)
        b = sdag.blocks[bid]
        stack.extend((b.idp, b.idm, b.idt))
    return out


def reinsert_random_order(sdag: SDag, rng: random.Random) -> SDag:
    """Rebuild the DAG inserting blocks in a random order, retrying blocks
    whose parents have not landed yet."""
    blocks = [b for bid, b in sdag.blocks.items() if bid != GENESIS_ID]
    rng.shuffle(blocks)
    rebuilt = SDag(sdag.params)
    pending = blocks
    while pending:
        progress = False
        still = []
        for block in pending:
            if all(r in rebuilt.blocks for r in (block.idp, block.idm, block.idt)):
                violation = rebuilt.insert(block)
                assert violation is None, violation
                progress = True
            else:
                still.append(block)
        assert progress, "no insertable block; DAG is not closed"
        pending = still
    return rebuilt


def dag_signature(sdag: SDag):
    """Everything that must be insertion-order independent."""
    return (
        sdag.main_chain,
        [sorted(lev) for lev in sdag.level_sets()],
        sorted(sdag.pending_set()),
        sorted(sdag.milestone_leaf_set()),
    )
