"""Input generator for the dag-replay workload.

Builds a desk-shaped DAG dump (100 miners, p = 0.05, d = 1) from a seed,
using only the constructors, encodings, signatures and `mine` of
`sdag.core` and `sdag.sigs`.  It deliberately avoids `sdag.dag`,
`sdag.simnet` and the test helpers, so the bytes it produces stay the same
when the simulator or the DAG store change.

Unlike a simulator trace, the DAG carries every conflict the ledger fold
must resolve:

- duplicate transactions (one tx in two blocks),
- double spends (two txs spending one outpoint),
- peer-chain forks (a miner abandons its head and re-mines on its parent),
- registration -> redemption signature chains, including claims with a
  wrong amount, claims with a bad signature, and claims too close to the
  tip to be final (all three are rejected by the fold).

The generator plays one global view with a short visibility lag, so some
milestones fork at equal height; the main chain only ever extends, which
lets the generator know each milestone's final main-chain status and so
write redemption claims that the fold accepts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
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
    canonical_encode,
    classify_hash,
    mine,
    sha256,
    sighash,
)
from sdag.sigs import DEFAULT_SCHEME

# the simulator's desk parameters: d = 1, p = 0.05, r_n = 1, r_m = 2, no bonus
PARAMS = Params(d=Fraction(1), p=Fraction(0.05), c=Fraction(0.5), r_n=1, r_m=2)
FINALITY_DEPTH = 13

MINERS = 100
USERS = 64
# 150 own-chain blocks per miner on average: well below the ~1000-deep
# recursion limit of peer-chain resolution
BLOCKS = 15_000
GENESIS_VALUE = 1000
GENESIS_OUTPUTS = 4000

# The block mix.  The paper gives no fault rates, and the simulator makes
# none of these faults (the desk DAG holds 0 redemptions and 1 duplicate in
# 2626 entries), so the fault shares are synthetic, set by one rule: each
# injected fault kind is 1% of blocks.  That is about 150 of each kind per
# 15000-block run and 30 in the harness tests' 3000 blocks, so every kind
# occurs on every seed, while faults stay a small minority (6% of blocks)
# of a fold that is mostly valid payments and empty blocks.
FAULT_SHARE = 0.01
# redemptions: a third valid, a third with a bad signature, a third with a
# wrong amount (the last two are rejected), each FAULT_SHARE of blocks
P_REDEEM = 3 * FAULT_SHARE
P_DUPLICATE = FAULT_SHARE  # a recent payment mined again in another block
P_DOUBLE_SPEND = FAULT_SHARE  # a new payment of a recent payment's input
P_FORK = FAULT_SHARE  # the miner abandons its head and re-mines on its parent
# empty blocks: the desk simulation's share (821 of 2026 blocks at seed 0,
# horizon 1000 s), whose miners find no compatible transaction in the pool
P_EMPTY = 0.4
# A payment's outputs become spendable this many blocks after it leaves the
# conflict window: 400 blocks is about 19 main-chain levels at 21 blocks a
# level, past the finality depth of 13, so a spend of an aged output is
# folded after the payment that made it and never fails for its order.
AGE = 400
# Duplicates and double spends copy one of the last RECENT payments, about
# 4 levels' worth, so the conflicting pair lands in nearby and often
# concurrent blocks, whose order only the fold decides.
RECENT = 64

S = DEFAULT_SCHEME


@dataclass
class ReplayInput:
    dump: str
    genesis_outputs: list[tuple[int, bytes]]
    injected: dict[str, int]  # faults written into the dump, by kind


class _Key:
    def __init__(self, label: bytes):
        self.secret = sha256(label)
        self.public = S.derive_public(self.secret)
        self.address = S.address(self.public)

    def witness(self, bare: Transaction) -> bytes:
        return self.public + S.sign(self.secret, sighash(bare))


def _miner_key(m: int, k: int) -> _Key:
    return _Key(b"replay-miner-%d-key-%d" % (m, k))


def _payment(inputs, outputs) -> Transaction:
    """A normal tx signing each input with its owner's key."""
    bare = Transaction(
        TxKind.NORMAL,
        inputs=tuple(TxInput(txid, index, b"") for txid, index, _v, _key in inputs),
        outputs=tuple(outputs),
    )
    return Transaction(
        TxKind.NORMAL,
        inputs=tuple(
            TxInput(txid, index, key.witness(bare)) for txid, index, _v, key in inputs
        ),
        outputs=bare.outputs,
    )


def _redemption(claim: int, signer: _Key, next_address: bytes) -> Transaction:
    bare = Transaction(
        TxKind.REDEMPTION,
        inputs=(TxInput(bytes(32), 0, b""),),
        reward_claim=claim,
        next_address=next_address,
    )
    return Transaction(
        TxKind.REDEMPTION,
        inputs=(TxInput(bytes(32), 0, signer.witness(bare)),),
        reward_claim=claim,
        next_address=next_address,
    )


class _Miner:
    def __init__(self, m: int):
        self.m = m
        self.identity = sha256(b"replay-miner-%d" % m)
        self.path: list[bytes] = []  # current own-chain branch
        self.claims: list[int] = []  # positions of registration/redemptions
        self.key_index = 0
        self.key = _miner_key(m, 0)

    @property
    def head(self) -> bytes:
        return self.path[-1] if self.path else GENESIS_ID


def generate(seed: int, blocks: int = BLOCKS) -> ReplayInput:
    """Deterministic per seed: the same seed gives the same dump bytes."""
    rng = random.Random(seed)
    users = [_Key(b"replay-user-%d" % u) for u in range(USERS)]
    genesis_outputs = [(GENESIS_VALUE, users[i % USERS].address) for i in range(GENESIS_OUTPUTS)]
    spendable = [(GENESIS_ID, i, GENESIS_VALUE, users[i % USERS]) for i in range(GENESIS_OUTPUTS)]
    aging: deque = deque()  # (ready at block index, outputs)
    recent: deque = deque()  # fresh payments still eligible for a conflict
    miners = [_Miner(m) for m in range(MINERS)]

    lines: list[str] = []
    index_of: dict[bytes, int] = {}
    peer_of: dict[bytes, bytes] = {}
    ms_height = {GENESIS_ID: 0}
    best = GENESIS_ID
    best_at: list[bytes] = []  # best milestone after block i
    on_main: set[bytes] = set()
    unreferenced: dict[bytes, None] = {}  # regular-class blocks nobody references
    injected = dict.fromkeys(
        ("duplicate", "double_spend", "fork", "redemption", "bad_signature", "bad_amount"), 0
    )

    def take_inputs(n: int):
        out = []
        for _ in range(min(n, len(spendable))):
            j = rng.randrange(len(spendable))
            spendable[j], spendable[-1] = spendable[-1], spendable[j]
            out.append(spendable.pop())
        return out

    def fresh_payment(i: int):
        inputs = take_inputs(2 if rng.random() < 0.3 else 1)
        if not inputs:
            return None
        total = sum(v for _t, _i, v, _k in inputs)
        payees = [users[rng.randrange(USERS)] for _ in range(2 if total > 1 and rng.random() < 0.5 else 1)]
        split = [total] if len(payees) == 1 else [total // 2, total - total // 2]
        tx = _payment(inputs, [TxOutput(v, k.address) for v, k in zip(split, payees)])
        recent.append([tx, inputs, payees, True])
        if len(recent) > RECENT:
            old_tx, _inputs, old_payees, clean = recent.popleft()
            if clean:
                txid = old_tx.txid()
                outs = [
                    (txid, j, out.value, key)
                    for j, (out, key) in enumerate(zip(old_tx.outputs, old_payees))
                ]
                aging.append((i + AGE, outs))
        return tx

    def pick_conflict_source():
        candidates = [entry for entry in recent if entry[3]]
        if not candidates:
            return None
        entry = candidates[rng.randrange(len(candidates))]
        entry[3] = False  # never duplicate or re-spend it twice, never age its outputs
        return entry

    def payload(i: int, miner: _Miner) -> Transaction:
        if not miner.path:
            miner.claims.append(0)
            return Transaction(TxKind.REGISTRATION, next_address=miner.key.address)
        r = rng.random()
        if r < P_REDEEM:
            pos = len(miner.path)
            span = miner.path[miner.claims[-1] : pos]
            claim = sum(2 if bid in on_main else 1 for bid in span)
            nxt = _miner_key(miner.m, miner.key_index + 1)
            signer = miner.key
            kind = rng.choice(("redemption", "bad_signature", "bad_amount"))
            if kind == "bad_signature":
                signer = _miner_key(miner.m, miner.key_index + 1000)
            elif kind == "bad_amount":
                claim += 1
            if signer is miner.key:
                # a signature-valid claim rolls the address forward even when
                # the amount is wrong
                miner.key_index += 1
                miner.key = nxt
            miner.claims.append(pos)
            injected[kind] += 1
            return _redemption(claim, signer, nxt.address)
        r -= P_REDEEM
        if r < P_DUPLICATE:
            entry = pick_conflict_source()
            if entry is not None:
                injected["duplicate"] += 1
                return entry[0]
        elif r < P_DUPLICATE + P_DOUBLE_SPEND:
            entry = pick_conflict_source()
            if entry is not None:
                txid, index, value, owner = entry[1][0]
                # paying one of the source's payees could rebuild the source
                # tx itself, a duplicate rather than a double spend
                others = [u for u in users if u not in entry[2]]
                payee = others[rng.randrange(len(others))]
                injected["double_spend"] += 1
                return _payment([(txid, index, value, owner)], [TxOutput(value, payee.address)])
        elif r < P_DUPLICATE + P_DOUBLE_SPEND + P_EMPTY:
            return EMPTY_TX
        tx = fresh_payment(i)
        return tx if tx is not None else EMPTY_TX

    for i in range(blocks):
        while aging and aging[0][0] <= i:
            spendable.extend(aging.popleft()[1])
        miner = miners[rng.randrange(MINERS)]
        lag = rng.choice((0, 1, 1, 2, 2, 3))
        horizon = i - lag  # blocks with index < horizon are visible
        idm = best_at[horizon - 1] if horizon >= 1 else GENESIS_ID
        tips = [
            bid
            for bid in unreferenced
            if index_of[bid] < horizon and peer_of[bid] != miner.identity
        ]
        idt = tips[rng.randrange(len(tips))] if tips else GENESIS_ID
        head = miner.head
        if (
            len(miner.path) >= 2
            and miner.claims[-1] != len(miner.path) - 1
            and miner.head not in ms_height
            and rng.random() < P_FORK
        ):
            # abandon the head and re-mine on its parent; never a claim, and
            # never a milestone, which no other block would reference, so its
            # tx would never be folded and its outputs never exist
            miner.path.pop()
            head = miner.head
            injected["fork"] += 1
        template = Block(head, idm, idt, miner.identity, 0, payload(i, miner))
        block = mine(template, PARAMS, 1, start_nonce=rng.getrandbits(64)).block
        bid = block_id(block)
        cls = classify_hash(bid, PARAMS)
        lines.append(canonical_encode(block).hex())
        index_of[bid] = i
        peer_of[bid] = miner.identity
        miner.path.append(bid)
        for ref in (head, idm, idt):
            unreferenced.pop(ref, None)
        if cls is BlockClass.MILESTONE:
            ms_height[bid] = ms_height[idm] + 1
            if ms_height[bid] > ms_height[best]:
                best = bid
                on_main.add(bid)
        else:
            unreferenced[bid] = None
        best_at.append(best)
    return ReplayInput("\n".join(lines) + "\n", genesis_outputs, injected)
