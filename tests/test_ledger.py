"""DAG-to-ledger: ordering, UTXO folding, rewards, redemption chain."""

import contextlib
import gc
import io
import random
import weakref
from fractions import Fraction

import pytest

from sdag import core, dag as dag_module, ledger as ledger_module
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
    mine,
    block_id,
    sha256,
    sighash,
)
from sdag.dag import SDag
from sdag.ledger import (
    BlockKind,
    ChainStatus,
    Outpoint,
    block_reward,
    build_from_dag,
    build_ledger,
    dfs_order,
    ledger_csv,
    resolve_peer_chain,
    validate_redemption,
    verify_normal,
    BadSignature,
    WrongAmount,
)
from sdag.sigs import DEFAULT_SCHEME

from dagtools import RANDOM_PARAMS, RandomPayloads, brute_force_confirm, random_dag

PARAMS = Params(
    d=Fraction(1), p=Fraction(1, 4), c=Fraction(1, 10), r_n=1, r_m=3, delta=Fraction(1, 2)
)

S = DEFAULT_SCHEME
A_SECRET = sha256(b"ledger-A")
B_SECRET = sha256(b"ledger-B")
U_SECRET = sha256(b"ledger-user")
A_ADDR, B_ADDR, U_ADDR = (S.address(S.derive_public(s)) for s in (A_SECRET, B_SECRET, U_SECRET))

GENESIS_OUTPUTS = ((10, U_ADDR), (10, U_ADDR))


def signed_normal(outpoint_txid, index, outputs, secret=U_SECRET, garble=False):
    bare = Transaction(
        TxKind.NORMAL,
        inputs=(TxInput(outpoint_txid, index, b""),),
        outputs=tuple(outputs),
    )
    witness = S.witness(secret, sighash(bare))
    if garble:  # the owner's key with a zeroed signature
        witness = witness[:32] + bytes(64)
    return Transaction(
        TxKind.NORMAL,
        inputs=(TxInput(outpoint_txid, index, witness),),
        outputs=bare.outputs,
    )


class Builder:
    """Grow a tiny valid DAG with chosen payloads; d=1 keeps mining cheap."""

    def __init__(self):
        self.sdag = SDag(PARAMS)
        self.heads = {A_ADDR: GENESIS_ID, B_ADDR: GENESIS_ID}

    def add(self, peer, mes, want=BlockClass.REGULAR, idm=None, idt=None, idp=None):
        template = Block(
            idp=idp if idp is not None else self.heads[peer],
            idm=idm if idm is not None else self.sdag.chain_tip(),
            idt=idt if idt is not None else GENESIS_ID,
            peer=peer,
            pow=0,
            mes=mes,
        )
        block = mine(template, PARAMS, 1_000_000, want=want).block
        violation = self.sdag.insert(block)
        assert violation is None, violation
        bid = block_id(block)
        if idp is None:
            self.heads[peer] = bid
        return bid


def reg(addr):
    return Transaction(TxKind.REGISTRATION, next_address=addr)


@pytest.fixture()
def chain():
    """A registers and mines two txs; B registers and mines the milestones."""
    b = Builder()
    b.a1 = b.add(A_ADDR, reg(A_ADDR))
    b.b1 = b.add(B_ADDR, reg(B_ADDR))
    b.t1 = signed_normal(GENESIS_ID, 0, [TxOutput(9, U_ADDR)])  # fee 1
    b.a2 = b.add(A_ADDR, b.t1)
    b.m1 = b.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=b.a2)
    b.t2 = signed_normal(GENESIS_ID, 1, [TxOutput(10, U_ADDR)])  # fee 0
    b.a3 = b.add(A_ADDR, b.t2)
    b.m2 = b.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=b.a3)
    return b


def test_reward_table_rows():
    # the fee is the one the fold accepted: 0 for a rejected transaction
    assert block_reward(BlockKind.REGULAR_PLUS, ChainStatus.FORKED, 5, 9, PARAMS) == 0
    assert block_reward(BlockKind.REGULAR_PLUS, ChainStatus.ON_PEER_CHAIN, 0, 9, PARAMS) == 1
    assert block_reward(BlockKind.REGULAR_PLUS, ChainStatus.ON_PEER_CHAIN, 5, 9, PARAMS) == 6
    # milestone bonus: delta * r_n * (|lev| - 1) = 4 at |lev| = 9
    assert block_reward(BlockKind.MAIN_MILESTONE, ChainStatus.FORKED, 2, 9, PARAMS) == 0
    assert block_reward(BlockKind.MAIN_MILESTONE, ChainStatus.ON_PEER_CHAIN, 0, 9, PARAMS) == 7
    assert block_reward(BlockKind.MAIN_MILESTONE, ChainStatus.ON_PEER_CHAIN, 2, 9, PARAMS) == 9
    assert block_reward(BlockKind.MAIN_MILESTONE, ChainStatus.ON_PEER_CHAIN, 0, 1, PARAMS) == 3


def test_basic_build_accepts_and_rewards(chain):
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    by_block = {e.block_id: e for e in build.ledger.entries}
    assert by_block[chain.a2].accepted
    assert by_block[chain.a3].accepted
    # fee flows into the block reward
    assert build.rewards[chain.a2].amount == 1 + 1
    assert build.rewards[chain.a3].amount == 1 + 0
    lev_size = len(chain.sdag.level_set(chain.m1))
    milestone = block_reward(BlockKind.MAIN_MILESTONE, ChainStatus.ON_PEER_CHAIN, 0, lev_size, PARAMS)
    assert build.rewards[chain.m1].amount == milestone > PARAMS.r_n
    # both spends landed: genesis outputs gone, new outputs present
    utxo = build.ledger.utxo
    assert (GENESIS_ID, 0) not in {(op.txid, op.index) for op in utxo}
    assert sum(v for v, _ in utxo.values()) == 19
    # the fold looks entries up by plain tuples but keys them by Outpoint
    assert {type(op) for op in utxo} == {Outpoint}


def test_double_spend_first_seen_wins(chain):
    conflict = signed_normal(GENESIS_ID, 0, [TxOutput(10, U_ADDR)])
    cb = chain.add(A_ADDR, conflict)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=cb)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entries = {e.txid: e for e in build.ledger.entries}
    assert entries[chain.t1.txid()].accepted
    bad = entries[conflict.txid()]
    assert not bad.accepted and bad.reason == "input not in utxo"


def test_duplicate_tx_rejected_once(chain):
    chain.add(B_ADDR, chain.t1)  # same payload in a second block
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    flags = [
        (e.accepted, e.reason)
        for e in build.ledger.entries
        if e.txid == chain.t1.txid()
    ]
    assert flags == [(True, ""), (False, "duplicate")]


def test_bad_signature_and_overspend_rejected(chain):
    """The fold rejects a bad signature, a spent input and an over-spend,
    and each block earns the bare regular+ reward: the first two would pay
    a fee of 1 if they were valid."""
    garbled = signed_normal(chain.t1.txid(), 0, [TxOutput(8, U_ADDR)], garble=True)
    spent = signed_normal(GENESIS_ID, 0, [TxOutput(9, A_ADDR)])  # t1 spent it first
    overspend = signed_normal(chain.t2.txid(), 0, [TxOutput(11, U_ADDR)])
    blocks = [chain.add(A_ADDR, tx) for tx in (garbled, spent, overspend)]
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=blocks[-1])
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entries = {e.block_id: e for e in build.ledger.entries}
    reasons = [entries[bid].reason for bid in blocks]
    assert reasons == ["bad signature", "input not in utxo", "outputs exceed inputs"]
    for bid in blocks:
        # r_n is the regular+ amount without a fee: a milestone earns at least r_m
        assert build.rewards[bid] == (ChainStatus.ON_PEER_CHAIN, PARAMS.r_n)


def test_rule_a_normal_tx_spends_each_input_once(chain):
    """Inputs must be distinct unspent outputs: listing one outpoint twice
    would count its value twice.  The transaction is rejected and the fold
    goes on with its UTXO set untouched."""
    op = (chain.t2.txid(), 0)  # worth 10
    bare = Transaction(TxKind.NORMAL, inputs=(TxInput(*op, b""),) * 2, outputs=(TxOutput(20, U_ADDR),))
    witness = S.witness(U_SECRET, sighash(bare))
    twice = Transaction(TxKind.NORMAL, inputs=(TxInput(*op, witness),) * 2, outputs=bare.outputs)
    assert verify_normal(twice, {Outpoint(*op): (10, U_ADDR)}) == (False, 0, "input not in utxo")

    before = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS).ledger.utxo
    bid = chain.add(A_ADDR, twice)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=bid)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entry = next(e for e in build.ledger.entries if e.block_id == bid)
    assert (entry.accepted, entry.reason) == (False, "input not in utxo")
    assert build.ledger.utxo == before
    assert build.rewards[bid].amount == PARAMS.r_n


def test_build_deterministic_and_reload_stable(chain):
    b1 = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    b2 = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    assert ledger_csv(b1) == ledger_csv(b2)
    reloaded = SDag.load(io.StringIO(chain.sdag.dumps()), PARAMS)
    b3 = build_from_dag(reloaded, PARAMS, GENESIS_OUTPUTS)
    assert ledger_csv(b3) == ledger_csv(b1)
    assert b3.ledger.utxo_digest() == b1.ledger.utxo_digest()


def test_finality_depth_limits_rewards(chain):
    full = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS, finality_depth=0)
    partial = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS, finality_depth=1)
    # every level but the tip's is final
    final = {bid for ms in chain.sdag.main_chain[1:-1] for bid in chain.sdag.level_set(ms)}
    assert set(partial.rewards) == final
    assert set(partial.rewards) < set(full.rewards)
    for bid, rec in partial.rewards.items():
        assert rec == full.rewards[bid]


def test_peer_chain_chronology_in_dfs(chain):
    sdag = chain.sdag
    for ms in sdag.main_chain[1:]:
        order = dfs_order(sdag, ms)
        pos = {bid: i for i, bid in enumerate(order)}
        for bid in order:
            parent = sdag.blocks[bid].idp
            if parent in pos:
                assert pos[parent] < pos[bid]


def test_rule_milestone_bonus_counts_the_level_size_less_one(chain):
    """A main milestone earns r_m plus delta * r_n for every other block of
    its level set, rounded down."""
    sdag = chain.sdag
    assert [len(sdag.level_set(ms)) for ms in (chain.m1, chain.m2)] == [4, 2]
    build = build_from_dag(sdag, PARAMS, GENESIS_OUTPUTS)
    # r_m = 3, delta * r_n = 1/2: int(1/2 * 3) = 1 and int(1/2 * 1) = 0
    assert build.rewards[chain.m1].amount == 3 + 1
    assert build.rewards[chain.m2].amount == 3 + 0


def test_rule_dfs_visits_the_own_chain_reference_before_the_tip_reference():
    """A level set is ordered by post-order DFS from its milestone, each
    block's own-chain reference (idp) before its tip reference (idt)."""
    b = Builder()
    a1 = b.add(A_ADDR, EMPTY_TX)
    a2 = b.add(A_ADDR, EMPTY_TX)
    b1 = b.add(B_ADDR, EMPTY_TX)
    m1 = b.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=a2)
    assert b.sdag.main_chain == [GENESIS_ID, m1]
    # m1's own chain is b1; its tip reference a2 brings a1 along
    assert dfs_order(b.sdag, m1) == [b1, a1, a2, m1]


# -- registration and redemption ------------------------------------------


def make_redemption(claim, secret, next_address):
    bare = Transaction(
        TxKind.REDEMPTION,
        inputs=(TxInput(bytes(32), 0, b""),),
        reward_claim=claim,
        next_address=next_address,
    )
    witness = S.witness(secret, sighash(bare))
    return Transaction(
        TxKind.REDEMPTION,
        inputs=(TxInput(bytes(32), 0, witness),),
        reward_claim=claim,
        next_address=next_address,
    )


def accrued_for(chain, miner):
    """The fold, the miner's peer chain, and the settled rewards on that
    chain from its last claim (inclusive) to its head: what a redemption
    appended at the head may claim."""
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    view = resolve_peer_chain(chain.sdag, miner)
    start = next(reversed(view.claims), 0)
    accrued = sum(build.rewards[bid].amount for bid in view.blocks[start:] if bid in build.rewards)
    return build, view, accrued


def test_redemption_happy_path(chain):
    _, _, accrued = accrued_for(chain, A_ADDR)
    assert accrued > 0
    red = make_redemption(accrued, A_SECRET, A_ADDR)
    red_block = chain.add(A_ADDR, red)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entry = next(e for e in build.ledger.entries if e.txid == red.txid())
    assert entry.accepted, entry.reason
    # the claim becomes a spendable output at the rolled-forward address
    assert build.ledger.utxo[(red.txid(), 0)] == (accrued, A_ADDR)
    assert {type(op) for op in build.ledger.utxo} == {Outpoint}
    view = resolve_peer_chain(chain.sdag, A_ADDR)
    assert validate_redemption(view, red_block, red, build.rewards) == A_ADDR
    # the plain fold has no peer chains to judge a redemption on
    with pytest.raises(ValueError, match="build_from_dag"):
        build_ledger([(red, red_block, 1)])


def test_redemption_wrong_amount_rejected(chain):
    _, _, accrued = accrued_for(chain, A_ADDR)
    red = make_redemption(accrued + 1, A_SECRET, A_ADDR)
    red_block = chain.add(A_ADDR, red)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entry = next(e for e in build.ledger.entries if e.txid == red.txid())
    assert not entry.accepted and "claimed" in entry.reason
    with pytest.raises(WrongAmount):
        validate_redemption(resolve_peer_chain(chain.sdag, A_ADDR), red_block, red, build.rewards)


def test_rule_a_redemption_claims_exactly_what_accrued(chain):
    """A redemption must claim exactly the rewards its chain accrued since
    the previous claim: less is refused like more."""
    _, _, accrued = accrued_for(chain, A_ADDR)
    assert accrued > 1
    red = make_redemption(accrued - 1, A_SECRET, A_ADDR)
    red_block = chain.add(A_ADDR, red)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entry = next(e for e in build.ledger.entries if e.txid == red.txid())
    assert not entry.accepted and entry.reason == f"claimed {accrued - 1}, accrued {accrued}"
    assert (red.txid(), 0) not in build.ledger.utxo
    with pytest.raises(WrongAmount):
        validate_redemption(resolve_peer_chain(chain.sdag, A_ADDR), red_block, red, build.rewards)


def test_redemption_wrong_key_rejected(chain):
    _, _, accrued = accrued_for(chain, A_ADDR)
    red = make_redemption(accrued, B_SECRET, A_ADDR)  # signed by the wrong key
    red_block = chain.add(A_ADDR, red)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entry = next(e for e in build.ledger.entries if e.txid == red.txid())
    assert not entry.accepted and "signature" in entry.reason
    with pytest.raises(BadSignature):
        validate_redemption(resolve_peer_chain(chain.sdag, A_ADDR), red_block, red, build.rewards)


def test_registration_only_at_chain_start(chain):
    # a late re-registration earns the block its reward but is not accepted
    late = chain.add(A_ADDR, reg(B_ADDR))
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=late)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    entry = next(e for e in build.ledger.entries if e.block_id == late)
    assert not entry.accepted
    view = resolve_peer_chain(chain.sdag, A_ADDR)
    assert view.current_address == A_ADDR  # the hijack did not move the payout


def test_forked_branch_earns_nothing(chain):
    # a second child of a1 forks A's chain; the canonical branch wins on length
    fork = chain.add(A_ADDR, EMPTY_TX, idp=chain.a1)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=fork)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    view = resolve_peer_chain(chain.sdag, A_ADDR)
    assert fork not in view.position
    assert build.rewards[fork].status is ChainStatus.FORKED
    assert build.rewards[fork].amount == 0


def test_rule_a_redemption_off_the_canonical_peer_chain_is_refused(chain):
    """Rewards are claimed only on the miner's canonical peer chain: a
    redemption on a forked branch is refused even when it is signed and
    claims what its own branch accrued, and its block earns nothing."""
    # the canonical branch redeems a1..a3; the fork off a1 redeems a1 alone
    build, _, accrued = accrued_for(chain, A_ADDR)
    red = make_redemption(accrued, A_SECRET, A_ADDR)
    red_block = chain.add(A_ADDR, red)
    forked = make_redemption(build.rewards[chain.a1].amount, A_SECRET, A_ADDR)
    forked_block = chain.add(A_ADDR, forked, idp=chain.a1)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=forked_block)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE)
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    assert forked_block not in resolve_peer_chain(chain.sdag, A_ADDR).position
    entries = {e.block_id: e for e in build.ledger.entries}
    assert entries[red_block].accepted, entries[red_block].reason
    assert not entries[forked_block].accepted
    assert entries[forked_block].reason == "block not on the canonical peer chain"
    assert (forked.txid(), 0) not in build.ledger.utxo
    assert build.rewards[forked_block].status is ChainStatus.FORKED
    assert build.rewards[forked_block].amount == 0


def test_rule_a_redemption_spanning_an_unsettled_reward_is_refused(chain):
    """A redemption claims settled rewards only: a span that reaches a
    block whose level is within `finality_depth` of the tip has no amount
    to match, so the claim is refused with accrued -1.  ROADMAP item 6
    will replace this rule with a provisional entry that flips to accepted
    once the level is final."""
    _, _, accrued = accrued_for(chain, A_ADDR)
    red = make_redemption(accrued, A_SECRET, A_ADDR)
    red_block = chain.add(A_ADDR, red)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    # levels: m1 holds a1 and a2, m2 holds a3, the third holds the claim
    assert chain.a3 in chain.sdag.level_set(chain.m2)
    final = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    assert next(e for e in final.ledger.entries if e.block_id == red_block).accepted
    # at depth 2 only m1's level is settled, so a3 has no reward yet
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS, finality_depth=2)
    assert chain.a2 in build.rewards and chain.a3 not in build.rewards
    entry = next(e for e in build.ledger.entries if e.block_id == red_block)
    assert not entry.accepted
    assert entry.reason == f"claimed {accrued}, accrued -1"
    assert (red.txid(), 0) not in build.ledger.utxo


def test_unsigned_longer_branch_loses_to_redeemed_chain(chain):
    # A redeems on the true chain; an impersonator extends a fork of a1
    _, _, accrued = accrued_for(chain, A_ADDR)
    red = make_redemption(accrued, A_SECRET, A_ADDR)
    red_block = chain.add(A_ADDR, red)
    true_len = len(resolve_peer_chain(chain.sdag, A_ADDR).blocks)
    prev = chain.a1
    forged = []
    for _ in range(true_len + 3):  # longer than the true chain
        prev = chain.add(A_ADDR, EMPTY_TX, idp=prev)
        forged.append(prev)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=red_block)
    chain.add(B_ADDR, EMPTY_TX, want=BlockClass.MILESTONE, idt=forged[-1])
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    view = resolve_peer_chain(chain.sdag, A_ADDR)
    # redemption continuity outranks length: the true chain stays canonical
    assert not any(f in view.position for f in forged)
    assert all(build.rewards[f].amount == 0 for f in forged if f in build.rewards)
    entry = next(e for e in build.ledger.entries if e.txid == red.txid())
    assert entry.accepted


def test_build_from_dag_judges_normal_txs_like_build_ledger():
    """build_ledger over the normal transactions in ledger order gives each
    the verdict build_from_dag gives it and, without redemptions, the same
    UTXO set; a registration is accepted only at the start of its miner's
    peer chain, which build_from_dag alone knows."""
    genesis = tuple((2, U_ADDR) for _ in range(12))
    reasons = set()
    late_registrations = 0
    for seed in range(10):
        rng = random.Random(seed)
        payloads = RandomPayloads(len(genesis), U_SECRET)
        sdag = random_dag(rng, n_blocks=80, params=RANDOM_PARAMS, payload=payloads)
        build = build_from_dag(sdag, RANDOM_PARAMS, genesis)
        ordered = [
            (sdag.blocks[bid].mes, bid, k)
            for k, ms in enumerate(sdag.main_chain[1:], 1)
            for bid in dfs_order(sdag, ms)
        ]
        plain = build_ledger([slot for slot in ordered if slot[0].kind is TxKind.NORMAL], genesis)
        normal = [e for e in build.ledger.entries if sdag.blocks[e.block_id].mes.kind is TxKind.NORMAL]
        assert len(normal) == len(plain.entries)
        for got, want in zip(normal, plain.entries):
            slot = (got.txid, got.block_id, got.level_index, got.accepted, got.reason)
            assert slot == (want.txid, want.block_id, want.level_index, want.accepted, want.reason)
            reasons.add(got.reason)
        for got in build.ledger.entries:
            block = sdag.blocks[got.block_id]
            if block.mes.kind is TxKind.REGISTRATION:
                at_start = resolve_peer_chain(sdag, block.peer).position.get(got.block_id) == 0
                assert not got.accepted or at_start
                late_registrations += not at_start
        assert build.ledger.utxo == plain.utxo
    assert {"", "duplicate", "input not in utxo", "bad signature", "outputs exceed inputs"} <= reasons
    assert late_registrations


def test_csv_shape(chain):
    build = build_from_dag(chain.sdag, PARAMS, GENESIS_OUTPUTS)
    lines = ledger_csv(build).strip().splitlines()
    assert lines[0] == "level,position,block_id,tx_id,accepted,reward"
    assert len(lines) == len(build.ledger.entries) + 1


# -- peer-chain resolution against brute-force path enumeration -------------


def oracle_sig_ok(tx, address):
    witness = tx.inputs[0].witness if tx.inputs else b""
    if address is None or len(witness) != 96:
        return False
    public, sig = witness[:32], witness[32:]
    return S.address(public) == address and S.verify(public, sighash(tx), sig)


def oracle_walk(sdag, path):
    """Registration/redemption continuity along one path: (valid claims,
    position of the last valid claim, payout address, registered)."""
    address = None
    registered = False
    claims = 0
    covered = 0
    for pos, bid in enumerate(path):
        tx = sdag.blocks[bid].mes
        if tx.kind is TxKind.REGISTRATION and not registered and pos == 0:
            address = tx.next_address
            registered = True
        elif tx.kind is TxKind.REDEMPTION:
            if registered and oracle_sig_ok(tx, address):
                address = tx.next_address
                claims += 1
                covered = pos
    return claims, covered, address, registered


def oracle_paths(sdag, miner):
    """Every root-to-leaf path of the miner's own-chain tree."""
    mine = {bid for bid, b in sdag.blocks.items() if b.peer == miner and bid != GENESIS_ID}
    kids = {}
    for bid in mine:
        kids.setdefault(sdag.blocks[bid].idp, []).append(bid)
    paths = []
    stack = [[root] for root in kids.get(GENESIS_ID, [])]
    while stack:
        path = stack.pop()
        if path[-1] not in kids:
            paths.append(path)
        for child in kids.get(path[-1], []):
            stack.append(path + [child])
    return mine, paths


def oracle_key(sdag, path):
    claims, covered, _, registered = oracle_walk(sdag, path)
    return (registered, claims, covered, len(path))


def oracle_view(sdag, miner):
    """The canonical chain by enumeration: the path with the largest key,
    smallest leaf id among equal keys, and its claims re-walked from the
    chain prefix."""
    mine, paths = oracle_paths(sdag, miner)
    best = min(paths, key=lambda p: (tuple(-int(x) for x in oracle_key(sdag, p)), p[-1]))
    _, _, address, registered = oracle_walk(sdag, best)
    positions = [
        pos
        for pos, bid in enumerate(best)
        if sdag.blocks[bid].mes.kind is TxKind.REDEMPTION
        or (pos == 0 and sdag.blocks[bid].mes.kind is TxKind.REGISTRATION)
    ]
    claims = {}
    for i, pos in enumerate(positions):
        _, _, before, reg_before = oracle_walk(sdag, best[:pos])
        tx = sdag.blocks[best[pos]].mes
        signed = tx.kind is TxKind.REDEMPTION and reg_before and oracle_sig_ok(tx, before)
        claims[pos] = (positions[i - 1] if i else None, before if reg_before else None, signed)
    return best, registered, address, mine - set(best), claims, paths


FOREST_KEYS = [sha256(b"forest-key-%d" % i) for i in range(3)]
FOREST_ADDRS = [S.address(S.derive_public(k)) for k in FOREST_KEYS]
FOREST_MINERS = [sha256(b"forest-miner-%d" % i) for i in range(3)]


def random_forest(rng):
    """Own-chain trees of three miners, interleaved: up to two roots on the
    genesis per miner, registrations and redemptions anywhere (each signed
    by one of three keys and declaring one of three addresses, so some
    chain the declared address, some are signed by the wrong key and some
    move the address), forks at random depth and extra equal-length
    siblings."""
    sdag = SDag(PARAMS)
    own = {m: [] for m in FOREST_MINERS}
    roots = dict.fromkeys(FOREST_MINERS, 0)
    for _ in range(rng.randint(10, 40)):
        miner = rng.choice(FOREST_MINERS)
        newest = own[miner][-1] if own[miner] else None
        if newest is None or (roots[miner] < 2 and rng.random() < 0.1):
            parent = GENESIS_ID
            roots[miner] += 1
        elif rng.random() < 0.15 and sdag.blocks[newest].idp != GENESIS_ID:
            parent = sdag.blocks[newest].idp  # an equal-length sibling
        elif rng.random() < 0.6:
            parent = newest
        else:
            parent = rng.choice(own[miner])  # a fork at random depth
        r = rng.random()
        if r < 0.35:
            tx = EMPTY_TX
        elif r < 0.55:
            tx = reg(rng.choice(FOREST_ADDRS))
        else:
            tx = make_redemption(rng.randint(0, 5), rng.choice(FOREST_KEYS), rng.choice(FOREST_ADDRS))
        block = Block(parent, GENESIS_ID, GENESIS_ID, miner, rng.getrandbits(64), tx)
        assert sdag.insert(block) is None
        own[miner].append(block_id(block))
    return sdag


def test_resolve_peer_chain_matches_path_enumeration():
    rng = random.Random(2024)
    seen = dict.fromkeys(
        (
            "two roots", "late registration", "valid claim", "wrong key", "moved address", "tie",
            "signed on chain", "unsigned on chain",
        ),
        0,
    )
    for _ in range(300):
        sdag = random_forest(rng)
        for miner in FOREST_MINERS:
            if not any(b.peer == miner for b in sdag.blocks.values()):
                assert resolve_peer_chain(sdag, miner).blocks == []
                continue
            blocks, registered, address, forked, claims, paths = oracle_view(sdag, miner)
            view = resolve_peer_chain(sdag, miner)
            assert view.blocks == blocks
            assert view.registered == registered
            assert view.current_address == address
            assert set(sdag.peer_block_ids(miner)) - set(view.position) == forked
            assert view.position == {bid: i for i, bid in enumerate(blocks)}
            assert view.claims == claims
            for pos, claim in view.claims.items():
                if sdag.blocks[blocks[pos]].mes.kind is TxKind.REDEMPTION:
                    seen["signed on chain" if claim.signed else "unsigned on chain"] += 1
            # what this forest exercised
            keys = sorted((oracle_key(sdag, p) for p in paths), reverse=True)
            seen["tie"] += len(keys) > 1 and keys[0] == keys[1]
            seen["two roots"] += len({p[0] for p in paths}) > 1
            for path in paths:
                for pos, bid in enumerate(path):
                    tx = sdag.blocks[bid].mes
                    seen["late registration"] += pos > 0 and tx.kind is TxKind.REGISTRATION
                    if tx.kind is TxKind.REDEMPTION and pos > 0:
                        _, _, declared, reg_before = oracle_walk(sdag, path[:pos])
                        if reg_before and oracle_sig_ok(tx, declared):
                            seen["valid claim"] += 1
                            seen["moved address"] += tx.next_address != declared
                        elif reg_before:
                            seen["wrong key"] += 1
    assert all(seen.values()), seen


# -- the cyclic collector pause ---------------------------------------------

REPLAY_GENESIS = tuple((2, U_ADDR) for _ in range(12))


def replay_source(seed: int) -> SDag:
    """A random DAG with spends, double spends, duplicates, bad signatures,
    registrations and empty payloads, built in memory."""
    payloads = RandomPayloads(len(REPLAY_GENESIS), U_SECRET)
    return random_dag(random.Random(seed), n_blocks=80, params=RANDOM_PARAMS, payload=payloads)


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then put back the
    state the test found."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_load_and_fold_pause_the_collector_and_restore_it(monkeypatch, enabled):
    """The collector is off inside `SDag.load` and `build_from_dag`, and
    after each returns or raises it is in the state it was in before."""
    seen = []
    decode, resolve = dag_module.decode_block, ledger_module.resolve_peer_chain

    def spy_decode(data):
        seen.append(("load", gc.isenabled()))
        return decode(data)

    def spy_resolve(sdag, miner):
        seen.append(("fold", gc.isenabled()))
        return resolve(sdag, miner)

    def refuse(sdag, miner):
        raise RuntimeError("fold failed")

    monkeypatch.setattr(dag_module, "decode_block", spy_decode)
    monkeypatch.setattr(ledger_module, "resolve_peer_chain", spy_resolve)
    text = replay_source(0).dumps()
    with collector(enabled):
        sdag = SDag.load(io.StringIO(text), RANDOM_PARAMS)
        assert gc.isenabled() is enabled
        build_from_dag(sdag, RANDOM_PARAMS, REPLAY_GENESIS)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="^line 2: "):
            SDag.load(io.StringIO(text.splitlines()[0] + "\nzz\n"), RANDOM_PARAMS)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(ledger_module, "resolve_peer_chain", refuse)
        with pytest.raises(RuntimeError, match="fold failed"):
            build_from_dag(sdag, RANDOM_PARAMS, REPLAY_GENESIS)
        assert gc.isenabled() is enabled
    assert {where for where, _on in seen} == {"load", "fold"}
    assert not any(on for _where, on in seen)


def test_load_and_fold_leave_no_cyclic_garbage():
    """What makes the pause safe: loading a dump, folding it and writing
    its CSV make no reference cycle, so once the SDag and the build are
    dropped reference counting has freed all of it and a full collection
    finds nothing unreachable."""
    accepted = 0
    for seed in range(5):
        text = replay_source(seed).dumps()
        with collector(False):
            gc.collect()
            sdag = SDag.load(io.StringIO(text), RANDOM_PARAMS)
            build = build_from_dag(sdag, RANDOM_PARAMS, REPLAY_GENESIS)
            ledger_csv(build)
            accepted += sum(e.accepted for e in build.ledger.entries)
            del sdag, build
            assert gc.collect() == 0
    assert accepted


def test_fold_of_a_loaded_dag_encodes_nothing(monkeypatch):
    """A loaded transaction keeps the bytes it was read from and `sighash`
    cuts the witnesses out of them, so folding a loaded DAG encodes no
    transaction, and the fold matches the in-memory DAG's."""
    source = replay_source(1)
    want = ledger_csv(build_from_dag(source, RANDOM_PARAMS, REPLAY_GENESIS))

    def refuse(*args, **kwargs):
        raise AssertionError("the fold encoded a transaction")

    loaded = SDag.load(io.StringIO(source.dumps()), RANDOM_PARAMS)
    monkeypatch.setattr(core, "_encode_tx", refuse)
    assert ledger_csv(build_from_dag(loaded, RANDOM_PARAMS, REPLAY_GENESIS)) == want


def test_a_callers_frozen_objects_stay_frozen():
    """A pause promotes what it leaves alive only when nothing is frozen,
    so the objects a caller froze stay frozen through a load and a fold."""
    text = replay_source(2).dumps()
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        sdag = SDag.load(io.StringIO(text), RANDOM_PARAMS)
        assert gc.get_freeze_count() == frozen
        build_from_dag(sdag, RANDOM_PARAMS, REPLAY_GENESIS)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


class Cycle:
    def __init__(self):
        self.me = self


def test_a_cycle_dropped_before_a_load_is_found_by_one_collection():
    """Promotion moves a cycle dropped before a pause to the oldest
    generation, where the next full collection still finds it."""
    text = replay_source(3).dumps()
    with collector(True):
        gc.collect()
        cycle = Cycle()
        alive = weakref.ref(cycle)
        del cycle
        sdag = SDag.load(io.StringIO(text), RANDOM_PARAMS)
        ledger_csv(build_from_dag(sdag, RANDOM_PARAMS, REPLAY_GENESIS))
        gc.collect()
        assert alive() is None
        assert gc.get_freeze_count() == 0


def test_a_loaded_dag_matches_its_source_and_the_references():
    """`SDag.load` takes every block through `insert`, whose bookkeeping
    (membership, unreferenced blocks, level walks) is written out inline.
    On random DAGs with payloads the loaded copy agrees with the source
    built in memory, its levels with confirm-set differences and its tips
    with a scan of every reference, and both fold to the same CSV."""
    for seed in range(6):
        payloads = RandomPayloads(len(REPLAY_GENESIS), U_SECRET)
        # with a dozen miners some tip references name a miner's newest block
        source = random_dag(random.Random(seed), 150, 12, RANDOM_PARAMS, payloads)
        loaded = SDag.load(io.StringIO(source.dumps()), RANDOM_PARAMS)
        assert loaded.block_ids() == source.block_ids()
        assert loaded.main_chain == source.main_chain
        assert len(loaded.main_chain) > 3
        assert loaded.level_sets() == source.level_sets()
        chain = loaded.main_chain
        for k in range(1, len(chain)):
            want = brute_force_confirm(loaded, chain[k]) - brute_force_confirm(loaded, chain[k - 1])
            assert set(loaded.level_set(chain[k])) == want
        blocks = [loaded.blocks[bid] for bid in loaded.block_ids()]
        referenced = {ref for b in blocks for ref in (b.idp, b.idm, b.idt)}
        for miner in {b.peer for b in blocks}:
            want = {
                bid
                for bid in loaded.block_ids()
                if bid not in referenced
                and loaded.block_class(bid) is BlockClass.REGULAR
                and loaded.blocks[bid].peer != miner
            }
            assert loaded.tip_set(miner) == source.tip_set(miner) == want
        build = build_from_dag(loaded, RANDOM_PARAMS, REPLAY_GENESIS)
        assert ledger_csv(build) == ledger_csv(build_from_dag(source, RANDOM_PARAMS, REPLAY_GENESIS))
    record = next(iter(build.rewards.values()))
    with pytest.raises(AttributeError):
        record.amount += 1
