"""Block primitives: encodings, hashing, classification, mining."""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sdag.core import (
    EMPTY_TX,
    EncodingError,
    GENESIS,
    GENESIS_ID,
    HASH_BYTES,
    SCALE,
    Block,
    BlockClass,
    MiningExhausted,
    Params,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    block_id,
    canonical_encode,
    classify_hash,
    decode_block,
    decode_tx,
    encode_tx,
    mine,
    sha256,
    sighash,
    tx_distance,
)

H = lambda tag: sha256(tag.encode())


def make_normal(n_in=1, n_out=1, witness=b"w" * 96):
    inputs = tuple(TxInput(H(f"in{i}"), i, witness) for i in range(n_in))
    outputs = tuple(TxOutput(5 + i, H(f"out{i}")) for i in range(n_out))
    return Transaction(TxKind.NORMAL, inputs, outputs)


# -- golden vectors --------------------------------------------------------


def test_genesis_vector():
    # all-zero references and peer, nonce 0, empty payload: 140 zero bytes
    assert canonical_encode(GENESIS) == b"\x00" * 140
    assert GENESIS_ID == sha256(b"\x00" * 140)
    assert GENESIS_ID.hex() == (
        "24045c10c12a89f4c11e3b88ea34558fcdf926a8c1008cd08cc33bc71407c774"
    )


def test_block_id_vector():
    block = Block(H("p"), H("m"), H("t"), H("peer"), 7, EMPTY_TX)
    enc = canonical_encode(block)
    assert len(enc) == 140
    assert enc[128:136] == (7).to_bytes(8, "big")
    assert block_id(block) == sha256(enc)


def test_empty_tx_encodes_empty():
    assert encode_tx(EMPTY_TX) == b""
    assert decode_tx(b"") is EMPTY_TX
    assert EMPTY_TX.txid() == sha256(b"")


# -- transaction invariants ------------------------------------------------


def test_tx_kind_invariants():
    with pytest.raises(ValueError):
        Transaction(TxKind.NORMAL)  # needs inputs and outputs
    with pytest.raises(ValueError):
        Transaction(TxKind.REGISTRATION)  # needs next_address
    with pytest.raises(ValueError):
        Transaction(TxKind.REDEMPTION, next_address=H("a"))  # needs claim
    with pytest.raises(ValueError):
        Transaction(TxKind.EMPTY, outputs=(TxOutput(1, H("a")),))
    with pytest.raises(ValueError):
        Transaction(TxKind.REGISTRATION, next_address=b"short")


def test_sighash_ignores_witness():
    a = make_normal(witness=b"x" * 96)
    b = make_normal(witness=b"y" * 96)
    assert a.txid() != b.txid()
    assert sighash(a) == sighash(b)


tx_strategy = st.one_of(
    st.just(EMPTY_TX),
    st.builds(
        make_normal,
        n_in=st.integers(1, 3),
        n_out=st.integers(1, 3),
        witness=st.binary(max_size=120),
    ),
    st.builds(
        lambda a: Transaction(TxKind.REGISTRATION, next_address=a),
        st.binary(min_size=32, max_size=32),
    ),
    st.builds(
        lambda c, a, w: Transaction(
            TxKind.REDEMPTION,
            inputs=(TxInput(H("prev"), 0, w),),
            reward_claim=c,
            next_address=a,
        ),
        st.integers(0, 2**63),
        st.binary(min_size=32, max_size=32),
        st.binary(max_size=120),
    ),
)


@given(tx_strategy)
def test_tx_roundtrip(tx):
    assert decode_tx(encode_tx(tx)) == tx


@given(tx_strategy)
def test_sighash_matches_a_stripped_copy(tx):
    """Oracle: the digest is the hash of a copy with every witness blank."""
    stripped = Transaction(
        tx.kind,
        tuple(TxInput(i.txid, i.index, b"") for i in tx.inputs),
        tx.outputs,
        tx.reward_claim,
        tx.next_address,
    )
    assert sighash(tx) == sha256(encode_tx(stripped))


@given(
    tx_strategy,
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=32, max_size=32),
    st.integers(0, 2**64 - 1),
)
def test_block_roundtrip(tx, idp, idm, idt, peer, nonce):
    block = Block(idp, idm, idt, peer, nonce, tx)
    assert decode_block(canonical_encode(block)) == block


def test_decode_rejects_trailing_bytes():
    enc = canonical_encode(GENESIS)
    with pytest.raises(ValueError):
        decode_block(enc + b"\x00")
    with pytest.raises(ValueError):
        decode_tx(encode_tx(make_normal()) + b"\x00")


REGISTRATION = encode_tx(Transaction(TxKind.REGISTRATION, next_address=H("addr")))
# each decoded, before the decoder was strict, to a transaction that encodes
# to other bytes, or raised a bare ValueError
NON_CANONICAL = {
    "claim-flag-2": REGISTRATION[:9] + b"\x02" + REGISTRATION[10:],
    "address-flag-2": encode_tx(make_normal())[:-1] + b"\x02",
    "empty-kind": b"\x04" + bytes(10),
    "unknown-kind": b"\x09" + REGISTRATION[1:],
    # well formed, but a normal tx needs an output: Transaction's own check
    "normal-without-outputs": b"\x01" + (1).to_bytes(4, "big") + H("in") + bytes(12) + b"\x00\x00",
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_decode_rejects_non_canonical_encodings(name):
    raw = NON_CANONICAL[name]
    with pytest.raises(EncodingError):
        decode_tx(raw)
    header = canonical_encode(Block(H("p"), H("m"), H("t"), H("peer"), 7, EMPTY_TX))
    with pytest.raises(EncodingError):
        decode_block(header[:-4] + len(raw).to_bytes(4, "big") + raw)


@st.composite
def payloads(draw):
    """A transaction encoding with at most one byte replaced, or any bytes."""
    raw = bytearray(draw(tx_strategy.map(encode_tx)))
    if raw and draw(st.booleans()):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return draw(st.one_of(st.just(bytes(raw)), st.binary(max_size=48)))


@given(payloads())
@example(NON_CANONICAL["claim-flag-2"])
@example(NON_CANONICAL["empty-kind"])
def test_only_canonical_encodings_decode(raw):
    """Each accepted byte string re-encodes to itself, so a transaction or
    block id is the hash of exactly the bytes read, and every identity the
    decoder fills in equals the one a cold copy computes."""
    try:
        tx = decode_tx(raw)
    except ValueError:
        tx = None
    if tx is not None:
        assert tx._encoding == raw
        assert_tx_warm_and_equal_to_cold(tx)
    block_raw = canonical_encode(Block(H("p"), H("m"), H("t"), H("peer"), 7, EMPTY_TX))[:-4]
    block_raw += len(raw).to_bytes(4, "big") + raw
    try:
        block = decode_block(block_raw)
    except ValueError:
        assert tx is None
        return
    assert tx is not None
    assert canonical_encode(cold_copy(block)) == block_raw
    assert block._id == sha256(block_raw)
    assert_warm_and_equal_to_cold(block)


@given(st.binary(min_size=136, max_size=136), payloads())
@example(bytes(136), NON_CANONICAL["normal-without-outputs"])
def test_decoders_build_only_what_the_constructors_build(head, raw):
    """The decoders fill new instances without `__init__`, so every value
    they accept must be one the constructors accept and build equal, with
    the same field types: a decoded block cannot hold what `Block` refuses."""
    try:
        tx = decode_tx(raw)
    except ValueError:
        tx = None
    if tx is not None:
        assert cold_tx(tx) == tx
        assert all(type(i) is TxInput for i in tx.inputs)
        assert all(type(o) is TxOutput for o in tx.outputs)
    try:
        block = decode_block(head + len(raw).to_bytes(4, "big") + raw)
    except ValueError:
        assert tx is None
        return
    assert block.mes == tx
    built = Block(block.idp, block.idm, block.idt, block.peer, block.pow, block.mes)
    assert built == block and hash(built) == hash(block) and repr(built) == repr(block)
    assert [type(getattr(block, f)) for f in ("idp", "idm", "idt", "peer", "pow")] == [bytes] * 4 + [int]


# -- cached identities -----------------------------------------------------


def sample_block(tx=None):
    return Block(H("p"), H("m"), H("t"), H("peer"), 7, tx or make_normal(n_in=2, n_out=2))


def fill_caches(block):
    block_id(block)
    block.mes.txid()
    sighash(block.mes)
    return block


def cold_tx(tx):
    """The transaction rebuilt field by field, so every cache starts empty."""
    return Transaction(tx.kind, tx.inputs, tx.outputs, tx.reward_claim, tx.next_address)


def cold_copy(block):
    return Block(block.idp, block.idm, block.idt, block.peer, block.pow, cold_tx(block.mes))


def assert_tx_warm_and_equal_to_cold(tx):
    """The encoding is already cached, and it, the txid and the sighash
    equal a cold copy's."""
    cold = cold_tx(tx)
    assert tx._encoding is not None and tx._encoding == encode_tx(cold)
    assert tx.txid() == cold.txid()
    assert sighash(tx) == sighash(cold)


def assert_warm_and_equal_to_cold(block):
    assert block._id is not None and block._id == block_id(cold_copy(block))
    assert_tx_warm_and_equal_to_cold(block.mes)


def test_cached_identities_leave_equality_hash_repr_alone():
    cold, warm = sample_block(), fill_caches(sample_block())
    assert None not in (warm._id, warm.mes._encoding, warm.mes._txid, warm.mes._sighash)
    assert cold._id is None and cold.mes._txid is None
    for a, b in ((cold, warm), (cold.mes, warm.mes)):
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
    # the caches live in slots, not in an instance dict
    assert not hasattr(warm, "__dict__") and not hasattr(warm.mes, "__dict__")


def test_cached_identities_match_a_decoded_copy():
    block = fill_caches(sample_block())
    fresh = decode_block(canonical_encode(block))
    # decoding fills the id and the encoding from the bytes read
    assert_warm_and_equal_to_cold(fresh)
    assert block_id(fresh) == block_id(block)
    assert fresh.mes.txid() == block.mes.txid()
    assert sighash(fresh.mes) == sighash(block.mes)


def test_mined_block_id_is_its_hash():
    params = Params(d=Fraction(1, 2), p=Fraction(1, 4))
    template = Block(GENESIS_ID, GENESIS_ID, GENESIS_ID, H("miner"), 0, make_normal())
    block = mine(template, params, 10_000).block
    assert block._id is not None
    assert block_id(block) == sha256(canonical_encode(block))
    assert block == dataclasses.replace(template, pow=block.pow)


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in (Block, Transaction) for f in dataclasses.fields(cls)],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_fields_and_cache_slots_are_frozen(cls, name):
    block = fill_caches(sample_block())
    obj = block if cls is Block else block.mes
    before = getattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, before)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    assert getattr(obj, name) is before


def test_replace_builds_a_checked_cold_copy():
    warm = fill_caches(sample_block())
    moved = dataclasses.replace(warm, pow=8)
    assert moved == Block(warm.idp, warm.idm, warm.idt, warm.peer, 8, warm.mes)
    assert moved._id is None and block_id(moved) == block_id(cold_copy(moved))
    tx = dataclasses.replace(warm.mes, outputs=warm.mes.outputs[:1])
    assert tx._encoding is tx._txid is tx._sighash is None
    assert tx.txid() == cold_tx(tx).txid() != warm.mes.txid()
    with pytest.raises(ValueError, match="nonce"):
        dataclasses.replace(warm, pow=-1)
    with pytest.raises(ValueError, match="normal tx"):
        dataclasses.replace(warm.mes, outputs=())


@pytest.mark.parametrize("warm", [False, True])
def test_cached_identities_survive_copy_and_pickle(warm):
    block, ref = sample_block(), sample_block()
    if warm:
        fill_caches(block)
    for clone in (copy.copy(block), copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
        assert clone == block and hash(clone) == hash(block)
        assert block_id(clone) == block_id(ref)
        assert clone.mes.txid() == ref.mes.txid()
        assert sighash(clone.mes) == sighash(ref.mes)


# -- classification --------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        Params(d=Fraction(0), p=Fraction(1, 2))
    with pytest.raises(ValueError):
        Params(d=Fraction(1), p=Fraction(0))
    with pytest.raises(ValueError):
        Params(d=Fraction(1), p=Fraction(1, 2), r_n=2, r_m=1)
    with pytest.raises(ValueError):
        Params(d=Fraction(1), p=Fraction(1, 2), delta=Fraction(2))


@given(st.binary(min_size=32, max_size=32))
def test_classification_matches_exact_fractions(h):
    params = Params(d=Fraction(1, 3), p=Fraction(1, 7))
    x = Fraction(int.from_bytes(h, "big"), SCALE)
    cls = classify_hash(h, params)
    if x < params.p * params.d:
        assert cls is BlockClass.MILESTONE
    elif x < params.d:
        assert cls is BlockClass.REGULAR
    else:
        assert cls is BlockClass.INVALID


def test_threshold_boundaries_exact():
    # d = 1/2: the first invalid integer is exactly 2^255
    params = Params(d=Fraction(1, 2), p=Fraction(1, 2))
    below = ((1 << 255) - 1).to_bytes(32, "big")
    at = (1 << 255).to_bytes(32, "big")
    assert classify_hash(below, params) is BlockClass.REGULAR
    assert classify_hash(at, params) is BlockClass.INVALID
    ms_at = (1 << 254).to_bytes(32, "big")
    ms_below = ((1 << 254) - 1).to_bytes(32, "big")
    assert classify_hash(ms_below, params) is BlockClass.MILESTONE
    assert classify_hash(ms_at, params) is BlockClass.REGULAR


@given(
    st.fractions(min_value=0, max_value=1).filter(lambda x: x > 0),
    st.fractions(min_value=0, max_value=1).filter(lambda x: x > 0),
)
@example(Fraction(1, 3), Fraction(1, 7))
def test_thresholds_are_the_exact_fractions_rounded_up(d, p):
    params = Params(d=d, p=p)
    assert params.d_threshold == math.ceil(d * SCALE)
    assert params.ms_threshold == math.ceil(p * d * SCALE)


def test_d_one_accepts_everything():
    params = Params(d=Fraction(1), p=Fraction(1, 2))
    assert classify_hash(b"\xff" * 32, params) is not BlockClass.INVALID


# -- mining ----------------------------------------------------------------


def test_mine_deterministic_and_valid():
    params = Params(d=Fraction(1, 2), p=Fraction(1, 4))
    template = Block(GENESIS_ID, GENESIS_ID, GENESIS_ID, H("miner"), 0, EMPTY_TX)
    r1 = mine(template, params, 10_000, start_nonce=0)
    r2 = mine(template, params, 10_000, start_nonce=0)
    assert r1 == r2
    assert classify_hash(block_id(r1.block), params) is not BlockClass.INVALID
    ms = mine(template, params, 100_000, start_nonce=0, want=BlockClass.MILESTONE)
    assert classify_hash(block_id(ms.block), params) is BlockClass.MILESTONE


def test_mine_exhaustion():
    # p*d = 2^-64: one attempt essentially never finds a milestone
    params = Params(d=Fraction(1, 2), p=Fraction(1, 2**63))
    template = Block(GENESIS_ID, GENESIS_ID, GENESIS_ID, H("miner"), 0, EMPTY_TX)
    with pytest.raises(MiningExhausted):
        mine(template, params, 3, want=BlockClass.MILESTONE)


def test_tx_distance_range_and_determinism():
    tx = make_normal()
    d1 = tx_distance(GENESIS_ID, tx)
    assert 0 <= d1 < 1
    assert d1 == Fraction(int.from_bytes(sha256(GENESIS_ID + encode_tx(tx)), "big"), SCALE)
    assert d1 == tx_distance(GENESIS_ID, tx)
    assert d1 != tx_distance(H("other-head"), tx)
    with pytest.raises(ValueError):
        tx_distance(b"short", tx)
