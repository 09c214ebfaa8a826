"""Block primitives: canonical encoding, hashing, PoW classification, mining.

The hash function used as the random oracle is SHA-256; every identity and
every golden test vector in this project derives from it.  Difficulty
comparisons are done in exact 256-bit integer arithmetic so classification
is bit-exact across platforms.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

HASH_BYTES = 32
SCALE_BITS = 256
SCALE = 1 << SCALE_BITS

ZERO_HASH = b"\x00" * HASH_BYTES
ZERO_PEER = b"\x00" * HASH_BYTES

MAX_NONCE = (1 << 64) - 1
MAX_PAYLOAD = (1 << 32) - 1


class EncodingError(ValueError):
    """Raised when a block or transaction cannot be (de)serialized."""


class MiningExhausted(Exception):
    """Mining gave up after the attempt budget; nothing retries it (at
    the simulator's d = 1 the first nonce is valid)."""

    def __init__(self, attempts: int):
        super().__init__(f"no valid nonce found in {attempts} attempts")
        self.attempts = attempts


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class TxKind(Enum):
    NORMAL = 1
    REGISTRATION = 2
    REDEMPTION = 3
    EMPTY = 4


class TxInput(NamedTuple):
    txid: bytes
    index: int
    witness: bytes


class TxOutput(NamedTuple):
    value: int
    address: bytes


def _cache_slot():
    """An identity computed on first use: not an init argument, not part of
    equality, hash or repr, and held in a slot rather than an instance dict
    (extra dict keys would defeat CPython's key-sharing instance dicts)."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """A single transaction; the sole payload of a block.

    Normal txs spend previous outputs; Registration opens a miner's reward
    address; Redemption claims accrued mining rewards and rolls the address
    forward; Empty carries nothing (blocks mined with an idle mempool).
    The encoding, txid and sighash are cached on the instance.
    """

    kind: TxKind
    inputs: tuple[TxInput, ...] = ()
    outputs: tuple[TxOutput, ...] = ()
    reward_claim: Optional[int] = None
    next_address: Optional[bytes] = None
    _encoding: Optional[bytes] = _cache_slot()
    _txid: Optional[bytes] = _cache_slot()
    _sighash: Optional[bytes] = _cache_slot()

    def __init__(
        self,
        kind: TxKind,
        inputs: tuple[TxInput, ...] = (),
        outputs: tuple[TxOutput, ...] = (),
        reward_claim: Optional[int] = None,
        next_address: Optional[bytes] = None,
    ):
        _fill_tx(self, kind, inputs, outputs, reward_claim, next_address, None)
        self.__post_init__()

    def __post_init__(self):
        if self.kind is TxKind.NORMAL:
            if not self.inputs or not self.outputs:
                raise ValueError("normal tx needs at least one input and one output")
        elif self.kind is TxKind.REGISTRATION:
            if self.inputs or self.next_address is None:
                raise ValueError("registration declares next_address and has no inputs")
        elif self.kind is TxKind.REDEMPTION:
            if self.reward_claim is None or self.next_address is None:
                raise ValueError("redemption declares reward_claim and next_address")
        elif self.kind is TxKind.EMPTY:
            if self.inputs or self.outputs:
                raise ValueError("empty tx carries no inputs or outputs")
        for addr in (self.next_address,):
            if addr is not None and len(addr) != HASH_BYTES:
                raise ValueError("address must be 32 bytes")
        for out in self.outputs:
            if len(out.address) != HASH_BYTES or out.value < 0:
                raise ValueError("bad output")

    def txid(self) -> bytes:
        h = self._txid
        if h is None:
            h = sha256(encode_tx(self))
            _set_txid(self, h)
        return h


# A new instance is made with `_new` and filled through the frozen classes'
# own slot setters, which skip the `__setattr__` that freezing adds (it only
# raises) and the per-call name lookup of `object.__setattr__`.
_new = object.__new__
# builds a named tuple from its values without its Python-level `__new__`
_new_tuple = tuple.__new__
_set_kind, _set_inputs, _set_outputs, _set_reward_claim, _set_next_address = (
    Transaction.__dict__[name].__set__
    for name in ("kind", "inputs", "outputs", "reward_claim", "next_address")
)
_set_encoding, _set_txid, _set_sighash = (
    Transaction.__dict__[name].__set__ for name in ("_encoding", "_txid", "_sighash")
)


def _fill_tx(tx, kind, inputs, outputs, reward_claim, next_address, encoding) -> None:
    """Write every field and cache slot of a new transaction; the caller
    then runs `Transaction.__post_init__`."""
    _set_kind(tx, kind)
    _set_inputs(tx, inputs)
    _set_outputs(tx, outputs)
    _set_reward_claim(tx, reward_claim)
    _set_next_address(tx, next_address)
    _set_encoding(tx, encoding)
    _set_txid(tx, None)
    _set_sighash(tx, None)


EMPTY_TX = Transaction(TxKind.EMPTY)


def encode_tx(tx: Transaction) -> bytes:
    """Injective, length-prefixed encoding.  The Empty tx encodes to b''."""
    enc = tx._encoding
    if enc is None:
        enc = _encode_tx(tx)
        _set_encoding(tx, enc)
    return enc


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_INPUT_HEAD = struct.Struct(">32sII")  # txid | index | len(witness)
_OUTPUT = struct.Struct(">Q32s")  # value | address
_NO_WITNESS = _U32.pack(0)


def _encode_tx(tx: Transaction) -> bytes:
    if tx.kind is TxKind.EMPTY:
        return b""
    parts = [bytes([tx.kind.value]), _U32.pack(len(tx.inputs))]
    for txid, index, witness in tx.inputs:
        if len(txid) != HASH_BYTES:
            raise EncodingError("input txid must be 32 bytes")
        parts.append(txid)
        parts.append(_U32.pack(index))
        parts.append(_U32.pack(len(witness)))
        parts.append(witness)
    parts.append(_U32.pack(len(tx.outputs)))
    for value, address in tx.outputs:
        parts.append(_U64.pack(value))
        parts.append(address)
    if tx.reward_claim is not None:
        parts.append(b"\x01" + _U64.pack(tx.reward_claim))
    else:
        parts.append(b"\x00")
    if tx.next_address is not None:
        parts.append(b"\x01" + tx.next_address)
    else:
        parts.append(b"\x00")
    return b"".join(parts)


def sighash(tx: Transaction) -> bytes:
    """Digest signed by input witnesses: the tx encoding with every witness
    written as length 0, cut from the encoding rather than re-encoded."""
    h = tx._sighash
    if h is None:
        enc = encode_tx(tx)
        parts = []
        start = 0
        pos = 5  # kind | len(inputs)
        for _txid, _index, witness in tx.inputs:
            pos += HASH_BYTES + 4  # txid | index
            parts.append(enc[start:pos])
            parts.append(_NO_WITNESS)
            pos += 4 + len(witness)  # len(witness) | witness
            start = pos
        parts.append(enc[start:])
        h = sha256(b"".join(parts))
        _set_sighash(tx, h)
    return h


def _flag(data: bytes, pos: int) -> bool:
    flag = data[pos]
    if flag > 1:
        raise EncodingError(f"flag byte must be 0 or 1, got {flag}")
    return flag == 1


# the kinds a non-empty encoding may name, by kind byte
_DECODED_KIND = (None, TxKind.NORMAL, TxKind.REGISTRATION, TxKind.REDEMPTION)


def decode_tx(data: bytes) -> Transaction:
    """The inverse of `encode_tx`: only a canonical encoding decodes, so
    `encode_tx(decode_tx(b)) == b` whenever it returns, and the decoded
    transaction keeps `data` as its encoding."""
    if data == b"":
        return EMPTY_TX
    kind = data[0]
    if not TxKind.NORMAL.value <= kind <= TxKind.REDEMPTION.value:
        raise EncodingError(f"tx kind must be 1, 2 or 3, got {kind} (the empty tx encodes to no bytes)")
    try:
        (count,) = _U32.unpack_from(data, 1)
        pos = 5
        inputs = []
        for _ in range(count):
            txid, index, size = _INPUT_HEAD.unpack_from(data, pos)
            pos += _INPUT_HEAD.size
            # a short witness leaves pos past the end, which the next read
            # or the final length check rejects
            inputs.append(_new_tuple(TxInput, (txid, index, data[pos : pos + size])))
            pos += size
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        outputs = []
        for _ in range(count):
            outputs.append(_new_tuple(TxOutput, _OUTPUT.unpack_from(data, pos)))
            pos += _OUTPUT.size
        reward_claim = None
        if _flag(data, pos):
            (reward_claim,) = _U64.unpack_from(data, pos + 1)
            pos += _U64.size
        pos += 1
        next_address = None
        if _flag(data, pos):
            next_address = data[pos + 1 : pos + 1 + HASH_BYTES]
            pos += HASH_BYTES
        pos += 1
    except (struct.error, IndexError):
        raise EncodingError("truncated encoding") from None
    if pos > len(data):
        raise EncodingError("truncated encoding")
    if pos < len(data):
        raise EncodingError("trailing bytes in tx encoding")
    tx = _new(Transaction)
    _fill_tx(tx, _DECODED_KIND[kind], tuple(inputs), tuple(outputs), reward_claim, next_address, bytes(data))
    try:
        tx.__post_init__()
    except ValueError as exc:
        raise EncodingError(str(exc)) from None
    return tx


@dataclass(frozen=True, slots=True, init=False)
class Block:
    """The six-field block: three backward references, creator, nonce, payload.
    The block id is cached on the instance."""

    idp: bytes
    idm: bytes
    idt: bytes
    peer: bytes
    pow: int
    mes: Transaction
    _id: Optional[bytes] = _cache_slot()

    def __init__(self, idp: bytes, idm: bytes, idt: bytes, peer: bytes, pow: int, mes: Transaction):
        _fill_block(self, idp, idm, idt, peer, pow, mes, None)
        self.__post_init__()

    def __post_init__(self):
        for ref in (self.idp, self.idm, self.idt, self.peer):
            if len(ref) != HASH_BYTES:
                raise ValueError("references and peer id must be 32 bytes")
        if not 0 <= self.pow <= MAX_NONCE:
            raise ValueError("nonce must fit in 64 bits")


_set_idp, _set_idm, _set_idt, _set_peer, _set_pow, _set_mes, _set_id = (
    Block.__dict__[name].__set__ for name in ("idp", "idm", "idt", "peer", "pow", "mes", "_id")
)


def _fill_block(block, idp, idm, idt, peer, pow_, mes, id_) -> None:
    """Write every field and the id slot of a new block; the caller runs
    or stands in for `Block.__post_init__`."""
    _set_idp(block, idp)
    _set_idm(block, idm)
    _set_idt(block, idt)
    _set_peer(block, peer)
    _set_pow(block, pow_)
    _set_mes(block, mes)
    _set_id(block, id_)


# idp | idm | idt | peer | pow | len(mes): everything before the payload
_HEADER = struct.Struct(">32s32s32s32sQI")


def canonical_encode(block: Block) -> bytes:
    """idp(32) | idm(32) | idt(32) | peer(32) | pow(8 BE) | len(mes)(4 BE) | mes."""
    mes = encode_tx(block.mes)
    if len(mes) > MAX_PAYLOAD:
        raise EncodingError("payload exceeds 2^32-1 bytes")
    return b"".join(
        (block.idp, block.idm, block.idt, block.peer, _U64.pack(block.pow), _U32.pack(len(mes)), mes)
    )


def decode_block(data: bytes) -> Block:
    """The inverse of `canonical_encode`.  Decoding is strict, so `data` is
    the block's canonical encoding and its hash is the block's id."""
    try:
        idp, idm, idt, peer, pow_, size = _HEADER.unpack_from(data)
    except struct.error:
        raise EncodingError("truncated encoding") from None
    end = _HEADER.size + size
    if end > len(data):
        raise EncodingError("truncated encoding")
    mes = decode_tx(data[_HEADER.size : end])
    if end < len(data):
        raise EncodingError("trailing bytes in block encoding")
    # the header format reads 32-byte references and a 64-bit nonce, all
    # that `Block.__post_init__` checks
    block = _new(Block)
    _fill_block(block, idp, idm, idt, peer, pow_, mes, sha256(data))
    return block


def block_id(block: Block) -> bytes:
    h = block._id
    if h is None:
        h = sha256(canonical_encode(block))
        _set_id(block, h)
    return h


def _scaled_threshold(x: Fraction) -> int:
    # N < x  <=>  N < ceil(x * 2**256) for integer N
    num = x.numerator << SCALE_BITS
    den = x.denominator
    return -(-num // den)


class BlockClass(Enum):
    INVALID = 0
    REGULAR = 1
    MILESTONE = 2


@dataclass(frozen=True)
class Params:
    """Protocol constants: difficulty, milestone share, assignment and rewards.

    `d_threshold` and `ms_threshold` are d and p * d scaled to 2**256 and
    rounded up: a hash read as a big-endian integer below one is below the
    exact fraction (`classify_hash`)."""

    d: Fraction
    p: Fraction
    c: Fraction = Fraction(1, 10)
    r_n: int = 0
    r_m: int = 1
    delta: Fraction = Fraction(0)

    def __post_init__(self):
        if not (0 < self.d <= 1):
            raise ValueError("difficulty d must be in (0, 1]")
        if not (0 < self.p <= 1):
            raise ValueError("milestone probability p must be in (0, 1]")
        if not (self.r_m > self.r_n >= 0):
            raise ValueError("need r_m > r_n >= 0")
        if not (0 <= self.delta <= 1):
            raise ValueError("delta must be in [0, 1]")
        object.__setattr__(self, "d_threshold", _scaled_threshold(self.d))
        object.__setattr__(self, "ms_threshold", _scaled_threshold(self.p * self.d))


def classify_hash(h: bytes, params: Params) -> BlockClass:
    n = int.from_bytes(h, "big")
    if n < params.ms_threshold:
        return BlockClass.MILESTONE
    if n < params.d_threshold:
        return BlockClass.REGULAR
    return BlockClass.INVALID


class MineResult(NamedTuple):
    block: Block
    attempts: int


def mine(
    template: Block,
    params: Params,
    max_attempts: int,
    start_nonce: int = 0,
    want: Optional[BlockClass] = None,
) -> MineResult:
    """Grind the nonce until the block classifies as valid (or as `want`).

    Nonces are tried sequentially from start_nonce so fixtures are
    deterministic.  Raises MiningExhausted after max_attempts.
    """
    prefix = canonical_encode(template)[: 4 * HASH_BYTES]
    mes = encode_tx(template.mes)
    suffix = struct.pack(">I", len(mes)) + mes
    for i in range(max_attempts):
        nonce = (start_nonce + i) & MAX_NONCE
        h = sha256(prefix + struct.pack(">Q", nonce) + suffix)
        cls = classify_hash(h, params)
        if cls is BlockClass.INVALID:
            continue
        if want is None or cls is want:
            # the checked template's fields, with a 64-bit nonce; h is the id
            block = _new(Block)
            _fill_block(block, template.idp, template.idm, template.idt, template.peer, nonce, template.mes, h)
            return MineResult(block, i + 1)
    raise MiningExhausted(max_attempts)


def tx_distance(head_id: bytes, tx: Transaction) -> Fraction:
    """Hash-derived distance in [0, 1) between a chain head and a
    transaction: the digest read as a big-endian integer N, over 2**256."""
    if len(head_id) != HASH_BYTES:
        raise ValueError("head id must be 32 bytes")
    return Fraction(int.from_bytes(sha256(head_id + encode_tx(tx)), "big"), SCALE)


# The genesis block: all references absent (zero hashes), zero peer, empty
# payload.  It is exempt from PoW and carries the trusted setup implicitly
# (initial funded outputs are supplied to ledger construction separately).
GENESIS = Block(ZERO_HASH, ZERO_HASH, ZERO_HASH, ZERO_PEER, 0, EMPTY_TX)
GENESIS_ID = block_id(GENESIS)
