"""Structured-DAG proof-of-work consensus: block and DAG validity rules, an
embedded longest-milestone-chain, deterministic DAG-to-ledger construction
with mining rewards, a discrete-event network simulator, and the matching
throughput/latency analysis."""

from .core import (
    GENESIS,
    GENESIS_ID,
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
    decode_block,
    decode_tx,
    encode_tx,
    mine,
    sighash,
    tx_distance,
)
from .dag import SDag, Violation, ViolationKind
from .ledger import (
    BadSignature,
    Ledger,
    LedgerBuild,
    PeerChainView,
    RedemptionError,
    RewardRecord,
    WrongAmount,
    build_from_dag,
    build_ledger,
    dfs_order,
    resolve_peer_chain,
)
from .mempool import Mempool, collision_prob, estimate_power
from .node import NodeState
from .sigs import DEFAULT_SCHEME, MockScheme
from .simnet import PeerChainFork, PrivateMilestoneFork, SimConfig, SimMetrics

__version__ = "0.1.0"

__all__ = [
    "GENESIS",
    "GENESIS_ID",
    "Block",
    "BlockClass",
    "MiningExhausted",
    "Params",
    "Transaction",
    "TxInput",
    "TxKind",
    "TxOutput",
    "block_id",
    "canonical_encode",
    "decode_block",
    "decode_tx",
    "encode_tx",
    "mine",
    "sighash",
    "tx_distance",
    "SDag",
    "Violation",
    "ViolationKind",
    "BadSignature",
    "Ledger",
    "LedgerBuild",
    "PeerChainView",
    "RedemptionError",
    "RewardRecord",
    "WrongAmount",
    "build_from_dag",
    "build_ledger",
    "dfs_order",
    "resolve_peer_chain",
    "Mempool",
    "collision_prob",
    "estimate_power",
    "NodeState",
    "DEFAULT_SCHEME",
    "MockScheme",
    "PeerChainFork",
    "PrivateMilestoneFork",
    "SimConfig",
    "SimMetrics",
    "__version__",
]
