"""Deterministic discrete-event network simulator.

Mining is modeled as exponential completion times (one Poisson process per
miner), not per-hash events; broadcast delays are drawn i.i.d. per receiving
peer from a delay curve F truncated at t0, with no relay topology.  Honest
peers run the full node state machine; the adversary follows one of two
strategies.  A (config, seed) pair fully determines the event trace and the
metrics.

Difficulty is pinned at d = 1 so every mined hash is valid and the
milestone/regular split emerges from the real block hash with probability p;
all structural validation stays honest while mining costs one hash.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import (
    EMPTY_TX,
    GENESIS_ID,
    Block,
    BlockClass,
    Params,
    Transaction,
    TxInput,
    TxOutput,
    TxKind,
    block_id,
    classify_hash,
    mine,
    sha256,
    sighash,
)
from .curves import make_curve
from .ledger import build_from_dag, resolve_peer_chain
from .mempool import PoolEntry
from .node import DEFAULT_MINE_BUDGET, NodeState, SharedFacts
from .sigs import DEFAULT_SCHEME

# event ranks for deterministic tie-breaking: (time, rank, actor, seq)
_RANK_TX = 0
_RANK_DELIVER = 1
_RANK_MINE = 2
_RANK_SAMPLE = 3
_RANK_NAMES = ("tx", "deliver", "mine", "sample")

MEMPOOL_SAMPLES = 100


@dataclass(frozen=True)
class PrivateMilestoneFork:
    """Withhold own milestones on a private branch; release when it
    overtakes the public chain."""

    depth: int = 13


@dataclass(frozen=True)
class PeerChainFork:
    """Mine regular blocks impersonating a victim, forking the victim's
    canonical peer chain, as the ledger resolves it, one block back."""

    victim: int = 0


AdversaryStrategy = Optional[Union[PrivateMilestoneFork, PeerChainFork]]


@dataclass
class SimConfig:
    n: int = 100
    mu: float = 0.02
    p: float = 0.05
    c: float = 0.5
    lam: float = 1.4
    delay_curve: str = "quadratic"
    t0: float = 0.5
    adversary_share: float = 0.0
    adversary_strategy: AdversaryStrategy = None
    horizon: float = 2000.0
    seed: int = 0
    fee: int = 1
    finality_depth: int = 13

    def validate(self) -> None:
        for name in ("mu", "p", "c", "lam", "t0", "adversary_share", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mu <= 0 or self.horizon <= 0:
            raise ValueError("mu and horizon must be positive")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")
        if self.c < 0 or self.lam < 0:
            raise ValueError("c and lam must be >= 0")
        if self.finality_depth < 0:
            raise ValueError("finality_depth must be >= 0")
        if not 0 <= self.fee <= 2:
            raise ValueError("fee must be in [0, 2] (outputs are funded with 2)")
        if not 0 <= self.adversary_share < 1:
            raise ValueError("adversary_share must be in [0, 1)")
        if self.adversary_share > 0 and self.adversary_strategy is None:
            raise ValueError("adversary_share > 0 needs a strategy")
        if self.adversary_share == 0 and self.adversary_strategy is not None:
            raise ValueError("an adversary_strategy needs adversary_share > 0")
        if isinstance(self.adversary_strategy, PrivateMilestoneFork):
            if self.adversary_strategy.depth < 0:
                raise ValueError("private-milestone-fork depth must be >= 0")
        if isinstance(self.adversary_strategy, PeerChainFork):
            if not 0 <= self.adversary_strategy.victim < self.n:
                raise ValueError("victim index out of range")
        make_curve(self.delay_curve, self.t0)  # raises on bad curve spec


@dataclass
class SimMetrics:
    config: SimConfig
    blocks_created: int
    milestones_created: int
    chain_height: int
    tps_effective: float
    duplicate_tx_fraction: float
    duplicate_count: int
    normal_block_count: int
    queueing_latency: list[float]
    infection_latency: list[float]
    milestone_fork_rate: float
    common_prefix_violations: int
    reorg_count: int
    max_reorg_depth: int
    mempool_occupancy: float
    mempool_samples: list[float]
    reward_by_miner: dict[int, int]
    reward_amounts: list[int]
    utxo_digests: Optional[list[bytes]]
    adversary_blocks: int
    adversary_releases: int
    counters: dict[str, object]

    def row(self) -> dict[str, object]:
        """Flat summary for one CSV row."""
        ql = self.queueing_latency
        il = self.infection_latency
        return {
            "seed": self.config.seed,
            "n": self.config.n,
            "horizon": self.config.horizon,
            "blocks_created": self.blocks_created,
            "milestones_created": self.milestones_created,
            "chain_height": self.chain_height,
            "tps_effective": self.tps_effective,
            "duplicate_tx_fraction": self.duplicate_tx_fraction,
            "queueing_latency_mean": sum(ql) / len(ql) if ql else "",
            "infection_latency_mean": sum(il) / len(il) if il else "",
            "milestone_fork_rate": self.milestone_fork_rate,
            "common_prefix_violations": self.common_prefix_violations,
            "reorg_count": self.reorg_count,
            "max_reorg_depth": self.max_reorg_depth,
            "mempool_occupancy": self.mempool_occupancy,
            "adversary_blocks": self.adversary_blocks,
            "adversary_releases": self.adversary_releases,
        }


def measure_infection(sdag, created_at: dict[bytes, float], cutoff: float, horizon: float) -> list[float]:
    """Per-block time from creation to the creation of the first main-chain
    milestone confirming it.  Blocks created after `cutoff` are skipped;
    blocks still pending at the end are censored at `horizon` (counting them
    low would bias the mean down, counting at horizon keeps it honest)."""
    samples: list[float] = []
    confirmed: set[bytes] = set()
    chain = sdag.main_chain
    for k in range(1, len(chain)):
        ms_time = created_at[chain[k]]
        for bid in sdag.level_set(chain[k]):
            confirmed.add(bid)
            born = created_at.get(bid)
            if born is not None and born <= cutoff:
                samples.append(ms_time - born)
    for bid, born in created_at.items():
        if bid not in confirmed and born <= cutoff:
            samples.append(horizon - born)
    return samples


def common_prefix_violations(chains: list[list[bytes]], depth: int) -> int:
    """Pairs of chains whose prefixes, each cut `depth` milestones short
    (keeping the genesis), disagree: neither is a prefix of the other.
    Equal cut chains never disagree, so each distinct pair of cut chains is
    compared once and counts the product of how many chains cut to each."""
    groups = Counter(tuple(chain[: max(len(chain) - depth, 1)]) for chain in chains)
    distinct = list(groups.items())
    bad = 0
    for i, (a, count_a) in enumerate(distinct):
        for b, count_b in distinct[i + 1 :]:
            short, long_ = (a, b) if len(a) <= len(b) else (b, a)
            if long_[: len(short)] != short:
                bad += count_a * count_b
    return bad


class Simulation:
    def __init__(self, config: SimConfig):
        config.validate()
        self.cfg = config
        self.curve = make_curve(config.delay_curve, config.t0)
        self.params = Params(
            d=Fraction(1),
            p=Fraction(config.p),
            c=Fraction(config.c),
            r_n=1,
            r_m=2,
        )
        self.master = random.Random(config.seed)
        self.honest_rate = config.mu * (1.0 - config.adversary_share)
        self.adv_rate = config.n * config.mu * config.adversary_share

        self.user_secret = sha256(b"sim-user")
        self.user_public = DEFAULT_SCHEME.derive_public(self.user_secret)
        self.user_address = DEFAULT_SCHEME.address(self.user_public)
        n_outputs = int(config.lam * config.horizon * 1.5) + 64
        self.genesis_outputs = [(2, self.user_address)] * n_outputs

        # every node validates the same blocks, walks the same milestone
        # levels and counts the same tips: the first to need a fact derives
        # it and the rest read it
        shared = SharedFacts(self.params)
        self.nodes = [
            NodeState(
                self.params,
                secret=sha256(b"sim-peer-" + i.to_bytes(4, "big")),
                seed=self.master.getrandbits(64),
                shared=shared,
            )
            for i in range(config.n)
        ]
        self.adv_node: Optional[NodeState] = None
        if config.adversary_strategy is not None:
            self.adv_node = NodeState(
                self.params,
                secret=sha256(b"sim-adversary"),
                seed=self.master.getrandbits(64),
                shared=shared,
            )
        self.private_pending: list[Block] = []
        self.adversary_blocks = 0
        self.adversary_block_ids: set[bytes] = set()
        self.adversary_releases = 0

        self.heap: list[tuple[float, int, int, int, object]] = []
        self.seq = 0
        self.tx_index = 0
        self.tx_arrival: dict[bytes, float] = {}
        self.tx_included: dict[bytes, float] = {}
        self.created_at: dict[bytes, float] = {}
        self.milestone_count = 0
        self.reorg_count = 0
        self.max_reorg_depth = 0
        self.mempool_samples: list[float] = []
        self.chains_at_horizon: Optional[list[list[bytes]]] = None
        self.events = [0] * len(_RANK_NAMES)  # events handled, by rank

    # -- plumbing --------------------------------------------------------

    def _push(self, time: float, rank: int, actor: int, payload: object = None) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time, rank, actor, self.seq, payload))

    def _broadcast(self, block: Block, t: float, skip: int = -1) -> None:
        draw = self.master.random
        inverse = self.curve.inverse
        n = self.cfg.n
        for j in range(n):
            if j != skip:
                self._push(t + inverse(draw()), _RANK_DELIVER, j, block)
        if self.adv_node is not None and skip != n:
            self._push(t + inverse(draw()), _RANK_DELIVER, n, block)

    # -- handlers --------------------------------------------------------

    def _make_tx(self, index: int) -> Transaction:
        bare = Transaction(
            TxKind.NORMAL,
            inputs=(TxInput(GENESIS_ID, index, b""),),
            outputs=(TxOutput(2 - self.cfg.fee, self.user_address),),
        )
        witness = self.user_public + DEFAULT_SCHEME.sign(self.user_secret, sighash(bare))
        return Transaction(
            TxKind.NORMAL,
            inputs=(TxInput(GENESIS_ID, index, witness),),
            outputs=bare.outputs,
        )

    def _handle_tx(self, t: float) -> None:
        if self.tx_index < len(self.genesis_outputs):
            tx = self._make_tx(self.tx_index)
            self.tx_index += 1
            self.tx_arrival[tx.txid()] = t
            # one immutable entry, shared by every pool
            entry = PoolEntry(tx, t, self.cfg.fee)
            for node in self.nodes:
                node.on_tx(entry)
            if self.adv_node is not None:
                self.adv_node.on_tx(entry)
        nxt = t + self.master.expovariate(self.cfg.lam)
        if nxt <= self.cfg.horizon:
            self._push(nxt, _RANK_TX, 0)

    def _record_block(self, block: Block, t: float) -> bytes:
        bid = block_id(block)
        self.created_at[bid] = t
        if classify_hash(bid, self.params) is BlockClass.MILESTONE:
            self.milestone_count += 1
        tx = block.mes
        if tx.kind is TxKind.NORMAL:
            self.tx_included.setdefault(tx.txid(), t)
        return bid

    def _handle_mine(self, i: int, t: float) -> None:
        block = self.nodes[i].create_block()
        self._record_block(block, t)
        self._broadcast(block, t, skip=i)
        nxt = t + self.master.expovariate(self.honest_rate)
        if nxt <= self.cfg.horizon:
            self._push(nxt, _RANK_MINE, i)

    def _handle_deliver(self, j: int, block: Block, t: float) -> None:
        if j == self.cfg.n:
            assert self.adv_node is not None
            self.adv_node.on_receive_block(block)
            if isinstance(self.cfg.adversary_strategy, PrivateMilestoneFork):
                self._maybe_release(t)
            return
        node = self.nodes[j]
        old = node.sdag.main_chain  # never changed in place (see SDag)
        node.on_receive_block(block)
        new = node.sdag.main_chain
        if new is not old and classify_hash(block_id(block), self.params) is BlockClass.MILESTONE:
            fork = 0
            limit = min(len(old), len(new))
            while fork < limit and old[fork] == new[fork]:
                fork += 1
            if fork < len(old):
                self.reorg_count += 1
                self.max_reorg_depth = max(self.max_reorg_depth, len(old) - fork)

    # -- adversary -------------------------------------------------------

    def _public_height(self) -> int:
        return max(node.sdag.height() for node in self.nodes)

    def _maybe_release(self, t: float) -> None:
        """Release trigger uses the global best public height; the simulated
        attacker is given this oracle to make the strategy as strong as the
        model allows."""
        assert self.adv_node is not None
        if not self.private_pending:
            return
        if self.adv_node.sdag.height() > self._public_height():
            tip = self.adv_node.sdag.chain_tip()
            if self.adv_node.sdag.blocks[tip].peer == self.adv_node.identity:
                for block in self.private_pending:
                    self._broadcast(block, t, skip=self.cfg.n)
                self.private_pending.clear()
                self.adversary_releases += 1

    def _handle_adv_mine(self, t: float) -> None:
        assert self.adv_node is not None
        strategy = self.cfg.adversary_strategy
        if isinstance(strategy, PrivateMilestoneFork):
            block = self.adv_node.create_block()
            self.adversary_block_ids.add(self._record_block(block, t))
            self.adversary_blocks += 1
            self.private_pending.append(block)
            self._maybe_release(t)
        elif isinstance(strategy, PeerChainFork):
            victim_peer = self.nodes[strategy.victim].identity
            chain = resolve_peer_chain(self.adv_node.sdag, victim_peer).blocks
            if len(chain) >= 2:
                template = Block(
                    idp=chain[-2],
                    idm=self.adv_node.sdag.chain_tip(),
                    idt=GENESIS_ID,
                    peer=victim_peer,
                    pow=0,
                    mes=EMPTY_TX,
                )
                # regular-class only: a forged milestone would show up on
                # the public chain and defeat the impersonation
                result = mine(
                    template,
                    self.params,
                    DEFAULT_MINE_BUDGET,
                    start_nonce=self.adv_node.rng.getrandbits(64),
                    want=BlockClass.REGULAR,
                )
                block = result.block
                violation = self.adv_node.sdag.insert(block)
                assert violation is None, violation
                self.adversary_block_ids.add(self._record_block(block, t))
                self.adversary_blocks += 1
                self._broadcast(block, t, skip=self.cfg.n)
        nxt = t + self.master.expovariate(self.adv_rate)
        if nxt <= self.cfg.horizon:
            self._push(nxt, _RANK_MINE, self.cfg.n)

    # -- main loop -------------------------------------------------------

    def run(self) -> SimMetrics:
        cfg = self.cfg
        for i in range(cfg.n):
            self._push(self.master.expovariate(self.honest_rate), _RANK_MINE, i)
        if self.adv_node is not None:
            self._push(self.master.expovariate(self.adv_rate), _RANK_MINE, cfg.n)
        if cfg.lam > 0:
            self._push(self.master.expovariate(cfg.lam), _RANK_TX, 0)
        sample_step = cfg.horizon / MEMPOOL_SAMPLES
        for k in range(1, MEMPOOL_SAMPLES + 1):
            self._push(k * sample_step, _RANK_SAMPLE, 0)

        heap = self.heap
        pop = heapq.heappop
        events = self.events
        while heap:
            t, rank, actor, _seq, payload = pop(heap)
            events[rank] += 1
            if self.chains_at_horizon is None and t > cfg.horizon:
                self.chains_at_horizon = [n.sdag.main_chain for n in self.nodes]
            if rank == _RANK_DELIVER:
                assert isinstance(payload, Block)
                self._handle_deliver(actor, payload, t)
            elif rank == _RANK_TX:
                self._handle_tx(t)
            elif rank == _RANK_MINE:
                if actor == cfg.n:
                    self._handle_adv_mine(t)
                else:
                    self._handle_mine(actor, t)
            elif rank == _RANK_SAMPLE:
                # the mempool fill time constant is long; sample only the
                # final quarter so transients do not drag the mean down
                if t >= cfg.horizon * 0.75:
                    self.mempool_samples.append(float(len(self.nodes[0].mempool)))
        if self.chains_at_horizon is None:
            self.chains_at_horizon = [n.sdag.main_chain for n in self.nodes]
        return self._metrics()

    # -- metrics ---------------------------------------------------------

    def counters(self) -> dict[str, object]:
        """Deterministic counts of what the run did, summed over every node
        (the adversary's included): events handled by type, deliveries,
        blocks stored, orphans buffered and evicted (and the most one node
        held at once), rejected blocks, mining attempts and reorgs."""
        nodes = self.nodes + ([self.adv_node] if self.adv_node is not None else [])
        return {
            "events": dict(zip(_RANK_NAMES, self.events)),
            "deliveries": self.events[_RANK_DELIVER],
            "inserts": sum(len(node.sdag) - 1 for node in nodes),
            "orphans_buffered": sum(node.orphans_buffered for node in nodes),
            "orphans_evicted": sum(node.orphans_evicted for node in nodes),
            "orphan_peak_per_node": max(node.orphan_peak for node in nodes),
            "rejected_blocks": sum(node.rejected_blocks for node in nodes),
            "mining_attempts": sum(node.mining_attempts for node in nodes),
            "reorgs": self.reorg_count,
        }

    def _metrics(self) -> SimMetrics:
        cfg = self.cfg
        ref = self.nodes[0]
        build = build_from_dag(
            ref.sdag,
            self.params,
            self.genesis_outputs,
            finality_depth=cfg.finality_depth,
        )
        accepted_normal = 0
        duplicates = 0
        normal_blocks = 0
        for entry in build.ledger.entries:
            kind = ref.sdag.blocks[entry.block_id].mes.kind
            if kind is TxKind.NORMAL:
                normal_blocks += 1
                if entry.accepted:
                    accepted_normal += 1
                elif entry.reason == "duplicate":
                    duplicates += 1
        identity_to_index = {node.identity: i for i, node in enumerate(self.nodes)}
        reward_by_miner: dict[int, int] = {}
        reward_amounts: list[int] = []
        for rec in build.rewards.values():
            peer = ref.sdag.blocks[rec.block_id].peer
            idx = identity_to_index.get(peer, -1)
            reward_by_miner[idx] = reward_by_miner.get(idx, 0) + rec.amount
            reward_amounts.append(rec.amount)

        queueing = [
            self.tx_included[txid] - self.tx_arrival[txid]
            for txid, _t in sorted(self.tx_included.items())
            if txid in self.tx_arrival
        ]
        infection = measure_infection(
            ref.sdag, self.created_at, cutoff=cfg.horizon * 0.7, horizon=cfg.horizon
        )
        chain_height = ref.sdag.height()
        fork_rate = (
            (self.milestone_count - chain_height) / self.milestone_count
            if self.milestone_count
            else 0.0
        )
        digests = None
        if cfg.n <= 16:
            digests = [
                build_from_dag(
                    node.sdag, self.params, self.genesis_outputs
                ).ledger.utxo_digest()
                for node in self.nodes
            ]
        occupancy = (
            sum(self.mempool_samples) / len(self.mempool_samples)
            if self.mempool_samples
            else 0.0
        )
        return SimMetrics(
            config=cfg,
            blocks_created=len(self.created_at),
            milestones_created=self.milestone_count,
            chain_height=chain_height,
            tps_effective=accepted_normal / cfg.horizon,
            duplicate_tx_fraction=duplicates / normal_blocks if normal_blocks else 0.0,
            duplicate_count=duplicates,
            normal_block_count=normal_blocks,
            queueing_latency=queueing,
            infection_latency=infection,
            milestone_fork_rate=fork_rate,
            common_prefix_violations=common_prefix_violations(
                self.chains_at_horizon or [], cfg.finality_depth
            ),
            reorg_count=self.reorg_count,
            max_reorg_depth=self.max_reorg_depth,
            mempool_occupancy=occupancy,
            mempool_samples=self.mempool_samples,
            reward_by_miner=reward_by_miner,
            reward_amounts=reward_amounts,
            utxo_digests=digests,
            adversary_blocks=self.adversary_blocks,
            adversary_releases=self.adversary_releases,
            counters=self.counters(),
        )


def run(config: SimConfig) -> SimMetrics:
    return Simulation(config).run()
