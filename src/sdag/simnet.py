"""Deterministic discrete-event network simulator.

Mining is modeled as exponential completion times (one Poisson process per
miner), not per-hash events; broadcast delays are drawn i.i.d. per receiving
peer from a delay curve F truncated at t0, with no relay topology.  Honest
peers run the full node state machine.  The adversary's strategy keeps its
own run state: it is called when the adversary mines and, if it reads the
public height, told each milestone's first honest store time.  A (config,
seed) pair fully determines the event trace and the metrics.

A broadcast is one vector, not one event per peer: the block's arrival
time a_j at each receiver j (the honest nodes, then the adversary), and
from it its store time s_j = max(a_j, s_j of its three parents), since a
node stores an orphan when it stores its last parent.  A receiver is
brought up to date (`NodeState.catch_up`) only when it acts or is read:
before it mines, before a mempool sample of node 0, at the horizon and at
the end.  It then stores the blocks with store times since it last caught
up, in the order `NodeState.on_receive_block` would have: by store time,
and at one instant each block that arrived then, in broadcast order,
followed by the orphans it completes, in `node.drain` order.  Orphan
counts come from the vectors too.  The adversary holds its own blocks
from creation, so a delivery can move its tip only to an honest
milestone, held by its maker since it was made; as a release needs a
chain above the public height, which only grows, it can release only
right after it mines.

Difficulty is pinned at d = 1 so every mined hash is valid and the
milestone/regular split emerges from the real block hash with probability p;
all structural validation stays honest while mining costs one hash.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from collections import Counter
from itertools import groupby
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

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
    sha256,
    sighash,
)
from .curves import make_curve
from .dag import DagFacts
from .ledger import LedgerBuild, build_from_dag, resolve_peer_chain
from . import node as node_module
from .node import DEFAULT_MINE_BUDGET, NodeState, drain
from .sigs import DEFAULT_SCHEME

# event ranks for deterministic tie-breaking: events are queued as
# (time, rank, actor), which only two mempool samples, interchangeable,
# could share
_RANK_TX = 0
_RANK_DELIVER = 1
_RANK_MINE = 2
_RANK_SAMPLE = 3
_RANK_NAMES = ("tx", "deliver", "mine", "sample")

MEMPOOL_SAMPLES = 100
# every user transaction spends one genesis output of 2 and pays this fee,
# which moves only the reward amounts: the workable order reads no fee
TX_FEE = 1

# the most store-time rows kept before the receivers that hold back the
# oldest ones are caught up early, so the rows can go: four rows per
# receiver (n blocks go out per mean gap between one node's blocks, so four
# such gaps) or, with many nodes, 2**21 cells (about 19 MB)
STORE_WINDOW_ROWS_PER_NODE = 4
STORE_WINDOW_CELLS = 1 << 21
# orphan arrivals and stores buffered before they are folded into the
# per-node counts, at least; a fold carries the events still in the future,
# and the next waits until the buffer holds twice as many, so each event is
# sorted at most about twice, however many lie in the future at once
ORPHAN_EVENT_BATCH = 1 << 14
# bounds lambda * horizon: the genesis funds 1.5 outputs per expected
# transaction, each about 170 bytes in every ledger fold (260 MB at most)
MAX_EXPECTED_TXS = 10**6
# bounds n * mu * horizon: a block costs about 3 KB at the desk config (peak
# tracemalloc growth from horizon 400 to 800 s), so 3 GB at most there
MAX_EXPECTED_BLOCKS = 10**6
# bounds n * (n * mu * horizon): every node's membership bitmap holds a cell
# per stored block, 1.3-1.5 bytes each with the doubling slack (sys.getsizeof
# of the bitmaps after n = 20 to 100 desk-rate runs of about 400 blocks), so
# about 1.5 GB at most; every n up to 1000 runs at MAX_EXPECTED_BLOCKS
MAX_BITMAP_CELLS = 10**9
# bounds n: each node holds about 4.8 KB before the first event (46 MB at
# n = 10,000), so 10**5 nodes take about 0.5 GB before the run starts
MAX_NODES = 10**5


@dataclass(frozen=True)
class PrivateMilestoneFork:
    """Withhold every block it mines on a private branch; release the
    branch when it overtakes the public chain."""

    def start(self, sim: Simulation) -> _PrivateForkRun:
        return _PrivateForkRun(sim)


@dataclass(frozen=True)
class PeerChainFork:
    """Mine regular blocks impersonating a victim, forking the victim's
    canonical peer chain, as the ledger resolves it, one block back."""

    victim: int = 0

    def start(self, sim: Simulation) -> _PeerForkRun:
        return _PeerForkRun(sim, sim.nodes[self.victim].identity)


class _PrivateForkRun:
    """A `PrivateMilestoneFork` run: withheld blocks, releases, and each
    milestone's (first honest store time, height) until `public_height`."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.pending: list[Block] = []
        self.releases = 0
        self.first_stores: list[tuple[float, int]] = []
        self.height = 0

    def milestone_stored(self, first_store: float, height: int) -> None:
        heapq.heappush(self.first_stores, (first_store, height))

    def public_height(self, t: float) -> int:
        """The height of the best chain any honest node holds at `t`: the
        running maximum over each milestone's first honest store time."""
        while self.first_stores and self.first_stores[0][0] <= t:
            self.height = max(self.height, heapq.heappop(self.first_stores)[1])
        return self.height

    def on_mine(self, t: float) -> None:
        """Withhold the new block; release every withheld one once the
        adversary's chain is higher than the public height, the global best:
        an oracle that makes the strategy as strong as the model allows."""
        sim, node = self.sim, self.sim.adv_node
        block = node.create_block()
        sim.adversary_block_ids.add(sim._record_block(block, t))
        self.pending.append(block)
        if node.sdag.height() > self.public_height(t):
            for block in self.pending:
                sim._broadcast(block, t, skip=sim.cfg.n)
            self.pending.clear()
            self.releases += 1


class _PeerForkRun:
    """A `PeerChainFork` run: the victim's `peer` identity, to forge."""

    def __init__(self, sim: Simulation, victim_peer: bytes):
        self.sim = sim
        self.victim_peer = victim_peer

    def on_mine(self, t: float) -> None:
        sim, node = self.sim, self.sim.adv_node
        chain = resolve_peer_chain(node.sdag, self.victim_peer).blocks
        if len(chain) >= 2:
            # regular-class only: a forged milestone would show up on the
            # public chain and defeat the impersonation
            template = Block(chain[-2], node.sdag.chain_tip(), GENESIS_ID, self.victim_peer, pow=0, mes=EMPTY_TX)
            block = node.mine_block(template, want=BlockClass.REGULAR)
            sim.adversary_block_ids.add(sim._record_block(block, t))
            sim._broadcast(block, t, skip=sim.cfg.n)


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
    adversary_strategy: Optional[Union[PrivateMilestoneFork, PeerChainFork]] = None
    horizon: float = 2000.0
    seed: int = 0
    finality_depth: int = 13

    def validate(self) -> None:
        for name in ("mu", "p", "c", "lam", "t0", "adversary_share", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 1 <= self.n <= MAX_NODES:
            raise ValueError(f"n must be in [1, {MAX_NODES}]")
        if self.mu <= 0 or self.horizon <= 0:
            raise ValueError("mu and horizon must be positive")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")
        if self.c < 0 or self.lam < 0:
            raise ValueError("c and lam must be >= 0")
        if self.lam * self.horizon > MAX_EXPECTED_TXS:
            raise ValueError(f"lambda * horizon (expected transactions) must be at most {MAX_EXPECTED_TXS}")
        if self.n * self.mu * self.horizon > MAX_EXPECTED_BLOCKS:
            raise ValueError(f"n * mu * horizon (expected blocks) must be at most {MAX_EXPECTED_BLOCKS}")
        if self.n * (self.n * self.mu * self.horizon) > MAX_BITMAP_CELLS:
            raise ValueError(f"n * n * mu * horizon (membership bitmap cells) must be at most {MAX_BITMAP_CELLS}")
        if self.finality_depth < 0 or self.seed < 0:
            raise ValueError("finality_depth and seed must be >= 0")
        if not 0 <= self.adversary_share < 1:
            raise ValueError("adversary_share must be in [0, 1)")
        if self.adversary_share > 0 and self.adversary_strategy is None:
            raise ValueError("adversary_share > 0 needs a strategy")
        if self.adversary_share == 0 and self.adversary_strategy is not None:
            raise ValueError("an adversary_strategy needs adversary_share > 0")
        if isinstance(self.adversary_strategy, PeerChainFork):
            if not 0 <= self.adversary_strategy.victim < self.n:
                raise ValueError("victim index out of range")
            # a forged block finds no regular hash in its mining budget with
            # probability p**budget <= e**(-(1 - p) * budget): keep it below e**-64
            if (1 - self.p) * DEFAULT_MINE_BUDGET < 64:
                raise ValueError(
                    f"peer-chain-fork needs p < 1 by at least 64/{DEFAULT_MINE_BUDGET}, "
                    "or a forged block may find no regular hash in its mining budget"
                )
        make_curve(self.delay_curve, self.t0)  # raises on bad curve spec


@dataclass
class SimMetrics:
    config: SimConfig
    blocks_created: int
    milestones_created: int
    chain_height: int
    tps_effective: float
    duplicate_count: int
    normal_block_count: int
    queueing_latency: list[float]
    infection_latency: list[float]
    common_prefix_violations: int
    # reorgs over the honest nodes, and the most milestones one dropped: a
    # delivered milestone, with the orphans it releases, switches a node's
    # chain away from a milestone of it.  A switch made by an orphan
    # milestone that a regular block releases is not counted.
    reorg_count: int
    max_reorg_depth: int
    mempool_occupancy: float
    reward_by_miner: dict[int, int]
    reward_amounts: list[int]
    adversary_blocks: int
    adversary_releases: int
    counters: dict[str, object]

    def row(self) -> dict[str, object]:
        """Flat summary for one CSV row."""
        ql = self.queueing_latency
        il = self.infection_latency
        normal, milestones = self.normal_block_count, self.milestones_created
        return {
            "seed": self.config.seed,
            "n": self.config.n,
            "horizon": self.config.horizon,
            "blocks_created": self.blocks_created,
            "milestones_created": self.milestones_created,
            "chain_height": self.chain_height,
            "tps_effective": self.tps_effective,
            "duplicate_tx_fraction": self.duplicate_count / normal if normal else 0.0,
            "queueing_latency_mean": sum(ql) / len(ql) if ql else "",
            "infection_latency_mean": sum(il) / len(il) if il else "",
            "milestone_fork_rate": (milestones - self.chain_height) / milestones if milestones else 0.0,
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


class StoreTimes:
    """The store-time vectors of the broadcast blocks that some receiver
    may not hold yet, one row per block.  Rows are numbered in broadcast
    order from 0, and rows `base` to `end` are kept, at index row - base of
    each column: per receiver, the block's store time (`s`) and whether it
    arrived before then, as an orphan (`orphan`); per block, its serial in
    the shared store, whether it is a milestone, its id, its references
    and the id of the transaction it carries."""

    _COLUMNS = ("s", "orphan", "serial", "milestone", "bid", "idp", "idm", "idt", "txid")

    def __init__(self, n: int):
        self.base = 0
        self.end = 0
        self.limit = max(64, min(STORE_WINDOW_ROWS_PER_NODE * n, STORE_WINDOW_CELLS // n))
        self.row_of: dict[bytes, int] = {}
        self.s = np.empty((64, n))
        self.orphan = np.empty((64, n), dtype=bool)
        self.serial = np.empty(64, dtype=np.int64)
        self.milestone = np.empty(64, dtype=bool)
        for name in ("bid", "idp", "idm", "idt", "txid"):
            setattr(self, name, np.empty(64, dtype=object))

    def full(self) -> bool:
        return self.end - self.base == len(self.s)

    def times_of(self, bid: bytes) -> Optional[np.ndarray]:
        """The store times of a kept block, by node."""
        row = self.row_of.get(bid)
        return None if row is None else self.s[row - self.base]

    def append(self, block: Block, bid: bytes, serial: int, milestone: bool, s: np.ndarray, orphan: np.ndarray) -> None:
        """Keep a row for a broadcast block; the caller makes room first."""
        k = self.end - self.base
        self.s[k] = s
        self.orphan[k] = orphan
        self.serial[k] = serial
        self.milestone[k] = milestone
        self.bid[k] = bid
        self.idp[k] = block.idp
        self.idm[k] = block.idm
        self.idt[k] = block.idt
        self.txid[k] = block.mes.txid()
        self.row_of[bid] = self.end
        self.end += 1

    def drop_before(self, first: int) -> None:
        """Drop the rows before `first`, and if that leaves fewer than half
        of them free, double the columns (up to the limit, unless they are
        there already)."""
        for bid in self.bid[: first - self.base]:
            del self.row_of[bid]
        kept = self.end - first
        cap = len(self.s)
        size = cap
        if kept > cap // 2:
            size = 2 * cap if cap >= self.limit else min(2 * cap, self.limit)
        cut = slice(first - self.base, self.end - self.base)
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((size,) + old.shape[1:], dtype=old.dtype) if size != cap else old
            new[:kept] = old[cut]
            setattr(self, name, new)
        self.base = first


class Simulation:
    def __init__(self, config: SimConfig):
        started = time.perf_counter()
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

        self.user_secret = sha256(b"sim-user")
        self.user_address = DEFAULT_SCHEME.address(DEFAULT_SCHEME.derive_public(self.user_secret))
        n_outputs = int(config.lam * config.horizon * 1.5) + 64
        self.genesis_outputs = [(2, self.user_address)] * n_outputs

        # every node stores the same blocks, walks the same milestone levels
        # and counts the same tips: the first to need a fact derives it and
        # the rest read it
        self.facts = DagFacts(self.params)
        # the receivers, the adversary last: every one a miner, with a key
        # and its mining rate, its share of the hash power
        honest = config.mu * (1.0 - config.adversary_share)
        miners = [(b"sim-peer-" + i.to_bytes(4, "big"), honest) for i in range(config.n)]
        if config.adversary_strategy is not None:
            miners.append((b"sim-adversary", config.n * config.mu * config.adversary_share))
        self.receivers = [
            NodeState(self.params, secret=sha256(key), seed=self.master.getrandbits(64), facts=self.facts)
            for key, _rate in miners
        ]
        self.rates = [rate for _key, rate in miners]
        self.nodes = self.receivers[: config.n]
        self.adv_node: Optional[NodeState] = self.receivers[config.n] if config.adversary_strategy is not None else None
        # the strategy's run state; only one that reads the public height
        # hears of each milestone's first honest store time
        self.adversary = None if config.adversary_strategy is None else config.adversary_strategy.start(self)
        self.milestone_stored = getattr(self.adversary, "milestone_stored", None)
        self.adversary_block_ids: set[bytes] = set()

        self.heap: list[tuple[float, int, int]] = []
        self.created_at: dict[bytes, float] = {}
        self.mempool_samples: list[float] = []
        self.chains_at_horizon: list[list[bytes]] = []
        # events handled, by rank; deliveries are counted as their
        # store-time vectors are made
        self.events = [0] * len(_RANK_NAMES)

        # the receivers' view of the network: every transaction in arrival
        # order, the store times of recent broadcasts, and per receiver how
        # far it has taken both in
        width = len(self.receivers)
        self.tx_log: list[tuple[bytes, Transaction]] = []
        self.tx_arrival: dict[bytes, float] = {}  # for the queueing latencies
        self.tx_seen = [0] * width
        self.times = StoreTimes(width)
        self.first_row = [0] * width  # oldest row each receiver may not hold
        # orphans, per receiver: buffered, held now and at most; the
        # arrivals and stores not yet folded into the counts
        self.orphans_buffered = np.zeros(width, dtype=np.int64)
        self.orphan_count = np.zeros(width, dtype=np.int64)
        self.orphan_peak = np.zeros(width, dtype=np.int64)
        self.orphan_events: list[tuple[np.ndarray, np.ndarray, Union[int, np.ndarray]]] = []
        self.orphan_events_size = 0
        self.orphan_fold_at = ORPHAN_EVENT_BATCH
        # wall seconds of each phase: set-up here, and in `run` the event
        # loop, the final catch-up, the reference node's fold and the other
        # metrics; kept out of `SimMetrics`, whose values a seed determines
        self.timings = {"setup_s": time.perf_counter() - started}

    # -- plumbing --------------------------------------------------------

    def _push(self, time: float, rank: int, actor: int) -> None:
        """Queue an event unless it falls past the horizon, the one place
        that bounds the traffic; callers draw its time either way."""
        if time <= self.cfg.horizon:
            heapq.heappush(self.heap, (time, rank, actor))

    def _broadcast(self, block: Block, t: float, skip: int) -> None:
        """Send `block`, made at `t` by receiver `skip` (`n` for the
        adversary), to every other receiver as one row of store times: one
        delay draw per receiver, in receiver order.  The sender's own
        column holds `t`; it holds the block already."""
        bid = block_id(block)
        facts = self.facts
        serial = facts.serial.get(bid)
        if serial is None:
            # only a valid block enters the store, so every receiver
            # stores each broadcast block and rejects none
            raise RuntimeError(f"broadcast block {bid.hex()} is not in the shared store")
        others = len(self.receivers) - 1
        draw = self.master.random
        delays = self.curve.inverse(np.array([draw() for _ in range(others)]))
        self.events[_RANK_DELIVER] += others

        arrive = np.empty(others + 1)
        arrive[:skip] = delays[:skip]
        arrive[skip] = 0.0
        arrive[skip + 1 :] = delays[skip:]
        arrive += t
        store = arrive.copy()
        times = self.times
        for ref in (block.idp, block.idm, block.idt):
            # a dropped parent is held everywhere by now, before any arrival
            parent = times.times_of(ref)
            if parent is not None:
                np.maximum(store, parent, out=store)
        orphan = store > arrive
        late = np.flatnonzero(orphan)
        if len(late):
            self.orphans_buffered[late] += 1
            self.orphan_events.append((late, arrive[late], 1))
            self.orphan_events.append((late, store[late], -1))
            self.orphan_events_size += 2 * len(late)
            if self.orphan_events_size >= self.orphan_fold_at:
                self._fold_orphans(t)
        milestone = bid in facts.ms_height
        if milestone and self.milestone_stored is not None:
            self.milestone_stored(float(store[: self.cfg.n].min()), facts.ms_height[bid])

        if times.full():
            self._make_room(t)
        times.append(block, bid, serial, milestone, store, orphan)

    def _make_room(self, now: float) -> None:
        """Drop the rows every receiver holds; at the size limit, first catch
        up to `now` those that hold back the older half of the rows."""
        times = self.times
        if len(times.s) >= times.limit:
            keep = times.end - len(times.s) // 2
            for j, first in enumerate(self.first_row):
                if first < keep:
                    self._catch_up(j, now)
        times.drop_before(min(self.first_row))

    def _fold_orphans(self, before: float) -> None:
        """Fold the buffered orphan arrivals (+1) and stores (-1) timed
        before `before` into each receiver's orphan count and peak; later
        ones stay buffered.  A receiver that would hold more orphans than
        `node.ORPHAN_CAP` is a ValueError: the per-delivery path would evict
        one, which store times cannot express."""
        if not self.orphan_events:
            return
        events = self.orphan_events
        node = np.concatenate([nodes for nodes, _time, _step in events])
        time = np.concatenate([time for _nodes, time, _step in events])
        # a step is +1 or -1 for a whole batch, or one per event when carried
        step = np.concatenate([np.broadcast_to(np.int64(s), len(n)) for n, _time, s in events])
        done = time < before
        self.orphan_events = [] if done.all() else [(node[~done], time[~done], step[~done])]
        self.orphan_events_size = len(node) - int(np.count_nonzero(done))
        self.orphan_fold_at = max(ORPHAN_EVENT_BATCH, 2 * self.orphan_events_size)
        node, time, step = node[done], time[done], step[done]
        if not len(node):
            return
        order = np.lexsort((step, time, node))
        node, step = node[order], step[order]
        starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        ids = node[starts]
        held = np.cumsum(step)
        # each node's running count: its own steps on top of its carried count
        held += np.repeat(self.orphan_count[ids] - (held[starts] - step[starts]), np.diff(np.r_[starts, len(node)]))
        self.orphan_peak[ids] = np.maximum(self.orphan_peak[ids], np.maximum.reduceat(held, starts))
        self.orphan_count[ids] = held[np.r_[starts[1:], len(node)] - 1]
        cap = node_module.ORPHAN_CAP
        over = np.flatnonzero(self.orphan_peak > cap)
        if len(over):
            j = int(over[0])
            raise ValueError(
                f"node {j} would hold {int(self.orphan_peak[j])} orphans at once, over its "
                f"orphan_cap of {cap}: the per-delivery path would evict, and "
                "the simulation would no longer be exact"
            )

    def _catch_up(self, j: int, until: float) -> None:
        """Bring receiver j up to date at time `until`: the transactions
        arrived since it last caught up, then the blocks it stored by then
        in store order (see `NodeState.catch_up`)."""
        node = self.receivers[j]
        entries = self.tx_log[self.tx_seen[j] :]
        self.tx_seen[j] = len(self.tx_log)
        times = self.times
        lo = self.first_row[j] - times.base
        store = times.s[lo : times.end - times.base, j]
        serials = times.serial[lo : times.end - times.base]
        # blocks taken in at an earlier catch-up to the same instant, and
        # the receiver's own, are held already; the view of the bitmap is gone
        # once indexed (a live one would pin it, and the store grows it)
        unheld = np.frombuffer(node.sdag.held, dtype=np.uint8)[serials] == 0
        due = np.flatnonzero((store <= until) & unheld)
        later = np.flatnonzero(store > until)
        self.first_row[j] = times.end if not len(later) else times.base + lo + int(later[0])
        if not len(due) and not entries:
            return
        rows = due + lo  # kept-row indices
        milestones = rows[times.milestone[rows]]
        node.catch_up(
            entries,
            times.bid[rows].tolist(),
            (times.idp[rows].tolist(), times.idm[rows].tolist(), times.idt[rows].tolist()),
            serials[due].tolist(),
            times.txid[rows].tolist(),
            self._cascades(j, rows, milestones) if len(milestones) else (),
        )

    def _cascades(self, j: int, rows: np.ndarray, milestones: np.ndarray) -> list:
        """The milestones among the kept `rows` that node j stores now, in
        store order, one list per delivery that stored any, each with
        whether the delivered block was a milestone."""
        times = self.times
        store, orphan = times.s[:, j], times.orphan[:, j]
        if len(milestones) == 1:
            k = int(milestones[0])
            return [(not orphan[k], [times.bid[k]])]
        cascades = []
        by_time = milestones[np.argsort(store[milestones], kind="stable")].tolist()
        for instant, group in groupby(by_time, key=store.__getitem__):
            group = list(group)
            if len(group) == 1:
                # stored as delivered, or as an orphan that a regular block
                # released: no other milestone was stored then
                cascades.append((not orphan[group[0]], [times.bid[group[0]]]))
            else:
                cascades += self._deliveries(rows[store[rows] == instant].tolist(), orphan)
        return cascades

    def _deliveries(self, members: list[int], orphan: np.ndarray) -> list:
        """Replay the kept rows `members`, which a node stores at one
        instant, as deliveries: the rows that arrived then, not as orphans,
        in broadcast order (a parent is always broadcast before its
        children), each storing the orphans it completes in `node.drain`
        order.  Returns, for each delivery that stored a milestone, whether
        the delivered block was one, and the milestones in store order."""
        times = self.times
        row_of = {times.bid[k]: k for k in members}
        parents = {k: (times.idp[k], times.idm[k], times.idt[k]) for k in members}
        waiting: dict[bytes, set[bytes]] = {}
        for k in members:
            if orphan[k]:
                for ref in parents[k]:
                    if ref in row_of:
                        waiting.setdefault(ref, set()).add(times.bid[k])
        stored: set[bytes] = set()
        taken: list[bytes] = []

        def take(bid: bytes) -> bool:
            if bid in stored or any(ref in row_of and ref not in stored for ref in parents[row_of[bid]]):
                return False
            stored.add(bid)
            taken.append(bid)
            return True

        cascades = []
        for k in members:
            if orphan[k]:
                continue
            taken.clear()
            take(times.bid[k])
            drain(times.bid[k], waiting, take)
            milestones = [bid for bid in taken if times.milestone[row_of[bid]]]
            if milestones:
                cascades.append((bool(times.milestone[k]), milestones))
        assert len(stored) == len(members), "an orphan stored with no delivery to release it"
        return cascades

    # -- handlers --------------------------------------------------------

    def _make_tx(self, index: int) -> Transaction:
        bare = Transaction(
            TxKind.NORMAL,
            inputs=(TxInput(GENESIS_ID, index, b""),),
            outputs=(TxOutput(2 - TX_FEE, self.user_address),),
        )
        witness = DEFAULT_SCHEME.witness(self.user_secret, sighash(bare))
        return Transaction(
            TxKind.NORMAL,
            inputs=(TxInput(GENESIS_ID, index, witness),),
            outputs=bare.outputs,
        )

    def _handle_tx(self, t: float) -> None:
        if len(self.tx_log) < len(self.genesis_outputs):
            tx = self._make_tx(len(self.tx_log))
            # one immutable transaction, shared by every pool; the receivers
            # take it in when they catch up
            txid = tx.txid()
            self.tx_log.append((txid, tx))
            self.tx_arrival[txid] = t
        self._push(t + self.master.expovariate(self.cfg.lam), _RANK_TX, 0)

    def _record_block(self, block: Block, t: float) -> bytes:
        bid = block_id(block)
        self.created_at[bid] = t
        return bid

    def _handle_mine(self, i: int, t: float) -> None:
        self._catch_up(i, t)
        if i < self.cfg.n:
            block = self.receivers[i].create_block()
            self._record_block(block, t)
            self._broadcast(block, t, skip=i)
        else:
            self.adversary.on_mine(t)
        self._push(t + self.master.expovariate(self.rates[i]), _RANK_MINE, i)

    # -- main loop -------------------------------------------------------

    def run(self) -> SimMetrics:
        cfg = self.cfg
        clock = time.perf_counter
        started = clock()
        for i, rate in enumerate(self.rates):
            self._push(self.master.expovariate(rate), _RANK_MINE, i)
        if cfg.lam > 0:
            self._push(self.master.expovariate(cfg.lam), _RANK_TX, 0)
        sample_step = cfg.horizon / MEMPOOL_SAMPLES
        for k in range(1, MEMPOOL_SAMPLES + 1):
            self._push(min(k * sample_step, cfg.horizon), _RANK_SAMPLE, 0)

        heap = self.heap
        pop = heapq.heappop
        events = self.events
        while heap:
            t, rank, actor = pop(heap)
            events[rank] += 1
            if rank == _RANK_TX:
                self._handle_tx(t)
            elif rank == _RANK_MINE:
                self._handle_mine(actor, t)
            elif rank == _RANK_SAMPLE:
                # the mempool fill time constant is long; sample only the
                # final quarter so transients do not drag the mean down
                if t >= cfg.horizon * 0.75:
                    self._catch_up(0, t)
                    self.mempool_samples.append(float(len(self.nodes[0].mempool.entries)))
        looped = clock()
        self._snapshot_horizon()
        for j in range(len(self.receivers)):
            self._catch_up(j, math.inf)
        self._fold_orphans(math.inf)
        caught_up = clock()
        build = build_from_dag(
            self.nodes[0].sdag,
            self.params,
            self.genesis_outputs,
            finality_depth=cfg.finality_depth,
        )
        folded = clock()
        metrics = self._metrics(build)
        self.timings.update(
            event_loop_s=looped - started,
            catch_up_s=caught_up - looped,
            fold_s=folded - caught_up,
            metrics_s=clock() - folded,
        )
        return metrics

    def _snapshot_horizon(self) -> None:
        """Every honest chain with exactly the stores at or before the horizon."""
        for j in range(self.cfg.n):
            self._catch_up(j, self.cfg.horizon)
        self.chains_at_horizon = [n.sdag.main_chain for n in self.nodes]

    # -- metrics ---------------------------------------------------------

    def counters(self) -> dict[str, object]:
        """Deterministic counts of what the run did, summed over every
        receiver (the adversary's included): events handled by type (each
        delivery of a block to a receiver counted as one), deliveries,
        blocks stored, orphans buffered and evicted (and the most one
        receiver held at once), rejected blocks, mining attempts and reorgs
        (honest nodes only, see `SimMetrics.reorg_count`).  Orphans evicted
        and rejected blocks are 0 by construction: a receiver over its
        orphan cap or a broadcast block that is not in the shared store
        stops the run instead (`_fold_orphans`, `_broadcast`); the keys stay
        so the bytes of `counters.json` do not move."""
        receivers = self.receivers
        return {
            "events": dict(zip(_RANK_NAMES, self.events)),
            "deliveries": self.events[_RANK_DELIVER],
            "inserts": sum(len(node.sdag) - 1 for node in receivers),
            "orphans_buffered": int(self.orphans_buffered.sum()),
            "orphans_evicted": sum(node.orphans_evicted for node in receivers),
            "orphan_peak_per_node": int(self.orphan_peak.max()),
            "rejected_blocks": sum(node.rejected_blocks for node in receivers),
            "mining_attempts": sum(node.mining_attempts for node in receivers),
            "reorgs": self.reorg_count(),
        }

    def reorg_count(self) -> int:
        """Reorgs over the honest nodes (see `SimMetrics.reorg_count`)."""
        return sum(node.reorgs for node in self.nodes)

    def _metrics(self, build: LedgerBuild) -> SimMetrics:
        """The run's metrics; `build` is the reference node's fold."""
        cfg = self.cfg
        ref = self.nodes[0]
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
        for bid, rec in build.rewards.items():
            peer = ref.sdag.blocks[bid].peer
            idx = identity_to_index.get(peer, -1)
            reward_by_miner[idx] = reward_by_miner.get(idx, 0) + rec.amount
            reward_amounts.append(rec.amount)

        # each block made, in creation order: its class, and the first
        # inclusion time of each transaction
        blocks, ms_height = self.facts.blocks, self.facts.ms_height
        milestones = 0
        included: dict[bytes, float] = {}
        for bid, t in self.created_at.items():
            if bid in ms_height:
                milestones += 1
            tx = blocks[bid].mes
            if tx.kind is TxKind.NORMAL:
                included.setdefault(tx.txid(), t)
        # every normal transaction comes from the log
        queueing = [t - self.tx_arrival[txid] for txid, t in sorted(included.items())]
        infection = measure_infection(
            ref.sdag, self.created_at, cutoff=cfg.horizon * 0.7, horizon=cfg.horizon
        )
        occupancy = (
            sum(self.mempool_samples) / len(self.mempool_samples)
            if self.mempool_samples
            else 0.0
        )
        return SimMetrics(
            config=cfg,
            blocks_created=len(self.created_at),
            milestones_created=milestones,
            chain_height=ref.sdag.height(),
            tps_effective=accepted_normal / cfg.horizon,
            duplicate_count=duplicates,
            normal_block_count=normal_blocks,
            queueing_latency=queueing,
            infection_latency=infection,
            common_prefix_violations=common_prefix_violations(
                self.chains_at_horizon, cfg.finality_depth
            ),
            reorg_count=self.reorg_count(),
            max_reorg_depth=max(node.max_reorg_depth for node in self.nodes),
            mempool_occupancy=occupancy,
            reward_by_miner=reward_by_miner,
            reward_amounts=reward_amounts,
            adversary_blocks=len(self.adversary_block_ids),
            adversary_releases=getattr(self.adversary, "releases", 0),
            counters=self.counters(),
        )
