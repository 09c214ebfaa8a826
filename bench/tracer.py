"""Per-module tracing for the benchmark's traced run.

The tracer wraps a fixed list of sdag functions and methods from outside
the package: every module attribute bound to a target function is replaced
(so `from .core import block_id` sites in dag, node and simnet are traced
too), and methods are replaced on their class.  `uninstall` puts every
original binding back.

Spans are aggregated in memory per (function, caller function): calls,
total seconds and self seconds, where self time is a span's duration minus
the durations of the wrapped spans it directly contains.  Raw durations
are kept only for the functions whose percentiles are reported.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "sdag"
ROOT = "-"
MARK = "__bench_wrapped__"

# (module, owner class or None, attribute, keep raw durations)
TARGETS: tuple[tuple[str, Optional[str], str, bool], ...] = (
    ("core", None, "block_id", False),
    ("core", None, "encode_tx", False),
    ("core", None, "decode_block", False),
    ("core", None, "tx_distance", False),
    ("core", None, "sighash", False),
    ("core", None, "mine", False),
    ("dag", "SDag", "insert", False),
    ("dag", "SDag", "load", False),
    ("dag", "SDag", "level_sets", False),
    ("dag", "SDag", "tip_set", False),
    ("sigs", "MockScheme", "verify", False),
    ("sigs", "MockScheme", "sign", False),
    ("mempool", "Mempool", "workable", True),
    ("mempool", None, "estimate_power", False),
    ("node", "NodeState", "create_block", True),
    ("node", "NodeState", "tx_compatible", False),
    ("node", "NodeState", "on_receive_block", False),
    ("node", "NodeState", "on_tx", False),
    ("ledger", None, "build_ledger", False),
    ("ledger", None, "dfs_order", False),
    ("ledger", None, "build_from_dag", False),
    ("ledger", None, "resolve_peer_chain", False),
    ("ledger", None, "ledger_csv", False),
    ("curves", "QuadraticCurve", "inverse", False),
    ("curves", "QuadraticCurve", "cdf", False),
    ("analysis", None, "secure_latency_mc", False),
    ("simnet", "Simulation", "run", False),
    ("cli", None, "main", False),
)


SPAN_NAMES = tuple(f"{m}.{a}" for m, _c, a, _k in TARGETS)


@dataclass
class TraceStats:
    """What one traced job recorded."""

    # (span, caller span) -> [calls, total seconds, self seconds]
    edges: dict[tuple[str, str], list] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def per_span(self) -> dict[str, list]:
        """span -> [calls, total seconds, self seconds], summed over callers."""
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for (name, _caller), (calls, total, self_s) in self.edges.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def self_total(self) -> float:
        return sum(self_s for _c, _t, self_s in self.edges.values())


def _bump(counters: dict[str, int], key: str, by: int) -> None:
    counters[key] = counters.get(key, 0) + by


def _on_workable(stats: TraceStats, args, kwargs, result) -> None:
    _bump(stats.counters, "mempool.workable.scanned", len(args[0].entries))
    _bump(stats.counters, "mempool.workable.hits", len(result))


def _on_secure(stats: TraceStats, args, kwargs, result) -> None:
    _bump(stats.counters, "analysis.path_points", sum(p.paths for p in result))


def _on_sim_run(stats: TraceStats, args, kwargs, result) -> None:
    sim = args[0]
    nodes = list(sim.nodes) + ([sim.adv_node] if sim.adv_node is not None else [])
    c = stats.counters
    _bump(c, "simnet.blocks_created", result.blocks_created)
    _bump(c, "simnet.reorgs", result.reorg_count)
    _bump(c, "node.rejected_blocks", sum(n.rejected_blocks for n in nodes))
    _bump(c, "node.mining_attempts", sum(n.mining_attempts for n in nodes))


HOOKS: dict[str, Callable] = {
    "mempool.workable": _on_workable,
    "analysis.secure_latency_mc": _on_secure,
    "simnet.run": _on_sim_run,
}


class Tracer:
    """Installs span wrappers on the sdag package and collects TraceStats."""

    def __init__(self):
        self.stats = TraceStats()
        self._stack: list[list] = []  # frames: [span name, seconds in wrapped children]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, keep_samples: bool = False) -> Callable:
        stack = self._stack
        stats = self.stats
        edges = stats.edges
        samples = stats.samples.setdefault(name, []) if keep_samples else None
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((name, caller))
                if edge is None:
                    edge = edges[(name, caller)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
                if samples is not None:
                    samples.append(dt)
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for module, owner, attr, keep in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            name = f"{module}.{attr}"
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original, keep)
                # every binding site: `from .core import block_id` copies the name
                for site in modules:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._restore.append((site, key, value))
                            setattr(site, key, wrapper)
            else:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):  # SDag.load
                    patched = classmethod(self.wrap(name, raw.__func__, keep))
                else:
                    patched = self.wrap(name, raw, keep)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def installed_wrappers() -> list[str]:
    """Names of every tracer wrapper currently bound in the package."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
