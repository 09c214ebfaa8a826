"""Tests of the benchmark harness: the dag-replay generator, the tracer's
self-time accounting, the install/uninstall of its wrappers, and the
host-speed probe's scaling of job times."""

import io
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import sdag  # noqa: E402
from sdag import cli, core, dag, ledger, node, simnet  # noqa: E402
from sdag.core import GENESIS  # noqa: E402
from sdag.dag import SDag  # noqa: E402

import hostspeed  # noqa: E402
import replay_gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = 3000


@pytest.fixture(scope="module")
def small_replay():
    generated = replay_gen.generate(7, blocks=SMALL)
    sdag_ = SDag.load(io.StringIO(generated.dump), replay_gen.PARAMS)
    build = ledger.build_from_dag(
        sdag_, replay_gen.PARAMS, generated.genesis_outputs, finality_depth=replay_gen.FINALITY_DEPTH
    )
    return generated, sdag_, build


def test_generator_is_deterministic_per_seed(small_replay):
    generated, _sdag, _build = small_replay
    again = replay_gen.generate(7, blocks=SMALL)
    assert again.dump == generated.dump
    assert again.genesis_outputs == generated.genesis_outputs
    assert replay_gen.generate(8, blocks=SMALL).dump != generated.dump


def test_load_accepts_the_dump(small_replay):
    generated, sdag_, _build = small_replay
    assert len(sdag_) == SMALL + 1  # plus the genesis
    assert generated.dump.count("\n") == SMALL
    assert sdag_.height() > 50


def test_fold_meets_every_injected_conflict(small_replay):
    generated, sdag_, build = small_replay
    s = workloads.summarize_replay(sdag_, build, generated.genesis_outputs)
    assert s["duplicate"] >= 1
    assert s["double_spend"] >= 1  # reason "input not in utxo"
    assert s["forked"] >= 1
    assert s["redemption_accepted"] >= 1
    assert s["redemption_rejected"] >= 1
    assert s["utxo_value"] == s["genesis_value"] + s["claimed"]
    # the workload's own check: also no kind seen more often than written
    replay = workloads.DagReplay()
    replay.injected = generated.injected
    assert replay.check(workloads.JobResult(1.0, SMALL, {}, facts={"summary": s})) == []


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_the_root_total():
    t = tracer.Tracer()
    c = t.wrap("toy.c", lambda: _spin(0.002))

    def b_body():
        _spin(0.001)
        c()

    b = t.wrap("toy.b", b_body)

    def a_body():
        _spin(0.001)
        b()
        b()
        c()

    a = t.wrap("toy.a", a_body)
    a()
    edges = t.stats.edges
    assert {key: row[0] for key, row in edges.items()} == {
        ("toy.a", tracer.ROOT): 1,
        ("toy.b", "toy.a"): 2,
        ("toy.c", "toy.b"): 2,
        ("toy.c", "toy.a"): 1,
    }
    root_total = edges[("toy.a", tracer.ROOT)][1]
    assert all(row[2] >= 0 for row in edges.values())
    assert t.stats.self_total() == pytest.approx(root_total, rel=1e-9)
    # c ran three times for at least 2 ms each, all of it self time
    c_self = sum(row[2] for (name, _caller), row in edges.items() if name == "toy.c")
    assert c_self >= 0.006


def _bindings():
    """Every module attribute and class attribute the tracer may patch."""
    out = {}
    for mod in tracer._package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    out[(mod.__name__, key, attr)] = raw
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    assert tracer.installed_wrappers() == []
    t = tracer.Tracer()
    with t:
        # the defining module and the `from .core import block_id` sites
        for mod in (core, dag, node, simnet):
            assert hasattr(mod.block_id, tracer.MARK)
        assert hasattr(ledger.build_from_dag, tracer.MARK)
        assert hasattr(simnet.build_from_dag, tracer.MARK)
        assert hasattr(cli.build_from_dag, tracer.MARK)
        assert hasattr(vars(SDag)["load"].__func__, tracer.MARK)
        assert tracer.installed_wrappers()
        core.block_id(GENESIS)
    assert t.stats.per_span()["core.block_id"][0] == 1
    assert tracer.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


class _ProbeWorkload:
    """A cheap job that records whether wrappers were live while it ran."""

    def __init__(self):
        self.seen = []

    def job(self):
        self.seen.append(bool(tracer.installed_wrappers()))
        t0 = time.perf_counter()
        sdag.block_id(GENESIS)
        core.block_id(GENESIS)
        return workloads.JobResult(time.perf_counter() - t0, 1, {"out": "x"}, blocks=1)

    def check(self, result):
        return []


def test_only_the_traced_jobs_run_with_wrappers():
    probe = _ProbeWorkload()
    outcome = run.Outcome({})
    metrics, _detail = run.traced_run(probe, outcome, tracer)
    assert probe.seen == [False] + [True] * run.TRACED_JOBS
    assert outcome.failed == 0
    assert metrics["core.block_id.calls"]["value"] == 2
    assert tracer.installed_wrappers() == []


def test_reference_seconds_scale_each_stretch_by_its_burst():
    ref = hostspeed.REFERENCE_BURST_S
    probe = hostspeed.Probe()
    # (handler entry, handler exit, timed burst seconds): the host at full
    # speed, then at half; each interruption also ran an untimed burst
    probe.bursts = [(1.0, 1.0 + 2 * ref, ref), (2.0, 2.0 + 4 * ref, 2 * ref)]
    # [0, 1] at speed 1, [1 + 2 ref, 2] at 1/2, [2 + 4 ref, 3] at 1/2
    expected = 1.0 + (1.0 - 2 * ref) / 2 + (1.0 - 4 * ref) / 2
    assert probe.reference_seconds(0.0, 3.0) == pytest.approx(expected)
    # an interval with no burst takes the nearest burst's speed
    assert probe.reference_seconds(5.0, 6.0) == pytest.approx(0.5)
    assert probe.burst_speeds(0.0, 3.0) == pytest.approx([1.0, 0.5])


def test_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        _spin(5 * hostspeed.PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.bursts) >= 3
    assert all(entered < left and 0 < d < left - entered for entered, left, d in probe.bursts)
