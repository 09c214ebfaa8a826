"""sdag benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload desk-sim --seed 0 --seconds 30 --trace 0

Untraced (`--trace 0`): set up (imports once, then input preparation
repeated SETUP_REPEATS times), run the workload's job until `--seconds`
have passed, check every job's outputs, and print the end-to-end metrics
(items over job seconds of all the run's jobs, set-up time, peak RSS).
Times are in reference seconds: wall seconds scaled by the host's speed,
which a probe (hostspeed.py) measures throughout set-up and measurement.
Traced (`--trace 1`): after the same set-up, run one untraced job and two
traced jobs, check that the traced jobs' exact counters agree, and print
the per-layer metrics in wall seconds, with the probe off.  The last line
of stdout is the JSON result.

The benchmark imports sdag from `src/` of the checkout it sits in.
"""

import os
import time

PROCESS_START = time.perf_counter()

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
TRACED_JOBS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("desk-sim", "dag-replay", "secure-curve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_sdag():
    """Import sdag from this checkout's src/, never from site-packages."""
    if not (SRC / "sdag" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdag sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sdag

    if Path(sdag.__file__).resolve().parent != (SRC / "sdag").resolve():
        raise SystemExit(f"error: imported sdag from {sdag.__file__}, not {SRC}")
    import workloads

    return workloads


def git_state() -> tuple[str, object]:
    """(rev, dirty) of the checkout, or ("unknown", None) outside git."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=20,
        )
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown", None
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=20
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=20,
        ).stdout
        return rev or "unknown", bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def environment() -> dict:
    import numpy
    import scipy

    rev, dirty = git_state()
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class Outcome:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests = None

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def job(self, label: str, workload):
        """Run one job; a raise, a failed check or a digest that differs
        from the golden or from the run's first job is a failure."""
        try:
            result = workload.job()
        except Exception:
            self.record(label, [traceback.format_exc().strip().splitlines()[-1]])
            return None
        problems = workload.check(result)
        if self.golden and result.digests != self.golden:
            problems.append(f"outputs differ from the golden: {diff(result.digests, self.golden)}")
        if self.first_digests is None:
            self.first_digests = result.digests
        elif result.digests != self.first_digests:
            problems.append("outputs differ from the run's first job at the same seed")
        self.record(label, problems)
        return result


def diff(got: dict, want: dict) -> list[str]:
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def load_goldens(workload, seed: int) -> tuple[dict, dict]:
    """(golden digests for this seed or {}, demo-dag golden digests)."""
    data = json.loads(GOLDENS.read_text())
    entry = data.get(workload.name, {"spec": workload.spec, "seeds": {}})
    if entry["spec"] != workload.spec:
        raise SystemExit(
            f"error: goldens for {workload.name} were recorded for {entry['spec']}, "
            f"the workload is {workload.spec}; re-record them with bench/record_goldens.py"
        )
    return entry["seeds"].get(str(seed), {}), data["demo-dag"]


def measure(workload, outcome: Outcome, seconds: float) -> list:
    results = []
    start = time.perf_counter()
    while True:
        result = outcome.job(f"job {len(results) + 1}", workload)
        if result is not None:
            results.append(result)
        if time.perf_counter() - start >= seconds:
            return results


def job_reference_seconds(results, probe) -> list[float]:
    return [probe.reference_seconds(r.started, r.started + r.seconds) for r in results]


def end_to_end(results, job_ref_s: list[float], setup_s: float) -> dict:
    # all the run's items over all its job seconds: a maximum or a quantile
    # of per-job rates would shift with the number of jobs that fit in the
    # run (see README.md)
    rate = sum(r.work for r in results) / sum(job_ref_s) if results else 0.0
    return {
        "throughput": {"value": rate, "unit": "items/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def speed_summary(speeds: list[float]) -> dict:
    """Quartiles of the host speeds the probe measured during the jobs."""
    if len(speeds) < 2:
        return {"bursts": len(speeds), "median": speeds[0] if speeds else None}
    q1, q2, q3 = statistics.quantiles(speeds, n=4)
    return {"bursts": len(speeds), "q1": q1, "median": q2, "q3": q3}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(workload, outcome: Outcome, tracer_mod) -> tuple[dict, dict]:
    """One untraced job, then TRACED_JOBS traced jobs; returns the
    per-layer metrics and the detail written to the trace file."""
    if tracer_mod.installed_wrappers():
        raise RuntimeError("wrappers installed before the untraced job")
    untraced = outcome.job("untraced job", workload)
    traced = []
    for k in range(TRACED_JOBS):
        tracer = tracer_mod.Tracer()
        with tracer:
            result = outcome.job(f"traced job {k + 1}", workload)
        leftover = tracer_mod.installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        if result is not None:
            traced.append((tracer.stats, result))
    if untraced is None or len(traced) < TRACED_JOBS:
        return {}, {}
    counts = [exact_counts(stats) for stats, _r in traced]
    if any(c != counts[0] for c in counts[1:]):
        changed = diff(counts[0], counts[1])
        outcome.record("determinism", [f"exact counters differ between traced jobs: {changed[:10]}"])
    else:
        outcome.record("determinism", [])
    return layer_metrics(traced, untraced, tracer_mod)


def exact_counts(stats) -> dict[str, int]:
    out = {f"{name}.calls": row[0] for name, row in stats.per_span().items()}
    out.update(stats.counters)
    return out


def layer_metrics(traced, untraced, tracer_mod) -> tuple[dict, dict]:
    stats, result = traced[0]
    spans = stats.per_span()
    seconds = [r.seconds for _s, r in traced]
    per_job = [s.per_span() for s, _r in traced]
    self_s = {name: statistics.mean(p[name][2] for p in per_job) for name in spans}
    counters = stats.counters
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ms(name, q):
        samples = stats.samples.get(name)
        return 1000 * tracer_mod.percentile(samples, q) if samples else 0.0

    for name, (calls, _total, _self) in spans.items():
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s[name], "s")
    for name in sorted(stats.samples):
        put(f"{name}.p50_ms", ms(name, 50), "ms")
        put(f"{name}.p99_ms", ms(name, 99), "ms")
    blocks = result.blocks
    put("core.block_id.calls_per_block", spans["core.block_id"][0] / blocks if blocks else 0.0, "ratio")
    scanned = counters.get("mempool.workable.scanned", 0)
    put("mempool.workable.scanned", scanned, "count")
    put("mempool.workable.hit_frac", counters.get("mempool.workable.hits", 0) / scanned if scanned else 0.0, "fraction")
    levels = result.nodes * result.height
    put("ledger.levels_folded_per_level", spans["ledger.dfs_order"][0] / levels if levels else 0.0, "ratio")
    put("analysis.path_points", counters.get("analysis.path_points", 0), "count")
    put("simnet.blocks_created", counters.get("simnet.blocks_created", 0), "count")
    put("simnet.deliveries", spans["node.on_receive_block"][0], "count")
    put("simnet.reorgs", counters.get("simnet.reorgs", 0), "count")
    put("node.rejected_blocks", counters.get("node.rejected_blocks", 0), "count")
    put("node.mining_attempts", counters.get("node.mining_attempts", 0), "count")
    put("trace.overhead", statistics.mean(seconds) / untraced.seconds, "ratio")
    put("trace.attributed_frac", statistics.mean(s.self_total() / r.seconds for s, r in traced), "fraction")

    detail = {
        "untraced_s": untraced.seconds,
        "traced_s": seconds,
        "spans": {
            name: {
                "calls": calls,
                "total_s": total,
                "self_s": span_self,
                "self_frac": span_self / result.seconds,
                "p50_ms": ms(name, 50) if name in stats.samples else None,
                "p99_ms": ms(name, 99) if name in stats.samples else None,
            }
            for name, (calls, total, span_self) in spans.items()
        },
        "edges": [
            {"span": name, "caller": caller, "calls": c, "total_s": t, "self_s": s}
            for (name, caller), (c, t, s) in sorted(stats.edges.items())
        ],
        "counters": counters,
    }
    return metrics, detail


def print_trace_table(detail: dict) -> None:
    print(f"{'span':32} {'calls':>10} {'self_s':>9} {'total_s':>9} {'p50_ms':>8} {'p99_ms':>8}")
    for name, row in sorted(detail["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        p50 = "" if row["p50_ms"] is None else f"{row['p50_ms']:.3f}"
        p99 = "" if row["p99_ms"] is None else f"{row['p99_ms']:.3f}"
        print(f"{name:32} {row['calls']:>10} {row['self_s']:>9.3f} {row['total_s']:>9.3f} {p50:>8} {p99:>8}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    with hostspeed.Probe() as probe:
        return measured_main(args, load_before, probe)


def measured_main(args, load_before, probe) -> int:
    # one core: numpy's BLAS pools must not compete with the measured thread
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    workloads = import_sdag()
    workload = workloads.WORKLOADS[args.workload]()
    golden, demo_golden = load_goldens(workload, args.seed)
    imported = time.perf_counter()
    import_s = probe.reference_seconds(PROCESS_START, imported)

    outcome = Outcome(golden)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        prepare_s = []
        prepare_wall_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare(args.seed, tmp)
            t1 = time.perf_counter()
            prepare_s.append(probe.reference_seconds(t0, t1))
            prepare_wall_s.append(t1 - t0)
        setup_s = import_s + statistics.median(prepare_s)
        setup_wall_s = imported - PROCESS_START + statistics.median(prepare_wall_s)

        if args.trace:
            import tracer

            # the probe's bursts would land in whichever span they interrupt
            probe.stop()
            metrics, detail = traced_run(workload, outcome, tracer)
            results = []
            job_ref_s = []
        else:
            measured_from = time.perf_counter()
            results = measure(workload, outcome, args.seconds)
            measured_to = time.perf_counter()
            probe.stop()
            job_ref_s = job_reference_seconds(results, probe)
            metrics = end_to_end(results, job_ref_s, setup_s)
            detail = None

        try:
            demo = workloads.demo_dag_digests(tmp)
            outcome.record("demo-dag", [] if demo == demo_golden else [f"artifacts differ from the golden: {diff(demo, demo_golden)}"])
        except Exception:
            outcome.record("demo-dag", [traceback.format_exc().strip().splitlines()[-1]])

    env = environment()
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "golden": "checked" if golden else "unchecked",
        "env": env,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "setup_wall_s": setup_wall_s,
        "jobs": [
            {"seconds": r.seconds, "reference_seconds": ref, "work": r.work}
            for r, ref in zip(results, job_ref_s)
        ],
        "problems": outcome.problems,
    }
    if not args.trace:
        info["host_speed"] = speed_summary(probe.burst_speeds(measured_from, measured_to))
        info["wall_throughput"] = sum(r.work for r in results) / sum(r.seconds for r in results) if results else 0.0
    correct = outcome.failed == 0 and bool(metrics)
    if args.trace:
        if detail:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({**info, **detail}, indent=1) + "\n")
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            print_trace_table(detail)
    else:
        alias, alias_unit = workload.alias
        print(f"{workload.name} seed {args.seed}: {len(results)} jobs, golden {info['golden']}")
        print(f"  {alias:22} {metrics['throughput']['value']:14.2f} {alias_unit}  (throughput; {info['wall_throughput']:.2f} per wall second)")
        print(f"  {'setup_s':22} {setup_s:14.3f} s  ({setup_wall_s:.3f} wall)")
        speed = info["host_speed"]
        if speed["bursts"] > 1:
            print(f"  {'host speed':22} {speed['median']:14.3f} x reference  (quartiles {speed['q1']:.3f}-{speed['q3']:.3f})")
        print(f"  {'peak_rss_mb':22} {metrics['peak_rss_mb']['value']:14.1f} MB")
        print(f"  {'failed_frac':22} {outcome.failed / outcome.attempted:14.3f} fraction ({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
