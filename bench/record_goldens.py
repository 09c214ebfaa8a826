"""Re-record the output goldens in bench/goldens.json.

    python3 bench/record_goldens.py --workload dag-replay --seeds 0-19

Runs each workload's job once per seed and stores the sha256 digests of
its outputs, plus the demo-dag artifacts.  Record goldens only from a
commit whose outputs are known to be right: later runs of the benchmark
count every difference from them as a failure.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5-7")
    args = parser.parse_args(argv)
    workloads = run.import_sdag()
    data = json.loads(run.GOLDENS.read_text()) if run.GOLDENS.exists() else {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=run.ROOT) as tmp_name:
        tmp = Path(tmp_name)
        data["demo-dag"] = workloads.demo_dag_digests(tmp)
        for name in args.workload or run.WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]()
            entry = data.get(name)
            if entry is None or entry["spec"] != workload.spec:
                entry = data[name] = {"spec": workload.spec, "seeds": {}}
            for seed in parse_seeds(args.seeds):
                workload.prepare(seed, tmp)
                result = workload.job()
                problems = workload.check(result)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                entry["seeds"][str(seed)] = result.digests
                print(f"{name} seed {seed}: {result.seconds:.2f} s", flush=True)
            entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    run.GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
