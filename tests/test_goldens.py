"""The ledger bytes the benchmark pins, checked on every test run: the
`dag-replay` ledger of seed 0 and the `demo-dag` artifacts are rebuilt and
compared with `bench/goldens.json`, which this file only reads."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def test_dag_replay_ledger_matches_golden(tmp_path):
    replay = workloads.DagReplay()
    assert GOLDENS[replay.name]["spec"] == replay.spec
    replay.prepare(0, tmp_path)
    result = replay.job()
    assert replay.check(result) == []
    assert result.digests == GOLDENS[replay.name]["seeds"]["0"]


def test_demo_dag_artifacts_match_golden(tmp_path):
    assert workloads.demo_dag_digests(tmp_path) == GOLDENS["demo-dag"]
