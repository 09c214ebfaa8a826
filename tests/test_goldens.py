"""The bytes the benchmark pins, checked on every test run: seed 0 of every
workload and the `demo-dag` artifacts are rebuilt and compared with
`bench/goldens.json`, which this file only reads."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def check_seed_0(workload, tmp_path):
    run = workload()
    assert GOLDENS[run.name]["spec"] == run.spec
    run.prepare(0, tmp_path)
    result = run.job()
    assert run.check(result) == []
    assert result.digests == GOLDENS[run.name]["seeds"]["0"]


def test_desk_sim_artifacts_match_golden(tmp_path):
    check_seed_0(workloads.DeskSim, tmp_path)


def test_dag_replay_ledger_matches_golden(tmp_path):
    check_seed_0(workloads.DagReplay, tmp_path)


def test_secure_curve_matches_golden(tmp_path):
    check_seed_0(workloads.SecureCurve, tmp_path)


def test_demo_dag_artifacts_match_golden(tmp_path):
    assert workloads.demo_dag_digests(tmp_path) == GOLDENS["demo-dag"]
