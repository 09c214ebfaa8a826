"""Command-line interface: subcommands, config parsing, exit codes, manifests."""

import json
import math

import pytest

from sdag.cli import EXIT_BAD_INPUT, EXIT_UNSTABLE, load_sim_config, main
from sdag.simnet import PeerChainFork, PrivateMilestoneFork

SMALL_INI = """\
[simulation]
n = 4
mu = 0.1
p = 0.2
c = 1.0
lambda = 0.4
t0 = 0.5
horizon = 60
seed = 5
finality_depth = 2
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text(SMALL_INI)
    return path


def test_load_sim_config_maps_lambda(config_file):
    cfg = load_sim_config(str(config_file))
    assert cfg.lam == 0.4 and cfg.n == 4 and cfg.seed == 5


def test_load_sim_config_strategy(tmp_path):
    path = tmp_path / "adv.ini"
    path.write_text(
        SMALL_INI + "adversary_share = 0.3\n"
        "adversary_strategy = private-milestone-fork:depth=4\n"
    )
    cfg = load_sim_config(str(path))
    assert cfg.adversary_strategy == PrivateMilestoneFork(4)
    path.write_text(
        SMALL_INI + "adversary_share = 0.3\nadversary_strategy = peer-chain-fork:victim=2\n"
    )
    assert load_sim_config(str(path)).adversary_strategy == PeerChainFork(2)


@pytest.mark.parametrize(
    "strategy",
    ["peer-chain-fork:depth=3", "private-milestone-fork:victim=2", "peer-chain-fork:victim"],
)
def test_strategy_argument_needs_its_own_key(tmp_path, strategy):
    path = tmp_path / "adv.ini"
    path.write_text(SMALL_INI + f"adversary_share = 0.3\nadversary_strategy = {strategy}\n")
    with pytest.raises(ValueError):
        load_sim_config(str(path))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("key", ["mu", "p", "c", "lambda", "t0", "adversary_share", "horizon"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_non_finite_floats(tmp_path, key, value):
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith(f"{key} =")]
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not (out / "metrics.csv").exists()


def test_load_sim_config_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(SMALL_INI + "bogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        load_sim_config(str(path))


def test_simulate_writes_artifacts(config_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert set(manifest["artifacts"]) == {
        "metrics.csv",
        "queueing_latency.csv",
        "infection_latency.csv",
    }
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("seed,n,horizon,")
    assert len(metrics) == 2


def test_simulate_reproducible(config_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()
    assert (out1 / "queueing_latency.csv").read_text() == (
        out2 / "queueing_latency.csv"
    ).read_text()


def test_simulate_seed_flag_and_env(config_file, tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config_file), "--seed", "9", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 9
    monkeypatch.setenv("SDAG_SEED", "11")
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 11


def test_simulate_bad_seed_env_exit_code(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SDAG_SEED", "abc")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == EXIT_BAD_INPUT
    assert "SDAG_SEED" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        "finality_depth = -4\n",
        "adversary_share = 0.3\nadversary_strategy = private-milestone-fork:depth=-1\n",
    ],
)
def test_simulate_rejects_negative_depths(tmp_path, extra):
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith("finality_depth =")]
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines) + "\n" + extra)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert not (out / "metrics.csv").exists()


def test_simulate_out_is_a_file_exit_code(config_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: cannot create output directory")
    assert out.read_text() == "keep me\n"


def test_simulate_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[simulation]\nn = 0\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_BAD_INPUT
    assert (
        main(["simulate", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "y")])
        == EXIT_BAD_INPUT
    )


def test_analyze_theta(capsys):
    assert main(["analyze", "theta", "--c", "0.01", "--mu", "1.2", "--tbar", "1.6666666667"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.017, abs=1e-3)


def test_analyze_w1_and_unstable(capsys):
    rc = main(
        ["analyze", "w1", "--lam", "1000", "--n", "1000", "--mu", "1.2", "--c", "0.01", "--tbar", "1.6666666667"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    w1_val = float(lines[0].split()[1])
    assert w1_val == pytest.approx(188.2, abs=0.5)
    rc = main(
        ["analyze", "w1", "--lam", "1200", "--n", "1000", "--mu", "1.2", "--c", "0.01", "--tbar", "1.6666666667"]
    )
    assert rc == EXIT_UNSTABLE


def test_analyze_w2(capsys):
    assert main(["analyze", "w2", "--n", "1000", "--p", str(1 / 12000), "--mu", "1.2"]) == 0
    lines = dict(l.split() for l in capsys.readouterr().out.splitlines())
    assert float(lines["exact"]) <= float(lines["bound"])
    assert float(lines["bound"]) == pytest.approx(23.0, abs=1.0)


def test_analyze_fraction(capsys):
    assert main(["analyze", "fraction", "--pnmu", "0.1", "--t0", "2"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.928, abs=1e-3)


def test_analyze_depth(capsys):
    assert main(["analyze", "depth", "--share", "0.1", "--fraction", "0.928", "--risk", "0.001"]) == 0
    assert int(capsys.readouterr().out) >= 1
    assert (
        main(["analyze", "depth", "--share", "0.45", "--fraction", "0.5", "--risk", "0.001"])
        == EXIT_BAD_INPUT
    )


def test_analyze_secure_csv(tmp_path):
    out = tmp_path / "secure.csv"
    rc = main(
        [
            "analyze",
            "secure",
            "--share",
            "0.1",
            "--grid",
            "20:20:40",
            "--paths",
            "2000",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,failures,paths,frequency,stderr"
    assert len(lines) == 3
    t, failures, paths, freq, _ = lines[1].split(",")
    assert float(t) == 20.0 and int(paths) == 2000
    assert math.isclose(float(freq), int(failures) / 2000)
    manifest = json.loads((tmp_path / "secure.csv.manifest.json").read_text())
    assert manifest["artifacts"] == ["secure.csv"]
    assert manifest["seed"] == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("target", ["missing/secure.csv", "isdir"])
def test_analyze_secure_unwritable_out_exit_code(tmp_path, capsys, target):
    (tmp_path / "isdir").mkdir()
    out = tmp_path / target
    argv = ["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", "100"]
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "missing").exists()


def test_analyze_secure_bad_grid():
    rc = main(["analyze", "secure", "--share", "0.1", "--grid", "oops", "--paths", "10"])
    assert rc == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "flags", [["--paths", "0"], ["--pnmu", "0"], ["--pnmu", "-0.1"], ["--pnmu", "inf"]]
)
def test_analyze_secure_rejects_empty_runs_and_bad_rates(flags):
    rc = main(["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", "10"] + flags)
    assert rc == EXIT_BAD_INPUT


def test_demo_dag_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo-dag", "--out", str(out)]) == 0
    for name in ("dag.txt", "levels.txt", "order.txt", "ledger.csv", "manifest.json"):
        assert (out / name).exists()
    levels = (out / "levels.txt").read_text()
    assert "pending: b1, c1, c2, d2" in levels
    assert (out / "dag.txt").read_text().count("\n") == 19


def test_demo_dag_out_is_a_file_exit_code(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["demo-dag", "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: cannot create output directory")
    assert out.read_text() == "keep me\n"
