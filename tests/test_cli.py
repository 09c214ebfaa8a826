"""Command-line interface: subcommands, config parsing, exit codes, manifests."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from sdag.analysis import MAX_CHAIN_NODES, MAX_PATHS, theta
from sdag.cli import (
    EXIT_BAD_INPUT,
    EXIT_UNSTABLE,
    SIMULATE_ARTIFACTS,
    _parse_grid,
    load_sim_config,
    main,
)
from sdag.simnet import MAX_NODES, PeerChainFork, PrivateMilestoneFork, Simulation

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
    cfg = load_sim_config(config_file.read_bytes(), str(config_file))
    assert cfg.lam == 0.4 and cfg.n == 4 and cfg.seed == 5


def test_load_sim_config_strategy(tmp_path):
    path = tmp_path / "adv.ini"
    path.write_text(
        SMALL_INI + "adversary_share = 0.3\nadversary_strategy = private-milestone-fork\n"
    )
    assert load_sim_config(path.read_bytes(), str(path)).adversary_strategy == PrivateMilestoneFork()
    path.write_text(
        SMALL_INI + "adversary_share = 0.3\nadversary_strategy = peer-chain-fork:victim=2\n"
    )
    assert load_sim_config(path.read_bytes(), str(path)).adversary_strategy == PeerChainFork(2)


@pytest.mark.parametrize(
    "strategy",
    [
        "peer-chain-fork:depth=3",
        "private-milestone-fork:victim=2",
        "peer-chain-fork:victim",
        # no code reads a depth, so the strategy takes none
        "private-milestone-fork:depth=4",
    ],
)
def test_strategy_argument_needs_its_own_key(tmp_path, strategy):
    path = tmp_path / "adv.ini"
    path.write_text(SMALL_INI + f"adversary_share = 0.3\nadversary_strategy = {strategy}\n")
    with pytest.raises(ValueError):
        load_sim_config(path.read_bytes(), str(path))
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


@pytest.mark.parametrize(
    "key,value,refusal",
    [
        ("n", "1e2", "expected an integer, got '1e2'"),
        ("seed", "5.0", "expected an integer, got '5.0'"),
        ("finality_depth", "two", "expected an integer, got 'two'"),
        ("mu", "fast", "expected a number, got 'fast'"),
        ("lambda", "1/2", "expected a number, got '1/2'"),
        ("adversary_strategy", "peer-chain-fork:victim=", "expected peer-chain-fork:victim=N, N an integer, got ''"),
        (
            "adversary_strategy",
            "peer-chain-fork:victim=first",
            "expected peer-chain-fork:victim=N, N an integer, got 'first'",
        ),
    ],
    ids=["n", "seed", "finality_depth", "mu", "lambda", "victim-empty", "victim-word"],
)
def test_simulate_names_the_key_of_a_malformed_value(tmp_path, capsys, monkeypatch, key, value, refusal):
    """A value of the wrong form was refused with Python's own message,
    such as "invalid literal for int() with base 10: '1e2'" for `n = 1e2`,
    which named neither the key nor the form it takes."""
    monkeypatch.setattr(Simulation, "run", refuse_run)
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith(f"{key} =")]
    if key == "adversary_strategy":
        lines.append("adversary_share = 0.3")
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: config key {key}: {refusal}\n"
    assert not (out / "metrics.csv").exists()


def test_load_sim_config_unknown_key(tmp_path, capsys):
    # the fee is a constant (simnet.TX_FEE), not a setting
    for key in ("bogus", "fee"):
        path = tmp_path / "bad.ini"
        path.write_text(SMALL_INI + f"{key} = 1\n")
        with pytest.raises(ValueError, match=key):
            load_sim_config(path.read_bytes(), str(path))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
        assert f"unknown config key: {key}" in capsys.readouterr().err
        assert not out.exists()


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
        "counters.json",
        "timings.json",
    }
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("seed,n,horizon,")
    assert len(metrics) == 2
    timings = json.loads((out / "timings.json").read_text())
    assert list(timings) == ["setup_s", "event_loop_s", "catch_up_s", "fold_s", "metrics_s"]
    assert all(isinstance(s, float) and s >= 0 for s in timings.values())


def test_simulate_reproducible(config_file, tmp_path):
    """A rerun writes the same bytes; timings.json, which holds wall
    seconds, is left out."""
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()
    assert (out1 / "queueing_latency.csv").read_text() == (
        out2 / "queueing_latency.csv"
    ).read_text()
    assert (out1 / "counters.json").read_bytes() == (out2 / "counters.json").read_bytes()


def test_simulate_seed_flag_and_env(config_file, tmp_path, monkeypatch, capsys):
    """`--seed` overrides the config seed; an `SDAG_SEED` in the
    environment changes no artifact and no manifest seed."""
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config_file), "--seed", "9", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 9
    plain, env = tmp_path / "plain", tmp_path / "env"
    secure = ["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", "200"]
    assert main(["simulate", "--config", str(config_file), "--out", str(plain)]) == 0
    assert main(secure + ["--seed", "0"]) == 0
    seed_0 = capsys.readouterr().out.splitlines()[-3:]
    monkeypatch.setenv("SDAG_SEED", "11")
    assert main(["simulate", "--config", str(config_file), "--out", str(env)]) == 0
    assert main(secure) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == seed_0
    assert json.loads((env / "manifest.json").read_text())["seed"] == 5
    for name in set(SIMULATE_ARTIFACTS) - {"timings.json"}:
        assert (env / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("strategy", ["private-milestone-fork", "peer-chain-fork:victim=1"])
def test_simulate_rejects_strategy_without_share(tmp_path, capsys, strategy):
    """With no adversary share the run would have no adversary, so the
    strategy would be silently ignored."""
    path = tmp_path / "sim.ini"
    path.write_text(SMALL_INI + f"adversary_share = 0\nadversary_strategy = {strategy}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert "adversary_share" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def refuse_run(self):
    raise AssertionError("the simulation ran although its input or output is refused")


def test_simulate_refuses_peer_chain_fork_at_p_1(tmp_path, capsys, monkeypatch):
    """At p = 1 every block is a milestone, so the regular block that
    peer-chain-fork forges cannot exist: the run once ground 2**20 nonces
    for one and died with a MiningExhausted traceback.  Just below 1 it
    still died so (n=3, mu=0.1, share 0.3, 60 s at p = 0.9999999).  Both
    are refused before the run."""
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith("p =")]
    monkeypatch.setattr(Simulation, "run", refuse_run)
    for p in ("1", "0.9999999"):
        path = tmp_path / "sim.ini"
        adversary = [f"p = {p}", "adversary_share = 0.3", "adversary_strategy = peer-chain-fork"]
        path.write_text("\n".join(lines + adversary) + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: peer-chain-fork needs p < 1")
        assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "extra",
    [
        "finality_depth = -4\n",
        # refused as any argument of this strategy is
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


@pytest.mark.parametrize("flag", [[], ["--seed", "-5"]], ids=["config", "flag"])
def test_simulate_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, flag):
    """`random.Random` drops a seed's sign, so seed -5 once wrote the
    latency files of seed 5 under a manifest and metrics that said -5.  A
    negative seed is refused as a config key and as `--seed`, before the
    output directory is made."""
    monkeypatch.setattr(Simulation, "run", refuse_run)
    path = tmp_path / "sim.ini"
    path.write_text(SMALL_INI if flag else SMALL_INI.replace("seed = 5", "seed = -5"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out), *flag]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: finality_depth and seed must be >= 0\n"
    assert not out.exists()


def test_analyze_secure_rejects_a_negative_seed(capsys):
    """numpy's own refusal named neither the flag nor the bound."""
    argv = ["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", "10", "--seed", "-5"]
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("keys", [("lam", "lambda"), ("lambda", "lam")], ids="-".join)
def test_simulate_rejects_lam_with_lambda(tmp_path, capsys, monkeypatch, keys):
    """Both keys set the arrival rate, and the later one once won: `lam = 0`
    then `lambda = 2` ran 32 transaction events."""
    monkeypatch.setattr(Simulation, "run", refuse_run)
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith("lambda =")]
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines + [f"{keys[0]} = 0", f"{keys[1]} = 2"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert "lam and lambda" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("key,value", [("horizon", "1e13"), ("lambda", "1e9")])
def test_simulate_rejects_huge_transaction_counts(tmp_path, capsys, key, value):
    """The genesis funds 1.5 outputs per expected transaction, so a huge
    lambda * horizon once ended in a MemoryError traceback."""
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith(f"{key} =")]
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert "expected transactions" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("value", ["1e20", "1e300"])
def test_simulate_rejects_huge_block_counts(tmp_path, capsys, value):
    """Nothing bounded n * mu * horizon, so mu = 1e20 ran without end."""
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith("mu =")]
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines + [f"mu = {value}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert "expected blocks" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_simulate_rejects_too_many_nodes(tmp_path, capsys):
    """n = 1000000 once ended in a MemoryError traceback from the nodes'
    construction; `validate` refuses it before any node is built."""
    lines = [line for line in SMALL_INI.splitlines() if not line.startswith("n =")]
    path = tmp_path / "sim.ini"
    path.write_text("\n".join(lines + [f"n = {MAX_NODES + 1}"]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    assert "n must be in" in capsys.readouterr().err
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


@pytest.mark.parametrize("change", ["edit", "delete"])
def test_simulate_digests_the_config_it_ran(config_file, tmp_path, monkeypatch, change):
    """The manifest's digest came from a second read of the config file
    after the run: a file edited to n = 50 during a run of n = 4 was
    digested as edited, and a file deleted during the run failed the
    command after it ran, with none of its artifacts written."""
    source = config_file.read_bytes()
    run = Simulation.run

    def run_while_the_file_changes(self):
        if change == "edit":
            config_file.write_text(SMALL_INI.replace("n = 4", "n = 50"))
        else:
            config_file.unlink()
        return run(self)

    monkeypatch.setattr(Simulation, "run", run_while_the_file_changes)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"] == hashlib.sha256(source).hexdigest()
    header, row = (out / "metrics.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["n"] == "4"


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


def test_analyze_depth_unreachable_risk_exits_fast(capsys):
    """The depth is bisected over [1, MAX_DEPTH]; the linear scan took 16 s
    to give up on this input."""
    start = time.perf_counter()
    code = main(["analyze", "depth", "--share", "0.49", "--fraction", "1.0", "--risk", "1e-300"])
    assert code == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 2.0
    assert "no depth below" in capsys.readouterr().err


THETA = {"--c": "0.01", "--mu": "1.2", "--tbar": "1.6666666667"}
W1 = {"--lam": "1000", "--n": "1000", "--mu": "1.2", "--c": "0.01", "--tbar": "1.6666666667"}
W2 = {"--n": "1000", "--p": str(1 / 12000), "--mu": "1.2"}
FRACTION = {"--pnmu": "0.1", "--t0": "2"}
DEPTH = {"--share": "0.1", "--fraction": "0.928", "--risk": "0.001"}


def analyze_with(capsys, command, flags, flag, value):
    """Exit code of `analyze command` with one flag changed; an input error
    prints only its message."""
    argv = ["analyze", command]
    for key, default in flags.items():
        argv += [key, value if key == flag else default]
    code = main(argv)
    captured = capsys.readouterr()
    if code == EXIT_BAD_INPUT:
        assert captured.out == "" and captured.err.startswith("error: ")
    return code


@pytest.mark.parametrize("flag, value", [("--c", "inf"), ("--c", "nan"), ("--tbar", "inf")])
def test_analyze_theta_rejects_unusable_input(capsys, flag, value):
    assert analyze_with(capsys, "theta", THETA, flag, value) == EXIT_BAD_INPUT


def test_analyze_theta_overflow_prints_the_limit(capsys):
    """a = (1 - e^(-mu tbar)) mu c tbar overflows to inf, where a/(1+a) is
    nan; theta tends to 1."""
    assert main(["analyze", "theta", "--c", "1e200", "--mu", "1e200", "--tbar", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--c", "0"),
        ("--n", "0"),
        ("--n", "-3"),
        ("--lam", "0"),
        ("--lam", "nan"),
        ("--mu", "0"),
        # 1/c overflows: W1 and Q once printed inf
        ("--c", "5e-324"),
        ("--c", "1e-310"),
    ],
)
def test_analyze_w1_rejects_unusable_input(capsys, flag, value):
    assert analyze_with(capsys, "w1", W1, flag, value) == EXIT_BAD_INPUT


@pytest.mark.parametrize("lam", ["5e-324", "1e-310", "1e-17", "1e-13"])
def test_analyze_w1_at_a_tiny_rate_is_its_limit(capsys, lam):
    """As lambda tends to 0, W1 tends to 1/(c mu (1 - theta)).  Written as
    (1/(rho mu)) ln(1/(1-x)), it cancelled instead: lambda = 5e-324 divided
    by zero, 1e-310 printed nan, 1e-17 printed 0 and 1e-13 printed 222 for
    84.8."""
    flags = dict(W1, **{"--lam": lam})
    assert main(["analyze", "w1"] + [part for pair in flags.items() for part in pair]) == 0
    th = theta(float(W1["--c"]), float(W1["--mu"]), float(W1["--tbar"]))
    limit = 1 / (float(W1["--c"]) * float(W1["--mu"]) * (1 - th))
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(printed["w1"]) == pytest.approx(limit, rel=1e-9)
    assert 0 <= float(printed["queue"]) < 1e-6


@pytest.mark.parametrize("flag, value", [("--c", "1e308"), ("--tbar", "1e300")])
def test_analyze_w1_with_theta_one_is_unstable(capsys, flag, value):
    """theta rounds to 1: every block's capacity is wasted."""
    assert analyze_with(capsys, "w1", W1, flag, value) == EXIT_UNSTABLE


@pytest.mark.parametrize(
    "flag, value",
    [("--mu", "0"), ("--mu", "nan"), ("--p", "inf"), ("--p", "1e-310"), ("--mu", "1e-320"), ("--n", str(MAX_CHAIN_NODES + 1))],
)
def test_analyze_w2_rejects_unusable_input(capsys, flag, value):
    assert analyze_with(capsys, "w2", W2, flag, value) == EXIT_BAD_INPUT


def test_analyze_w2_large_n_is_fast(capsys):
    """The recursion ran in rationals, whose denominators grow by about 75
    bits a step: n = 20,000 took 110 s."""
    start = time.perf_counter()
    assert analyze_with(capsys, "w2", W2, "--n", "100000") == 0
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e6"])
def test_analyze_fraction_rejects_unusable_input(capsys, value):
    assert analyze_with(capsys, "fraction", FRACTION, "--pnmu", value) == EXIT_BAD_INPUT


def test_analyze_fraction_rejects_a_horizon_where_both_terms_underflow(capsys):
    flags = {**FRACTION, "--pnmu": "1"}
    assert analyze_with(capsys, "fraction", flags, "--t0", "1e308") == EXIT_BAD_INPUT


@pytest.mark.parametrize("value", ["-1", "-0.5"])
def test_analyze_depth_rejects_unusable_input(capsys, value):
    assert analyze_with(capsys, "depth", DEPTH, "--share", value) == EXIT_BAD_INPUT


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


def test_analyze_secure_honest_fixed_exits_2(capsys):
    """The honest-fixed convention is `--pnmu P/(1-share)`, not a flag."""
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", "10", "--honest-fixed"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "--honest-fixed" in capsys.readouterr().err


def test_analyze_secure_bad_grid():
    rc = main(["analyze", "secure", "--share", "0.1", "--grid", "oops", "--paths", "10"])
    assert rc == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "grid", ["10:10:inf", "10:1e-20:20", "nan:1:5", "10:nan:20", "1:1:10001", "1e20:1:2e20"]
)
def test_analyze_secure_rejects_unbounded_grids(capsys, grid):
    """Non-finite bounds, grids of more than 10,000 points and a step too
    small to move T exit 2 instead of looping or printing an empty curve."""
    rc = main(["analyze", "secure", "--share", "0.1", "--grid", grid, "--paths", "10"])
    assert rc == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: grid")


def test_grid_points_unchanged():
    assert _parse_grid("10:10:990") == [10.0 * k for k in range(1, 100)]
    assert _parse_grid("20:20:40") == [20.0, 40.0]
    assert _parse_grid("0.1:0.1:0.5") == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert _parse_grid("5:1:5") == [5.0]
    assert _parse_grid("1:1:10000") == [float(k) for k in range(1, 10001)]


def secure_t_column(capsys, grid, *flags):
    """The exit code and the printed T values of a small `analyze secure`
    run on `grid`."""
    code = main(["analyze", "secure", "--share", "0.1", "--grid", grid, "--paths", "10", *flags])
    out, err = capsys.readouterr()
    return code, [line.split(",")[0] for line in out.splitlines()[1:]], err


def test_grid_points_that_cannot_be_told_apart_exit_2(capsys):
    """A step far below T's 12 printed digits once printed 1005 rows, every
    one reading T=10."""
    code, printed, err = secure_t_column(capsys, "10:1e-12:10.000000000005")
    assert (code, printed) == (EXIT_BAD_INPUT, [])
    assert err.startswith("error: grid points must differ")


def test_grid_ends_at_stop():
    """An absolute slack of 1e-9 on stop once added 2e-09 to this grid."""
    assert _parse_grid("1e-9:1e-9:1e-9") == [1e-9]


def test_grid_of_small_steps_keeps_its_points(capsys):
    """Rounding to 9 decimals once made this grid 15 points, four of them 0,
    which the 2*t0 check then refused."""
    assert _parse_grid("1e-10:1e-10:5e-10") == [1e-10, 2e-10, 3e-10, 4e-10, 5e-10]
    code, printed, _err = secure_t_column(capsys, "1e-10:1e-10:5e-10", "--t0", "1e-11")
    assert (code, printed) == (0, ["1e-10", "2e-10", "3e-10", "4e-10", "5e-10"])


@pytest.mark.parametrize(
    "flags", [["--paths", "0"], ["--pnmu", "0"], ["--pnmu", "-0.1"], ["--pnmu", "inf"]]
)
def test_analyze_secure_rejects_empty_runs_and_bad_rates(flags):
    rc = main(["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", "10"] + flags)
    assert rc == EXIT_BAD_INPUT


def test_analyze_secure_rejects_too_many_paths(monkeypatch, capsys):
    """More paths than MAX_PATHS exit 2 before any path is drawn."""

    def refuse(*args, **kwargs):
        raise AssertionError("drew paths before checking their count")

    monkeypatch.setattr(np.random, "Generator", refuse)
    rc = main(["analyze", "secure", "--share", "0.1", "--grid", "20:20:40", "--paths", str(MAX_PATHS + 1)])
    assert rc == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: paths")


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


# -- every way out of the CLI ----------------------------------------------

EDGE_VALUES = (
    "0", "-0.0", "-1", "5e-324", "1e-310", "1e-300", "1e-20",
    "1e20", "1e300", "1.7e308", "inf", "-inf", "nan",
)
SECURE = {"--share": "0.1", "--paths": "50", "--grid": "10:10:30"}
INT_FLAGS = {"--n", "--paths"}
SWEEP = (
    [("theta", THETA, flag) for flag in THETA]
    + [("w1", W1, flag) for flag in W1]
    + [("w2", W2, flag) for flag in W2]
    + [
        ("fraction", dict(FRACTION, **{"--curve": curve}), flag)
        for curve in ("quadratic", "uniform", "instant", "step")
        for flag in FRACTION
    ]
    + [("secure", SECURE, flag) for flag in ("--share", "--pnmu", "--t0", "--paths")]
    + [("depth", DEPTH, flag) for flag in DEPTH]
)


@pytest.mark.parametrize(
    "command, flags, flag", SWEEP, ids=[f"{c}-{fl.get('--curve', '')}{f}" for c, fl, f in SWEEP]
)
def test_every_calculator_flag_at_every_edge_value(capsys, command, flags, flag):
    """Each numeric flag, fed each edge value (the int flags only those that
    parse as ints), exits 0, 2 or 3 without raising; an exit 0 prints no
    nan or inf, and an error prints only its message."""
    values = [v for v in EDGE_VALUES if flag not in INT_FLAGS or v.lstrip("-").isdigit()]
    bad = []
    for value in values:
        argv = ["analyze", command] + [f"{k}={value if k == flag else v}" for k, v in flags.items()]
        if flag not in flags:
            argv.append(f"{flag}={value}")
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            ok = "nan" not in out.lower() and "inf" not in out.lower()
        elif code == EXIT_BAD_INPUT:
            ok = out == "" and err.startswith("error: ")
        elif code == EXIT_UNSTABLE:
            ok = out == "" and err.startswith("unstable queue: ")
        else:
            ok = False
        if not ok:
            bad.append((value, code, out, err))
    assert bad == []


def test_simulate_artifact_that_is_a_directory_exit_code(config_file, tmp_path, capsys, monkeypatch):
    """The run once finished and then died with an IsADirectoryError
    traceback; now the target is checked before the simulation starts."""
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    monkeypatch.setattr(Simulation, "run", refuse_run)
    assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.iterdir()) == [out / "metrics.csv"]


def test_demo_dag_artifact_that_is_a_directory_exit_code(tmp_path, capsys):
    """No file is written, so none is left behind without a manifest."""
    for target in ("ledger.csv", "manifest.json"):
        out = tmp_path / target
        (out / target).mkdir(parents=True)
        assert main(["demo-dag", "--out", str(out)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.iterdir()) == [out / target]


def test_simulate_over_the_orphan_cap_exit_code(tmp_path, capsys):
    """This config passes `validate`, but a node would buffer more orphans
    than its cap, which the exact simulator does not model; it once ended in
    a RuntimeError traceback."""
    path = tmp_path / "orphans.ini"
    path.write_text(
        "[simulation]\nn = 5\nmu = 20\np = 0.05\nlambda = 0\nt0 = 1000\nhorizon = 150\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: node ") and "orphan_cap" in err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "demo-dag", "secure"])
def test_manifest_lists_exactly_the_files_written(config_file, tmp_path, command):
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--config", str(config_file), "--out", str(out)]
        manifest = out / "manifest.json"
    elif command == "demo-dag":
        argv = ["demo-dag", "--out", str(out)]
        manifest = out / "manifest.json"
    else:
        out.mkdir()
        argv = ["analyze", "secure", "--share", "0.1", "--paths", "50", "--grid", "10:10:30"]
        argv += ["--out", str(out / "secure.csv")]
        manifest = out / "secure.csv.manifest.json"
    assert main(argv) == 0
    written = {path.name for path in out.iterdir()} - {manifest.name}
    recorded = json.loads(manifest.read_text())
    assert sorted(recorded["artifacts"]) == sorted(written)
    # the command `main` parsed, not the argv of the process that called it
    assert recorded["command"] == ["sdag", *argv]
    if command == "simulate":
        # the names checked before the run are the names written
        assert sorted(SIMULATE_ARTIFACTS) == sorted(written)
