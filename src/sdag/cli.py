"""Command-line entry point: simulations, analysis calculators, demo DAG.

Every artifact directory gets a manifest.json recording the command line,
config digest, seed, and output paths (`analyze secure --out PATH` writes
PATH.manifest.json instead); re-running with the same inputs
reproduces the outputs byte for byte.  Values print with 12 significant
digits.  Exit codes: 0 success, 2 invalid input, 3 unstable queue.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import (
    UnstableQueue,
    nakamoto_discounted_depth,
    rates_for_share,
    queue_length,
    secure_latency_mc,
    theta,
    type1_fraction,
    w1,
    w2_bound,
)
from .curves import make_curve
from .demo import build_demo
from .ledger import build_from_dag, ledger_csv, dfs_order
from .simnet import PeerChainFork, PrivateMilestoneFork, SimConfig, run

EXIT_BAD_INPUT = 2
EXIT_UNSTABLE = 3


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_manifest(
    path: Path, seed: Optional[int], config_digest: str, artifacts: list[str]
) -> None:
    manifest = {
        "command": sys.argv,
        "config_digest": config_digest,
        "seed": seed,
        "artifacts": artifacts,
        "version": __version__,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")


# -- config parsing --------------------------------------------------------

_STRATEGIES = ("none", "private-milestone-fork", "peer-chain-fork")


def _parse_strategy(value: str):
    if value == "none":
        return None
    name, _, arg = value.partition(":")
    if name == "private-milestone-fork":
        key, strategy = "depth", PrivateMilestoneFork
    elif name == "peer-chain-fork":
        key, strategy = "victim", PeerChainFork
    else:
        raise ValueError(f"unknown adversary_strategy {value!r}; choose from {_STRATEGIES}")
    got, _, number = arg.partition("=")
    if arg and got != key:
        raise ValueError(f"{name} takes {key}=N, got {arg!r}")
    return strategy(int(number)) if arg else strategy()


def load_sim_config(path: str) -> SimConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "simulation" not in parser:
        raise ValueError("config needs a [simulation] section")
    section = parser["simulation"]
    # "lambda" in the file maps to the lam field (keyword clash)
    known = {f.name: f for f in dataclass_fields(SimConfig)}
    kwargs = {}
    for key, raw in section.items():
        field_name = "lam" if key == "lambda" else key
        if field_name not in known:
            raise ValueError(f"unknown config key: {key}")
        f = known[field_name]
        if f.name == "adversary_strategy":
            kwargs[field_name] = _parse_strategy(raw)
        elif f.type in ("int", int):
            kwargs[field_name] = int(raw)
        elif f.type in ("float", float):
            kwargs[field_name] = float(raw)
        else:
            kwargs[field_name] = raw
    config = SimConfig(**kwargs)
    config.validate()
    return config


def _make_out_dir(path: str) -> Path:
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path}: {exc.strerror}") from None
    return out_dir


def _seed_override(args_seed: Optional[int]) -> Optional[int]:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("SDAG_SEED")
    try:
        return int(env) if env else None
    except ValueError:
        raise ValueError(f"SDAG_SEED must be an integer, got {env!r}") from None


# -- subcommands -----------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        config = load_sim_config(args.config)
        seed = _seed_override(args.seed)
        out_dir = _make_out_dir(args.out)
    except (ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if seed is not None:
        config.seed = seed
    metrics = run(config)
    row = metrics.row()

    metrics_path = out_dir / "metrics.csv"
    with metrics_path.open("w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
    artifacts = ["metrics.csv"]
    for name, samples in (
        ("queueing_latency.csv", metrics.queueing_latency),
        ("infection_latency.csv", metrics.infection_latency),
    ):
        with (out_dir / name).open("w", newline="") as fp:
            fp.write("seconds\n")
            for s in samples:
                fp.write(f"{s:.9f}\n")
        artifacts.append(name)
    digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    _write_manifest(out_dir / "manifest.json", config.seed, digest, artifacts)
    print(f"wrote {metrics_path}")
    return 0


def cmd_analyze(args) -> int:
    try:
        if args.analysis == "theta":
            print(_fmt(theta(args.c, args.mu, args.tbar)))
        elif args.analysis == "w1":
            th = theta(args.c, args.mu, args.tbar)
            value = w1(args.lam, args.n, args.mu, args.c, th)
            q = queue_length(args.lam, args.n, args.mu, args.c, th)
            print(f"w1 {_fmt(value)}")
            print(f"queue {_fmt(q)}")
        elif args.analysis == "w2":
            result = w2_bound(args.n, args.p, args.mu)
            print(f"exact {_fmt(result.exact)}")
            print(f"bound {_fmt(result.bound)}")
        elif args.analysis == "fraction":
            curve = make_curve(args.curve, args.t0)
            print(_fmt(type1_fraction(args.pnmu, args.t0, curve)))
        elif args.analysis == "secure":
            return _cmd_secure(args)
        elif args.analysis == "depth":
            print(nakamoto_discounted_depth(args.share, args.fraction, args.risk))
    except UnstableQueue as exc:
        print(f"unstable queue: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        start, step, stop = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be start:step:stop, got {spec!r}") from None
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    grid = []
    t = start
    while t <= stop + 1e-9:
        grid.append(round(t, 9))
        t += step
    return grid


def _cmd_secure(args) -> int:
    curve = make_curve(args.curve, args.t0)
    grid = _parse_grid(args.grid)
    seed = _seed_override(args.seed) or 0
    csv_path = Path(args.out) if args.out else None
    # checked before the Monte Carlo, which can run for minutes
    if csv_path is not None and not csv_path.parent.is_dir():
        raise ValueError(f"output directory {csv_path.parent} does not exist")
    if csv_path is not None and csv_path.is_dir():
        raise ValueError(f"output {csv_path} is a directory")
    honest, adv_rate = rates_for_share(args.share, args.pnmu, honest_fixed=args.honest_fixed)
    points = secure_latency_mc(
        honest, adv_rate, args.t0, curve, grid, paths=args.paths, seed=seed
    )
    text = "T,failures,paths,frequency,stderr\n" + "".join(
        f"{p.horizon:g},{p.failures},{p.paths},{_fmt(p.frequency)},{_fmt(p.stderr)}\n"
        for p in points
    )
    if csv_path is None:
        sys.stdout.write(text)
        return 0
    with csv_path.open("w", newline="") as fp:
        fp.write(text)
    # next to the CSV, so a simulate manifest.json in the same directory
    # is left alone
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    digest = hashlib.sha256(json.dumps(options).encode()).hexdigest()
    _write_manifest(
        csv_path.with_name(csv_path.name + ".manifest.json"), seed, digest, [csv_path.name]
    )
    return 0


def cmd_demo_dag(args) -> int:
    try:
        out_dir = _make_out_dir(args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    demo = build_demo()
    sdag = demo.sdag

    (out_dir / "dag.txt").write_text(sdag.dumps())
    lines = ["main chain and level sets:"]
    for k, ms in enumerate(sdag.main_chain):
        members = ", ".join(demo.name_of(b) for b in sdag.level_set(ms))
        lines.append(f"  level {k} ({demo.name_of(ms)}): {members}")
    pending = ", ".join(sorted(demo.name_of(b) for b in sdag.pending_set()))
    lines.append(f"  pending: {pending}")
    (out_dir / "levels.txt").write_text("\n".join(lines) + "\n")
    order_lines = []
    for k, ms in enumerate(sdag.main_chain[1:], start=1):
        names = " ".join(demo.name_of(b) for b in dfs_order(sdag, ms))
        order_lines.append(f"level {k}: {names}")
    (out_dir / "order.txt").write_text("\n".join(order_lines) + "\n")
    build = build_from_dag(sdag, demo.params)
    (out_dir / "ledger.csv").write_text(ledger_csv(build))
    _write_manifest(
        out_dir / "manifest.json",
        None,
        hashlib.sha256(sdag.dumps().encode()).hexdigest(),
        ["dag.txt", "levels.txt", "order.txt", "ledger.csv"],
    )
    print(f"wrote {out_dir}/dag.txt, levels.txt, order.txt, ledger.csv")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdag", description="structured-DAG consensus: simulate and analyze"
    )
    parser.add_argument("--version", action="version", version=f"sdag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the network simulator from a config file")
    sim.add_argument("--config", required=True, help="INI file with a [simulation] section")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", default="out", help="artifact directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="closed-form and Monte-Carlo calculators")
    asub = ana.add_subparsers(dest="analysis", required=True)

    th = asub.add_parser("theta", help="wasted-capacity fraction")
    th.add_argument("--c", type=float, required=True)
    th.add_argument("--mu", type=float, required=True)
    th.add_argument("--tbar", type=float, required=True, help="mean broadcast delay")

    w1p = asub.add_parser("w1", help="queueing latency and mempool size")
    w1p.add_argument("--lam", type=float, required=True, help="tx arrival rate")
    w1p.add_argument("--n", type=int, required=True)
    w1p.add_argument("--mu", type=float, required=True)
    w1p.add_argument("--c", type=float, required=True)
    w1p.add_argument("--tbar", type=float, required=True)

    w2p = asub.add_parser("w2", help="infection latency, exact and bound")
    w2p.add_argument("--n", type=int, required=True)
    w2p.add_argument("--p", type=float, required=True)
    w2p.add_argument("--mu", type=float, required=True)

    fr = asub.add_parser("fraction", help="type-1 milestone fraction")
    fr.add_argument("--pnmu", type=float, required=True, help="honest milestone rate")
    fr.add_argument("--t0", type=float, required=True)
    fr.add_argument("--curve", default="quadratic")

    sec = asub.add_parser("secure", help="secure-latency failure-frequency curve")
    sec.add_argument("--pnmu", type=float, default=0.1, help="combined milestone rate")
    sec.add_argument("--share", type=float, required=True, help="adversary hash share")
    sec.add_argument("--t0", type=float, default=2.0)
    sec.add_argument("--curve", default="quadratic")
    sec.add_argument("--paths", type=int, default=1_000_000)
    sec.add_argument("--grid", default="10:10:990", help="T values start:step:stop")
    sec.add_argument("--seed", type=int, default=None)
    sec.add_argument("--out", default=None, help="CSV path (default stdout)")
    sec.add_argument(
        "--honest-fixed",
        action="store_true",
        dest="honest_fixed",
        help="hold the honest milestone rate fixed instead of the combined rate",
    )

    dp = asub.add_parser("depth", help="discounted Nakamoto confirmation depth")
    dp.add_argument("--share", type=float, required=True)
    dp.add_argument("--fraction", type=float, required=True, help="type-1 fraction")
    dp.add_argument("--risk", type=float, required=True)

    ana.set_defaults(func=cmd_analyze)

    dd = sub.add_parser("demo-dag", help="build and export the 19-block example DAG")
    dd.add_argument("--out", default="demo-out", help="artifact directory")
    dd.set_defaults(func=cmd_demo_dag)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
