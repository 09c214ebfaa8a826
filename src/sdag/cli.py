"""Command-line entry point: simulations, analysis calculators, demo DAG.

Every artifact directory gets a manifest.json recording the command as
`main` parsed it, config digest, seed, and output paths (`analyze secure
--out PATH` writes PATH.manifest.json instead); re-running with the same
inputs reproduces the outputs byte for byte, except the wall seconds in
`simulate`'s timings.json.  Values print with 12 significant
digits.  `main` alone maps exceptions to exit codes: 0 success, 2 invalid
input (ValueError, OSError, configparser.Error), 3 unstable queue.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
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
from .simnet import PeerChainFork, PrivateMilestoneFork, SimConfig, Simulation

EXIT_BAD_INPUT = 2
EXIT_UNSTABLE = 3
# bounds the memory and time of one analyze secure run; the default has 99
MAX_GRID_POINTS = 10_000


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# what `simulate` writes besides its manifest, checked before the run
SIMULATE_ARTIFACTS = (
    "metrics.csv",
    "queueing_latency.csv",
    "infection_latency.csv",
    "counters.json",
    "timings.json",
)


def _refuse_directories(directory: Path, names: Sequence[str]) -> None:
    """Fail before anything is written if a target is an existing directory,
    so a command leaves no partial set of artifacts behind."""
    for name in names:
        if (directory / name).is_dir():
            raise ValueError(f"output {directory / name} is a directory")


def _write_artifacts(
    directory: Path,
    files: dict[str, str],
    manifest_name: str,
    seed: Optional[int],
    config_digest: str,
    command: list[str],
) -> None:
    """Write each named text as its exact bytes, then a manifest listing them."""
    _refuse_directories(directory, [*files, manifest_name])
    for name, text in files.items():
        (directory / name).write_bytes(text.encode())
    manifest = {
        "command": command,
        "config_digest": config_digest,
        "seed": seed,
        "artifacts": list(files),
        "version": __version__,
    }
    (directory / manifest_name).write_bytes((json.dumps(manifest, indent=2) + "\n").encode())


# -- config parsing --------------------------------------------------------

_STRATEGIES = ("none", "private-milestone-fork", "peer-chain-fork")


def _config_number(key: str, raw: str, kind: type, form: str):
    """`kind(raw)`, refused with the config key and the form it expects."""
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"config key {key}: expected {form}, got {raw!r}") from None


def _parse_strategy(value: str):
    if value == "none":
        return None
    name, _, arg = value.partition(":")
    if name == "private-milestone-fork":
        if arg:
            raise ValueError(f"{name} takes no argument, got {arg!r}")
        return PrivateMilestoneFork()
    if name != "peer-chain-fork":
        raise ValueError(f"unknown adversary_strategy {value!r}; choose from {_STRATEGIES}")
    got, _, number = arg.partition("=")
    if arg and got != "victim":
        raise ValueError(f"{name} takes victim=N, got {arg!r}")
    if not arg:
        return PeerChainFork()
    victim = _config_number("adversary_strategy", number, int, f"{name}:victim=N, N an integer")
    return PeerChainFork(victim)


def load_sim_config(source: bytes, path: str) -> SimConfig:
    """The config in `source`, the bytes of the file `path` (named in errors)."""
    parser = configparser.ConfigParser()
    parser.read_file(io.TextIOWrapper(io.BytesIO(source)), source=path)
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
        if field_name in kwargs:  # the parser refuses any other repeated key
            raise ValueError("config keys lam and lambda both set the arrival rate; keep one")
        f = known[field_name]
        if f.name == "adversary_strategy":
            kwargs[field_name] = _parse_strategy(raw)
        elif f.type in ("int", int):
            kwargs[field_name] = _config_number(key, raw, int, "an integer")
        elif f.type in ("float", float):
            kwargs[field_name] = _config_number(key, raw, float, "a number")
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


# -- subcommands -----------------------------------------------------------


def cmd_simulate(args, command: list[str]) -> int:
    # read once: the manifest digests the bytes the run was configured from
    try:
        source = Path(args.config).read_bytes()
    except OSError:
        raise ValueError(f"cannot read config file {args.config}") from None
    config = load_sim_config(source, args.config)
    if args.seed is not None:
        config.seed = args.seed
        config.validate()
    out_dir = _make_out_dir(args.out)
    # checked before the simulation, which can run for minutes
    _refuse_directories(out_dir, SIMULATE_ARTIFACTS + ("manifest.json",))
    sim = Simulation(config)
    metrics = sim.run()
    row = metrics.row()
    metrics_csv = io.StringIO()
    writer = csv.DictWriter(metrics_csv, fieldnames=list(row), lineterminator="\n")
    writer.writeheader()
    writer.writerow(row)
    files = {"metrics.csv": metrics_csv.getvalue()}
    for name in ("queueing_latency", "infection_latency"):
        files[f"{name}.csv"] = "seconds\n" + "".join(f"{s:.9f}\n" for s in getattr(metrics, name))
    files["counters.json"] = json.dumps(metrics.counters, indent=2) + "\n"
    # wall seconds: the one artifact that differs between reruns
    files["timings.json"] = json.dumps(sim.timings, indent=2) + "\n"
    _write_artifacts(out_dir, files, "manifest.json", config.seed, hashlib.sha256(source).hexdigest(), command)
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


def cmd_analyze(args, command: list[str]) -> int:
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
        return _cmd_secure(args, command)
    elif args.analysis == "depth":
        print(nakamoto_discounted_depth(args.share, args.fraction, args.risk))
    return 0


def _parse_grid(spec: str) -> list[float]:
    """start, start + step, ... up to stop, each T kept to the 12 digits it
    prints with, so float error neither adds a point past stop nor moves
    one; points that do not all differ in [start, stop] are refused."""
    try:
        start, step, stop = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be start:step:stop, got {spec!r}") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ValueError("grid start, step and stop must be finite")
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    grid: list[float] = []
    while True:
        t = float(_fmt(start + len(grid) * step))
        if t > stop and grid:
            return grid
        if len(grid) == MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
        if not start <= t <= stop or (grid and t <= grid[-1]):
            raise ValueError("grid points must differ, and lie in [start, stop], at 12 significant digits")
        grid.append(t)


def _cmd_secure(args, command: list[str]) -> int:
    curve = make_curve(args.curve, args.t0)
    grid = _parse_grid(args.grid)
    csv_path = Path(args.out) if args.out else None
    # checked before the Monte Carlo, which can run for minutes
    if csv_path is not None:
        if not csv_path.parent.is_dir():
            raise ValueError(f"output directory {csv_path.parent} does not exist")
        _refuse_directories(csv_path.parent, (csv_path.name, csv_path.name + ".manifest.json"))
    honest, adv_rate = rates_for_share(args.share, args.pnmu)
    points = secure_latency_mc(
        honest, adv_rate, args.t0, curve, grid, paths=args.paths, seed=args.seed
    )
    text = "T,failures,paths,frequency,stderr\n" + "".join(
        f"{_fmt(p.horizon)},{p.failures},{p.paths},{_fmt(p.frequency)},{_fmt(p.stderr)}\n"
        for p in points
    )
    if csv_path is None:
        sys.stdout.write(text)
        return 0
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    digest = hashlib.sha256(json.dumps(options).encode()).hexdigest()
    # the manifest goes next to the CSV, so a simulate manifest.json in the
    # same directory is left alone
    _write_artifacts(
        csv_path.parent, {csv_path.name: text}, csv_path.name + ".manifest.json", args.seed, digest, command
    )
    return 0


def cmd_demo_dag(args, command: list[str]) -> int:
    out_dir = _make_out_dir(args.out)
    demo = build_demo()
    sdag = demo.sdag

    dag_text = sdag.dumps()
    lines = ["main chain and level sets:"]
    for k, ms in enumerate(sdag.main_chain):
        members = ", ".join(demo.name_of(b) for b in sdag.level_set(ms))
        lines.append(f"  level {k} ({demo.name_of(ms)}): {members}")
    pending = ", ".join(sorted(demo.name_of(b) for b in sdag.pending_set()))
    lines.append(f"  pending: {pending}")
    order_lines = []
    for k, ms in enumerate(sdag.main_chain[1:], start=1):
        names = " ".join(demo.name_of(b) for b in dfs_order(sdag, ms))
        order_lines.append(f"level {k}: {names}")
    files = {
        "dag.txt": dag_text,
        "levels.txt": "\n".join(lines) + "\n",
        "order.txt": "\n".join(order_lines) + "\n",
        "ledger.csv": ledger_csv(build_from_dag(sdag, demo.params)),
    }
    digest = hashlib.sha256(dag_text.encode()).hexdigest()
    _write_artifacts(out_dir, files, "manifest.json", None, digest, command)
    print(f"wrote {out_dir}/" + ", ".join(files))
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
    sec.add_argument("--seed", type=int, default=0)
    sec.add_argument("--out", default=None, help="CSV path (default stdout)")

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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        # the manifests record the command as parsed here, kept out of
        # `args`, whose fields the secure manifest's digest hashes
        return args.func(args, ["sdag", *argv])
    except UnstableQueue as exc:
        print(f"unstable queue: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
