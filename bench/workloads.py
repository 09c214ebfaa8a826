"""The benchmark's workloads: desk-sim, dag-replay and secure-curve.

Each workload prepares its inputs from a seed (`prepare`, repeated to time
set-up), runs one batch job (`job`, which times only the call a user would
make), and checks the job's outputs (`check`).  Jobs call sdag through
module attributes (`cli.main`, `ledger.build_from_dag`) so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

from sdag import cli, ledger
from sdag.core import TxKind
from sdag.dag import SDag
from sdag.ledger import ChainStatus

import replay_gen

DESK_HORIZON = 1000
DESK_CONFIG = """\
[simulation]
n = 100
mu = 0.02
p = 0.05
c = 0.5
lambda = 1.4
delay_curve = quadratic
t0 = 0.5
horizon = {horizon}
"""
SECURE_PATHS = 2000
SECURE_ARGS = ("--share", "0.1", "--pnmu", "0.1", "--t0", "2", "--grid", "10:10:990")
SECURE_POINTS = 99
DEMO_ARTIFACTS = ("dag.txt", "levels.txt", "order.txt", "ledger.csv")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: Path, names) -> dict[str, str]:
    return {name: sha256_hex((directory / name).read_bytes()) for name in names}


def quiet_main(argv: list[str]) -> int:
    """`sdag.cli.main` with its progress lines kept off the result stream."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class JobResult:
    seconds: float  # wall time of the user-facing call only
    work: int  # items done: blocks created, blocks replayed, or path-points
    digests: dict[str, str]
    blocks: int = 0  # blocks created or replayed, for per-block ratios
    nodes: int = 0  # ledgers folded per main-chain level in the ideal case
    height: int = 0  # final main-chain height
    facts: dict = field(default_factory=dict)  # inputs to check()
    started: float = 0.0  # perf_counter() when the user-facing call began


class DeskSim:
    """`sdag simulate` on the paper's desk configuration."""

    name = "desk-sim"
    alias = ("sim_blocks_per_s", "blocks/s")
    spec = {"horizon": DESK_HORIZON}

    def prepare(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.config = tmp / "desk.ini"
        self.config.write_text(DESK_CONFIG.format(horizon=DESK_HORIZON))
        self.out = tmp / "desk-out"

    def job(self) -> JobResult:
        argv = ["simulate", "--config", str(self.config), "--seed", str(self.seed), "--out", str(self.out)]
        t0 = time.perf_counter()
        code = quiet_main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"sdag simulate exited with {code}")
        with (self.out / "metrics.csv").open(newline="") as fp:
            row = next(csv.DictReader(fp))
        names = ("metrics.csv", "queueing_latency.csv", "infection_latency.csv")
        samples = {
            name: (self.out / name).read_text().count("\n") - 1 for name in names[1:]
        }
        blocks = int(row["blocks_created"])
        return JobResult(
            seconds,
            blocks,
            file_digests(self.out, names),
            blocks=blocks,
            nodes=int(row["n"]),
            height=int(row["chain_height"]),
            facts={"row": row, "samples": samples},
            started=t0,
        )

    def check(self, r: JobResult) -> list[str]:
        row = r.facts["row"]
        problems = []
        if r.blocks < 1 or r.height < 1:
            problems.append("simulation created no blocks or no chain")
        if float(row["horizon"]) != DESK_HORIZON or int(row["seed"]) != self.seed:
            problems.append("metrics.csv does not describe the requested run")
        for name, count in r.facts["samples"].items():
            if count < 1:
                problems.append(f"{name} has no samples")
        return problems


class DagReplay:
    """Load a generated DAG dump, fold it into a ledger, export the CSV."""

    name = "dag-replay"
    alias = ("replay_blocks_per_s", "blocks/s")
    spec = {"blocks": replay_gen.BLOCKS}

    def prepare(self, seed: int, tmp: Path) -> None:
        generated = replay_gen.generate(seed)
        self.dump = tmp / "replay-dag.txt"
        self.dump.write_text(generated.dump)
        self.genesis_outputs = generated.genesis_outputs
        self.injected = generated.injected

    def job(self) -> JobResult:
        params = replay_gen.PARAMS
        t0 = time.perf_counter()
        with self.dump.open() as fp:
            sdag = SDag.load(fp, params)
        build = ledger.build_from_dag(
            sdag, params, self.genesis_outputs, finality_depth=replay_gen.FINALITY_DEPTH
        )
        text = ledger.ledger_csv(build)
        seconds = time.perf_counter() - t0
        blocks = len(sdag) - 1
        return JobResult(
            seconds,
            blocks,
            {
                "ledger.csv": sha256_hex(text.encode()),
                "utxo_digest": build.ledger.utxo_digest().hex(),
            },
            blocks=blocks,
            nodes=1,
            height=sdag.height(),
            facts={"summary": summarize_replay(sdag, build, self.genesis_outputs)},
            started=t0,
        )

    def check(self, r: JobResult) -> list[str]:
        s = r.facts["summary"]
        problems = []
        if s["utxo_value"] != s["genesis_value"] + s["claimed"]:
            problems.append(
                f"value not conserved: utxo {s['utxo_value']} != genesis "
                f"{s['genesis_value']} + accepted claims {s['claimed']}"
            )
        for kind in ("duplicate", "double_spend", "forked", "redemption_accepted", "redemption_rejected"):
            if s[kind] < 1:
                problems.append(f"ledger shows no {kind}")
        # blocks past the last level are not folded, so the fold may see
        # fewer faults than the generator wrote, never more
        inj = self.injected
        redemptions = inj["redemption"] + inj["bad_signature"] + inj["bad_amount"]
        for kind, seen, written in (
            ("duplicate", s["duplicate"], inj["duplicate"]),
            ("double_spend", s["double_spend"], inj["double_spend"]),
            ("forked", s["forked"], inj["fork"]),
            ("redemption_accepted", s["redemption_accepted"], inj["redemption"]),
            ("redemption", s["redemption_accepted"] + s["redemption_rejected"], redemptions),
        ):
            if seen > written:
                problems.append(f"ledger shows {seen} {kind}, the generator wrote {written}")
        return problems


def summarize_replay(sdag: SDag, build, genesis_outputs) -> dict[str, int]:
    """Counts of each conflict the fold resolved, and the value balance."""
    s = dict.fromkeys(
        ("duplicate", "double_spend", "redemption_accepted", "redemption_rejected", "claimed"), 0
    )
    for e in build.ledger.entries:
        tx = sdag.blocks[e.block_id].mes
        if e.reason == "duplicate":
            s["duplicate"] += 1
        elif e.reason == "input not in utxo":
            s["double_spend"] += 1
        if tx.kind is TxKind.REDEMPTION:
            if e.accepted:
                s["redemption_accepted"] += 1
                s["claimed"] += tx.reward_claim
            else:
                s["redemption_rejected"] += 1
    s["forked"] = sum(1 for r in build.rewards.values() if r.status is ChainStatus.FORKED)
    s["utxo_value"] = sum(value for value, _address in build.ledger.utxo.values())
    s["genesis_value"] = sum(value for value, _address in genesis_outputs)
    return s


class SecureCurve:
    """`sdag analyze secure` at the CLI's default grid."""

    name = "secure-curve"
    alias = ("mc_path_points_per_s", "path-points/s")
    spec = {"paths": SECURE_PATHS}

    def prepare(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.out = tmp / "curve.csv"
        # the first call in a process pays for page faults on fresh arrays;
        # a full-size call leaves the allocator warm for the timed ones
        self.job()

    def job(self) -> JobResult:
        argv = ["analyze", "secure", *SECURE_ARGS, "--paths", str(SECURE_PATHS),
                "--seed", str(self.seed), "--out", str(self.out)]
        t0 = time.perf_counter()
        code = quiet_main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"sdag analyze secure exited with {code}")
        data = self.out.read_bytes()
        with io.StringIO(data.decode()) as fp:
            rows = list(csv.DictReader(fp))
        return JobResult(
            seconds,
            sum(int(row["paths"]) for row in rows),
            {"curve.csv": sha256_hex(data)},
            facts={"rows": rows},
            started=t0,
        )

    def check(self, r: JobResult) -> list[str]:
        rows = r.facts["rows"]
        problems = []
        if len(rows) != SECURE_POINTS:
            problems.append(f"curve has {len(rows)} points, expected {SECURE_POINTS}")
            return problems
        for row in rows:
            paths = int(row["paths"])
            if paths != SECURE_PATHS or not 0 <= int(row["failures"]) <= paths:
                problems.append(f"bad counts at T={row['T']}")
        # a longer confirmation window fails less often
        if float(rows[0]["frequency"]) <= float(rows[-1]["frequency"]):
            problems.append("failure frequency does not fall from the first T to the last")
        return problems


WORKLOADS = {w.name: w for w in (DeskSim, DagReplay, SecureCurve)}


def demo_dag_digests(tmp: Path) -> dict[str, str]:
    out = tmp / "demo-out"
    code = quiet_main(["demo-dag", "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"sdag demo-dag exited with {code}")
    return file_digests(out, DEMO_ARTIFACTS)
