"""The three benchmark workloads: their inputs, jobs, output checks and quality.

A job is a fixed list of ``minerflex`` CLI calls made in-process through
``minerflex.cli.main``, each writing into its own ``--out`` directory. After
a job the benchmark checks its outputs. Solution quality comes from one
untimed pass per run (``QUALITY_PASS``) and is reported as profit in $/h,
the negated cost, so every figure is positive and higher is better.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hostspeed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WEEK_SPEC = CONFIGS / "synthesis_week.json"
YEAR_HOURS = 8760
VERIFY_CHECKS = (
    "check_greedy_deployment", "check_max_of_affines", "check_midpoint_convexity",
    "check_projection", "check_truncexp_mean", "check_fit_lambda", "check_regulation_mc",
    "check_regulation_continuity", "check_single_machine_vertex", "check_risk_kkt",
    "check_sgd_convergence", "check_online_regret",
)

QUALITY_METRICS = (
    "profit_optimized_usd_h",
    "offline_expected_profit_usd_h",
    "reg_expected_profit_usd_h",
    "online_profit_usd_h",
    "hindsight_profit_usd_h",
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``minerflex.cli.main`` in-process; return (exit code, stderr).

    ``main`` is looked up on every call, so a traced run sees the wrapper.
    """
    from minerflex import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue()


def synthesize_argv(spec: Path, seed: int, out: Path) -> list[str]:
    return ["synthesize-traces", "--spec", str(spec), "--seed", str(seed), "--out", str(out)]


def year_spec(work: Path) -> Path:
    """The shipped week spec stretched to a year, written under ``work``."""
    cfg = json.loads(WEEK_SPEC.read_text())
    cfg["hours"] = YEAR_HOURS
    path = work / "synthesis_year.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


# ── Jobs ─────────────────────────────────────────────────────────────────


def _traces(inputs: Path) -> list[str]:
    return ["--traces-market", str(inputs / "market.csv"), "--traces-as", str(inputs / "as.csv")]


def _fleet_programs() -> list[str]:
    return ["--fleet", str(CONFIGS / "fleet.json"), "--programs", str(CONFIGS / "programs.json")]


def desk_week_commands(inputs: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The README Quickstart pass on one week."""
    s = ["--seed", str(seed)]
    return [
        ("offline", ["solve-offline", *_fleet_programs(), *_traces(inputs), "--iterations", "2000", *s]),
        ("param", ["solve-offline", *_fleet_programs(), "--iterations", "10000", *s]),
        ("reg", ["solve-reg", "--config", str(CONFIGS / "reg.json"), *s]),
        ("risk", ["solve-risk", "--config", str(CONFIGS / "risk.json"), "--risk-weight", "0.0004", *s]),
        ("online", ["simulate-online", *_fleet_programs(), *_traces(inputs), *s]),
        ("compare", ["compare-strategies", *_fleet_programs(), *_traces(inputs), *s]),
    ]


def year_online_commands(inputs: Path, seed: int) -> list[tuple[str, list[str]]]:
    return [c for c in desk_week_commands(inputs, seed) if c[0] == "online"]


def verify_full_commands(inputs: Path | None, seed: int) -> list[tuple[str, list[str]]]:
    return [("verify", ["verify", "--seed", str(seed)])]


# ── Output checks and quality ────────────────────────────────────────────


def _finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return False


def _online_costs(out: Path) -> tuple[float, float]:
    """(mean realized cost per round, mean cost of the hindsight profile)."""
    with open(out / "rounds.csv", newline="") as fh:
        costs = [float(row["cost"]) for row in csv.DictReader(fh)]
    online = sum(costs) / len(costs)
    regret = json.loads((out / "summary.json").read_text())["average_regret"]
    return online, online - regret


def check_desk_week(out: Path, problems: list[str]) -> None:
    """The hindsight profile is no worse than the zero or the fixed profile."""
    compare = json.loads((out / "compare" / "summary.json").read_text())
    _, hindsight = _online_costs(out / "online")
    worst = min(-compare["mean_profit"]["none"], -compare["mean_profit"]["fixed_profile"])
    if hindsight > worst:
        problems.append(
            f"hindsight cost {hindsight!r} $/h is above the zero or fixed profile's {worst!r} $/h"
        )


def check_verify(out: Path, problems: list[str]) -> None:
    with open(out / "verify" / "checks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [r["check"] for r in rows if r["status"] != "PASS"]
    if len(rows) != len(VERIFY_CHECKS) or failed:
        problems.append(f"verify: {len(rows)} checks, failing: {failed}")


def quality_figures(out: Path) -> dict[str, float]:
    """Solution quality of a quality pass, as profit in $/h (higher is better)."""
    compare = json.loads((out / "compare" / "summary.json").read_text())
    with open(out / "param" / "profiles.csv", newline="") as fh:
        offline_cost = float(next(csv.DictReader(fh))["expected_cost"])
    reg = json.loads((out / "reg" / "summary.json").read_text())
    online, hindsight = _online_costs(out / "online")
    return {
        "profit_optimized_usd_h": compare["mean_profit"]["optimized"],
        "offline_expected_profit_usd_h": -offline_cost,
        "reg_expected_profit_usd_h": -reg["expected_cost"],
        "online_profit_usd_h": -online,
        "hindsight_profit_usd_h": -hindsight,
    }


# ── Workload table ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Callable[[Path], Path] | None
    commands: Callable[[Path | None, int], list[tuple[str, list[str]]]]
    check: Callable[[Path, list[str]], None] | None = None


def quality_commands(inputs: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The solvers whose quality the benchmark guards, on one year."""
    by_label = dict(desk_week_commands(inputs, seed))
    return [(label, by_label[label]) for label in ("param", "reg", "online", "compare")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_week",
            "Quickstart pass on a fresh 168-hour week: the SGD learner bank does almost all the work",
            lambda work: WEEK_SPEC,
            desk_week_commands,
            check_desk_week,
        ),
        Workload(
            "year_online",
            "simulate-online over an 8760-hour year: online learning, hindsight solve and trace "
            "load dominate, SGD is idle",
            year_spec,
            year_online_commands,
        ),
        Workload(
            "verify_full",
            "full verify: short online horizons, scalar slot costs, grid and regulation Monte "
            "Carlo, one SGD solve",
            None,
            verify_full_commands,
            check_verify,
        ),
    )
}

# Not a workload: one untimed pass per run that yields every quality figure.
# A year averages out the week-to-week swing of online and hindsight costs.
QUALITY_PASS = Workload("quality", "solution quality on one year", year_spec, quality_commands)


@dataclass
class JobResult:
    workload: str
    input_index: int
    wall_s: float
    reference_s: float
    cpu_s: float
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_job(workload: Workload, inputs: Path | None, seed: int, out: Path, index: int) -> JobResult:
    """Run one job, timed, then check its outputs (untimed)."""
    commands = workload.commands(inputs, seed)
    codes = []
    with SpeedProbe() as speed:
        for label, argv in commands:
            codes.append(run_cli([*argv, "--out", str(out / label)]))

    result = JobResult(workload.name, index, speed.wall_s, speed.reference_s, speed.cpu_s)
    for (label, argv), (rc, err) in zip(commands, codes):
        if rc != 0:
            result.problems.append(f"{argv[0]} exited {rc}: {err.strip()}")
    if result.problems:
        return result
    try:
        for label, _ in commands:
            for path in sorted((out / label).iterdir()):
                if path.suffix == ".csv" or path.name == "summary.json":
                    result.digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            if not _finite(json.loads((out / label / "summary.json").read_text())):
                result.problems.append(f"{label}/summary.json holds a non-finite value")
        if workload.check is not None:
            workload.check(out, result.problems)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        result.problems.append(f"cannot read outputs: {exc!r}")
    return result
