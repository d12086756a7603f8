"""Batch command-line front end.

Every command reads JSON configs and/or CSV traces, writes CSV results plus
a JSON summary into --out, and drops a manifest.json recording inputs,
digests, seed, and wall clock. All CSV and summary outputs are byte-stable
under identical inputs and seed; only the manifest carries timing.

Exit codes: 0 success, 1 usage, 2 validation/config error, 3 numerical
failure (including failed verify checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import finite, load_config
from .errors import InvalidInputError, MinerflexError, ModelViolationError, NumericalError
from .fleet import FleetSpec, canonicalize, load_fleet_config, mining_revenue_rate, net_reward
from .fleet import MachineType, parse_machines
from .online import OgdConfig, hour_optima, per_round_costs, run_online
from .oracle import STRATEGIES, compare_strategies, draw_effective_samples, mc_expected_cost
from .programs import ProgramSpec, TruncatedExponential, check_program_ids, fit_lambda, parse_eps_model, program_sampler
from .regulation import (
    RegInstance,
    RegJointModel,
    expected_reg_cost,
    joint_pair,
    solve_reg_profile,
)
from .sgd import SgdConfig, solve as sgd_solve
from .single_machine import ProgramStats, RiskConfig, profile_risk, risk_aware_solve
from .traces import (
    estimate_stats,
    format_timestamp,
    load_synthesis_spec,
    load_traces,
    observed_slots,
    parse_timestamp,
    slot_batch,
    synthesize_traces,
    trace_tables,
    write_csv,
)
from .verify import run_verify

CONFIG_DIR_ENV = "MINERFLEX_CONFIG_DIR"
# Arguments naming input files: resolved, recorded and digested in the manifest.
INPUT_ARGS = ("spec", "fleet", "programs", "config", "traces_market", "traces_as")
# Arguments that make sense only together.
PAIRED_ARGS = (("traces_market", "traces_as"), ("window_start", "window_end"))
# Samples of parametric solve-offline's Monte Carlo expected cost.
MC_SAMPLES = 20000


# ── Output writing ───────────────────────────────────────────────────────


def _resolve(path: str) -> Path:
    p = Path(path)
    if not p.exists() and not p.is_absolute():
        base = os.environ.get(CONFIG_DIR_ENV)
        if base and (Path(base) / p).exists():
            return Path(base) / p
    return p


def _json_text(name: str, obj) -> str:
    """``obj`` as the JSON text of output ``name``; a non-finite number is a ``NumericalError``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{name}: {exc}") from None


def _write_outputs(out: Path, outputs: dict) -> list[str]:
    """Write a command's outputs into ``out``; return the file names in order.

    Each key is a file name and each value a JSON object (``dict``) or a CSV
    ``(header, columns)`` table for :func:`~minerflex.traces.write_csv`.
    Every JSON object is rendered before any file is written.
    """
    texts = {name: _json_text(name, content) for name, content in outputs.items() if isinstance(content, dict)}
    for name, content in outputs.items():
        if name in texts:
            (out / name).write_text(texts[name])
        else:
            write_csv(out / name, *content)
    return list(outputs)


class _FailedWithOutputs(NumericalError):
    """A command failure reported after the command's outputs are written."""

    def __init__(self, message: str, outputs: dict):
        super().__init__(message)
        self.outputs = outputs


# ── Config interpretation ────────────────────────────────────────────────


def _economics(cfg: dict):
    economics = cfg.get("economics")
    if economics is None:
        return None
    coin_price = finite(economics["coin_price"], "economics.coin_price")
    if coin_price < 0.0:
        raise InvalidInputError(f"economics.coin_price must be >= 0, got {coin_price}")
    return coin_price, finite(economics["electricity_price"], "economics.electricity_price")


def _parse_programs(cfg: dict):
    """(programs, checked joint pair or None, economics or None) of a programs config."""
    entries = cfg.get("programs")
    if not entries:
        raise InvalidInputError("'programs' list is required")
    programs = [
        ProgramSpec(
            id=str(entry["id"]),
            price=finite(entry.get("price", 0.0), f"program {str(entry['id'])!r}: price"),
            direction=str(entry.get("direction", "up")),
            eps_model=parse_eps_model(entry["eps"]) if "eps" in entry else None,
        )
        for entry in entries
    ]
    check_program_ids(p.id for p in programs)
    joint = cfg.get("joint")
    if joint is not None:
        joint = joint_pair(programs, finite(joint["theta"], "joint.theta"), joint["up"], joint["down"])
    return programs, joint, _economics(cfg)


def _parse_reg(cfg: dict) -> RegInstance:
    fleet = _parametric_fleet(parse_machines(cfg["fleet"]), _economics(cfg))

    def number(key):
        return finite(cfg[key], key)

    lam_up = number("lambda_up") if "lambda_up" in cfg else fit_lambda(number("mean_up"))
    lam_dn = number("lambda_dn") if "lambda_dn" in cfg else fit_lambda(number("mean_dn"))
    return RegInstance(
        fleet=fleet,
        p_up=number("p_up"),
        p_dn=number("p_dn"),
        model=RegJointModel(number("theta"), TruncatedExponential(lam_up), TruncatedExponential(lam_dn)),
    )


def _parse_risk(cfg: dict, with_stats: bool):
    """(reward rate, cap, RiskConfig, program ids, stats or None) of a risk config."""
    entries = cfg["programs"]
    if not entries:
        raise InvalidInputError("need at least one program")
    stats = None
    if with_stats:
        stats = [
            ProgramStats(**{key: finite(p[key], key) for key in ("price", "mean_eps", "var_eps")})
            for p in entries
        ]
    ids = [str(p["id"]) for p in entries]
    check_program_ids(ids)
    r, cap = finite(cfg["reward_rate"], "reward_rate"), finite(cfg["cap"], "cap")
    for name, value in (("reward_rate", r), ("cap", cap)):
        if value < 0.0:
            raise InvalidInputError(f"{name} must be >= 0, got {value}")
    return r, cap, RiskConfig(finite(cfg.get("risk_weight", 0.0), "risk_weight")), ids, stats


def _parametric_fleet(machines: list[MachineType], economics) -> FleetSpec:
    resolved = []
    for m in machines:
        if m.reward is not None:
            resolved.append(m)
            continue
        if economics is None or m.energy_intensity is None:
            raise InvalidInputError(
                f"machine {m.id!r} has no reward; supply per-machine rewards, or "
                "energy intensities and an 'economics' block (coin_price, electricity_price)"
            )
        coin_price, electricity_price = economics
        r = net_reward(mining_revenue_rate(coin_price, m.energy_intensity), electricity_price)
        resolved.append(
            MachineType(id=m.id, capacity_mw=m.capacity_mw, energy_intensity=m.energy_intensity, reward=r)
        )
    return canonicalize(resolved)


def _check_cost_range(cap: float, r_max: float, p_max: float, terms: int) -> None:
    """Raise ``NumericalError`` before a parametric solve whose costs could overflow.

    A cost is at most cap (3 max|r| + max p) in magnitude (rates lie in [0, 1]),
    and the largest numbers a parametric command forms are sums of up to
    ``terms`` squared costs: the Monte Carlo standard error and the risk
    variance. The test squares 16 max(cap, 1) (max|r| + max p), the slack of
    :func:`~minerflex.traces.slot_batch`'s bound. Python floats overflow to inf
    without a warning.
    """
    m = 16.0 * max(cap, 1.0) * (r_max + p_max)
    if not math.isfinite(terms * m * m):
        raise NumericalError(f"costs overflow: {cap} MW at rewards up to {r_max} and program prices up to {p_max}")


def _load_fleet_inputs(args):
    """Machines, programs, joint pair, economics and traces (None without --traces-market)."""
    machines = load_fleet_config(args.fleet)
    programs, joint, economics = load_config(args.programs, _parse_programs)
    traces = load_traces(args.traces_market, args.traces_as) if args.traces_market else None
    return machines, programs, joint, economics, traces


# ── Commands ─────────────────────────────────────────────────────────────
# Each command loads its inputs (paths already resolved), solves, and returns
# its outputs in order; ``main`` writes them and the manifest.


def cmd_synthesize(args) -> dict:
    spec = load_synthesis_spec(args.spec)
    traces = synthesize_traces(spec, args.seed)
    market, ancillary = trace_tables(traces)
    return {
        "market.csv": market,
        "as.csv": ancillary,
        "summary.json": {
            "records": len(traces),
            "programs": [p.id for p in spec.programs],
            "start": format_timestamp(traces.timestamps[0]),
        },
    }


def cmd_solve_offline(args) -> dict:
    machines, programs, joint, economics, traces = _load_fleet_inputs(args)
    cfg = SgdConfig(iterations=args.iterations, batch=args.batch, seed=args.seed)
    if traces is not None:
        traces, batch = observed_slots(traces, machines, programs, clamp_negative=args.clamp_negative_rewards)
        hours = np.array([ts.hour for ts in traces.timestamps])
        profiles, gaps = hour_optima(batch, hours)
        costs = batch.cost_and_subgradient(slice(None), profiles[hours])[0]
        in_sample = [costs[hours == h].mean() if (hours == h).any() else math.nan for h in range(24)]
        columns = [*profiles.T, np.array(in_sample), gaps]
        # the largest certified gap over the hours that have slots
        bound = float(np.nanmax(gaps))
    else:
        try:
            fleet, sampler = _parametric_fleet(machines, economics), program_sampler(programs, joint)
        except (InvalidInputError, ModelViolationError) as exc:
            raise InvalidInputError(f"{args.fleet}, {args.programs}: {exc}") from None
        r_max, p_max = float(np.abs(fleet.rewards).max()), max(p.price for p in programs)
        _check_cost_range(fleet.total_capacity_mw, r_max, p_max, MC_SAMPLES)
        result = sgd_solve(fleet, programs, sampler, cfg)
        eff = draw_effective_samples(sampler, [p.direction for p in programs], MC_SAMPLES, args.seed + 1)
        value, _ = mc_expected_cost(fleet, programs, result.profile, eff)
        columns = [np.full(24, x) for x in (*result.profile.c.tolist(), value, result.bound)]
        bound = result.bound

    header = ["hour", *[f"c_{p.id}" for p in programs], "expected_cost", "bound"]
    return {
        "profiles.csv": (header, [np.arange(24), *columns]),
        "summary.json": {
            "iterations": args.iterations,
            "batch": args.batch,
            "programs": [p.id for p in programs],
            "bound": bound,
        },
    }


def cmd_solve_reg(args) -> dict:
    inst = load_config(args.config, _parse_reg)
    fleet = inst.fleet
    _check_cost_range(fleet.total_capacity_mw, float(np.abs(fleet.rewards).max()), max(inst.p_up, inst.p_dn), 1)
    profile, gap = solve_reg_profile(inst)
    c_up, c_dn = map(float, profile.c)
    value = expected_reg_cost(inst, c_up, c_dn)
    return {
        "profile.csv": (["c_up", "c_dn", "expected_cost"], np.array([[c_up], [c_dn], [value]])),
        "summary.json": {
            "theta": inst.model.theta,
            "lambda_up": inst.model.up.lam,
            "lambda_dn": inst.model.down.lam,
            "expected_cost": value,
            "expected_profit": -value,
            "gap": gap,
        },
    }


def cmd_solve_risk(args) -> dict:
    from_traces = bool(args.traces_market)
    r, cap, risk, ids, stats = load_config(args.config, partial(_parse_risk, with_stats=not from_traces))
    if args.risk_weight is not None:
        risk = RiskConfig(args.risk_weight)
    if from_traces:
        traces = load_traces(args.traces_market, args.traces_as)
        for pid in ids:
            if pid not in traces.program_ids:
                raise InvalidInputError(f"traces carry no program {pid!r}")
        cols = [traces.program_ids.index(pid) for pid in ids]
        # every traced price bounds the mean price, and the check leaves room to sum them
        try:
            _check_cost_range(cap, r, float(traces.as_prices[:, cols].max()), len(ids))
        except NumericalError as exc:
            raise NumericalError(f"{args.traces_as}: {exc}") from None
        stats = [estimate_stats(traces, col) for col in cols]
    else:
        _check_cost_range(cap, r, max(s.price for s in stats), len(stats))
    profile = risk_aware_solve(stats, r, cap, risk)
    exp_cost, var = profile_risk(stats, r, profile)
    return {
        "profile.csv": (["program_id", "capacity_mw"], [ids, profile.c]),
        "summary.json": {
            "risk_weight": risk.risk_weight,
            "reward_rate": r,
            "expected_cost": exp_cost,
            "expected_profit": -exp_cost,
            "profit_variance": var,
            "stats": [
                {"id": pid, "price": s.price, "mean_eps": s.mean_eps, "var_eps": s.var_eps}
                for pid, s in zip(ids, stats)
            ],
        },
    }


def cmd_simulate_online(args) -> dict:
    machines, programs, _, _, traces = _load_fleet_inputs(args)
    batch = slot_batch(traces, machines, programs, args.clamp_negative_rewards)
    r_max, p_max = float(batch.rewards.max()), float(batch.quoted_prices.max())
    cfg = OgdConfig.from_bounds(len(programs), batch.cap, max(r_max, 1e-9), max(p_max, 1e-9), learners=args.learners)
    played, costs, report = run_online(batch, cfg, timestamps=traces.timestamps)
    T = batch.T
    cum = np.cumsum(costs - per_round_costs(batch, report.hindsight_profile))
    hours = np.array([ts.hour for ts in traces.timestamps])
    # the constant bound column is encoded once, as text
    columns = [np.arange(T), hours, *played.T, costs, cum, cum / np.arange(1, T + 1), [repr(report.bound)] * T]
    header = ["round", "hour", *[f"c_{p.id}" for p in programs], "cost", "cum_regret", "avg_regret", "bound"]
    return {
        "rounds.csv": (header, columns),
        "summary.json": {
            "rounds": batch.T,
            "learners": args.learners,
            "static_regret": report.static_regret,
            "average_regret": report.average_regret,
            "bound": report.bound,
            "hindsight_profile": [float(x) for x in report.hindsight_profile.c],
            "hindsight_gap": report.hindsight_gap,
        },
    }


def cmd_compare(args) -> dict:
    machines, programs, _, _, traces = _load_fleet_inputs(args)
    report = compare_strategies(
        traces, machines, programs,
        window=(args.window_start, args.window_end) if args.window_start else None,
        clamp_negative=args.clamp_negative_rewards, sgd_iterations=args.iterations, seed=args.seed,
    )
    return {
        "strategies.csv": (
            ["strategy", "mean_profit_per_hour"],
            [list(STRATEGIES), np.array([report.mean_profit[k] for k in STRATEGIES])],
        ),
        "slots.csv": (
            ["timestamp", "profit_optimized", "profit_fixed", "profit_even_split", "profit_none"],
            [list(map(format_timestamp, report.timestamps)), *(report.slot_profits[k] for k in STRATEGIES)],
        ),
        "summary.json": {
            "slots": len(report.timestamps),
            "mean_profit": report.mean_profit,
            "fixed_profile": [float(x) for x in report.fixed_profile],
        },
    }


def cmd_verify(args) -> dict:
    results = run_verify(fast=args.fast, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    rows = [(r.name, "PASS" if r.passed else "FAIL", r.detail) for r in results]
    outputs = {
        "checks.csv": (["check", "status", "detail"], list(zip(*rows))),
        "summary.json": {"checks": len(results), "failed": len(failed)},
    }
    if failed:
        raise _FailedWithOutputs(f"{len(failed)} verification checks failed", outputs)
    return outputs


# ── Parser and entry point ───────────────────────────────────────────────


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minerflex",
        description="Ancillary-service capacity profile optimization for mining fleets.",
    )
    parser.add_argument("--version", action="version", version=f"minerflex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--out", required=True, help="output directory (one manifest per run)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    def fleet_inputs(p, traces_required):
        p.add_argument("--fleet", required=True, help="fleet config JSON")
        p.add_argument("--programs", required=True, help="programs config JSON")
        p.add_argument("--traces-market", required=traces_required, help="market CSV")
        p.add_argument("--traces-as", required=traces_required, help="ancillary-service CSV")
        p.add_argument("--clamp-negative-rewards", action="store_true",
                       help="floor negative net rewards at 0 instead of failing")

    p = sub.add_parser("synthesize-traces", help="generate synthetic market/AS trace CSVs")
    p.add_argument("--spec", required=True, help="synthesis spec JSON")
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "solve-offline", help="per-hour profiles: exact on traces, stochastic subgradient otherwise"
    )
    fleet_inputs(p, traces_required=False)
    p.add_argument("--iterations", type=int, default=10000,
                   help="SGD iterations J (default 10000), parametric mode only: with traces, "
                        "each hour's profile is solved exactly")
    p.add_argument("--batch", type=int, default=10,
                   help="samples per iteration M (default 10), parametric mode only")
    common(p)
    p.set_defaults(func=cmd_solve_offline)

    p = sub.add_parser("solve-reg", help="closed-form reg-up/reg-down co-optimization")
    p.add_argument("--config", required=True, help="regulation instance JSON")
    common(p)
    p.set_defaults(func=cmd_solve_reg)

    p = sub.add_parser("solve-risk", help="mean-variance profile selection (single machine type)")
    p.add_argument("--config", required=True, help="risk instance JSON")
    p.add_argument("--traces-market", help="market CSV (estimate stats from history)")
    p.add_argument("--traces-as", help="ancillary-service CSV")
    p.add_argument("--risk-weight", type=float, default=None,
                   help="override the config's risk weight")
    common(p)
    p.set_defaults(func=cmd_solve_risk)

    p = sub.add_parser("simulate-online", help="online gradient descent over a trace")
    fleet_inputs(p, traces_required=True)
    p.add_argument("--learners", type=int, default=24, help="per-hour learner bank size (default 24)")
    common(p)
    p.set_defaults(func=cmd_simulate_online)

    p = sub.add_parser("compare-strategies", help="optimized vs fixed vs even-split vs none")
    fleet_inputs(p, traces_required=True)
    p.add_argument("--window-start", type=parse_timestamp, help="ISO timestamp, inclusive")
    p.add_argument("--window-end", type=parse_timestamp, help="ISO timestamp, exclusive")
    p.add_argument("--iterations", type=int, default=2000,
                   help="SGD iterations of the pooled (fixed) profile (default 2000); "
                        "each hour's profile is solved exactly")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run the oracle agreement suites")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process.

    argparse's objects hold reference cycles, which only the cyclic collector
    frees: a parser built per command kept them, and the memory pages they sit
    in, alive through the next command of a long-lived process.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for first, second in PAIRED_ARGS:
        if bool(getattr(args, first, None)) != bool(getattr(args, second, None)):
            flags = [f"--{name.replace('_', '-')}" for name in (first, second)]
            parser.error(f"{flags[0]} and {flags[1]} must be given together")
    try:
        if args.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {args.seed}")
        t0 = time.time()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs = {name: _resolve(getattr(args, name)) for name in INPUT_ARGS if getattr(args, name, None)}
        vars(args).update(inputs)
        try:
            outputs, failure = args.func(args), None
        except _FailedWithOutputs as exc:
            outputs, failure = exc.outputs, exc
        names = _write_outputs(out, outputs)
        manifest = {
            "command": args.command,
            "tool_version": __version__,
            "seed": args.seed,
            "config_paths": {k: str(v) for k, v in inputs.items()},
            "input_digests": {str(v): hashlib.sha256(v.read_bytes()).hexdigest() for v in inputs.values()},
            "outputs": names,
            "wall_clock_s": round(time.time() - t0, 3),
        }
        (out / "manifest.json").write_text(_json_text("manifest.json", manifest))
        if failure is not None:
            raise failure
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MinerflexError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected numeric blowups
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
