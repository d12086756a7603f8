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
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputError, MinerflexError, NumericalError
from .fleet import FleetSpec, canonicalize, load_fleet_config, mining_revenue_rate, net_reward
from .fleet import MachineType, parse_machines
from .online import OgdConfig, per_round_costs, run_online
from .oracle import compare_strategies, draw_effective_samples, mc_expected_cost
from .programs import ProgramSpec, TruncatedExponential, fit_lambda, independent_sampler, parse_eps_model
from .regulation import (
    RegInstance,
    RegJointModel,
    expected_reg_cost,
    joint_pair,
    sample_joint,
    solve_reg_profile,
)
from .sgd import SgdConfig, solve as sgd_solve, suboptimality_bound
from .single_machine import ProgramStats, RiskConfig, profile_risk, risk_aware_solve
from .traces import (
    deployment_for,
    estimate_stats,
    load_synthesis_spec,
    load_traces,
    per_slot_rewards,
    programs_for_record,
    synthesize_traces,
    write_traces,
)
from .verify import run_verify

CONFIG_DIR_ENV = "MINERFLEX_CONFIG_DIR"


# ── Small IO helpers ─────────────────────────────────────────────────────


def _resolve(path: str) -> Path:
    p = Path(path)
    if not p.exists() and not p.is_absolute():
        base = os.environ.get(CONFIG_DIR_ENV)
        if base and (Path(base) / p).exists():
            return Path(base) / p
    return p


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from None


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(out_dir: Path, command: str, inputs: dict, outputs: list[str], seed, t0: float):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config_paths": {k: str(v) for k, v in inputs.items()},
        "input_digests": {str(v): _sha256(Path(v)) for v in inputs.values()},
        "outputs": outputs,
        "wall_clock_s": round(time.time() - t0, 3),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ── Config interpretation ────────────────────────────────────────────────


def _load_programs_config(path: Path):
    cfg = _load_json(path)
    entries = cfg.get("programs")
    if not entries:
        raise InvalidInputError(f"{path}: 'programs' list is required")
    programs = []
    for entry in entries:
        model = parse_eps_model(entry["eps"]) if "eps" in entry else None
        programs.append(
            ProgramSpec(
                id=str(entry["id"]),
                price=float(entry.get("price", 0.0)),
                direction=str(entry.get("direction", "up")),
                eps_model=model,
            )
        )
    return programs, cfg.get("joint"), cfg.get("economics")


def _parametric_fleet(machines: list[MachineType], economics) -> FleetSpec:
    resolved = []
    for m in machines:
        if m.reward is not None:
            resolved.append(m)
            continue
        if economics is None:
            raise InvalidInputError(
                f"machine {m.id!r} has no reward; supply an 'economics' block "
                "(coin_price, electricity_price) or per-machine rewards"
            )
        r = net_reward(
            mining_revenue_rate(float(economics["coin_price"]), m.energy_intensity),
            float(economics["electricity_price"]),
        )
        resolved.append(
            MachineType(id=m.id, capacity_mw=m.capacity_mw, energy_intensity=m.energy_intensity, reward=r)
        )
    return canonicalize(resolved)


def _build_sampler(programs: list[ProgramSpec], joint_cfg):
    """Joint raw-deployment sampler over all programs, honoring a reg pair."""
    n = len(programs)
    joint = None
    if joint_cfg is not None:
        joint = joint_pair(programs, float(joint_cfg["theta"]), joint_cfg["up"], joint_cfg["down"])
    rest = [i for i in range(n) if joint is None or i not in joint[:2]]
    independent = independent_sampler([programs[i] for i in rest])

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.zeros((size, n))
        if joint is not None:
            pair = sample_joint(joint[2], rng, size)
            out[:, joint[0]] = pair[:, 0]
            out[:, joint[1]] = pair[:, 1]
        if rest:
            out[:, rest] = independent(rng, size)
        return out

    return sampler


def _slot_inputs(records, machines, programs, clamp):
    fleets = [per_slot_rewards(r, machines, clamp) for r in records]
    programs_seq = [programs_for_record(r, programs) for r in records]
    samples, masks = [], []
    for r in records:
        eps, missing = deployment_for(r, programs)
        samples.append(eps)
        masks.append(missing if missing.any() else None)
    return fleets, programs_seq, samples, masks


# ── Commands ─────────────────────────────────────────────────────────────


def cmd_synthesize(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    spec_path = _resolve(args.spec)
    spec = load_synthesis_spec(spec_path)
    records = synthesize_traces(spec, args.seed)
    write_traces(records, out / "market.csv", out / "as.csv")
    _write_json(
        out / "summary.json",
        {
            "records": len(records),
            "programs": [p.id for p in spec.programs],
            "start": records[0].timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        },
    )
    _finish(out, "synthesize-traces", {"spec": spec_path}, ["market.csv", "as.csv", "summary.json"], args.seed, t0)
    return 0


def cmd_solve_offline(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    fleet_path, programs_path = _resolve(args.fleet), _resolve(args.programs)
    machines = load_fleet_config(fleet_path)
    programs, joint_cfg, economics = _load_programs_config(programs_path)
    inputs = {"fleet": fleet_path, "programs": programs_path}
    n = len(programs)

    rows = []
    if args.traces_market:
        market, asf = _resolve(args.traces_market), _resolve(args.traces_as)
        inputs.update({"traces_market": market, "traces_as": asf})
        report = compare_strategies(
            load_traces(market, asf), machines, programs,
            clamp_negative=args.clamp_negative_rewards,
            sgd_iterations=args.iterations, sgd_batch=args.batch, seed=args.seed,
        )
        batch = report.batch
        hours = np.array([ts.hour for ts in report.timestamps])
        bound = suboptimality_bound(
            args.iterations, n, float(batch.rewards.max()), float(batch.prices.max()), batch.cap
        )
        for h in range(24):
            rows_h = np.nonzero(hours == h)[0]
            in_sample = float(report.hour_costs[rows_h, h].mean()) if rows_h.size else math.nan
            rows.append([h, *map(float, report.hour_profiles[h]), in_sample, bound])
    else:
        fleet = _parametric_fleet(machines, economics)
        sampler = _build_sampler(programs, joint_cfg)
        cfg = SgdConfig(iterations=args.iterations, batch=args.batch, seed=args.seed)
        result = sgd_solve(fleet, programs, sampler, cfg)
        eff = draw_effective_samples(sampler, [p.direction for p in programs], 20000, args.seed + 1)
        value, _ = mc_expected_cost(fleet, programs, result.profile, eff)
        for h in range(24):
            rows.append([h, *map(float, result.profile.c), value, result.bound])

    header = ["hour", *[f"c_{p.id}" for p in programs], "expected_cost", "bound"]
    _write_csv(out / "profiles.csv", header, rows)
    _write_json(
        out / "summary.json",
        {
            "iterations": args.iterations,
            "batch": args.batch,
            "programs": [p.id for p in programs],
            "bound": rows[0][-1],
        },
    )
    _finish(out, "solve-offline", inputs, ["profiles.csv", "summary.json"], args.seed, t0)
    return 0


def cmd_solve_reg(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    cfg_path = _resolve(args.config)
    cfg = _load_json(cfg_path)
    fleet = _parametric_fleet(parse_machines(cfg["fleet"], cfg_path), cfg.get("economics"))
    lam_up = float(cfg["lambda_up"]) if "lambda_up" in cfg else fit_lambda(float(cfg["mean_up"]))
    lam_dn = float(cfg["lambda_dn"]) if "lambda_dn" in cfg else fit_lambda(float(cfg["mean_dn"]))
    inst = RegInstance(
        fleet=fleet,
        p_up=float(cfg["p_up"]),
        p_dn=float(cfg["p_dn"]),
        model=RegJointModel(float(cfg["theta"]), TruncatedExponential(lam_up), TruncatedExponential(lam_dn)),
    )
    profile = solve_reg_profile(inst)
    value = expected_reg_cost(inst, float(profile.c[0]), float(profile.c[1]))
    _write_csv(
        out / "profile.csv",
        ["c_up", "c_dn", "expected_cost"],
        [[float(profile.c[0]), float(profile.c[1]), value]],
    )
    _write_json(
        out / "summary.json",
        {
            "theta": inst.model.theta,
            "lambda_up": lam_up,
            "lambda_dn": lam_dn,
            "expected_cost": value,
            "expected_profit": -value,
        },
    )
    _finish(out, "solve-reg", {"config": cfg_path}, ["profile.csv", "summary.json"], args.seed, t0)
    return 0


def cmd_solve_risk(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    cfg_path = _resolve(args.config)
    cfg = _load_json(cfg_path)
    inputs = {"config": cfg_path}
    r = float(cfg["reward_rate"])
    cap = float(cfg["cap"])
    weight = float(args.risk_weight if args.risk_weight is not None else cfg.get("risk_weight", 0.0))

    ids = [str(p["id"]) for p in cfg["programs"]]
    if args.traces_market:
        market, asf = _resolve(args.traces_market), _resolve(args.traces_as)
        inputs.update({"traces_market": market, "traces_as": asf})
        records = load_traces(market, asf)
        stats = []
        for pid in ids:
            if not records or pid not in records[0].program_ids:
                raise InvalidInputError(f"traces carry no program {pid!r}")
            stats.append(estimate_stats(records, records[0].program_ids.index(pid)))
    else:
        stats = [
            ProgramStats(
                price=float(p["price"]), mean_eps=float(p["mean_eps"]), var_eps=float(p["var_eps"])
            )
            for p in cfg["programs"]
        ]

    profile = risk_aware_solve(stats, r, cap, RiskConfig(weight))
    exp_cost, var = profile_risk(stats, r, profile)
    _write_csv(
        out / "profile.csv",
        ["program_id", "capacity_mw"],
        [[pid, float(c)] for pid, c in zip(ids, profile.c)],
    )
    _write_json(
        out / "summary.json",
        {
            "risk_weight": weight,
            "reward_rate": r,
            "expected_cost": exp_cost,
            "expected_profit": -exp_cost,
            "profit_variance": var,
            "stats": [
                {"id": pid, "price": s.price, "mean_eps": s.mean_eps, "var_eps": s.var_eps}
                for pid, s in zip(ids, stats)
            ],
        },
    )
    _finish(out, "solve-risk", inputs, ["profile.csv", "summary.json"], args.seed, t0)
    return 0


def cmd_simulate_online(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    fleet_path, programs_path = _resolve(args.fleet), _resolve(args.programs)
    market, asf = _resolve(args.traces_market), _resolve(args.traces_as)
    machines = load_fleet_config(fleet_path)
    programs, _, _ = _load_programs_config(programs_path)
    records = load_traces(market, asf)
    if not records:
        raise InvalidInputError("traces are empty")
    fleets, programs_seq, samples, masks = _slot_inputs(
        records, machines, programs, args.clamp_negative_rewards
    )
    cap = fleets[0].total_capacity_mw
    r_max = float(max(f.rewards[-1] for f in fleets))
    p_max = float(max(max(p.price for p in ps) for ps in programs_seq))
    cfg = OgdConfig.from_bounds(
        len(records), len(programs), cap, max(r_max, 1e-9), max(p_max, 1e-9), learners=args.learners
    )
    timestamps = [r.timestamp for r in records]
    outcomes, report = run_online(
        fleets, programs_seq, samples, cfg, timestamps=timestamps, missing_masks=masks
    )
    hindsight_costs = per_round_costs(
        fleets, programs_seq, samples, cap, report.hindsight_profile, missing_masks=masks
    )
    rows = []
    cum = 0.0
    for t, outcome in enumerate(outcomes):
        cum += outcome.cost_incurred - float(hindsight_costs[t])
        rows.append(
            [
                t,
                timestamps[t].hour,
                *map(float, outcome.profile_played.c),
                outcome.cost_incurred,
                cum,
                cum / (t + 1),
                report.bound,
            ]
        )
    header = ["round", "hour", *[f"c_{p.id}" for p in programs], "cost", "cum_regret", "avg_regret", "bound"]
    _write_csv(out / "rounds.csv", header, rows)
    _write_json(
        out / "summary.json",
        {
            "rounds": len(outcomes),
            "learners": args.learners,
            "static_regret": report.static_regret,
            "average_regret": report.average_regret,
            "bound": report.bound,
            "hindsight_profile": [float(x) for x in report.hindsight_profile.c],
        },
    )
    _finish(
        out,
        "simulate-online",
        {"fleet": fleet_path, "programs": programs_path, "traces_market": market, "traces_as": asf},
        ["rounds.csv", "summary.json"],
        args.seed,
        t0,
    )
    return 0


def cmd_compare(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    fleet_path, programs_path = _resolve(args.fleet), _resolve(args.programs)
    market, asf = _resolve(args.traces_market), _resolve(args.traces_as)
    machines = load_fleet_config(fleet_path)
    programs, _, _ = _load_programs_config(programs_path)
    records = load_traces(market, asf)
    window = None
    if args.window_start or args.window_end:
        if not (args.window_start and args.window_end):
            raise InvalidInputError("--window-start and --window-end must be given together")
        parse = lambda s: datetime.fromisoformat(s.replace("Z", "+00:00")).astimezone(timezone.utc)
        window = (parse(args.window_start), parse(args.window_end))
    report = compare_strategies(
        records,
        machines,
        programs,
        window=window,
        clamp_negative=args.clamp_negative_rewards,
        sgd_iterations=args.iterations,
        seed=args.seed,
    )
    _write_csv(
        out / "strategies.csv",
        ["strategy", "mean_profit_per_hour"],
        [[k, report.mean_profit[k]] for k in ("optimized", "fixed_profile", "even_split", "none")],
    )
    slot_rows = [
        [
            ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
            float(report.slot_profits["optimized"][i]),
            float(report.slot_profits["fixed_profile"][i]),
            float(report.slot_profits["even_split"][i]),
            float(report.slot_profits["none"][i]),
        ]
        for i, ts in enumerate(report.timestamps)
    ]
    _write_csv(
        out / "slots.csv",
        ["timestamp", "profit_optimized", "profit_fixed", "profit_even_split", "profit_none"],
        slot_rows,
    )
    _write_json(
        out / "summary.json",
        {
            "slots": len(report.timestamps),
            "mean_profit": report.mean_profit,
            "fixed_profile": [float(x) for x in report.fixed_profile],
        },
    )
    _finish(
        out,
        "compare-strategies",
        {"fleet": fleet_path, "programs": programs_path, "traces_market": market, "traces_as": asf},
        ["strategies.csv", "slots.csv", "summary.json"],
        args.seed,
        t0,
    )
    return 0


def cmd_verify(args) -> int:
    t0 = time.time()
    out = _out_dir(args)
    results = run_verify(fast=args.fast, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    _write_csv(
        out / "checks.csv",
        ["check", "status", "detail"],
        [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results],
    )
    _write_json(out / "summary.json", {"checks": len(results), "failed": len(failed)})
    _finish(out, "verify", {}, ["checks.csv", "summary.json"], args.seed, t0)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        raise NumericalError(f"{len(failed)} verification checks failed")
    return 0


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

    p = sub.add_parser("synthesize-traces", help="generate synthetic market/AS trace CSVs")
    p.add_argument("--spec", required=True, help="synthesis spec JSON")
    common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("solve-offline", help="stochastic subgradient profile optimization")
    p.add_argument("--fleet", required=True, help="fleet config JSON")
    p.add_argument("--programs", required=True, help="programs config JSON")
    p.add_argument("--traces-market", help="market CSV (per-hour empirical mode)")
    p.add_argument("--traces-as", help="ancillary-service CSV")
    p.add_argument("--iterations", type=int, default=10000, help="SGD iterations J (default 10000)")
    p.add_argument("--batch", type=int, default=10, help="samples per iteration M (default 10)")
    p.add_argument("--clamp-negative-rewards", action="store_true",
                   help="floor negative net rewards at 0 instead of failing")
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
    p.add_argument("--fleet", required=True)
    p.add_argument("--programs", required=True)
    p.add_argument("--traces-market", required=True)
    p.add_argument("--traces-as", required=True)
    p.add_argument("--learners", type=int, default=24, help="per-hour learner bank size (default 24)")
    p.add_argument("--clamp-negative-rewards", action="store_true")
    common(p)
    p.set_defaults(func=cmd_simulate_online)

    p = sub.add_parser("compare-strategies", help="optimized vs fixed vs even-split vs none")
    p.add_argument("--fleet", required=True)
    p.add_argument("--programs", required=True)
    p.add_argument("--traces-market", required=True)
    p.add_argument("--traces-as", required=True)
    p.add_argument("--window-start", help="ISO timestamp, inclusive")
    p.add_argument("--window-end", help="ISO timestamp, exclusive")
    p.add_argument("--iterations", type=int, default=2000,
                   help="training iterations per profile (default 2000)")
    p.add_argument("--clamp-negative-rewards", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run the oracle agreement suites")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "traces_market", None) and not getattr(args, "traces_as", None):
        parser.error("--traces-market requires --traces-as")
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MinerflexError, FileNotFoundError, KeyError) as exc:
        detail = f"missing config key {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected numeric blowups
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
