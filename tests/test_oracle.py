from functools import partial

import numpy as np
import pytest

from minerflex import (
    GridSpec,
    ProgramSpec,
    RegInstance,
    RegJointModel,
    TruncatedExponential,
    compare_strategies,
    expected_reg_cost,
    fit_lambda,
    fleet_from_rewards,
    grid_mc_optimum,
    hindsight_optimum,
    lp_deployment_oracle,
    realized_cost,
    synthesize_traces,
)
from minerflex.fleet import MachineType
from minerflex.oracle import draw_effective_samples, feasibility_grid, mc_expected_cost
from minerflex.programs import ConstantEps, UniformEps, directions_of, prices_of, program_sampler
from minerflex.regulation import sample_joint

from conftest import random_instance
from test_online import assert_hour_optima_match_lp
from test_sgd import hot_afternoon_week
from test_traces import synth_spec


def test_lp_oracle_single_type():
    fleet = fleet_from_rewards([100.0], [150.0])
    programs = [ProgramSpec(id="p", price=20.0)]
    c, eps = np.array([80.0]), np.array([0.5])
    assert lp_deployment_oracle(fleet, programs, c, eps) == pytest.approx(
        realized_cost(fleet, programs, c, eps)
    )


def test_lp_oracle_agrees_with_greedy(rng):
    for _ in range(300):
        fleet, programs, c, raw = random_instance(rng)
        greedy = realized_cost(fleet, programs, c, raw)
        oracle = lp_deployment_oracle(fleet, programs, c, raw)
        assert greedy == pytest.approx(oracle, abs=1e-9)


def test_reversed_fill_is_suboptimal(two_type_fleet):
    programs = [ProgramSpec(id="p", price=20.0)]
    c, eps = np.array([200.0]), np.array([0.6])
    total = float(eps @ c)
    # fill the high-reward type first: worse mining loss
    d_bad = np.array([total - 100.0, 100.0])
    bad = float(two_type_fleet.rewards @ d_bad) - 20.0 * 200.0
    assert bad >= lp_deployment_oracle(two_type_fleet, programs, c, eps)


def test_grid_mc_never_deployed(two_type_fleet):
    programs = [ProgramSpec(id="p", price=25.0, eps_model=ConstantEps(0.0))]
    res = grid_mc_optimum(
        two_type_fleet, programs, program_sampler(programs), GridSpec(101, 200, seed=4)
    )
    assert res.profile.c[0] == pytest.approx(250.0)
    assert res.value == pytest.approx(-250.0 * 25.0)
    assert res.stderr == 0.0


def test_grid_mc_zero_prices(two_type_fleet):
    programs = [
        ProgramSpec(id="a", price=0.0, eps_model=ConstantEps(0.3)),
        ProgramSpec(id="b", price=0.0, eps_model=ConstantEps(0.6)),
    ]
    res = grid_mc_optimum(
        two_type_fleet, programs, program_sampler(programs), GridSpec(41, 100, seed=4)
    )
    np.testing.assert_allclose(res.profile.c, [0.0, 0.0])
    assert res.value == 0.0


def test_grid_mc_matches_reg_closed_form(two_type_fleet):
    fleet = fleet_from_rewards([150.0, 100.0], [103.846, 131.818])
    model = RegJointModel(
        0.5, TruncatedExponential(fit_lambda(0.18)), TruncatedExponential(fit_lambda(0.27))
    )
    inst = RegInstance(fleet=fleet, p_up=15.0, p_dn=10.0, model=model)
    programs = [
        ProgramSpec(id="up", price=15.0, direction="up"),
        ProgramSpec(id="dn", price=10.0, direction="down"),
    ]
    res = grid_mc_optimum(fleet, programs, partial(sample_joint, model), GridSpec(60, 30000, seed=9))
    closed = expected_reg_cost(inst, float(res.profile.c[0]), float(res.profile.c[1]))
    assert abs(res.value - closed) <= 3.0 * res.stderr


def test_grid_mc_deterministic(two_type_fleet):
    programs = [
        ProgramSpec(id="a", price=22.0, eps_model=ConstantEps(0.2)),
        ProgramSpec(id="b", price=9.0, eps_model=ConstantEps(0.8)),
    ]
    sampler = program_sampler(programs)
    r1 = grid_mc_optimum(two_type_fleet, programs, sampler, GridSpec(51, 500, seed=12))
    r2 = grid_mc_optimum(two_type_fleet, programs, sampler, GridSpec(51, 500, seed=12))
    assert np.array_equal(r1.profile.c, r2.profile.c)
    assert r1.value == r2.value


def allocating_grid_mc_optimum(fleet, programs, sampler, grid):
    """grid_mc_optimum as first written: fresh float32 hinge arrays for every break."""
    eff = draw_effective_samples(sampler, directions_of(programs), grid.mc_samples, grid.seed)
    points = feasibility_grid(fleet.total_capacity_mw, len(programs), grid.points_per_axis)
    r = fleet.rewards
    means = (float(r[0]) * eff.mean(axis=0) - prices_of(programs)) @ points.T
    eff32 = eff.astype(np.float32)
    block = max(16, 1_000_000 // grid.mc_samples)
    for lo in range(0, points.shape[0], block):
        chunk32 = points[lo : lo + block].T.astype(np.float32)
        deployed = eff32 @ chunk32
        for jump, brk in zip(np.diff(r), fleet.cum_capacities[:-1]):
            hinge = np.maximum(deployed - np.float32(brk), np.float32(0.0))
            means[lo : lo + chunk32.shape[1]] += float(jump) * hinge.mean(axis=0, dtype=np.float64)
    best = int(np.argmin(means))
    value, stderr = mc_expected_cost(fleet, programs, points[best], eff)
    return points[best], value, stderr


def truncexp_programs(n):
    lams = (0.5, 2.0, 6.0)
    return [
        ProgramSpec(f"p{i}", 10.0 + 7.0 * i, "down" if i == 1 else "up", TruncatedExponential(lams[i]))
        for i in range(n)
    ]


def constant_programs(*rates):
    return [ProgramSpec(f"k{i}", 12.0 + 5.0 * i, "up", ConstantEps(float(v))) for i, v in enumerate(rates)]


# The 100 + 300 MW fleet's first break is B_0 = 100 = cap / 4: a rate of 1/4 reaches it at c = (cap, 0).
QUARTER_FLEET = ([100.0, 300.0], [50.0, 90.0])
QUARTER = 0.25
F32_ABOVE = float(np.nextafter(np.float32(QUARTER), np.float32(1.0)))


@pytest.mark.parametrize(
    "caps, rewards, programs, points, samples",
    [
        # an int n stands for the first n of truncexp_programs
        ([150.0, 100.0], [103.8, 131.8], 1, 401, 5000),  # two blocks and a short one
        ([90.0, 60.0, 100.0], [40.0, 95.0, 170.0], 1, 41, 70000),  # 16-point blocks
        ([90.0, 60.0, 100.0], [40.0, 95.0, 170.0], 2, 41, 5000),
        ([80.0], [120.0], 2, 21, 3000),  # no breaks at all
        ([50.0, 0.0, 70.0, 30.0], [10.0, 60.0, 61.0, 150.0], 3, 21, 4000),  # a zero-capacity type
        pytest.param(  # about 86% of its samples cannot reach B_0
            [150.0, 100.0],
            [103.846153846, 131.818181818],
            [
                ProgramSpec(id="a", price=24.0, eps_model=TruncatedExponential(fit_lambda(0.18))),
                ProgramSpec(id="b", price=30.0, eps_model=TruncatedExponential(fit_lambda(0.27))),
            ],
            80,
            20000,
            id="check_sgd_convergence",
        ),
        # cap max(eps) one float64 ulp below B_0, on it and one ulp above: each keeps its samples
        pytest.param(*QUARTER_FLEET, constant_programs(np.nextafter(QUARTER, 0.0), 0.1), 41, 500, id="ulp-below-B0"),
        pytest.param(*QUARTER_FLEET, constant_programs(QUARTER, 0.1), 41, 500, id="on-B0"),
        pytest.param(*QUARTER_FLEET, constant_programs(np.nextafter(QUARTER, 1.0), 0.1), 41, 500, id="ulp-above-B0"),
        pytest.param(  # one float32 ulp above: only the 1.5e-5 MW hinge at c = cap keeps the argmin at 390 MW
            *QUARTER_FLEET, [ProgramSpec("k", 50.0 * F32_ABOVE + 1e-5, "up", ConstantEps(F32_ABOVE))], 41, 500,
            id="float32-ulp-above-B0",
        ),
        pytest.param(  # inside the pruning margin: every sample is dropped
            *QUARTER_FLEET, constant_programs(QUARTER / (1.0 + 2e-6), 0.1), 41, 500, id="inside-margin",
        ),
        pytest.param(
            *QUARTER_FLEET,
            [ProgramSpec("u0", 15.0, "up", UniformEps(0.5, 1.0)), ProgramSpec("u1", 9.0, "up", UniformEps(0.6, 0.9))],
            61,
            20000,
            id="every-sample-live",
        ),
        pytest.param(*QUARTER_FLEET, constant_programs(0.0, 0.0), 41, 500, id="no-sample-live"),
        pytest.param(  # a quarter of the samples drop, and the hinge sets the optimum near 110 MW
            [100.0, 300.0], [10.0, 200.0], [ProgramSpec("u", 20.0, "up", UniformEps(0.0, 1.0))], 201, 5000,
            id="hinge-sets-the-optimum",
        ),
        pytest.param(
            [300.0, 100.0], [50.0, 90.0], [ProgramSpec("u", 15.0, "up", UniformEps(0.0, 0.7))], 101, 9000,
            id="no-sample-reaches-B0",
        ),
    ],
)
def test_grid_mc_matches_the_allocating_loop(caps, rewards, programs, points, samples):
    fleet = fleet_from_rewards(caps, rewards)
    if isinstance(programs, int):
        programs = truncexp_programs(programs)
    sampler = program_sampler(programs)
    grid = GridSpec(points, samples, seed=3)
    res = grid_mc_optimum(fleet, programs, sampler, grid)
    profile, value, stderr = allocating_grid_mc_optimum(fleet, programs, sampler, grid)
    assert res.profile.c.tobytes() == profile.tobytes()
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    assert np.float64(res.stderr).tobytes() == np.float64(stderr).tobytes()


def fleet_config():
    return [
        MachineType("new", 100.0, energy_intensity=110.0),
        MachineType("old", 150.0, energy_intensity=130.0),
    ]


def base_programs():
    return [
        ProgramSpec(id="presp", price=12.0, direction="up"),
        ProgramSpec(id="regup", price=15.0, direction="up"),
        ProgramSpec(id="regdn", price=9.0, direction="down"),
    ]


def test_compare_strategies_dominance_and_baseline():
    traces = synthesize_traces(synth_spec(hours=96), seed=21)
    report = compare_strategies(
        traces, fleet_config(), base_programs(), sgd_iterations=800, seed=5
    )
    mp = report.mean_profit
    assert mp["none"] == 0.0
    assert mp["optimized"] >= mp["fixed_profile"] - 1e-9
    assert mp["optimized"] >= mp["even_split"] - 1e-9
    assert set(mp) == {"optimized", "fixed_profile", "even_split", "none"}
    assert report.hour_profiles.shape == (24, 3)


def test_compare_strategies_hours_are_lp_optima():
    # the merged-type week, less all of hour 3's slots and all but one of hour 4's
    traces, machines, spec_programs = hot_afternoon_week(seed=31)
    programs = [ProgramSpec(id=p.id, price=0.0, direction=p.direction) for p in spec_programs]
    hours = np.array([ts.hour for ts in traces.timestamps])
    keep = np.flatnonzero(hours != 3)
    keep = np.setdiff1d(keep, np.flatnonzero(hours == 4)[1:])
    report = compare_strategies(traces.take(keep), machines, programs, clamp_negative=True, sgd_iterations=100)
    hours = np.array([ts.hour for ts in report.timestamps])
    assert (hours == 3).sum() == 0 and (hours == 4).sum() == 1
    assert (report.batch.capacities == 0.0).any()  # merged afternoon types, padded at zero capacity
    assert_hour_optima_match_lp(report.batch, hours, report.hour_profiles, report.hour_gaps)
    # the empty hour 3 holds the pooled exact optimum, which costs the window no more than the fixed profile
    assert report.hour_profiles[3].tobytes() == hindsight_optimum(report.batch)[0].c.tobytes()
    totals = report.batch.totals(np.array([report.hour_profiles[3], report.fixed_profile]))[0]
    assert totals[0] <= totals[1] + 1e-9 * max(1.0, abs(totals[1]))
    # each hour's exact optimum costs its slots no more than the fixed profile does
    hour_costs = report.batch.cost_and_subgradient(slice(None), report.hour_profiles[hours])[0]
    fixed = report.batch.cost_and_subgradient(slice(None), report.fixed_profile)[0]
    for h in np.unique(hours).tolist():
        rows = hours == h
        assert hour_costs[rows].sum() <= fixed[rows].sum() + 1e-9 * max(1.0, abs(fixed[rows].sum()))


def test_compare_strategies_zero_prices():
    spec = synth_spec(hours=72)
    zero_programs = tuple(
        type(p)(p.id, type(p.price)((0.0,) * 24), p.eps_model)
        for p in spec.programs
    )
    spec = type(spec)(
        start=spec.start,
        hours=spec.hours,
        coin_price=spec.coin_price,
        rt_price=spec.rt_price,
        programs=zero_programs,
        joint=spec.joint,
    )
    traces = synthesize_traces(spec, seed=2)
    programs = [ProgramSpec(id=p.id, price=0.0, direction=p.direction) for p in base_programs()]
    report = compare_strategies(traces, fleet_config(), programs, sgd_iterations=400, seed=1)
    assert report.mean_profit["optimized"] == pytest.approx(0.0, abs=1e-9)
    assert report.mean_profit["none"] == 0.0
    assert report.mean_profit["even_split"] <= 1e-9


def test_compare_strategies_window_filter():
    traces = synthesize_traces(synth_spec(hours=120), seed=21)
    window = (traces.timestamps[24], traces.timestamps[72])
    report = compare_strategies(
        traces, fleet_config(), base_programs(), window=window, sgd_iterations=200, seed=5
    )
    assert len(report.timestamps) == 48
    assert report.timestamps[0] == traces.timestamps[24]
