import math

import numpy as np
import pytest
from scipy import integrate

from minerflex import (
    InfeasibleError,
    InvalidInputError,
    ProgramSpec,
    RegInstance,
    RegJointModel,
    TruncatedExponential,
    effective_epsilon,
    expected_reg_cost,
    expected_reg_gradient,
    fit_lambda,
    fleet_from_rewards,
    realized_cost,
    sample_joint,
    solve_reg_profile,
)
from minerflex.deployment import realized_cost_batch
from minerflex.regulation import _partial_moments
from minerflex.fleet import FleetSpec, MachineType


def make_instance(theta=0.5, mean_up=0.18, mean_dn=0.27, p_up=15.0, p_dn=10.0):
    fleet = fleet_from_rewards([150.0, 100.0], [103.846153846, 131.818181818])
    model = RegJointModel(
        theta=theta,
        up=TruncatedExponential(fit_lambda(mean_up)),
        down=TruncatedExponential(fit_lambda(mean_dn)),
    )
    return RegInstance(fleet=fleet, p_up=p_up, p_dn=p_dn, model=model)


def reg_programs(inst):
    return [
        ProgramSpec(id="regup", price=inst.p_up, direction="up"),
        ProgramSpec(id="regdn", price=inst.p_dn, direction="down"),
    ]


def quadrature_reg_cost(inst, c_up, c_dn):
    """Independent oracle: integrate the realized cost against the joint pdf."""
    programs = reg_programs(inst)
    profile = np.array([c_up, c_dn])

    def cost_up_branch(e1):
        eff = effective_epsilon(np.array([e1, 0.0]), ["up", "down"])
        return realized_cost(inst.fleet, programs, profile, eff) * inst.model.up.pdf(e1)

    def cost_dn_branch(e2):
        eff = effective_epsilon(np.array([0.0, e2]), ["up", "down"])
        return realized_cost(inst.fleet, programs, profile, eff) * inst.model.down.pdf(e2)

    def kinks(a, b):
        # the rates at which the deployed total a + b e crosses a cumulative capacity
        return [t for x in inst.fleet.cum_capacities.tolist() if b and 0.0 < (t := (x - a) / b) < 1.0] or None

    up_val, _ = integrate.quad(cost_up_branch, 0.0, 1.0, limit=200, epsabs=1e-11, epsrel=1e-11,
                               points=kinks(c_dn, c_up))
    dn_val, _ = integrate.quad(cost_dn_branch, 0.0, 1.0, limit=200, epsabs=1e-11, epsrel=1e-11,
                               points=kinks(c_dn, -c_dn))
    return inst.model.theta * dn_val + (1.0 - inst.model.theta) * up_val


# ── Two-type reference ───────────────────────────────────────────────────
# The closed form for exactly two machine types: five case expressions, each
# valid on its named region, and the region selector _cases. An independent
# reference for the line-expectation kernel.


def down_cost_within_first(inst, c_up, c_dn):
    """Down case, c_dn <= cap_1: the first machine type always absorbs it."""
    # load reduction is (1 - eps_dn) c_dn, none from reg-up
    r1 = float(inst.fleet.rewards[0])
    return -inst.p_up * c_up + c_dn * (r1 * (1.0 - inst.model.down.mean()) - inst.p_dn)


def down_cost_beyond_first(inst, c_up, c_dn):
    """Down case, c_dn > cap_1: reduction spills into the second type for small eps_dn."""
    cap1 = float(inst.fleet.capacities[0])
    r1, r2 = (float(v) for v in inst.fleet.rewards)
    p0, m1 = _partial_moments(inst.model.down.lam, 0.0, 1.0 - cap1 / c_dn)
    spill = (cap1 - c_dn) * p0 + c_dn * m1
    return down_cost_within_first(inst, c_up, c_dn) + (r1 - r2) * spill


def up_cost_within_first(inst, c_up, c_dn):
    """Up case, c_up + c_dn <= cap_1: the first type always suffices."""
    # load reduction is eps_up c_up plus the full c_dn headroom
    r1 = float(inst.fleet.rewards[0])
    return c_up * (r1 * inst.model.up.mean() - inst.p_up) + c_dn * (r1 - inst.p_dn)


def up_cost_straddling(inst, c_up, c_dn):
    """Up case, c_up + c_dn > cap_1 > c_dn: spill for large eps_up only."""
    cap1 = float(inst.fleet.capacities[0])
    r1, r2 = (float(v) for v in inst.fleet.rewards)
    t = (cap1 - c_dn) / c_up
    p0, m1 = _partial_moments(inst.model.up.lam, t, 1.0)
    spill = (cap1 - c_dn) * p0 - c_up * m1
    return up_cost_within_first(inst, c_up, c_dn) + (r1 - r2) * spill


def up_cost_beyond_first(inst, c_up, c_dn):
    """Up case, c_dn >= cap_1: the second type is always partially deployed."""
    r1, r2 = (float(v) for v in inst.fleet.rewards)
    cap1 = float(inst.fleet.capacities[0])
    spill = cap1 - c_dn - c_up * inst.model.up.mean()
    return up_cost_within_first(inst, c_up, c_dn) + (r1 - r2) * spill


def _cases(inst, c_up, c_dn):
    """The down-case and up-case expressions valid at a feasible (c_up, c_dn)."""
    cap1 = float(inst.fleet.capacities[0])
    down = down_cost_within_first if c_dn <= cap1 else down_cost_beyond_first
    if c_up + c_dn <= cap1:
        return down, up_cost_within_first
    return down, up_cost_beyond_first if c_dn >= cap1 else up_cost_straddling


def two_type_reg_cost(inst, c_up, c_dn):
    down, up = _cases(inst, c_up, c_dn)
    theta = inst.model.theta
    return theta * down(inst, c_up, c_dn) + (1.0 - theta) * up(inst, c_up, c_dn)


def cost_scale(inst):
    return inst.fleet.total_capacity_mw * (float(inst.fleet.rewards.max()) + max(inst.p_up, inst.p_dn))


# ── Truncated exponential ────────────────────────────────────────────────


def test_pdf_support_and_value():
    dist = TruncatedExponential(1.0)
    assert dist.pdf(-0.1) == 0.0
    assert dist.pdf(1.1) == 0.0
    assert dist.pdf(0.0) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))


@pytest.mark.parametrize("lam", [1e-4, 0.01, 0.5, 1.0, 3.0, 10.0, 50.0])
def test_pdf_normalizes(lam):
    dist = TruncatedExponential(lam)
    total, _ = integrate.quad(dist.pdf, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam", [1e-4, 1e-3, 0.1, 1.0, 2.7, 5.0, 20.0, 50.0])
def test_mean_matches_quadrature(lam):
    dist = TruncatedExponential(lam)
    val, _ = integrate.quad(lambda x: x * dist.pdf(x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert dist.mean() == pytest.approx(val, abs=1e-10)


def test_mean_limits():
    assert TruncatedExponential(1e-9).mean() == pytest.approx(0.5, abs=1e-9)
    assert TruncatedExponential(1.0).mean() == pytest.approx(0.4180232931306735, abs=1e-10)
    assert TruncatedExponential(50.0).mean() == pytest.approx(1.0 / 50.0, rel=1e-3)


@pytest.mark.parametrize("lam", [1e-4, 0.5, 1.0, 5.0, 30.0])
def test_variance_matches_quadrature(lam):
    dist = TruncatedExponential(lam)
    m = dist.mean()
    val, _ = integrate.quad(
        lambda x: (x - m) ** 2 * dist.pdf(x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13
    )
    assert dist.variance() == pytest.approx(val, abs=1e-10)


def test_variance_series_continuity():
    below = TruncatedExponential(0.99e-4).variance()
    above = TruncatedExponential(1.01e-4).variance()
    assert below == pytest.approx(above, abs=1e-10)


@pytest.mark.parametrize("lam", [1e-14, 1e-12, 1e-9, 0.05, 0.7, 2.7, 5.5, 25.0])
def test_partial_moments_match_quadrature(lam, rng):
    dist = TruncatedExponential(lam)
    for _ in range(10):
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        p0, m1 = _partial_moments(lam, float(a), float(b))
        q0, _ = integrate.quad(dist.pdf, a, b, epsabs=1e-13, epsrel=1e-13)
        q1, _ = integrate.quad(lambda x: x * dist.pdf(x), a, b, epsabs=1e-13, epsrel=1e-13)
        assert p0 == pytest.approx(q0, abs=1e-11)
        assert m1 == pytest.approx(q1, abs=1e-11)
    # degenerate interval
    assert _partial_moments(lam, 0.4, 0.4) == (0.0, 0.0)


def test_fit_lambda_targets():
    for target in (0.18, 0.27):
        lam = fit_lambda(target)
        assert TruncatedExponential(lam).mean() == pytest.approx(target, abs=1e-10)


def test_fit_lambda_round_trip(rng):
    for _ in range(50):
        target = float(rng.uniform(0.01, 0.49))
        lam = fit_lambda(target)
        assert TruncatedExponential(lam).mean() == pytest.approx(target, abs=1e-9)


def test_fit_lambda_rejects_out_of_range():
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(InvalidInputError):
            fit_lambda(bad)


@pytest.mark.parametrize("lam", [700.0, 710.0, 1e3, 1e6])
def test_large_rates_past_the_expm1_overflow(lam):
    # expm1(lam) overflows past lam = 709.78; there the tail e^-lam lies below every
    # rounding of 1/lam, so the moments are those of Exp(lam): 1/lam and 1/lam^2
    dist = TruncatedExponential(lam)
    assert dist.mean() == pytest.approx(1.0 / lam, rel=1e-15)
    assert dist.variance() == pytest.approx(1.0 / lam**2, rel=1e-12)
    assert fit_lambda(dist.mean()) == pytest.approx(lam, rel=1e-9)


def test_sample_within_support(rng):
    dist = TruncatedExponential(3.0)
    draws = dist.sample(rng, 10000)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_sample_joint_degenerate(rng):
    up, dn = TruncatedExponential(2.0), TruncatedExponential(3.0)
    only_down = sample_joint(RegJointModel(1.0, up, dn), rng, 500)
    assert np.all(only_down[:, 0] == 0.0) and np.all(only_down[:, 1] > 0.0)
    only_up = sample_joint(RegJointModel(0.0, up, dn), rng, 500)
    assert np.all(only_up[:, 1] == 0.0) and np.all(only_up[:, 0] > 0.0)


def test_sample_joint_empirical_means(rng):
    model = RegJointModel(0.4, TruncatedExponential(fit_lambda(0.18)), TruncatedExponential(fit_lambda(0.27)))
    n = 10**6
    draws = sample_joint(model, rng, n)
    for col, expect in ((0, 0.6 * 0.18), (1, 0.4 * 0.27)):
        se = draws[:, col].std(ddof=1) / math.sqrt(n)
        assert abs(draws[:, col].mean() - expect) <= 3.0 * se


# ── Closed-form expected cost ────────────────────────────────────────────


def test_reg_cost_zero_profile():
    inst = make_instance()
    assert expected_reg_cost(inst, 0.0, 0.0) == 0.0


def test_reg_cost_pure_up_small_commitment():
    # theta=0 and c_up + c_dn below the first type's capacity: the cost is
    # the no-spill reg-up expression, checked against symbolic integration.
    inst = make_instance(theta=0.0)
    r1 = float(inst.fleet.rewards[0])
    m1 = inst.model.up.mean()
    c_up, c_dn = 60.0, 40.0
    expect = c_up * (r1 * m1 - inst.p_up) + c_dn * (r1 - inst.p_dn)
    assert expected_reg_cost(inst, c_up, c_dn) == pytest.approx(expect, rel=1e-12)
    assert expected_reg_cost(inst, c_up, c_dn) == pytest.approx(
        quadrature_reg_cost(inst, c_up, c_dn), abs=1e-7
    )


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_reg_cost_matches_quadrature_all_regions(theta):
    inst = make_instance(theta=theta)
    for c_up, c_dn in [
        (0.0, 0.0), (40.0, 40.0), (120.0, 20.0), (100.0, 80.0),
        (30.0, 160.0), (50.0, 200.0), (0.0, 250.0), (250.0, 0.0), (125.0, 125.0),
    ]:
        closed = expected_reg_cost(inst, c_up, c_dn)
        quad = quadrature_reg_cost(inst, c_up, c_dn)
        assert closed == pytest.approx(quad, abs=2e-6), (c_up, c_dn)


def test_reg_cost_matches_monte_carlo(rng):
    inst = make_instance(theta=0.6, p_up=12.0, p_dn=18.0)
    programs = reg_programs(inst)
    n = 2 * 10**5
    raw = sample_joint(inst.model, rng, n)
    eff = raw.copy()
    eff[:, 1] = 1.0 - eff[:, 1]
    prices = np.array([inst.p_up, inst.p_dn])
    for c_up, c_dn in [(60.0, 30.0), (130.0, 60.0), (40.0, 190.0)]:
        costs = realized_cost_batch(inst.fleet, prices, eff, np.array([c_up, c_dn]))
        se = costs.std(ddof=1) / math.sqrt(n)
        assert abs(expected_reg_cost(inst, c_up, c_dn) - costs.mean()) <= 4.0 * se


def test_reg_cost_continuity_at_down_boundary():
    inst = make_instance()
    cap1 = float(inst.fleet.capacities[0])
    for c_up in (0.0, 25.0, 60.0, 99.0):
        a = down_cost_within_first(inst, c_up, cap1)
        b = down_cost_beyond_first(inst, c_up, cap1)
        assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def test_reg_cost_continuity_at_up_boundaries():
    inst = make_instance()
    cap1 = float(inst.fleet.capacities[0])
    # c_up + c_dn = cap_1: no-spill vs straddling
    for c_dn in (0.0, 40.0, 100.0, 149.0):
        c_up = cap1 - c_dn
        if c_up <= 0:
            continue
        a = up_cost_within_first(inst, c_up, c_dn)
        b = up_cost_straddling(inst, c_up, c_dn)
        assert abs(a - b) <= 1e-7 * max(1.0, abs(a))
    # c_dn = cap_1: straddling vs always-beyond
    for c_up in (10.0, 50.0, 99.0):
        a = up_cost_straddling(inst, c_up, cap1)
        b = up_cost_beyond_first(inst, c_up, cap1)
        assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def test_reg_cost_convex_on_segments(rng):
    inst = make_instance(theta=0.45)
    cap = inst.fleet.total_capacity_mw
    for _ in range(200):
        a = rng.uniform(0.0, 1.0, 2)
        b = rng.uniform(0.0, 1.0, 2)
        a *= rng.uniform(0.0, 1.0) * cap / max(a.sum(), 1e-9)
        b *= rng.uniform(0.0, 1.0) * cap / max(b.sum(), 1e-9)
        mid = 0.5 * (a + b)
        lhs = expected_reg_cost(inst, *mid)
        rhs = 0.5 * expected_reg_cost(inst, *a) + 0.5 * expected_reg_cost(inst, *b)
        assert lhs <= rhs + 1e-9


def test_equal_rewards_collapse_heterogeneity_terms():
    # With r_1 = r_2 every case expression reduces to the base (no spill
    # penalty); build the fleet directly since canonicalize would merge.
    fleet = FleetSpec(
        machines=(
            MachineType("a", 150.0, reward=120.0),
            MachineType("b", 100.0, reward=120.0),
        ),
        total_capacity_mw=250.0,
    )
    model = RegJointModel(0.5, TruncatedExponential(2.0), TruncatedExponential(3.0))
    inst = RegInstance(fleet=fleet, p_up=15.0, p_dn=10.0, model=model)
    assert down_cost_beyond_first(inst, 30.0, 200.0) == pytest.approx(
        down_cost_within_first(inst, 30.0, 200.0)
    )
    assert up_cost_straddling(inst, 100.0, 80.0) == pytest.approx(
        up_cost_within_first(inst, 100.0, 80.0)
    )
    assert up_cost_beyond_first(inst, 40.0, 200.0) == pytest.approx(
        up_cost_within_first(inst, 40.0, 200.0)
    )


# Each case expression's region as (c_dn range, c_up range given c_dn), in units of
# the first type's capacity cap1 and the fleet capacity cap.
REGIONS = {
    down_cost_within_first: lambda cap1, cap: ((0.0, cap1), lambda cd: (0.0, cap - cd)),
    down_cost_beyond_first: lambda cap1, cap: ((cap1, cap), lambda cd: (0.0, cap - cd)),
    up_cost_within_first: lambda cap1, cap: ((0.0, cap1), lambda cd: (0.0, cap1 - cd)),
    up_cost_straddling: lambda cap1, cap: ((0.0, cap1), lambda cd: (cap1 - cd, cap - cd)),
    up_cost_beyond_first: lambda cap1, cap: ((cap1, cap), lambda cd: (0.0, cap - cd)),
}


def _inside(lo_hi, rng):
    lo, hi = lo_hi
    return float(lo + (hi - lo) * rng.uniform(0.05, 0.95))


@pytest.mark.parametrize("case", list(REGIONS), ids=lambda f: f.__name__)
def test_reg_gradient_matches_central_differences(case, rng):
    cap1, cap = 150.0, 250.0
    dn_range, up_range = REGIONS[case](cap1, cap)
    h = 1e-4
    for _ in range(20):
        inst = make_instance(
            theta=float(rng.uniform()), mean_up=float(rng.uniform(0.05, 0.45)),
            mean_dn=float(rng.uniform(0.05, 0.45)), p_up=float(rng.uniform(0.0, 120.0)),
            p_dn=float(rng.uniform(0.0, 120.0)),
        )
        assert float(inst.fleet.capacities[0]) == cap1
        c_dn = _inside(dn_range, rng)
        c_up = _inside(up_range(c_dn), rng)
        assert case in _cases(inst, c_up, c_dn)
        grad = expected_reg_gradient(inst, c_up, c_dn)
        fd = [
            (expected_reg_cost(inst, c_up + h, c_dn) - expected_reg_cost(inst, c_up - h, c_dn)) / (2 * h),
            (expected_reg_cost(inst, c_up, c_dn + h) - expected_reg_cost(inst, c_up, c_dn - h)) / (2 * h),
        ]
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


def test_reg_cost_rejects_infeasible():
    inst = make_instance()
    with pytest.raises(InfeasibleError):
        expected_reg_cost(inst, 200.0, 100.0)
    with pytest.raises(InfeasibleError):
        expected_reg_cost(inst, -1.0, 0.0)


def test_kernel_matches_two_type_reference():
    # random points and the region boundaries of the reference: c_up = 0, c_dn = 0,
    # c_dn = cap_1, c_up + c_dn = cap_1 and c_up + c_dn = cap
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(150):
        inst = random_instance(rng)
        cap, cap1 = inst.fleet.total_capacity_mw, float(inst.fleet.capacities[0])
        points = []
        for _ in range(12):
            c = rng.uniform(0.0, 1.0, 2)
            points.append(c * rng.uniform() * cap / c.sum())
        u = float(rng.uniform())
        points += [(u * cap, 0.0), (0.0, u * cap), (u * (cap - cap1), cap1), (u * cap1, (1 - u) * cap1),
                   (u * cap, (1 - u) * cap), (0.0, cap1), (cap1, 0.0), (cap, 0.0), (0.0, cap)]
        for c_up, c_dn in points:
            c_up, c_dn = float(c_up), min(float(c_dn), cap - float(c_up))
            gap = abs(expected_reg_cost(inst, c_up, c_dn) - two_type_reg_cost(inst, c_up, c_dn))
            worst = max(worst, gap / cost_scale(inst))
    assert worst <= 1e-12


# ── Profile optimization ─────────────────────────────────────────────────


def test_solve_reg_zero_prices_no_participation():
    inst = make_instance(p_up=0.0, p_dn=0.0)
    profile = solve_reg_profile(inst).point
    np.testing.assert_allclose(profile, [0.0, 0.0], atol=1e-9)


def test_solve_reg_dominant_up_price():
    inst = make_instance(p_up=140.0, p_dn=0.0)
    profile = solve_reg_profile(inst).point
    cap = inst.fleet.total_capacity_mw
    assert profile[0] == pytest.approx(cap, rel=1e-6)
    assert profile[1] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize(
    "theta,p_up,p_dn",
    [(0.5, 16.0, 14.0), (0.2, 30.0, 5.0), (0.8, 5.0, 95.0), (0.5, 60.0, 60.0), (0.3, 0.0, 22.0)],
)
def test_solve_reg_matches_dense_grid(theta, p_up, p_dn):
    inst = make_instance(theta=theta, p_up=p_up, p_dn=p_dn)
    profile = solve_reg_profile(inst).point
    value = expected_reg_cost(inst, *profile)
    cap = inst.fleet.total_capacity_mw
    axis = np.linspace(0.0, cap, 200)
    best = min(
        expected_reg_cost(inst, cu, cd)
        for cu in axis
        for cd in axis
        if cu + cd <= cap
    )
    scale = cap * max(float(inst.fleet.rewards[-1]), inst.p_up, inst.p_dn)
    assert value <= best + 1e-6 * scale


def random_instance(rng, k=2):
    caps = rng.uniform(20.0, 300.0, k)
    rewards = rng.uniform(20.0, 200.0, k)
    model = RegJointModel(
        theta=float(rng.uniform()),
        up=TruncatedExponential(fit_lambda(float(rng.uniform(0.03, 0.47)))),
        down=TruncatedExponential(fit_lambda(float(rng.uniform(0.03, 0.47)))),
    )
    return RegInstance(
        fleet=fleet_from_rewards(caps.tolist(), rewards.tolist()),
        p_up=float(rng.uniform(0.0, 150.0)), p_dn=float(rng.uniform(0.0, 150.0)), model=model,
    )


def test_solve_reg_gap_certifies_against_dense_grid():
    """The gap is within tolerance, and value - gap is a valid lower bound on the grid minimum."""
    rng = np.random.default_rng(14)
    for _ in range(40):
        inst = random_instance(rng)
        profile, _, gap = solve_reg_profile(inst)
        value = expected_reg_cost(inst, *profile)
        assert 0.0 <= gap <= 1e-9 * max(1.0, abs(value))
        cap = inst.fleet.total_capacity_mw
        axis = np.linspace(0.0, cap, 200).tolist()
        best = min(expected_reg_cost(inst, cu, cd) for cu in axis for cd in axis if cu + cd <= cap)
        assert value - gap <= best


# ── Any number of machine types ──────────────────────────────────────────


def feasible_points(rng, cap, n, margin=0.0):
    """``n`` random profiles with both entries above ``margin`` and sum below cap - margin."""
    c = rng.uniform(0.0, 1.0, (n, 2))
    c *= (rng.uniform(0.0, 1.0, (n, 1)) * (cap - 3.0 * margin)) / c.sum(axis=1, keepdims=True)
    return (c + margin).tolist()


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reg_cost_matches_quadrature_any_fleet(k):
    rng = np.random.default_rng(500 + k)
    for _ in range(3):
        inst = random_instance(rng, k)
        cap = inst.fleet.total_capacity_mw
        cum = inst.fleet.cum_capacities.tolist()
        points = feasible_points(rng, cap, 5) + [(0.0, cum[0]), (cum[0], 0.0), (0.0, cap), (cap, 0.0)]
        for c_up, c_dn in points:
            closed = expected_reg_cost(inst, c_up, c_dn)
            assert closed == pytest.approx(quadrature_reg_cost(inst, c_up, c_dn), abs=1e-10 * cost_scale(inst))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_reg_gradient_matches_central_differences_any_fleet(k):
    rng = np.random.default_rng(600 + k)
    h = 1e-4
    for _ in range(5):
        inst = random_instance(rng, k)
        for c_up, c_dn in feasible_points(rng, inst.fleet.total_capacity_mw, 10, margin=1.0):
            grad = expected_reg_gradient(inst, c_up, c_dn)
            fd = [
                (expected_reg_cost(inst, c_up + h, c_dn) - expected_reg_cost(inst, c_up - h, c_dn)) / (2 * h),
                (expected_reg_cost(inst, c_up, c_dn + h) - expected_reg_cost(inst, c_up, c_dn - h)) / (2 * h),
            ]
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reg_gradient_is_a_subgradient_on_capacity_kinks(k):
    # with c_up = 0 the reg-up line is a point, and on a cumulative capacity the cost
    # has a kink: the gradient there must still support the convex cost from below
    rng = np.random.default_rng(700 + k)
    for _ in range(4):
        inst = random_instance(rng, k)
        cap = inst.fleet.total_capacity_mw
        ys = feasible_points(rng, cap, 150) + [(0.0, 0.0), (cap, 0.0), (0.0, cap)]
        fy = np.array([expected_reg_cost(inst, *y) for y in ys])
        tol = 1e-9 * cost_scale(inst)
        for x in inst.fleet.cum_capacities.tolist():
            for point in ((0.0, x), (x, 0.0)):
                g = expected_reg_gradient(inst, *point)
                cut = expected_reg_cost(inst, *point) + (np.array(ys) - point) @ g
                assert (fy >= cut - tol).all(), (point, float((cut - fy).max()))


def test_reg_cost_has_a_kink_where_the_up_line_is_a_point_on_a_capacity():
    # not C^1: at (0, cap_1) the one-sided c_dn slopes differ by about (r_2 - r_1)(1 - theta)
    inst = make_instance()
    cap1, h = float(inst.fleet.capacities[0]), 1e-3
    f = expected_reg_cost(inst, 0.0, cap1)
    left = (f - expected_reg_cost(inst, 0.0, cap1 - h)) / h
    right = (expected_reg_cost(inst, 0.0, cap1 + h) - f) / h
    r1, r2 = inst.fleet.rewards.tolist()
    assert right - left == pytest.approx((r2 - r1) * (1.0 - inst.model.theta), rel=1e-2)
    assert left - 1e-6 <= expected_reg_gradient(inst, 0.0, cap1)[1] <= right + 1e-6


@pytest.mark.parametrize("k", [1, 3, 5])
def test_solve_reg_certifies_against_dense_grid_any_fleet(k):
    rng = np.random.default_rng(800 + k)
    for _ in range(3):
        inst = random_instance(rng, k)
        profile, _, gap = solve_reg_profile(inst)
        value = expected_reg_cost(inst, *profile)
        assert 0.0 <= gap <= 1e-9 * max(1.0, abs(value))
        cap = inst.fleet.total_capacity_mw
        axis = np.linspace(0.0, cap, 80).tolist()
        best = min(expected_reg_cost(inst, cu, cd) for cu in axis for cd in axis if cu + cd <= cap)
        assert value - gap <= best
