import math
import warnings

import numpy as np
import pytest

from minerflex import (
    InvalidInputError,
    ProgramStats,
    RiskConfig,
    best_program,
    profile_risk,
    risk_aware_solve,
)
from minerflex.deployment import project_simplex
from minerflex.verify import check_risk_kkt, risk_kkt_residual


def axis_grid_best(programs, r, cap, points=1000):
    """Independent oracle: the linear objective is minimized at a vertex, so
    scanning each program axis (plus zero) brackets the optimum."""
    best_val, best_c = 0.0, np.zeros(len(programs))
    grid = np.linspace(0.0, cap, points)
    for i, s in enumerate(programs):
        vals = grid * (r * s.mean_eps - s.price)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_c = np.zeros(len(programs))
            best_c[i] = grid[j]
    return best_c, best_val


def risk_objective(programs, r, w, c):
    exp_cost, var = profile_risk(programs, r, c)
    return exp_cost + w * var


def projected_gradient_oracle(programs, r, cap, w, iters=40000):
    a = np.array([r * s.mean_eps - s.price for s in programs])
    b = np.array([w * r**2 * s.var_eps for s in programs])
    c = np.zeros(len(programs))
    lip = float(2.0 * b.max() + 1.0)
    for _ in range(iters):
        c = project_simplex(c - (a + 2.0 * b * c) / lip, cap)
    return c


def test_best_program_unprofitable():
    stats = [ProgramStats(price=10.0, mean_eps=0.18, var_eps=0.0)]
    profile = best_program(stats, 150.0, 250.0)
    np.testing.assert_allclose(profile.c, [0.0])
    oracle_c, oracle_v = axis_grid_best(stats, 150.0, 250.0)
    assert oracle_v >= -1e-9


def test_best_program_profitable():
    stats = [ProgramStats(price=30.0, mean_eps=0.18, var_eps=0.0)]
    profile = best_program(stats, 150.0, 250.0)
    np.testing.assert_allclose(profile.c, [250.0])
    oracle_c, _ = axis_grid_best(stats, 150.0, 250.0)
    np.testing.assert_allclose(oracle_c, [250.0])


def test_best_program_breakeven_tie_participates():
    stats = [ProgramStats(price=27.0, mean_eps=0.18, var_eps=0.0)]
    profile = best_program(stats, 150.0, 250.0)
    np.testing.assert_allclose(profile.c, [250.0])


def test_best_program_vertex_and_grid_agreement(rng):
    for _ in range(300):
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
        nz = np.nonzero(profile.c)[0]
        assert nz.size <= 1
        if nz.size == 1:
            assert profile.c[nz[0]] == cap
        value = float(profile.c @ [r * s.mean_eps - s.price for s in stats])
        _, grid_val = axis_grid_best(stats, r, cap)
        assert value <= grid_val + (cap / 999.0) * max(r, *(s.price for s in stats), 1.0)


def test_profile_risk_zero_profile():
    stats = [ProgramStats(price=10.0, mean_eps=0.3, var_eps=0.01)]
    assert profile_risk(stats, 100.0, np.zeros(1)) == (0.0, 0.0)


def test_profile_risk_zero_variance():
    stats = [ProgramStats(price=10.0, mean_eps=0.3, var_eps=0.0)]
    exp_cost, var = profile_risk(stats, 100.0, np.array([50.0]))
    assert exp_cost == pytest.approx(50.0 * (30.0 - 10.0))
    assert var == 0.0


def test_profile_risk_monte_carlo(rng):
    # Beta deployments with the configured first two moments.
    stats = [
        ProgramStats(price=12.0, mean_eps=0.25, var_eps=0.03),
        ProgramStats(price=25.0, mean_eps=0.6, var_eps=0.05),
    ]
    r, c = 130.0, np.array([80.0, 40.0])
    n = 10**6
    draws = np.empty((n, 2))
    for i, s in enumerate(stats):
        k = s.mean_eps * (1.0 - s.mean_eps) / s.var_eps - 1.0
        draws[:, i] = rng.beta(s.mean_eps * k, (1.0 - s.mean_eps) * k, n)
    costs = draws @ (c * r) - np.array([s.price for s in stats]) @ c
    exp_cost, var = profile_risk(stats, r, c)
    se_mean = costs.std(ddof=1) / math.sqrt(n)
    assert abs(costs.mean() - exp_cost) <= 3.0 * se_mean
    centered_sq = (costs - costs.mean()) ** 2
    se_var = centered_sq.std(ddof=1) / math.sqrt(n)
    assert abs(costs.var(ddof=1) - var) <= 3.0 * se_var


def test_risk_zero_weight_reduces_to_best_program(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        stats = [
            ProgramStats(
                price=float(rng.uniform(0.0, 60.0)),
                mean_eps=float(rng.uniform(0.05, 0.95)),
                var_eps=float(rng.uniform(0.0, 0.04)),
            )
            for _ in range(n)
        ]
        r, cap = float(rng.uniform(10.0, 200.0)), 250.0
        a = risk_aware_solve(stats, r, cap, RiskConfig(0.0))
        b = best_program(stats, r, cap)
        np.testing.assert_allclose(a.c, b.c)


def test_risk_interior_optimum_matches_pg_oracle():
    # a = r*mean - p = -3 with r=150, var=0.02, w=1e-4: interior optimum at
    # 3 / (2 * 1e-4 * 150^2 * 0.02) = 33.33 MW.
    stats = [ProgramStats(price=30.0, mean_eps=0.18, var_eps=0.02)]
    profile = risk_aware_solve(stats, 150.0, 250.0, RiskConfig(1e-4))
    assert profile.c[0] == pytest.approx(33.3333333, rel=1e-6)
    oracle = projected_gradient_oracle(stats, 150.0, 250.0, 1e-4)
    np.testing.assert_allclose(profile.c, oracle, atol=1e-6)


def test_risk_prefers_lower_variance(rng):
    stats = [
        ProgramStats(price=30.0, mean_eps=0.18, var_eps=0.05),
        ProgramStats(price=30.0, mean_eps=0.18, var_eps=0.01),
    ]
    profile = risk_aware_solve(stats, 150.0, 250.0, RiskConfig(5e-4))
    assert profile.c[1] > profile.c[0] > 0.0


def test_risk_kkt_random_instances(rng):
    for _ in range(300):
        n = int(rng.integers(1, 5))
        stats = []
        for _ in range(n):
            mean = float(rng.uniform(0.05, 0.95))
            var = float(rng.uniform(0.0, 1.0) * mean * (1.0 - mean))
            if rng.random() < 0.25:
                var = 0.0
            stats.append(ProgramStats(price=float(rng.uniform(0.0, 60.0)), mean_eps=mean, var_eps=var))
        r = float(rng.uniform(1.0, 200.0))
        cap = float(rng.uniform(50.0, 400.0))
        w = float(rng.choice([0.0, 1e-5, 1e-4, 1e-3]))
        c = risk_aware_solve(stats, r, cap, RiskConfig(w)).c
        assert risk_kkt_residual(stats, r, cap, w, c) <= 1e-8


@pytest.mark.parametrize("var, weight, price", [(1e-310, 4e-4, 30.0), (0.0225, 1e-320, 30.0), (3e-308, 4e-4, 1e6)])
def test_tiny_quadratic_terms_take_the_zero_variance_limit(var, weight, price):
    # b = w r^2 var below the smallest normal double (the first two) cannot be inverted,
    # and the third's demand (t - mu) / 2b overflows: each gives the vertex, with no warning
    stats = [ProgramStats(12.0, 0.12, 0.1056), ProgramStats(price, 0.18, var)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = risk_aware_solve(stats, 150.0, 250.0, RiskConfig(weight)).c
    assert c.tolist() == best_program(stats, 150.0, 250.0).c.tolist() == [0.0, 250.0]
    assert risk_kkt_residual(stats, 150.0, 250.0, weight, c) <= 1e-8


def test_risk_objective_never_worse_than_vertices(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        stats = [
            ProgramStats(
                price=float(rng.uniform(0.0, 60.0)),
                mean_eps=float(rng.uniform(0.05, 0.95)),
                var_eps=float(rng.uniform(1e-4, 0.05)),
            )
            for _ in range(n)
        ]
        r, cap = float(rng.uniform(10.0, 200.0)), 250.0
        w = float(rng.uniform(0.0, 1e-3))
        c = risk_aware_solve(stats, r, cap, RiskConfig(w)).c
        obj = risk_objective(stats, r, w, c)
        vertex_obj = risk_objective(stats, r, w, best_program(stats, r, cap).c)
        assert obj <= vertex_obj + 1e-9 * max(1.0, abs(vertex_obj))
        assert obj <= 1e-9


def test_risk_variance_monotone_in_weight():
    stats = [
        ProgramStats(price=28.0, mean_eps=0.18, var_eps=0.03),
        ProgramStats(price=33.0, mean_eps=0.22, var_eps=0.01),
    ]
    r, cap = 150.0, 250.0
    variances = []
    for w in np.geomspace(1e-6, 1e-2, 20):
        c = risk_aware_solve(stats, r, cap, RiskConfig(float(w))).c
        variances.append(profile_risk(stats, r, c)[1])
    assert all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(variances, variances[1:]))


def test_program_stats_validation():
    with pytest.raises(InvalidInputError):
        ProgramStats(price=-1.0, mean_eps=0.5, var_eps=0.0)
    with pytest.raises(InvalidInputError):
        ProgramStats(price=1.0, mean_eps=1.5, var_eps=0.0)
    with pytest.raises(InvalidInputError):
        ProgramStats(price=1.0, mean_eps=0.5, var_eps=0.3)  # above 0.25 bound
    for bad in ({"price": math.nan}, {"price": math.inf}, {"var_slack": math.inf}):
        with pytest.raises(InvalidInputError):
            ProgramStats(**{"price": 1.0, "mean_eps": 0.5, "var_eps": 0.1, **bad})
    # unbiased small-sample estimates may exceed the bound with slack:
    # alternating 0/1 at n=1000 gives exactly 0.25 * 1000/999
    ProgramStats(price=1.0, mean_eps=0.5, var_eps=0.25 * 1000.0 / 999.0, var_slack=1.0 / 999.0)


def test_risk_config_validation():
    for weight in (-1e-3, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            RiskConfig(weight)
    with pytest.raises(InvalidInputError):
        best_program([], 10.0, 100.0)


def test_risk_solve_rejects_a_negative_reward_or_cap():
    # checked before the solve branches on the weight: a negative cap leaves no
    # feasible profile, and a negative reward is rejected at weight 0 too
    stats = [ProgramStats(12.0, 0.12, 0.1056), ProgramStats(30.0, 0.18, 0.0225)]
    for weight in (0.0, 4e-4):
        for r, cap in ((-1.0, 250.0), (150.0, -1.0)):
            with pytest.raises(InvalidInputError, match="reward and cap must be >= 0"):
                risk_aware_solve(stats, r, cap, RiskConfig(weight))


def bisection_solve(programs, r, cap, w):
    """Reference: the mean-variance QP with its capacity multiplier found by bisection.

    Bracket doubling and 200 halvings on the demand of the positive-variance
    programs; the cap it returns can sit slack by about ulp(a_i) / 2b_i.
    """
    a = np.array([r * s.mean_eps - s.price for s in programs])
    b = np.array([w * r**2 * s.var_eps for s in programs])
    if w == 0.0 or not np.any(b > 0.0):
        return best_program(programs, r, cap).c
    pos = b > 0.0
    zero_neg = (~pos) & (a < 0.0)

    def demand(mu):
        return float(np.maximum(0.0, -(a[pos] + mu) / (2.0 * b[pos])).sum())

    mu_floor = float((-a[zero_neg]).max()) if zero_neg.any() else 0.0
    c = np.zeros(len(programs))
    if not zero_neg.any() and demand(0.0) <= cap:
        mu = 0.0
    elif demand(mu_floor) >= cap:
        lo, hi = mu_floor, max(mu_floor, float(-a[pos].min()), 0.0) + 1.0
        while demand(hi) > cap:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if demand(mid) > cap else (lo, mid)
        mu = hi
    else:
        mu = mu_floor
        c[int(np.nonzero(zero_neg & (-a == mu_floor))[0][0])] = cap - demand(mu)
    c[pos] = np.maximum(0.0, -(a[pos] + mu) / (2.0 * b[pos]))
    return c


def test_risk_tiny_variance_uses_the_whole_cap():
    # instance 57 of check_risk_kkt(1803012): the binding program has b = w r^2 var
    # of 3.9e-9, where bisection on the multiplier left the cap 7.2e-7 slack
    stats = [
        ProgramStats(price=13.214321033915502, mean_eps=0.5574347983163981, var_eps=0.0),
        ProgramStats(price=43.291865967855614, mean_eps=0.30168781357808244, var_eps=5.348171363754658e-06),
    ]
    r, cap = 8.49078172730562, 129.3646985908449
    c = risk_aware_solve(stats, r, cap, RiskConfig(1e-5)).c
    assert c[0] == 0.0 and c[1] > 0.0
    assert abs(c.sum() - cap) <= 1e-12 * cap
    assert cap - bisection_solve(stats, r, cap, 1e-5).sum() > 1e-7


@pytest.mark.parametrize("seed", [622, 1647, 1874, 1975, 2064, 2291, 2880, 2890])
def test_risk_kkt_check_passes_where_bisection_left_the_cap_slack(seed):
    result = check_risk_kkt(seed + 8)
    assert result.passed, result.detail


def test_risk_solve_matches_or_beats_bisection(rng):
    """Feasible, and never worse than the bisection reference beyond rounding."""
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        stats = []
        for _ in range(n):
            mean = float(rng.uniform(0.0, 1.0))
            scale = rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-10.0, -3.0)], p=[0.25, 0.5, 0.25])
            var = float(scale * rng.uniform(0.0, 1.0) * mean * (1.0 - mean))
            stats.append(ProgramStats(price=float(rng.uniform(0.0, 60.0)), mean_eps=mean, var_eps=var))
        r, cap = float(rng.uniform(0.0, 200.0)), float(rng.uniform(0.0, 400.0))
        w = float(10.0 ** rng.uniform(-6.0, -2.0))
        c = risk_aware_solve(stats, r, cap, RiskConfig(w)).c
        assert c.min() >= 0.0 and c.sum() <= cap * (1.0 + 1e-12)
        ref = risk_objective(stats, r, w, bisection_solve(stats, r, cap, w))
        assert risk_objective(stats, r, w, c) <= ref + 1e-12 * max(1.0, abs(ref))
