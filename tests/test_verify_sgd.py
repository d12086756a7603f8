"""The SGD row of ``verify``: its two-rate quadrature against scipy, and its Frank-Wolfe certificate."""

import math

import numpy as np
import pytest
from scipy import integrate

from minerflex import (
    ProgramSpec,
    SgdConfig,
    TruncatedExponential,
    fit_lambda,
    fleet_from_rewards,
    program_sampler,
    solve,
    verify,
)

# the check's instance: two truncated-exponential up programs on a 150 + 100 MW fleet
FLEET = fleet_from_rewards([150.0, 100.0], [103.846153846, 131.818181818])
LAMS = (fit_lambda(0.18), fit_lambda(0.27))
PRICES = np.array([24.0, 30.0])
CAP = FLEET.total_capacity_mw


def density(lam):
    return lambda e: lam * math.exp(-lam * e) / -math.expm1(-lam)


def kinks(a, b, breaks):
    # the rates e in (0, 1) at which a + b e crosses one of the breaks
    return sorted({t for x in breaks if b and 0.0 < (t := (x - a) / b) < 1.0}) or None


def scipy_two_rate(c_a, c_b):
    """E[cost] and E[r_k e_i] - p_i at (c_a, c_b) by nested ``scipy.integrate.quad``, split at every kink.

    The loss of deployed total d fills the cheapest machines first, as a sum of
    clipped pieces, and its slope is the reward of the piece d lies in.
    """
    caps, rewards, cum = FLEET.capacities.tolist(), FLEET.rewards.tolist(), FLEET.cum_capacities.tolist()
    f_a, f_b = density(LAMS[0]), density(LAMS[1])

    def loss(d):
        return sum(r * min(max(d - (x - cap), 0.0), cap) for r, cap, x in zip(rewards, caps, cum))

    def slope(d):
        return next((r for r, x in zip(rewards, cum) if d <= x), rewards[-1])

    terms = (lambda d, e_a, e_b: loss(d), lambda d, e_a, e_b: slope(d) * e_a, lambda d, e_a, e_b: slope(d) * e_b)
    out = []
    for term in terms:
        def inner(e_b, term=term):
            return f_b(e_b) * integrate.quad(
                lambda e_a: term(e_b * c_b + e_a * c_a, e_a, e_b) * f_a(e_a), 0.0, 1.0,
                points=kinks(e_b * c_b, c_a, cum), epsabs=1e-13, epsrel=1e-13, limit=200,
            )[0]

        outer_kinks = kinks(0.0, c_b, cum + [x - c_a for x in cum])
        out.append(integrate.quad(inner, 0.0, 1.0, points=outer_kinks, epsabs=1e-12, epsrel=1e-13, limit=200)[0])
    value, m_a, m_b = out
    return value - (PRICES[0] * c_a + PRICES[1] * c_b), np.array([m_a - PRICES[0], m_b - PRICES[1]])


# (60, 190): for e_b in (90/190, 150/190) the inner line crosses the break at 150 MW inside (0, 1)
PROFILES = [(60.0, 190.0), (120.0, 40.0), (200.0, 50.0), (0.0, 250.0), (250.0, 0.0)]


@pytest.mark.parametrize("c_a, c_b", PROFILES)
def test_two_rate_quadrature_matches_nested_scipy_quad(c_a, c_b):
    value, grad = verify.two_rate_quadrature(FLEET, LAMS, PRICES, np.array([c_a, c_b]))
    ref_value, ref_grad = scipy_two_rate(c_a, c_b)
    scale = float(FLEET.rewards.max()) + float(PRICES.max())
    assert value == pytest.approx(ref_value, abs=1e-12 * CAP * scale)
    np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-12 * scale)


def sgd_profile(seed):
    # the row's SGD solve at the full iteration count
    programs = [ProgramSpec(f"p{i}", p, eps_model=TruncatedExponential(lam))
                for i, (p, lam) in enumerate(zip(PRICES.tolist(), LAMS))]
    cfg = SgdConfig(iterations=5000, batch=10, seed=seed)
    return solve(FLEET, programs, program_sampler(programs), cfg).profile.c


def test_frank_wolfe_gap_bounds_the_gap_to_a_dense_grid():
    # the gap certifies F(x) - F*, and F* is at most the least value on any grid of the simplex
    axis = np.linspace(0.0, CAP, 41)
    grid = [(a, b) for a in axis for b in axis if a + b <= CAP + 1e-9]
    least = min(verify.two_rate_quadrature(FLEET, LAMS, PRICES, np.array(p))[0] for p in grid)
    for x in PROFILES + [(30.0, 30.0), (150.0, 0.0), tuple(sgd_profile(9))]:
        value, g = verify.two_rate_quadrature(FLEET, LAMS, PRICES, np.array(x))
        gap = float(g @ np.array(x)) - min(0.0, CAP * float(g.min()))
        assert gap >= value - least - 1e-9 * CAP, x
