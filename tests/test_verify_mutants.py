"""In-process mutants that ``verify`` must catch.

Each mutant rebinds one function of the package, at every module attribute
that holds it, through ``monkeypatch`` (the source is never edited), and
``run_verify(fast=True, seed=0)`` must then fail at least the rows named
beside it. The table covers the slot cost (the rows whose instances
``verify._drawn_by_shape`` draws: greedy deployment, max of affines and
midpoint convexity), the simplex projection, the single-machine vertex rule,
the mean-variance solve, the truncated-exponential mean and its rate fit, and
the regulation kernel. A mutant that ``verify`` cannot catch does not belong in it.
"""

import math
import sys
from itertools import accumulate

import numpy as np
import pytest

from minerflex import RiskConfig, deployment, fleet, programs, regulation, single_machine, verify

GREEDY = "greedy deployment vs LP vertex oracle"
AFFINES = "piecewise cost = max of affine surrogates"
CONVEX = "midpoint convexity of the slot cost"
PROJECTION = "euclidean projection vs grid QP oracle"
TRUNCEXP = "truncated-exponential mean vs Gauss-Legendre quadrature"
FIT = "deployment-mean fitting round trip"
VERTEX = "single-machine vertex rule vs axis grids"
KKT = "risk-aware QP KKT residuals"
REGULATION = "regulation closed form and gradient vs Gauss-Legendre quadrature"

SLOT_PIECE, SLOT_COST, FLEET_TABLES = deployment.slot_piece, deployment.slot_cost, fleet.fleet_tables
PROJECT, BEST_PROGRAM = deployment.project_simplex, single_machine.best_program
RISK_AWARE_SOLVE, TRUNCEXP_MEAN, FIT_LAMBDA = single_machine.risk_aware_solve, programs.truncexp_mean, programs.fit_lambda
LINE_COST = regulation.expected_line_cost


def shifted_piece(step):
    """``slot_piece`` with every piece index moved by ``step``, clipped to the fleet's types."""

    def piece(cum, deployed):
        d, k = SLOT_PIECE(cum, deployed)
        if cum.ndim == 1:
            return d, np.clip(k + step, 0, cum.shape[-1] - 1)
        rows, k = k
        return d, (rows, np.clip(k + step, 0, cum.shape[-1] - 1))

    return piece


def most_rewarding_first(fleet_, eps, prices, c):
    """``slot_cost`` with the deployed total shed from the most-rewarding type down."""
    d = deployment.dot(eps, c)
    cum = fleet_.cum_capacities
    # the (..., K) fleet tables against the totals: (K,) for one fleet, (F, 1, ..., K) for a stack
    shape = cum.shape[:-1] + (1,) * (np.ndim(d) - cum.ndim + 1) + cum.shape[-1:]
    above = (cum[..., -1:] - cum).reshape(shape)
    caps, rewards = fleet_.capacities.reshape(shape), fleet_.rewards.reshape(shape)
    d = np.expand_dims(d, -1)
    shed = np.minimum(np.maximum(d - above, 0.0), caps)
    slope = (rewards * ((d > above) & (d <= above + caps))).sum(-1)
    return (rewards * shed).sum(-1) - deployment.dot(prices, c), slope


def without_revenue(fleet_, eps, prices, c):
    """``slot_cost`` that forgets the program revenue p.c."""
    cost, slope = SLOT_COST(fleet_, eps, prices, c)
    return cost + deployment.dot(prices, c), slope


def prefix_without_differential(rewards, capacities):
    """``fleet_tables`` whose prefix costs keep sum_{k<q} r_k cap_k but drop -r_q sum_{k<q} cap_k."""
    cum, _ = FLEET_TABLES(rewards, capacities)
    paid = accumulate(r * cap for r, cap in zip(rewards, capacities))
    # 0.0 * r gives the first entry a type column's shape where the tables are a stack's
    return cum, [p + 0.0 * r for p, r in zip([0.0, *paid], rewards)]


def rescaled_onto_cap(x, cap):
    """``project_simplex`` that clips to c >= 0 and scales a clipped point over the cap down onto it."""
    clipped = np.maximum(x, 0.0)
    total = clipped.sum(-1, keepdims=True)
    over = total > cap
    return np.where(over, clipped * (cap / np.where(over, total, 1.0)), clipped)


def dearest_program(stats, r, cap):
    """``best_program`` that puts the full capacity on the program of highest unit cost, if it profits."""
    unit = np.array([r * s.mean_eps - s.price for s in stats])
    c = np.zeros(len(stats))
    i = int(np.argmax(unit))
    if unit[i] <= 0.0:
        c[i] = cap
    return c


def riskless_solve(stats, r, cap, risk):
    """``risk_aware_solve`` that ignores the risk weight."""
    return RISK_AWARE_SOLVE(stats, r, cap, RiskConfig(0.0))


def truncexp_mean_without_expm1(lam):
    """``truncexp_mean`` with exp(x) - 1 where it takes expm1(x), outside the small-rate series."""
    if lam < programs._SERIES_LAMBDA:
        return TRUNCEXP_MEAN(lam)
    if lam < programs._EXPM1_LAMBDA:
        return 1.0 / lam - 1.0 / (math.exp(lam) - 1.0)
    return 1.0 / lam - math.exp(-lam) / (1.0 - math.exp(-lam))


def truncexp_series_sign_flipped(lam):
    """``truncexp_mean`` whose small-rate series adds lam / 12 where it subtracts it."""
    if lam < programs._SERIES_LAMBDA:
        return 0.5 + lam / 12.0 + lam**3 / 720.0
    return TRUNCEXP_MEAN(lam)


def line_cost(b_moment=lambda p0, m1: m1, down_rates=lambda t: (0.0, min(t, 1.0))):
    """``expected_line_cost`` with the moment its b partial adds and the reg-down line's rate interval swappable.

    The defaults rebuild the original: the b partial adds the partial moment M_q, and a
    line with b < 0 is past the break x for rates in [0, min((x - a) / b, 1)].
    """

    def cost(fleet_, lam, a, b):
        rewards = fleet_.rewards.tolist()
        mean = programs.truncexp_mean(lam)
        value, d_a, d_b = rewards[0] * (a + b * mean), rewards[0], rewards[0] * mean
        for below, r, x in zip(rewards, rewards[1:], fleet_.cum_capacities.tolist()):
            if b == 0.0:
                p0, m1 = (1.0, mean) if a > x else (0.0, 0.0)
            elif b > 0.0:
                p0, m1 = regulation._partial_moments(lam, max((x - a) / b, 0.0), 1.0)
            else:
                p0, m1 = regulation._partial_moments(lam, *down_rates((x - a) / b))
            value += (r - below) * ((a - x) * p0 + b * m1)
            d_a += (r - below) * p0
            d_b += (r - below) * b_moment(p0, m1)
        return value, d_a, d_b

    return cost


def fit_lambda_off(target_mean):
    """``fit_lambda`` off by 1e-6 relative."""
    return FIT_LAMBDA(target_mean) * (1.0 + 1e-6)


MUTANTS = {
    "piece index k - 1": (SLOT_PIECE, shifted_piece(-1), {GREEDY, AFFINES, CONVEX}),
    "piece index k + 1": (SLOT_PIECE, shifted_piece(1), {GREEDY, AFFINES, CONVEX}),
    "most-rewarding type filled first": (SLOT_COST, most_rewarding_first, {GREEDY, AFFINES, CONVEX}),
    "program revenue dropped": (SLOT_COST, without_revenue, {GREEDY, AFFINES}),
    "prefix costs without the reward differential": (
        FLEET_TABLES, prefix_without_differential, {GREEDY, AFFINES, CONVEX}
    ),
    "projection rescales the clipped point onto the cap": (PROJECT, rescaled_onto_cap, {PROJECTION}),
    "vertex rule picks the dearest program": (BEST_PROGRAM, dearest_program, {VERTEX}),
    "mean-variance solve ignores the risk weight": (RISK_AWARE_SOLVE, riskless_solve, {KKT}),
    "truncated-exponential mean with exp for expm1": (TRUNCEXP_MEAN, truncexp_mean_without_expm1, {TRUNCEXP}),
    "rate fit off by 1e-6 relative": (FIT_LAMBDA, fit_lambda_off, {FIT}),
    "small-rate series with lam / 12 added": (TRUNCEXP_MEAN, truncexp_series_sign_flipped, {TRUNCEXP}),
    "regulation b partial adds P_q for M_q": (LINE_COST, line_cost(b_moment=lambda p0, m1: p0), {REGULATION}),
    "reg-down line over the rates above its break": (
        LINE_COST, line_cost(down_rates=lambda t: (max(t, 0.0), 1.0)), {REGULATION}
    ),
}


def rebind(monkeypatch, original, mutant):
    """Rebind ``original`` to ``mutant`` at every attribute of a minerflex module that holds it."""
    modules = [m for name, m in sys.modules.items() if name == "minerflex" or name.startswith("minerflex.")]
    hits = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
    assert hits
    for module, attr in hits:
        monkeypatch.setattr(module, attr, mutant)


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_fails_the_mutant(name, monkeypatch):
    original, mutant, rows = MUTANTS[name]
    rebind(monkeypatch, original, mutant)
    failed = {r.name for r in verify.run_verify(fast=True, seed=0) if not r.passed}
    assert rows <= failed, f"{name}: only {sorted(failed)} failed"
