"""In-process mutants of the slot cost that ``verify`` must catch.

Each mutant rebinds one function of the package, at every module attribute
that holds it, through ``monkeypatch`` (the source is never edited), and
``run_verify(fast=True, seed=0)`` must then fail at least the rows named
beside it. The table covers the rows whose instances ``verify._drawn_by_shape``
draws: greedy deployment, max of affines and midpoint convexity. A mutant
that ``verify`` cannot catch does not belong in it.
"""

import sys
from itertools import accumulate

import numpy as np
import pytest

from minerflex import deployment, fleet, verify

GREEDY = "greedy deployment vs LP vertex oracle"
AFFINES = "piecewise cost = max of affine surrogates"
CONVEX = "midpoint convexity of the slot cost"

SLOT_PIECE, SLOT_COST, FLEET_TABLES = deployment.slot_piece, deployment.slot_cost, fleet.fleet_tables


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


MUTANTS = {
    "piece index k - 1": (SLOT_PIECE, shifted_piece(-1), {GREEDY, AFFINES, CONVEX}),
    "piece index k + 1": (SLOT_PIECE, shifted_piece(1), {GREEDY, AFFINES, CONVEX}),
    "most-rewarding type filled first": (SLOT_COST, most_rewarding_first, {GREEDY, AFFINES, CONVEX}),
    "program revenue dropped": (SLOT_COST, without_revenue, {GREEDY, AFFINES}),
    "prefix costs without the reward differential": (
        FLEET_TABLES, prefix_without_differential, {GREEDY, AFFINES, CONVEX}
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
