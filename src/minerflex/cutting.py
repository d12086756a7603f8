"""Kelley's cutting-plane method: the one certified convex solver core.

The hindsight optimum and the regulation profile both minimize a convex
function over {c >= 0, sum c <= cap} through :func:`minimize`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import at_least
from .deployment import dot, project_simplex

# Kelley iterations before the solve stops and reports the gap it reached.
MAX_CUTS = 200
# Relative optimality gap at which the cutting-plane solve stops.
GAP_TOL = 1e-9


class Optimum(NamedTuple):
    """A certified solve: the best point found (read-only), its value, and how far that value can be from optimal."""

    point: np.ndarray
    value: float
    gap: float


def _master(b: np.ndarray, g: np.ndarray, cap: float) -> tuple[np.ndarray, float]:
    """Minimize the cutting-plane model max_j(b_j + g_j.c) over {c >= 0, sum c <= cap}.

    Dense tableau simplex with Bland's rule on the epigraph LP, written with
    u = c / cap and the deepest cut j* eliminating the free variable z, so that
    the slacks of the other cuts and of sum u <= 1 form a feasible first basis.
    Returns the minimizer and a lower bound from the duals: the reduced costs
    lambda of the cut slacks sum to one in every basis, and any such lambda,
    clipped at zero and renormalized, bounds the model below by
    lambda.b + cap min(0, min_i (lambda g)_i), so pivot rounding can loosen
    the bound but never make it invalid.
    """
    m, n = g.shape
    top = int(np.argmax(b))
    rest = np.delete(np.arange(m), top)
    # scaled, every entry is O(1), so the pivot tests below can use absolute tolerances
    scale = max(float(np.abs(b - b[top]).max()), cap * float(np.abs(g).max()), 1.0)
    gs, bs = cap * g / scale, (b - b[top]) / scale
    # columns: u (n), cut slacks s (m), capacity slack; last column the right-hand side
    tab = np.zeros((m + 1, n + m + 2))
    tab[:-2, :n] = gs[rest] - gs[top]
    tab[np.arange(m - 1), n + rest] = 1.0
    tab[:-2, n + top] = -1.0
    tab[:-2, -1] = -bs[rest]
    tab[-2, :n] = 1.0
    tab[-2, n + m] = 1.0
    tab[-2, -1] = 1.0
    tab[-1, :n] = gs[top]
    tab[-1, n + top] = 1.0
    basis = np.append(n + rest, n + m)
    # Bland's rule cannot cycle in exact arithmetic; the bound stops a float one
    for _ in range(50 * (n + m + 1)):
        entering = np.flatnonzero(tab[-1, :-1] < -1e-12)
        if not entering.size:
            break
        e = entering[0]
        col = tab[:-1, e]
        rows = np.flatnonzero(col > 1e-12)
        ratios = tab[rows, -1] / col[rows]
        tied = rows[ratios <= ratios.min() + 1e-12]
        r = tied[np.argmin(basis[tied])]
        tab[r] /= tab[r, e]
        tab -= np.outer(tab[:, e], tab[r]) * (np.arange(m + 1) != r)[:, None]
        basis[r] = e
    u = np.zeros(n + m + 1)
    u[basis] = tab[:-1, -1]
    lam = np.maximum(tab[-1, n : n + m], 0.0)
    lam /= lam.sum()
    slope = dot(lam[:, None], g, axis=0)
    return cap * u[:n], float(dot(lam, b, axis=0)) + cap * min(0.0, float(slope.min()))


def minimize(evaluate, n: int, cap: float) -> Optimum:
    """The :class:`Optimum` of a convex F over {c >= 0, sum c <= cap}: best point, its value and a certified gap.

    ``evaluate`` maps a (P, n) block of feasible points to their (P,) values
    and (P, n) subgradients. Kelley's method (Kelley 1960) adds the cut
    F(c_j) + g_j.(c - c_j) at each evaluated point, starting at the
    feasible-set vertices so the model is bounded, and the next point
    minimizes the max of the cuts. That minimum bounds the optimum below, so
    the gap, the best value found minus the bound, bounds how far the point
    is from optimal. The solve stops once the gap is within ``GAP_TOL`` of the
    best value, or after ``MAX_CUTS`` cuts.
    """
    at_least(cap, "cap")
    points = project_simplex(np.vstack([np.zeros(n), cap * np.eye(n)]), cap)
    values, slopes = evaluate(points)
    best = int(np.argmin(values))
    best_c, best_v = points[best], float(values[best])
    b = values - dot(slopes, points)
    for _ in range(MAX_CUTS):
        c, bound = _master(b, slopes, cap)
        gap = max(best_v - bound, 0.0)
        if gap <= GAP_TOL * max(1.0, abs(best_v)):
            break
        c = project_simplex(c, cap)
        (v,), (g,) = evaluate(c[None, :])
        if v < best_v:
            best_c, best_v = c, float(v)
        slopes = np.vstack([slopes, g])
        b = np.append(b, v - dot(g, c))
    best_c.setflags(write=False)
    return Optimum(best_c, best_v, gap)
