"""Exact profile selection for a single-machine-type facility.

With one machine type (reward r) the expected slot cost is linear in c, so
the risk-oblivious optimum sits at a vertex: everything on the program with
the lowest per-unit cost r E[eps_i] - p_i, or nothing at all. Adding a
mean-variance penalty turns the problem into a separable QP over the same
feasible set (a continuous quadratic knapsack), solved exactly in closed
form by a search over the sorted breakpoints of the capacity multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import at_least
from .deployment import dot
from .errors import InvalidInputError


@dataclass(frozen=True)
class ProgramStats:
    """Price and deployment-rate moments of one program.

    ``var_slack`` is the relative overshoot allowed above the hard bound
    mean(1-mean); unbiased sample variances exceed the bound by up to a
    factor n/(n-1), so estimators pass 1/(n-1) here.
    """

    price: float
    mean_eps: float
    var_eps: float
    var_slack: float = 0.0

    def __post_init__(self):
        at_least(self.price, "price")
        at_least(self.var_slack, "var_slack", -math.inf)
        # a non-finite mean_eps or var_eps fails its range check
        if not 0.0 <= self.mean_eps <= 1.0:
            raise InvalidInputError(f"mean_eps must be in [0,1], got {self.mean_eps}")
        limit = self.mean_eps * (1.0 - self.mean_eps) * (1.0 + self.var_slack) + 1e-12
        if not 0.0 <= self.var_eps <= limit:
            raise InvalidInputError(
                f"var_eps {self.var_eps} exceeds the [0,1]-variable bound "
                f"{self.mean_eps * (1.0 - self.mean_eps)} (slack {self.var_slack})"
            )


@dataclass(frozen=True)
class RiskConfig:
    """Mean-variance trade-off weight; 0 recovers the risk-oblivious rule."""

    risk_weight: float = 0.0

    def __post_init__(self):
        at_least(self.risk_weight, "risk_weight")


def _unit_costs(programs: Sequence[ProgramStats], r: float) -> np.ndarray:
    return np.array([r * s.mean_eps - s.price for s in programs])


def best_program(programs: Sequence[ProgramStats], r: float, cap: float) -> np.ndarray:
    """Vertex rule, as a read-only profile: full capacity on the cheapest program if it profits.

    Ties on per-unit cost go to the lowest index; a program exactly at
    break-even still gets full capacity.
    """
    if not programs:
        raise InvalidInputError("need at least one program")
    at_least(r, "r")
    at_least(cap, "cap")  # a negative cap leaves no feasible profile
    unit = _unit_costs(programs, r)
    i_star = int(np.argmin(unit))
    c = np.zeros(len(programs))
    if -unit[i_star] >= 0.0:
        c[i_star] = cap
    c.setflags(write=False)
    return c


def profile_risk(
    programs: Sequence[ProgramStats], r: float, profile
) -> tuple[float, float]:
    """(expected cost, cost variance) of a profile under independent programs."""
    c = np.asarray(profile, dtype=float)
    if c.size != len(programs):
        raise InvalidInputError(
            f"profile has {c.size} components for {len(programs)} programs"
        )
    exp_cost = float(dot(c, _unit_costs(programs, r)))
    var = float(sum(ci**2 * r**2 * s.var_eps for ci, s in zip(c, programs)))
    return exp_cost, var


def risk_aware_solve(
    programs: Sequence[ProgramStats], r: float, cap: float, risk: RiskConfig
) -> np.ndarray:
    """Exact minimizer of sum_i [c_i a_i + w c_i^2 r^2 Var(eps_i)] on the simplex, read-only.

    a_i = r E[eps_i] - p_i; with b_i = w r^2 Var(eps_i) > 0 the KKT
    conditions give c_i = max(0, (t_i - mu) / 2b_i) for t_i = -a_i and a
    multiplier mu >= 0 on the sum constraint. Zero-variance programs stay
    linear: they either sit at zero or soak up the residual capacity, so mu
    starts at the best zero-variance margin. If the quadratic coordinates
    still oversubscribe the capacity there, mu is found exactly among the
    breakpoints t_i (Brucker, Oper. Res. Lett. 1984; Kiwiel, Math. Program.
    2008), and the capacity is used up to rounding. A subnormal b_i has lost
    its precision, and 1 / 2b_i overflows or nearly does: that coordinate is
    the zero-variance limit it approaches, and stays linear.
    """
    if not programs:
        raise InvalidInputError("need at least one program")
    at_least(r, "r")
    at_least(cap, "cap")  # a negative cap leaves no feasible profile
    w = risk.risk_weight
    a = _unit_costs(programs, r)
    b = np.array([w * r**2 * s.var_eps for s in programs])
    b[b < np.finfo(float).tiny] = 0.0
    if w == 0.0 or not np.any(b > 0.0):
        return best_program(programs, r, cap)

    pos = b > 0.0
    t, half = -a[pos], 2.0 * b[pos]
    zero_neg = (~pos) & (a < 0.0)
    mu = -float(a[zero_neg].min()) if zero_neg.any() else 0.0
    c = np.zeros(len(programs))
    # a demand past the largest double is a demand past any cap, and is handled as one
    with np.errstate(over="ignore"):
        c[pos] = np.maximum(0.0, (t - mu) / half)
        oversubscribed = c[pos].sum() > cap
    if oversubscribed:
        # The cap binds on the quadratic coordinates alone. With t sorted in
        # decreasing order, d_k = sum_j inv_j max(0, t_j - t_k) is the demand at
        # mu = t_k; the top k are active for the largest k with d_k <= cap, where
        # mu = t_k - (cap - d_k) / sum_{j<=k} inv_j. Then t_i - mu is the sum of
        # t_i - t_k and (cap - d_k) / sum inv, both >= 0, so nothing cancels even
        # where a tiny variance makes inv_i = 1 / 2b_i huge.
        order = np.argsort(-t, kind="stable")
        ts, inv = t[order], 1.0 / half[order]
        with np.errstate(over="ignore"):
            d = dot(np.maximum(0.0, ts - ts[:, None]), inv)
        k = int(np.flatnonzero(d <= cap)[-1]) + 1  # d_1 = 0 <= cap, so k >= 1
        quad = np.zeros(t.size)
        quad[order[:k]] = (ts[:k] - ts[k - 1] + (cap - d[k - 1]) / inv[:k].sum()) * inv[:k]
        c[pos] = quad
    elif zero_neg.any():
        # The sum constraint binds through a linear (zero-variance) program:
        # it absorbs whatever the quadratic coordinates leave on the table.
        c[int(np.nonzero(zero_neg & (-a == mu))[0][0])] = cap - c[pos].sum()
    c.setflags(write=False)
    return c
