"""Joint reg-up/reg-down model and its closed-form expected cost.

At any instant only one regulation direction is deployed: reg-down with
probability theta, reg-up otherwise, each with a truncated-exponential
deployment rate on [0, 1]. Either way the deployed total is linear in that
one rate, so the expected slot cost of a profile (c_up, c_dn), on a fleet of
any number of types, is a sum of partial moments of the truncated
exponential over the fleet pieces the total crosses
(:func:`expected_line_cost`). ``minerflex verify`` arbitrates the value
and its gradient with a Gauss-Legendre quadrature of the realized cost,
taken through :meth:`RegJointModel.from_uniform` and
:func:`minerflex.deployment.slot_cost`; the tests add scipy quadrature and
Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import at_least
from .cutting import Optimum, minimize
from .errors import InfeasibleError, InvalidInputError
from .fleet import FleetSpec
from .programs import TruncatedExponential, truncexp_mean

@dataclass(frozen=True)
class RegJointModel:
    """Mixture: reg-down deployed w.p. theta, reg-up otherwise."""

    theta: float
    up: TruncatedExponential
    down: TruncatedExponential
    # uniform rows per batch of draws: the direction, then up, then down
    width: ClassVar[int] = 3

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidInputError(f"theta must be in [0,1], got {self.theta}")

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """(..., B, 2) raw (eps_up, eps_dn) draws from a (..., 3, B) block of uniforms.

        Row 0 picks the direction; rows 1 and 2 are the up and down rates,
        drawn whichever direction deploys, so the stream layout is fixed.
        """
        down_deployed = u[..., 0, :] < self.theta
        out = np.zeros((*down_deployed.shape, 2))
        out[..., 0] = np.where(down_deployed, 0.0, self.up.from_uniform(u[..., 1, :]))
        out[..., 1] = np.where(down_deployed, self.down.from_uniform(u[..., 2, :]), 0.0)
        return out


def sample_joint(model: RegJointModel, rng: np.random.Generator, size=None):
    """Draw raw (eps_up, eps_dn); exactly one component is nonzero.

    With ``size`` given, returns a (size, 2) array, ``model.from_uniform`` of
    one (3, size) block; otherwise a 2-tuple from one or two draws.
    """
    if size is None:
        if rng.random() < model.theta:
            return 0.0, model.down.sample(rng)
        return model.up.sample(rng), 0.0
    return model.from_uniform(rng.random((model.width, size)))


def joint_pair(programs, theta: float, up_id: str, down_id: str):
    """(up index, down index, joint model) of a checked reg-up/reg-down pair.

    ``programs`` carry ``id`` and ``eps_model``; both must be truncexp.
    """
    index = {p.id: i for i, p in enumerate(programs)}
    if up_id not in index or down_id not in index:
        raise InvalidInputError("joint block names unknown program ids")
    up, down = programs[index[up_id]].eps_model, programs[index[down_id]].eps_model
    if not (isinstance(up, TruncatedExponential) and isinstance(down, TruncatedExponential)):
        raise InvalidInputError("joint programs must use truncexp eps models")
    return index[up_id], index[down_id], RegJointModel(theta, up, down)


@dataclass(frozen=True)
class RegInstance:
    """A fleet of any number of types in reg-up (index 0) and reg-down (1) only."""

    fleet: FleetSpec
    p_up: float
    p_dn: float
    model: RegJointModel

    def __post_init__(self):
        at_least(self.p_up, "p_up")
        at_least(self.p_dn, "p_dn")


def _partial_moments(lam: float, a: float, b: float) -> tuple[float, float]:
    """(integral of f, integral of x f) over [a, b] for the truncated exponential.

    Given x in [a, b], (x - a) / (b - a) is truncated exponential with rate
    lam (b - a), so the first moment reuses that mean's small-rate series.
    """
    if b <= a:
        return 0.0, 0.0
    rate = lam * (b - a)
    p0 = math.exp(-lam * a) * -math.expm1(-rate) / -math.expm1(-lam)
    return p0, p0 * (a + (b - a) * truncexp_mean(rate))


def expected_line_cost(fleet: FleetSpec, lam: float, a: float, b: float) -> tuple[float, float, float]:
    """E[cost(d)] at d = a + b e, e truncated exponential with rate ``lam``, and its a and b partials.

    cost(d) = r_0 d + sum_{q>=1} (r_q - r_{q-1}) (d - cum_{q-1})^+ is the slot
    cost before prices, prefix_q + r_q d on the piece q of
    :func:`~minerflex.deployment.slot_piece`. Each hinge is affine in e on the
    one interval of rates that takes d past cum_{q-1}, so its expectation is
    (a - cum_{q-1}) P_q + b M_q with P_q and M_q the partial moments of e over
    that interval. The partials are r_0 + sum (r_q - r_{q-1}) P_q and
    r_0 E[e] + sum (r_q - r_{q-1}) M_q: the hinges are continuous, so the
    moving limits add nothing. A constant line (b = 0) takes its total's piece.
    Breaks at the fleet capacity (zero-capacity types on top) add nothing on
    feasible totals.
    """
    rewards = fleet.rewards.tolist()
    mean = truncexp_mean(lam)
    value, d_a, d_b = rewards[0] * (a + b * mean), rewards[0], rewards[0] * mean
    for below, r, x in zip(rewards, rewards[1:], fleet.cum_capacities.tolist()):
        if b == 0.0:
            p0, m1 = (1.0, mean) if a > x else (0.0, 0.0)
        elif b > 0.0:
            p0, m1 = _partial_moments(lam, max((x - a) / b, 0.0), 1.0)
        else:
            p0, m1 = _partial_moments(lam, 0.0, min((x - a) / b, 1.0))
        value += (r - below) * ((a - x) * p0 + b * m1)
        d_a += (r - below) * p0
        d_b += (r - below) * m1
    return value, d_a, d_b


def _expected_reg(inst: RegInstance, c_up: float, c_dn: float) -> tuple[float, float, float]:
    """Expected slot cost of committing (c_up, c_dn) and its two partials, from one kernel pass.

    With reg-up deployed the total is d = c_dn + e_up c_up; with reg-down
    deployed it is d = c_dn - e_dn c_dn.
    """
    cap = inst.fleet.total_capacity_mw
    if c_up < 0 or c_dn < 0 or c_up + c_dn > cap + 1e-9 * max(1.0, cap):
        raise InfeasibleError(f"profile ({c_up}, {c_dn}) infeasible for fleet capacity {cap}")
    model = inst.model
    up, up_a, up_b = expected_line_cost(inst.fleet, model.up.lam, c_dn, c_up)
    down, down_a, down_b = expected_line_cost(inst.fleet, model.down.lam, c_dn, -c_dn)
    theta = model.theta
    return (
        theta * down + (1.0 - theta) * up - inst.p_up * c_up - inst.p_dn * c_dn,
        (1.0 - theta) * up_b - inst.p_up,
        theta * (down_a - down_b) + (1.0 - theta) * up_a - inst.p_dn,
    )


def expected_reg_cost(inst: RegInstance, c_up: float, c_dn: float) -> float:
    """Closed-form expected slot cost of committing (c_up, c_dn)."""
    return _expected_reg(inst, c_up, c_dn)[0]


def expected_reg_gradient(inst: RegInstance, c_up: float, c_dn: float) -> np.ndarray:
    """Gradient E[r_k(eps) eps_eff] - p of :func:`expected_reg_cost`; a subgradient at kinks.

    eps_eff is (0, 1 - eps_dn) with reg-down deployed and (eps_up, 1) with
    reg-up deployed, and r_k is the reward of the piece the deployed total is on.
    """
    return np.array(_expected_reg(inst, c_up, c_dn)[1:])


def solve_reg_profile(inst: RegInstance) -> Optimum:
    """Exact minimizer (c_up, c_dn) of the expected cost over the feasible set, its cost and a certified gap.

    The cost is convex and piecewise smooth; its gradient is a subgradient at
    kinks, such as where c_up = 0 puts the reg-up line on a cumulative capacity.
    """

    def evaluate(points):
        out = np.array([_expected_reg(inst, *c) for c in points.tolist()])
        return out[:, 0], out[:, 1:]

    return minimize(evaluate, 2, inst.fleet.total_capacity_mw)
