"""Joint reg-up/reg-down model and its closed-form expected cost.

At any instant only one regulation direction is deployed: reg-down with
probability theta, reg-up otherwise, each with a truncated-exponential
deployment rate on [0, 1]. For a two-type fleet the expected slot cost of a
profile (c_up, c_dn) has a closed form assembled from partial moments of the
truncated exponential; the Monte Carlo path through
:func:`minerflex.deployment.realized_cost` arbitrates its correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cutting import minimize
from .deployment import Profile
from .errors import InfeasibleError, InvalidInputError
from .fleet import FleetSpec
from .programs import TruncatedExponential

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
    """Two-type fleet participating only in reg-up (index 0) and reg-down (1)."""

    fleet: FleetSpec
    p_up: float
    p_dn: float
    model: RegJointModel

    def __post_init__(self):
        if self.fleet.n_types != 2:
            raise InvalidInputError(
                f"closed form requires exactly 2 machine types, got {self.fleet.n_types}"
            )
        if self.p_up < 0 or self.p_dn < 0:
            raise InvalidInputError("program prices must be >= 0")


def _partial_moments(lam: float, a: float, b: float) -> tuple[float, float]:
    """(integral of f, integral of x f) over [a, b] for the truncated exponential."""
    if b <= a:
        return 0.0, 0.0
    norm = -math.expm1(-lam)
    ea = math.exp(-lam * a)
    p0 = ea * -math.expm1(-lam * (b - a)) / norm
    m1 = (
        ea * (a - b * math.exp(-lam * (b - a)) + -math.expm1(-lam * (b - a)) / lam)
    ) / norm
    return p0, m1


# The five case expressions below are each valid on their named region; the
# region selector _cases serves both the cost and its gradient. Keeping them
# separate lets the tests check continuity across region boundaries by
# evaluating both sides.


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


def _cases(inst: RegInstance, c_up: float, c_dn: float):
    """The down-case and up-case expressions valid at a feasible (c_up, c_dn)."""
    cap = inst.fleet.total_capacity_mw
    if c_up < 0 or c_dn < 0 or c_up + c_dn > cap + 1e-9 * max(1.0, cap):
        raise InfeasibleError(f"profile ({c_up}, {c_dn}) infeasible for fleet capacity {cap}")
    cap1 = float(inst.fleet.capacities[0])
    down = down_cost_within_first if c_dn <= cap1 else down_cost_beyond_first
    if c_up + c_dn <= cap1:
        return down, up_cost_within_first
    return down, up_cost_beyond_first if c_dn >= cap1 else up_cost_straddling


def expected_reg_cost(inst: RegInstance, c_up: float, c_dn: float) -> float:
    """Closed-form expected slot cost of committing (c_up, c_dn)."""
    down, up = _cases(inst, c_up, c_dn)
    theta = inst.model.theta
    return theta * down(inst, c_up, c_dn) + (1.0 - theta) * up(inst, c_up, c_dn)


def expected_reg_gradient(inst: RegInstance, c_up: float, c_dn: float) -> np.ndarray:
    """Gradient E[r_k(eps) eps_eff] - p of :func:`expected_reg_cost`.

    eps_eff is (0, 1 - eps_dn) with reg-down deployed and (eps_up, 1) with
    reg-up deployed. The marginal reward r_k is r_1 until the first type runs
    out and r_2 beyond, so each spill region subtracts (r_1 - r_2) times the
    partial moments of eps_eff over it.
    """
    down, up = _cases(inst, c_up, c_dn)
    cap1 = float(inst.fleet.capacities[0])
    r1, r2 = (float(v) for v in inst.fleet.rewards)
    model = inst.model
    g_down = np.array([-inst.p_up, r1 * (1.0 - model.down.mean()) - inst.p_dn])
    if down is down_cost_beyond_first:  # spill while eps_dn < 1 - cap_1 / c_dn
        p0, m1 = _partial_moments(model.down.lam, 0.0, 1.0 - cap1 / c_dn)
        g_down[1] -= (r1 - r2) * (p0 - m1)
    g_up = np.array([r1 * model.up.mean() - inst.p_up, r1 - inst.p_dn])
    if up is up_cost_straddling:  # spill while eps_up > (cap_1 - c_dn) / c_up
        p0, m1 = _partial_moments(model.up.lam, (cap1 - c_dn) / c_up, 1.0)
        g_up -= (r1 - r2) * np.array([m1, p0])
    elif up is up_cost_beyond_first:
        g_up -= (r1 - r2) * np.array([model.up.mean(), 1.0])
    return model.theta * g_down + (1.0 - model.theta) * g_up


def solve_reg_profile(inst: RegInstance) -> tuple[Profile, float]:
    """Exact minimum of the convex, C^1 expected cost over the feasible set, with a certified gap."""

    def evaluate(points):
        pairs = points.tolist()
        return (np.array([expected_reg_cost(inst, *c) for c in pairs]),
                np.array([expected_reg_gradient(inst, *c) for c in pairs]))

    c, _, gap = minimize(evaluate, 2, inst.fleet.total_capacity_mw)
    return Profile(c), gap
