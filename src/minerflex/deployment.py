"""Optimal deployment allocation and realized-cost evaluation.

Given a committed profile c and a realized deployment vector eps, the
facility must shed sum_i eps_i * c_i MW of mining load. The cheapest way is
greedy: fill the lowest-reward machine types first. The resulting cost,

    cost(eps, c) = sum_{k < k_c} (r_k - r_{k_c}) cap_k
                   + sum_i c_i (r_{k_c} eps_i - p_i),

is piecewise affine and convex in c (the pointwise max over the per-type
affine surrogates evaluated by :func:`cost_fixed_k`); :func:`slot_cost`
evaluates it for one fleet or a :class:`SlotBatch` of slots. All functions
here are pure; sign convention is cost = lost mining margin minus program
revenue, so negative cost is profit relative to mining-only operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, InvalidInputError
from .fleet import FleetSpec, fleet_tables
from .programs import DIRECTIONS, ProgramSpec, prices_of

# Absolute float guard for deployment totals at the feasible-set edges.
EDGE_GUARD = 1e-12


def as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(getattr(x, "epsilon", getattr(x, "c", x)), dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DeploymentSample:
    """One realized deployment-rate vector, componentwise in [0, 1]."""

    epsilon: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilon, dtype=float)
        if eps.ndim != 1:
            raise InvalidInputError(f"epsilon must be a vector, got shape {eps.shape}")
        if np.any(~np.isfinite(eps)) or np.any(eps < 0.0) or np.any(eps > 1.0):
            raise InvalidInputError(f"epsilon components must lie in [0,1], got {eps}")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class Profile:
    """Committed capacity per program (MW), componentwise nonnegative."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).copy()
        if c.ndim != 1:
            raise InvalidInputError(f"profile must be a vector, got shape {c.shape}")
        if np.any(~np.isfinite(c)):
            raise InvalidInputError("profile components must be finite")
        tiny = (c < 0.0) & (c >= -EDGE_GUARD)
        c[tiny] = 0.0
        if np.any(c < 0.0):
            raise InvalidInputError(f"profile components must be >= 0, got {c}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def total(self) -> float:
        return float(self.c.sum())


@dataclass(frozen=True)
class Allocation:
    """Deployed capacity covered by each machine type (MW)."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    def total(self) -> float:
        return float(self.d.sum())


def flip_down(eps: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Map raw deployment rates to effective load-reduction fractions.

    Holding headroom for a down program reduces consumption by (1 - eps) * c,
    so entries where the mask ``down`` (broadcast against ``eps``) is set
    flip eps -> 1 - eps; up entries pass through. Returns a new array.
    """
    return np.where(down, 1.0 - eps, eps)


def effective_epsilon(sample, directions: Sequence[str]) -> DeploymentSample:
    """Validated :func:`flip_down` of one raw deployment-rate vector."""
    eps = as_vector(sample, "sample")
    if len(directions) != eps.size:
        raise InvalidInputError(
            f"got {eps.size} deployment rates for {len(directions)} directions"
        )
    for direction in directions:
        if direction not in DIRECTIONS:
            raise InvalidInputError(f"unknown direction {direction!r}")
    return DeploymentSample(flip_down(eps, np.asarray(directions) == "down"))


def project_simplex(x: np.ndarray, cap) -> np.ndarray:
    """Euclidean projection of a vector, or of each row of x, onto {c >= 0, sum c <= cap}.

    ``cap`` is a scalar or a column of per-row caps. Clip to the
    nonnegative orthant first; where the sum constraint still binds, the
    projection lands on the simplex face and is found by the usual
    sort-and-threshold shift (Duchi et al. 2008). Inputs are not validated.
    """
    if x.ndim == 1 and 0 < x.size < 8:
        return np.array(project_simplex_list(x.tolist(), cap))
    clipped = np.maximum(x, 0.0)
    over = clipped.sum(-1, keepdims=True) > cap
    if not np.count_nonzero(over):
        return clipped
    u = np.sort(x, -1)[..., ::-1]
    css = u.cumsum(-1) - cap
    n = x.shape[-1]
    # rho: the last index where the shifted sorted entry stays positive, else 0. Index 0
    # is positive unless cap is 0 (or vanishes against u_0); then tau = u_0 - cap gives zeros.
    positive = u - css / np.arange(1, n + 1) > 0.0
    positive[..., 0] = True
    rho = n - 1 - positive[..., ::-1].argmax(-1)[..., None]
    tau = (css[rho] if x.ndim == 1 else css[np.arange(len(css))[:, None], rho]) / (rho + 1.0)
    return np.where(over, np.maximum(x - tau, 0.0), clipped)


def project_simplex_list(v: list, cap) -> list:
    """:func:`project_simplex` of one vector given and returned as a list of floats, bit for bit.

    Fewer than 8 entries run in Python floats: the same IEEE operations in the
    same order, at a fraction of numpy's per-call cost. numpy sums fewer than 8
    entries left to right (more go pairwise), and its maximum(v, 0.0) keeps nan
    and turns -0.0 into 0.0. Longer vectors take the numpy path.
    """
    if not 0 < len(v) < 8:
        return project_simplex(np.array(v), cap).tolist()
    clipped = [0.0 if e <= 0.0 else e for e in v]
    total = 0.0  # no clipped entry is -0.0, so 0.0 + e_0 is e_0, where numpy's sum starts
    for e in clipped:
        total += e
    if not total > cap:
        return clipped
    u = sorted(v, reverse=True)
    # rho and css[rho] as in project_simplex: the last index where the shifted entry
    # stays positive, else 0, with css the running sum of u less cap
    s = u[0]
    rho, css = 0, s - cap
    for i in range(1, len(u)):
        s += u[i]
        if u[i] - (s - cap) / (i + 1) > 0.0:
            rho, css = i, s - cap
    tau = css / (rho + 1.0)
    return [0.0 if (d := e - tau) <= 0.0 else d for e in v]


def _clamp_total(total: float, cap: float) -> float:
    """Snap a deployment total onto [0, cap]; error beyond the float guard."""
    if -EDGE_GUARD <= total < 0.0:
        return 0.0
    if cap < total <= cap + EDGE_GUARD:
        return cap
    if total < 0.0 or total > cap:
        raise InfeasibleError(
            f"total deployed capacity {total} outside [0, {cap}]"
        )
    return total


def allocate_deployment(fleet: FleetSpec, total_deployed: float) -> Allocation:
    """Greedy fill of the deployment total, least-rewarding types first."""
    total = _clamp_total(float(total_deployed), fleet.total_capacity_mw)
    already_filled = np.concatenate(([0.0], fleet.cum_capacities[:-1]))
    d = np.minimum(fleet.capacities, np.maximum(0.0, total - already_filled))
    return Allocation(d)


def critical_type(fleet: FleetSpec, total_deployed: float) -> int:
    """Smallest 1-based q with total_deployed <= cap_1 + ... + cap_q."""
    total = _clamp_total(float(total_deployed), fleet.total_capacity_mw)
    return int(slot_piece(fleet.cum_capacities, total)[1]) + 1


def _check_sizes(c: np.ndarray, eps: np.ndarray, p: np.ndarray):
    if not (c.size == eps.size == p.size):
        raise InvalidInputError(
            f"dimension mismatch: profile {c.size}, sample {eps.size}, programs {p.size}"
        )


def _check_profile_feasible(c: np.ndarray, fleet: FleetSpec):
    values = c.tolist()
    if any(v < 0.0 for v in values):
        raise InfeasibleError(f"profile has negative components: {c}")
    total = list(accumulate(values, initial=0.0))[-1]  # c.sum()'s order for fewer than 8 entries
    cap = fleet.total_capacity_mw
    if total > cap + max(EDGE_GUARD, 1e-9 * cap):
        raise InfeasibleError(f"profile total {total} exceeds fleet capacity {cap}")


def capped_breaks(cum):
    """The cumulative capacities strictly below the fleet's capacity ``cum[-1]``.

    A left ``searchsorted`` of any non-NaN deployment total against these gives
    the piece of that total clipped onto [0, cap]: below 0 no capacity is
    smaller, and above cap every one of them is. The whole of ``cum[:-1]`` would
    not do where zero-capacity types top the fleet: with cum = [100, 250, 250]
    a total of 300 must land on piece 1, the last type with capacity, not 2.
    """
    return cum[: cum.searchsorted(cum[-1])]


def slot_piece(cum, deployed):
    """Clip deployment totals onto [0, cap] and locate their cost piece.

    On piece k (type k partially deployed) the slot cost is
    prefix_k + r_k d - p.c, with subgradient r_k eps - p. ``cum`` is one
    fleet's (K,) cumulative capacities, which serve every total, or the
    (F, K) table of a :class:`FleetStack` (such as a :class:`SlotBatch`),
    whose row t serves row t of ``deployed`` ((F,) or (F, B)). Returns the
    clipped totals and an index into the fleet tables. One fleet's piece comes
    from the unclipped totals through :func:`capped_breaks`.
    """
    if cum.ndim == 1:
        # minimum/maximum, not np.clip: same values, far less per-call overhead
        return np.minimum(np.maximum(deployed, 0.0), cum[-1]), capped_breaks(cum).searchsorted(deployed)
    tail = (1,) * (np.ndim(deployed) - 1)
    rows = np.arange(cum.shape[0]).reshape(-1, *tail)
    d = np.minimum(np.maximum(deployed, 0.0), cum[:, -1].reshape(-1, *tail))
    k = (cum.reshape(*cum.shape, *tail) < d[:, None]).sum(axis=1)
    return d, (rows, k)


def dot(a, b, axis=-1):
    """Sum over ``axis`` of the broadcast products a * b: term 0, then each later term added in order.

    The one product rule: one IEEE multiply and add per term and never BLAS, so no bit
    depends on the kernel numpy picks at run time or on which rows share a call. The
    last axis (programs) adds column by column, axis 0 (cuts) accumulates in numpy.
    Kept on BLAS, as no product value of theirs reaches an output: ``sgd._subgradient``'s
    row dot (it only picks pieces) and the grid oracle's float32 hinge block (its argmin).
    """
    if axis == 0:
        return np.cumsum(a * b, axis=0)[-1]
    total = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        total += a[..., i] * b[..., i]
    return total


def slot_cost(fleet, eps, prices, c):
    """(prefix_k + r_k d - p.c, r_k) at totals d = eps.c; unvalidated.

    ``eps``, ``prices`` and ``c`` are (..., N) rows that broadcast: one slot's vectors,
    (S, N) samples against one profile, a batch's (T, 1, N) rows against (B, N)
    profiles, or (R, N) rows with a profile each. See :func:`slot_piece` for
    ``fleet.cum_capacities``.
    """
    d, k = slot_piece(fleet.cum_capacities, dot(eps, c))
    slope, cost = fleet.rewards[k], fleet.prefix_costs[k]
    # (T, B) candidate batches are large: free each temporary as early as
    # possible and work in place, so no more than four are alive at once.
    del k
    cost += slope * d
    del d
    cost -= dot(prices, c)
    return cost, slope


def realized_cost(fleet: FleetSpec, programs: Sequence[ProgramSpec], profile, sample) -> float:
    """Cost of the slot under the optimal (greedy) machine deployment.

    ``sample`` must already hold effective load-reduction fractions, i.e.
    down-program components passed through :func:`effective_epsilon`. A
    non-finite profile or sample raises ``InvalidInputError``; a negative
    profile, or a profile or deployed total past the fleet capacity beyond the
    float guard, ``InfeasibleError``. The cost is :func:`slot_cost`'s, bit for bit.
    """
    c = as_vector(profile, "profile")
    eps = as_vector(sample, "sample")
    p = prices_of(programs)
    _check_sizes(c, eps, p)
    for name, x in (("profile", c), ("sample", eps)):
        if not all(map(math.isfinite, x.tolist())):
            raise InvalidInputError(f"{name} components must be finite, got {x}")
    _check_profile_feasible(c, fleet)
    _clamp_total(float(dot(eps, c)), fleet.total_capacity_mw)  # raises beyond the float guard
    return float(slot_cost(fleet, eps, p, c)[0])


def cost_fixed_k(
    fleet: FleetSpec, programs: Sequence[ProgramSpec], profile, sample, k_prime: int
) -> float:
    """Affine surrogate of the cost with the critical type pinned to k_prime.

    The realized cost is the pointwise maximum of these surrogates over
    k_prime in [1..K], which is what makes it convex.
    """
    if not 1 <= k_prime <= fleet.n_types:
        raise InvalidInputError(
            f"k_prime must be in [1, {fleet.n_types}], got {k_prime}"
        )
    c = as_vector(profile, "profile")
    eps = as_vector(sample, "sample")
    p = prices_of(programs)
    _check_sizes(c, eps, p)
    k = k_prime - 1
    return float(fleet.prefix_costs[k] + fleet.rewards[k] * float(dot(eps, c)) - dot(p, c))


def realized_cost_batch(
    fleet: FleetSpec, prices: np.ndarray, eps: np.ndarray, profile
) -> np.ndarray:
    """Vectorized :func:`realized_cost` over many effective samples.

    ``eps`` has shape (S, N); validation is the caller's job (hot path for
    the Monte Carlo oracles).
    """
    return slot_cost(fleet, eps, prices, as_vector(profile, "profile"))[0]


class FleetStack:
    """The tables of several fleets as rows of (F, K) arrays, by ascending reward.

    Cumulative capacities and prefix costs come from
    :func:`~minerflex.fleet.fleet_tables`, column by column, so row f holds
    fleet f's :class:`FleetSpec` tables bit for bit.
    """

    def __init__(self, rewards: np.ndarray, capacities: np.ndarray, tables=None):
        self.rewards, self.capacities = np.ascontiguousarray(rewards), np.ascontiguousarray(capacities)
        tables = tables or map(np.column_stack, fleet_tables(self.rewards.T, self.capacities.T))
        self.cum_capacities, self.prefix_costs = tables

    def select(self, rows) -> "FleetStack":
        """The stack of the fleets in ``rows`` (an index array or a slice): tables selected, not recomputed."""
        return FleetStack(self.rewards[rows], self.capacities[rows], (self.cum_capacities[rows], self.prefix_costs[rows]))


class SlotBatch(FleetStack):
    """Per-slot fleet tables, effective rates and prices for vectorized costs.

    Built from (T, K) fleet tables and (T, N) columns, as
    :func:`minerflex.traces.slot_batch` builds it; ``cap`` is slot 0's exact
    capacity sum. ``quoted_prices`` are the prices as given; ``eps`` (the
    effective ``raw_eps``) and ``prices`` are zeroed where ``missing``.
    """

    def __init__(self, rewards, capacities, prices, raw_eps, down, missing):
        # C order keeps every sum over slots sequential, whatever layout the caller left
        prices, raw_eps, down, missing = map(np.ascontiguousarray, (prices, raw_eps, down, missing))
        T, n = raw_eps.shape
        if T == 0 or {prices.shape, down.shape, missing.shape} != {(T, n)} or not len(rewards) == len(capacities) == T:
            raise InvalidInputError("slot tables need at least one round and one row per round")
        super().__init__(rewards, capacities)
        self.T, self.n, self.cap = T, n, math.fsum(capacities[0])
        totals = self.cum_capacities[:, -1]
        off = np.flatnonzero(np.abs(totals - self.cap) > 1e-6 * max(1.0, self.cap))
        if off.size:
            raise InvalidInputError(f"round {off[0]}: fleet capacity {totals[off[0]]} != cap {self.cap}")
        if not np.all((raw_eps >= 0.0) & (raw_eps <= 1.0)):
            raise InvalidInputError("epsilon components must lie in [0,1]")
        self.quoted_prices, self.raw_eps, self.down, self.missing = prices, raw_eps, down, missing
        self.eps = np.where(missing, 0.0, flip_down(raw_eps, down))
        self.prices = np.where(missing, 0.0, prices)

    def take(self, rows) -> "SlotBatch":
        """The batch of the selected slots, in order."""
        tables = (self.rewards, self.capacities, self.quoted_prices, self.raw_eps, self.down, self.missing)
        return SlotBatch(*(table[rows] for table in tables))

    def cost_and_subgradient(self, rows, c: np.ndarray):
        """(R,) costs and (R, N) subgradients r_k eps - p of R slots, one profile per slot.

        ``rows`` is an index array or a slice (one slot t is ``slice(t, t + 1)``,
        every slot ``slice(None)``) and ``c`` the (R, N) profiles, or one (N,)
        profile for every slot, costed by :func:`slot_cost` on the selected fleets.
        """
        eps, prices = self.eps[rows], self.prices[rows]
        cost, slope = slot_cost(self.select(rows), eps, prices, c)
        return cost, slope[:, None] * eps - prices

    def totals(self, points: np.ndarray):
        """(P,) total costs and (P, N) subgradients at (P, N) profiles, from one :func:`slot_cost` pass.

        It is :func:`~minerflex.cutting.minimize`'s ``evaluate``. Each point sums its subgradient
        over its own (T, N) block: a (T, P, N) sum would reduce in another order where N = 1.
        """
        cost, slope = slot_cost(self, self.eps[:, None], self.prices[:, None], points)
        return cost.sum(axis=0), np.array([(r[:, None] * self.eps - self.prices).sum(axis=0) for r in slope.T])
