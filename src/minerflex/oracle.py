"""Brute-force and Monte Carlo references plus the strategy benchmark.

These paths deliberately avoid the analytic shortcuts used by the solvers:
the deployment oracle enumerates LP vertices instead of trusting the greedy
fill, and the grid optimizer estimates expected cost by simulation instead
of closed forms. They are slow by design and exist so every analytic
component can be arbitrated against an independent computation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .deployment import Profile, SlotBatch, as_vector, flip_down, realized_cost_batch
from .errors import InvalidInputError
from .fleet import FleetSpec, MachineType, canonicalize
from .online import hour_optima
from .programs import ProgramSpec, directions_of, prices_of
from .sgd import SgdConfig
from .sgd import solve as sgd_solve
from .traces import Traces, observed_slots, reward_matrix


@dataclass(frozen=True)
class GridSpec:
    points_per_axis: int
    mc_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise InvalidInputError(f"points_per_axis must be >= 2, got {self.points_per_axis}")
        if self.mc_samples < 1:
            raise InvalidInputError(f"mc_samples must be >= 1, got {self.mc_samples}")


@dataclass(frozen=True)
class GridMcResult:
    profile: Profile
    value: float
    stderr: float


STRATEGIES = ("optimized", "fixed_profile", "even_split", "none")


@dataclass(frozen=True)
class StrategyReport:
    """Mean hourly profit per strategy over the evaluated window.

    ``hour_gaps[h]`` is the certified optimality gap of hour h's profile (NaN
    for an hour without slots) and ``batch`` the evaluated slots.
    """

    mean_profit: dict[str, float]
    slot_profits: dict[str, np.ndarray]
    hour_profiles: np.ndarray
    hour_gaps: np.ndarray
    fixed_profile: np.ndarray
    timestamps: tuple
    batch: SlotBatch


def fixed_dot(a, b):
    """The oracles' own product rule: the last axis's products a * b, added left to right.

    Every product has the full broadcast shape, so the sum accumulates in place
    into the first (a fresh array), sparing a large temporary per term.
    """
    a, b = np.asarray(a), np.asarray(b)
    return reduce(operator.iadd, (a[..., i] * b[..., i] for i in range(min(a.shape[-1], b.shape[-1]))))


def lp_deployment_oracle(
    fleet: FleetSpec, programs: Sequence[ProgramSpec], profile, sample
) -> float:
    """Slot cost minimized by enumerating machine fill orders.

    Every vertex of the deployment LP fills some subset of types to capacity
    plus at most one partial type, so scanning all fill orders covers the
    optimum. Small fleets only.
    """
    if fleet.n_types > 6:
        raise InvalidInputError("vertex enumeration is limited to K <= 6")
    c = as_vector(profile, "profile")
    eps = as_vector(sample, "sample")
    p = prices_of(programs)
    total = float(fixed_dot(eps, c))
    # Python floats: the same IEEE operations as numpy scalars, without their per-operation cost
    caps = fleet.capacities.tolist()
    rewards = fleet.rewards.tolist()
    revenue = float(fixed_dot(p, c))
    best = math.inf
    for order in permutations(range(fleet.n_types)):
        remaining = total
        mining_loss = 0.0
        for k in order:
            d = min(remaining, caps[k])
            mining_loss += rewards[k] * d
            remaining -= d
        if remaining > 1e-9 * max(1.0, fleet.total_capacity_mw):
            raise InvalidInputError(f"deployment total {total} exceeds fleet capacity")
        best = min(best, mining_loss - revenue)
    return best


def draw_effective_samples(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    directions: Sequence[str],
    count: int,
    seed: int,
) -> np.ndarray:
    """Common-random-number sample block, direction-transformed."""
    rng = np.random.default_rng(seed)
    raw = np.asarray(sampler(rng, count), dtype=float)
    return flip_down(raw, np.asarray(directions) == "down")


def mc_expected_cost(
    fleet: FleetSpec, programs: Sequence[ProgramSpec], profile, eff_samples: np.ndarray
) -> tuple[float, float]:
    """(mean, standard error) of the realized cost over a sample block."""
    costs = realized_cost_batch(fleet, prices_of(programs), eff_samples, profile)
    n = costs.size
    return float(costs.mean()), float(costs.std(ddof=1) / math.sqrt(n))


def feasibility_grid(cap: float, n: int, points: int) -> np.ndarray:
    """Lexicographically ordered grid over the feasible capacity set."""
    axis = np.linspace(0.0, cap, points)
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    keep = mesh.sum(axis=1) <= cap * (1.0 + 1e-12)
    return mesh[keep]


def grid_mc_optimum(
    fleet: FleetSpec,
    programs: Sequence[ProgramSpec],
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    grid: GridSpec,
) -> GridMcResult:
    """Monte Carlo expected cost minimized over a dense feasibility grid.

    The same sample block scores every grid point (common random numbers),
    so the argmin is reproducible under a fixed seed; ties resolve to the
    lexicographically smallest profile by construction of the grid order.
    """
    n = len(programs)
    if n > 3:
        raise InvalidInputError("dense grids are limited to N <= 3 programs")
    cap = fleet.total_capacity_mw
    eff = draw_effective_samples(sampler, directions_of(programs), grid.mc_samples, grid.seed)
    points = feasibility_grid(cap, n, grid.points_per_axis)
    prices = prices_of(programs)

    # Mean cost via the hinge form r_1 d + sum_q (r_{q+1}-r_q) relu(d - B_q):
    # the linear part collapses to the sample-mean eps, so only the hinge
    # terms touch the big sample-by-point matrix. Blocks run in float32 with
    # float64 accumulation; the returned value is recomputed in full
    # precision at the argmin.
    r = fleet.rewards
    jumps = np.diff(r)
    breaks = fleet.cum_capacities[:-1]
    means = fixed_dot(float(r[0]) * eff.mean(axis=0) - prices, points)
    s, m = grid.mc_samples, points.shape[0]
    # Only samples that can reach the first break B_0 <= B_q enter the hinge
    # blocks. A grid point has x >= 0 and sum x <= cap (1 + 1e-12), so
    # eps.x <= cap max_i|eps_i| (1 + 1e-12). The float32 path rounds eps and x
    # (a factor 1 + u each, u = 2^-24), forms a dot of n <= 3 terms (a factor
    # 1 + gamma_3 < 1 + 3.01u in any order, fused or not) and compares it with
    # fl32(B_q) >= (1 - u) B_0. So a hinge can be positive only where
    # cap max|eps| (1 + 6.01u + 1e-12) > B_0, and the 1e-6 margin covers that
    # and the float64 rounding of the test. A NaN sample stays in; a fleet
    # without breaks has no hinge term and no live sample.
    reach = cap * (1.0 + 1e-6) * np.abs(eff).max(axis=1)
    live = eff[~(reach <= breaks[0])] if breaks.size else eff[:0]
    eff32 = live.astype(np.float32)
    # About 1M float32 entries per block: larger blocks only raise peak memory.
    # Each hinge is written into one buffer, a contiguous (live, b) view per
    # block. numpy sums a block of two or more columns row by row in sample
    # order, so the dropped exact zeros change no bit of a column sum, and the
    # blocks split the columns evenly so that none is a single column, which
    # numpy would sum pairwise. The sum is divided by all s samples, as `mean`
    # divides it.
    count = -(-m // max(16, 1_000_000 // max(len(live), 1)))  # blocks of at most that many columns
    edges = np.arange(count + 1) * m // count
    buffer = np.empty(len(live) * int(np.diff(edges).max()), dtype=np.float32)
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        deployed = eff32 @ points[lo:hi].T.astype(np.float32)
        hinge = buffer[: deployed.size].reshape(deployed.shape)
        for jump, brk in zip(jumps, breaks):
            np.subtract(deployed, np.float32(brk), out=hinge)
            np.maximum(hinge, np.float32(0.0), out=hinge)
            means[lo:hi] += float(jump) * (np.add.reduce(hinge, axis=0, dtype=np.float64) / s)

    best = int(np.argmin(means))
    value, stderr = mc_expected_cost(fleet, programs, points[best], eff)
    return GridMcResult(profile=Profile(points[best]), value=value, stderr=stderr)


# ── Strategy comparison ──────────────────────────────────────────────────


def _mean_reward_fleet(rewards: np.ndarray, fleet_config: Sequence[MachineType]) -> FleetSpec:
    """Fleet with each machine's reward averaged over the rows of ``rewards``.

    Works machine-by-machine (not through per-slot canonical fleets, which
    may merge types) so every configured machine keeps its identity. Rows
    add up in slot order.
    """
    means = np.add.accumulate(rewards, axis=0)[-1] / len(rewards)
    return canonicalize(
        MachineType(id=m.id, capacity_mw=m.capacity_mw, energy_intensity=m.energy_intensity, reward=float(r))
        for m, r in zip(fleet_config, means)
    )


def compare_strategies(
    traces: Traces,
    fleet_config: Sequence[MachineType],
    programs: Sequence[ProgramSpec],
    window: tuple | None = None,
    *,
    clamp_negative: bool = False,
    sgd_iterations: int = 2000,
    seed: int = 0,
) -> StrategyReport:
    """In-sample profit of four participation strategies on a trace window.

    Each hour of day gets its profile from :func:`~minerflex.online.hour_optima`
    on the window's fully observed slots (:func:`~minerflex.traces.observed_slots`).
    The fixed profile is pooled over all slots: :func:`~minerflex.sgd.solve` at
    the mean prices and mean rewards, drawing the window's raw deployment rows
    with replacement, with ``sgd_iterations`` iterations of 8 samples and
    ``seed``; or no participation or the even split where either costs less in
    sample.
    """
    traces, batch = observed_slots(traces, fleet_config, programs, window, clamp_negative)
    n, cap = len(programs), batch.cap
    fleet = _mean_reward_fleet(reward_matrix(traces, fleet_config, clamp_negative), fleet_config)
    # finite and >= 0: slot_batch rejects negative prices and prices whose slot costs overflow
    prices = np.mean(batch.prices, axis=0)
    pooled = [ProgramSpec(p.id, float(q), p.direction) for p, q in zip(programs, prices)]
    rows = batch.raw_eps
    # Bounded integers keep the spare 32-bit half of a 64-bit output in the
    # generator state, so an (m, B) index draw is the stream of m draws of B.
    # The config stays positional: the benchmark's iteration counter reads it.
    trained = sgd_solve(
        fleet, pooled, lambda rng, size: rows[rng.integers(0, len(rows), size)], SgdConfig(sgd_iterations, 8, seed)
    ).profile.c
    even = np.full(n, cap / n)
    candidates = np.array([trained, np.zeros(n), even])
    fixed = candidates[int(np.argmin(batch.totals(candidates)[0]))]

    hours = np.array([ts.hour for ts in traces.timestamps])
    hour_profiles, hour_gaps = hour_optima(batch, hours)
    per_slot = {
        name: 0.0 - batch.cost_and_subgradient(slice(None), c)[0]
        for name, c in (("optimized", hour_profiles[hours]), ("fixed_profile", fixed), ("even_split", even))
    }
    per_slot["none"] = np.zeros(len(traces))
    return StrategyReport(
        mean_profit={k: float(v.mean()) for k, v in per_slot.items()},
        slot_profits=per_slot,
        hour_profiles=hour_profiles,
        hour_gaps=hour_gaps,
        fixed_profile=fixed,
        timestamps=traces.timestamps,
        batch=batch,
    )
