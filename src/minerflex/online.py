"""Online gradient descent over sequentially revealed slot costs.

Protocol per round: commit a profile, then observe (eps, r, p), suffer the
realized cost, and update with the exact subgradient of that round's cost at
the committed point. A bank of independent learners keyed by hour of day
captures the strong diurnal structure of ancillary prices; static regret is
always measured against the single best fixed profile in hindsight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deployment import Profile, SlotBatch, project_simplex
from .errors import InvalidInputError
from .sgd import default_diameter, default_grad_bound


@dataclass(frozen=True)
class OgdConfig:
    """Step-size constants and learner-bank size for the online run.

    ``cap`` bounds the feasible set; ``diameter`` and ``grad_bound`` feed the
    D/(G sqrt(t)) schedule and normally come from :meth:`from_bounds`.
    """

    horizon: int
    grad_bound: float
    diameter: float
    cap: float
    learners: int = 24

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidInputError(f"horizon must be >= 1, got {self.horizon}")
        if min(self.grad_bound, self.diameter, self.cap) <= 0:
            raise InvalidInputError("grad_bound, diameter and cap must be positive")
        if self.learners < 1:
            raise InvalidInputError(f"learners must be >= 1, got {self.learners}")

    @classmethod
    def from_bounds(
        cls,
        horizon: int,
        n_programs: int,
        cap: float,
        r_max: float,
        p_max: float,
        learners: int = 24,
    ) -> "OgdConfig":
        return cls(
            horizon=horizon,
            grad_bound=default_grad_bound(n_programs, r_max, p_max),
            diameter=default_diameter(n_programs, cap),
            cap=cap,
            learners=learners,
        )


@dataclass(frozen=True)
class RegretReport:
    static_regret: float
    average_regret: float
    hindsight_profile: Profile
    bound: float


def regret_bound(T: int, N: int, cap: float, r_max: float, p_max: float) -> float:
    """Worst-case static regret (3/2) G D sqrt(T) of the step schedule."""
    if min(T, N) < 1 or min(cap, r_max, p_max) <= 0:
        raise InvalidInputError("all regret-bound arguments must be positive")
    g = default_grad_bound(N, r_max, p_max)
    d = default_diameter(N, cap)
    return 1.5 * g * d * math.sqrt(T)


def ogd_step(current, gradient, t: int, cfg: OgdConfig) -> Profile:
    """One projected descent step with eta_t = D / (G sqrt(t))."""
    if t < 1:
        raise InvalidInputError(f"round index must be >= 1, got {t}")
    c = np.asarray(getattr(current, "c", current), dtype=float)
    g = np.asarray(gradient, dtype=float)
    if not np.all(np.isfinite(g)):
        raise InvalidInputError("gradient must be finite")
    eta = cfg.diameter / (cfg.grad_bound * math.sqrt(t))
    return Profile(project_simplex(c - eta * g, cfg.cap))


def hindsight_optimum(batch: SlotBatch) -> Profile:
    """Best fixed profile over the whole sequence: multi-start subgradient descent, then a grid polish."""
    n, cap = batch.n, batch.cap
    starts = [np.zeros(n), np.full(n, cap / (2.0 * n))]
    starts += [cap * np.eye(n)[i] for i in range(n)]
    g_bound = math.sqrt(n) * max(float(batch.rewards.max()), float(batch.prices.max()), 1.0)
    d = default_diameter(n, cap)

    best_c, best_v = None, math.inf
    for start in starts:
        c = start.copy()
        for j in range(1, 601):
            g = batch.total_subgradient(c) / batch.T
            c = project_simplex(c - d / (g_bound * math.sqrt(j)) * g, cap)
            v = float(batch.total_costs(c[None, :])[0])
            if v < best_v:
                best_v, best_c = v, c.copy()

    if n <= 3:
        # Grid refinement: convexity keeps the minimizer within one cell of
        # the incumbent at each level, so shrinking boxes stay valid.
        pts = 17
        hw = cap / 4.0
        offsets = np.linspace(-1.0, 1.0, pts)
        mesh = np.stack(np.meshgrid(*([offsets] * n), indexing="ij"), axis=-1).reshape(-1, n)
        for _ in range(6):
            cand = best_c[None, :] + hw * mesh
            cand = project_simplex(cand, cap)
            vals = batch.total_costs(cand)
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_v, best_c = float(vals[i]), cand[i]
            hw *= 2.5 / (pts - 1)
    else:
        for _ in range(3):
            for i in range(n):
                grid = np.linspace(0.0, cap, 201)
                cand = np.repeat(best_c[None, :], grid.size, axis=0)
                cand[:, i] = grid
                cand = project_simplex(cand, cap)
                vals = batch.total_costs(cand)
                j = int(np.argmin(vals))
                if vals[j] < best_v:
                    best_v, best_c = float(vals[j]), cand[j]

    return Profile(best_c)


def run_online(
    batch: SlotBatch, cfg: OgdConfig, timestamps=None
) -> tuple[np.ndarray, np.ndarray, RegretReport]:
    """Play the whole sequence with per-hour learners and account regret.

    Rounds are keyed to learners by timestamp hour (mod bank size) or by
    round index when no timestamps are supplied. Each learner runs its own
    step-size clock over its own subsequence. Returns the (T, N) profiles
    played, the (T,) costs incurred and the regret report.
    """
    T, n = batch.T, batch.n
    if timestamps is not None and len(timestamps) != T:
        raise InvalidInputError("timestamps must match the number of rounds")
    if abs(batch.cap - cfg.cap) > 1e-6 * max(1.0, cfg.cap):
        raise InvalidInputError(f"batch capacity {batch.cap} != cap {cfg.cap}")

    states = [np.zeros(n) for _ in range(cfg.learners)]
    clocks = [0] * cfg.learners
    played, costs = np.empty((T, n)), np.empty(T)
    total_cost = 0.0
    for t in range(T):
        if timestamps is not None:
            h = timestamps[t].hour % cfg.learners
        else:
            h = t % cfg.learners
        c = states[h]
        cost, grad = batch.cost_and_subgradient(t, c)
        played[t], costs[t] = c, cost
        total_cost += cost
        clocks[h] += 1
        eta = cfg.diameter / (cfg.grad_bound * math.sqrt(clocks[h]))
        states[h] = project_simplex(c - eta * grad, cfg.cap)

    hindsight = hindsight_optimum(batch)
    hindsight_cost = float(batch.total_costs(hindsight.c[None, :])[0])
    static = total_cost - hindsight_cost
    report = RegretReport(
        static_regret=static,
        average_regret=static / T,
        hindsight_profile=hindsight,
        bound=1.5 * cfg.grad_bound * cfg.diameter * math.sqrt(T),
    )
    return played, costs, report


def per_round_costs(batch: SlotBatch, profile) -> np.ndarray:
    """Cost of holding one fixed profile in every round (for regret curves)."""
    c = np.asarray(getattr(profile, "c", profile), dtype=float)
    return batch.costs_for(c[None, :])[:, 0]
