"""Online gradient descent over sequentially revealed slot costs.

Protocol per round: commit a profile, then observe (eps, r, p), suffer the
realized cost, and update with the exact subgradient of that round's cost at
the committed point. A bank of independent learners, keyed by the caller
(by hour of day on the command line), plays the rounds; static regret is
always measured against the single best fixed profile in hindsight. That
profile is exact: the total cost is polyhedral in the profile, so a
cutting-plane solve finds its minimum and certifies it with a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutting import Optimum, minimize
from .deployment import SlotBatch, project_simplex
from .errors import InvalidInputError
from .sgd import default_diameter, default_grad_bound, step_size


@dataclass(frozen=True)
class OgdConfig:
    """Step-size constants and learner-bank size for the online run.

    ``cap`` bounds the feasible set; ``diameter`` and ``grad_bound`` feed the
    D/(G sqrt(t)) schedule and normally come from :meth:`from_bounds`.
    """

    grad_bound: float
    diameter: float
    cap: float
    learners: int = 24

    def __post_init__(self):
        if min(self.grad_bound, self.diameter, self.cap) <= 0:
            raise InvalidInputError("grad_bound, diameter and cap must be positive")
        if self.learners < 1:
            raise InvalidInputError(f"learners must be >= 1, got {self.learners}")

    @classmethod
    def from_bounds(
        cls,
        n_programs: int,
        cap: float,
        r_max: float,
        p_max: float,
        learners: int = 24,
    ) -> "OgdConfig":
        return cls(
            grad_bound=default_grad_bound(n_programs, r_max, p_max),
            diameter=default_diameter(n_programs, cap),
            cap=cap,
            learners=learners,
        )

    def regret_bound(self, rounds: int) -> float:
        """Worst-case static regret (3/2) G D sqrt(T) of the step schedule over T rounds."""
        return 1.5 * self.grad_bound * self.diameter * math.sqrt(rounds)


@dataclass(frozen=True)
class RegretReport:
    static_regret: float
    average_regret: float
    hindsight: Optimum
    bound: float


def hindsight_optimum(batch: SlotBatch) -> Optimum:
    """Best fixed profile over the whole sequence, its total cost and its certified optimality gap.

    The total cost F(c) = sum_t max_k(prefix_tk + r_tk eps_t.c) - p_t.c is
    convex and polyhedral, so the cutting-plane core minimizes it exactly.
    """
    return minimize(batch.totals, batch.n, batch.cap)


def hour_optima(batch: SlotBatch, hours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each hour's best fixed profile over its own slots, with its certified gap.

    Row h of the (24, N) profiles is :func:`hindsight_optimum` of the slots t
    with ``hours[t] == h``, and entry h of the (24,) gaps its certificate. An
    hour without a slot holds the pooled optimum, :func:`hindsight_optimum` of
    the whole batch (solved only when some hour is empty), with a NaN gap.
    """
    profiles, gaps = np.empty((24, batch.n)), np.full(24, np.nan)
    empty = np.bincount(hours, minlength=24) == 0
    for h in np.flatnonzero(~empty).tolist():
        profiles[h], _, gaps[h] = hindsight_optimum(batch.take(np.flatnonzero(hours == h)))
    if empty.any():
        profiles[empty] = hindsight_optimum(batch).point
    return profiles, gaps


def play_bank(batch: SlotBatch, cfg: OgdConfig, keys=None) -> tuple[np.ndarray, np.ndarray, float]:
    """The (T, N) profiles the learner bank plays, the (T,) costs it incurs and its regret bound.

    Round t plays learner ``keys[t] % cfg.learners`` for (T,) integer
    ``keys``, or ``t % cfg.learners`` without them. Each learner runs its own
    step-size clock over its own subsequence, so the bound is the
    :func:`math.fsum` of :meth:`OgdConfig.regret_bound` over the learners that
    play, each at its own round count.

    Learners step in waves: wave j holds every learner's j-th round, so one
    step size serves the whole wave. Within a wave, learners go by falling
    round count (then index); the learners still active in wave j are then
    the first ones of that ranking, so each wave's iterates are a leading
    block of rows, costed by :meth:`SlotBatch.cost_and_subgradient` and
    projected as one block. Every slot's arithmetic is the same as stepping
    its learner alone, whatever the bank size and keys.
    """
    if keys is not None and len(keys) != batch.T:
        raise InvalidInputError(f"keys must match the number of rounds: {len(keys)} != {batch.T}")
    if abs(batch.cap - cfg.cap) > 1e-6 * max(1.0, cfg.cap):
        raise InvalidInputError(f"batch capacity {batch.cap} != cap {cfg.cap}")

    T, n = batch.T, batch.n
    learner = (np.arange(T) if keys is None else np.asarray(keys)) % cfg.learners
    counts = np.bincount(learner)  # only learners that play are indexed
    # step[t]: how many rounds round t's learner has played before it
    step = np.empty(T, dtype=int)
    step[np.argsort(learner, kind="stable")] = np.arange(T) - np.repeat(np.cumsum(counts) - counts, counts)
    # the slots wave by wave, read from the batch in place (a wave-ordered copy of the
    # batch raised peak memory): a wave whose slots rise by one stride, as the waves of
    # an hour-aligned trace and of block-keyed runs do, as a slice, any other by index
    order = np.lexsort((learner, -counts[learner], step))
    spacing = np.append(np.diff(order), 1)  # spacing[i]: slot order[i + 1] less slot order[i]
    uneven = np.diff(spacing) != 0

    states = np.zeros((np.count_nonzero(counts), n))
    played, costs = np.empty((T, n)), np.empty(T)
    start = 0
    for j, size in enumerate(np.bincount(step).tolist(), start=1):
        end = start + size
        even = spacing[start] > 0 and not uneven[start : end - 2].any()
        rows = slice(order[start], order[end - 1] + 1, spacing[start]) if even else order[start:end]
        c = states[:size]
        cost, grad = batch.cost_and_subgradient(rows, c)
        played[rows], costs[rows] = c, cost
        states[:size] = project_simplex(c - step_size(j, cfg.diameter, cfg.grad_bound) * grad, cfg.cap)
        start += size
    bound = math.fsum(cfg.regret_bound(rounds) for rounds in counts.tolist() if rounds)
    return played, costs, bound


def run_online(batch: SlotBatch, cfg: OgdConfig, keys=None) -> tuple[np.ndarray, np.ndarray, RegretReport]:
    """:func:`play_bank`'s played profiles and costs, with the :func:`regret_report` of its bound."""
    played, costs, bound = play_bank(batch, cfg, keys)
    return played, costs, regret_report(batch, costs, bound)


def regret_report(batch: SlotBatch, costs: np.ndarray, bound: float) -> RegretReport:
    """Static regret of the (T,) ``costs`` played over ``batch`` against its best fixed profile.

    The comparator is :func:`hindsight_optimum` of ``batch``; the costs are
    summed in round order, as a running total would sum them.
    """
    hindsight = hindsight_optimum(batch)
    # re-costed, not hindsight.value: where the best point is a starting vertex, that
    # value is a column of a (T, P) sum and can differ from the (T, 1) sum in the last bit
    static = float(np.cumsum(costs)[-1]) - float(batch.totals(hindsight.point[None, :])[0][0])
    return RegretReport(static_regret=static, average_regret=static / batch.T, hindsight=hindsight, bound=bound)


def per_round_costs(batch: SlotBatch, c: np.ndarray) -> np.ndarray:
    """(T,) costs of holding the one fixed (N,) profile ``c`` in every round (for regret curves)."""
    return batch.cost_and_subgradient(slice(None), c)[0]
