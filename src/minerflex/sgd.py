"""Projected stochastic subgradient descent over the capacity simplex.

Minimizes E[cost(eps, c)] over {c >= 0, sum c <= C^M} with the standard
1/sqrt(j) step schedule. The returned profile is the running average of the
iterates, which carries the usual O(1/sqrt(J)) suboptimality guarantee
reported alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .deployment import Profile, as_vector, capped_breaks, flip_down, project_simplex, project_simplex_list
from .errors import InvalidInputError
from .fleet import FleetSpec
from .programs import ProgramSpec, prices_of


@dataclass(frozen=True)
class SgdConfig:
    iterations: int
    batch: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch < 1:
            raise InvalidInputError(f"batch must be >= 1, got {self.batch}")


@dataclass(frozen=True)
class SgdResult:
    profile: Profile
    bound: float
    trajectory: list[np.ndarray] | None = None


def default_diameter(n_programs: int, cap: float) -> float:
    """Diameter bound of the feasible region: cap for one program, else sqrt(2)*cap."""
    return cap if n_programs == 1 else math.sqrt(2.0) * cap


def default_grad_bound(n_programs: int, max_reward: float, max_price: float) -> float:
    """Crude bound on the subgradient 2-norm: sqrt(N) * max(r_K, p_max)."""
    return math.sqrt(n_programs) * max(max_reward, max_price)


def step_size(j: int, diameter: float, grad_bound: float) -> float:
    """Step alpha_j = D / (G * sqrt(j)) for iteration j >= 1."""
    if j < 1:
        raise InvalidInputError(f"iteration index must be >= 1, got {j}")
    if diameter <= 0 or grad_bound <= 0:
        raise InvalidInputError("diameter and grad_bound must be positive")
    return diameter / (grad_bound * math.sqrt(j))


def suboptimality_bound(
    iterations: int, n_programs: int, max_reward: float, max_price: float, cap: float
) -> float:
    """Expected-cost gap guarantee of the averaged iterate: 3 D G / (2 sqrt(J))."""
    d = default_diameter(n_programs, cap)
    g = default_grad_bound(n_programs, max_reward, max_price)
    return 3.0 * d * g / (2.0 * math.sqrt(iterations))


def project_feasible(point, cap: float) -> Profile:
    """Project an arbitrary point onto the feasible capacity set."""
    x = as_vector(point, "point")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"point must be finite, got {x}")
    if cap < 0:
        raise InvalidInputError(f"cap must be >= 0, got {cap}")
    return Profile(project_simplex(x, cap))


def _subgradient(rewards, breaks, prices: list, eps: np.ndarray, c: list) -> list:
    """Average subgradient r_k eps - p over the (B, N) sample rows of eps at the profile c.

    ``breaks`` are the fleet's :func:`~minerflex.deployment.capped_breaks`, so
    each row's piece is :func:`~minerflex.deployment.slot_piece`'s, and
    ``prices`` and ``c`` are lists of N floats, as is the result. Only the
    batch rows take numpy calls: the row dot, whose BLAS rounding decides the
    piece, one search and mean(axis=0)'s own sum. The division and the price
    subtraction are its IEEE operations on Python floats.
    """
    # the row dot and its pieces stay (B, 1) columns, which broadcast against eps
    k = breaks.searchsorted(eps @ np.array(c)[:, None])
    sums = np.add.reduce(rewards[k] * eps, axis=0).tolist()
    b = len(eps)
    return [s / b - q for s, q in zip(sums, prices)]


def sample_subgradient(
    fleet: FleetSpec, programs: Sequence[ProgramSpec], profile, samples
) -> np.ndarray:
    """Subgradient estimate of the expected cost at ``profile``.

    ``samples`` is a nonempty list of direction-transformed deployment
    samples (or an (M, N) array of effective rates).
    """
    if isinstance(samples, np.ndarray):
        eps = np.atleast_2d(np.asarray(samples, dtype=float))
    else:
        eps = np.array([as_vector(s, "sample") for s in samples], dtype=float)
    if eps.size == 0:
        raise InvalidInputError("samples must be nonempty")
    c = as_vector(profile, "profile")
    p = prices_of(programs)
    if eps.shape[1] != c.size or c.size != p.size:
        raise InvalidInputError(
            f"dimension mismatch: samples {eps.shape}, profile {c.size}, programs {p.size}"
        )
    for name, x in (("samples", eps), ("profile", c)):
        if not np.isfinite(x).all():
            raise InvalidInputError(f"{name} must be finite, got {x}")
    breaks = capped_breaks(fleet.cum_capacities)
    return np.array(_subgradient(fleet.rewards, breaks, p.tolist(), eps, c.tolist()))


# Iterations whose samples are drawn in one sampler call; drawing the
# whole run at once would hold an (iterations, B, N) sample block.
_DRAW_CHUNK = 64


def _shaped(samples, shape: tuple[int, ...]) -> np.ndarray:
    eps = np.asarray(samples, dtype=float)
    if eps.shape != shape:
        raise InvalidInputError(f"sampler returned shape {eps.shape}, expected {shape}")
    if not np.isfinite(eps).all():
        raise InvalidInputError("sampler returned non-finite deployment rates")
    return eps


def solve(
    fleet: FleetSpec,
    programs: Sequence[ProgramSpec],
    sampler: Callable[[np.random.Generator, int | tuple[int, int]], np.ndarray],
    config: SgdConfig,
    record_trajectory: bool = False,
) -> SgdResult:
    """Run projected stochastic subgradient descent, returning the iterate average.

    ``sampler(rng, size)`` draws i.i.d. raw deployment vectors of shape
    (*size, N) for an int or (m, B) ``size``, where one (m, B) call draws the
    generator stream of m calls of size B. Each block of up to 64 iterations
    is one such call. Down-program components are direction-flipped here
    before the subgradient is formed. Starts from c = 0 (no participation).
    """
    n = len(programs)
    if n == 0:
        raise InvalidInputError("need at least one program")
    p = prices_of(programs)
    down = np.array([spec.direction == "down" for spec in programs])
    cap = fleet.total_capacity_mw
    num = default_diameter(n, cap) / default_grad_bound(n, float(fleet.rewards[-1]), float(p.max()))
    rng = np.random.default_rng(config.seed)
    rewards, breaks, prices = fleet.rewards, capped_breaks(fleet.cum_capacities), p.tolist()
    # The N-long profile, step and average are Python floats, with numpy's
    # elementwise IEEE operations in numpy's order, so only _subgradient's
    # batch-row work pays numpy's per-call cost.
    c = [0.0] * n
    acc = [0.0] * n
    trajectory: list[np.ndarray] | None = [np.zeros(n)] if record_trajectory else None
    j = 0
    for start in range(0, config.iterations, _DRAW_CHUNK):
        m = min(_DRAW_CHUNK, config.iterations - start)
        block = _shaped(sampler(rng, (m, config.batch)), (m, config.batch, n))
        for eps in flip_down(block, down) if down.any() else block:
            j += 1
            acc = [a + x for a, x in zip(acc, c)]
            grad = _subgradient(rewards, breaks, prices, eps, c)
            # (D/G)/sqrt(j), not step_size's D/(G sqrt(j)): on the shipped
            # parametric fleet the two round apart in 2,598 of the first
            # 10,000 steps, so switching would change every solve's bits
            step = num / math.sqrt(j)
            c = project_simplex_list([x - step * g for x, g in zip(c, grad)], cap)
            if trajectory is not None:
                trajectory.append(np.array(c))
    average = np.array([a / config.iterations for a in acc])
    bound = suboptimality_bound(
        config.iterations, n, float(fleet.rewards[-1]), float(p.max()), cap
    )
    return SgdResult(profile=Profile(average), bound=bound, trajectory=trajectory)
