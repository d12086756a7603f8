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

from .config import at_least
from .deployment import as_vector, capped_breaks, flip_down, project_simplex, project_simplex_list
from .errors import InvalidInputError
from .fleet import FleetSpec
from .programs import ProgramSpec, prices_of


@dataclass(frozen=True)
class SgdConfig:
    iterations: int
    batch: int = 10
    seed: int = 0

    def __post_init__(self):
        at_least(self.iterations, "iterations", 1, integer=True)
        at_least(self.batch, "batch", 1, integer=True)


@dataclass(frozen=True)
class SgdResult:
    profile: np.ndarray
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
    at_least(j, "iteration index", 1)
    at_least(diameter, "diameter", strict=True)
    at_least(grad_bound, "grad_bound", strict=True)
    return diameter / (grad_bound * math.sqrt(j))


def suboptimality_bound(
    iterations: int, n_programs: int, max_reward: float, max_price: float, cap: float
) -> float:
    """Expected-cost gap guarantee of the averaged iterate: 3 D G / (2 sqrt(J))."""
    d = default_diameter(n_programs, cap)
    g = default_grad_bound(n_programs, max_reward, max_price)
    return 3.0 * d * g / (2.0 * math.sqrt(iterations))


def project_feasible(point, cap: float) -> np.ndarray:
    """Project an arbitrary point onto the feasible capacity set; the result is read-only."""
    c = project_simplex(as_vector(point, "point"), at_least(cap, "cap"))
    c.setflags(write=False)
    return c


def _subgradient(rewards, breaks, eps: np.ndarray, c: list) -> list:
    """Row sums of r_k eps over the (B, N) sample rows of eps at the profile c, as N floats.

    ``breaks`` are the fleet's :func:`~minerflex.deployment.capped_breaks`, so
    each row's piece is :func:`~minerflex.deployment.slot_piece`'s, and ``c``
    is a list of N floats. The subgradient r_k eps - p averages the sums: its
    division and price subtraction are left to the caller, as IEEE operations
    on Python floats. Only the batch rows take numpy calls: the row dot, whose
    BLAS rounding decides the piece, one search and one sum over the rows.
    """
    # the row dot and its pieces stay (B, 1) columns, which broadcast against eps
    k = breaks.searchsorted(eps @ np.array(c)[:, None])
    return np.add.reduce(rewards[k] * eps, axis=0).tolist()


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
    if not np.isfinite(eps).all():
        raise InvalidInputError(f"samples must be finite, got {eps}")
    sums = _subgradient(fleet.rewards, capped_breaks(fleet.cum_capacities), eps, c.tolist())
    return np.array([s / len(eps) - q for s, q in zip(sums, p.tolist())])


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
    is one such call, and also takes its step sizes in one numpy call and
    adds its iterates into the running sum in one ``cumsum``. Down-program
    components are direction-flipped here before the subgradient is formed.
    Starts from c = 0 (no participation). Where every reward and price is
    zero, so is every subgradient: the profile stays at 0, with bound 0.
    """
    n = len(programs)
    if n == 0:
        raise InvalidInputError("need at least one program")
    p = prices_of(programs)
    down = np.array([spec.direction == "down" for spec in programs])
    cap = fleet.total_capacity_mw
    grad_bound = default_grad_bound(n, float(fleet.rewards[-1]), float(p.max()))
    num = default_diameter(n, cap) / grad_bound if grad_bound else 0.0
    rng = np.random.default_rng(config.seed)
    rewards, breaks, prices, b = fleet.rewards, capped_breaks(fleet.cum_capacities), p.tolist(), config.batch
    # The N-long profile and step are Python floats, with numpy's elementwise
    # IEEE operations in numpy's order, so per iteration only _subgradient's
    # batch-row work pays numpy's per-call cost; the rest is paid per block.
    c = [0.0] * n
    acc = np.zeros(n)
    trajectory: list[np.ndarray] | None = [np.zeros(n)] if record_trajectory else None
    for j0 in range(1, config.iterations + 1, _DRAW_CHUNK):
        j1 = min(j0 + _DRAW_CHUNK, config.iterations + 1)
        block = _shaped(sampler(rng, (j1 - j0, b)), (j1 - j0, b, n))
        # (D/G)/sqrt(j), not step_size's D/(G sqrt(j)): on the shipped
        # parametric fleet the two round apart in 2,598 of the first 10,000
        # steps, so switching would change every solve's bits. numpy's sqrt
        # and division round correctly, as math.sqrt and Python's do.
        steps = (num / np.sqrt(np.arange(j0, j1, dtype=float))).tolist()
        iterates = [acc]
        for eps, step in zip(flip_down(block, down) if down.any() else block, steps):
            iterates.append(c)
            sums = _subgradient(rewards, breaks, eps, c)
            c = project_simplex_list([x - step * (s / b - q) for x, s, q in zip(c, sums, prices)], cap)
            if trajectory is not None:
                trajectory.append(np.array(c))
        # the iterates' running sum, one add per iterate in iteration order
        acc = np.cumsum(iterates, axis=0)[-1]
    bound = suboptimality_bound(
        config.iterations, n, float(fleet.rewards[-1]), float(p.max()), cap
    )
    profile = acc / config.iterations
    profile.setflags(write=False)
    return SgdResult(profile=profile, bound=bound, trajectory=trajectory)
