"""Ancillary-service program descriptions and deployment-rate models.

A program pays ``price`` $/MWh on committed capacity and, when deployed,
forces a load adjustment in its ``direction``: "up" programs reduce
consumption by eps * c, "down" programs hold headroom c and end up reducing
consumption by (1 - eps) * c. Deployment-rate models expose
``mean() / variance() / sample(rng, size)`` over eps in [0, 1], except the
price-responsive model, whose deployment follows the real-time price.

A sampled model is a transform of uniform doubles: it takes ``width`` of
them per value (1, or 0 for a constant), and ``sample(rng, size)`` is
``from_uniform(rng.random(size))``. Joint samplers are built the same way
(see :class:`Sampler`), which lets a solver draw many calls' worth of
uniforms in one ``rng.random`` block and get the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .config import finite
from .errors import InvalidInputError

DIRECTIONS = ("up", "down")
EPS_KINDS = ("truncexp", "bernoulli", "constant", "uniform", "price_responsive")

# Below this rate the truncated-exponential closed forms hit catastrophic
# cancellation; switch to series expansions (error O(lambda^5) for the mean,
# O(lambda^4) for the variance, far below the 1e-9 acceptance tolerance).
_SERIES_LAMBDA = 1e-4
# math.expm1 overflows past lam = log(DBL_MAX), about 709.78; the mean switches a little below
_EXPM1_LAMBDA = 700.0


@dataclass(frozen=True)
class ProgramSpec:
    id: str
    price: float
    direction: str = "up"
    eps_model: object | None = None

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise InvalidInputError(
                f"program {self.id!r}: direction must be one of {DIRECTIONS}"
            )
        if not math.isfinite(self.price):
            raise InvalidInputError(f"program {self.id!r}: price must be finite, got {self.price}")
        if self.price < 0:
            raise InvalidInputError(
                f"program {self.id!r}: price must be >= 0, got {self.price}"
            )


def check_program_ids(ids: Iterable[str]) -> None:
    """Raise ``InvalidInputError`` at the first program id that repeats or holds a control character.

    A control character is one below U+0020, or U+007F. Ids name CSV columns
    and cells, where a bare carriage return is written unquoted and the file
    would not read back.
    """
    seen = set()
    for pid in ids:
        if any(ch < " " or ch == "\x7f" for ch in pid):
            raise InvalidInputError(f"program id {pid!r} holds a control character")
        if pid in seen:
            raise InvalidInputError(f"duplicate program id {pid!r}")
        seen.add(pid)


def directions_of(programs: Sequence[ProgramSpec]) -> tuple[str, ...]:
    return tuple(p.direction for p in programs)


def prices_of(programs: Sequence[ProgramSpec]) -> np.ndarray:
    return np.array([p.price for p in programs], dtype=float)


class _SampledEps:
    """Base of the sampled models: each maps ``width`` uniform doubles to one value.

    ``sample(rng, size)`` is ``from_uniform(rng.random(size))``, a float for
    ``size=None``; a width-0 model draws nothing.
    """

    width: ClassVar[int]

    def sample(self, rng: np.random.Generator, size=None):
        u = rng.random(size) if self.width else np.zeros(() if size is None else size)
        x = self.from_uniform(u)
        return float(x) if size is None else x


@dataclass(frozen=True)
class BernoulliEps(_SampledEps):
    """All-or-nothing deployment: eps = 1 with probability ``prob``."""

    prob: float
    width: ClassVar[int] = 1

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise InvalidInputError(f"prob must be in [0,1], got {self.prob}")

    def mean(self) -> float:
        return self.prob

    def variance(self) -> float:
        return self.prob * (1.0 - self.prob)

    def from_uniform(self, u):
        # 1.0 or 0.0; a float u stays a Python float, an array a float64 array
        return (u < self.prob) * 1.0


@dataclass(frozen=True)
class ConstantEps(_SampledEps):
    value: float
    width: ClassVar[int] = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidInputError(f"value must be in [0,1], got {self.value}")

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def from_uniform(self, u):
        """``value`` in the shape of ``u``, whose entries are not read."""
        return np.full(np.shape(u), self.value)


@dataclass(frozen=True)
class UniformEps(_SampledEps):
    lo: float = 0.0
    hi: float = 1.0
    width: ClassVar[int] = 1

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise InvalidInputError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def from_uniform(self, u):
        # Generator.uniform's own formula, so sample() keeps its stream and bits
        return self.lo + (self.hi - self.lo) * u


def truncexp_mean(lam: float) -> float:
    """Mean of the exponential of rate ``lam`` >= 0 truncated to [0, 1]; ``lam`` is not validated.

    :meth:`TruncatedExponential.mean` for callers that hold a checked rate;
    ``lam`` = 0 gives the uniform limit 1/2.
    """
    if lam < _SERIES_LAMBDA:
        return 0.5 - lam / 12.0 + lam**3 / 720.0
    if lam < _EXPM1_LAMBDA:
        return 1.0 / lam - 1.0 / math.expm1(lam)
    # 1/(e^lam - 1) = e^-lam / (1 - e^-lam), which cannot overflow
    return 1.0 / lam - math.exp(-lam) / -math.expm1(-lam)


@dataclass(frozen=True)
class TruncatedExponential(_SampledEps):
    """Exponential distribution truncated to [0, 1] with rate ``lam``."""

    lam: float
    width: ClassVar[int] = 1

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise InvalidInputError(f"lam must be a positive finite real, got {self.lam}")

    def pdf(self, x):
        """Density lam * exp(-lam x) / (1 - exp(-lam)), zero outside [0, 1]."""
        x = np.asarray(x, dtype=float)
        dens = self.lam * np.exp(-self.lam * x) / -math.expm1(-self.lam)
        out = np.where((x >= 0.0) & (x <= 1.0), dens, 0.0)
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        return truncexp_mean(self.lam)

    def variance(self) -> float:
        # The closed form cancels catastrophically for small rates (three
        # O(1/lam^2) terms nearly annihilate), so the series branch extends
        # well past the mean's switch point.
        lam = self.lam
        if lam < 0.05:
            return 1.0 / 12.0 - lam**2 / 240.0 + lam**4 / 6048.0 - lam**6 / 172800.0
        ex2 = (2.0 / lam**2 - math.exp(-lam) * (1.0 + 2.0 / lam + 2.0 / lam**2)) / -math.expm1(-lam)
        return ex2 - self.mean() ** 2

    def from_uniform(self, u):
        """Inverse CDF: x = -log(1 - u (1 - e^-lam)) / lam."""
        return -np.log1p(u * math.expm1(-self.lam)) / self.lam


def fit_lambda(target_mean: float) -> float:
    """Rate whose truncated-exponential mean equals ``target_mean``.

    The mean decreases strictly from 1/2 (lam -> 0) to 0 (lam -> inf), so
    bisection converges; targets at or above 1/2 are infeasible.
    """
    if not 0.0 < target_mean < 0.5:
        raise InvalidInputError(
            f"target mean must lie in (0, 0.5), got {target_mean}"
        )
    lo, hi = 1e-12, 1.0
    while truncexp_mean(hi) > target_mean:
        hi *= 2.0
        if hi > 1e9:
            raise InvalidInputError(f"no rate reaches mean {target_mean}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = truncexp_mean(mid)
        if abs(m - target_mean) <= 1e-12:
            return mid
        if m > target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PriceResponsiveModel:
    """All-or-nothing deployment triggered by the real-time price (no ``sample``)."""

    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise InvalidInputError(f"threshold must be finite, got {self.threshold}")


def price_responsive_eps(model: PriceResponsiveModel, rt_price: float) -> float:
    """1.0 when the real-time price strictly exceeds the threshold, else 0.0."""
    return 1.0 if rt_price > model.threshold else 0.0


def parse_eps_model(cfg: dict):
    """Deployment-rate model from a ``{"kind": ..., <params>}`` config block."""
    kind = cfg.get("kind")

    def number(key, default=None):
        return finite(cfg[key] if default is None else cfg.get(key, default), f"eps.{key}")

    if kind == "truncexp":
        lam = number("lambda") if "lambda" in cfg else fit_lambda(number("mean"))
        return TruncatedExponential(lam)
    if kind == "bernoulli":
        return BernoulliEps(number("prob"))
    if kind == "constant":
        return ConstantEps(number("value"))
    if kind == "uniform":
        return UniformEps(number("lo", 0.0), number("hi", 1.0))
    if kind == "price_responsive":
        return PriceResponsiveModel(number("threshold"))
    raise InvalidInputError(f"unknown eps model kind {kind!r}; expected one of {EPS_KINDS}")


class Sampler:
    """Raw deployment vectors as a transform of ``width`` uniform doubles per vector.

    ``from_uniform(u)`` maps a (..., width, B) block of uniforms to (..., B, N)
    raw rates. ``sampler(rng, B)`` is ``from_uniform(rng.random((width, B)))``,
    a (B, N) array, and ``sampler(rng, (m, B))`` draws one
    ``rng.random((m, width, B))`` block: the generator stream of m calls of
    size B, value for value.
    """

    def __init__(self, width: int, from_uniform: Callable[[np.ndarray], np.ndarray]):
        self.width = width
        self.from_uniform = from_uniform

    def __call__(self, rng: np.random.Generator, size: int | tuple[int, int]) -> np.ndarray:
        *lead, batch = np.atleast_1d(size).tolist()
        return self.from_uniform(rng.random((*lead, self.width, batch)))


def program_sampler(programs: Sequence[ProgramSpec], joint=None) -> Sampler:
    """Joint raw-deployment sampler over all programs, honoring a reg pair.

    ``joint`` is an (up index, down index, joint model) pair or None. The
    pair's uniforms come first; then each other program's model reads the
    next ``width`` rows, in program order: the stream of one
    ``model.sample(rng, size)`` call per program. Every program outside the
    pair must carry an ``eps_model`` that can be sampled without real-time
    prices.
    """
    rest = [i for i in range(len(programs)) if joint is None or i not in joint[:2]]
    models = [programs[i].eps_model for i in rest]
    for i, m in zip(rest, models):
        if m is None or isinstance(m, PriceResponsiveModel):
            raise InvalidInputError(
                f"program {programs[i].id!r} has no sampled eps_model attached "
                "(price_responsive deployment needs real-time prices from traces)"
            )
    head = 0 if joint is None else joint[2].width
    rows = head + np.cumsum([0] + [m.width for m in models])

    def from_uniform(u: np.ndarray) -> np.ndarray:
        out = np.zeros((*u.shape[:-2], u.shape[-1], len(programs)))
        if joint is not None:
            pair = joint[2].from_uniform(u[..., :head, :])
            out[..., joint[0]] = pair[..., 0]
            out[..., joint[1]] = pair[..., 1]
        for i, m, row in zip(rest, models, rows):
            # a width-0 model reads only the shape of the column it fills
            out[..., i] = m.from_uniform(u[..., row, :] if m.width else out[..., i])
        return out

    return Sampler(int(rows[-1]), from_uniform)
