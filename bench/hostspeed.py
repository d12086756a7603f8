"""Wall time corrected for the host's speed while a job ran.

On small shared hosts the same job can run at two speeds. Another tenant
on the same physical core can slow everything by up to 2x for stretches
of seconds to minutes, and neither CPU time nor steal time shows it. A
median over a few multi-second jobs then swings by 20-30% between runs.

``SpeedProbe`` times a fixed probe every ``INTERVAL_S`` of wall time from a
SIGALRM handler while a job runs. The probe is a few steps of a stochastic
subgradient loop on tiny numpy arrays, the same mix as minerflex's solvers.
It runs twice and the second, warm run is timed, so the job's own cache
footprint does not leak into the estimate. Each interval of process CPU
time between probes is rescaled by ``REFERENCE_S / probe time``. The sum is
the job's time at the reference speed: its duration had it kept a core at
that speed to itself. CPU time rather than wall time leaves out stretches
in which another process on the machine held the core.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# The warm probe's duration on an uncontended core of the 2-vCPU host the
# benchmark was built on. Any fixed value works: it only sets the scale.
REFERENCE_S = 125e-6

_EPS = np.random.default_rng(0).random((64, 2))
_CUM = np.array([100.0, 250.0])
_REWARDS = np.array([1.0, 2.0, 3.0])


def _work() -> None:
    rng = np.random.default_rng(1)
    c = np.array([10.0, 20.0])
    for j in range(1, 6):
        eps = _EPS[rng.integers(0, 64, 8)]
        k = np.searchsorted(_CUM, eps @ c)
        grad = (_REWARDS[k][:, None] * eps).mean(axis=0) - 0.5
        c = np.clip(c - grad / math.sqrt(j), 0.0, 250.0)


def probe() -> float:
    """Duration of one warm run of a fixed unit of solver-like work."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def reference_time(start: float, end: float, samples: list[tuple[float, float]]) -> float:
    """Rescale the CPU-time span [start, end] by probe times ``(taken_at, seconds)``.

    The interval that ends at a sample uses that sample; the tail after the
    last sample uses the last one. Without samples the span stands as it is.
    """
    if not samples:
        return end - start
    edges = [start, *(t for t, _ in samples), end]
    speeds = [REFERENCE_S / p for _, p in samples]
    speeds.append(speeds[-1])
    return sum((hi - lo) * s for lo, hi, s in zip(edges, edges[1:], speeds))


class SpeedProbe:
    """Context manager: samples the probe while the ``with`` body runs."""

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start, self.start_cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end, self.end_cpu = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.process_time(), probe()))

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.end_cpu - self.start_cpu

    @property
    def reference_s(self) -> float:
        return reference_time(self.start_cpu, self.end_cpu, self.samples)
