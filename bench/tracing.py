"""In-memory span tracing of minerflex's public functions, from the outside.

The benchmark never edits the package. Instead it rebinds each traced
function, at every module attribute that refers to it, to a wrapper that
records a span (name, start, end, parent, job) and optional counters.
``Tracer.installed`` undoes every rebinding on exit, so an untraced job
after a traced one runs the original code.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr``, recorded as span ``name``.

    ``name`` may be a callable of the call's ``(args, kwargs)``, for
    functions whose span name depends on the call (``cli.main``).
    ``count`` maps ``(args, kwargs, result)`` to extra counters.
    """

    module: str
    attr: str
    name: str | Callable = ""
    count: Callable | None = None

    @property
    def label(self):
        return self.name or f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Records spans in memory; one tracer serves one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        label = target.label

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.count is not None:
                span.counts = target.count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Rebind every alias of each target inside minerflex; restore on exit."""
        restore = rebind_all(targets, self.wrap)
        try:
            yield
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)


def rebind_all(targets, wrap):
    """Replace each target function at every binding in the minerflex package.

    Returns ``(module, attr, original)`` triples for restoring. A function
    imported under another name (``from .sgd import solve as sgd_solve``)
    is found by identity, so every caller sees the wrapper.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "minerflex" or name.startswith("minerflex."))]
    restore = []
    for target in targets:
        original = getattr(sys.modules[target.module], target.attr, None)
        if original is None:  # renamed or removed: its metrics read 0
            continue
        wrapper = wrap(original, target)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
    return restore


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, edge), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.duration - covered)
    return out


def aggregate(spans: list[Span], job: str | None = None) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and summed counters.

    With ``job`` given, only that job's spans count; self time is still
    taken over the whole list, where the parent indices point.
    """
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        if job is not None and span.job != job:
            continue
        row = stats[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        for key, value in span.counts.items():
            row[key] += value
    return {name: dict(row) for name, row in stats.items()}
