"""Tests of the benchmark's own helpers: python -m pytest bench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from hostspeed import REFERENCE_S, SpeedProbe, reference_time  # noqa: E402
from tracing import Span, Target, Tracer, aggregate, self_times  # noqa: E402
from workloads import JobResult  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, "j"),
        Span("a", 1.0, 4.0, 0, "j"),
        Span("a.inner", 2.0, 3.0, 1, "j"),
        Span("b", 5.0, 9.0, 0, "j"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("x", -1.0, 2.0, 0, None),
        Span("y", 1.0, 3.0, 0, None),
        Span("z", 9.0, 12.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 1.0)


def test_tracer_records_nesting_counts_and_per_job_aggregates():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda n: list(range(n)), Target("m", "inner", count=lambda a, k, r: {"rows": len(r)}))
    outer = tracer.wrap(lambda: inner(2) + inner(3), Target("m", "outer"))
    tracer.job = "job0"
    outer()
    tracer.job = "job1"
    inner(4)

    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("m.outer", None), ("m.inner", 0), ("m.inner", 0), ("m.inner", None)
    ]
    job0 = aggregate(tracer.spans, "job0")
    assert job0["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert job0["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "rows": 5}
    assert aggregate(tracer.spans, "job1")["m.inner"]["rows"] == 4


def test_rebinding_reaches_every_alias_and_restores_it():
    from minerflex import cli, oracle, sgd, verify

    original = sgd.solve
    aliases = [(sgd, "solve"), (oracle, "sgd_solve"), (cli, "sgd_solve"), (verify, "sgd_solve")]
    assert all(getattr(m, a) is original for m, a in aliases)

    tracer = Tracer()
    with tracer.installed([Target("minerflex.sgd", "solve")]):
        wrapped = {getattr(m, a) for m, a in aliases}
        assert len(wrapped) == 1 and original not in wrapped
        assert wrapped.pop().__wrapped__ is original
    assert all(getattr(m, a) is original for m, a in aliases)


def test_rebinding_restores_on_error_and_skips_missing_functions():
    from minerflex import online

    original = online.run_online
    with pytest.raises(RuntimeError):
        with Tracer().installed([Target("minerflex.online", "run_online"),
                                 Target("minerflex.online", "no_such_function")]):
            assert online.run_online is not original
            raise RuntimeError
    assert online.run_online is original


def test_every_target_exists_at_this_commit():
    import minerflex.cli  # noqa: F401  (loads every traced module)

    for target in run.trace_targets():
        assert callable(getattr(sys.modules[target.module], target.attr)), target


def test_repeated_input_must_reproduce_its_outputs():
    jobs = [JobResult("w", 0, 1.0, 1.0, 1.0, digests={"a.csv": "1"}),
            JobResult("w", 1, 1.0, 1.0, 1.0, digests={"a.csv": "2"}),
            JobResult("w", 0, 1.0, 1.0, 1.0, digests={"a.csv": "3"})]
    run.check_repeats(jobs)
    assert [j.ok for j in jobs] == [True, True, False]


def test_benchmark_manifest_lists_exactly_the_reported_metrics():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)


def test_reference_time_rescales_each_interval_by_its_probe():
    half, double = 2 * REFERENCE_S, REFERENCE_S / 2
    # 1 s at half speed, 2 s at double speed, then a 1 s tail at double speed.
    assert reference_time(0.0, 4.0, [(1.0, half), (3.0, double)]) == pytest.approx(0.5 + 4.0 + 2.0)
    assert reference_time(0.0, 4.0, []) == 4.0


def test_speed_probe_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 2
    assert speed.reference_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
