"""minerflex benchmark: closed-loop, single-process, single-client batch jobs.

    python3 bench/run.py --workload desk_week --seed 3 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) from the root of
a source checkout: it imports ``minerflex`` from ``src/``, generates every
input from ``--seed`` under ``bench/work/``, runs jobs back to back for about
``--seconds`` seconds and checks each job's outputs. The last stdout line is
one JSON object. With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` a separate traced run reports per-layer spans instead.
"""

from __future__ import annotations

import os

# One BLAS thread for a single-client benchmark. numpy reads these when it
# is first imported, which the imports below do.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Target, Tracer, aggregate
from workloads import (
    QUALITY_METRICS,
    QUALITY_PASS,
    ROOT,
    VERIFY_CHECKS,
    WORKLOADS,
    quality_figures,
    run_cli,
    run_job,
    synthesize_argv,
)

SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"
SETUP_REPS = 5
MIN_JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "job_p50_ref_s": "s",
    "peak_rss_mb": "MB",
    **{name: "USD/h" for name in QUALITY_METRICS},
}

LAYERS = {
    "traces": ("load_traces", "per_slot_rewards", "programs_for_record", "synthesize_traces", "write_traces"),
    "fleet": ("canonicalize",),
    "deployment": ("effective_epsilon", "realized_cost", "realized_cost_batch"),
    "sgd": ("solve", "project_feasible"),
    "online": ("run_online", "hindsight_optimum", "per_round_costs"),
    "oracle": ("compare_strategies", "grid_mc_optimum", "mc_expected_cost", "lp_deployment_oracle"),
    "regulation": ("solve_reg_profile", "expected_reg_cost", "sample_joint"),
    "single_machine": ("risk_aware_solve",),
}
COMMANDS = (
    "synthesize-traces", "solve-offline", "solve-reg", "solve-risk",
    "simulate-online", "compare-strategies", "verify",
)


def _sgd_iterations(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[3]
    return {"iterations": config.iterations}


COUNTERS = {
    ("sgd", "solve"): _sgd_iterations,
    ("traces", "load_traces"): lambda args, kwargs, result: {"rows": len(result)},
}


def trace_targets() -> list[Target]:
    targets = [Target("minerflex.cli", "main", name=lambda args, kwargs: f"cli.{args[0][0]}")]
    targets += [Target("minerflex.verify", c) for c in VERIFY_CHECKS]
    for module, functions in LAYERS.items():
        for fn in functions:
            targets.append(Target(f"minerflex.{module}", fn, count=COUNTERS.get((module, fn))))
    return targets


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units.update({f"{module}.{fn}.calls": "count", f"{module}.{fn}.total_s": "s",
                          f"{module}.{fn}.self_s": "s"})
    units["sgd.solve.iterations"] = "count"
    units["traces.load_traces.rows"] = "count"
    units.update({f"cli.{c}.s": "s" for c in COMMANDS})
    units.update({f"verify.{c}.s": "s" for c in VERIFY_CHECKS})
    units["trace.traced_job_ref_s"] = "s"
    units["trace.overhead_ref_s"] = "s"
    return units


# ── Environment and set-up ───────────────────────────────────────────────


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def input_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def setup(workload, seed: int, work: Path) -> tuple[list[float], list[Path | None]]:
    """Time SETUP_REPS fresh processes, each importing minerflex and, when the
    workload reads traces, synthesizing one job's input with the CLI.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spec = workload.spec(work) if workload.spec else None
    times, inputs = [], []
    for i in range(SETUP_REPS):
        if spec is None:
            argv = [sys.executable, "-c", "import minerflex.cli"]
            inputs.append(None)
        else:
            out = work / "inputs" / str(i)
            argv = [sys.executable, "-m", "minerflex.cli",
                    *synthesize_argv(spec, input_seed(seed, i), out)]
            inputs.append(out)
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return times, inputs


# ── Runs ─────────────────────────────────────────────────────────────────


def timed_loop(seconds: float, min_rounds: int, step) -> list:
    """Call ``step(i)`` back to back until another round would pass ``seconds``."""
    start, results, durations = time.perf_counter(), [], []
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(results) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return results


def job_runner(workload, inputs, seed, work: Path):
    def run(j: int, index: int, tag: str = ""):
        out = work / "jobs" / f"{j}{tag}"
        shutil.rmtree(out, ignore_errors=True)
        return run_job(workload, inputs[index], input_seed(seed, index), out, index)

    return run


def check_repeats(jobs) -> None:
    """A job that repeats an input must reproduce its outputs byte for byte."""
    first = {}
    for job in jobs:
        if not job.ok:
            continue
        ref = first.setdefault(job.input_index, job.digests)
        if job.digests != ref:
            changed = sorted(k for k in set(ref) | set(job.digests) if ref.get(k) != job.digests.get(k))
            job.problems.append(f"outputs differ from an earlier run of the same input: {changed}")


def quality_pass(seed: int, work: Path):
    """One untimed pass over the run's year; returns (job, quality figures)."""
    base = work / "quality"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    inputs = base / "inputs"
    rc, err = run_cli(synthesize_argv(QUALITY_PASS.spec(base), input_seed(seed, 0), inputs))
    if rc != 0:
        raise RuntimeError(f"quality pass: synthesis failed: {err.strip()}")
    job = run_job(QUALITY_PASS, inputs, input_seed(seed, 0), base / "out", 0)
    return job, (quality_figures(base / "out") if job.ok else {})


def untraced_run(workload, seed, seconds, work, inputs):
    run = job_runner(workload, inputs, seed, work)
    # Job 1 repeats job 0's input, so every run checks byte-identical re-runs.
    jobs = timed_loop(seconds, MIN_JOBS, lambda j: run(j, 0 if j == 0 else (j - 1) % len(inputs)))
    check_repeats(jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality_job, quality = quality_pass(seed, work)
    metrics = {
        "setup_s": None,
        "job_p50_ref_s": statistics.median(j.reference_s for j in jobs),
        "peak_rss_mb": peak_rss_mb,
        **{name: quality.get(name) for name in QUALITY_METRICS},
    }
    extra = {"timed_jobs": len(jobs), "job_wall_p50_s": statistics.median(j.wall_s for j in jobs)}
    return jobs + [quality_job], metrics, extra


def traced_run(workload, seed, seconds, work, inputs):
    tracer = Tracer()
    targets = trace_targets()
    setup_problems = []
    if inputs[0] is not None:
        # Synthesize input 0 again, traced, to cover the set-up layers.
        tracer.job = "setup"
        again = work / "traced_input"
        with tracer.installed(targets):
            rc, err = run_cli(synthesize_argv(workload.spec(work), input_seed(seed, 0), again))
        for name in ("market.csv", "as.csv"):
            if rc != 0 or (again / name).read_bytes() != (inputs[0] / name).read_bytes():
                setup_problems.append(f"traced synthesis of {name} differs from set-up ({err.strip()})")

    run = job_runner(workload, inputs, seed, work)

    def pair(k):
        plain = run(k, 0, "u")
        tracer.job = f"job{k}"
        with tracer.installed(targets):
            traced = run(k, 0, "t")
        return plain, traced

    pairs = timed_loop(seconds, 1, pair)
    jobs = [j for p in pairs for j in p]
    check_repeats(jobs)

    per_job = [aggregate(tracer.spans, f"job{k}") for k in range(len(pairs))]
    at_setup = aggregate(tracer.spans, "setup")
    counts = [{(n, key): v for n, row in agg.items() for key, v in row.items() if not key.endswith("_s")}
              for agg in per_job]
    if any(c != counts[0] for c in counts):
        jobs[-1].problems.append("traced call counts differ between identical jobs")

    def value(span: str, key: str) -> float:
        base = at_setup.get(span, {}).get(key, 0.0)
        if key.endswith("_s"):
            return base + statistics.median(a.get(span, {}).get(key, 0.0) for a in per_job)
        return int(base + per_job[0].get(span, {}).get(key, 0))

    metrics = {}
    for name in per_layer_metrics():
        stem, key = name.rsplit(".", 1)
        if name.startswith("trace."):
            continue
        metrics[name] = value(stem, "total_s" if key == "s" else key)
    traced_s = statistics.median(t.reference_s for _, t in pairs)
    metrics["trace.traced_job_ref_s"] = traced_s
    metrics["trace.overhead_ref_s"] = traced_s - statistics.median(u.reference_s for u, _ in pairs)

    spans_path = work / f"spans-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "job": s.job, **s.counts}) + "\n")
    if setup_problems:
        jobs[0].problems.extend(setup_problems)
    return jobs, metrics, {"traced_pairs": len(pairs), "spans": str(spans_path.relative_to(ROOT))}


# ── Entry point ──────────────────────────────────────────────────────────


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "minerflex" / "cli.py", ROOT / "configs" / "synthesis_week.json")
               if not p.is_file()]
    if missing:
        print(f"bench: not a minerflex checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    for sub in ("inputs", "jobs", "traced_input"):
        shutil.rmtree(work / sub, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)

    env = environment(args.seed)
    setup_times, inputs = setup(workload, args.seed, work)
    import minerflex.cli  # noqa: F401  (loaded once, outside the timed jobs)

    if args.trace:
        jobs, metrics, extra = traced_run(workload, args.seed, args.seconds, work, inputs)
        units = per_layer_metrics()
    else:
        jobs, metrics, extra = untraced_run(workload, args.seed, args.seconds, work, inputs)
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END

    failed = [j for j in jobs if not j.ok]
    correct = not failed and all(metrics[m] is not None for m in units)
    record = {
        "workload": workload.name,
        "environment": env,
        "setup_samples_s": setup_times,
        "jobs": [{"workload": j.workload, "input": j.input_index, "wall_s": j.wall_s,
                  "reference_s": j.reference_s, "cpu_s": j.cpu_s, "problems": j.problems} for j in jobs],
        "error_rate": len(failed) / len(jobs),
        **extra,
        "metrics": metrics,
    }
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {workload.name}: {workload.why}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    for i, j in enumerate(jobs):
        status = "ok" if j.ok else "FAILED: " + "; ".join(j.problems)
        print(f"# job {i} {j.workload} input {j.input_index}: wall {j.wall_s:.3f} s, "
              f"at reference speed {j.reference_s:.3f} s, cpu {j.cpu_s:.3f} s, {status}")
    print(f"# error_rate {len(failed)}/{len(jobs)} = {record['error_rate']:.3f}  " + json.dumps(extra))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
