"""One fresh process of a benchmark run; started by ``run.py``.

    worker.py setup   --workload W --seed N --workdir D --result R [--tiny]
    worker.py measure --workload W --seed N --workdir D --result R
                      --seconds S --trace 0|1 [--tiny]

Both modes time the set-up first: importing braidmu and writing the
workload's input bundles.  ``measure`` then runs passes over the workload's
job list, one job after another, until the next pass would end after
``--seconds``; at least one pass always runs.  Outputs are checked after each
pass, outside the timed region.  With ``--trace 1`` every pass is run twice
with the same jobs, untraced and then with spans timed, and the difference in
wall time is the tracing overhead; one last pass then measures the per-layer
peak memory.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS_DIR = os.path.join(SRC, "braidmu", "corpus")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def import_braidmu() -> float:
    """Import braidmu from this checkout's ``src``; returns the seconds taken."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import braidmu
    import braidmu.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(braidmu.__file__))) != SRC:
        raise ImportError(f"braidmu was imported from {braidmu.__file__}, not from {SRC}")
    return elapsed


def run_pass(jobs, tracer=None, mode: str = "spans") -> dict:
    """Run the jobs back to back, then check each outside the timed region."""
    outcomes, job_wall = [], []
    if tracer is not None:
        tracer.install()
        if mode == "memory":
            tracemalloc.start()
        tracer.mode = mode
    try:
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                outcomes.append((True, job.run()))
            except Exception as exc:  # a failing job is counted, never fatal
                outcomes.append((False, f"{type(exc).__name__}: {exc}"))
            job_wall.append(time.perf_counter() - t0)
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.mode = None
            tracemalloc.stop()
            tracer.uninstall()
    records = []
    for job, (ran, value), seconds in zip(jobs, outcomes, job_wall):
        verdict = {"ok": False, "hits": 0, "detail": value}
        if ran:
            try:
                verdict = job.check(value)
            except Exception as exc:
                verdict["detail"] = f"check raised {type(exc).__name__}: {exc}"
        records.append({"job": job.name, "kind": job.kind, "wall_s": seconds, **verdict})
    return {"wall_s": wall, "cpu_s": cpu, "jobs": records}


def measure(workload, ctx, seed: int, seconds: float, tracer=None) -> dict:
    """Passes until the next would end after ``seconds``; traced when a tracer is given."""
    passes, traced, memory = [], [], []
    start = time.perf_counter()
    pass_index = 0
    while True:
        begin = time.perf_counter()
        passes.append(run_pass(workload.jobs(ctx, seed, pass_index)))
        if tracer is not None:
            traced.append(run_pass(workload.jobs(ctx, seed, pass_index), tracer))
        pass_index += 1
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            break
    if tracer is not None:
        memory.append(run_pass(workload.jobs(ctx, seed, 0), tracer, "memory"))
    return {"passes": passes, "traced_passes": traced, "memory_passes": memory}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_braidmu()
    import workloads
    t0 = time.perf_counter()
    workload = workloads.build(args.workload, args.tiny, CORPUS_DIR)
    ctx = workload.setup(args.workdir, args.seed)
    result = {"import_s": import_s, "bundles_s": time.perf_counter() - t0}
    result["setup_s"] = result["import_s"] + result["bundles_s"]

    if args.mode == "measure":
        import provenance
        # run each job kind once untimed, so lazy imports and first-call
        # costs stay out of the measured passes
        warm = workloads.build(args.workload, True, CORPUS_DIR)
        warm_dir = os.path.join(args.workdir, "warm")
        os.makedirs(warm_dir, exist_ok=True)
        run_pass(warm.jobs(warm.setup(warm_dir, args.seed), args.seed, 0))
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        result.update(measure(workload, ctx, args.seed, args.seconds, tracer))
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["spans"] = tracer.spans
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["provenance"] = provenance.collect(ROOT, args.seed)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
