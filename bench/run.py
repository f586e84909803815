"""braidmu benchmark: one workload, one seed, end to end or traced per layer.

    python3 bench/run.py --workload certify|search|legcalc --seed N \\
                         --seconds S --trace 0|1

Run it from anywhere; it benchmarks the checkout it sits in.  Each run starts
fresh processes: four that only set up (import braidmu, write the input
bundles) and one that sets up, then measures.  ``setup_s`` is the median of
the five set-up times.  The measuring process runs passes over the workload's
fixed job list in a closed loop, one job after another, with BLAS at its
default threading and no other threads, and checks every output outside the
timed region.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
BENCHMARK.json (``layers.json`` says which end-to-end metric each should
move).  A full report (every pass and job, provenance, and for traced runs
every span) is written to ``.bench_out/``.

End-to-end metrics: ``wall_s`` and ``cpu_s`` (user + sys, all threads) are
medians over the passes of one job list; ``peak_rss_mb`` is the measuring
process's ``ru_maxrss``; ``hits_per_cpu_s`` is verified outputs per
CPU-second over all passes: each search hit, each passing certificate, and
each passing statement file, hexagon check or semidirect product.  The share
of failed jobs is ``failed / attempted`` on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def run_worker(mode: str, args, workdir: str, deadline: float) -> dict:
    result = os.path.join(workdir, f"{mode}-result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir, "--result", result,
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1.0))
    with open(result) as handle:
        return json.load(handle)


def records(result: dict) -> list[dict]:
    return [job for key in ("passes", "traced_passes", "memory_passes") for p in result[key]
            for job in p["jobs"]]


def tally(result: dict) -> tuple[int, int]:
    """Jobs attempted and jobs failed, over every pass of the run."""
    jobs = records(result)
    return len(jobs), sum(not job["ok"] for job in jobs)


def end_to_end(result: dict, setup_s: float) -> dict:
    passes = result["passes"]
    cpu = sum(p["cpu_s"] for p in passes)
    hits = sum(job["hits"] for p in passes for job in p["jobs"])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "hits_per_cpu_s": hits / cpu,
    }


def per_layer(result: dict) -> dict:
    """Per-pass averages over the traced passes (maxima for memory figures)."""
    traced, plain = result["traced_passes"], result["passes"]
    n = len(traced)
    summary = result["trace"]
    values = {}
    for name, entry in summary["names"].items():
        for field, value in entry.items():
            values[f"{name}.{field}"] = value if field == "u_mb" else value / n
    for layer, seconds in summary["layer_self_s"].items():
        values[f"{layer}.self_s"] = seconds / n
    for layer, mb in summary["layer_peak_mb"].items():
        values[f"{layer}.peak_mb"] = mb
    searches = [job for p in traced for job in p["jobs"] if job["kind"] == "search"]
    restarts = values.get("solver.minimize.calls", 0.0)
    values.update({
        "solver.restarts": restarts,
        "solver.nit": values.get("solver.minimize.nit", 0.0),
        "solver.nfev": values.get("solver.minimize.nfev", 0.0),
        "solver.hits": sum(job["hits"] for job in searches) / n,
        "solver.nontrivial_hits": sum(job.get("nontrivial", 0) for job in searches) / n,
        "trace.wall_s": sum(p["wall_s"] for p in traced) / n,
        "trace.overhead_s": sum(t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain)) / n,
        "trace.bookkeeping_s": summary["bookkeeping_s"] / n,
    })
    values["solver.accept_ratio"] = values["solver.hits"] / restarts if restarts else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certify", "search", "legcalc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (Z2/Z3 certify, one restart, Z3 eval)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "braidmu", "__init__.py")):
        print(f"error: no braidmu sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        setups = [run_worker("setup", args, workdir, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker("measure", args, workdir, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result)
    setup_s = statistics.median(s["setup_s"] for s in setups)

    attempted, failed = tally(result)
    if args.trace:
        values, wanted = per_layer(result), spec["per_layer"]
    else:
        values, wanted = end_to_end(result, setup_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": result["provenance"],
              "setup_samples": [{k: s[k] for k in ("import_s", "bundles_s", "setup_s")}
                                for s in setups],
              "fail_ratio": failed / attempted, "metrics": metrics,
              "passes": result["passes"], "traced_passes": result["traced_passes"],
              "memory_passes": result["memory_passes"]}
    if args.trace:
        report["spans"] = {"fields": ["name", "start", "end", "parent"],
                           "rows": result["spans"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(report, handle)

    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for job in records(result):
        if not job["ok"]:
            print(f"FAILED {job['job']}: {job['detail']}")
    print(f"passes: {len(result['passes'])}, jobs attempted: {attempted}, failed: {failed}, "
          f"fail_ratio: {failed / attempted}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
