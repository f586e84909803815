"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_harness.py

It runs ``run.py --tiny`` (Z2/Z3 certify, a one-restart d=2 search, Z3 eval)
and checks the harness itself, not braidmu's numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("certify", "search", "legcalc")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench_run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


@pytest.fixture(scope="module")
def tiny_runs():
    out = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout
    return out


@pytest.fixture
def scratch_dir():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny_runs, workload, trace, kind):
    lines = tiny_runs[workload, trace].splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for metric in SPEC[kind]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert table[metric["name"]] == metric["unit"]


def test_end_to_end_metrics_are_never_zero(tiny_runs):
    for workload in WORKLOADS:
        metrics = json.loads(tiny_runs[workload, "0"].splitlines()[-1])["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_the_traced_wall_time(tiny_runs, workload):
    metrics = json.loads(tiny_runs[workload, "1"].splitlines()[-1])["metrics"]
    self_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    assert 0 < self_sum <= metrics["trace.wall_s"]["value"]
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed3-trace1.json")) as handle:
        assert json.load(handle)["spans"]["rows"]


def test_a_non_pentagon_bundle_expected_to_pass_counts_as_failed(scratch_dir):
    from braidmu.examples_io import Bundle, save_bundle
    from braidmu.tensor import LegOperator, LegSignature, Space

    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    space = Space("L", 2)
    bundle = Bundle()
    bundle.spaces["L"] = space
    bundle.operators["W"] = LegOperator(LegSignature((space, space), (space, space)), q)
    path = os.path.join(scratch_dir, "random.json")
    save_bundle(bundle, path)

    base = workloads.build("certify", True, "")
    bad = workloads.analyze_job("expect pass: random unitary", path, 4)
    rigged = workloads.Workload(base.setup, lambda ctx, seed, p: base.jobs(ctx, seed, p) + [bad])
    result = worker.measure(rigged, rigged.setup(scratch_dir, 0), seed=0, seconds=0.0)
    attempted, failed = run.tally(result)
    assert (attempted, failed) == (3, 1)
    record = next(j for j in result["passes"][0]["jobs"] if not j["ok"])
    assert record["job"] == "expect pass: random unitary" and record["detail"] == "exit 1"


def test_layer_map_names_the_per_layer_metrics_of_benchmark_json():
    with open(os.path.join(HERE, "layers.json")) as handle:
        mapped = [m for group in json.load(handle)["groups"] for m in group["metrics"]]
    assert mapped == [m["name"] for m in SPEC["per_layer"]]
    spans = tracer.span_names()
    derived = {"solver.restarts", "solver.nit", "solver.nfev", "solver.hits",
               "solver.nontrivial_hits", "solver.accept_ratio", "trace.wall_s",
               "trace.overhead_s", "trace.bookkeeping_s"}
    for name in mapped:
        prefix, field = name.rsplit(".", 1)
        assert (name in derived or prefix in spans
                or (prefix in tracer.LAYERS and field == "self_s")
                or (prefix in tracer.PEAK_LAYERS and field == "peak_mb")), name


def test_without_the_sources_the_benchmark_fails_without_a_result(scratch_dir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch_dir)
    shutil.copytree(HERE, os.path.join(scratch_dir, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=scratch_dir, script=os.path.join(scratch_dir, "bench", "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
