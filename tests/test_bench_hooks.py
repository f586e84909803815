"""The benchmark's tracer rebinds braidmu names; renaming one must fail here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import braidmu.multunitary as mun
import braidmu.solver as solver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)
    # install looks every traced module up in sys.modules, and the package
    # does not import all of them (braidmu.cli)
    for module, *_ in tracer_module.TARGETS:
        importlib.import_module(f"braidmu.{module}")
    pentagon, certify = mun.pentagon_residual, solver.full_certificate
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for module, attr, _, _ in tracer_module.TARGETS:
            assert hasattr(getattr(sys.modules[f"braidmu.{module}"], attr), "__wrapped__")
        assert solver.full_certificate is not certify
    finally:
        tracer.uninstall()
    assert mun.pentagon_residual is pentagon
    assert solver.full_certificate is certify
