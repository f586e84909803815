"""In-memory span tracer for the benchmark's traced runs.

The tracer rebinds braidmu's public functions in every ``braidmu.*``
namespace that holds them (``multunitary.compose`` and ``spans.compose`` are
the same function object, so both names get the same wrapper).  Each call
becomes a span: name, start, end and parent.  Nothing under ``src/`` knows
about it, and the analyze report's ``wall_time_s`` fields are never read:
several checks charge their time to a sibling there.

Per-layer peak memory comes from a separate pass in ``memory`` mode, with
``tracemalloc`` on and no spans recorded: for every top-level call of a layer
(one not nested inside another call of the same layer) the tracer records
how far the traced heap rose above its level at entry.  ``tracemalloc``
slows small-array code several times over (a search pass ran 3.7x slower
under it on a 2-core VM), so it never runs while spans are timed.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("spans", "multunitary", "tensor", "braiding", "solver", "yd",
          "semidirect", "dsl", "examples_io", "cli")
PEAK_LAYERS = ("spans", "tensor", "multunitary", "solver", "yd", "semidirect")


def _null_space_u_mb(args, kwargs, result):
    rows = args[0].shape[0] if hasattr(args[0], "shape") else len(args[0])
    return {"u_mb": rows * rows * 16 / 1e6}


def _compose_gflop(args, kwargs, result):
    x, y = args[0].matrix, args[1].matrix
    return {"gflop": 8.0 * x.shape[0] * x.shape[1] * y.shape[1] / 1e9}


def _output_mb(args, kwargs, result):
    return {"mb": result.matrix.nbytes / 1e6}


def _file_mb(path):
    return {"mb": os.path.getsize(path) / 1e6}


# (module, attribute, span name, measure); measure maps (args, kwargs, result)
# to extra per-call quantities.  ``u_mb`` is a maximum over calls, every other
# quantity a sum.
TARGETS = [
    ("spans", "null_space", "spans.null_space", _null_space_u_mb),
    ("spans", "span_of", "spans.span_of", None),
    ("spans", "span_from_slices", "spans.span_from_slices", None),
    ("spans", "equals", "spans.equals", None),
    ("spans", "crossed_product", "spans.crossed_product", None),
    ("multunitary", "coassociativity_residual", "multunitary.coassociativity_residual", None),
    ("multunitary", "commutant_dimension", "multunitary.commutant_dimension", None),
    ("multunitary", "podles_conditions", "multunitary.podles_conditions", None),
    ("multunitary", "multiplier_checks", "multunitary.multiplier_checks", None),
    ("multunitary", "classify_regularity", "multunitary.classify_regularity", None),
    ("multunitary", "full_certificate", "multunitary.full_certificate", None),
    ("multunitary", "pentagon_residual", "multunitary.pentagon_residual", None),
    ("multunitary", "routing_agreement", "multunitary.routing_agreement", None),
    ("multunitary", "comultiply", "multunitary.comultiply", None),
    ("tensor", "compose", "tensor.compose", _compose_gflop),
    ("tensor", "embed_adjacent", "tensor.embed_adjacent", _output_mb),
    ("tensor", "apply_distant", "tensor.apply_distant", None),
    ("tensor", "extract_distant", "tensor.extract_distant", None),
    ("tensor", "tensor", "tensor.tensor", None),
    ("braiding", "check_hexagons", "braiding.check_hexagons", None),
    ("braiding", "braid_tensor", "braiding.braid_tensor", None),
    ("solver", "gradient", "solver.gradient", None),
    ("solver", "expm_frechet", "solver.frechet", None),
    ("solver", "residual_objective", "solver.residual_objective", None),
    ("solver", "minimize", "solver.minimize",
     lambda args, kwargs, result: {"nit": result.nit, "nfev": result.nfev}),
    ("yd", "yd_braiding_provider", "yd.yd_braiding_provider", None),
    ("yd", "pairing_unitary", "yd.pairing_unitary", None),
    ("yd", "tensor_yd", "yd.tensor_yd", None),
    ("semidirect", "semidirect_product", "semidirect.semidirect_product", None),
    ("dsl", "parse", "dsl.parse", None),
    # run_statements parses through parse_statement_file, not dsl.parse
    ("dsl", "parse_statement_file", "dsl.parse", None),
    ("dsl", "evaluate", "dsl.evaluate", None),
    ("examples_io", "load_bundle", "examples_io.load_bundle",
     lambda args, kwargs, result: _file_mb(args[0])),
    ("examples_io", "save_bundle", "examples_io.save_bundle",
     lambda args, kwargs, result: _file_mb(args[1])),
    ("cli", "main", "cli.main", None),
]
METHOD_TARGETS = [
    ("spans", "CrossedProductExtension", "__init__", "spans.extension_init"),
    ("spans", "CrossedProductExtension", "apply", "spans.extension_apply"),
]
# the solver's certification step, wrapped around the library call it makes
CERTIFY = ("solver", "full_certificate", "solver.certify")
MAX_QUANTITIES = ("u_mb",)


def span_names() -> set[str]:
    return ({t[2] for t in TARGETS} | {t[3] for t in METHOD_TARGETS} | {CERTIFY[2]})


@dataclass
class _PeakFrame:
    base: int
    high: int = 0


@dataclass
class Tracer:
    """Spans kept in memory; ``install`` rebinds, ``uninstall`` restores."""

    spans: list = field(default_factory=list)      # [name, start, end, parent]
    extras: dict = field(default_factory=dict)     # name -> {quantity: value}
    layer_peaks: dict = field(default_factory=dict)  # layer -> bytes
    bookkeeping_s: float = 0.0
    mode: str | None = None                        # None, "spans" or "memory"
    _stack: list = field(default_factory=list)
    _open_layers: set = field(default_factory=set)
    _peak_frames: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # ---------------------------------------------------------------- binding

    def install(self) -> None:
        import braidmu  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sys.modules.items()
                   if (n == "braidmu" or n.startswith("braidmu.")) and m is not None]
        for mod_name, attr, span_name, measure in TARGETS:
            original = getattr(sys.modules[f"braidmu.{mod_name}"], attr)
            wrapper = self._wrap(original, span_name, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        mod_name, attr, span_name = CERTIFY
        module = sys.modules[f"braidmu.{mod_name}"]
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, self._wrap(getattr(module, attr), span_name, None))
        for mod_name, cls_name, meth, span_name in METHOD_TARGETS:
            cls = getattr(sys.modules[f"braidmu.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span_name, None))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # ---------------------------------------------------------------- spans

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._peak_frames:
            frame.high = max(frame.high, peak)

    def _wrap(self, fn, name, measure):
        layer = name.split(".", 1)[0]
        tracked = layer in PEAK_LAYERS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.mode == "memory":
                return self._peak_call(fn, layer, args, kwargs) if tracked else fn(*args, **kwargs)
            if self.mode != "spans":
                return fn(*args, **kwargs)
            t0 = clock()
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                record[1], record[2] = t1, t2
                self._stack.pop()
            if measure is not None:
                bucket = self.extras.setdefault(name, {})
                for key, value in measure(args, kwargs, result).items():
                    if key in MAX_QUANTITIES:
                        bucket[key] = max(bucket.get(key, 0.0), value)
                    else:
                        bucket[key] = bucket.get(key, 0.0) + value
            self.bookkeeping_s += (t1 - t0) + (clock() - t2)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _peak_call(self, fn, layer, args, kwargs):
        if layer in self._open_layers:
            return fn(*args, **kwargs)
        # fold the running peak into the open outer frames before resetting it
        self._fold_peak()
        tracemalloc.reset_peak()
        frame = _PeakFrame(tracemalloc.get_traced_memory()[0])
        self._peak_frames.append(frame)
        self._open_layers.add(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open_layers.discard(layer)
            self._fold_peak()
            self._peak_frames.remove(frame)
            rise = max(frame.high - frame.base, 0)
            self.layer_peaks[layer] = max(self.layer_peaks.get(layer, 0), rise)

    # ---------------------------------------------------------------- summary

    def summary(self) -> dict:
        """calls, self_s and total_s per span name, and self_s per layer.

        ``self_s`` is a span's duration minus that of its direct children.
        ``total_s`` counts only spans with no ancestor of the same name, so
        recursion (``dsl.evaluate``) is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            duration = end - start
            own = duration - child_time[index]
            entry["calls"] += 1
            entry["self_s"] += own
            layers[name.split(".", 1)[0]] += own
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += duration
        for name, quantities in self.extras.items():
            names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}).update(quantities)
        return {"names": names, "layer_self_s": layers,
                "layer_peak_mb": {layer: self.layer_peaks.get(layer, 0) / 1e6
                                  for layer in PEAK_LAYERS},
                "bookkeeping_s": self.bookkeeping_s}
