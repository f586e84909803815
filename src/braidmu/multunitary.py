"""Braided multiplicative unitaries: Pentagon residuals, slice algebras, duals,
regularity classification, comultiplications, and bialgebra certificates.
The Pentagon has one implementation, its two words (:func:`pentagon_words`):
the residual is their streamed distance; the solver plans them for its defect."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import spans
from .braiding import ExplicitBraiding
from .spans import (Conjugation, CrossedProduct, CrossedProductExtension, OperatorSpan,
                    equals, is_relative_multiplier, span_from_slices)
from .tensor import (Gather, LegError, LegOperator, LegSignature, Space, _unitarity_residual,
                     Step, adjoint, compose, distance, leg_product, route_steps)

__all__ = [
    "MultUnitary", "RegularityReport", "Certificate",
    "pentagon_residual", "right_slice_span", "left_slice_span", "regularity_span",
    "opposite_regularity_span", "dual", "commutant_dimension", "classify_regularity",
    "comultiply", "podles_conditions", "coassociativity_residual", "multiplier_checks",
    "routing_agreement", "full_certificate", "pentagon_words",
    "check_record",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class MultUnitary:
    """A unitary on L (x) L together with the braiding of its category."""

    space: Space
    op: LegOperator
    braiding: object

    def __post_init__(self):
        expected = (self.space, self.space)
        if self.op.domain != expected or self.op.codomain != expected:
            raise LegError("operator legs must be (L, L) -> (L, L)")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    def unitarity_residual(self) -> float:
        return _unitarity_residual(self.op.matrix)

    @cached_property
    def commutant_dim(self) -> int:
        """The :func:`commutant_dimension`, computed once on first use."""
        return commutant_dimension(self)


def _cinv(m: MultUnitary) -> LegOperator:
    return m.braiding.braid_inverse(m.space, m.space)


def pentagon_words(f: LegOperator, c: LegOperator, cinv: LegOperator
                   ) -> tuple[tuple[Space, ...], list[Step], list[Step]]:
    """The braided Pentagon F23 F12 = F12 c12 F23 cinv12 F23 as two step lists.

    Returns the three legs L (x) L (x) L and the left and right words as
    :func:`~braidmu.tensor.leg_product` steps, the rightmost factor first.
    :func:`pentagon_residual` streams their distance, and the solver plans
    each as a :class:`~braidmu.tensor.PlannedWord` with F as its slot, whose
    forward pass gives the defect.
    """
    legs = f.domain + f.domain[1:]
    return legs, [(f, 1), (f, 2)], [(f, 2), (cinv, 1), (f, 2), (c, 1), (f, 1)]


def pentagon_residual(m: MultUnitary) -> float:
    """Hilbert-Schmidt norm of F23 F12 - F12 c12 F23 cinv12 F23 on three legs.

    The :func:`~braidmu.tensor.distance` of the two :func:`pentagon_words`,
    streamed over column blocks, or closed-form when F and the crossings are
    monomials: no n^3 x n^3 product or defect is formed.
    """
    c = m.braiding.braid(m.space, m.space)
    legs, lhs, rhs = pentagon_words(m.op, c, _cinv(m))
    return distance(lhs, rhs, legs)


def right_slice_span(m: MultUnitary) -> OperatorSpan:
    """Span of right-leg slices of F; the convolution algebra on L."""
    return span_from_slices(m.op, "right")


def left_slice_span(m: MultUnitary) -> OperatorSpan:
    """Span of left-leg slices of F; the function-algebra counterpart."""
    return span_from_slices(m.op, "left")


def regularity_span(m: MultUnitary) -> OperatorSpan:
    """Right-leg slices of c^{-1} F; full rank is the regularity condition."""
    return span_from_slices(compose(_cinv(m), m.op), "right")


def opposite_regularity_span(m: MultUnitary) -> OperatorSpan:
    """Left-leg slices of c^{-1} F*; the 180-degree rotated regularity condition."""
    return span_from_slices(compose(_cinv(m), adjoint(m.op)), "left")


def dual(m: MultUnitary) -> MultUnitary:
    """The dual c^{-1} F* c, a multiplicative unitary for the inverse braiding."""
    c = m.braiding.braid(m.space, m.space)
    fhat = compose(compose(_cinv(m), adjoint(m.op)), c)
    return MultUnitary(m.space, fhat, m.braiding.inverse())


def commutant_dimension(m: MultUnitary) -> int:
    """Dimension of {a : F (a (x) 1) F* = c (a (x) 1) c^{-1}}.

    Dimension one means only scalars qualify, which is exactly a trivial
    commutant for the regularity span.  The map's column for a matrix unit e
    is ``comultiply(m, e, "right")`` minus the leg product c (e (x) 1) c^{-1}.
    When F, c and c^{-1} are monomials (their gathers) the map's entries are
    read off them in closed form, 2 n^3 of them, and no column is formed.

    :func:`spans.kernel_dimension` splits the map's n^2 columns by the rows
    they share and sums each component's kernel: the column count less the
    component's rank, every rank against the one anchor of
    :func:`spans.null_space`.  A map with one component, such as that of a
    dense F, is one block: its rank comes from the singular values of the
    tall n^4 x n^2 map alone, and no singular vector is built.
    """
    n = m.space.dim
    c = m.braiding.braid(m.space, m.space)
    cinv = _cinv(m)
    if m.op.gather is not None and c.gather is not None and cinv.gather is not None:
        return spans.kernel_dimension(_commutant_entries(m.op.gather, c.gather, cinv.gather, n),
                                      (n ** 4, n ** 2))
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            unit = LegOperator(LegSignature((m.space,), (m.space,)), e)
            lhs = comultiply(m, unit, "right")
            rhs = leg_product([(cinv, 1), (unit, 1), (c, 1)], c.domain)
            cols.append((lhs.matrix - rhs.matrix).reshape(-1))
    return spans.kernel_dimension(np.array(cols).T)


def _commutant_entries(f: Gather, c: Gather, cinv: Gather, n: int) -> tuple:
    """The entries (rows, cols, values) of the commutant map for monomial F,
    c and c^{-1}, equal ones summed and zero sums dropped.

    (e_ij (x) 1) is the sum over k of |ik><jk|.  A monomial sends |s> to its
    entry in column s times |r>, r the row holding that entry (where column
    s lands, :meth:`~braidmu.tensor.Gather.entries`), so F |ik><jk| F* puts
    f_ik conj(f_jk) at (r_ik, r_jk), and c |ik><jk| c^{-1} puts c_ik d_jk at
    (r_ik, source_d[jk]), for c^{-1}'s entry d_jk in row jk.  Row (a, b) of
    the map is a * n^2 + b; column e_ij is i * n + j.
    """
    i, j, k = (x.ravel() for x in np.indices((n, n, n)))
    ik, jk, col = i * n + k, j * n + k, i * n + j
    # the rows that columns ik and jk land on, with their entries there
    (fv, fr), (cv, cr), (d, _) = f.entries(), c.entries(), cinv.entries()
    rows = np.concatenate((fr[ik] * n * n + fr[jk], cr[ik] * n * n + cinv.source[jk]))
    values = np.concatenate((fv[fr[ik]] * fv[fr[jk]].conj(), -cv[cr[ik]] * d[jk]))
    key, at = np.unique(rows * (n * n) + np.tile(col, 2), return_inverse=True)
    summed = np.zeros(key.size, dtype=complex)
    np.add.at(summed, at, values)
    live = summed != 0
    return key[live] // (n * n), key[live] % (n * n), summed[live]


@dataclass(frozen=True)
class RegularityReport:
    rank_c: int
    rank_d: int
    full: int
    commutant_dim: int
    semi_regular: bool
    regular: bool
    bi_regular: bool
    dual_consistent: bool

    @property
    def trivial_commutant(self) -> bool:
        return self.commutant_dim == 1


def classify_regularity(m: MultUnitary) -> RegularityReport:
    full = m.space.dim ** 2
    rank_c = regularity_span(m).rank
    rank_d = opposite_regularity_span(m).rank
    regular = rank_c == full
    dual_rank_c = regularity_span(dual(m)).rank
    return RegularityReport(
        rank_c=rank_c, rank_d=rank_d, full=full,
        commutant_dim=m.commutant_dim,
        semi_regular=regular, regular=regular,
        bi_regular=regular and rank_d == full,
        dual_consistent=regular == (dual_rank_c == full))


# per variant: the slice algebra and crossed product of the bialgebra checks,
# the comultiplication's conjugation of F, and the multiplier check's crossed
# product, with whether its first factor is the dual's slice algebra
_VARIANTS = {
    "op": (right_slice_span, "habt", lambda f: Conjugation(adjoint(f), "left"), "hbt", False),
    "right": (left_slice_span, "bt", lambda f: Conjugation(f, "right"), "bt", True)}


def _variant(variant: str) -> tuple:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown bialgebra variant {variant!r}")
    return _VARIANTS[variant]


def comultiply(m: MultUnitary, a: LegOperator, variant: str = "op") -> LegOperator:
    """Conjugate a one-leg operator into a two-leg one.

    variant "op":    F* (1 (x) a) F
    variant "right": F (a (x) 1) F*
    """
    if a.domain != (m.space,) or a.codomain != (m.space,):
        raise LegError("comultiply expects an endomorphism of L")
    return _variant(variant)[2](m.op).apply(a)


def _rotated(m: MultUnitary) -> MultUnitary:
    """F turned by 180 degrees, S F^T S on L (x) L, under the explicit
    braiding S (c^{-1})^T S.  S, the flip, acts as an index permutation, so
    the turn rounds nothing."""
    n = m.space.dim
    flip = np.arange(n * n).reshape(n, n).T.ravel()
    f, cinv = (x.matrix.T[flip][:, flip] for x in (m.op, _cinv(m)))
    braiding = ExplicitBraiding()
    braiding.register(LegOperator(m.op.signature, cinv))
    return MultUnitary(m.space, LegOperator(m.op.signature, f), braiding)


def _bialgebra_data(m: MultUnitary, variant: str):
    """Algebra span, crossed-product variant and comultiplication for a side.

    variant "op" pairs the right slice algebra with the inverse-braided
    product; variant "right" pairs the left slice algebra with the braided
    product used for the rotated comultiplication.
    """
    slices, cp_variant, conjugation, *_ = _variant(variant)
    return slices(m), cp_variant, conjugation(m.op)


def podles_conditions(m: MultUnitary, variant: str = "op",
                      tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Span equality of [Delta(A) (A x 1)] and [Delta(A) (1 x A)] with A x A.

    The crossed product gives both the span A x A and the injected bases.
    """
    alg, cp_variant, _ = _bialgebra_data(m, variant)
    cp = CrossedProduct(alg, alg, m.braiding, cp_variant)
    # the images first, so that the generator stack reuses them
    (alphas, betas), target = cp.images, cp.span
    del cp   # frees the generator stack: a traced KT Z8 peak of 35 MB, not 40
    deltas = [comultiply(m, a, variant) for a in alg.basis]
    left = spans.span_of([compose(d, x) for d in deltas for x in alphas])
    right = spans.span_of([compose(d, y) for d in deltas for y in betas])
    return equals(left, target, tol), equals(right, target, tol)


def coassociativity_residual(m: MultUnitary, variant: str = "op",
                             tol: float = DEFAULT_TOL) -> float:
    """Max deviation of (Delta x id) Delta from (id x Delta) Delta on the algebra basis.

    Both extensions share one crossed product, which decomposes each element
    once, forward and reverse; :func:`spans.compare_extensions` maps every
    element by both and returns its squared norms.  An extension whose two
    decompositions disagree is not well defined on the element and raises
    :class:`spans.DecompositionError`, as does an element outside the
    crossed product, whichever comes first in basis order.

    Variant "right" is exactly the "op" check of F turned by 180 degrees
    (:func:`_rotated`): the turn x |-> S x^T S is a linear anti-automorphism
    that keeps every Hilbert-Schmidt norm, and carries F (a (x) 1) F*, the
    left slice algebra and the "bt" crossed product of c to the "op"
    comultiplication, the right slice algebra and the "habt" crossed product
    of the turned F and braiding.
    """
    if variant == "right":
        m, variant = _rotated(m), "op"
    alg, cp_variant, conj = _bialgebra_data(m, variant)
    cp = CrossedProduct(alg, alg, m.braiding, cp_variant)
    folds, outside = [], None
    try:
        for a in alg.basis:
            folds.append(cp.decompose(comultiply(m, a, variant), tol))
    except spans.DecompositionError as exc:
        outside = exc
    if not folds:   # the first element already lies outside
        raise outside
    # built once the decompositions' QR has run, so that they do not add to its peak
    exts = [CrossedProductExtension(cp, f, g) for f, g in ((conj, None), (None, conj))]
    del cp   # frees the generator stack and its QR factors before the walk
    norms = np.sqrt(spans.compare_extensions(*exts, np.stack(folds)))
    # element by element, the left extension before the right one
    for value, dev in zip(norms[[0, 2]].T.ravel(), norms[[1, 3]].T.ravel()):
        if dev > tol * max(value, 1.0):
            raise spans.DecompositionError(
                f"extension value depends on the decomposition (deviation {dev:.3e})")
    if outside is not None:
        raise outside
    return float(norms[4].max())


def multiplier_checks(m: MultUnitary, variant: str = "op",
                      tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Relative multiplier membership of F and the sandwich-span equality.

    variant "op": F against hat-A(F) x hat-A(F-dual) with the braided product;
    variant "right": F against A(F-dual) x A(F) with the rotated product.
    """
    slices, _, _, cp_variant, dual_first = _variant(variant)
    pair = slices(m), slices(dual(m))
    cp = CrossedProduct(*(pair[::-1] if dual_first else pair), m.braiding, cp_variant)
    # the images first, so that the generator stack reuses them
    (alphas, betas), target = cp.images, cp.span
    del cp   # frees the generator stack: a traced KT Z8 peak of 35 MB, not 40
    first = is_relative_multiplier(target, m.op, tol)
    lefts = [compose(x, m.op) for x in alphas]
    sandwich = spans.span_of([compose(x, y) for x in lefts for y in betas])
    return first, equals(sandwich, target, tol)


def check_record(name: str, kind: str, value, tol=None, expected=None,
                 elapsed: float = 0.0) -> dict:
    """One entry of a report's check list.

    kind "residual" passes below ``tol`` (NaN never passes), "rank" when the
    value equals ``expected``, and "flag" when the value is true.  JSON has
    no infinity or NaN, so a non-finite value is recorded as ``None`` with
    ``"nonfinite"`` naming it ("inf", "-inf" or "nan"); ``pass`` is decided
    on the value itself.
    """
    if kind == "residual":
        ok = bool(value < tol) if value == value else False
    elif kind == "rank":
        ok = bool(value == expected)
    else:
        ok = bool(value)
    entry = {"name": name, "kind": kind, "value": value, "pass": ok,
             "wall_time_s": round(elapsed, 6)}
    if isinstance(value, float) and not math.isfinite(value):
        entry["value"], entry["nonfinite"] = None, str(value)
    if tol is not None:
        entry["tol"] = tol
    if expected is not None:
        entry["expected"] = expected
    return entry


@dataclass(frozen=True)
class Certificate:
    """The check list of one multiplicative unitary: one :func:`check_record`
    per check, in report order, as :func:`full_certificate` made them, and
    the tolerance its residual checks compare against."""

    records: tuple[dict, ...]
    tolerance: float

    def checks(self) -> list[dict]:
        """Every check as a :func:`check_record`, in report order."""
        return [dict(r) for r in self.records]

    def passed(self, name: str) -> bool:
        """The ``pass`` of the check named ``name``."""
        return {r["name"]: r["pass"] for r in self.records}[name]

    @property
    def gates_passed(self) -> bool:
        """The hard acceptance gates: unitarity and the Pentagon equation."""
        return self.passed("unitarity") and self.passed("pentagon")

    @property
    def all_passed(self) -> bool:
        return all(r["pass"] for r in self.records)


def routing_agreement(m: MultUnitary) -> float:
    """Distance between the over and under routes of F across one leg.

    Vanishes for symmetric braidings; genuinely braided categories can
    separate the two senses even on morphisms.
    """
    ctx = (m.space,) * 3
    over, under = (route_steps(m.op, ctx, (1, 3), route, m.braiding)
                   for route in ("over", "under"))
    return distance(over, under, ctx)


def full_certificate(m: MultUnitary, tol: float = DEFAULT_TOL) -> Certificate:
    """Run every check and aggregate the evidence.

    The Pentagon and unitarity residuals are the hard gates; everything else
    is recorded with its own numbers so a report can be audited offline.
    """
    from .braiding import UnsupportedPairError, check_hexagons

    full = m.space.dim ** 2
    regularity = attrgetter("rank_c", "rank_d", "commutant_dim", "regular", "bi_regular",
                            "dual_consistent")
    # an empty crossed product (a zero slice algebra), or comultiplied elements
    # that escape it, mean the bialgebra structure does not close; record the
    # failure instead of raising
    failed = (spans.DecompositionError, (False, False))
    # each step, the exception it may raise and what it then yields, and the
    # records (name, kind, expected) of what it returns
    steps = [
        (m.unitarity_residual, None, [("unitarity", "residual", None)]),
        (lambda: pentagon_residual(m), None, [("pentagon", "residual", None)]),
        (lambda: check_hexagons(m.braiding, [m.space])["max_residual"],
         (UnsupportedPairError, float("nan")), [("braiding-hexagon", "residual", None)]),
        (lambda: routing_agreement(m), None, [("routing-agreement", "residual", None)]),
        (lambda: regularity(classify_regularity(m)), None,
         [("rank-c", "rank", full), ("rank-d", "rank", full), ("commutant-dim", "rank", 1),
          ("regular", "flag", None), ("bi-regular", "flag", None),
          ("dual-consistent", "flag", None)]),
        (lambda: podles_conditions(m, "op", tol), failed,
         [("podles-right", "flag", None), ("podles-left", "flag", None)]),
        (lambda: coassociativity_residual(m, "op", tol),
         (spans.DecompositionError, float("inf")), [("coassociativity", "residual", None)]),
        (lambda: multiplier_checks(m, "op", tol), failed,
         [("multiplier", "flag", None), ("sandwich-span", "flag", None)]),
    ]
    records = []
    for step, on_error, rows in steps:
        failure, fallback = on_error or ((), None)
        start = time.perf_counter()
        try:
            value = step()
        except failure:
            value = fallback
        # a step that yields several records charges its time to the first,
        # which the others name
        elapsed, first = time.perf_counter() - start, rows[0][0]
        for (name, kind, expected), v in zip(rows, value if len(rows) > 1 else [value]):
            records.append(check_record(name, kind, v, tol if kind == "residual" else None,
                                        expected, elapsed))
            if name != first:
                records[-1]["timed_with"] = first
            elapsed = 0.0
    return Certificate(tuple(records), tol)
