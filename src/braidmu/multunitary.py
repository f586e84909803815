"""Braided multiplicative unitaries: Pentagon residuals, slice algebras, duals,
regularity classification, comultiplications, and bialgebra certificates."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import spans
from .spans import (Conjugation, CrossedProductExtension, OperatorSpan,
                    crossed_injections, crossed_product, equals,
                    is_relative_multiplier, kernel_of_linear_map, span_from_slices)
from .tensor import (LegError, LegOperator, LegSignature, Space, _unitarity_residual,
                     Step, Tape, adjoint, apply_distant, compose, leg_product, record)

__all__ = [
    "MultUnitary", "RegularityReport", "BialgebraCertificate", "Certificate",
    "pentagon_residual", "right_slice_span", "left_slice_span", "regularity_span",
    "opposite_regularity_span", "dual", "commutant_dimension", "classify_regularity",
    "comultiply", "podles_conditions", "coassociativity_residual", "multiplier_checks",
    "routing_agreement", "full_certificate", "pentagon_words", "pentagon_defect",
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


def _cinv(m: MultUnitary) -> LegOperator:
    return m.braiding.braid_inverse(m.space, m.space)


def pentagon_words(f: LegOperator, c: LegOperator, cinv: LegOperator
                   ) -> tuple[tuple[Space, ...], list[Step], list[Step]]:
    """The braided Pentagon F23 F12 = F12 c12 F23 cinv12 F23 as two step lists.

    Returns the three legs L (x) L (x) L and the left and right words as
    :func:`~braidmu.tensor.record` steps, the rightmost factor first.
    :func:`pentagon_defect` multiplies them out and the solver pulls its
    gradient back through the same products.
    """
    legs = f.domain + f.domain[1:]
    return legs, [(f, 1), (f, 2)], [(f, 2), (cinv, 1), (f, 2), (c, 1), (f, 1)]


def pentagon_defect(f: LegOperator, c: LegOperator, cinv: LegOperator,
                    return_tapes: bool = False
                    ) -> np.ndarray | tuple[np.ndarray, Tape, Tape]:
    """F23 F12 - F12 c12 F23 cinv12 F23 on L (x) L (x) L, from F, the braiding c
    and its inverse on L (x) L.

    Both sides are recorded products of :func:`pentagon_words`: each F acts
    by one reshape-matmul on two of the three legs, and a flip or phase
    crossing by an axis swap, so no n^3 x n^3 product is formed.  With
    ``return_tapes`` the result is (defect, left tape, right tape), and the
    tapes keep every prefix product of their word, for the solver's gradient
    to pull the defect back through; the certificate asks for none, as they
    hold nine n^3 x n^3 matrices.
    """
    legs, lhs, rhs = pentagon_words(f, c, cinv)
    left, right = record(lhs, legs, return_tapes), record(rhs, legs, return_tapes)
    p = left.product - right.product
    return (p, left, right) if return_tapes else p


def pentagon_residual(m: MultUnitary) -> float:
    """Hilbert-Schmidt norm of F23 F12 - F12 c12 F23 cinv12 F23 on three legs."""
    c = m.braiding.braid(m.space, m.space)
    return float(np.linalg.norm(pentagon_defect(m.op, c, _cinv(m))))


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

    The map is tall (n^4 x n^2), so :func:`spans.null_space` takes its kernel
    from a thin SVD: vh is then n^2 x n^2, already the whole right-singular
    basis, and the n^4 x n^4 left factor is never built.  Only a wide map,
    with fewer rows than columns (such as the solver's constraints), needs
    the full vh, since its kernel is larger than its singular spectrum.
    """
    n = m.space.dim
    c = m.braiding.braid(m.space, m.space)
    cinv = _cinv(m)
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            unit = LegOperator(LegSignature((m.space,), (m.space,)), e)
            lhs = comultiply(m, unit, "right")
            rhs = leg_product([(cinv, 1), (unit, 1), (c, 1)], c.domain)
            cols.append((lhs.matrix - rhs.matrix).reshape(-1))
    t = np.array(cols).T
    return kernel_of_linear_map(t, (m.space,), (m.space,)).rank


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
        commutant_dim=commutant_dimension(m),
        semi_regular=regular, regular=regular,
        bi_regular=regular and rank_d == full,
        dual_consistent=regular == (dual_rank_c == full))


def comultiply(m: MultUnitary, a: LegOperator, variant: str = "op") -> LegOperator:
    """Conjugate a one-leg operator into a two-leg one.

    variant "op":    F* (1 (x) a) F
    variant "std":   c (F* (1 (x) a) F) c^{-1}
    variant "right": F (a (x) 1) F*
    """
    if a.domain != (m.space,) or a.codomain != (m.space,):
        raise LegError("comultiply expects an endomorphism of L")
    f, fstar = m.op, adjoint(m.op)
    if variant == "op":
        steps = [(f, 1), (a, 2), (fstar, 1)]
    elif variant == "std":
        c = m.braiding.braid(m.space, m.space)
        steps = [(_cinv(m), 1), (f, 1), (a, 2), (fstar, 1), (c, 1)]
    elif variant == "right":
        steps = [(fstar, 1), (a, 1), (f, 1)]
    else:
        raise ValueError(f"unknown comultiplication variant {variant!r}")
    return leg_product(steps, f.domain)


def _bialgebra_data(m: MultUnitary, variant: str):
    """Algebra span, crossed-product variant and comultiplication for a side.

    variant "op" pairs the right slice algebra with the inverse-braided
    product; variant "right" pairs the left slice algebra with the braided
    product used for the rotated comultiplication.
    """
    if variant == "op":
        alg = right_slice_span(m)
        cp_variant = "habt"
        conj = Conjugation(adjoint(m.op), "left")
    elif variant == "right":
        alg = left_slice_span(m)
        cp_variant = "bt"
        conj = Conjugation(m.op, "right")
    else:
        raise ValueError(f"unknown bialgebra variant {variant!r}")
    return alg, cp_variant, conj


def podles_conditions(m: MultUnitary, variant: str = "op",
                      tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Span equality of [Delta(A) (A x 1)] and [Delta(A) (1 x A)] with A x A."""
    alg, cp_variant, _ = _bialgebra_data(m, variant)
    alpha, beta = crossed_injections(cp_variant, m.braiding, alg.domain, alg.domain)
    target = crossed_product(alg, alg, m.braiding, cp_variant)
    deltas = [comultiply(m, a, variant) for a in alg.basis]
    alphas, betas = [alpha(b) for b in alg.basis], [beta(b) for b in alg.basis]
    left = spans.span_of([compose(d, x) for d in deltas for x in alphas])
    right = spans.span_of([compose(d, y) for d in deltas for y in betas])
    return equals(left, target, tol), equals(right, target, tol)


def coassociativity_residual(m: MultUnitary, variant: str = "op",
                             tol: float = DEFAULT_TOL) -> float:
    """Max deviation of (Delta x id) Delta from (id x Delta) Delta on the algebra basis.

    Both extensions are evaluated by decompose-and-map on the crossed product,
    with forward and reverse decompositions cross-checked per element.
    """
    alg, cp_variant, conj = _bialgebra_data(m, variant)
    exts = [CrossedProductExtension(alg, alg, m.braiding, cp_variant, f, g)
            for f, g in ((conj, None), (None, conj))]
    worst = 0.0
    for a in alg.basis:
        d = comultiply(m, a, variant)
        left, right = (ext.apply(d, tol) for ext in exts)
        worst = max(worst, float(np.linalg.norm(left.matrix - right.matrix)))
    return worst


def multiplier_checks(m: MultUnitary, variant: str = "op",
                      tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """Relative multiplier membership of F and the sandwich-span equality.

    variant "op": F against hat-A(F) x hat-A(F-dual) with the braided product;
    variant "right": F against A(F-dual) x A(F) with the rotated product.
    """
    mhat = dual(m)
    if variant == "op":
        s1, s2 = right_slice_span(m), right_slice_span(mhat)
        cp_variant = "hbt"
    elif variant == "right":
        s1, s2 = left_slice_span(mhat), left_slice_span(m)
        cp_variant = "bt"
    else:
        raise ValueError(f"unknown multiplier variant {variant!r}")
    alpha, beta = crossed_injections(cp_variant, m.braiding, s1.domain, s2.domain)
    cp = crossed_product(s1, s2, m.braiding, cp_variant)
    first = is_relative_multiplier(cp, m.op, tol)
    lefts = [compose(alpha(a), m.op) for a in s1.basis]
    betas = [beta(b) for b in s2.basis]
    sandwich = spans.span_of([compose(x, y) for x in lefts for y in betas])
    second = equals(sandwich, cp, tol)
    return first, second


@dataclass(frozen=True)
class BialgebraCertificate:
    podles_right: bool
    podles_left: bool
    coassoc_residual: float
    multiplier_ok: bool
    span_equality_ok: bool


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
    """Aggregated numerical evidence for one multiplicative unitary.

    ``wall_times`` maps a check name to the seconds spent computing it; a
    step that yields several checks charges its time to the first of them.
    Timings take no part in equality.
    """

    unitarity_residual: float
    pentagon_residual: float
    braiding_hexagon_residual: float
    routing_agreement_residual: float
    regularity: RegularityReport
    bialgebra: BialgebraCertificate
    tolerance: float
    wall_times: dict = field(compare=False)

    @property
    def pentagon_ok(self) -> bool:
        return self.pentagon_residual < self.tolerance

    @property
    def unitary_ok(self) -> bool:
        return self.unitarity_residual < self.tolerance

    @property
    def gates_passed(self) -> bool:
        """The hard acceptance gates: unitarity and the Pentagon equation."""
        return self.pentagon_ok and self.unitary_ok

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks())

    def checks(self) -> list[dict]:
        """Every check as a :func:`check_record`, in report order; residual
        checks all compare against ``tolerance``."""
        r, b, tol = self.regularity, self.bialgebra, self.tolerance
        rows = [
            ("unitarity", "residual", self.unitarity_residual, tol, None),
            ("pentagon", "residual", self.pentagon_residual, tol, None),
            ("braiding-hexagon", "residual", self.braiding_hexagon_residual, tol, None),
            ("routing-agreement", "residual", self.routing_agreement_residual, tol, None),
            ("rank-c", "rank", r.rank_c, None, r.full),
            ("rank-d", "rank", r.rank_d, None, r.full),
            ("commutant-dim", "rank", r.commutant_dim, None, 1),
            ("regular", "flag", r.regular, None, None),
            ("bi-regular", "flag", r.bi_regular, None, None),
            ("dual-consistent", "flag", r.dual_consistent, None, None),
            ("podles-right", "flag", b.podles_right, None, None),
            ("podles-left", "flag", b.podles_left, None, None),
            ("coassociativity", "residual", b.coassoc_residual, tol, None),
            ("multiplier", "flag", b.multiplier_ok, None, None),
            ("sandwich-span", "flag", b.span_equality_ok, None, None),
        ]
        return [check_record(name, kind, value, t, expected, self.wall_times.get(name, 0.0))
                for name, kind, value, t, expected in rows]


def routing_agreement(m: MultUnitary) -> float:
    """Distance between the over and under routes of F across one leg.

    Vanishes for symmetric braidings; genuinely braided categories can
    separate the two senses even on morphisms.
    """
    ctx = (m.space,) * 3
    over = apply_distant(m.op, ctx, (1, 3), "over", m.braiding)
    under = apply_distant(m.op, ctx, (1, 3), "under", m.braiding)
    return float(np.linalg.norm(over.matrix - under.matrix))


def full_certificate(m: MultUnitary, tol: float = DEFAULT_TOL) -> Certificate:
    """Run every check and aggregate the evidence.

    The Pentagon and unitarity residuals are the hard gates; everything else
    is recorded with its own numbers so a report can be audited offline.
    """
    from .braiding import UnsupportedPairError, check_hexagons

    wall_times = {}

    def timed(name, fn, failure=(), fallback=None):
        start = time.perf_counter()
        try:
            value = fn()
        except failure:
            value = fallback
        wall_times[name] = time.perf_counter() - start
        return value

    unitarity = timed("unitarity", m.unitarity_residual)
    pentagon = timed("pentagon", lambda: pentagon_residual(m))
    hexagon = timed("braiding-hexagon",
                    lambda: check_hexagons(m.braiding, [m.space])["max_residual"],
                    UnsupportedPairError, float("nan"))
    routing = timed("routing-agreement", lambda: routing_agreement(m))
    regularity = timed("rank-c", lambda: classify_regularity(m))
    # an empty crossed product (a zero slice algebra), or comultiplied elements
    # that escape it, mean the bialgebra structure does not close; record the
    # failure instead of raising
    pr, pl = timed("podles-right", lambda: podles_conditions(m, "op", tol),
                   spans.DecompositionError, (False, False))
    cr = timed("coassociativity", lambda: coassociativity_residual(m, "op", tol),
               spans.DecompositionError, float("inf"))
    mo, se = timed("multiplier", lambda: multiplier_checks(m, "op", tol),
                   spans.DecompositionError, (False, False))
    return Certificate(
        unitarity_residual=unitarity,
        pentagon_residual=pentagon,
        braiding_hexagon_residual=hexagon,
        routing_agreement_residual=routing,
        regularity=regularity,
        bialgebra=BialgebraCertificate(pr, pl, cr, mo, se),
        tolerance=tol,
        wall_times=wall_times)
