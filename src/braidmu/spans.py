"""Closed linear spans of operator sets in the Hilbert-Schmidt geometry.

Spans are stored as orthonormal bases of vectorized operators (row-major
vectorization, matching the leg convention).  The numerical rank cutoff is
relative: all spans here come from exact algebraic structures, so the
singular spectrum is sharply bimodal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import (LegError, LegOperator, LegSignature, Space, adjoint, compose,
                     leg_product, total_dim)

__all__ = [
    "RANK_CUTOFF", "OperatorSpan", "span_of", "span_from_slices", "contains",
    "equals", "projector_distance", "adjoint_span", "is_algebra",
    "is_star_closed", "is_nondegenerate", "numerical_rank", "null_space",
    "kernel_of_linear_map", "crossed_injections", "crossed_product",
    "is_relative_multiplier", "Conjugation", "CrossedProductExtension",
    "DecompositionError",
]

RANK_CUTOFF = 1e-9


class DecompositionError(ValueError):
    """An element could not be decomposed over the crossed-product generators."""


@dataclass(frozen=True)
class OperatorSpan:
    """An orthonormal basis of a subspace of operators between two leg lists."""

    domain: tuple[Space, ...]
    codomain: tuple[Space, ...]
    basis: tuple[LegOperator, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return total_dim(self.domain) * total_dim(self.codomain)

    def stack(self) -> np.ndarray:
        """Basis as rows of vectorized operators, shape (rank, ambient_dim)."""
        if not self.basis:
            return np.zeros((0, self.ambient_dim), dtype=complex)
        return np.array([b.matrix.reshape(-1) for b in self.basis])

    def gram_residual(self) -> float:
        b = self.stack()
        return float(np.linalg.norm(b @ b.conj().T - np.eye(self.rank)))


def _vec(op: LegOperator) -> np.ndarray:
    return op.matrix.reshape(-1)


def _unvec(v: np.ndarray, domain: tuple[Space, ...], codomain: tuple[Space, ...]) -> LegOperator:
    sig = LegSignature(domain, codomain)
    return LegOperator(sig, v.reshape(sig.cod_dim, sig.dom_dim))


def numerical_rank(s: np.ndarray, cutoff: float = RANK_CUTOFF,
                   scale: float | None = None) -> int:
    """Number of singular values above ``cutoff`` times the anchor.

    ``s`` is sorted descending, as numpy's SVD returns it.  The anchor is
    ``s[0]``, or ``max(s[0], scale)`` when a scale is given; a spectrum with
    no positive anchor has rank zero.
    """
    if not s.size:
        return 0
    anchor = max(s[0], scale) if scale is not None else s[0]
    return int(np.sum(s > cutoff * anchor)) if anchor > 0 else 0


def _row_span(rows: np.ndarray, domain: tuple[Space, ...], codomain: tuple[Space, ...],
              cutoff: float) -> OperatorSpan:
    """Orthonormal span of the rows (vectorized operators) by a rank-revealing SVD."""
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    basis = tuple(_unvec(v, domain, codomain) for v in vh[:numerical_rank(s, cutoff)])
    return OperatorSpan(domain, codomain, basis)


def span_of(operators: Sequence[LegOperator], cutoff: float = RANK_CUTOFF) -> OperatorSpan:
    """Orthonormalize a list of operators with a rank-revealing SVD."""
    ops = list(operators)
    if not ops:
        raise ValueError("span_of needs at least one operator to fix the signature")
    domain, codomain = ops[0].domain, ops[0].codomain
    for op in ops:
        if op.domain != domain or op.codomain != codomain:
            raise LegError("span_of: mixed signatures")
    return _row_span(np.array([_vec(op) for op in ops]), domain, codomain, cutoff)


def span_from_slices(x: LegOperator, side: str, cutoff: float = RANK_CUTOFF) -> OperatorSpan:
    """Span of one-leg slices of a two-by-two leg operator.

    side "right": (id (x) <e_i|) x (id (x) |e_j>) over all basis pairs, an
    operator from the first domain leg to the first codomain leg; "left"
    puts the bras and kets on the first leg instead.
    """
    if len(x.domain) != 2 or len(x.codomain) != 2:
        raise LegError("span_from_slices expects exactly two domain and codomain legs")
    (d1, d2), (c1, c2) = x.domain, x.codomain
    t = x.matrix.reshape(c1.dim, c2.dim, d1.dim, d2.dim)
    if side == "right":
        slices = t.transpose(1, 3, 0, 2).reshape(c2.dim * d2.dim, c1.dim * d1.dim)
        domain, codomain = (d1,), (c1,)
    elif side == "left":
        slices = t.transpose(0, 2, 1, 3).reshape(c1.dim * d1.dim, c2.dim * d2.dim)
        domain, codomain = (d2,), (c2,)
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return _row_span(slices, domain, codomain, cutoff)


def contains(span: OperatorSpan, x: LegOperator, tol: float = 1e-9) -> bool:
    if x.domain != span.domain or x.codomain != span.codomain:
        raise LegError("contains: signature mismatch")
    return _subset_residual([x], span) < tol


def projector_distance(s1: OperatorSpan, s2: OperatorSpan) -> float:
    """Spectral distance between the orthogonal projectors onto the two spans.

    Computed as the largest sine of a principal angle; 1.0 whenever the ranks
    differ.
    """
    if (s1.domain, s1.codomain) != (s2.domain, s2.codomain):
        raise LegError("projector_distance: signature mismatch")
    if s1.rank != s2.rank:
        return 1.0
    if s1.rank == 0:
        return 0.0
    b1, b2 = s1.stack(), s2.stack()
    r12 = b1 - (b1 @ b2.conj().T) @ b2
    r21 = b2 - (b2 @ b1.conj().T) @ b1
    n12 = np.linalg.svd(r12, compute_uv=False)[0] if r12.size else 0.0
    n21 = np.linalg.svd(r21, compute_uv=False)[0] if r21.size else 0.0
    return float(max(n12, n21))


def equals(s1: OperatorSpan, s2: OperatorSpan, tol: float = 1e-9) -> bool:
    return s1.rank == s2.rank and projector_distance(s1, s2) < tol


def adjoint_span(s: OperatorSpan, cutoff: float = RANK_CUTOFF) -> OperatorSpan:
    if not s.basis:
        return OperatorSpan(s.codomain, s.domain, ())
    return span_of([adjoint(b) for b in s.basis], cutoff)


def _subset_residual(candidates: Sequence[LegOperator], span: OperatorSpan) -> float:
    """Largest relative distance of a candidate from the span (zero ones skipped)."""
    b = span.stack()
    vecs = [_vec(op) for op in candidates]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    scale = max(norms, default=0.0)
    worst = 0.0
    for v, n in zip(vecs, norms):
        if n <= RANK_CUTOFF * scale:
            # numerically zero at the working scale; trivially contained
            continue
        # rows of b are vdot-orthonormal, so the projector is v |-> b.T (conj(b) v)
        worst = max(worst, float(np.linalg.norm(v - b.T @ (b.conj() @ v))) / n)
    return worst


def is_algebra(s: OperatorSpan, tol: float = 1e-9) -> bool:
    """Every pairwise product lies back in the span."""
    if s.domain != s.codomain:
        raise LegError("is_algebra expects an endomorphism span")
    products = [compose(a, b) for a in s.basis for b in s.basis]
    return _subset_residual(products, s) < tol


def is_star_closed(s: OperatorSpan, tol: float = 1e-9) -> bool:
    if s.domain != s.codomain:
        raise LegError("is_star_closed expects an endomorphism span")
    return _subset_residual([adjoint(b) for b in s.basis], s) < tol


def is_nondegenerate(s: OperatorSpan, tol: float = 1e-9) -> bool:
    """The vectors {x v} over basis operators x and basis vectors v fill the space."""
    if not s.basis:
        return False
    cols = np.hstack([b.matrix for b in s.basis])
    sv = np.linalg.svd(cols, compute_uv=False)
    return numerical_rank(sv, max(tol, RANK_CUTOFF)) == total_dim(s.codomain)


def null_space(t: np.ndarray, cutoff: float = RANK_CUTOFF,
               scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the null space at the relative cutoff.

    ``scale`` anchors the cutoff; pass 1.0 when the map is built from
    unit-scale operators so an all-noise matrix counts as zero.
    """
    t = np.asarray(t, dtype=complex)
    if t.size == 0 or not np.any(t):
        return np.eye(t.shape[1], dtype=complex)
    # with rows >= cols the thin vh is already square, so it holds every
    # kernel vector and the rows x rows u is never formed; a wide map has
    # more kernel vectors than singular values and needs the full vh
    _, s, vh = np.linalg.svd(t, full_matrices=t.shape[0] < t.shape[1])
    # t maps conj(vh[j]) to s_j u_j, so the kernel is spanned by the
    # conjugated trailing right-singular rows
    return vh[numerical_rank(s, cutoff, scale):].conj()


def kernel_of_linear_map(t: np.ndarray, domain: Sequence[Space], codomain: Sequence[Space],
                         cutoff: float = RANK_CUTOFF,
                         scale: float | None = None) -> OperatorSpan:
    """Kernel of an operator-valued linear map given on vectorized operators."""
    domain, codomain = tuple(domain), tuple(codomain)
    vecs = null_space(t, cutoff, scale)
    basis = tuple(_unvec(v, domain, codomain) for v in vecs)
    return OperatorSpan(domain, codomain, basis)


# ---------------------------------------------------------------------------
# crossed products


def crossed_injections(variant: str, provider, legs1: Sequence[Space],
                       legs2: Sequence[Space]) -> tuple[Callable, Callable]:
    """The two injections of a crossed product on legs1 (x) legs2.

    variant "hbt":  a |-> c_{H2,H1} (1 (x) a) c_{H2,H1}^{-1},  b |-> 1 (x) b
    variant "habt": a |-> c_{H1,H2}^{-1} (1 (x) a) c_{H1,H2},  b |-> 1 (x) b
    variant "bt":   a |-> a (x) 1,  b |-> c_{H1,H2}^{-1} (b (x) 1) c_{H1,H2}

    Each injection is one :func:`braidmu.tensor.leg_product`: the padded
    element alone, or the block crossings of :func:`braidmu.braiding.braid_steps`
    around it.  Each c^{-1} is the block braiding of ``provider.inverse()``;
    expanding it through the hexagon identities makes it the inverse of the
    block braiding c.
    """
    from .braiding import braid_steps

    legs1, legs2 = tuple(legs1), tuple(legs2)
    context = legs1 + legs2

    def inject(start: int, before: Sequence = (), after: Sequence = ()) -> Callable:
        """x on the legs ``start ..``, between the crossings before and after."""
        return lambda x: leg_product([*before, (x, start), *after], context)

    if variant == "hbt":
        alpha = inject(len(legs2) + 1, braid_steps(provider.inverse(), legs1, legs2),
                       braid_steps(provider, legs2, legs1))
        beta = inject(len(legs1) + 1)
    elif variant == "habt":
        alpha = inject(len(legs2) + 1, braid_steps(provider, legs1, legs2),
                       braid_steps(provider.inverse(), legs2, legs1))
        beta = inject(len(legs1) + 1)
    elif variant == "bt":
        alpha = inject(1)
        beta = inject(1, braid_steps(provider, legs1, legs2),
                      braid_steps(provider.inverse(), legs2, legs1))
    else:
        raise ValueError(f"unknown crossed product variant {variant!r}")
    return alpha, beta


def crossed_product(s1: OperatorSpan, s2: OperatorSpan, provider, variant: str,
                    cutoff: float = RANK_CUTOFF) -> OperatorSpan:
    """Orthonormal span of all products inj1(a) inj2(b) over the two bases."""
    alpha, beta = crossed_injections(variant, provider, s1.domain, s2.domain)
    products = [compose(alpha(a), beta(b)) for a in s1.basis for b in s2.basis]
    return span_of(products, cutoff)


def is_relative_multiplier(s: OperatorSpan, x: LegOperator, tol: float = 1e-9) -> bool:
    """x b and b x stay in the span for every basis element b."""
    if s.domain != s.codomain:
        raise LegError("is_relative_multiplier expects an endomorphism span")
    moved = [compose(x, b) for b in s.basis] + [compose(b, x) for b in s.basis]
    return _subset_residual(moved, s) < tol


# ---------------------------------------------------------------------------
# morphism extension on crossed products


@dataclass(frozen=True)
class Conjugation:
    """A map a |-> V (id (x) a) V* (side "left") or a |-> V (a (x) id) V* (side "right").

    V is an isometry from aux-legs-and-source (side "left") or
    source-and-aux-legs (side "right") onto the target legs.
    """

    v: LegOperator
    side: str = "left"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")

    @property
    def target(self) -> tuple[Space, ...]:
        return self.v.codomain

    def apply(self, a: LegOperator) -> LegOperator:
        start = len(self.v.domain) - len(a.domain) + 1 if self.side == "left" else 1
        return leg_product([(adjoint(self.v), 1), (a, start), (self.v, 1)], self.v.codomain)


def _padded_product(conj: np.ndarray, pad: np.ndarray, pad_first: bool) -> np.ndarray:
    """conj (1 (x) pad), or (pad (x) 1) conj when ``pad_first``, as one reshape-matmul."""
    if pad_first:
        return (pad @ conj.reshape(pad.shape[1], -1)).reshape(conj.shape)
    return (conj.reshape(-1, pad.shape[0]) @ pad).reshape(conj.shape)


class CrossedProductExtension:
    """Evaluates (f x g) on a crossed product by decompose-and-map.

    Elements are decomposed over a spanning subset of the generator products
    inj1(a_i) inj2(b_j), picked greedily once in forward and once in reverse
    order; each selected product maps to inj1'(f(a_i)) inj2'(g(b_j)) on the
    target legs.  :meth:`apply` evaluates both decompositions and raises
    :class:`DecompositionError` when they disagree, i.e. when the extension
    is not well defined on the element.

    One injection of every variant is an identity padding (1 (x) b, or a (x) 1
    for "bt") and the other a conjugation.  Both injections and f, g are
    linear, so the mapped products are never formed: the coefficients of one
    conjugated factor fold into a single padded operator, which is mapped and
    multiplied in once.
    """

    def __init__(self, s1: OperatorSpan, s2: OperatorSpan, provider, variant: str,
                 f: Conjugation | None, g: Conjugation | None,
                 cutoff: float = RANK_CUTOFF):
        alpha, beta = crossed_injections(variant, provider, s1.domain, s2.domain)
        t1 = f.target if f is not None else s1.domain
        t2 = g.target if g is not None else s2.domain
        alpha2, beta2 = crossed_injections(variant, provider, t1, t2)
        self._pad_first = variant == "bt"
        if self._pad_first:  # a (x) 1 pads, b is conjugated
            conj_basis, conj_inj, conj_inj2, conj_map = s2.basis, beta, beta2, g
            pad, self._pad_map = s1, f
        else:                # 1 (x) b pads, a is conjugated
            conj_basis, conj_inj, conj_inj2, conj_map = s1.basis, alpha, alpha2, f
            pad, self._pad_map = s2, g
        self._pad_legs = pad.domain
        self._pad = [b.matrix for b in pad.basis]
        src_conj = [conj_inj(x).matrix for x in conj_basis]
        # selected generators as (conjugated, padded) index pairs, in the
        # (i, j) order of inj1(a_i) inj2(b_j)
        pairs = [(j, i) if self._pad_first else (i, j)
                 for i in range(s1.rank) for j in range(s2.rank)]

        self._decompositions = []
        for order in (pairs, pairs[::-1]):
            src_vecs, selected, q_rows = [], [], []
            for (k, l) in order:
                v = _padded_product(src_conj[k], self._pad[l], self._pad_first).reshape(-1)
                n = np.linalg.norm(v)
                if n == 0:
                    continue
                r = v.copy()
                for q in q_rows:
                    r -= q * (q.conj() @ r)
                if np.linalg.norm(r) <= cutoff * n:
                    continue
                q_rows.append(r / np.linalg.norm(r))
                src_vecs.append(v)
                selected.append((k, l))
            if not src_vecs:
                raise DecompositionError("crossed product has no nonzero generators")
            v = np.array(src_vecs).T                        # ambient x r
            q, r = np.linalg.qr(v)                          # thin QR for least squares
            self._decompositions.append((v, q, r, selected))
        self._tgt_conj = [conj_inj2(conj_map.apply(x) if conj_map is not None else x).matrix
                          for x in conj_basis]
        self.source_domain = s1.domain + s2.domain
        self.target_domain = t1 + t2

    def _mapped_sum(self, coeffs: np.ndarray, selected: list) -> np.ndarray:
        """Sum of coeff * mapped generator, one padded product per conjugated factor."""
        folded = {}
        for c, (k, l) in zip(coeffs, selected):
            folded[k] = folded.get(k, 0) + c * self._pad[l]
        total = 0
        for k, m in folded.items():
            if self._pad_map is not None:
                m = self._pad_map.apply(
                    LegOperator(LegSignature(self._pad_legs, self._pad_legs), m)).matrix
            total = total + _padded_product(self._tgt_conj[k], m, self._pad_first)
        return total

    def apply(self, x: LegOperator, tol: float = 1e-9) -> LegOperator:
        if x.domain != self.source_domain or x.codomain != self.source_domain:
            raise LegError("element signature does not match the crossed product")
        vx = _vec(x)
        scale = max(np.linalg.norm(vx), 1.0)
        values = []
        for v, q, r, selected in self._decompositions:
            coeffs = np.linalg.solve(r, q.conj().T @ vx)
            residual = np.linalg.norm(v @ coeffs - vx)
            if residual > tol * scale:
                raise DecompositionError(
                    f"element lies outside the crossed product (residual {residual:.3e})")
            values.append(self._mapped_sum(coeffs, selected))
        forward, reverse = values
        dev = float(np.linalg.norm(forward - reverse))
        if dev > tol * max(np.linalg.norm(forward), 1.0):
            raise DecompositionError(
                f"extension value depends on the decomposition (deviation {dev:.3e})")
        return LegOperator(LegSignature(self.target_domain, self.target_domain), forward)
