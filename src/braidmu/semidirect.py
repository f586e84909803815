"""Fixed vectors and the semi-direct product of multiplicative unitaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spans
from .multunitary import MultUnitary, classify_regularity, pentagon_residual, regularity_span
from .spans import equals, projector_distance, span_of
from .tensor import (LegOperator, LegSignature, Space, Step, Vector, adjoint, distance,
                     leg_product, route_steps, tensor_space)
from .yd import YDModule

__all__ = [
    "FixedVectorSpace", "fixed_vectors", "fixed_vector_identity_residual",
    "SemidirectError", "semidirect_product", "routing_agreement_residual",
    "SemidirectReport", "semidirect_regularity",
]

PENTAGON_GATE = 1e-10


class SemidirectError(ValueError):
    """The built operator failed its Pentagon postcondition."""


@dataclass(frozen=True)
class FixedVectorSpace:
    mu: MultUnitary
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def fixed_vectors(mu: MultUnitary) -> FixedVectorSpace:
    """Solutions of W (e (x) xi) = e (x) xi for every xi, via a stacked kernel."""
    k = mu.space.dim
    w = mu.op.matrix
    blocks = []
    for j in range(k):
        ket = np.zeros((k, 1))
        ket[j, 0] = 1.0
        blocks.append((w - np.eye(k * k)) @ np.kron(np.eye(k), ket))
    stacked = np.vstack(blocks)
    vecs = spans.null_space(stacked)
    basis = tuple(Vector(mu.space, v) for v in vecs)
    return FixedVectorSpace(mu, basis)


def fixed_vector_identity_residual(mu: MultUnitary, e: Vector) -> float:
    """Max residual of the derived identities W*(e (x) xi) = e (x) xi and
    (<e| (x) id) W = <e| (x) id."""
    k = mu.space.dim
    w = mu.op.matrix
    ev = e.entries.reshape(k, 1)
    emb = np.kron(ev, np.eye(k))  # xi |-> e (x) xi
    r1 = np.linalg.norm(w.conj().T @ emb - emb)
    bra = np.kron(ev.conj().T, np.eye(k))
    r2 = np.linalg.norm(bra @ w - bra)
    return float(max(r1, r2))


def _construction(w_mu: MultUnitary, module: YDModule, f_mu: MultUnitary,
                  w_route: str, f_route: str) -> tuple[tuple[Space, ...], list[Step]]:
    """The legs (K, L, K, L) and the steps of W13 U23 V*34 F24 V34 on them, W and
    F routed as given."""
    ctx = (w_mu.space, module.space, w_mu.space, module.space)
    amb = w_mu.braiding
    f24 = route_steps(f_mu.op, ctx, (2, 4), f_route, amb)
    w13 = route_steps(w_mu.op, ctx, (1, 3), w_route, amb)
    return ctx, [(module.rep, 3), *f24, (adjoint(module.rep), 3), (module.corep, 2), *w13]


def semidirect_product(w_mu: MultUnitary, module: YDModule,
                       f_mu: MultUnitary) -> MultUnitary:
    """The multiplicative unitary on K (x) L built from W, a module (U, V) over
    it, and a multiplicative unitary F of the module category.

    Reading the construction bottom to top on legs (K, L, K, L):
    V at (3,4), F at (2,4) routed under leg 3, V* at (3,4), U at (2,3),
    W at (1,3) routed over leg 2.  The Pentagon postcondition in the ambient
    category is enforced; failure signals a transcription or input mismatch.
    """
    if f_mu.space != module.space:
        raise ValueError("F must live on the module space")
    kl = tensor_space(w_mu.space, module.space)
    ctx, steps = _construction(w_mu, module, f_mu, "over", "under")
    op = leg_product(steps, ctx).with_legs((kl, kl), (kl, kl))
    out = MultUnitary(kl, op, w_mu.braiding)
    res = pentagon_residual(out)
    if res > PENTAGON_GATE:
        raise SemidirectError(
            f"semi-direct product fails the ambient Pentagon (residual {res:.3e})")
    return out


def routing_agreement_residual(w_mu: MultUnitary, module: YDModule,
                               f_mu: MultUnitary) -> float:
    """Distance between the two crossing conventions of the construction.

    W, U, V and F are category morphisms, so swapping over and under at both
    braided sites must not change the matrix.
    """
    ctx, default = _construction(w_mu, module, f_mu, "over", "under")
    _, swapped = _construction(w_mu, module, f_mu, "under", "over")
    return distance(default, swapped, ctx)


@dataclass(frozen=True)
class SemidirectReport:
    rank_c: int
    expected_rank: int
    regular: bool
    fixed_vector_dim: int
    compression_distance: float | None
    compression_matches: bool | None
    w_route: str = "over"
    f_route: str = "under"

    def to_dict(self) -> dict:
        return {
            "rank_c": self.rank_c, "expected_rank": self.expected_rank,
            "regular": self.regular, "fixed_vector_dim": self.fixed_vector_dim,
            "compression_distance": self.compression_distance,
            "compression_matches": self.compression_matches,
            "routing": {"w": self.w_route, "f": self.f_route},
        }


def semidirect_regularity(w_mu: MultUnitary, module: YDModule, f_mu: MultUnitary,
                          tol: float = 1e-8) -> SemidirectReport:
    """Regularity of the product, and recovery of the module-level regularity
    span through a fixed-vector compression when one exists."""
    product = semidirect_product(w_mu, module, f_mu)
    report = classify_regularity(product)
    fixed = fixed_vectors(w_mu)
    distance = None
    matches = None
    if fixed.dim > 0:
        e = fixed.basis[0].entries
        e = e / np.linalg.norm(e)
        k, lc = w_mu.space.dim, module.space.dim
        bra = np.kron(e.conj().reshape(1, k), np.eye(lc))
        ket = np.kron(e.reshape(k, 1), np.eye(lc))
        big = regularity_span(product)
        sig = LegSignature((module.space,), (module.space,))
        compressed = [LegOperator(sig, bra @ b.matrix @ ket) for b in big.basis]
        comp_span = span_of(compressed)
        direct = regularity_span(f_mu)
        distance = projector_distance(comp_span, direct)
        matches = equals(comp_span, direct, tol)
    return SemidirectReport(
        rank_c=report.rank_c, expected_rank=(w_mu.space.dim * module.space.dim) ** 2,
        regular=report.regular, fixed_vector_dim=fixed.dim,
        compression_distance=distance, compression_matches=matches)
