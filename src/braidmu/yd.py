"""Corepresentations, representations, Yetter-Drinfeld modules, and the
derived braiding on the module category.

Diagram transcriptions follow one fixed routing convention (documented at
each residual); the trivial and finite-group instances pin them down in the
test suite.  Each residual is the :func:`braidmu.tensor.distance` of its two
words on three legs, streamed over column blocks (closed-form for words of
monomials), so no side is formed as an n^3 x n^3 matrix; so is the pairing,
the streamed :func:`braidmu.tensor.extract_distant` of the steps of
U*12 V23 U12 V*23.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .braiding import BraidingRegularityReport, ExplicitBraiding, braiding_regularity
from .multunitary import MultUnitary
from .spans import OperatorSpan, span_from_slices
from .tensor import (LegOperator, Space, adjoint, compose, distance, extract_distant,
                     is_unitary, leg_product, route_steps, tensor_space)

__all__ = [
    "Corep", "Rep", "YDModule", "ExtractionError", "corep_residual", "rep_residual",
    "yd_residual", "tensor_corep", "tensor_rep", "tensor_yd", "pairing_unitary",
    "yd_braiding", "yd_braiding_provider", "yd_braiding_regularity", "corep_slice_span",
]


class ExtractionError(ValueError):
    """A distant-leg factorization exceeded its tolerance."""


@dataclass(frozen=True)
class Corep:
    """A pair (H, U) with U unitary on H (x) L."""
    space: Space
    op: LegOperator


@dataclass(frozen=True)
class Rep:
    """A pair (H, V) with V unitary on L (x) H."""
    space: Space
    op: LegOperator


@dataclass(frozen=True)
class YDModule:
    space: Space
    corep: LegOperator
    rep: LegOperator

    def as_corep(self) -> Corep:
        return Corep(self.space, self.corep)

    def as_rep(self) -> Rep:
        return Rep(self.space, self.rep)


def corep_residual(corep: Corep, mu: MultUnitary) -> float:
    """|| F23 U12 - U12 U13 F23 || on H (x) L (x) L, the over route on U13.

    The :func:`~braidmu.tensor.distance` of the two words: neither side is
    multiplied out whole.
    """
    h, l = corep.space, mu.space
    ctx = (h, l, l)
    u13 = route_steps(corep.op, ctx, (1, 3), "over", mu.braiding)
    return distance([(corep.op, 1), (mu.op, 2)],
                    [(mu.op, 2), *u13, (corep.op, 1)], ctx)


def rep_residual(rep: Rep, mu: MultUnitary) -> float:
    """|| V23 F12 - F12 V13 V23 || on L (x) L (x) H, the over route on V13,
    streamed as :func:`corep_residual` is."""
    h, l = rep.space, mu.space
    ctx = (l, l, h)
    v13 = route_steps(rep.op, ctx, (1, 3), "over", mu.braiding)
    return distance([(mu.op, 1), (rep.op, 2)],
                    [(rep.op, 2), *v13, (mu.op, 1)], ctx)


def yd_residual(module: YDModule, mu: MultUnitary) -> float:
    """|| V12 F13-over U23 - U23 F13-under V12 || on L (x) H (x) L, streamed
    as :func:`corep_residual` is."""
    h, l = module.space, mu.space
    ctx = (l, h, l)
    f_over = route_steps(mu.op, ctx, (1, 3), "over", mu.braiding)
    f_under = route_steps(mu.op, ctx, (1, 3), "under", mu.braiding)
    return distance([(module.corep, 2), *f_over, (module.rep, 1)],
                    [(module.rep, 1), *f_under, (module.corep, 2)], ctx)


def _regroup_first_two(op: LegOperator, h12: Space) -> LegOperator:
    """View an operator on (H1, H2, X) as an operator on (H1*H2, X)."""
    rest = op.domain[2:]
    return op.with_legs((h12,) + rest, (h12,) + op.codomain[2:])


def tensor_corep(c1: Corep, c2: Corep, mu: MultUnitary, tol: float = 1e-9) -> Corep:
    """Corep on H1 (x) H2: U1 at legs (1,3) over the middle, then U2 at (2,3)."""
    l = mu.space
    ctx = (c1.space, c2.space, l)
    u1 = route_steps(c1.op, ctx, (1, 3), "over", mu.braiding)
    h12 = tensor_space(c1.space, c2.space)
    out = Corep(h12, _regroup_first_two(leg_product([(c2.op, 2), *u1], ctx), h12))
    res = corep_residual(out, mu)
    if res > tol:
        raise ValueError(f"tensor corep fails its residual: {res:.3e}")
    return out


def tensor_rep(r1: Rep, r2: Rep, mu: MultUnitary, tol: float = 1e-9) -> Rep:
    """Rep on H1 (x) H2: V2 at legs (1,3) over the middle, then V1 at (1,2)."""
    l = mu.space
    ctx = (l, r1.space, r2.space)
    v2 = route_steps(r2.op, ctx, (1, 3), "over", mu.braiding)
    h12 = tensor_space(r1.space, r2.space)
    out = Rep(h12, leg_product([*v2, (r1.op, 1)], ctx).with_legs((l, h12), (l, h12)))
    res = rep_residual(out, mu)
    if res > tol:
        raise ValueError(f"tensor rep fails its residual: {res:.3e}")
    return out


def _yd_tensor_rep(r1: Rep, r2: Rep, mu: MultUnitary) -> Rep:
    # The module-category tensor square routes V2 under the middle strand and
    # applies V1 first; equality with tensor_rep holds by naturality and is
    # asserted in the tests rather than assumed here.
    l = mu.space
    ctx = (l, r1.space, r2.space)
    v2 = route_steps(r2.op, ctx, (1, 3), "under", mu.braiding)
    h12 = tensor_space(r1.space, r2.space)
    out = leg_product([(r1.op, 1), *v2], ctx)
    return Rep(h12, out.with_legs((l, h12), (l, h12)))


def tensor_yd(m1: YDModule, m2: YDModule, mu: MultUnitary,
              tol: float = 1e-9) -> YDModule:
    """Tensor product module; the output is revalidated against its residuals
    (the corep residual inside :func:`tensor_corep`)."""
    c = tensor_corep(m1.as_corep(), m2.as_corep(), mu, tol)
    r = _yd_tensor_rep(m1.as_rep(), m2.as_rep(), mu)
    out = YDModule(c.space, c.op, r.op)
    for name, res in (("rep", rep_residual(r, mu)),
                      ("yd", yd_residual(out, mu))):
        if res > tol:
            raise ValueError(f"tensor module fails its {name} residual: {res:.3e}")
    return out


def pairing_unitary(rep: Rep, corep: Corep, mu: MultUnitary, tol: float = 1e-9
                    ) -> LegOperator:
    """The unique unitary on H (x) K whose (1,3)-embedding is U*12 V23 U12 V*23,
    extracted from the product's four steps, never formed as a matrix.

    Requires a trivial commutant (dimension one); a violation is reported as
    a warning since the extraction itself may still succeed.  The commutant
    is ``mu.commutant_dim``, computed once per unitary however many modules
    are paired over it.
    """
    h, k = corep.space, rep.space
    ctx = (h, mu.space, k)
    u, v = corep.op, rep.op
    if mu.commutant_dim != 1:
        warnings.warn("pairing_unitary: the commutant is not trivial, the "
                      "factorization may not be unique", stacklevel=2)
    z, residual = extract_distant([(adjoint(v), 2), (u, 1), (v, 2), (adjoint(u), 1)],
                                  ctx, (1, 3), "over", mu.braiding)
    if residual > tol:
        raise ExtractionError(
            f"pairing does not factor through the outer legs (residual {residual:.3e})")
    if not is_unitary(z, max(tol, 1e-9)):
        raise ExtractionError("extracted pairing is not unitary")
    return z


def yd_braiding(m1: YDModule, m2: YDModule, mu: MultUnitary, tol: float = 1e-9
                ) -> LegOperator:
    """The module-category braiding H (x) K -> K (x) H: inverse ambient braiding
    composed with the rep-corep pairing of :func:`pairing_unitary`."""
    h, k = m1.space, m2.space
    pairing = pairing_unitary(m2.as_rep(), m1.as_corep(), mu, tol)
    cinv = mu.braiding.braid_inverse(k, h)  # H (x) K -> K (x) H
    return compose(cinv, pairing)


def yd_braiding_provider(modules: list[YDModule], mu: MultUnitary,
                         include_tensors: bool = True, tol: float = 1e-9) -> ExplicitBraiding:
    """Explicit braiding table over the given modules (and their pairwise tensors).

    Including tensor modules makes the hexagon identities checkable against
    genuinely independent pairings.  Every pairing reads the one commutant
    of mu, ``mu.commutant_dim``.
    """
    objects = list(modules)
    if include_tensors:
        for a in modules:
            for b in modules:
                objects.append(tensor_yd(a, b, mu, tol))
    provider = ExplicitBraiding()
    base_ids = {m.space.id for m in modules}
    for a in objects:
        for b in objects:
            if a.space.id not in base_ids and b.space.id not in base_ids:
                continue  # tensor-tensor pairs are not needed for hexagon checks
            provider.register(yd_braiding(a, b, mu, tol))
    return provider


def yd_braiding_regularity(m1: YDModule, m2: YDModule, mu: MultUnitary,
                           tol: float = 1e-9) -> BraidingRegularityReport:
    """Slice-span ranks of the module braiding; full rank on regular inputs."""
    phi = yd_braiding(m1, m2, mu, tol)
    provider = ExplicitBraiding()
    provider.register(phi)
    return braiding_regularity(provider, m1.space, m2.space)


def corep_slice_span(corep: Corep, mu: MultUnitary) -> OperatorSpan:
    """Right slices of c^{-1}_{L,H} U, operators from H to L; full rank when the
    ambient data is regular."""
    h, l = corep.space, mu.space
    cinv = mu.braiding.braid_inverse(l, h)  # H (x) L -> L (x) H
    return span_from_slices(compose(cinv, corep.op), "right")
