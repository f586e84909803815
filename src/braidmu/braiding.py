"""Braiding providers for concrete categories, plus axiom and regularity checks.

A provider assigns to every supported ordered pair of spaces (H, K) a unitary
c_{H,K}: H (x) K -> K (x) H.  Hexagon checks compare the provider's braiding of
a genuine tensor-product space against the pairwise composition, so they are
non-vacuous for every provider kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tensor import (LegOperator, LegSignature, Space, compose, embed_adjacent,
                     identity, tensor, tensor_space)
from . import spans

__all__ = [
    "UnsupportedPairError", "BraidingProvider", "FlipBraiding", "PhaseBraiding",
    "ExplicitBraiding", "InverseBraiding", "braid_tensor", "check_hexagons",
    "check_naturality", "braiding_regularity", "BraidingRegularityReport",
]


class UnsupportedPairError(KeyError):
    """The provider has no braiding for the requested pair of spaces."""


def _swap_matrix(h: Space, k: Space, phases: np.ndarray | None = None) -> np.ndarray:
    m = np.zeros((k.dim * h.dim, h.dim * k.dim), dtype=complex)
    for i in range(h.dim):
        for j in range(k.dim):
            m[j * h.dim + i, i * k.dim + j] = 1.0 if phases is None else phases[i, j]
    return m


class BraidingProvider:
    """Base class; subclasses implement :meth:`braid` and :meth:`supports`."""

    def braid(self, h: Space, k: Space) -> LegOperator:
        raise NotImplementedError

    def supports(self, h: Space, k: Space) -> bool:
        raise NotImplementedError

    def braid_inverse(self, h: Space, k: Space) -> LegOperator:
        """c_{H,K}^{-1}: K (x) H -> H (x) K."""
        c = self.braid(h, k)
        return LegOperator(LegSignature(c.codomain, c.domain), np.linalg.inv(c.matrix))

    def inverse(self) -> "BraidingProvider":
        """The reversed-category braiding (H, K) -> c_{K,H}^{-1}."""
        return InverseBraiding(self)


class FlipBraiding(BraidingProvider):
    """The tensor flip, defined for every pair."""

    kind = "flip"

    def braid(self, h: Space, k: Space) -> LegOperator:
        return LegOperator(LegSignature((h, k), (k, h)), _swap_matrix(h, k))

    def supports(self, h: Space, k: Space) -> bool:
        return True


class PhaseBraiding(BraidingProvider):
    """c(h (x) k) = q^(deg h * deg k) k (x) h with q = exp(2 pi i / modulus).

    Requires graded spaces on both sides.
    """

    kind = "phase"

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = int(modulus)
        self.q = np.exp(2j * np.pi / self.modulus)

    def braid(self, h: Space, k: Space) -> LegOperator:
        if not self.supports(h, k):
            raise UnsupportedPairError(f"phase braiding needs gradings on ({h.id}, {k.id})")
        phases = np.array([[self.q ** (dh * dk) for dk in k.grading] for dh in h.grading])
        return LegOperator(LegSignature((h, k), (k, h)), _swap_matrix(h, k, phases))

    def supports(self, h: Space, k: Space) -> bool:
        return h.grading is not None and k.grading is not None


class ExplicitBraiding(BraidingProvider):
    """A table of unitaries keyed by ordered pairs of space ids."""

    kind = "explicit"

    def __init__(self, table: dict[tuple[str, str], LegOperator] | None = None):
        self._table: dict[tuple[str, str], LegOperator] = {}
        for key, op in (table or {}).items():
            self.register(op, key=key)

    def register(self, op: LegOperator, key: tuple[str, str] | None = None) -> None:
        if len(op.domain) != 2 or len(op.codomain) != 2:
            raise ValueError("braiding entries must be two-leg operators")
        h, k = op.domain
        if op.codomain != (k, h):
            raise ValueError(f"braiding entry for ({h.id}, {k.id}) must have codomain "
                             f"({k.id}, {h.id})")
        self._table[key or (h.id, k.id)] = op

    def braid(self, h: Space, k: Space) -> LegOperator:
        try:
            return self._table[(h.id, k.id)]
        except KeyError:
            raise UnsupportedPairError(f"no braiding registered for ({h.id}, {k.id})") from None

    def supports(self, h: Space, k: Space) -> bool:
        return (h.id, k.id) in self._table

    def pairs(self) -> Iterable[tuple[str, str]]:
        return self._table.keys()


class InverseBraiding(BraidingProvider):
    """Braids with c^rev_{H,K} = c_{K,H}^{-1}; the double inverse is the base provider."""

    kind = "inverse"

    def __init__(self, base: BraidingProvider):
        self.base = base

    def braid(self, h: Space, k: Space) -> LegOperator:
        return self.base.braid_inverse(k, h)

    def supports(self, h: Space, k: Space) -> bool:
        return self.base.supports(k, h)

    def inverse(self) -> BraidingProvider:
        return self.base


def braid_tensor(provider: BraidingProvider, left: Sequence[Space],
                 right: Sequence[Space]) -> LegOperator:
    """Braiding of leg blocks, expanded through the hexagon identities."""
    left, right = tuple(left), tuple(right)
    if not left or not right:
        return identity(left + right)
    if len(left) == 1 and len(right) == 1:
        return provider.braid(left[0], right[0])
    if len(left) > 1:
        # c_{X (x) Y, Z} = (c_{X,Z} (x) id_Y) (id_X (x) c_{Y,Z})
        x, y = left[:1], left[1:]
        first = tensor(identity(x), braid_tensor(provider, y, right))
        second = embed_adjacent(braid_tensor(provider, x, right), first.codomain, 1)
        return compose(second, first)
    # c_{X, Y (x) Z} = (id_Y (x) c_{X,Z}) (c_{X,Y} (x) id_Z)
    y, z = right[:1], right[1:]
    first = tensor(braid_tensor(provider, left, y), identity(z))
    second = embed_adjacent(braid_tensor(provider, left, z), first.codomain, 2)
    return compose(second, first)


def check_hexagons(provider: BraidingProvider, spaces: Sequence[Space]) -> dict:
    """Max residual of both hexagon identities over all ordered triples.

    The left-hand sides braid genuine product spaces, so a provider must
    supply (or derive) braidings for them; this is what keeps the check
    meaningful for explicit tables.  The right-hand sides are the block
    crossings of :func:`braid_tensor`, the one place multi-leg crossings
    are built.
    """
    worst = 0.0
    count = 0
    for u in spaces:
        for v in spaces:
            for w in spaces:
                lhs1 = provider.braid(u, tensor_space(v, w))
                rhs1 = braid_tensor(provider, (u,), (v, w))
                lhs2 = provider.braid(tensor_space(u, v), w)
                rhs2 = braid_tensor(provider, (u, v), (w,))
                worst = max(worst,
                            float(np.linalg.norm(lhs1.matrix - rhs1.matrix)),
                            float(np.linalg.norm(lhs2.matrix - rhs2.matrix)))
                count += 1
    return {"max_residual": worst, "triples": count}


def check_naturality(provider: BraidingProvider, morphisms: Sequence[LegOperator]) -> dict:
    """Max residual of c (f (x) g) = (g (x) f) c over all pairs from the list."""
    worst = 0.0
    for f in morphisms:
        for g in morphisms:
            if len(f.domain) != 1 or len(g.domain) != 1:
                raise ValueError("naturality check expects single-leg morphisms")
            lhs = compose(provider.braid(f.codomain[0], g.codomain[0]), tensor(f, g))
            rhs = compose(tensor(g, f), provider.braid(f.domain[0], g.domain[0]))
            worst = max(worst, float(np.linalg.norm(lhs.matrix - rhs.matrix)))
    return {"max_residual": worst, "pairs": len(morphisms) ** 2}


@dataclass(frozen=True)
class BraidingRegularityReport:
    right_rank: int
    left_rank: int
    full: int
    semi_regular: bool
    regular: bool
    bi_regular: bool


def braiding_regularity(provider: BraidingProvider, h: Space, k: Space,
                        cutoff: float = spans.RANK_CUTOFF) -> BraidingRegularityReport:
    """Slice-span ranks of c_{H,K}; at finite dimension semi-regular == regular."""
    c = provider.braid(h, k)
    right = spans.span_from_slices(c, "right", cutoff)
    left = spans.span_from_slices(c, "left", cutoff)
    full = h.dim * k.dim
    regular = right.rank == full
    return BraidingRegularityReport(
        right_rank=right.rank, left_rank=left.rank, full=full,
        semi_regular=regular, regular=regular,
        bi_regular=regular and left.rank == full)
