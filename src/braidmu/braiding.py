"""Braiding providers for concrete categories, plus axiom and regularity checks.

A provider assigns to every supported ordered pair of spaces (H, K) a unitary
c_{H,K}: H (x) K -> K (x) H, and its inverse c_{H,K}^{-1}: each provider
owns that inverse.  The flip and phase braidings return
:func:`~braidmu.tensor.crossing` values, permutations with phases, and
invert them in closed form: swap back and conjugate the phases.  The
inverse provider's inverse is its base braiding itself; only an explicit
table is inverted numerically.  Any monomial, a crossing or an explicit
table alike, is applied by the leg calculus as a gather.  A braiding of
leg blocks is the list of adjacent crossings of :func:`braid_steps`,
multiplied by :func:`braidmu.tensor.leg_product`.
Hexagon checks compare the provider's braiding of a genuine tensor-product
space against that product, so they are non-vacuous for every provider kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tensor import (LegError, LegOperator, LegSignature, Space, Step, crossing, distance,
                     leg_product, tensor_space)
from . import spans

__all__ = [
    "UnsupportedPairError", "BraidingProvider", "FlipBraiding", "PhaseBraiding",
    "ExplicitBraiding", "InverseBraiding", "braid_steps", "braid_tensor", "check_hexagons",
    "check_naturality", "braiding_regularity", "BraidingRegularityReport",
]


class UnsupportedPairError(KeyError):
    """The provider has no braiding for the requested pair of spaces."""


class BraidingProvider:
    """Base class; subclasses implement :meth:`braid` and :meth:`supports`."""

    def braid(self, h: Space, k: Space) -> LegOperator:
        raise NotImplementedError

    def supports(self, h: Space, k: Space) -> bool:
        raise NotImplementedError

    def braid_inverse(self, h: Space, k: Space) -> LegOperator:
        """c_{H,K}^{-1}: K (x) H -> H (x) K, by ``np.linalg.inv``; a singular
        braiding raises :class:`~braidmu.tensor.LegError`.  Providers that
        know their inverse in closed form override this.
        """
        c = self.braid(h, k)
        try:
            inverse = np.linalg.inv(c.matrix)
        except np.linalg.LinAlgError:
            raise LegError(f"the braiding of ({h.id}, {k.id}) is singular") from None
        return LegOperator(LegSignature(c.codomain, c.domain), inverse)

    def inverse(self) -> "BraidingProvider":
        """The reversed-category braiding (H, K) -> c_{K,H}^{-1}."""
        return InverseBraiding(self)


class FlipBraiding(BraidingProvider):
    """The tensor flip, defined for every pair."""

    kind = "flip"

    def braid(self, h: Space, k: Space) -> LegOperator:
        return crossing(h, k)

    def braid_inverse(self, h: Space, k: Space) -> LegOperator:
        return crossing(k, h)

    def supports(self, h: Space, k: Space) -> bool:
        return True


class PhaseBraiding(BraidingProvider):
    """c(h (x) k) = q^(deg h * deg k) k (x) h with q = exp(2 pi i / modulus).

    Requires graded spaces on both sides.  The exponent is reduced modulo
    the modulus as a Python int first, so any degree gives a phase.
    """

    kind = "phase"

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = int(modulus)
        self.q = np.exp(2j * np.pi / self.modulus)

    def _phases(self, h: Space, k: Space) -> np.ndarray:
        """The table q^(deg h * deg k) of c_{H,K}."""
        if not self.supports(h, k):
            raise UnsupportedPairError(f"phase braiding needs gradings on ({h.id}, {k.id})")
        m = self.modulus
        return np.array([[self.q ** ((dh * dk) % m) for dk in k.grading] for dh in h.grading])

    def braid(self, h: Space, k: Space) -> LegOperator:
        return crossing(h, k, self._phases(h, k))

    def braid_inverse(self, h: Space, k: Space) -> LegOperator:
        """Swap back and conjugate the phases: c_{H,K}^{-1} = c_{H,K}*."""
        return crossing(k, h, self._phases(h, k).conj().T)

    def supports(self, h: Space, k: Space) -> bool:
        return h.grading is not None and k.grading is not None


class ExplicitBraiding(BraidingProvider):
    """A table of unitaries keyed by ordered pairs of space ids."""

    kind = "explicit"

    def __init__(self):
        self._table: dict[tuple[str, str], LegOperator] = {}

    def register(self, op: LegOperator) -> None:
        if len(op.domain) != 2 or len(op.codomain) != 2:
            raise ValueError("braiding entries must be two-leg operators")
        h, k = op.domain
        if op.codomain != (k, h):
            raise ValueError(f"braiding entry for ({h.id}, {k.id}) must have codomain "
                             f"({k.id}, {h.id})")
        self._table[(h.id, k.id)] = op

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

    def braid_inverse(self, h: Space, k: Space) -> LegOperator:
        """The base braiding c_{K,H} itself, never inverted twice."""
        return self.base.braid(k, h)

    def supports(self, h: Space, k: Space) -> bool:
        return self.base.supports(k, h)

    def inverse(self) -> BraidingProvider:
        return self.base


def braid_steps(provider: BraidingProvider, left: Sequence[Space],
                right: Sequence[Space]) -> list[Step]:
    """The adjacent crossings of the braiding of leg blocks, as leg_product steps.

    This is the hexagon expansion c_{X (x) Y, Z} = (c_{X,Z} (x) id)(id (x) c_{Y,Z})
    and c_{X, Y (x) Z} = (id (x) c_{X,Z})(c_{X,Y} (x) id) unrolled: the last
    left leg crosses first, taking the right legs in order, then the leg
    before it.  Left leg i crosses right leg j at position i + j - 1.
    """
    left, right = tuple(left), tuple(right)
    return [(provider.braid(left[i - 1], right[j - 1]), i + j - 1)
            for i in range(len(left), 0, -1) for j in range(1, len(right) + 1)]


def braid_tensor(provider: BraidingProvider, left: Sequence[Space],
                 right: Sequence[Space]) -> LegOperator:
    """Braiding of leg blocks: the product of :func:`braid_steps`."""
    return leg_product(braid_steps(provider, left, right), tuple(left) + tuple(right))


def check_hexagons(provider: BraidingProvider, spaces: Sequence[Space]) -> dict:
    """Max residual of both hexagon identities over all ordered triples.

    The left-hand sides braid genuine product spaces, so a provider must
    supply (or derive) braidings for them; this is what keeps the check
    meaningful for explicit tables.  The right-hand sides are the block
    crossings of :func:`braid_tensor`.
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
    """Max residual of c (f (x) g) = (g (x) f) c over all pairs from the list,
    each the :func:`~braidmu.tensor.distance` of the two words."""
    if any(len(f.domain) != 1 or len(f.codomain) != 1 for f in morphisms):
        raise ValueError("naturality check expects single-leg morphisms")
    worst = 0.0
    for f in morphisms:
        for g in morphisms:
            legs = f.domain + g.domain
            lhs = [(f, 1), (g, 2), (provider.braid(f.codomain[0], g.codomain[0]), 1)]
            rhs = [(provider.braid(*legs), 1), (g, 1), (f, 2)]
            worst = max(worst, distance(lhs, rhs, legs))
    return {"max_residual": worst, "pairs": len(morphisms) ** 2}


@dataclass(frozen=True)
class BraidingRegularityReport:
    right_rank: int
    left_rank: int
    full: int
    semi_regular: bool
    regular: bool
    bi_regular: bool


def braiding_regularity(provider: BraidingProvider, h: Space, k: Space
                        ) -> BraidingRegularityReport:
    """Slice-span ranks of c_{H,K}; at finite dimension semi-regular == regular."""
    c = provider.braid(h, k)
    right = spans.span_from_slices(c, "right")
    left = spans.span_from_slices(c, "left")
    full = h.dim * k.dim
    regular = right.rank == full
    return BraidingRegularityReport(
        right_rank=right.rank, left_rank=left.rank, full=full,
        semi_regular=regular, regular=regular,
        bi_regular=regular and left.rank == full)
