"""Leg calculus for operators on tensor products of finite-dimensional spaces.

Operators carry an ordered list of domain legs and codomain legs.  The
multi-index convention is fixed once and for all: the FIRST leg is the most
significant index, for rows and columns alike, so tensoring two operators is
exactly ``numpy.kron``.

A factor on a few legs of a longer context acts matrix-free:
:func:`apply_on_legs` left-multiplies by 1 (x) op (x) 1 with one reshape and
one matmul and never forms the padded matrix.  A :class:`Crossing`, a
permutation with phases such as a flip or phase braiding, acts with no
matmul at all: an axis swap of the rows times its phase table.  A
leg-notation product is a list of steps ``(op, start)``, run by
:func:`record` (which :func:`leg_product` wraps as an operator); this is the
one way a factor is padded and multiplied, for the DSL, the block crossings
of :func:`braidmu.braiding.braid_steps`, crossed-product injections,
conjugations, comultiplications and the Pentagon alike.  A factor on
distant legs is the steps of :func:`route_steps`: the move crossings, the
factor, the back crossings.  :func:`pullback` runs a recorded :class:`Tape`
in reverse mode: it takes a cotangent of the product back to each step's
factor, through the prefix products the forward pass kept and the adjoint
steps applied the same way.  :func:`embed_adjacent` and :func:`compose` give
the same products densely, and the tests keep them as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LegError", "Space", "LegSignature", "LegOperator", "Crossing", "crossing", "Vector",
    "Step", "tensor_space", "total_dim", "identity", "compose", "tensor", "adjoint",
    "embed_adjacent", "apply_on_legs", "legs_after", "Tape", "record", "leg_product",
    "pullback", "route_steps",
    "apply_distant", "extract_distant", "is_unitary",
]


class LegError(ValueError):
    """Raised when leg signatures are inconsistent with the requested operation."""


@dataclass(frozen=True)
class Space:
    """A finite-dimensional Hilbert space, optionally graded.

    ``grading`` assigns an integer degree to each basis vector; phase
    braidings read it as an exponent.
    """

    id: str
    dim: int
    grading: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"space {self.id!r} needs dim >= 1, got {self.dim}")
        if self.grading is not None:
            object.__setattr__(self, "grading", tuple(int(d) for d in self.grading))
            if len(self.grading) != self.dim:
                raise ValueError(
                    f"space {self.id!r}: grading length {len(self.grading)} != dim {self.dim}")


def tensor_space(a: Space, b: Space) -> Space:
    """The tensor product space, with additive grading when both factors carry one."""
    grading = None
    if a.grading is not None and b.grading is not None:
        grading = tuple(da + db for da in a.grading for db in b.grading)
    return Space(f"{a.id}*{b.id}", a.dim * b.dim, grading)


def total_dim(legs: Sequence[Space]) -> int:
    d = 1
    for s in legs:
        d *= s.dim
    return d


@dataclass(frozen=True)
class LegSignature:
    domain: tuple[Space, ...]
    codomain: tuple[Space, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "codomain", tuple(self.codomain))

    @property
    def dom_dim(self) -> int:
        return total_dim(self.domain)

    @property
    def cod_dim(self) -> int:
        return total_dim(self.codomain)


@dataclass(frozen=True, eq=False)
class LegOperator:
    """A complex matrix together with its leg signature.

    Operators compare and hash by identity, as a numpy matrix gives no
    single truth value for ``==``.
    """

    signature: LegSignature
    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        if m.shape != (self.signature.cod_dim, self.signature.dom_dim):
            raise LegError(
                f"matrix shape {m.shape} does not match signature "
                f"({self.signature.cod_dim}, {self.signature.dom_dim})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def domain(self) -> tuple[Space, ...]:
        return self.signature.domain

    @property
    def codomain(self) -> tuple[Space, ...]:
        return self.signature.codomain

    def with_legs(self, domain: Sequence[Space], codomain: Sequence[Space]) -> "LegOperator":
        """Reinterpret the same matrix with regrouped legs (total dims must agree)."""
        sig = LegSignature(tuple(domain), tuple(codomain))
        if (sig.dom_dim, sig.cod_dim) != (self.signature.dom_dim, self.signature.cod_dim):
            raise LegError("regrouped legs change the total dimension")
        return LegOperator(sig, self.matrix)


@dataclass(frozen=True, eq=False)
class Crossing(LegOperator):
    """A crossing H (x) K -> K (x) H that sends e_i (x) e_j to phases[i, j] e_j (x) e_i.

    ``phases`` is the dim H x dim K table of unimodular phases, or None for
    the flip.  ``matrix`` is the dense value; :func:`apply_on_legs` acts by
    an axis swap and a phase multiply instead.  Build one with
    :func:`crossing`.
    """

    phases: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if len(self.domain) != 2 or self.codomain != self.domain[::-1]:
            raise LegError("a crossing maps legs (H, K) to (K, H)")
        if self.phases is not None:
            p = _shaped(self.phases, *self.domain).copy()
            if np.abs(np.abs(p) - 1.0).max() > 1e-12:
                raise LegError("crossing phases must have modulus one")
            p.setflags(write=False)
            object.__setattr__(self, "phases", p)

    def adjoint(self) -> "Crossing":
        """The adjoint, which is the inverse: swap back and conjugate the phases.

        Built once, as the crossing is immutable; the adjoint's own adjoint
        is this crossing.
        """
        star = self.__dict__.get("_adjoint")
        if star is None:
            h, k = self.domain
            star = crossing(k, h, None if self.phases is None else self.phases.conj().T)
            object.__setattr__(star, "_adjoint", self)
            object.__setattr__(self, "_adjoint", star)
        return star


def crossing(h: Space, k: Space, phases: np.ndarray | None = None) -> Crossing:
    """The :class:`Crossing` H (x) K -> K (x) H with the given phase table."""
    if phases is not None:
        phases = _shaped(phases, h, k)
    i, j = np.divmod(np.arange(h.dim * k.dim), k.dim)
    m = np.zeros((k.dim * h.dim, h.dim * k.dim), dtype=complex)
    m[j * h.dim + i, i * k.dim + j] = 1.0 if phases is None else phases[i, j]
    return Crossing(LegSignature((h, k), (k, h)), m, phases)


def _shaped(phases, h: Space, k: Space) -> np.ndarray:
    p = np.asarray(phases, dtype=complex)
    if p.shape != (h.dim, k.dim):
        raise LegError(f"phase table of shape {p.shape} does not match the legs")
    return p


def _cross(c: Crossing, x: np.ndarray, pre: int, rest: int) -> np.ndarray:
    """(1 (x) c (x) 1) @ x for x viewed as (pre, H, K, rest): the axis swap to
    (pre, K, H, rest) times the phases, one pass over x."""
    h, k = (s.dim for s in c.domain)
    swapped = x.reshape(pre, h, k, rest).transpose(0, 2, 1, 3)
    out = np.empty((pre, k, h, rest), dtype=complex)
    if c.phases is None:
        out[...] = swapped
    else:
        np.multiply(swapped, c.phases.T[:, :, None], out=out)
    return out


@dataclass(frozen=True, eq=False)
class Vector:
    space: Space
    entries: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.entries, dtype=complex).reshape(-1)
        if v.shape != (self.space.dim,):
            raise LegError(f"vector length {v.shape[0]} != dim {self.space.dim}")
        v.setflags(write=False)
        object.__setattr__(self, "entries", v)


def identity(legs: Sequence[Space]) -> LegOperator:
    legs = tuple(legs)
    return LegOperator(LegSignature(legs, legs), np.eye(total_dim(legs), dtype=complex))


def compose(x: LegOperator, y: LegOperator) -> LegOperator:
    """Operator product x after y (diagrams stacked bottom to top, y at the bottom)."""
    if y.codomain != x.domain:
        raise LegError(
            f"compose: codomain legs {[s.id for s in y.codomain]} of the first factor "
            f"do not match domain legs {[s.id for s in x.domain]}")
    return LegOperator(LegSignature(y.domain, x.codomain), x.matrix @ y.matrix)


def tensor(x: LegOperator, y: LegOperator) -> LegOperator:
    """Horizontal juxtaposition: legs of x precede legs of y."""
    sig = LegSignature(x.domain + y.domain, x.codomain + y.codomain)
    return LegOperator(sig, np.kron(x.matrix, y.matrix))


def adjoint(x: LegOperator) -> LegOperator:
    """The conjugate transpose; a :class:`Crossing` stays a crossing."""
    if isinstance(x, Crossing):
        return x.adjoint()
    return LegOperator(LegSignature(x.codomain, x.domain), x.matrix.conj().T)


def _placed(x: LegOperator, context: tuple[Space, ...], start: int
            ) -> tuple[tuple[Space, ...], tuple[Space, ...]]:
    """The context legs before and after x placed on legs ``start ..`` (1-based)."""
    k = len(x.domain)
    if start < 1 or start + k - 1 > len(context):
        raise LegError(f"cannot embed a {k}-leg operator at position {start} "
                       f"of a {len(context)}-leg context")
    if context[start - 1:start - 1 + k] != x.domain:
        raise LegError(
            f"domain legs {[s.id for s in x.domain]} do not match context legs "
            f"{[s.id for s in context[start - 1:start - 1 + k]]} at position {start}")
    return context[:start - 1], context[start - 1 + k:]


def embed_adjacent(x: LegOperator, context: Sequence[Space], start: int) -> LegOperator:
    """Embed x on the contiguous legs ``start .. start+k-1`` (1-based) of the context.

    The padded matrix 1 (x) x (x) 1 is written into zeros block by block,
    which gives ``np.kron``'s entries without its multiplications.
    """
    context = tuple(context)
    pre, post = _placed(x, context, start)
    m = x.matrix
    if pre or post:
        (a, b), p, q = m.shape, total_dim(pre), total_dim(post)
        padded = np.zeros((p, a, q, p, b, q), dtype=complex)
        i, j = np.arange(p)[:, None], np.arange(q)
        padded[i, :, j, i, :, j] = m
        m = padded.reshape(p * a * q, p * b * q)
    sig = LegSignature(context, pre + x.codomain + post)
    return LegOperator(sig, m)


def legs_after(op: LegOperator, context: Sequence[Space], start: int) -> tuple[Space, ...]:
    """The context once op has acted on its legs ``start ..`` (1-based)."""
    pre, post = _placed(op, tuple(context), start)
    return pre + op.codomain + post


def apply_on_legs(op: LegOperator, x: np.ndarray, context: Sequence[Space],
                  start: int) -> np.ndarray:
    """(1 (x) op (x) 1) @ x, with op on the legs ``start ..`` (1-based) of the rows of x.

    The rows of x carry the legs ``context``; its columns may be anything.  x
    is viewed as (pre, op's domain, post * columns) blocks and multiplied by
    op in one matmul, so the padded matrix is never formed; a
    :class:`Crossing` swaps the two axes of its legs instead.  The rows of the
    result carry :func:`legs_after`.
    """
    context = tuple(context)
    pre, post = _placed(op, context, start)
    if x.ndim != 2 or x.shape[0] != total_dim(context):
        raise LegError(f"a matrix of shape {x.shape} has no rows on a context of "
                       f"total dimension {total_dim(context)}")
    cols = x.shape[1]
    if isinstance(op, Crossing):
        out = _cross(op, x, total_dim(pre), total_dim(post) * cols)
    else:
        out = np.matmul(op.matrix, x.reshape(total_dim(pre), op.matrix.shape[1],
                                             total_dim(post) * cols))
    return out.reshape(-1, cols)


Step = tuple[LegOperator, int]


def _run_steps(steps: Sequence[Step], x: np.ndarray, context: tuple[Space, ...]
               ) -> tuple[np.ndarray, tuple[Space, ...]]:
    """Apply the steps in order to the rows of x, which carry the legs ``context``.

    Returns the product and the legs its rows carry.
    """
    for op, start in steps:
        x = apply_on_legs(op, x, context, start)
        context = legs_after(op, context, start)
    return x, context


@dataclass(frozen=True, eq=False)
class Tape:
    """A step list run forward from the identity, as :func:`record` leaves it.

    ``legs[j]`` are the legs the rows carry before step j, the last entry
    those of the product.  ``prefixes[j]`` is the product of the steps ahead
    of step j, the identity first and the whole product last; a tape
    recorded with ``keep=False`` holds the whole product alone.
    """

    steps: tuple[Step, ...]
    legs: tuple[tuple[Space, ...], ...]
    prefixes: tuple[np.ndarray, ...]

    @property
    def product(self) -> np.ndarray:
        return self.prefixes[-1]


def record(steps: Sequence[Step], context: Sequence[Space], keep: bool = True) -> Tape:
    """The product of leg-local steps on the context, the first step applied first.

    A step ``(op, start)`` acts on the legs ``start ..`` of the context as the
    earlier steps left it.  The first step's padded matrix starts the product
    (written once, never multiplied); every later step acts on it by
    :func:`apply_on_legs`.  With ``keep``, every prefix product stays on the
    tape for :func:`pullback`.
    """
    context = tuple(context)
    (op, start), *rest = steps
    first = embed_adjacent(op, context, start)
    x, legs = first.matrix, [context, first.codomain]
    prefixes = [np.eye(total_dim(context), dtype=complex), x] if keep else None
    for op, start in rest:
        x = apply_on_legs(op, x, legs[-1], start)
        legs.append(legs_after(op, legs[-1], start))
        if keep:
            prefixes.append(x)
    return Tape(tuple(steps), tuple(legs), tuple(prefixes) if keep else (x,))


def leg_product(steps: Sequence[Step], context: Sequence[Space]) -> LegOperator:
    """The product of the steps on the context, by :func:`record`, as an operator."""
    tape = record(steps, context, keep=False)
    return LegOperator(LegSignature(tape.legs[0], tape.legs[-1]), tape.product)


def pullback(tape: Tape, cotangent: np.ndarray, factor: LegOperator | None = None
             ) -> list[np.ndarray]:
    """The cotangents of the steps' factors, for a cotangent P of the tape's product W.

    Write W = After (1 (x) op (x) 1) Before around step j.  A change d(op)
    of that factor changes W by After (1 (x) d(op) (x) 1) Before, so
    <P, dW> = <G_j, d(op)> (Hilbert-Schmidt) with G_j the partial trace of
    After* P Before* over the legs op does not touch.  Returns G_j, shaped
    like op's matrix, in step order, for every step whose factor is
    ``factor`` (every step when None); a factor that occurs in several
    steps gets one cotangent per occurrence.  Before is the tape's prefix
    product; After* P runs the adjoint steps backward by
    :func:`apply_on_legs`, so crossings stay axis swaps.
    """
    steps, legs, before = tape.steps, tape.legs, tape.prefixes
    if len(before) != len(steps) + 1:
        raise LegError("pullback needs a tape that kept its prefix products")
    if cotangent.shape != (total_dim(legs[-1]), total_dim(legs[0])):
        raise LegError(f"a cotangent of shape {cotangent.shape} does not match the "
                       f"product of the steps")
    q, grads = cotangent, []
    for j in reversed(range(len(steps))):
        op, start = steps[j]
        if factor is None or op is factor:
            cod, dom = op.matrix.shape
            pre = total_dim(legs[j][:start - 1])
            # Q[pre, cod, post, col] conj(B[pre, dom, post, col]), summed over pre, post, col
            qb, bb = q.reshape(pre, cod, -1), before[j].reshape(pre, dom, -1)
            grads.append(np.matmul(qb, bb.conj().transpose(0, 2, 1)).sum(axis=0))
        if j:  # After* P of step j - 1
            q = apply_on_legs(adjoint(op), q, legs[j + 1], start)
    return grads[::-1]


def _route_providers(braiding, route: str):
    """The providers of the move crossing and of the back crossing of a route.

    Route "over" is pinned by the Pentagon right-hand side c12 F23 cinv12: the
    first conjugator there is the inverse braiding, so leg i slides right
    with the inverse provider and comes back with the braiding itself.
    """
    if route == "over":
        return braiding.inverse(), braiding
    if route == "under":
        return braiding, braiding.inverse()
    raise ValueError(f"route must be 'over' or 'under', got {route!r}")


def _route_crossings(context: tuple[Space, ...], positions: tuple[int, int],
                     out_legs: tuple[Space, ...], route: str, braiding
                     ) -> tuple[list[Step], list[Step]]:
    """The move and back crossings of a route between legs (i, k), i + 1 < k.

    Both are :func:`braidmu.braiding.braid_steps` lists shifted to leg i:
    move braids leg i past the intermediate legs; back braids the first of
    ``out_legs`` (the codomain of the routed operator) back past them.
    """
    from .braiding import braid_steps  # braiding builds on this module

    i, k = positions
    forth, undo = _route_providers(braiding, route)
    mids = context[i:k - 1]

    def from_leg_i(steps: list[Step]) -> list[Step]:
        return [(op, start + i - 1) for op, start in steps]

    return (from_leg_i(braid_steps(forth, context[i - 1:i], mids)),
            from_leg_i(braid_steps(undo, mids, tuple(out_legs[:1]))))


def _routed(x: LegOperator, k: int, move: list[Step], back: list[Step]) -> list[Step]:
    """move, then x on the legs (k - 1, k) that move brings together, then back."""
    return [*move, (x, k - 1), *back]


def _check_positions(positions: tuple[int, int], n: int) -> None:
    i, k = positions
    if not (1 <= i < k <= n):
        raise LegError(f"positions {positions} out of range for a {n}-leg context")


def route_steps(x: LegOperator, context: Sequence[Space], positions: tuple[int, int],
                route: str = "over", braiding=None) -> list[Step]:
    """The steps of a two-leg operator applied at legs (i, k), i < k, of the context.

    Adjacent legs take the one step ``(x, i)``.  Otherwise leg i is braided
    past the intermediate legs, one adjacent crossing at a time, x acts on
    the now-adjacent legs, and its first codomain leg is braided back.
    """
    i, k = positions
    context = tuple(context)
    _check_positions(positions, len(context))
    if len(x.domain) != 2 or len(x.codomain) != 2:
        raise LegError("apply_distant needs an operator with exactly two domain "
                       "and two codomain legs")
    a, b = x.domain
    if context[i - 1] != a or context[k - 1] != b:
        raise LegError(
            f"operator legs ({a.id}, {b.id}) do not match context legs "
            f"({context[i - 1].id}, {context[k - 1].id}) at positions {positions}")
    if k == i + 1:
        return [(x, i)]
    if braiding is None:
        raise LegError("apply_distant with intermediate legs needs a braiding")
    move, back = _route_crossings(context, positions, x.codomain, route, braiding)
    return _routed(x, k, move, back)


def apply_distant(x: LegOperator, context: Sequence[Space], positions: tuple[int, int],
                  route: str = "over", braiding=None) -> LegOperator:
    """Apply a two-leg operator at non-adjacent legs (i, k) of the context.

    The product of :func:`route_steps`; with adjacent positions this is
    :func:`embed_adjacent` with no braiding at all.
    """
    return leg_product(route_steps(x, context, positions, route, braiding), context)


def extract_distant(y: LegOperator, context: Sequence[Space], positions: tuple[int, int],
                    route: str = "over", braiding=None) -> tuple[LegOperator, float]:
    """Best two-leg factor z at legs (i, k) with y ~ apply_distant(z, ...).

    Least squares in the Hilbert-Schmidt metric: conjugate y back along the
    braiding route and partial-trace over the remaining legs.  Returns the
    minimiser and the residual norm; a residual above the caller's tolerance
    means y does not factor through legs (i, k).
    """
    i, k = positions
    context = tuple(context)
    _check_positions(positions, len(context))
    if y.domain != context or y.codomain != context:
        raise LegError("extract_distant expects an endomorphism of the full context")
    a, b = context[i - 1], context[k - 1]
    yp = y.matrix
    routed = k > i + 1
    if routed:
        if braiding is None:
            raise LegError("extract_distant with intermediate legs needs a braiding")
        # apply_distant(z) = Q* E(z) Q with the same unitary Q for every z, so
        # the least-squares problem is a partial trace of Q y Q* = Q (Q y*)*
        move, back = _route_crossings(context, positions, (a, b), route, braiding)
        yp = _run_steps(move, yp, context)[0]
        yp = _run_steps(move, yp.conj().T, context)[0].conj().T
    d_left = total_dim(context[:i - 1] + context[i:k - 1])
    d_mid = a.dim * b.dim
    d_right = total_dim(context[k:])
    t = yp.reshape(d_left, d_mid, d_right, d_left, d_mid, d_right)
    z = np.einsum("aibajb->ij", t) / (d_left * d_right)
    zop = LegOperator(LegSignature((a, b), (a, b)), z)
    # the residual goes through the crossings themselves, not their unitarity:
    # explicit braiding tables are not validated as unitary
    fit = leg_product(_routed(zop, k, move, back) if routed else [(zop, i)], context)
    return zop, float(np.linalg.norm(y.matrix - fit.matrix))


def _unitarity_residual(m: np.ndarray) -> float:
    """max(||m*m - 1||, ||mm* - 1||) in the Hilbert-Schmidt norm, for a square m."""
    eye = np.eye(m.shape[0])
    return float(max(np.linalg.norm(m.conj().T @ m - eye),
                     np.linalg.norm(m @ m.conj().T - eye)))


def is_unitary(x: LegOperator, tol: float = 1e-9) -> bool:
    """True when x*x and xx* are the identity within tol (Hilbert-Schmidt norm)."""
    if x.signature.dom_dim != x.signature.cod_dim:
        raise LegError("is_unitary needs a square total dimension")
    return _unitarity_residual(x.matrix) < tol
