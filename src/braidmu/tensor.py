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
leg-notation product is a list of steps ``(op, start)``.  Every product
starts in one runner, :func:`_columns`: a range of its columns, begun as the
first step's padded columns (written once, never multiplied) and run by
:func:`_run_steps`.  This is the one way a factor is padded and multiplied:
:func:`leg_product` is all the columns, for the DSL, block crossings,
injections, conjugations and comultiplications alike; :func:`distance` of
two words (a DSL statement, the Pentagon, a routing agreement or a
Yetter-Drinfeld identity) runs both over blocks of columns within the byte
budget :data:`_BLOCK_BYTES`, so memory is O(n^3 b) on three legs of
dimension n, not n^6.  A :class:`PlannedWord` is a word planned once for
reverse mode, whose slot factor takes a new matrix on every run: its forward
pass keeps every prefix product, and its pullback takes a cotangent of the
product back to the slot's steps.  A factor on distant
legs is the steps of :func:`route_steps`: the move crossings, the factor,
the back crossings.  :func:`embed_adjacent` (the one-step
:func:`leg_product`) and :func:`compose` are the dense oracle of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "LegError", "Space", "LegSignature", "LegOperator", "Crossing", "crossing", "Vector",
    "Step", "tensor_space", "total_dim", "identity", "compose", "tensor", "adjoint",
    "embed_adjacent", "apply_on_legs", "legs_after", "leg_product", "distance",
    "PlannedWord", "route_steps",
    "apply_distant", "extract_distant", "is_unitary",
]


# bytes of one block of a streamed product: the domain columns of both words
# in :func:`distance`, and the target lines of the crossed-product extensions
# in :mod:`braidmu.spans`.  At KT Z8 a block of the coassociativity check holds
# four target rows, and the check peaks at 19 MB (tracemalloc), in its crossed
# product and decompositions; at KT Z6 it stays below the 4.5 MB of one dense
# block of mapped factors, where a 4 MiB budget would not
_BLOCK_BYTES = 3 << 20


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
            if not np.abs(np.abs(p) - 1.0).max() <= 1e-12:    # NaN fails too
                raise LegError("crossing phases must be finite with modulus one")
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

    @cached_property
    def swap(self) -> tuple[int, int, np.ndarray | None]:
        """dim H, dim K and the phases as a (K, H, 1) table (None for the flip),
        which :func:`_cross` reads."""
        h, k = (s.dim for s in self.domain)
        return h, k, None if self.phases is None else self.phases.T[:, :, None]


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
    h, k, table = c.swap
    swapped = x.reshape(pre, h, k, rest).transpose(0, 2, 1, 3)
    out = np.empty((pre, k, h, rest), dtype=complex)
    if table is None:
        out[...] = swapped
    else:
        np.multiply(swapped, table, out=out)
    return out


def _step(a: Crossing | np.ndarray, x: np.ndarray, pre: int, rest: int) -> np.ndarray:
    """One step on x viewed as (pre, a's domain, rest): a crossing's axis swap
    by :func:`_cross`, or one matmul by the matrix a."""
    if isinstance(a, Crossing):
        return _cross(a, x, pre, rest)
    return np.matmul(a, x.reshape(pre, a.shape[1], rest))


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
    """Embed x on the contiguous legs ``start .. start+k-1`` (1-based) of the context:
    the padded matrix 1 (x) x (x) 1, the one-step :func:`leg_product`."""
    return leg_product([(x, start)], context)


def _padding(x: LegOperator, context: tuple[Space, ...], start: int, lo: int, hi: int):
    """Where columns ``lo:hi`` of the padded matrix 1 (x) x (x) 1 hold x's
    entries, for :func:`_scatter`: column (i, s, j), with s an index of x's
    domain, holds column s of x in the rows (i, :, j)."""
    pre, post = _placed(x, context, start)
    (a, b), p, q = x.matrix.shape, total_dim(pre), total_dim(post)
    i, s, j = np.unravel_index(np.arange(lo, hi), (p, b, q))
    return (p, a, q, hi - lo), (i, slice(None), j, np.arange(hi - lo)), s


def _scatter(m: np.ndarray, shape: tuple[int, ...], at: tuple, s: np.ndarray) -> np.ndarray:
    """The padded columns of a :func:`_padding`, written into zeros from x's matrix m."""
    out = np.zeros(shape, dtype=complex)
    out[at] = m[:, s].T
    p, a, q, n = shape
    return out.reshape(p * a * q, n)


def _padded_columns(x: LegOperator, context: tuple[Space, ...], start: int, lo: int,
                    hi: int) -> np.ndarray:
    """Columns ``lo:hi`` of the padded matrix 1 (x) x (x) 1, written into zeros."""
    return _scatter(x.matrix, *_padding(x, context, start, lo, hi))


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
    out = _step(op if isinstance(op, Crossing) else op.matrix, x, total_dim(pre),
                total_dim(post) * cols)
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


def _columns(steps: Sequence[Step], context: Sequence[Space], lo: int, hi: int
             ) -> tuple[np.ndarray, tuple[Space, ...]]:
    """Columns ``lo:hi`` of the product of the steps on the context, the first
    step applied first, and the legs its rows carry.

    This is where every product starts.  A step ``(op, start)`` acts on the
    legs ``start ..`` of the context as the earlier steps left it.  The first
    step's :func:`_padded_columns` start the product (written once, never
    multiplied) and the later steps act on them by :func:`_run_steps`; no
    steps give the identity's columns.
    """
    context = tuple(context)
    if not steps:
        x = np.zeros((total_dim(context), hi - lo), dtype=complex)
        x[lo:hi] = np.eye(hi - lo)
        return x, context
    (op, start), *rest = steps
    return _run_steps(rest, _padded_columns(op, context, start, lo, hi),
                      legs_after(op, context, start))


def leg_product(steps: Sequence[Step], context: Sequence[Space]) -> LegOperator:
    """The product of the steps on the context, all of :func:`_columns`, as an operator."""
    context = tuple(context)
    x, legs = _columns(steps, context, 0, total_dim(context))
    return LegOperator(LegSignature(context, legs), x)


def distance(lhs: Sequence[Step], rhs: Sequence[Step], context: Sequence[Space]) -> float:
    """Hilbert-Schmidt norm of the difference of two step products on the same context.

    Neither product is formed whole.  Both run over consecutive blocks of
    domain columns, as many as fit in :data:`_BLOCK_BYTES` (one at least),
    each block by :func:`_columns`.  The squared norms of the blocks'
    differences add up, so memory is one block per side, not a product.
    """
    context = tuple(context)
    ends, rows = [], total_dim(context)
    for steps in (lhs, rhs):
        legs = context
        for op, start in steps:
            legs = legs_after(op, legs, start)
            rows = max(rows, total_dim(legs))
        ends.append(legs)
    if ends[0] != ends[1]:
        raise LegError(
            f"the two products end on different legs, {[s.id for s in ends[0]]} "
            f"and {[s.id for s in ends[1]]}")
    cols = total_dim(context)
    width = max(1, _BLOCK_BYTES // (16 * rows))
    squares = 0.0
    for lo in range(0, cols, width):
        hi = min(lo + width, cols)
        # the right block is run once the last block's difference is gone
        diff = _columns(lhs, context, lo, hi)[0]
        diff -= _columns(rhs, context, lo, hi)[0]
        squares += np.vdot(diff, diff).real
    return float(np.sqrt(squares))


class PlannedWord:
    """A nonempty step list on a context, planned once for reverse mode: the
    steps whose factor is ``slot`` take a new matrix on every run.

    The plan keeps all else: the first step's padded-column scatter
    (:func:`_padding`), each step's reshape dims, a crossing and its adjoint
    (with their :attr:`Crossing.swap`), a fixed factor's matrix and its
    adjoint's, and the identity, the first prefix.  :meth:`forward` and
    :meth:`pullback` do the arithmetic of :func:`_columns` and
    :func:`apply_on_legs` in the same order, so no bit changes.
    """

    def __init__(self, steps: Sequence[Step], context: Sequence[Space], slot: LegOperator):
        legs, cols = tuple(context), total_dim(context)
        (op, start), self._plan = steps[0], []
        self._first = None if op is slot else op.matrix, _padding(op, legs, start, 0, cols)
        self._identity = _columns((), legs, 0, cols)[0]
        self._identity.setflags(write=False)
        for op, start in steps:
            pre, post = _placed(op, legs, start)
            acts = [None, None] if op is slot else [
                a if isinstance(a, Crossing) else a.matrix for a in (op, adjoint(op))]
            self._plan.append((total_dim(pre), op.matrix.shape, total_dim(post) * cols, *acts))
            legs = pre + op.codomain + post
        self._shape = total_dim(legs), cols
        # the conjugate identity, as the pullback of a first slot step reads it
        pre, (_, dom), rest = self._plan[0][:3]
        self._eye_h = self._identity.reshape(pre, dom, rest).conj()

    def forward(self, f: np.ndarray) -> list[np.ndarray]:
        """Every prefix product, with f as the slot's matrix: the identity, the
        first step's padded columns, then each later step run on the prefix
        before it, in the shape that step leaves, and the whole product last,
        as a matrix."""
        m, padding = self._first
        x = _scatter(f if m is None else m, *padding)
        prefixes = [self._identity, x]
        for pre, _, rest, a, _ in self._plan[1:]:
            x = _step(f if a is None else a, x, pre, rest)
            prefixes.append(x)
        prefixes[-1] = x.reshape(self._shape)
        return prefixes

    def pullback(self, prefixes: list[np.ndarray], cotangent: np.ndarray,
                 f_adjoint: np.ndarray) -> list[np.ndarray]:
        """The cotangents of the slot's steps, in step order, for a cotangent P
        of the product W of :meth:`forward`'s prefixes; f_adjoint is the
        adjoint of the slot's matrix.

        Around a slot step j, W = After (1 (x) f (x) 1) Before, so
        <P, dW> = <G_j, d(f)> (Hilbert-Schmidt) with G_j the partial trace of
        After* P Before* over the legs f does not touch.  Before is the
        prefix of step j; After* P runs the adjoint steps backward.
        """
        if cotangent.shape != self._shape:
            raise LegError(f"a cotangent of shape {cotangent.shape} does not match the "
                           f"product of the steps")
        q, grads = cotangent, []
        for j in reversed(range(len(self._plan))):
            pre, (cod, dom), rest, a, back = self._plan[j]
            if a is None:
                # Q[pre, cod, post, col] conj(B[pre, dom, post, col]), summed over pre, post, col
                qb = q.reshape(pre, cod, rest)
                bb = self._eye_h if j == 0 else prefixes[j].reshape(pre, dom, rest).conj()
                grads.append(np.add.reduce(np.matmul(qb, bb.transpose(0, 2, 1)), axis=0))
            if j:  # After* P of step j - 1
                q = np.matmul(f_adjoint, qb) if a is None else _step(back, q, pre, rest)
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
