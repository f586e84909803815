"""Leg calculus for operators on tensor products of finite-dimensional spaces.

Operators carry an ordered list of domain legs and codomain legs.  The
multi-index convention is fixed once and for all: the FIRST leg is the most
significant index, for rows and columns alike, so tensoring two operators is
exactly ``numpy.kron``.

A factor on a few legs of a longer context acts matrix-free: one reshape
and one matmul left-multiply by 1 (x) op (x) 1, and the padded matrix is
never formed.  A monomial, a matrix with one nonzero entry of any value in
each row and column, acts with no matmul at all, as the :class:`Gather` of
the rows it selects times its entries, read from its matrix once
(:attr:`LegOperator.gather`): a :func:`crossing` (a flip or phase
braiding), a Kac-Takesaki unitary, a module's diagonal phase
representation or a Yetter-Drinfeld table alike.  Other matrices keep the
matmul, so a step is a gather or a matmul.  A leg-notation product is a
list of steps ``(op, start)``, and one runner executes every such product:
a :class:`PlannedWord` places its steps once and then runs only arithmetic.
Its columns begin as the first step's padded columns (written once, never
multiplied).  :func:`leg_product` is all the columns, for the DSL, block
crossings, injections, conjugations and comultiplications alike.  A word
with no slot whose steps are all gathers is also one gather of all its rows
(:attr:`PlannedWord.gather`), composed when it is placed.
:func:`distance` of two words (a DSL statement, the Pentagon, a routing
agreement or a Yetter-Drinfeld identity) is closed-form in O(n^3) on three
legs of dimension n when both are such gathers; otherwise it runs both over
blocks of columns within the byte budget :data:`_BLOCK_BYTES`, so memory is
O(n^3 b), not n^6.  :func:`apply_on_legs` is one step run on a given
matrix.  A word with a slot factor takes a new matrix for it on every
run, for reverse mode: its forward pass keeps every prefix product, and its
pullback takes a cotangent of the product back to the slot's steps.  A
factor on distant legs is the steps of :func:`route_steps`: the move
crossings, the factor, the back crossings.  :func:`extract_distant` fits such
a factor to a step list, streamed as :func:`distance` is: its partial trace
is read off the gather of one word, the move crossings' adjoints, the steps
and the move crossings, when that word is a gather, and otherwise adds up
blocks of its columns; its residual is a :func:`distance`.
:func:`embed_adjacent` (the
one-step :func:`leg_product`) and :func:`compose` are the dense oracle of
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "LegError", "Space", "LegSignature", "LegOperator", "crossing", "Vector",
    "Step", "tensor_space", "total_dim", "identity", "compose", "tensor", "adjoint",
    "embed_adjacent", "apply_on_legs", "leg_product", "distance",
    "PlannedWord", "route_steps",
    "apply_distant", "extract_distant", "is_unitary",
]


# bytes of one block of a streamed product: the domain columns of both words
# in :func:`distance`, and the target lines of the crossed-product extensions
# in :mod:`braidmu.spans` with the rows of the mapped pads that those lines
# read.  At KT Z8 a block of the coassociativity check holds six target lines,
# and the check peaks at 17.5 MB (tracemalloc), in its crossed product and
# decompositions; at KT Z6 it peaks at 4.0 MB, below the 4.5 MB of one dense
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

    @cached_property
    def gather(self) -> "Gather | None":
        """The matrix as the :class:`Gather` it is when it is a monomial, one
        nonzero entry of any value in each row and column, else None: found
        once per operator, and read by every :class:`PlannedWord` that
        places it."""
        return _monomial(self.matrix)

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


def crossing(h: Space, k: Space, phases: np.ndarray | None = None) -> LegOperator:
    """The crossing H (x) K -> K (x) H that sends e_i (x) e_j to
    phases[i, j] e_j (x) e_i: ``phases`` is the dim H x dim K table of
    unimodular phases, or None for the flip.  A monomial, so a step runs it
    as its :attr:`~LegOperator.gather`."""
    i, j = np.divmod(np.arange(h.dim * k.dim), k.dim)
    values = 1.0
    if phases is not None:
        p = np.asarray(phases, dtype=complex)
        if p.shape != (h.dim, k.dim):
            raise LegError(f"phase table of shape {p.shape} does not match the legs")
        if not np.abs(np.abs(p) - 1.0).max() <= 1e-12:    # NaN fails too
            raise LegError("crossing phases must be finite with modulus one")
        values = p[i, j]
    m = np.zeros((k.dim * h.dim, h.dim * k.dim), dtype=complex)
    m[j * h.dim + i, i * k.dim + j] = values
    return LegOperator(LegSignature((h, k), (k, h)), m)


@dataclass(frozen=True, eq=False)
class Gather:
    """A monomial matrix m, with m[r, source[r]] = coefficients[r] its one
    nonzero entry in row r, of any value (a unimodular phase for a
    :func:`crossing`).  ``coefficients`` is an (n, 1) column, or None when
    every entry is 1.  It is one of the runner's two step kinds, with the
    matmul, and a word of gathers alone is one gather too
    (:attr:`PlannedWord.gather`)."""

    source: np.ndarray
    coefficients: np.ndarray | None

    def adjoint(self) -> "Gather":
        """m*, the inverse permutation with the conjugate entries: the
        conjugate transpose, which is the inverse of m only when every entry
        is unimodular."""
        inverse = np.empty_like(self.source)
        inverse[self.source] = np.arange(self.source.size)
        c = self.coefficients
        return Gather(inverse, None if c is None else c[inverse].conj())


def _monomial(m: np.ndarray) -> Gather | None:
    """m as a :class:`Gather` when it is square with exactly one nonzero in
    each row and column, whatever its values (NaN and inf count as
    nonzero); else None.  O(n^2), and a dense matrix leaves at the count of
    its nonzeros."""
    n = m.shape[0]
    nonzero = m != 0
    if m.shape != (n, n) or np.count_nonzero(nonzero) != n:
        return None
    source = nonzero.argmax(axis=1)     # the column of each row's first nonzero
    # n nonzeros, none in an empty row, so one per row; one per column as well
    if (not nonzero[np.arange(n), source].all()
            or np.any(np.bincount(source, minlength=n) != 1)):
        return None
    values = m[np.arange(n), source]
    return Gather(source, None if np.all(values == 1) else values[:, None])


def _gather(g: Gather, x: np.ndarray, pre: int) -> np.ndarray:
    """(1 (x) m (x) 1) @ x for the monomial m of g, x viewed as (pre, n,
    rest): the rows ``source`` of x, times the coefficients, as a new
    complex array.  Each value is one complex product, where the matmul's
    sum holds that product and zeros: equal to it for a coefficient 1, -1, i
    or -i up to the sign of a zero, and within the rounding of a product,
    numpy's against BLAS's, for any other.
    """
    out = x.reshape(pre, g.source.size, -1).take(g.source, axis=1)
    out = out.astype(complex, copy=False)
    if g.coefficients is not None:
        out *= g.coefficients
    return out


def _word_gather(plan: list, rows: int) -> Gather:
    """The product of a plan whose steps are all gathers as one
    :class:`Gather` on its ``rows`` rows, in O(rows * steps): each step
    spread over the legs before and after it, 1 (x) m (x) 1, then read after
    the steps before it (source ``a.source[b.source]`` for b after a).  The
    coefficients multiply in the runner's order, the earlier steps' product
    times the step's, though numpy may round a product here and in the
    runner's blocks differently.  No steps give the identity gather."""
    source, c = np.arange(rows), None
    for pre, _, post, g in plan:
        n = g.source.size
        step = (((np.arange(pre)[:, None] * n + g.source)[:, :, None] * post
                 + np.arange(post)).reshape(-1))
        source = source[step]
        if c is not None:
            c = c[step]
        if g.coefficients is not None:
            spread = np.broadcast_to(g.coefficients.reshape(1, n, 1), (pre, n, post)).reshape(-1)
            c = spread.copy() if c is None else c * spread
    return Gather(source, None if c is None else c[:, None])


def _step(a: Gather | np.ndarray, x: np.ndarray, pre: int) -> np.ndarray:
    """One step on x viewed as (pre, a's domain, rest): a gather by
    :func:`_gather`, or one matmul by the matrix a."""
    if isinstance(a, Gather):
        return _gather(a, x, pre)
    return np.matmul(a, x.reshape(pre, a.shape[1], -1))


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
    """The conjugate transpose."""
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


def _padding(pre: int, shape: tuple[int, int], post: int, lo: int, hi: int):
    """Where columns ``lo:hi`` of the padded matrix 1 (x) x (x) 1 hold x's
    entries, for :func:`_scatter`, from the dims of the legs before and after x
    and x's shape: column (i, s, j), with s an index of x's domain, holds
    column s of x in the rows (i, :, j)."""
    a, b = shape
    i, s, j = np.unravel_index(np.arange(lo, hi), (pre, b, post))
    return (pre, a, post, hi - lo), (i, slice(None), j, np.arange(hi - lo)), s


def _scatter(m: np.ndarray, shape: tuple[int, ...], at: tuple, s: np.ndarray) -> np.ndarray:
    """The padded columns of a :func:`_padding`, written into zeros from x's matrix m."""
    out = np.zeros(shape, dtype=complex)
    out[at] = m[:, s].T
    p, a, q, n = shape
    return out.reshape(p * a * q, n)


def apply_on_legs(op: LegOperator, x: np.ndarray, context: Sequence[Space],
                  start: int) -> np.ndarray:
    """(1 (x) op (x) 1) @ x, with op on the legs ``start ..`` (1-based) of the
    rows of x, which carry the legs ``context``: the one-step
    :meth:`PlannedWord.run`, which never forms the padded matrix."""
    return PlannedWord([(op, start)], context).run(x)


Step = tuple[LegOperator, int]


@lru_cache(maxsize=4)
def _conjugate_identity(n: int) -> np.ndarray:
    """The conjugate n x n identity, read-only, as the pullback of a first slot
    step reads it: one array for every word on n columns."""
    eye = np.eye(n, dtype=complex).conj()
    eye.setflags(write=False)
    return eye


class PlannedWord:
    """A step list on a context, placed once: the one runner of every product.

    A step ``(op, start)`` acts on the legs ``start ..`` (1-based) of the
    context as the earlier steps left it, the first step first.
    Construction places every step, the only call of :func:`_placed`, and
    keeps its (pre, post) dims and its action: a monomial
    (:attr:`LegOperator.gather`, each matrix with one nonzero in each row
    and column, every :func:`crossing` among them), which acts by a gather,
    any other matrix, which acts by one matmul, or the slot.
    The steps whose factor is ``slot`` take a new matrix on every
    :meth:`forward`.  ``codomain`` is the legs the product ends on, and
    ``rows`` the most rows the context or any step reaches.  ``gather`` is
    the whole product as one :class:`Gather` when there is no slot and every
    step is a gather (:func:`_word_gather`, composed here once), else None;
    :func:`distance` reads it in closed form.

    :meth:`columns` gives a range of the product's columns, begun as the
    first step's padded columns (written once by :func:`_scatter`, never
    multiplied); :meth:`run` applies the steps to a given matrix.  For
    reverse mode, :meth:`forward` keeps every prefix product and
    :meth:`pullback` takes a cotangent of the product back to the slot's
    steps.
    """

    def __init__(self, steps: Sequence[Step], context: Sequence[Space],
                 slot: LegOperator | None = None):
        self.domain = legs = tuple(context)
        self._cols = self.rows = total_dim(legs)
        self._plan, self._back = [], None
        for op, start in steps:
            pre, post = _placed(op, legs, start)
            act = None if op is slot else op.gather or op.matrix
            self._plan.append((total_dim(pre), op.matrix.shape, total_dim(post), act))
            legs = pre + op.codomain + post
            self.rows = max(self.rows, total_dim(legs))
        self.codomain = legs
        self._shape = total_dim(legs), self._cols
        self.gather = (_word_gather(self._plan, self._cols) if slot is None
                       and all(isinstance(a, Gather) for *_, a in self._plan) else None)
        # the matrix that the first step's padded columns hold (None for the slot)
        self._first = steps[0][0].matrix if steps and steps[0][0] is not slot else None
        if slot is not None:    # forward's padding of every column, pullback's identity
            pre, (_, dom), *_ = self._plan[0]
            self._scatter_at = _padding(*self._plan[0][:3], 0, self._cols)
            self._eye_h = _conjugate_identity(self._cols).reshape(pre, dom, -1)

    def _run_from(self, skip: int, x: np.ndarray) -> np.ndarray:
        """The steps from step ``skip`` on, run on x, whose rows carry the legs
        before that step; each prefix is dropped once the next is made."""
        cols = x.shape[1]
        for pre, _, _, a in self._plan[skip:]:
            x = _step(a, x, pre)
        return x.reshape(-1, cols)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``lo:hi`` of the product: the first step's padded columns,
        then the later steps run on them.  No steps give the identity's."""
        if not self._plan:
            x = np.zeros((self._cols, hi - lo), dtype=complex)
            x[lo:hi] = np.eye(hi - lo)
            return x
        return self._run_from(1, _scatter(self._first, *_padding(*self._plan[0][:3], lo, hi)))

    def run(self, x: np.ndarray) -> np.ndarray:
        """The product times x, whose rows carry the context."""
        if x.ndim != 2 or x.shape[0] != self._cols:
            raise LegError(f"a matrix of shape {x.shape} has no rows on a context of "
                           f"total dimension {self._cols}")
        return self._run_from(0, x)

    def forward(self, f: np.ndarray) -> list[np.ndarray]:
        """Every prefix product, one per step, with f as the slot's matrix: the
        first step's padded columns, then each later step run on the prefix
        before it, in the shape that step leaves, and the whole product last,
        as a matrix."""
        x = _scatter(f if self._first is None else self._first, *self._scatter_at)
        prefixes = [x]
        for pre, _, _, a in self._plan[1:]:
            x = _step(f if a is None else a, x, pre)
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
        prefix ahead of step j; After* P runs the adjoint steps backward, each
        fixed step's adjoint built on the first pullback: a gather's
        :meth:`Gather.adjoint`, or a matrix's conjugate transpose.
        """
        if cotangent.shape != self._shape:
            raise LegError(f"a cotangent of shape {cotangent.shape} does not match the "
                           f"product of the steps")
        if self._back is None:
            self._back = [a.adjoint() if isinstance(a, Gather) else
                          None if a is None else np.ascontiguousarray(a.conj().T)
                          for *_, a in self._plan]
        q, grads = cotangent, []
        for j in reversed(range(len(self._plan))):
            pre, (cod, dom), _, a = self._plan[j]
            if a is None:
                # Q[pre, cod, post, col] conj(B[pre, dom, post, col]), summed over pre, post, col
                qb = q.reshape(pre, cod, -1)
                bb = self._eye_h if j == 0 else prefixes[j - 1].reshape(pre, dom, -1).conj()
                grads.append(np.add.reduce(np.matmul(qb, bb.transpose(0, 2, 1)), axis=0))
            if j:  # After* P of step j - 1
                q = np.matmul(f_adjoint, qb) if a is None else _step(self._back[j], q, pre)
        return grads[::-1]


def leg_product(steps: Sequence[Step], context: Sequence[Space]) -> LegOperator:
    """The product of the steps on the context, all of
    :meth:`PlannedWord.columns`, as an operator."""
    word = PlannedWord(steps, context)
    return LegOperator(LegSignature(word.domain, word.codomain),
                       word.columns(0, total_dim(word.domain)))


def distance(lhs: Sequence[Step] | PlannedWord, rhs: Sequence[Step] | PlannedWord,
             context: Sequence[Space]) -> float:
    """Hilbert-Schmidt norm of the difference of two step products on the same context.

    Neither product is formed whole.  Both words are placed once (a side
    given as a :class:`PlannedWord` already is).  When both are gathers
    (:attr:`PlannedWord.gather`, words of monomials alone) the norm is
    closed-form, by :func:`_gather_distance`, in O(rows).  Otherwise both
    run over consecutive blocks of domain columns, as many as fit in
    :data:`_BLOCK_BYTES` (one at least), each block by
    :meth:`PlannedWord.columns`.  The squared norms of the blocks'
    differences add up, so memory is one block per side, not a product.
    """
    left, right = (side if isinstance(side, PlannedWord) else PlannedWord(side, context)
                   for side in (lhs, rhs))
    if left.domain != tuple(context) or right.domain != tuple(context):
        raise LegError("a word given to distance is placed on another context")
    if left.codomain != right.codomain:
        raise LegError(
            f"the two products end on different legs, {[s.id for s in left.codomain]} "
            f"and {[s.id for s in right.codomain]}")
    if left.gather is not None and right.gather is not None:
        return _gather_distance(left.gather, right.gather)
    cols = total_dim(left.domain)
    width = max(1, _BLOCK_BYTES // (16 * max(left.rows, right.rows)))
    squares = 0.0
    for lo in range(0, cols, width):
        hi = min(lo + width, cols)
        # the right block is run once the last block's difference is gone
        diff = left.columns(lo, hi)
        diff -= right.columns(lo, hi)
        squares += np.vdot(diff, diff).real
    return float(np.sqrt(squares))


def _gather_distance(a: Gather, b: Gather) -> float:
    """The Hilbert-Schmidt norm of a - b for two gathers on the same rows:
    row r of a - b holds ca_r - cb_r where both read the same column, and
    ca_r and -cb_r in two columns where they do not.  No column is formed;
    a non-finite entry gives a non-finite norm."""
    ca, cb = (np.ones(g.source.size) if g.coefficients is None else g.coefficients[:, 0]
              for g in (a, b))
    same = a.source == b.source
    terms = (ca[same] - cb[same], ca[~same], cb[~same])
    return float(np.sqrt(sum(np.sum(t.real ** 2 + t.imag ** 2) for t in terms)))


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


def extract_distant(y: LegOperator | Sequence[Step], context: Sequence[Space],
                    positions: tuple[int, int], route: str = "over", braiding=None
                    ) -> tuple[LegOperator, float]:
    """Best two-leg factor z at legs (i, k) with y ~ apply_distant(z, ...).

    y is a step list on the context, as :func:`distance` takes, or an
    operator on the whole context, the one-step word ``[(y, 1)]``.  Least
    squares in the Hilbert-Schmidt metric: conjugate y back along the
    braiding route and partial-trace over the remaining legs.  Returns the
    minimiser and the residual norm; a residual above the caller's tolerance
    means y does not factor through legs (i, k).

    Neither y nor its conjugate is formed whole: the partial trace reads the
    word's gather when all its steps are gathers (:func:`_gather_trace`),
    and otherwise adds up blocks of columns of one :class:`PlannedWord`, as
    :func:`distance` runs them; the residual is the :func:`distance` of y
    from the routed fit.
    """
    i, k = positions
    context = tuple(context)
    _check_positions(positions, len(context))
    if isinstance(y, LegOperator):
        if y.domain != context or y.codomain != context:
            raise LegError("extract_distant expects an endomorphism of the full context")
        y = [(y, 1)]
    steps = list(y)
    target = PlannedWord(steps, context)
    if target.codomain != context:
        raise LegError("extract_distant expects an endomorphism of the full context")
    a, b = context[i - 1], context[k - 1]
    move = back = []
    if k > i + 1:
        if braiding is None:
            raise LegError("extract_distant with intermediate legs needs a braiding")
        move, back = _route_crossings(context, positions, (a, b), route, braiding)
    # apply_distant(z) = Q* E(z) Q with the same unitary Q (the move) for every
    # z, so the least-squares z is a partial trace of Q y Q*: on the moved legs,
    # the move's adjoint steps backward, each at its own start, then y, then Q
    moved = context[:i - 1] + context[i:k - 1] + (a,) + context[k - 1:]
    word = PlannedWord([*((adjoint(op), start) for op, start in reversed(move)), *steps,
                        *move], moved)
    left, mid, right = total_dim(moved[:k - 2]), a.dim * b.dim, total_dim(context[k:])
    if word.gather is not None:
        z = _gather_trace(word.gather, left, mid, right)
    else:
        z = _blocked_trace(word, left, mid, right)
    zop = LegOperator(LegSignature((a, b), (a, b)), z / (left * right))
    # the residual goes through the crossings themselves, not their unitarity:
    # explicit braiding tables are not validated as unitary
    return zop, distance(target, _routed(zop, k, move, back) if move else [(zop, i)], context)


def _gather_trace(g: Gather, left: int, mid: int, right: int) -> np.ndarray:
    """The partial trace over the outer legs of a gather on rows (left, mid,
    right): row (l, i, r) adds its entry to z[i, j] when it reads column
    (l, j, r), so in O(rows), with no column formed."""
    l, i, r = np.unravel_index(np.arange(g.source.size), (left, mid, right))
    l2, j, r2 = np.unravel_index(g.source, (left, mid, right))
    on = (l == l2) & (r == r2)
    z = np.zeros((mid, mid), dtype=complex)
    np.add.at(z, (i[on], j[on]), 1.0 if g.coefficients is None else g.coefficients[on, 0])
    return z


def _blocked_trace(word: PlannedWord, left: int, mid: int, right: int) -> np.ndarray:
    """The partial trace over the outer legs of a word on rows (left, mid,
    right), added up over blocks of its columns."""
    z = np.zeros((mid, mid), dtype=complex)
    # whole groups of 8 columns: a BLAS kernel takes columns in tiles of a few,
    # so each block's tiles fall where a run of all the columns puts them, and
    # z has the bits of the unblocked product's partial trace
    width = max(1, _BLOCK_BYTES // (16 * word.rows) // 8 * 8)
    for lo in range(0, left * mid * right, width):
        hi = min(lo + width, left * mid * right)
        block = word.columns(lo, hi).reshape(left, mid, right, hi - lo)
        # column (l, j, r) adds its rows (l, :, r) to column j of z; for each
        # (l, r), the block's columns j_lo .. j_hi - 1 go at once, so every
        # entry of z takes its terms in column order, as the dense trace did
        for l in range(lo // (mid * right), (hi - 1) // (mid * right) + 1):
            for r in range(right):
                first = l * mid * right + r - lo       # column (l, 0, r) in the block
                j_lo = max(0, -(first // right))
                j_hi = min(mid, -((first - (hi - lo)) // right))
                if j_lo < j_hi:
                    z[:, j_lo:j_hi] += block[l, :, r, first + j_lo * right:
                                             first + j_hi * right:right]
    return z


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
