"""Closed linear spans of operator sets in the Hilbert-Schmidt geometry.

Spans are stored as orthonormal bases of vectorized operators (row-major
vectorization, matching the leg convention).  Every rank is decided at the
one relative cutoff :data:`RANK_CUTOFF`, by :func:`numerical_rank`, which no
caller sets; only check tolerances are set per call.

Every decision here (a span's rank and basis, a projector distance, a
subset residual, the generators a crossed product keeps, a kernel
dimension) first splits its stack by support (:class:`_Split`): two rows
are joined when they share a nonzero column.  Rows in different components
are orthogonal, and so are the subspaces they span, so each decision is
one routine run on each component's block, batched over blocks of one
shape, and no SVD, QR or product runs on a whole stack that splits.  A
stack with at most one component, such as the generators of a dense F, is
one block of every row and column: the stack itself, batched as one.
The components share one anchor: a rank counts the singular values above
:data:`RANK_CUTOFF` times the largest singular value over every component
(at least 1.0 for a kernel, as :func:`null_space` takes it), and a
projector distance is the largest over the components.  A span keeps its
basis as its components' blocks (:attr:`OperatorSpan.parts`).

Every SVD that needs no wide factor runs on the tall side of its matrix,
the conjugate transpose of a wide one: the singular values are the same,
and LAPACK factors the tall orientation several times faster.  Only the
kernel of a wide map, which needs the full right factor, is taken from the
wide orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .tensor import (_BLOCK_BYTES, LegError, LegOperator, LegSignature, PlannedWord, Space,
                     adjoint, compose, leg_product, total_dim)

__all__ = [
    "RANK_CUTOFF", "OperatorSpan", "span_of", "span_from_slices", "contains",
    "equals", "projector_distance", "adjoint_span", "is_algebra",
    "is_star_closed", "is_nondegenerate", "numerical_rank", "null_space",
    "kernel_dimension", "crossed_injections", "crossed_product",
    "is_relative_multiplier", "Conjugation", "CrossedProduct", "CrossedProductExtension",
    "compare_extensions", "DecompositionError",
]

RANK_CUTOFF = 1e-9


class DecompositionError(ValueError):
    """An element could not be decomposed over the crossed-product generators."""


class OperatorSpan:
    """An orthonormal basis of a subspace of operators between two leg lists.

    The basis is held as ``parts``, as :func:`_row_span` makes them: one
    triple per batch of support components of one shape, the basis indices
    (G, k), the columns (G, c) of the vectorized operators that the
    component covers, and its k basis rows on those columns (G, k, c).  A
    span whose rows did not split holds one part on every column
    (:attr:`whole`), and a span of rank zero holds none.  Its :attr:`basis`
    and :meth:`stack` are built from the parts on first use; the decisions
    here read the parts alone.
    """

    def __init__(self, domain: Sequence[Space], codomain: Sequence[Space], parts: tuple = ()):
        self.domain, self.codomain, self.parts = tuple(domain), tuple(codomain), tuple(parts)

    @cached_property
    def basis(self) -> tuple[LegOperator, ...]:
        sig = LegSignature(self.domain, self.codomain)
        return tuple(LegOperator(sig, v.reshape(sig.cod_dim, sig.dom_dim)) for v in self.stack())

    @property
    def rank(self) -> int:
        return sum(index.size for index, _, _ in self.parts)

    @property
    def ambient_dim(self) -> int:
        return total_dim(self.domain) * total_dim(self.codomain)

    @property
    def whole(self) -> bool:
        """One part on every column: the rows the span was made from did not split."""
        return len(self.parts) == 1 and self.parts[0][1].shape[1] == self.ambient_dim

    def stack(self) -> np.ndarray:
        """Basis as rows of vectorized operators, shape (rank, ambient_dim);
        a whole span's is its one part, shared, not a copy."""
        if self.whole:
            return self.parts[0][2][0]
        out = np.zeros((self.rank, self.ambient_dim), dtype=complex)
        for index, cols, vecs in self.parts:
            out[index[:, :, None], cols[:, None, :]] = vecs
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The parts as (basis index, column, value) triples, every column of
        a component listed for each of its basis rows."""
        shaped = [(np.broadcast_to(index[:, :, None], vecs.shape),
                   np.broadcast_to(cols[:, None, :], vecs.shape), vecs)
                  for index, cols, vecs in self.parts]
        return tuple(np.concatenate([np.empty(0, dtype)] + [x[i].ravel() for x in shaped])
                     for i, dtype in enumerate((np.intp, np.intp, complex)))

    def gram_residual(self) -> float:
        b = self.stack()
        return float(np.linalg.norm(b @ b.conj().T - np.eye(self.rank)))


# ---------------------------------------------------------------------------
# support components


@dataclass(frozen=True)
class _Group:
    """The components of one shape: their ids (G,), their items (G, r) and
    columns (G, c), each ascending, and how many of a component's items come
    before the split's ``first`` (all of them when no ``first`` is given)."""

    comps: np.ndarray
    items: np.ndarray
    cols: np.ndarray
    head: int


class _Split:
    """``count`` items grouped by support component, from the entries
    (items[e], cols[e]) of their sparsity pattern: two items are joined when
    they share a column, and a component is all the items that a chain of
    such joins reaches.  An item with no entry belongs to no component.

    The components are numbered by their first item, found by union-find
    in numpy: each column links its items to its first one, the larger root
    of each link is hooked under the smaller, and the paths are compressed,
    until no link joins two roots.  :attr:`groups` batches the components
    by shape (with ``first``, also by how many of their items come before
    it, so that a block's leading rows are the first set's), and
    :meth:`blocks` scatters values given per entry into one (G, r, c) block
    per group.
    """

    def __init__(self, items: np.ndarray, cols: np.ndarray, count: int,
                 first: int | None = None):
        self.groups, self.count = [], 0
        if not items.size:
            return
        ucols, col_at = np.unique(cols, return_inverse=True)
        head = np.full(ucols.size, count)
        np.minimum.at(head, col_at, items)
        u, v = items, head[col_at]
        u, v = u[u != v], v[u != v]
        parent = np.arange(count)
        while u.size:
            a, b = parent[u], parent[v]
            joined = a != b
            if not joined.any():
                break
            u, v, a, b = u[joined], v[joined], a[joined], b[joined]
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
            while True:
                up = parent[parent]
                if np.array_equal(up, parent):
                    break
                parent = up
        present = np.zeros(count, dtype=bool)
        present[items] = True
        member = np.flatnonzero(present)
        # each root is its component's first item, so numbering the roots in
        # order numbers the components by their first items
        roots = member[parent[member] == member]
        self.count = n = roots.size
        labels = np.full(count, -1)
        labels[roots] = np.arange(n)
        label = labels[member] = labels[parent[member]]
        # items in component order, ascending within one, and each one's place
        runs = member[np.argsort(label, kind="stable")]
        rows = np.bincount(label, minlength=n)
        row_start = np.cumsum(rows) - rows
        place = np.empty(count, dtype=np.intp)
        place[runs] = np.arange(runs.size) - row_start[labels[runs]]
        # the columns of each component, ascending, and each entry's place there
        entry_label = labels[items]
        pairs, pair_at = np.unique(entry_label * ucols.size + col_at, return_inverse=True)
        pair_cols = ucols[pairs % ucols.size]
        widths = np.bincount(pairs // ucols.size, minlength=n)
        col_start = np.cumsum(widths) - widths
        heads = rows if first is None else np.bincount(label[member < first], minlength=n)
        # the distinct shapes numbered in lexicographic order, each component's in kind
        shape = np.stack([rows, heads, widths])
        order = np.lexsort(shape[::-1])
        kind = np.empty(n, dtype=np.intp)
        changed = np.any(np.diff(shape[:, order]) != 0, axis=0)
        kind[order] = np.cumsum(np.concatenate(([0], changed)))
        at = np.empty(n, dtype=np.intp)
        for k in range(kind[order[-1]] + 1):
            comps = np.flatnonzero(kind == k)
            r, h, c = rows[comps[0]], heads[comps[0]], widths[comps[0]]
            at[comps] = np.arange(comps.size)
            self.groups.append(_Group(comps, runs[row_start[comps][:, None] + np.arange(r)],
                                      pair_cols[col_start[comps][:, None] + np.arange(c)],
                                      int(h)))
        self._kind, self._at = kind[entry_label], at[entry_label]
        self._row, self._col = place[items], pair_at - col_start[entry_label]

    def blocks(self, values: np.ndarray) -> list[np.ndarray]:
        """The entries' values scattered into one zero-filled (G, r, c) block per group."""
        out = []
        for k, g in enumerate(self.groups):
            block = np.zeros(g.items.shape + (g.cols.shape[1],), dtype=complex)
            sel = self._kind == k
            block[self._at[sel], self._row[sel], self._col[sel]] = values[sel]
            out.append(block)
        return out


def _split(first: np.ndarray | tuple, span: OperatorSpan | None = None
           ) -> tuple[list[_Group], list]:
    """Items split by support (:class:`_Split`): the groups, and per group
    its block.  The items are a stack (count, width) or its entries (items,
    cols, values, (count, width)).  The basis rows of a ``span`` join them,
    numbered after them, and each group's block is then a pair: the items'
    rows (G, h, c) and the span's rows (G, k, c).

    Items of at most one component are one component of every row and
    column, in one group, whose block is the stack itself, or the entries
    scattered into it, and the span's stack.  A row with every column
    nonzero joins every other nonzero row, and a whole span every row, so
    neither is listed by its entries.
    """
    if isinstance(first, tuple):
        items, cols, values, (count, width) = first
        stack = None
    else:
        stack, (count, width) = first, first.shape
    rank = span.rank if span is not None else 0
    whole = span is not None and span.whole
    if stack is not None and not whole:
        nonzero = stack != 0
        whole = stack.size and nonzero.sum(axis=1).max() == width
        if not whole:
            items, cols = np.nonzero(nonzero)
            values = stack[items, cols]
    if not whole:
        joined = items, cols, values
        if span is not None:
            more = span.entries()
            joined = [np.concatenate((x, y)) for x, y in zip(joined, (more[0] + count, *more[1:]))]
        split = _Split(joined[0], joined[1], count + rank, None if span is None else count)
        if split.count > 1:
            blocks = split.blocks(joined[2])
            if span is not None:
                blocks = [(b[:, :g.head], b[:, g.head:]) for g, b in zip(split.groups, blocks)]
            return split.groups, blocks
    if stack is None:
        stack = np.zeros((count, width), dtype=complex)
        stack[items, cols] = values
    block = stack[None] if span is None else (stack[None], span.stack()[None])
    group = _Group(np.zeros(1, dtype=np.intp), np.arange(count + rank)[None],
                   np.arange(width)[None], count)
    return [group], [block]


def numerical_rank(s: np.ndarray, anchor: float, cutoff: float = RANK_CUTOFF) -> np.ndarray:
    """Number of singular values above ``cutoff`` times ``anchor``, along
    the last axis of ``s``: one count per spectrum of a batch.

    The caller gives the anchor, at least every value of ``s``: the largest
    singular value over every spectrum that one decision reads, or at least
    1.0 for a kernel.  A spectrum of zeros at anchor zero has rank zero.
    """
    return np.sum(s > cutoff * anchor, axis=-1)


def _tall(m: np.ndarray) -> np.ndarray:
    """m, or its conjugate transpose when m is wide: the same singular values.
    On a batch (G, r, c), each matrix of it.

    A 64 x 4096 complex SVD took 2.8 times as long as the SVD of its
    conjugate transpose on a 2-core VM with OpenBLAS.
    """
    return m.conj().swapaxes(-1, -2) if m.shape[-2] < m.shape[-1] else m


def _row_span(rows: np.ndarray, domain: tuple[Space, ...], codomain: tuple[Space, ...]
              ) -> OperatorSpan:
    """Orthonormal span of the rows (vectorized operators) by a rank-revealing
    SVD of each support component's block (:func:`_split`), batched
    over the blocks of one shape; rows that do not split are one block.

    A block of fewer rows than columns takes the SVD of its conjugate
    transpose B^H = V S U^H, whose leading left singular vectors are the
    conjugated right singular rows of B.  Each component keeps its singular
    values above the cutoff times the largest over all of them; the span
    holds the kept rows as its parts, numbered in component order.
    """
    groups, blocks = _split(rows)
    # per block, its spectra, its singular rows and how a kept one is copied
    # out: a wide block's are the left singular vectors of B^H, conjugated
    factors = []
    for block in blocks:
        if block.shape[1] < block.shape[2]:
            u, s, _ = np.linalg.svd(block.conj().swapaxes(1, 2), full_matrices=False)
            factors.append((s, u.swapaxes(1, 2), np.conjugate))
        else:
            factors.append((*np.linalg.svd(block, full_matrices=False)[1:], np.positive))
    anchor = max(s.max(initial=0.0) for s, _, _ in factors)
    ranks = np.zeros(sum(g.comps.size for g in groups), dtype=np.intp)
    for g, (s, _, _) in zip(groups, factors):
        ranks[g.comps] = numerical_rank(s, anchor)
    offsets = np.cumsum(ranks) - ranks
    parts = []
    for g, (_, vecs, copy) in zip(groups, factors):
        for k in sorted(set(ranks[g.comps].tolist())):
            kept = ranks[g.comps] == k
            if k:
                out = np.empty((kept.sum(), k, vecs.shape[2]), dtype=complex)
                parts.append((offsets[g.comps[kept]][:, None] + np.arange(k), g.cols[kept],
                              copy(vecs[kept, :k], out=out)))
    return OperatorSpan(domain, codomain, tuple(parts))


def span_of(operators: Sequence[LegOperator]) -> OperatorSpan:
    """Orthonormalize a list of operators with a rank-revealing SVD."""
    ops = list(operators)
    if not ops:
        raise ValueError("span_of needs at least one operator to fix the signature")
    domain, codomain = ops[0].domain, ops[0].codomain
    for op in ops:
        if op.domain != domain or op.codomain != codomain:
            raise LegError("span_of: mixed signatures")
    return _row_span(np.array([op.matrix.reshape(-1) for op in ops]), domain, codomain)


def span_from_slices(x: LegOperator, side: str) -> OperatorSpan:
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
    return _row_span(slices, domain, codomain)


def contains(span: OperatorSpan, x: LegOperator, tol: float = 1e-9) -> bool:
    if x.domain != span.domain or x.codomain != span.codomain:
        raise LegError("contains: signature mismatch")
    return _subset_residual([x], span) < tol


def projector_distance(s1: OperatorSpan, s2: OperatorSpan) -> float:
    """Spectral distance between the orthogonal projectors onto the two spans.

    Computed as the largest sine of a principal angle; 1.0 whenever the ranks
    differ.  For equal ranks ||(1 - P2) P1|| = ||(1 - P1) P2||, so one
    residual stack and one SVD give it.  The two spans split together by
    support (:func:`_split`): the distance is the largest over the
    components, 1.0 in one whose ranks differ.  A whole s1 is one block
    with s2, and neither's entries are listed.
    """
    if (s1.domain, s1.codomain) != (s2.domain, s2.codomain):
        raise LegError("projector_distance: signature mismatch")
    if s1.rank != s2.rank:
        return 1.0
    if s1.rank == 0:
        return 0.0
    if s1.whole:
        pairs = [(s1.stack()[None], s2.stack()[None])]
    else:
        pairs = _split((*s1.entries(), (s1.rank, s1.ambient_dim)), s2)[1]
    worst = 0.0
    for b1, b2 in pairs:
        if b1.shape[1] != b2.shape[1]:
            return 1.0
        r12 = b1 - (b1 @ b2.conj().swapaxes(1, 2)) @ b2
        worst = max(worst, np.linalg.svd(_tall(r12), compute_uv=False)[:, 0].max())
    return float(worst)


def equals(s1: OperatorSpan, s2: OperatorSpan, tol: float = 1e-9) -> bool:
    return s1.rank == s2.rank and projector_distance(s1, s2) < tol


def adjoint_span(s: OperatorSpan) -> OperatorSpan:
    if not s.rank:
        return OperatorSpan(s.codomain, s.domain)
    return span_of([adjoint(b) for b in s.basis])


def _subset_residual(candidates: Sequence[LegOperator], span: OperatorSpan) -> float:
    """Largest relative distance of a candidate from the span (zero ones
    skipped), by :func:`_residual` on the candidates' stack."""
    if not candidates:
        return 0.0
    v = np.array([op.matrix.reshape(-1) for op in candidates])
    norms = np.linalg.norm(v, axis=1)
    # numerically zero candidates at the working scale are trivially contained
    live = norms > RANK_CUTOFF * norms.max()
    if not live.any():
        return 0.0
    if not live.all():
        v, norms = v[live], norms[live]
    return _residual(v, norms, span)


def _residual(candidates: np.ndarray | tuple, norms: np.ndarray, span: OperatorSpan) -> float:
    """:func:`_subset_residual` of candidates given as a fresh stack or by
    their entries (items, cols, values, shape), with their norms, each above
    the cutoff.  The candidates and the span's rows split together by
    support (:func:`_split`): a candidate lies in one component, and
    its distance is from the span's rows there."""
    worst = 0.0
    for g, (x, b) in zip(*_split(candidates, span)):
        if g.head:
            # the span's rows are vdot-orthonormal, so the projection of the
            # candidates x is (x b^H) b; x is fresh, so it takes the residual
            # in place
            x -= (x @ b.conj().swapaxes(1, 2)) @ b
            worst = max(worst, np.max(np.linalg.norm(x, axis=2) / norms[g.items[:, :g.head]]))
    return float(worst)


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
    if not s.rank:
        return False
    cols = np.hstack([b.matrix for b in s.basis])
    sv = np.linalg.svd(_tall(cols), compute_uv=False)
    return numerical_rank(sv, sv[0], max(tol, RANK_CUTOFF)) == total_dim(s.codomain)


def null_space(t: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the null space at :data:`RANK_CUTOFF`.

    The cutoff is relative to ``max(s[0], 1.0)``: every map handed here is
    built from unit-scale operators, so an all-noise matrix counts as zero.
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
    return vh[numerical_rank(s, max(s[0], 1.0)):].conj()


def kernel_dimension(t: np.ndarray | tuple, shape: tuple[int, int] | None = None) -> int:
    """Dimension of the kernel of the map t, a matrix or its entries
    (rows, cols, values) with ``shape``, at :data:`RANK_CUTOFF`.

    The columns of t split by support: two are joined when they share a
    nonzero row, and columns that do not split are one block.  The kernel
    is the direct sum of the components' kernels, so its dimension is the
    column count less each component's rank, counted against ``max(s,
    1.0)`` for the largest singular value s over every component, the
    anchor of :func:`null_space`.  A rank needs only singular values, taken
    from the tall side of each block.
    """
    if isinstance(t, tuple):
        rows, cols, values = t
        _, blocks = _split((cols, rows, values, shape[::-1]))
    else:
        shape, (_, blocks) = t.shape, _split(t.T)
    spectra = [np.linalg.svd(_tall(block), compute_uv=False) for block in blocks]
    anchor = max(1.0, max(s.max(initial=0.0) for s in spectra))
    return shape[1] - int(sum(numerical_rank(s, anchor).sum() for s in spectra))


# ---------------------------------------------------------------------------
# crossed products


def _injection_steps(variant: str, provider, legs1: Sequence[Space],
                     legs2: Sequence[Space]) -> tuple[tuple, tuple]:
    """The two injections of :func:`crossed_injections` as (before, start, after):
    x |-> the steps before, x on the legs ``start ..``, the steps after."""
    from .braiding import braid_steps

    legs1, legs2 = tuple(legs1), tuple(legs2)
    if variant == "hbt":
        return ((braid_steps(provider.inverse(), legs1, legs2), len(legs2) + 1,
                 braid_steps(provider, legs2, legs1)), ((), len(legs1) + 1, ()))
    if variant == "habt":
        return ((braid_steps(provider, legs1, legs2), len(legs2) + 1,
                 braid_steps(provider.inverse(), legs2, legs1)), ((), len(legs1) + 1, ()))
    if variant == "bt":
        return (((), 1, ()), (braid_steps(provider, legs1, legs2), 1,
                              braid_steps(provider.inverse(), legs2, legs1)))
    raise ValueError(f"unknown crossed product variant {variant!r}")


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
    context = tuple(legs1) + tuple(legs2)

    def inject(before: Sequence, start: int, after: Sequence) -> Callable:
        return lambda x: leg_product([*before, (x, start), *after], context)

    return tuple(inject(*steps) for steps in _injection_steps(variant, provider, legs1, legs2))


def _generator_stack(conj: np.ndarray, pad: np.ndarray, pad_first: bool) -> np.ndarray:
    """Every padded product as a row of vectorized operators, by one broadcast matmul.

    ``conj`` stacks the conjugated factors T_k and ``pad`` the padding basis
    b_l.  The rows hold T_k (1 (x) b_l) in (k, l) order, or (b_l (x) 1) T_k in
    (l, k) order when ``pad_first``: the (i, j) order of inj1(a_i) inj2(b_j)
    either way.
    """
    rc, n, p = len(conj), conj.shape[-1], pad.shape[-1]
    if pad_first:
        products = np.matmul(pad[:, None], conj.reshape(1, rc, p, -1))
    else:
        products = np.matmul(conj.reshape(rc, 1, -1, p), pad[None])
    return products.reshape(-1, n * n)


class CrossedProduct:
    """The source side of a crossed product: the generators inj1(a_i) inj2(b_j),
    their orthonormal span and their decompositions, and the injected bases as
    :attr:`images` (inj1(a_i) over s1, inj2(b_j) over s2).

    One injection of every variant pads (1 (x) b, or a (x) 1 for "bt") and the
    other conjugates, so the generators are products T_k (1 (x) b_l), all from
    one broadcast matmul.  Everything is built on first use, once for all the
    extensions that share it.  The :attr:`images` are kept only when a caller
    asks for them; the generator stack then reuses their conjugated side, and
    otherwise injects that side itself and drops it once stacked.

    A "bt" product, whose pad comes first, gives its :attr:`images`,
    :attr:`gens` and :attr:`span` only: it is the 180-degree turn of a
    "habt" product (see :func:`braidmu.multunitary.coassociativity_residual`),
    so it is neither decomposed nor extended.
    """

    def __init__(self, s1: OperatorSpan, s2: OperatorSpan, provider, variant: str):
        self._injections = crossed_injections(variant, provider, s1.domain, s2.domain)
        if not (s1.rank and s2.rank):
            raise DecompositionError("crossed product has no nonzero generators")
        self.s1, self.s2, self.provider, self.variant = s1, s2, provider, variant
        self.legs = s1.domain + s2.domain
        self.pad_first = variant == "bt"   # a (x) 1 pads and b is conjugated
        self.conjugated, self.padded = self.orient(s1, s2)
        self.pad = np.array([b.matrix for b in self.padded.basis])

    def orient(self, first, second) -> tuple:
        """A pair given in factor order (s1 side, s2 side) as (conjugated, padded)."""
        return (second, first) if self.pad_first else (first, second)

    @cached_property
    def images(self) -> tuple[tuple[LegOperator, ...], tuple[LegOperator, ...]]:
        """inj1(a_i) over s1 and inj2(b_j) over s2."""
        return tuple(tuple(map(inject, s.basis))
                     for inject, s in zip(self._injections, (self.s1, self.s2)))

    @cached_property
    def gens(self) -> np.ndarray:
        """The generators as rows of vectorized operators, in (i, j) order."""
        if "images" in self.__dict__:
            conj = self.orient(*self.images)[0]
        else:
            inject = self.orient(*self._injections)[0]
            conj = (inject(x) for x in self.conjugated.basis)
        return _generator_stack(np.array([x.matrix for x in conj]), self.pad, self.pad_first)

    @cached_property
    def span(self) -> OperatorSpan:
        return _row_span(self.gens, self.legs, self.legs)

    @cached_property
    def decompositions(self) -> list[tuple]:
        """The forward and the reverse selection over the generator rows, as
        :func:`_selections` makes them."""
        return _selections(self.gens)

    def decompose(self, x: LegOperator, tol: float) -> np.ndarray:
        """x's coefficients c_kl under both decompositions, those of each
        conjugated factor folded into one pad m_k = sum_l c_kl b_l: shape
        (2, rc * p, p).  Raises :class:`DecompositionError` when x lies
        outside the span of the generators, and ValueError on a "bt"
        product, whose turn is decomposed instead.  Each batch of components
        that :func:`_selections` made solves on x's entries there; x's
        residual adds the components' and its norm off their columns.
        """
        _refuse_turned(self)
        if x.domain != self.legs or x.codomain != self.legs:
            raise LegError("element signature does not match the crossed product")
        vx = x.matrix.reshape(-1)
        scale = max(np.linalg.norm(vx), 1.0)
        rp, p, _ = self.pad.shape
        rc = self.conjugated.rank
        folds = []
        for selected, _ in self.decompositions:
            # generator rows run over (k, l)
            c = np.zeros(rc * rp, dtype=complex)
            off = vx[selected.outside]
            squares = np.vdot(off, off).real
            for cols, rows, v, q, r in selected.batches:
                xc = vx[cols]
                # q* x as the conjugate of q^T conj(x): conjugates a vector, not q
                c[rows] = coef = np.linalg.solve(
                    r, (q.swapaxes(1, 2) @ xc.conj()[..., None]).conj())[..., 0]
                fit = (v @ coef[..., None])[..., 0] - xc
                squares += np.vdot(fit, fit).real
            residual = np.sqrt(squares)
            if residual > tol * scale:
                raise DecompositionError(
                    f"element lies outside the crossed product (residual {residual:.3e})")
            # the folded pads m_k
            folds.append((c.reshape(rc, rp) @ self.pad.reshape(rp, -1)).reshape(rc * p, p))
        return np.stack(folds)


def _refuse_turned(cp: CrossedProduct) -> None:
    """Raise ValueError on a "bt" product, the one whose pad comes first."""
    if cp.pad_first:
        raise ValueError('a "bt" crossed product is neither decomposed nor extended: turn it '
                         'by 180 degrees into the "habt" product of the turned braiding, as '
                         'coassociativity_residual does for variant "right"')


def crossed_product(s1: OperatorSpan, s2: OperatorSpan, provider, variant: str) -> OperatorSpan:
    """Orthonormal span of all products inj1(a) inj2(b) over the two bases."""
    return CrossedProduct(s1, s2, provider, variant).span


def is_relative_multiplier(s: OperatorSpan, x: LegOperator, tol: float = 1e-9) -> bool:
    """x b and b x stay in the span for every basis element b.

    For a monomial x (its gather), x b and b x are b's entries moved, row
    by row or column by column, and scaled: :func:`_multiplier_residual`
    reads them off the parts, and no product is formed."""
    if s.domain != s.codomain:
        raise LegError("is_relative_multiplier expects an endomorphism span")
    return _multiplier_residual(s, x) < tol


def _multiplier_residual(s: OperatorSpan, x: LegOperator) -> float:
    """The :func:`_subset_residual` of every x b and b x."""
    g = x.gather
    if g is None:
        moved = [compose(x, b) for b in s.basis] + [compose(b, x) for b in s.basis]
        return _subset_residual(moved, s)
    n = total_dim(s.domain)
    index, cols, values = s.entries()
    row, col = np.divmod(cols, n)
    # x b holds b's row source[r] in row r, times x's entry there; b x holds
    # b's column k in column source[k], times x's entry in row k
    entry, inverse = g.entries()
    items = np.concatenate((index, index + s.rank))
    moved = np.concatenate((inverse[row] * n + col, cols - col + g.source[col]))
    values = np.concatenate((entry[inverse[row]] * values, values * entry[col]))
    norms = np.sqrt(np.bincount(items, np.abs(values) ** 2, minlength=2 * s.rank))
    # numerically zero candidates at the working scale are trivially contained
    live = norms > RANK_CUTOFF * norms.max(initial=0.0)
    if not live.any():
        return 0.0
    # the live candidates renumbered, as _subset_residual drops the others
    renumber = np.cumsum(live) - 1
    kept = live[items]
    shape = (live.sum(), s.ambient_dim)
    return _residual((renumber[items[kept]], moved[kept], values[kept], shape), norms[live], s)


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


@dataclass(frozen=True)
class _Selected:
    """The generators one order keeps: per batch of support components that
    keep k of their generators, (columns (G, c), kept generator rows (G, k),
    the kept generators as columns (G, c, k) and their thin QR factors), and
    the columns no generator touches."""

    batches: tuple
    outside: np.ndarray


def _selections(gens: np.ndarray) -> list[tuple]:
    """The forward and the reverse selection over the rows of ``gens``, each
    (factors, rows): a :class:`_Selected` and the kept generators' row
    indices, in the order's sequence.

    Each support component of the generators (:func:`_split`; a
    stack that does not split is one block) selects on its own block:
    generators in other components are orthogonal to it, so they would not
    move its test.  Its generators are the columns of a block on its c
    columns, padded with zero rows to square when it has more generators
    than columns, so that R has a diagonal entry for each, and the blocks
    of one shape take one batched QR.  That Householder QR gives each
    column's distance from the span of the columns before it as |R_jj|.
    Column j is kept when that exceeds :data:`RANK_CUTOFF` times its norm;
    an exactly zero column never is.  When a component keeps every column
    that QR is kept, otherwise the QR of the kept columns.

    Unlike a greedy Gram-Schmidt pass, which measures each column against
    the kept columns only, R_jj measures it against every column before it,
    dropped ones included.  A dropped column that is only nearly dependent
    (residual between rounding and the cutoff) thus puts its residual
    direction into Q, and a later column loses its component along that
    direction: a later column nearly dependent itself, independent only
    along that direction, can be dropped where the greedy pass keeps it.
    The generators of an exact crossed product are dependent to rounding,
    where both selections agree; if they ever differed,
    :meth:`CrossedProduct.decompose` would find the element outside the kept
    span and raise, not return a wrong value.
    """
    groups, blocks = _split(gens)
    outside = np.ones(gens.shape[1], dtype=bool)
    for g in groups:
        outside[g.cols] = False
    selections = []
    for step in (1, -1):
        batches = []
        for g, block in zip(groups, blocks):
            items, v = g.items[:, ::step], block.swapaxes(1, 2)[:, :, ::step]
            width, count = v.shape[1:]
            padded = v if width >= count else np.concatenate(
                (v, np.zeros((len(v), count - width, count), dtype=complex)), axis=1)
            q, r = np.linalg.qr(padded)
            norms = np.linalg.norm(v, axis=1)
            keep = (np.abs(np.diagonal(r, axis1=1, axis2=2)) > RANK_CUTOFF * norms) & (norms > 0)
            kept = keep.sum(axis=1)
            for k in sorted(set(kept[kept > 0].tolist())):
                sel = kept == k
                at = np.nonzero(keep[sel])[1].reshape(-1, k)
                if k == count <= width:
                    vk, qk, rk = (v, q, r) if sel.all() else (v[sel], q[sel], r[sel])
                else:
                    vk = np.take_along_axis(v[sel], at[:, None, :], axis=2)
                    qk, rk = np.linalg.qr(vk)
                batches.append((g.cols[sel], np.take_along_axis(items[sel], at, axis=1),
                                vk, qk, rk))
        if not batches:
            raise DecompositionError("crossed product has no nonzero generators")
        rows = np.sort(np.concatenate([b[1].ravel() for b in batches]))[::step]
        selections.append((_Selected(tuple(batches), outside), rows))
    return selections


def _pad_isometry(conj: Conjugation, pad_legs: tuple[Space, ...]) -> np.ndarray:
    """The matrix of V with its domain legs ordered (aux, pad), so that the pad
    sits where the padded product T_k (1 (x) b) contracts it."""
    legs, n = conj.v.domain, len(pad_legs)
    if (legs[len(legs) - n:] if conj.side == "left" else legs[:n]) != pad_legs:
        raise LegError("the conjugation's domain does not hold the padding legs "
                       f"on its {conj.side} side")
    v = conj.v.matrix
    if conj.side == "right":      # swap the pad and aux legs
        v = v.reshape(v.shape[0], total_dim(pad_legs), -1).transpose(0, 2, 1)
        v = v.reshape(v.shape[0], -1)
    return v


class CrossedProductExtension:
    """Evaluates (f x g) on a crossed product by decompose-and-map, a block of
    target rows at a time.

    Each generator inj1(a_i) inj2(b_j) that :meth:`CrossedProduct.decompose`
    selects maps to inj1'(f(a_i)) inj2'(g(b_j)) on the target legs (f or g
    None is the identity).  Both injections and f, g are linear, so the mapped
    generators are never formed: an element with folded pads m_k maps to
    sum_k T_k (1 (x) R_k), where T_k is the injected k-th mapped conjugated
    factor and R_k the mapped pad: m_k itself, or V (1 (x) m_k) V* under a
    pad-side conjugation.  No T_k is kept either, only the steps of its
    injection: the block crossings, the mapped factor and the back
    crossings, the crossings shared by every k.  A "bt" product, whose pad
    comes first, is refused with a ValueError: its 180-degree turn is a
    "habt" product, which is extended instead
    (:func:`braidmu.multunitary.coassociativity_residual`).

    When every crossing is a monomial (its
    :attr:`~braidmu.tensor.LegOperator.gather`: a flip or phase crossing,
    or an explicit table such as a Yetter-Drinfeld braiding or a written-out
    flip), both runs of crossings compile, when the extension is built, into
    one gather, unless a line's image row would depend on the factor row.
    Row j of T_k then holds the factor column f_j of the mapped factor,
    times the crossings' entries, at the image row img_j of the pad legs
    and one position per factor row on the other legs.  :meth:`apply`
    contracts each row over the factor index k alone, with row img_j of
    every R_k: O(n^8) on three legs of dimension n, where the dense factor
    block took O(n^9).  It builds those rows of R_k for the image rows its
    lines read, so memory stays one block; the extension keeps no row
    between calls, and the blocked walk of :func:`compare_extensions` hands
    each block's last row to the next.

    The same compiled gather gives both operands of that contraction as
    entries, keyed by (image row, k), with nothing more compiled: the
    nonzeros of a line of every T_k (:meth:`_line_entries`) and of every
    element's R_k (:meth:`_pad_entries`).  For a monomial F, whose pad-side
    V is a permutation with phases, both are sparse, and the entry walk of
    :func:`compare_extensions` joins them on their keys: at KT Z8 it forms
    2,048 products from 1,024 line entries, where the GEMMs multiply 67 M
    entries that are almost all zero.

    Any other extension keeps the GEMM path, the reference that the gather
    is tested against: the leading crossings are placed on the target legs
    and the trailing ones on the factor leg and the legs the leading ones
    leave, each as a :class:`~braidmu.tensor.PlannedWord`.
    :meth:`_factor_lines` builds the rows of every T_k that a block of
    target rows needs from the leading word's columns, every mapped factor
    on them by one GEMM and the trailing word run on the result, and one
    GEMM with the stacked folded pads maps both decompositions of every
    element.  A pad-side conjugation comes out of the sum there: the GEMM
    runs on T_k (1 (x) V) and its output is multiplied by 1 (x) V*.
    """

    def __init__(self, cp: CrossedProduct, f: Conjugation | None, g: Conjugation | None):
        _refuse_turned(cp)
        t1 = f.target if f is not None else cp.s1.domain
        t2 = g.target if g is not None else cp.s2.domain
        (before, start, after), _ = _injection_steps(cp.variant, cp.provider, t1, t2)
        self._p = cp.pad.shape[-1]
        self.target_domain = t1 + t2
        self._dim = total_dim(self.target_domain)
        self._rc = cp.conjugated.rank
        factors = [f.apply(x) if f is not None else x for x in cp.conjugated.basis]
        # the rows of T_k are the conjugated columns of T_k*, from the adjoint
        # steps run backward
        before, after = ([(adjoint(op), at) for op, at in reversed(steps)]
                         for steps in (after, before))
        self._before = PlannedWord(before, self.target_domain)
        self._pre = total_dim(self._before.codomain[:start - 1])
        v = _pad_isometry(g, cp.padded.domain) if g is not None else None
        self._vh = np.ascontiguousarray(v.conj().T) if v is not None else None
        self._gathered = self._compile_gather(after, factors, v)
        if self._gathered:
            return
        self._factors = np.concatenate([adjoint(x).matrix for x in factors])
        # the factor index leads the rows as one more leg once the factors
        # have acted, so the crossings after them run once for every k
        self._after = PlannedWord([(op, at + 1) for op, at in after],
                                  (Space("k", self._rc),) + self._before.codomain)

    def _compile_gather(self, after: Sequence, factors: Sequence[LegOperator],
                        v: np.ndarray | None) -> bool:
        """Compile the crossings around the factors into the gather of
        :meth:`_gather_lines`, for the pad-side isometry V (None without
        one); False, and nothing kept, when a crossing is no monomial or a
        line's image row would depend on the factor row."""
        trailing = PlannedWord(after, self._before.codomain)
        if self._before.gather is None or trailing.gather is None:
            return False
        dim, fd = self._dim, total_dim(factors[0].domain)
        image = v.shape[0] if v is not None else self._p
        # line j enters the factor at its column f_j, between the legs before
        # and after it, with phase phi_j
        phi, into = self._before.gather.entries()
        ahead, col, behind = np.unravel_index(into, (self._pre, fd, dim // (self._pre * fd)))
        # factor row c of line j leaves at out(a_j, c, r_j) of the target,
        # with phase psi; the rest of out is the image row
        psi, out = trailing.gather.entries()
        image_of = (out % image).reshape(self._pre, fd, -1)
        if dim != fd * image or np.any(image_of != image_of[:, :1]):
            return False
        self._img, self._col, self._image = image_of[ahead, 0, behind], col, image
        # each target position: the factor row written there, and its phase;
        # T_k's rows are the conjugated columns of T_k*, so the factors are
        # stacked transposed, [row, column, k], and the phases conjugated
        self._row_at = np.unravel_index(trailing.gather.source, image_of.shape)[1]
        self._phi, self._psi_at = phi[into].conj(), psi.conj()
        self._x = np.stack([x.matrix.T for x in factors], axis=-1).astype(complex, copy=False)
        if np.all(self._phi == 1) and np.all(self._psi_at == 1):
            self._phi = self._psi_at = None
        # R_k's rows as rows of V (1 (x) F_k) V^H, for the pads F_k as folded
        self._a = v.reshape(image, -1, self._p) if v is not None else None
        return True

    def line_bytes(self, count: int) -> int:
        """Bytes that :meth:`apply` holds at once per target line, for ``count``
        elements.  The GEMM path holds every T_k's line twice, or every
        element's two values three times.  The gather holds the values one
        and a half times (its output, and a group's product as it is copied
        in: three values for the pair of extensions that coassociativity
        applies), the line's gathered factor entries, and its share of the
        rows of R_k, held twice (the product with A and then with A^H): a row
        per line, or per dim / image lines for the carrier of a pad-side
        conjugation, whose lines :func:`_blocked_walk` groups by row."""
        if not self._gathered:
            return 16 * self._dim * max(2 * self._rc, 6 * count)
        fd, image = self._dim // self._image, self._image
        shared = self._dim // image if self._a is not None else 1
        return 16 * (3 * count * self._dim + fd * self._rc
                     + 2 * self._rc * 2 * count * image // shared)

    def _factor_lines(self, lo: int, hi: int) -> np.ndarray:
        """The GEMM block of the target rows lo:hi, shape (rows, rc * p): the
        rows of every T_k (1 (x) V), split so that the pad is the last axis.
        They are the conjugated columns of (1 (x) V*) T_k*, which the adjoint
        steps build."""
        factors, pre = self._factors, self._pre
        rc, p, b, fd = self._rc, self._p, hi - lo, factors.shape[-1]
        x = self._before.columns(lo, hi)
        # every factor by one GEMM, its legs leading, then the factor index
        # leading and its legs back in place
        x = factors @ x.reshape(pre, fd, -1).transpose(1, 0, 2).reshape(fd, -1)
        x = x.reshape(rc, fd, pre, -1).transpose(0, 2, 1, 3)
        x = self._after.run(x.reshape(-1, b))
        if self._vh is None:
            x = x.reshape(rc, -1, p, b).transpose(3, 1, 0, 2)
        else:                                               # (1 (x) V*) T_k* = (T_k (1 (x) V))*
            image = self._vh.shape[1]
            x = x.reshape(rc, -1, image, b).transpose(2, 0, 1, 3)       # the image legs leading
            rest = x.shape[2]
            x = (self._vh @ x.reshape(image, -1)).reshape(-1, p, rc, rest, b)
            x = x.transpose(4, 3, 0, 2, 1)
        return np.conjugate(x, out=np.empty(x.shape, dtype=complex)).reshape(-1, rc * p)

    def _gather_lines(self, lines: np.ndarray, img: np.ndarray) -> np.ndarray:
        """Row j of every T_k at its image row img_j, shape (lines, fd, rc):
        entry (j, rho, k) is the factor row written at the position rho of the
        other legs, read at column f_j of the k-th factor, times its phases."""
        fd = self._dim // self._image
        at = np.arange(fd) * self._image + img[:, None]
        x = self._x[self._row_at[at], self._col[lines][:, None]]
        if self._phi is not None:
            x *= self._phi[lines][:, None, None]
            x *= self._psi_at[at][..., None]
        return x

    def _pad_rows(self, folds: np.ndarray, rows: np.ndarray, kept: tuple | None
                  ) -> tuple[np.ndarray, tuple | None]:
        """The image rows ``rows`` of every element's R_k under both
        decompositions, shape (rows, rc, elements * 2 * image), and the last
        of them as (row, values) under a pad-side conjugation: ``kept``, that
        pair from the block before, stands in for the first row when it is
        that row."""
        count, rc, p = len(folds), self._rc, self._p
        pads = folds.reshape(count, 2, rc, p, p)
        if self._a is None:
            r = pads[:, :, :, rows].transpose(3, 2, 0, 1, 4)
            return np.ascontiguousarray(r).reshape(len(rows), rc, -1), None
        reuse = kept is not None and rows[0] == kept[0]
        out = np.empty((len(rows), rc, count * 2 * self._image), dtype=complex)
        if reuse:
            out[0] = kept[1]
        if len(rows) > reuse:
            # A_r (1 (x) F_k) for every row r, then A^H
            z = np.tensordot(self._a[rows[int(reuse):]], pads, axes=([2], [3]))
            z = np.ascontiguousarray(z.transpose(0, 4, 2, 3, 1, 5)).reshape(-1, self._vh.shape[0])
            out[int(reuse):] = (z @ self._vh).reshape(-1, rc, out.shape[-1])
        return out, (rows[-1], out[-1].copy())

    def _pad_entries(self, folds: np.ndarray) -> tuple | None:
        """Every element's R_k under both decompositions as entries (key,
        element * 2 + decomposition, column, value), keyed by (image row, k)
        as row * rc + k; None off the gather path, or when a column of the
        pad-side isometry V holds more than one entry.

        R_k is the folded pad m_k, or V (1 (x) m_k) V^H: with column (a, q)
        of V landing on row w(a, q), each entry (q, s) of m_k lands at (w(a,
        q), w(a, s)) for every aux index a, times V's entry in column (a, q)
        and then the conjugate of V's in column (a, s), as the GEMMs of
        :meth:`_pad_rows` take them."""
        if not self._gathered:
            return None
        rc, p = self._rc, self._p
        pads = folds.reshape(-1, rc, p, p)
        element, k, row, col = at = np.nonzero(pads)
        value = pads[at]
        if self._a is not None:
            if np.any(np.count_nonzero(self._a, axis=0) != 1):
                return None
            # per column (a, q), its row and entry; m_k's entries once per a
            lands = np.argmax(self._a != 0, axis=0)
            phase = np.take_along_axis(self._a, lands[None], 0)[0]
            value = (phase[:, row] * value * phase[:, col].conj()).ravel()
            row, col = lands[:, row].ravel(), lands[:, col].ravel()
            element, k = np.tile(element, len(lands)), np.tile(k, len(lands))
        return row * rc + k, element, col, value

    @cached_property
    def _factor_entries(self) -> tuple[np.ndarray, ...]:
        """The nonzeros (r, c, k) of the factor stack by column c: each
        column's first entry and entry count, and every entry's r, k and
        value; and per factor row r and image row i, at r * image + i, the
        position rho of the other legs where row r is written on row i."""
        at = np.nonzero(self._x.transpose(1, 0, 2))
        counts = np.bincount(at[0], minlength=self._x.shape[1])
        positions = np.arange(self._dim)
        rho = np.empty(self._dim, dtype=np.intp)
        rho[self._row_at * self._image + positions % self._image] = positions // self._image
        return (np.cumsum(counts) - counts, counts, at[1], at[2], self._x[at[1], at[0], at[2]],
                rho)

    def _line_products(self, pad_keys: np.ndarray) -> np.ndarray:
        """Per target line, how many entries and products the entry walk
        forms for it: line j's factor entries in column f_j, and for each k
        those of k times R's entries keyed (img_j, k)."""
        per_key = np.bincount(pad_keys, minlength=self._image * self._rc)
        entries = np.count_nonzero(self._x, axis=0)
        counts = entries @ (per_key.reshape(self._image, -1).T + 1)
        return counts[self._col, self._img]

    def _line_entries(self, lines: np.ndarray) -> tuple[np.ndarray, ...]:
        """Row j of every T_k, for each line j of ``lines``, as entries (j,
        position rho, key, value), line by line: each nonzero (r, f_j, k) of
        the factor stack, at the position rho of the other legs whose factor
        row is r on the image row img_j, keyed img_j * rc + k, times its
        phases as :meth:`_gather_lines` takes them."""
        image = self._image
        first, counts, rows, ks, values, rho_of = self._factor_entries
        line, at = _expand(first[self._col[lines]], counts[self._col[lines]])
        line, img = lines[line], self._img[lines][line]
        rho = rho_of[rows[at] * image + img]
        x = values[at]
        if self._phi is not None:
            # not in place: numpy multiplies a one-entry array in place
            # without the fused rounding of its vector loop
            x = x * self._phi[line] * self._psi_at[rho * image + img]
        return line, rho, img * self._rc + ks[at], x

    def apply(self, folds: np.ndarray, lines: np.ndarray, kept: tuple | None = None
              ) -> tuple[np.ndarray, tuple | None]:
        """Both mapped values of every element, on the target rows ``lines``.

        ``folds`` stacks :meth:`CrossedProduct.decompose` of each element,
        shape (elements, 2, rc * p, p).  ``lines`` is an array of target
        rows, consecutive ones on the GEMM path.  Returns a new array of shape
        (elements, 2, rows, dim): the rows ``lines`` of each element's image
        under its forward and under its reverse decomposition.  With the
        values comes the last image row of R_k that the gather built under a
        pad-side conjugation, as (row, values), or None; ``kept`` is that
        pair from the call before on the same folds, reused when these lines
        start on its row.
        """
        if self._gathered:
            return self._gather_apply(folds, lines, kept)
        if np.any(np.diff(lines) != 1):
            raise ValueError("the GEMM path of an extension takes consecutive target lines")
        lo, hi = int(lines[0]), int(lines[-1]) + 1
        count, p, b = len(folds), self._p, hi - lo
        pads = folds.transpose(2, 0, 1, 3).reshape(-1, count * 2 * p)
        out = self._factor_lines(lo, hi) @ pads
        # the rows of T_k (1 (x) V) (1 (x) m_k), then 1 (x) V* on the right
        y = np.ascontiguousarray(out.reshape(b, -1, count, 2, p).transpose(2, 3, 0, 1, 4))
        if self._vh is not None:
            y = y.reshape(-1, self._vh.shape[0]) @ self._vh
        return y.reshape(count, 2, b, self._dim), None

    def _gather_apply(self, folds: np.ndarray, lines: np.ndarray, kept: tuple | None
                      ) -> tuple[np.ndarray, tuple | None]:
        """:meth:`apply` by the gather: the lines that read one image row
        contract their gathered entries with that row of every R_k by one
        GEMM."""
        count, b, image = len(folds), len(lines), self._image
        fd = self._dim // image
        img = self._img[lines]
        order = np.argsort(img, kind="stable")
        rows = img[order]
        starts = np.concatenate(([0], np.flatnonzero(rows[1:] != rows[:-1]) + 1))
        pad_rows, kept = self._pad_rows(folds, rows[starts], kept)
        x = self._gather_lines(lines, img)
        out = np.empty((count, 2, b, fd, image), dtype=complex)
        for r, lo, hi in zip(pad_rows, starts, [*starts[1:], b]):
            # a group is consecutive lines when the lines come grouped
            first, last = order[lo], order[hi - 1]
            group = slice(first, last + 1) if last - first == hi - lo - 1 else order[lo:hi]
            y = (x[group].reshape(-1, self._rc) @ r).reshape(-1, fd, count, 2, image)
            out[:, :, group] = y.transpose(2, 3, 0, 1, 4)
        return out.reshape(count, 2, b, self._dim), kept


def _extension_blocks(exts: Sequence[CrossedProductExtension], count: int) -> list[slice]:
    """Consecutive ranges of the walk's line order, for applying every
    extension to ``count`` elements a block at a time within
    :data:`_BLOCK_BYTES` (one line at least).  The budget counts each
    extension's :meth:`~CrossedProductExtension.line_bytes`, its share of
    the rows of R_k included; a block whose lines start or end inside an
    image row builds that row too."""
    dim = exts[0]._dim
    step = max(1, _BLOCK_BYTES // sum(ext.line_bytes(count) for ext in exts))
    return [slice(lo, min(lo + step, dim)) for lo in range(0, dim, step)]


def compare_extensions(left: CrossedProductExtension, right: CrossedProductExtension,
                       folds: np.ndarray) -> np.ndarray:
    """The squared norms that compare two extensions on the same elements,
    shape (5, elements): per element, ||L0||^2, ||L1 - L0||^2, ||R0||^2,
    ||R1 - R0||^2 and ||L0 - R0||^2, for its values L under ``left`` and R
    under ``right``, 0 from its forward and 1 from its reverse decomposition.

    ``folds`` stacks :meth:`CrossedProduct.decompose` of each element.  A
    "bt" product is compared as its 180-degree turn
    (:func:`braidmu.multunitary.coassociativity_residual`).  Every walk maps
    the elements a block of target lines, which are target rows, at a time,
    within :data:`_BLOCK_BYTES`, so no value is held whole.  Each line's
    squares are kept and summed in line order once the walk ends, so the
    blocks do not set the rounding.

    When both extensions gather and every pad-side isometry has one entry
    per column, as a monomial F's does, their operands read as entries
    (:meth:`~CrossedProductExtension._pad_entries`).  The walk then joins
    them (:func:`_entry_walk`) when the line entries and products it forms,
    counted from the entries per key before any product is formed, are
    fewer than the multiplies of the blocked walk (:func:`_blocked_walk`).
    A dense F keeps the blocked walk, as does any extension off the gather
    path.
    """
    exts = (left, right)
    pads = [ext._pad_entries(folds) for ext in exts]
    if all(pad is not None for pad in pads):
        products = sum(ext._line_products(pad[0]) for ext, pad in zip(exts, pads))
        # the gather's GEMMs: every line of every T_k against every row of R_k
        if products.sum() < sum(ext._dim ** 2 * ext._rc * 2 * len(folds) for ext in exts):
            return _entry_walk(exts, pads, products, len(folds))
    return _blocked_walk(exts, folds)


def _blocked_walk(exts: Sequence[CrossedProductExtension], folds: np.ndarray) -> np.ndarray:
    """:func:`compare_extensions` by :meth:`CrossedProductExtension.apply`,
    over the blocks of :func:`_extension_blocks`.  When both extensions
    gather, the lines are grouped by the image row of the one that carries a
    pad-side conjugation, and each block hands the last row of R_k it built
    to the next, so that each row is built once."""
    carrier = [ext for ext in exts if ext._gathered and ext._a is not None]
    grouped = carrier and all(ext._gathered for ext in exts)
    order = np.argsort(carrier[0]._img, kind="stable") if grouped else np.arange(exts[0]._dim)
    squares, kept = np.empty((5, len(folds), len(order))), (None, None)
    for block in _extension_blocks(exts, len(folds)):
        lines = order[block]
        values, kept = zip(*(ext.apply(folds, lines, row) for ext, row in zip(exts, kept)))
        for i, y in enumerate(values):
            y[:, 1] -= y[:, 0]
            squares[2 * i][:, lines] = _squares(y[:, 0])
            squares[2 * i + 1][:, lines] = _squares(y[:, 1])
        values[0][:, 0] -= values[1][:, 0]
        squares[4][:, lines] = _squares(values[0][:, 0])
        del values, y   # the next block's values are made without these
    return squares.sum(axis=-1)


def _expand(first: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of a join: for each i, the indices first[i] .. first[i] +
    counts[i] - 1 in turn, with i beside each."""
    which = np.repeat(np.arange(counts.size), counts)
    return which, np.arange(which.size) + (first - (np.cumsum(counts) - counts))[which]


def _entry_blocks(products: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ranges (lo, hi) of target lines for :func:`_entry_walk`,
    each of whole lines, one at least, whose ``products`` (per line) stay
    within :data:`_BLOCK_BYTES`.  A product holds at most twelve arrays of
    16 bytes or less at once: the pair of the join, its target entry, lane
    and value, and the sorted, numbered and summed copies of those."""
    total, step = np.cumsum(products), max(1, _BLOCK_BYTES // (16 * 12))
    blocks, lo = [], 0
    while lo < len(products):
        hi = int(np.searchsorted(total, step + (total[lo - 1] if lo else 0), side="right"))
        blocks.append((lo, max(lo + 1, hi)))
        lo = blocks[-1][1]
    return blocks


def _entry_walk(exts: Sequence[CrossedProductExtension], pads: Sequence[tuple],
                products: np.ndarray, count: int) -> np.ndarray:
    """:func:`compare_extensions` by joining each extension's line entries
    (:meth:`~CrossedProductExtension._line_entries`) with its R entries
    (``pads``) on their key, a block of consecutive lines at a time.

    A block holds whole lines, as many as keep its ``products`` (per line,
    both extensions') within :data:`_BLOCK_BYTES`, one line at least.  Each
    product x r lands on its element, decomposition, line and position; the
    products of one target entry, over k, are summed in key order, and the
    five squares are taken per entry and summed per line in position
    order."""
    dim = exts[0]._dim
    # R's entries in key order, and each key's first and count
    joins = []
    for ext, (keys, *_) in zip(exts, pads):
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=ext._image * ext._rc)
        joins.append((order, np.cumsum(counts) - counts, counts))
    squares = np.zeros((5, count, dim))
    for lo, hi in _entry_blocks(products):
        entries, lanes, values = [], [], []
        for i, (ext, (_, element, col, r), (order, first, counts)) in enumerate(
                zip(exts, pads, joins)):
            line, rho, key, x = ext._line_entries(np.arange(lo, hi))
            which, at = _expand(first[key], counts[key])
            at = order[at]
            entries.append(((element[at] // 2 * dim + line[which]) * dim
                            + rho[which] * ext._image + col[at]))
            lanes.append(2 * i + element[at] % 2)
            values.append(x[which] * r[at])
        slots, slot = np.unique(np.concatenate(entries), return_inverse=True)
        slot = slot * 4 + np.concatenate(lanes)
        values = np.concatenate(values)
        sums = np.empty((slots.size, 4), dtype=complex)
        sums.real = np.bincount(slot, values.real, sums.size).reshape(-1, 4)
        sums.imag = np.bincount(slot, values.imag, sums.size).reshape(-1, 4)
        l0, l1, r0, r1 = sums.T
        # each entry's line within the block, element by element
        row = slots // dim
        row = row // dim * (hi - lo) + row % dim - lo
        for q, y in enumerate((l0, l1 - l0, r0, r1 - r0, l0 - r0)):
            squares[q][:, lo:hi] = np.bincount(row, y.real * y.real + y.imag * y.imag,
                                               count * (hi - lo)).reshape(count, -1)
    return squares.sum(axis=-1)


def _squares(y: np.ndarray) -> np.ndarray:
    """Per element and target row, the sum of |y|^2 over the row, for y of
    shape (elements, rows, dim)."""
    r = y.view(float)
    return np.einsum("ijk,ijk->ij", r, r)
