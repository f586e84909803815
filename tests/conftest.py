import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

import braidmu as bm
from braidmu import LegOperator, LegSignature, Space, dsl, spans
from braidmu.tensor import LegError, Step, adjoint, apply_on_legs, tensor, total_dim

ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


def record_acceptance(name: str, passed: bool):
    ACCEPTANCE_RESULTS.append((name, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, passed in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}")


@pytest.fixture(scope="session")
def z2():
    return bm.kac_takesaki(bm.cyclic(2))


@pytest.fixture(scope="session")
def z3():
    return bm.kac_takesaki(bm.cyclic(3))


@pytest.fixture(scope="session")
def s3():
    return bm.kac_takesaki(bm.symmetric(3))


@pytest.fixture(scope="session")
def super_module():
    """The Z2 module with grading (0, 1) and the sign action."""
    module, mu = bm.group_yd_module(bm.cyclic(2), [0, 1],
                                    [np.eye(2), np.diag([1.0, -1.0])])
    return module, mu


@pytest.fixture(scope="session")
def super_space():
    return bm.Space("S", 2, (0, 1))


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_pentagon_defect(f, c, cinv):
    """F23 F12 - F12 c12 F23 cinv12 F23 from the matrices of F, c and c^{-1} on
    L (x) L: every factor padded by kron and multiplied as an n^3 x n^3 matrix."""
    eye = np.eye(math.isqrt(f.shape[0]))
    f12, f23 = np.kron(f, eye), np.kron(eye, f)
    return f23 @ f12 - f12 @ np.kron(c, eye) @ f23 @ np.kron(cinv, eye) @ f23


@dataclass(frozen=True, eq=False)
class Tape:
    """A step list run forward from the identity, as :func:`record` leaves it.

    ``legs[j]`` are the legs the rows carry before step j, the last entry
    those of the product.  ``prefixes[j]`` is the product of the steps ahead
    of step j, the identity first and the whole product last.
    """

    steps: tuple[Step, ...]
    legs: tuple[tuple[Space, ...], ...]
    prefixes: tuple[np.ndarray, ...]

    @property
    def product(self) -> np.ndarray:
        return self.prefixes[-1]


def legs_after(op, context, start):
    """The legs once op has acted on the legs ``start ..`` (1-based) of the context."""
    return context[:start - 1] + op.codomain + context[start - 1 + len(op.domain):]


def record(steps: Sequence[Step], context: Sequence[Space]) -> Tape:
    """The reference of tensor.PlannedWord.forward, one step at a time: the
    product of a nonempty step list on the context, with every prefix
    product kept for :func:`pullback`: the identity, then each step run on
    the prefix before it by apply_on_legs."""
    legs = [tuple(context)]
    prefixes = [np.eye(total_dim(context), dtype=complex)]
    for op, start in steps:
        prefixes.append(apply_on_legs(op, prefixes[-1], legs[-1], start))
        legs.append(legs_after(op, legs[-1], start))
    return Tape(tuple(steps), tuple(legs), tuple(prefixes))


def pullback(tape: Tape, cotangent: np.ndarray, factor=None) -> list[np.ndarray]:
    """The reference of tensor.PlannedWord.pullback, which re-derives every
    placement: the cotangents of the steps' factors, for a cotangent P of the
    tape's product, in step order, for every step whose factor is ``factor``
    (every step when None).  G_j is the partial trace of After* P Before*
    over the legs op does not touch; After* P runs the adjoint steps backward
    by apply_on_legs."""
    steps, legs, before = tape.steps, tape.legs, tape.prefixes
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


def dense_distance(lhs, rhs, context):
    """tensor.distance the dense way: both step products formed whole by
    leg_product, then the Hilbert-Schmidt norm of their difference."""
    return float(np.linalg.norm(bm.tensor.leg_product(lhs, context).matrix
                                - bm.tensor.leg_product(rhs, context).matrix))


def routed_oracle(x, context, positions, route, braiding):
    """apply_distant one crossing at a time: leg i slides right past each
    intermediate leg, x acts, then its first codomain leg slides back left,
    crossing the nearest intermediate leg first.  Returns the matrix and the
    codomain legs."""
    i, k = positions
    spaces = list(context)
    move = np.eye(total_dim(spaces))
    for p in range(i, k - 1):
        a, m = spaces[p - 1], spaces[p]
        c = braiding.braid_inverse(m, a) if route == "over" else braiding.braid(a, m)
        move = bm.embed_adjacent(c, tuple(spaces), p).matrix @ move
        spaces[p - 1:p + 1] = [m, a]
    mid = bm.embed_adjacent(x, tuple(spaces), k - 1)
    spaces = list(mid.codomain)
    back = np.eye(total_dim(spaces))
    for p in range(k - 2, i - 1, -1):
        m, a2 = spaces[p - 1], spaces[p]
        c = braiding.braid(m, a2) if route == "over" else braiding.braid_inverse(a2, m)
        back = bm.embed_adjacent(c, tuple(spaces), p).matrix @ back
        spaces[p - 1:p + 1] = [a2, m]
    return back @ mid.matrix @ move, tuple(spaces)


def dense_braid_tensor(provider, left, right):
    """Braiding of leg blocks, expanded through the hexagon identities."""
    left, right = tuple(left), tuple(right)
    if not left or not right:
        return bm.identity(left + right)
    if len(left) == 1 and len(right) == 1:
        return provider.braid(left[0], right[0])
    if len(left) > 1:
        # c_{X (x) Y, Z} = (c_{X,Z} (x) id_Y) (id_X (x) c_{Y,Z})
        x, y = left[:1], left[1:]
        first = tensor(bm.identity(x), dense_braid_tensor(provider, y, right))
        second = bm.embed_adjacent(dense_braid_tensor(provider, x, right), first.codomain, 1)
        return bm.compose(second, first)
    # c_{X, Y (x) Z} = (id_Y (x) c_{X,Z}) (c_{X,Y} (x) id_Z)
    y, z = right[:1], right[1:]
    first = tensor(dense_braid_tensor(provider, left, y), bm.identity(z))
    second = bm.embed_adjacent(dense_braid_tensor(provider, left, z), first.codomain, 2)
    return bm.compose(second, first)


def routing_category(kind):
    """A braiding and two spaces of different dimensions it braids."""
    if kind == "yd":
        omega = np.exp(2j * np.pi / 3)
        group = bm.cyclic(3)
        p, mu = bm.group_yd_module(group, [0, 1, 2],
                                   [np.diag(omega ** (g * np.arange(3))) for g in range(3)],
                                   space_id="P")
        q, _ = bm.group_yd_module(group, [1, 2], [np.diag(omega ** (g * np.array([0, 2])))
                                                 for g in range(3)], mu=mu, space_id="Q")
        return bm.yd_braiding_provider([p, q], mu, include_tensors=False), p.space, q.space
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    return (bm.FlipBraiding() if kind == "flip" else bm.PhaseBraiding(3)), a, b


def zn_module(n, seed):
    """The Z_n Yetter-Drinfeld module of the legcalc benchmark
    (``bench/workloads.zn_module``): C[Z_n] with vector i of degree perm[i]
    for a seeded permutation, acted on by pi(g) = diag(omega^(g perm))."""
    degree = np.random.default_rng([seed, n]).permutation(n)
    omega = np.exp(2j * np.pi / n)
    return bm.group_yd_module(bm.cyclic(n), [int(j) for j in degree],
                              [np.diag(omega ** (g * degree)) for g in range(n)])


def dense_evaluate(expr, bindings, context, braiding):
    """dsl.evaluate the dense way: every factor padded to the running context by
    embed_adjacent (routed atoms one crossing at a time) and multiplied onto
    an identity seed with compose."""
    context = tuple(context)
    if isinstance(expr, dsl.Seq):
        current = bm.identity(context)
        for term in reversed(expr.terms):
            current = bm.compose(dense_evaluate(term, bindings, current.codomain, braiding),
                                 current)
        return current
    if isinstance(expr, dsl.Adj):
        inner = dense_evaluate(expr.inner, bindings, context, braiding)
        assert inner.domain == inner.codomain
        return bm.adjoint(inner)
    legs = expr.legs
    if expr.name in ("c", "cinv"):
        a, b = context[legs[0] - 1], context[legs[0]]
        op = braiding.braid(a, b) if expr.name == "c" else braiding.braid_inverse(b, a)
        return bm.embed_adjacent(op, context, legs[0])
    op = bindings[expr.name]
    if all(legs[j + 1] == legs[j] + 1 for j in range(len(legs) - 1)):
        return bm.embed_adjacent(op, context, legs[0])
    matrix, codomain = routed_oracle(op, context, legs, expr.route or "over", braiding)
    return LegOperator(LegSignature(context, codomain), matrix)


def greedy_selection(v, cutoff):
    """The columns of v that the crossed-product extension once selected: a greedy
    Gram-Schmidt pass in column order, keeping a nonzero column when its residual
    against the columns kept so far exceeds ``cutoff`` times its norm."""
    q_rows, selected = [], []
    for j in range(v.shape[1]):
        col = v[:, j]
        n = np.linalg.norm(col)
        if n == 0:
            continue
        r = col.copy()
        for q in q_rows:
            r -= q * (q.conj() @ r)
        if np.linalg.norm(r) <= cutoff * n:
            continue
        q_rows.append(r / np.linalg.norm(r))
        selected.append(j)
    return selected


def independent_columns(v):
    """spans._selections on one whole block, as the 2-D routine it replaces:
    the indices of the columns of v independent of the columns before them,
    and their thin QR.  One QR of v gives each column's distance from the
    columns before it as |R_jj|; column j is kept when that exceeds the
    cutoff times its norm, and an exactly zero column never is.  When every
    column is kept that QR is returned, otherwise the QR of the kept ones."""
    q, r = np.linalg.qr(v)
    norms = np.linalg.norm(v, axis=0)
    keep = np.flatnonzero((np.abs(np.diagonal(r)) > spans.RANK_CUTOFF * norms) & (norms > 0))
    if 0 < keep.size < v.shape[1]:
        q, r = np.linalg.qr(v[:, keep])
    return keep, q, r


def loop_subset_residual(candidates, span):
    """spans._subset_residual one candidate at a time, as it was first written."""
    b = span.stack()
    vecs = [op.matrix.reshape(-1) for op in candidates]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    scale = max(norms, default=0.0)
    worst = 0.0
    for v, n in zip(vecs, norms):
        if n <= spans.RANK_CUTOFF * scale:
            continue
        worst = max(worst, float(np.linalg.norm(v - b.T @ (b.conj() @ v))) / n)
    return worst


def turned(x):
    """x turned by 180 degrees: transposed, with the legs of both sides
    reversed.  The turn reverses products and keeps every norm."""
    dom, cod = x.domain, x.codomain
    n, m = len(dom), len(cod)
    t = x.matrix.T.reshape([s.dim for s in dom + cod])
    t = t.transpose([*range(n - 1, -1, -1), *range(n + m - 1, n - 1, -1)])
    return LegOperator(LegSignature(cod[::-1], dom[::-1]),
                       t.reshape(total_dim(dom), total_dim(cod)))


def pad_isometry(conj, pad_legs, pad_first):
    """The matrix of V with its domain legs ordered (aux, pad), or (pad, aux)
    when ``pad_first``: the oracle's own copy of spans._pad_isometry, which
    takes the pad last only, so that the oracle extends a "bt" product
    unturned."""
    legs, n = conj.v.domain, len(pad_legs)
    if (legs[len(legs) - n:] if conj.side == "left" else legs[:n]) != pad_legs:
        raise LegError("the conjugation's domain does not hold the padding legs")
    v = conj.v.matrix
    p = total_dim(pad_legs)
    if (conj.side == "left") == pad_first:      # swap the aux and pad legs
        split = (-1, p) if conj.side == "left" else (p, -1)
        v = v.reshape(v.shape[0], *split).transpose(0, 2, 1).reshape(v.shape[0], -1)
    return v


def oracle_folds(cp, x, tol=1e-9):
    """CrossedProduct.decompose in either orientation: x solved by least
    squares on the generator rows that each order keeps.  Pad first ("bt"),
    which spans refuses, the generator rows run over (l, k) and each folded
    pad is stored transposed, as DenseCrossedProductExtension reads it."""
    if not cp.pad_first:
        return cp.decompose(x, tol)
    vx = x.matrix.reshape(-1)
    rp, p, _ = cp.pad.shape
    rc = cp.conjugated.rank
    folds = []
    for _, rows in cp.decompositions:
        kept = cp.gens[rows].T
        coef = np.linalg.lstsq(kept, vx, rcond=None)[0]
        residual = np.linalg.norm(kept @ coef - vx)
        if residual > tol * max(np.linalg.norm(vx), 1.0):
            raise spans.DecompositionError(
                f"element lies outside the crossed product (residual {residual:.3e})")
        c = np.zeros(rc * rp, dtype=complex)
        c[rows] = coef
        m = (c.reshape(rp, rc).T @ cp.pad.reshape(rp, -1)).reshape(rc, p, p)
        folds.append(m.transpose(0, 2, 1).reshape(rc * p, p))
    return np.stack(folds)


class DenseCrossedProductExtension:
    """The crossed-product extension with every mapped conjugated factor held
    in one dense block, as spans.CrossedProductExtension was first written.
    It keeps both orientations, so it is also the unturned oracle of a "bt"
    product, whose folds :func:`oracle_folds` gives.

    Column block k of the target holds T_k (1 (x) V), reshaped so that the pad
    is its last axis; pad first, the transpose of (V* (x) 1) T_k with the pad
    leading.  :meth:`apply` maps one element by one GEMM of the whole block
    with both of its decompositions' folded pads.
    """

    def __init__(self, cp, f, g):
        t1 = f.target if f is not None else cp.s1.domain
        t2 = g.target if g is not None else cp.s2.domain
        alpha2, beta2 = spans.crossed_injections(cp.variant, cp.provider, t1, t2)
        (conj_map, inject), (pad_map, _) = cp.orient((f, alpha2), (g, beta2))
        self._pad_first = cp.pad_first
        self._v = (pad_isometry(pad_map, cp.padded.domain, self._pad_first)
                   if pad_map is not None else None)
        self.target_domain = t1 + t2
        self._dim = total_dim(self.target_domain)
        p = cp.pad.shape[-1]
        image, width = self._v.shape if self._v is not None else (p, p)
        rows = self._dim * (self._dim // image) * (width // p)
        self._target = np.empty((rows, cp.conjugated.rank * p), dtype=complex)
        for k, x in enumerate(cp.conjugated.basis):
            t = inject(conj_map.apply(x) if conj_map is not None else x).matrix
            if self._pad_first:
                if self._v is not None:
                    t = self._v.conj().T @ t.reshape(image, -1)
                self._target[:, k * p:(k + 1) * p] = t.reshape(p, rows).T
            else:
                if self._v is not None:
                    t = t.reshape(-1, image) @ self._v
                self._target[:, k * p:(k + 1) * p] = t.reshape(rows, p)

    def _unfold(self, half):
        if self._pad_first:
            y = half.T.reshape(-1, self._dim)
            if self._v is not None:
                y = self._v @ y.reshape(self._v.shape[1], -1)
        else:
            y = half.reshape(self._dim, -1)
            y = y.copy() if self._v is None else y.reshape(-1, self._v.shape[1]) @ self._v.conj().T
        return y.reshape(self._dim, self._dim)

    def values(self, folds):
        """The element's image under its forward and its reverse decomposition."""
        out = np.matmul(self._target, folds)
        return self._unfold(out[0]), self._unfold(out[1])

    def apply(self, folds, tol=1e-9):
        forward, reverse = self.values(folds)
        dev = float(np.linalg.norm(reverse - forward))
        if dev > tol * max(np.linalg.norm(forward), 1.0):
            raise spans.DecompositionError(
                f"extension value depends on the decomposition (deviation {dev:.3e})")
        return LegOperator(LegSignature(self.target_domain, self.target_domain), forward)


def graded_kac_takesaki():
    """KT(Z2) (x) 1_H on L = L^2(Z2) (x) H under the super braiding.

    H has degrees (0, 1) and the group part degree 0, so L is graded
    (0, 1, 0, 1) and every crossing of L (x) L carries phases.  F acts as
    KT(Z2) on the group indices and as the identity on the H indices.
    """
    kt = bm.kac_takesaki(bm.cyclic(2)).matrix
    # rows and columns of kron(KT, 1) run over (g1, g2, a1, a2); F's over (g1, a1, g2, a2)
    f = np.kron(kt, np.eye(4)).reshape([2] * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    space = Space("L", 4, (0, 1, 0, 1))
    return bm.MultUnitary(space, LegOperator(LegSignature((space, space), (space, space)),
                                             f.reshape(16, 16)), bm.PhaseBraiding(2))


def gauge_conjugate(m, seed):
    """(u (x) u) F (u (x) u)* for a random unitary u: a dense F, still a braided
    multiplicative unitary under the flip."""
    uu = np.kron(*[random_unitary(m.space.dim, seed)] * 2)
    return bm.MultUnitary(m.space, LegOperator(m.op.signature, uu @ m.matrix @ uu.conj().T),
                          m.braiding)


def walked_extensions(m, variant):
    """The two extensions of the coassociativity check and the folds of its
    comultiplied basis elements; variant "right" is the "op" check of the
    180-degree turn, as coassociativity_residual runs it."""
    from braidmu import multunitary

    if variant == "right":
        m, variant = multunitary._rotated(m), "op"
    alg, cp_variant, conj = multunitary._bialgebra_data(m, variant)
    cp = spans.CrossedProduct(alg, alg, m.braiding, cp_variant)
    folds = np.stack([cp.decompose(bm.comultiply(m, a, variant), 1e-9) for a in alg.basis])
    return [spans.CrossedProductExtension(cp, f, g) for f, g in ((conj, None), (None, conj))], folds


def blocked_walk_only(monkeypatch):
    """Send every coassociativity walk down the blocked walk, the entry
    walk's oracle: no extension's operands read as entries, as for a dense F."""
    monkeypatch.setattr(spans.CrossedProductExtension, "_pad_entries", lambda *args: None)


def dense_coassociativity_residual(m, variant="op", tol=1e-9):
    """coassociativity_residual element by element, on the dense extension,
    with variant "right" on its own "bt" crossed product, unturned."""
    from braidmu import multunitary

    alg, cp_variant, conj = multunitary._bialgebra_data(m, variant)
    cp = spans.CrossedProduct(alg, alg, m.braiding, cp_variant)
    exts = [DenseCrossedProductExtension(cp, f, g) for f, g in ((conj, None), (None, conj))]
    worst = 0.0
    for a in alg.basis:
        folds = oracle_folds(cp, bm.comultiply(m, a, variant), tol)
        left, right = (ext.apply(folds, tol) for ext in exts)
        worst = max(worst, float(np.linalg.norm(left.matrix - right.matrix)))
    return worst


def reference_matrix_tree(m):
    """A matrix as nested ``[re, im]`` lists of Python floats, which
    ``_canonical_json`` writes one float node at a time: the per-float
    writer that the one-pass matrix writer replaces, kept as its oracle."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


# the characters a JSON number is written with, deleted from a matrix text
_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.eE")


def split_matrix_of_text(text):
    """examples_io._matrix_of_text as it was first written, on strings: the
    skeleton checked by str.translate, the entries split off at every
    bracket and comma, each distinct spelling checked and converted once,
    and the array filled by lookup.  Every entry, 0.0 too, is a string.  The
    oracle of the reader that finds the entries by byte position."""
    from braidmu.examples_io import _NUMBER, _int_float

    skeleton = text.translate(_NUMBER_CHARS)
    cols = skeleton.find("]]") // 4
    rows = (len(skeleton) - 1) // (4 * cols + 2) if cols > 0 else 0
    row = "[" + ",".join(["[,]"] * cols) + "]"
    if (rows < 1 or skeleton != "[" + ",".join([row] * rows) + "]"
            or not (text.startswith("[[[") and text.endswith("]]]"))):
        return None
    entries = text[3:-3].replace("]],[[", ",").replace("],[", ",").split(",")
    distinct = dict.fromkeys(entries)
    values = np.empty(len(distinct))
    for k, entry in enumerate(distinct):
        number = _NUMBER.fullmatch(entry)
        if number is None:
            return None
        try:
            values[k] = (float(entry) if number.group(1) or number.group(2)
                         else _int_float(int(entry)))
        except ValueError:
            return None
        distinct[entry] = k
    at = np.fromiter(map(distinct.__getitem__, entries), dtype=np.intp, count=len(entries))
    return values[at].view(complex).reshape(rows, cols)


def dense_extract_distant(y, context, positions, route="over", braiding=None):
    """tensor.extract_distant the dense way, as it was first written: y (an
    operator on the whole context) conjugated back along the route as one
    matrix, partial-traced by einsum, and the residual the norm of y minus
    the routed fit formed whole."""
    from braidmu.tensor import PlannedWord, _route_crossings, _routed, leg_product

    i, k = positions
    context = tuple(context)
    a, b = context[i - 1], context[k - 1]
    yp = y.matrix
    routed = k > i + 1
    if routed:
        # apply_distant(z) = Q* E(z) Q with the same unitary Q for every z, so
        # the least-squares problem is a partial trace of Q y Q* = Q (Q y*)*
        move, back = _route_crossings(context, positions, (a, b), route, braiding)
        word = PlannedWord(move, context)
        yp = word.run(word.run(yp).conj().T).conj().T
    d_left = total_dim(context[:i - 1] + context[i:k - 1])
    d_mid = a.dim * b.dim
    d_right = total_dim(context[k:])
    t = yp.reshape(d_left, d_mid, d_right, d_left, d_mid, d_right)
    z = np.einsum("aibajb->ij", t) / (d_left * d_right)
    zop = LegOperator(LegSignature((a, b), (a, b)), z)
    fit = leg_product(_routed(zop, k, move, back) if routed else [(zop, i)], context)
    return zop, float(np.linalg.norm(y.matrix - fit.matrix))


def kac_takesaki_text(group):
    """The bundle text that ``braidmu generate kac-takesaki`` writes for the group."""
    mu = bm.kac_takesaki(group)
    bundle = bm.Bundle(spaces={mu.space.id: mu.space}, operators={"W": mu.op})
    bundle.groups[group.name] = group
    return bm.bundle_to_json(bundle)


def super_kac_takesaki_text(shift=0):
    """The bundle text of KT(Z2) on L = C^2 graded (0, 1 + shift) under the
    super braiding (phase, modulus 2), a braided multiplicative unitary
    there; an even shift changes no phase."""
    space = Space("L", 2, (0, 1 + shift))
    w = LegOperator(LegSignature((space, space), (space, space)),
                    bm.kac_takesaki(bm.cyclic(2)).matrix)
    bundle = bm.Bundle(spaces={"L": space}, operators={"W": w})
    bundle.braiding_kind, bundle.braiding_modulus = "phase", 2
    return bm.bundle_to_json(bundle)


# what a bundle's text must survive: numbers outside the JSON grammar or the
# float range, the literals, a NUL raw and escaped, whitespace and JSON's own
# punctuation
MUTATION_TOKENS = ("nan", "inf", "+1", "1.", ".5", "01", "-0", "1e400", "1" + "0" * 400,
                   "true", "\\u0000", "\x00", " ", "\n", "\t", ",", "[", "]", "{", "}", '"',
                   ":", "0", "1", "-", ".", "e", "")


def matrix_spans(text):
    """The (start, stop) spans of the ``"matrix":`` values of a bundle text
    in the writer's form."""
    spans, i = [], text.find('"matrix":')
    while i >= 0:
        start = i + len('"matrix":')
        spans.append((start, text.index("]]]", start) + 3))
        i = text.find('"matrix":', spans[-1][1])
    return spans


@st.composite
def mutated_texts(draw, text):
    """The text after one to three edits, each in a matrix span or anywhere:
    up to three characters deleted, and a token of MUTATION_TOKENS inserted
    in their place."""
    spans = matrix_spans(text)
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = draw(st.sampled_from(spans)) if draw(st.booleans()) else (0, len(text))
        at = draw(st.integers(lo, hi))
        text = (text[:at] + draw(st.sampled_from(MUTATION_TOKENS))
                + text[at + draw(st.integers(0, 3)):])
    return text


# the two inputs of a KT Z2 text that were OverflowError tracebacks: a matrix
# entry that is a 401-digit integer, and a phase modulus of 401 digits
HUGE_ENTRY_TEXT = kac_takesaki_text(bm.cyclic(2)).replace("[[[1.0,", "[[[1" + "0" * 400 + ",", 1)
HUGE_MODULUS_TEXT = kac_takesaki_text(bm.cyclic(2)).replace(
    '{"kind":"flip"}', '{"kind":"phase","modulus":1' + "0" * 400 + "}")
# a super bundle whose odd degree is 10**400 + 1, once an OverflowError
# traceback in the phase braiding's exponent
HUGE_DEGREE_TEXT = super_kac_takesaki_text(10 ** 400)
