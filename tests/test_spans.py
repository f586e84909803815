import itertools
import tracemalloc

import numpy as np
import pytest

import braidmu as bm
from braidmu import spans
from braidmu import LegOperator, LegSignature, Space
from braidmu.tensor import adjoint, tensor, total_dim

from braidmu import multunitary
from conftest import (DenseCrossedProductExtension, blocked_walk_only, dense_braid_tensor,
                      dense_coassociativity_residual, gauge_conjugate, graded_kac_takesaki,
                      greedy_selection, independent_columns, loop_subset_residual,
                      oracle_folds, random_unitary, turned, walked_extensions)

L2 = Space("L", 2)


def leg_op(matrix, dom, cod=None):
    return LegOperator(LegSignature(tuple(dom), tuple(cod or dom)), matrix)


def enumerate_right_slices(x):
    """Slice oracle: loop over all bra/ket basis pairs by hand."""
    (d1, d2), (c1, c2) = x.domain, x.codomain
    out = []
    for b in range(c2.dim):
        for s in range(d2.dim):
            m = np.zeros((c1.dim, d1.dim), dtype=complex)
            for a in range(c1.dim):
                for r in range(d1.dim):
                    m[a, r] = x.matrix[a * c2.dim + b, r * d2.dim + s]
            out.append(leg_op(m, [d1], [c1]))
    return out


def test_right_slices_of_z2_are_the_diagonal_algebra(z2):
    span = spans.span_from_slices(z2.op, "right")
    assert span.rank == 2
    for sl in enumerate_right_slices(z2.op):
        assert spans.contains(span, sl, 1e-10)
    # diagonal matrix units are in, the off-diagonal ones are not
    assert spans.contains(span, leg_op(np.diag([1.0, 0.0]), [L2]), 1e-10)
    assert not spans.contains(span, leg_op(np.array([[0, 1], [0, 0]], dtype=complex),
                                           [L2]), 1e-6)


def test_left_slices_of_z2_span_identity_and_shift(z2):
    span = spans.span_from_slices(z2.op, "left")
    assert span.rank == 2
    shift = np.array([[0, 1], [1, 0]], dtype=complex)
    assert spans.contains(span, leg_op(np.eye(2), [L2]), 1e-10)
    assert spans.contains(span, leg_op(shift, [L2]), 1e-10)


def test_right_slices_of_the_flip_are_everything():
    flip = bm.FlipBraiding().braid(L2, L2)
    span = spans.span_from_slices(flip, "right")
    assert span.rank == 4


def test_slice_span_is_basis_independent(z2):
    # recomputing the slices after a unitary change of basis on the sliced
    # leg spans the same space
    g = random_unitary(2, 4)
    gop = leg_op(g, [L2])
    conjugated = bm.compose(tensor(bm.identity((L2,)), bm.adjoint(gop)),
                            bm.compose(z2.op, tensor(bm.identity((L2,)), gop)))
    s1 = spans.span_from_slices(z2.op, "right")
    s2 = spans.span_from_slices(conjugated, "right")
    assert spans.projector_distance(s1, s2) < 1e-9


def test_equals_and_contains_basics(z2):
    s = spans.span_from_slices(z2.op, "right")
    assert spans.equals(s, s)
    full = spans.span_of([leg_op(m, [L2]) for m in
                          (np.eye(2), np.diag([1.0, -1.0]),
                           np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]]))])
    assert not spans.equals(s, full)
    assert spans.equals(spans.span_from_slices(
        bm.compose(bm.FlipBraiding().braid(L2, L2), z2.op), "right"), full, 1e-9)


def test_signature_mismatches_are_rejected(z2):
    s = spans.span_from_slices(z2.op, "right")
    other = spans.span_from_slices(z2.op, "left")
    wrong = bm.identity((Space("M", 3),))
    with pytest.raises(bm.LegError):
        spans.contains(s, wrong)
    mixed = spans.OperatorSpan((Space("M", 3),), (Space("M", 3),), ())
    with pytest.raises(bm.LegError):
        spans.projector_distance(s, mixed)
    # same signature, different spans: distance 1 on rank mismatch
    sub = spans.span_of([s.basis[0]])
    assert spans.projector_distance(s, sub) == 1.0
    # equal ranks but different subspaces compare cleanly as unequal
    assert not spans.equals(s, other)


def test_gram_residual_of_produced_bases(z2, z3):
    for mu in (z2, z3):
        for side in ("right", "left"):
            assert spans.span_from_slices(mu.op, side).gram_residual() < 1e-10


def test_adjoint_span_of_a_star_closed_span_is_itself(z2):
    c = spans.span_from_slices(bm.compose(bm.FlipBraiding().braid(L2, L2), z2.op),
                               "right")
    assert spans.equals(spans.adjoint_span(c), c, 1e-9)


def test_algebra_star_nondegenerate_flags(z2):
    hat = spans.span_from_slices(z2.op, "right")
    assert spans.is_algebra(hat)
    assert spans.is_star_closed(hat)
    assert spans.is_nondegenerate(hat)
    nilpotent = spans.span_of([leg_op(np.array([[0, 1], [0, 0]], dtype=complex), [L2])])
    assert spans.is_algebra(nilpotent)          # products vanish
    assert not spans.is_star_closed(nilpotent)
    assert not spans.is_nondegenerate(nilpotent)  # range is one-dimensional
    empty = spans.OperatorSpan((L2,), (L2,), ())
    assert not spans.is_nondegenerate(empty)


def test_goodness_map_kernel_is_scalar_for_z2(z2):
    # build the defining linear map column by column and solve independently
    f = z2.op.matrix
    c = bm.FlipBraiding().braid(L2, L2).matrix
    cols = []
    for i, j in itertools.product(range(2), repeat=2):
        e = np.zeros((2, 2), dtype=complex)
        e[i, j] = 1
        cols.append((f @ np.kron(e, np.eye(2)) @ f.conj().T
                     - c @ np.kron(e, np.eye(2)) @ np.linalg.inv(c)).reshape(-1))
    t = np.array(cols).T
    kernel = spans.null_space(t)
    assert len(kernel) == spans.kernel_dimension(t) == 1
    # the kernel is the scalars: the identity's vector, up to a phase
    assert abs(abs(np.vdot(kernel[0], np.eye(2).reshape(-1))) - np.sqrt(2)) < 1e-9


def test_crossed_product_of_diagonals_under_flip(z2):
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.crossed_product(diag, diag, bm.FlipBraiding(), "hbt")
    assert cp.rank == 4
    expected = spans.span_of([tensor(a, b) for a in diag.basis for b in diag.basis])
    assert spans.equals(cp, expected, 1e-9)


def test_crossed_product_with_all_operators_is_the_tensor_product(z2):
    # the braided product against a full matrix algebra collapses to the
    # ordinary tensor product
    diag = spans.span_from_slices(z2.op, "right")
    units = [leg_op(m, [L2]) for m in (np.eye(2), np.diag([1.0, -1.0]),
                                       np.array([[0, 1], [0, 0]]),
                                       np.array([[0, 0], [1, 0]]))]
    full = spans.span_of(units)
    for variant in ("hbt", "habt", "bt"):
        cp = spans.crossed_product(diag, full, bm.FlipBraiding(), variant)
        expected = spans.span_of([tensor(a, b) for a in diag.basis
                                  for b in full.basis])
        assert spans.equals(cp, expected, 1e-9)


def test_crossed_product_collapse_in_a_braided_category():
    # against a full matrix algebra the braided products still collapse to
    # the plain tensor product, here with genuinely complex conjugators
    a = Space("A", 3, (0, 1, 2))
    b = Space("B", 3, (0, 1, 2))
    provider = bm.PhaseBraiding(3)
    diag = spans.span_of([leg_op(np.diag([1.0, 0, 0]), [a]),
                          leg_op(np.diag([0, 1.0, 0]), [a]),
                          leg_op(np.diag([0, 0, 1.0]), [a])])
    units = []
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1
            units.append(leg_op(e, [b]))
    full = spans.span_of(units)
    expected = spans.span_of([tensor(x, y) for x in diag.basis for y in full.basis])
    for variant in ("hbt", "habt", "bt"):
        cp = spans.crossed_product(diag, full, provider, variant)
        assert spans.equals(cp, expected, 1e-9)


def test_scalar_crossed_product_injects_second_factor(z2):
    scalars = spans.span_of([leg_op(np.eye(2), [L2])])
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.crossed_product(scalars, diag, bm.FlipBraiding(), "hbt")
    expected = spans.span_of([tensor(leg_op(np.eye(2), [L2]), b) for b in diag.basis])
    assert spans.equals(cp, expected, 1e-9)


def test_relative_multiplier_membership(z2):
    diag = spans.span_from_slices(z2.op, "right")
    hat_dual = spans.span_from_slices(bm.dual(z2).op, "right")
    cp = spans.crossed_product(diag, hat_dual, z2.braiding, "hbt")
    assert spans.is_relative_multiplier(cp, z2.op, 1e-9)
    ident = spans.span_of([leg_op(np.eye(2), [L2])])
    assert spans.is_relative_multiplier(ident, leg_op(np.eye(2), [L2]), 1e-9)
    rand = leg_op(random_unitary(2, 8), [L2])
    assert not spans.is_relative_multiplier(diag, rand, 1e-6)


def _values(ext, folds):
    """The forward and the reverse mapped value of one element, with its folded pads."""
    forward, reverse = ext.apply(folds[None], np.arange(total_dim(ext.target_domain)))[0][0]
    return forward, reverse


def _forward(ext, folds):
    """The mapped value of one element, once its two decompositions agree to 1e-9."""
    forward, reverse = _values(ext, folds)
    assert np.linalg.norm(reverse - forward) <= 1e-9 * max(np.linalg.norm(forward), 1.0)
    return forward


def test_extension_with_identity_conjugators_is_identity(z2):
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.CrossedProduct(diag, diag, bm.FlipBraiding(), "habt")
    x = cp.span.basis[1]
    ext = spans.CrossedProductExtension(cp, None, None)
    np.testing.assert_allclose(_forward(ext, cp.decompose(x, 1e-9)), x.matrix, atol=1e-10)


def test_extension_rejects_elements_outside_the_span(z2):
    diag = spans.span_from_slices(z2.op, "right")
    outside = leg_op(bm.FlipBraiding().braid(L2, L2).matrix, [L2, L2])
    cp = spans.CrossedProduct(diag, diag, bm.FlipBraiding(), "habt")
    with pytest.raises(spans.DecompositionError, match="outside the crossed product"):
        cp.decompose(outside, 1e-9)
    with pytest.raises(bm.LegError, match="signature"):
        cp.decompose(leg_op(np.eye(2), [L2]), 1e-9)


def test_extension_maps_each_decomposition_on_its_own(z2):
    # a reverse decomposition that disagrees with the forward one maps to its
    # own value: the caller compares the two
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.CrossedProduct(diag, diag, bm.FlipBraiding(), "habt")
    ext = spans.CrossedProductExtension(cp, None, None)
    x = cp.span.basis[1]
    folds = cp.decompose(x, 1e-9)
    for value in _values(ext, folds):
        np.testing.assert_allclose(value, x.matrix, atol=1e-10)
    folds[1] += folds[0]
    forward, reverse = _values(ext, folds)
    np.testing.assert_allclose(forward, x.matrix, atol=1e-10)
    np.testing.assert_allclose(reverse, 2 * x.matrix, atol=1e-10)


def _disagreeing_decompositions(monkeypatch, outside_at=None):
    """Every decomposition's reverse folded pads doubled, so that the two
    decompositions map to different values, and with ``outside_at`` every
    element from that index on refused as outside the crossed product."""
    decompose = spans.CrossedProduct.decompose
    seen = []

    def disagreeing(cp, x, tol):
        seen.append(x)
        if outside_at is not None and len(seen) > outside_at:
            raise spans.DecompositionError("element lies outside the crossed product (test)")
        folds = decompose(cp, x, tol)
        folds[1] += folds[0]
        return folds

    monkeypatch.setattr(spans.CrossedProduct, "decompose", disagreeing)
    return seen


@pytest.mark.parametrize("outside_at, message", [
    (None, "depends on the decomposition"),
    (1, "depends on the decomposition"),     # the first element already disagrees
    (0, "outside the crossed product"),      # no element was mapped
])
def test_coassociativity_raises_where_the_elementwise_check_raises(z3, monkeypatch,
                                                                   outside_at, message):
    seen = _disagreeing_decompositions(monkeypatch, outside_at)
    with pytest.raises(spans.DecompositionError, match=message):
        dense_coassociativity_residual(z3, "op")
    seen.clear()
    with pytest.raises(spans.DecompositionError, match=message):
        bm.coassociativity_residual(z3, "op")


def test_cstar_closure_ladder(z2, z3):
    # a closed span with S S* in S and S* S in S is star closed
    for mu in (z2, z3):
        c = bm.regularity_span(mu)
        assert spans._subset_residual(
            [bm.compose(a, bm.adjoint(b)) for a in c.basis for b in c.basis], c) < 1e-9
        assert spans._subset_residual(
            [bm.compose(bm.adjoint(a), b) for a in c.basis for b in c.basis], c) < 1e-9
        assert spans.is_star_closed(c, 1e-9)


def _oracle_injections(variant, provider, legs1, legs2):
    """crossed_injections with c^{-1} taken as np.linalg.inv of the recursive block
    braiding, so that the oracle shares no crossing list with the code under test."""
    id1, id2 = np.eye(total_dim(legs1)), np.eye(total_dim(legs2))
    if variant == "hbt":
        c = dense_braid_tensor(provider, legs2, legs1).matrix
        return (lambda a: c @ np.kron(id2, a) @ np.linalg.inv(c),
                lambda b: np.kron(id1, b))
    c = dense_braid_tensor(provider, legs1, legs2).matrix
    cinv = np.linalg.inv(c)
    if variant == "habt":
        return lambda a: cinv @ np.kron(id2, a) @ c, lambda b: np.kron(id1, b)
    return lambda a: np.kron(a, id2), lambda b: cinv @ np.kron(b, id1) @ c


def _z3_yd_table():
    omega = np.exp(2j * np.pi / 3)
    module, mu = bm.group_yd_module(bm.cyclic(3), [0, 1, 2],
                                    [np.diag(omega ** (g * np.arange(3))) for g in range(3)])
    return bm.yd_braiding_provider([module], mu, include_tensors=False), module.space


@pytest.mark.parametrize("kind", ["flip", "phase3", "yd"])
def test_crossed_injections_match_the_inverted_block_braiding(kind):
    if kind == "yd":
        provider, h = _z3_yd_table()
        k = h
    else:
        h, k = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
        provider = bm.FlipBraiding() if kind == "flip" else bm.PhaseBraiding(3)
    rng = np.random.default_rng(5)
    for legs1, legs2 in (((h, k), (k,)), ((h,), (k, h))):
        d1, d2 = total_dim(legs1), total_dim(legs2)
        a = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        b = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        for variant in ("hbt", "habt", "bt"):
            alpha, beta = spans.crossed_injections(variant, provider, legs1, legs2)
            oracle_alpha, oracle_beta = _oracle_injections(variant, provider, legs1, legs2)
            np.testing.assert_allclose(alpha(leg_op(a, legs1)).matrix, oracle_alpha(a),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(beta(leg_op(b, legs2)).matrix, oracle_beta(b),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", ["left", "right"])
def test_conjugation_matches_the_kron_transcription(side):
    # V an isometry (7 > 6) or a unitary onto one target leg, and a unitary
    # with no aux legs at all
    a, b = Space("A", 2), Space("B", 3)
    source, aux = (b,), (a,)
    legs = aux + source if side == "left" else source + aux
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for target, v in ((Space("T", 7), random_unitary(7, 12)[:, :6]),
                      (Space("U", 6), random_unitary(6, 13))):
        conj = spans.Conjugation(leg_op(v, legs, [target]), side)
        padded = np.kron(np.eye(2), x) if side == "left" else np.kron(x, np.eye(2))
        got = conj.apply(leg_op(x, source))
        assert got.signature == LegSignature((target,), (target,))
        np.testing.assert_allclose(got.matrix, v @ padded @ v.conj().T, rtol=0, atol=1e-12)
    v = random_unitary(3, 14)
    got = spans.Conjugation(leg_op(v, source), side).apply(leg_op(x, source))
    np.testing.assert_allclose(got.matrix, v @ x @ v.conj().T, rtol=0, atol=1e-12)


def _full_svd_null_space(t, cutoff=spans.RANK_CUTOFF, scale=None):
    """The dense null space: full SVD, kernel from the square vh."""
    t = np.asarray(t, dtype=complex)
    if t.size == 0 or not np.any(t):
        return np.eye(t.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(t, full_matrices=True)
    anchor = s[0] if scale is None else max(s[0], scale)
    return vh[spans.numerical_rank(s, anchor, cutoff):].conj()


def _low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
    right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
    return left @ right


@pytest.mark.parametrize("t, scale, kernel_dim", [
    (_low_rank(12, 5, 5, 1), None, 0),                    # tall, full column rank
    (_low_rank(12, 5, 3, 2), None, 2),                    # tall, rank-deficient
    (_low_rank(6, 6, 4, 3), None, 2),                     # square
    (_low_rank(3, 7, 3, 4), None, 4),                     # wide: more kernel than rows
    (_low_rank(2, 9, 1, 5), 1.0, 8),                      # wide, rank one
    (np.zeros((5, 4)), None, 4),                          # all zero
    (1e-13 * _low_rank(8, 4, 4, 6), 1.0, 4),              # noise only, unit anchor
], ids=["tall", "tall-deficient", "square", "wide", "wide-rank-one", "zero", "noise"])
def test_null_space_matches_the_full_svd(t, scale, kernel_dim):
    kernel = spans.null_space(t)
    oracle = _full_svd_null_space(t, scale=scale)
    assert kernel.shape == oracle.shape == (kernel_dim, t.shape[1])
    # the kernels agree as subspaces: compare their orthogonal projectors
    np.testing.assert_allclose(kernel.T @ kernel.conj(), oracle.T @ oracle.conj(),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(kernel @ kernel.conj().T, np.eye(kernel_dim), rtol=0, atol=1e-12)
    if scale is None:
        assert np.linalg.norm(t @ kernel.T) < 1e-12 * max(np.linalg.norm(t), 1.0)


def _turned_configuration(s1, s2, provider, f, g, elements):
    """The "habt" configuration whose extension is the 180-degree turn of
    the "bt" one: the spans swap sides turned, f and g likewise, each
    conjugation by the turn of V* on the other side, and the braiding
    becomes the table c'_{X,Y} = turn(c_{Y,X}^{-1}) on every leg involved."""
    legs = s1.domain + s2.domain
    for h in (f, g):
        legs += h.v.domain + h.v.codomain if h is not None else ()
    spaces = {space.id: space for space in legs}.values()
    table = bm.ExplicitBraiding()
    for x, y in itertools.product(spaces, repeat=2):
        table.register(turned(provider.braid_inverse(y, x)))

    def conj(h):
        if h is None:
            return None
        return spans.Conjugation(turned(adjoint(h.v)), "right" if h.side == "left" else "left")

    def span(s):
        return spans.span_of([turned(x) for x in s.basis])

    return span(s2), span(s1), table, conj(g), conj(f), [turned(x) for x in elements]


def _built(s1, s2, provider, variant, f, g, elements):
    """The extension (f x g) of a crossed product, the folds of ``elements``
    and a map that puts its streamed values on the product's legs.  A "bt"
    product, which spans decomposes and extends only as its 180-degree
    turn, is built as that "habt" product, whose values the map turns back."""
    if variant != "bt":
        cp = spans.CrossedProduct(s1, s2, provider, variant)
        folds = np.stack([cp.decompose(x, 1e-9) for x in elements])
        return spans.CrossedProductExtension(cp, f, g), folds, lambda y: y
    t1, t2, table, tf, tg, xs = _turned_configuration(s1, s2, provider, f, g, elements)
    ext, folds, _ = _built(t1, t2, table, "habt", tf, tg, xs)

    def back(y):
        legs = ext.target_domain
        flat = [turned(leg_op(x, legs)).matrix for x in y.reshape(-1, *y.shape[-2:])]
        return np.reshape(flat, y.shape)

    return ext, folds, back


def _mapped_product_extension(s1, s2, provider, variant, f, g, x):
    """(f x g)(x) with every generator mapped as a dense product inj1'(f a) inj2'(g b)."""
    alpha, beta = spans.crossed_injections(variant, provider, s1.domain, s2.domain)
    t1 = f.target if f is not None else s1.domain
    t2 = g.target if g is not None else s2.domain
    alpha2, beta2 = spans.crossed_injections(variant, provider, t1, t2)
    gens, mapped = [], []
    for a in s1.basis:
        for b in s2.basis:
            gens.append(bm.compose(alpha(a), beta(b)).matrix.reshape(-1))
            fa = f.apply(a) if f is not None else a
            gb = g.apply(b) if g is not None else b
            mapped.append(bm.compose(alpha2(fa), beta2(gb)).matrix)
    gens = np.array(gens).T
    # the test spans give independent generators, so the decomposition is unique
    assert np.linalg.matrix_rank(gens) == len(mapped)
    coeffs = np.linalg.lstsq(gens, x.matrix.reshape(-1), rcond=None)[0]
    return sum(c * m for c, m in zip(coeffs, mapped))


def _extend(s1, s2, provider, variant, f, g, x):
    """(f x g) of x on the crossed product of s1 and s2; a "bt" product by
    the extension of its 180-degree turn, turned back (:func:`_built`)."""
    ext, (folds,), back = _built(s1, s2, provider, variant, f, g, [x])
    legs = ext.target_domain if variant != "bt" else ext.target_domain[::-1]
    return leg_op(back(_forward(ext, folds)), legs)


def _random_span(legs, count, seed):
    rng = np.random.default_rng(seed)
    d = total_dim(legs)
    return spans.span_of([leg_op(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), legs)
                          for _ in range(count)])


def _oracle_configuration(kind, variant, f_on, g_on, count=1):
    """Spans on legs A and B, the maps f and g, and ``count`` random elements of
    their crossed product."""
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    c, t = Space("C", 2, (0, 2)), Space("T", 4, (0, 1, 2, 0))
    provider = bm.FlipBraiding() if kind == "flip" else bm.PhaseBraiding(3)
    s1, s2 = _random_span((a,), 2, 31), _random_span((b,), 2, 32)
    # f changes the space: (C, A) onto a single leg T; g keeps B and adds C on the right
    f = spans.Conjugation(leg_op(random_unitary(4, 33), [c, a], [t]), "left") if f_on else None
    g = spans.Conjugation(leg_op(random_unitary(6, 34), [b, c]), "right") if g_on else None
    alpha, beta = spans.crossed_injections(variant, provider, s1.domain, s2.domain)
    rng = np.random.default_rng(35)
    elements = [leg_op(sum(complex(*rng.normal(size=2)) * bm.compose(alpha(p), beta(q)).matrix
                           for p in s1.basis for q in s2.basis), [a, b])
                for _ in range(count)]
    return s1, s2, provider, f, g, elements, (a, b, c, t)


@pytest.mark.parametrize("kind", ["flip", "phase3"])
@pytest.mark.parametrize("variant", ["hbt", "habt", "bt"])
@pytest.mark.parametrize("f_on", [False, True])
@pytest.mark.parametrize("g_on", [False, True])
def test_extension_matches_the_mapped_product_oracle(kind, variant, f_on, g_on):
    s1, s2, provider, f, g, (x,), (a, b, c, t) = _oracle_configuration(kind, variant, f_on,
                                                                         g_on)
    value = _extend(s1, s2, provider, variant, f, g, x)
    expected = _mapped_product_extension(s1, s2, provider, variant, f, g, x)
    assert value.domain == value.codomain == (t if f_on else a,) + ((b, c) if g_on else (b,))
    np.testing.assert_allclose(value.matrix, expected, rtol=0, atol=1e-12)


# target lines per block: one, a prime count that splits the target mid-matrix,
# and more than the whole target
BLOCKS = {"one-line": 1, "seven-lines": 7, "whole": 10 ** 6}


def _streamed(ext, folds, lines):
    """apply over consecutive blocks of target lines, joined: (elements, 2, dim, dim)."""
    dim = total_dim(ext.target_domain)
    blocks = [ext.apply(folds, np.arange(lo, min(lo + lines, dim)))[0]
              for lo in range(0, dim, lines)]
    return np.concatenate(blocks, axis=2)


def _assert_streams_like_the_dense_block(s1, s2, provider, variant, f, g, elements, lines):
    # the dense block extends a "bt" product unturned
    ext, folds, back = _built(s1, s2, provider, variant, f, g, elements)
    got = back(_streamed(ext, folds, lines))
    assert got.shape[:2] == (len(elements), 2)
    cp = spans.CrossedProduct(s1, s2, provider, variant)
    dense = DenseCrossedProductExtension(cp, f, g)
    for value, x in zip(got, elements):
        for half, expected in zip(value, dense.values(oracle_folds(cp, x))):
            np.testing.assert_allclose(half, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["hbt", "habt", "bt"])
@pytest.mark.parametrize("maps", ["fg", "none"])
def test_extension_blocks_place_no_step(monkeypatch, variant, maps):
    """The extension places its crossings once, when it is built: applying it
    a line at a time over every block places no step."""
    import braidmu.tensor as tensor_module
    s1, s2, provider, f, g, elements, _ = _oracle_configuration("phase3", variant, "f" in maps,
                                                                "g" in maps, count=2)
    ext, folds, _ = _built(s1, s2, provider, variant, f, g, elements)
    placed, real = [], tensor_module._placed
    monkeypatch.setattr(tensor_module, "_placed",
                        lambda *args: placed.append(args[0]) or real(*args))
    assert _streamed(ext, folds, 1).shape[:2] == (2, 2)
    assert placed == []


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", ["flip", "phase3"])
@pytest.mark.parametrize("variant", ["hbt", "habt", "bt"])
@pytest.mark.parametrize("maps", ["f", "g", "fg", "none"])
def test_streamed_extension_matches_the_dense_block(kind, variant, maps, block):
    s1, s2, provider, f, g, elements, _ = _oracle_configuration(kind, variant, "f" in maps,
                                                                "g" in maps, count=3)
    _assert_streams_like_the_dense_block(s1, s2, provider, variant, f, g, elements,
                                         BLOCKS[block])


def _checked(m, variant):
    """The unitary and variant whose extensions coassociativity_residual
    runs: variant "right" is the "op" check of the 180-degree turn."""
    return (multunitary._rotated(m), "op") if variant == "right" else (m, variant)


def _group_unitary(name):
    return bm.kac_takesaki(bm.symmetric(3) if name == "s3" else bm.cyclic(int(name[1:])))


GROUPS = ["z2", "z3", "z4", "z5", "z6", "s3"]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("group", GROUPS)
def test_streamed_extension_matches_the_dense_block_on_kac_takesaki(group, variant, block):
    # both extensions of the coassociativity check, on every comultiplied basis element
    m, variant = _checked(_group_unitary(group), variant)
    alg, cp_variant, conj = multunitary._bialgebra_data(m, variant)
    elements = [bm.comultiply(m, a, variant) for a in alg.basis]
    for f, g in ((conj, None), (None, conj)):
        _assert_streams_like_the_dense_block(alg, alg, m.braiding, cp_variant, f, g, elements,
                                             BLOCKS[block])


def _budget_lines(monkeypatch, lines):
    """A byte budget of ``lines`` target lines per block; returns the block
    lengths that coassociativity_residual walks."""
    lengths = []
    real = spans._extension_blocks

    def blocks(exts, count):
        per_line = sum(ext.line_bytes(count) for ext in exts)
        monkeypatch.setattr(spans, "_BLOCK_BYTES", lines * per_line if lines > 1 else 1)
        walked = real(exts, count)
        lengths.append([s.stop - s.start for s in walked])
        return walked

    monkeypatch.setattr(spans, "_extension_blocks", blocks)
    return lengths


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("group", GROUPS)
def test_coassociativity_streams_like_the_dense_extension(group, variant, block, monkeypatch):
    # the blocked walk, which KT's operands would skip by reading as entries
    blocked_walk_only(monkeypatch)
    m = _group_unitary(group)
    expected = dense_coassociativity_residual(m, variant)
    lengths = _budget_lines(monkeypatch, BLOCKS[block])
    got = bm.coassociativity_residual(m, variant)
    assert abs(got - expected) < 1e-13
    (walked,) = lengths
    assert sum(walked) == m.space.dim ** 3
    assert set(walked[:-1]) <= {BLOCKS[block]} and walked[-1] <= BLOCKS[block]


@pytest.mark.parametrize("block", BLOCKS)
def test_coassociativity_streams_like_the_dense_extension_off_the_theorem(z2, block,
                                                                         monkeypatch):
    # a random unitary has full spans and a large residual; the structured
    # corruption's elements leave the crossed product
    l = z2.space
    rand = bm.MultUnitary(l, leg_op(random_unitary(4, 9), [l, l]), bm.FlipBraiding())
    _budget_lines(monkeypatch, BLOCKS[block])
    for variant in ("op", "right"):
        expected = dense_coassociativity_residual(rand, variant)
        assert expected > 1e-3
        assert abs(bm.coassociativity_residual(rand, variant) - expected) <= 1e-12 * expected
    corrupt = bm.MultUnitary(l, leg_op(z2.matrix @ np.kron(random_unitary(2, 77), np.eye(2)),
                                       [l, l]), bm.FlipBraiding())
    for run in (dense_coassociativity_residual, bm.coassociativity_residual):
        with pytest.raises(spans.DecompositionError):
            run(corrupt, "op")


def _gemm_extension(monkeypatch, cp, f, g):
    """The extension of f x g on the GEMM path, as a dense braiding takes it."""
    with monkeypatch.context() as patch:
        patch.setattr(spans.CrossedProductExtension, "_compile_gather", lambda *args: False)
        return spans.CrossedProductExtension(cp, f, g)


def _explicit_bundle(m):
    """m with its braiding written out as an explicit table, read back from
    a bundle's text."""
    bundle = bm.Bundle()
    bundle.spaces["L"] = m.space
    bundle.braiding_kind = "explicit"
    bundle.braiding_pairs = [m.braiding.braid(m.space, m.space)]
    bundle.operators["W"] = m.op
    return bm.bundle_from_json(bm.bundle_to_json(bundle)).mult_unitary("W")


# the gathered path against the GEMM path: exact where F is a permutation and
# the crossings are flips, to 1e-13 relative for a dense F or phases; a
# braiding written out as an explicit monomial table is gathered too
GATHER_INPUTS = {**{group: (lambda group=group: _group_unitary(group), True) for group in GROUPS},
                 "gauge-s3": (lambda: gauge_conjugate(_group_unitary("s3"), 5), False),
                 "graded-z2": (graded_kac_takesaki, False),
                 "explicit-flip-z3": (lambda: _explicit_bundle(_group_unitary("z3")), True),
                 "explicit-flip-s3": (lambda: _explicit_bundle(_group_unitary("s3")), True),
                 "explicit-graded-z2": (lambda: _explicit_bundle(graded_kac_takesaki()), False)}


@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("name", GATHER_INPUTS)
def test_gathered_extension_matches_the_gemm_path(name, variant, monkeypatch):
    make, exact = GATHER_INPUTS[name]
    m = make()
    assert (m.braiding.kind == "explicit") == name.startswith("explicit")
    checked, checked_variant = _checked(m, variant)
    alg, cp_variant, conj = multunitary._bialgebra_data(checked, checked_variant)
    cp = spans.CrossedProduct(alg, alg, checked.braiding, cp_variant)
    folds = np.stack([cp.decompose(bm.comultiply(checked, a, checked_variant), 1e-9)
                      for a in alg.basis])
    for f, g in ((conj, None), (None, conj)):
        gathered, gemm = (spans.CrossedProductExtension(cp, f, g),
                          _gemm_extension(monkeypatch, cp, f, g))
        assert gathered._gathered and not gemm._gathered
        # the super braiding's phases are -1 to rounding, so they stay
        assert (gathered._phi is not None) == name.endswith("graded-z2")
        for lo in range(0, m.space.dim ** 3, 7):
            lines = np.arange(lo, min(lo + 7, m.space.dim ** 3))
            got, want = (ext.apply(folds, lines)[0] for ext in (gathered, gemm))
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        with pytest.raises(ValueError, match="consecutive"):
            gemm.apply(folds, np.array([0, 2]))
    expected = dense_coassociativity_residual(m, variant)
    assert abs(bm.coassociativity_residual(m, variant) - expected) < 1e-13


def test_the_graded_object_is_a_braided_multiplicative_unitary():
    m = graded_kac_takesaki()
    assert bm.pentagon_residual(m) == 0.0
    assert m.braiding.braid(m.space, m.space).gather.coefficients is not None


@pytest.mark.parametrize("kind", ["flip", "phase3"])
@pytest.mark.parametrize("variant", ["hbt", "habt", "bt"])
@pytest.mark.parametrize("maps", ["fg", "none"])
def test_crossings_apply_by_the_gather(monkeypatch, kind, variant, maps):
    """Flip and phase crossings compile into the gather: applying the
    extension runs no GEMM block and no word."""
    s1, s2, provider, f, g, elements, _ = _oracle_configuration(kind, variant, "f" in maps,
                                                                "g" in maps, count=2)
    ext, folds, _ = _built(s1, s2, provider, variant, f, g, elements)

    def forbidden(*args):
        raise AssertionError("the gather ran a GEMM block or a word")

    monkeypatch.setattr(spans.CrossedProductExtension, "_factor_lines", forbidden)
    for name in ("columns", "run"):
        monkeypatch.setattr(spans.PlannedWord, name, forbidden)
    assert _streamed(ext, folds, 1).shape[:2] == (2, 2)


@pytest.mark.parametrize("variant", ["op", "right"])
def test_a_walk_builds_each_image_row_once(monkeypatch, variant):
    # one line per block: the carrier of the pad-side conjugation builds each
    # row of R_k once on the blocked walk, handing a block's last row to the next
    blocked_walk_only(monkeypatch)
    exts, folds = walked_extensions(_group_unitary("z4"), variant)
    (carrier,) = [ext for ext in exts if ext._a is not None]
    built, real = [], np.tensordot
    monkeypatch.setattr(np, "tensordot", lambda a, *args, **kw: built.append(len(a)) or
                        real(a, *args, **kw))
    monkeypatch.setattr(spans, "_BLOCK_BYTES", 1)
    spans.compare_extensions(*exts, folds)
    assert sum(built) == carrier._image


def _forbidden(*args, **kwargs):
    raise AssertionError("a walk ran that this object does not take")


@pytest.mark.parametrize("group", ["z4", "z8"])
def test_monomial_coassociativity_walks_on_entries(group, monkeypatch):
    # KT's operands read as entries: the check passes with every step of the
    # blocked walk forbidden, and its walk peaks below one block
    m = _group_unitary(group)
    for name in ("_gather_apply", "_pad_rows", "_factor_lines"):
        monkeypatch.setattr(spans.CrossedProductExtension, name, _forbidden)
    for variant in ("op", "right"):
        assert bm.coassociativity_residual(m, variant) < 1e-12
    exts, folds = walked_extensions(m, "op")
    tracemalloc.start()
    try:
        spans.compare_extensions(*exts, folds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spans._BLOCK_BYTES


# objects whose operands do not read as entries, and the step of the walk
# they keep: a dense F's pad-side isometry has full columns, so its gathered
# extensions take the blocked walk; a dense table, and the identity
# control's, whose image rows depend on the factor row, take the GEMM path
KEPT_WALKS = {"gauge-z4": (lambda: gauge_conjugate(_group_unitary("z4"), 5), "_gather_apply"),
              "gauge-s3": (lambda: gauge_conjugate(_group_unitary("s3"), 5), "_gather_apply"),
              "dense-graded": (lambda: _dense_graded(), "_factor_lines"),
              "identity-2": (lambda: bm.identity_control(2), "_factor_lines"),
              "identity-3": (lambda: bm.identity_control(3), "_factor_lines")}


@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("name", KEPT_WALKS)
def test_dense_and_ungathered_extensions_keep_their_walks(name, variant, monkeypatch):
    make, step = KEPT_WALKS[name]
    ran, real = [], getattr(spans.CrossedProductExtension, step)
    monkeypatch.setattr(spans, "_entry_walk", _forbidden)
    monkeypatch.setattr(spans.CrossedProductExtension, step,
                        lambda ext, *args: ran.append(ext) or real(ext, *args))
    assert bm.coassociativity_residual(make(), variant) < 1e-10
    assert len(set(map(id, ran))) == 2


@pytest.mark.parametrize("name", ["z4", "s3", "graded"])
def test_entry_blocks_hold_whole_lines_within_the_budget(name, monkeypatch):
    # the counts of entries and products per line are those the join forms,
    # and blocks of one line, or of several within a smaller budget, give the
    # whole walk's norms bit for bit
    m = graded_kac_takesaki() if name == "graded" else _group_unitary(name)
    exts, folds = walked_extensions(m, "op")
    pads = [ext._pad_entries(folds) for ext in exts]
    products = 0
    for ext, (keys, *_) in zip(exts, pads):
        line, _, key, _ = ext._line_entries(np.arange(ext._dim))
        formed = np.bincount(line, np.bincount(keys, minlength=ext._image * ext._rc)[key] + 1,
                             ext._dim)
        assert np.array_equal(ext._line_products(keys), formed)
        products = products + formed
    assert spans._entry_blocks(products) == [(0, len(products))]
    whole = spans.compare_extensions(*exts, folds)
    for lines in (1, 7):
        budget = 16 * 12 * int(np.sort(products)[-lines:].sum())
        monkeypatch.setattr(spans, "_BLOCK_BYTES", budget if lines > 1 else 1)
        blocks = spans._entry_blocks(products)
        assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == len(products) and len(blocks) > 1
        assert all(hi - lo == 1 or products[lo:hi].sum() <= budget // (16 * 12)
                   for lo, hi in blocks)
        assert np.array_equal(spans.compare_extensions(*exts, folds), whole)


@pytest.mark.parametrize("variant", ["op", "right"])
def test_walks_over_other_folds_share_no_row(monkeypatch, variant):
    # the same extensions walk the elements, then the elements in reverse
    # order, one line per block: each walk matches the dense check, so no
    # row of R_k is carried from one walk into the next
    space = Space("L", 3)
    m = bm.MultUnitary(space, leg_op(random_unitary(9, 13), [space, space]), bm.FlipBraiding())
    exts, folds = walked_extensions(m, variant)
    assert all(ext._gathered for ext in exts) and any(ext._a is not None for ext in exts)
    expected = dense_coassociativity_residual(m, variant)
    assert expected > 1e-3
    monkeypatch.setattr(spans, "_BLOCK_BYTES", 1)
    for walked in (folds, folds[::-1].copy()):
        residual = np.sqrt(spans.compare_extensions(*exts, walked)[4]).max()
        assert abs(residual - expected) <= 1e-12 * expected


def _dense_graded():
    """The graded object with F and its phase braiding c alike conjugated by
    u (x) u, for a unitary u that mixes degrees: a dense explicit table."""
    m = graded_kac_takesaki()
    uu = np.kron(*[random_unitary(m.space.dim, 3)] * 2)
    c = m.braiding.braid(m.space, m.space)
    table = bm.ExplicitBraiding()
    table.register(LegOperator(c.signature, uu @ c.matrix @ uu.conj().T))
    assert table.braid(m.space, m.space).gather is None
    return bm.MultUnitary(m.space, LegOperator(m.op.signature, uu @ m.matrix @ uu.conj().T),
                          table)


@pytest.mark.parametrize("make", [lambda: bm.identity_control(2), _dense_graded],
                         ids=["identity-control", "dense-graded"])
@pytest.mark.parametrize("variant", ["op", "right"])
def test_explicit_tables_apply_by_gemm(monkeypatch, make, variant):
    """The identity control's table is a monomial, but a line's image row
    would depend on the factor row, so the gather is refused; a dense table
    has no gather at all.  Both extensions run GEMM blocks."""
    m = make()
    built, blocks = [], []
    real_init, real_lines = (spans.CrossedProductExtension.__init__,
                             spans.CrossedProductExtension._factor_lines)
    monkeypatch.setattr(spans.CrossedProductExtension, "__init__",
                        lambda ext, *args: built.append(ext) or real_init(ext, *args))
    monkeypatch.setattr(spans.CrossedProductExtension, "_factor_lines",
                        lambda ext, *args: blocks.append(ext) or real_lines(ext, *args))
    residual = bm.coassociativity_residual(m, variant)
    assert len(built) == 2 and not any(ext._gathered for ext in built)
    assert set(map(id, blocks)) == set(map(id, built))
    if m.braiding.braid(m.space, m.space).gather is None:
        # the same object in another basis: conjugating F and c by u (x) u
        # rounds their entries at about 1e-15, and the residual, 1e-15 for
        # the graded object, moves by a few 1e-15 at most (6e-15 read)
        graded = bm.coassociativity_residual(graded_kac_takesaki(), variant)
        assert abs(residual - graded) < 1e-13


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_qr_selection_keeps_the_greedy_gram_schmidt_columns(reverse):
    b = _complex_normal(np.random.default_rng(41), 40, 6).T
    v = np.array([b[0], np.zeros(40), b[1], b[0], 2.5j * b[1], b[2],
                  b[0] + b[2] + 1e-3 * b[3],         # dependent at 1e-3: kept
                  b[1] - b[2] + 1e-13 * b[4],        # dependent at 1e-13: dropped
                  b[4],
                  # dependent at 1e-10, just under the cutoff: dropped, yet its
                  # residual direction, b[5]'s, enters the QR before the next column
                  b[0] - b[2] + 1e-10 * b[5],
                  1e-12 * b[5]]).T                   # tiny but independent: kept
    if reverse:
        v = v[:, ::-1]
    # the columns of v are generators of one component: one whole block
    (selected, keep), _ = spans._selections(v.T)
    ((cols, kept, _, q, r),) = selected.batches
    assert list(cols[0]) == list(range(40)) and not selected.outside.any()
    assert list(keep) == list(kept[0]) == greedy_selection(v, spans.RANK_CUTOFF)
    assert list(keep) == ([0, 1, 2, 3, 4, 5] if reverse else [0, 2, 5, 6, 8, 10])
    np.testing.assert_allclose(q[0] @ r[0], v[:, keep], rtol=0, atol=1e-12)
    np.testing.assert_allclose(q[0].conj().T @ q[0], np.eye(len(keep)), rtol=0, atol=1e-12)


def test_qr_selection_reuses_the_qr_when_every_column_is_kept():
    v = _complex_normal(np.random.default_rng(42), 30, 6)
    (selected, keep), _ = spans._selections(v.T)
    ((_, _, _, q, r),) = selected.batches
    assert list(keep) == list(range(6))
    q0, r0 = np.linalg.qr(v)
    assert np.array_equal(q[0], q0) and np.array_equal(r[0], r0)


@pytest.mark.parametrize("group", ["z3", "s3"])
@pytest.mark.parametrize("variant", ["op", "right"])
def test_extension_selects_the_greedy_generators(group, variant, request):
    m = request.getfixturevalue(group)
    alg, cp_variant, _ = multunitary._bialgebra_data(m, variant)
    alpha, beta = spans.crossed_injections(cp_variant, m.braiding, alg.domain, alg.domain)
    gens = np.array([bm.compose(alpha(a), beta(b)).matrix.reshape(-1)
                     for a in alg.basis for b in alg.basis]).T
    backwards = np.arange(gens.shape[1])[::-1]
    cp = spans.CrossedProduct(alg, alg, m.braiding, cp_variant)
    forward, reverse = (picked for *_, picked in cp.decompositions)
    assert list(forward) == greedy_selection(gens, spans.RANK_CUTOFF)
    assert list(reverse) == list(backwards[greedy_selection(gens[:, backwards],
                                                            spans.RANK_CUTOFF)])


def _wide_svd_row_span(rows, cutoff=spans.RANK_CUTOFF):
    """The row span from the SVD of the rows as given, whatever their orientation."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:spans.numerical_rank(s, s[0], cutoff)]


def _wide_svd_projector_distance(b1, b2):
    r12 = b1 - (b1 @ b2.conj().T) @ b2
    r21 = b2 - (b2 @ b1.conj().T) @ b1
    return max(np.linalg.svd(r12, compute_uv=False)[0], np.linalg.svd(r21, compute_uv=False)[0])


@pytest.mark.parametrize("legs, count, rank", [
    ((Space("A", 5), Space("B", 8)), 6, 6),       # wide
    ((Space("A", 5), Space("B", 8)), 8, 3),       # wide, rank-deficient
    ((Space("A", 2), Space("B", 3)), 40, 6),      # tall
    ((Space("A", 2), Space("B", 3)), 40, 2),      # tall, rank-deficient
    ((Space("A", 3), Space("B", 3)), 9, 5),       # square, rank-deficient
], ids=["wide", "wide-deficient", "tall", "tall-deficient", "square"])
def test_row_span_and_distance_match_the_wide_svd_oracle(legs, count, rank):
    (dom, cod), rng = legs, np.random.default_rng(43)
    ambient = dom.dim * cod.dim
    rows = _complex_normal(rng, count, rank) @ _complex_normal(rng, rank, ambient)
    span = spans._row_span(rows, (dom,), (cod,))
    oracle = _wide_svd_row_span(rows)
    got = span.stack()
    assert span.rank == len(oracle) == rank
    np.testing.assert_allclose(got.T @ got.conj(), oracle.T @ oracle.conj(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got @ got.conj().T, np.eye(rank), rtol=0, atol=1e-12)
    # a span 1e-6 away and an unrelated one of the same rank
    for shift in (1e-6, 1.0):
        moved = rows + shift * _complex_normal(rng, count, ambient)
        other = spans._row_span(_wide_svd_row_span(moved)[:rank], (dom,), (cod,))
        assert abs(spans.projector_distance(span, other)
                   - _wide_svd_projector_distance(oracle, other.stack())) < 1e-12


def test_subset_residual_matches_the_per_candidate_loop():
    a = Space("A", 4)
    rng = np.random.default_rng(44)
    span = _random_span((a,), 5, 45)
    members = [leg_op(sum(complex(*rng.normal(size=2)) * x.matrix for x in span.basis), [a])
               for _ in range(3)]
    others = [leg_op(_complex_normal(rng, 4, 4), [a]) for _ in range(2)]
    zeros = [leg_op(np.zeros((4, 4)), [a]), leg_op(1e-12 * _complex_normal(rng, 4, 4), [a])]
    for candidates in (members, members + zeros, others + zeros + members, zeros, [zeros[1]],
                       []):
        got = spans._subset_residual(candidates, span)
        expected = loop_subset_residual(candidates, span)
        assert abs(got - expected) <= 1e-15 * max(expected, 1.0)
    assert spans._subset_residual(members + zeros, span) < 1e-14
    assert spans._subset_residual(others + members, span) > 0.1


def _conjugation_onto(source, side, isometry, seed):
    """A Conjugation of a one-leg span with one aux leg C, onto a new target leg:
    an isometry into one more dimension, or a unitary."""
    aux = Space("C", 2, (0, 2))
    legs = [aux, source] if side == "left" else [source, aux]
    d = 2 * source.dim
    width = d + 1 if isometry else d
    target = Space(f"T{seed}", width, tuple(j % 3 for j in range(width)))
    return spans.Conjugation(leg_op(random_unitary(width, seed)[:, :d], legs, [target]), side)


@pytest.mark.parametrize("kind", ["flip", "phase3"])
@pytest.mark.parametrize("variant", ["hbt", "habt", "bt"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("isometry", [False, True], ids=["unitary", "isometry"])
def test_extension_pulls_out_the_pad_side_conjugation(kind, variant, side, isometry):
    # f and g both map, so the padded factor (b for hbt/habt, a for bt) is
    # conjugated on the given side, by a square or a space-changing V
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    provider = bm.FlipBraiding() if kind == "flip" else bm.PhaseBraiding(3)
    s1, s2 = _random_span((a,), 2, 51), _random_span((b,), 3, 52)
    f = _conjugation_onto(a, side, isometry, 53)
    g = _conjugation_onto(b, side, isometry, 54)
    alpha, beta = spans.crossed_injections(variant, provider, s1.domain, s2.domain)
    rng = np.random.default_rng(55)
    x = leg_op(sum(complex(*rng.normal(size=2)) * bm.compose(alpha(p), beta(q)).matrix
                   for p in s1.basis for q in s2.basis), [a, b])
    for maps in ((f, g), (None, g), (f, None)):
        value = _extend(s1, s2, provider, variant, *maps, x)
        expected = _mapped_product_extension(s1, s2, provider, variant, *maps, x)
        np.testing.assert_allclose(value.matrix, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["op", "right"])
def test_extension_matches_the_oracle_on_the_certified_configuration(z3, variant):
    # coassociativity extends the crossed product by the comultiplication's
    # conjugation on either factor: F* on the left, for "op" and for the
    # "op" check of the turned unitary that "right" runs
    m, variant = _checked(z3, variant)
    alg, cp_variant, conj = multunitary._bialgebra_data(m, variant)
    cp = spans.CrossedProduct(alg, alg, m.braiding, cp_variant)
    for f, g in ((conj, None), (None, conj)):
        ext = spans.CrossedProductExtension(cp, f, g)
        for a in alg.basis:
            d = bm.comultiply(m, a, variant)
            expected = _mapped_product_extension(alg, alg, m.braiding, cp_variant, f, g, d)
            np.testing.assert_allclose(_forward(ext, cp.decompose(d, 1e-9)), expected,
                                       rtol=0, atol=1e-12)


def test_extension_rejects_a_conjugation_that_does_not_hold_the_pad():
    a, b = Space("A", 2), Space("B", 3)
    s1, s2 = _random_span((a,), 2, 56), _random_span((b,), 2, 57)
    g = _conjugation_onto(a, "left", False, 58)     # holds A, but pads B
    with pytest.raises(bm.LegError, match="padding legs"):
        spans.CrossedProductExtension(spans.CrossedProduct(s1, s2, bm.FlipBraiding(), "habt"),
                                      None, g)


def test_a_bt_product_is_neither_decomposed_nor_extended():
    # a "bt" product keeps its images, generators and span, which the
    # right-variant Podles and multiplier checks read; it is decomposed and
    # extended only as its 180-degree turn, so both refuse, and not with a
    # DecompositionError, which a certificate would record as a failed check
    s1, s2, provider, f, g, (x,), _ = _oracle_configuration("phase3", "bt", True, True)
    cp = spans.CrossedProduct(s1, s2, provider, "bt")
    assert [len(images) for images in cp.images] == [2, 2] and cp.gens.shape == (4, 36)
    assert cp.span.rank == 4 and spans.contains(cp.span, x)
    with pytest.raises(ValueError, match="turn it by 180 degrees") as refused:
        cp.decompose(x, 1e-9)
    assert type(refused.value) is ValueError
    for maps in ((f, g), (None, None)):
        with pytest.raises(ValueError, match="turn it by 180 degrees") as refused:
            spans.CrossedProductExtension(cp, *maps)
        assert type(refused.value) is ValueError


# ---------------------------------------------------------------- support split


def _whole_row_span(rows):
    """spans._row_span's rows as they were before the support split: one SVD
    of the whole stack, on its tall side."""
    if rows.shape[0] < rows.shape[1]:
        u, s, _ = np.linalg.svd(rows.conj().T, full_matrices=False)
        return u[:, :spans.numerical_rank(s, s[0])].conj().T
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:spans.numerical_rank(s, s[0])]


def _whole(span):
    """The same basis held as one whole part, so that every decision with it
    runs on one block of every row and column."""
    part = (np.arange(span.rank)[None], np.arange(span.ambient_dim)[None], span.stack()[None])
    return spans.OperatorSpan(span.domain, span.codomain, (part,))


# (columns, rank, rows) of each block; 40 - 29 columns stay zero
_BLOCKS = [(1, 1, 3), (3, 2, 4), (5, 5, 2), (6, 3, 6), (8, 1, 1), (6, 4, 4)]
_RANK = sum(min(width, rank, count) for width, rank, count in _BLOCKS)


def _disjoint_stack(seed, blocks=_BLOCKS, ambient=40, shift=0.0):
    """Random low-rank blocks on disjoint column sets of a shuffled ambient,
    with two zero rows, duplicates of two rows and the rows shuffled.  The
    same seed gives the same supports and row order; ``shift`` moves each
    block's row space by noise of that size, keeping its rank."""
    rng, noise = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    cols, at, rows = rng.permutation(ambient), 0, []
    for width, rank, count in blocks:
        block = np.zeros((count, ambient), dtype=complex)
        right = _complex_normal(rng, rank, width)
        right += shift * _complex_normal(noise, rank, width)
        block[:, cols[at:at + width]] = _complex_normal(rng, count, rank) @ right
        rows.append(block)
        at += width
    stack = np.vstack(rows + [np.zeros((2, ambient))])
    return np.vstack([stack, stack[[0, 4]]])[rng.permutation(len(stack) + 2)]


_A, _B = Space("A", 5), Space("B", 8)


def _projector(b):
    return b.T @ b.conj()


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_row_span_splits_like_the_whole_matrix(seed):
    rows = _disjoint_stack(seed)
    span = spans._row_span(rows, (_A,), (_B,))
    whole = _whole_row_span(rows)
    assert not span.whole
    assert span.rank == len(whole) == _RANK
    got = span.stack()
    np.testing.assert_allclose(_projector(got), _projector(whole), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got @ got.conj().T, np.eye(span.rank), rtol=0, atol=1e-12)
    assert [b.matrix.tobytes() for b in span.basis] == [r.tobytes() for r in got]


def test_a_component_below_the_global_cutoff_is_dropped():
    # one component's singular values all lie below 1e-9 of the other's
    # largest: the shared anchor drops them, as the whole matrix does, where
    # an anchor of their own would keep them
    rng = np.random.default_rng(64)
    rows = np.zeros((5, 8), dtype=complex)
    for at, sigma in ((0, (1.0, 0.5)), (2, (1e-11, 5e-12))):
        u = np.linalg.qr(_complex_normal(rng, 2, 2))[0]
        vh = np.linalg.qr(_complex_normal(rng, 4, 2))[0].conj().T
        rows[at:at + 2, 2 * at:2 * at + 4] = u @ np.diag(sigma) @ vh
    a = Space("A", 8)
    assert len(_whole_row_span(rows[2:4, 4:])) == 2
    span = spans._row_span(rows, (a,), (Space("B", 1),))
    assert not span.whole and span.rank == len(_whole_row_span(rows)) == 2
    assert not np.any(span.stack()[:, 4:])
    t = rows.T
    assert spans.kernel_dimension(t) == len(spans.null_space(t)) == 3
    # a kernel's anchor is at least 1.0: the small component, at 1e-6 and
    # above 1e-9, is dropped only against the large one's 1e4
    big = rows.copy()
    big[:2] *= 1e4
    big[2:4] *= 1e5
    assert len(spans.null_space(big[2:4].T)) == 0
    assert spans.kernel_dimension(big.T) == len(spans.null_space(big.T)) == 3


def _whole_distance(b1, b2):
    """spans.projector_distance of two equal-rank stacks as the 2-D routine
    before the split computed it."""
    r12 = b1 - (b1 @ b2.conj().T) @ b2
    return float(np.linalg.svd(spans._tall(r12), compute_uv=False)[0])


def _whole_residual(v, b):
    """spans._subset_residual of the nonzero rows of v as the 2-D routine
    before the split computed it."""
    norms = np.linalg.norm(v, axis=1)
    v = v - (v @ b.conj().T) @ b
    return float(np.max(np.linalg.norm(v, axis=1) / norms))


def _whole_folds(cp, x):
    """CrossedProduct.decompose as the 2-D routine before the split: each
    order's selection by one QR of the whole generator stack, x solved on it."""
    vx = x.matrix.reshape(-1)
    rp, p, _ = cp.pad.shape
    rc = cp.conjugated.rank
    order, folds = np.arange(len(cp.gens)), []
    for picked, v in ((order, cp.gens.T), (order[::-1], cp.gens[::-1].T)):
        keep, q, r = independent_columns(v)
        c = np.zeros(rc * rp, dtype=complex)
        c[picked[keep]] = np.linalg.solve(r, (q.T @ vx.conj()).conj())
        folds.append((c.reshape(rc, rp) @ cp.pad.reshape(rp, -1)).reshape(rc * p, p))
    return np.stack(folds)


def test_one_component_takes_the_whole_matrix_routine():
    # a dense stack, and a sparse one whose rows chain into one component:
    # one whole part, and every decision the same bytes as the 2-D routine
    # before the split, run on the one block of every row and column
    rng = np.random.default_rng(65)
    dense = _complex_normal(rng, 6, 12)
    chain = np.zeros((6, 12), dtype=complex)
    for i in range(6):
        chain[i, i:i + 2] = _complex_normal(rng, 2)
    for rows in (dense, chain, dense.T.copy(), chain.T.copy()):
        dom, cod = Space("A", rows.shape[1]), Space("B", 1)
        span = spans._row_span(rows, (dom,), (cod,))
        assert span.whole and len(span.parts) == 1
        b = span.stack()
        assert b.tobytes() == _whole_row_span(rows).tobytes()
        # a whole span nearby, and a split one of the same rank on two halves
        near = spans._row_span(rows + 1e-6 * _complex_normal(rng, *rows.shape), (dom,), (cod,))
        half = rows.shape[1] // 2
        halves = np.zeros((6, rows.shape[1]), dtype=complex)
        halves[:3, :half], halves[3:, half:] = (_complex_normal(rng, 3, half),
                                                _complex_normal(rng, 3, rows.shape[1] - half))
        split = spans._row_span(halves, (dom,), (cod,))
        assert near.whole and not split.whole and split.rank == span.rank == 6
        for s1, s2 in ((span, near), (span, split), (split, span)):
            assert spans.projector_distance(s1, s2) == _whole_distance(s1.stack(), s2.stack())
        v = _complex_normal(rng, 3, rows.shape[1])
        v[0] = rows[0]
        candidates = [leg_op(x.reshape(1, -1), [dom], [cod]) for x in v]
        assert spans._subset_residual(candidates, span) == _whole_residual(v, b)
        t = rows.T
        assert spans.kernel_dimension(t) == len(spans.null_space(t))
    # as generators: the 2-D routine took no more of them than columns
    for rows in (dense, chain):
        order = np.arange(len(rows))
        for (selected, picked), (at, v) in zip(spans._selections(rows),
                                               ((order, rows.T), (order[::-1], rows[::-1].T))):
            keep, q, r = independent_columns(v)
            ((_, kept, _, qk, rk),) = selected.batches
            assert list(picked) == list(kept[0]) == list(at[keep])
            assert qk[0].tobytes() == q.tobytes() and rk[0].tobytes() == r.tobytes()
    # a dense F's crossed product: its generators are one block, and both
    # decompositions of every element are the 2-D routine's, bit for bit
    m = gauge_conjugate(bm.kac_takesaki(bm.cyclic(3)), 5)
    alg, cp_variant, _ = multunitary._bialgebra_data(m, "op")
    cp = spans.CrossedProduct(alg, alg, m.braiding, cp_variant)
    assert cp.span.whole
    for a in alg.basis:
        x = bm.comultiply(m, a, "op")
        assert cp.decompose(x, 1e-9).tobytes() == _whole_folds(cp, x).tobytes()


@pytest.mark.parametrize("seed", [66, 67])
def test_projector_distance_splits_like_the_whole_matrix(seed):
    span = spans._row_span(_disjoint_stack(seed), (_A,), (_B,))
    near = spans._row_span(_disjoint_stack(seed, shift=1e-6), (_A,), (_B,))
    # the same total rank, shared out otherwise between two components
    blocks = [(w, r + (i == 1) - (i == 3), c) for i, (w, r, c) in enumerate(_BLOCKS)]
    moved = spans._row_span(_disjoint_stack(seed, blocks), (_A,), (_B,))
    other = spans._row_span(_disjoint_stack(seed + 10), (_A,), (_B,))
    assert moved.rank == other.rank == span.rank
    for s2 in (span, near, moved, other):
        assert not s2.whole
        got = spans.projector_distance(span, s2)
        assert abs(got - spans.projector_distance(_whole(span), _whole(s2))) < 1e-12
        assert spans.equals(span, s2) == (s2 is span)
    assert 1e-8 < spans.projector_distance(span, near) < 1e-4
    assert spans.projector_distance(span, moved) == 1.0


def test_subset_residual_splits_like_the_whole_matrix():
    rows = _disjoint_stack(68)
    span = spans._row_span(rows, (_A,), (_B,))
    rng = np.random.default_rng(69)
    members = [leg_op(rng.normal() * rows[i].reshape(8, 5), [_A], [_B]) for i in range(4)]
    strays = [leg_op(np.where(rows[i] != 0, _complex_normal(rng, 40), 0).reshape(8, 5),
                     [_A], [_B]) for i in range(3)]
    outside = np.zeros(40, dtype=complex)
    outside[np.flatnonzero(~rows.any(axis=0))[:2]] = 1.0
    zeros = [leg_op(np.zeros((8, 5)), [_A], [_B]), leg_op(1e-12 * members[0].matrix, [_A], [_B])]
    for candidates in (members, members + zeros, strays + members,
                       members + [leg_op(outside.reshape(8, 5), [_A], [_B])], zeros):
        got = spans._subset_residual(candidates, span)
        expected = loop_subset_residual(candidates, _whole(span))
        assert abs(got - expected) <= 1e-12 * max(expected, 1.0)
    assert spans._subset_residual(members + zeros, span) < 1e-12
    assert spans._subset_residual(strays, span) > 0.1


@pytest.mark.parametrize("seed", [70, 71])
def test_selections_split_like_the_whole_matrix(seed):
    gens = _disjoint_stack(seed)
    (forward, picked), (reverse, back) = spans._selections(gens)
    assert isinstance(forward, spans._Selected) and isinstance(reverse, spans._Selected)
    order = np.arange(len(gens))[::-1]
    assert list(picked) == list(independent_columns(gens.T)[0])
    assert list(back) == list(order[independent_columns(gens[::-1].T)[0]])
    assert list(picked) == greedy_selection(gens.T, spans.RANK_CUTOFF)
    for selected in (forward, reverse):
        assert not np.any(gens[:, selected.outside])
        for cols, kept, v, q, r in selected.batches:
            np.testing.assert_array_equal(v, np.swapaxes(gens[kept[:, :, None],
                                                              cols[:, None, :]], 1, 2))
            np.testing.assert_allclose(q @ r, v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(q.conj().swapaxes(1, 2) @ q,
                                       np.broadcast_to(np.eye(q.shape[2]), r.shape),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [72, 73])
def test_kernel_dimension_splits_like_the_whole_matrix(seed):
    t = _disjoint_stack(seed).T
    rows, cols = np.nonzero(t)
    expected = len(spans.null_space(t))
    assert expected == t.shape[1] - _RANK
    assert spans.kernel_dimension(t) == expected
    assert spans.kernel_dimension((rows, cols, t[rows, cols]), t.shape) == expected
    # a map at the scale of rounding counts as zero against the anchor 1.0
    assert spans.kernel_dimension(1e-12 * t) == len(spans.null_space(1e-12 * t)) == t.shape[1]


def _monomial(n, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), rng.permutation(n)] = np.exp(2j * np.pi * rng.random(n))
    return m


@pytest.mark.parametrize("group", ["z3", "s3"])
def test_relative_multiplier_reads_a_monomial_off_the_parts(group, request):
    # x b and b x read off the parts and x's gather, against the products
    # formed densely: F is a multiplier of the crossed product, a random
    # monomial is not
    m = request.getfixturevalue(group)
    slices = multunitary.right_slice_span
    target = spans.CrossedProduct(slices(m), slices(multunitary.dual(m)), m.braiding,
                                  "hbt").span
    assert not target.whole
    legs = m.op.domain
    for x, inside in ((m.op, True), (leg_op(_monomial(m.op.matrix.shape[0], 74), legs), False)):
        assert x.gather is not None
        moved = ([bm.compose(x, b) for b in target.basis]
                 + [bm.compose(b, x) for b in target.basis])
        expected = loop_subset_residual(moved, target)
        for span in (target, _whole(target)):
            got = spans._multiplier_residual(span, x)
            assert abs(got - expected) < 1e-12
            assert (got < 1e-12) == inside


# ---------------------------------------------------------------- rank zero

_EMPTY = spans.OperatorSpan((L2,), (L2,), ())
_FLIP = np.array([[0, 1j], [1, 0]])      # a monomial with a phase


def test_an_empty_span_contains_only_zero():
    assert [len(x) for x in _EMPTY.entries()] == [0, 0, 0]
    assert _EMPTY.stack().shape == (0, 4) and _EMPTY.basis == ()
    assert not spans.contains(_EMPTY, leg_op(_FLIP, [L2]))
    assert spans.contains(_EMPTY, leg_op(np.zeros((2, 2)), [L2]))


def test_an_empty_span_equals_only_an_empty_span():
    adjoint = spans.adjoint_span(_EMPTY)
    assert adjoint.rank == 0 and not adjoint.parts
    assert spans.equals(_EMPTY, adjoint) and spans.equals(_EMPTY, _EMPTY)
    assert not spans.equals(_EMPTY, spans.span_of([leg_op(_FLIP, [L2])]))


def test_an_empty_span_is_at_distance_one_from_any_other():
    full = spans.span_of([leg_op(_FLIP, [L2])])
    assert spans.projector_distance(_EMPTY, spans.adjoint_span(_EMPTY)) == 0.0
    assert spans.projector_distance(_EMPTY, full) == spans.projector_distance(full, _EMPTY) == 1.0


def test_every_operator_is_a_multiplier_of_an_empty_span():
    # no basis element, so no product leaves the span: a monomial, read off
    # the parts, and a dense operator, multiplied out
    x = leg_op(_FLIP, [L2])
    assert x.gather is not None
    assert spans.is_relative_multiplier(_EMPTY, x)
    assert spans.is_relative_multiplier(_EMPTY, leg_op(random_unitary(2, 76), [L2]))
