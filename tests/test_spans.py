import itertools

import numpy as np
import pytest

import braidmu as bm
from braidmu import spans
from braidmu import LegOperator, LegSignature, Space
from braidmu.tensor import total_dim

from conftest import dense_braid_tensor, random_unitary

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
    conjugated = bm.compose(bm.tensor(bm.identity((L2,)), bm.adjoint(gop)),
                            bm.compose(z2.op, bm.tensor(bm.identity((L2,)), gop)))
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


def test_kernel_of_linear_map_extremes():
    full = spans.kernel_of_linear_map(np.zeros((4, 4)), (L2,), (L2,))
    assert full.rank == 4
    zero = spans.kernel_of_linear_map(np.eye(4), (L2,), (L2,))
    assert zero.rank == 0


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
    kernel = spans.kernel_of_linear_map(np.array(cols).T, (L2,), (L2,))
    assert kernel.rank == 1
    assert spans.contains(kernel, leg_op(np.eye(2), [L2]), 1e-9)


def test_crossed_product_of_diagonals_under_flip(z2):
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.crossed_product(diag, diag, bm.FlipBraiding(), "hbt")
    assert cp.rank == 4
    expected = spans.span_of([bm.tensor(a, b) for a in diag.basis for b in diag.basis])
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
        expected = spans.span_of([bm.tensor(a, b) for a in diag.basis
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
    expected = spans.span_of([bm.tensor(x, y) for x in diag.basis for y in full.basis])
    for variant in ("hbt", "habt", "bt"):
        cp = spans.crossed_product(diag, full, provider, variant)
        assert spans.equals(cp, expected, 1e-9)


def test_scalar_crossed_product_injects_second_factor(z2):
    scalars = spans.span_of([leg_op(np.eye(2), [L2])])
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.crossed_product(scalars, diag, bm.FlipBraiding(), "hbt")
    expected = spans.span_of([bm.tensor(leg_op(np.eye(2), [L2]), b) for b in diag.basis])
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


def test_extension_with_identity_conjugators_is_identity(z2):
    diag = spans.span_from_slices(z2.op, "right")
    cp = spans.crossed_product(diag, diag, bm.FlipBraiding(), "habt")
    x = cp.basis[1]
    ext = spans.CrossedProductExtension(diag, diag, bm.FlipBraiding(), "habt", None, None)
    np.testing.assert_allclose(ext.apply(x).matrix, x.matrix, atol=1e-10)


def test_extension_rejects_elements_outside_the_span(z2):
    diag = spans.span_from_slices(z2.op, "right")
    outside = leg_op(bm.FlipBraiding().braid(L2, L2).matrix, [L2, L2])
    ext = spans.CrossedProductExtension(diag, diag, bm.FlipBraiding(), "habt", None, None)
    with pytest.raises(spans.DecompositionError):
        ext.apply(outside)


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
    return vh[spans.numerical_rank(s, cutoff, scale):].conj()


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
    kernel = spans.null_space(t, scale=scale)
    oracle = _full_svd_null_space(t, scale=scale)
    assert kernel.shape == oracle.shape == (kernel_dim, t.shape[1])
    # the kernels agree as subspaces: compare their orthogonal projectors
    np.testing.assert_allclose(kernel.T @ kernel.conj(), oracle.T @ oracle.conj(),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(kernel @ kernel.conj().T, np.eye(kernel_dim), rtol=0, atol=1e-12)
    if scale is None:
        assert np.linalg.norm(t @ kernel.T) < 1e-12 * max(np.linalg.norm(t), 1.0)


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


def _random_span(legs, count, seed):
    rng = np.random.default_rng(seed)
    d = total_dim(legs)
    return spans.span_of([leg_op(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), legs)
                          for _ in range(count)])


@pytest.mark.parametrize("kind", ["flip", "phase3"])
@pytest.mark.parametrize("variant", ["hbt", "habt", "bt"])
@pytest.mark.parametrize("f_on", [False, True])
@pytest.mark.parametrize("g_on", [False, True])
def test_extension_matches_the_mapped_product_oracle(kind, variant, f_on, g_on):
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    c, t = Space("C", 2, (0, 2)), Space("T", 4, (0, 1, 2, 0))
    provider = bm.FlipBraiding() if kind == "flip" else bm.PhaseBraiding(3)
    s1, s2 = _random_span((a,), 2, 31), _random_span((b,), 2, 32)
    # f changes the space: (C, A) onto a single leg T; g keeps B and adds C on the right
    f = spans.Conjugation(leg_op(random_unitary(4, 33), [c, a], [t]), "left") if f_on else None
    g = spans.Conjugation(leg_op(random_unitary(6, 34), [b, c]), "right") if g_on else None
    alpha, beta = spans.crossed_injections(variant, provider, s1.domain, s2.domain)
    rng = np.random.default_rng(35)
    x = sum(complex(*rng.normal(size=2)) * bm.compose(alpha(p), beta(q)).matrix
            for p in s1.basis for q in s2.basis)
    x = leg_op(x, [a, b])
    ext = spans.CrossedProductExtension(s1, s2, provider, variant, f, g)
    value = ext.apply(x)
    expected = _mapped_product_extension(s1, s2, provider, variant, f, g, x)
    assert value.domain == value.codomain == (t if f_on else a,) + ((b, c) if g_on else (b,))
    np.testing.assert_allclose(value.matrix, expected, rtol=0, atol=1e-12)
