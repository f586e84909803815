import functools
import importlib.util
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import braidmu as bm
from braidmu import multunitary, spans
from braidmu import LegOperator, LegSignature, Space
from braidmu.multunitary import pentagon_words
from braidmu.tensor import leg_product

from conftest import (DenseCrossedProductExtension, blocked_walk_only,
                      dense_coassociativity_residual, dense_pentagon_defect, gauge_conjugate,
                      graded_kac_takesaki, random_unitary, routed_oracle, routing_category, turned,
                      walked_extensions, zn_module)


def leg_op(matrix, dom, cod=None):
    return LegOperator(LegSignature(tuple(dom), tuple(cod or dom)), matrix)


def pentagon_bookkeeping_oracle(group):
    """Check W23 W12 = W12 W13 W23 by tracking basis indices, no matrices."""
    n = group.order
    for g in range(n):
        for h in range(n):
            for k in range(n):
                # left side: W12 first, then W23
                a, b, c = g, group.mul(g, h), k
                lhs = (a, b, group.mul(b, c))
                # right side: W23, then W13, then W12
                a, b, c = g, h, group.mul(h, k)
                c = group.mul(a, c)
                b = group.mul(a, b)
                rhs = (a, b, c)
                if lhs != rhs:
                    return False
    return True


def test_pentagon_holds_for_cyclic_groups():
    for n in range(1, 6):
        group = bm.cyclic(n)
        assert pentagon_bookkeeping_oracle(group)
        assert bm.pentagon_residual(bm.kac_takesaki(group)) < 1e-13


def test_pentagon_for_identity_with_any_braiding():
    for mu in (bm.identity_control(2),
               bm.MultUnitary(Space("L", 2), bm.identity((Space("L", 2),) * 2),
                              bm.FlipBraiding())):
        assert bm.pentagon_residual(mu) < 1e-14


def test_pentagon_rejects_a_random_unitary():
    l = Space("L", 2)
    mu = bm.MultUnitary(l, leg_op(random_unitary(4, 21), [l, l]), bm.FlipBraiding())
    assert bm.pentagon_residual(mu) > 0.1


def test_slice_ranks_for_group_examples(z2, z3):
    for mu, n in ((z2, 2), (z3, 3)):
        assert bm.right_slice_span(mu).rank == n
        assert bm.left_slice_span(mu).rank == n
        assert bm.regularity_span(mu).rank == n * n


def test_identity_control_ranks():
    mu = bm.identity_control(2)
    assert bm.right_slice_span(mu).rank == 1
    assert bm.regularity_span(mu).rank == 1


def test_dual_is_an_involution_up_to_convention(z2):
    d2 = bm.dual(bm.dual(z2))
    np.testing.assert_allclose(d2.op.matrix, z2.op.matrix, atol=1e-13)
    assert d2.braiding is z2.braiding


def test_dual_satisfies_the_reversed_pentagon(z2, z3, s3):
    for mu in (z2, z3, s3):
        assert bm.pentagon_residual(bm.dual(mu)) < 1e-12


def test_dual_regularity_span_is_the_adjoint(z2, z3):
    for mu in (z2, z3):
        lhs = bm.regularity_span(bm.dual(mu))
        rhs = spans.adjoint_span(bm.regularity_span(mu))
        assert spans.projector_distance(lhs, rhs) < 1e-9


def test_commutant_dimension_values(z2, z3):
    assert bm.commutant_dimension(z2) == 1
    assert bm.commutant_dimension(z3) == 1
    assert bm.commutant_dimension(bm.identity_control(2)) == 4


def test_commutant_dimension_matches_commutant_of_regularity_span(z2, z3):
    # oracle: the defining equation picks out exactly the commutant of the
    # regularity span
    for mu in (z2, z3, bm.identity_control(2), bm.identity_control(3)):
        n = mu.space.dim
        c = bm.regularity_span(mu)
        cols = []
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1
                rows = [(e @ b.matrix - b.matrix @ e).reshape(-1) for b in c.basis]
                cols.append(np.concatenate(rows) if rows else np.zeros(0))
        commutant_dim = spans.null_space(np.array(cols).T).shape[0]
        assert bm.commutant_dimension(mu) == commutant_dim


def test_classification_of_group_examples(z2, z3, s3):
    for mu in (z2, z3, s3):
        report = bm.classify_regularity(mu)
        assert report.regular and report.semi_regular and report.bi_regular
        assert report.dual_consistent
        assert report.trivial_commutant


def test_classification_of_the_identity_control():
    report = bm.classify_regularity(bm.identity_control(2))
    assert not report.regular
    assert report.rank_c == 1
    assert report.dual_consistent


def test_classification_is_basis_independent(z2):
    # conjugating by G (x) G and transporting the braiding preserves all flags
    g = random_unitary(2, 31)
    l = z2.space
    gg = np.kron(g, g)
    f2 = gg @ z2.op.matrix @ gg.conj().T
    c2 = gg @ z2.braiding.braid(l, l).matrix @ gg.conj().T
    table = bm.ExplicitBraiding()
    table.register(leg_op(c2, [l, l]))
    mu2 = bm.MultUnitary(l, leg_op(f2, [l, l]), table)
    r1 = bm.classify_regularity(z2)
    r2 = bm.classify_regularity(mu2)
    assert (r1.rank_c, r1.rank_d, r1.regular, r1.bi_regular) == \
        (r2.rank_c, r2.rank_d, r2.regular, r2.bi_regular)
    assert bm.pentagon_residual(mu2) < 1e-12


def test_comultiply_rejects_wrong_legs(z2):
    with pytest.raises(bm.LegError):
        bm.comultiply(z2, bm.identity((Space("M", 3),)), "op")
    with pytest.raises(ValueError):
        bm.comultiply(z2, bm.identity((z2.space,)), "sideways")


def test_comultiply_fixes_the_identity(z2):
    one = bm.identity((z2.space,))
    for variant in ("op", "right"):
        out = bm.comultiply(z2, one, variant)
        np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-13)


def test_comultiply_z2_projector(z2):
    # Delta-op of diag(1, 0) is the projector onto the g + h = 0 subspace
    p0 = leg_op(np.diag([1.0, 0.0]), [z2.space])
    out = bm.comultiply(z2, p0, "op")
    np.testing.assert_allclose(out.matrix, np.diag([1.0, 0, 0, 1.0]), atol=1e-14)


def test_podles_conditions(z2, z3):
    for mu in (z2, z3):
        assert bm.podles_conditions(mu, "op") == (True, True)
        assert bm.podles_conditions(mu, "right") == (True, True)
    assert bm.podles_conditions(bm.identity_control(2), "op") == (True, True)


def structured_corruption(z2):
    # W (U (x) 1) keeps the slice spans small but destroys the Pentagon;
    # a fully random unitary has full slice spans and passes span checks
    # vacuously, so it is useless as a control here
    u = random_unitary(2, 77)
    l = z2.space
    m = z2.op.matrix @ np.kron(u, np.eye(2))
    return bm.MultUnitary(l, leg_op(m, [l, l]), bm.FlipBraiding())


def test_podles_fails_for_a_non_multiplicative_unitary(z2):
    mu = structured_corruption(z2)
    assert bm.pentagon_residual(mu) > 0.1
    assert bm.podles_conditions(mu, "op") != (True, True)


def test_coassociativity(z2, z3):
    assert bm.coassociativity_residual(z2, "op") < 1e-10
    assert bm.coassociativity_residual(z3, "op") < 1e-10
    assert bm.coassociativity_residual(z2, "right") < 1e-10
    assert bm.coassociativity_residual(bm.identity_control(2), "op") < 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_the_right_check_is_the_op_check_of_the_turned_unitary(d):
    # a random F under the phase braiding: the turn is S F^T S under the
    # explicit braiding S (c^{-1})^T S, bit for bit, and its "op" residual
    # is the unturned "bt" residual of the dense oracle; turned with the
    # inverse of that braiding, the residual moves at the second digit
    space = Space("L", d, tuple(range(d)))
    m = bm.MultUnitary(space, leg_op(random_unitary(d * d, 20 + d), [space, space]),
                       bm.PhaseBraiding(3))
    rotated = multunitary._rotated(m)
    assert np.array_equal(rotated.matrix, turned(m.op).matrix)
    assert np.array_equal(rotated.braiding.braid(space, space).matrix,
                          turned(m.braiding.braid_inverse(space, space)).matrix)
    expected = dense_coassociativity_residual(m, "right")
    assert expected > 1.0
    assert abs(bm.coassociativity_residual(m, "right") - expected) <= 1e-12 * expected
    assert abs(bm.coassociativity_residual(rotated, "op") - expected) <= 1e-12 * expected


def _no_entry_walk(*args):
    raise AssertionError("the entry walk ran")


@pytest.mark.parametrize("d", [2, 3])
def test_a_controlled_unitary_leaves_both_crossed_products(d, monkeypatch):
    # sum_i e_ii (x) U_i under the phase braiding: every comultiplied element
    # lies outside the crossed product, turned or not, so nothing is walked
    space = Space("L", d, tuple(range(d)))
    f = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        f[i * d:(i + 1) * d, i * d:(i + 1) * d] = random_unitary(d, 40 + i)
    m = bm.MultUnitary(space, leg_op(f, [space, space]), bm.PhaseBraiding(3))
    monkeypatch.setattr(spans, "_entry_walk", _no_entry_walk)
    for run in (dense_coassociativity_residual, bm.coassociativity_residual):
        for variant in ("op", "right"):
            with pytest.raises(spans.DecompositionError, match="outside"):
                run(m, variant)


def test_a_later_element_outside_is_raised_after_the_walk(z2, monkeypatch):
    # turned, the corruption's first comultiplied element decomposes and its
    # second does not: the walk maps the first, then the second's error is
    # raised, where a residual of the first alone would be returned; its F is
    # dense, so that walk is the blocked one
    walked, real = [], spans.compare_extensions
    monkeypatch.setattr(spans, "_entry_walk", _no_entry_walk)
    monkeypatch.setattr(spans, "compare_extensions",
                        lambda *args: walked.append(len(args[2])) or real(*args))
    with pytest.raises(spans.DecompositionError, match="outside the crossed product"):
        bm.coassociativity_residual(structured_corruption(z2), "right")
    assert walked == [1]
    with pytest.raises(spans.DecompositionError, match="outside the crossed product"):
        dense_coassociativity_residual(structured_corruption(z2), "right")


@pytest.mark.parametrize("group", ["z3", "s3"])
@pytest.mark.parametrize("variant", ["op", "right"])
def test_coassociativity_decomposes_each_element_once(group, variant, request, monkeypatch):
    # both extensions share one crossed product: one generator stack and one
    # decomposition per comultiplied element.  A dense gauge conjugate's
    # generators are one component, with one QR of the whole stack per
    # order, a batch of one; KT's split by support, and each QR runs on the
    # blocks of one batch of components, never on the stack
    stacks, qrs, decomposed = [], [], []
    real_stack, real_qr = spans._generator_stack, np.linalg.qr
    real_decompose = spans.CrossedProduct.decompose
    monkeypatch.setattr(spans, "_generator_stack",
                        lambda *args: stacks.append(real_stack(*args)) or stacks[-1])
    monkeypatch.setattr(np.linalg, "qr", lambda v: qrs.append(v.shape) or real_qr(v))
    monkeypatch.setattr(spans.CrossedProduct, "decompose",
                        lambda cp, x, tol: decomposed.append(x) or real_decompose(cp, x, tol))
    kt = request.getfixturevalue(group)
    for m in (gauge_conjugate(kt, 5), kt):
        stacks.clear(), qrs.clear(), decomposed.clear()
        assert bm.coassociativity_residual(m, variant) < 1e-10
        alg = bm.right_slice_span(m) if variant == "op" else bm.left_slice_span(m)
        assert len(stacks) == 1
        assert len(decomposed) == len(set(map(id, decomposed))) == alg.rank
        if m is kt:
            assert len(qrs) >= 2 and all(max(shape[1:]) < stacks[0].shape[1] for shape in qrs)
        else:
            assert qrs == [(1, *stacks[0].shape[::-1])] * 2


def test_a_kac_takesaki_certificate_factors_no_whole_stack(monkeypatch):
    # every rank, span and decomposition of KT Z4 runs on blocks of its
    # components: no SVD or QR of its certificate has a side of n^4 = 256;
    # the dense gauge conjugate's run on whole stacks
    z4, shapes = bm.kac_takesaki(bm.cyclic(4)), []
    for name in ("svd", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, real=real, **kw:
                            shapes.append(a.shape) or real(a, *args, **kw))
    assert bm.full_certificate(z4).all_passed
    assert shapes and max(max(s[-2:]) for s in shapes) < 256
    shapes.clear()
    assert bm.full_certificate(gauge_conjugate(z4, 5)).all_passed
    assert max(max(s[-2:]) for s in shapes) >= 256


@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("n", [6, 7])
def test_coassociativity_peak_is_below_one_dense_target_block(n, variant):
    # the extensions stream over blocks of target lines: the whole check, its
    # crossed product and decompositions included, peaks below the bytes of
    # the block of mapped factors that one extension once held densely
    m = bm.kac_takesaki(bm.cyclic(n))
    alg, cp_variant, conj = multunitary._bialgebra_data(m, variant)
    cp = spans.CrossedProduct(alg, alg, m.braiding, cp_variant)
    block = DenseCrossedProductExtension(cp, conj, None)._target.nbytes
    assert block == n ** 7 * 16
    del cp
    tracemalloc.start()
    try:
        bm.coassociativity_residual(m, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


def test_coassociativity_keeps_a_smaller_byte_budget(z2, monkeypatch):
    # on the blocked walk, which KT's and the graded object's operands would
    # skip by reading as entries, the rows of R_k are built for the blocks'
    # lines inside the budget: at 64 KiB the blocks hold less than at the
    # default, and nothing else moves, not even the residuals' last bits
    import braidmu.tensor as tensor_module

    blocked_walk_only(monkeypatch)

    kt6, graded = bm.kac_takesaki(bm.cyclic(6)), graded_kac_takesaki()
    real = spans._extension_blocks

    def measured():
        """Both residuals, and the peak of the kt6 check (the last) from its
        first block on."""
        with pytest.raises(spans.DecompositionError):
            bm.coassociativity_residual(structured_corruption(z2), "op")
        residuals = [bm.coassociativity_residual(m, "op") for m in (graded, kt6)]
        return residuals, tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(spans, "_extension_blocks",
                        lambda *args: tracemalloc.reset_peak() or real(*args))
    runs = []
    for budget in (tensor_module._BLOCK_BYTES, 64 << 10):
        monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(spans, "_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            runs.append(measured())
        finally:
            tracemalloc.stop()
    (wide, wide_peak), (narrow, narrow_peak) = runs
    assert narrow == wide
    assert narrow_peak < wide_peak / 2


@pytest.mark.parametrize("group", ["z3", "s3"])
@pytest.mark.parametrize("variant", ["op", "right"])
def test_coassociativity_never_injects_the_images(group, variant, request, monkeypatch):
    # coassociativity stacks the conjugated side without keeping it and never
    # injects the padded side; the Podles and multiplier checks ask for both
    m = request.getfixturevalue(group)
    made = []
    real = spans.CrossedProduct.__init__
    monkeypatch.setattr(spans.CrossedProduct, "__init__",
                        lambda cp, *args: made.append(cp) or real(cp, *args))
    assert bm.coassociativity_residual(m, variant) < 1e-10
    assert len(made) == 1 and "images" not in vars(made[0])
    assert "gens" in vars(made[0])
    bm.podles_conditions(m, variant)
    assert "images" in vars(made[1])


@pytest.mark.parametrize("group", ["z3", "s3"])
@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("check", ["podles_conditions", "multiplier_checks"])
def test_bialgebra_checks_inject_each_basis_element_once(check, variant, group, request,
                                                          monkeypatch):
    # the check multiplies by the injected bases that its crossed product
    # made, so each basis element goes through its injection once
    m = request.getfixturevalue(group)
    injected = []
    real = spans.crossed_injections

    def counted(*args):
        alpha, beta = real(*args)
        return (lambda x: injected.append(("inj1", x.matrix.tobytes())) or alpha(x),
                lambda x: injected.append(("inj2", x.matrix.tobytes())) or beta(x))

    # every braidmu module that binds the function gets the counting one
    for module in [mod for name, mod in sys.modules.items() if name.startswith("braidmu")]:
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, counted)
    assert getattr(bm, check)(m, variant) == (True, True)
    # both slice algebras of a Kac-Takesaki unitary have dimension |G|
    assert Counter(side for side, _ in injected) == {"inj1": m.space.dim, "inj2": m.space.dim}
    assert len(set(injected)) == len(injected)


def test_coassociativity_rejects_corrupted_operators(z2):
    # a random unitary has full spans, so the extension is well defined and
    # coassociativity fails by a large residual; the structured corruption
    # fails earlier, at the decomposition stage
    l = z2.space
    rand = bm.MultUnitary(l, leg_op(random_unitary(4, 9), [l, l]), bm.FlipBraiding())
    assert bm.coassociativity_residual(rand, "op") > 1e-3
    with pytest.raises(spans.DecompositionError):
        bm.coassociativity_residual(structured_corruption(z2), "op")


def test_multiplier_theorem(z2, z3):
    for mu in (z2, z3):
        assert bm.multiplier_checks(mu, "op") == (True, True)
        assert bm.multiplier_checks(mu, "right") == (True, True)


def test_multiplier_fails_for_a_corrupted_unitary(z2):
    first, second = bm.multiplier_checks(structured_corruption(z2), "op")
    assert not (first and second)


def test_full_certificate_group_examples(z2, z3):
    for mu in (z2, z3):
        cert = bm.full_certificate(mu)
        assert cert.gates_passed and cert.all_passed


@pytest.mark.parametrize("group", [bm.symmetric(3), bm.cyclic(4)], ids=["S3", "Z4"])
def test_the_certificate_of_a_dense_gauge_conjugate_is_kac_takesakis(group):
    # (u (x) u) F (u (x) u)* is dense, so every step runs the matmul path, where
    # KT's monomials run the gather: the verdicts, ranks and commutant
    # must not move, and the residuals are rounding only
    kt = bm.kac_takesaki(group)
    n = group.order
    # a dense product of inner dimension n^2 errs by about n^2 eps relative, and
    # a unitary on L (x) L (x) L has Hilbert-Schmidt norm n^(3/2); 10 covers
    # the few factors on each side of a residual
    bound = 10 * n ** 3.5 * np.finfo(float).eps
    expected = bm.full_certificate(kt).checks()
    got = bm.full_certificate(gauge_conjugate(kt, 5)).checks()
    assert [c["name"] for c in got] == [c["name"] for c in expected]
    for record, reference in zip(got, expected):
        assert record["pass"] == reference["pass"], record["name"]
        if record["kind"] == "residual":
            assert record["value"] < bound, record["name"]
        else:
            assert record["value"] == reference["value"], record["name"]


def test_full_certificate_identity_control():
    cert = bm.full_certificate(bm.identity_control(2))
    assert cert.passed("pentagon") and cert.passed("unitarity")
    assert not cert.passed("regular")
    assert cert.gates_passed and not cert.all_passed


def test_slice_algebra_properties(z2, z3, s3):
    # non-degenerate subalgebra structure of the right slice span, and star
    # closure whenever the regularity span is self-adjoint
    for mu in (z2, z3, s3):
        hat = bm.right_slice_span(mu)
        assert spans.is_algebra(hat)
        assert spans.is_nondegenerate(hat)
        c = bm.regularity_span(mu)
        if spans.equals(spans.adjoint_span(c), c, 1e-9):
            assert spans.is_star_closed(hat)


def _comultiply_oracle(m, a, variant):
    f, one = m.op.matrix, np.eye(m.space.dim)
    if variant == "op":
        return f.conj().T @ np.kron(one, a) @ f
    return f @ np.kron(a, one) @ f.conj().T


@pytest.mark.parametrize("variant", ["op", "right"])
def test_comultiply_matches_the_kron_transcription(variant):
    space = Space("L", 3, (0, 1, 2))
    m = bm.MultUnitary(space, leg_op(random_unitary(9, 21), [space, space]),
                       bm.PhaseBraiding(3))
    rng = np.random.default_rng(22)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = bm.comultiply(m, leg_op(a, [space]), variant)
    assert got.signature == LegSignature((space, space), (space, space))
    np.testing.assert_allclose(got.matrix, _comultiply_oracle(m, a, variant),
                               rtol=0, atol=1e-12)


def _commutant_oracle(m):
    """The kernel dimension of a |-> F (a (x) 1) F* - c (a (x) 1) c^{-1}, in kron."""
    n = m.space.dim
    f = m.op.matrix
    c = m.braiding.braid(m.space, m.space).matrix
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            pad = np.kron(e, np.eye(n))
            cols.append((f @ pad @ f.conj().T - c @ pad @ np.linalg.inv(c)).reshape(-1))
    return spans.null_space(np.array(cols).T).shape[0]


def test_commutant_dimension_matches_the_kron_transcription(z3):
    # F = c (u (x) 1) under the flip leaves exactly the commutant of u = diag(1, 1, -1)
    l3 = Space("L", 3)
    flip = bm.FlipBraiding()
    u = np.kron(np.diag([1.0, 1.0, -1.0]), np.eye(3))
    swapped = bm.MultUnitary(l3, leg_op(flip.braid(l3, l3).matrix @ u, [l3, l3]), flip)
    graded = Space("L", 3, (0, 1, 2))
    rand = bm.MultUnitary(graded, leg_op(random_unitary(9, 23), [graded, graded]),
                          bm.PhaseBraiding(3))
    for m, expected in ((z3, 1), (bm.identity_control(2), 4), (swapped, 5), (rand, 1)):
        assert bm.commutant_dimension(m) == _commutant_oracle(m) == expected


def test_certificate_and_hexagons_pad_only_by_leg_products(monkeypatch, z3):
    # braiding, spans and multunitary pad every factor through leg_product
    import importlib

    def forbidden(*args):
        raise AssertionError("identity padding outside leg_product")

    omega = np.exp(2j * np.pi / 3)
    module, mu = bm.group_yd_module(bm.cyclic(3), [0, 1, 2],
                                    [np.diag(omega ** (g * np.arange(3))) for g in range(3)])
    provider = bm.yd_braiding_provider([module], mu)
    for name in ("braiding", "spans", "multunitary"):
        namespace = importlib.import_module(f"braidmu.{name}")
        for attr in ("tensor", "identity"):
            monkeypatch.setattr(namespace, attr, forbidden, raising=False)
    assert bm.full_certificate(z3).all_passed
    assert bm.check_hexagons(provider, [module.space])["max_residual"] < 1e-11


# ---------------------------------------------------------------- matrix-free Pentagon


def _search_hits(category, dim, **kw):
    space = Space("L", dim, None if category == "flip" else tuple(i % 2 for i in range(dim)))
    braiding = bm.FlipBraiding() if category == "flip" else bm.PhaseBraiding(2)
    constraints = () if category == "flip" else (bm.DegreePreservingConstraint(2),)
    problem = bm.SearchProblem(space=space, braiding=braiding, constraints=constraints,
                               seed=7, **kw)
    return [hit.mu for hit in bm.search(problem)]


def _pentagon_cases():
    l2, l3, g3 = Space("L", 2), Space("L", 3), Space("G", 3, (0, 1, 2))

    def yd_table():
        yd, p, _ = routing_category("yd")
        return [bm.MultUnitary(p, leg_op(random_unitary(9, 6), (p, p)), yd)]

    def dense_table():
        table = bm.ExplicitBraiding()
        table.register(leg_op(random_unitary(9, 3), (l3, l3)))
        return [bm.MultUnitary(l3, leg_op(random_unitary(9, 7), (l3, l3)), table)]

    return {
        "flip KT Z3": lambda: [bm.kac_takesaki(bm.cyclic(3))],
        "flip random F": lambda: [
            bm.MultUnitary(l3, leg_op(random_unitary(9, 1), (l3, l3)), bm.FlipBraiding())],
        "flip inverse random F": lambda: [bm.MultUnitary(
            l2, leg_op(random_unitary(4, 2), (l2, l2)), bm.FlipBraiding().inverse())],
        "phase m=3 random F": lambda: [
            bm.MultUnitary(g3, leg_op(random_unitary(9, 4), (g3, g3)), bm.PhaseBraiding(3))],
        "phase m=3 inverse random F": lambda: [bm.MultUnitary(
            g3, leg_op(random_unitary(9, 5), (g3, g3)), bm.PhaseBraiding(3).inverse())],
        "Z3 YD table random F": yd_table,
        "random dense c and F": dense_table,
        "search hits d=2": lambda: (_search_hits("flip", 2, restarts=3)
                                    + _search_hits("super", 2, restarts=3)),
        "search hits d=3": lambda: _search_hits("flip", 3, restarts=2, max_iter=20),
    }


PENTAGON_CASES = _pentagon_cases()


@pytest.mark.parametrize("name", sorted(PENTAGON_CASES))
def test_pentagon_defect_matches_the_dense_oracle(name):
    cases = PENTAGON_CASES[name]()
    assert cases
    for m in cases:
        c = m.braiding.braid(m.space, m.space)
        cinv = m.braiding.braid_inverse(m.space, m.space)
        legs, lhs, rhs = pentagon_words(m.op, c, cinv)
        got = leg_product(lhs, legs).matrix - leg_product(rhs, legs).matrix
        want = dense_pentagon_defect(m.op.matrix, c.matrix, cinv.matrix)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert bm.pentagon_residual(m) == pytest.approx(float(np.linalg.norm(want)), abs=1e-12)


@pytest.mark.parametrize("kind", ["phase3", "yd"])
def test_routing_agreement_matches_the_dense_oracle(kind):
    # a random F is no morphism of a braided category, so its two routes
    # across the middle leg differ, by the norm of the two routed matrices
    braiding, l, _ = routing_category(kind)
    m = bm.MultUnitary(l, leg_op(random_unitary(l.dim ** 2, 81), [l, l]), braiding)
    ctx = (l,) * 3
    over, under = (routed_oracle(m.op, ctx, (1, 3), route, braiding)[0]
                   for route in ("over", "under"))
    want = float(np.linalg.norm(over - under))
    assert want > 0.1
    assert abs(multunitary.routing_agreement(m) - want) <= 1e-13 * want


def test_pentagon_residual_peaks_below_one_dense_three_leg_matrix():
    # the two Pentagon words stream over column blocks, so the residual at
    # KT Z10 peaks below the 16 MB of one n^3 x n^3 matrix; each product and
    # their difference were once such a matrix
    n = 10
    m = bm.kac_takesaki(bm.cyclic(n))
    tracemalloc.start()
    try:
        residual = bm.pentagon_residual(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-12
    assert peak < n ** 6 * 16


@pytest.mark.parametrize("name, crossing_steps", [("flip random F", 2),
                                                  ("phase m=3 random F", 2),
                                                  ("Z3 YD table random F", 2)])
def test_pentagon_crossings_take_the_crossing_path(monkeypatch, name, crossing_steps):
    """Flip and phase crossings run as their own gathers, and a table's
    crossings, phase monomials, as the gathers they are read as; no
    n^3 x n^3 product and no kron are formed."""
    (m,) = PENTAGON_CASES[name]()
    c, cinv = m.braiding.braid(m.space, m.space), m.braiding.braid_inverse(m.space, m.space)
    import braidmu.tensor as tensor_module
    calls = []
    real_gather = tensor_module._gather
    monkeypatch.setattr(tensor_module, "_gather",
                        lambda g, *rest: calls.append(g) or real_gather(g, *rest))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense product in the Pentagon")

    monkeypatch.setattr(tensor_module, "compose", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    legs, lhs, rhs = pentagon_words(m.op, c, cinv)
    leg_product(lhs, legs)
    leg_product(rhs, legs)
    crossings = [x.gather for x in (c, cinv)]
    assert len([g for g in calls if any(g is x for x in crossings)]) == crossing_steps


def _relabelled(m, seed):
    """(p (x) p) F (p (x) p)* for a random permutation p: the same object on
    renamed basis vectors, still monomial."""
    p = np.eye(m.space.dim)[np.random.default_rng(seed).permutation(m.space.dim)]
    pp = np.kron(p, p)
    return bm.MultUnitary(m.space, LegOperator(m.op.signature, pp @ m.matrix @ pp.T),
                          m.braiding)


def _semidirect(n):
    module, w = zn_module(n, 7)
    provider = bm.yd_braiding_provider([module], w, include_tensors=False)
    f = bm.MultUnitary(module.space, bm.identity((module.space, module.space)), provider)
    return bm.semidirect_product(w, module, f)


_CORPUS = {
    **{f"Z{n}": lambda n=n: bm.kac_takesaki(bm.cyclic(n)) for n in range(2, 9)},
    "S3": lambda: bm.kac_takesaki(bm.symmetric(3)),
    "relabelled-Z8": lambda: _relabelled(bm.kac_takesaki(bm.cyclic(8)), 81),
    "relabelled-S3": lambda: _relabelled(bm.kac_takesaki(bm.symmetric(3)), 82),
    "graded": graded_kac_takesaki,
    "yd-Z3": lambda: zn_module(3, 7)[1],
    "semidirect-Z2": lambda: _semidirect(2),
    "semidirect-Z3": lambda: _semidirect(3),
    "gauge-Z4": lambda: gauge_conjugate(bm.kac_takesaki(bm.cyclic(4)), 5),
    "gauge-S3": lambda: gauge_conjugate(bm.kac_takesaki(bm.symmetric(3)), 5),
}


@pytest.mark.parametrize("name", list(_CORPUS))
def test_the_split_certificate_is_the_whole_matrix_one(name, monkeypatch):
    # with every stack seen as one component, every decision runs on one
    # block of every row and column: the split must give the same flags,
    # ranks and commutant, and residuals within 1e-13 (the coassociativity
    # residuals moved by 6e-15 at most, KT S3's 5.8e-15 reading 0.0 split);
    # a dense F is one component either way, so its records are equal bit
    # for bit
    m = _CORPUS[name]()
    got = bm.full_certificate(m).checks()

    class Unsplit(spans._Split):
        """A split that reads no entry, so finds no component to split by."""

        def __init__(self, items, cols, count, first=None):
            super().__init__(items[:0], cols[:0], count, first)

    monkeypatch.setattr(spans, "_Split", Unsplit)
    whole = bm.full_certificate(m).checks()
    for record, reference in zip(got, whole):
        del record["wall_time_s"], reference["wall_time_s"]
        if record["kind"] == "residual" and not name.startswith("gauge"):
            assert abs(record.pop("value") - reference.pop("value")) < 1e-13, record["name"]
        assert record == reference
    assert all(record["pass"] for record in got)


@functools.lru_cache(maxsize=None)
def _bench_workloads():
    """bench/workloads.py, which builds the benchmark's certify inputs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def _benchmark_input(group):
    """KT of the group as the certify workload relabels it at seed 12345."""
    workloads = _bench_workloads()
    return bm.kac_takesaki(workloads.relabeled(group, workloads.permutation(12345, group.order)))


def _phase_graded(m):
    graded = graded_kac_takesaki()
    return bm.MultUnitary(graded.space, graded.op, bm.PhaseBraiding(m))


# every monomial object of the corpus: its coassociativity operands read as entries
_ENTRY_CORPUS = {
    **{name: _CORPUS[name] for name in [f"Z{n}" for n in range(2, 9)] + ["S3"]},
    **{f"benchmark-{g.name}": lambda g=g: _benchmark_input(g)
       for g in (bm.cyclic(5), bm.cyclic(8), bm.symmetric(3))},
    **{f"graded-phase{m}": lambda m=m: _phase_graded(m) for m in (2, 3, 4)},
    **{name: _CORPUS[name] for name in ("semidirect-Z2", "semidirect-Z3", "yd-Z3")},
}


@pytest.mark.parametrize("variant", ["op", "right"])
@pytest.mark.parametrize("name", list(_ENTRY_CORPUS))
def test_the_entry_walk_is_the_blocked_walk(name, variant, monkeypatch):
    # the join gives the blocked walk's five norms bit for bit.  Semidirect
    # Z3's folds hold rounding-sized coefficients, and where several k meet
    # on one entry the GEMM sums their products in another order: its
    # deviation norms read 0.0 against up to 1.4e-66, within (n^3 eps)^2 of
    # the element's squared norm for the target dimension n^3; its values'
    # and the comparison's norms are equal bit for bit
    exts, folds = walked_extensions(_ENTRY_CORPUS[name](), variant)
    walks, real = [], spans._entry_walk
    monkeypatch.setattr(spans, "_entry_walk", lambda *args: walks.append(args) or real(*args))
    got = spans.compare_extensions(*exts, folds)
    want = spans._blocked_walk(exts, folds)
    assert len(walks) == 1
    if name == "semidirect-Z3":
        bound = (exts[0]._dim * np.finfo(float).eps) ** 2 * want[[0, 2]].max(axis=0)
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(got[[0, 2, 4]], want[[0, 2, 4]])
    else:
        assert np.array_equal(got, want)


def test_the_entry_walk_raises_a_deviation_before_a_later_element_outside(monkeypatch):
    # KT Z3 with its second element's reverse decomposition moved on one
    # entry and its third element outside: the walk maps the first two, and
    # the deviation is raised before the deferred outside, with the blocked
    # walk's message
    kt, real = bm.kac_takesaki(bm.cyclic(3)), spans.CrossedProduct.decompose
    seen, walks = [], []

    def decompose(cp, x, tol):
        seen.append(x)
        if len(seen) % 3 == 0:
            raise spans.DecompositionError("element lies outside the crossed product (planted)")
        folds = real(cp, x, tol)
        if len(seen) % 3 == 2:
            folds[1][tuple(np.argwhere(folds[1])[0])] *= 2
        return folds

    monkeypatch.setattr(spans.CrossedProduct, "decompose", decompose)
    entry_walk = spans._entry_walk
    monkeypatch.setattr(spans, "_entry_walk", lambda *args: walks.append(args) or entry_walk(*args))
    messages = []
    for _ in range(2):
        with pytest.raises(spans.DecompositionError, match="depends on the decomposition") as error:
            bm.coassociativity_residual(kt, "op")
        messages.append(str(error.value))
        blocked_walk_only(monkeypatch)
    assert [count for *_, count in walks] == [2]
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name", ["graded", "semidirect-Z3", "relabelled-S3"])
def test_the_commutant_read_off_the_gathers_matches_the_kron_transcription(name):
    # monomials with phases, on renamed bases: the map's entries come from
    # the gathers of F, c and c^{-1}, and its kernel from the components
    m = _CORPUS[name]()
    c = m.braiding.braid(m.space, m.space)
    assert m.op.gather is not None and c.gather is not None
    assert m.braiding.braid_inverse(m.space, m.space).gather is not None
    assert bm.commutant_dimension(m) == _commutant_oracle(m) == 1
    assert bm.commutant_dimension(bm.identity_control(3)) == _commutant_oracle(
        bm.identity_control(3)) == 9
