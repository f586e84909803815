import gc
import weakref

import numpy as np
import pytest

import braidmu as bm
from braidmu import LegOperator, LegSignature, Space, UnsupportedPairError
from braidmu.braiding import braid_steps, braid_tensor

from conftest import dense_braid_tensor, routing_category, zn_module

H2 = Space("H", 2)
K3 = Space("K", 3)
SUPER = Space("S", 2, (0, 1))


def test_flip_on_two_qubits_is_the_swap():
    c = bm.FlipBraiding().braid(H2, H2)
    expected = np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1]], dtype=complex)
    np.testing.assert_allclose(c.matrix, expected)


def test_phase_super_braiding_signs():
    # c(e_i (x) e_j) = (-1)^(deg i * deg j) e_j (x) e_i: only the odd-odd
    # vector e1 (x) e1 picks up a sign
    c = bm.PhaseBraiding(2).braid(SUPER, SUPER)
    expected = np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, -1]], dtype=complex)
    np.testing.assert_allclose(c.matrix, expected)


def test_phase_exponents_are_reduced_before_the_power():
    # the raw product 10**17 + 1 lost its low bits in the float power: the
    # phase came out -0.530 - 0.848i where q**1 is -1
    h, k = bm.Space("H", 1, (1,)), bm.Space("K", 1, (10 ** 17 + 1,))
    for modulus in (2, 3, 7):
        braiding = bm.PhaseBraiding(modulus)
        want = braiding.q ** ((10 ** 17 + 1) % modulus)
        assert braiding.braid(h, k).matrix.tobytes() == np.array([[want]]).tobytes()


def test_phase_requires_gradings():
    with pytest.raises(UnsupportedPairError):
        bm.PhaseBraiding(2).braid(H2, SUPER)


def test_explicit_table_returns_entries_verbatim():
    table = bm.ExplicitBraiding()
    entry = LegOperator(LegSignature((H2, K3), (K3, H2)),
                        bm.FlipBraiding().braid(H2, K3).matrix)
    table.register(entry)
    assert table.braid(H2, K3) is entry
    assert table.supports(H2, K3)
    assert not table.supports(K3, H2)
    with pytest.raises(UnsupportedPairError):
        table.braid(K3, H2)


def test_explicit_rejects_bad_signature():
    with pytest.raises(ValueError):
        bm.ExplicitBraiding().register(bm.identity((H2, K3)))


def test_inverse_provider_round_trip():
    flip = bm.FlipBraiding()
    inv = flip.inverse()
    assert inv.inverse() is flip
    got = inv.braid(H2, K3).matrix
    expected = np.linalg.inv(flip.braid(K3, H2).matrix)
    np.testing.assert_allclose(got, expected)


def test_inverse_braiding_is_the_base_braid_inverse():
    g2, g3 = Space("G", 2, (0, 1)), Space("T", 3, (0, 1, 2))
    table = bm.ExplicitBraiding()
    table.register(bm.PhaseBraiding(3).braid(g3, g2))
    for base, (h, k) in ((bm.FlipBraiding(), (H2, K3)), (bm.PhaseBraiding(3), (g2, g3)),
                         (table, (g2, g3))):
        got = bm.InverseBraiding(base).braid(h, k)
        expected = base.braid_inverse(k, h)
        assert got.signature == expected.signature == LegSignature((h, k), (k, h))
        np.testing.assert_array_equal(got.matrix, expected.matrix)


def test_hexagons_flip_exact():
    report = bm.check_hexagons(bm.FlipBraiding(), [H2, K3])
    assert report["max_residual"] == 0.0
    assert report["triples"] == 8


def test_hexagons_phase_graded():
    a = Space("A", 2, (0, 1))
    b = Space("B", 3, (0, 1, 2))
    for modulus in (2, 3, 4):
        report = bm.check_hexagons(bm.PhaseBraiding(modulus), [a, b])
        assert report["max_residual"] < 1e-13


def test_hexagons_catch_a_corrupted_table():
    table = bm.ExplicitBraiding()
    flip = bm.FlipBraiding()
    spaces = [H2]
    square = bm.tensor_space(H2, H2)
    for x in (H2, square):
        for y in (H2, square):
            table.register(flip.braid(x, y))
    # corrupt the composite entry
    bad = -flip.braid(H2, square).matrix
    table.register(LegOperator(LegSignature((H2, square), (square, H2)), bad))
    report = bm.check_hexagons(table, spaces)
    assert report["max_residual"] > 1.0


def test_naturality_flip_holds_for_arbitrary_maps():
    rng = np.random.default_rng(0)
    f = LegOperator(LegSignature((H2,), (H2,)), rng.normal(size=(2, 2)))
    g = LegOperator(LegSignature((K3,), (K3,)), rng.normal(size=(3, 3)))
    report = bm.check_naturality(bm.FlipBraiding(), [f, g])
    assert report["max_residual"] < 1e-14


def test_naturality_phase_grading_preserving():
    a = Space("A", 4, (0, 1, 0, 1))
    rng = np.random.default_rng(1)
    deg = np.array(a.grading)
    mask = (deg[:, None] == deg[None, :]).astype(float)
    f = LegOperator(LegSignature((a,), (a,)),
                    (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * mask)
    report = bm.check_naturality(bm.PhaseBraiding(2), [f])
    assert report["max_residual"] < 1e-13


def test_naturality_detects_grading_violation():
    a = Space("A", 2, (0, 1))
    # the bit flip swaps degrees, so it is not a morphism of the super category
    f = LegOperator(LegSignature((a,), (a,)), np.array([[0, 1], [1, 0]], dtype=complex))
    report = bm.check_naturality(bm.PhaseBraiding(2), [f])
    assert report["max_residual"] > 0.5


def test_regularity_flip_ranks():
    report = bm.braiding_regularity(bm.FlipBraiding(), H2, K3)
    assert report.right_rank == 6 and report.left_rank == 6 and report.full == 6
    assert report.semi_regular and report.regular and report.bi_regular


def test_regularity_phase_super_full():
    report = bm.braiding_regularity(bm.PhaseBraiding(2), SUPER, SUPER)
    assert report.right_rank == 4 == report.full
    assert report.regular


def test_regularity_degenerate_identity_table():
    table = bm.ExplicitBraiding()
    table.register(LegOperator(LegSignature((H2, H2), (H2, H2)), np.eye(4)))
    report = bm.braiding_regularity(table, H2, H2)
    assert report.right_rank == 1
    assert not report.regular


def test_built_in_braidings_are_unitary():
    graded = Space("G", 3, (0, 1, 2))
    for provider, pairs in ((bm.FlipBraiding(), [(H2, K3), (K3, K3)]),
                            (bm.PhaseBraiding(3), [(graded, graded)])):
        for h, k in pairs:
            assert bm.is_unitary(provider.braid(h, k), 1e-12)


def test_inverse_of_regular_provider_is_regular():
    for provider in (bm.FlipBraiding(), bm.PhaseBraiding(3)):
        spaces = (Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2)))
        fwd = bm.braiding_regularity(provider, *spaces)
        rev = bm.braiding_regularity(provider.inverse(), *spaces)
        assert fwd.regular and rev.regular
        assert (fwd.right_rank, fwd.left_rank) == (rev.right_rank, rev.left_rank)


def test_built_ins_report_bi_regular():
    # finite-dimensional consequence of rigidity: every built-in braiding
    # on finite-dimensional spaces is bi-regular
    graded = [Space(f"g{d}", d, tuple(i % 3 for i in range(d))) for d in (1, 2, 3, 4)]
    plain = [Space(f"p{d}", d) for d in (1, 2, 3, 4)]
    for h in plain:
        for k in plain:
            assert bm.braiding_regularity(bm.FlipBraiding(), h, k).bi_regular
    for h in graded:
        for k in graded:
            assert bm.braiding_regularity(bm.PhaseBraiding(3), h, k).bi_regular


@pytest.mark.parametrize("kind", ["flip", "phase3", "yd"])
def test_braid_tensor_matches_the_recursive_oracle(kind):
    provider, a, b = routing_category(kind)
    blocks = [(a,), (b, a), (a, b, b)]
    for left in blocks:
        for right in [blk[::-1] for blk in blocks]:
            got = braid_tensor(provider, left, right)
            expected = dense_braid_tensor(provider, left, right)
            assert got.signature == expected.signature == LegSignature(left + right,
                                                                       right + left)
            np.testing.assert_allclose(got.matrix, expected.matrix, rtol=0, atol=1e-12)


def test_braid_steps_cross_the_last_left_leg_first():
    a, b, c, d, e = (Space(name, 2) for name in "ABCDE")
    steps = braid_steps(bm.FlipBraiding(), (a, b), (c, d, e))
    assert [(op.domain, start) for op, start in steps] == [
        ((b, c), 2), ((b, d), 3), ((b, e), 4), ((a, c), 1), ((a, d), 2), ((a, e), 3)]


def test_naturality_matches_the_kron_transcription():
    # random maps, one of them space-changing, so the residuals are far from zero
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    provider = bm.PhaseBraiding(3)
    rng = np.random.default_rng(3)
    morphisms = [LegOperator(LegSignature((dom,), (cod,)),
                             rng.normal(size=(cod.dim, dom.dim))
                             + 1j * rng.normal(size=(cod.dim, dom.dim)))
                 for dom, cod in ((a, a), (b, b), (a, b))]
    worst = 0.0
    for f in morphisms:
        for g in morphisms:
            c_out = provider.braid(f.codomain[0], g.codomain[0]).matrix
            c_in = provider.braid(f.domain[0], g.domain[0]).matrix
            worst = max(worst, np.linalg.norm(c_out @ np.kron(f.matrix, g.matrix)
                                              - np.kron(g.matrix, f.matrix) @ c_in))
    report = bm.check_naturality(provider, morphisms)
    assert report["pairs"] == 9
    assert worst > 1.0
    assert abs(report["max_residual"] - worst) < 1e-12


GRADED = [Space("A", 1, (2,)), Space("B", 2, (0, 1)), Space("C", 3, (0, 1, 2)),
          Space("D", 3, (2, 2, 1))]


@pytest.mark.parametrize("kind", ["flip", "phase", "flip inverse", "phase inverse"])
def test_braid_inverse_is_the_closed_form_of_np_linalg_inv(kind):
    base = bm.FlipBraiding() if kind.startswith("flip") else bm.PhaseBraiding(3)
    provider = base.inverse() if kind.endswith("inverse") else base
    for h in GRADED:
        for k in GRADED:
            c, cinv = provider.braid(h, k), provider.braid_inverse(h, k)
            assert type(cinv) is LegOperator
            assert cinv.signature == LegSignature((k, h), (h, k))
            expected = np.linalg.inv(c.matrix)
            if kind.startswith("flip"):
                np.testing.assert_array_equal(cinv.matrix, expected)
            else:
                np.testing.assert_allclose(cinv.matrix, expected, rtol=0, atol=1e-15)
            # the inverse of the inverse is the crossing itself, bit for bit
            np.testing.assert_array_equal(bm.adjoint(cinv).matrix, c.matrix)
            again = provider.inverse().braid_inverse(k, h)
            assert again.matrix.tobytes() == c.matrix.tobytes()


def test_inverse_provider_crossings_are_the_base_crossings_reversed():
    """Bit for bit, for flip and phase crossings and for the explicit
    Yetter-Drinfeld tables of Z3, Z5 and Z6 modules, whose inverse provider
    must not invert the table twice."""
    cases = [(base, GRADED) for base in (bm.FlipBraiding(), bm.PhaseBraiding(3))]
    for n in (3, 5, 6):
        module, mu = zn_module(n, 7)
        cases.append((bm.yd_braiding_provider([module], mu), [module.space]))
    for base, spaces in cases:
        inv = base.inverse()
        for h in spaces:
            for k in spaces:
                got, want = inv.braid_inverse(h, k), base.braid(k, h)
                assert got.signature == want.signature
                assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("kind", ["flip", "phase", "flip inverse", "phase inverse"])
def test_no_crossing_lives_in_a_reference_cycle(kind):
    """A crossing and its inverse, gather read, die with their last
    reference: with the cycle collector off, nothing else holds them."""
    base = bm.FlipBraiding() if kind.startswith("flip") else bm.PhaseBraiding(3)
    provider = base.inverse() if kind.endswith("inverse") else base
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (provider.braid, provider.braid_inverse):
            c = make(GRADED[1], GRADED[2])
            assert c.gather is not None
            ref = weakref.ref(c)
            del c
            assert ref() is None, make
    finally:
        if enabled:
            gc.enable()


def test_phase_crossing_matrix_is_the_swap_with_phases():
    q = np.exp(2j * np.pi / 3)
    h, k = GRADED[1], GRADED[3]
    c = bm.PhaseBraiding(3).braid(h, k)
    m = np.zeros((6, 6), dtype=complex)
    for i in range(h.dim):
        for j in range(k.dim):
            m[j * h.dim + i, i * k.dim + j] = q ** (h.grading[i] * k.grading[j])
    np.testing.assert_array_equal(c.matrix, m)
    # row j * dim h + i of the gather reads phases[i, j]
    np.testing.assert_array_equal(c.gather.coefficients.reshape(k.dim, h.dim).T,
                                  [[q ** (a * b) for b in k.grading] for a in h.grading])


def test_explicit_table_entries_are_dense():
    table = bm.ExplicitBraiding()
    table.register(bm.FlipBraiding().braid(H2, K3))
    entry = table.braid(H2, K3)
    assert type(entry) is LegOperator
    np.testing.assert_array_equal(entry.matrix, bm.FlipBraiding().braid(H2, K3).matrix)
