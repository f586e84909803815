import tracemalloc

import numpy as np
import pytest

import braidmu as bm
from braidmu import LegOperator, LegSignature, Space
from braidmu.tensor import adjoint, leg_product, tensor

from conftest import (dense_extract_distant, random_unitary, routed_oracle, routing_category,
                      zn_module)


def leg_op(matrix, dom, cod=None):
    return LegOperator(LegSignature(tuple(dom), tuple(cod or dom)), matrix)


def trivial_module(mu, space_id="T"):
    t = Space(space_id, 1)
    corep = bm.identity((t, mu.space))
    rep = bm.identity((mu.space, t))
    return bm.YDModule(t, corep, rep)


def graded_corep_oracle(group, grading):
    """Index bookkeeping for U(xi_i (x) d_h) = xi_i (x) d_(deg(i) h)."""
    n, d = group.order, len(grading)
    u = np.zeros((d * n, d * n), dtype=complex)
    for i in range(d):
        for h in range(n):
            u[i * n + group.mul(grading[i], h), i * n + h] = 1.0
    return u


def test_trivial_module_residuals_vanish(z2):
    mod = trivial_module(z2)
    assert bm.corep_residual(mod.as_corep(), z2) < 1e-14
    assert bm.rep_residual(mod.as_rep(), z2) < 1e-14
    assert bm.yd_residual(mod, z2) < 1e-14


def test_group_module_residuals_vanish(super_module):
    mod, mu = super_module
    np.testing.assert_allclose(mod.corep.matrix,
                               graded_corep_oracle(bm.cyclic(2), [0, 1]), atol=1e-15)
    assert bm.corep_residual(mod.as_corep(), mu) < 1e-13
    assert bm.rep_residual(mod.as_rep(), mu) < 1e-13
    assert bm.yd_residual(mod, mu) < 1e-13


def test_s3_module_residuals_vanish(s3):
    # regular grading (one basis vector per group element) with the
    # conjugation-compatible left-translation action
    group = bm.symmetric(3)
    n = group.order
    mats = []
    for g in range(n):
        m = np.zeros((n, n))
        for h in range(n):
            m[group.mul(group.mul(g, h), group.inv(g)), h] = 1.0
        mats.append(m)
    mod, mu = bm.group_yd_module(group, list(range(n)), mats)
    assert bm.corep_residual(mod.as_corep(), mu) < 1e-13
    assert bm.rep_residual(mod.as_rep(), mu) < 1e-13
    assert bm.yd_residual(mod, mu) < 1e-13


def test_random_corep_has_positive_residual(z2):
    h = Space("H", 2)
    u = leg_op(random_unitary(4, 17), [h, z2.space])
    assert bm.corep_residual(bm.Corep(h, u), z2) > 0.1
    v = leg_op(random_unitary(4, 18), [z2.space, h])
    assert bm.rep_residual(bm.Rep(h, v), z2) > 0.1


def test_incompatible_grading_action_pair_fails_yd(z2):
    # the bit flip moves degree 0 to degree 1, violating the compatibility,
    # so the triple fails the mixed residual even though corep and rep hold
    h = Space("H", 2, (0, 1))
    group = bm.cyclic(2)
    u = leg_op(graded_corep_oracle(group, [0, 1]), [h, z2.space])
    flip_action = np.array([[0, 1], [1, 0]], dtype=complex)
    v = np.zeros((4, 4), dtype=complex)
    v[0:2, 0:2] = np.eye(2)
    v[2:4, 2:4] = flip_action
    module = bm.YDModule(h, u, leg_op(v, [z2.space, h]))
    assert bm.corep_residual(module.as_corep(), z2) < 1e-13
    assert bm.rep_residual(module.as_rep(), z2) < 1e-13
    assert bm.yd_residual(module, z2) > 0.1


def test_tensor_of_trivial_modules_is_trivial(z2):
    m1 = trivial_module(z2, "T1")
    m2 = trivial_module(z2, "T2")
    out = bm.tensor_yd(m1, m2, z2)
    np.testing.assert_allclose(out.corep.matrix, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(out.rep.matrix, np.eye(2), atol=1e-14)


def test_tensor_modules_pass_their_residuals(super_module):
    mod, mu = super_module
    square = bm.tensor_yd(mod, mod, mu)
    assert square.space.grading == (0, 1, 1, 2)
    assert bm.corep_residual(square.as_corep(), mu) < 1e-10
    assert bm.rep_residual(square.as_rep(), mu) < 1e-10
    assert bm.yd_residual(square, mu) < 1e-10


def test_tensor_yd_checks_against_the_callers_tolerance(super_module):
    # a corep perturbed at the 1e-8 level misses the default 1e-9 but is well
    # inside 1e-5; the tensor module must be judged at the tolerance passed in
    mod, mu = super_module
    u = mod.corep.matrix + 3e-8 * np.ones_like(mod.corep.matrix)
    noisy = bm.YDModule(mod.space, LegOperator(mod.corep.signature, u), mod.rep)
    square = bm.tensor_yd(noisy, noisy, mu, tol=1e-5)
    assert 1e-9 < bm.corep_residual(square.as_corep(), mu) < 1e-5
    with pytest.raises(ValueError, match="corep"):
        bm.tensor_yd(noisy, noisy, mu)


def test_rep_tensor_orderings_agree(super_module):
    # the module-category square routes the second factor under and applies
    # the first factor first; naturality makes it equal the plain ordering
    from braidmu.yd import _yd_tensor_rep
    mod, mu = super_module
    a = bm.tensor_rep(mod.as_rep(), mod.as_rep(), mu)
    b = _yd_tensor_rep(mod.as_rep(), mod.as_rep(), mu)
    assert np.linalg.norm(a.op.matrix - b.op.matrix) < 1e-12


def test_pairing_of_trivial_modules_is_the_identity(z2):
    mod = trivial_module(z2)
    z = bm.pairing_unitary(mod.as_rep(), mod.as_corep(), z2)
    np.testing.assert_allclose(z.matrix, np.eye(1), atol=1e-14)


def test_pairing_of_the_super_module(super_module):
    mod, mu = super_module
    z = bm.pairing_unitary(mod.as_rep(), mod.as_corep(), mu)
    np.testing.assert_allclose(z.matrix, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-12)
    assert bm.is_unitary(z, 1e-12)


def test_pairing_warns_when_the_commutant_is_large():
    mu = bm.identity_control(2)
    mod = trivial_module(mu)
    t, l = mod.space, mu.space
    mu.braiding.register(leg_op(np.eye(2), [t, l], [l, t]))
    mu.braiding.register(leg_op(np.eye(2), [l, t], [t, l]))
    with pytest.warns(UserWarning):
        z = bm.pairing_unitary(mod.as_rep(), mod.as_corep(), mu)
    np.testing.assert_allclose(z.matrix, np.eye(1))


def test_pairing_extraction_failure():
    # corrupt the rep so the middle leg cannot be removed
    l = Space("L", 2)
    mu = bm.kac_takesaki(bm.cyclic(2))
    h = Space("H", 2, (0, 1))
    u = leg_op(graded_corep_oracle(bm.cyclic(2), [0, 1]), [h, l])
    v = leg_op(random_unitary(4, 23), [l, h])
    with pytest.raises(bm.ExtractionError):
        bm.pairing_unitary(bm.Rep(h, v), bm.Corep(h, u), mu)


def test_yd_braiding_of_trivial_modules_is_trivial(z2):
    m1 = trivial_module(z2, "T1")
    m2 = trivial_module(z2, "T2")
    phi = bm.yd_braiding(m1, m2, z2)
    np.testing.assert_allclose(phi.matrix, np.eye(1), atol=1e-14)


def test_yd_braiding_is_the_super_braiding(super_module):
    mod, mu = super_module
    phi = bm.yd_braiding(mod, mod, mu)
    expected = bm.PhaseBraiding(2).braid(mod.space, mod.space).matrix
    np.testing.assert_allclose(phi.matrix, expected, atol=1e-12)


@pytest.fixture(scope="module")
def z3_module():
    # regular grading with the character action pi(1) = diag(1, w, w^2);
    # the derived braiding is the genuinely non-symmetric phase braiding
    w = np.exp(2j * np.pi / 3)
    pi1 = np.diag([1.0, w, w * w])
    module, mu = bm.group_yd_module(bm.cyclic(3), [0, 1, 2],
                                    [np.eye(3), pi1, pi1 @ pi1])
    return module, mu


def test_z3_yd_braiding_is_the_phase_braiding(z3_module):
    mod, mu = z3_module
    assert bm.yd_residual(mod, mu) < 1e-13
    phi = bm.yd_braiding(mod, mod, mu)
    expected = bm.PhaseBraiding(3).braid(mod.space, mod.space).matrix
    np.testing.assert_allclose(phi.matrix, expected, atol=1e-12)
    # non-symmetric: the braiding genuinely differs from its inverse
    assert np.linalg.norm(phi.matrix - np.linalg.inv(phi.matrix)) > 0.5


def test_z3_yd_braiding_passes_hexagons_and_regularity(z3_module):
    mod, mu = z3_module
    provider = bm.yd_braiding_provider([mod], mu)
    assert bm.check_hexagons(provider, [mod.space])["max_residual"] < 1e-11
    report = bm.yd_braiding_regularity(mod, mod, mu)
    assert report.regular and report.bi_regular
    assert report.right_rank == 9


def test_yd_braiding_provider_hexagons_and_naturality(super_module):
    mod, mu = super_module
    provider = bm.yd_braiding_provider([mod], mu)
    report = bm.check_hexagons(provider, [mod.space])
    assert report["max_residual"] < 1e-12
    # module morphisms preserve the group grading; naturality with respect
    # to them holds at solver precision
    deg = np.array(mod.space.grading)
    mask = (deg[:, None] == deg[None, :]).astype(float)
    rng = np.random.default_rng(3)
    f = leg_op((rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * mask,
               [mod.space])
    nat = bm.check_naturality(provider, [f])
    assert nat["max_residual"] < 1e-12


def test_yd_braiding_regularity(super_module, z2):
    mod, mu = super_module
    report = bm.yd_braiding_regularity(mod, mod, mu)
    assert report.right_rank == mod.space.dim ** 2
    assert report.regular
    triv = trivial_module(z2)
    rep2 = bm.yd_braiding_regularity(triv, triv, z2)
    assert rep2.regular and rep2.full == 1


def test_corep_slice_span_has_full_rank(super_module):
    mod, mu = super_module
    span = bm.corep_slice_span(mod.as_corep(), mu)
    assert span.rank == mod.space.dim * mu.space.dim


def test_residuals_commute_with_unitary_change_of_basis(super_module):
    mod, mu = super_module
    g = random_unitary(2, 41)
    h2 = Space("H2", 2)
    gop = leg_op(g, [mod.space], [h2])
    u2 = bm.compose(tensor(gop, bm.identity((mu.space,))),
                    bm.compose(mod.corep, tensor(bm.adjoint(gop),
                                                 bm.identity((mu.space,)))))
    v2 = bm.compose(tensor(bm.identity((mu.space,)), gop),
                    bm.compose(mod.rep, tensor(bm.identity((mu.space,)),
                                               bm.adjoint(gop))))
    assert abs(bm.corep_residual(bm.Corep(h2, u2), mu)
               - bm.corep_residual(mod.as_corep(), mu)) < 1e-12
    assert abs(bm.rep_residual(bm.Rep(h2, v2), mu)
               - bm.rep_residual(mod.as_rep(), mu)) < 1e-12


def test_residual_routes_agree_for_symmetric_braidings(super_module):
    # U, V, F are category morphisms; in the flip category the over and
    # under routes inside each residual agree exactly
    mod, mu = super_module
    ctx = (mu.space, mod.space, mu.space)
    over = bm.apply_distant(mu.op, ctx, (1, 3), "over", mu.braiding)
    under = bm.apply_distant(mu.op, ctx, (1, 3), "under", mu.braiding)
    assert np.linalg.norm(over.matrix - under.matrix) < 1e-12


def test_provider_computes_the_commutant_once(monkeypatch, super_module):
    from braidmu import multunitary

    mod, shared = super_module
    # a fresh unitary: the session's one may hold its commutant already
    mu = bm.MultUnitary(shared.space, shared.op, shared.braiding)
    real, calls = multunitary.commutant_dimension, []
    monkeypatch.setattr(multunitary, "commutant_dimension",
                        lambda m: calls.append(m) or real(m))
    provider = bm.yd_braiding_provider([mod], mu)  # the module and its tensor square
    assert calls == [mu] and len(list(provider.pairs())) == 3
    bm.pairing_unitary(mod.as_rep(), mod.as_corep(), mu)
    assert calls == [mu]


@pytest.mark.parametrize("kind", ["flip", "phase3", "yd"])
def test_residuals_match_the_dense_oracle(kind):
    # random unitaries satisfy none of the identities, so every residual is
    # a nonzero number that the dense transcription must reproduce
    braiding, l, h = routing_category(kind)
    w = leg_op(random_unitary(l.dim ** 2, 51), [l, l])
    u = leg_op(random_unitary(h.dim * l.dim, 52), [h, l])
    v = leg_op(random_unitary(l.dim * h.dim, 53), [l, h])
    mu = bm.MultUnitary(l, w, braiding)

    def at(x, ctx, start):
        return bm.embed_adjacent(x, ctx, start).matrix

    def routed(x, ctx, route):
        return routed_oracle(x, ctx, (1, 3), route, braiding)[0]

    ctx = (h, l, l)
    corep = np.linalg.norm(at(w, ctx, 2) @ at(u, ctx, 1)
                           - at(u, ctx, 1) @ routed(u, ctx, "over") @ at(w, ctx, 2))
    ctx = (l, l, h)
    rep = np.linalg.norm(at(v, ctx, 2) @ at(w, ctx, 1)
                         - at(w, ctx, 1) @ routed(v, ctx, "over") @ at(v, ctx, 2))
    ctx = (l, h, l)
    yd = np.linalg.norm(at(v, ctx, 1) @ routed(w, ctx, "over") @ at(u, ctx, 2)
                        - at(u, ctx, 2) @ routed(w, ctx, "under") @ at(v, ctx, 1))
    module = bm.YDModule(h, u, v)
    for got, want in ((bm.corep_residual(module.as_corep(), mu), corep),
                      (bm.rep_residual(module.as_rep(), mu), rep),
                      (bm.yd_residual(module, mu), yd)):
        assert want > 0.1
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_pairings_match_the_dense_extraction(n):
    # the oracle forms U*12 V23 U12 V*23 whole and extracts it densely; the
    # pairings of the hexagon check pair the tensor square with the module
    module, mu = zn_module(n, 1)
    square = bm.tensor_yd(module, module, mu)
    for first, second in ((square, module), (module, square), (module, module)):
        rep, corep = second.as_rep(), first.as_corep()
        ctx = (corep.space, mu.space, rep.space)
        steps = [(adjoint(rep.op), 2), (corep.op, 1), (rep.op, 2), (adjoint(corep.op), 1)]
        z_dense, residual_dense = dense_extract_distant(leg_product(steps, ctx), ctx, (1, 3),
                                                        "over", mu.braiding)
        z = bm.pairing_unitary(rep, corep, mu)
        _, residual = bm.extract_distant(steps, ctx, (1, 3), "over", mu.braiding)
        np.testing.assert_allclose(z.matrix, z_dense.matrix, rtol=0, atol=1e-14)
        assert abs(residual - residual_dense) < 1e-13


def test_a_pairing_forms_no_three_leg_matrix():
    # the Z6 tensor square pairs with the module on H (x) L (x) K, of dimension
    # 36 * 6 * 6 = 1296: one dense matrix there takes 1296^2 * 16 B = 25.6 MiB,
    # and the dense extraction peaked at 106 MiB
    module, mu = zn_module(6, 1)
    square = bm.tensor_yd(module, module, mu)
    assert mu.commutant_dim == 1      # computed before the trace starts
    tracemalloc.start()
    try:
        braiding = bm.yd_braiding(square, module, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert braiding.matrix.shape == (216, 216)
    assert peak < 1296 ** 2 * 16


@pytest.mark.parametrize("n", [3, 4])
def test_a_pairing_reads_its_partial_trace_off_the_gather(n, monkeypatch):
    # every step of the pairing's word is a monomial, so its partial trace
    # is read off the word's gather, with no block of columns; the oracle
    # forms the word whole and traces it by einsum
    from braidmu import tensor as tensor_module

    def blocked(*args):
        raise AssertionError("a word of gathers ran the blocked trace")

    module, mu = zn_module(n, 2)
    square = bm.tensor_yd(module, module, mu)
    monkeypatch.setattr(tensor_module, "_blocked_trace", blocked)
    for first, second in ((square, module), (module, module)):
        rep, corep = second.as_rep(), first.as_corep()
        ctx = (corep.space, mu.space, rep.space)
        steps = [(adjoint(rep.op), 2), (corep.op, 1), (rep.op, 2), (adjoint(corep.op), 1)]
        z, residual = bm.extract_distant(steps, ctx, (1, 3), "over", mu.braiding)
        z_dense, residual_dense = dense_extract_distant(leg_product(steps, ctx), ctx, (1, 3),
                                                        "over", mu.braiding)
        np.testing.assert_allclose(z.matrix, z_dense.matrix, rtol=0, atol=1e-14)
        assert abs(residual - residual_dense) < 1e-13
