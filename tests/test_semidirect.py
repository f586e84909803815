import numpy as np
import pytest

import braidmu as bm
from braidmu import LegOperator, LegSignature, Space

from conftest import random_unitary, routed_oracle, routing_category


def leg_op(matrix, dom, cod=None):
    return LegOperator(LegSignature(tuple(dom), tuple(cod or dom)), matrix)


def trivial_module(mu, space_id="T"):
    t = Space(space_id, 1)
    return bm.YDModule(t, bm.identity((t, mu.space)), bm.identity((mu.space, t)))


@pytest.fixture(scope="module")
def super_pipeline(super_module):
    """The super module over Z2 with a certified braided unitary on it."""
    mod, w = super_module
    provider = bm.yd_braiding_provider([mod], w)
    problem = bm.SearchProblem(space=mod.space, braiding=provider,
                               constraints=(bm.DegreePreservingConstraint(2),),
                               seed=7, restarts=4, max_iter=300,
                               target_residual=1e-9)
    found = bm.search(problem)
    assert found, "search must at least recover the identity class"
    return w, mod, found[0].mu


def test_fixed_vectors_of_cyclic_groups():
    for n in (2, 3, 4):
        mu = bm.kac_takesaki(bm.cyclic(n))
        fv = bm.fixed_vectors(mu)
        assert fv.dim == 1
        e = fv.basis[0].entries
        expected = np.zeros(n)
        expected[0] = 1.0
        np.testing.assert_allclose(np.abs(e), expected, atol=1e-12)


def test_fixed_vectors_of_the_identity_are_everything():
    l = Space("L", 3)
    mu = bm.MultUnitary(l, bm.identity((l, l)), bm.FlipBraiding())
    assert bm.fixed_vectors(mu).dim == 3


def test_fixed_vector_satisfies_derived_identities(z2, z3):
    for mu in (z2, z3):
        e = bm.fixed_vectors(mu).basis[0]
        assert bm.fixed_vector_identity_residual(mu, e) < 1e-12


def test_semidirect_with_trivial_module_is_the_routed_w(z2):
    mod = trivial_module(z2)
    f = bm.MultUnitary(mod.space, bm.identity((mod.space, mod.space)),
                       bm.FlipBraiding())
    sd = bm.semidirect_product(z2, mod, f)
    ctx = (z2.space, mod.space, z2.space, mod.space)
    w13 = bm.apply_distant(z2.op, ctx, (1, 3), "over", z2.braiding)
    np.testing.assert_allclose(sd.op.matrix, w13.matrix, atol=1e-13)
    assert bm.pentagon_residual(sd) < 1e-12


def test_semidirect_with_trivial_w_embeds_f(super_module):
    # W = id on a one-dimensional space leaves only the F24 factor
    k = Space("K", 1)
    w = bm.MultUnitary(k, bm.identity((k, k)), bm.FlipBraiding())
    mod, _ = super_module
    modw = bm.YDModule(mod.space, bm.identity((mod.space, k)),
                       bm.identity((k, mod.space)))
    f = bm.MultUnitary(mod.space, bm.identity((mod.space, mod.space)),
                       bm.PhaseBraiding(2))
    sd = bm.semidirect_product(w, modw, f)
    ctx = (k, mod.space, k, mod.space)
    f24 = bm.apply_distant(f.op, ctx, (2, 4), "under", w.braiding)
    np.testing.assert_allclose(sd.op.matrix, f24.matrix, atol=1e-13)


def test_semidirect_full_pipeline(super_pipeline):
    w, mod, f_mu = super_pipeline
    sd = bm.semidirect_product(w, mod, f_mu)
    assert bm.pentagon_residual(sd) < 1e-10
    assert bm.is_unitary(sd.op, 1e-10)
    assert sd.space.dim == 4


def test_semidirect_routing_conventions_agree(super_pipeline):
    w, mod, f_mu = super_pipeline
    assert bm.routing_agreement_residual(w, mod, f_mu) < 1e-12


@pytest.mark.parametrize("kind", ["phase3", "yd"])
def test_routing_agreement_residual_matches_the_dense_oracle(kind):
    # random W, U, V and F are no morphisms, so the two crossing conventions
    # of the construction differ; each is multiplied out densely here
    braiding, k, l = routing_category(kind)
    w = bm.MultUnitary(k, leg_op(random_unitary(k.dim ** 2, 91), [k, k]), braiding)
    f = bm.MultUnitary(l, leg_op(random_unitary(l.dim ** 2, 92), [l, l]), braiding)
    u = leg_op(random_unitary(l.dim * k.dim, 93), [l, k])
    v = leg_op(random_unitary(k.dim * l.dim, 94), [k, l])
    ctx = (k, l, k, l)

    def construction(w_route, f_route):
        v34 = bm.embed_adjacent(v, ctx, 3).matrix
        f24 = routed_oracle(f.op, ctx, (2, 4), f_route, braiding)[0]
        u23 = bm.embed_adjacent(u, ctx, 2).matrix
        w13 = routed_oracle(w.op, ctx, (1, 3), w_route, braiding)[0]
        return w13 @ u23 @ v34.conj().T @ f24 @ v34

    want = float(np.linalg.norm(construction("over", "under") - construction("under", "over")))
    assert want > 0.1
    got = bm.routing_agreement_residual(w, bm.YDModule(l, u, v), f)
    assert abs(got - want) <= 1e-13 * want


def test_semidirect_regularity_and_compression(super_pipeline):
    w, mod, f_mu = super_pipeline
    report = bm.semidirect_regularity(w, mod, f_mu)
    assert report.regular
    assert report.rank_c == report.expected_rank == 16
    assert report.fixed_vector_dim == 1
    assert report.compression_matches
    assert report.compression_distance < 1e-8
    d = report.to_dict()
    assert d["routing"] == {"w": "over", "f": "under"}


def test_semidirect_over_z3_with_a_braided_module_category():
    # the module category here is genuinely braided (phase modulus three);
    # the ambient assembly still closes and stays regular
    w3 = np.exp(2j * np.pi / 3)
    pi1 = np.diag([1.0, w3, w3 * w3])
    mod, w = bm.group_yd_module(bm.cyclic(3), [0, 1, 2],
                                [np.eye(3), pi1, pi1 @ pi1])
    provider = bm.yd_braiding_provider([mod], w, include_tensors=False)
    f = bm.MultUnitary(mod.space, bm.identity((mod.space, mod.space)), provider)
    assert bm.pentagon_residual(f) < 1e-12
    assert bm.classify_regularity(f).regular
    report = bm.semidirect_regularity(w, mod, f)
    assert report.regular and report.rank_c == 81
    assert report.fixed_vector_dim == 1
    assert report.compression_matches and report.compression_distance < 1e-8


def test_semidirect_of_identity_control_is_not_regular():
    # both W and F trivial with the degenerate identity braiding: the
    # product is the identity and its regularity collapses
    k = Space("K", 2)
    t = Space("T", 1)
    table = bm.ExplicitBraiding()
    for a in (k, t, bm.tensor_space(k, t)):
        for b in (k, t, bm.tensor_space(k, t)):
            d = a.dim * b.dim
            table.register(leg_op(np.eye(d), [a, b], [b, a]))
    w = bm.MultUnitary(k, bm.identity((k, k)), table)
    mod = bm.YDModule(t, bm.identity((t, k)), bm.identity((k, t)))
    f = bm.MultUnitary(t, bm.identity((t, t)), table)
    report = bm.semidirect_regularity(w, mod, f)
    assert not report.regular
    assert report.rank_c == 1


def test_semidirect_pentagon_gate_rejects_bad_input(z2, super_module):
    mod, _ = super_module
    # a random unitary in place of F is not a module-category multiplicative
    # unitary, and the ambient Pentagon postcondition must catch it
    bad = bm.MultUnitary(mod.space, leg_op(random_unitary(4, 3),
                                           [mod.space, mod.space]),
                         bm.PhaseBraiding(2))
    with pytest.raises(bm.SemidirectError):
        bm.semidirect_product(z2, mod, bad)
