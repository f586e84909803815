import ast
import contextlib
import functools
import importlib
import pkgutil
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidmu as bm
from braidmu import LegError, LegOperator, LegSignature, Space
import braidmu.tensor as tensor_module
from braidmu.braiding import braid_tensor
from braidmu.tensor import PlannedWord, distance, leg_product, route_steps, tensor, total_dim

from conftest import (dense_distance, dense_extract_distant, legs_after, pullback, random_unitary,
                      record, routed_oracle, routing_category, zn_module)

L2 = Space("L", 2)
L3 = Space("M", 3)

# the Z2 Kac-Takesaki operator written out by hand from W(d_g, d_h) = (d_g, d_{g+h}):
# basis order 00, 01, 10, 11 maps to 00, 01, 11, 10
W_Z2 = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def leg_op(matrix, dom, cod=None):
    return LegOperator(LegSignature(tuple(dom), tuple(cod or dom)), matrix)


def test_space_validation():
    with pytest.raises(ValueError):
        Space("x", 0)
    with pytest.raises(ValueError):
        Space("x", 2, (0,))
    assert Space("x", 2, (0, 1)).grading == (0, 1)


def test_matrix_shape_must_match_signature():
    with pytest.raises(LegError):
        leg_op(np.eye(3), [L2, L2])


def test_vector_length_must_match_space():
    with pytest.raises(LegError):
        bm.Vector(L3, np.ones(2))
    v = bm.Vector(L3, np.arange(3))
    assert v.entries.shape == (3,)


def test_compose_identities():
    ident = bm.identity((L2, L2))
    out = bm.compose(ident, ident)
    np.testing.assert_allclose(out.matrix, np.eye(4))


def test_compose_z2_kac_takesaki_with_adjoint_is_identity():
    w = leg_op(W_Z2, [L2, L2])
    out = bm.compose(w, bm.adjoint(w))
    np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-15)


def test_compose_signature_mismatch():
    w = leg_op(W_Z2, [L2, L2])
    with pytest.raises(LegError):
        bm.compose(w, bm.identity((L2, L3)))


def test_tensor_of_identities():
    out = tensor(bm.identity((L2,)), bm.identity((L3,)))
    np.testing.assert_allclose(out.matrix, np.eye(6))
    assert out.domain == (L2, L3)


def test_tensor_interchange_law():
    a = leg_op(random_unitary(2, 1), [L2])
    b = leg_op(random_unitary(3, 2), [L3])
    left = bm.compose(tensor(a, bm.identity((L3,))), tensor(bm.identity((L2,)), b))
    np.testing.assert_allclose(left.matrix, tensor(a, b).matrix, atol=1e-14)


def test_tensor_leg_count():
    w = leg_op(W_Z2, [L2, L2])
    out = tensor(w, bm.identity((L2,)))
    assert len(out.domain) == 3 and len(out.codomain) == 3


def test_adjoint_involution_and_identity():
    np.testing.assert_allclose(bm.adjoint(bm.identity((L3,))).matrix, np.eye(3))
    a = leg_op(np.arange(6, dtype=complex).reshape(3, 2), [L2], [L3])
    back = bm.adjoint(bm.adjoint(a))
    np.testing.assert_allclose(back.matrix, a.matrix)
    assert back.signature == a.signature


def test_adjoint_of_unitary_inverts():
    w = leg_op(W_Z2, [L2, L2])
    np.testing.assert_allclose(bm.compose(bm.adjoint(w), w).matrix, np.eye(4), atol=1e-15)


def test_embed_adjacent_is_a_kron_pattern():
    w = leg_op(W_Z2, [L2, L2])
    ctx = (L2, L2, L2)
    np.testing.assert_allclose(bm.embed_adjacent(w, ctx, 1).matrix, np.kron(W_Z2, np.eye(2)))
    np.testing.assert_allclose(bm.embed_adjacent(w, ctx, 2).matrix, np.kron(np.eye(2), W_Z2))


def test_embed_adjacent_out_of_range():
    w = leg_op(W_Z2, [L2, L2])
    with pytest.raises(LegError):
        bm.embed_adjacent(w, (L2, L2, L2), 3)


def test_embed_adjacent_leg_type_mismatch():
    w = leg_op(W_Z2, [L2, L2])
    with pytest.raises(LegError):
        bm.embed_adjacent(w, (L2, L3, L2), 1)


def test_apply_distant_flip_is_a_permutation_conjugation():
    # with the flip braiding, routing reduces to index permutation:
    # X at legs (1,3) equals S23 X12 S23
    w = leg_op(W_Z2, [L2, L2])
    ctx = (L2, L2, L2)
    flip = bm.FlipBraiding()
    got = bm.apply_distant(w, ctx, (1, 3), "over", flip).matrix
    s23 = bm.embed_adjacent(flip.braid(L2, L2), ctx, 2).matrix
    expected = s23 @ np.kron(W_Z2, np.eye(2)) @ s23
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_apply_distant_identity_is_identity():
    for ctx, (i, k) in (((L2, L2, L2), (1, 3)), ((L2, L3, L2, L3), (1, 4))):
        ident = bm.identity((ctx[i - 1], ctx[k - 1]))
        for route in ("over", "under"):
            out = bm.apply_distant(ident, ctx, (i, k), route, bm.FlipBraiding())
            np.testing.assert_allclose(out.matrix, np.eye(total_dim(ctx)), atol=1e-15)


def test_apply_distant_adjacent_equals_embed_bit_identical():
    w = leg_op(W_Z2, [L2, L2])
    ctx = (L2, L2, L3)
    a = bm.apply_distant(w, ctx, (1, 2), "over", bm.FlipBraiding())
    b = bm.embed_adjacent(w, ctx, 1)
    assert np.array_equal(a.matrix, b.matrix)


def test_apply_distant_leg_mismatch():
    w = leg_op(W_Z2, [L2, L2])
    with pytest.raises(LegError):
        bm.apply_distant(w, (L3, L2, L2), (1, 3), "over", bm.FlipBraiding())


def test_super_braiding_routes_agree_on_morphisms(super_space):
    # the super braiding is symmetric, so over and under coincide on
    # degree-preserving operators
    s = super_space
    pb = bm.PhaseBraiding(2)
    rng = np.random.default_rng(9)
    deg = np.array(s.grading)
    total = (deg[:, None, None, None] + deg[None, :, None, None]
             - deg[None, None, :, None] - deg[None, None, None, :]) % 2 == 0
    m = (rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))) * total
    x = leg_op(m.reshape(4, 4), [s, s])
    over = bm.apply_distant(x, (s, s, s), (1, 3), "over", pb).matrix
    under = bm.apply_distant(x, (s, s, s), (1, 3), "under", pb).matrix
    assert np.linalg.norm(over - under) < 1e-12


def test_phase3_naturality_left_vs_right_conjugation():
    # in a genuinely braided category the symmetric-notation identity is the
    # agreement of left and right conjugation at one crossing sense
    l = Space("L", 3, (0, 1, 2))
    pb = bm.PhaseBraiding(3)
    rng = np.random.default_rng(5)
    deg = np.array(l.grading)
    mask = (deg[:, None, None, None] + deg[None, :, None, None]
            - deg[None, None, :, None] - deg[None, None, None, :]) % 3 == 0
    m = ((rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)) * mask).reshape(9, 9)
    ctx = (l, l, l)
    c12 = bm.embed_adjacent(pb.braid(l, l), ctx, 1).matrix
    c23 = bm.embed_adjacent(pb.braid(l, l), ctx, 2).matrix
    x23 = np.kron(np.eye(3), m)
    x12 = np.kron(m, np.eye(3))
    lhs = c12 @ x23 @ np.linalg.inv(c12)
    rhs = np.linalg.inv(c23) @ x12 @ c23
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_extract_distant_round_trip():
    ctx = (L2, L3, L2)
    x = leg_op(random_unitary(4, 3), [L2, L2])
    placed = bm.apply_distant(x, ctx, (1, 3), "over", bm.FlipBraiding())
    z, residual = bm.extract_distant(placed, ctx, (1, 3), "over", bm.FlipBraiding())
    assert residual < 1e-12
    np.testing.assert_allclose(z.matrix, x.matrix, atol=1e-12)


def test_extract_distant_under_route_round_trip():
    l = Space("L", 3, (0, 1, 2))
    pb = bm.PhaseBraiding(3)
    ctx = (l, l, l)
    x = leg_op(random_unitary(9, 7), [l, l])
    placed = bm.apply_distant(x, ctx, (1, 3), "under", pb)
    z, residual = bm.extract_distant(placed, ctx, (1, 3), "under", pb)
    assert residual < 1e-12
    np.testing.assert_allclose(z.matrix, x.matrix, atol=1e-12)
    # extracting along the wrong route must not reproduce a generic operator
    _, wrong = bm.extract_distant(placed, ctx, (1, 3), "over", pb)
    assert wrong > 1e-3


def test_extract_distant_with_trailing_legs():
    # pre/post identity legs must be traced out correctly
    ctx = (L2, L3, L2, L3)
    x = leg_op(random_unitary(4, 6), [L2, L2])
    placed = bm.apply_distant(x, ctx, (1, 3), "over", bm.FlipBraiding())
    z, residual = bm.extract_distant(placed, ctx, (1, 3), "over", bm.FlipBraiding())
    assert residual < 1e-12
    np.testing.assert_allclose(z.matrix, x.matrix, atol=1e-12)


def test_apply_distant_with_space_changing_operator():
    # a swap placed on distant legs exchanges the context spaces
    a, b = Space("A", 2), Space("B", 3)
    x = bm.FlipBraiding().braid(a, b)
    ctx = (a, L2, b)
    out = bm.apply_distant(x, ctx, (1, 3), "over", bm.FlipBraiding())
    assert out.codomain == (b, L2, a)
    va = np.zeros(2); va[1] = 1
    vm = np.zeros(2); vm[0] = 1
    vb = np.zeros(3); vb[2] = 1
    image = out.matrix @ np.kron(va, np.kron(vm, vb))
    np.testing.assert_allclose(image, np.kron(vb, np.kron(vm, va)), atol=1e-14)


@pytest.mark.parametrize("route", ["over", "under"])
@pytest.mark.parametrize("kind", ["flip", "phase3", "yd"])
def test_routing_matches_the_per_crossing_oracle(kind, route):
    braiding, a, b = routing_category(kind)
    rng = np.random.default_rng(11)
    # 1, 2 and 3 intermediate legs, with idle legs before and after
    for context, positions in (((a, b, b), (1, 3)),
                               ((b, a, b, a, b), (2, 5)),
                               ((a, b, a, b, b, a), (1, 5))):
        i, k = positions
        dom = (context[i - 1], context[k - 1])
        for cod in (dom, dom[::-1]):  # the second one changes the spaces
            d, c = total_dim(dom), total_dim(cod)
            x = leg_op(rng.normal(size=(c, d)) + 1j * rng.normal(size=(c, d)), dom, cod)
            expected, legs = routed_oracle(x, context, positions, route, braiding)
            got = bm.apply_distant(x, context, positions, route, braiding)
            assert got.domain == context and got.codomain == legs
            np.testing.assert_allclose(got.matrix, expected, rtol=0, atol=1e-12)
            if cod != dom:
                continue
            y = leg_op(expected, context)
            z, residual = bm.extract_distant(y, context, positions, route, braiding)
            assert residual < 1e-12
            np.testing.assert_allclose(z.matrix, x.matrix, rtol=0, atol=1e-12)


def test_extract_distant_identity():
    ident = bm.identity((L2, L3, L2))
    z, residual = bm.extract_distant(ident, (L2, L3, L2), (1, 3), "over",
                                     bm.FlipBraiding())
    assert residual < 1e-13
    np.testing.assert_allclose(z.matrix, np.eye(4), atol=1e-13)


def brute_force_extract(y, ctx, positions, braiding):
    """Independent least-squares oracle over an explicit operator basis."""
    i, k = positions
    a, b = ctx[i - 1], ctx[k - 1]
    d = a.dim * b.dim
    cols = []
    for r in range(d):
        for c in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[r, c] = 1.0
            op = LegOperator(LegSignature((a, b), (a, b)), e)
            cols.append(bm.apply_distant(op, ctx, positions, "over", braiding)
                        .matrix.reshape(-1))
    design = np.array(cols).T
    coeffs, *_ = np.linalg.lstsq(design, y.matrix.reshape(-1), rcond=None)
    residual = np.linalg.norm(design @ coeffs - y.matrix.reshape(-1))
    return coeffs.reshape(d, d), float(residual)


def test_extract_distant_nonfactorizable_matches_brute_force():
    # W12 acts nontrivially on leg 2, so it cannot factor through legs (1,3)
    w = leg_op(W_Z2, [L2, L2])
    ctx = (L2, L2, L2)
    w12 = bm.embed_adjacent(w, ctx, 1)
    z, residual = bm.extract_distant(w12, ctx, (1, 3), "over", bm.FlipBraiding())
    z_oracle, residual_oracle = brute_force_extract(w12, ctx, (1, 3), bm.FlipBraiding())
    assert residual > 0.5
    assert abs(residual - residual_oracle) < 1e-10
    np.testing.assert_allclose(z.matrix, z_oracle, atol=1e-10)


def test_is_unitary():
    assert bm.is_unitary(bm.identity((L3,)), 1e-12)
    assert bm.is_unitary(leg_op(W_Z2, [L2, L2]), 1e-12)
    assert not bm.is_unitary(leg_op(2 * np.eye(2), [L2]), 1e-12)
    with pytest.raises(LegError):
        bm.is_unitary(leg_op(np.zeros((3, 2)), [L2], [L3]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_compose_associativity(seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 4, size=4)
    spaces = [Space(f"s{i}", int(d)) for i, d in enumerate(dims)]
    def rand(d, c):
        m = rng.normal(size=(c.dim, d.dim)) + 1j * rng.normal(size=(c.dim, d.dim))
        return LegOperator(LegSignature((d,), (c,)), m)
    x = rand(spaces[2], spaces[3])
    y = rand(spaces[1], spaces[2])
    z = rand(spaces[0], spaces[1])
    left = bm.compose(bm.compose(x, y), z)
    right = bm.compose(x, bm.compose(y, z))
    assert np.linalg.norm(left.matrix - right.matrix) < 1e-13 * max(
        1.0, np.linalg.norm(left.matrix))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjoint_reverses_products(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    s = Space("s", d)
    a = LegOperator(LegSignature((s,), (s,)),
                    rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    b = LegOperator(LegSignature((s,), (s,)),
                    rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lhs = bm.adjoint(bm.compose(a, b))
    rhs = bm.compose(bm.adjoint(b), bm.adjoint(a))
    np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)


def test_extract_distant_builds_each_crossing_once(monkeypatch):
    # one move and one back crossing; the residual reuses both
    from braidmu import braiding
    real, calls = braiding.braid_steps, []

    def counting(provider, left, right):
        calls.append((tuple(left), tuple(right)))
        return real(provider, left, right)

    ctx = (L2, L3, L3, L2)
    x = leg_op(random_unitary(4, 9), [L2, L2])
    placed = bm.apply_distant(x, ctx, (1, 4), "over", bm.FlipBraiding())
    monkeypatch.setattr(braiding, "braid_steps", counting)
    z, residual = bm.extract_distant(placed, ctx, (1, 4), "over", bm.FlipBraiding())
    assert calls == [((L2,), (L3, L3)), ((L3, L3), (L2,))]
    assert residual < 1e-12
    np.testing.assert_allclose(z.matrix, x.matrix, atol=1e-12)


@pytest.mark.parametrize("positions", [(3, 1), (1, 1), (2, 4)])
def test_extract_distant_rejects_positions_out_of_range(positions):
    ctx = (L2, L2, L2)
    with pytest.raises(LegError, match=r"positions .* out of range for a 3-leg context"):
        bm.extract_distant(bm.identity(ctx), ctx, positions, "over", bm.FlipBraiding())


def _extraction_cases():
    """Every extract_distant case of the tests above, as (y, context,
    positions, route, braiding): the round trips, the wrong route, trailing
    legs, two intermediate legs, the identity, a factor that does not
    factor, and the routing categories' operators over both routes."""
    flip, l3 = bm.FlipBraiding(), Space("L", 3, (0, 1, 2))
    under = bm.apply_distant(leg_op(random_unitary(9, 7), [l3, l3]), (l3,) * 3, (1, 3),
                             "under", bm.PhaseBraiding(3))
    cases = {
        "round-trip": (bm.apply_distant(leg_op(random_unitary(4, 3), [L2, L2]), (L2, L3, L2),
                                        (1, 3), "over", flip), (L2, L3, L2), (1, 3), "over", flip),
        "under": (under, (l3,) * 3, (1, 3), "under", bm.PhaseBraiding(3)),
        "wrong-route": (under, (l3,) * 3, (1, 3), "over", bm.PhaseBraiding(3)),
        "trailing-legs": (bm.apply_distant(leg_op(random_unitary(4, 6), [L2, L2]),
                                           (L2, L3, L2, L3), (1, 3), "over", flip),
                          (L2, L3, L2, L3), (1, 3), "over", flip),
        "two-between": (bm.apply_distant(leg_op(random_unitary(4, 9), [L2, L2]),
                                         (L2, L3, L3, L2), (1, 4), "over", flip),
                        (L2, L3, L3, L2), (1, 4), "over", flip),
        "identity": (bm.identity((L2, L3, L2)), (L2, L3, L2), (1, 3), "over", flip),
        "nonfactorizable": (bm.embed_adjacent(leg_op(W_Z2, [L2, L2]), (L2,) * 3, 1), (L2,) * 3,
                            (1, 3), "over", flip),
    }
    rng = np.random.default_rng(11)
    for kind in ("flip", "phase3", "yd"):
        braiding, a, b = routing_category(kind)
        for context, positions in (((a, b, b), (1, 3)), ((b, a, b, a, b), (2, 5)),
                                   ((a, b, a, b, b, a), (1, 5)), ((b, a, b), (2, 3))):
            dom = (context[positions[0] - 1], context[positions[1] - 1])
            d = total_dim(dom)
            x = leg_op(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), dom)
            for route in ("over", "under"):
                y = leg_op(bm.apply_distant(x, context, positions, route, braiding).matrix,
                           context)
                cases[f"{kind}-{len(context)}-legs-{route}"] = (y, context, positions, route,
                                                                braiding)
    return cases


@pytest.mark.parametrize("name", list(_extraction_cases()))
def test_extract_distant_matches_the_dense_oracle(name):
    # the streamed partial trace adds each entry's terms in the oracle's order
    y, context, positions, route, braiding = _extraction_cases()[name]
    z, residual = bm.extract_distant(y, context, positions, route, braiding)
    z_dense, residual_dense = dense_extract_distant(y, context, positions, route, braiding)
    np.testing.assert_allclose(z.matrix, z_dense.matrix, rtol=0, atol=1e-14)
    assert residual == pytest.approx(residual_dense, rel=1e-12, abs=1e-13)


def test_extract_distant_takes_a_step_list_as_its_product():
    braiding, a, b = routing_category("yd")
    context = (a, b, a)
    rng = np.random.default_rng(5)
    steps = [(leg_op(random_unitary(a.dim * b.dim, 1), [a, b]), 1),
             (leg_op(rng.normal(size=(6, 6)) + 0j, [b, a]), 2)]
    z, residual = bm.extract_distant(steps, context, (1, 3), "over", braiding)
    z_op, residual_op = bm.extract_distant(leg_product(steps, context), context, (1, 3),
                                           "over", braiding)
    np.testing.assert_allclose(z.matrix, z_op.matrix, rtol=0, atol=1e-13)
    assert residual == pytest.approx(residual_op, rel=1e-12)
    # a word that ends on other legs is no endomorphism of the context
    with pytest.raises(LegError, match="endomorphism of the full context"):
        bm.extract_distant([(braiding.braid(a, b), 1)], context, (1, 3), "over", braiding)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(1, 4),
       st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(1, 3),
       st.integers(0, 2 ** 31 - 1))
def test_apply_on_legs_matches_the_embedded_product(dims, k, out_dims, cols, seed):
    # every start position, with codomain legs that differ from the domain legs
    rng = np.random.default_rng(seed)
    context = tuple(Space(f"s{j}", d) for j, d in enumerate(dims))
    k = min(k, len(context))
    cod_legs = tuple(Space(f"t{j}", d) for j, d in enumerate(out_dims))
    for start in range(1, len(context) - k + 2):
        dom = context[start - 1:start - 1 + k]
        for cod in (dom, cod_legs):
            c, d = total_dim(cod), total_dim(dom)
            op = leg_op(rng.normal(size=(c, d)) + 1j * rng.normal(size=(c, d)), dom, cod)
            x = rng.normal(size=(total_dim(context), cols))
            dense = bm.embed_adjacent(op, context, start)
            got = bm.apply_on_legs(op, x, context, start)
            np.testing.assert_allclose(got, dense.matrix @ x, rtol=0, atol=1e-12)
            assert PlannedWord([(op, start)], context).codomain == dense.codomain


def test_apply_on_legs_rejects_misplaced_operators():
    w = leg_op(W_Z2, [L2, L2])
    with pytest.raises(LegError, match="cannot embed a 2-leg operator at position 3"):
        bm.apply_on_legs(w, np.eye(8), (L2, L2, L2), 3)
    with pytest.raises(LegError, match="do not match context legs"):
        bm.apply_on_legs(w, np.eye(12), (L2, L3, L2), 1)
    with pytest.raises(LegError, match="no rows"):
        bm.apply_on_legs(w, np.eye(4), (L2, L2, L2), 1)


def test_leg_product_matches_the_composed_embeddings():
    # a space-changing step in the middle moves the legs the later steps act on
    a, b = Space("A", 2), Space("B", 3)
    flip = bm.FlipBraiding()
    u = leg_op(random_unitary(6, 31), [a, b])
    v = leg_op(random_unitary(6, 32), [b, a])
    w = leg_op(random_unitary(4, 33), [a, a])
    context = (a, b, a)
    steps = [(u, 1), (flip.braid(a, b), 1), (v, 1), (w, 2)]
    dense = bm.identity(context)
    for op, start in steps:
        dense = bm.compose(bm.embed_adjacent(op, dense.codomain, start), dense)
    got = leg_product(steps, context)
    assert got.signature == dense.signature == LegSignature((a, b, a), (b, a, a))
    np.testing.assert_allclose(got.matrix, dense.matrix, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- crossings


def crossing_provider(kind):
    """Flip, phase m=3, or the inverse provider of either."""
    base = bm.FlipBraiding() if kind.startswith("flip") else bm.PhaseBraiding(3)
    return base.inverse() if kind.endswith("inverse") else base


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["flip", "phase", "flip inverse", "phase inverse"]),
       gradings=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                         min_size=2, max_size=4),
       data=st.data())
def test_a_crossing_acts_as_its_padded_matrix(kind, gradings, data):
    context = tuple(Space(f"S{i}", len(g), tuple(g)) for i, g in enumerate(gradings))
    start = data.draw(st.integers(1, len(context) - 1), label="start")
    cols = data.draw(st.integers(1, 3), label="cols")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    c = crossing_provider(kind).braid(context[start - 1], context[start])
    assert type(c) is LegOperator and c.gather is not None
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(total_dim(context), cols)) + 1j * rng.normal(size=(total_dim(context), cols))
    got = bm.apply_on_legs(c, x, context, start)
    want = bm.embed_adjacent(c, context, start).matrix @ x
    if kind.startswith("flip"):
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert (PlannedWord([(c, start)], context).codomain
            == bm.embed_adjacent(c, context, start).codomain)


def test_the_adjoint_of_a_crossing_is_a_crossing():
    """The adjoint of a flip or phase crossing is the crossing of the swapped
    legs with the conjugate phases, which the provider's closed-form inverse
    builds; the inverse provider's inverse is the base crossing again."""
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    for provider in (bm.FlipBraiding(), bm.PhaseBraiding(3)):
        c, star = provider.braid(a, b), provider.braid_inverse(a, b)
        assert type(star) is LegOperator
        assert star.signature == LegSignature((b, a), (a, b))
        np.testing.assert_array_equal(star.matrix, bm.adjoint(c).matrix)
        np.testing.assert_array_equal(star.matrix, c.matrix.conj().T)
        np.testing.assert_array_equal(bm.adjoint(star).matrix, c.matrix)
        again = provider.inverse().braid_inverse(b, a)
        assert bits(again.matrix) == bits(c.matrix) and again.signature == c.signature


def test_crossing_validates_its_phase_table():
    a, b = Space("A", 2), Space("B", 3)
    assert bm.crossing(a, b).signature == LegSignature((a, b), (b, a))
    with pytest.raises(LegError, match="does not match"):
        bm.crossing(a, b, np.ones((3, 2)))
    with pytest.raises(LegError, match="modulus one"):
        bm.crossing(a, b, np.full((2, 3), 0.5))
    for bad in (np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)):
        phases = np.ones((2, 3), dtype=complex)
        phases[1, 2] = bad
        with pytest.raises(LegError, match="finite with modulus one"):
            bm.crossing(a, b, phases)


def test_the_package_name_tensor_is_the_module():
    # the kron helper stays in the module, where a plain import finds the module
    import braidmu.tensor as imported
    assert imported is tensor_module
    assert isinstance(bm.tensor, types.ModuleType) and bm.tensor.tensor is tensor


def test_every_exported_name_resolves():
    # a stale export, such as a deleted class left in an __all__ or in the
    # package's imports, is named here
    for info in pkgutil.iter_modules(bm.__path__):
        module = importlib.import_module(f"braidmu.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    for node in ast.walk(ast.parse(Path(bm.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." + (node.module or ""), "braidmu")
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, (node.module, missing)


def spy_gathers(monkeypatch) -> list:
    """The operand of every gather (``_gather``) from here on; a step that
    reaches none is a matmul, and a crossing's step is ``c.gather``."""
    seen = []
    real = tensor_module._gather
    monkeypatch.setattr(tensor_module, "_gather",
                        lambda g, *rest: seen.append(g) or real(g, *rest))
    return seen


def run_once(op):
    """op on the leading legs of a context with one leg after it, on the identity."""
    ctx = op.domain + (L2,)
    return bm.apply_on_legs(op, np.eye(total_dim(ctx)), ctx, 1)


def test_explicit_crossings_take_the_gather_or_the_gemm_path(monkeypatch):
    """A Yetter-Drinfeld table entry and its inverses are phase monomials, and
    a table entry copied from a flip a permutation matrix: each is a plain
    operator that takes the gather it is read as.  A flip crossing takes its
    own gather, and a dense table entry the matmul."""
    provider, p, q = routing_category("yd")
    table = bm.ExplicitBraiding()
    table.register(bm.FlipBraiding().braid(p, q))
    table.register(leg_op(random_unitary(6, 78), [q, p], [p, q]))
    seen = spy_gathers(monkeypatch)
    yd = [provider.braid(p, q), provider.braid_inverse(q, p), provider.inverse().braid(p, q)]
    copied = [table.braid(p, q), table.braid_inverse(p, q)]
    for c in (*yd, *copied):
        assert type(c) is LegOperator
        run_once(c)
    assert seen == [c.gather for c in (*yd, *copied)] and None not in seen
    assert all(c.gather.coefficients is not None for c in yd)
    dense = table.braid(q, p)
    run_once(dense)
    assert dense.gather is None and len(seen) == 5
    flip = bm.FlipBraiding().braid(p, q)
    bm.apply_on_legs(flip, np.eye(p.dim * q.dim, dtype=complex), (p, q), 1)
    assert seen[5:] == [flip.gather]


def test_only_monomials_take_the_gather(monkeypatch):
    """A square matrix with one nonzero in each row and column takes the
    gather it is read as, whatever its entries: a Z3 phase monomial, the
    diagonal phase rep V of a Z5 module, a Yetter-Drinfeld table, a
    near-permutation with an entry 1 - 2^-53, the Kac-Takesaki W and the
    corepresentation U of the module.  A dense unitary, an isometry and a
    matrix with two nonzeros in one row take the matmul; flip and phase
    crossings their own gathers."""
    omega = np.exp(2j * np.pi / 3)
    perm3 = np.eye(3)[[2, 0, 1]]
    near = np.eye(4)[[1, 0, 3, 2]].astype(complex)
    near[2, 3] = 1 - 2.0 ** -53
    # three nonzeros, and each row's first nonzero in another column, but
    # row 0 is empty and row 1 holds two
    two_in_a_row = np.array([[0, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=complex)
    module, mu = zn_module(5, 1)
    provider, p, q = routing_category("yd")
    monomials = [leg_op(np.diag(omega ** np.arange(3)) @ perm3, [L3]),   # a Z3 phase monomial
                 module.rep,                                           # diag phases of Z5
                 provider.braid(p, q),                                 # a YD table
                 leg_op(near, [L2, L2]),
                 mu.op, module.corep]
    matmul = [leg_op(random_unitary(4, 5), [L2, L2]),
              leg_op(np.eye(3)[:, :2], [L2], [L3]),                     # an isometry
              leg_op(two_in_a_row, [L3])]
    seen = spy_gathers(monkeypatch)
    for op in matmul:
        assert op.gather is None
        run_once(op)
    assert seen == []
    for op in monomials:
        run_once(op)
    assert seen == [op.gather for op in monomials] and None not in seen
    # each coefficient is the entry it was read from
    for op in monomials:
        g = op.gather
        want = op.matrix[np.arange(g.source.size), g.source]
        np.testing.assert_array_equal(want, 1 if g.coefficients is None else g.coefficients[:, 0])
    assert monomials[3].gather.coefficients[2, 0] == 1 - 2.0 ** -53
    crossings = [bm.FlipBraiding().braid(L2, L3), bm.PhaseBraiding(3).braid(p, q)]
    for c in crossings:
        run_once(c)
    assert seen[len(monomials):] == [c.gather for c in crossings]


def bits(a: np.ndarray) -> bytes:
    """The bytes of an array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 1)], ids=["h=k", "h<k", "h>k"])
@pytest.mark.parametrize("kind", ["flip", "phase", "flip inverse", "phase inverse"])
def test_a_crossing_runs_as_its_own_gather(monkeypatch, kind, dims):
    """A crossing's step is the gather read once from its matrix, whose
    entries are the provider's phase table: its values are the axis swap's
    bit for bit, and the provider's inverse crossing's gather is its
    gather's adjoint."""
    inspected = []
    real = tensor_module._monomial
    monkeypatch.setattr(tensor_module, "_monomial", lambda m: inspected.append(m) or real(m))
    h, k = dims
    a, b = Space("A", h, tuple(range(1, h + 1))), Space("B", k, tuple(range(2, k + 2)))
    context = (Space("P", 2, (0, 1)), a, b, Space("Q", 3, (0, 1, 2)))
    provider = crossing_provider(kind)
    c, inverse = provider.braid(a, b), provider.braid_inverse(a, b)
    # c sends e_i (x) e_j to phases[i, j] e_j (x) e_i; the inverse provider's
    # c is the base's c_{B,A} inverted, so its table is the base's conjugated
    phases = np.einsum("jiij->ij", c.matrix.reshape(k, h, h, k))
    assert np.count_nonzero(c.matrix) == h * k
    if kind.startswith("flip"):
        assert np.all(phases == 1)
    else:
        q = bm.PhaseBraiding(3).q
        table = np.array([[q ** ((da * db) % 3) for db in b.grading] for da in a.grading])
        assert bits(phases) == bits(table.conj() if kind.endswith("inverse") else table)
    rng = np.random.default_rng(h * 10 + k)
    x = rng.normal(size=(total_dim(context), 4)) + 1j * rng.normal(size=(total_dim(context), 4))
    # the oracle: the rows (pre, H, K, rest) swapped to (pre, K, H, rest),
    # times the phase of each (i, j) at its new place (j, i)
    want = x.reshape(2, h, k, -1).transpose(0, 2, 1, 3)
    if not kind.startswith("flip"):
        want = want * phases.T[:, :, None]
    got = bm.apply_on_legs(c, x, context, 2)
    assert got.dtype == complex and bits(got) == bits(want.reshape(got.shape))
    assert (c.gather.coefficients is None) == kind.startswith("flip")
    star, g = inverse.gather, c.gather.adjoint()
    assert bits(star.source) == bits(g.source)
    assert (star.coefficients is None and g.coefficients is None
            or bits(star.coefficients) == bits(g.coefficients))
    back = bm.apply_on_legs(inverse, got, legs_after(c, context, 2), 2)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-14)
    # each matrix is read once, however often it runs
    assert bits(bm.apply_on_legs(c, x, context, 2)) == bits(got)
    assert len(inspected) == 2


def test_an_operator_is_inspected_once(monkeypatch):
    """The gather is found once per operator: a second word over the same
    operator, and its pullback, inspect nothing."""
    calls = []
    real = tensor_module._monomial
    monkeypatch.setattr(tensor_module, "_monomial", lambda m: calls.append(m) or real(m))
    w = leg_op(W_Z2, [L2, L2])
    f = leg_op(random_unitary(2, 7), [L2])
    context = (L2, L2, L2)
    for _ in range(2):
        word = PlannedWord([(w, 1), (f, 3), (w, 2)], context, f)
        word.pullback(word.forward(f.matrix), np.eye(8), f.matrix.conj().T)
    assert len(calls) == 1 and calls[0] is w.matrix
    assert w.gather is not None and f.gather is None
    # only the cached property inspects a matrix, and only a step gathers
    assert references("_monomial") == [("tensor", "LegOperator.gather")]
    assert references("_gather") == [("tensor", "_step")]


@contextlib.contextmanager
def matmul_only():
    """Operators first placed inside take the matmul, as before gathers."""
    with mock.patch.object(tensor_module, "_monomial", lambda m: None):
        yield


def signed_permutation(rng, n, identity):
    m = np.zeros((n, n), dtype=complex)
    if identity:
        m[np.arange(n), np.arange(n)] = 1
    else:
        m[np.arange(n), rng.permutation(n)] = rng.choice(np.array([1, -1, 1j, -1j]), n)
    return m


@settings(max_examples=60, deadline=None)
@given(pre_dims=st.lists(st.integers(2, 3), min_size=1, max_size=2),
       dom_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       post_dims=st.lists(st.integers(1, 3), max_size=2),
       cod_split=st.booleans(), identity=st.booleans(), cols=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1))
def test_gathers_equal_the_matmul(pre_dims, dom_dims, post_dims, cod_split, identity, cols,
                                  seed):
    """run, columns, forward and pullback of words whose fixed steps are
    signed permutations (entries 1, -1, i or -i), onto codomain legs other
    than their domain legs and back, equal the same words run by matmul
    exactly (assert_array_equal, which takes -0.0 for 0.0), and are complex
    as the matmul's are."""
    rng = np.random.default_rng(seed)
    pre = tuple(Space(f"p{j}", d) for j, d in enumerate(pre_dims))
    dom = tuple(Space(f"d{j}", d) for j, d in enumerate(dom_dims))
    post = tuple(Space(f"q{j}", d) for j, d in enumerate(post_dims))
    n = total_dim(dom)
    # the same total dimension on other legs: one leg, or two where n splits
    cod = ((Space("c0", 2), Space("c1", n // 2)) if cod_split and n % 2 == 0 and n > 2
           else (Space("c", n),))
    context, start = pre + dom + post, len(pre) + 1
    matrices = signed_permutation(rng, n, identity), signed_permutation(rng, n, identity)
    f_matrix = random_unitary(pre[0].dim, seed % 1000)

    def words():
        g, h = leg_op(matrices[0], dom, cod), leg_op(matrices[1], cod, dom)
        f = leg_op(f_matrix, pre[:1])
        fixed = PlannedWord([(g, start), (h, start)], context)
        slot = PlannedWord([(g, start), (f, 1), (h, start), (f, 1)], context, f)
        return g, h, f, fixed, slot

    g, h, f, fixed, slot = words()
    with matmul_only():
        *_, fixed_mm, slot_mm = words()
    assert g.gather is not None and h.gather is not None
    x = rng.normal(size=(total_dim(context), cols))         # real; the products are complex
    big = total_dim(context)
    cot = rng.normal(size=(big, big)) + 1j * rng.normal(size=(big, big))
    pairs = [(fixed.run(x), fixed_mm.run(x)),
             (fixed.columns(1, big), fixed_mm.columns(1, big))]
    prefixes, prefixes_mm = slot.forward(f.matrix), slot_mm.forward(f.matrix)
    pairs += zip(prefixes, prefixes_mm)
    pairs += zip(slot.pullback(prefixes, cot, f.matrix.conj().T),
                 slot_mm.pullback(prefixes_mm, cot, f.matrix.conj().T))
    for got, want in pairs:
        assert got.dtype == want.dtype == complex
        np.testing.assert_array_equal(got, want)


EPS = np.finfo(float).eps / 2          # the unit roundoff u


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), the bound of k roundings."""
    return k * EPS / (1 - k * EPS)


def monomial_matrix(rng, n, values):
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), rng.permutation(n)] = values
    return m


def general_values(rng, n):
    """Nonzero complex values of moduli from e^-3 to e^3."""
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.exp(rng.uniform(-3, 3, n))


@settings(max_examples=60, deadline=None)
@given(pre_dims=st.lists(st.integers(1, 3), max_size=2),
       dom_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       post_dims=st.lists(st.integers(1, 3), max_size=2), cols=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1))
def test_gathers_of_any_entries_match_the_matmul(pre_dims, dom_dims, post_dims, cols, seed):
    """run and columns of a word of two monomials with general nonzero
    complex entries agree with the same word run by matmul to the rounding of
    their complex products, where the bits may differ: numpy's product and
    BLAS's each err by at most sqrt(2) gamma_2 |c||x| (Higham, Lemma 3.5),
    so one product step differs by 2 sqrt(2) gamma_2 |c||x| per entry, and
    k chained steps by 2 ((1 + sqrt(2) gamma_2)^k - 1) |c||x|."""
    rng = np.random.default_rng(seed)
    pre, dom, post = ([Space(f"{tag}{j}", d) for j, d in enumerate(dims)]
                      for tag, dims in (("p", pre_dims), ("d", dom_dims), ("q", post_dims)))
    context, start, n = (*pre, *dom, *post), len(pre) + 1, total_dim(dom)
    matrices = [monomial_matrix(rng, n, general_values(rng, n)) for _ in range(2)]

    def word(ms):
        return PlannedWord([(leg_op(ms[0], dom), start), (leg_op(ms[1], dom), start)], context)

    fixed = word(matrices)
    with matmul_only():
        fixed_mm = word(matrices)
    size = word([np.abs(m) for m in matrices])      # |c| along each entry's path
    assert fixed.gather is not None and fixed_mm.gather is None
    big = total_dim(context)
    x = rng.normal(size=(big, cols)) + 1j * rng.normal(size=(big, cols))
    step = 2 ** 0.5 * gamma(2)
    lo = big // 2
    # run multiplies twice; columns scatter the first step's entries, exactly
    for got, want, bound, products in [
            (fixed.run(x), fixed_mm.run(x), size.run(np.abs(x)), 2),
            (fixed.columns(lo, big), fixed_mm.columns(lo, big), size.columns(lo, big), 1)]:
        assert got.dtype == want.dtype == complex
        assert np.all(np.abs(got - want) <= 2 * ((1 + step) ** products - 1) * bound)


# ---------------------------------------------------------------- reverse mode


def padded(op, context, start):
    """1 (x) op (x) 1 on the legs ``start ..`` of the context, by np.kron."""
    pre = total_dim(context[:start - 1])
    post = total_dim(context[start - 1 + len(op.domain):])
    return np.kron(np.eye(pre), np.kron(op.matrix, np.eye(post))), pre, post


def slot_cotangents(steps, context, cot):
    """Each step's cotangent, from the word planned with that step's factor as
    its slot: the slot's cotangents come in step order, one per occurrence."""
    got = []
    for j, (op, _) in enumerate(steps):
        word = PlannedWord(steps, context, op)
        grads = word.pullback(word.forward(op.matrix), cot, bm.adjoint(op).matrix)
        assert len(grads) == sum(other is op for other, _ in steps)
        got.append(grads[sum(other is op for other, _ in steps[:j])])
    return got


def test_pullback_matches_the_dense_kron_oracle():
    """Each step's cotangent is the partial trace of After* P Before*, for a
    word with a space-changing factor, a flip crossing, a dense explicit
    (Yetter-Drinfeld) crossing and a factor routed past a leg."""
    yd, p, q = routing_category("yd")
    u = leg_op(random_unitary(6, 61), [p, q], [q, p])
    w = leg_op(random_unitary(9, 62), [p, p])
    context = (p, q, p)
    steps = [(u, 1), (bm.FlipBraiding().braid(p, p), 2), (yd.braid(q, p), 1)]
    legs = context
    for op, start in steps:
        legs = legs_after(op, legs, start)
    assert legs == (p, q, p)
    steps += route_steps(w, legs, (1, 3), "over", yd)
    assert len(steps) == 6
    # a flip crossing, then an entry of the explicit table
    assert steps[1][0].gather.coefficients is None and yd.kind == "explicit"
    # dense factors and the legs each step starts from
    factors, legs = [], context
    for op, start in steps:
        factors.append((*padded(op, legs, start), op))
        legs = legs_after(op, legs, start)
    rng = np.random.default_rng(63)
    n_out, n_in = total_dim(legs), total_dim(context)
    cot = rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in))
    got = slot_cotangents(steps, context, cot)
    assert len(got) == len(steps)
    # a slot's cotangents are the reference tape's for its own steps, bit for bit
    routed = [j for j, (op, _) in enumerate(steps) if op is w]
    assert len(routed) == 1
    np.testing.assert_array_equal(got[routed[0]], pullback(record(steps, context), cot)[routed[0]])
    for j, (m, pre, post, op) in enumerate(factors):
        before = np.eye(n_in)
        for earlier in factors[:j]:
            before = earlier[0] @ before
        after = np.eye(m.shape[0])
        for later in factors[j + 1:]:
            after = later[0] @ after
        full = after.conj().T @ cot @ before.conj().T
        cod, dom = op.matrix.shape
        want = np.einsum("icjidj->cd", full.reshape(pre, cod, post, pre, dom, post))
        assert got[j].shape == op.matrix.shape
        np.testing.assert_allclose(got[j], want, rtol=0, atol=1e-12 * np.linalg.norm(want))


def test_pullback_rejects_a_cotangent_of_the_wrong_shape():
    w = leg_op(W_Z2, [L2, L2])
    word = PlannedWord([(w, 1), (w, 2)], (L2, L2, L2), w)
    with pytest.raises(LegError, match="cotangent"):
        word.pullback(word.forward(w.matrix), np.eye(4), w.matrix.conj().T)


def test_slot_words_share_one_conjugate_identity():
    """A slot word's forward pass keeps one prefix per step, with no identity
    first; the conjugate identity that a first slot step's pullback reads is
    one read-only array, shared by the words on the same context."""
    w = leg_op(W_Z2, [L2, L2])
    flip = bm.FlipBraiding()
    legs, *words = bm.multunitary.pentagon_words(w, flip.braid(L2, L2),
                                                 flip.braid_inverse(L2, L2))
    lhs, rhs = (PlannedWord(steps, legs, w) for steps in words)
    assert lhs._eye_h.base is rhs._eye_h.base and not lhs._eye_h.flags.writeable
    for steps, word in zip(words, (lhs, rhs)):
        prefixes = word.forward(W_Z2)
        assert len(prefixes) == len(steps)
        np.testing.assert_array_equal(prefixes[-1], leg_product(steps, legs).matrix)


def test_operators_compare_and_hash_by_identity(z2):
    """Operators, and the records that hold them, give plain bools for == and
    in, and hash; two operators with equal matrices are still two operators."""
    flip = bm.FlipBraiding()
    pairs = [(bm.identity((L2,)), bm.identity((L2,))),
             (flip.braid(L2, L3), flip.braid(L2, L3)),
             (bm.Vector(L2, [1, 0]), bm.Vector(L2, [1, 0])),
             (z2, bm.kac_takesaki(bm.cyclic(2))),
             (bm.SearchResult(z2, 0.0, 0, False), bm.SearchResult(bm.dual(z2), 0.0, 0, False))]
    for x, y in pairs:
        assert (x == x) is True and (x == y) is False and (x != y) is True
        assert (x in [y]) is False and (x in [y, x]) is True
        assert len({x, y, x}) == 2
    # records compare their fields, so the same operator makes equal records
    assert bm.SearchResult(z2, 0.0, 0, False) == bm.SearchResult(z2, 0.0, 0, False)


# ---------------------------------------------------------------- streamed distance


def distance_words(kind):
    """(context, lhs, rhs) triples in the category of ``kind``: a crossing
    as the first step, two, three and four legs, words that end on other
    legs than they start from, and routes over and under.  The two sides
    always end in different random factors, so every distance is nonzero."""
    braiding, a, b = routing_category(kind)
    x, x2 = (leg_op(random_unitary(a.dim * b.dim, seed), [a, b]) for seed in (71, 72))
    y, y2 = (leg_op(random_unitary(b.dim * a.dim, seed), [b, a]) for seed in (73, 76))
    w, w2 = (leg_op(random_unitary(a.dim ** 2, seed), [a, a]) for seed in (74, 75))
    cab = braiding.braid(a, b)

    def routed(op, context, positions, route):
        return route_steps(op, context, positions, route, braiding)

    aba, abab, baab = (a, b, a), (a, b, a, b), (b, a, a, b)
    return [
        ((a, b), [(cab, 1), (y, 1)], [(x, 1), (cab, 1)]),
        (aba, [*routed(w, aba, (1, 3), "over"), (x, 1)],
         [*routed(w, aba, (1, 3), "under"), (x2, 1)]),
        (aba, [(cab, 1), (y, 1), (w, 2)], [(x, 1), (cab, 1), (w2, 2)]),
        (abab, [*routed(x, abab, (1, 4), "over"), (y, 2)],
         [*routed(x, abab, (1, 4), "under"), (y2, 2)]),
        (abab, [(cab, 1), *routed(x, baab, (2, 4), "over")],
         [(cab, 1), *routed(x2, baab, (2, 4), "under")]),
    ]


PROVIDER_KINDS = {"flip": "flip", "phase3": "phase", "yd": "explicit"}


@pytest.mark.parametrize("columns", [1, 7, None])
@pytest.mark.parametrize("kind", ["flip", "phase3", "yd"])
def test_distance_matches_the_dense_oracle(monkeypatch, kind, columns):
    """Blocks of one column, of seven, and one block of every column give the
    norm of the difference of the two products formed whole."""
    words = distance_words(kind)
    # a flip or phase crossing, or an entry of the explicit table, leads the words
    braiding, a, b = routing_category(kind)
    assert braiding.kind == PROVIDER_KINDS[kind]
    assert bits(words[0][1][0][0].matrix) == bits(braiding.braid(a, b).matrix)
    for context, lhs, rhs in words:
        rows = total_dim(context)
        budget = 16 * rows * (columns if columns else rows + 1)
        monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", budget)
        want = dense_distance(lhs, rhs, context)
        assert want > 0.1
        assert abs(distance(lhs, rhs, context) - want) <= 1e-13 * want


def test_distance_forms_no_product(monkeypatch):
    """Each block starts from the first step's padded columns: no padded
    matrix, no slot word's forward pass, no run on a given matrix and no
    identity columns."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense product on the distance path")

    context, lhs, rhs = distance_words("phase3")[3]
    want = dense_distance(lhs, rhs, context)
    for name in ("embed_adjacent", "leg_product", "identity", "apply_on_legs"):
        monkeypatch.setattr(tensor_module, name, forbidden)
    for name in ("forward", "run"):
        monkeypatch.setattr(PlannedWord, name, forbidden)
    monkeypatch.setattr(np, "eye", forbidden)
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", 16 * total_dim(context) * 5)
    assert abs(distance(lhs, rhs, context) - want) <= 1e-13 * want


def test_empty_products_are_the_identity():
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    for context in ((a,), (a, b, a)):
        got = leg_product([], context)
        assert got.signature == LegSignature(context, context)
        np.testing.assert_array_equal(got.matrix, np.eye(total_dim(context)))
    for provider in (bm.FlipBraiding(), bm.PhaseBraiding(3), routing_category("yd")[0]):
        for left, right in (((a, b), ()), ((), (b,)), ((), ())):
            got = braid_tensor(provider, left, right)
            assert got.signature == LegSignature(left + right, left + right)
            np.testing.assert_array_equal(got.matrix, np.eye(total_dim(left + right)))


@pytest.mark.parametrize("columns", [1, 7, None])
@pytest.mark.parametrize("kind", ["phase3", "yd"])
def test_column_blocks_are_the_columns_of_the_product(kind, columns):
    """The runner's blocks of one column, of seven and of all columns are the
    product's columns, for words whose first step is a crossing (phase) or an
    explicit braiding (yd), and end on the product's legs."""
    assert routing_category(kind)[0].kind == PROVIDER_KINDS[kind]
    for context, lhs, rhs in distance_words(kind):
        assert lhs[0][0].gather is not None
        for steps in (lhs, rhs):
            whole = leg_product(steps, context)
            word = PlannedWord(steps, context)
            assert word.codomain == whole.codomain
            cols = total_dim(context)
            width = columns or cols
            for lo in range(0, cols, width):
                hi = min(lo + width, cols)
                np.testing.assert_allclose(word.columns(lo, hi), whole.matrix[:, lo:hi],
                                           rtol=0, atol=1e-14)


def test_distance_places_each_word_once(monkeypatch):
    """At one column per block, distance places every step once, not once
    per block."""
    context, lhs, rhs = distance_words("phase3")[3]
    placed, real = [], tensor_module._placed
    monkeypatch.setattr(tensor_module, "_placed",
                        lambda *args: placed.append(args[0]) or real(*args))
    monkeypatch.setattr(tensor_module, "_BLOCK_BYTES", 1)
    assert distance(lhs, rhs, context) > 0.1
    assert len(placed) == len(lhs) + len(rhs)
    # words placed by the caller are run as they are, and must sit on the context
    left, right = PlannedWord(lhs, context), PlannedWord(rhs, context)
    placed.clear()
    assert distance(left, right, context) == distance(lhs, rhs, context)
    assert len(placed) == len(lhs) + len(rhs)
    with pytest.raises(bm.LegError, match="another context"):
        distance(left, right, context[1:])


def test_distance_rejects_words_that_end_on_different_legs():
    a, b = Space("A", 2), Space("B", 3)
    cab = bm.FlipBraiding().braid(a, b)
    x = leg_op(random_unitary(6, 77), [a, b])
    with pytest.raises(LegError, match="end on different legs"):
        distance([(cab, 1)], [(x, 1)], (a, b))


TWELFTH_ROOTS = np.exp(2j * np.pi * np.arange(12) / 12)


def monomial_values(rng, family, n):
    """n monomial entries: units, 12th roots of unity or general values."""
    if family == "units":
        return rng.choice(np.array([1, -1, 1j, -1j]), n)
    if family == "12th roots":
        return TWELFTH_ROOTS[rng.integers(0, 12, n)]
    return general_values(rng, n)


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       family=st.sampled_from(["units", "12th roots", "general"]),
       tail=st.sampled_from(["endomorphism", "round trip", "none"]),
       swap=st.booleans(), data=st.data())
def test_the_closed_form_distance_matches_the_dense_oracle(dims, family, tail, swap, data):
    """Words of monomials, flip and phase crossings (and their inverses) on
    graded legs of unequal dimensions, the empty word among them: the right
    word is the left one with nothing, a step and its inverse (an equal
    product), or one more monomial (an unequal one) inserted.  Both words
    are gathers, and their closed-form distance is the norm of the two
    products formed whole.

    Each entry of a word of s steps is a chain of s - 1 complex products, the
    earlier steps' value times the step's, on both paths; numpy may round
    each product differently in the composition and in the runner's blocks,
    by sqrt(2) gamma_2 (Higham, Lemma 3.5) each, so the two sides' entries
    differ by at most e_s = 2 ((1 + sqrt(2) gamma_2)^(s - 1) - 1) relative,
    p = e_s ||lhs|| + e_t ||rhs|| in norm.  The closed form's terms are the
    oracle's nonzero differences, and the two sum at most 4 rows real
    squares and take a square root: gamma_(4 rows + 2) relative."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    context = tuple(Space(f"S{i}", d, tuple(range(d))) for i, d in enumerate(dims))

    def monomial(legs, start):
        dom = legs[start - 1:start - 1 + data.draw(st.integers(1, min(2, len(legs) - start + 1)))]
        n = total_dim(dom)
        return leg_op(monomial_matrix(rng, n, monomial_values(rng, family, n)), dom)

    def step(legs):
        kinds = ["monomial", "flip", "phase"] if len(legs) > 1 else ["monomial"]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "monomial":
            start = data.draw(st.integers(1, len(legs)))
            return monomial(legs, start), start, None
        start = data.draw(st.integers(1, len(legs) - 1))
        provider = crossing_provider(kind if data.draw(st.booleans()) else f"{kind} inverse")
        return provider.braid(legs[start - 1], legs[start]), start, provider

    lhs, legs, at_legs = [], context, []
    for _ in range(data.draw(st.integers(0, 4))):
        at_legs.append(legs)
        op, start, _ = step(legs)
        lhs.append((op, start))
        legs = legs_after(op, legs, start)
    at_legs.append(legs)
    at = data.draw(st.integers(0, len(lhs)))
    inserted = []
    if tail == "round trip":
        op, start, provider = step(at_legs[at])
        if provider is not None:
            back = provider.braid_inverse(*op.domain)
        else:
            inverse = np.linalg.inv(op.matrix)     # a monomial: the reciprocal entries
            assert np.count_nonzero(inverse) == inverse.shape[0]
            back = leg_op(inverse, op.domain)
        inserted = [(op, start), (back, start)]
    elif tail == "endomorphism":
        start = data.draw(st.integers(1, len(at_legs[at])))
        inserted = [(monomial(at_legs[at], start), start)]
    rhs = [*lhs[:at], *inserted, *lhs[at:]]
    if swap:
        lhs, rhs = rhs, lhs
    left, right = PlannedWord(lhs, context), PlannedWord(rhs, context)
    assert left.gather is not None and right.gather is not None
    want = dense_distance(lhs, rhs, context)
    got = distance(left, right, context)
    products = sum(2 * ((1 + 2 ** 0.5 * gamma(2)) ** max(len(steps) - 1, 0) - 1)
                   * np.linalg.norm(leg_product(steps, context).matrix) for steps in (lhs, rhs))
    sums = gamma(4 * total_dim(context) + 2)
    assert abs(got - want) <= sums * (want + products) + products


def test_monomial_words_take_the_closed_form(monkeypatch, tmp_path, capsys):
    """The Kac-Takesaki Z3 Pentagon residual and routing agreement, and eval
    of pentagon.stmt on a Z5 module bundle, run no column block and no
    gather step: every word is one gather, composed when it is placed, and
    its distance is closed-form.  A dense F, a gauge conjugate of KT Z3,
    still runs blocks.  Two words placed once compose nothing more when
    their distance is taken again."""
    import importlib.resources as resources

    from conftest import gauge_conjugate
    from braidmu.cli import main

    blocks, composed = [], []
    seen = spy_gathers(monkeypatch)
    real_columns, real_compose = PlannedWord.columns, tensor_module._word_gather
    monkeypatch.setattr(PlannedWord, "columns",
                        lambda self, lo, hi: blocks.append(lo) or real_columns(self, lo, hi))
    monkeypatch.setattr(tensor_module, "_word_gather",
                        lambda *args: composed.append(args) or real_compose(*args))
    kt = bm.kac_takesaki(bm.cyclic(3))
    assert bm.pentagon_residual(kt) == 0.0 and bm.multunitary.routing_agreement(kt) == 0.0
    module, mu = zn_module(5, 1)
    bundle = bm.Bundle()
    bundle.spaces.update({mu.space.id: mu.space, module.space.id: module.space})
    bundle.operators.update(W=mu.op, U=module.corep, V=module.rep)
    bundle.groups["Z5"] = bm.cyclic(5)
    bm.save_bundle(bundle, str(tmp_path / "z5.json"))
    stmt = resources.files("braidmu") / "corpus" / "pentagon.stmt"
    assert main(["eval", str(stmt), str(tmp_path / "z5.json")]) == 0
    assert "[pass]" in capsys.readouterr().out
    assert blocks == [] and seen == [] and composed
    assert bm.pentagon_residual(gauge_conjugate(kt, 5)) < 1e-12
    assert blocks
    c = bm.FlipBraiding().braid(kt.space, kt.space)
    legs, *words = bm.multunitary.pentagon_words(kt.op, c, c)
    left, right = (PlannedWord(steps, legs) for steps in words)
    composed.clear()
    assert distance(left, right, legs) == distance(left, right, legs) == 0.0
    assert composed == []


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_monomial_entry_fails_the_pentagon(entry):
    """A Python-built Kac-Takesaki Z3 with one entry NaN or infinite is still
    a monomial, and so a gather; its Pentagon residual is non-finite in
    closed form (the flip) and over blocks (a dense explicit braiding), and
    the Pentagon record fails."""
    kt = bm.kac_takesaki(bm.cyclic(3))
    m = kt.matrix.copy()
    m[4, np.flatnonzero(m[4])[0]] = entry
    op = LegOperator(kt.op.signature, m)
    assert op.gather is not None
    table = bm.ExplicitBraiding()
    table.register(leg_op(random_unitary(9, 79), [kt.space] * 2))
    for braiding, closed in ((kt.braiding, True), (table, False)):
        c = braiding.braid(kt.space, kt.space)
        legs, *words = bm.multunitary.pentagon_words(
            op, c, braiding.braid_inverse(kt.space, kt.space))
        with np.errstate(invalid="ignore", over="ignore"):      # inf - inf, inf * 0
            assert all(PlannedWord(w, legs).gather is not None for w in words) == closed
            residual = bm.pentagon_residual(bm.MultUnitary(kt.space, op, braiding))
        assert not np.isfinite(residual)
        record = bm.multunitary.check_record("pentagon", "residual", residual, 1e-9)
        assert record["pass"] is False and record["nonfinite"] in ("nan", "inf")


# ---------------------------------------------------------------- invariants


def _package_trees():
    """The parsed source of each module of the package, by module name."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(bm.__file__).parent.glob("*.py"))}


@functools.lru_cache(maxsize=None)
def _name_uses():
    """(module, enclosing scope, name) of every bare name, attribute and import
    name in the package source."""
    found = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.alias):
                names = {child.name, child.asname}
            else:
                names = {getattr(child, "attr", None), getattr(child, "id", None)}
            found.extend((module, ".".join(inner), n) for n in names - {None})
            visit(module, child, inner)

    for module, tree in _package_trees().items():
        visit(module, tree, ())
    return tuple(found)


def references(name):
    """(module, enclosing scope) of each use of ``name`` in the package source: a
    bare name, an attribute (np.kron, numpy.kron) or an import; docstrings do
    not count, nor do uses inside a scope of that name, such as a function's
    recursive calls."""
    return [(module, scope) for module, scope, n in _name_uses()
            if n == name and name not in scope.split(".")]


def test_only_the_linear_map_builders_call_kron():
    """np.kron builds linear maps (the tensor product itself, the semi-direct
    isometries, the commutant conditions); no factor is padded with it."""
    uses = set(references("kron"))
    assert ("tensor", "tensor") in uses and ("solver", "CommutantConstraint.conditions") in uses
    stray = {u for u in uses if u[0] != "semidirect"} - {
        ("tensor", "tensor"), ("solver", "CommutantConstraint.conditions")}
    assert stray == set()


def test_only_tensor_calls_embed_adjacent():
    """Every product runs in a tensor.PlannedWord, which alone places steps:
    embed_adjacent is only re-exported by the package, and no module starts
    a product from tensor.identity or from identity columns but a word's
    empty product and the shared identity a slot word's pullback reads."""
    assert references("embed_adjacent") == [("__init__", "")]
    assert references("_placed") == [("tensor", "PlannedWord.__init__")]
    calculus = ("tensor", "braiding", "spans", "multunitary", "dsl", "yd")
    assert [u for u in references("identity") if u[0] in calculus] == []
    assert {u for u in references("eye") if u[0] in calculus} == {
        ("tensor", "identity"), ("tensor", "PlannedWord.columns"),
        ("tensor", "_conjugate_identity"), ("tensor", "_unitarity_residual"),
        ("spans", "OperatorSpan.gram_residual"), ("spans", "null_space")}


def test_only_the_runner_pads_a_first_step():
    """Only PlannedWord runs steps and pads a first step: _step is called by
    its runs and its reverse mode alone, and _scatter writes every padded column,
    for a range of columns or a slot word's forward pass, from _padding
    indices."""
    assert set(references("_step")) == {("tensor", "PlannedWord._run_from"),
                                         ("tensor", "PlannedWord.forward"),
                                         ("tensor", "PlannedWord.pullback")}
    assert set(references("_scatter")) == {("tensor", "PlannedWord.columns"),
                                           ("tensor", "PlannedWord.forward")}
    assert set(references("_padding")) == {("tensor", "PlannedWord.columns"),
                                           ("tensor", "PlannedWord.__init__")}


def test_only_spans_walks_the_extensions():
    """spans owns the coassociativity walk: no other module reads a private
    attribute or method of CrossedProductExtension, and multunitary calls no
    extension helper, only compare_extensions."""
    trees = _package_trees()
    (cls,) = [node for node in trees["spans"].body
              if isinstance(node, ast.ClassDef) and node.name == "CrossedProductExtension"]
    private = {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
               and getattr(node.value, "id", None) == "self" and node.attr.startswith("_")}
    private |= {node.name for node in cls.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_") and not node.name.endswith("__")}
    assert {"_gathered", "_img", "_a", "_dim", "_pad_rows"} <= private
    read = {(module, node.attr) for module, tree in trees.items() if module != "spans"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private}
    assert read == set()
    assert [n for module, _, n in _name_uses() if module == "multunitary"
            and n.lstrip("_").startswith("extension_")] == []
    assert references("compare_extensions") == [("multunitary", "coassociativity_residual")]


# every function or class in a module's __all__ that nothing in the package
# references but the package's re-export, with why it stays
UNREFERENCED = {
    "braiding.check_naturality": "ROADMAP item 3: report-path candidate, naturality",
    "dsl.parse": "bound by bench/: the tracer's dsl.parse span",
    "dsl.evaluate": "bound by bench/: the tracer's dsl.evaluate span; the tests' dense value",
    "dsl.format_expr": "acceptance criterion 10: the parse round trip of every corpus side",
    "semidirect.fixed_vector_identity_residual": "ROADMAP items 3/13: report-path candidate",
    "semidirect.routing_agreement_residual": "ROADMAP item 13: report-path candidate",
    "semidirect.semidirect_regularity": "ROADMAP items 3/13: report-path candidate",
    "solver.residual_objective": "bound by bench/: the tracer's solver.residual_objective span",
    "spans.contains": "dense test oracle: span membership",
    "spans.adjoint_span": "ROADMAP item 3: report-path candidate, the C*-conditions",
    "spans.is_algebra": "ROADMAP item 3: report-path candidate, the C*-conditions",
    "spans.is_star_closed": "ROADMAP item 3: report-path candidate, the C*-conditions",
    "spans.is_nondegenerate": "ROADMAP item 3: report-path candidate, the C*-conditions",
    "spans.crossed_product": "bound by bench/: the tracer's spans.crossed_product span",
    "tensor.apply_on_legs": "public one-step API; the tests' step reference",
    "tensor.tensor": "bound by bench/: the tracer's tensor.tensor span; dense test oracle",
    "tensor.embed_adjacent": "bound by bench/: the tracer's tensor.embed_adjacent span; "
                             "dense test oracle",
    "tensor.apply_distant": "bound by bench/: the tracer's tensor.apply_distant span; "
                            "dense test oracle",
    "yd.tensor_rep": "test oracle: the over route that _yd_tensor_rep must equal",
    "yd.yd_braiding_provider": "bound by bench/: the legcalc workload and a tracer span",
    "yd.yd_braiding_regularity": "ROADMAP items 3/13: report-path candidate",
    "yd.corep_slice_span": "ROADMAP item 3: report-path candidate",
}


def test_every_exported_function_has_a_caller_or_a_reason():
    """Aim 2 deletes code with no caller: a function or class that a module
    exports and nothing in the package references joins UNREFERENCED with its
    reason, or gets a caller, or goes; an entry that gains a caller or no
    longer exists leaves UNREFERENCED."""
    unreferenced = set()
    for module, tree in _package_trees().items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        exported = next((node.value for node in tree.body if isinstance(node, ast.Assign)
                         and [getattr(t, "id", None) for t in node.targets] == ["__all__"]), None)
        for name in ast.literal_eval(exported) if exported and module != "__init__" else ():
            if name in defined and all(m == "__init__" for m, _ in references(name)):
                unreferenced.add(f"{module}.{name}")
    assert unreferenced - UNREFERENCED.keys() == set(), "new names with no caller"
    assert UNREFERENCED.keys() - unreferenced == set(), "entries with a caller or gone"
