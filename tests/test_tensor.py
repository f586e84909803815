import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidmu as bm
from braidmu import LegError, LegOperator, LegSignature, Space
from braidmu.tensor import leg_product, legs_after, pullback, record, route_steps, total_dim

from conftest import random_unitary, routed_oracle, routing_category

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
    out = bm.tensor(bm.identity((L2,)), bm.identity((L3,)))
    np.testing.assert_allclose(out.matrix, np.eye(6))
    assert out.domain == (L2, L3)


def test_tensor_interchange_law():
    a = leg_op(random_unitary(2, 1), [L2])
    b = leg_op(random_unitary(3, 2), [L3])
    left = bm.compose(bm.tensor(a, bm.identity((L3,))), bm.tensor(bm.identity((L2,)), b))
    np.testing.assert_allclose(left.matrix, bm.tensor(a, b).matrix, atol=1e-14)


def test_tensor_leg_count():
    w = leg_op(W_Z2, [L2, L2])
    out = bm.tensor(w, bm.identity((L2,)))
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
            assert legs_after(op, context, start) == dense.codomain


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
    assert isinstance(c, bm.Crossing)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(total_dim(context), cols)) + 1j * rng.normal(size=(total_dim(context), cols))
    got = bm.apply_on_legs(c, x, context, start)
    want = bm.embed_adjacent(c, context, start).matrix @ x
    if kind.startswith("flip"):
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert legs_after(c, context, start) == bm.embed_adjacent(c, context, start).codomain


def test_the_adjoint_of_a_crossing_is_a_crossing():
    a, b = Space("A", 2, (0, 1)), Space("B", 3, (0, 1, 2))
    for c in (bm.FlipBraiding().braid(a, b), bm.PhaseBraiding(3).braid(a, b)):
        star = c.adjoint()
        assert isinstance(star, bm.Crossing)
        assert star.signature == LegSignature((b, a), (a, b))
        np.testing.assert_array_equal(star.matrix, bm.adjoint(c).matrix)
        np.testing.assert_array_equal(star.matrix, c.matrix.conj().T)
        np.testing.assert_array_equal(star.adjoint().matrix, c.matrix)
        # built once: the crossing is immutable, and the adjoint's adjoint is c
        assert c.adjoint() is star and star.adjoint() is c


def test_crossing_validates_its_phase_table():
    a, b = Space("A", 2), Space("B", 3)
    with pytest.raises(LegError, match="does not match"):
        bm.crossing(a, b, np.ones((3, 2)))
    with pytest.raises(LegError, match="modulus one"):
        bm.crossing(a, b, np.full((2, 3), 0.5))
    with pytest.raises(LegError, match="maps legs"):
        bm.Crossing(LegSignature((a, b), (a, b)), np.eye(6))


def test_explicit_crossings_take_the_gemm_path(monkeypatch):
    """A Yetter-Drinfeld table, its inverse and a table entry copied from a flip
    are dense operators; only flip and phase crossings reach the axis swap."""
    provider, p, q = routing_category("yd")
    table = bm.ExplicitBraiding()
    table.register(bm.FlipBraiding().braid(p, q))
    tensor_module = importlib.import_module("braidmu.tensor")
    swaps = []
    real_cross = tensor_module._cross
    monkeypatch.setattr(tensor_module, "_cross",
                        lambda *args: swaps.append(args[0]) or real_cross(*args))
    dense = [provider.braid(p, q), provider.braid_inverse(q, p), provider.inverse().braid(p, q),
             table.braid(p, q), table.braid_inverse(p, q)]
    for c in dense:
        assert not isinstance(c, bm.Crossing)
        ctx = c.domain + (p,)
        x = np.eye(total_dim(ctx), dtype=complex)
        bm.apply_on_legs(c, x, ctx, 1)
    assert swaps == []
    flip = bm.FlipBraiding().braid(p, q)
    bm.apply_on_legs(flip, np.eye(p.dim * q.dim, dtype=complex), (p, q), 1)
    assert swaps == [flip]


# ---------------------------------------------------------------- reverse mode


def padded(op, context, start):
    """1 (x) op (x) 1 on the legs ``start ..`` of the context, by np.kron."""
    pre = total_dim(context[:start - 1])
    post = total_dim(context[start - 1 + len(op.domain):])
    return np.kron(np.eye(pre), np.kron(op.matrix, np.eye(post))), pre, post


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
    assert isinstance(steps[1][0], bm.Crossing) and not isinstance(steps[2][0], bm.Crossing)
    # dense factors and the legs each step starts from
    factors, legs = [], context
    for op, start in steps:
        factors.append((*padded(op, legs, start), op))
        legs = legs_after(op, legs, start)
    rng = np.random.default_rng(63)
    n_out, n_in = total_dim(legs), total_dim(context)
    cot = rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in))
    tape = record(steps, context)
    got = pullback(tape, cot)
    assert len(got) == len(steps)
    # a factor selects the cotangents of its own steps, in step order
    routed = [j for j, (op, _) in enumerate(steps) if op is w]
    assert len(routed) == 1
    np.testing.assert_array_equal(pullback(tape, cot, w)[0], got[routed[0]])
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
    with pytest.raises(LegError, match="cotangent"):
        pullback(record([(w, 1), (w, 2)], (L2, L2, L2)), np.eye(4))
    with pytest.raises(LegError, match="prefix products"):
        pullback(record([(w, 1), (w, 2)], (L2, L2, L2), keep=False), np.eye(8))


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


# ---------------------------------------------------------------- invariants


def references(name):
    """(module, enclosing scope) of each use of ``name`` in the package source: a
    bare name, an attribute (np.kron, numpy.kron) or an import; docstrings do
    not count."""

    def named(node):
        if isinstance(node, ast.alias):
            return name in (node.name, node.asname)
        return getattr(node, "attr", None) == name or getattr(node, "id", None) == name

    found = []
    for path in sorted(Path(bm.__file__).parent.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                if named(child):
                    found.append((path.stem, ".".join(inner)))
                visit(child, inner)

        visit(ast.parse(path.read_text()), ())
    return found


def test_only_the_linear_map_builders_call_kron():
    """np.kron builds linear maps (the tensor product itself, the semi-direct
    isometries, the commutant conditions); no factor is padded with it."""
    uses = set(references("kron"))
    assert ("tensor", "tensor") in uses and ("solver", "CommutantConstraint.conditions") in uses
    stray = {u for u in uses if u[0] != "semidirect"} - {
        ("tensor", "tensor"), ("solver", "CommutantConstraint.conditions")}
    assert stray == set()


def test_only_tensor_calls_embed_adjacent():
    """Outside tensor, embed_adjacent is only re-exported by the package."""
    uses = references("embed_adjacent")
    assert ("tensor", "record") in uses
    assert {module for module, _ in uses} == {"tensor", "__init__"}
    assert [u for u in uses if u[0] == "__init__"] == [("__init__", "")]
