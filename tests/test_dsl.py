import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidmu as bm
from braidmu import dsl
from braidmu import LegOperator, LegSignature
from braidmu.tensor import tensor

from conftest import dense_evaluate, random_unitary, routing_category


def leg_op(matrix, dom, cod=None):
    return LegOperator(LegSignature(tuple(dom), tuple(cod or dom)), matrix)


PENTAGON_RHS = "W[1,2].c[1,2].W[2,3].cinv[1,2].W[2,3]"


def test_parse_composition():
    expr = dsl.parse("F[2,3].F[1,2]")
    assert isinstance(expr, dsl.Seq)
    assert expr.terms == (dsl.Atom("F", (2, 3)), dsl.Atom("F", (1, 2)))


def test_parse_pentagon_rhs():
    expr = dsl.parse(PENTAGON_RHS)
    names = [t.name for t in expr.terms]
    assert names == ["W", "c", "W", "cinv", "W"]
    assert expr.terms[0].legs == (1, 2)


def test_parse_routes_and_adjoints():
    expr = dsl.parse("U[1,3]@over.V[1,2]^*")
    u, vstar = expr.terms
    assert u.route == "over"
    assert isinstance(vstar, dsl.Adj)
    assert vstar.inner == dsl.Atom("V", (1, 2))


def test_parse_error_reports_position():
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse("F[1,2")
    assert err.value.line == 1
    assert err.value.column >= 5


def test_unknown_route_annotation():
    with pytest.raises(dsl.ParseError):
        dsl.parse("F[1,3]@sideways")


def test_format_round_trip_on_corpus_statements():
    for text in (PENTAGON_RHS, "W[2,3].U[1,2]", "U[1,3]@over.W[2,3]",
                 "(V[1,2].W[1,3]@under)^*", "a[1]"):
        expr = dsl.parse(text)
        assert dsl.parse(dsl.format_expr(expr)) == expr


def _expr_strategy():
    atoms = st.builds(
        dsl.Atom,
        st.sampled_from(["F", "U", "V", "W", "a"]),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
        st.sampled_from([None, "over", "under"]),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(dsl.Adj, children),
            st.lists(children, min_size=2, max_size=4).map(
                lambda ts: dsl.Seq(tuple(
                    t2 for t in ts for t2 in (t.terms if isinstance(t, dsl.Seq) else (t,))))),
        ),
        max_leaves=6,
    )


@settings(max_examples=60, deadline=None)
@given(_expr_strategy())
def test_format_round_trip_property(expr):
    assert dsl.parse(dsl.format_expr(expr)) == expr


def test_evaluate_pentagon_matches_builtin(z2, z3):
    for mu in (z2, z3):
        bindings = {"W": mu.op}
        ctx = (mu.space,) * 3
        lhs = dsl.evaluate(dsl.parse("W[2,3].W[1,2]"), bindings, ctx, mu.braiding)
        rhs = dsl.evaluate(dsl.parse(PENTAGON_RHS), bindings, ctx, mu.braiding)
        assert np.linalg.norm(lhs.matrix - rhs.matrix) < 1e-12


def test_dsl_residual_equals_builtin_even_when_nonzero(z2):
    # a corrupted operator gives the same nonzero defect through the DSL and
    # through the built-in checker, pinning the transcription
    l = z2.space
    bad = leg_op(z2.op.matrix @ np.kron(random_unitary(2, 12), np.eye(2)), [l, l])
    mu = bm.MultUnitary(l, bad, bm.FlipBraiding())
    bindings = {"W": bad}
    ctx = (l, l, l)
    lhs = dsl.evaluate(dsl.parse("W[2,3].W[1,2]"), bindings, ctx, mu.braiding)
    rhs = dsl.evaluate(dsl.parse(PENTAGON_RHS), bindings, ctx, mu.braiding)
    got = np.linalg.norm(lhs.matrix - rhs.matrix)
    assert abs(got - bm.pentagon_residual(mu)) < 1e-12
    assert got > 0.1


def test_evaluate_adjoint_inverts_unitaries(z2):
    out = dsl.evaluate(dsl.parse("W[1,2]^*.W[1,2]"), {"W": z2.op},
                       (z2.space, z2.space), z2.braiding)
    np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-13)


def test_route_annotations_agree_for_morphisms(super_module):
    mod, mu = super_module
    bindings = {"U": mod.corep}
    ctx = (mod.space, mu.space, mu.space)
    over = dsl.evaluate(dsl.parse("U[1,3]@over"), bindings, ctx, mu.braiding)
    under = dsl.evaluate(dsl.parse("U[1,3]@under"), bindings, ctx, mu.braiding)
    assert np.linalg.norm(over.matrix - under.matrix) < 1e-12


def test_evaluate_three_leg_contiguous_atom(z2):
    l = z2.space
    ctx = (l, l, l)
    triple = tensor(z2.op, bm.identity((l,)))
    out = dsl.evaluate(dsl.parse("T[1,2,3]"), {"T": triple}, ctx, z2.braiding)
    np.testing.assert_allclose(out.matrix, triple.matrix)


def test_evaluate_unknown_binding_and_bad_legs(z2):
    ctx = (z2.space, z2.space)
    with pytest.raises(bm.LegError):
        dsl.evaluate(dsl.parse("Q[1,2]"), {}, ctx, z2.braiding)
    with pytest.raises(bm.LegError):
        dsl.evaluate(dsl.parse("W[1]"), {"W": z2.op}, ctx, z2.braiding)
    with pytest.raises(bm.LegError):
        dsl.evaluate(dsl.parse("c[1,3]"), {}, (z2.space,) * 3, z2.braiding)


def statement_file(body, context="L L L"):
    return f"# header\ncontext: {context}\n{body}\n"


def test_run_statements_pass_and_fail(z2):
    spaces = {"L": z2.space}
    bindings = {"W": z2.op}
    good = statement_file(f"W[2,3].W[1,2] == {PENTAGON_RHS}")
    results = bm.dsl.run_statements(good, bindings, spaces, z2.braiding)
    assert len(results) == 1 and results[0].passed and results[0].residual < 1e-12
    bad = statement_file("W[2,3].W[1,2] == W[1,2].W[2,3]")
    results = bm.dsl.run_statements(bad, bindings, spaces, z2.braiding)
    assert not results[0].passed and results[0].residual > 0.1


def test_a_bare_expression_is_only_compiled(z2, monkeypatch):
    # a statement without '==' records no residual and passes once its
    # atoms compile; no distance is taken for it, and an unknown name in it
    # still fails
    distances = []
    real = dsl.distance
    monkeypatch.setattr(dsl, "distance", lambda *args: distances.append(args) or real(*args))
    text = statement_file(f"{PENTAGON_RHS}\nW[1,2] == W[1,2]")
    bare, equation = bm.dsl.run_statements(text, {"W": z2.op}, {"L": z2.space}, z2.braiding)
    assert bare.statement.rhs is None and (bare.residual, bare.passed) == (None, True)
    assert (equation.residual, equation.passed) == (0.0, True) and len(distances) == 1
    with pytest.raises(bm.LegError, match="unknown operator name 'X'"):
        bm.dsl.run_statements(statement_file("X[1,2]"), {"W": z2.op}, {"L": z2.space},
                              z2.braiding)


def test_distant_atom_routes_across_two_legs(z3):
    text = statement_file("W[1,4] == cinv[3,4].W[1,3].c[3,4]", "L L L L")
    (res,) = bm.dsl.run_statements(text, {"W": z3.op}, {"L": z3.space}, z3.braiding)
    assert res.passed and res.residual < 1e-12


def test_distant_atom_routes_across_two_legs_in_a_braided_category():
    # a generic degree-preserving W under the phase braiding with m = 3; moving
    # the long leg one strand further conjugates with the crossing of its route
    l = bm.Space("L", 3, (0, 1, 2))
    deg = np.array(l.grading)
    mask = (deg[:, None, None, None] + deg[None, :, None, None]
            - deg[None, None, :, None] - deg[None, None, None, :]) % 3 == 0
    rng = np.random.default_rng(5)
    m = ((rng.normal(size=(3,) * 4) + 1j * rng.normal(size=(3,) * 4)) * mask).reshape(9, 9)
    text = statement_file("W[1,4]@over == cinv[3,4].W[1,3]@over.c[3,4]\n"
                          "W[1,4]@under == c[3,4].W[1,3]@under.cinv[3,4]", "L L L L")
    for res in bm.dsl.run_statements(text, {"W": leg_op(m, [l, l])}, {"L": l},
                                     bm.PhaseBraiding(3)):
        assert res.passed and res.residual < 1e-12, res.statement.text


def test_run_statements_requires_context(z2):
    with pytest.raises(dsl.ParseError):
        bm.dsl.run_statements("W[1,2] == W[1,2]\n", {"W": z2.op},
                              {"L": z2.space}, z2.braiding)


@pytest.mark.parametrize("text, line, column", [
    ("context: L L\nW[1,2] == W[1,2]\ncontext: L L L\n", 3, 1),
    ("# two legs\n  context: L L  # first\n\n   context: L L\nW[1,2]\n", 4, 4),
    ("context: L L\ncontext: L L\n", 2, 1),
])
def test_a_second_context_header_is_a_parse_error(z2, text, line, column):
    # the second header would silently set the context of every statement,
    # those above it included
    with pytest.raises(dsl.ParseError, match="second 'context:' header") as exc:
        dsl.parse_statement_file(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    with pytest.raises(dsl.ParseError):
        bm.dsl.run_statements(text, {"W": z2.op}, {"L": z2.space}, z2.braiding)


def test_the_header_records_its_line_and_columns():
    header, statements = dsl.parse_statement_file("# c\n\n  context: L  Mx L # legs\nW[1,2]\n")
    assert header == dsl.Header(("L", "Mx", "L"), 3, (12, 15, 18))
    assert [s.line for s in statements] == [4]


@pytest.mark.parametrize("context, column", [("X L", 10), ("L  X", 13), ("L L Y", 14)])
def test_an_unknown_space_id_points_at_the_header(z2, context, column):
    text = f"# header\ncontext: {context}\nW[1,2] == W[1,2]\n"
    with pytest.raises(dsl.ParseError, match="unknown space id") as exc:
        bm.dsl.run_statements(text, {"W": z2.op}, {"L": z2.space}, z2.braiding)
    assert (exc.value.line, exc.value.column) == (2, column)


def test_corpus_files_evaluate_against_builtins(super_module):
    import importlib.resources as resources

    mod, mu = super_module
    spaces = {"L": mu.space, "H": mod.space}
    bindings = {"W": mu.op, "U": mod.corep, "V": mod.rep,
                "a": bm.identity((mu.space,))}
    corpus = resources.files("braidmu") / "corpus"
    checked = 0
    for name in ("pentagon.stmt", "corep.stmt", "rep.stmt", "yd.stmt",
                 "goodness.stmt"):
        text = (corpus / name).read_text()
        for res in bm.dsl.run_statements(text, bindings, spaces, mu.braiding):
            assert res.passed, (name, res.statement.text, res.residual)
            checked += 1
    assert checked == 5


@pytest.mark.parametrize("name, steps", [("pentagon", 7), ("yd", 10)])
def test_run_statements_places_each_step_once(super_module, monkeypatch, name, steps):
    # each side compiles to one word, placed once, which distance then runs
    import importlib.resources as resources
    import braidmu.tensor as tensor_module

    mod, mu = super_module
    spaces = {"L": mu.space, "H": mod.space}
    bindings = {"W": mu.op, "U": mod.corep, "V": mod.rep}
    placed, real = [], tensor_module._placed
    monkeypatch.setattr(tensor_module, "_placed",
                        lambda *args: placed.append(args[0]) or real(*args))
    text = (resources.files("braidmu") / "corpus" / f"{name}.stmt").read_text()
    (result,) = dsl.run_statements(text, bindings, spaces, mu.braiding)
    assert result.passed and len(placed) == steps


def test_an_atom_on_legs_it_does_not_fit_is_a_leg_error(z2, super_space):
    # the atom is checked against the context its term sees, before any word is placed
    with pytest.raises(bm.LegError, match="do not match context legs"):
        dsl.evaluate(dsl.parse("W[1,2]"), {"W": z2.op}, (z2.space, super_space), z2.braiding)
    with pytest.raises(bm.LegError, match="do not match context legs"):
        dsl.run_statements(statement_file("W[1,2]", "L S"), {"W": z2.op},
                           {"L": z2.space, "S": super_space}, z2.braiding)


def test_corpus_statements_peak_below_one_dense_three_leg_matrix():
    # both sides of a statement stream over column blocks: on the Z10 module
    # each corpus file peaks below the 16 MB of one n^3 x n^3 matrix, where
    # each side and their difference were once such a matrix
    import importlib.resources as resources
    import tracemalloc

    n = 10
    omega = np.exp(2j * np.pi / n)
    mod, mu = bm.group_yd_module(bm.cyclic(n), list(range(n)),
                                 [np.diag(omega ** (g * np.arange(n))) for g in range(n)])
    spaces = {"L": mu.space, "H": mod.space}
    bindings = {"W": mu.op, "U": mod.corep, "V": mod.rep, "a": bm.identity((mu.space,))}
    corpus = resources.files("braidmu") / "corpus"
    for name in ("corep", "goodness", "pentagon", "rep", "yd"):
        text = (corpus / f"{name}.stmt").read_text()
        tracemalloc.start()
        try:
            results = dsl.run_statements(text, bindings, spaces, mu.braiding)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results and all(res.passed for res in results), name
        assert peak < n ** 6 * 16, (name, peak)


CATEGORIES = ["flip", "phase3", "yd"]


def _category(kind):
    """A braiding, its spaces L and H, and unitary bindings W, U, V, a on them."""
    braiding, l, h = routing_category(kind)
    bindings = {"W": leg_op(random_unitary(l.dim ** 2, 41), [l, l]),
                "U": leg_op(random_unitary(h.dim * l.dim, 42), [h, l]),
                "V": leg_op(random_unitary(l.dim * h.dim, 43), [l, h]),
                "a": leg_op(random_unitary(l.dim, 44), [l])}
    return braiding, {"L": l, "H": h}, bindings


def _assert_matches_the_dense_oracle(expr, bindings, context, braiding):
    got = dsl.evaluate(expr, bindings, context, braiding)
    want = dense_evaluate(expr, bindings, context, braiding)
    assert got.signature == want.signature
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", CATEGORIES)
def test_corpus_statements_match_the_dense_oracle(kind):
    import importlib.resources as resources

    braiding, spaces, bindings = _category(kind)
    corpus = resources.files("braidmu") / "corpus"
    for name in ("corep", "goodness", "pentagon", "rep", "yd"):
        header, statements = dsl.parse_statement_file((corpus / f"{name}.stmt").read_text())
        context = tuple(spaces[i] for i in header.ids)
        for stmt in statements:
            for side in (stmt.lhs, stmt.rhs):
                _assert_matches_the_dense_oracle(side, bindings, context, braiding)


@pytest.mark.parametrize("route", ["over", "under"])
@pytest.mark.parametrize("kind", CATEGORIES)
def test_routed_atoms_match_the_dense_oracle(kind, route):
    braiding, a, b = routing_category(kind)
    rng = np.random.default_rng(17)
    # 1, 2 and 3 intermediate legs, with idle legs before and after
    for context, (i, k) in (((a, b, b), (1, 3)),
                            ((b, a, b, a, b), (2, 5)),
                            ((a, b, a, b, b, a), (1, 5))):
        dom = (context[i - 1], context[k - 1])
        for cod in (dom, dom[::-1]):  # the second one changes the spaces
            d, c = dom[0].dim * dom[1].dim, cod[0].dim * cod[1].dim
            x = leg_op(rng.normal(size=(c, d)) + 1j * rng.normal(size=(c, d)), dom, cod)
            expr = dsl.parse(f"X[{i},{k}]@{route}")
            _assert_matches_the_dense_oracle(expr, {"X": x}, context, braiding)


@pytest.mark.parametrize("kind", CATEGORIES)
@pytest.mark.parametrize("ids, text", [
    # adjoints of routed atoms and of sequences
    ("L H L", "(V[1,2].W[1,3]@over)^*"),
    ("L H L", "W[1,3]@under^*"),
    ("L H L", "U[2,3]^*.(W[1,3]@over.U[2,3])^*.V[1,2]"),
    # c and cinv change the context midway
    ("H L", "V[1,2].c[1,2].U[1,2]"),
    ("H L", "(cinv[1,2].V[1,2].c[1,2])^*"),
    ("H L L", "W[1,3]@over.c[1,2]"),
    ("H L L", "U[1,3]@under.cinv[1,2].W[1,3]@over.c[1,2]"),
])
def test_adjoints_and_context_changes_match_the_dense_oracle(kind, ids, text):
    braiding, spaces, bindings = _category(kind)
    context = tuple(spaces[i] for i in ids.split())
    _assert_matches_the_dense_oracle(dsl.parse(text), bindings, context, braiding)


def test_evaluate_pads_only_the_first_step(monkeypatch, z2):
    # the steps act on one running matrix: no identity seed, no composed
    # full-context products, and the only padded columns are the product's start
    import braidmu.tensor as tensor_module

    def forbidden(*args):
        raise AssertionError("dense product on the evaluate path")

    for name in ("compose", "identity"):
        monkeypatch.setattr(tensor_module, name, forbidden)
    monkeypatch.setattr(np, "eye", forbidden)
    real, padded = tensor_module._scatter, []
    monkeypatch.setattr(tensor_module, "_scatter",
                        lambda m, *args: padded.append(m) or real(m, *args))
    ctx = (z2.space,) * 3
    for text in ("W[2,3].W[1,2]", PENTAGON_RHS, "W[1,3]@under.W[1,2]^*"):
        padded.clear()
        out = dsl.evaluate(dsl.parse(text), {"W": z2.op}, ctx, z2.braiding)
        assert out.domain == out.codomain == ctx
        assert len(padded) == 1
