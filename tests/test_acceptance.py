"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test registers a PASS/FAIL line that is echoed in the terminal summary.
"""

import importlib.resources as resources
import itertools

import numpy as np
import pytest

import braidmu as bm
from braidmu import dsl, spans
from braidmu import LegOperator, LegSignature, Space

from conftest import record_acceptance, random_unitary

GROUPS = [bm.cyclic(n) for n in range(2, 9)] + [bm.symmetric(3)]


@pytest.fixture(scope="module")
def group_examples():
    return [(g, bm.kac_takesaki(g)) for g in GROUPS]


@pytest.fixture(scope="module")
def certified_super_f(super_module):
    mod, w = super_module
    provider = bm.yd_braiding_provider([mod], w)
    problem = bm.SearchProblem(space=mod.space, braiding=provider,
                               constraints=(bm.DegreePreservingConstraint(2),),
                               seed=7, restarts=4, max_iter=300,
                               target_residual=1e-9)
    results = bm.search(problem)
    assert results
    return w, mod, results[0].mu


def enumerate_slices(op, side):
    """Independent exhaustive slice oracle."""
    (d1, d2), (c1, c2) = op.domain, op.codomain
    t = op.matrix.reshape(c1.dim, c2.dim, d1.dim, d2.dim)
    out = []
    if side == "right":
        for b in range(c2.dim):
            for s in range(d2.dim):
                out.append(t[:, b, :, s].reshape(-1))
    else:
        for a in range(c1.dim):
            for r in range(d1.dim):
                out.append(t[a, :, r, :].reshape(-1))
    return np.array(out)


def oracle_rank(op, side):
    sv = np.linalg.svd(enumerate_slices(op, side), compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0])) if sv.size and sv[0] > 0 else 0


def test_criterion_1_kac_takesaki_certificates(group_examples):
    ok = True
    for group, mu in group_examples:
        n = group.order
        ok &= bm.pentagon_residual(mu) < 1e-12
        ok &= bm.right_slice_span(mu).rank == n
        ok &= bm.left_slice_span(mu).rank == n
        ok &= bm.regularity_span(mu).rank == n * n
        ok &= bm.commutant_dimension(mu) == 1
        # oracle cross-check: ranks from the brute-force slice enumeration
        ok &= oracle_rank(mu.op, "right") == n
        ok &= oracle_rank(mu.op, "left") == n
        cinv_f = bm.compose(mu.braiding.braid_inverse(mu.space, mu.space), mu.op)
        ok &= oracle_rank(cinv_f, "right") == n * n
    record_acceptance("1 Kac-Takesaki certificates (Z2..Z8, S3)", ok)
    assert ok


def _graded(dim, modulus, tag):
    return Space(f"{tag}{dim}", dim, tuple(i % modulus for i in range(dim)))


def _degree_preserving_morphism(space, modulus, seed):
    rng = np.random.default_rng(seed)
    deg = np.mod(space.grading, modulus) if space.grading else np.zeros(space.dim)
    mask = (deg[:, None] == deg[None, :]).astype(float)
    m = (rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2))
    return LegOperator(LegSignature((space,), (space,)), m * mask)


def test_criterion_2_braiding_bi_regularity():
    ok = True
    dims = range(1, 7)
    flip = bm.FlipBraiding()
    for d1, d2 in itertools.product(dims, dims):
        h, k = Space(f"h{d1}", d1), Space(f"k{d2}", d2)
        rep = bm.braiding_regularity(flip, h, k)
        ok &= rep.right_rank == rep.left_rank == rep.full == d1 * d2
        ok &= rep.bi_regular
    for modulus in (2, 3, 4):
        provider = bm.PhaseBraiding(modulus)
        for d1, d2 in itertools.product(dims, dims):
            h, k = _graded(d1, modulus, "h"), _graded(d2, modulus, "k")
            rep = bm.braiding_regularity(provider, h, k)
            ok &= rep.right_rank == rep.left_rank == rep.full == d1 * d2
            ok &= rep.bi_regular
        spaces = [_graded(d, modulus, "s") for d in (2, 3, 6)]
        ok &= bm.check_hexagons(provider, spaces)["max_residual"] < 1e-12
        morphisms = [_degree_preserving_morphism(s, modulus, 11 + i)
                     for i, s in enumerate(spaces)]
        ok &= bm.check_naturality(provider, morphisms)["max_residual"] < 1e-12
    plain = [Space(f"p{d}", d) for d in (2, 3, 6)]
    ok &= bm.check_hexagons(flip, plain)["max_residual"] < 1e-12
    record_acceptance("2 braiding bi-regularity (dims <= 6) + hexagons/naturality", ok)
    assert ok


def test_criterion_3_duality(group_examples, certified_super_f):
    ok = True
    examples = [mu for _, mu in group_examples]
    examples.append(certified_super_f[2])
    examples.append(bm.identity_control(2))
    for mu in examples:
        md = bm.dual(mu)
        c_of_dual = bm.regularity_span(md)
        c_star = spans.adjoint_span(bm.regularity_span(mu))
        ok &= spans.projector_distance(c_of_dual, c_star) < 1e-9
        ok &= bm.classify_regularity(mu).regular == bm.classify_regularity(md).regular
    record_acceptance("3 duality: C(dual) = C* and regularity transfer", ok)
    assert ok


def test_criterion_4_multiplier_theorem(group_examples):
    ok = True
    for group, mu in group_examples:
        if group.order > 3 or group.name == "S3":
            continue
        for variant in ("op", "right"):
            first, second = bm.multiplier_checks(mu, variant, tol=1e-8)
            ok &= first and second
    record_acceptance("4 multiplier theorem on Z2/Z3, both product variants", ok)
    assert ok


def test_criterion_5_bialgebra_conditions(group_examples):
    ok = True
    for group, mu in group_examples:
        for variant in ("op", "right"):
            pr, pl = bm.podles_conditions(mu, variant, tol=1e-8)
            ok &= pr and pl
            ok &= bm.coassociativity_residual(mu, variant, tol=1e-8) < 1e-8
    record_acceptance("5 Podles + coassociativity on all group examples", ok)
    assert ok


def test_criterion_6_yd_braiding_regularity(super_module):
    mod, mu = super_module
    phi = bm.yd_braiding(mod, mod, mu)
    ok = bm.is_unitary(phi, 1e-12)
    provider = bm.yd_braiding_provider([mod], mu)
    ok &= bm.check_hexagons(provider, [mod.space])["max_residual"] < 1e-12
    report = bm.yd_braiding_regularity(mod, mod, mu)
    ok &= report.right_rank == mod.space.dim * mod.space.dim
    ok &= report.regular
    record_acceptance("6 YD braiding: unitary, hexagons, full slice rank", ok)
    assert ok


def test_criterion_7_semidirect_product(certified_super_f):
    w, mod, f_mu = certified_super_f
    ok = bm.classify_regularity(f_mu).regular
    sd = bm.semidirect_product(w, mod, f_mu)
    ok &= bm.pentagon_residual(sd) < 1e-10
    report = bm.semidirect_regularity(w, mod, f_mu)
    ok &= report.rank_c == report.expected_rank == 16
    ok &= report.fixed_vector_dim == 1
    ok &= report.compression_matches and report.compression_distance < 1e-8
    record_acceptance("7 semi-direct product: Pentagon, rank, compression", ok)
    assert ok


def test_criterion_8_routing_robustness(super_module, certified_super_f):
    # every over/under pair on the corpus morphisms, in the flip and the
    # module categories
    mod, w = super_module
    _, _, f_mu = certified_super_f
    ok = True
    cases = [
        (w.op, (w.space, w.space, w.space), w.braiding),
        (mod.corep, (mod.space, w.space, w.space), w.braiding),
        (mod.rep, (w.space, w.space, mod.space), w.braiding),
        (w.op, (w.space, mod.space, w.space), w.braiding),
        (f_mu.op, (mod.space, mod.space, mod.space), f_mu.braiding),
    ]
    for op, ctx, braiding in cases:
        over = bm.apply_distant(op, ctx, (1, 3), "over", braiding)
        under = bm.apply_distant(op, ctx, (1, 3), "under", braiding)
        ok &= np.linalg.norm(over.matrix - under.matrix) < 1e-12
    record_acceptance("8 over/under routing agreement on corpus morphisms", ok)
    assert ok


def test_criterion_9_solver_soundness():
    space = Space("L", 2, (0, 1))
    provider = bm.PhaseBraiding(2)
    make = lambda seed: bm.SearchProblem(
        space=space, braiding=provider,
        constraints=(bm.DegreePreservingConstraint(2),),
        seed=seed, restarts=5, max_iter=300, target_residual=1e-8)
    results = bm.search(make(3))
    ok = len(results) > 0
    for res in results:
        cert = bm.full_certificate(res.mu, tol=1e-8)
        ok &= cert.gates_passed
    # gradient versus central finite differences at 50 random points
    problem = make(0)
    rng = np.random.default_rng(123)
    step = 1e-6
    for _ in range(50):
        theta = rng.normal(size=problem.param_count)
        grad = bm.gradient(problem, theta)[1]
        fd = np.zeros_like(grad)
        for a in range(len(theta)):
            e = np.zeros_like(theta)
            e[a] = step
            fd[a] = (bm.residual_objective(problem, theta + e)
                     - bm.residual_objective(problem, theta - e)) / (2 * step)
        ok &= np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-10)
    # fixed-seed determinism, byte level
    def snapshot(seed):
        bundle = bm.Bundle()
        bundle.spaces[space.id] = space
        bundle.braiding_kind = "phase"
        bundle.braiding_modulus = 2
        for i, res in enumerate(bm.search(make(seed))):
            bundle.operators[f"F_{i:03d}"] = res.mu.op
        return bm.bundle_to_json(bundle)
    ok &= snapshot(17) == snapshot(17)
    record_acceptance("9 solver: certified outputs, gradient check, determinism", ok)
    assert ok


def test_criterion_10_dsl_equivalence(super_module):
    mod, mu = super_module
    spaces = {"L": mu.space, "H": mod.space}
    bindings = {"W": mu.op, "U": mod.corep, "V": mod.rep,
                "a": bm.identity((mu.space,))}
    corpus = resources.files("braidmu") / "corpus"
    ok = True

    # built-in checker values for each corpus statement
    builtins = {
        "pentagon.stmt": bm.pentagon_residual(mu),
        "corep.stmt": bm.corep_residual(mod.as_corep(), mu),
        "rep.stmt": bm.rep_residual(mod.as_rep(), mu),
        "yd.stmt": bm.yd_residual(mod, mu),
        "goodness.stmt": 0.0,  # the identity solves the commutant equation
    }
    for name, expected in builtins.items():
        text = (corpus / name).read_text()
        results = bm.dsl.run_statements(text, bindings, spaces, mu.braiding)
        ok &= len(results) == 1
        ok &= abs(results[0].residual - expected) < 1e-12
        # parse/print round-trip on both sides of every statement
        for stmt in bm.dsl.parse_statement_file(text)[1]:
            for side in (stmt.lhs, stmt.rhs):
                if side is not None:
                    ok &= dsl.parse(dsl.format_expr(side)) == side

    # the equivalence must also hold for a nonzero defect
    bad = LegOperator(mu.op.signature,
                      mu.op.matrix @ np.kron(random_unitary(2, 2), np.eye(2)))
    mu_bad = bm.MultUnitary(mu.space, bad, mu.braiding)
    text = (corpus / "pentagon.stmt").read_text()
    res = bm.dsl.run_statements(text, {"W": bad, "a": bindings["a"]}, spaces,
                                mu.braiding)[0]
    ok &= abs(res.residual - bm.pentagon_residual(mu_bad)) < 1e-12
    ok &= res.residual > 0.1
    record_acceptance("10 DSL corpus matches built-in checkers; round-trip", ok)
    assert ok
