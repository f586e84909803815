import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.linalg import expm_frechet as scipy_expm_frechet

import braidmu as bm
from braidmu import Space
from braidmu.solver import expm_frechet

from conftest import dense_pentagon_defect, pullback, random_unitary, record


def flip_problem(dim=2, **kw):
    space = Space("L", dim)
    defaults = dict(seed=0, restarts=4, max_iter=200, target_residual=1e-8)
    defaults.update(kw)
    return bm.SearchProblem(space=space, braiding=bm.FlipBraiding(), **defaults)


def super_problem(**kw):
    space = Space("L", 2, (0, 1))
    defaults = dict(seed=0, restarts=6, max_iter=300, target_residual=1e-8)
    defaults.update(kw)
    return bm.SearchProblem(space=space, braiding=bm.PhaseBraiding(2),
                            constraints=(bm.DegreePreservingConstraint(2),), **defaults)


def params_of(problem, unitary):
    """Coordinates of -i log(U) in the problem's Hermitian basis."""
    h = -1j * logm(unitary)
    h = (h + h.conj().T) / 2
    return np.array([np.vdot(b.reshape(-1), h.reshape(-1)).real
                     for b in problem._param_basis])


def forward_mode_gradient(problem, params):
    """Oracle: one scipy Frechet derivative and five dense products per parameter."""
    l = problem.space
    c = problem.braiding.braid(l, l).matrix
    cinv = problem.braiding.braid_inverse(l, l).matrix
    eye = np.eye(l.dim)
    c12, cinv12 = np.kron(c, eye), np.kron(cinv, eye)
    h = problem.hermitian(params)
    f = expm(1j * h)
    f12 = np.kron(f, eye)
    f23 = np.kron(eye, f)
    p = dense_pentagon_defect(f, c, cinv)
    g = np.zeros(problem.param_count)
    for a, b in enumerate(problem._param_basis):
        df = scipy_expm_frechet(1j * h, 1j * b, compute_expm=False)
        d12 = np.kron(df, eye)
        d23 = np.kron(eye, df)
        dp = (d23 @ f12 + f23 @ d12
              - d12 @ c12 @ f23 @ cinv12 @ f23
              - f12 @ c12 @ d23 @ cinv12 @ f23
              - f12 @ c12 @ f23 @ cinv12 @ d23)
        g[a] = 2.0 * np.vdot(p, dp).real
    return g


def oracle_problems():
    sz = np.diag([1.0, -1.0])
    return {
        "flip d=2": lambda: flip_problem(),
        "flip d=3": lambda: flip_problem(dim=3),
        "super d=2": lambda: super_problem(),
        "super d=4": lambda: bm.SearchProblem(
            space=Space("L", 4, (0, 1, 0, 1)), braiding=bm.PhaseBraiding(2),
            constraints=(bm.DegreePreservingConstraint(2),)),
        "phase m=3 d=3": lambda: bm.SearchProblem(
            space=Space("L", 3, (0, 1, 2)), braiding=bm.PhaseBraiding(3),
            constraints=(bm.DegreePreservingConstraint(3),)),
        "flip d=2 commutant": lambda: flip_problem(
            constraints=(bm.CommutantConstraint([np.kron(sz, sz)]),)),
    }


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("name", list(oracle_problems()))
def test_gradient_matches_the_forward_mode_oracle(name):
    problem = oracle_problems()[name]()
    rng = np.random.default_rng(13)
    for scale in (0.0, 1e-3, 1.0):
        theta = scale * rng.normal(size=problem.param_count)
        oracle = forward_mode_gradient(problem, theta)
        # relative, plus a roundoff floor for theta = 0 (the identity, an
        # exact solution), where both gradients vanish up to rounding
        err = np.linalg.norm(bm.gradient(problem, theta)[1] - oracle)
        assert err <= 1e-12 * np.linalg.norm(oracle) + 1e-14, (scale, err)


def taped_gradient(problem, params, select_f_steps=False):
    """The objective and its gradient the step-by-step way: F as an operator,
    both Pentagon words recorded on a conftest Tape, the defect pulled back
    through them by conftest.pullback, which re-derives every placement, and
    the cotangents of the F steps summed in step order.  Those cotangents
    come from pullback's factor filter, or with ``select_f_steps`` from the
    unfiltered pullback of every step."""
    from braidmu.multunitary import pentagon_words
    from braidmu.solver import _exp_i
    lam, v = np.linalg.eigh(problem.hermitian(params))
    f = problem.candidate(_exp_i(lam, v))
    legs, lhs, rhs = pentagon_words(f, problem._c, problem._cinv)
    left, right = record(lhs, legs), record(rhs, legs)
    p = left.product - right.product

    def cotangents(tape):
        if select_f_steps:
            return [x for (op, _), x in zip(tape.steps, pullback(tape, p)) if op is f]
        return pullback(tape, p, f)

    g = sum(cotangents(left)) - sum(cotangents(right))
    k = -expm_frechet(-lam, v, g)
    return float(np.vdot(p, p).real), 2.0 * (problem._flat_basis @ k.conj().reshape(-1)).real


@pytest.mark.parametrize("name", list(oracle_problems()))
def test_gradient_is_the_taped_reference_bit_for_bit(name):
    """The planned words do the arithmetic of the step-by-step tapes, in the
    same order, so the value and every partial keep their bits."""
    problem = oracle_problems()[name]()
    rng = np.random.default_rng(19)
    for scale in (0.0, 1e-3, 1.0):
        theta = scale * rng.normal(size=problem.param_count)
        value, grad = bm.gradient(problem, theta)
        want_value, want_grad = taped_gradient(problem, theta)
        assert value == want_value, scale
        assert np.array_equal(grad, want_grad), scale


@pytest.mark.parametrize("name", list(oracle_problems()))
def test_gradient_sums_the_f_cotangents_in_step_order(name):
    """Bit for bit, the gradient is the unfiltered pullback of both tapes with
    the cotangents of the F steps summed in step order, so selecting the F
    steps changes no output bit."""
    problem = oracle_problems()[name]()
    rng = np.random.default_rng(17)
    for scale in (1e-3, 1.0):
        theta = scale * rng.normal(size=problem.param_count)
        want = taped_gradient(problem, theta, select_f_steps=True)[1]
        assert np.array_equal(bm.gradient(problem, theta)[1], want)


@pytest.mark.parametrize("name", list(oracle_problems()))
def test_a_second_gradient_call_plans_nothing(monkeypatch, name):
    """The problem plans its Pentagon words once: a gradient call after the
    first builds no operator and places no leg, computes no padding or
    scatter index, and builds no identity."""
    import braidmu.tensor as tensor
    problem = oracle_problems()[name]()
    theta = np.random.default_rng(23).normal(size=problem.param_count)
    first = bm.gradient(problem, theta)
    calls = []

    def counted(owner, attr):
        real = getattr(owner, attr)

        def call(*args, **kwargs):
            calls.append(attr)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, call)

    counted(tensor.LegOperator, "__post_init__")
    for attr in ("_placed", "_padding", "_conjugate_identity"):
        counted(tensor, attr)
    for attr in ("eye", "unravel_index"):
        counted(np, attr)
    second = bm.gradient(problem, theta)
    assert calls == []
    assert second[0] == first[0] and np.array_equal(second[1], first[1])


@pytest.mark.parametrize("name", list(oracle_problems()))
def test_unitary_matches_scipy_expm(name):
    problem = oracle_problems()[name]()
    rng = np.random.default_rng(14)
    for scale in (0.0, 1e-3, 1.0, 3.0):
        theta = scale * rng.normal(size=problem.param_count)
        reference = expm(1j * problem.hermitian(theta))
        assert np.abs(problem.unitary(theta) - reference).max() <= 1e-12


@pytest.mark.parametrize("h", [np.zeros((4, 4)), np.diag([1.0, 1.0, 2.0, 2.0])],
                         ids=["zero", "repeated"])
def test_spectral_frechet_matches_scipy_at_degenerate_spectra(h):
    rng = np.random.default_rng(15)
    lam, v = np.linalg.eigh(h)
    for _ in range(3):
        e = random_hermitian(4, rng)
        reference = scipy_expm_frechet(1j * h, 1j * e, compute_expm=False)
        assert np.abs(expm_frechet(lam, v, e) - reference).max() <= 1e-12


def test_spectral_frechet_adjoint_identity():
    # <G, L(E)> = <L*(G), E> with L*(G) = -expm_frechet(-lam, V, G)
    rng = np.random.default_rng(16)
    for dim in (4, 9):
        lam, v = np.linalg.eigh(random_hermitian(dim, rng))
        e = random_hermitian(dim, rng)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lhs = np.vdot(g, expm_frechet(lam, v, e))
        rhs = np.vdot(-expm_frechet(-lam, v, g), e)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_objective_vanishes_at_known_solutions(z2):
    problem = flip_problem()
    assert bm.residual_objective(problem, np.zeros(problem.param_count)) < 1e-28
    theta = params_of(problem, z2.op.matrix)
    assert bm.residual_objective(problem, theta) < 1e-20
    # round trip check: the parametrization really reproduces W
    np.testing.assert_allclose(problem.unitary(theta), z2.op.matrix, atol=1e-12)


def test_objective_positive_at_random_points():
    problem = flip_problem()
    rng = np.random.default_rng(2)
    theta = rng.normal(size=problem.param_count)
    assert bm.residual_objective(problem, theta) > 1e-4


def test_gradient_matches_finite_differences():
    problem = super_problem()
    rng = np.random.default_rng(3)
    step = 1e-6
    for trial in range(5):
        theta = rng.normal(size=problem.param_count)
        grad = bm.gradient(problem, theta)[1]
        fd = np.zeros_like(grad)
        for a in range(len(theta)):
            e = np.zeros_like(theta)
            e[a] = step
            fd[a] = (bm.residual_objective(problem, theta + e)
                     - bm.residual_objective(problem, theta - e)) / (2 * step)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)


def test_gradient_vanishes_at_a_solution(z2):
    problem = flip_problem()
    theta = params_of(problem, z2.op.matrix)
    assert np.linalg.norm(bm.gradient(problem, theta)[1]) < 1e-8


def test_gradient_in_a_genuinely_braided_category():
    # modulus three: the braiding differs from its inverse, so the two
    # crossing factors in the objective are genuinely distinct
    space = Space("L", 3, (0, 1, 2))
    problem = bm.SearchProblem(space=space, braiding=bm.PhaseBraiding(3),
                               constraints=(bm.DegreePreservingConstraint(3),),
                               seed=0)
    rng = np.random.default_rng(8)
    theta = rng.normal(size=problem.param_count)
    grad = bm.gradient(problem, theta)[1]
    step = 1e-6
    fd = np.zeros_like(grad)
    for a in range(len(theta)):
        e = np.zeros_like(theta)
        e[a] = step
        fd[a] = (bm.residual_objective(problem, theta + e)
                 - bm.residual_objective(problem, theta - e)) / (2 * step)
    assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)
    results = bm.search(bm.SearchProblem(space=space, braiding=bm.PhaseBraiding(3),
                                         constraints=(bm.DegreePreservingConstraint(3),),
                                         seed=1, restarts=3, max_iter=300,
                                         target_residual=1e-8))
    assert results
    for res in results:
        assert bm.pentagon_residual(res.mu) < 1e-8


def test_constrained_parametrization_is_degree_preserving():
    problem = super_problem()
    # 2 + 2 sectors of the 4-dim square space leave two 2x2 Hermitian blocks
    assert problem.param_count == 8
    deg = np.array([0, 1, 1, 0])
    for b in problem._param_basis:
        off = b[deg[:, None] != deg[None, :]]
        assert np.abs(off).max() < 1e-12


def test_commutant_constraint_cuts_the_parameter_space():
    space = Space("L", 2)
    sz = np.diag([1.0, -1.0])
    problem = flip_problem(constraints=(bm.CommutantConstraint([np.kron(sz, sz)]),))
    assert 0 < problem.param_count < 16
    for b in problem._param_basis:
        m = np.kron(sz, sz)
        assert np.linalg.norm(b @ m - m @ b) < 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
def test_commutant_conditions_do_not_depend_on_the_operator_scale(scale):
    """The null space's cutoff is anchored at unit scale, so the conditions
    are built from unit-norm operators: diag(1, -1, 1, -1) commutes with an
    8-dimensional space of 4 x 4 matrices at every scale."""
    from braidmu.spans import null_space
    op = scale * np.diag([1.0, -1.0, 1.0, -1.0])
    assert len(null_space(bm.CommutantConstraint([op]).conditions(4))) == 8
    # a zero operator imposes no condition
    assert bm.CommutantConstraint([0 * op]).conditions(4).shape == (0, 16)


def test_search_finds_the_identity_class():
    results = bm.search(flip_problem(restarts=3))
    assert results
    assert results[0].restart == 0
    assert results[0].trivial
    assert results[0].residual < 1e-10


def test_search_outputs_are_certified():
    results = bm.search(super_problem(restarts=5))
    assert results
    for res in results:
        assert bm.pentagon_residual(res.mu) < 1e-8
        assert bm.is_unitary(res.mu.op, 1e-9)
        cert = bm.full_certificate(res.mu, tol=1e-8)
        assert cert.gates_passed


def test_search_finds_nontrivial_flip_solutions():
    # random restarts in the flip category reach genuinely non-scalar
    # solutions; they must survive the whole certificate at a tolerance
    # matched to the descent quality
    results = bm.search(flip_problem(seed=3, restarts=12, max_iter=400,
                                     target_residual=1e-9))
    nontrivial = [r for r in results if not r.trivial]
    assert nontrivial
    cert = bm.full_certificate(nontrivial[0].mu, tol=1e-6)
    assert cert.gates_passed
    assert cert.passed("regular")


def test_search_is_deterministic():
    a = bm.search(super_problem(seed=19, restarts=4))
    b = bm.search(super_problem(seed=19, restarts=4))
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.restart == rb.restart and ra.residual == rb.residual
        assert np.array_equal(ra.mu.op.matrix, rb.mu.op.matrix)


def test_search_with_unreachable_target_returns_empty():
    # no exact solutions are reachable from generic restarts at target 0
    results = bm.search(flip_problem(restarts=2, target_residual=1e-300))
    for res in results:
        assert res.residual < 1e-300  # only exact hits may appear
    assert isinstance(results, list)


def test_objective_is_conjugation_invariant(z2):
    # conjugating by G (x) G with a transported braiding leaves the
    # residual unchanged
    problem = flip_problem()
    g = random_unitary(2, 51)
    gg = np.kron(g, g)
    theta = params_of(problem, z2.op.matrix)
    f = problem.unitary(theta)
    l = problem.space
    table = bm.ExplicitBraiding()
    c2 = gg @ bm.FlipBraiding().braid(l, l).matrix @ gg.conj().T
    table.register(bm.LegOperator(bm.LegSignature((l, l), (l, l)), c2))
    problem2 = bm.SearchProblem(space=l, braiding=table, seed=0)
    theta2 = params_of(problem2, gg @ f @ gg.conj().T)
    r1 = bm.residual_objective(problem, theta)
    r2 = bm.residual_objective(problem2, theta2)
    assert abs(r1 - r2) < 1e-10


def test_scalar_orbit_distance():
    from braidmu.solver import scalar_orbit_distance
    assert scalar_orbit_distance(np.eye(4)) < 1e-12
    assert scalar_orbit_distance(np.exp(0.7j) * np.eye(4)) < 1e-12
    w = bm.kac_takesaki(bm.cyclic(2)).op.matrix
    assert scalar_orbit_distance(w) > 0.5


@pytest.mark.parametrize("name", ["flip d=2", "super d=2"])
def test_gradient_builds_no_braiding_kron(monkeypatch, name):
    """A gradient call makes no np.kron call at all, braiding or F, and its
    value is the objective bit for bit."""
    problem = oracle_problems()[name]()
    theta = np.random.default_rng(3).normal(size=problem.param_count)
    objective = bm.residual_objective(problem, theta)
    padded = []
    real_kron = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: padded.append(a.shape) or real_kron(a, b))
    value, _ = bm.gradient(problem, theta)
    assert padded == []
    assert value == objective


@pytest.mark.parametrize("name", ["flip d=2", "super d=4"])
def test_search_runs_one_eigh_per_evaluation(monkeypatch, name):
    """L-BFGS-B gets value and gradient from one call: per evaluation one eigh
    and one forward run of each planned Pentagon word, which the gradient
    pulls back through, and no residual_objective.  Each restart adds one
    eigh for its final unitary and one streamed distance of the two words
    for its residual.  No product runs anywhere else."""
    import braidmu.multunitary as mun
    import braidmu.solver as solver
    import braidmu.tensor as tensor
    problem = oracle_problems()[name]()
    # restart 0 starts at the exact identity solution, restart 1 at a random point
    problem.restarts, problem.max_iter = 2, 30
    counts = {"eigh": 0, "objective": 0, "pullback": 0}
    # step counts of the words run forward, and of the words run outside
    # distance and forward
    words, untaped, inside = [], [], []

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    streamed = []

    def within(fn, log, key):
        def call(*args):
            log.append(key(*args))
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    forward = within(tensor.PlannedWord.forward, words, lambda word, f: len(word._plan))
    distance = within(mun.distance, streamed, lambda lhs, rhs, context: (len(lhs), len(rhs)))

    def outside(fn):
        def call(word, *args):
            if not inside:
                untaped.append(len(word._plan))
            return fn(word, *args)
        return call

    nfev = []
    real_minimize = solver.minimize

    def minimize(*args, **kwargs):
        assert kwargs["jac"] is True
        result = real_minimize(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(tensor.PlannedWord, "pullback",
                        counted("pullback", tensor.PlannedWord.pullback))
    monkeypatch.setattr(solver, "residual_objective",
                        counted("objective", solver.residual_objective))
    monkeypatch.setattr(tensor.PlannedWord, "forward", forward)
    # every other product runs by a word's columns or run, leg_product's included
    for attr in ("columns", "run"):
        monkeypatch.setattr(tensor.PlannedWord, attr, outside(getattr(tensor.PlannedWord, attr)))
    monkeypatch.setattr(mun, "distance", distance)
    monkeypatch.setattr(solver, "minimize", minimize)
    bm.search(problem)
    evaluations = sum(nfev)
    assert len(nfev) == problem.restarts and evaluations > problem.restarts
    assert counts == {"eigh": evaluations + problem.restarts, "objective": 0,
                      "pullback": 2 * evaluations}
    # the left word (two steps) and the right word (five), once each
    assert words == [2, 5] * evaluations
    assert untaped == []
    assert streamed == [(2, 5)] * problem.restarts


def _thread_counts():
    from braidmu import _blas
    return [get() for get, _ in _blas._thread_controls()]


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_search_runs_blas_at_one_thread_and_restores_it(monkeypatch, fail):
    import braidmu.solver as solver
    problem = flip_problem(restarts=2, max_iter=5)
    # scipy.linalg, imported above, has mapped scipy's OpenBLAS next to numpy's
    before = _thread_counts()
    inside = []
    real_gradient = solver.gradient

    def gradient(problem, params):
        inside.append(_thread_counts())
        if fail:
            raise RuntimeError("objective failed")
        return real_gradient(problem, params)

    monkeypatch.setattr(solver, "gradient", gradient)
    if fail:
        with pytest.raises(RuntimeError, match="objective failed"):
            bm.search(problem)
    else:
        bm.search(problem)
    assert inside and all(counts == [1] * len(before) for counts in inside)
    assert _thread_counts() == before


def test_one_thread_sets_and_restores_every_build_found(monkeypatch):
    from braidmu import _blas
    threads = {"a": 4, "b": 2}
    fakes = [(lambda k=k: threads[k], lambda n, k=k: threads.__setitem__(k, n))
             for k in threads]
    monkeypatch.setattr(_blas, "_thread_controls", lambda: fakes)
    with pytest.raises(KeyError):
        with _blas.one_thread():
            assert threads == {"a": 1, "b": 1}
            raise KeyError("body failed")
    assert threads == {"a": 4, "b": 2}


def test_one_thread_is_a_no_op_when_no_openblas_is_found(monkeypatch):
    from braidmu import _blas
    controls = _blas._thread_controls()
    before = [get() for get, _ in controls]
    monkeypatch.setattr(_blas, "_mapped_openblas", lambda: [])
    assert _blas._thread_controls() == []
    with _blas.one_thread():
        assert [get() for get, _ in controls] == before
    assert [get() for get, _ in controls] == before


@pytest.mark.parametrize("name", ["flip d=2", "super d=2"])
def test_search_gates_hits_as_the_full_certificate_does(monkeypatch, name):
    """Oracle: a restart is a hit exactly when its Pentagon residual is below
    the target and the full certificate's gates pass at max(target, 1e-12)."""
    import braidmu.solver as solver
    problem = oracle_problems()[name]()
    problem.seed, problem.restarts, problem.max_iter = 5, 8, 25
    ends = []
    real_minimize = solver.minimize

    def minimize(*args, **kwargs):
        result = real_minimize(*args, **kwargs)
        ends.append(result.x)
        return result

    monkeypatch.setattr(solver, "minimize", minimize)
    hits = {res.restart for res in bm.search(problem)}
    want = set()
    for r, x in enumerate(ends):
        mu = bm.MultUnitary(problem.space, problem.candidate(problem.unitary(x)),
                            problem.braiding)
        if bm.pentagon_residual(mu) >= problem.target_residual:
            continue
        if bm.full_certificate(mu, tol=max(problem.target_residual, 1e-12)).gates_passed:
            want.add(r)
    assert len(ends) == problem.restarts
    assert 0 < len(want) < problem.restarts
    assert hits == want


def test_importing_the_package_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bm.__file__)))
    code = ("import sys, braidmu, braidmu.cli; "
            "print('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
