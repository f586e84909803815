"""Numerical search for braided multiplicative unitaries.

Candidates are parametrized as exp(i H) with H Hermitian in a constrained
subspace, so every iterate sits exactly on the unitary manifold and the
Pentagon residual is the only acceptance quantity.

Each L-BFGS-B evaluation gives the objective and its gradient together: the
exponential and its Frechet derivative both come from one ``eigh`` of H, and
the gradient runs in reverse mode through the prefix products that the
Pentagon defect's own forward pass kept, then one adjoint Frechet
derivative, whatever the number of parameters.

:func:`search` runs with every OpenBLAS in the process at one thread, and
restores each build's thread count when it returns or raises; the setting is
process-wide while it runs.  numpy and scipy bundle separate OpenBLAS builds,
each with its own thread pool, and L-BFGS-B alternates small calls between
the two on every evaluation, so the spinning workers of one pool take the
cores the other needs: on a 2-core VM, a flip d=3 search (3 restarts of 20
iterations) took 0.36 to 0.50 s with both pools at two threads and 0.02 s at
one.  Certificates are faster with more threads (a KT Z8 certificate took
1.0 s at two threads and 1.2 s at one), so the setting goes no wider than
the search.  scipy is imported at the first search, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas, spans
# bound here for the benchmark's tracer (bench/tracer.py), which wraps it as the
# solver's certification step; search gates its hits without the full certificate
from .multunitary import (MultUnitary, full_certificate, pentagon_defect,  # noqa: F401
                          pentagon_residual)
from .tensor import LegOperator, LegSignature, Space, pullback, tensor_space

__all__ = [
    "DegreePreservingConstraint", "CommutantConstraint", "SearchProblem",
    "SearchResult", "residual_objective", "gradient", "search",
]

TRIVIAL_ORBIT_TOL = 1e-6


class DegreePreservingConstraint:
    """Zero out matrix entries between sectors of different total degree mod m."""

    def __init__(self, modulus: int = 0):
        self.modulus = int(modulus)

    def mask(self, space: Space) -> np.ndarray:
        if space.grading is None:
            raise ValueError("degree-preserving constraint needs a graded space")
        deg = np.asarray(space.grading)
        if self.modulus:
            deg = deg % self.modulus
        return (deg[:, None] == deg[None, :]).astype(float)


class CommutantConstraint:
    """Restrict to Hermitian matrices commuting with every given operator."""

    def __init__(self, operators: list[np.ndarray]):
        self.operators = [np.asarray(m, dtype=complex) for m in operators]

    def conditions(self, dim: int) -> np.ndarray:
        """Stacked real-linear conditions [H, M] = 0 on vectorized H."""
        rows = []
        eye = np.eye(dim)
        for m in self.operators:
            # unit norm, so the null space's cutoff (anchored at 1) sees every
            # operator at the same scale; a zero operator imposes nothing
            norm = np.linalg.norm(m)
            if norm == 0:
                continue
            m = m / norm
            rows.append(np.kron(eye, m.T) - np.kron(m, eye))
        return np.vstack(rows) if rows else np.zeros((0, dim * dim))


def _hermitian_basis(dim: int) -> list[np.ndarray]:
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    s = 1 / np.sqrt(2)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = s
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1j * s
            e[j, i] = -1j * s
            basis.append(e)
    return basis


@dataclass
class SearchProblem:
    space: Space
    braiding: object
    constraints: tuple = ()
    seed: int = 0
    restarts: int = 8
    max_iter: int = 200
    target_residual: float = 1e-8

    def __post_init__(self):
        # (param_count, n^2, n^2): stacked Hermitian generators of H, and the
        # same array flattened to (param_count, n^4) for H and the partials
        self._param_basis = self._feasible_basis()
        self._flat_basis = self._param_basis.reshape(len(self._param_basis), -1)
        l = self.space
        self._sig = LegSignature((l, l), (l, l))
        self._c = self.braiding.braid(l, l)
        self._cinv = self.braiding.braid_inverse(l, l)

    def _feasible_basis(self) -> np.ndarray:
        square = tensor_space(self.space, self.space)
        dim = square.dim
        basis = _hermitian_basis(dim)
        if not self.constraints:
            return np.array(basis)
        kept = basis
        for c in self.constraints:
            if isinstance(c, DegreePreservingConstraint):
                mask = c.mask(square)
                kept = [b * mask for b in kept]
            elif isinstance(c, CommutantConstraint):
                # give a *-closed family of operators, so Hermitizing the
                # projected generators stays inside the commutant
                cond = c.conditions(dim)
                ker = spans.null_space(cond)
                kept = [(ker.T @ (ker.conj() @ b.reshape(-1))).reshape(dim, dim)
                        for b in kept]
                kept = [(b + b.conj().T) / 2 for b in kept]
            else:
                raise TypeError(f"unknown constraint {c!r}")
        # re-orthonormalize over the reals so the basis stays Hermitian
        vecs = np.array([b.reshape(-1) for b in kept])
        real = np.hstack([vecs.real, vecs.imag])
        u, s, vh = np.linalg.svd(real, full_matrices=False)
        vh = vh[:spans.numerical_rank(s)]
        return (vh[:, :dim * dim] + 1j * vh[:, dim * dim:]).reshape(-1, dim, dim)

    @property
    def param_count(self) -> int:
        return len(self._param_basis)

    def hermitian(self, params: np.ndarray) -> np.ndarray:
        n = self._param_basis.shape[1]
        h = np.dot(params.reshape(1, -1), self._flat_basis).reshape(n, n)
        return (h + h.conj().T) / 2

    def unitary(self, params: np.ndarray) -> np.ndarray:
        return _exp_i(*np.linalg.eigh(self.hermitian(params)))

    def candidate(self, f: np.ndarray) -> LegOperator:
        """The matrix f as an operator on L (x) L."""
        return LegOperator(self._sig, f)

    def defect(self, f: LegOperator) -> np.ndarray:
        """The Pentagon defect of the candidate f."""
        return pentagon_defect(f, self._c, self._cinv)


def _exp_i(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(iH) for H = V diag(lam) V*."""
    return (v * np.exp(1j * lam)) @ v.conj().T


def expm_frechet(lam: np.ndarray, v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Frechet derivative of H -> exp(iH) at H = V diag(lam) V*, in direction E.

    Daleckii-Krein: L(E) = V [(V* E V) o Phi] V*, where Phi_jk is the divided
    difference of exp(ix) at lam_j, lam_k, written as
    i exp(i(lam_j + lam_k)/2) sinc((lam_j - lam_k)/2pi) so that repeated
    eigenvalues need no special case.  Since conj(Phi(lam)) = -Phi(-lam), the
    adjoint map G -> V [(V* G V) o conj(Phi)] V* is -expm_frechet(-lam, v, G).
    """
    phi = 1j * np.exp(0.5j * (lam[:, None] + lam[None, :])) \
        * np.sinc((lam[:, None] - lam[None, :]) / (2 * np.pi))
    vh = v.conj().T
    return v @ ((vh @ e @ v) * phi) @ vh


def residual_objective(problem: SearchProblem, params: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm of the Pentagon defect: the value of
    :func:`gradient` alone, for callers that difference it."""
    p = problem.defect(problem.candidate(problem.unitary(params)))
    return float(np.vdot(p, p).real)


def gradient(problem: SearchProblem, params: np.ndarray) -> tuple[float, np.ndarray]:
    """The objective and its exact gradient, from one ``eigh`` and one defect.

    Reverse mode: the defect P is pulled back through the tapes of both
    Pentagon words, which its forward pass kept, to G = dObj/dF
    (dObj = 2 Re <G, dF>), then through one adjoint Frechet derivative of
    exp to K = dObj/dH, whose Hilbert-Schmidt products with the parameter
    basis are the partials.
    """
    lam, v = np.linalg.eigh(problem.hermitian(params))
    f = problem.candidate(_exp_i(lam, v))
    p, lhs, rhs = pentagon_defect(f, problem._c, problem._cinv, return_tapes=True)
    # P = lhs - rhs: every F of either word pulls P back, with the word's sign;
    # the cotangents are summed in step order
    g = sum(pullback(lhs, p, f)) - sum(pullback(rhs, p, f))
    k = -expm_frechet(-lam, v, g)
    # 2 Re <K, B_a> for every basis element at once
    grad = 2.0 * (problem._flat_basis @ k.conj().reshape(-1)).real
    return float(np.vdot(p, p).real), grad


def scalar_orbit_distance(f: np.ndarray) -> float:
    """Hilbert-Schmidt distance to the nearest unimodular multiple of the identity."""
    n = f.shape[0]
    tr = np.trace(f)
    d2 = np.vdot(f, f).real + n - 2.0 * abs(tr)
    return float(np.sqrt(max(d2, 0.0)))


@dataclass(frozen=True)
class SearchResult:
    mu: MultUnitary
    residual: float
    restart: int
    trivial: bool

    @property
    def label(self) -> str:
        return "trivial" if self.trivial else "nontrivial"


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at the first call, so importing
    the package does not load scipy."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def search(problem: SearchProblem) -> list[SearchResult]:
    """Multi-restart descent; only unitaries that pass the hard gates are returned.

    Restart zero starts at the identity, the rest at seeded random points.
    A restart is a hit when its Pentagon residual is below the target and
    its unitarity residual below max(target, 1e-12): the hard gates of
    :func:`~braidmu.multunitary.full_certificate` at that tolerance.
    Results are ordered by (residual, restart index), so a fixed seed yields
    an identical list.  Every OpenBLAS runs at one thread meanwhile (see the
    module docstring).
    """
    import scipy.optimize  # noqa: F401  (maps scipy's OpenBLAS before the threads are set)

    rng = np.random.default_rng(problem.seed)
    tol = max(problem.target_residual, 1e-12)
    results = []
    with _blas.one_thread():
        for r in range(problem.restarts):
            if r == 0:
                x0 = np.zeros(problem.param_count)
            else:
                x0 = rng.normal(scale=1.0, size=problem.param_count)
            opt = minimize(lambda x: gradient(problem, x), x0, jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": problem.max_iter, "ftol": 1e-18,
                                    "gtol": 1e-14})
            f = problem.unitary(opt.x)
            mu = MultUnitary(problem.space, problem.candidate(f), problem.braiding)
            residual = pentagon_residual(mu)
            # residual < target <= tol passes the certificate's Pentagon gate too
            if residual >= problem.target_residual or not mu.unitarity_residual() < tol:
                continue
            results.append(SearchResult(mu=mu, residual=residual, restart=r,
                                        trivial=scalar_orbit_distance(f) < TRIVIAL_ORBIT_TOL))
    results.sort(key=lambda s: (s.residual, s.restart))
    return results
