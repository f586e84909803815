"""Numerical search for braided multiplicative unitaries.

Candidates are parametrized as exp(i H) with H Hermitian in a constrained
subspace, so every iterate sits exactly on the unitary manifold and the
Pentagon residual is the only acceptance quantity.

Each L-BFGS-B evaluation gives the objective and its gradient together: the
exponential and its Frechet derivative both come from one ``eigh`` of H, and
the gradient runs in reverse mode through the Pentagon's two words, then one
adjoint Frechet derivative, whatever the number of parameters.  Nothing here
calls ``scipy.linalg``: numpy and scipy link separate OpenBLAS builds, each
with its own thread pool, and alternating between two pools on the same cores
costs milliseconds per switch, more than a whole small gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import spans
from .multunitary import (MultUnitary, full_certificate, pentagon_defect, pentagon_residual,
                          pentagon_words)
from .tensor import LegOperator, LegSignature, Space, Step, pullback, tensor_space

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
        # (param_count, n^2, n^2): stacked Hermitian generators of H
        self._param_basis = self._feasible_basis()
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
        h = np.tensordot(params, self._param_basis, axes=1)
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

    Reverse mode: the defect P is pulled back through both Pentagon words to
    G = dObj/dF (dObj = 2 Re <G, dF>), then through one adjoint Frechet
    derivative of exp to K = dObj/dH, whose Hilbert-Schmidt products with
    the parameter basis are the partials.
    """
    lam, v = np.linalg.eigh(problem.hermitian(params))
    f = problem.candidate(_exp_i(lam, v))
    p = problem.defect(f)
    legs, lhs, rhs = pentagon_words(f, problem._c, problem._cinv)
    # P = lhs - rhs: every F of either word pulls P back, with the word's sign
    g = _pulled_to(f, lhs, legs, p) - _pulled_to(f, rhs, legs, p)
    k = -expm_frechet(-lam, v, g)
    # 2 Re <K, B_a> for every basis element at once
    grad = 2.0 * (problem._param_basis.reshape(problem.param_count, -1)
                  @ k.conj().reshape(-1)).real
    return float(np.vdot(p, p).real), grad


def _pulled_to(f: LegOperator, steps: list[Step], legs: tuple[Space, ...], p: np.ndarray
               ) -> np.ndarray:
    """The sum of the cotangents of P at the steps of the word that apply f."""
    return sum(g for (op, _), g in zip(steps, pullback(steps, legs, p)) if op is f)


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


def search(problem: SearchProblem) -> list[SearchResult]:
    """Multi-restart descent; only certified unitaries are returned.

    Restart zero starts at the identity, the rest at seeded random points.
    Results are ordered by (residual, restart index), so a fixed seed yields
    an identical list.
    """
    rng = np.random.default_rng(problem.seed)
    results = []
    for r in range(problem.restarts):
        if r == 0:
            x0 = np.zeros(problem.param_count)
        else:
            x0 = rng.normal(scale=1.0, size=problem.param_count)
        opt = minimize(lambda x: gradient(problem, x), x0, jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": problem.max_iter, "ftol": 1e-18, "gtol": 1e-14})
        f = problem.unitary(opt.x)
        mu = MultUnitary(problem.space, problem.candidate(f), problem.braiding)
        residual = pentagon_residual(mu)
        if residual >= problem.target_residual:
            continue
        cert = full_certificate(mu, tol=max(problem.target_residual, 1e-12))
        if not cert.gates_passed:
            continue
        results.append(SearchResult(mu=mu, residual=residual, restart=r,
                                    trivial=scalar_orbit_distance(f) < TRIVIAL_ORBIT_TOL))
    results.sort(key=lambda s: (s.residual, s.restart))
    return results
