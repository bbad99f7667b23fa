"""Small dense semidefinite programming.

Solves  maximize <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  (psd)

with a primal-dual path-following interior-point method using
Nesterov-Todd scaling and a Mehrotra predictor-corrector step; one dense
solve of the Schur complement per iteration serves both steps.  Problem
sizes here are tiny (matrix dimension tens, constraints hundreds), so
everything is dense float64.

The dual is  minimize b^T y  s.t.  S = sum_i y_i A_i - C >= 0, and an
``optimal`` solution certifies a duality gap below the requested tolerance.
A presolve pass takes one eigendecomposition of the Gram matrix of the
constraint rows.  Independent rows pass through unchanged; dependent ones
are replaced by an orthonormal basis of their span (declaring infeasibility
when b does not lie in it), which keeps the Schur complement positive
definite for degenerate constraint stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .numerics import check_finite, symmetrize

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"

DEFAULT_TOL = 1e-8
TOL_PSD = 1e-7
TOL_FEAS = 1e-7
DEFAULT_MAX_ITER = 500


@dataclass
class SdpProblem:
    """maximize <objective, X> subject to <constraints[i], X> = b[i], X psd.

    ``constraints`` is one (m, n, n) stack, symmetrized on construction.
    """

    n: int
    objective: np.ndarray
    constraints: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.objective = symmetrize(np.asarray(self.objective, dtype=float))
        if self.objective.shape != (self.n, self.n):
            raise ValueError("objective must be n x n")
        a = check_finite(np.asarray(self.constraints, dtype=float))
        if a.size == 0:
            a = a.reshape(0, self.n, self.n)
        if a.ndim != 3 or a.shape[1:] != (self.n, self.n):
            raise ValueError("constraints must be an (m, n, n) array")
        self.constraints = (a + a.transpose(0, 2, 1)) / 2.0
        self.b = check_finite(np.asarray(self.b, dtype=float))
        if self.b.shape != (len(a),):
            raise ValueError("b must have one entry per constraint")


@dataclass
class SdpSolution:
    X: np.ndarray
    value: float
    dual_value: float
    status: str
    gap: float = math.inf
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _presolve(problem: SdpProblem):
    """Equalities with independent rows, from one eigendecomposition of the
    Gram matrix of the svec'd constraint rows.

    Returns (constraints, b, status).  When every Gram eigenvalue is above
    the rank threshold the problem's own arrays come back unchanged.
    Otherwise the rows are replaced by an orthonormal basis of their span,
    and status is INFEASIBLE when b has a component in the null space of
    the rows.
    """
    a, b = problem.constraints, problem.b
    if len(a) == 0:
        return a, b, None
    iu = np.triu_indices(problem.n)
    rows = a[:, iu[0], iu[1]] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))

    lam, vec = np.linalg.eigh(rows @ rows.T)
    independent = lam > max(rows.shape) * np.finfo(float).eps * lam[-1]
    if np.all(independent):
        return a, b, None
    null = vec[:, ~independent]
    if np.linalg.norm(null.T @ b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        return None, None, INFEASIBLE
    coeff = vec[:, independent].T / np.sqrt(lam[independent])[:, None]
    return np.tensordot(coeff, a, axes=1), coeff @ b, None


def _max_step(mat: np.ndarray, dmat: np.ndarray) -> float:
    """Largest alpha with mat + alpha*dmat psd (mat is pd)."""
    try:
        l = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        # nudge onto the pd cone
        w = np.linalg.eigvalsh(mat)
        l = np.linalg.cholesky(mat + (abs(w[0]) + 1e-12) * np.eye(mat.shape[0]))
    linv_d = np.linalg.solve(l, np.linalg.solve(l, dmat.T).T)
    lam_min = np.linalg.eigvalsh(symmetrize(linv_d))[0]
    if lam_min >= -1e-14:
        return math.inf
    return -1.0 / lam_min


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """W pd with W S W = X."""
    l = np.linalg.cholesky(x)
    lam, u = np.linalg.eigh(symmetrize(l.T @ s @ l))
    lam = np.maximum(lam, 1e-300)
    g = l @ u
    return symmetrize((g * lam**-0.5) @ g.T)


def solve_sdp(problem: SdpProblem, tol: float = DEFAULT_TOL,
              max_iterations: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Interior-point solve; ``optimal`` certifies gap <= tol and feasibility
    within TOL_FEAS / TOL_PSD.  A step that breaks down numerically ends the
    solve with the current iterate and status MAX_ITERATIONS."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = problem.n
    a, b, bad = _presolve(problem)
    if bad == INFEASIBLE:
        return SdpSolution(X=np.zeros((n, n)), value=-math.inf,
                           dual_value=math.inf, status=INFEASIBLE)
    c = problem.objective
    m = len(a)

    if m == 0:
        # unconstrained: bounded iff C is nsd; optimum X = 0
        lam_max = np.linalg.eigvalsh(c)[-1] if n else 0.0
        if lam_max > tol:
            return SdpSolution(X=np.zeros((n, n)), value=math.inf,
                               dual_value=math.inf, status=INFEASIBLE)
        return SdpSolution(X=np.zeros((n, n)), value=0.0, dual_value=0.0,
                           status=OPTIMAL, gap=0.0)

    a_flat = a.reshape(m, n * n)                    # A(X) = a_flat @ X.ravel()
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)

    # infeasible start: X = rho_p I, S = rho_d I scaled from the data
    a_norms = np.linalg.norm(a_flat, axis=1)
    rho_p = max(1.0, float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms)))) * math.sqrt(n)
    rho_d = max(1.0, np.linalg.norm(c) / math.sqrt(n), float(np.max(a_norms)))
    x = rho_p * np.eye(n)
    s = rho_d * np.eye(n)
    y = np.zeros(m)

    best = SdpSolution(X=np.zeros((n, n)), value=0.0, dual_value=0.0,
                       status=MAX_ITERATIONS)
    for it in range(1, max_iterations + 1):
        mu = float(np.tensordot(x, s) / n)
        r_p = b - a_flat @ x.ravel()
        r_d = c + s - np.tensordot(y, a, axes=1)   # want 0
        pobj = float(np.tensordot(c, x))
        dobj = float(b @ y)
        gap = dobj - pobj
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        feas_p = np.linalg.norm(r_p) / norm_b
        feas_d = np.linalg.norm(r_d) / norm_c
        if rel_gap <= tol and feas_p <= TOL_FEAS and feas_d <= TOL_FEAS:
            return SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                               status=OPTIMAL, gap=max(gap, 0.0), iterations=it)
        if (np.linalg.norm(y) > 1e12 * norm_b or not np.isfinite(mu)
                or mu > 1e14 or abs(pobj) > 1e13 * norm_c):
            # diverging dual (primal infeasible) or diverging primal value
            # (dual infeasible / primal unbounded)
            return SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                               status=INFEASIBLE, gap=gap, iterations=it)
        best = SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                           status=MAX_ITERATIONS, gap=gap, iterations=it)
        try:
            w = _nt_scaling(x, s)
            wa = np.array([w @ ai @ w for ai in a])
            schur = a_flat @ wa.reshape(m, n * n).T
            schur = (schur + schur.T) / 2.0
            schur += 1e-14 * np.trace(schur) / m * np.eye(m)
            np.linalg.cholesky(schur)  # positive definiteness check only

            # dX + W dS W = rc;  A(dX) = r_p;  A^T(dy) - dS = r_d.  The Schur
            # right-hand side A(rc) - r_p + A(W r_d W) is affine in
            # rc = sigma mu S^-1 - X, so one solve serves both steps.
            s_inv = symmetrize(np.linalg.inv(s))
            dy_aff, dy_cen = np.linalg.solve(schur, np.column_stack([
                -(a_flat @ x.ravel()) - r_p + a_flat @ (w @ r_d @ w).ravel(),
                a_flat @ s_inv.ravel()])).T

            def newton_step(rc, dy):
                ds = symmetrize(np.tensordot(dy, a, axes=1) - r_d)
                return symmetrize(rc - w @ ds @ w), ds

            # predictor (affine scaling)
            dx_a, ds_a = newton_step(-x, dy_aff)
            ap = min(1.0, 0.98 * _max_step(x, dx_a))
            ad = min(1.0, 0.98 * _max_step(s, ds_a))
            mu_aff = float(np.tensordot(x + ap * dx_a, s + ad * ds_a) / n)
            sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

            # corrector with centering
            dy = dy_aff + sigma * mu * dy_cen
            dx, ds = newton_step(sigma * mu * s_inv - x, dy)
            ap = min(1.0, 0.98 * _max_step(x, dx))
            ad = min(1.0, 0.98 * _max_step(s, ds))
            x = symmetrize(x + ap * dx)
            y = y + ad * dy
            s = symmetrize(s + ad * ds)
        except (np.linalg.LinAlgError, NonFiniteError):
            return best
    return best


def check_solution(problem: SdpProblem, sol: SdpSolution,
                   tol_psd: float = TOL_PSD, tol_feas: float = TOL_FEAS) -> bool:
    """Verify the Optimal invariants: psd within tol, feasible, gap bound."""
    if not sol.optimal:
        return False
    lam_min = np.linalg.eigvalsh(sol.X)[0]
    if lam_min < -tol_psd * (1.0 + abs(np.trace(sol.X))):
        return False
    residual = np.tensordot(problem.constraints, sol.X) - problem.b
    return bool(np.all(np.abs(residual) <= tol_feas * (1.0 + np.abs(problem.b))))
