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
definite for degenerate constraint lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import symmetrize

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"

DEFAULT_TOL = 1e-8
TOL_PSD = 1e-7
TOL_FEAS = 1e-7
DEFAULT_MAX_ITER = 500


@dataclass
class SdpProblem:
    """maximize <objective, X> subject to <A_i, X> = b_i, X psd."""

    n: int
    objective: np.ndarray
    constraints: list  # list[(np.ndarray, float)]

    def __post_init__(self):
        self.objective = symmetrize(np.asarray(self.objective, dtype=float))
        if self.objective.shape != (self.n, self.n):
            raise ValueError("objective must be n x n")
        fixed = []
        for a, b in self.constraints:
            a = symmetrize(np.asarray(a, dtype=float))
            if a.shape != (self.n, self.n):
                raise ValueError("constraint matrix must be n x n")
            fixed.append((a, float(b)))
        self.constraints = fixed


@dataclass
class SdpSolution:
    X: np.ndarray
    value: float
    dual_value: float
    status: str
    gap: float = math.inf
    iterations: int = 0
    y: Optional[np.ndarray] = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _svec(m: np.ndarray, scale: np.ndarray, iu) -> np.ndarray:
    return m[iu] * scale


def _presolve(problem: SdpProblem):
    """Equalities with independent rows, from one eigendecomposition of the
    Gram matrix of the svec'd constraint rows.

    Returns (A_list, b, status).  When every Gram eigenvalue is above the
    rank threshold the constraints come back unchanged.  Otherwise they are
    replaced by an orthonormal basis of their span, and status is
    INFEASIBLE when b has a component in the null space of the rows.
    """
    if not problem.constraints:
        return [], np.zeros(0), None
    n = problem.n
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    rows = np.stack([_svec(a, scale, iu) for a, _ in problem.constraints])
    b = np.array([bi for _, bi in problem.constraints])
    a_list = [a for a, _ in problem.constraints]

    lam, vec = np.linalg.eigh(rows @ rows.T)
    independent = lam > max(rows.shape) * np.finfo(float).eps * lam[-1]
    if np.all(independent):
        return a_list, b, None
    null = vec[:, ~independent]
    if np.linalg.norm(null.T @ b) > 1e-8 * (1.0 + np.linalg.norm(b)):
        return None, None, INFEASIBLE
    coeff = vec[:, independent].T / np.sqrt(lam[independent])[:, None]
    return list(np.tensordot(coeff, np.stack(a_list), axes=1)), coeff @ b, None


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
    within TOL_FEAS / TOL_PSD."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = problem.n
    a_list, b, bad = _presolve(problem)
    if bad == INFEASIBLE:
        return SdpSolution(X=np.zeros((n, n)), value=-math.inf,
                           dual_value=math.inf, status=INFEASIBLE)
    c = problem.objective
    m = len(a_list)

    if m == 0:
        # unconstrained: bounded iff C is nsd; optimum X = 0
        lam_max = np.linalg.eigvalsh(c)[-1] if n else 0.0
        if lam_max > tol:
            return SdpSolution(X=np.zeros((n, n)), value=math.inf,
                               dual_value=math.inf, status=INFEASIBLE)
        return SdpSolution(X=np.zeros((n, n)), value=0.0, dual_value=0.0,
                           status=OPTIMAL, gap=0.0)

    a_stack = np.stack(a_list)                      # (m, n, n)
    a_flat = a_stack.reshape(m, n * n)
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)

    # infeasible start: X = rho_p I, S = rho_d I scaled from the data
    a_norms = np.linalg.norm(a_flat, axis=1)
    rho_p = max(1.0, float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms)))) * math.sqrt(n)
    rho_d = max(1.0, np.linalg.norm(c) / math.sqrt(n), float(np.max(a_norms)))
    x = rho_p * np.eye(n)
    s = rho_d * np.eye(n)
    y = np.zeros(m)

    def operator_a(mat):
        return a_flat @ mat.ravel()

    def operator_at(vec):
        return np.tensordot(vec, a_stack, axes=1)

    best = None
    for it in range(1, max_iterations + 1):
        mu = float(np.tensordot(x, s) / n)
        r_p = b - operator_a(x)
        r_d = c + s - operator_at(y)               # want 0
        pobj = float(np.tensordot(c, x))
        dobj = float(b @ y)
        gap = dobj - pobj
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        feas_p = np.linalg.norm(r_p) / norm_b
        feas_d = np.linalg.norm(r_d) / norm_c
        if rel_gap <= tol and feas_p <= TOL_FEAS and feas_d <= TOL_FEAS:
            return SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                               status=OPTIMAL, gap=max(gap, 0.0),
                               iterations=it, y=y.copy())
        if (np.linalg.norm(y) > 1e12 * norm_b or not np.isfinite(mu)
                or mu > 1e14 or abs(pobj) > 1e13 * norm_c):
            # diverging dual (primal infeasible) or diverging primal value
            # (dual infeasible / primal unbounded)
            return SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                               status=INFEASIBLE, gap=gap, iterations=it)
        best = (symmetrize(x), pobj, dobj, gap, it)

        try:
            w = _nt_scaling(x, s)
        except np.linalg.LinAlgError:
            return SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                               status=MAX_ITERATIONS, gap=gap, iterations=it)
        wa = np.array([w @ ai @ w for ai in a_stack])
        schur = a_flat @ wa.reshape(m, n * n).T
        schur = (schur + schur.T) / 2.0
        schur += 1e-14 * np.trace(schur) / m * np.eye(m)
        try:
            np.linalg.cholesky(schur)  # positive definiteness check only
        except np.linalg.LinAlgError:
            return SdpSolution(X=symmetrize(x), value=pobj, dual_value=dobj,
                               status=MAX_ITERATIONS, gap=gap, iterations=it)

        # dX + W dS W = rc;  A(dX) = r_p;  A^T(dy) - dS = r_d.  The Schur
        # right-hand side A(rc) - r_p + A(W r_d W) is affine in
        # rc = sigma mu S^-1 - X, so one solve serves both steps.
        s_inv = symmetrize(np.linalg.inv(s))
        dy_aff, dy_cen = np.linalg.solve(schur, np.column_stack([
            -operator_a(x) - r_p + operator_a(w @ r_d @ w),
            operator_a(s_inv)])).T

        def newton_step(rc, dy):
            ds = symmetrize(operator_at(dy) - r_d)
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

    xb, pobj, dobj, gap, it = best if best else (np.zeros((n, n)), 0.0, 0.0, math.inf, 0)
    return SdpSolution(X=xb, value=pobj, dual_value=dobj,
                       status=MAX_ITERATIONS, gap=gap, iterations=max_iterations)


def check_solution(problem: SdpProblem, sol: SdpSolution,
                   tol_psd: float = TOL_PSD, tol_feas: float = TOL_FEAS) -> bool:
    """Verify the Optimal invariants: psd within tol, feasible, gap bound."""
    if not sol.optimal:
        return False
    lam_min = np.linalg.eigvalsh(sol.X)[0]
    if lam_min < -tol_psd * (1.0 + abs(np.trace(sol.X))):
        return False
    for a, b in problem.constraints:
        if abs(np.tensordot(a, sol.X) - b) > tol_feas * (1.0 + abs(b)):
            return False
    return True

