"""Small dense semidefinite programming.

Solves  maximize <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  (psd)

with a primal-dual path-following interior-point method using
Nesterov-Todd scaling and a Mehrotra predictor-corrector step.  Problem
sizes here are tiny (matrix dimension tens, constraints hundreds), so
everything is dense float64.

Each iteration works in the NT-scaled space.  With L = chol(X) and
L^T S L = U diag(lam) U^T, the matrix R = L U diag(lam)^(-1/4) maps X and S
to the same diagonal matrix diag(v), v = lam^(1/2), and each constraint to
A~_i = R^T A_i R (R R^T is the NT scaling point W, with W S W = X).  The
Schur matrix is the Gram matrix A~ A~^T, one solve of it serves the
predictor and the corrector, and each step length is one eigvalsh of a
direction scaled by diag(v)^(-1/2).  An iteration factors one Cholesky of X,
one eigh and one solve of the Schur matrix, and four eigvalsh; S is never
inverted.

The dual is  minimize b^T y  s.t.  S = sum_i y_i A_i - C >= 0, and an
``optimal`` solution certifies a relative duality gap below ``DEFAULT_TOL``.
The dual value is an upper bound on the optimum only when S is psd, which an
iterate meets only up to tolerance.  A problem that states a bound tau on
tr X over its feasible set (``trace_bound``) gets a bound that holds for
every y (Jansson, Chaykin and Keil, "Rigorous error bounds for the optimal
value in semidefinite programming", SIAM J. Numer. Anal. 2007): for feasible
X, <C, X> = b^T y - <S, X> <= b^T y + max(0, -lambda_min(S)) tau.
``solve_sdp`` evaluates it at every iterate, with lambda_min lowered by a
rounding margin (see ``_dual_bound``), keeps the smallest, and given a
``threshold`` stops with status ``certified`` as soon as it is at most the
threshold.

Every status names what the solve proved: ``certified`` a bound at most the
threshold, ``optimal`` a gap and residuals within tolerance,
``max_iterations`` neither.  Infeasibility and unboundedness are not
detected; such a problem ends ``max_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .numerics import check_finite, symmetrize

OPTIMAL = "optimal"
CERTIFIED = "certified"
MAX_ITERATIONS = "max_iterations"

DEFAULT_TOL = 1e-8
TOL_FEAS = 1e-7
DEFAULT_MAX_ITER = 500


@dataclass
class SdpProblem:
    """maximize <objective, X> subject to <constraints[i], X> = b[i], X psd.

    ``constraints`` is one nonempty (m, n, n) stack; a stack that is not
    exactly symmetric is replaced by its symmetrized copy on construction.
    Its rows must be linearly independent, which keeps the Schur matrix
    positive definite; ``solve_sdp`` does not check this.  On dependent
    rows a consistent b usually still solves to ``optimal``, and a b
    outside their range (beyond the feasibility tolerance) is never
    reported ``optimal`` but ends ``max_iterations``.
    ``trace_bound`` states that tr X <= trace_bound on the feasible set; it
    is a fact about the problem that makes ``solve_sdp`` certify an upper
    bound on the optimum at every iterate, not a solver option.
    """

    n: int
    objective: np.ndarray
    constraints: np.ndarray
    b: np.ndarray
    trace_bound: float = math.inf

    def __post_init__(self):
        self.objective = symmetrize(np.asarray(self.objective, dtype=float))
        if self.objective.shape != (self.n, self.n):
            raise ValueError("objective must be n x n")
        a = check_finite(np.asarray(self.constraints, dtype=float))
        if a.ndim != 3 or len(a) == 0 or a.shape[1:] != (self.n, self.n):
            raise ValueError("constraints must be a nonempty (m, n, n) array")
        if not np.array_equal(a, a.transpose(0, 2, 1)):
            a = (a + a.transpose(0, 2, 1)) / 2.0
        self.constraints = a
        self.b = check_finite(np.asarray(self.b, dtype=float))
        if self.b.shape != (len(a),):
            raise ValueError("b must have one entry per constraint")
        if not self.trace_bound >= 0.0:
            raise ValueError("trace_bound must be nonnegative")


@dataclass
class SdpSolution:
    X: np.ndarray
    value: float
    dual_value: float
    status: str
    iterations: int = 0
    # smallest certified upper bound on the optimum over the iterates, and
    # the lowered lambda_min(S) it was computed from (see _dual_bound)
    bound: float = math.inf
    lambda_min: float = math.nan

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _max_step(v: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with diag(v) + alpha*d psd (v > 0)."""
    r = 1.0 / np.sqrt(v)
    lam_min = np.linalg.eigvalsh(r[:, None] * d * r)[0]
    if lam_min >= -1e-14:
        return math.inf
    return -1.0 / lam_min


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, v) with R^-1 X R^-T = R^T S R = diag(v).

    R R^T is the NT scaling point W (W S W = X).  Raises LinAlgError when
    X or S is not positive definite.
    """
    l = np.linalg.cholesky(x)
    lam, u = np.linalg.eigh(symmetrize(l.T @ s @ l))
    if lam[0] <= 0.0:
        raise np.linalg.LinAlgError("S is not positive definite")
    v = np.sqrt(lam)
    return (l @ u) / np.sqrt(v), v


def _dual_bound(aty: np.ndarray, y: np.ndarray, b: np.ndarray, c: np.ndarray,
                a_norms: np.ndarray, trace_bound: float) -> tuple[float, float]:
    """(ub, lam_lo): an upper bound on <C, X> over every feasible X with
    tr X <= trace_bound, valid for any y, and the lowered lambda_min(S) it
    rests on.  ``aty`` is the computed sum_i y_i A_i and ``a_norms`` holds
    the Frobenius norms ||A_i||.

    With S = A^T y - C a feasible X has <C, X> = b^T y - <S, X>, and
    -<S, X> <= max(0, -lambda_min(S)) tr X.  In floating point (eps the
    machine epsilon, u = eps/2, gamma_k = k u / (1 - k u); Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 3.1), with Weyl's inequality
    moving each eigenvalue by at most the Frobenius norm of a perturbation:

    * each entry of S sums at most m + 1 terms, so in any summation order
      the computed S is within gamma_{m+1} (sum_i |y_i| ||A_i|| + ||C||) of
      the exact one;
    * eigvalsh is backward stable: its eigenvalues are those of a matrix
      within p(n) eps ||S|| of the computed S, p(n) a modestly growing
      function of n (LAPACK Users' Guide, sec. 4.7).

    Both bounds are relative, and gradual underflow adds an absolute error:
    a product or quotient is then (a op b)(1 + delta) + eta with
    |eta| <= tiny u, tiny the smallest normal number, and a sum or
    difference is exact (Higham, sec. 2.1, model (2.8)).  Each entry of S
    gains at most (m + 1) tiny u, and an objective C formed as a mean of
    products, like the pair-moment matrix, at most 2 tiny u per entry
    before it gets here: n (m + 3) tiny u in Frobenius norm in all.
    eigvalsh is charged as in its relative term, with tiny per entry (n tiny
    in norm) in place of eps ||S||: 4 n^2 tiny.

    lam_lo = lambda_min - margin with margin = eps ((m + 1) (sum_i |y_i|
    ||A_i|| + ||C||) + 4 n ||S||) + n (m + 1 + 4 n) tiny covers the
    relative terms twice over with p(n) = 4n, eigvalsh's absolute term,
    and the underflow in S and C 2^51 times over.  The bound b^T y + t,
    t = max(0, -lam_lo) trace_bound, has b^T y within gamma_m |b|^T |y| of
    exact and three more roundings of relative size u, each product also
    within tiny u; the pad (m + 3) (eps (|b|^T |y| + t) + tiny) covers them
    twice over.  So a C whose entries underflowed to subnormal numbers or
    to zero gets a bound of at least tiny, never one those entries made up.
    """
    m, n = len(y), len(c)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    s = aty - c
    margin = (eps * ((m + 1) * (np.abs(y) @ a_norms + np.linalg.norm(c))
                     + 4 * n * np.linalg.norm(s))
              + n * (m + 1 + 4 * n) * tiny)
    lam_lo = float(np.linalg.eigvalsh(s)[0] - margin)
    t = max(0.0, -lam_lo) * trace_bound
    pad = (m + 3) * (eps * (np.abs(b) @ np.abs(y) + t) + tiny)
    return float(b @ y + t + pad), lam_lo


def solve_sdp(problem: SdpProblem, max_iterations: int = DEFAULT_MAX_ITER,
              threshold: float | None = None,
              dual_point: np.ndarray | None = None) -> SdpSolution:
    """Interior-point solve; ``optimal`` certifies a duality gap of at most
    DEFAULT_TOL relative to 1 + |<C, X>| + |b^T y|, and primal and dual
    residuals of at most TOL_FEAS relative to 1 + ||b|| and 1 + ||C||.
    Definiteness is not tested: the step lengths keep X and S inside the
    cone.  Otherwise the solve ends with status
    MAX_ITERATIONS: after ``max_iterations`` iterates, or at a step that
    breaks down numerically, with the iterate that step started from.  An
    infeasible or unbounded problem ends this way too.

    When the problem has a finite ``trace_bound`` every iterate's
    ``_dual_bound`` is taken and the smallest is kept on the solution.
    Given a ``threshold``, the solve ends with status CERTIFIED at the first
    iterate where that bound is at most the threshold, before the
    optimality test.  The iterates never depend on the threshold.

    A ``dual_point`` y, which needs a finite ``trace_bound``, takes part in
    the first iterate's check only: the smaller of its bound and the
    iterate's is kept.  A point that certifies the threshold there ends the
    solve at iteration 1 with no Newton step; the iterates never depend on
    it either.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    n = problem.n
    a, b, c = problem.constraints, problem.b, problem.objective
    m = len(a)
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

    certify = math.isfinite(problem.trace_bound)
    bound, lam_bound = math.inf, math.nan
    if dual_point is not None:
        if not certify:
            raise ValueError("a dual point needs a finite trace_bound")
        bound, lam_bound = _dual_bound(np.tensordot(dual_point, a, axes=1),
                                       dual_point, b, c, a_norms,
                                       problem.trace_bound)

    def finish(status):
        return SdpSolution(X=x, value=pobj, dual_value=dobj, status=status,
                           iterations=it, bound=bound, lambda_min=lam_bound)

    # A_i R and the scaled constraints R^T A_i R, rewritten every iteration
    ar = np.empty_like(a)
    at = np.empty_like(a)
    at_flat = at.reshape(m, n * n)
    for it in range(1, max_iterations + 1):
        mu = float(np.tensordot(x, s) / n)
        r_p = b - a_flat @ x.ravel()
        aty = np.tensordot(y, a, axes=1)
        r_d = c + s - aty   # want 0
        pobj = float(np.tensordot(c, x))
        dobj = float(b @ y)
        if certify:
            ub, lam = _dual_bound(aty, y, b, c, a_norms, problem.trace_bound)
            if ub < bound:
                bound, lam_bound = ub, lam
            if threshold is not None and bound <= threshold:
                return finish(CERTIFIED)
        rel_gap = abs(dobj - pobj) / (1.0 + abs(pobj) + abs(dobj))
        feas_p = np.linalg.norm(r_p) / norm_b
        feas_d = np.linalg.norm(r_d) / norm_c
        if rel_gap <= DEFAULT_TOL and feas_p <= TOL_FEAS and feas_d <= TOL_FEAS:
            return finish(OPTIMAL)
        if it == max_iterations:
            break
        try:
            # Newton system in the scaled space:  dX~ + dS~ = rc~,
            # A~(dX~) = r_p,  A~^T(dy) - dS~ = R^T r_d R.  With
            # rc~ = sigma mu / v - v its Schur right-hand side is
            # A~(R^T r_d R) - b + sigma mu A~(diag(1/v)), affine in sigma mu,
            # so one solve serves both steps (A~(diag(1/v)) = A(S^-1)).
            r, v = _nt_scaling(x, s)
            np.matmul(r.T, np.matmul(a, r, out=ar), out=at)
            schur = at_flat @ at_flat.T
            schur.flat[::m + 1] += 1e-14 * np.trace(schur) / m
            rd_t = r.T @ r_d @ r
            dy_aff, dy_cen = np.linalg.solve(schur, np.column_stack([
                at_flat @ rd_t.ravel() - b,
                np.diagonal(at, axis1=1, axis2=2) @ (1.0 / v)])).T

            def newton_step(rc, dy):
                ds = symmetrize((dy @ at_flat).reshape(n, n) - rd_t)
                return np.diag(rc) - ds, ds

            # predictor (affine scaling)
            dx_a, ds_a = newton_step(-v, dy_aff)
            ap = min(1.0, 0.98 * _max_step(v, dx_a))
            ad = min(1.0, 0.98 * _max_step(v, ds_a))
            # <X, S> is invariant under the scaling
            mu_aff = float(np.tensordot(np.diag(v) + ap * dx_a,
                                        np.diag(v) + ad * ds_a) / n)
            sigma = min(1.0, max(0.0, (mu_aff / mu))) ** 3

            # corrector with centering
            dy = dy_aff + sigma * mu * dy_cen
            dx, ds = newton_step(sigma * mu / v - v, dy)
            ap = min(1.0, 0.98 * _max_step(v, dx))
            ad = min(1.0, 0.98 * _max_step(v, ds))
            x, y, s = (symmetrize(x + ap * (r @ dx @ r.T)), y + ad * dy,
                       symmetrize(s + ad * (np.tensordot(dy, a, axes=1) - r_d)))
        except (np.linalg.LinAlgError, NonFiniteError):
            break
    return finish(MAX_ITERATIONS)
