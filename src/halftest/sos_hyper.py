"""Degree-4 SOS relaxation of the maximum directional fourth moment.

The relaxation is a homogeneous quartic program over a Gram matrix M
indexed by the D = d(d+1)/2 pairs v_i v_j with i <= j (in
``np.triu_indices(d)`` order):

    maximize   <C, M>
    subject to M psd,
               sum_ij Etilde[v_i^2 v_j^2] = 1   (that is, Etilde[|v|^4] = 1),
               moment consistency (every entry naming an already-seen
               quartic monomial equals that monomial's first entry).

The objective C = E[phi phi^T] is the pair-moment matrix of the weighted
pair features phi(x) = (c_ij x_i x_j)_{i<=j}, c_ii = 1, c_ij = 2.  Since
<v, x>^2 = psi(v)^T phi(x) for psi(v) = (v_i v_j)_{i<=j}, it is the
fourth-moment tensor flattened in the pair basis:
psi(v)^T C psi(v) = E[<v, x>^4].  On a consistent M every quartic's
positions carry c_a c_b weights that sum to its number of orderings, so
<C, M> = sum_ijkl E[x_i x_j x_k x_l] Etilde[v_i v_j v_k v_l].

Its value equals that of the degree-4 pseudo-expectation relaxation over
{1, v_i, v_i v_j} with the sphere ideal Etilde[(|v|^2 - 1) m] = 0
(Doherty and Wehner, arXiv:1210.5048):

* the objective is even, so symmetrizing v -> -v zeros every odd moment;
* on the even block 1 = |v|^2 modulo the ideal, so the constant row is a
  combination of the v_i^2 rows and Etilde[1] = 1 becomes Etilde[|v|^4] = 1;
* the {v_i} block is psd automatically, since
  Etilde[(a^T v)^2] = sum_k Etilde[(a^T v v_k)^2].

The uniform sphere moments give a positive definite M, so the program is
strictly feasible, and its equality rows are independent by construction.

A tester built on the relaxation accepts a sample exactly when the
certified relaxation value is at most ``(C_hyper - 1) * gamma^4``; on
acceptance every unit direction v has empirical fourth moment
``E[<v,x>^4] <= C_hyper * gamma^4``, because the relaxation upper-bounds
the true maximum.  Solver failures reject (the soundness direction must
never be voided by numerical trouble).
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import check_finite
from .sdp import SdpProblem, SdpSolution, solve_sdp


def empirical_fourth_moment_tensor(points: np.ndarray) -> np.ndarray:
    """The D x D pair-moment matrix C = Phi^T Phi / n of the sample."""
    points = check_finite(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    n, d = points.shape
    phi = np.empty((n, d * (d + 1) // 2))
    start = 0
    for i in range(d):
        block = phi[:, start:start + d - i]
        np.multiply(points[:, i:], points[:, i, None], out=block)
        block[:, 1:] *= 2.0
        start += d - i
    return phi.T @ phi / n


def build_degree4_relaxation(c: np.ndarray) -> SdpProblem:
    """The pair-Gram SDP whose value upper-bounds max_{|v|=1} psi(v)^T C psi(v)."""
    n = c.shape[0]
    d = (math.isqrt(8 * n + 1) - 1) // 2
    pi, pj = np.triu_indices(d)
    ga, gb = np.triu_indices(n)                 # Gram positions, row-major
    quartic = np.sort([pi[ga], pj[ga], pi[gb], pj[gb]], axis=0)
    key = ((quartic[0] * d + quartic[1]) * d + quartic[2]) * d + quartic[3]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    first = first[inverse]
    later = np.flatnonzero(first != np.arange(len(key)))

    # row 0: Etilde[|v|^4] = sum_ij Etilde[v_i^2 v_j^2] = 1; row r > 0: the
    # r-th later position naming a quartic equals that quartic's first one
    m = 1 + len(later)
    constraints = np.zeros((m, n, n))
    squares = np.flatnonzero(pi == pj)
    constraints[0][np.ix_(squares, squares)] = 1.0
    rows = np.arange(1, m)
    for pos, sign in ((later, 0.5), (first[later], -0.5)):
        np.add.at(constraints, (rows, ga[pos], gb[pos]), sign)
        np.add.at(constraints, (rows, gb[pos], ga[pos]), sign)
    b = np.zeros(m)
    b[0] = 1.0
    return SdpProblem(n, c, constraints, b)


def solve_relaxation(c: np.ndarray, tol: float = 1e-8) -> tuple[float, SdpSolution]:
    """Certified relaxation value, NaN unless the solve is ``optimal``.

    The returned value is the dual objective: up to the solver's
    feasibility tolerance it upper-bounds the relaxation optimum (and
    therefore the true maximum directional fourth moment), which is the
    side the tester's soundness leans on.  It exceeds the primal objective
    by at most the certified duality gap.
    """
    sol = solve_sdp(build_degree4_relaxation(c), tol=tol)
    if not sol.optimal:
        return math.nan, sol
    return max(sol.value, sol.dual_value), sol
