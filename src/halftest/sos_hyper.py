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
Every feasible M has tr M <= 1 (see ``build_degree4_relaxation``), so each
dual iterate y of the solver yields the rigorous upper bound
b^T y + max(0, -lambda_min(A^T y - C)) on the relaxation value, with a
rounding margin on lambda_min (``sdp._dual_bound``).

A tester built on the relaxation asks it one question in units of gamma:
it accepts a sample x exactly when such a bound for the sample x / gamma is
at most ``C_hyper - 1``, and stops the solve at the first iterate where it
is; on acceptance every unit direction v has empirical fourth moment
``E[<v,x>^4] <= C_hyper * gamma^4``, because the relaxation upper-bounds
the true maximum.  The bound holds whatever the solver did, so no
feasibility tolerance enters an accept.  A sample without such a bound
is rejected; rejecting is always sound, and numerical trouble can only
cost completeness.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import check_finite
from .sdp import CERTIFIED, OPTIMAL, SdpProblem, SdpSolution, solve_sdp


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
    """The pair-Gram SDP whose value upper-bounds max_{|v|=1} psi(v)^T C psi(v).

    ``c`` must be D x D with D = d(d+1)/2 for some d >= 1.

    Its ``trace_bound`` is 1: on a feasible M the diagonal entry at (ij, ij)
    is Etilde[v_i^2 v_j^2] >= 0 and names the same quartic as the entry at
    (ii, jj), so tr M = sum_{i<=j} Etilde[v_i^2 v_j^2]
    <= sum_ij Etilde[v_i^2 v_j^2] = 1 by the normalization row.

    Its rows depend on d alone and are linearly independent, as
    ``SdpProblem`` requires: each owns a Gram position that no other row
    touches.  The normalization row owns the positions (ii, ii), since v_i^4
    has no other position.  Consistency row r owns its later position,
    which is the first position of no quartic and later in no other row
    (the normalization row touches only the positions (ii, jj), each the
    first of v_i^2 v_j^2).  Written as vectors with off-diagonal entries
    scaled by sqrt 2, a row's owned entry is 1 on the diagonal and 1/sqrt 2
    off it, so the Gram matrix of the rows is diag(p) + (a psd matrix) with
    p >= 1/2, and its smallest eigenvalue is at least 1/2.
    """
    c = np.asarray(c)
    n = c.shape[0] if c.ndim == 2 else 0
    d = (math.isqrt(8 * n + 1) - 1) // 2
    if d < 1 or c.shape != (n, n) or d * (d + 1) // 2 != n:
        raise ValueError("c must be D x D with D = d(d+1)/2 for some d >= 1")
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
    return SdpProblem(n, c, constraints, b, trace_bound=1.0)


def solve_relaxation(c: np.ndarray,
                     threshold: float | None = None) -> tuple[float, SdpSolution]:
    """The certified upper bound ``sol.bound`` on the relaxation value, NaN
    unless the solve is ``optimal`` or ``certified``.

    Without a threshold the solve runs to ``solve_sdp``'s optimality test,
    where the bound is within about the duality gap of the optimum.  Given
    a threshold the solve stops, with status ``certified``, at the first
    iterate whose bound is at most the threshold; otherwise it runs on as
    without one, and an ``optimal`` solve then has a bound above the
    threshold.
    """
    sol = solve_sdp(build_degree4_relaxation(c), threshold=threshold)
    return (sol.bound if sol.status in (CERTIFIED, OPTIMAL) else math.nan), sol
