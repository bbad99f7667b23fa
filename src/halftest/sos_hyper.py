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

One eigendecomposition of a flattening W of C, whose quadratic form is
exactly E[<v,x>^4] (``fourth_moment_witness``), settles most samples
before any Newton step.  Its top eigenvalue mu is a dual point of the
relaxation in closed form (``flattening_dual_point``), so when mu is at
most the threshold the solve certifies it at its first check (Hopkins,
Shi and Steurer's spectral certificate, within the same proof).  A reject
needs no solve when a witness is at hand: for a unit v the rank-one
M = psi(v) psi(v)^T is feasible with value E[<v,x>^4], so a v whose
fourth moment exceeds the threshold, re-scored on the sample with a
rounding margin, proves that no iterate could have certified it; v is
W's top eigenvector rounded once.  The witness is a lower bound on the
relaxation value and the certified bound an upper one, so the verdict is
the one the solve would give, with a direction that anyone can check
against the sample.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .numerics import check_finite, symmetrize, unit
from .sdp import CERTIFIED, OPTIMAL, SdpProblem, SdpSolution, solve_sdp


def empirical_fourth_moment_tensor(points: np.ndarray) -> np.ndarray:
    """The D x D pair-moment matrix C = Phi^T Phi / n of the sample.

    Phi^T is filled feature-major, one contiguous row of n products per
    pair, and its Gram product is C.
    """
    points = check_finite(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    n, d = points.shape
    xt = np.ascontiguousarray(points.T)
    phi_t = np.empty((d * (d + 1) // 2, n))
    start = 0
    for i in range(d):
        block = phi_t[start:start + d - i]
        np.multiply(xt[i:], xt[i], out=block)
        block[1:] *= 2.0
        start += d - i
    return phi_t @ phi_t.T / n


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
    problem = copy.copy(_relaxation_template(d)[0])
    problem.objective = symmetrize(np.asarray(c, dtype=float))
    return problem


@functools.lru_cache(maxsize=4)
def _relaxation_template(d: int) -> tuple[SdpProblem, np.ndarray]:
    """The relaxation in dimension d with a zero objective, built and
    validated once per d, and the consistency rows whose later position is
    a diagonal (ij, ij), i < j (see ``flattening_dual_point``).

    Its read-only constraint stack, the stack's row norms and b are shared
    by every problem of that dimension, which copies the template and sets
    its objective, so ``SdpProblem`` checks the stack and takes its norms
    only here.
    """
    n = d * (d + 1) // 2
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
    constraints.flags.writeable = False
    b.flags.writeable = False
    template = SdpProblem(n, np.zeros((n, n)), constraints, b, trace_bound=1.0)
    template.constraint_norms.flags.writeable = False
    return template, 1 + np.flatnonzero(ga[later] == gb[later])


def flattening_dual_point(d: int, mu: float) -> np.ndarray:
    """The dual point y(mu) of the relaxation in dimension d whose bound is
    mu whenever mu >= lambda_max(W), W the flattening of
    ``fourth_moment_witness``.

    y_0 = mu, y_r = 2 (mu - 1) on the consistency rows whose later position
    is (ij, ij), i < j, and y_r = 0 on the others.  Row r is then
    E_(ij,ij) - (E_(ii,jj) + E_(jj,ii)) / 2, since the first position of
    v_i^2 v_j^2 is (ii, jj), and row 0 is e e^T, so

        A^T y = (mu - 1) diag(s^2) + e e^T,

    s = 1 / r (1 on the pairs (i, i), sqrt 2 off them), exactly in floating
    point when mu - 1 is exact, as it is for 1/2 <= mu <= 2^53.  With
    diag(s) W diag(s) = C - e e^T + diag(s^2), the dual slack is

        S = A^T y - C = diag(s) (mu I - W) diag(s),

    psd exactly when mu >= lambda_max(W), and b^T y = mu.  So at
    mu = lambda_max(W) the bound ``sdp._dual_bound`` certifies is mu up to
    its rounding margin.  For the Gaussian population W = 3 I, and y(3)
    certifies the exact value 3.
    """
    template, diagonal = _relaxation_template(d)
    y = np.zeros(len(template.b))
    y[0] = mu
    y[diagonal] = 2.0 * (mu - 1.0)
    return y


def fourth_moment_witness(
        points: np.ndarray, c: np.ndarray, threshold: float,
) -> tuple[float, tuple[float, np.ndarray] | None]:
    """(mu, witness): mu = lambda_max(W) for the flattening W below, an upper
    bound on every unit direction's fourth moment, and witness = (value, v),
    a direction v whose fourth moment on the sample provably exceeds
    ``threshold`` and that moment E[<v,x>^4] / |v|^4, or None.

    ``c`` is the sample's pair-moment matrix.  For unit v, M = psi psi^T is
    feasible for the relaxation with value psi^T C psi = E[<v,x>^4], so a
    witness proves that no dual bound can certify the sample.

    The search is one eigendecomposition of the flattening
    W = diag(r) C diag(r) - (e e^T - I), with r = 1 on the pairs (i, i) and
    1/sqrt 2 off them and e the indicator of the pairs (i, i) (a spectral
    certificate in the sense of Hopkins, Shi and Steurer, "Tensor principal
    component analysis via sum-of-squares proofs", COLT 2015).  In the
    orthonormal coordinates psi~(v) = psi(v) / r of the symmetric square,
    |psi~(v)|^2 = |v|^4 and e^T psi~(v) = |v|^2, so the shift vanishes on
    every psi~(v) and

        psi~(v)^T W psi~(v) = psi(v)^T C psi(v) = E[<v,x>^4].

    Hence no unit v exceeds the threshold when mu <= threshold, and there
    is no witness (a None only leaves the sample to the solve); the solve
    can then certify mu at once from ``flattening_dual_point(d, mu)``.
    Otherwise W's top eigenvector z is rounded once: r z folded into a
    symmetric d x d matrix (v v^T when z is psi~(v)) gives v, its
    eigenvector of largest |eigenvalue|.  For the Gaussian population
    W = 3 I, where every unit direction has fourth moment 3, so the skip
    is exact there.

    That v is re-scored on the points as F = mean((p p) (p p)) / |v|^4,
    p = x v, and reported only when F - margin > threshold.  With u = eps/2,
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1) and E|x|^4 = sum_ij E[x_i^2 x_j^2], the sum of
    C's (ii, jj) entries, every error below is a multiple of u E|x|^4,
    because E[<v,x>^4] <= |v|^4 E|x|^4:

    * each |p_k - <x_k, v>| <= gamma_d |x_k| |v| and |<x_k, v>| <= |x_k| |v|,
      so p_k^4 is within ((1 + gamma_d)^4 - 1) |x_k|^4 |v|^4, about 4 d u,
      of <x_k, v>^4; the two squarings and the mean of n nonnegative terms
      add n + 2 roundings, |v|^4 and the division d + 2, and the final
      subtraction one;
    * the solver reads the computed C, whose every entry sums n products of
      two rounded pair features, so its quadratic form at psi(v / |v|) is
      within gamma_{n+3} E[(sum_i |v_i x_i|)^4] / |v|^4 <= gamma_{n+3} E|x|^4
      of the exact E[<v,x>^4] / |v|^4.

    margin = eps (2 n + 6 d + 10) E|x|^4 + tiny covers the sum of both,
    (2 n + 5 d + 8) u E|x|^4, twice over, which absorbs the rounding of
    E|x|^4 itself; the smallest normal number ``tiny`` covers gradual
    underflow, which moves a product by at most 2^-1075.  A reported
    witness therefore makes the relaxation value of the computed C exceed
    the threshold, and the solve, whose certified bound is at least that
    value, would reject too.
    """
    n, d = points.shape
    pi, pj = np.triu_indices(d)
    e = (pi == pj).astype(float)
    r = np.where(pi == pj, 1.0, math.sqrt(0.5))
    eigenvalues, eigenvectors = np.linalg.eigh(
        r[:, None] * c * r - np.outer(e, e) + np.eye(len(e)))
    mu = float(eigenvalues[-1])
    if mu <= threshold:
        return mu, None
    fold = np.empty((d, d), dtype=int)      # z[fold]: z as a symmetric matrix
    fold[pi, pj] = fold[pj, pi] = np.arange(len(pi))
    values, vectors = np.linalg.eigh((r * eigenvectors[:, -1])[fold])
    v = unit(vectors[:, np.argmax(np.abs(values))])

    q = np.square(points @ v)
    value = float(np.mean(q * q)) / float(v @ v) ** 2
    fourth = float(e @ c @ e)
    margin = (np.finfo(float).eps * (2 * n + 6 * d + 10) * fourth
              + np.finfo(float).tiny)
    if not (math.isfinite(value) and value - margin > threshold):
        return mu, None
    return mu, (value, v)


def solve_relaxation(c: np.ndarray, threshold: float | None = None,
                     mu: float | None = None) -> tuple[float, SdpSolution]:
    """The certified upper bound ``sol.bound`` on the relaxation value, NaN
    unless the solve is ``optimal`` or ``certified``.

    Without a threshold the solve runs to ``solve_sdp``'s optimality test,
    where the bound is within about the duality gap of the optimum.  Given
    a threshold the solve stops, with status ``certified``, at the first
    iterate whose bound is at most the threshold; otherwise it runs on as
    without one, and an ``optimal`` solve then has a bound above the
    threshold.  Given mu = lambda_max(W) from ``fourth_moment_witness``,
    the first check also takes the bound of ``flattening_dual_point``, so a
    threshold of at least mu (up to the rounding margin) is certified at
    iteration 1; the iterates are the same either way.
    """
    problem = build_degree4_relaxation(c)
    y = None
    if mu is not None:
        y = flattening_dual_point((math.isqrt(8 * problem.n + 1) - 1) // 2, mu)
    sol = solve_sdp(problem, threshold=threshold, dual_point=y)
    return (sol.bound if sol.status in (CERTIFIED, OPTIMAL) else math.nan), sol
