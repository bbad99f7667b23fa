"""Degree-4 SOS relaxation of the maximum directional fourth moment.

The relaxation is a homogeneous quartic program over a Gram matrix M
indexed by the D = d(d+1)/2 pairs v_i v_j with i <= j:

    maximize   sum_ms multiplicity(ms) T[ms] Etilde[v^ms]
    subject to M psd,
               sum_ij Etilde[v_i^2 v_j^2] = 1   (that is, Etilde[|v|^4] = 1),
               moment consistency (every entry naming an already-seen
               quartic monomial equals that monomial's first entry).

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

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import check_finite, symmetrize
from .sdp import SdpProblem, SdpSolution, solve_sdp


def sorted_multisets(dim: int, degree: int) -> list[tuple]:
    """All nondecreasing index tuples of the given length."""
    return list(itertools.combinations_with_replacement(range(dim), degree))


def multiplicity(ms: tuple) -> int:
    """Number of ordered arrangements of the multiset."""
    total = math.factorial(len(ms))
    for i in set(ms):
        total //= math.factorial(ms.count(i))
    return total


@dataclass
class FourthMomentTensor:
    """Empirical E[x_i x_j x_k x_l], stored once per sorted index multiset."""

    dim: int
    values: np.ndarray  # aligned with sorted_multisets(dim, 4)

    def __post_init__(self):
        self.values = check_finite(np.asarray(self.values, dtype=float))
        expected = len(sorted_multisets(self.dim, 4))
        if self.values.shape != (expected,):
            raise ValueError("values must have one entry per sorted multiset")
        self._index = {ms: i for i, ms in enumerate(sorted_multisets(self.dim, 4))}

    def entry(self, i: int, j: int, k: int, l: int) -> float:
        return float(self.values[self._index[tuple(sorted((i, j, k, l)))]])

    def dense(self) -> np.ndarray:
        t = np.empty((self.dim,) * 4)
        for idx in itertools.product(range(self.dim), repeat=4):
            t[idx] = self.entry(*idx)
        return t

    def scaled(self, s: float) -> "FourthMomentTensor":
        return FourthMomentTensor(self.dim, self.values * s)


def empirical_fourth_moment_tensor(points: np.ndarray) -> FourthMomentTensor:
    """T[ijkl] = mean over the sample of x_i x_j x_k x_l."""
    points = check_finite(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    d = points.shape[1]
    multisets = sorted_multisets(d, 4)
    vals = np.empty(len(multisets))
    for pos, (i, j, k, l) in enumerate(multisets):
        vals[pos] = np.mean(points[:, i] * points[:, j] * points[:, k] * points[:, l])
    return FourthMomentTensor(d, vals)


# ---------------------------------------------------------------------------
# pair Gram matrix machinery

def _position(ms: tuple, index: dict) -> tuple:
    """The first (row, col) Gram position, in row-major order over the upper
    triangle, that names the sorted quartic ms."""
    return index[ms[:2]], index[ms[2:]]


def _entry_matrix(n: int, a: int, b: int) -> np.ndarray:
    e = np.zeros((n, n))
    if a == b:
        e[a, a] = 1.0
    else:
        e[a, b] = 0.5
        e[b, a] = 0.5
    return e


@dataclass
class PseudoMomentMatrix:
    """A solved pair Gram matrix; entries are pseudo-expectations of quartics."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.index = {p: i for i, p in enumerate(sorted_multisets(self.dim, 2))}
        self.matrix = symmetrize(self.matrix)
        if self.matrix.shape != (len(self.index), len(self.index)):
            raise ValueError("matrix does not match the number of pairs")

    def expectation(self, ms: tuple) -> float:
        """Pseudo-expectation of the quartic monomial with index multiset ms."""
        if len(ms) != 4:
            raise ValueError("only degree-4 monomials are represented")
        return float(self.matrix[_position(tuple(sorted(ms)), self.index)])


def build_degree4_relaxation(t: FourthMomentTensor) -> SdpProblem:
    """The pair-Gram SDP whose value upper-bounds max_{|v|=1} T(v,v,v,v)."""
    pairs = sorted_multisets(t.dim, 2)
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)

    # normalization Etilde[|v|^4] = sum_ij Etilde[v_i^2 v_j^2] = 1
    squares = np.zeros(n)
    squares[[index[(i, i)] for i in range(t.dim)]] = 1.0
    constraints = [(np.outer(squares, squares), 1.0)]

    # moment consistency: every later position naming a quartic equals the
    # first one
    for a in range(n):
        for b in range(a, n):
            first = _position(tuple(sorted(pairs[a] + pairs[b])), index)
            if (a, b) != first:
                mat = _entry_matrix(n, a, b) - _entry_matrix(n, *first)
                constraints.append((mat, 0.0))

    objective = np.zeros((n, n))
    for pos, ms in enumerate(sorted_multisets(t.dim, 4)):
        coeff = multiplicity(ms) * t.values[pos]
        if coeff != 0.0:
            objective = objective + coeff * _entry_matrix(n, *_position(ms, index))

    return SdpProblem(n=n, objective=objective, constraints=constraints)


def solve_relaxation(t: FourthMomentTensor, tol: float = 1e-8
                     ) -> tuple[float, Optional[PseudoMomentMatrix], SdpSolution]:
    """Certified relaxation value.

    The returned value is the dual objective: up to the solver's
    feasibility tolerance it upper-bounds the relaxation optimum (and
    therefore the true maximum directional fourth moment), which is the
    side the tester's soundness leans on.  It exceeds the primal objective
    by at most the certified duality gap.
    """
    sol = solve_sdp(build_degree4_relaxation(t), tol=tol)
    if not sol.optimal:
        return math.nan, None, sol
    return max(sol.value, sol.dual_value), PseudoMomentMatrix(t.dim, sol.X), sol
