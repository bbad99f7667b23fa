"""Degree-4 SOS relaxation of the maximum directional fourth moment.

The relaxation optimizes over pseudo-moment matrices M indexed by the
monomials in v of degree <= 2 (constant, v_i, v_i v_j with i <= j):

    maximize   sum_ijkl T[ijkl] Etilde[v_i v_j v_k v_l]
    subject to M psd, M[1,1] = 1,
               moment consistency (entries that name the same monomial
               product are equal), and
               the sphere ideal Etilde[(sum_i v_i^2 - 1) m] = 0 for every
               monomial m of degree <= 2.

The ideal forces M c = 0 for the coefficient vector c of (sum v_i^2 - 1),
so the feasible set has no interior in the full matrix space.  The solver
entry point therefore performs that one facial reduction (restricting M to
the orthogonal complement of c, where the uniform sphere measure is a
strictly feasible interior point) before handing a reduced, strictly
feasible SDP to :func:`halftest.sdp.solve_sdp` and lifting the result back.

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

from .numerics import check_finite, householder_basis, symmetrize, unit
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
# moment matrix machinery

def moment_basis(dim: int) -> list[tuple]:
    """Monomials of degree <= 2: (), (i,), (i, j) with i <= j."""
    return [()] + sorted_multisets(dim, 1) + sorted_multisets(dim, 2)


def _canonical_pair(ms: tuple, index: dict) -> tuple:
    """A fixed (row, col) matrix position representing the monomial ms."""
    half = len(ms) // 2
    return index[ms[:half]], index[ms[half:]]


def _entry_matrix(n: int, a: int, b: int) -> np.ndarray:
    e = np.zeros((n, n))
    if a == b:
        e[a, a] = 1.0
    else:
        e[a, b] = 0.5
        e[b, a] = 0.5
    return e


class MomentLayout:
    """Index bookkeeping shared by the builder and the reader."""

    def __init__(self, dim: int):
        self.dim = dim
        self.basis = moment_basis(dim)
        self.size = len(self.basis)
        self.index = {m: i for i, m in enumerate(self.basis)}

    def canonical(self, ms: tuple) -> tuple:
        return _canonical_pair(tuple(sorted(ms)), self.index)

    def ideal_vector(self) -> np.ndarray:
        """Coefficients of (sum_i v_i^2 - 1) in the monomial basis."""
        c = np.zeros(self.size)
        c[self.index[()]] = -1.0
        for i in range(self.dim):
            c[self.index[(i, i)]] = 1.0
        return c


@dataclass
class PseudoMomentMatrix:
    """A solved degree-<=2 moment matrix; entries are pseudo-expectations."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.layout = MomentLayout(self.dim)
        self.matrix = symmetrize(self.matrix)
        if self.matrix.shape != (self.layout.size, self.layout.size):
            raise ValueError("matrix does not match the monomial basis size")

    def expectation(self, ms: tuple) -> float:
        """Pseudo-expectation of the monomial with index multiset ms."""
        if len(ms) > 4:
            raise ValueError("only degree <= 4 monomials are represented")
        a, b = self.layout.canonical(tuple(ms))
        return float(self.matrix[a, b])


def build_degree4_relaxation(t: FourthMomentTensor) -> SdpProblem:
    """The moment-matrix SDP whose value upper-bounds max_{|v|=1} T(v,v,v,v)."""
    layout = MomentLayout(t.dim)
    n = layout.size
    constraints = []

    # normalization Etilde[1] = 1
    constraints.append((_entry_matrix(n, layout.index[()], layout.index[()]), 1.0))

    # moment consistency: every matrix position naming a monomial equals the
    # canonical position for that monomial
    for a in range(n):
        for b in range(a, n):
            ms = tuple(sorted(layout.basis[a] + layout.basis[b]))
            ca, cb = layout.canonical(ms)
            if (min(a, b), max(a, b)) != (min(ca, cb), max(ca, cb)):
                mat = _entry_matrix(n, a, b) - _entry_matrix(n, ca, cb)
                constraints.append((mat, 0.0))

    # sphere ideal: Etilde[(sum v_i^2 - 1) m] = 0 for deg(m) <= 2
    for m in layout.basis:
        mat = -_entry_matrix(n, *layout.canonical(m))
        for i in range(t.dim):
            mat = mat + _entry_matrix(n, *layout.canonical(tuple(sorted(m + (i, i)))))
        constraints.append((mat, 0.0))

    objective = np.zeros((n, n))
    for pos, ms in enumerate(sorted_multisets(t.dim, 4)):
        coeff = multiplicity(ms) * t.values[pos]
        if coeff != 0.0:
            objective = objective + coeff * _entry_matrix(n, *layout.canonical(ms))

    return SdpProblem(n=n, objective=objective, constraints=constraints)


def solve_relaxation(t: FourthMomentTensor, tol: float = 1e-8
                     ) -> tuple[float, Optional[PseudoMomentMatrix], SdpSolution]:
    """Certified relaxation value via facial reduction.

    Feasible moment matrices all satisfy M c = 0 for the sphere-ideal
    coefficient vector c, so the problem is solved over the complement
    subspace (where it is strictly feasible) and lifted back.

    The returned value is the dual objective: up to the solver's
    feasibility tolerance it upper-bounds the relaxation optimum (and
    therefore the true maximum directional fourth moment), which is the
    side the tester's soundness leans on.  It exceeds the primal objective
    by at most the certified duality gap.
    """
    problem = build_degree4_relaxation(t)
    layout = MomentLayout(t.dim)
    cvec = unit(layout.ideal_vector())
    basis = householder_basis(cvec)                   # (N-1, N), rows span c-perp
    u = basis.T                                       # (N, N-1)
    reduced = SdpProblem(
        n=layout.size - 1,
        objective=u.T @ problem.objective @ u,
        constraints=[(u.T @ a @ u, b) for a, b in problem.constraints],
    )
    sol = solve_sdp(reduced, tol=tol)
    if not sol.optimal:
        return math.nan, None, sol
    lifted = PseudoMomentMatrix(t.dim, u @ sol.X @ u.T)
    return max(sol.value, sol.dual_value), lifted, sol
