"""Dense symmetric linear algebra and sphere geometry primitives.

All testers reduce to spectra of small dense symmetric matrices and to
projections onto the orthogonal complement of a unit vector.  Matrices are
plain float64 numpy arrays, stored exactly symmetric; vectors on the sphere
are arrays with ``abs(norm - 1) <= UNIT_TOL``.  ``is_number`` and
``is_integer`` are the type tests of every config dataclass: a bool is
neither.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .errors import NonFiniteError

UNIT_TOL = 1e-12


def check_finite(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("array contains NaN or Inf")
    return arr


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of m (averages the two triangles)."""
    m = check_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.T) / 2.0


def is_number(x) -> bool:
    """x is a real number and not a bool, which Python counts as one."""
    return isinstance(x, Real) and not isinstance(x, bool)


def is_integer(x) -> bool:
    """x is an integer and not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_unit(w: np.ndarray, tol: float = UNIT_TOL) -> bool:
    return abs(np.linalg.norm(w) - 1.0) <= tol


def unit(v: np.ndarray) -> np.ndarray:
    """The vector v scaled to the unit sphere.

    Its norm is sqrt(v . v), which is what np.linalg.norm computes for a
    vector, without that call's overhead.  A NaN or infinite entry, or a
    norm that overflows, raises NonFiniteError.
    """
    v = np.asarray(v, dtype=float)
    norm = math.sqrt(v @ v)
    if not math.isfinite(norm):
        raise NonFiniteError("vector contains NaN or Inf, or its norm overflows")
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def operator_norm(m: np.ndarray) -> float:
    """max |eigenvalue| of a symmetric matrix."""
    vals = np.linalg.eigvalsh(symmetrize(m))
    return float(max(abs(vals[0]), abs(vals[-1])))


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(m))[0])


def householder_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit w.

    Rows 2..d of the Householder reflector that maps w onto the first
    coordinate axis.  Deterministic given w and numerically stable for any
    orientation (the reflector direction is chosen away from cancellation).
    Returns a (d-1, d) matrix B with B @ w = 0 and B @ B.T = I.
    """
    w = check_finite(w)
    d = w.shape[0]
    if d < 2:
        raise ValueError("householder_basis needs dimension >= 2")
    sign = 1.0 if w[0] >= 0 else -1.0
    u = w.copy()
    u[0] += sign * np.linalg.norm(w)
    h = np.eye(d) - (2.0 / (u @ u)) * np.outer(u, u)
    return h[1:, :]


def project_orthogonal(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinates of the component of x orthogonal to unit w.

    The coordinates are taken in the fixed orthonormal basis of w-perp from
    ``householder_basis``, so the map is deterministic given w.  Accepts a
    single point (d,) or a batch (n, d); returns (d-1,) or (n, d-1).
    """
    w = check_finite(w)
    x = check_finite(x)
    basis = householder_basis(w)
    if x.ndim == 1:
        return basis @ x
    return x @ basis.T
