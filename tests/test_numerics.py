import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halftest.errors import NonFiniteError
from halftest.numerics import (householder_basis, min_eigenvalue,
                               operator_norm, project_orthogonal, symmetrize,
                               unit)


def test_unit_matches_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(7)
    for d in (1, 2, 5, 17):
        v = rng.standard_normal(d) * rng.exponential(10.0)
        assert unit(v).tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_unit_rejects_non_finite_and_zero_vectors():
    with pytest.raises(NonFiniteError):
        unit(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        unit(np.array([np.inf, 0.0]))
    # finite entries whose squared norm overflows
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        unit(np.array([1e200, 1e200]))
    with pytest.raises(ValueError):
        unit(np.zeros(3))


@pytest.mark.parametrize("seed", range(6))
def test_extreme_eigenvalues_match_eigvalsh(seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(2, 21)
    m = rng.uniform(-1, 1, (d, d))
    m = (m + m.T) / 2
    vals = np.linalg.eigvalsh(m)
    assert min_eigenvalue(m) == vals[0]
    assert operator_norm(m) == max(-vals[0], vals[-1])


def test_operator_norm_examples():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.diag([-3.0, 2.0])) == 3.0
    assert abs(operator_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) < 1e-12


def test_min_eigenvalue_examples():
    assert abs(min_eigenvalue(np.eye(3)) - 1.0) < 1e-12
    assert abs(min_eigenvalue(np.diag([0.1, 5.0])) - 0.1) < 1e-12
    assert abs(min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) - 1.0) < 1e-12


def test_rayleigh_dominance():
    rng = np.random.default_rng(1)
    m = rng.uniform(-1, 1, (9, 9))
    m = (m + m.T) / 2
    norm = operator_norm(m)
    for _ in range(100):
        u = unit(rng.standard_normal(9))
        assert norm >= abs(u @ m @ u) - 1e-12


def test_nonfinite_rejected():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NonFiniteError):
        min_eigenvalue(bad)
    with pytest.raises(NonFiniteError):
        operator_norm(np.array([[np.inf]]))


def test_project_orthogonal_axis_aligned():
    w = np.array([1.0, 0.0, 0.0])
    assert np.allclose(project_orthogonal(w, np.array([3.0, 4.0, 5.0])), [4.0, 5.0])
    assert np.allclose(project_orthogonal(w, w), [0.0, 0.0])


def test_project_orthogonal_diagonal_direction():
    # Gram-Schmidt by hand: w-perp in 2d is spanned by (1,-1)/sqrt(2),
    # so x = e1 projects to a single coordinate of magnitude 1/sqrt(2)
    w = unit(np.array([1.0, 1.0]))
    out = project_orthogonal(w, np.array([1.0, 0.0]))
    assert out.shape == (1,)
    assert abs(abs(out[0]) - 1.0 / np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_project_orthogonal_norm_split(seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(2, 12)
    w = unit(rng.standard_normal(d))
    x = rng.standard_normal(d) * 3
    out = project_orthogonal(w, x)
    lhs = np.dot(out, out) + np.dot(w, x) ** 2
    assert abs(lhs - np.dot(x, x)) <= 1e-9 * max(1.0, np.dot(x, x))


def test_project_orthogonal_preserves_inner_products():
    rng = np.random.default_rng(3)
    d = 8
    w = unit(rng.standard_normal(d))
    for _ in range(50):
        a = rng.standard_normal(d)
        b = rng.standard_normal(d)
        a -= (a @ w) * w
        b -= (b @ w) * w
        pa, pb = project_orthogonal(w, a), project_orthogonal(w, b)
        assert abs(pa @ pb - a @ b) <= 1e-9 * max(1.0, abs(a @ b))


def test_householder_basis_orthonormal():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.integers(2, 10)
        w = unit(rng.standard_normal(d))
        basis = householder_basis(w)
        assert np.max(np.abs(basis @ w)) < 1e-12
        assert np.max(np.abs(basis @ basis.T - np.eye(d - 1))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6).filter(
    lambda v: np.linalg.norm(v) > 1e-6))
def test_projection_batch_matches_single(coords):
    w = unit(np.array(coords))
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((4, len(coords)))
    batch = project_orthogonal(w, xs)
    for i in range(4):
        assert np.allclose(batch[i], project_orthogonal(w, xs[i]))


@pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))])
def test_symmetrize_refuses_a_matrix_that_is_not_square(m):
    with pytest.raises(ValueError, match="square matrix"):
        symmetrize(m)


def test_householder_basis_refuses_dimension_one():
    with pytest.raises(ValueError, match="dimension >= 2"):
        householder_basis(np.array([1.0]))
