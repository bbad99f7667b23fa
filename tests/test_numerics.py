import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halftest.errors import NonFiniteError
from halftest.numerics import (STALL_RTOL, fourth_moment_ascent,
                               householder_basis, min_eigenvalue,
                               operator_norm, project_orthogonal, unit)


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


def _sample_contraction(points):
    """v -> E[<v,x>^3 x] for each row of v, and the list of blocks it was
    called on."""
    calls = []

    def contract(v):
        calls.append(v.copy())
        p = v @ points.T
        return (p * p * p) @ points / len(points)
    return contract, calls


def _fourth_moments(points, v):
    p = v @ points.T
    return np.mean(p**4, axis=1)


def test_fourth_moment_ascent_stops_at_target_cap_or_stall():
    rng = np.random.default_rng(11)
    points = rng.standard_t(5, (200, 4))
    starts = np.array([unit(rng.standard_normal(4)) for _ in range(6)])
    # no returned value is below its start's, whichever rows start
    for k in range(1, 7):
        contract, _ = _sample_contraction(points)
        value, v = fourth_moment_ascent(contract, starts[:k], 50)
        assert value >= _fourth_moments(points, starts[:k]).max()
        assert value == pytest.approx(_fourth_moments(points, v[None])[0],
                                      rel=1e-12)
    # the cap: three steps, so four contractions
    contract, calls = _sample_contraction(points)
    fourth_moment_ascent(contract, starts, 3)
    assert len(calls) == 4
    best = [_fourth_moments(points, block).max() for block in calls]
    assert best[0] < best[1] < best[2] < best[3]
    # the target: the ascent stops at the first step whose value exceeds it
    target = (best[2] + best[3]) / 2
    contract, calls = _sample_contraction(points)
    value, _ = fourth_moment_ascent(contract, starts, 50, target)
    assert len(calls) == 4 and value > target
    # the stall: far below the cap, at a best value that no longer rises
    contract, calls = _sample_contraction(points)
    value, _ = fourth_moment_ascent(contract, starts, 10_000)
    assert len(calls) < 10_000
    last = _fourth_moments(points, calls[-1]).max()
    assert last - value <= STALL_RTOL * value


def test_fourth_moment_ascent_keeps_rows_with_a_zero_step():
    # e3 is orthogonal to every point: its step is zero and it stays put,
    # while the other start ascends
    rng = np.random.default_rng(12)
    points = np.zeros((100, 3))
    points[:, :2] = rng.standard_normal((100, 2))
    starts = np.array([[0.0, 0.0, 1.0], unit(np.array([1.0, 1.0, 1.0]))])
    contract, calls = _sample_contraction(points)
    value, v = fourth_moment_ascent(contract, starts, 20)
    assert all(np.array_equal(block[0], starts[0]) for block in calls)
    assert value > _fourth_moments(points, starts[1:])[0] and v[2] == 0.0


def test_fourth_moment_ascent_does_not_overflow_on_large_steps():
    # the steps of points scaled by 1e70 are about 1e280, whose squares
    # overflow unless each step is scaled before its norm is taken
    rng = np.random.default_rng(13)
    points = rng.standard_normal((100, 3))
    starts = np.array([unit(rng.standard_normal(3))])
    value, _ = fourth_moment_ascent(_sample_contraction(points)[0], starts, 5)
    with np.errstate(all="raise"):
        big, _ = fourth_moment_ascent(_sample_contraction(points * 1e70)[0],
                                      starts, 5)
    assert big == pytest.approx(value * 1e280, rel=1e-12)


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
