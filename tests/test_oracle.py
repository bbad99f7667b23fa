import math

import numpy as np
import pytest

from halftest import oracle
from halftest.distributions import Dataset, MarginalSpec, NoiseModel, \
    empirical_error, label_dataset, sample_marginal
from halftest.errors import DegenerateAngleError, DimTooLargeError, NonFiniteError
from halftest.numerics import unit
from halftest.oracle import (STALL_RTOL, brute_force_max_fourth_moment,
                             erm_halfspace, finite_difference_gradient,
                             fourth_moment_ascent, gaussian_strip_stats,
                             gradient_lower_bound_terms,
                             massart_expected_gradient, reference_direction,
                             structural_check)
from halftest.surrogate import RampParams


def test_brute_force_d1():
    pts = np.array([[2.0], [-1.0]])
    val, v = brute_force_max_fourth_moment(pts)
    assert abs(val - np.mean(pts**4)) < 1e-12
    assert abs(abs(v[0]) - 1.0) < 1e-12


def test_brute_force_two_thirds():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    val, v = brute_force_max_fourth_moment(pts)
    assert abs(val - 2.0 / 3.0) < 1e-9
    assert abs(abs(v[0]) - 1.0) < 1e-4


def test_brute_force_rotation_invariant():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    angle = 0.7
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    val, _ = brute_force_max_fourth_moment(pts @ rot.T)
    assert abs(val - 2.0 / 3.0) < 1e-4


def test_brute_force_grid_mode_dimension_cap():
    with pytest.raises(DimTooLargeError):
        brute_force_max_fourth_moment(np.zeros((3, 5)), mode="grid")


def test_brute_force_ascent_matches_grid_small():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100, seed=50)
    grid_val, _ = brute_force_max_fourth_moment(pts, mode="grid")
    ascent_val, _ = brute_force_max_fourth_moment(pts, mode="ascent")
    assert ascent_val <= grid_val + 1e-9
    assert ascent_val >= grid_val - 1e-6
    # near-isotropic samples, where the quartic is almost flat and a fixed
    # 200 steps stopped 5e-7 and 2e-6 short of the grid maximum
    for seed in (0, 7):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000,
                              seed=seed)
        grid_val, _ = brute_force_max_fourth_moment(pts, mode="grid")
        ascent_val, _ = brute_force_max_fourth_moment(pts, mode="ascent")
        assert abs(ascent_val - grid_val) <= 1e-9 * grid_val


def test_brute_force_checks_its_mode_before_building_the_tensor(monkeypatch):
    # the tensor of a large sample is big: refuse a bad mode without it
    def no_tensor(points):
        raise AssertionError("tensor built")
    monkeypatch.setattr(oracle, "fourth_moment_tensor", no_tensor)
    with pytest.raises(ValueError):
        brute_force_max_fourth_moment(np.zeros((3, 2)), mode="exact")
    with pytest.raises(DimTooLargeError):
        brute_force_max_fourth_moment(np.zeros((3, 5)), mode="grid")


def test_brute_force_grid_memory_does_not_grow_with_n():
    # scoring the grid on the points would take an (n, 125827) array here
    pts = sample_marginal(MarginalSpec("product_laplace", 3), 100_000, seed=52)
    grid_val, _ = brute_force_max_fourth_moment(pts, mode="grid")
    ascent_val, _ = brute_force_max_fourth_moment(pts, mode="ascent")
    assert abs(grid_val - ascent_val) <= 1e-9 * grid_val


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sphere_grid_is_built_once_per_dimension(dim):
    grid = oracle._sphere_grid(dim)
    assert oracle._sphere_grid(dim) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 2.0


def test_brute_force_overflowing_tensor_raises():
    pts = np.array([[1e80, 0.0], [0.0, -1e80]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError):
        brute_force_max_fourth_moment(pts)


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


def test_fourth_moment_ascent_stops_at_cap_or_stall():
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


def test_fd_gradient_constant_field():
    w = unit(np.array([1.0, 2.0, -1.0]))
    grad = finite_difference_gradient(lambda u: 3.5, w)
    assert np.allclose(grad, 0.0)


def test_fd_gradient_linear_field():
    c = np.array([0.3, -1.2, 0.5, 2.0])
    w = unit(np.array([1.0, 1.0, 0.0, 1.0]))
    grad = finite_difference_gradient(lambda u: float(u @ c), w, h=1e-5)
    expected = c - (c @ w) * w
    assert np.linalg.norm(grad - expected) <= 1e-7 * max(1.0, np.linalg.norm(expected))


def test_fd_gradient_step_range():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda u: 0.0, np.array([1.0, 0.0]), h=1e-2)


def test_erm_clean_data():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 2_000, seed=51)
    w_star = unit(np.array([2.0, 1.0]))
    ds = label_dataset(pts, NoiseModel("clean", tuple(w_star)), seed=51)
    w, opt = erm_halfspace(ds)
    assert opt == 0.0
    assert abs(abs(w @ w_star) - 1.0) < 0.01


def test_erm_boundary_convention():
    # both points on the hyperplane of w = (0, 1): sign(0) = +1 classifies
    # both as +1, so opt = 0
    ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 1]))
    _, opt = erm_halfspace(ds)
    assert opt == 0.0


def test_erm_massart_rate():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 10_000, seed=52)
    w_star = np.array([1.0, 0.0])
    ds = label_dataset(pts, NoiseModel("massart", tuple(w_star), eta=0.1), seed=52)
    _, opt = erm_halfspace(ds)
    assert 0.08 <= opt <= 0.12


def test_erm_d3_pairs():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 300, seed=53)
    w_star = unit(np.array([1.0, -1.0, 0.5]))
    ds = label_dataset(pts, NoiseModel("clean", tuple(w_star)), seed=53)
    _, opt = erm_halfspace(ds)
    assert opt == 0.0


def test_erm_d3_drawn_pairs():
    # 12.5M pairs exceed PAIR_BUDGET: candidates come from drawn pairs
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 5000, seed=54)
    w_star = unit(np.array([1.0, -1.0, 0.5]))
    ds = label_dataset(pts, NoiseModel("clean", tuple(w_star)), seed=54)
    w, opt = erm_halfspace(ds)
    assert opt == empirical_error(w, ds)
    assert opt <= 0.01


def test_erm_dim_caps():
    ds = Dataset(np.zeros((5, 9)) + np.eye(5, 9), np.ones(5, dtype=int))
    with pytest.raises(DimTooLargeError):
        erm_halfspace(ds, mode="search")
    with pytest.raises(DimTooLargeError):
        erm_halfspace(Dataset(np.eye(4), np.ones(4, dtype=int)), mode="exact")


def test_reference_direction_geometry():
    w = unit(np.array([1.0, 0.0, 0.0]))
    w_star = unit(np.array([1.0, 1.0, 0.0]))
    v = reference_direction(w, w_star)
    assert abs(v @ w) < 1e-12
    assert v @ w_star < 0
    with pytest.raises(DegenerateAngleError):
        reference_direction(w, w)


def test_lower_bound_terms_empty_strip():
    # every |<w, x>| > sigma/2: A2 = A3 = 0
    pts = np.array([[2.0, 1.0], [-3.0, 0.5]])
    ds = Dataset(pts, np.array([1, -1]))
    w = np.array([1.0, 0.0])
    w_star = unit(np.array([1.0, 0.3]))
    a1, a2, a3 = gradient_lower_bound_terms(ds, w, w_star, sigma=0.1, alpha=0.5)
    assert a2 == 0.0 and a3 == 0.0


def test_lower_bound_terms_clean_a3_zero():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 500, seed=54)
    w_star = unit(np.array([1.0, 0.5]))
    ds = label_dataset(pts, NoiseModel("clean", tuple(w_star)), seed=54)
    w = unit(np.array([1.0, 0.0]))
    _, _, a3 = gradient_lower_bound_terms(ds, w, w_star, sigma=0.2, alpha=0.6)
    assert a3 == 0.0


def test_structural_inequalities_small_batch():
    rng = np.random.default_rng(55)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        kind = ("standard_gaussian", "product_laplace", "uniform_cube")[trial % 3]
        pts = sample_marginal(MarginalSpec(kind, d), 3_000, seed=500 + trial)
        w_star = unit(rng.standard_normal(d))
        w = unit(w_star + rng.uniform(0.1, 1.0) * rng.standard_normal(d))
        theta = math.acos(np.clip(w @ w_star, -1, 1))
        if not 1e-3 < theta < math.pi / 2 - 1e-3:
            continue
        sigma = float(rng.choice([0.05, 0.2]))
        alpha = max(sigma / (2 * math.tan(theta)), 0.4)
        noise = NoiseModel("massart", tuple(w_star), eta=0.1)
        ds = label_dataset(pts, noise, seed=600 + trial)
        assert structural_check(ds, w, w_star, sigma, alpha, noise=noise)["holds"]
        assert structural_check(ds, w, w_star, sigma, alpha, noise=None)["holds"]


def test_massart_expected_gradient_clean_limit():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 400, seed=56)
    w_star = unit(np.array([0.0, 1.0, 0.0]))
    noise = NoiseModel("massart", tuple(w_star), eta=0.0)
    ds = label_dataset(pts, noise, seed=56)
    from halftest.surrogate import surrogate_gradient
    p = RampParams(0.3)
    expected = massart_expected_gradient(pts, noise, w_star, p)
    realized = surrogate_gradient(w_star, ds, p)
    assert np.allclose(expected, realized)


def test_gaussian_strip_stats_values():
    out = gaussian_strip_stats(sigma=0.1, c=0.3, uu_inner=0.5)
    assert abs(out["strip_probability"] - math.erf(0.1 / math.sqrt(2))) < 1e-15
    assert out["strip_second_moment"] == out["strip_probability"]
    assert abs(out["cross_fourth_moment"] - 1.5) < 1e-15
    assert out["offset_strip_second_moment"] < out["strip_probability"]


@pytest.mark.parametrize("points", [np.empty((0, 3)), np.ones(3)])
def test_brute_force_refuses_an_empty_sample(points):
    with pytest.raises(ValueError, match="nonempty"):
        brute_force_max_fourth_moment(points)


def test_gradient_lower_bound_terms_refuse_a_bad_angle_or_alpha():
    ds = Dataset(sample_marginal(MarginalSpec("standard_gaussian", 2), 500,
                                 seed=61), np.ones(500))
    e1 = np.array([1.0, 0.0])
    for w in (e1, np.array([0.0, 1.0]), np.array([-0.6, 0.8])):
        with pytest.raises(DegenerateAngleError, match="must lie in"):
            gradient_lower_bound_terms(ds, w, e1, 0.1, 1.0)
    # at 45 degrees alpha must be at least sigma / 2
    w = unit(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="alpha must be at least"):
        gradient_lower_bound_terms(ds, w, e1, 0.1, 0.04)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exact_erm_in_dimension_one_picks_the_orientation(sign):
    x = sample_marginal(MarginalSpec("standard_gaussian", 1), 200, seed=62)
    labels = np.where(sign * x[:, 0] >= 0, 1, -1)
    labels[:10] = -labels[:10]
    w, err = erm_halfspace(Dataset(x, labels), mode="exact")
    assert w.tolist() == [sign]
    assert err == empirical_error(w, Dataset(x, labels)) == 0.05
