import math

import numpy as np
import pytest

from halftest.distributions import (CLAIMED, Dataset, MarginalSpec,
                                    NoiseModel, empirical_error, from_binary,
                                    from_csv, label_dataset, sample_marginal,
                                    sign_pm1, to_binary, to_csv)
from halftest.errors import DimMismatchError, UnknownKindError

GAUSS2 = MarginalSpec("standard_gaussian", 2)


def test_gaussian_moments():
    x = sample_marginal(GAUSS2, 100_000, seed=1)
    assert np.all(np.abs(x.mean(axis=0)) < 0.02)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.03)


def test_uniform_cube_variance():
    x = sample_marginal(MarginalSpec("uniform_cube", 1), 100_000, seed=2)
    assert abs(np.mean(x**2) - 1.0) < 0.05
    assert np.max(np.abs(x)) <= math.sqrt(3.0) + 1e-12


def test_two_point_mass_support():
    spec = MarginalSpec("two_point_mass", 2, spread=10.0)
    x = sample_marginal(spec, 500, seed=3)
    assert np.all(x[:, 1] == 0.0)
    assert set(np.unique(x[:, 0])) == {-10.0, 10.0}


def test_product_laplace_moments():
    x = sample_marginal(MarginalSpec("product_laplace", 3), 100_000, seed=4)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)
    # fourth moment of unit-variance Laplace is 6
    assert np.all(np.abs(np.mean(x**4, axis=0) - 6.0) < 0.5)


def test_uniform_ball_isotropic():
    x = sample_marginal(MarginalSpec("uniform_ball", 4), 100_000, seed=5)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)
    assert np.max(np.linalg.norm(x, axis=1)) <= math.sqrt(6.0) + 1e-9


def test_student_t_heavy_tail():
    x = sample_marginal(MarginalSpec("student_t", 2, nu=3), 50_000, seed=6)
    assert np.all(np.isfinite(x))
    # unit variance after rescaling, generous Monte-Carlo band
    assert abs(np.var(x[:, 0]) - 1.0) < 0.25


def test_line_mass_direction():
    spec = MarginalSpec("line_mass", 3, direction=(0.0, 3.0, 4.0))
    x = sample_marginal(spec, 200, seed=7)
    u = np.array([0.0, 0.6, 0.8])
    residual = x - np.outer(x @ u, u)
    assert np.max(np.abs(residual)) < 1e-12


def test_determinism_and_streams():
    a = sample_marginal(GAUSS2, 1000, seed=42)
    b = sample_marginal(GAUSS2, 1000, seed=42)
    c = sample_marginal(GAUSS2, 1000, seed=43)
    d = sample_marginal(GAUSS2, 1000, seed=42, stream_id=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_unknown_kind():
    with pytest.raises(UnknownKindError):
        MarginalSpec("levy_flight", 2)


def test_claims_are_read_from_the_family():
    cube = MarginalSpec("uniform_cube", 2)
    assert (cube.claimed_lambda, cube.claimed_gamma) == CLAIMED["uniform_cube"]
    heavy = MarginalSpec("student_t", 2, nu=3)
    assert heavy.claimed_lambda is None and heavy.claimed_gamma is None
    with pytest.raises(AttributeError):
        heavy.claimed_lambda = 1.0


def test_isotropy_of_nice_families():
    rng = np.random.default_rng(0)
    for kind in ("standard_gaussian", "product_laplace", "uniform_ball",
                 "uniform_cube"):
        spec = MarginalSpec(kind, 3)
        lam = spec.claimed_lambda
        x = sample_marginal(spec, 100_000, seed=11)
        for _ in range(50):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            second = np.mean((x @ v) ** 2)
            assert 1.0 / lam <= second <= lam


def test_gaussian_strip_statistics():
    x = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000, seed=12)
    w = np.array([1.0, 0.0, 0.0])
    for sigma in (0.05, 0.1):
        emp = np.mean(np.abs(x @ w) <= sigma)
        exact = math.erf(sigma / math.sqrt(2.0))
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(emp - exact) <= 3 * se
        # 2 sigma times a density factor in [0.35, 0.45] around phi(0)
        assert 2 * sigma * 0.35 <= emp <= 2 * sigma * 0.45


def test_clean_labels():
    pts = np.array([[1.0, 0.0], [-2.0, 0.0]])
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0)), seed=0)
    assert list(ds.labels) == [1, -1]


def test_sign_zero_convention():
    pts = np.array([[0.0, 5.0]])
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0)), seed=0)
    assert ds.labels[0] == 1


def test_massart_flip_rate():
    pts = sample_marginal(GAUSS2, 100_000, seed=13)
    noise = NoiseModel("massart", (1.0, 0.0), eta=0.1)
    ds = label_dataset(pts, noise, seed=13)
    clean = sign_pm1(pts[:, 0])
    rate = np.mean(ds.labels != clean)
    assert 0.094 <= rate <= 0.106


def test_massart_eta_range():
    with pytest.raises(ValueError):
        NoiseModel("massart", (1.0, 0.0), eta=0.5)


@pytest.mark.parametrize("kwargs", [
    {"rule": "random_flip", "flip_prob": 2.0},
    {"rule": "random_flip", "flip_prob": -1.0},
    {"rule": "random_flip", "flip_prob": math.nan},
    {"rule": "boundary_flip", "width": -1.0},
    {"rule": "boundary_flip", "width": math.nan},
    {"rule": "boundary_flip", "width": math.inf},
], ids=["flip_prob_2", "flip_prob_-1", "flip_prob_nan", "width_-1",
        "width_nan", "width_inf"])
def test_noise_rejects_impossible_parameters(kwargs):
    with pytest.raises(ValueError):
        NoiseModel("agnostic", (1.0, 0.0), **kwargs)


@pytest.mark.parametrize("value", [True, "0.1", None])
@pytest.mark.parametrize("name", ["eta", "width", "flip_prob"])
def test_noise_rejects_a_bool_or_a_non_number(name, value):
    with pytest.raises(ValueError):
        NoiseModel("massart", (1.0, 0.0), **{name: value})


@pytest.mark.parametrize("kind, kwargs", [
    ("standard_gaussian", {"dim": 2.5}), ("standard_gaussian", {"dim": True}),
    ("standard_gaussian", {"dim": "3"}), ("student_t", {"dim": 3, "nu": 2.5}),
    ("student_t", {"dim": 3, "nu": True}),
    ("two_point_mass", {"dim": 3, "spread": True}),
    ("two_point_mass", {"dim": 3, "spread": math.nan})])
def test_marginal_rejects_a_bool_or_a_non_integral_count(kind, kwargs):
    with pytest.raises(ValueError):
        MarginalSpec(kind, **kwargs)


@pytest.mark.parametrize("flip_prob, flipped", [(0.0, 0), (1.0, 5)])
def test_random_flip_at_the_ends_of_its_range(flip_prob, flipped):
    pts = sample_marginal(GAUSS2, 5, seed=1)
    noise = NoiseModel("agnostic", (1.0, 0.0), rule="random_flip",
                       flip_prob=flip_prob)
    ds = label_dataset(pts, noise, seed=1)
    assert np.count_nonzero(ds.labels != sign_pm1(pts[:, 0])) == flipped


def test_agnostic_boundary_flip_opt():
    pts = sample_marginal(GAUSS2, 50_000, seed=14)
    noise = NoiseModel("agnostic", (1.0, 0.0), rule="boundary_flip", width=0.1)
    ds = label_dataset(pts, noise, seed=14)
    w_star = np.array([1.0, 0.0])
    opt_ub = empirical_error(w_star, ds)
    band = np.mean(np.abs(pts[:, 0]) <= 0.1)
    assert opt_ub <= band + 1e-12


def test_empirical_opt_upper_bound():
    pts = sample_marginal(GAUSS2, 10_000, seed=15)
    w_star = np.array([1.0, 0.0])
    ds = label_dataset(pts, NoiseModel("clean", tuple(w_star)), seed=15)
    assert empirical_error(w_star, ds) == 0.0
    # complement candidate: no point is exactly on the hyperplane here
    assert empirical_error(-w_star, ds) == 1.0
    noisy = label_dataset(sample_marginal(GAUSS2, 100_000, seed=16),
                          NoiseModel("massart", tuple(w_star), eta=0.1), seed=16)
    val = min(empirical_error(w, noisy) for w in (np.array([0.0, 1.0]), w_star))
    assert 0.09 <= val <= 0.11


def test_csv_roundtrip_and_format():
    pts = sample_marginal(GAUSS2, 50, seed=17)
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0)), seed=17)
    text = to_csv(ds)
    lines = text.splitlines()
    assert lines[0] == "x1,x2,y"
    assert all(ln.endswith(",1") or ln.endswith(",-1") for ln in lines[1:])
    back = from_csv(text)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


def test_binary_roundtrip():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 33, seed=18)
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0, 0.0, 0.0)), seed=18)
    raw = to_binary(ds)
    assert raw[:4] == b"HTDS"
    back = from_binary(raw)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1, 2]))


def test_dataset_row_norms_are_cached_norms_of_the_points():
    pts = sample_marginal(MarginalSpec("student_t", 5, nu=3), 2000, seed=3)
    ds = Dataset(pts, np.ones(2000, dtype=int))
    norms = ds.row_norms
    assert np.array_equal(norms, np.linalg.norm(pts, axis=1))
    assert ds.row_norms is norms


E1 = (1.0, 0.0)


@pytest.mark.parametrize("kwargs, error, message", [
    ({"kind": "adversarial", "target": E1}, UnknownKindError, "noise kind"),
    ({"kind": "clean", "target": (1.0, 1.0)}, ValueError, "unit vector"),
    ({"kind": "massart", "target": (0.0, 0.0), "eta": 0.1}, ValueError,
     "unit vector")])
def test_noise_model_refuses_a_bad_kind_or_target(kwargs, error, message):
    with pytest.raises(error, match=message):
        NoiseModel(**kwargs)


@pytest.mark.parametrize("noise, error, message", [
    (NoiseModel("massart", E1, eta=0.1, profile="far_from_boundary"),
     UnknownKindError, "massart profile"),
    (NoiseModel("agnostic", E1, rule="flip_everything"), UnknownKindError,
     "agnostic rule"),
    (NoiseModel("clean", (1.0, 0.0, 0.0)), DimMismatchError, "target dimension")])
def test_label_dataset_refuses_an_unknown_rule_or_a_target_mismatch(
        noise, error, message):
    pts = sample_marginal(GAUSS2, 50, seed=3)
    with pytest.raises(error, match=message):
        label_dataset(pts, noise, seed=3)


@pytest.mark.parametrize("kind", ["clean", "agnostic"])
def test_flip_probabilities_are_only_for_massart_noise(kind):
    with pytest.raises(ValueError, match="defined for massart"):
        NoiseModel(kind, E1).flip_probabilities(np.ones((3, 2)))


@pytest.mark.parametrize("points, labels, error, message", [
    (np.ones((3, 2)), [1, 1], DimMismatchError, "length-n"),
    (np.ones((3, 2)), np.ones((3, 1)), DimMismatchError, "length-n"),
    (np.ones(3), [1, 1, 1], ValueError, "nonempty \\(n, d\\)"),
    (np.empty((0, 2)), [], ValueError, "nonempty \\(n, d\\)")])
def test_dataset_refuses_points_or_labels_of_the_wrong_shape(points, labels,
                                                             error, message):
    with pytest.raises(error, match=message):
        Dataset(points, labels)


@pytest.mark.parametrize("n", [0, -1])
def test_sample_marginal_refuses_n_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_marginal(GAUSS2, n, seed=0)


def test_from_binary_refuses_a_bad_magic():
    with pytest.raises(ValueError, match="bad magic"):
        from_binary(b"HTDX" + to_binary(Dataset(np.ones((2, 2)), [1, -1]))[4:])
