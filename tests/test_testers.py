import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halftest.distributions import MarginalSpec, NoiseModel, label_dataset, \
    sample_marginal
from halftest.errors import PreconditionError
from halftest.numerics import check_finite, householder_basis, unit
from halftest.oracle import erm_halfspace
from halftest.surrogate import RampParams, surrogate_gradient
from halftest.testers import (TesterConfig, TesterVerdict,
                              local_disagreement_test, spectral_test,
                              stationary_point_test, strip_probability,
                              weak_anticoncentration_test)


def paley_zygmund_holds(samples: np.ndarray) -> bool:
    """Exact Paley-Zygmund check on an empirical nonnegative sample:
    Pr[Z > E[Z]/2] >= E[Z]^2 / (4 E[Z^2])."""
    z = check_finite(np.asarray(samples, dtype=float))
    if np.any(z < 0):
        raise ValueError("Paley-Zygmund needs a nonnegative sample")
    mean = float(np.mean(z))
    second = float(np.mean(z**2))
    lhs = float(np.mean(z > mean / 2.0))
    rhs = 0.0 if second == 0.0 else mean**2 / (4.0 * second)
    return lhs >= rhs


CFG = TesterConfig(lam=3.0, gamma=1.0, c1=4.0, c_hyper=10.0)
E1_4 = np.array([1.0, 0.0, 0.0, 0.0])


def test_spectral_rank_deficient_rejects():
    pts = np.tile(np.array([[1.0, 0.0]]), (50, 1))
    verdict = spectral_test(pts, theta=1.0, mode="min")
    assert not verdict.accepted


def test_spectral_identity_accepts_both_modes():
    # scaled canonical basis repeated: E[z z^T] is exactly the identity
    pts = np.concatenate([np.eye(2)] * 30 + [-np.eye(2)] * 30) * math.sqrt(2.0)
    assert spectral_test(pts, 1.0, "min").accepted
    assert spectral_test(pts, 1.0, "max").accepted


def test_spectral_gaussian_completeness():
    # sample size 2 lam d^4 / (theta^2 delta) from the tester guarantee
    lam, d, theta, delta = 3.0, 4, 1.0, 0.1
    n = int(2 * lam * d**4 / (theta**2 * delta))
    accepts = 0
    for seed in range(20):
        pts = sample_marginal(MarginalSpec("standard_gaussian", d), n, seed=seed)
        accepts += spectral_test(pts, theta, "min").accepted
    assert accepts >= 18


def test_strip_probability_edges():
    pts = np.array([[0.0, 1.0], [0.0, -2.0]])
    w = np.array([1.0, 0.0])
    assert strip_probability(pts, w, 0.5) == 1.0
    far = np.array([[3.0, 0.0], [-9.0, 1.0]])
    assert strip_probability(far, w, 0.5) == 0.0


@pytest.mark.parametrize("sigma", [-0.1, math.nan])
def test_strip_probability_rejects_bad_sigma(sigma):
    with pytest.raises(PreconditionError):
        strip_probability(np.zeros((2, 2)), np.array([1.0, 0.0]), sigma)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["lam", "gamma", "c1", "c_hyper"])
def test_tester_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError):
        TesterConfig(**{name: value})


@pytest.mark.parametrize("value", [True, "3.0", None])
@pytest.mark.parametrize("name", ["lam", "gamma", "c1", "c_hyper"])
def test_tester_config_rejects_a_bool_or_a_non_number(name, value):
    with pytest.raises(ValueError):
        TesterConfig(**{name: value})


def test_tester_config_with_integer_constants_does_not_build_huge_integers():
    # 3 ** 10**9 as a Python integer would take minutes; as a float it
    # overflows at once
    with pytest.raises(ValueError):
        TesterConfig(lam=3, c1=10**9)
    assert TesterConfig(lam=3, c1=3).strip_constant == 81.0


@pytest.mark.parametrize("name, value", [
    ("gamma", 1e80), ("gamma", 1e-100), ("c1", 1000.0)])
def test_tester_config_rejects_constants_that_overflow(name, value):
    # gamma^4 overflows or underflows to 0; 3^1000 overflows
    with pytest.raises(ValueError):
        TesterConfig(lam=3.0, **{name: value})


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
def test_spectral_checks_theta_before_the_points(theta, mode):
    # the points are not finite either: theta is checked first
    with pytest.raises(PreconditionError):
        spectral_test(np.array([[1.0, math.nan]]), theta, mode)


def test_strip_probability_gaussian():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000, seed=40)
    w = unit(np.array([1.0, 1.0, 1.0]))
    p = strip_probability(pts, w, 0.1)
    exact = math.erf(0.1 / math.sqrt(2.0))
    se = math.sqrt(exact * (1 - exact) / 100_000)
    assert abs(p - exact) <= 3 * se


def test_disagreement_precondition():
    pts = np.zeros((5, 2))
    with pytest.raises(PreconditionError):
        local_disagreement_test(pts, np.array([1.0, 0.0]), 0.8, CFG)


def test_disagreement_margin_accepts_zero_disagreement():
    # all points far from the hyperplane and bounded sideways: any w' within
    # theta classifies identically
    rng = np.random.default_rng(41)
    n, theta = 400, 0.1
    signs = rng.choice([-1.0, 1.0], size=n)
    pts = np.stack([signs * 11.0, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)],
                   axis=1)
    w = np.array([1.0, 0.0, 0.0])
    verdict = local_disagreement_test(pts, w, theta, CFG)
    assert verdict.accepted
    basis = householder_basis(w)
    for k in range(20):
        tangent = unit(basis.T @ rng.standard_normal(2))
        w_prime = math.cos(theta) * w + math.sin(theta) * tangent
        disagree = np.mean(np.sign(pts @ w_prime) != np.sign(pts @ w))
        assert disagree == 0.0


def test_disagreement_hyperplane_mass_rejects():
    # at lam = 1 the strip threshold c1 theta is below one, so unit mass on
    # the hyperplane fires it; the looser calibrated configs would accept
    # vacuously (their certified bound exceeds one)
    pts = np.zeros((100, 3))
    pts[:, 1] = np.linspace(-1, 1, 100)  # all on the hyperplane of w
    w = np.array([1.0, 0.0, 0.0])
    verdict = local_disagreement_test(pts, w, 0.1,
                                      TesterConfig(lam=1.0, c1=4.0))
    assert not verdict.accepted
    assert verdict.diagnostics["rejected_by"] == "strip"


def test_disagreement_gaussian_accepts_and_bound_holds():
    d, theta, n = 4, 0.05, 100_000
    w = unit(np.ones(d))
    rng = np.random.default_rng(42)
    accepts = 0
    for seed in range(5):
        pts = sample_marginal(MarginalSpec("standard_gaussian", d), n, seed=seed)
        verdict = local_disagreement_test(pts, w, theta, CFG)
        if not verdict.accepted:
            continue
        accepts += 1
        bound = verdict.diagnostics["disagreement_bound"]
        basis = householder_basis(w)
        for _ in range(20):
            tangent = unit(basis.T @ rng.standard_normal(d - 1))
            w_prime = math.cos(theta) * w + math.sin(theta) * tangent
            disagree = np.mean(np.sign(pts @ w_prime) != np.sign(pts @ w))
            assert disagree <= min(1.0, bound)
            # for the Gaussian the true disagreement is theta/pi
            assert abs(disagree - theta / math.pi) <= 0.005
    assert accepts >= 4


def test_anticoncentration_precondition():
    pts = np.zeros((5, 3))
    with pytest.raises(PreconditionError):
        weak_anticoncentration_test(pts, np.array([1.0, 0.0, 0.0]), 0.5, CFG)


def test_anticoncentration_line_mass_rejects():
    w = np.array([1.0, 0.0, 0.0])
    for direction in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.7)]:
        spec = MarginalSpec("line_mass", 3, direction=direction)
        pts = sample_marginal(spec, 20_000, seed=43)
        verdict = weak_anticoncentration_test(pts, w, 0.1, CFG)
        assert not verdict.accepted


def test_anticoncentration_gaussian_accepts_with_pz_bound():
    w = unit(np.array([1.0, -1.0, 2.0]))
    rng = np.random.default_rng(44)
    accepts = 0
    for seed in range(5):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 100_000,
                              seed=100 + seed)
        verdict = weak_anticoncentration_test(pts, w, 0.1, CFG)
        if not verdict.accepted:
            continue
        accepts += 1
        thresh = verdict.diagnostics["correlation_threshold"]
        prob_bound = verdict.diagnostics["conditional_probability_bound"]
        mask = np.abs(pts @ w) <= 0.1
        basis = householder_basis(w)
        for _ in range(50):
            v = unit(basis.T @ rng.standard_normal(2))
            cond = np.mean(np.abs(pts[mask] @ v) >= thresh)
            assert cond >= prob_bound
    assert accepts >= 4


def test_stationary_empty_strip_rejects():
    rng = np.random.default_rng(45)
    pts = rng.uniform(1.0, 2.0, size=(500, 3)) * rng.choice([-1, 1], (500, 1))
    ds_points = pts  # every |<e1, x>| >= 1 > sigma
    w = np.array([1.0, 0.0, 0.0])
    verdict = stationary_point_test(ds_points, w, 0.05, 0.1, CFG)
    assert not verdict.accepted
    assert verdict.diagnostics["rejected_by"] == "strip"


# hand-built samples in R^3 for w = e1 (projected coordinates are x2, x3)
FAR = np.array([[2.0, 0.5, 0.0], [-3.0, 0.0, 0.5]] * 10)        # empty slab
WIDE = np.array([[0.0, 10.0, 0.0], [0.0, -10.0, 0.0],
                 [0.0, 0.0, 10.0], [0.0, 0.0, -10.0]] * 5)     # E[z z^T] = 50 I
LINE = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]] * 10)      # rank one
SPIKE = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0]] * 25
                 + [[0.0, 20.0, 0.0], [0.0, -20.0, 0.0]])       # E[z_1^4] > 3000
BAND = WIDE + np.array([0.15, 0.0, 0.0])                        # all in band 2
E1_3 = np.array([1.0, 0.0, 0.0])
TESTERS = {
    "stationary": lambda pts: stationary_point_test(pts, E1_3, 0.1, None, CFG),
    "anticoncentration": lambda pts: weak_anticoncentration_test(pts, E1_3,
                                                                 0.1, CFG),
    "disagreement": lambda pts: local_disagreement_test(pts, E1_3, 0.1, CFG),
}


@pytest.mark.parametrize("tester, points, stage", [
    ("stationary", FAR, "strip"),
    ("stationary", WIDE, "spectral_upper"),
    ("stationary", LINE, "spectral_lower"),
    ("stationary", SPIKE, "hypercontractivity"),
    ("anticoncentration", FAR, "empty_strip"),
    ("anticoncentration", LINE, "spectral"),
    ("anticoncentration", SPIKE, "hypercontractivity"),
    ("disagreement", BAND, "spectral"),
])
def test_reject_names_its_stage(tester, points, stage):
    verdict = TESTERS[tester](points)
    assert not verdict.accepted
    assert verdict.diagnostics["rejected_by"] == stage


def test_stationary_gaussian_accepts_any_labels():
    w = unit(np.array([1.0, 0.5, -0.5, 2.0]))
    accepts = 0
    for seed in range(5):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 4), 100_000,
                              seed=200 + seed)
        verdict = stationary_point_test(pts, w, 0.05, 0.1, CFG)
        accepts += verdict.accepted
    assert accepts >= 4


def test_stationary_angle_bound_against_erm():
    # accepted instance + Massart labels + small gradient at w near w*:
    # the certified angle bound holds against the brute-force ERM direction.
    # lam = 1.5 keeps both the acceptance and the gradient hypothesis
    # non-vacuous at this sample size.
    d, sigma, eta = 3, 0.05, 0.1
    cfg = TesterConfig(lam=1.5, gamma=1.0, c1=4.0, c_hyper=10.0)
    w_star = unit(np.array([1.0, 0.3, -0.2]))
    pts = sample_marginal(MarginalSpec("standard_gaussian", d), 30_000, seed=46)
    ds = label_dataset(pts, NoiseModel("massart", tuple(w_star), eta=eta), seed=46)
    verdict = stationary_point_test(ds, w_star, sigma, eta, cfg)
    assert verdict.accepted
    grad = surrogate_gradient(w_star, ds, RampParams(sigma))
    assert np.linalg.norm(grad) <= verdict.diagnostics["gradient_threshold"]
    w_erm, _ = erm_halfspace(ds, mode="search", seed=1, search_budget=4000)
    angle = min(math.acos(np.clip(w_star @ w_erm, -1, 1)),
                math.acos(np.clip(-w_star @ w_erm, -1, 1)))
    assert angle <= min(math.pi, verdict.diagnostics["angle_bound"])
    assert angle <= 0.35  # empirical regression bound at this scale


def test_monotone_in_c1():
    rng = np.random.default_rng(47)
    w = np.array([1.0, 0.0, 0.0])
    for seed in range(5):
        pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 20_000,
                              seed=300 + seed)
        for c1, c1_big in [(2.0, 4.0), (4.0, 8.0)]:
            small = TesterConfig(lam=3.0, gamma=1.0, c1=c1)
            big = TesterConfig(lam=3.0, gamma=1.0, c1=c1_big)
            for test in (
                lambda cfg: local_disagreement_test(pts, w, 0.05, cfg),
                lambda cfg: weak_anticoncentration_test(pts, w, 0.1, cfg),
                lambda cfg: stationary_point_test(pts, w, 0.05, 0.1, cfg),
            ):
                if test(small).accepted:
                    assert test(big).accepted


def test_verdict_determinism_and_json():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 5_000, seed=48)
    w = np.array([1.0, 0.0, 0.0])
    a = stationary_point_test(pts, w, 0.1, None, CFG)
    b = stationary_point_test(pts, w, 0.1, None, CFG)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert set(payload) == {"accepted", "diagnostics"}


def test_verdict_json_from_numpy_bool():
    # a comparison of numpy floats gives numpy.bool_, which json cannot write
    verdict = TesterVerdict(accepted=np.bool_(True), diagnostics={"x": np.float64(1.0)})
    assert verdict.accepted is True
    assert json.loads(verdict.to_json()) == {"accepted": True,
                                             "diagnostics": {"x": 1.0}}


def test_paley_zygmund_random_samples():
    rng = np.random.default_rng(49)
    for _ in range(100):
        kind = rng.integers(0, 4)
        n = int(rng.integers(1, 200))
        if kind == 0:
            z = rng.exponential(rng.uniform(0.1, 5.0), n)
        elif kind == 1:
            z = rng.uniform(0, 10, n)
        elif kind == 2:
            z = rng.standard_normal(n) ** 2
        else:
            z = np.full(n, rng.uniform(0, 3))
        assert paley_zygmund_holds(z)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
def test_paley_zygmund_hypothesis(values):
    assert paley_zygmund_holds(np.array(values))


GAUSS5 = sample_marginal(MarginalSpec("standard_gaussian", 5), 20_000, seed=3)


@pytest.mark.parametrize("points, w, theta", [
    (GAUSS5, unit(np.array([0.3, -1.0, 0.5, 2.0, -0.7])), 0.05),
    (GAUSS5, unit(np.array([0.3, -1.0, 0.5, 2.0, -0.7])), 0.7),
    (BAND, E1_3, 0.1),                          # spectral reject
])
def test_disagreement_symmetric_under_negation(points, w, theta):
    # the learner tests +w only: |<-w,x>| = |<w,x>| and, for w[0] != 0,
    # householder_basis(-w) == householder_basis(w) bit for bit
    plus = local_disagreement_test(points, w, theta, CFG)
    minus = local_disagreement_test(points, -w, theta, CFG)
    assert minus.accepted == plus.accepted
    assert minus.diagnostics == plus.diagnostics


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.7])
def test_disagreement_negation_with_zero_first_coordinate(theta):
    # w[0] == 0: the two signs get different hyperplane bases, so the band
    # operator norm may differ by rounding only
    w = unit(np.array([0.0, -1.0, 0.5, 2.0, -0.7]))
    plus = local_disagreement_test(GAUSS5, w, theta, CFG)
    minus = local_disagreement_test(GAUSS5, -w, theta, CFG)
    assert minus.accepted == plus.accepted
    assert minus.diagnostics["strip_probability"] == plus.diagnostics["strip_probability"]
    assert minus.diagnostics["band_operator_norm"] == pytest.approx(
        plus.diagnostics["band_operator_norm"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_verdict_refuses_a_diagnostic_that_is_not_finite(value):
    with pytest.raises(ValueError, match="not finite"):
        TesterVerdict(accepted=True, diagnostics={"n": 3, "slack": value})


@pytest.mark.parametrize("kwargs, message", [
    ({"lam": 0.5}, "lam must be >= 1"),
    ({"c1": 0.0}, "constants must be positive"),
    ({"c1": -1.0}, "constants must be positive"),
    ({"c_hyper": 0.0}, "constants must be positive"),
    ({"c_hyper": -2.0}, "constants must be positive")])
def test_tester_config_refuses_bad_constants(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TesterConfig(**kwargs)


def _gaussian_points(d, n=2000, seed=60):
    return sample_marginal(MarginalSpec("standard_gaussian", d), n, seed=seed)


TAKES_W = {
    "strip": lambda pts, w: strip_probability(pts, w, 0.1),
    "disagreement": lambda pts, w: local_disagreement_test(pts, w, 0.1, CFG),
    "anticoncentration": lambda pts, w: weak_anticoncentration_test(pts, w,
                                                                    0.1, CFG),
    "stationary": lambda pts, w: stationary_point_test(pts, w, 0.1, None, CFG)}
CALLS = dict(TAKES_W, spectral=lambda pts, w: spectral_test(pts, 0.1, "min"))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_testers_refuse_an_empty_sample(name):
    with pytest.raises(PreconditionError, match="at least one point"):
        CALLS[name](np.empty((0, 3)), E1_3)


@pytest.mark.parametrize("name", sorted(TAKES_W))
def test_testers_refuse_a_w_that_is_not_unit(name):
    with pytest.raises(PreconditionError, match="unit vector"):
        TAKES_W[name](_gaussian_points(3), np.array([1.0, 1.0, 0.0]))


def test_spectral_test_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        spectral_test(_gaussian_points(3), 0.5, "median")


@pytest.mark.parametrize("name", ["anticoncentration", "stationary"])
def test_slab_testers_refuse_dimension_one(name):
    with pytest.raises(PreconditionError, match="dimension >= 2"):
        TAKES_W[name](_gaussian_points(1), np.ones(1))


def test_anticoncentration_rejects_a_slab_that_holds_too_much():
    # every point lies on the hyperplane <e1, x> = 0, so the sigma-slab holds
    # the whole sample, above 2 sigma c1 lam^c1 = 0.216
    pts = _gaussian_points(3)
    pts[:, 0] = 0.0
    verdict = weak_anticoncentration_test(pts, E1_3, 0.001, CFG)
    assert not verdict.accepted
    assert verdict.diagnostics["rejected_by"] == "strip"
    assert verdict.diagnostics["strip_probability"] == 1.0


@pytest.mark.parametrize("sigma, eta, message", [
    (0.0, None, "sigma must lie"), (-0.1, 0.1, "sigma must lie"),
    (0.5, 0.1, "sigma must lie"), (math.nan, None, "sigma must lie"),
    (0.1, 0.5, "eta must lie"), (0.1, -0.1, "eta must lie"),
    (0.1, math.nan, "eta must lie")])
def test_stationary_test_refuses_sigma_or_eta_out_of_range(sigma, eta, message):
    # CFG has lam = 3, so sigma may be at most 1/6
    with pytest.raises(PreconditionError, match=message):
        stationary_point_test(_gaussian_points(3), E1_3, sigma, eta, CFG)
