import dataclasses
import json
import math

import numpy as np
import pytest

from halftest import learner, surrogate
from halftest.distributions import (Dataset, MarginalSpec, NoiseModel,
                                    empirical_error, label_dataset,
                                    sample_marginal)
from halftest.errors import InsufficientSamplesError
from halftest.learner import (FixedDatasetSource, LearnerConfig,
                              SyntheticSource, equivariant_init,
                              make_sigma_grid, universal_tester_learner)
from halftest.numerics import unit
from halftest.surrogate import PsgdConfig, gradient_norms, psgd
from halftest.testers import (TesterConfig, TesterVerdict,
                              local_disagreement_test)
from test_surrogate import _dense_full_batch_psgd

W_STAR5 = (1.0, 0.0, 0.0, 0.0, 0.0)
BOUNDARY_5PCT = 0.06270677794321385  # Pr[|N(0,1)| <= w] = 0.05

# calibrated end-to-end configuration: grid arithmetic at lam = 1, tester
# thresholds at lam = 3 with c1 = 3 (frozen from the Gaussian pilot)
E2E_TESTER = TesterConfig(lam=3.0, gamma=1.0, c1=3.0, c_hyper=10.0)


def massart_config(eps=0.05, iterations=300):
    return LearnerConfig(lam=1.0, gamma=1.0, eps=eps, noise="massart", eta=0.1,
                         psgd=PsgdConfig(iterations=iterations, batch_size=None),
                         tester=E2E_TESTER, n1=100_000, n2=100_000)


def agnostic_config(iterations=150):
    # criterion 13's configuration; criterion 12 runs it at 300 iterations
    return LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="agnostic",
                         psgd=PsgdConfig(iterations=iterations, batch_size=None),
                         tester=E2E_TESTER, n1=100_000, n2=100_000)


def boundary_flip_source(kind, seed, **kwargs):
    return SyntheticSource(MarginalSpec(kind, 5, **kwargs),
                           NoiseModel("agnostic", W_STAR5, rule="boundary_flip",
                                      width=BOUNDARY_5PCT), seed=seed)


@pytest.mark.parametrize("name, value", [
    ("lam", math.nan), ("lam", math.inf), ("gamma", math.nan),
    ("gamma", math.inf), ("gamma", 0.0), ("gamma", -1.0), ("eps", math.nan),
    ("eps", math.inf), ("eta", math.nan), ("eta", math.inf),
    ("gamma", 1e80), ("gamma", 1e-100),
    ("n1", 0), ("n1", -5), ("n1", 2.5), ("n1", True), ("n2", 0),
    ("n2", 2.5), ("n2", True), ("repetitions", 1.5), ("repetitions", True),
    ("lam", True), ("gamma", True), ("eps", True), ("eps", "0.1"),
    ("eta", True)])
def test_learner_config_rejects_bad_numbers(name, value):
    with pytest.raises(ValueError):
        dataclasses.replace(agnostic_config(), **{name: value})


def test_learner_config_rejects_a_grid_constant_that_overflows():
    # c1 lam^c1 is finite at the tester's lam = 1 and overflows at the
    # grid's lam = 3
    tester = TesterConfig(lam=1.0, c1=1000.0)
    with pytest.raises(ValueError):
        dataclasses.replace(agnostic_config(), lam=3.0, tester=tester)


def test_sigma_grid_massart_plugin():
    # eta=0.1, lam=1, gamma=1, c1=4, eps=0.1:
    # E = 0.1/4 = 0.025, sigma = 0.025*0.8/(4*2) = 0.0025,
    # A = (1 - 2 eta) / (c1 lam^c1 gamma^4) = 0.8/4 = 0.2
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="massart", eta=0.1,
                        tester=TesterConfig(lam=1.0, c1=4.0))
    grid = make_sigma_grid(cfg)
    assert len(grid) == 1
    assert abs(grid[0] - 0.0025) < 1e-15
    a_threshold, _ = cfg.grid_tester().stationary_bounds(grid[0], cfg.eta)
    assert abs(a_threshold - 0.2) < 1e-15


def test_sigma_grid_agnostic_cover():
    # lam=1, c1=4, eps=0.4: spacing 0.025 over (0, 0.25], 10 points
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.4, noise="agnostic",
                        tester=TesterConfig(lam=1.0, c1=4.0))
    grid = make_sigma_grid(cfg)
    assert len(grid) == 10
    assert abs(grid[0] - 0.025) < 1e-12
    assert abs(grid[-1] - 0.25) < 1e-12
    spacing = np.diff(grid)
    assert np.allclose(spacing, 0.025)
    # A = 1/(c1 lam^c1 gamma^4) = 1/4 at every sigma
    for sigma in grid:
        a_threshold, _ = cfg.grid_tester().stationary_bounds(sigma, None)
        assert abs(a_threshold - 0.25) < 1e-15


def test_sigma_grid_cover_property():
    # half-spacing cover away from zero; the smallest grid point sits one
    # spacing above zero, so targets under half a spacing are within one
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.4, noise="agnostic",
                        tester=TesterConfig(lam=1.0, c1=4.0))
    grid = make_sigma_grid(cfg)
    spacing = grid[1] - grid[0]
    rng = np.random.default_rng(0)
    for _ in range(100):
        target = rng.uniform(1e-9, 0.25)
        dist = min(abs(target - s) for s in grid)
        bound = spacing / 2 if target >= spacing / 2 else spacing
        assert dist <= bound + 1e-12


def test_runnable_sigmas_respect_preconditions():
    # a runnable sigma meets the stationary tester's sigma <= 1/(2 lam) and
    # the disagreement tester's 0 < theta <= pi/4 at the certified theta,
    # and the runnable sigmas are a prefix of the grid
    cfg = dataclasses.replace(agnostic_config(iterations=5), n1=500, n2=500)
    out = universal_tester_learner(boundary_flip_source("standard_gaussian", 1),
                                   cfg, seed=1)
    grid = list(make_sigma_grid(cfg))
    expected = [s for s in grid if s <= 1.0 / (2.0 * cfg.tester.lam)
                and 0.0 < cfg.grid_tester().stationary_bounds(s, None)[1]
                <= math.pi / 4.0]
    assert 0 < len(expected) < len(grid)
    assert expected == grid[:len(expected)]
    assert out.trace["sigma_runnable"] == expected
    assert "sigma_grid" not in out.trace


def test_theta_at_the_pi_over_4_edge_reaches_a_verdict(monkeypatch):
    # eps = 3 pi/4 puts the Massart sigma's theta = eps/(c1 lam^c1) within
    # an ulp of pi/4; the sigma runs only if the theta handed to the
    # disagreement tester meets its precondition
    cfg = LearnerConfig(lam=1.0, gamma=0.6, eps=2.356194490192345,
                        noise="massart", eta=0.2,
                        psgd=PsgdConfig(iterations=5, batch_size=None),
                        tester=E2E_TESTER, n1=1000, n2=1000)
    thetas = []

    def recorded_disagreement(points, w, theta, tester):
        thetas.append(theta)
        return local_disagreement_test(points, w, theta, tester)

    monkeypatch.setattr(learner, "stationary_point_test",
                        lambda *args: TesterVerdict(accepted=True))
    monkeypatch.setattr(learner, "local_disagreement_test", recorded_disagreement)
    src = SyntheticSource(MarginalSpec("standard_gaussian", 5),
                          NoiseModel("massart", W_STAR5, eta=0.2), seed=3)
    out = universal_tester_learner(src, cfg, seed=3)
    assert out.stage in ("accepted", "disagreement_test")
    runnable = out.trace["sigma_runnable"]
    assert thetas and thetas == [
        cfg.grid_tester().stationary_bounds(s, 0.2)[1] for s in runnable]
    assert all(theta <= math.pi / 4.0 for theta in thetas)


def test_equivariant_init():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 3), 500, seed=60)
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0, 0.0)), seed=60)
    w0 = equivariant_init(ds)
    flipped = Dataset(ds.points, -ds.labels)
    assert np.allclose(equivariant_init(flipped), -w0)
    assert abs(np.linalg.norm(w0) - 1.0) < 1e-12


def test_accepts_gaussian_massart():
    src = SyntheticSource(MarginalSpec("standard_gaussian", 5),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=61)
    out = universal_tester_learner(src, massart_config(), seed=61)
    assert out.accepted
    assert out.empirical_error <= 0.15
    w_star = np.asarray(W_STAR5)
    assert abs(out.w @ w_star) > 0.99


def test_accepts_clean_separable():
    # opt = 0 special case: accepted with held-out error below eps
    marginal = MarginalSpec("standard_gaussian", 5)
    noise = NoiseModel("massart", W_STAR5, eta=0.0)
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="massart", eta=0.0,
                        psgd=PsgdConfig(iterations=250, batch_size=None),
                        tester=E2E_TESTER, n1=100_000, n2=100_000)
    src = SyntheticSource(marginal, noise, seed=70)
    out = universal_tester_learner(src, cfg, seed=70)
    assert out.accepted
    pts = sample_marginal(marginal, 100_000, seed=71, stream_id=55)
    holdout = label_dataset(pts, noise, seed=71, stream_id=56)
    assert empirical_error(out.w, holdout) <= 0.1


@pytest.mark.parametrize("kind", ["product_laplace", "uniform_cube",
                                  "uniform_ball"])
def test_accepts_other_nice_marginals(kind):
    # universality: acceptance is not tailored to the Gaussian
    w_star = (1.0, 0.0, 0.0, 0.0)
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="massart", eta=0.1,
                        psgd=PsgdConfig(iterations=250, batch_size=None),
                        tester=E2E_TESTER, n1=60_000, n2=60_000)
    src = SyntheticSource(MarginalSpec(kind, 4),
                          NoiseModel("massart", w_star, eta=0.1), seed=7000)
    out = universal_tester_learner(src, cfg, seed=7000)
    assert out.accepted
    assert out.empirical_error <= 0.15


def test_rejects_two_point_mass():
    src = SyntheticSource(MarginalSpec("two_point_mass", 5, spread=10.0),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=62)
    out = universal_tester_learner(src, massart_config(), seed=62)
    assert not out.accepted
    assert out.stage in ("stationary_test", "disagreement_test")


def test_laplace_massart_run_rejects_at_a_hypercontractivity_witness():
    # criterion 11's configuration on product Laplace: the slab of about
    # 300 points has a direction whose fourth moment clears 9, so the
    # stationary test rejects at the witness without an SDP solve
    src = SyntheticSource(MarginalSpec("product_laplace", 5),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=1108)
    out = universal_tester_learner(src, massart_config(iterations=400),
                                   seed=1108)
    assert not out.accepted and out.stage == "stationary_test"
    (info,) = out.trace["per_sigma"].values()
    diag = info["stationary"]
    assert diag["rejected_by"] == "hypercontractivity"
    assert diag["hyper_stop_reason"] == "witness"
    assert diag["hyper_witness_value"] > diag["hyper_threshold"] == 9.0


def test_rejects_line_mass():
    src = SyntheticSource(MarginalSpec("line_mass", 5),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=63)
    out = universal_tester_learner(src, massart_config(), seed=63)
    assert not out.accepted


def test_accepted_output_is_argmin_by_replay():
    src = SyntheticSource(MarginalSpec("standard_gaussian", 5),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=64)
    cfg = massart_config()
    out = universal_tester_learner(src, cfg, seed=64)
    assert out.accepted
    errors = out.trace["candidate_errors"]
    assert out.empirical_error == min(errors)
    # replay: the stored error matches a fresh evaluation on the same S2
    replay = SyntheticSource(MarginalSpec("standard_gaussian", 5),
                             NoiseModel("massart", W_STAR5, eta=0.1), seed=64)
    replay.draw(cfg.n1, stream_id=100)
    s2 = replay.draw(cfg.n2, stream_id=102)
    assert empirical_error(out.w, s2) == out.empirical_error


def test_sign_equivariance():
    class FlippingSource:
        def __init__(self, base, flip):
            self.base, self.flip, self.dim = base, flip, base.dim

        def draw(self, n, stream_id):
            ds = self.base.draw(n, stream_id)
            return Dataset(ds.points, -ds.labels) if self.flip else ds

    base_a = SyntheticSource(MarginalSpec("standard_gaussian", 4),
                             NoiseModel("massart", (1.0, 0, 0, 0), eta=0.05),
                             seed=65)
    base_b = SyntheticSource(MarginalSpec("standard_gaussian", 4),
                             NoiseModel("massart", (1.0, 0, 0, 0), eta=0.05),
                             seed=65)
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="massart", eta=0.05,
                        psgd=PsgdConfig(iterations=150, batch_size=None),
                        tester=E2E_TESTER, n1=60_000, n2=60_000)
    out = universal_tester_learner(FlippingSource(base_a, False), cfg, seed=65)
    out_flipped = universal_tester_learner(FlippingSource(base_b, True), cfg, seed=65)
    assert out.accepted and out_flipped.accepted
    assert np.allclose(out_flipped.w, -out.w)


def test_fixed_dataset_source_exhaustion():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 2), 100, seed=66)
    ds = label_dataset(pts, NoiseModel("clean", (1.0, 0.0)), seed=66)
    src = FixedDatasetSource(ds)
    first = src.draw(60, stream_id=0)
    assert first.n == 60
    with pytest.raises(InsufficientSamplesError):
        src.draw(60, stream_id=0)


def test_insufficient_samples_propagates():
    pts = sample_marginal(MarginalSpec("standard_gaussian", 5), 1_000, seed=67)
    ds = label_dataset(pts, NoiseModel("clean", W_STAR5), seed=67)
    src = FixedDatasetSource(ds)
    with pytest.raises(InsufficientSamplesError):
        universal_tester_learner(src, massart_config(), seed=67)


def test_repetition_wrapper():
    src = SyntheticSource(MarginalSpec("standard_gaussian", 5),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=68)
    cfg = LearnerConfig(lam=1.0, gamma=1.0, eps=0.1, noise="massart", eta=0.1,
                        psgd=PsgdConfig(iterations=200, batch_size=None),
                        tester=E2E_TESTER, n1=60_000, n2=60_000, repetitions=3)
    out = universal_tester_learner(src, cfg, seed=68)
    assert out.accepted
    assert out.trace["accept_count"] >= 2
    stages = [rep["stage"] for rep in out.trace["per_repetition"]]
    assert len(stages) == 3
    assert stages.count("accepted") == out.trace["accept_count"]
    assert out.empirical_error <= 0.15


def test_outcome_json_schema():
    src = SyntheticSource(MarginalSpec("two_point_mass", 5, spread=10.0),
                          NoiseModel("massart", W_STAR5, eta=0.1), seed=69)
    out = universal_tester_learner(src, massart_config(), seed=69)
    import json
    payload = json.loads(out.to_json())
    assert payload["status"] == "rejected"
    assert "trace" in payload and "stage" in payload
    # timings stay out of the deterministic report
    assert "wall_time" not in payload


@pytest.mark.parametrize("kind, kwargs, rejected_by", [
    ("two_point_mass", {"spread": 10.0}, "strip"),
    ("line_mass", {}, "spectral_lower"),
])
def test_reject_stops_at_the_rejecting_sigma(monkeypatch, kind, kwargs,
                                             rejected_by):
    # criterion 13 rejects at the first sigma: no PSGD runs for the other ten
    calls = []

    def counted_psgd(*args, **kw):
        calls.append(1)
        return psgd(*args, **kw)

    monkeypatch.setattr(learner, "psgd", counted_psgd)
    out = universal_tester_learner(boundary_flip_source(kind, 1300, **kwargs),
                                   agnostic_config(), seed=1300)
    assert not out.accepted
    assert len(calls) == 1
    assert len(out.trace["per_sigma"]) == 1
    assert out.stage == "stationary_test"
    (info,) = out.trace["per_sigma"].values()
    assert info["stationary"]["rejected_by"] == rejected_by


@pytest.mark.parametrize("kind, kwargs", [
    ("two_point_mass", {"spread": 10.0}), ("line_mass", {})])
def test_reject_at_a_fixed_start_takes_one_step_and_one_score(monkeypatch,
                                                              kind, kwargs):
    # criterion 13's start is an exact fixed point of full-batch PSGD: one
    # gradient in PSGD and one in the filter give the outcome that taking
    # all 150 steps and scoring all 151 iterates one by one gives, but for
    # the count of iterates in the trace
    def run():
        return universal_tester_learner(boundary_flip_source(kind, 1300, **kwargs),
                                        agnostic_config(), seed=1300)

    with monkeypatch.context() as patch:
        patch.setattr(learner, "psgd", lambda ds, p, cfg, w0: _dense_full_batch_psgd(
            ds, p, cfg.resolved_step(p.sigma), unit(w0), cfg.iterations))
        patch.setattr(learner, "gradient_norms", lambda ws, ds, p: np.array(
            [gradient_norms(w[None], ds, p)[0] for w in ws]))
        reference = run()

    calls, stages = [], []
    band_gradient = surrogate._band_gradient

    def counted(*args):
        calls.append(stages[-1])
        return band_gradient(*args)

    def staged(stage, fn):
        def call(*args, **kw):
            stages.append(stage)
            return fn(*args, **kw)
        return call

    monkeypatch.setattr(surrogate, "_band_gradient", counted)
    monkeypatch.setattr(learner, "psgd", staged("psgd", psgd))
    monkeypatch.setattr(learner, "gradient_norms",
                        staged("filter", gradient_norms))
    out = run()
    assert calls == ["psgd", "filter"]
    assert out.stage == "stationary_test"
    got, want = json.loads(out.to_json()), json.loads(reference.to_json())
    ((sigma, info),) = got["trace"]["per_sigma"].items()
    assert info.pop("iterates") == 1
    assert want["trace"]["per_sigma"][sigma].pop("iterates") == 151
    assert got == want


def test_tester_reject_precedes_a_later_gradient_filter_reject(monkeypatch):
    # sigma index 0's survivor fails the stationary tester and sigma index 1
    # would fail the filter; the report names the tester that ran first
    calls = []

    def rigged_norms(iterates, ds, params):
        calls.append(1)
        norms = gradient_norms(iterates, ds, params)
        return norms if len(calls) == 1 else norms + 1e6

    monkeypatch.setattr(learner, "gradient_norms", rigged_norms)
    out = universal_tester_learner(
        boundary_flip_source("two_point_mass", 1300, spread=10.0),
        agnostic_config(), seed=1300)
    assert out.stage == "stationary_test"
    assert len(calls) == 1
    assert list(out.trace["per_sigma"]) == [
        f"{out.trace['sigma_runnable'][0]:.10g}"]


def test_accept_tests_every_sigma():
    out = universal_tester_learner(boundary_flip_source("standard_gaussian", 1200),
                                   agnostic_config(300), seed=1200)
    assert out.accepted
    sigmas = out.trace["sigma_runnable"]
    assert len(sigmas) > 1
    assert list(out.trace["per_sigma"]) == [f"{s:.10g}" for s in sigmas]
    for info in out.trace["per_sigma"].values():
        assert info["stationary_accepted"] and "stationary" in info
        assert info["disagreement_accepted"] and "disagreement" in info
    assert len(out.trace["candidate_errors"]) == 2 * len(sigmas)


def _sigma_keys(out):
    return list(out.trace["per_sigma"])


def _runnable_keys(out, count):
    return [f"{s:.10g}" for s in out.trace["sigma_runnable"][:count]]


def test_gradient_filter_reject_at_a_later_sigma(monkeypatch):
    # the first sigma passes every check; the second fails the filter
    calls = []

    def rigged_norms(iterates, ds, params):
        calls.append(1)
        norms = gradient_norms(iterates, ds, params)
        return norms if len(calls) == 1 else norms + 1e6

    monkeypatch.setattr(learner, "gradient_norms", rigged_norms)
    out = universal_tester_learner(boundary_flip_source("standard_gaussian", 1200),
                                   agnostic_config(), seed=1200)
    assert not out.accepted and out.stage == "gradient_filter"
    assert _sigma_keys(out) == _runnable_keys(out, 2)
    first, last = out.trace["per_sigma"].values()
    assert first["disagreement_accepted"]
    assert last["failed_gradient_filter"] and "stationary" not in last


def test_disagreement_reject_at_a_later_sigma(monkeypatch):
    calls = []

    def rigged_disagreement(points, w, theta, cfg):
        calls.append(1)
        verdict = local_disagreement_test(points, w, theta, cfg)
        return verdict if len(calls) == 1 else TesterVerdict(
            accepted=False, diagnostics={"rejected_by": "spectral"})

    monkeypatch.setattr(learner, "local_disagreement_test", rigged_disagreement)
    out = universal_tester_learner(boundary_flip_source("standard_gaussian", 1200),
                                   agnostic_config(), seed=1200)
    assert not out.accepted and out.stage == "disagreement_test"
    assert _sigma_keys(out) == _runnable_keys(out, 2)
    last = out.trace["per_sigma"][_sigma_keys(out)[-1]]
    assert last["stationary_accepted"] and not last["disagreement_accepted"]


def test_no_runnable_sigma_rejects_before_psgd(monkeypatch):
    # a tester lambda of 1e6 caps sigma at 5e-7, below the whole grid, so
    # the run rejects before it draws a sample
    def must_not_run(*args, **kwargs):
        raise AssertionError("PSGD ran without a runnable sigma")

    def must_not_draw(*args, **kwargs):
        raise AssertionError("drew samples without a runnable sigma")

    monkeypatch.setattr(learner, "psgd", must_not_run)
    monkeypatch.setattr(SyntheticSource, "draw", must_not_draw)
    cfg = dataclasses.replace(agnostic_config(), n1=100, n2=100,
                              tester=TesterConfig(lam=1e6, c1=3.0))
    out = universal_tester_learner(boundary_flip_source("standard_gaussian", 1),
                                   cfg, seed=1)
    assert not out.accepted and out.stage == "empty_sigma_grid"
    assert out.trace["sigma_runnable"] == [] and out.trace["per_sigma"] == {}
    assert out.trace["gradient_threshold"] == \
        cfg.grid_tester().stationary_bounds(make_sigma_grid(cfg)[0], None)[0]

    out = universal_tester_learner(boundary_flip_source("standard_gaussian", 1),
                                   dataclasses.replace(cfg, repetitions=3), seed=1)
    assert out.stage == "repetition_majority"
    assert [rep["stage"] for rep in out.trace["per_repetition"]] == \
        ["empty_sigma_grid"] * 3


def test_repetition_majority_reject():
    cfg = dataclasses.replace(agnostic_config(), n1=20_000, n2=20_000,
                              repetitions=3)
    out = universal_tester_learner(
        boundary_flip_source("two_point_mass", 1300, spread=10.0), cfg, seed=1300)
    assert not out.accepted and out.stage == "repetition_majority"
    reps = out.trace["per_repetition"]
    assert out.trace == {"repetitions": 3, "accept_count": 0,
                         "per_repetition": reps}
    assert len(reps) == 3
    for rep in reps:
        assert set(rep) == {"stage", "trace"}
        assert rep["stage"] == "stationary_test"
        runnable = rep["trace"]["sigma_runnable"]
        assert list(rep["trace"]["per_sigma"]) == [f"{runnable[0]:.10g}"]


def test_equivariant_init_falls_back_to_e1_on_a_zero_sum():
    x = np.array([0.3, -1.2, 2.0])
    ds = Dataset(np.stack([x, -x]), np.array([1, 1]))
    assert np.array_equal(equivariant_init(ds), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("changes, message", [
    ({"noise": "random"}, "noise must be"),
    ({"noise": "massart", "eta": None}, "massart requires eta"),
    ({"noise": "massart", "eta": 0.5}, "massart requires eta"),
    ({"noise": "massart", "eta": -0.1}, "massart requires eta")])
def test_learner_config_refuses_a_bad_noise_or_massart_eta(changes, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(agnostic_config(), **changes)
