"""The four benchmark workloads: inputs, expected verdicts and hard checks.

The learner workloads use the calibrated end-to-end configuration of the
acceptance suite (criteria 11 to 13): sigma-grid arithmetic at lambda = 1,
tester thresholds at lambda = 3, gamma = 1, c1 = 3, c_hyper = 10, n1 = n2 =
100k and full-batch PSGD.  ``sos-hyper`` calls the hypercontractivity
tester alone on samples of n = 20k generated during set-up.

Each workload is a cycle of cases; the timed loop runs whole cycles, so
every case is measured equally often.  Learner run r of a pass draws its
data from seed ``1000 * seed + r``; run 0 is the untimed warm-up.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

W_STAR = (1.0, 0.0, 0.0, 0.0, 0.0)
BOUNDARY_5PCT = 0.06270677794321385  # Pr[|N(0,1)| <= width] = 0.05
K_AGNOSTIC = 4.0                     # calibrated agnostic error constant
HOLDOUT_N = 100_000
HYPER_N = 20_000
HYPER_SAMPLES = 2    # independent samples per family; SDP iterations vary with the sample
HYPER_SLACK = 1e-6                   # certified value >= brute force - slack
UNIT_TOL = 1e-9


@dataclass
class LearnerCase:
    name: str
    marginal: object
    noise: object
    config: object
    expect_accept: bool
    error_bound: float = math.nan     # held-out error an accept may reach
    holdout: object = None            # Dataset built during set-up


@dataclass
class HyperCase:
    name: str
    points: np.ndarray
    expect_accept: bool
    lower_bound: float                # oracle maximum directional 4th moment


@dataclass
class Outcome:
    case: str
    run: int
    wall_s: float
    fingerprint: tuple                # equal iff verdict and output are equal
    verdict_ok: bool
    failure: Optional[str] = None     # hard-check failure or exception
    holdout_error: Optional[float] = None


def import_halftest():
    """Import the package fresh; the modules every workload needs."""
    import importlib
    for name in [m for m in sys.modules if m == "halftest" or m.startswith("halftest.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        part: importlib.import_module(f"halftest.{part}")
        for part in ("distributions", "learner", "surrogate", "testers",
                     "sos_hyper", "oracle")})


def _tester(ht):
    return ht.testers.TesterConfig(lam=3.0, gamma=1.0, c1=3.0, c_hyper=10.0)


def _massart_config(ht):
    return ht.learner.LearnerConfig(
        lam=1.0, gamma=1.0, eps=0.05, noise="massart", eta=0.1,
        psgd=ht.surrogate.PsgdConfig(iterations=400, batch_size=None),
        tester=_tester(ht), n1=100_000, n2=100_000)


def _agnostic_config(ht, iterations):
    return ht.learner.LearnerConfig(
        lam=1.0, gamma=1.0, eps=0.1, noise="agnostic",
        psgd=ht.surrogate.PsgdConfig(iterations=iterations, batch_size=None),
        tester=_tester(ht), n1=100_000, n2=100_000)


def _holdout(ht, case, seed):
    dist = ht.distributions
    points = dist.sample_marginal(case.marginal, HOLDOUT_N, seed=seed, stream_id=55)
    case.holdout = dist.label_dataset(points, case.noise, seed=seed, stream_id=56)


def _massart_cases(ht, seed):
    dist = ht.distributions
    case = LearnerCase("gaussian", dist.MarginalSpec("standard_gaussian", 5),
                       dist.NoiseModel("massart", W_STAR, eta=0.1),
                       _massart_config(ht), expect_accept=True, error_bound=0.15)
    _holdout(ht, case, seed)
    return [case]


def _agnostic_noise(ht):
    return ht.distributions.NoiseModel("agnostic", W_STAR, rule="boundary_flip",
                                       width=BOUNDARY_5PCT)


def _agnostic_cases(ht, seed):
    # opt = 0.05 exactly: the flipped slab has Gaussian mass 5%.
    case = LearnerCase("gaussian",
                       ht.distributions.MarginalSpec("standard_gaussian", 5),
                       _agnostic_noise(ht), _agnostic_config(ht, 300),
                       expect_accept=True, error_bound=K_AGNOSTIC * 0.05 + 0.1)
    _holdout(ht, case, seed)
    return [case]


def _reject_cases(ht, seed):
    dist = ht.distributions
    cases = []
    for kind, kwargs in (("two_point_mass", {"spread": 10.0}), ("line_mass", {})):
        case = LearnerCase(kind, dist.MarginalSpec(kind, 5, **kwargs),
                           _agnostic_noise(ht), _agnostic_config(ht, 150),
                           expect_accept=False)
        _holdout(ht, case, seed)
        # opt is at most the held-out error of w*, so an accept stays
        # correct while it is within K * that + eps.
        opt_upper = dist.empirical_error(np.asarray(W_STAR), case.holdout)
        case.error_bound = K_AGNOSTIC * opt_upper + 0.1
        cases.append(case)
    return cases


def _hyper_cases(ht, seed):
    dist, oracle = ht.distributions, ht.oracle
    specs = (
        ("gaussian_d8", dist.MarginalSpec("standard_gaussian", 8), True),
        ("cube_d7", dist.MarginalSpec("uniform_cube", 7), True),
        ("laplace_d6", dist.MarginalSpec("product_laplace", 6), True),
        ("student_t3_d6", dist.MarginalSpec("student_t", 6, nu=3), False),
        ("spike_d6", dist.MarginalSpec("standard_gaussian", 6), False),
    )
    cases = []
    for sample in range(HYPER_SAMPLES):
        for index, (name, spec, expect) in enumerate(specs):
            stream = 60 + len(specs) * sample + index
            points = dist.sample_marginal(spec, HYPER_N, seed=seed, stream_id=stream)
            if name.startswith("spike"):
                # 1% of the points moved to +-10 e1, as in criterion 06
                gen = np.random.default_rng([seed, stream])
                mask = gen.random(HYPER_N) < 0.01
                points[mask] = 0.0
                points[mask, 0] = np.where(gen.random(int(mask.sum())) < 0.5,
                                           10.0, -10.0)
            lower, _ = oracle.brute_force_max_fourth_moment(points, seed=seed)
            cases.append(HyperCase(f"{name}#{sample}", points, expect, float(lower)))
    return cases


# workload name -> builder of its cases from (halftest modules, seed)
CASE_BUILDERS = {
    "massart-d5": _massart_cases,
    "agnostic-d5": _agnostic_cases,
    "reject-d5": _reject_cases,
    "sos-hyper": _hyper_cases,
}


def warm_up(ht, workload: str, cases: list, seed: int) -> None:
    """One untimed call that touches every layer the workload times.

    The learner workloads warm up on a Massart run (about 0.6 s) rather
    than their own case, which exercises the same code on arrays of the
    same size; an agnostic warm-up alone would cost about 9 s.
    """
    if workload == "sos-hyper":
        smallest = min(cases, key=lambda c: c.points.shape[1])
        ht.testers.hypercontractivity_test(smallest.points, 1.0, 10.0)
        return
    dist = ht.distributions
    source = ht.learner.SyntheticSource(dist.MarginalSpec("standard_gaussian", 5),
                                        dist.NoiseModel("massart", W_STAR, eta=0.1),
                                        seed=1000 * seed)
    ht.learner.universal_tester_learner(source, _massart_config(ht), seed=1000 * seed)


def _run_learner(ht, case: LearnerCase, run_seed: int, timer) -> tuple:
    source = ht.learner.SyntheticSource(case.marginal, case.noise, seed=run_seed)
    with timer:
        out = ht.learner.universal_tester_learner(source, case.config, seed=run_seed)
    if not out.accepted:
        fingerprint = (False, out.stage, None)
        return fingerprint, not case.expect_accept, None, None
    w = np.asarray(out.w, dtype=float)
    fingerprint = (True, out.stage, w.tobytes())
    if not np.all(np.isfinite(w)) or abs(float(np.linalg.norm(w)) - 1.0) > UNIT_TOL:
        return fingerprint, False, "accepted w is not a finite unit vector", None
    err = ht.distributions.empirical_error(w, case.holdout)
    return fingerprint, err <= case.error_bound, None, err


def _run_hyper(ht, case: HyperCase, run_seed: int, timer) -> tuple:
    with timer:
        verdict = ht.testers.hypercontractivity_test(case.points, 1.0, 10.0)
    diagnostics = verdict.diagnostics
    fingerprint = (verdict.accepted, repr(sorted(diagnostics.items())))
    ok = verdict.accepted == case.expect_accept
    value = diagnostics.get("sdp_value")
    failure = None
    if value is None and verdict.accepted:
        failure = "accepted without a certified value"
    elif value is not None and value < case.lower_bound - HYPER_SLACK:
        failure = f"certified value {value!r} below brute force {case.lower_bound!r}"
    return fingerprint, ok, failure, None


def run_case(ht, case, run: int, seed: int, timer) -> Outcome:
    """One call under ``timer`` (a context manager with ``elapsed``).

    A call that raises counts as failed, never as skipped.
    """
    runner = _run_hyper if isinstance(case, HyperCase) else _run_learner
    try:
        fingerprint, ok, failure, err = runner(ht, case, 1000 * seed + run, timer)
    except Exception as exc:  # a failed run is recorded, not fatal
        traceback.print_exc(file=sys.stderr)
        return Outcome(case.name, run, timer.elapsed, ("raised",), False,
                       f"{type(exc).__name__}: {exc}")
    return Outcome(case.name, run, timer.elapsed, fingerprint, ok, failure, err)
