"""End-to-end universal tester-learner for origin-centered halfspaces.

A single run executes, in order:

1. build the sigma grid from (eps, lambda, gamma, noise) — a singleton
   sigma for Massart, a uniform cover of (0, 1/(c1 lam^c1)] for agnostic
   noise — and take the gradient-norm threshold A and each sigma's angle
   theta(sigma) from ``TesterConfig.stationary_bounds`` at the grid's
   (lambda, gamma), up to the first sigma a tester refuses; draw S1 and S2;
2. for each sigma in ascending order:

   a. run projected SGD on the surrogate loss over S1; its T+1 iterates
      are the sigma's candidates (full-batch PSGD stops computing at an
      exact fixed point and repeats it, so the list is the same either way);
   b. compute each candidate's surrogate-gradient norm on S2 and keep the
      first one with the smallest norm; reject if that norm is above A (a
      repeat of the candidate before it reuses that norm, so the norms and
      the choice are the same as scoring every candidate);
   c. run the stationary-point tester on the survivor (reject on failure);
   d. run the local-disagreement tester on the survivor at theta(sigma),
      the angle the stationary test certifies (reject on failure); one call
      covers -w as well, since |<-w,x>| = |<w,x>| and
      angle(-w,-w') = angle(w,w'), so both signs give the same statistics;

3. accept and output the vector with the smallest empirical S2 error among
   the survivors and their negations.

A run accepts only if every sigma passes all three checks, so their order
cannot change an accept or its output; it only decides how much work a
reject pays for.  Testing each survivor as soon as it is found stops a
reject at the first sigma that fails, and the trace's ``per_sigma`` then
ends at that sigma.

The grid is cut, before any draw, to the sigmas the testers certify
(sigma <= 1/(2 lam_tester), 0 < theta(sigma) <= pi/4 with the very theta
the disagreement tester is later given), a prefix since both grow with
sigma; a run with none rejects (``empty_sigma_grid``).  The worst-case
constants would otherwise demand slab widths no finite sample populates.
Tester thresholds may be calibrated at a different niceness level than
the grid arithmetic, which is why the tester carries its own lambda.

PSGD inside the learner starts from the label-weighted mean direction
normalize(sum_i y_i x_i).  Besides being a strong initializer, it makes
every pipeline stage equivariant under global label negation: flipping all
labels negates the init, negates every gradient, and therefore negates
every iterate, every survivor, and the final output.

Repetition wrapper: ``repetitions`` independent runs at delta' = 1/3 each,
accept iff at least half accept, and return the accepted hypothesis with
the smallest error on a dedicated held-out split.  The wrapper's trace
keeps each repetition's stage and trace under ``per_repetition``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol

import numpy as np

from . import rng
from .distributions import (Dataset, MarginalSpec, NoiseModel, empirical_error,
                            label_dataset, sample_marginal)
from .errors import InsufficientSamplesError
from .numerics import is_integer, is_number
from .surrogate import PsgdConfig, RampParams, gradient_norms, psgd
from .testers import (MAX_THETA, TesterConfig, local_disagreement_test,
                      stationary_point_test)


@dataclass(frozen=True)
class LearnerConfig:
    """Parameters of the full pipeline.

    ``lam``/``gamma`` drive the sigma-grid arithmetic; ``tester`` carries
    the (possibly looser) niceness level and calibration constants used by
    the accept/reject thresholds.
    """

    lam: float
    gamma: float
    eps: float
    noise: str = "massart"          # "massart" or "agnostic"
    eta: Optional[float] = None
    psgd: PsgdConfig = field(default_factory=lambda: PsgdConfig(iterations=400,
                                                                batch_size=None))
    tester: TesterConfig = field(default_factory=TesterConfig)
    n1: int = 100_000
    n2: int = 100_000
    repetitions: int = 1

    def __post_init__(self):
        if not (is_number(self.eps) and 0.0 < self.eps < math.inf and (
                self.eta is None or is_number(self.eta)
                and math.isfinite(self.eta))):
            raise ValueError("eps must be a positive finite number, eta finite")
        if self.noise not in ("massart", "agnostic"):
            raise ValueError("noise must be 'massart' or 'agnostic'")
        if self.noise == "massart":
            if self.eta is None or not 0.0 <= self.eta < 0.5:
                raise ValueError("massart requires eta in [0, 1/2)")
        if any(not is_integer(v) or v < 1
               for v in (self.n1, self.n2, self.repetitions)):
            raise ValueError("n1, n2 and repetitions must be integers >= 1")
        self.grid_tester()  # checks lam and gamma before any sampling

    def grid_tester(self) -> TesterConfig:
        """The tester's constants at the grid's (lam, gamma)."""
        return replace(self.tester, lam=self.lam, gamma=self.gamma)


@dataclass
class LearnerOutcome:
    accepted: bool
    stage: str = ""                      # rejection stage when not accepted
    w: Optional[np.ndarray] = None
    empirical_error: Optional[float] = None
    sigma_used: Optional[float] = None
    trace: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_json(self) -> str:
        payload = {
            "status": "accepted" if self.accepted else "rejected",
            "stage": self.stage,
            "w": None if self.w is None else [float(v) for v in self.w],
            "empirical_error": self.empirical_error,
            "sigma_used": self.sigma_used,
            "trace": self.trace,
        }
        return json.dumps(payload, sort_keys=True)


class SampleSource(Protocol):
    dim: int

    def draw(self, n: int, stream_id: int) -> Dataset: ...


class SyntheticSource:
    """Fresh iid labeled samples from a marginal spec and noise model."""

    def __init__(self, marginal: MarginalSpec, noise: NoiseModel, seed: int):
        self.marginal = marginal
        self.noise = noise
        self.seed = seed
        self.dim = marginal.dim

    def draw(self, n: int, stream_id: int) -> Dataset:
        points = sample_marginal(self.marginal, n, self.seed, stream_id=stream_id)
        return label_dataset(points, self.noise, self.seed, stream_id=stream_id + 1)


class FixedDatasetSource:
    """Serves disjoint slices of one dataset; raises when it runs dry."""

    def __init__(self, ds: Dataset):
        self.ds = ds
        self.dim = ds.dim
        self._cursor = 0

    def draw(self, n: int, stream_id: int) -> Dataset:
        if self._cursor + n > self.ds.n:
            raise InsufficientSamplesError(
                f"need {n} samples, only {self.ds.n - self._cursor} left")
        out = Dataset(self.ds.points[self._cursor:self._cursor + n],
                      self.ds.labels[self._cursor:self._cursor + n])
        self._cursor += n
        return out


def make_sigma_grid(cfg: LearnerConfig) -> tuple:
    """The ascending sigma values.

    Massart: a singleton sigma = E (1-2 eta) / (c1 lam^c1 (1+gamma^4)).
    Agnostic: a uniform E/(c1 lam^c1)-spaced cover of (0, 1/(c1 lam^c1)]
    starting one spacing above zero.  Here E = eps/(c1 lam^c1) and c1 is
    the tester's calibration constant.
    """
    k = cfg.grid_tester().strip_constant
    e = cfg.eps / k
    if cfg.noise == "massart":
        return (e * (1.0 - 2.0 * cfg.eta) / (k * (1.0 + cfg.gamma**4)),)
    spacing = e / k
    top = 1.0 / k
    count = max(1, int(math.floor(top / spacing + 1e-9)))
    return tuple(spacing * (i + 1) for i in range(count))


def equivariant_init(ds: Dataset) -> np.ndarray:
    """normalize(sum_i y_i x_i); negates when all labels negate."""
    total = ds.labels.astype(float) @ ds.points
    norm = np.linalg.norm(total)
    if norm < 1e-12:
        fallback = np.zeros(ds.dim)
        fallback[0] = 1.0
        return fallback
    return total / norm


def _single_run(source: SampleSource, cfg: LearnerConfig, seed: int,
                rep: int) -> LearnerOutcome:
    start = time.perf_counter()
    grid_cfg = cfg.grid_tester()
    eta_arg = cfg.eta if cfg.noise == "massart" else None
    runnable = []  # a prefix of the grid: sigma and theta grow along it
    for sigma in make_sigma_grid(cfg):
        a_threshold, theta = grid_cfg.stationary_bounds(sigma, eta_arg)
        if sigma > cfg.tester.max_sigma or not 0.0 < theta <= MAX_THETA:
            break
        runnable.append((sigma, theta))
    # A does not depend on sigma
    trace = {"sigma_runnable": [s for s, _ in runnable],
             "gradient_threshold": a_threshold, "per_sigma": {}}

    def reject(stage: str) -> LearnerOutcome:
        return LearnerOutcome(accepted=False, stage=stage, trace=trace,
                              wall_time=time.perf_counter() - start)

    if not runnable:
        return reject("empty_sigma_grid")
    base_stream = rng.STREAM_LEARNER + 10 * rep
    s1 = source.draw(cfg.n1, stream_id=base_stream)
    s2 = source.draw(cfg.n2, stream_id=base_stream + 2)

    w0 = equivariant_init(s1)
    survivors = []  # (sigma, w)
    for idx, (sigma, theta) in enumerate(runnable):
        params = RampParams(sigma)
        psgd_cfg = replace(cfg.psgd, seed=seed + 7919 * (idx + 1) + 104729 * rep)
        iterates = psgd(s1, params, psgd_cfg, w0=w0)
        norms = gradient_norms(np.stack(iterates), s2, params)
        best = int(np.argmin(norms))
        info = {"min_grad_norm": float(norms[best]),
                "iterates": len(iterates)}
        trace["per_sigma"][f"{sigma:.10g}"] = info
        if norms[best] > a_threshold:
            info["failed_gradient_filter"] = True
            return reject("gradient_filter")
        w = iterates[best]

        verdict = stationary_point_test(s2, w, sigma, eta_arg, cfg.tester)
        info["stationary"] = verdict.diagnostics
        info["stationary_accepted"] = verdict.accepted
        if not verdict.accepted:
            return reject("stationary_test")
        d_verdict = local_disagreement_test(s2.points, w, theta, cfg.tester)
        info["disagreement"] = d_verdict.diagnostics
        info["disagreement_accepted"] = d_verdict.accepted
        if not d_verdict.accepted:
            return reject("disagreement_test")
        survivors.append((sigma, w))

    candidates = [w for _, w in survivors] + [-w for _, w in survivors]
    cand_sigmas = [s for s, _ in survivors] * 2
    errors = [empirical_error(w, s2) for w in candidates]
    best = int(np.argmin(errors))
    trace["candidate_errors"] = [float(e) for e in errors]
    return LearnerOutcome(accepted=True, stage="accepted",
                          w=candidates[best],
                          empirical_error=float(errors[best]),
                          sigma_used=float(cand_sigmas[best]),
                          trace=trace, wall_time=time.perf_counter() - start)


def universal_tester_learner(source: SampleSource, cfg: LearnerConfig,
                             seed: int = 0) -> LearnerOutcome:
    """Run the pipeline; with repetitions > 1, wrap it in the majority
    accept rule and pick the best accepted hypothesis on a held-out split."""
    if cfg.repetitions == 1:
        return _single_run(source, cfg, seed, rep=0)
    outcomes = [_single_run(source, cfg, seed, rep=r)
                for r in range(cfg.repetitions)]
    accepted = [o for o in outcomes if o.accepted]
    total_time = sum(o.wall_time for o in outcomes)
    # stages and traces only: timings stay out of the deterministic JSON
    agg_trace = {"repetitions": cfg.repetitions,
                 "accept_count": len(accepted),
                 "per_repetition": [{"stage": o.stage, "trace": o.trace}
                                    for o in outcomes]}
    if len(accepted) < cfg.repetitions / 2.0:
        return LearnerOutcome(accepted=False, stage="repetition_majority",
                              trace=agg_trace, wall_time=total_time)
    holdout = source.draw(cfg.n2, stream_id=rng.STREAM_HOLDOUT)
    scores = [empirical_error(o.w, holdout) for o in accepted]
    best = int(np.argmin(scores))
    chosen = accepted[best]
    agg_trace["holdout_errors"] = [float(s) for s in scores]
    return LearnerOutcome(accepted=True, stage="accepted",
                          w=chosen.w, empirical_error=float(scores[best]),
                          sigma_used=chosen.sigma_used,
                          trace=agg_trace, wall_time=total_time)
