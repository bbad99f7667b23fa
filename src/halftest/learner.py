"""End-to-end universal tester-learner for origin-centered halfspaces.

A single run executes, in order:

1. build the sigma grid and the gradient-norm threshold A from
   (eps, lambda, gamma, noise) — a singleton sigma for Massart, a uniform
   cover of (0, 1/(c1 lam^c1)] for agnostic noise;
2. draw S1 and run projected SGD on the surrogate loss for every sigma;
3. collect every iterate into the candidate list L;
4. draw a fresh S2 and compute each candidate's surrogate-gradient norm on
   it; reject if some sigma has no candidate below A;
5. keep per sigma the candidate with the smallest gradient norm;
6. run the stationary-point tester on each survivor (reject on failure);
7. run the local-disagreement tester at theta = (1+gamma^4) sigma/(A gamma^4)
   for +w and -w per survivor (reject on failure);
8. accept and output the vector with the smallest empirical S2 error among
   the survivors and their negations.

The sigma grid is pruned up front to the widths the testers can actually
certify (sigma <= 1/(2 lam_tester) and theta(sigma) <= pi/4); the
asymptotic worst-case constants would otherwise demand slab widths that no
finite sample populates.  Tester thresholds may be calibrated at a
different niceness level than the grid arithmetic, which is why the tester
carries its own lambda.

PSGD inside the learner starts from the label-weighted mean direction
normalize(sum_i y_i x_i).  Besides being a strong initializer, it makes
every pipeline stage equivariant under global label negation: flipping all
labels negates the init, negates every gradient, and therefore negates
every iterate, every survivor, and the final output.

Repetition wrapper: ``repetitions`` independent runs at delta' = 1/3 each,
accept iff at least half accept, and return the accepted hypothesis with
the smallest error on a dedicated held-out split.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from . import rng
from .distributions import (Dataset, MarginalSpec, NoiseModel, empirical_error,
                            label_dataset, sample_marginal)
from .errors import InsufficientSamplesError
from .surrogate import PsgdConfig, RampParams, gradient_norms, psgd
from .testers import TesterConfig, local_disagreement_test, stationary_point_test


@dataclass(frozen=True)
class SigmaGrid:
    values: tuple
    threshold: float  # the gradient-norm acceptance level A

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("sigma grid must be nonempty")
        if any(s <= 0 for s in self.values):
            raise ValueError("sigma values must be positive")
        if list(self.values) != sorted(self.values):
            raise ValueError("sigma values must be ascending")


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
    delta: float = 1.0 / 3.0
    noise: str = "massart"          # "massart" or "agnostic"
    eta: Optional[float] = None
    psgd: PsgdConfig = field(default_factory=lambda: PsgdConfig(iterations=400,
                                                                batch_size=None))
    tester: TesterConfig = field(default_factory=TesterConfig)
    n1: int = 100_000
    n2: int = 100_000
    repetitions: int = 1

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.lam < 1.0:
            raise ValueError("lam must be >= 1")
        if self.noise not in ("massart", "agnostic"):
            raise ValueError("noise must be 'massart' or 'agnostic'")
        if self.noise == "massart":
            if self.eta is None or not 0.0 <= self.eta < 0.5:
                raise ValueError("massart requires eta in [0, 1/2)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


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
            "wall_time": self.wall_time,
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


def make_sigma_grid(cfg: LearnerConfig) -> SigmaGrid:
    """The sigma list and gradient threshold A.

    Massart: a singleton sigma = E (1-2 eta) / (c1 lam^c1 (1+gamma^4)) with
    A = (1-2 eta)/(c1 lam^c1 gamma^4).  Agnostic: a uniform
    E/(c1 lam^c1)-spaced cover of (0, 1/(c1 lam^c1)] starting one spacing
    above zero, with A = 1/(c1 lam^c1 gamma^4).  Here E = eps/(c1 lam^c1)
    and c1 is the tester's calibration constant.
    """
    k = cfg.tester.c1 * cfg.lam ** cfg.tester.c1
    g4 = cfg.gamma**4
    e = cfg.eps / k
    if cfg.noise == "massart":
        sigma = e * (1.0 - 2.0 * cfg.eta) / (k * (1.0 + g4))
        a = (1.0 - 2.0 * cfg.eta) / (k * g4)
        return SigmaGrid(values=(sigma,), threshold=a)
    spacing = e / k
    top = 1.0 / k
    count = max(1, int(math.floor(top / spacing + 1e-9)))
    values = tuple(spacing * (i + 1) for i in range(count))
    return SigmaGrid(values=values, threshold=1.0 / (k * g4))


def runnable_sigmas(grid: SigmaGrid, cfg: LearnerConfig) -> tuple:
    """Grid values whose tester preconditions are satisfiable: the
    stationary tester needs sigma <= 1/(2 lam_tester) and the disagreement
    tester needs theta(sigma) <= pi/4."""
    g4 = cfg.gamma**4
    theta_cap = math.pi / 4.0 * grid.threshold * g4 / (1.0 + g4)
    cap = min(1.0 / (2.0 * cfg.tester.lam), theta_cap)
    return tuple(s for s in grid.values if s <= cap)


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
    base_stream = rng.STREAM_LEARNER + 10 * rep
    s1 = source.draw(cfg.n1, stream_id=base_stream)
    s2 = source.draw(cfg.n2, stream_id=base_stream + 2)

    grid = make_sigma_grid(cfg)
    sigmas = runnable_sigmas(grid, cfg)
    a_threshold = grid.threshold
    trace = {"sigma_grid": list(grid.values), "sigma_runnable": list(sigmas),
             "gradient_threshold": a_threshold, "per_sigma": {}}
    if not sigmas:
        return LearnerOutcome(accepted=False, stage="empty_sigma_grid",
                              trace=trace, wall_time=time.perf_counter() - start)

    w0 = equivariant_init(s1)
    survivors = []  # (sigma, w, grad_norm)
    for idx, sigma in enumerate(sigmas):
        params = RampParams(sigma)
        psgd_cfg = PsgdConfig(iterations=cfg.psgd.iterations,
                              step_size=cfg.psgd.step_size,
                              batch_size=cfg.psgd.batch_size,
                              seed=seed + 7919 * (idx + 1) + 104729 * rep)
        iterates = psgd(s1, params, psgd_cfg, w0=w0)
        norms = gradient_norms(np.stack(iterates), s2, params)
        best = int(np.argmin(norms))
        info = {"min_grad_norm": float(norms[best]),
                "iterates": len(iterates)}
        trace["per_sigma"][f"{sigma:.10g}"] = info
        if norms[best] > a_threshold:
            trace["per_sigma"][f"{sigma:.10g}"]["failed_gradient_filter"] = True
            return LearnerOutcome(accepted=False, stage="gradient_filter",
                                  trace=trace, wall_time=time.perf_counter() - start)
        survivors.append((sigma, iterates[best], float(norms[best])))

    eta_arg = cfg.eta if cfg.noise == "massart" else None
    g4 = cfg.gamma**4
    for sigma, w, grad_norm in survivors:
        verdict = stationary_point_test(s2, w, sigma, eta_arg, cfg.tester)
        info = trace["per_sigma"][f"{sigma:.10g}"]
        info["stationary"] = verdict.diagnostics
        info["stationary_accepted"] = verdict.accepted
        if not verdict.accepted:
            return LearnerOutcome(accepted=False, stage="stationary_test",
                                  trace=trace, wall_time=time.perf_counter() - start)
        theta = (1.0 + g4) * sigma / (a_threshold * g4)
        for sign, tag in ((1.0, "disagreement_plus"), (-1.0, "disagreement_minus")):
            d_verdict = local_disagreement_test(s2.points, sign * w, theta,
                                                cfg.tester)
            info[tag] = d_verdict.diagnostics
            info[tag + "_accepted"] = d_verdict.accepted
            if not d_verdict.accepted:
                return LearnerOutcome(accepted=False, stage="disagreement_test",
                                      trace=trace,
                                      wall_time=time.perf_counter() - start)

    candidates = [w for _, w, _ in survivors] + [-w for _, w, _ in survivors]
    cand_sigmas = [s for s, _, _ in survivors] * 2
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
    agg_trace = {"repetitions": cfg.repetitions,
                 "accept_count": len(accepted)}
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
