"""Statistical accept/reject testers on empirical samples.

Five testers, all pure functions of (points, parameters):

* ``spectral_test``      -- eigenvalue bounds on an empirical second-moment
  matrix (accepts iff min eig > theta/2, resp. max eig < 2 theta);
* ``strip_probability``  -- empirical mass of the slab |<w, x>| <= sigma;
* ``local_disagreement_test`` -- certifies that every halfspace within
  angle theta of w disagrees with w on at most 5 C1 theta lambda^C1 of the
  sample, via a strip test plus the operator norm of an inverse-square
  band-weighted projected second-moment matrix;
* ``weak_anticoncentration_test`` -- strip mass upper bound, conditional
  spectral lower bound, and the SOS hypercontractivity certificate; on
  acceptance, Paley-Zygmund gives every direction orthogonal to w a
  constant conditional probability of constant correlation inside the slab;
* ``stationary_point_test`` -- two-sided strip tests at widths sigma/6 and
  sigma/2, spectral bounds on the corresponding projected second-moment
  matrices, and the hypercontractivity certificate on the sigma-slab; on
  acceptance, approximate stationarity of the surrogate loss at w forces
  +-w to be angularly close to the empirical risk minimizer.

The hypercontractivity certificate accepts at the solve's first check
when a spectral flattening bound, taken before the SOS solve, is within
the threshold; rejects with a checked witness direction when one is found
before the solve; and otherwise decides on the solve's certified bound
(``hypercontractivity_test``).

Each tester takes the margins |<w, x>| once and projects its slab onto the
complement of w once; the narrower strips are row subsets of that
projection.  A reject names the stage that failed in ``rejected_by``:
``strip``, ``spectral_upper``, ``spectral_lower`` or ``hypercontractivity``
(stationary); ``strip``, ``empty_strip``, ``spectral`` or
``hypercontractivity`` (anti-concentration); ``strip`` or ``spectral``
(disagreement).

All thresholds are controlled by two calibration knobs in
:class:`TesterConfig`: ``c1`` (the strip/spectral constant, entering as
``c1 * lam ** c1``) and ``c_hyper`` (the hypercontractivity constant).
Enlarging either only loosens thresholds, so an Accept can never flip to
Reject when they grow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteError, PreconditionError
from .numerics import (check_finite, is_number, is_unit, min_eigenvalue,
                       operator_norm, project_orthogonal)
from .sdp import CERTIFIED, OPTIMAL
from .sos_hyper import (empirical_fourth_moment_tensor, fourth_moment_witness,
                        solve_relaxation)

WITNESS = "witness"  # stop_reason of a reject settled by a checked direction
MAX_THETA = math.pi / 4.0  # the widest angle local_disagreement_test takes


@dataclass
class TesterVerdict:
    __test__ = False  # keep pytest from collecting this as a test class

    accepted: bool
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        # a numpy comparison gives numpy.bool_, which json cannot write
        self.accepted = bool(self.accepted)
        for key, val in self.diagnostics.items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"diagnostic {key} is not finite")

    def to_json(self) -> str:
        return json.dumps({"accepted": self.accepted,
                           "diagnostics": self.diagnostics}, sort_keys=True)


@dataclass(frozen=True)
class TesterConfig:
    """Niceness / Poincare parameters plus the two calibration constants."""

    __test__ = False  # keep pytest from collecting this as a test class

    lam: float = 3.0
    gamma: float = 1.0
    c1: float = 4.0
    c_hyper: float = 10.0

    def __post_init__(self):
        if not all(is_number(v) and math.isfinite(v)
                   for v in (self.lam, self.gamma, self.c1, self.c_hyper)):
            raise ValueError("lam, gamma, c1 and c_hyper must be finite numbers")
        if self.lam < 1.0:
            raise ValueError("lam must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.c1 <= 0 or self.c_hyper <= 0:
            raise ValueError("constants must be positive")
        try:  # a float ** that overflows, or a / 0, raises instead of inf
            bounds = self.stationary_bounds(self.max_sigma, None)
        except ArithmeticError:
            bounds = (math.inf,)
        if not all(0.0 < b < math.inf for b in bounds):
            raise ValueError("c1 lam^c1 and gamma^4 must give finite, positive "
                             "stationary bounds")

    @property
    def max_sigma(self) -> float:
        """The widest slab the stationary and anti-concentration tests take."""
        return 1.0 / (2.0 * self.lam)

    @property
    def strip_constant(self) -> float:
        """c1 * lam^c1, the compound constant in every strip threshold."""
        return self.c1 * float(self.lam) ** self.c1

    def stationary_bounds(self, sigma: float, eta: Optional[float]) -> tuple:
        """(gradient_threshold, angle_bound) of the stationary-point test:
        (1-2 eta)/(c1 lam^c1 gamma^4) and c1 lam^c1 (1+gamma^4) sigma/(1-2 eta),
        with 1-2 eta read as 1 when eta is None (agnostic)."""
        k, g4 = self.strip_constant, self.gamma**4
        scale = 1.0 if eta is None else 1.0 - 2.0 * eta
        return scale / (k * g4), k * (1.0 + g4) * sigma / scale


def _as_points(data) -> np.ndarray:
    pts = data.points if hasattr(data, "points") else np.asarray(data, dtype=float)
    pts = check_finite(pts)
    if pts.shape[0] < 1:
        raise PreconditionError("need at least one point")
    return pts


def _require_unit(w: np.ndarray) -> np.ndarray:
    w = check_finite(w)
    if not is_unit(w, tol=1e-9):
        raise PreconditionError("w must be a unit vector")
    return w


def spectral_test(points, theta: float, mode: str) -> TesterVerdict:
    """Spectral tester on M_S = E_S[z z^T]: accept iff min eig > theta/2
    (mode='min') or max eig < 2 theta (mode='max')."""
    if not (math.isfinite(theta) and theta > 0):
        raise PreconditionError("theta must be finite and positive")
    pts = _as_points(points)
    m = pts.T @ pts / pts.shape[0]
    diag = {"n": pts.shape[0], "theta": float(theta)}
    if mode == "min":
        val = min_eigenvalue(m)
        diag["min_eigenvalue"] = val
        return TesterVerdict(accepted=val > theta / 2.0, diagnostics=diag)
    if mode == "max":
        val = operator_norm(m)
        diag["operator_norm"] = val
        return TesterVerdict(accepted=val < 2.0 * theta, diagnostics=diag)
    raise ValueError(f"unknown mode {mode!r}")


def strip_probability(data, w: np.ndarray, sigma: float) -> float:
    """Exact empirical fraction with |<w, x>| <= sigma (sigma >= 0)."""
    pts = _as_points(data)
    w = _require_unit(w)
    if not sigma >= 0.0:
        raise PreconditionError("sigma must be nonnegative")
    return float(np.mean(np.abs(pts @ w) <= sigma))


def hypercontractivity_test(points, gamma: float,
                            c_hyper: float = 10.0) -> TesterVerdict:
    """Accept iff some iterate of the degree-4 SOS relaxation solve on the
    sample x / gamma gives a rigorous upper bound on its maximum directional
    fourth moment that is <= c_hyper - 1.

    Like E[<v,x>^4] <= c_hyper gamma^4, the test is unchanged when x and
    gamma are scaled together; ``threshold``, ``sdp_value``, ``slack`` and
    ``witness_value`` are in units of gamma^4.  The certificate covers the
    rounded x / gamma, which is exact when gamma is a power of two and no
    entry underflows.

    Before any solve one eigendecomposition (``fourth_moment_witness``)
    gives the flattening bound mu >= E[<v,x/gamma>^4] for every unit v.
    When mu is at most the threshold, the solve's first check also takes
    the bound of mu's closed-form dual point (``flattening_dual_point``),
    so such a sample is certified at iteration 1 with no Newton step.
    Otherwise the test looks for a witness: a direction whose fourth moment
    exceeds the threshold by more than its rounding margin.  It proves that
    no bound could certify the sample, so the test rejects at once with
    ``stop_reason`` ``witness``, the checked ``witness_value`` and the
    ``witness_direction`` v (E[<v,x/gamma>^4] / |v|^4 = witness_value); the
    verdict is the one the solve would give.  Failing both, the solve stops
    at the first certifying iterate (status ``certified``), or runs on like
    an unthresholded solve and rejects.  Neither the iterates nor the dual
    point depend on the threshold, and the point joins the check only when
    mu is within it, so an accept stays an accept as c_hyper grows.  A
    solved verdict records ``stop_reason`` (the SDP status, or the type of
    a numerical error), ``iterations``, ``lambda_min_s`` (the lowered
    lambda_min of the dual slack behind the best bound), and for a
    certified or optimal solve ``sdp_value`` (the certified upper bound on
    the relaxation value) and ``slack = threshold - sdp_value``, which is
    >= 0 exactly when the test accepts.
    """
    pts = _as_points(points)
    if not (math.isfinite(gamma) and gamma > 0):
        raise PreconditionError("gamma must be finite and positive")
    if not (math.isfinite(c_hyper) and c_hyper > 0):
        raise PreconditionError("c_hyper must be finite and positive")
    threshold = c_hyper - 1.0
    diag = {"threshold": threshold, "n": pts.shape[0]}
    try:
        x = pts / gamma
        moments = check_finite(empirical_fourth_moment_tensor(x))
        mu, witness = fourth_moment_witness(x, moments, threshold)
        if witness is not None:
            value, v = witness
            diag.update(stop_reason=WITNESS, witness_value=value,
                        witness_direction=v.tolist())
            return TesterVerdict(accepted=False, diagnostics=diag)
        value, sol = solve_relaxation(moments, threshold=threshold,
                                      mu=mu if mu <= threshold else None)
    except (np.linalg.LinAlgError, NonFiniteError) as exc:
        diag["stop_reason"] = type(exc).__name__
        return TesterVerdict(accepted=False, diagnostics=diag)
    diag.update(stop_reason=sol.status, iterations=sol.iterations)
    if math.isfinite(sol.lambda_min):
        diag["lambda_min_s"] = sol.lambda_min
    if sol.status in (CERTIFIED, OPTIMAL):
        diag.update(sdp_value=value, slack=threshold - value)
    return TesterVerdict(accepted=sol.status == CERTIFIED, diagnostics=diag)


def _reject(diag: dict, stage: str) -> TesterVerdict:
    diag["rejected_by"] = stage
    return TesterVerdict(accepted=False, diagnostics=diag)


def local_disagreement_test(points, w: np.ndarray, theta: float,
                            cfg: TesterConfig) -> TesterVerdict:
    """On Accept, every unit w' with angle(w, w') <= theta empirically
    disagrees with w on at most 5 c1 theta lam^c1 of the sample.

    The spectral stage bounds the operator norm of the projected second
    moments under inverse-square band weighting: band i >= 2 holds
    |<w,x>| in [(i-1) theta, i theta) with weight 1/(i-1)^2, and points
    below theta carry no weight (the strip stage covers them).
    """
    if not 0.0 < theta <= MAX_THETA:
        raise PreconditionError("theta must lie in (0, pi/4]")
    pts = _as_points(points)
    w = _require_unit(w)
    n = pts.shape[0]
    k = cfg.strip_constant
    bound = k * theta
    diag = {"theta": theta, "threshold": bound, "n": n}

    margins = np.abs(pts @ w)
    p_strip = np.count_nonzero(margins <= theta) / n
    diag["strip_probability"] = p_strip
    if p_strip > bound:
        return _reject(diag, "strip")

    band = np.floor(margins / theta).astype(np.int64) + 1
    weights = np.where(band >= 2, 1.0 / np.maximum(band - 1, 1) ** 2, 0.0)
    z = project_orthogonal(w, pts)
    diag["band_operator_norm"] = operator_norm(z.T @ (z * weights[:, None]) / n)
    if diag["band_operator_norm"] > bound:
        return _reject(diag, "spectral")
    diag["disagreement_bound"] = 5.0 * bound
    return TesterVerdict(accepted=True, diagnostics=diag)


def weak_anticoncentration_test(points, w: np.ndarray, sigma: float,
                                cfg: TesterConfig) -> TesterVerdict:
    """On Accept, for every unit v orthogonal to w,
    Pr[|<v,x>| >= 1/(c1 lam^c1) | |<w,x>| <= sigma] >= 1/(c1 lam^c1 gamma^4)."""
    pts = _as_points(points)
    w = _require_unit(w)
    if not 0.0 < sigma <= cfg.max_sigma:
        raise PreconditionError("sigma must lie in (0, 1/(2 lam)]")
    if pts.shape[1] < 2:
        raise PreconditionError("need ambient dimension >= 2")
    n = pts.shape[0]
    k = cfg.strip_constant
    diag = {"sigma": sigma, "n": n}

    in_slab = np.abs(pts @ w) <= sigma
    count = np.count_nonzero(in_slab)
    p_strip = count / n
    diag["strip_probability"] = p_strip
    diag["strip_upper_threshold"] = 2.0 * sigma * k
    if p_strip > 2.0 * sigma * k:
        return _reject(diag, "strip")
    diag["strip_count"] = float(count)
    # the strip check is upper-only, so an empty slab reaches this point
    if count == 0:
        return _reject(diag, "empty_strip")

    z = project_orthogonal(w, pts[in_slab])
    diag["conditional_min_eigenvalue"] = min_eigenvalue(z.T @ z / n)
    diag["spectral_threshold"] = sigma / k
    if not diag["conditional_min_eigenvalue"] > sigma / k:
        return _reject(diag, "spectral")

    hyper = hypercontractivity_test(z, cfg.gamma, cfg.c_hyper)
    diag.update({f"hyper_{k2}": v for k2, v in hyper.diagnostics.items()})
    if not hyper.accepted:
        return _reject(diag, "hypercontractivity")

    diag["correlation_threshold"] = 1.0 / k
    diag["conditional_probability_bound"] = 1.0 / (k * cfg.gamma**4)
    return TesterVerdict(accepted=True, diagnostics=diag)


def stationary_point_test(data, w: np.ndarray, sigma: float,
                          eta: Optional[float], cfg: TesterConfig) -> TesterVerdict:
    """On Accept, a small surrogate-loss gradient at w bounds the angle from
    +-w to the empirical risk minimizer (Massart rate eta, or agnostic when
    eta is None).

    The sigma-slab is projected once; the sigma/2 and sigma/6 strips are
    subsets of its rows.  A passed lower strip check leaves the sigma/6
    strip nonempty, so the spectral stages never see an empty strip.
    """
    pts = _as_points(data)
    w = _require_unit(w)
    if not 0.0 < sigma <= cfg.max_sigma:
        raise PreconditionError("sigma must lie in (0, 1/(2 lam)]")
    if pts.shape[1] < 2:
        raise PreconditionError("need ambient dimension >= 2")
    if eta is not None and not 0.0 <= eta < 0.5:
        raise PreconditionError("eta must lie in [0, 1/2) or be None")
    n = pts.shape[0]
    k = cfg.strip_constant
    diag = {"sigma": sigma, "n": n,
            "eta": -1.0 if eta is None else float(eta)}

    margins = np.abs(pts @ w)
    count_sixth = np.count_nonzero(margins <= sigma / 6.0)
    count_half = np.count_nonzero(margins <= sigma / 2.0)
    p_low, p_high = count_sixth / n, count_half / n
    diag["strip_probability_sixth"] = p_low
    diag["strip_probability_half"] = p_high
    diag["strip_lower_threshold"] = sigma / k
    diag["strip_upper_threshold"] = sigma * k
    if p_low <= sigma / k or p_high > sigma * k:
        return _reject(diag, "strip")
    diag["strip_count_half"] = float(count_half)
    diag["strip_count_sixth"] = float(count_sixth)

    in_slab = margins <= sigma
    z = project_orthogonal(w, pts[in_slab])
    slab_margins = margins[in_slab]
    z_half = z[slab_margins <= sigma / 2.0]
    diag["half_strip_operator_norm"] = operator_norm(z_half.T @ z_half / n)
    diag["spectral_upper_threshold"] = sigma * k
    if not diag["half_strip_operator_norm"] < sigma * k:
        return _reject(diag, "spectral_upper")

    z_sixth = z[slab_margins <= sigma / 6.0]
    diag["sixth_strip_min_eigenvalue"] = min_eigenvalue(z_sixth.T @ z_sixth / n)
    diag["spectral_lower_threshold"] = sigma / k
    if not diag["sixth_strip_min_eigenvalue"] > sigma / k:
        return _reject(diag, "spectral_lower")

    hyper = hypercontractivity_test(z, cfg.gamma, cfg.c_hyper)
    diag.update({f"hyper_{k2}": v for k2, v in hyper.diagnostics.items()})
    if not hyper.accepted:
        return _reject(diag, "hypercontractivity")

    bounds = cfg.stationary_bounds(sigma, eta)
    diag["gradient_threshold"], diag["angle_bound"] = bounds
    return TesterVerdict(accepted=True, diagnostics=diag)
