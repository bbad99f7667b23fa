"""Smooth ramp surrogate loss and projected SGD on the unit sphere.

The ramp l_sigma is a C^1 monotone surrogate for the step function:

* linear ``1/2 + t/sigma`` on ``[-sigma/6, sigma/6]``,
* a cubic Hermite segment on ``[sigma/6, sigma/2]`` matching value 2/3 and
  slope 1/sigma on the left, value 1 and slope 0 on the right (the
  endpoint-slope ratios make the segment monotone),
* constant tails ``1`` above ``sigma/2`` and ``0`` below ``-sigma/2``,
* extended to t < 0 by the point symmetry ``l(-t) = 1 - l(t)``.

Its derivative is even, lies in ``[0, 4/(3 sigma)]`` (so the generic bound
``C/sigma`` holds with C = 3), and ``|l''| <= 12/sigma^2`` on each smooth
piece.

The surrogate loss of a unit vector w on a dataset is the mean of
``l_sigma(-y <w, x>)``; its gradient restricted to the sphere is
``mean(-l'(|<w,x>|) y (x - <w,x> w))``, which is orthogonal to w.

``surrogate_gradient`` computes it densely.  PSGD and ``gradient_norms``
sum it as ``<g, w> w - g`` with g = sum l' y x over the band |<w,x>| < sigma/2
(l' vanishes outside it), so on a line mass along e1 with w = +-e1, g has one
nonzero coordinate and the sum is exactly 0 in any summation order.

Both work on signed rows y x.  Since y = +-1, |<w, y x>| = |<w, x>| exactly,
and l' is even, so one matrix gives the band, the weights l'(|<w,x>|) and
g = l' (y x) with no label array, bit for bit as the unsigned form.
Full-batch steps and the filter keep the signed rows of a ``_Slab``, whose
limits use the row norms ||x|| that a ``Dataset`` computes once
(``Dataset.row_norms``) and frees with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .distributions import Dataset
from .errors import DimMismatchError, PreconditionError
from .numerics import UNIT_TOL, check_finite, is_integer, is_number, unit

# Derived ramp constant, used by the structural-inequality oracle.
RAMP_DERIV_BOUND = 3.0      # l' <= 3/sigma everywhere (actual max is 4/3)


@dataclass(frozen=True)
class RampParams:
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")


def _hermite(s: np.ndarray) -> np.ndarray:
    # value 2/3, slope 1/3 at s=0; value 1, slope 0 at s=1 (s in transition units)
    return 2.0 / 3.0 + s / 3.0 + s**2 / 3.0 - s**3 / 3.0


def _hermite_deriv(s: np.ndarray) -> np.ndarray:
    return 1.0 / 3.0 + 2.0 * s / 3.0 - s**2


def smooth_ramp(t, p: RampParams):
    """l_sigma(t) in [0, 1]; accepts scalars or arrays."""
    sigma = p.sigma
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.where(t > 0, 1.0, 0.0)
    linear = a <= sigma / 6.0
    out = np.where(linear, 0.5 + t / sigma, out)
    trans = (a > sigma / 6.0) & (a < sigma / 2.0)
    if np.any(trans):
        s = (a - sigma / 6.0) / (sigma / 3.0)
        upper = _hermite(np.clip(s, 0.0, 1.0))
        out = np.where(trans, np.where(t > 0, upper, 1.0 - upper), out)
    return out if out.ndim else float(out)


def smooth_ramp_derivative(t, p: RampParams):
    """Exact derivative of smooth_ramp: nonnegative, even, <= 3/sigma.

    One masked Hermite expression covers every piece: |t| <= sigma/6 clips
    to s = 0, where fl(1/3) * 3 / sigma is exactly 1 / sigma, and the mask
    zeroes the tails (without it, inputs within an ulp of sigma/2 would
    come out nonzero).
    """
    sigma = p.sigma
    a = np.abs(np.asarray(t, dtype=float))
    # the same clip as np.clip, whose Python wrapper costs more than all the
    # arithmetic on the short in-band slices PSGD and the filter pass
    s = np.minimum(np.maximum((a - sigma / 6.0) / (sigma / 3.0), 0.0), 1.0)
    out = np.where(a < sigma / 2.0, _hermite_deriv(s) * 3.0 / sigma, 0.0)
    return out if out.ndim else float(out)


def _check_dims(w: np.ndarray, ds: Dataset) -> np.ndarray:
    w = check_finite(w)
    if w.shape != (ds.dim,):
        raise DimMismatchError(f"w has shape {w.shape}, dataset dim {ds.dim}")
    return w


def surrogate_loss(w: np.ndarray, ds: Dataset, p: RampParams) -> float:
    """Mean of l_sigma(-y <w, x>) over the dataset; in [0, 1]."""
    w = _check_dims(w, ds)
    margins = ds.labels * (ds.points @ w)
    return float(np.mean(smooth_ramp(-margins, p)))


def surrogate_gradient(w: np.ndarray, ds: Dataset, p: RampParams) -> np.ndarray:
    """Empirical mean of -l'(|<w,x>|) y (x - <w,x> w); orthogonal to w."""
    w = _check_dims(w, ds)
    proj = ds.points @ w
    weights = smooth_ramp_derivative(proj, p) * ds.labels
    tangents = ds.points - np.outer(proj, w)
    return -(weights @ tangents) / ds.n


def _band_limit(norm_x: np.ndarray, dim: int, radius: float,
                sigma: float) -> np.ndarray:
    """Per-row limits such that the rows with |<w_ref, x>| < limit are a
    superset of the rows x with |<w, x>| < sigma/2 for every unit w within
    distance ``radius`` of the unit vector w_ref; ``norm_x`` holds the
    computed ||x|| of the length-``dim`` rows.

    Cauchy-Schwarz gives |<w, x>| >= |<w_ref, x>| - ||w - w_ref|| ||x||, so a
    row outside |<w_ref, x>| < sigma/2 + radius ||x|| is outside the band of
    every such w.  The test compares computed numbers, so its threshold is
    widened by ``pad``, a bound on their rounding error (eps is the machine
    epsilon; Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1):
    a computed length-d projection of a unit vector is within (d/2) eps ||x||
    of the exact one in any summation order, the computed ||x|| and radius
    carry relative errors below (d/2 + 2) eps, and forming the threshold adds
    about eps (sigma/2 + 2 ||x||).  With radius <= 2 that totals under
    (2d + 7) eps ||x|| + eps sigma, which pad = 8 (d + 2) eps (||x|| + sigma)
    covers four times over.
    """
    pad = 8.0 * (dim + 2) * np.finfo(float).eps * (norm_x + sigma)
    return sigma / 2.0 + radius * norm_x + pad


def _band_rows(x: np.ndarray, w_ref: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows x with |<w_ref, x>| < limit."""
    return np.flatnonzero(np.abs(x @ w_ref) < limit)


def _signed_rows(ds: Dataset, rows: np.ndarray) -> np.ndarray:
    """The rows y x of the dataset's points at ``rows``; exact, since y = +-1."""
    return ds.points.take(rows, axis=0) * ds.labels.take(rows)[:, None]


class _Slab:
    """Signed rows y x of the points that can lie in the band |<w,x>| < sigma/2
    of the current iterate w: the ``_band_limit`` superset of radius sigma/2
    around a reference iterate, rebuilt around w whenever w moves farther
    than sigma/2 from it.  The limits depend only on the dataset and sigma,
    so they are computed once."""

    def __init__(self, ds: Dataset, sigma: float):
        self.ds, self.sigma = ds, sigma
        self.limit = _band_limit(ds.row_norms, ds.dim, sigma / 2.0, sigma)
        self.w_ref = None

    def rows(self, w: np.ndarray) -> np.ndarray:
        if self.w_ref is not None:
            shift = w - self.w_ref
            if math.sqrt(shift @ shift) <= self.sigma / 2.0:
                return self.yx
        self.w_ref = w
        self.yx = _signed_rows(self.ds, _band_rows(self.ds.points, w, self.limit))
        return self.yx


def _band_gradient(yx: np.ndarray, w: np.ndarray, p: RampParams) -> np.ndarray:
    """Sum of -l'(<w,x>) y (x - <w,x> w) over the signed rows yx, as
    <g, w> w - g with g = sum l' y x over the in-band rows (sum l' y <w,x>
    is <g, w>); an empty band gives g = 0.

    |<w, yx>| = |<w,x>| exactly, since y = +-1, and l' is even, so the
    signed rows give the band, the weights and g with no label array."""
    a = np.abs(yx @ w)
    active = np.flatnonzero(a < p.sigma / 2.0)
    g = smooth_ramp_derivative(a.take(active), p) @ yx.take(active, axis=0)
    return (g @ w) * w - g


def gradient_norms(ws: np.ndarray, ds: Dataset, p: RampParams) -> np.ndarray:
    """Norms of surrogate_gradient for a stack of unit vectors (k, d).

    Checks the stack once: a non-finite entry raises NonFiniteError, a row
    of the wrong width DimMismatchError, and a row that is not unit within
    ``UNIT_TOL`` PreconditionError.  Then walks the iterates in order
    through one ``_Slab``, so a PSGD trajectory rebuilds its rows where PSGD
    did, and takes each gradient with ``_band_gradient``; a line mass
    through w gives exactly 0 (see above).

    A row bitwise equal to the row before it reuses that row's norm: the
    slab hands a repeated w the rows it handed the first (see ``psgd``), so
    the gradient is the same.  The rows are compared as bits, since ``==``
    equates -0.0 and 0.0.  So a trajectory that PSGD ended at a fixed point
    is scored once per distinct iterate, with the norms of scoring them all.
    """
    ws = check_finite(np.atleast_2d(ws))
    if ws.ndim != 2 or ws.shape[1] != ds.dim:
        raise DimMismatchError(f"ws has shape {ws.shape}, dataset dim {ds.dim}")
    if np.any(np.abs(np.linalg.norm(ws, axis=1) - 1.0) > UNIT_TOL):
        raise PreconditionError("every row of ws must be a unit vector")
    bits = ws.view(np.uint64)
    repeats = np.zeros(len(ws), dtype=bool)
    repeats[1:] = np.all(bits[1:] == bits[:-1], axis=1)
    slab = _Slab(ds, p.sigma)
    norms = []
    for w, repeat in zip(ws, repeats):
        if not repeat:
            g = _band_gradient(slab.rows(w), w, p)
            norm = math.sqrt(g @ g)
        norms.append(norm)
    return np.array(norms) / ds.n


@dataclass(frozen=True)
class PsgdConfig:
    """PSGD schedule.

    step_size None applies the default rule: sigma^2 / 2 for single-sample
    steps (matching the per-sample gradient scale 1/sigma), sigma / 4 for
    batch gradients.  batch_size None means full-batch (deterministic
    projected gradient descent).

    The default batch_size 1, projected SGD with one sample per step, is the
    source paper's algorithm.  ``LearnerConfig`` defaults to full batch,
    projected gradient descent on the empirical loss over S1, which is
    deterministic.  Either way the learner keeps only iterates that pass
    the gradient filter and the stationary-point tester, so the choice
    changes which candidate is found, not what an accept certifies.
    """

    iterations: int
    step_size: Optional[float] = None
    batch_size: Optional[int] = 1
    seed: int = 0

    def __post_init__(self):
        if not is_integer(self.iterations) or self.iterations < 0:
            raise ValueError("iterations must be an integer >= 0")
        s = self.step_size
        if s is not None and not (is_number(s) and 0 < s < math.inf):
            raise ValueError("step_size must be positive and finite")
        b = self.batch_size
        if b is not None and not (is_integer(b) and b >= 1):
            raise ValueError("batch_size must be None or an integer >= 1")

    def resolved_step(self, sigma: float) -> float:
        if self.step_size is not None:
            return self.step_size
        return 0.5 * sigma**2 if self.batch_size == 1 else 0.25 * sigma


def psgd(ds: Dataset, p: RampParams, cfg: PsgdConfig,
         w0: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """All T+1 iterates of projected SGD on the surrogate loss.

    Starts at w0 (or a seeded uniform point on the sphere), renormalizes
    exactly after every step, and is deterministic given (cfg.seed, w0).

    Every step takes ``_band_gradient / batch`` over a batch drawn with
    replacement, or over the rows of a ``_Slab`` for full-batch steps.

    A full-batch step that returns its input bit for bit has reached a
    fixed point: the remaining iterates are that vector and are not
    computed.  A step reads only w, the slab's ``w_ref`` and its rows
    ``yx``.  If the new w repeats the old one, ``_Slab.rows`` hands the next
    step the same ``yx`` without a rebuild, since its shift from ``w_ref``
    is 0 (rebuilt at the old w) or the shift the old w already passed with;
    so every later step repeats this one exactly.  The vectors are compared
    as bytes, since ``==`` equates -0.0 and 0.0, and the sign of a zero
    entry can carry into the next iterate.  Mini-batch steps draw a new
    batch every time and never stop early.
    """
    gen = rng.stream(cfg.seed, rng.STREAM_PSGD)
    if w0 is None:
        w = rng.unit_sphere(gen, ds.dim)
    else:
        w = unit(np.asarray(w0, dtype=float))
    beta = cfg.resolved_step(p.sigma)
    iterates = [w]
    full_batch = cfg.batch_size is None or cfg.batch_size >= ds.n
    denom = ds.n if full_batch else cfg.batch_size
    slab = _Slab(ds, p.sigma) if full_batch else None
    for step in range(cfg.iterations):
        if full_batch:
            yx = slab.rows(w)
        else:
            yx = _signed_rows(ds, gen.integers(0, ds.n, size=cfg.batch_size))
        w_next = unit(w - beta * (_band_gradient(yx, w, p) / denom))
        if full_batch and w_next.tobytes() == w.tobytes():
            iterates.extend([w] * (cfg.iterations - step))
            break
        w = w_next
        iterates.append(w)
    return iterates
