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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .distributions import Dataset
from .errors import DimMismatchError
from .numerics import check_finite, unit

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
    s = np.clip((a - sigma / 6.0) / (sigma / 3.0), 0.0, 1.0)
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


# Iterates per gradient_norms block.  A block shares one reference projection,
# so its superset of rows grows with how far its iterates spread; PSGD moves
# most in its first steps, and 64 was the fastest of 32 to 512 on d=5 runs.
BLOCK = 64


def _band_rows(x: np.ndarray, norm_x: np.ndarray, w_ref: np.ndarray,
               radius: float, sigma: float) -> np.ndarray:
    """Ascending indices of a superset of the rows x with |<w, x>| < sigma/2
    for some unit w within distance ``radius`` of the unit vector w_ref.

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
    d = x.shape[1]
    pad = 8.0 * (d + 2) * np.finfo(float).eps * (norm_x + sigma)
    ref = np.abs(x @ w_ref)
    return np.flatnonzero(ref < sigma / 2.0 + radius * norm_x + pad)


def gradient_norms(ws: np.ndarray, ds: Dataset, p: RampParams) -> np.ndarray:
    """Norms of surrogate_gradient for a stack of unit vectors (k, d).

    The ramp derivative vanishes outside the slab |<w,x>| < sigma/2, so each
    block of BLOCK consecutive iterates first prunes the points: with
    w_ref the block's middle iterate and r the largest distance from it to
    an iterate of the block, only the rows with
    |<w_ref,x>| < sigma/2 + r ||x|| + pad can be in any iterate's band
    (``pad`` bounds the rounding error of the computed projections; see
    ``_band_rows``).  Only those rows are projected onto the block, and each
    candidate's in-band terms are summed one at a time over the points in
    ascending index order, so a radial sum that cancels the tangential one
    in exact arithmetic (a line mass through w) still gives exactly 0.
    """
    ws = np.atleast_2d(np.asarray(ws, dtype=float))
    k, d = ws.shape
    out = np.empty(k)
    x, y = ds.points, ds.labels.astype(float)
    half = p.sigma / 2.0
    norm_x = np.linalg.norm(x, axis=1)
    for start in range(0, k, BLOCK):
        block = ws[start:start + BLOCK]           # (c, d)
        c = block.shape[0]
        w_ref = block[c // 2]
        radius = float(np.max(np.linalg.norm(block - w_ref, axis=1)))
        rows = _band_rows(x, norm_x, w_ref, radius, p.sigma)
        xr = x[rows]
        proj = xr @ block.T                       # (m, c)
        flat = np.flatnonzero(np.abs(proj) < half)
        pts, cand = np.divmod(flat, c)
        pr = proj.ravel()[flat]
        wts = smooth_ramp_derivative(pr, p) * y[rows][pts]
        # np.bincount adds its weights in index order, so every candidate's
        # sums run over its in-band points in ascending order, one at a time
        columns = np.ascontiguousarray(xr.T)      # (d, m)
        tangential = np.stack([np.bincount(cand, weights=columns[j][pts] * wts,
                                           minlength=c) for j in range(d)], axis=1)
        radial = np.bincount(cand, weights=wts * pr, minlength=c)
        grads = radial[:, None] * block - tangential
        out[start:start + c] = np.linalg.norm(grads, axis=1) / ds.n
    return out


@dataclass(frozen=True)
class PsgdConfig:
    """PSGD schedule.

    step_size None applies the default rule: sigma^2 / 2 for single-sample
    steps (matching the per-sample gradient scale 1/sigma), sigma / 4 for
    batch gradients.  batch_size None means full-batch (deterministic
    projected gradient descent).
    """

    iterations: int
    step_size: Optional[float] = None
    batch_size: Optional[int] = 1
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")

    def resolved_step(self, sigma: float) -> float:
        if self.step_size is not None:
            return self.step_size
        return 0.5 * sigma**2 if self.batch_size == 1 else 0.25 * sigma


def psgd(ds: Dataset, p: RampParams, cfg: PsgdConfig,
         w0: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """All T+1 iterates of projected SGD on the surrogate loss.

    Starts at w0 (or a seeded uniform point on the sphere), renormalizes
    exactly after every step, and is deterministic given (cfg.seed, w0).

    Every step takes the sphere gradient from the in-slab rows of its
    sample, ``(-(sum l' y x) + (sum l' y <w,x>) w) / batch``; the batch is
    drawn with replacement, or is the whole dataset for full-batch steps.
    Full-batch steps only project the rows that can lie in the slab: the
    rows with |<w_ref,x>| < sigma/2 + (sigma/2) ||x|| + pad for a reference
    iterate w_ref (``pad`` bounds the rounding error of the computed
    projections; see ``_band_rows``), which contain the band of every w
    within sigma/2 of w_ref.  The rows are rebuilt around the current
    iterate whenever it moves farther than sigma/2 from w_ref.
    """
    gen = rng.stream(cfg.seed, rng.STREAM_PSGD)
    if w0 is None:
        w = rng.unit_sphere(gen, ds.dim)
    else:
        w = unit(np.asarray(w0, dtype=float))
    beta = cfg.resolved_step(p.sigma)
    iterates = [w.copy()]
    x, y = ds.points, ds.labels.astype(float)
    full_batch = cfg.batch_size is None or cfg.batch_size >= ds.n
    denom = ds.n if full_batch else cfg.batch_size
    if full_batch:
        norm_x = np.linalg.norm(x, axis=1)
        radius = p.sigma / 2.0
        w_ref = None
    for _ in range(cfg.iterations):
        if not full_batch:
            rows = gen.integers(0, ds.n, size=cfg.batch_size)
            xr, yr = x[rows], y[rows]
        elif w_ref is None or np.linalg.norm(w - w_ref) > radius:
            w_ref = w
            rows = _band_rows(x, norm_x, w_ref, radius, p.sigma)
            xr, yr = x[rows], y[rows]
        proj = xr @ w
        active = np.flatnonzero(np.abs(proj) < p.sigma / 2.0)
        if active.size:
            pr = proj[active]
            wts = smooth_ramp_derivative(pr, p) * yr[active]
            grad = (-(wts @ xr[active]) + (wts @ pr) * w) / denom
        else:
            grad = np.zeros(ds.dim)
        w = unit(w - beta * grad)
        iterates.append(w.copy())
    return iterates
