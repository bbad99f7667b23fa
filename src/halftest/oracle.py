"""Independent brute-force verifiers.

These deliberately avoid the code paths they check: the fourth-moment
maximizer scores every candidate direction on its own dense moment tensor
(a sphere grid at d <= 4, then power ascent from all starts until it
stalls in ``fourth_moment_ascent``, which no tester calls), so its memory
does not depend on the sample size; gradients come from central finite
differences in a tangent basis, ERM is an exhaustive sweep at d <= 2
(pair normals at d = 3, random search above), and the
surrogate-loss structural inequality is evaluated from first principles
with the ramp's own derived constants (derivative exactly 1/sigma on the
linear piece, at most 3/sigma everywhere):

    A1 = (alpha / sigma) Pr[|<v,x>| >= alpha and |<w,x>| <= sigma/6]
    A2 = (3 / (2 tan theta)) Pr[|<w,x>| <= sigma/2]
    A3 = (6 / sigma) sqrt(opt) sqrt(E[<v,x>^2 1{|<w,x>| <= sigma/2}])

so ||grad L_sigma|| >= A1 - A2 - A3 for arbitrary labels, and
>= (1 - 2 eta) A1 - A2 under Massart noise (gradient taken against the
conditional label expectation).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from . import rng
from .distributions import Dataset, NoiseModel, sign_pm1
from .errors import DegenerateAngleError, DimTooLargeError
from .numerics import check_finite, householder_basis, unit
from .surrogate import (RAMP_DERIV_BOUND, RampParams, smooth_ramp_derivative,
                        surrogate_gradient)

GRID_RESOLUTION = 0.01
COARSE_RESOLUTION_D4 = 0.15
POWER_RESTARTS = 64
GRID_STARTS = 32
MAX_POWER_STEPS = 10_000  # a cap: near-isotropic samples stall after ~700
PAIR_BUDGET = 100_000
ERM_BLOCK = 1 << 22  # candidate scores per block: 32 MB of float64
STALL_RTOL = 16 * np.finfo(float).eps  # a rise within rounding: stalled


def fourth_moment_tensor(points: np.ndarray) -> np.ndarray:
    """The dense (d, d, d, d) tensor of E_S[x_i x_j x_k x_l]."""
    n, d = points.shape
    q = (points[:, :, None] * points[:, None, :]).reshape(n, d * d)
    return (q.T @ q / n).reshape((d,) * 4)


def fourth_moment_ascent(contract: Callable[[np.ndarray], np.ndarray],
                         starts: np.ndarray, steps: int) -> tuple[float, np.ndarray]:
    """(value, v): the best <T(v,v,v,.), v> that power steps from the unit
    rows of ``starts`` reach, and the row that reaches it; ``contract`` maps
    a (k, d) block to T(v,v,v,.) of each row.  Each step is scaled by its
    largest entry before its norm, and a zero step stays.  Power steps never
    lower a convex quartic (Kofidis and Regalia, SIAM J. Matrix Anal. Appl.
    23, 2002), so the ascent stops after ``steps`` steps, or once the best
    value rises by at most STALL_RTOL of itself.
    """
    v = np.array(starts, dtype=float)
    value, direction = -math.inf, None
    for step in range(steps + 1):
        g = contract(v)
        values = (g * v).sum(axis=1)
        rise = values.max() - value
        if rise > 0.0:
            value, direction = float(values.max()), v[values.argmax()].copy()
        if rise <= STALL_RTOL * value or step == steps:
            return value, direction
        top = np.abs(g).max(axis=1, keepdims=True)
        np.divide(g, top, out=v, where=top > 0.0)   # a zero step keeps v
        v /= np.sqrt((v * v).sum(axis=1, keepdims=True))


@functools.lru_cache(maxsize=4)
def _sphere_grid(dim: int) -> np.ndarray:
    """Read-only angular grid over half the sphere (the quartic is even)."""
    res = GRID_RESOLUTION
    if dim == 1:
        grid = np.array([[1.0]])
    elif dim == 2:
        angles = np.arange(0.0, math.pi, res)
        grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    elif dim == 3:
        thetas = np.arange(0.0, math.pi + res, res)
        points = []
        for th in thetas:
            ring = max(1, int(math.ceil(2.0 * math.pi * math.sin(th) / res)))
            phis = np.arange(ring) * 2.0 * math.pi / ring
            points.append(np.stack([np.sin(th) * np.cos(phis),
                                    np.sin(th) * np.sin(phis),
                                    np.full(ring, math.cos(th))], axis=1))
        grid = np.concatenate(points)
    elif dim == 4:
        step = COARSE_RESOLUTION_D4
        half = np.arange(0.0, math.pi + step, step)
        t1, t2, t3 = (a.ravel() for a in np.meshgrid(
            half, half, np.arange(0.0, 2.0 * math.pi, step), indexing="ij"))
        grid = np.stack([np.cos(t1),
                         np.sin(t1) * np.cos(t2),
                         np.sin(t1) * np.sin(t2) * np.cos(t3),
                         np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=1)
    else:
        raise DimTooLargeError("grid mode supports d <= 4")
    grid.flags.writeable = False
    return grid


def brute_force_max_fourth_moment(points: np.ndarray, mode: str = "auto",
                                  seed: int = 0) -> tuple[float, np.ndarray]:
    """Maximize E_S[<v, x>^4] over the unit sphere.

    Every direction is scored on the dense tensor T = E_S[x x x x] as
    <T(v, v, v, .), v>, so memory does not grow with the sample size.  The
    starts are the GRID_STARTS best points of a sphere grid (grid mode,
    d <= 4), POWER_RESTARTS random directions and the coordinate axes; all
    of them ascend together (``fourth_moment_ascent``) until the
    best value stalls, at most MAX_POWER_STEPS steps, so the result is at
    least the best grid score.  Ascent mode (any d) skips the grid: a lower
    bound on the maximum rather than the global maximum.
    """
    points = check_finite(points)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    d = points.shape[1]
    if mode not in ("auto", "grid", "ascent"):
        raise ValueError(f"unknown mode {mode!r}")
    use_grid = mode == "grid" or (mode == "auto" and d <= 4)
    grid = _sphere_grid(d) if use_grid else np.empty((0, d))  # raises at d > 4
    flat = check_finite(fourth_moment_tensor(points)).reshape(d * d, d * d)

    def contract(v):                        # T(v, v, v, .) for each row v
        vv = (v[:, :, None] * v[:, None, :]).reshape(len(v), d * d)
        return np.einsum("kij,kj->ki", (vv @ flat).reshape(-1, d, d), v)

    scores = np.einsum("ki,ki->k", contract(grid), grid)
    gen = rng.stream(seed, rng.STREAM_ORACLE)
    restarts = [rng.unit_sphere(gen, d) for _ in range(POWER_RESTARTS)]
    v = np.concatenate([grid[np.argsort(scores)[::-1][:GRID_STARTS]],
                        restarts, np.eye(d)])
    v /= np.sqrt(np.einsum("ki,ki->k", v, v))[:, None]
    return fourth_moment_ascent(contract, v, MAX_POWER_STEPS)


def finite_difference_gradient(f: Callable[[np.ndarray], float],
                               w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a sphere function along a tangent basis at w."""
    if not 1e-8 <= h <= 1e-4:
        raise ValueError("h must lie in [1e-8, 1e-4]")
    w = unit(np.asarray(w, dtype=float))
    basis = householder_basis(w)
    grad = np.zeros_like(w)
    for tangent in basis:
        up = f(unit(w + h * tangent))
        down = f(unit(w - h * tangent))
        grad += (up - down) / (2.0 * h) * tangent
    return grad


def _halfspace_errors(points: np.ndarray, labels: np.ndarray,
                      candidates: np.ndarray) -> np.ndarray:
    """0-1 error of every candidate, scored in (n, k) blocks of about
    ERM_BLOCK entries whatever the sample size."""
    n = points.shape[0]
    positive = labels[:, None] > 0
    step = max(1, ERM_BLOCK // n)
    out = np.empty(candidates.shape[0])
    for start in range(0, candidates.shape[0], step):
        wrong = (points @ candidates[start:start + step].T >= 0) != positive
        out[start:start + step] = np.count_nonzero(wrong, axis=0) / n
    return out


def erm_halfspace(ds: Dataset, mode: str = "auto", seed: int = 0,
                  search_budget: int = 20000) -> tuple[np.ndarray, float]:
    """Minimum empirical 0-1 error over origin-centered halfspaces.

    d = 1: both orientations.  d = 2: exact sweep over the point-induced
    boundary angles and their midpoints.  d = 3: candidate normals from
    point pairs, all of them when there are at most PAIR_BUDGET and
    otherwise PAIR_BUDGET pairs of distinct points drawn from a seeded
    stream (near-exact).  d <= 8 with mode='search':
    random search plus shrinking local perturbation — an upper bound on
    opt_S.
    """
    x, y = ds.points, ds.labels
    d = ds.dim
    if mode == "auto":
        mode = "exact" if d <= 3 else "search"
    if mode == "exact":
        if d > 3:
            raise DimTooLargeError("exact ERM supports d <= 3")
        if d == 1:
            cands = np.array([[1.0], [-1.0]])
        elif d == 2:
            # boundary normals: exact 90-degree rotations of the data points
            # (so <rot90(x_i), x_i> is exactly zero and the sign convention
            # is exercised), plus midpoints of consecutive boundary angles
            norms = np.linalg.norm(x, axis=1)
            good = norms > 0
            rot = np.stack([-x[good, 1], x[good, 0]], axis=1) / norms[good][:, None]
            base = np.arctan2(x[good, 1], x[good, 0])
            events = np.sort(np.mod(np.concatenate(
                [base + math.pi / 2.0, base - math.pi / 2.0]), 2.0 * math.pi))
            gaps = np.diff(np.concatenate([events, [events[0] + 2 * math.pi]]))
            mids = events + gaps / 2.0
            cands = np.concatenate([
                rot, -rot,
                np.stack([np.cos(mids), np.sin(mids)], axis=1)])
        else:
            if ds.n * (ds.n - 1) // 2 <= PAIR_BUDGET:
                idx_i, idx_j = np.triu_indices(ds.n, k=1)
            else:
                # uniform over pairs i != j, without listing all of them
                gen = rng.stream(seed, rng.STREAM_ORACLE + 9)
                idx_i = gen.integers(0, ds.n, PAIR_BUDGET)
                idx_j = gen.integers(0, ds.n - 1, PAIR_BUDGET)
                idx_j += idx_j >= idx_i
            normals = np.cross(x[idx_i], x[idx_j])
            norms = np.linalg.norm(normals, axis=1)
            good = norms > 1e-12
            cands = normals[good] / norms[good][:, None]
            cands = np.concatenate([cands, -cands, np.eye(3)])
    else:
        if d > 8:
            raise DimTooLargeError("random-search ERM supports d <= 8")
        gen = rng.stream(seed, rng.STREAM_ORACLE + 1)
        cands = np.stack([rng.unit_sphere(gen, d) for _ in range(search_budget)])
    errs = _halfspace_errors(x, y, cands)
    best = int(np.argmin(errs))
    w_best, err_best = cands[best], float(errs[best])
    if mode == "search":
        radius = 0.5
        for _ in range(12):
            local = w_best[None, :] + radius * rng.standard_normal(
                rng.stream(seed, rng.STREAM_ORACLE + 2), (256, d))
            local /= np.linalg.norm(local, axis=1, keepdims=True)
            errs = _halfspace_errors(x, y, local)
            i = int(np.argmin(errs))
            if errs[i] < err_best:
                w_best, err_best = local[i], float(errs[i])
            radius *= 0.5
    return w_best, err_best


def reference_direction(w: np.ndarray, w_star: np.ndarray) -> np.ndarray:
    """Unit v in span(w, w*) with <v, w> = 0 and <v, w*> < 0."""
    w = unit(np.asarray(w, dtype=float))
    w_star = unit(np.asarray(w_star, dtype=float))
    residual = w_star - (w_star @ w) * w
    norm = np.linalg.norm(residual)
    if norm < 1e-12:
        raise DegenerateAngleError("w and w* are (anti)parallel")
    return -residual / norm


def gradient_lower_bound_terms(ds: Dataset, w: np.ndarray, w_star: np.ndarray,
                               sigma: float, alpha: float
                               ) -> tuple[float, float, float]:
    """The A1, A2, A3 of the surrogate-loss gradient lower bound, evaluated
    on the empirical distribution with the ramp's derived constants."""
    w = unit(np.asarray(w, dtype=float))
    w_star = unit(np.asarray(w_star, dtype=float))
    theta = math.acos(np.clip(w @ w_star, -1.0, 1.0))
    if not 0.0 < theta < math.pi / 2.0:
        raise DegenerateAngleError("angle(w, w*) must lie in (0, pi/2)")
    if alpha < sigma / (2.0 * math.tan(theta)) - 1e-12:
        raise ValueError("alpha must be at least sigma / (2 tan theta)")
    v = reference_direction(w, w_star)
    xw = ds.points @ w
    xv = ds.points @ v
    a1 = (alpha / sigma) * float(np.mean((np.abs(xv) >= alpha)
                                         & (np.abs(xw) <= sigma / 6.0)))
    half = np.abs(xw) <= sigma / 2.0
    a2 = (RAMP_DERIV_BOUND / (2.0 * math.tan(theta))) * float(np.mean(half))
    opt = float(np.mean(sign_pm1(ds.points @ w_star) != ds.labels))
    second = float(np.mean(xv**2 * half))
    a3 = (2.0 * RAMP_DERIV_BOUND / sigma) * math.sqrt(opt) * math.sqrt(second)
    return a1, a2, a3


def massart_expected_gradient(points: np.ndarray, noise: NoiseModel,
                              w: np.ndarray, p: RampParams) -> np.ndarray:
    """Gradient of the surrogate loss against the conditional label
    expectation E[y | x] = (1 - 2 eta(x)) sign(<w*, x>)."""
    w = unit(np.asarray(w, dtype=float))
    etas = noise.flip_probabilities(points)
    expected_y = (1.0 - 2.0 * etas) * sign_pm1(points @ noise.target_vector())
    proj = points @ w
    weights = smooth_ramp_derivative(proj, p) * expected_y
    tangents = points - np.outer(proj, w)
    return -(weights @ tangents) / points.shape[0]


def structural_check(ds: Dataset, w: np.ndarray, w_star: np.ndarray,
                     sigma: float, alpha: float,
                     noise: Optional[NoiseModel] = None) -> dict:
    """Both sides of the structural inequality on one empirical instance.

    Agnostic form (realized labels): ||grad|| >= A1 - A2 - A3.
    Massart form (noise given):      ||grad_expected|| >= (1-2 eta) A1 - A2,
    with the gradient taken against the conditional label expectation.
    """
    p = RampParams(sigma)
    a1, a2, a3 = gradient_lower_bound_terms(ds, w, w_star, sigma, alpha)
    out = {"a1": a1, "a2": a2, "a3": a3, "sigma": sigma, "alpha": alpha}
    if noise is None:
        grad_norm = float(np.linalg.norm(surrogate_gradient(w, ds, p)))
        out["grad_norm"] = grad_norm
        out["lower_bound"] = a1 - a2 - a3
    else:
        grad = massart_expected_gradient(ds.points, noise, w, p)
        grad_norm = float(np.linalg.norm(grad))
        out["grad_norm"] = grad_norm
        out["lower_bound"] = (1.0 - 2.0 * noise.eta) * a1 - a2
    out["holds"] = grad_norm >= out["lower_bound"] - 1e-12
    return out


# ---------------------------------------------------------------------------
# analytic standard-Gaussian strip statistics

def gaussian_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def gaussian_strip_stats(sigma: float, c: float, uu_inner: float) -> dict:
    """Exact values of the four strip statistics for the standard Gaussian:

    (i)   Pr[|<w,x>| <= sigma]
    (ii)  E[<v,x>^2 1{|<w,x>| <= sigma}]                  (v orthogonal to w)
    (iii) E[<u,x>^2 <u',x>^2] = 1 + 2 <u,u'>^2
    (iv)  E[<v,x>^2 1{|<w,x>| in [c, c+sigma]}]           (v orthogonal to w)
    """
    p_strip = 2.0 * gaussian_cdf(sigma) - 1.0
    p_band = 2.0 * (gaussian_cdf(c + sigma) - gaussian_cdf(c))
    return {"strip_probability": p_strip,
            "strip_second_moment": p_strip,
            "cross_fourth_moment": 1.0 + 2.0 * uu_inner**2,
            "offset_strip_second_moment": p_band}
