"""Synthetic marginal samplers, label-noise models, and dataset IO.

The marginal families split into two groups:

* structured families with documented niceness / Poincare claims
  (``standard_gaussian``, ``product_laplace``, ``uniform_ball``,
  ``uniform_cube``), all normalized to unit per-coordinate variance;
* adversarial families used to exercise rejection paths
  (``student_t``, ``two_point_mass``, ``line_mass``), which carry no claims.

Everything is driven by the Philox streams in :mod:`halftest.rng`:
identical ``(spec, n, seed)`` reproduces a bit-identical dataset.

Sign convention: ``sign(0) = +1`` everywhere.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import rng
from .errors import DimMismatchError, UnknownKindError
from .numerics import check_finite, is_integer, is_number, is_unit, unit

MARGINAL_KINDS = (
    "standard_gaussian",
    "product_laplace",
    "uniform_ball",
    "uniform_cube",
    "student_t",
    "two_point_mass",
    "line_mass",
)

# Documented analytic claims (lambda-niceness / Poincare constant) for the
# structured families.  The binding constraint for the Gaussian and Laplace
# lambdas is the two-dimensional density lower bound; for the cube it is the
# density value 1/12; the ball value is a safe round-up.  Heavy-tailed and
# degenerate families intentionally claim nothing.
CLAIMED = {
    "standard_gaussian": (6.4, 1.0),
    "product_laplace": (7.5, 2.0),
    "uniform_ball": (8.0, 1.0),
    "uniform_cube": (12.0, 1.22),
}


def sign_pm1(values: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, as int8 in {-1, +1}."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


@dataclass(frozen=True)
class MarginalSpec:
    """A named marginal family in a fixed dimension."""

    kind: str
    dim: int
    nu: Optional[int] = None            # student_t degrees of freedom
    spread: Optional[float] = None      # two_point_mass atom location
    direction: Optional[tuple] = None   # line_mass direction (defaults to e1)

    def __post_init__(self):
        if self.kind not in MARGINAL_KINDS:
            raise UnknownKindError(f"unknown marginal kind {self.kind!r}")
        if not is_integer(self.dim) or self.dim < 1:
            raise ValueError("dim must be an integer >= 1")
        if self.kind == "student_t" and not (is_integer(self.nu)
                                             and self.nu >= 1):
            raise ValueError("student_t requires integer nu >= 1")
        if self.kind == "two_point_mass" and not (is_number(self.spread)
                                                  and self.spread > 0):
            raise ValueError("two_point_mass requires spread > 0")

    @property
    def claimed_lambda(self) -> Optional[float]:
        """The family's documented lambda (see CLAIMED), or None."""
        return CLAIMED.get(self.kind, (None, None))[0]

    @property
    def claimed_gamma(self) -> Optional[float]:
        """The family's documented gamma (see CLAIMED), or None."""
        return CLAIMED.get(self.kind, (None, None))[1]

    def line_direction(self) -> np.ndarray:
        if self.direction is None:
            e1 = np.zeros(self.dim)
            e1[0] = 1.0
            return e1
        return unit(np.asarray(self.direction, dtype=float))


@dataclass(frozen=True)
class NoiseModel:
    """Label model applied on top of a target halfspace normal.

    kinds:
      clean                    y = sign(<w*, x>)
      massart                  clean label flipped independently with
                               probability eta(x) <= eta < 1/2; profiles:
                               "constant" (eta(x) = eta) and
                               "near_boundary" (eta inside |<w*,x>| <= width,
                               0 outside)
      agnostic                 deterministic or randomized corruption of
                               (x, clean label); built-in rules:
                               "boundary_flip" (flip iff |<w*,x>| <= width)
                               and "random_flip" (flip with probability p)

    ``width`` must be finite and >= 0 and ``flip_prob`` in [0, 1].
    """

    kind: str
    target: tuple
    eta: float = 0.0
    profile: str = "constant"
    width: float = 0.0
    rule: Optional[str] = None
    flip_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in ("clean", "massart", "agnostic"):
            raise UnknownKindError(f"unknown noise kind {self.kind!r}")
        if not all(map(is_number, (self.eta, self.width, self.flip_prob))):
            raise ValueError("eta, width and flip_prob must be numbers")
        if self.kind == "massart" and not 0.0 <= self.eta < 0.5:
            raise ValueError("massart requires eta in [0, 1/2)")
        # written so that NaN fails them
        if not 0.0 <= self.width < np.inf:
            raise ValueError("width must be finite and >= 0")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        w = np.asarray(self.target, dtype=float)
        if not is_unit(w, tol=1e-9):
            raise ValueError("noise target must be a unit vector")

    def target_vector(self) -> np.ndarray:
        return np.asarray(self.target, dtype=float)

    def flip_probabilities(self, points: np.ndarray) -> np.ndarray:
        """Massart flip probability eta(x) per point."""
        if self.kind != "massart":
            raise ValueError("flip probabilities are defined for massart noise")
        n = points.shape[0]
        if self.profile == "constant":
            return np.full(n, self.eta)
        if self.profile == "near_boundary":
            margins = np.abs(points @ self.target_vector())
            return np.where(margins <= self.width, self.eta, 0.0)
        raise UnknownKindError(f"unknown massart profile {self.profile!r}")


@dataclass
class Dataset:
    """n labeled points in R^d with labels in {-1, +1}."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = check_finite(np.asarray(self.points, dtype=float))
        self.labels = np.asarray(self.labels)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (n, d) array")
        if self.labels.shape != (self.points.shape[0],):
            raise DimMismatchError("labels must be a length-n vector")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be +-1")
        self.labels = self.labels.astype(np.int8)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """||x|| of every point, computed on first use and kept with the
        dataset (so it is freed with it); ``points`` must not change after."""
        return np.linalg.norm(self.points, axis=1)


def sample_marginal(spec: MarginalSpec, n: int, seed: int,
                    stream_id: int = rng.STREAM_MARGINAL) -> np.ndarray:
    """n iid draws from the marginal family, deterministic given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.stream(seed, stream_id)
    d = spec.dim
    kind = spec.kind

    if kind == "standard_gaussian":
        return rng.standard_normal(gen, (n, d))

    if kind == "product_laplace":
        # inverse CDF of Laplace(b) with b = 1/sqrt(2), unit variance
        u = gen.random((n, d)) - 0.5
        b = 1.0 / np.sqrt(2.0)
        return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))

    if kind == "uniform_cube":
        # side 2*sqrt(3), unit per-coordinate variance
        return (2.0 * gen.random((n, d)) - 1.0) * np.sqrt(3.0)

    if kind == "uniform_ball":
        # radius sqrt(d+2) makes the ball isotropic with unit variance
        z = rng.standard_normal(gen, (n, d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        radii = np.sqrt(d + 2.0) * gen.random((n, 1)) ** (1.0 / d)
        return z / norms * radii

    if kind == "student_t":
        nu = int(spec.nu)
        z = rng.standard_normal(gen, (n, d))
        chi2 = np.sum(rng.standard_normal(gen, (n, nu)) ** 2, axis=1)
        t = z / np.sqrt(chi2 / nu)[:, None]
        if nu > 2:
            t *= np.sqrt((nu - 2.0) / nu)  # unit variance when it exists
        return t

    if kind == "two_point_mass":
        x = np.zeros((n, d))
        signs = np.where(gen.random(n) < 0.5, -1.0, 1.0)
        x[:, 0] = signs * spec.spread
        return x

    if kind == "line_mass":
        u = spec.line_direction()
        t = rng.standard_normal(gen, n)
        return np.outer(t, u)

    raise UnknownKindError(f"unknown marginal kind {kind!r}")


def label_dataset(points: np.ndarray, noise: NoiseModel, seed: int,
                  stream_id: int = rng.STREAM_LABELS) -> Dataset:
    """Attach labels to points under the given noise model."""
    points = check_finite(points)
    w_star = noise.target_vector()
    if w_star.shape[0] != points.shape[1]:
        raise DimMismatchError("noise target dimension does not match points")
    clean = sign_pm1(points @ w_star)
    gen = rng.stream(seed, stream_id)
    n = points.shape[0]
    if noise.kind == "clean":
        flips = np.zeros(n, dtype=bool)
    elif noise.kind == "massart":
        flips = gen.random(n) < noise.flip_probabilities(points)
    elif noise.rule == "boundary_flip":
        flips = np.abs(points @ w_star) <= noise.width
    elif noise.rule == "random_flip":
        flips = gen.random(n) < noise.flip_prob
    else:
        raise UnknownKindError(f"unknown agnostic rule {noise.rule!r}")
    return Dataset(points, np.where(flips, -clean, clean).astype(np.int8))


def empirical_error(w: np.ndarray, ds: Dataset) -> float:
    """Empirical 0-1 error of the halfspace sign(<w, x>)."""
    preds = sign_pm1(ds.points @ np.asarray(w, dtype=float))
    return float(np.mean(preds != ds.labels))


# ---------------------------------------------------------------------------
# Dataset file formats: CSV with header "x1,...,xd,y", and a little-endian
# binary format (magic "HTDS", u32 version, u32 n, u32 d, f64 row-major
# points, i8 labels).

BINARY_MAGIC = b"HTDS"
BINARY_VERSION = 1


def to_csv(ds: Dataset) -> str:
    buf = io.StringIO()
    d = ds.dim
    buf.write(",".join([f"x{i + 1}" for i in range(d)] + ["y"]) + "\n")
    for row, label in zip(ds.points, ds.labels):
        coords = ",".join(repr(float(v)) for v in row)
        buf.write(f"{coords},{int(label)}\n")
    return buf.getvalue()


def from_csv(text: str) -> Dataset:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ValueError("empty CSV, expected a header x1,...,xd,y")
    header = lines[0].split(",")
    if header[-1] != "y" or not all(h == f"x{i + 1}" for i, h in enumerate(header[:-1])):
        raise ValueError("bad CSV header, expected x1,...,xd,y")
    d = len(header) - 1
    points = np.empty((len(lines) - 1, d))
    labels = np.empty(len(lines) - 1, dtype=np.int8)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != d + 1:
            raise ValueError(f"row {i} has {len(parts)} fields, expected {d + 1}")
        points[i] = [float(p) for p in parts[:-1]]
        labels[i] = int(parts[-1])
    return Dataset(points, labels)


def to_binary(ds: Dataset) -> bytes:
    head = BINARY_MAGIC + struct.pack("<III", BINARY_VERSION, ds.n, ds.dim)
    body = np.ascontiguousarray(ds.points, dtype="<f8").tobytes()
    tail = np.ascontiguousarray(ds.labels, dtype=np.int8).tobytes()
    return head + body + tail


def from_binary(raw: bytes) -> Dataset:
    if raw[:4] != BINARY_MAGIC:
        raise ValueError("bad magic, not a HTDS file")
    if len(raw) < 16:
        raise ValueError("truncated HTDS header")
    version, n, d = struct.unpack("<III", raw[4:16])
    if version != BINARY_VERSION:
        raise ValueError(f"unsupported HTDS version {version}")
    need = 16 + 8 * n * d + n
    if len(raw) < need:
        raise ValueError("truncated HTDS file")
    points = np.frombuffer(raw, dtype="<f8", count=n * d, offset=16).reshape(n, d)
    labels = np.frombuffer(raw, dtype=np.int8, count=n, offset=16 + 8 * n * d)
    return Dataset(points.copy(), labels.copy())


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == BINARY_MAGIC:
        return from_binary(raw)
    return from_csv(raw.decode())
