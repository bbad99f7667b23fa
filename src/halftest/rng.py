"""Counter-based splittable random streams.

Every random draw in the library comes from a Philox4x64-10 generator keyed
by ``(seed, stream_id)``.  Philox is counter based, so a stream is fully
determined by its key: the same ``(seed, stream_id)`` pair reproduces the
same draws on any platform, and disjoint stream ids give independent streams
that may be consumed in parallel.

Gaussians are produced by an explicit Box-Muller transform over the uniform
stream (rather than the generator's native normals) so the mapping from
uniform bits to samples is pinned down by this module alone.
"""

from __future__ import annotations

import numpy as np

# Fixed stream ids, one per consumer.  Composite streams add small offsets.
STREAM_MARGINAL = 1
STREAM_LABELS = 2
STREAM_PSGD = 3
STREAM_LEARNER = 100
STREAM_HOLDOUT = 199
STREAM_ORACLE = 500


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for the (seed, stream_id) Philox stream, counter at 0."""
    return np.random.Generator(np.random.Philox(key=[int(seed) & (2**64 - 1),
                                                     int(stream_id) & (2**64 - 1)]))


def box_muller(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on the uniform stream."""
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs)  # in (0, 1], keeps log finite
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n]


def standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    count = int(np.prod(shape)) if shape else 1
    return box_muller(gen, count).reshape(shape)


def unit_sphere(gen: np.random.Generator, dim: int) -> np.ndarray:
    """One point uniform on the unit sphere S^{dim-1}."""
    while True:
        z = standard_normal(gen, dim)
        norm = np.linalg.norm(z)
        if norm > 1e-12:
            return z / norm
