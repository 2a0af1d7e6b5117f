"""Deterministic, parallelizable Monte Carlo substrate.

Sampling is organized in fixed-size chunks addressed by a counter-based
generator (Philox).  The key is (seed, stream) and each chunk occupies its
own counter block, so the sample values depend only on (seed, stream,
sample index) -- never on how chunks are distributed over workers.
Reductions use pairwise summation within a chunk and an order-normalized
parallel merge across chunks, so estimates are reproducible bitwise on one
platform and agree to ~1e-10 across merge orders.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Samples per counter block.  Fixed: changing it changes the sample stream.
CHUNK_SAMPLES = 1 << 16

_U64 = 1 << 64


class PoisonedSampleError(RuntimeError):
    """A sampling function produced a non-finite value."""


@dataclass(frozen=True)
class RngSpec:
    """Addresses one reproducible random stream: key = (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < _U64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (0 <= int(self.stream) < _U64):
            raise ValueError("stream must be a 64-bit unsigned integer")

    def generator(self, block: int = 0) -> np.random.Generator:
        """Generator for one counter block of this stream."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        # Each block sits 2**128 counter steps apart: blocks never overlap.
        counter = np.array([0, 0, block, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))

    def with_stream(self, stream: int) -> "RngSpec":
        return RngSpec(self.seed, stream)


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo mean with standard error and seed provenance."""

    mean: float
    stderr: float
    n: int
    spec: RngSpec

    def within(self, value: float, k: float = 3.0) -> bool:
        """|mean - value| <= k standard errors (stderr 0 demands equality)."""
        return abs(self.mean - value) <= k * self.stderr


@dataclass(frozen=True)
class ComplexEstimatorResult:
    """Mean of a complex-valued sample with per-component standard errors."""

    mean: complex
    stderr_re: float
    stderr_im: float
    n: int
    spec: RngSpec


def chunks(spec: RngSpec, n: int):
    """Yield (block_index, count, generator) covering n samples.

    The partition is a pure function of n; workers may consume blocks in
    any order as long as results are merged in block order.
    """
    nblocks = (n + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    for j in range(nblocks):
        cnt = min(CHUNK_SAMPLES, n - j * CHUNK_SAMPLES)
        yield j, cnt, spec.generator(block=j)


def _merge(count, mean, m2, cnt, cm, cm2):
    # Chan et al. parallel combine of (count, mean, sum of squared deviations)
    tot = count + cnt
    delta = cm - mean
    mean = mean + delta * cnt / tot
    m2 = m2 + cm2 + delta * delta * count * cnt / tot
    return tot, mean, m2


def gaussian_vector(spec: RngSpec, dim: int) -> np.ndarray:
    """dim independent standard normals from the given stream."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return spec.generator().standard_normal(dim)


def estimate(fn: Callable[[np.random.Generator, int], np.ndarray],
             n: int, spec: RngSpec) -> EstimatorResult:
    """Chunked Monte Carlo mean of fn.

    fn(rng, count) must return a float array of shape (count,) drawn from
    rng.  Non-finite values poison the estimate (error names the chunk).
    """
    if n < 100:
        raise ValueError("need at least 100 samples")
    count, mean, m2 = 0, 0.0, 0.0
    for j, cnt, rng in chunks(spec, n):
        x = np.asarray(fn(rng, cnt), dtype=float)
        if x.shape != (cnt,):
            raise ValueError(f"fn returned shape {x.shape}, expected ({cnt},)")
        if not np.all(np.isfinite(x)):
            raise PoisonedSampleError(
                f"non-finite sample value in chunk {j} "
                f"(seed={spec.seed}, stream={spec.stream})")
        cm = float(x.mean())
        cm2 = float(np.sum((x - cm) ** 2))
        count, mean, m2 = _merge(count, mean, m2, cnt, cm, cm2)
    stderr = float(np.sqrt(m2 / (count - 1) / count))
    return EstimatorResult(mean, stderr, count, spec)


def estimate_complex(fn: Callable[[np.random.Generator, int], np.ndarray],
                     n: int, spec: RngSpec) -> ComplexEstimatorResult:
    """Like estimate() for complex-valued fn; tracks both components."""
    if n < 100:
        raise ValueError("need at least 100 samples")
    count = 0
    mean_r, m2_r = 0.0, 0.0
    mean_i, m2_i = 0.0, 0.0
    for j, cnt, rng in chunks(spec, n):
        x = np.asarray(fn(rng, cnt), dtype=complex)
        if x.shape != (cnt,):
            raise ValueError(f"fn returned shape {x.shape}, expected ({cnt},)")
        if not np.all(np.isfinite(x)):
            raise PoisonedSampleError(
                f"non-finite sample value in chunk {j} "
                f"(seed={spec.seed}, stream={spec.stream})")
        xr, xi = x.real, x.imag
        cm_r = float(xr.mean())
        cm_i = float(xi.mean())
        c2_r = float(np.sum((xr - cm_r) ** 2))
        c2_i = float(np.sum((xi - cm_i) ** 2))
        tot, mean_r, m2_r = _merge(count, mean_r, m2_r, cnt, cm_r, c2_r)
        _, mean_i, m2_i = _merge(count, mean_i, m2_i, cnt, cm_i, c2_i)
        count = tot
    se_r = float(np.sqrt(m2_r / (count - 1) / count))
    se_i = float(np.sqrt(m2_i / (count - 1) / count))
    return ComplexEstimatorResult(complex(mean_r, mean_i), se_r, se_i,
                                  count, spec)


def loglog_slope(points) -> tuple[float, float]:
    """Weighted least-squares slope of log(phat) against log(eps).

    points: iterable of (eps, phat, se) triples.  Points with phat == 0 are
    dropped with a warning; fewer than 3 surviving points is an error.
    Weights follow from the propagated errors se/phat; when every se is 0
    the fit is unweighted and the slope error comes from residuals.
    """
    # unpacking rejects anything but triples; reshape keeps an empty list
    # (0, 3) so it reaches the point-count error below
    pts = np.asarray([(float(e), float(p), float(s)) for e, p, s in points],
                     dtype=float).reshape(-1, 3)
    zero = pts[:, 1] == 0.0
    if np.any(zero):
        warnings.warn(f"dropping {int(zero.sum())} point(s) with phat == 0",
                      stacklevel=2)
        pts = pts[~zero]
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 points with phat > 0")
    eps, phat, se = pts.T
    if np.any(eps <= 0):
        raise ValueError("eps values must be positive")
    x = np.log(eps)
    y = np.log(phat)
    sigma = np.where(phat > 0, se / phat, np.inf)
    if np.all(sigma == 0.0):
        # exact points: unweighted fit, residual-based error
        w = np.ones_like(x)
        residual_se = True
    else:
        if np.any(sigma == 0.0):
            sigma = np.where(sigma == 0.0, sigma[sigma > 0].min(), sigma)
        w = 1.0 / sigma ** 2
        residual_se = False
    xb = np.average(x, weights=w)
    yb = np.average(y, weights=w)
    sxx = float(np.sum(w * (x - xb) ** 2))
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    if residual_se:
        k = len(x)
        resid = y - (yb + slope * (x - xb))
        s2 = float(np.sum(resid ** 2)) / (k - 2)
        slope_se = float(np.sqrt(s2 / np.sum((x - xb) ** 2)))
    else:
        slope_se = float(np.sqrt(1.0 / sxx))
    return slope, slope_se
