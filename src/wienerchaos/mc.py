"""Deterministic, parallel Monte Carlo substrate.

Sampling is organized in fixed-size chunks addressed by a counter-based
generator (Philox; Salmon et al., SC 2011).  The key is (seed, stream) and
each chunk occupies its own counter block, so a sample's point depends
only on (seed, stream, sample index).

One reduction serves every estimator and does all the drawing:
reduce(fn, n, spec, dim, *accumulators) draws each sample's standard
Gaussian point of dim coordinates and hands fn's values at the points,
one row per sample and one column per quantity (say, the points of a
grid), to every accumulator.  fn maps points; it never sees a generator.
Within a chunk the points are drawn in sample order, in steps of
STEP_SAMPLES rows (the last one shorter), from the chunk's generator, and
fn sees one step per call.  The chunks are mapped in rounds of one chunk
per usable CPU, and the step is the unit of work: a round's steps are
dealt to one thread per CPU, each chunk's steps draw in turn, and each
round is merged in block order once all its threads are joined.

What fixes the bits: (seed, stream, sample index) fix a sample's point;
CHUNK_SAMPLES and STEP_SAMPLES fix the batches fn is called on, and so
its values, since a kernel's bits may depend on its batch (a GEMM's do:
the same rows inside a larger call can differ in the last bit); block
order fixes every merge.  The number of threads fixes none of them.

Moments gives each column's mean and standard error (pairwise sums
within a chunk, the Chan-Golub-LeVeque merge across chunks in block
order), Hits exact counts of x < t, TopShare the share of the total
carried by the k largest values.  Results are bitwise reproducible on
one platform, and a column's bits do not depend on the columns beside
it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Samples per counter block.  Fixed: changing it changes the sample stream.
CHUNK_SAMPLES = 1 << 16
# Rows per fn call within a block: bounds the arrays drawn (3.1 MB of
# normals at dimension 192, per worker).  Fixed: it sets the batches fn
# sees, and so the bits of a batch-dependent kernel.
STEP_SAMPLES = 1 << 11

_U64 = 1 << 64


class PoisonedSampleError(ValueError):
    """fn returned a non-finite value (a ValueError: the CLI exits 2)."""


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


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo mean with standard error and sample count."""

    mean: float
    stderr: float
    n: int


def chunks(spec: RngSpec, n: int):
    """Yield (block_index, count, generator) covering n samples.

    The partition is a pure function of n; workers may consume blocks in
    any order as long as results are merged in block order.
    """
    nblocks = (n + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    for j in range(nblocks):
        cnt = min(CHUNK_SAMPLES, n - j * CHUNK_SAMPLES)
        yield j, cnt, spec.generator(block=j)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where os has
    one, else os.cpu_count() (1 if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def reduce(fn: Callable[[np.ndarray], np.ndarray], n: int, spec: RngSpec,
           dim: int, *accumulators):
    """Feed fn's values at n Gaussian points of dimension dim, drawn from
    the stream spec, to the accumulators.

    fn(x) maps the points x of one step (module docstring), an array of
    shape (count, dim) that fn may overwrite, to a float array of shape
    (count,) or (count, m).  fn must be a pure map that several threads
    may call at once.  The steps' transposes fill one sample-minor array
    per chunk, shape (m, count), rows contiguous, and every accumulator
    gets that same array, chunk by chunk in block order.  A step whose
    column count differs from the chunk's first step is a ValueError.  A
    non-finite value raises PoisonedSampleError naming the chunk, the
    column and the sample index.  Returns the accumulators.

    The chunks are mapped in rounds of W, W the usable CPUs.  A round's
    steps are listed one from each of its chunks in turn, and thread t
    of min(W, steps) maps entries t, t + W, t + 2W, ...: the calling
    thread is t = 0, the others are fresh helpers.  So a full round of
    equal chunks gives each thread one chunk, and a round of one chunk
    shares its steps among all of them.  A step draws from its chunk's
    generator only once the chunk's step before it has drawn, so every
    chunk draws in sample order.  The helpers are joined, and the round
    is merged in block order: at most W chunks are mapped ahead of the
    merge, the first chunk in block order that fails (at its first
    failing step) raises its error, and no helper outlives the call.
    """
    if n < 100:
        raise ValueError("need at least 100 samples")
    blocks = list(chunks(spec, n))
    cpus = usable_cpus()

    def assembled(j, cnt, values):
        """One chunk's (m, cnt) array from its steps' values, checked."""
        xt = None
        for s, x in zip(range(0, cnt, STEP_SAMPLES), values):
            if isinstance(x, BaseException):
                raise x
            k = min(STEP_SAMPLES, cnt - s)
            if x.ndim not in (1, 2) or x.shape[0] != k:
                raise ValueError(f"fn returned shape {x.shape}, "
                                 f"expected ({k},) or ({k}, m)")
            x = x.reshape(k, -1)
            if xt is None:
                xt = np.empty((x.shape[1], cnt))
            elif x.shape[1] != xt.shape[0]:
                raise ValueError(f"fn returned {x.shape[1]} columns, but "
                                 f"{xt.shape[0]} at the chunk's first step")
            xt[:, s:s + k] = x.T
        if not np.isfinite(xt).all():
            bad = ~np.isfinite(xt)
            col = int(np.argmax(bad.any(axis=1)))
            row = int(np.argmax(bad[col]))
            raise PoisonedSampleError(
                f"non-finite sample value in chunk {j}, column {col}, "
                f"sample {j * CHUNK_SAMPLES + row} "
                f"(seed={spec.seed}, stream={spec.stream})")
        return xt

    for first in range(0, len(blocks), cpus):
        round_ = blocks[first:first + cpus]
        # (chunk, first row) of each step, one from each chunk in turn
        steps = [(i, s) for s in range(0, CHUNK_SAMPLES, STEP_SAMPLES)
                 for i, (_, cnt, _) in enumerate(round_) if s < cnt]
        threads = min(cpus, len(steps))
        drawn = {step: threading.Event() for step in steps}
        out = {}     # step -> fn's values, or what the step raised

        def map_steps(t):
            for i, s in steps[t::threads]:
                _, cnt, rng = round_[i]
                try:
                    try:
                        if s:
                            drawn[i, s - STEP_SAMPLES].wait()
                        x = rng.standard_normal(
                            (min(STEP_SAMPLES, cnt - s), dim))
                    finally:
                        drawn[i, s].set()
                    out[i, s] = np.asarray(fn(x), dtype=float)
                except BaseException as exc:   # raised by the merge, in order
                    out[i, s] = exc

        helpers = []
        try:
            for t in range(1, threads):
                thread = threading.Thread(target=map_steps, args=(t,),
                                          name=f"mc.reduce-{t}")
                thread.start()
                helpers.append(thread)
            map_steps(0)
        except BaseException:
            for event in drawn.values():   # the caller left mid-round: no
                event.set()                # helper may wait on its draws
            raise
        finally:
            for thread in helpers:
                thread.join()
        for i, (j, cnt, _) in enumerate(round_):
            xt = assembled(j, cnt, [out.pop((i, s))
                                    for s in range(0, cnt, STEP_SAMPLES)])
            for acc in accumulators:
                acc.add(xt)
    return accumulators


class Moments:
    """Mean and standard error of each column, merged across chunks."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0   # m2: squared deviations

    def add(self, xt: np.ndarray) -> None:
        # a contiguous row sums like a 1-D array: a column gets the bits it
        # would get alone.  Then the Chan-Golub-LeVeque combine.
        cnt = xt.shape[1]
        cm = xt.mean(axis=1)
        cm2 = np.sum((xt - cm[:, None]) ** 2, axis=1)
        tot = self.n + cnt
        delta = cm - self.mean
        self.mean = self.mean + delta * cnt / tot
        self.m2 = self.m2 + cm2 + delta * delta * self.n * cnt / tot
        self.n = tot

    def results(self) -> list[EstimatorResult]:
        """One EstimatorResult per column."""
        stderr = np.sqrt(self.m2 / (self.n - 1) / self.n)
        return [EstimatorResult(float(m), float(s), self.n)
                for m, s in zip(self.mean, stderr)]


class Hits:
    """Exact counts of x < t for each column and threshold t."""

    def __init__(self, thresholds):
        self.thresholds = np.asarray(thresholds, dtype=float).ravel()
        self.n, self.counts = 0, 0    # counts: int64 (columns, thresholds)

    def add(self, xt: np.ndarray) -> None:
        # one threshold at a time: no (columns, count, thresholds) array
        self.counts = self.counts + np.stack(
            [np.count_nonzero(xt < t, axis=1) for t in self.thresholds],
            axis=1, dtype=np.int64)
        self.n += xt.shape[1]

    def fractions(self) -> tuple[np.ndarray, np.ndarray]:
        """Hit fractions and their binomial standard errors."""
        phat = self.counts / self.n
        return phat, np.sqrt(phat * (1.0 - phat) / self.n)


class TopShare:
    """Share of each column's total carried by its k largest values."""

    def __init__(self, k: int):
        if int(k) < 1:
            raise ValueError(f"TopShare needs k >= 1, got k={k}")
        self.k, self.top, self.total = int(k), None, 0.0

    def add(self, xt: np.ndarray) -> None:
        self.total = self.total + xt.sum(axis=1)
        top = xt if self.top is None else np.concatenate([self.top, xt], 1)
        if top.shape[1] > self.k:
            top = np.partition(top, top.shape[1] - self.k, axis=1)
        self.top = top[:, -self.k:].copy()   # a view would pin all of top

    @property
    def share(self) -> np.ndarray:
        return self.top.sum(axis=1) / np.where(self.total > 0, self.total,
                                               np.inf)


def estimate(fn: Callable[[np.ndarray], np.ndarray], n: int, spec: RngSpec,
             dim: int) -> EstimatorResult:
    """Monte Carlo mean of fn, a map of (count, dim) points to (count,)."""
    (moments,) = reduce(fn, n, spec, dim, Moments())
    return moments.results()[0]


def loglog_slope(eps, phat, se) -> tuple[float, float]:
    """Weighted least-squares slope of log(phat) against log(eps), and its
    standard error.

    eps, phat, se: arrays of at least 3 points, each with eps, phat and se
    > 0, else a ValueError.  Each point weighs by the inverse square of its
    propagated error se/phat.
    """
    eps, phat, se = (np.asarray(v, dtype=float) for v in (eps, phat, se))
    if not (eps.size == phat.size == se.size >= 3
            and np.all(eps > 0) and np.all(phat > 0) and np.all(se > 0)):
        raise ValueError("need at least 3 points, each with eps, phat and "
                         "se > 0")
    x = np.log(eps)
    y = np.log(phat)
    w = 1.0 / (se / phat) ** 2
    xb = np.average(x, weights=w)
    yb = np.average(y, weights=w)
    sxx = float(np.sum(w * (x - xb) ** 2))
    slope = float(np.sum(w * (x - xb) * (y - yb)) / sxx)
    return slope, float(np.sqrt(1.0 / sxx))
