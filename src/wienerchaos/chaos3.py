"""Third Wiener chaos: symmetric 3-tensors, the carre du champ, and the
Gaussian matrix that encodes its law spectrally.

A tensor a(i,j,k), symmetric and vanishing on coincident indices, defines
F = sum over ordered triples of a(i,j,k) X_i X_j X_k.  Unit variance means
E F^2 = 6 * sum over ordered triples of a^2 = 36 * sum_{i<j<k} a^2 = 1
(this convention reproduces both E Gamma = 3 and E Tr(A_hat^2) = 3/2).

On an independent copy X_hat, the sharp gradient of F is the quadratic
form of the random symmetric matrix A_hat with entries
3 sum_k a(i,j,k) X_hat_k; its spectrum carries the law of Gamma[F,F]
through E exp(-Gamma xi^2 / 2) = E_hat prod_k (1 - 2 i xi lam_k)^(-1/2).

The module holds the tensor, batch kernels that map Gaussian points to
Gamma, sharp matrices, their Newton sums and spectra, and the exact
routes (trace form, kappa_4 and Var Gamma).  The dense kernels read two
cached contractions of the tensor: the unfolding 3a.reshape(n, n^2),
with A_hat(xhat) = xhat @ it, and its columns i < j, U, with
grad F(x) = 2 U @ (x_j x_k)_{j<k}; the sharp kernels issue their GEMMs
through one stack loop, _sharp_stacks.  It draws nothing: the runner
reduces the kernels by Monte Carlo and decides every check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .chaos2 import (UNIT_VAR_TOL, DiagonalSecondChaos, PreconditionError,
                     scaled_norm)
from .wick import GaussianPolynomial, isserlis_expectation

EXACT_MODE_MAX_N = 6   # Isserlis cost cap of the constructor's self-check
STEP_ELEMENTS = 250_000   # per-step temporaries of the Gamma kernels (2 MB)
SPECTRUM_TOL = 1e-10   # zero-trace tolerance of spectra_batch
# One GEMM of the pair, sharp and contraction kernels: OpenBLAS runs a
# GEMM of at most 65536 x 4 multiply-adds (GEMM_MULTITHREAD_THRESHOLD) on
# the calling thread, so the threads of mc.reduce do not queue for its
# pool, whose woken threads spin and can stall a call (measured in
# OpenBLAS 0.3.31 at 2 threads; the figures are in CHANGES.md).
GEMM_MADDS = 1 << 18
# Points of one GEMM stack: exactly that many in the pair kernel, at least
# that many in a sharp one (each packs the n x n^2 unfolding: at n > 16,
# shorter sharp stacks measured slower than the BLAS pool)
GEMM_POINTS = 64


class EigenSolverError(RuntimeError):
    """The symmetric eigensolver failed to meet its residual contract."""


class SymThreeTensor:
    """Symmetric 3-tensor, zero on coincident indices, on [1, n]^3.

    The triples are held as arrays: `triples`, the 0-based index rows
    i < j < k of shape (nnz, 3), and `values`, in the order given; both are
    read-only.  The dense array `a`, with all permutations filled in, and
    the sharp unfoldings are built on first access; gamma_batch never
    builds `a`.
    """

    def __init__(self, n: int, entries, normalize: bool = False):
        self.n = _checked_dimension(n)
        triples, values = _checked_triples(dict(entries), self.n)
        if normalize:
            norm = scaled_norm(values)
            if norm == 0.0:
                raise ValueError("cannot normalize an all-zero tensor")
            values = values * (1.0 / (6.0 * norm))
        triples.flags.writeable = values.flags.writeable = False
        self.triples, self.values = triples, values
        if not math.isfinite(self.variance):    # the squares overflow
            raise ValueError(f"variance {self.variance} is not finite: "
                             "pass normalize=True or rescale the entries")
        if self.variance < np.finfo(float).tiny and values.any():
            raise ValueError(f"variance {self.variance} underflows: pass "
                             "normalize=True or rescale the entries")
        if self.n <= EXACT_MODE_MAX_N:
            # cheap self-check of the variance convention vs the oracle
            p = self.to_polynomial()
            ref = isserlis_expectation(p * p)
            if abs(ref - self.variance) > 1e-10 * max(1.0, abs(ref)):
                raise AssertionError("internal variance self-check failed")

    @cached_property
    def a(self) -> np.ndarray:
        a = np.zeros((self.n, self.n, self.n))
        for p in permutations(self.triples.T):
            a[p] = self.values
        a.flags.writeable = False
        return a

    @cached_property
    def _sharp_unfolding(self) -> np.ndarray:
        """3a.reshape(n, n^2): A_hat(xhat) = xhat @ this, read-only."""
        u = (3.0 * self.a).reshape(self.n, self.n * self.n)
        u.flags.writeable = False
        return u

    @cached_property
    def _sharp_upper(self) -> np.ndarray:
        """U = 3a[:, i<j] of shape (n, n(n-1)/2), read-only: xhat @ U lists
        A_hat(xhat) above its diagonal, and grad F(x) = 2 U @ pairs(x) for
        the products x_j x_k, j < k, in np.triu_indices order (pair (j, k)
        at column j(2n - j - 1)/2 + k - j - 1).  Filled from the triples,
        column-major like 3.0 * a[:, i, j]: the GEMMs' bits depend on it."""
        n, v = self.n, 3.0 * self.values
        i, j, k = self.triples.T
        u = np.zeros((n, n * (n - 1) // 2), order="F")
        for target, lo, hi in ((i, j, k), (j, i, k), (k, i, j)):
            u[target, lo * (2 * n - lo - 1) // 2 + hi - lo - 1] = v
        u.flags.writeable = False
        return u

    @cached_property
    def _scatter(self):
        """The triple list as gathers plus run-ordered segment sizes.

        Slot m of the 3 * nnz slots contributes w[m] * x[left[m]] *
        x[right[m]] to partial_t F for its target t, with weight 6 a(i,j,k)
        on each of the three slots of a triple.  Slots are ordered by
        their place in their target's run (CSR order: i, j, then k), then
        by target, longest runs first: the q-th slots of all targets form
        block q of sizes[q] rows, whose targets are a prefix of block 0.
        The sparse twin of _sharp_upper: it gathers only the pairs that
        some triple uses.
        """
        i, j, k = self.triples.T
        target = np.concatenate([i, j, k])
        order = np.argsort(target, kind="stable")
        runs = np.bincount(target, minlength=self.n)
        starts = np.cumsum(runs) - runs   # of each target's run
        place = np.arange(target.size) - starts[target[order]]
        rank = np.empty(self.n, dtype=np.intp)
        rank[np.argsort(-runs, kind="stable")] = np.arange(self.n)
        order = order[np.lexsort((rank[target[order]], place))]
        left = np.concatenate([j, i, i])[order]
        right = np.concatenate([k, k, j])[order]
        w = np.tile(6.0 * self.values, 3)[order, None]
        return left, right, w, tuple(np.bincount(place, minlength=1).tolist())

    @cached_property
    def variance(self) -> float:
        # a square that overflows to inf is named by the constructor
        with np.errstate(over="ignore", under="ignore"):
            return 36.0 * math.fsum(np.square(self.values).tolist())

    @property
    def unit_variance(self) -> bool:
        return abs(self.variance - 1.0) <= UNIT_VAR_TOL

    def to_polynomial(self) -> GaussianPolynomial:
        terms: dict[tuple, float] = {}
        for (i, j, k), v in zip(self.triples.tolist(), self.values.tolist()):
            if v == 0.0:
                continue
            e = [0] * self.n
            e[i] = e[j] = e[k] = 1
            terms[tuple(e)] = 6.0 * v   # 6 ordered triples per i<j<k
        return GaussianPolynomial(self.n, terms)

    def __repr__(self):
        return (f"SymThreeTensor(n={self.n}, triples={self.values.size}, "
                f"variance={self.variance:.6g})")


def _checked_dimension(n) -> int:
    """A tensor dimension as an int, or a ValueError if it is below 3."""
    n = int(n)
    if n < 3:
        raise ValueError("dimension must be >= 3")
    return n


def _checked_triples(entries: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a tensor on [1, n] as 0-based index rows i < j < k,
    shape (nnz, 3), and their float values, in the given order.

    Integer triples and real values are checked as arrays.  Other types,
    or a failed check, take the entries through _checked_entry one at a
    time, so the first bad entry raises its own error.
    """
    keys, vals = list(entries), list(entries.values())
    try:
        trips, values = np.array(keys), np.array(vals)
    except ValueError:    # ragged triples or values
        trips = values = np.array(None)
    if (trips.dtype.kind in "iu" and values.dtype.kind in "fiu"
            and trips.shape == (len(keys), 3)
            and values.shape == (len(keys),)):
        i, j, k = trips.T
        values = values.astype(float)
        if (np.all((1 <= i) & (i < j) & (j < k) & (k <= n))
                and np.all(np.isfinite(values))):
            return trips.astype(np.intp) - 1, values
    canon = dict(_checked_entry(trip, val, n)
                 for trip, val in entries.items())
    return (np.array(list(canon), dtype=np.intp).reshape(-1, 3) - 1,
            np.array(list(canon.values()), dtype=float))


def _checked_entry(trip, val, n: int) -> tuple[tuple, float]:
    """One (triple, value) entry of a tensor on [1, n] as ints and a float,
    or a ValueError naming what is wrong with it."""
    i, j, k = (int(v) for v in trip)
    if not (1 <= i < j < k <= n):
        raise ValueError(
            f"triple {trip!r} must satisfy 1 <= i < j < k <= {n} "
            "(coincident or unordered indices are invalid)")
    val = float(val)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value at {trip!r}")
    return (i, j, k), val


def read_tensor_file(path, normalize: bool = False) -> SymThreeTensor:
    """Read the plain-text tensor format.

    Lines starting with '#' are comments.  The first data line is the
    dimension N; every following line is 'i j k value' with 1 <= i<j<k <= N,
    and no triple may appear twice.  normalize rescales to variance 1.
    """
    n = None
    entries: dict[tuple, float] = {}
    first_line: dict[tuple, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != (1 if n is None else 4):
                raise ValueError(f"{path}:{lineno}: expected " + (
                    "the dimension header" if n is None else "'i j k value'"))
            try:
                nums = ([int(v) for v in parts[:3]]
                        + [float(v) for v in parts[3:]])
                if n is None:
                    n = _checked_dimension(nums[0])
                    continue
                trip, val = _checked_entry(tuple(nums[:3]), nums[3], n)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if trip in first_line:
                raise ValueError(
                    f"{path}:{lineno}: triple {trip} repeats the one on "
                    f"line {first_line[trip]}")
            first_line[trip] = lineno
            entries[trip] = val
    if n is None:
        raise ValueError(f"{path}: missing dimension header")
    return SymThreeTensor(n, entries, normalize=normalize)


# ---------------------------------------------------------------------------
# carre du champ and the sharp matrix
# ---------------------------------------------------------------------------

def gamma_batch(t: SymThreeTensor, x: np.ndarray) -> np.ndarray:
    """Gamma[F,F] = |grad F|^2 for a batch of points, shape (batch, n).

    The tensor's fill picks the kernel: the triple scatter costs O(nnz)
    per point, the pair GEMM n^2(n-1)/2 multiply-adds at a far higher
    flop rate.
    """
    x = _batch(t, x)
    if _triples_win(t.values.size, t.n):
        return _gamma_triples(t, x)
    return _gamma_pairs(t, x)


def _batch(t: SymThreeTensor, x) -> np.ndarray:
    """x as a float batch of points of the tensor's space, shape (B, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != t.n:
        raise ValueError(f"batch must have shape (B, {t.n})")
    return x


def _triples_win(nnz: int, n: int) -> bool:
    # measured crossover against the pair GEMM: nnz ~ n^2 / 6 at
    # n = 20 .. 60, 65536 rows in 4096-row calls
    return 6 * nnz < n * n


def _gamma_triples(t: SymThreeTensor, x: np.ndarray) -> np.ndarray:
    """Gamma by the triple scatter: O(nnz) per point, `a` never built.

    Each gradient row sums its slots in CSR order, a segment sum of the
    run-ordered slot blocks of SymThreeTensor._scatter.
    """
    left, right, w, sizes = t._scatter
    out = np.empty(x.shape[0])
    # two gathers and their product: 3 * left.size elements per row
    step = max(1, STEP_ELEMENTS // (3 * max(1, left.size)))
    for s in range(0, x.shape[0], step):
        # sample-minor layout: each gathered row is contiguous
        xt = np.ascontiguousarray(x[s:s + step].T)
        p = xt[left]
        p *= xt[right]
        p *= w
        g, off = p[:sizes[0]], sizes[0]
        for size in sizes[1:]:
            g[:size] += p[off:off + size]
            off += size
        out[s:s + step] = np.einsum('ib,ib->b', g, g)
    return out


def _gamma_pairs(t: SymThreeTensor, x: np.ndarray) -> np.ndarray:
    """Gamma by the pair GEMM: grad F(x) = 2 U @ pairs(x) with U the
    upper unfolding _sharp_upper, n^2(n-1)/2 multiply-adds per point on a
    slab of pair products, and Gamma = 4 |U @ pairs(x)|^2, an exact
    power-of-two scale.

    The slab holds up to STEP_ELEMENTS values, at least one stack of
    GEMM_POINTS points; the last stack is padded with zero points.  Its
    product is a stack of GEMMs of GEMM_POINTS columns, each over a run
    of pairs short enough that it does at most GEMM_MADDS multiply-adds,
    summed run by run in pair order.
    """
    n, u = t.n, t._sharp_upper
    n_pairs = u.shape[1]
    cols = GEMM_POINTS
    depth = max(1, GEMM_MADDS // (n * cols))
    out = np.empty(x.shape[0])
    step = max(1, STEP_ELEMENTS // (n_pairs * cols)) * cols
    slab = np.empty(n_pairs * min(step, -(-x.shape[0] // cols) * cols))
    for s in range(0, x.shape[0], step):
        rows = x[s:s + step]
        stack = -(-rows.shape[0] // cols)
        # sample-minor layout: row j of xt is x_j over the step's points
        xt = np.zeros((n, stack * cols))
        xt[:, :rows.shape[0]] = rows.T
        pairs = slab[:n_pairs * xt.shape[1]].reshape(n_pairs, xt.shape[1])
        off = 0
        for j in range(n - 1):
            np.multiply(xt[j], xt[j + 1:], out=pairs[off:off + n - 1 - j])
            off += n - 1 - j
        stacked = pairs.reshape(n_pairs, stack, cols).transpose(1, 0, 2)
        g = u[:, :depth] @ stacked[:, :depth]
        for k in range(depth, n_pairs, depth):
            g += u[:, k:k + depth] @ stacked[:, k:k + depth]
        out[s:s + rows.shape[0]] = 4.0 * np.einsum(
            'bic,bic->bc', g, g).reshape(-1)[:rows.shape[0]]
    return out


def _sharp_stacks(t: SymThreeTensor, xhat, u: np.ndarray):
    """(rows, xhat[rows] @ u) over a batch of source vectors, one sharp
    GEMM stack per slice on an unfolding u of t: at most GEMM_MADDS
    multiply-adds, but at least GEMM_POINTS rows (so above the cap at
    n > 16 on the full unfolding, at n > 20 on its upper half).  Each
    product is written into one stack-sized buffer, which the next step
    overwrites; the caller may use it as scratch until then."""
    xhat = _batch(t, xhat)
    step = max(GEMM_POINTS, GEMM_MADDS // (t.n * u.shape[1]))
    buf = np.empty((min(step, xhat.shape[0]), u.shape[1]))
    for s in range(0, xhat.shape[0], step):
        x = xhat[s:s + step]
        yield slice(s, s + step), np.matmul(x, u, out=buf[:len(x)])


def sharp_batch(t: SymThreeTensor, xhat: np.ndarray) -> np.ndarray:
    """Sharp matrices A_hat(i,j) = 3 sum_k a(i,j,k) xhat_k (zero diagonal,
    zero trace), shape (B, n, n), for source vectors xhat of shape (B, n).

    A GEMM on the unfolding: A_hat(xhat) = xhat @ 3a.reshape(n, n^2),
    which contracts the first slot; by symmetry that is any slot.  The
    unfolding is cached with the tensor, and the product is issued one
    _sharp_stacks stack at a time.
    """
    xhat = _batch(t, xhat)
    out = np.empty((xhat.shape[0], t.n * t.n))
    for rows, m in _sharp_stacks(t, xhat, t._sharp_unfolding):
        out[rows] = m
    return out.reshape(-1, t.n, t.n)


def trace_square_batch(t: SymThreeTensor, xhat: np.ndarray) -> np.ndarray:
    """Tr(A_hat^2) = sum_{i,j} A_hat_ij^2 = 2 sum_{i<j} A_hat_ij^2 for a
    batch of source vectors, shape (B, n): the first Newton sum.

    A_hat is symmetric with a zero diagonal, so its entries above the
    diagonal carry the sum: one _sharp_stacks stack per step on the
    cached (n, n(n-1)/2) upper unfolding, half of sharp_batch's.
    """
    xhat = _batch(t, xhat)
    out = np.empty(xhat.shape[0])
    for rows, upper in _sharp_stacks(t, xhat, t._sharp_upper):
        out[rows] = np.einsum('bp,bp->b', upper, upper)
    out *= 2.0
    return out


def sharp_power_sums(t: SymThreeTensor, xhat: np.ndarray,
                     q_max: int) -> np.ndarray:
    """Newton sums N_q = Tr((A_hat^2)^q) = sum_k lam_k^(2q), q = 1..q_max,
    of the sharp matrices of a batch of source vectors (B, n); shape
    (q_max, B).

    No eigensolve: with M2 = A_hat @ A_hat, N_1 = ||A_hat||_F^2 and
    N_q = <M2^ceil(q/2), M2^floor(q/2)>_F, so q_max sums cost
    ceil(q_max / 2) batched products.  That is about ceil(q_max / 2) n^3
    flops per row against the eigensolve's n^3: measured on 2 CPUs, the
    products win at every q_max <= n up to n = 36, but at n = 48 and 60
    they lose beyond q_max of about n / 2 (1.4x and 2.2x slower at
    q_max = n).  Each step is one _sharp_stacks stack, and M2 and one
    product buffer sit beside its stack buffer.
    """
    xhat = _batch(t, xhat)
    n = t.n
    if not 1 <= q_max <= n:
        raise ValueError(f"q_max must lie in 1..{n}")
    out = np.empty((q_max, xhat.shape[0]))
    bufs = None
    for rows, m in _sharp_stacks(t, xhat, t._sharp_unfolding):
        m = m.reshape(-1, n, n)
        out[0, rows] = np.einsum('bij,bij->b', m, m)
        if q_max == 1:
            continue
        if bufs is None:     # M2 and a product buffer (used from q = 5)
            bufs = np.empty((2, *m.shape))
        m2 = low = np.matmul(m, m, out=bufs[0, :len(m)])
        for q in range(2, q_max + 1):   # at step q, low = M2^floor(q/2)
            # the products of q = 3, 7, ... overwrite A_hat's stack,
            # those of q = 5, 9, ... the product buffer
            high = (np.matmul(low, m2,
                              out=m if q % 4 == 3 else bufs[1, :len(m)])
                    if q % 2 else low)
            out[q - 1, rows] = np.einsum('bij,bij->b', high, low)
            low = high
    return out


def spectra_batch(t: SymThreeTensor, xhat: np.ndarray) -> np.ndarray:
    """Spectra of the sharp matrices of a batch of source vectors, shape
    (B, n), each row ordered by decreasing |lambda|.

    eigvalsh solves each _sharp_stacks stack from its buffer.
    Zero-trace hygiene: a row whose sum breaks SPECTRUM_TOL (relative to
    its largest |lambda|) is recentred.
    """
    xhat = _batch(t, xhat)
    w = np.empty(xhat.shape)
    for rows, m in _sharp_stacks(t, xhat, t._sharp_unfolding):
        w[rows] = np.linalg.eigvalsh(m.reshape(-1, t.n, t.n))
    norms = np.abs(w).max(axis=1)
    sums = w.sum(axis=1)
    bad = np.abs(sums) > SPECTRUM_TOL * np.maximum(1.0, norms)
    if np.any(bad):
        w[bad] -= (sums[bad] / w.shape[1])[:, None]
    order = np.argsort(-np.abs(w), axis=1, kind="stable")
    return np.take_along_axis(w, order, axis=1)


# ---------------------------------------------------------------------------
# trace form Tr(A_hat^2) as a positive quadratic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceFormSpectrum:
    """Tr(A_hat^2) = xhat' B xhat = sum_k beta_k G_k^2.

    For a unit-variance tensor sum(beta) = E Tr(A_hat^2) = 3/2 and
    Var Tr(A_hat^2) = 2 Tr(B^2).
    """

    b_matrix: np.ndarray
    betas: np.ndarray
    var_trace: float

    @property
    def expected_trace(self) -> float:
        return float(self.betas.sum())

    def to_diagonal_chaos(self) -> DiagonalSecondChaos:
        """Tr(A_hat^2) as a second-chaos object with Gamma = Tr(A_hat^2).

        The diagonal coefficients alpha_k = sqrt(beta_k)/2 give
        4 sum alpha_k^2 G_k^2 = sum beta_k G_k^2, so the second-chaos
        negative-moment machinery applies verbatim to the trace form.
        """
        alphas = np.sqrt(self.betas[self.betas > 0]) / 2.0
        return DiagonalSecondChaos(alphas)


def trace_form(t: SymThreeTensor) -> TraceFormSpectrum:
    """B_{kl} = 9 sum_{i,j} a(i,j,k) a(i,j,l), eigendecomposed."""
    if not t.unit_variance:
        raise PreconditionError("requires a unit-variance tensor")
    n = t.n
    r = t.a.reshape(n * n, n)
    b = 9.0 * (r.T @ r)
    betas = np.linalg.eigvalsh(b)
    if betas.min() < -1e-10:
        raise EigenSolverError("trace form produced a negative eigenvalue")
    betas = np.clip(betas, 0.0, None)[::-1].copy()
    var_trace = float(2.0 * np.sum(b * b))
    return TraceFormSpectrum(b, betas, var_trace)


# ---------------------------------------------------------------------------
# fourth cumulant and the variance of Gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class K4VarGamma:
    kappa4: float
    var_gamma: float


def _contractions(t: SymThreeTensor) -> tuple[float, float]:
    """v1 = ||a x_1 a||^2 and the K4 cycle
    v2 = C4(a) = sum a(a,b,c) a(a,d,e) a(b,d,f) a(c,e,f), one slice of
    the Gram at a time.

    c = r' r with r = a.reshape(n, n^2) is a x_1 a, indexed (bc, de); as a
    is symmetric, it is also sum_f a(b,d,f) a(c,e,f) indexed (bd, ce), so
    v1 = sum c^2 and v2 = sum c[b,c,d,e] c[b,d,c,e].  Both sums pair
    only entries that share b: the slice X_b = r[:, bn:(b+1)n]' r =
    c[(b,.),(.,.)] of n^3 values carries all of slot b's terms, and the
    n^2 x n^2 Gram is never built.  Each slice is issued as GEMMs of at
    most max(1, GEMM_MADDS // n^3) rows (at most GEMM_MADDS multiply-adds
    up to n = 64).
    """
    n = t.n
    r = t.a.reshape(n, n * n)   # rows indexed by the contracted slot
    x = np.empty((n, n * n))
    x3 = x.reshape(n, n, n)
    step = max(1, GEMM_MADDS // n ** 3)
    v1 = v2 = 0.0
    for b in range(n):
        rb = r[:, b * n:(b + 1) * n].T
        for s in range(0, n, step):
            np.matmul(rb[s:s + step], r, out=x[s:s + step])
        v1 += float(np.sum(x * x))
        v2 += float(np.einsum('cde,dce->', x3, x3))
    return v1, v2


def kappa4_contraction(t: SymThreeTensor) -> float:
    """Exact kappa_4(F) by tensor contractions, any dimension (the kappa4
    of kappa4_and_var_gamma)."""
    return kappa4_and_var_gamma(t).kappa4


def kappa4_and_var_gamma(t: SymThreeTensor) -> K4VarGamma:
    """kappa_4(F) and Var Gamma[F,F], exactly, at any dimension.

    Pairing the twelve Gaussian factors of F^4 leaves two connected
    classes: the doubled 4-cycle, whose value is ||a x_1 a||^2, and the
    all-pairs (K4) cycle C4(a).  Counting slot matchings gives
    kappa_4 = 1944 ||a x_1 a||^2 + 1296 C4(a) (the q = 3 contraction
    formula, Nourdin-Peccati 2012, section 5.2), and
    Var Gamma = kappa_4 + 1296 ||a x_1 a||^2.  The tests check kappa_4
    against the Isserlis expansion (n <= 6) and against the symmetrised
    contraction formula (n > 6), and both values against the closed
    forms of the block family and Monte Carlo (n > 6).
    """
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        v1, v2 = _contractions(t)
    kappa4 = 1944.0 * v1 + 1296.0 * v2
    var_gamma = kappa4 + 1296.0 * v1
    # 0 <= kappa4 <= Var Gamma: one bound on each covers both
    if not (np.finfo(float).tiny <= kappa4 and var_gamma < math.inf):
        raise PreconditionError(f"kappa4 = {kappa4} and Var Gamma = "
                                f"{var_gamma} overflow or underflow: "
                                "normalize the tensor")
    return K4VarGamma(kappa4, var_gamma)
