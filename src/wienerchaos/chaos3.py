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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from . import mc
from .chaos2 import (UNIT_VAR_TOL, DiagonalSecondChaos, PreconditionError,
                     log_char_product, newton_to_elementary, scaled_norm)
from .wick import GaussianPolynomial, isserlis_expectation

EXACT_MODE_MAX_N = 6   # Isserlis cost cap of the constructor's self-check
STEP_ELEMENTS = 250_000   # per-step temporaries (2 MB); the pair slab takes 4x
SPECTRUM_TOL = 1e-10   # zero-trace tolerance of spectra_batch
MIN_HITS = 50          # fewer hits or misses: the point leaves the slope fit
SP_ALPHA_GRID = np.geomspace(1e-3, 1.0, 7)   # S_hat_p small-ball grid
SP_ALPHA_GRID.flags.writeable = False


class EigenSolverError(RuntimeError):
    """The symmetric eigensolver failed to meet its residual contract."""


class SymThreeTensor:
    """Symmetric 3-tensor, zero on coincident indices, on [1, n]^3.

    entries maps strictly increasing 1-based triples (i, j, k) to values.
    The dense array `a`, with all permutations filled in, is built on
    first access and kept read-only; gamma_batch never builds it.
    """

    def __init__(self, n: int, entries, normalize: bool = False):
        self.n = _checked_dimension(n)
        canon = dict(_checked_entry(trip, val, self.n)
                     for trip, val in dict(entries).items())
        if normalize:
            norm = scaled_norm(list(canon.values()))
            if norm == 0.0:
                raise ValueError("cannot normalize an all-zero tensor")
            scale = 1.0 / (6.0 * norm)
            canon = {t: v * scale for t, v in canon.items()}
        self.entries = canon
        if not math.isfinite(self.variance):    # the squares overflow
            raise ValueError(f"variance {self.variance} is not finite: "
                             "pass normalize=True or rescale the entries")
        if self.n <= EXACT_MODE_MAX_N:
            # cheap self-check of the variance convention vs the oracle
            p = self.to_polynomial()
            ref = isserlis_expectation(p * p)
            if abs(ref - self.variance) > 1e-10 * max(1.0, abs(ref)):
                raise AssertionError("internal variance self-check failed")

    @cached_property
    def a(self) -> np.ndarray:
        a = np.zeros((self.n, self.n, self.n))
        for (i, j, k), v in self.entries.items():
            for p in permutations((i - 1, j - 1, k - 1)):
                a[p] = v
        a.flags.writeable = False
        return a

    def _gradient_triples(self):
        """The triples as 0-based index arrays i < j < k, and the weight
        6 a(i,j,k) that each of their slots carries in grad F."""
        trips = np.array(list(self.entries), dtype=np.intp).reshape(-1, 3) - 1
        vals = 6.0 * np.fromiter(self.entries.values(), float,
                                 len(self.entries))
        return (*trips.T, vals)

    @cached_property
    def _scatter(self):
        """The triple list as gathers plus a scatter matrix.

        Slot m of the 3 * nnz slots contributes w[t, m] * x[left[m]] *
        x[right[m]] to partial_t F, so grad F(x) = w @ (x[left] * x[right])
        with weight 6 a(i,j,k) on each of the three slots of a triple.
        Slots are ordered by their target row.  The sparse twin of
        _pair_weights: it gathers only the pairs that some triple uses.
        """
        from scipy import sparse   # loads only on first sparse use

        i, j, k, vals = self._gradient_triples()
        target = np.concatenate([i, j, k])
        order = np.argsort(target, kind="stable")
        left = np.concatenate([j, i, i])[order]
        right = np.concatenate([k, k, j])[order]
        w = sparse.csr_matrix(
            (np.tile(vals, 3)[order], (target[order], np.arange(target.size))),
            shape=(self.n, target.size))
        return left, right, w

    @cached_property
    def _pair_weights(self) -> np.ndarray:
        """W of shape (n, n(n-1)/2) with grad F(x) = W @ pairs(x).

        pairs(x) lists the products x_j x_k, j < k, row by row of the
        strict upper triangle: pair (j, k) sits at column
        off_j + k - j - 1, with off_j = j(2n - j - 1)/2.  Column (j, k)
        holds 6 a(i,j,k) in row i.
        """
        n = self.n
        i, j, k, vals = self._gradient_triples()
        w = np.zeros((n, n * (n - 1) // 2))
        for target, lo, hi in ((i, j, k), (j, i, k), (k, i, j)):
            w[target, lo * (2 * n - lo - 1) // 2 + hi - lo - 1] = vals
        w.flags.writeable = False
        return w

    @property
    def variance(self) -> float:
        return 36.0 * math.fsum(v * v for v in self.entries.values())

    @property
    def unit_variance(self) -> bool:
        return abs(self.variance - 1.0) <= UNIT_VAR_TOL

    def to_polynomial(self) -> GaussianPolynomial:
        terms: dict[tuple, float] = {}
        for (i, j, k), v in self.entries.items():
            if v == 0.0:
                continue
            e = [0] * self.n
            e[i - 1] = e[j - 1] = e[k - 1] = 1
            terms[tuple(e)] = 6.0 * v   # 6 ordered triples per i<j<k
        return GaussianPolynomial(self.n, terms)

    def __repr__(self):
        return (f"SymThreeTensor(n={self.n}, triples={len(self.entries)}, "
                f"variance={self.variance:.6g})")


def _checked_dimension(n) -> int:
    """A tensor dimension as an int, or a ValueError if it is below 3."""
    n = int(n)
    if n < 3:
        raise ValueError("dimension must be >= 3")
    return n


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


def write_tensor_file(t: SymThreeTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# symmetric 3-tensor: dimension, then 'i j k value' "
                 "(1-based, i<j<k)\n")
        fh.write(f"{t.n}\n")
        for (i, j, k), v in sorted(t.entries.items()):
            fh.write(f"{i} {j} {k} {v:.17g}\n")


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
    if _triples_win(len(t.entries), t.n):
        return _gamma_triples(t, x)
    return _gamma_pairs(t, x)


def _batch(t: SymThreeTensor, x) -> np.ndarray:
    """x as a float batch of points of the tensor's space, shape (B, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != t.n:
        raise ValueError(f"batch must have shape (B, {t.n})")
    return x


def _triples_win(nnz: int, n: int) -> bool:
    # measured crossover against the pair GEMM: nnz ~ n^2 / 4 at
    # n = 20 .. 60, 65536 rows in 4096-row calls
    return 4 * nnz < n * n


def _gamma_triples(t: SymThreeTensor, x: np.ndarray) -> np.ndarray:
    """Gamma by the triple scatter: O(nnz) per point, `a` never built."""
    left, right, w = t._scatter
    out = np.empty(x.shape[0])
    # two gathers and their product: 3 * left.size elements per row
    step = max(1, STEP_ELEMENTS // (3 * max(1, left.size)))
    for s in range(0, x.shape[0], step):
        # sample-minor layout: each gathered row is contiguous
        xt = np.ascontiguousarray(x[s:s + step].T)
        g = w @ (xt[left] * xt[right])
        out[s:s + step] = np.einsum('ib,ib->b', g, g)
    return out


def _gamma_pairs(t: SymThreeTensor, x: np.ndarray) -> np.ndarray:
    """Gamma by the pair GEMM: grad F(x) = W @ pairs(x), one GEMM of
    n^2(n-1)/2 multiply-adds per point on a slab of pair products.

    The slab holds up to 4 * STEP_ELEMENTS values (8 MB), so at n <= 22
    it takes a whole 4096-row reduction step in one GEMM.  Measured at
    n = 20 and 40, slabs of 1x and 2x STEP_ELEMENTS were slower (more,
    smaller GEMMs) and 8x or 16x no faster.
    """
    n, w = t.n, t._pair_weights
    n_pairs = w.shape[1]
    out = np.empty(x.shape[0])
    step = max(1, 4 * STEP_ELEMENTS // n_pairs)
    slab = np.empty(n_pairs * min(step, x.shape[0]))
    for s in range(0, x.shape[0], step):
        # sample-minor layout: row j of xt is x_j over the step's points
        xt = np.ascontiguousarray(x[s:s + step].T)
        pairs = slab[:n_pairs * xt.shape[1]].reshape(n_pairs, xt.shape[1])
        off = 0
        for j in range(n - 1):
            np.multiply(xt[j], xt[j + 1:], out=pairs[off:off + n - 1 - j])
            off += n - 1 - j
        g = w @ pairs
        out[s:s + step] = np.einsum('ib,ib->b', g, g)
    return out


def sharp_batch(t: SymThreeTensor, xhat: np.ndarray) -> np.ndarray:
    """Sharp matrices A_hat(i,j) = 3 sum_k a(i,j,k) xhat_k (zero diagonal,
    zero trace), shape (B, n, n), for source vectors xhat of shape (B, n).

    One GEMM on the unfolding: A_hat(xhat) = xhat @ 3a.reshape(n, n^2),
    which contracts the first slot; by symmetry that is any slot.
    """
    xhat = _batch(t, xhat)
    n = t.n
    return (xhat @ (3.0 * t.a).reshape(n, n * n)).reshape(-1, n, n)


def _sharp_steps(t: SymThreeTensor, n_rows: int):
    """Yield slices of a batch of n_rows source vectors whose sharp
    matrices fill a cache-sized step of STEP_ELEMENTS float64 values."""
    step = max(1, STEP_ELEMENTS // (t.n * t.n))
    for s in range(0, n_rows, step):
        yield slice(s, s + step)


def trace_square_batch(t: SymThreeTensor, xhat: np.ndarray) -> np.ndarray:
    """Tr(A_hat^2) = sum_{i,j} A_hat_{ij}^2 for a batch of source vectors,
    shape (B, n): the first Newton sum."""
    return sharp_power_sums(t, xhat, 1)[0]


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
    q_max = n).
    """
    xhat = _batch(t, xhat)
    if not 1 <= q_max <= t.n:
        raise ValueError(f"q_max must lie in 1..{t.n}")
    out = np.empty((q_max, xhat.shape[0]))
    for rows in _sharp_steps(t, xhat.shape[0]):
        m = sharp_batch(t, xhat[rows])
        out[0, rows] = np.einsum('bij,bij->b', m, m)
        if q_max == 1:
            continue
        m2 = low = m @ m      # at step q, low = M2^floor(q/2)
        for q in range(2, q_max + 1):
            high = low @ m2 if q % 2 else low
            out[q - 1, rows] = np.einsum('bij,bij->b', high, low)
            low = high
    return out


def spectra_batch(t: SymThreeTensor, xhat: np.ndarray) -> np.ndarray:
    """Spectra of the sharp matrices of a batch of source vectors, shape
    (B, n), each row ordered by decreasing |lambda|.

    eigvalsh solves each matrix on its own.  Zero-trace hygiene: a row
    whose sum breaks SPECTRUM_TOL (relative to its largest |lambda|) is
    recentred.
    """
    xhat = _batch(t, xhat)
    w = np.empty(xhat.shape)
    for rows in _sharp_steps(t, xhat.shape[0]):
        w[rows] = np.linalg.eigvalsh(sharp_batch(t, xhat[rows]))
    norms = np.abs(w).max(axis=1)
    sums = w.sum(axis=1)
    bad = np.abs(sums) > SPECTRUM_TOL * np.maximum(1.0, norms)
    if np.any(bad):
        w[bad] -= (sums[bad] / w.shape[1])[:, None]
    order = np.argsort(-np.abs(w), axis=1, kind="stable")
    return np.take_along_axis(w, order, axis=1)


# ---------------------------------------------------------------------------
# spectral identity for the Laplace transform of Gamma
# ---------------------------------------------------------------------------

def _grid(values, cast=float) -> list:
    """A grid of scalars as a list; a single scalar is a one-point grid.
    An integer grid rejects a value that is not an integer, by name."""
    values = np.ravel(values)
    if cast is int:
        for v in values:
            if not float(v).is_integer():
                raise ValueError(f"the grid must hold integers, got {v}")
    grid = [cast(v) for v in values]
    if not grid:
        raise ValueError("the grid is empty")
    return grid


@dataclass(frozen=True)
class GammaSpecCheck:
    xi: float
    lhs: mc.EstimatorResult      # E exp(-Gamma xi^2 / 2)
    rhs_re: mc.EstimatorResult   # Re E_hat prod (1 - 2 i xi lam)^(-1/2)
    rhs_im: mc.EstimatorResult   # Im of the same, 0 by symmetry


def verify_gamma_spec(t: SymThreeTensor, xi_grid, n_samples: int,
                      seed: int) -> list[GammaSpecCheck]:
    """Both sides of the spectral identity, independently estimated, at
    every xi of the grid; one GammaSpecCheck per xi.

    lhs averages exp(-xi^2 Gamma / 2) over X (stream 0); rhs averages the
    factor-wise complex product over the spectrum of A_hat sampled from
    X_hat (stream 1).  Each side draws once for the whole grid.  The
    imaginary part of rhs should vanish by the sign symmetry of the
    spectrum's law.
    """
    xis = _grid(xi_grid)
    if n_samples < 1000:
        raise ValueError("need at least 1e3 samples")

    def fn_lhs(rng, cnt):
        g = gamma_batch(t, rng.standard_normal((cnt, t.n)))
        return np.stack([np.exp(-0.5 * xi * xi * g) for xi in xis], axis=1)

    def fn_rhs(rng, cnt):
        lams = spectra_batch(t, rng.standard_normal((cnt, t.n)))
        z = np.stack([np.exp(log_char_product(x * lams)) for x in xis], axis=1)
        return np.concatenate([z.real, z.imag], axis=1)

    (lhs,) = mc.reduce(fn_lhs, n_samples, mc.RngSpec(seed, 0), mc.Moments())
    (rhs,) = mc.reduce(fn_rhs, n_samples, mc.RngSpec(seed, 1), mc.Moments())
    parts = rhs.results()     # real parts, then imaginary parts
    return [GammaSpecCheck(xi, left, re, im) for xi, left, re, im
            in zip(xis, lhs.results(), parts, parts[len(xis):])]


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
    total = float(betas.sum())
    if abs(total - 1.5) > 1e-12 * max(1.0, total):
        raise AssertionError(
            f"sum of betas {total!r} != 3/2 for a unit-variance tensor")
    var_trace = float(2.0 * np.sum(b * b))
    return TraceFormSpectrum(b, betas, var_trace)


# ---------------------------------------------------------------------------
# fourth cumulant and the variance of Gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class K4VarGamma:
    kappa4: float
    var_gamma: float
    bound_holds: bool    # sqrt(Var Gamma) <= 3 sqrt(kappa4)


def _contractions(t: SymThreeTensor) -> tuple[float, float]:
    """v1 = ||a x_1 a||^2 and the K4 cycle
    v2 = C4(a) = sum a(a,b,c) a(a,d,e) a(b,d,f) a(c,e,f), from one GEMM.

    c = r' r with r = a.reshape(n, n^2) is a x_1 a, indexed (bc, de); as a
    is symmetric, it is also sum_f a(b,d,f) a(c,e,f) indexed (bd, ce).
    """
    n = t.n
    r = t.a.reshape(n, n * n)   # rows indexed by the contracted slot
    c = r.T @ r
    c4 = c.reshape(n, n, n, n)
    return float(np.sum(c * c)), float(np.einsum('bcde,bdce->', c4, c4))


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
    if not math.isfinite(var_gamma):    # never finite when kappa4 is not
        raise PreconditionError(f"kappa4 = {kappa4} and Var Gamma = "
                                f"{var_gamma} overflow: normalize the tensor")
    holds = bool(math.sqrt(max(var_gamma, 0.0))
                 <= 3.0 * math.sqrt(max(kappa4, 0.0))
                 + 1e-9 * max(1.0, abs(kappa4)))
    return K4VarGamma(kappa4, var_gamma, holds)


# ---------------------------------------------------------------------------
# spectral radius, small-ball and negative moments by Monte Carlo
# ---------------------------------------------------------------------------

def spectral_radius_moments(t: SymThreeTensor, p_grid, n_samples: int,
                            seed: int) -> list[mc.EstimatorResult]:
    """(E |lam_1|^(2p))^(1/(2p)) with a delta-method standard error, one
    result per p of the grid, all from one pass over stream 0."""
    ps = _grid(p_grid, int)
    if min(ps) < 1:
        raise ValueError("p must be >= 1")

    def fn(rng, cnt):
        lams = spectra_batch(t, rng.standard_normal((cnt, t.n)))
        lam1 = np.abs(lams[:, 0])
        return np.stack([lam1 ** (2 * p) for p in ps], axis=1)

    (moments,) = mc.reduce(fn, n_samples, mc.RngSpec(seed, 0), mc.Moments())
    out = []
    for p, raw in zip(ps, moments.results()):
        if raw.mean <= 0.0:
            out.append(mc.EstimatorResult(0.0, 0.0, raw.n))
            continue
        est = raw.mean ** (1.0 / (2 * p))
        se = est * raw.stderr / (2 * p * raw.mean)
        out.append(mc.EstimatorResult(float(est), float(se), raw.n))
    return out


@dataclass(frozen=True)
class SmallBallResult:
    eps: np.ndarray
    phat: np.ndarray
    se: np.ndarray
    hits: np.ndarray
    used: np.ndarray          # points with enough hits and misses for the fit
    slope: float
    slope_se: float
    widened: bool             # True when some point left the fit
    n: int


def smallball_gamma3(t: SymThreeTensor, eps_grid, n_samples: int,
                     seed: int) -> SmallBallResult:
    """Empirical P(Gamma < eps) over a grid plus a log-log slope fit.

    The fit weighs each point by its binomial standard error, a normal
    approximation that needs many hits and many misses: a grid point with
    fewer than MIN_HITS of either leaves the fit and is flagged (widened
    grid) rather than failing the run; fewer than 3 points left for the
    fit is a ValueError.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size < 3:
        raise ValueError("eps_grid must hold at least 3 values")
    if np.any(eps <= 0) or np.any(np.diff(eps) <= 0):
        raise ValueError("eps_grid must be positive and increasing")
    (hits,) = mc.reduce(
        lambda rng, cnt: gamma_batch(t, rng.standard_normal((cnt, t.n))),
        n_samples, mc.RngSpec(seed, 0), mc.Hits(eps))
    (phat,), (se,) = hits.fractions()
    n, counts = hits.n, hits.counts[0]
    used = (counts >= MIN_HITS) & (n - counts >= MIN_HITS)
    if used.sum() < 3:
        raise ValueError(
            f"only {int(used.sum())} of {eps.size} eps grid points reach "
            f"min_hits={MIN_HITS} (largest hit count {int(counts.max())} "
            f"and smallest miss count {int(n - counts.min())} of {n} "
            "samples); at least 3 are needed for the slope fit: move the "
            "eps grid or raise the sample count")
    slope, slope_se = mc.loglog_slope(eps[used], phat[used], se[used])
    return SmallBallResult(eps, phat, se, counts, used, slope, slope_se,
                           bool(np.any(~used)), n)


@dataclass(frozen=True)
class NegativeMomentResult:
    estimate: mc.EstimatorResult
    theta: float
    top_share: float      # mass fraction carried by the top 0.1% summands
    unstable: bool        # top_share > 0.5: heavy-tail warning


def negative_moment_gamma3(t: SymThreeTensor, theta_grid, n_samples: int,
                           seed: int) -> list[NegativeMomentResult]:
    """Monte Carlo E Gamma^(-theta) with a heavy-tail instability flag,
    one result per theta of the grid, all from one pass over stream 0."""
    thetas = _grid(theta_grid)
    if not all(0.0 < theta < 1.0 for theta in thetas):
        raise ValueError("theta must lie in (0, 1)")

    def fn(rng, cnt):
        g = gamma_batch(t, rng.standard_normal((cnt, t.n)))
        return np.stack([g ** (-theta) for theta in thetas], axis=1)

    moments, top = mc.reduce(fn, n_samples, mc.RngSpec(seed, 0), mc.Moments(),
                             mc.TopShare(max(1, n_samples // 1000)))
    return [NegativeMomentResult(est, theta, float(share), bool(share > 0.5))
            for est, theta, share in zip(moments.results(), thetas,
                                         top.share)]


# ---------------------------------------------------------------------------
# elementary symmetric functions of the squared spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpBatchResult:
    p: int
    estimate: mc.EstimatorResult     # E S_hat_p
    lower_bound: float                # (1/2) 3^p / (2^p p!)
    alpha: np.ndarray                 # small-ball grid for S_hat_p
    phat: np.ndarray
    se: np.ndarray


def sp_batch_estimate(t: SymThreeTensor, p_grid, n_samples: int,
                      seed: int) -> list[SpBatchResult]:
    """Estimate E S_hat_p next to its lower bound, and record the
    empirical small-ball curve P(S_hat_p < alpha) over SP_ALPHA_GRID, for
    every p of the grid from one pass over stream 0.

    S_hat_p, the p-th elementary symmetric function of the squared
    spectrum of A_hat, comes from the Newton sums of sharp_power_sums by
    the Newton-Girard recursion; no spectrum is computed.
    """
    ps = _grid(p_grid, int)
    if min(ps) < 1 or max(ps) > t.n:
        raise ValueError(f"p must lie in 1..{t.n}")
    cols = np.array(ps) - 1

    def fn(rng, cnt):
        newton = sharp_power_sums(t, rng.standard_normal((cnt, t.n)), max(ps))
        return newton_to_elementary(newton)[cols].T

    moments, hits = mc.reduce(fn, n_samples, mc.RngSpec(seed, 0), mc.Moments(),
                              mc.Hits(SP_ALPHA_GRID))
    out = []
    for p, est, phat, se in zip(ps, moments.results(), *hits.fractions()):
        lb = 0.5 * 3.0 ** p / (2.0 ** p * math.factorial(p))
        out.append(SpBatchResult(p, est, float(lb), SP_ALPHA_GRID, phat, se))
    return out


def dtv_bound(kappa4: float) -> float:
    """Fourth-moment total-variation bound sqrt(kappa4 / 3), unclamped."""
    if kappa4 < 0:
        raise ValueError("kappa4 must be >= 0")
    return math.sqrt(kappa4 / 3.0)
