"""Second Wiener chaos from explicit coefficients.

Diagonal representation F = sum_k alpha_k (G_k^2 - 1) and the generic
matrix representation F_i = X' A_i X - Tr A_i.  Everything here that has a
closed form (cumulants, symmetric functions, Laplace transform,
characteristic function) is computed exactly from the coefficients.  The
module returns numbers and draws nothing: the runner compares them with
their thresholds, bounds and Monte Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_VAR_TOL = 1e-12
MELLIN_REL_TOL = 1e-13   # negative_moment: agreement of two step levels
MAX_GRID_NODES = 1 << 21   # largest uniform grid of either transform
DENSITY_TAIL_EPS = 1e-8   # density_by_inversion: |phi| at the xi cutoff
SPHERE_RESOLUTION = 64   # points of sphere_grid, before the two +-e_1
MAX_SERIES_TERMS = 1 << 15   # smallball_cdf: terms of Ruben's series


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class DivergenceError(ValueError):
    """The requested negative moment does not exist."""


class QuadratureError(ValueError):
    """The trapezoid sums did not settle to the accuracy target."""


class NonIntegrableError(ValueError):
    """The characteristic function is not absolutely integrable."""


class NodeCapError(ValueError):
    """The density inversion would need more than MAX_GRID_NODES xi nodes."""


class SeriesCapError(ValueError):
    """The small-ball series would need more than MAX_SERIES_TERMS terms."""


class MomentOverflowError(ValueError):
    """The requested moment is finite but exceeds the largest double."""


class DiagonalSecondChaos:
    """F = sum_k alpha_k (G_k^2 - 1) for a finite real coefficient vector.

    Variance is 2*sum(alpha^2); with normalize=True the coefficients are
    rescaled so the variance is exactly 1.  The all-zero vector is
    rejected (degenerate variable).
    """

    def __init__(self, alphas, normalize: bool = False):
        a = np.asarray(alphas, dtype=float).reshape(-1)
        if a.size == 0:
            raise ValueError("need at least one coefficient")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        if np.all(a == 0.0):
            raise ValueError("all-zero coefficient vector has variance 0")
        if normalize:
            a = a / (math.sqrt(2.0) * scaled_norm(a))
        a = a.copy()
        a.flags.writeable = False
        self.alphas = a

    @property
    def m(self) -> int:
        return int(self.alphas.size)

    @property
    def variance(self) -> float:
        # no square of a coefficient over- or underflows; the variance may
        norm = scaled_norm(self.alphas)
        return 2.0 * norm * norm

    @property
    def unit_variance(self) -> bool:
        return abs(self.variance - 1.0) <= UNIT_VAR_TOL

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.alphas))

    def sample_gamma(self, g: np.ndarray) -> np.ndarray:
        """The carre du champ 4 sum_k alpha_k^2 G_k^2 at the points g."""
        return np.square(g) @ (4.0 * self.alphas ** 2)

    def __repr__(self):
        return f"DiagonalSecondChaos(m={self.m}, variance={self.variance:.6g})"


def scaled_norm(v) -> float:
    """sqrt(sum v^2), summed in order, on v scaled by a power of two near
    max |v|: no square over- or underflows, and where the plain sum is
    finite and nonzero the exact scaling keeps its bits."""
    v = np.asarray(v, dtype=float)
    _, e = math.frexp(float(np.max(np.abs(v), initial=0.0)))
    w = np.ldexp(v, -e)
    # the running sum adds in order, as a Python sum would; np.sum pairs
    total = float(np.cumsum(w * w)[-1]) if w.size else 0.0
    return math.ldexp(math.sqrt(total), e)


@dataclass(frozen=True)
class SymmetricFunctionTable:
    """Newton sums, elementary symmetric functions and even cumulants.

    Index convention: newton[p-1] = N_p = sum alpha^(2p),
    elementary[p-1] = S_p, cumulants[p-1] = kappa_{2p}, for p = 1..p_max.
    """

    p_max: int
    newton: np.ndarray
    elementary: np.ndarray
    cumulants: np.ndarray


def newton_to_elementary(newton: np.ndarray) -> np.ndarray:
    """Newton-Girard recursion p*S_p = sum_i (-1)^(i-1) N_i S_{p-i}.

    newton has shape (p_max, ...); returns S of the same shape.  Works on
    batches along trailing axes (used for the Newton sums of batches of
    sharp matrices too).
    """
    newton = np.asarray(newton, dtype=float)
    p_max = newton.shape[0]
    s_prev = [np.ones_like(newton[0])]  # S_0 = 1
    out = np.empty_like(newton)
    for p in range(1, p_max + 1):
        acc = np.zeros_like(newton[0])
        for i in range(1, p + 1):
            acc += ((-1.0) ** (i - 1)) * newton[i - 1] * s_prev[p - i]
        sp = acc / p
        out[p - 1] = sp
        s_prev.append(sp)
    return out


def newton_cumulants(f: DiagonalSecondChaos, p_max: int) -> SymmetricFunctionTable:
    """Exact N_p, S_p and kappa_{2p} for p = 1..p_max.

    kappa_{2p}(F) = 2^(2p-1) (2p-1)! N_p, and S_p follows from the
    Newton-Girard recursion on the squared coefficients.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    a2 = f.alphas ** 2
    newton = np.array([np.sum(a2 ** p) for p in range(1, p_max + 1)])
    cumul = np.array([
        (2.0 ** (2 * p - 1)) * math.factorial(2 * p - 1) * newton[p - 1]
        for p in range(1, p_max + 1)])
    elem = newton_to_elementary(newton)
    return SymmetricFunctionTable(p_max, newton, elem, cumul)


@dataclass(frozen=True)
class SpDeviation:
    lhs: float   # |S_p - 1/(2^p p!)|
    rhs: float   # p * kappa_4 / 48


def check_sp_deviation(f: DiagonalSecondChaos, p: int) -> SpDeviation:
    """Deviation of S_p from its Gaussian-limit value against p*kappa4/48."""
    if not f.unit_variance:
        raise PreconditionError("requires a unit-variance variable")
    if p < 1:
        raise ValueError("p must be >= 1")
    table = newton_cumulants(f, max(p, 2))
    lhs = abs(table.elementary[p - 1] - 1.0 / (2.0 ** p * math.factorial(p)))
    kappa4 = table.cumulants[1]
    rhs = p * kappa4 / 48.0
    return SpDeviation(float(lhs), float(rhs))


def laplace_gamma(f: DiagonalSecondChaos, lam):
    """E exp(-lam * Gamma[F,F]) = prod_k (1 + 8 lam alpha_k^2)^(-1/2).

    The product runs over the nonzero coefficients.  Takes lam of any
    shape and returns that shape (0-d for a scalar).
    """
    lam_arr = np.asarray(lam, dtype=float)
    if (lam_arr < 0).any():
        raise ValueError("lam must be >= 0")
    a = f.alphas[f.alphas != 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a ** 2
        # inf where lam alpha^2 overflows: exp(-log1p(inf)) = 0
        lam_a2 = 8.0 * np.multiply.outer(lam_arr, a2)
    logs = np.log1p(lam_a2)
    big = np.isinf(a2)    # alpha^2 overflowed: log1p(8 lam alpha^2) by logs
    if big.any():
        with np.errstate(divide="ignore"):    # lam = 0: log 0 = -inf
            logs[..., big] = np.logaddexp(
                0.0, (math.log(8.0) + np.log(lam_arr))[..., None]
                + 2.0 * np.log(np.abs(a[big])))
    return np.exp(-0.5 * logs.sum(-1))


def thm1_threshold(p: int) -> float:
    """eta_p = 24 / (2^p (p+1)!): kappa_4 < eta_p puts 1/Gamma in L^q for
    every q < p/2."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return 24.0 / (2.0 ** p * math.factorial(p + 1))


def smallball_bound(p: int, eps: float) -> float:
    """Tail bound sqrt(2 p!)/2^p * eps^(p/2) on P(Gamma < eps)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return math.sqrt(2.0 * math.factorial(p)) / 2.0 ** p * eps ** (p / 2.0)


def smallball_cdf(f: DiagonalSecondChaos, eps) -> np.ndarray:
    """P(Gamma[F,F] < eps) for each eps > 0, by Ruben's (1962) series.

    Gamma = sum_k w_k G_k^2 with w_k = 4 alpha_k^2 over the m nonzero
    coefficients.  With beta = min w, y = eps / (2 beta) and P(a, y) the
    regularised lower incomplete gamma function,
    P(Gamma < eps) = sum_j c_j P(m/2 + j, y), where c_0 = prod
    (beta/w_k)^(1/2), c_j = (1/2j) sum_{r<j} g_{j-r} c_r and g_j =
    sum_k (1 - beta/w_k)^j; the c_j are positive and sum to 1.  The
    lower series of P(a, y) turns this into one positive sum
    sum_n t_n C_n, t_n = y^(m/2+n) e^-y / Gamma(m/2+n+1), C_n = c_0 + ...
    + c_n.  C_n is taken as C_J past the J of _mixing_terms, where
    1 - C_J <= 2^-52.  The sum stops at the first N = 64 * 2^k whose tail
    bound t_N / (1 - y/(m/2+N+1)), from C_n <= 1, is at most 2^-52 of
    it; SeriesCapError if that needs more than MAX_SERIES_TERMS terms,
    which happens as w_max/w_min or eps/E Gamma grows.
    """
    eps = np.asarray(eps, dtype=float).ravel()
    if not np.all((eps > 0) & np.isfinite(eps)):
        raise ValueError("eps must be finite and > 0")
    a = np.abs(f.alphas[f.alphas != 0.0])
    half_m, lo = a.size / 2.0, float(a.min())
    q = lo / a                                   # (beta / w_k)^(1/2)
    q2, log_c0 = q * q, float(np.sum(np.log(q)))
    with np.errstate(over="ignore", under="ignore"):
        y = eps / (8.0 * lo) / lo    # beta = 4 lo^2, never squared
    cap = SeriesCapError(f"P(Gamma < {eps.max():g}) needs more than "
                         f"{MAX_SERIES_TERMS} terms of Ruben's series")
    if y.max() >= half_m + MAX_SERIES_TERMS:
        raise cap
    tiny = y < np.finfo(float).tiny
    log_y = np.log(np.where(tiny, 1.0, y))
    log_y[tiny] = np.log(eps[tiny]) - math.log(8.0 * lo) - math.log(lo)
    mixing_terms = _mixing_terms(q2, log_c0) + 1
    n_terms = 64
    while n_terms <= MAX_SERIES_TERMS:
        log_cum = _log_mixing_cdf(q2, log_c0, min(n_terms, mixing_terms))
        nu = half_m + np.arange(n_terms + 1)
        log_t = (nu * log_y[:, None] - y[:, None]
                 - np.array([math.lgamma(v + 1.0) for v in nu]))
        terms = log_t[:, :-1] + log_cum[np.minimum(np.arange(n_terms),
                                                   log_cum.size - 1)]
        top = terms.max(axis=1)
        log_sum = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        ratio = y / (nu[-1] + 1.0)        # bounds t_(n+1) / t_n for n >= N
        with np.errstate(divide="ignore"):
            log_tail = log_t[:, -1] - np.log1p(-np.minimum(ratio, 1.0))
        if np.all(log_tail <= log_sum + math.log(2.0 ** -52)):
            return np.exp(log_sum)
        n_terms *= 2
    raise cap


def _mixing_terms(q2: np.ndarray, log_c0: float) -> int:
    """A J with 1 - C_J <= 2^-52, by Chernoff's bound, or
    MAX_SERIES_TERMS if the bound finds none.  Ruben's c_j are the law of
    K, a sum of independent negative binomials (1/2, 1 - q2_k), so
    1 - C_J = P(K > J) <= E[rho^K] / rho^(J+1) with E[rho^K] = c_0 prod
    (rho q2_k - (rho - 1))^(-1/2) for 1 < rho < 1 / (1 - min q2); the
    smallest J over a grid of log rho is returned."""
    if q2.min() == 1.0:
        return 0
    log_rho = -math.log1p(-float(q2.min())) * np.linspace(0, 1, 258)[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mgf = log_c0 - 0.5 * np.log(
            np.exp(log_rho)[:, None] * q2 - np.expm1(log_rho)[:, None]
        ).sum(axis=1)
        j = np.min((log_mgf + 52.0 * math.log(2.0)) / log_rho)
    return int(math.ceil(min(j, MAX_SERIES_TERMS)))


def _log_mixing_cdf(q2: np.ndarray, log_c0: float, n: int) -> np.ndarray:
    """log C_j = log(c_0 + ... + c_j) of Ruben's weights for j < n, one
    dot per step, with g_j = sum_k (1 - q2_k)^j.  The c_j are kept as
    ratios to a running power-of-two scale, so c_0 may lie far below the
    smallest double."""
    d, g = np.empty(n), np.empty(n)
    d[0], total, log_scale = 1.0, 1.0, log_c0
    gam, power = 1.0 - q2, np.ones_like(q2)
    out = [log_c0]
    for j in range(1, n):
        power *= gam
        g[j] = power.sum()
        d[j] = g[j:0:-1] @ d[:j] / (2.0 * j)
        total += d[j]
        if total > 2.0 ** 512:
            d[:j + 1] *= 2.0 ** -512
            total *= 2.0 ** -512
            log_scale += 512.0 * math.log(2.0)
        out.append(log_scale + math.log(total))
    return np.array(out)


def negative_moment(f: DiagonalSecondChaos, q: float) -> float:
    """E Gamma[F,F]^(-q) = (1/Gamma(q)) int_R e^(qt) L(e^t) dt, L the
    Laplace transform, by one trapezoid sum in t = log lam; q < m/2.

    With Gamma scaled to mean 1, exp(-e^t) is subtracted and its integral
    Gamma(q), a lower bound of the whole, added back; the rest decays like
    e^((q+2)t) to the left.  Tails are cut below unit roundoff of Gamma(q),
    logs are scaled by their maximum, and the step is halved from 1/2 until
    two levels agree to MELLIN_REL_TOL, else QuadratureError.
    """
    if q <= 0:
        raise ValueError("q must be > 0")
    a = f.alphas[f.alphas != 0.0]
    m, scale = a.size, float(np.abs(a).max())
    if q >= m / 2.0:
        raise DivergenceError(
            f"E Gamma^(-q) diverges for q >= m/2 (q={q}, m={m})")

    a2 = (a / scale) ** 2
    log_c = math.log(4.0 * float(np.sum(a2))) + 2.0 * math.log(scale)
    a2 /= 4.0 * np.sum(a2)          # now E Gamma = 4 sum alpha^2 = 1
    logs, counts = np.unique(np.log(8.0 * a2), return_counts=True)
    d = 16.0 * float(np.sum(a2 * a2))
    log_tol = math.log(2.0 ** -53) + math.lgamma(q)
    # L(e^t) <= e^(-mt/2) prod (8 alpha^2)^(-1/2); and while d lam^2 <= 1,
    # L(lam) e^lam - 1 <= 2 d lam^2, from x - log1p(x) <= x^2 / 2
    decay = m / 2.0 - q
    t_hi = (-0.5 * float(counts @ logs) - math.log(decay) - log_tol) / decay
    t_lo = min(-0.5 * math.log(d),
               (log_tol + math.log((q + 2.0) / (2.0 * d))) / (q + 2.0))
    h, prev = 0.5, None
    while (t_hi - t_lo) / h < MAX_GRID_NODES:
        t = t_lo + h * np.arange(math.ceil((t_hi - t_lo) / h) + 1)
        log_g = q * t - 0.5 * sum(k * np.logaddexp(0.0, t + b)
                                  for b, k in zip(logs, counts))
        top = float(log_g.max())
        with np.errstate(over="ignore"):   # exp(-e^t) is 0 there anyway
            g = np.exp(log_g - top) - np.exp(q * t - np.exp(t) - top)
        val = 1.0 + math.exp(top - math.lgamma(q)) * np.trapezoid(g, dx=h)
        if prev is not None and abs(val - prev) <= MELLIN_REL_TOL * val:
            log_moment = math.log(val) - q * log_c
            try:
                return math.exp(log_moment)
            except OverflowError:
                raise MomentOverflowError(
                    f"E Gamma^(-q) = exp({log_moment:.6g}) exceeds the "
                    f"largest double (q={q}): rescale the coefficients"
                ) from None
        prev, h = val, 0.5 * h
    raise QuadratureError(f"no agreement in {MAX_GRID_NODES} nodes, q={q}")


def log_char_product(z):
    """log prod_k (1 - 2 i z_k)^(-1/2) over the last axis of z, principal
    branch factor-wise."""
    w = 2.0 * np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        logs = np.log1p(w * w)
    big = np.isinf(logs)    # w^2 overflowed: there log1p(w^2) is 2 log|w|
    logs[big] = 2.0 * np.log(np.abs(w[big]))
    log_mod = -0.25 * np.sum(logs, axis=-1)
    return log_mod + 1j * (0.5 * np.sum(np.arctan(w), axis=-1))


def char_function(f: DiagonalSecondChaos, xi):
    """E exp(i xi F) = prod_k exp(-i alpha_k xi) (1 - 2 i alpha_k xi)^(-1/2)
    for xi of any shape, returned in that shape (0-d for a scalar)."""
    ax = np.multiply.outer(np.asarray(xi, dtype=float), f.alphas)
    return np.exp(log_char_product(ax) - 1j * np.sum(ax, axis=-1))


def density_by_inversion(f: DiagonalSecondChaos, x_min: float = -6.0,
                         x_max: float = 6.0, dx: float = 0.01):
    """(xs, density) of F, needing >= 3 nonzero coefficients:
    (1/pi) Re int_0^inf phi(xi) e^(-i xi x) dxi.

    Trapezoid rule on xi_n = n dxi up to the first node with |phi| <=
    DENSITY_TAIL_EPS, found on a geometric grid; NodeCapError past
    MAX_GRID_NODES.  As n k = (n^2 + k^2 - (k-n)^2) / 2, the sum at
    x_k = x_min + k dx is one chirp convolution (Bluestein's chirp-z).
    """
    if f.nonzero_count() < 3:
        raise NonIntegrableError(
            "need >= 3 nonzero coefficients for an integrable |phi|")
    if not (x_min < x_max and dx > 0):
        raise ValueError(f"bad grid x_min={x_min:g}, x_max={x_max:g}, "
                         f"dx={dx:g}: need x_min < x_max and dx > 0")
    dxi = min(0.02, math.pi / (32.0 * max(abs(x_min), abs(x_max), 1.0)))
    probe = dxi * 2.0 ** np.arange(0.0, math.log2(MAX_GRID_NODES), 0.0625)
    below = np.abs(char_function(f, probe)) <= DENSITY_TAIL_EPS
    if not below.any():
        raise NodeCapError(
            f"|phi| > {DENSITY_TAIL_EPS} past {MAX_GRID_NODES} nodes")
    phi = char_function(
        f, dxi * np.arange(math.ceil(probe[below.argmax()] / dxi) + 1))
    n = int(np.argmax(np.abs(phi) <= DENSITY_TAIL_EPS)) + 1

    xs = np.arange(x_min, x_max + 0.5 * dx, dx)
    j = np.arange(1 - n, xs.size)      # j = k - n
    chirp = np.exp(0.5j * dxi * dx * j * j)
    u = dxi * phi[:n] * np.exp(-1j * dxi * x_min * np.arange(n))
    u *= np.conj(chirp[n - 1::-1])
    u[[0, -1]] *= 0.5      # trapezoid end weights
    size = 1 << (j.size - 1).bit_length()
    conv = np.fft.ifft(np.fft.fft(u, size)
                       * np.fft.fft(chirp, size))[n - 1:j.size]
    return xs, (conv * np.conj(chirp[n - 1:])).real / math.pi


# ---------------------------------------------------------------------------
# multivariate second chaos
# ---------------------------------------------------------------------------

class MultivariateSecondChaos:
    """F_i = X' A_i X - Tr A_i for symmetric matrices A_1..A_d.

    Cov(F_i, F_j) = 2 Tr(A_i A_j); the carre du champ between components
    is the quadratic form Gamma[F_i, F_j] = 4 X' A_i A_j X.
    """

    def __init__(self, mats):
        ms = [np.asarray(m, dtype=float) for m in mats]
        if not ms:
            raise ValueError("need at least one matrix")
        shape = ms[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(
                m.shape != shape for m in ms):
            raise ValueError("matrices must be square and same dimension")
        a = np.array(ms)
        bad = ~np.isfinite(a).all(axis=(1, 2))
        if bad.any():
            raise ValueError(
                f"matrix {int(bad.argmax()) + 1} has a non-finite entry")
        atol = 1e-12 * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        if (np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > atol).any():
            raise ValueError("matrices must be symmetric")
        a.flags.writeable = False
        self.mats = a    # (d, n, n), read-only

    @property
    def d(self) -> int:
        return self.mats.shape[0]

    def products(self) -> np.ndarray:
        """A_i A_j for every pair, shape (d, d, n, n)."""
        return self.mats[:, None] @ self.mats[None, :]

    def covariance(self) -> np.ndarray:
        return 2.0 * np.trace(self.products(), axis1=2, axis2=3)

    def combined(self, t) -> np.ndarray:
        """A_t = sum_i t_i A_i, summed in order of i, for one direction
        (d,) or a batch (k, d); shape (n, n) or (k, n, n)."""
        t = np.asarray(t, dtype=float)
        return (t[..., None, None] * self.mats).sum(axis=-3)


def sphere_grid(d: int) -> np.ndarray:
    """Deterministic quasi-uniform directions on the unit sphere S^(d-1).

    d = 1: the two signs; d = 2: equal angles; d = 3: Fibonacci lattice;
    d > 3: fixed-seed Gaussian directions.  Always includes +-e_1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return np.array([[1.0], [-1.0]])
    npts = SPHERE_RESOLUTION
    if d == 2:
        ang = 2.0 * math.pi * np.arange(npts) / npts
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
    elif d == 3:
        i = np.arange(npts) + 0.5
        z = 1.0 - 2.0 * i / npts
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = math.pi * (3.0 - math.sqrt(5.0))
        ang = golden * i
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang), z])
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [0x5eed, d], dtype=np.uint64)))
        pts = rng.standard_normal((npts, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    axes = np.zeros((2, d))
    axes[0, 0] = 1.0
    axes[1, 0] = -1.0
    return np.vstack([axes, pts])


@dataclass(frozen=True)
class CrossGammaStats:
    var_diag: np.ndarray        # Var(Gamma[F_i, F_i])
    cross_l2: np.ndarray        # ||Gamma[F_i, F_j]||_2, d x d
    bound_rhs: float            # max var + d^2 max off-diagonal L2 norm
    kappa4_max: Kappa4Max       # the one sphere search; the worst direction
    worst_lhs: float            # Var(Gamma[F_t, F_t]) at that direction


def cross_gamma_stats(m: MultivariateSecondChaos) -> CrossGammaStats:
    """Exact carre-du-champ statistics and the direction-uniform bound.

    Every statistic is a moment of a quadratic form X'GX in standard
    Gaussians with G symmetric, so two trace identities give it exactly:
    Var(X'GX) = 2 Tr(G^2) and E (X'GX)^2 = (Tr G)^2 + 2 Tr(G^2).
    Here G = 2 (A_i A_j + A_j A_i), the symmetrized matrix of
    Gamma[F_i, F_j] = 4 X'A_iA_jX.  Along a direction t, G = 4 A_t^2, so
    Var(Gamma[F_t, F_t]) = 32 Tr(A_t^4) = (2/3) kappa_4(F_t) and the worst
    direction is the one sphere_kappa4_max finds.  The tests check every
    field against the Isserlis expansion of the same quadratic-form
    polynomials.  worst_lhs and bound_rhs are the two sides of the bound
    that the runner checks at that direction,
    Var(Gamma[F_t, F_t]) <= max_i Var(Gamma[F_i, F_i])
                            + d^2 max_{i != j} ||Gamma[F_i, F_j]||_2.
    """
    d = m.d
    prod = m.products()
    gmat = 2.0 * (prod + prod.swapaxes(2, 3))  # symmetrized 4 X'A_iA_jX
    tr_g2 = np.sum(gmat * gmat, axis=(2, 3))   # Tr(G^2), G symmetric
    var_diag = 2.0 * np.diagonal(tr_g2)
    cross = np.sqrt(np.trace(gmat, axis1=2, axis2=3) ** 2 + 2.0 * tr_g2)
    off = cross[~np.eye(d, dtype=bool)]
    rhs = float(var_diag.max() + (d ** 2) * off.max(initial=0.0))
    k4 = sphere_kappa4_max(m)
    return CrossGammaStats(var_diag, cross, rhs, k4, 2.0 / 3.0 * k4.value)


@dataclass(frozen=True)
class Kappa4Max:
    value: float        # grid+power-method maximum: a lower bound of the max
    direction: np.ndarray


def kappa4_of_directions(m: MultivariateSecondChaos, ts) -> np.ndarray:
    """kappa_4(F_t) = 48 Tr(A_t^4) for each row t of ts, shape (k, d)."""
    at = m.combined(ts)
    a2 = at @ at
    return 48.0 * np.trace(a2 @ a2, axis1=1, axis2=2)


def sphere_kappa4_max(m: MultivariateSecondChaos) -> Kappa4Max:
    """max over the unit sphere of kappa_4(F_t) = 48 Tr(A_t^4).

    Evaluates a deterministic grid, then refines the best point by the
    power method t <- g/|g|, g_i = Tr(A_t^3 A_i), the shifted power method
    with zero shift (Kolda & Mayo, SIAM J. Matrix Anal. Appl. 2011).
    Tr(A_t^4) is convex in t, so no step lowers it, and g/|g| does not
    change when the matrices are scaled.  The search stops at the first
    step that gains at most 1e-15 relative, or at a zero gradient.  The
    reported value is a lower bound of the true maximum (a local maximum
    reached from the grid's best point).
    """
    grid = sphere_grid(m.d)
    values = kappa4_of_directions(m, grid)
    best = int(np.argmax(values))     # the first of equal maxima
    best_v, t = float(values[best]), grid[best]
    while True:
        at = m.combined(t)
        g = np.tensordot(m.mats, at @ at @ at, axes=2)   # Tr(A_t^3 A_i)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            break
        cand = g / norm
        v = float(kappa4_of_directions(m, cand[None])[0])
        if not v > best_v + 1e-15 * best_v:    # a NaN stops the search too
            break
        best_v, t = v, cand
    return Kappa4Max(best_v, t)
