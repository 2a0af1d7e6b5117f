"""Independent routes to chaos quantities, kept as test oracles.

The library computes each quantity one way (the Newton-Girard recursion
for S_p, contractions for kappa_4 and Var Gamma, batch kernels for Gamma
and the spectra).  The routes here share none of that code: the explicit
partition sum of S_p, the Gaussian polynomials of F for the Isserlis
expansion, Monte Carlo over four independent streams, the pointwise
gradient from the dense tensor (built here from the triples), a
residual-checked eigh of one matrix, and the power sums of a squared
spectrum from its eigenvalues.  The symmetric functions of those sums
reuse the library's Newton-Girard recursion, which
test_sp_grid_shares_one_table checks against brute-force sums.  The
second-chaos transforms have slow references here too: the Mellin
integral by adaptive quadrature, the density by a direct cos/sin sum
over every (x, xi) pair, and the small-ball CDF by Imhof's inversion
integral.
"""

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from wienerchaos import chaos2, chaos3, mc
from wienerchaos.chaos2 import newton_to_elementary
from wienerchaos.wick import (
    GaussianPolynomial,
    gamma_of_polynomial,
    isserlis_expectation,
)

ISSERLIS_MAX_N = 6   # cost cap of the degree-12 expansions


def make_unit_alphas(rng, m=None):
    """A random unit-variance DiagonalSecondChaos with m (default 1 to 6)
    coefficients."""
    m = int(m if m is not None else rng.integers(1, 7))
    a = rng.standard_normal(m)
    while np.all(a == 0.0):
        a = rng.standard_normal(m)
    return chaos2.DiagonalSecondChaos(a, normalize=True)


def make_unit_tensor(rng, n=None):
    """A random unit-variance SymThreeTensor on n (default 3 to 6)
    variables, each triple present with probability 0.7."""
    n = int(n if n is not None else rng.integers(3, 7))
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                if rng.random() < 0.7:
                    entries[(i, j, k)] = float(rng.standard_normal())
    if not entries:
        entries[(1, 2, 3)] = 1.0
    return chaos3.SymThreeTensor(n, entries, normalize=True)


def entries(t):
    """The triples of a SymThreeTensor as a dict of 1-based (i, j, k) keys
    to values, in the order of its arrays."""
    return dict(zip(map(tuple, (t.triples + 1).tolist()), t.values.tolist()))


def dense(t):
    """The dense array a of a SymThreeTensor, shape (n, n, n): each triple's
    value at all six orders of its indices, zero elsewhere."""
    ents = entries(t)
    trips = np.array(list(ents), dtype=np.intp).reshape(-1, 3) - 1
    a = np.zeros((t.n, t.n, t.n))
    for p in itertools.permutations(range(3)):
        a[tuple(trips[:, p].T)] = list(ents.values())
    return a


def within(est, value, k):
    """|mean - value| <= k standard errors of an mc.EstimatorResult
    (stderr 0 demands equality)."""
    return abs(est.mean - value) <= k * est.stderr


def write_tensor_file(t, path):
    """Write t in the plain-text format that chaos3.read_tensor_file reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# symmetric 3-tensor: dimension, then 'i j k value' "
                 "(1-based, i<j<k)\n")
        fh.write(f"{t.n}\n")
        for (i, j, k), v in sorted(entries(t).items()):
            fh.write(f"{i} {j} {k} {v:.17g}\n")


def diagonal_polynomial(f):
    """F = sum_k alpha_k (G_k^2 - 1) of a DiagonalSecondChaos as a
    GaussianPolynomial."""
    p = GaussianPolynomial(f.m, {})
    for k, a in enumerate(f.alphas):
        if a == 0.0:
            continue
        e = [0] * f.m
        e[k] = 2
        p = p + GaussianPolynomial(f.m, {tuple(e): float(a)}) - float(a)
    return p


def _partition_multiplicities(p):
    # multiplicity vectors (m_1, ..., m_p) with sum i*m_i = p
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for i in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - i, i):
                yield (i,) + rest

    for parts in rec(p, p):
        m = [0] * p
        for i in parts:
            m[i - 1] += 1
        yield m


def girard_partition_sum(newton, p):
    """Explicit partition-sum form of S_p (p <= 6 intended).

    S_p = (-1)^p sum over {m: sum i*m_i = p} of prod_i (-N_i)^m_i / (m_i! i^m_i).
    Exponentially slower than the recursion; an independent route to it.
    """
    newton = np.asarray(newton, dtype=float)
    if p < 1 or p > newton.shape[0]:
        raise ValueError("p out of range for the supplied Newton sums")
    total = 0.0
    for m in _partition_multiplicities(p):
        term = 1.0
        for i, mi in enumerate(m, start=1):
            if mi:
                term *= (-newton[i - 1]) ** mi / (math.factorial(mi) * i ** mi)
        total += term
    return ((-1.0) ** p) * total


def isserlis_k4_var_gamma(t):
    """(kappa_4, Var Gamma) from the Isserlis expansion of F^4 and
    Gamma^2, for n <= ISSERLIS_MAX_N."""
    if t.n > ISSERLIS_MAX_N:
        raise ValueError(f"Isserlis oracle limited to n <= {ISSERLIS_MAX_N}")
    f = t.to_polynomial()
    m2 = isserlis_expectation(f * f)
    m4 = isserlis_expectation((f * f) * (f * f))
    g = gamma_of_polynomial(f)
    eg = isserlis_expectation(g)
    eg2 = isserlis_expectation(g * g)
    return m4 - 3.0 * m2 * m2, eg2 - eg * eg


def mc_k4_var_gamma(t, n_samples, seed):
    """Monte Carlo (kappa_4, se, Var Gamma, se): E F^2, E F^4, E Gamma and
    E Gamma^2 each on its own stream, errors by the delta method."""
    a = dense(t)

    def fn_f2(x):
        t1 = np.tensordot(x, a, axes=([1], [2]))
        fv = np.einsum('bij,bi,bj->b', t1, x, x)
        return fv * fv

    def fn_gamma(x):
        g = 3.0 * np.einsum('ijk,bj,bk->bi', a, x, x)
        return np.einsum('bi,bi->b', g, g)

    e_f2 = mc.estimate(fn_f2, n_samples, mc.RngSpec(seed, 0), t.n)
    e_f4 = mc.estimate(lambda x: fn_f2(x) ** 2, n_samples,
                       mc.RngSpec(seed, 1), t.n)
    e_g = mc.estimate(fn_gamma, n_samples, mc.RngSpec(seed, 2), t.n)
    e_g2 = mc.estimate(lambda x: fn_gamma(x) ** 2, n_samples,
                       mc.RngSpec(seed, 3), t.n)
    kappa4 = e_f4.mean - 3.0 * e_f2.mean ** 2
    kappa4_se = math.hypot(e_f4.stderr, 6.0 * e_f2.mean * e_f2.stderr)
    var_gamma = e_g2.mean - e_g.mean ** 2
    var_gamma_se = math.hypot(e_g2.stderr, 2.0 * e_g.mean * e_g.stderr)
    return kappa4, kappa4_se, var_gamma, var_gamma_se


def gradient(t, x):
    """partial_i F(x) = 3 sum_{j,k} a(i,j,k) x_j x_k at one point."""
    x = np.asarray(x, dtype=float)
    return 3.0 * (np.tensordot(dense(t), x, axes=([2], [0])) @ x)


def gamma_at(t, x):
    """Gamma[F,F](x) = |grad F(x)|^2 at one point."""
    g = gradient(t, x)
    return float(g @ g)


def spectrum(m, tol=1e-10):
    """(eigenvalues ordered by decreasing |lambda|, recentred flag) of one
    symmetric matrix.

    Checks symmetry and every eigenpair residual ||A v - lam v|| against
    tol ||A||; a sum beyond tol (a nonzero trace) is recentred and flagged.
    """
    m = np.asarray(m, dtype=float)
    scale = float(np.abs(m).max()) if m.size else 0.0
    if not np.allclose(m, m.T, rtol=0.0, atol=tol * max(1.0, scale)):
        raise ValueError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(m)
    norm = float(np.abs(w).max()) if w.size else 0.0
    resid = np.linalg.norm(m @ v - v * w, axis=0)
    if norm > 0 and np.any(resid > tol * norm * 10.0):
        raise AssertionError(
            f"eigenpair residual {resid.max():.3g} exceeds "
            f"{tol * norm * 10.0:.3g}")
    s = float(w.sum())
    recentred = abs(s) > tol * max(1.0, norm)
    if recentred:
        w = w - s / w.size
    return w[np.argsort(-np.abs(w), kind="stable")], recentred


def spectrum_power_sums(eigs, q_max):
    """sum_k lam_k^(2q) for q = 1..q_max of spectra (..., n): shape
    (q_max, ...)."""
    lam2 = np.square(np.asarray(eigs, dtype=float))
    return np.stack([np.sum(lam2 ** q, axis=-1) for q in range(1, q_max + 1)])


def elementary_symmetric_spectrum(eigs, p):
    """S_hat_1 .. S_hat_p of squared spectra: shape (..., n) -> (..., p),
    with S_hat_q = sum_{i1<...<iq} lam_{i1}^2 ... lam_{iq}^2, from the
    Newton-Girard table of the eigenvalue power sums."""
    eigs = np.asarray(eigs, dtype=float)
    if p < 1 or p > eigs.shape[-1]:
        raise ValueError(f"p must lie in 1..{eigs.shape[-1]}")
    newton = spectrum_power_sums(eigs, p)
    return np.moveaxis(newton_to_elementary(newton), 0, -1)


def mellin_quad_negative_moment(f, q):
    """E Gamma^(-q) of a DiagonalSecondChaos by adaptive quadrature of
    (1/Gamma(q)) int_0^inf lam^(q-1) L(lam) dlam, L the Laplace transform.

    The head [0, 1] is regularised by lam = u^(1/q), the tail by
    lam = e^t up to a cutoff with analytic remainder below 1e-13 of the
    head.  Needs q < m/2; overflows for q near m/2.
    """
    a2 = f.alphas[f.alphas != 0.0] ** 2
    m = a2.size

    def laplace(lam):
        return math.exp(-0.5 * math.fsum(math.log1p(8.0 * lam * v)
                                         for v in a2))

    head, e_head = integrate.quad(lambda u: laplace(u ** (1.0 / q)) / q,
                                  0.0, 1.0, epsabs=0.0, epsrel=1e-11,
                                  limit=200)
    log_k = -0.5 * float(np.sum(np.log(8.0 * a2)))
    decay = m / 2.0 - q
    t_max = max(5.0, (log_k - math.log(decay)
                      - math.log(1e-13 * max(head, 1e-300))) / decay)
    tail, e_tail = integrate.quad(
        lambda t: math.exp(q * t) * laplace(math.exp(t)), 0.0, t_max,
        epsabs=0.0, epsrel=1e-11, limit=400)
    total = head + tail
    if total <= 0 or (e_head + e_tail) > 1e-8 * total:
        raise AssertionError(f"quadrature error {e_head + e_tail:.3g}")
    return total / float(gamma_fn(q))


def density_outer_product(f, x_min=-6.0, x_max=6.0, dx=0.01,
                          tail_eps=1e-8):
    """(xs, density) of a DiagonalSecondChaos by the trapezoid rule on
    xi_n = n dxi, summed as cos/sin over every (x, xi) pair.

    The xi integral ends at the first node past the point where the
    modulus prod (1 + 4 alpha^2 xi^2)^(-1/4) falls to tail_eps, found by
    bisection; dxi is chosen as in chaos2.density_by_inversion.
    """
    a = f.alphas[f.alphas != 0.0]

    def log_modulus(xi):
        return -0.25 * float(np.sum(np.log1p(4.0 * a * a * xi * xi)))

    hi = 1.0
    while log_modulus(hi) > math.log(tail_eps):
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_modulus(mid) > math.log(tail_eps):
            lo = mid
        else:
            hi = mid
    x_scale = max(abs(x_min), abs(x_max), 1.0)
    dxi = min(0.02, 2.0 * math.pi / (64.0 * x_scale))
    xis = np.arange(0.0, hi + dxi, dxi)
    ax = np.multiply.outer(xis, a)
    phi = np.exp(-0.25 * np.sum(np.log1p(4.0 * ax * ax), axis=-1)
                 + 1j * np.sum(0.5 * np.arctan(2.0 * ax) - ax, axis=-1))
    w = np.full(xis.size, dxi)
    w[[0, -1]] *= 0.5
    xs = np.arange(x_min, x_max + 0.5 * dx, dx)
    dens = np.zeros(xs.size)
    blk = max(1, 6_000_000 // xs.size)
    for s in range(0, xis.size, blk):
        arg = np.outer(xs, xis[s:s + blk])
        dens += (np.cos(arg) @ (w * phi.real)[s:s + blk]
                 + np.sin(arg) @ (w * phi.imag)[s:s + blk])
    return xs, dens / math.pi


def imhof_cdf(weights, x):
    """P(sum_k w_k G_k^2 < x) for weights w_k > 0 by Imhof's (1961)
    inversion integral, 1/2 - (1/pi) int_0^inf sin(theta(u)) / (u rho(u))
    du with theta(u) = (1/2) sum arctan(w_k u) - x u / 2 and rho(u) =
    prod (1 + w_k^2 u^2)^(1/4).

    Adaptive quadrature up to the U where the remainder bound
    (2/m) U^(-m/2) prod w^(-1/2) falls to 1e-13; needs m >= 3 weights.
    The error is absolute, about 1e-12, so only probabilities in the bulk
    check to a relative tolerance.
    """
    w = np.asarray(weights, dtype=float)
    m = w.size

    def integrand(u):
        theta = 0.5 * float(np.sum(np.arctan(w * u))) - 0.5 * x * u
        return math.sin(theta) / (
            u * math.exp(0.25 * float(np.sum(np.log1p((w * u) ** 2)))))

    log_k = -0.5 * float(np.sum(np.log(w)))
    u_max = math.exp((log_k + math.log(2.0 / m) - math.log(1e-13))
                     / (m / 2.0))
    val, err = integrate.quad(integrand, 0.0, u_max, epsabs=1e-12,
                              epsrel=0.0, limit=5000)
    if err > 1e-11:
        raise AssertionError(f"quadrature error {err:.3g}")
    return 0.5 - val / math.pi
