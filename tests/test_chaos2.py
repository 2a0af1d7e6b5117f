import math

import numpy as np
import pytest

from wienerchaos import chaos2, mc
from wienerchaos.chaos2 import DiagonalSecondChaos, MultivariateSecondChaos
from wienerchaos.cli import family_generators
from wienerchaos.wick import (
    GaussianPolynomial,
    cumulants_from_moment_sequence,
    isserlis_expectation,
)

import oracles

SQ2 = 2 ** -0.5


# ---------------------------------------------------------------------------
# Isserlis oracle for quadratic forms (independent of the trace identities
# that chaos2.cross_gamma_stats uses)
# ---------------------------------------------------------------------------

def quadratic_form_polynomial(mat: np.ndarray) -> GaussianPolynomial:
    """X' M X as a GaussianPolynomial (M symmetric)."""
    n = mat.shape[0]
    terms: dict[tuple, float] = {}
    for i in range(n):
        if mat[i, i] != 0.0:
            e = [0] * n
            e[i] = 2
            terms[tuple(e)] = terms.get(tuple(e), 0.0) + float(mat[i, i])
        for j in range(i + 1, n):
            if mat[i, j] != 0.0:
                e = [0] * n
                e[i] = 1
                e[j] = 1
                terms[tuple(e)] = terms.get(tuple(e), 0.0) + 2.0 * float(mat[i, j])
    return GaussianPolynomial(n, terms)


def _poly_variance(p: GaussianPolynomial) -> float:
    mean = isserlis_expectation(p)
    return isserlis_expectation(p * p) - mean * mean


def _poly_l2(p: GaussianPolynomial) -> float:
    return math.sqrt(max(isserlis_expectation(p * p), 0.0))


def isserlis_cross_gamma(m: MultivariateSecondChaos):
    """(var_diag, cross_l2, bound_rhs, var_along) by expanding every
    quadratic form through the Isserlis oracle, with var_along(t) =
    Var(Gamma[F_t, F_t])."""
    d = m.d
    var_diag = np.empty(d)
    cross = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            prod = m.mats[i] @ m.mats[j]
            poly = quadratic_form_polynomial(2.0 * (prod + prod.T))
            if i == j:
                var_diag[i] = _poly_variance(poly)
            cross[i, j] = _poly_l2(poly)
    off = [cross[i, j] for i in range(d) for j in range(d) if i != j]
    rhs = float(var_diag.max() + (d ** 2) * (max(off) if off else 0.0))

    def var_along(t):
        at = m.combined(t)
        return _poly_variance(quadratic_form_polynomial(4.0 * (at @ at)))

    return var_diag, cross, rhs, var_along


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_variance_and_normalize():
    f = DiagonalSecondChaos([1.0, 2.0])
    assert f.variance == pytest.approx(10.0)
    g = DiagonalSecondChaos([1.0, 2.0], normalize=True)
    assert g.unit_variance


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_normalize_survives_extreme_scales(scale):
    # the squares under- or overflow: once inf and 0 coefficients
    f = DiagonalSecondChaos([scale] * 3, normalize=True)
    assert np.all(f.alphas == f.alphas[0])
    assert f.alphas[0] == pytest.approx(6 ** -0.5, rel=1e-15)
    assert f.unit_variance


@pytest.mark.parametrize("scale, variance", [(1e165, math.inf),
                                             (1e-170, 0.0)])
def test_variance_at_extreme_scales_warns_nothing(scale, variance):
    # the squares of the coefficients once over- or underflowed: at 1e165
    # with an overflow RuntimeWarning before any named error
    f = DiagonalSecondChaos([scale] * 3)
    assert f.variance == variance
    assert not f.unit_variance
    assert DiagonalSecondChaos([scale] * 3, normalize=True).unit_variance


def test_rejects_zero_vector():
    with pytest.raises(ValueError):
        DiagonalSecondChaos([0.0, 0.0])


def test_variance_matches_oracle(unit_alphas_factory):
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = unit_alphas_factory(rng)
        p = oracles.diagonal_polynomial(f)
        assert isserlis_expectation(p * p) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# newton sums, cumulants, elementary symmetric functions
# ---------------------------------------------------------------------------

def test_newton_cumulants_single_coefficient():
    tab = chaos2.newton_cumulants(DiagonalSecondChaos([SQ2]), 2)
    assert tab.newton[0] == pytest.approx(0.5)
    assert tab.newton[1] == pytest.approx(0.25)
    assert tab.cumulants[0] == pytest.approx(1.0)   # kappa_2
    assert tab.cumulants[1] == pytest.approx(12.0)  # kappa_4
    assert tab.elementary[1] == pytest.approx(0.0, abs=1e-15)  # S_2, m = 1


def test_newton_cumulants_two_coefficients():
    tab = chaos2.newton_cumulants(DiagonalSecondChaos([0.5, 0.5]), 2)
    assert tab.elementary[0] == pytest.approx(0.5)
    assert tab.elementary[1] == pytest.approx(1.0 / 16.0)
    n1, n2 = tab.newton
    assert tab.elementary[1] == pytest.approx((n1 ** 2 - n2) / 2.0)


def test_kappa2_is_variance(unit_alphas_factory):
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = unit_alphas_factory(rng)
        tab = chaos2.newton_cumulants(f, 1)
        assert tab.cumulants[0] == pytest.approx(f.variance, rel=1e-12)


def test_cumulants_match_isserlis_oracle(unit_alphas_factory):
    rng = np.random.default_rng(3)
    for _ in range(8):
        f = unit_alphas_factory(rng)
        tab = chaos2.newton_cumulants(f, 3)
        p = oracles.diagonal_polynomial(f)
        moments = [isserlis_expectation(p ** k) for k in range(1, 7)]
        ks = cumulants_from_moment_sequence(moments)
        for p_idx, kappa in [(1, ks[1]), (2, ks[3]), (3, ks[5])]:
            assert tab.cumulants[p_idx - 1] == pytest.approx(kappa, rel=1e-10)


def test_girard_partition_matches_recursion(unit_alphas_factory):
    rng = np.random.default_rng(4)
    for _ in range(6):
        f = unit_alphas_factory(rng)
        tab = chaos2.newton_cumulants(f, 6)
        for p in range(1, 7):
            explicit = oracles.girard_partition_sum(tab.newton, p)
            assert tab.elementary[p - 1] == pytest.approx(
                explicit, rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# S_p deviation inequality
# ---------------------------------------------------------------------------

def test_sp_deviation_pair():
    res = chaos2.check_sp_deviation(DiagonalSecondChaos([0.5, 0.5]), 2)
    assert res.lhs == pytest.approx(1.0 / 16.0)
    assert res.rhs == pytest.approx(0.25)  # kappa4 = 6
    assert res.lhs <= res.rhs


def test_sp_deviation_chi2_family():
    n = 8
    f = DiagonalSecondChaos(np.full(n, 1.0 / math.sqrt(2 * n)))
    res = chaos2.check_sp_deviation(f, 2)
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    assert kappa4 == pytest.approx(12.0 / n)
    assert res.rhs == pytest.approx(kappa4 / 24.0)
    assert res.lhs <= res.rhs


def test_sp_deviation_single():
    res = chaos2.check_sp_deviation(DiagonalSecondChaos([SQ2]), 2)
    assert res.lhs == pytest.approx(1.0 / 8.0)
    assert res.rhs == pytest.approx(0.5)
    assert res.lhs <= res.rhs


def test_sp_deviation_requires_unit_variance():
    with pytest.raises(chaos2.PreconditionError):
        chaos2.check_sp_deviation(DiagonalSecondChaos([1.0]), 2)


def test_sp_deviation_holds_up_to_p6(unit_alphas_factory):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = unit_alphas_factory(rng)
        for p in range(1, 7):
            res = chaos2.check_sp_deviation(f, p)
            assert res.lhs <= res.rhs


# ---------------------------------------------------------------------------
# Laplace transform of Gamma
# ---------------------------------------------------------------------------

def test_laplace_examples():
    assert chaos2.laplace_gamma(DiagonalSecondChaos([SQ2]), 0.0) == 1.0
    assert chaos2.laplace_gamma(DiagonalSecondChaos([SQ2]), 1.0) == \
        pytest.approx(5 ** -0.5)
    assert chaos2.laplace_gamma(DiagonalSecondChaos([0.5, 0.5]), 1.0) == \
        pytest.approx(1.0 / 3.0)


def test_laplace_overflow_gives_the_exact_zero():
    # 8 lam alpha^2 overflows to inf, and log1p(inf) = inf gives the
    # exact limit 0; the suite turns an overflow warning into an error
    f = DiagonalSecondChaos([1e5, 2e5])
    assert chaos2.laplace_gamma(f, 1e300) == 0.0
    assert chaos2.laplace_gamma(f, [0.0, 1e300]).tolist() == [1.0, 0.0]


def test_laplace_overflowing_coefficient_takes_the_log_route():
    # alpha^2 = 1e400 overflows: log1p(8 lam alpha^2) is taken as
    # logaddexp(0, log 8 + log lam + 2 log alpha), so no nan at lam = 0
    # and no 0 where the transform is 3.5e-51 (the suite turns the
    # overflow and invalid-value warnings of the plain route into errors)
    f = DiagonalSecondChaos([1e200, 1.0])
    exact = [1.0, (1.0 + 8e100) ** -0.5,
             math.exp(-0.5 * (math.log(8.0) + 400.0 * math.log(10.0))) / 3.0]
    assert chaos2.laplace_gamma(f, [0.0, 1e-300, 1.0]) == \
        pytest.approx(exact, rel=1e-12)


def test_laplace_domain():
    with pytest.raises(ValueError):
        chaos2.laplace_gamma(DiagonalSecondChaos([SQ2]), -0.1)


def test_laplace_transforms_return_arrays():
    f = DiagonalSecondChaos([0.5, 0.5])
    for fn in (chaos2.laplace_gamma, chaos2.char_function):
        at_one = fn(f, 1.0)
        assert isinstance(at_one, np.generic) and at_one.ndim == 0
        assert np.shape(fn(f, [[0.5, 1.0, 2.0]])) == (1, 3)


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_laplace_matches_mc(lam):
    f = DiagonalSecondChaos([0.5, 0.5])
    est = mc.estimate(lambda x: np.exp(-lam * f.sample_gamma(x)), 200_000,
                      mc.RngSpec(17), f.m)
    assert oracles.within(est, chaos2.laplace_gamma(f, lam), 4.0)


# ---------------------------------------------------------------------------
# certificates and the small-ball bound
# ---------------------------------------------------------------------------

def test_thm1_thresholds():
    # eta_p = 24 / (2^p (p+1)!)
    assert chaos2.thm1_threshold(1) == pytest.approx(6.0)
    assert chaos2.thm1_threshold(2) == pytest.approx(1.0)
    assert chaos2.thm1_threshold(3) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        chaos2.thm1_threshold(0)


def test_smallball_bound_values():
    assert chaos2.smallball_bound(2, 0.01) == pytest.approx(0.005)
    assert chaos2.smallball_bound(1, 1.0) == pytest.approx(SQ2)
    eps = np.geomspace(1e-4, 1.0, 10)
    vals = [chaos2.smallball_bound(3, e) for e in eps]
    assert np.all(np.diff(vals) > 0)


def test_smallball_cdf_never_beats_bound():
    # certified family: kappa4 = 12/16 < 1 = threshold at p = 2; the exact
    # CDF (1.1e-8, 3.7e-5, 3.3e-3) against the bound (0.05, 0.15, 0.3)
    n = 16
    f = DiagonalSecondChaos(np.full(n, 1.0 / math.sqrt(2 * n)))
    assert chaos2.newton_cumulants(f, 2).cumulants[1] < \
        chaos2.thm1_threshold(2)
    eps = (0.1, 0.3, 0.6)
    for e, cdf in zip(eps, chaos2.smallball_cdf(f, eps)):
        assert cdf <= chaos2.smallball_bound(2, e)


# ---------------------------------------------------------------------------
# small-ball CDF by Ruben's series
# ---------------------------------------------------------------------------

def uniform_family(m=8, seed=3):
    """Unit-variance coefficients drawn from U(0.2, 1): w_max / w_min
    near 25, so Ruben's series takes hundreds of terms."""
    a = np.random.default_rng(seed).uniform(0.2, 1.0, m)
    return DiagonalSecondChaos(a, normalize=True)


@pytest.mark.parametrize("m,rtol", [(1, 1e-13), (2, 1e-13), (3, 1e-13),
                                    (12, 1e-13), (64, 1e-13), (192, 2e-13)])
def test_smallball_cdf_chi2_average_is_gammainc(m, rtol):
    # Gamma = (2/m) chi2_m: every weight equals beta, the series has one
    # term and is the lower series of P(m/2, m eps / 4).  At m = 192,
    # gammainc itself is up to 9e-14 off a 40-digit evaluation here.
    from scipy.special import gammainc
    eps = np.array([0.05, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(chaos2.smallball_cdf(chi2_average(m), eps),
                       gammainc(m / 2, m / 4 * eps), rtol=rtol, atol=0)


def test_smallball_cdf_matches_imhof():
    # from the lower bulk to the upper tail (P = 0.038 ... 0.988)
    f = uniform_family()
    eps = np.array([0.5, 1.0, 2.0, 6.0])
    ref = [oracles.imhof_cdf(4.0 * f.alphas ** 2, e) for e in eps]
    assert np.allclose(chaos2.smallball_cdf(f, eps), ref, rtol=1e-8, atol=0)


def test_smallball_cdf_drops_zero_coefficients_and_signs():
    eps = [0.01, 0.3, 2.0]
    ref = chaos2.smallball_cdf(DiagonalSecondChaos([0.5, 0.3]), eps)
    for alphas in ([0.5, 0.0, 0.3], [0.0, -0.5, 0.3]):
        assert np.array_equal(
            chaos2.smallball_cdf(DiagonalSecondChaos(alphas), eps), ref)


@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1e20, 1e150])
def test_smallball_cdf_scale_covariant(scale):
    # P_{c alpha}(eps) = P_alpha(eps / c^2); the series sees only the
    # ratios alpha_min / alpha_k and eps / alpha_min^2
    f = uniform_family()
    eps = np.array([0.01, 0.1, 0.5, 2.0])
    ref = chaos2.smallball_cdf(f, eps)
    scaled = chaos2.smallball_cdf(DiagonalSecondChaos(scale * f.alphas),
                                  scale * scale * eps)
    assert np.allclose(scaled, ref, rtol=1e-12, atol=0)


def test_smallball_cdf_many_spread_weights():
    # m = 400 with c_0 = prod (alpha_min / alpha_k) below the smallest
    # double: the mixing weights must be carried on a scale
    rng = np.random.default_rng(400)
    a = np.concatenate([[0.1], rng.uniform(0.5, 1.0, 399)])
    assert np.sum(np.log(a.min() / a)) < math.log(5e-324)
    w = 4.0 * a * a
    eps = w.sum() * np.array([0.5, 0.8, 1.0, 1.2])
    cdf = chaos2.smallball_cdf(DiagonalSecondChaos(a), eps)
    assert np.all(np.isfinite(cdf)) and 0 < cdf[0] < 1e-12
    assert np.all(np.diff(cdf) > 0)
    ref = [oracles.imhof_cdf(w, e) for e in eps[1:]]
    assert np.allclose(cdf[1:], ref, rtol=1e-8, atol=0)


def test_smallball_cdf_below_smallest_normal_y():
    # y = eps / (2 beta) underflows; one coefficient: P(4 G^2 < eps) =
    # erf(sqrt(eps / 8))
    eps = np.array([1e-300, 1e-310, 1e-320])
    ref = [math.erf(math.sqrt(e / 8.0)) for e in eps]
    cdf = chaos2.smallball_cdf(DiagonalSecondChaos([1.0]), eps)
    assert np.allclose(cdf, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("alphas,eps", [
    ([1.0, 1e-4], [0.05, 0.1, 0.2]),           # w_max / w_min = 1e8
    ([1.0, 1.0], [256_000.0]),   # y = 32 000: its Poisson tail needs more
])
def test_smallball_cdf_raises_past_term_cap(alphas, eps):
    with pytest.raises(chaos2.SeriesCapError,
                       match=f"more than {chaos2.MAX_SERIES_TERMS} terms"):
        chaos2.smallball_cdf(DiagonalSecondChaos(alphas), eps)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, math.nan])
def test_smallball_cdf_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        chaos2.smallball_cdf(uniform_family(), [0.1, eps])


def test_smallball_cdf_matches_draws():
    # at eps where exact x samples gives thousands of hits; the second
    # column scales every draw by 1.01, a bias the test must see
    f = uniform_family()
    eps = np.array([0.2, 0.5, 1.0, 2.0])
    exact = chaos2.smallball_cdf(f, eps)
    assert np.all(exact * 1_000_000 > 1000)

    def fn(x):
        g = f.sample_gamma(x)
        return np.column_stack([g, 1.01 * g])

    (hits,) = mc.reduce(fn, 1_000_000, mc.RngSpec(31), f.m, mc.Hits(eps))
    phat, se = hits.fractions()
    z = (phat - exact) / se
    assert np.all(np.abs(z[0]) <= 4.0), z[0]
    assert np.max(np.abs(z[1])) > 4.0, z[1]


# ---------------------------------------------------------------------------
# negative moments
# ---------------------------------------------------------------------------

def test_negative_moment_closed_form():
    # Gamma = 2 G^2: E (2G^2)^(-1/4) = Gamma(1/4) / sqrt(2 pi)
    from scipy.special import gamma as gfun
    val = chaos2.negative_moment(DiagonalSecondChaos([SQ2]), 0.25)
    assert val == pytest.approx(
        float(gfun(0.25)) / math.sqrt(2.0 * math.pi), abs=1e-8)


def test_negative_moment_matches_mc():
    f = DiagonalSecondChaos([0.5, 0.5])
    val = chaos2.negative_moment(f, 0.5)
    # Gamma = chi^2_2, E Gamma^(-1/2) = sqrt(pi/2)
    assert val == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-7)
    est = mc.estimate(lambda x: f.sample_gamma(x) ** -0.5, 400_000,
                      mc.RngSpec(29), f.m)
    assert oracles.within(est, val, 3.0)


def chi2_average(m):
    return DiagonalSecondChaos(np.full(m, 1.0 / math.sqrt(2 * m)))


def chi2_average_negative_moment(m, q):
    # Gamma = 4a^2 chi^2_m with a^2 = 1/(2m), so E Gamma^(-q) =
    # (4a^2)^(-q) 2^(-q) Gamma(m/2 - q) / Gamma(m/2)
    return math.exp(q * math.log(m / 4.0) + math.lgamma(m / 2.0 - q)
                    - math.lgamma(m / 2.0))


def spread_family(m):
    # coefficients spread over three decades, unit variance
    return DiagonalSecondChaos(np.geomspace(1.0, 1e-3, m), normalize=True)


@pytest.mark.parametrize("m", [400, 1000])
def test_negative_moment_large_m(m):
    # the tail cutoff once overflowed here through a product of m factors,
    # and the integrand itself at q near m/2
    f = chi2_average(m)
    for q in (0.25, 1.0, 2.0, 0.49 * m):
        val = chaos2.negative_moment(f, q)
        assert math.isfinite(val)
        assert val == pytest.approx(chi2_average_negative_moment(m, q),
                                    rel=1e-11)


@pytest.mark.parametrize("m,q", [(2, 0.98), (12, 5.9), (64, 31.0)])
def test_negative_moment_near_divergence(m, q):
    # each of these once raised OverflowError: math range error
    val = chaos2.negative_moment(chi2_average(m), q)
    assert val == pytest.approx(chi2_average_negative_moment(m, q),
                                rel=1e-12)


def test_negative_moment_spread_family_near_divergence():
    f = spread_family(8)
    vals = [chaos2.negative_moment(f, q) for q in (3.0, 3.5, 3.9)]
    assert all(math.isfinite(v) for v in vals)
    # Lyapunov: (E Gamma^(-q))^(1/q) grows with q
    roots = [v ** (1.0 / q) for v, q in zip(vals, (3.0, 3.5, 3.9))]
    assert roots[0] < roots[1] < roots[2]


@pytest.mark.parametrize("family,qs", [
    (spread_family(3), (0.01, 0.25, 0.75, 1.2)),
    (spread_family(8), (0.01, 0.5, 1.0, 2.0, 3.0)),
    (spread_family(20), (0.1, 2.0, 6.0)),
    (chi2_average(1), (0.01, 0.25, 0.4)),
    (chi2_average(12), (0.25, 1.0, 2.0, 4.5)),
    (chi2_average(192), (0.5, 5.0, 40.0)),
], ids=["spread3", "spread8", "spread20", "chi2avg1", "chi2avg12",
        "chi2avg192"])
def test_negative_moment_matches_quadrature_oracle(family, qs):
    for q in qs:
        ref = oracles.mellin_quad_negative_moment(family, q)
        assert chaos2.negative_moment(family, q) == pytest.approx(
            ref, rel=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_thm1_extremal_family(p):
    # chi2-average m = p-1 has the least kappa_4 = 12/m of any m nonzero
    # coefficients, and 1/Gamma is in L^q for q < m/2 only: no threshold
    # above 12/(p-1) can certify q < p/2
    m = p - 1
    f = family_generators("chi2-average", m)
    assert chaos2.newton_cumulants(f, 2).cumulants[1] == \
        pytest.approx(12.0 / m, rel=1e-14)
    with pytest.raises(chaos2.DivergenceError):
        chaos2.negative_moment(f, m / 2)
    # Gamma = (2/m) chi^2_m: E Gamma^(-q) = (m/4)^q G(m/2 - q) / G(m/2)
    q = m / 4
    exact = (m / 4) ** q * math.gamma(m / 2 - q) / math.gamma(m / 2)
    assert chaos2.negative_moment(f, q) == pytest.approx(exact, rel=1e-12)


def test_negative_moment_divergence():
    with pytest.raises(chaos2.DivergenceError):
        chaos2.negative_moment(DiagonalSecondChaos([SQ2]), 0.5)


def test_negative_moment_beyond_the_largest_double():
    # E Gamma^(-q) of Gamma ~ 1e-339: about exp(779) at q = 0.999, once a
    # bare OverflowError from math.exp
    f = DiagonalSecondChaos(np.full(5, 1e-170))
    with pytest.raises(chaos2.MomentOverflowError,
                       match=r"E Gamma\^\(-q\) = exp\(779\.6\d*\) exceeds "
                             r"the largest double \(q=0\.999\)"):
        chaos2.negative_moment(f, 0.999)
    # the same model at a small enough q is finite: exp(780 q)
    assert math.isfinite(chaos2.negative_moment(f, 0.5))


# ---------------------------------------------------------------------------
# characteristic function and density inversion
# ---------------------------------------------------------------------------

def test_char_function_at_zero():
    f = DiagonalSecondChaos([SQ2])
    assert chaos2.char_function(f, 0.0) == 1.0 + 0.0j


def test_char_function_modulus():
    f = DiagonalSecondChaos([SQ2])
    assert abs(chaos2.char_function(f, 1.0)) == pytest.approx(3 ** -0.25)


def test_char_function_bounded_and_modulus_identity(unit_alphas_factory):
    rng = np.random.default_rng(6)
    for _ in range(5):
        f = unit_alphas_factory(rng)
        xis = rng.standard_normal(20) * 5.0
        phi = chaos2.char_function(f, xis)
        assert np.all(np.abs(phi) <= 1.0 + 1e-15)
        prod = np.prod(
            1.0 + 4.0 * np.outer(xis ** 2, f.alphas ** 2), axis=1)
        assert np.allclose(np.abs(phi) ** 2 * np.sqrt(prod), 1.0,
                           rtol=1e-10, atol=0)


def test_log_char_product_takes_large_arguments():
    # w^2 = (2 z)^2 once overflowed in log1p: a RuntimeWarning, an error
    # under the suite's warnings filter
    got = chaos2.log_char_product([1e200])
    assert got.real == pytest.approx(-0.5 * math.log(2e200), rel=1e-15)
    assert got.imag == pytest.approx(math.pi / 4, rel=1e-15)
    # where w^2 is finite the value keeps its bits
    z = np.array([0.0, 1e-3, 0.7, 3.0, 2.0 ** 499])
    w = 2.0 * z
    ref = (-0.25 * np.sum(np.log1p(w * w))
           + 0.5j * np.sum(np.arctan(w)))
    assert chaos2.log_char_product(z) == ref


def test_density_mass_and_gaussian_limit():
    n = 64
    f = DiagonalSecondChaos(np.full(n, 1.0 / math.sqrt(2 * n)))
    xs, dens = chaos2.density_by_inversion(f, -6.0, 6.0, 0.02)
    assert float(np.trapezoid(dens, xs)) == pytest.approx(1.0, abs=1e-3)
    big = DiagonalSecondChaos(np.full(256, 1.0 / math.sqrt(512)))
    xs, dens = chaos2.density_by_inversion(big, -1.0, 1.0, 0.01)
    f0 = dens[np.argmin(np.abs(xs))]
    assert f0 == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0.01)


def test_density_small_family_is_skewed():
    n = 4
    f = DiagonalSecondChaos(np.full(n, 1.0 / math.sqrt(2 * n)))
    # positive third cumulant: kappa_3 = 8 sum alpha^3 > 0
    assert 8.0 * np.sum(f.alphas ** 3) > 0
    xs, dens = chaos2.density_by_inversion(f, -3.0, 3.0, 0.01)
    assert xs[np.argmax(dens)] < 0.0
    # histogram cross-check of the mode location
    g = mc.RngSpec(31).generator().standard_normal((200_000, f.m))
    samples = (g * g - 1.0) @ f.alphas
    hist, edges = np.histogram(samples, bins=80, range=(-3, 3))
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert centers[np.argmax(hist)] < 0.0


def test_density_requires_three_coefficients():
    with pytest.raises(chaos2.NonIntegrableError):
        chaos2.density_by_inversion(DiagonalSecondChaos([0.5, 0.5]))


@pytest.mark.parametrize("n", [16, 64, 256])
def test_density_matches_outer_product_oracle(n):
    f = chi2_average(n)
    xs, dens = chaos2.density_by_inversion(f)
    xo, ref = oracles.density_outer_product(f)
    assert np.array_equal(xs, xo)
    assert np.max(np.abs(dens - ref)) <= 1e-11


def test_density_spread_signed_family_matches_outer_product_oracle(
        monkeypatch):
    # at the 1e-8 cutoff this family needs ~5e5 xi nodes, too many for the
    # outer-product oracle; both sides cut at 1e-4 instead
    monkeypatch.setattr(chaos2, "DENSITY_TAIL_EPS", 1e-4)
    signs = np.array([1, -1, 1, -1, 1, -1])
    f = DiagonalSecondChaos(np.geomspace(1.0, 1e-3, 6) * signs,
                            normalize=True)
    xs, dens = chaos2.density_by_inversion(f, -3.0, 5.0, 0.02)
    _, ref = oracles.density_outer_product(f, -3.0, 5.0, 0.02, tail_eps=1e-4)
    assert np.max(np.abs(dens - ref)) <= 1e-11


def test_density_node_cap():
    # |phi| ~ xi^(-3/2): the default grid would need ~1.6e7 xi nodes
    with pytest.raises(chaos2.NodeCapError, match="past"):
        chaos2.density_by_inversion(chi2_average(3))


# ---------------------------------------------------------------------------
# multivariate second chaos
# ---------------------------------------------------------------------------

def worked_pair():
    a1 = np.diag([0.5, -0.5])
    a2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    return MultivariateSecondChaos([a1, a2])


def test_multivariate_identity_cov():
    m = worked_pair()
    assert np.max(np.abs(m.covariance() - np.eye(2))) <= chaos2.UNIT_VAR_TOL


def test_multivariate_rejects_asymmetric():
    with pytest.raises(ValueError):
        MultivariateSecondChaos([np.array([[0.0, 1.0], [0.0, 0.0]])])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_multivariate_rejects_non_finite(bad):
    # an infinite entry used to pass the symmetry check (its tolerance is
    # then inf) and fail later inside sphere_kappa4_max
    with pytest.raises(ValueError, match="matrix 1 has a non-finite entry"):
        MultivariateSecondChaos([[[bad, 0.0], [0.0, 1.0]], np.eye(2)])


def test_cross_gamma_worked_pair():
    stats = chaos2.cross_gamma_stats(worked_pair())
    # A1 A2 antisymmetric: the cross carre du champ vanishes identically
    assert stats.cross_l2[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert stats.var_diag[0] == pytest.approx(4.0)  # Var(X1^2 + X2^2)
    assert stats.worst_lhs <= stats.bound_rhs * (1.0 + 1e-12)


def test_cross_gamma_degenerate_d1():
    m = MultivariateSecondChaos([np.array([[SQ2]])])
    stats = chaos2.cross_gamma_stats(m)
    assert stats.bound_rhs == pytest.approx(stats.var_diag[0])
    assert stats.worst_lhs == pytest.approx(stats.var_diag[0])
    assert stats.worst_lhs <= stats.bound_rhs * (1.0 + 1e-12)


def test_cross_gamma_matches_isserlis_oracle():
    # the trace identities Var(X'GX) = 2 Tr(G^2), E(X'GX)^2 = (Tr G)^2 +
    # 2 Tr(G^2) against the polynomial expansion, on random families; the
    # worst direction comes from the kappa4 search, whose objective the
    # oracle evaluates as a variance, at that direction and on the grid
    rng = np.random.default_rng(12)
    for d in (2, 3):
        for dim in (3, 4, 5):
            mats = []
            for _ in range(d):
                a = rng.standard_normal((dim, dim))
                mats.append(0.5 * (a + a.T))
            m = MultivariateSecondChaos(mats)
            stats = chaos2.cross_gamma_stats(m)
            var_diag, cross, rhs, var_along = isserlis_cross_gamma(m)
            assert np.allclose(stats.var_diag, var_diag, rtol=1e-10, atol=0)
            assert np.allclose(stats.cross_l2, cross, rtol=1e-10, atol=0)
            assert stats.bound_rhs == pytest.approx(rhs, rel=1e-10)
            worst = stats.kappa4_max.direction
            assert np.linalg.norm(worst) == pytest.approx(1.0, abs=1e-12)
            assert stats.worst_lhs == pytest.approx(var_along(worst),
                                                    rel=1e-10)
            grid_max = max(var_along(t) for t in chaos2.sphere_grid(d))
            assert stats.worst_lhs >= grid_max * (1.0 - 1e-12)


def test_cov_matches_isserlis(unit_alphas_factory):
    rng = np.random.default_rng(8)
    a1 = rng.standard_normal((3, 3))
    a1 = 0.5 * (a1 + a1.T)
    a2 = rng.standard_normal((3, 3))
    a2 = 0.5 * (a2 + a2.T)
    m = MultivariateSecondChaos([a1, a2])
    cov = m.covariance()
    polys = [quadratic_form_polynomial(a) - float(np.trace(a))
             for a in (a1, a2)]
    for i in range(2):
        for j in range(2):
            assert cov[i, j] == pytest.approx(
                isserlis_expectation(polys[i] * polys[j]), rel=1e-10)


def test_sphere_kappa4_worked_pair():
    m = worked_pair()
    res = chaos2.sphere_kappa4_max(m)
    assert res.value == pytest.approx(6.0, abs=1e-12)
    k4 = chaos2.kappa4_of_directions(m, chaos2.sphere_grid(2))
    assert k4.shape == (66,)
    assert np.all(np.abs(k4 - 6.0) <= 1e-12)


def test_sphere_kappa4_d1_consistency():
    m = MultivariateSecondChaos([np.array([[SQ2]])])
    res = chaos2.sphere_kappa4_max(m)
    assert res.value == pytest.approx(12.0)
    tab = chaos2.newton_cumulants(DiagonalSecondChaos([SQ2]), 2)
    assert res.value == pytest.approx(tab.cumulants[1])


@pytest.mark.parametrize("scale", [1e-5, 1e-3, 1e5])
def test_sphere_kappa4_scale_covariant(scale):
    # kappa4 has degree 4 in the matrices, and the search's steps g/|g| do
    # not see their scale: the value scales exactly, the direction stays
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(2):
        a = rng.standard_normal((6, 6))
        mats.append(0.5 * (a + a.T))
    ref = chaos2.sphere_kappa4_max(MultivariateSecondChaos(mats))
    res = chaos2.sphere_kappa4_max(
        MultivariateSecondChaos([scale * a for a in mats]))
    assert res.value / scale ** 4 == pytest.approx(ref.value, rel=1e-12)
    assert np.allclose(res.direction, ref.direction, rtol=0, atol=1e-6)


def test_sphere_kappa4_axis_max():
    a1 = np.diag([0.5, -0.5])
    m = MultivariateSecondChaos([a1, np.zeros((2, 2))])
    res = chaos2.sphere_kappa4_max(m)
    assert res.value == pytest.approx(6.0, abs=1e-9)
    assert abs(res.direction[0]) == pytest.approx(1.0, abs=1e-6)
