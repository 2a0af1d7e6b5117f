import numpy as np
import pytest

from wienerchaos import wick
from wienerchaos.wick import (
    DegreeCapError,
    GaussianPolynomial,
    cumulants_from_moment_sequence,
    gamma_of_polynomial,
    isserlis_expectation,
)


def x(i, nvars):
    return GaussianPolynomial.variable(i, nvars)


def test_second_moment():
    assert isserlis_expectation(x(0, 1) ** 2) == 1.0


def test_mixed_even_moment():
    p = GaussianPolynomial(2, {(2, 4): 1.0})
    assert isserlis_expectation(p) == 3.0  # 1!! * 3!!


def test_product_fourth_moment():
    p = (x(0, 3) * x(1, 3) * x(2, 3)) ** 4
    assert isserlis_expectation(p) == 27.0  # 3 * 3 * 3


def test_odd_moments_vanish_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nvars = int(rng.integers(1, 4))
        exps = [int(e) for e in rng.integers(0, 4, nvars)]
        if sum(exps) % 2 == 0:
            exps[0] += 1
        p = GaussianPolynomial.monomial(exps, float(rng.standard_normal()), nvars)
        assert isserlis_expectation(p) == 0.0


def test_degree_cap(monkeypatch):
    p = GaussianPolynomial(1, {(18,): 1.0})
    with pytest.raises(DegreeCapError):
        isserlis_expectation(p)
    monkeypatch.setattr(wick, "DEGREE_CAP", 18)
    assert isserlis_expectation(p) == pytest.approx(
        float(np.prod(np.arange(17, 0, -2))))


def test_linearity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = GaussianPolynomial(
            2, {(int(a), int(b)): float(rng.standard_normal())
                for a in range(3) for b in range(3)})
        q = GaussianPolynomial(
            2, {(int(a), int(b)): float(rng.standard_normal())
                for a in range(3) for b in range(3)})
        a, b = rng.standard_normal(2)
        lhs = isserlis_expectation(a * p + b * q)
        rhs = a * isserlis_expectation(p) + b * isserlis_expectation(q)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_cumulants_standard_normal():
    assert cumulants_from_moment_sequence([0, 1, 0, 3]) == [0.0, 1.0, 0.0, 0.0]


def test_cumulants_triple_product():
    f = x(0, 3) * x(1, 3) * x(2, 3)
    ms = [isserlis_expectation(f ** k) for k in (1, 2, 3, 4)]
    assert ms == [0.0, 1.0, 0.0, 27.0]
    k = cumulants_from_moment_sequence(ms)
    assert k[3] == pytest.approx(24.0)


def test_cumulants_centered_chi_square():
    # F = (G^2 - 1)/sqrt(2): E F^4 = 15, kappa4 = 12
    g2 = GaussianPolynomial(1, {(2,): 2 ** -0.5, (0,): -(2 ** -0.5)})
    ms = [isserlis_expectation(g2 ** k) for k in (1, 2, 3, 4)]
    assert ms[3] == pytest.approx(15.0)
    k = cumulants_from_moment_sequence(ms)
    assert k[3] == pytest.approx(12.0)


def test_cumulant_sequence_order6():
    # standard normal: kappa_n = 0 for n >= 3
    ks = cumulants_from_moment_sequence([0, 1, 0, 3, 0, 15])
    assert np.allclose(ks, [0, 1, 0, 0, 0, 0], atol=1e-12)


def test_gamma_first_chaos():
    g = gamma_of_polynomial(x(0, 1))
    assert g.terms == {(0,): 1.0}


def test_gamma_triple_product():
    g = gamma_of_polynomial(x(0, 3) * x(1, 3) * x(2, 3))
    assert g.terms == {(0, 2, 2): 1.0, (2, 0, 2): 1.0, (2, 2, 0): 1.0}
    assert isserlis_expectation(g) == 3.0


def test_gamma_mean_is_three_times_variance(unit_tensor_factory):
    # degree-3 homogeneous f: E Gamma[f] = 3 E f^2
    rng = np.random.default_rng(3)
    for _ in range(8):
        t = unit_tensor_factory(rng)
        f = t.to_polynomial()
        ef2 = isserlis_expectation(f * f)
        eg = isserlis_expectation(gamma_of_polynomial(f))
        assert eg == pytest.approx(3.0 * ef2, rel=1e-12)


def test_polynomial_evaluation_matches_terms():
    p = x(0, 2) * x(1, 2) + 2.0
    assert p([3.0, 4.0]) == pytest.approx(14.0)
