"""Cumulants, symmetric functions and certificates for the second chaos.

Walks the exact machinery on two families: a single scaled chi-square and
the averaged family alpha_k = 1/sqrt(2n) whose fourth cumulant is 12/n.
"""

import numpy as np

from wienerchaos import chaos2, mc
from wienerchaos.chaos2 import DiagonalSecondChaos
from wienerchaos.wick import (
    GaussianPolynomial,
    cumulants_from_moment_sequence,
    isserlis_expectation,
)


def show_table(name, f, p_max=3):
    tab = chaos2.newton_cumulants(f, p_max)
    print(f"\n{name}  (variance = {f.variance:.12f})")
    print("  p   N_p             S_p             kappa_2p")
    for p in range(1, p_max + 1):
        print(f"  {p}   {tab.newton[p-1]:<14.8g}  {tab.elementary[p-1]:<14.8g}"
              f"  {tab.cumulants[p-1]:<14.8g}")
    return tab


def main():
    print("=" * 72)
    print("exact cumulants vs the Gaussian-moment oracle")
    print("=" * 72)
    f = DiagonalSecondChaos([2 ** -0.5])
    tab = show_table("F = (G^2 - 1)/sqrt(2)", f)
    p = GaussianPolynomial(1, {(2,): 2 ** -0.5, (0,): -2 ** -0.5})
    moments = [isserlis_expectation(p ** k) for k in range(1, 7)]
    ks = cumulants_from_moment_sequence(moments)
    print(f"  oracle check: kappa_4 from E F^k = {ks[3]:.12g} "
          f"(formula gave {tab.cumulants[1]:.12g})")

    n = 12
    fam = DiagonalSecondChaos(np.full(n, 1.0 / np.sqrt(2 * n)))
    tab = show_table(f"averaged family, n = {n}", fam)
    print(f"  kappa_4 = 12/n = {12 / n} exactly")

    print("\ndeviation of S_p from its Gaussian-limit value 1/(2^p p!):")
    for p_ord in (2, 3, 4):
        dev = chaos2.check_sp_deviation(fam, p_ord)
        print(f"  p={p_ord}: |S_p - 1/(2^p p!)| = {dev.lhs:.6g} "
              f"<= p*kappa4/48 = {dev.rhs:.6g}  ({dev.lhs <= dev.rhs})")

    print("\nnegative-moment certificates (threshold 24 / (2^p (p+1)!)):")
    for n_fam in (12, 48, 192):
        g = DiagonalSecondChaos(np.full(n_fam, 1.0 / np.sqrt(2 * n_fam)))
        kappa4 = chaos2.newton_cumulants(g, 2).cumulants[1]
        for p_ord in (2, 3):
            threshold = chaos2.thm1_threshold(p_ord)
            mark = f"1/Gamma in L^q for q < {p_ord / 2:g}" \
                if kappa4 < threshold else "not certified"
            print(f"  n={n_fam:<4d} p={p_ord}: kappa4={kappa4:.6g} vs "
                  f"{threshold:.6g} -> {mark}")

    print("\nLaplace transform of Gamma, closed form vs Monte Carlo:")
    lams = np.array([0.25, 1.0, 4.0])
    (moments,) = mc.reduce(
        lambda x: np.exp(-np.multiply.outer(fam.sample_gamma(x), lams)),
        200_000, mc.RngSpec(1, 1), fam.m, mc.Moments())
    for lam, closed, est in zip(lams, chaos2.laplace_gamma(fam, lams),
                                moments.results()):
        print(f"  lambda={lam:<5g} closed={closed:.6f} "
              f"mc={est.mean:.6f} +- {est.stderr:.6f}")

    # far below any sample's reach: Ruben's series gives the exact CDF
    print("\nsmall-ball bound for a certified family (p = 3):")
    g = DiagonalSecondChaos(np.full(192, 1.0 / np.sqrt(384)))
    eps_grid = (0.05, 0.1, 0.2)
    for eps, cdf in zip(eps_grid, chaos2.smallball_cdf(g, eps_grid)):
        print(f"  eps={eps:<5g} exact P(Gamma < eps) = {cdf:.3g} "
              f"<= bound {chaos2.smallball_bound(3, eps):.4g}")


if __name__ == "__main__":
    main()
