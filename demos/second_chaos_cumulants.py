"""Cumulants, symmetric functions and certificates for the second chaos.

Walks the exact machinery on two families: a single scaled chi-square and
the averaged family alpha_k = 1/sqrt(2n) whose fourth cumulant is 12/n.
The certificates, the Laplace check and the small-ball bound are runs of
the experiment runner.
"""

import numpy as np

from wienerchaos import chaos2
from wienerchaos.chaos2 import DiagonalSecondChaos

from _experiment import run


def show_table(name, f, p_max=3):
    tab = chaos2.newton_cumulants(f, p_max)
    print(f"\n{name}  (variance = {f.variance:.12f})")
    print("  p   N_p             S_p             kappa_2p")
    for p in range(1, p_max + 1):
        print(f"  {p}   {tab.newton[p-1]:<14.8g}  {tab.elementary[p-1]:<14.8g}"
              f"  {tab.cumulants[p-1]:<14.8g}")


def main():
    print("=" * 72)
    print("exact cumulants of the second chaos")
    print("=" * 72)
    show_table("F = (G^2 - 1)/sqrt(2)", DiagonalSecondChaos([2 ** -0.5]))

    n = 12
    fam = DiagonalSecondChaos(np.full(n, 1.0 / np.sqrt(2 * n)))
    show_table(f"averaged family, n = {n}", fam)
    print(f"  kappa_4 = 12/n = {12 / n} exactly")

    print("\ndeviation of S_p from its Gaussian-limit value 1/(2^p p!):")
    for p_ord in (2, 3, 4):
        dev = chaos2.check_sp_deviation(fam, p_ord)
        print(f"  p={p_ord}: |S_p - 1/(2^p p!)| = {dev.lhs:.6g} "
              f"<= p*kappa4/48 = {dev.rhs:.6g}  ({dev.lhs <= dev.rhs})")

    print("\nnegative-moment certificates (threshold 24 / (2^p (p+1)!));\n"
          "the runner records an uncertified family as a FAIL:")
    for n_fam in (12, 48, 192):
        for r in run("thm1-certificate", {"kind": "chi2-average",
                                          "size": n_fam}, {"p": "2, 3"}
                     ).csv["thm1_certificate.csv"]:
            mark = f"1/Gamma in L^q for q < {r['q_sup']:g}" \
                if r["certified"] else "not certified"
            print(f"  n={n_fam:<4d} p={r['p']:g}: kappa4={r['kappa4']:.6g} "
                  f"vs {r['threshold']:.6g} -> {mark}")

    print(f"\nLaplace transform of Gamma, closed form vs Monte Carlo "
          f"(n = {n}):")
    for r in run("laplace-check", {"kind": "chi2-average", "size": n},
                 samples=200_000, seed=1).csv["laplace_check.csv"]:
        print(f"  lambda={r['lambda']:<5g} closed={r['closed_form']:.6f} "
              f"mc={r['mc_mean']:.6f} +- {r['mc_se']:.6f}")

    # far below any sample's reach: Ruben's series gives the exact CDF
    print("\nsmall-ball bound for a certified family (n = 192, p = 3):")
    for r in run("smallball2", {"kind": "chi2-average", "size": 192}
                 ).csv["smallball2.csv"]:
        print(f"  eps={r['eps']:<5g} exact P(Gamma < eps) = {r['cdf']:.3g} "
              f"<= bound {r['bound']:.4g}")


if __name__ == "__main__":
    main()
