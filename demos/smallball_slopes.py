"""Small-ball behaviour of Gamma[F,F] in the third chaos: empirical tail
curves, fitted log-log slopes against the Carbery-Wright baseline 1/4, and
the trace-concentration contrast between families."""

import numpy as np

from wienerchaos import chaos3
from wienerchaos.cli import family_generators


def slope_line(label, t, n_samples, seed):
    eps = np.geomspace(0.01, 0.3, 8)
    res = chaos3.smallball_gamma3(t, eps, n_samples, seed)
    flag = (f" (grid widened: points with fewer than {chaos3.MIN_HITS} hits"
            " or misses left the fit)") if res.widened else ""
    print(f"\n{label}: slope = {res.slope:.4f} +- {res.slope_se:.4f}{flag}")
    print("  eps      P(Gamma < eps)   hits")
    for e, p, h, u in zip(res.eps, res.phat, res.hits, res.used):
        mark = "" if u else "   [excluded]"
        print(f"  {e:<8.4f} {p:<15.6g}  {h}{mark}")
    return res


def main():
    print("=" * 72)
    print("small-ball slopes of Gamma[F,F] (Carbery-Wright baseline: 1/4)")
    print("=" * 72)
    t3 = chaos3.SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True)
    slope_line("F = X1 X2 X3", t3, 500_000, seed=5)

    t20 = family_generators("complete-3-tensor", 20)
    res = slope_line("complete tensor, N = 20 (1e6 samples)", t20,
                     1_000_000, seed=6)
    print(f"  baseline exceedance: ({res.slope:.3f} - 0.25)/se = "
          f"{(res.slope - 0.25) / res.slope_se:.0f} standard errors")

    print("\nnegative moments E Gamma^(-theta) with the heavy-tail flag:")
    for r in chaos3.negative_moment_gamma3(t3, (0.25, 0.5, 0.9), 200_000,
                                           seed=7):
        theta = r.theta
        flag = "UNSTABLE (top 0.1% carries >50% of the mass)" if r.unstable \
            else "stable"
        print(f"  theta={theta:<5g} mean={r.estimate.mean:<10.5g} "
              f"top-share={r.top_share:.3f}  {flag}")

    print("\ntrace concentration: Var Tr(A_hat^2) against kappa_4")
    print("  family             N    kappa_4     Var Tr(A_hat^2)")
    for kind in ("block-3-tensor", "complete-3-tensor"):
        for n in (6, 12, 24):
            t = family_generators(kind, n)
            tf = chaos3.trace_form(t)
            print(f"  {kind:<18s} {n:<4d} {chaos3.kappa4_contraction(t):<10.4f}"
                  f"  {tf.var_trace:.4f}")
    print("  the block family shows the concentration phenomenon "
          "(both columns vanish together);\n  the complete family's "
          "kappa_4 does not vanish, and neither does its trace variance")


if __name__ == "__main__":
    main()
