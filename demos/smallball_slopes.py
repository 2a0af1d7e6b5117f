"""Small-ball behaviour of Gamma[F,F] in the third chaos: empirical tail
curves, fitted log-log slopes against the Carbery-Wright baseline 1/4, and
the trace-concentration contrast between families.  The curves, slopes
and negative moments are runs of the experiment runner."""

from wienerchaos import chaos2, chaos3
from wienerchaos.cli import family_generators

from _experiment import X1X2X3, run


def slope_line(label, model, n_samples, seed):
    res = run("smallball3", model, samples=n_samples, seed=seed)
    (fit,) = res.csv["smallball3_fit.csv"]
    # the runner's rule: a point enters the fit with enough hits and misses
    flag = " (grid widened: points with too few hits or misses left the " \
        "fit)" if fit["widened"] else ""
    print(f"\n{label}: slope = {fit['slope']:.4f} +- {fit['slope_se']:.4f}"
          f"{flag}")
    print("  eps      P(Gamma < eps)   hits")
    for r in res.csv["smallball3.csv"]:
        mark = "" if r["used_in_fit"] else "   [excluded]"
        print(f"  {r['eps']:<8.4f} {r['phat']:<15.6g}  {r['hits']:g}{mark}")
    return res.checks["cw_exceedance"]


def main():
    print("=" * 72)
    print("small-ball slopes of Gamma[F,F] (Carbery-Wright baseline: 1/4)")
    print("=" * 72)
    slope_line("F = X1 X2 X3", X1X2X3, 500_000, seed=5)

    cw = slope_line("complete tensor, N = 20 (1e6 samples)",
                    {"kind": "complete-3-tensor", "size": 20}, 1_000_000,
                    seed=6)
    print(f"  baseline exceedance: ({cw['statistic']:.3f} - 0.25)/se = "
          f"{cw['z']:.0f} standard errors")

    print("\nnegative moments E Gamma^(-theta) with the heavy-tail flag:")
    for r in run("negmoment3", X1X2X3, {"theta": "0.25, 0.5"},
                 samples=200_000, seed=7).csv["negmoment3.csv"]:
        flag = "UNSTABLE (top 0.1% carries >50% of the mass)" \
            if r["unstable"] else "stable"
        print(f"  theta={r['theta']:<5g} mean={r['mean']:<10.5g} "
              f"top-share={r['top_share']:.3f}  {flag}")
    try:
        run("negmoment3", X1X2X3, {"theta": 0.9})
    except chaos2.DivergenceError as exc:
        print(f"  theta=0.9   DivergenceError: {exc}")

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
