"""The sharp-gradient matrix of a third-chaos variable and the spectral
encoding of its carre du champ.

For F = X1 X2 X3 (and any unit-variance cubic), the matrix A_hat built from
an independent Gaussian copy satisfies, for every real xi,

    E exp(-Gamma[F,F] xi^2 / 2)  =  E_hat prod_k (1 - 2 i xi lam_k)^(-1/2),

so the spectrum {lam_k} carries the whole law of Gamma[F,F]."""

import math

import numpy as np

from wienerchaos import chaos2, chaos3, mc
from wienerchaos.cli import family_generators


def main():
    t = chaos3.SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True)
    print("F = X1 X2 X3  (unit variance: coefficient 1/6 on the triple)")

    xhat = np.array([[0.0, 0.0, 1.0]])
    (m,) = chaos3.sharp_batch(t, xhat)
    (eigs,) = chaos3.spectra_batch(t, xhat)
    print(f"\nsharp matrix at xhat = e3 (trace is exactly "
          f"{np.trace(m):g}):\n{m}")
    print(f"spectrum, |.|-ordered: {eigs}")

    print("\nspectral identity, both sides estimated independently "
          "(2e4 samples):")
    xis = (0.5, 1.0, 2.0)

    def lhs_fn(x):
        g = chaos3.gamma_batch(t, x)
        return np.stack([np.exp(-0.5 * xi * xi * g) for xi in xis], axis=1)

    def rhs_fn(xh):
        lams = chaos3.spectra_batch(t, xh)
        z = np.stack([np.exp(chaos2.log_char_product(xi * lams))
                      for xi in xis], axis=1)
        return np.concatenate([z.real, z.imag], axis=1)

    # each side from its own stream of the same seed
    (lhs,) = mc.reduce(lhs_fn, 20_000, mc.RngSpec(11, 0), t.n, mc.Moments())
    (rhs,) = mc.reduce(rhs_fn, 20_000, mc.RngSpec(11, 1), t.n, mc.Moments())
    parts = rhs.results()     # real parts, then imaginary parts
    for xi, left, re, im in zip(xis, lhs.results(), parts, parts[len(xis):]):
        gap = mc.EstimatorResult(left.mean - re.mean,
                                 math.hypot(left.stderr, re.stderr), left.n)
        print(f"  xi={xi:<4g} "
              f"lhs={left.mean:.5f}+-{left.stderr:.5f}  "
              f"Re rhs={re.mean:.5f}+-{re.stderr:.5f}  "
              f"Im rhs={im.mean:+.5f}  agree={gap.within(0.0, 3.0)}")

    tf = chaos3.trace_form(t)
    print(f"\ntrace form Tr(A_hat^2) = sum beta_k G_k^2:")
    print(f"  betas = {tf.betas}  (sum = {tf.expected_trace:g}, always 3/2)")
    print(f"  Var Tr(A_hat^2) = 2 Tr(B^2) = {tf.var_trace:g}")
    neg = chaos2.negative_moment(tf.to_diagonal_chaos(), 1.0)
    print(f"  E Tr(A_hat^2)^(-1) via the second-chaos machinery: {neg:.6f} "
          "(exact 2 for chi^2_3/2)")

    res = chaos3.kappa4_and_var_gamma(t)
    print(f"\nfourth cumulant and Var Gamma (exact, contractions): "
          f"kappa4={res.kappa4:g}, VarGamma={res.var_gamma:g}; "
          f"sqrt(VarGamma)={res.var_gamma ** 0.5:g} <= "
          f"3 sqrt(kappa4)={3 * res.kappa4 ** 0.5:.4g}")

    print("\nspectral radius across families (2e4 samples each):")
    print("  family             N    ||lam_1||_2      kappa_4 (exact)")
    for kind in ("complete-3-tensor", "block-3-tensor"):
        for n in (6, 12, 24):
            fam = family_generators(kind, n)
            raw = mc.estimate(
                lambda xh: chaos3.spectra_batch(fam, xh)[:, 0] ** 2,
                20_000, mc.RngSpec(13), fam.n)
            # ||lam_1||_2 = (E lam_1^2)^(1/2), its stderr by the delta method
            norm = raw.mean ** 0.5
            se = norm * raw.stderr / (2 * raw.mean)
            k4 = chaos3.kappa4_contraction(fam)
            print(f"  {kind:<18s} {n:<4d} {norm:.4f}+-{se:.4f}"
                  f"    {k4:.4f}")
    print("  the block family (kappa_4 = 72/N -> 0) shows the shrinking "
          "spectral radius;\n  the complete family converges to the cubic "
          "Hermite limit instead, so both rise")


if __name__ == "__main__":
    main()
