"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; statistical gates use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from wienerchaos import chaos2, chaos3, mc
from wienerchaos.chaos2 import DiagonalSecondChaos, MultivariateSecondChaos
from wienerchaos.cli import family_generators
from wienerchaos.wick import (
    cumulants_from_moment_sequence,
    isserlis_expectation,
)
import oracles
from oracles import make_unit_alphas, make_unit_tensor

SEED = 20260811
SQ2 = 2 ** -0.5


def report(num, ok, detail):
    print(f"\nacceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def twenty_unit_vectors():
    rng = np.random.default_rng(SEED)
    return [make_unit_alphas(rng) for _ in range(20)]


def test_c01_cumulant_identity():
    start = time.perf_counter()
    worst = 0.0
    for f in twenty_unit_vectors():
        tab = chaos2.newton_cumulants(f, 3)
        p = oracles.diagonal_polynomial(f)
        moments = [isserlis_expectation(p ** k) for k in range(1, 7)]
        ks = cumulants_from_moment_sequence(moments)
        for p_ord, oracle in [(1, ks[1]), (2, ks[3]), (3, ks[5])]:
            rel = abs(tab.cumulants[p_ord - 1] - oracle) / abs(oracle)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(1, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s "
                         "(20 vectors, orders 2/4/6 vs oracle)")


def test_c02_laplace_product_vs_mc():
    start = time.perf_counter()
    models = [DiagonalSecondChaos([SQ2]), DiagonalSecondChaos([0.5, 0.5])]
    worst_z = 0.0
    for i, f in enumerate(models):
        for closed, est in chaos2.laplace_vs_mc(
                f, (0.25, 1.0, 4.0), 1_000_000, mc.RngSpec(SEED, 10 * i)):
            z = abs(est.mean - closed) / est.stderr
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 4.0 and elapsed < 30.0
    assert report(2, ok, f"max |z| {worst_z:.2f} (limit 4), {elapsed:.1f}s, "
                         "1e6 samples per point")


def test_c03_sp_inequality_and_partition_formula():
    # S_p can vanish by exact cancellation (p > m), so the 1e-10 agreement
    # is measured against the leading-term magnitude N_1^p / p!
    worst_rel = 0.0
    all_hold = True
    for f in twenty_unit_vectors():
        tab = chaos2.newton_cumulants(f, 6)
        for p in range(1, 7):
            all_hold &= chaos2.check_sp_deviation(f, p).holds
            explicit = oracles.girard_partition_sum(tab.newton, p)
            scale = max(abs(explicit),
                        tab.newton[0] ** p / math.factorial(p))
            worst_rel = max(worst_rel,
                            abs(tab.elementary[p - 1] - explicit) / scale)
    ok = all_hold and worst_rel <= 1e-10
    assert report(3, ok, f"deviation bound holds for p<=6 on all 20 vectors; "
                         f"partition-vs-recursion max rel err {worst_rel:.2e}")


def test_c04_smallball_certified_family():
    # Gamma = chi2_192 / 96 here, so P(Gamma < eps) = gammainc(96, 48 eps)
    # exactly.  At the claim's eps that is below 1e-60: the draws cannot
    # fail the bound there, so the exact CDF is checked against the bound,
    # chaos2.smallball_cdf against that CDF, and the same draws must
    # reproduce the CDF at eps 1.4-1.6, where about 550, 4 000 and 19 000
    # hits are expected.
    from scipy.special import gammainc
    start = time.perf_counter()
    n = 192
    f = DiagonalSecondChaos(np.full(n, 1.0 / math.sqrt(2 * n)))
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    cert = chaos2.thm1_certificate(kappa4, 3)
    eps = np.array([0.05, 0.1, 0.2])
    eps_bulk = np.array([1.4, 1.5, 1.6])
    nsamp = 1_000_000
    (hits,) = mc.reduce(f.sample_gamma, nsamp, mc.RngSpec(SEED, 0),
                        mc.Hits(np.concatenate([eps, eps_bulk])))
    (phat_all,), (se_all,) = hits.fractions()
    phat, se = phat_all[:3], se_all[:3]
    bounds = np.array([chaos2.smallball_bound(3, e) for e in eps])
    within = np.all(phat <= bounds + 3 * se)
    exact = gammainc(n / 2, n / 4 * eps)
    exact_ok = np.all(exact <= bounds)
    series_rel = float(np.max(np.abs(chaos2.smallball_cdf(f, eps) / exact
                                     - 1.0)))
    z = (phat_all[3:] - gammainc(n / 2, n / 4 * eps_bulk)) / se_all[3:]
    elapsed = time.perf_counter() - start
    ok = (cert.certified and kappa4 == pytest.approx(1 / 16, rel=1e-12)
          and within and exact_ok and series_rel <= 1e-12
          and np.all(np.abs(z) <= 3.0) and elapsed < 60.0)
    assert report(4, ok, f"kappa4={kappa4:.6g} < {cert.threshold:.6g}; "
                         f"phat={phat} <= bound+3se={bounds + 3 * se}; "
                         f"exact cdf <= bound: {exact_ok}; series vs "
                         f"gammainc rel {series_rel:.1e}; bulk z={z}; "
                         f"{elapsed:.1f}s")


def test_c05_negative_moment_quadrature():
    from scipy.special import gamma as gfun
    closed = float(gfun(0.25)) / math.sqrt(2.0 * math.pi)
    val = chaos2.negative_moment(DiagonalSecondChaos([SQ2]), 0.25)
    quad_ok = abs(val - closed) < 1e-6
    f2 = DiagonalSecondChaos([0.5, 0.5])
    val2 = chaos2.negative_moment(f2, 0.5)
    est = mc.estimate(lambda rng, cnt: f2.sample_gamma(rng, cnt) ** -0.5,
                      1_000_000, mc.RngSpec(SEED, 1))
    mc_ok = est.within(val2, 3.0)
    ok = quad_ok and mc_ok
    assert report(5, ok, f"mellin={val:.9f} vs closed={closed:.9f} "
                         f"(diff {abs(val - closed):.1e}); "
                         f"q=1/2 mc z={abs(est.mean - val2) / est.stderr:.2f}")


def test_c06_gamma_spec_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    tensors = [chaos3.SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True)]
    tensors += [make_unit_tensor(rng, n=6) for _ in range(5)]
    worst_real, worst_imag = 0.0, 0.0
    for ti, t in enumerate(tensors):
        for chk in chaos3.verify_gamma_spec(t, (0.5, 1.0, 2.0), 100_000,
                                            SEED + 100 * ti):
            gap = abs(chk.lhs.mean - chk.rhs_re.mean)
            worst_real = max(worst_real, gap / math.hypot(
                chk.lhs.stderr, chk.rhs_re.stderr))
            worst_imag = max(worst_imag,
                             abs(chk.rhs_im.mean) / chk.rhs_im.stderr)
    elapsed = time.perf_counter() - start
    ok = worst_real <= 3.0 and worst_imag <= 3.0 and elapsed < 120.0
    assert report(6, ok, f"max real z {worst_real:.2f}, max imag z "
                         f"{worst_imag:.2f} (limits 3), {elapsed:.1f}s, "
                         "6 tensors x 3 xi (one pass) x 1e5/side")


def test_c07_trace_normalization():
    rng = np.random.default_rng(SEED + 2)
    tensors = [chaos3.SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True),
               family_generators("complete-3-tensor", 6),
               family_generators("block-3-tensor", 6),
               family_generators("spiked-3-tensor", 5),
               make_unit_tensor(rng, n=6), make_unit_tensor(rng, n=4)]
    worst_det = 0.0
    worst_z = 0.0
    zero_trace = True
    for i, t in enumerate(tensors):
        tf = chaos3.trace_form(t)
        worst_det = max(worst_det, abs(tf.expected_trace - 1.5))
        est = mc.estimate(
            lambda r, c, t=t: chaos3.trace_square_batch(
                t, r.standard_normal((c, t.n))),
            100_000, mc.RngSpec(SEED, 20 + i))
        worst_z = max(worst_z, abs(est.mean - 1.5) / est.stderr)
        (sharp,) = chaos3.sharp_batch(t, rng.standard_normal((1, t.n)))
        zero_trace &= float(np.trace(sharp)) == 0.0
    ok = worst_det <= 1e-12 and worst_z <= 3.0 and zero_trace
    assert report(7, ok, f"max |sum beta - 3/2| {worst_det:.2e} (det), "
                         f"max mc z {worst_z:.2f}, exact zero trace: "
                         f"{zero_trace}")


def test_c08_variance_kappa4_bound():
    worked = chaos3.kappa4_and_var_gamma(
        chaos3.SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True))
    worked_ok = (worked.var_gamma == pytest.approx(36.0, rel=1e-12)
                 and worked.kappa4 == pytest.approx(24.0, rel=1e-12))
    rng = np.random.default_rng(SEED + 3)
    all_hold = True
    for _ in range(20):
        t = make_unit_tensor(rng, n=int(rng.integers(3, 6)))
        all_hold &= chaos3.kappa4_and_var_gamma(t).bound_holds
    ok = worked_ok and all_hold
    assert report(8, ok, f"worked (VarGamma, kappa4)=({worked.var_gamma:.6g}, "
                         f"{worked.kappa4:.6g}); sqrt(VarGamma) <= "
                         f"3 sqrt(kappa4) for all 20 random tensors: "
                         f"{all_hold}")


def test_c09_multivariate_worked_example():
    m = MultivariateSecondChaos([np.diag([0.5, -0.5]),
                                 np.array([[0.0, 0.5], [0.5, 0.0]])])
    stats = chaos2.cross_gamma_stats(m)
    cross_ok = stats.cross_l2[0, 1] <= 1e-12
    k4_vals = chaos2.kappa4_of_directions(m, chaos2.sphere_grid(2))
    k4_ok = bool(np.all(np.abs(k4_vals - 6.0) <= 1e-12))
    ok = cross_ok and k4_ok and stats.holds
    assert report(9, ok, f"||Gamma_12||_2={stats.cross_l2[0, 1]:.2e}; "
                         f"kappa4 on all 64+2 directions = 6 +- 1e-12: "
                         f"{k4_ok}; variance bound holds: {stats.holds}")


def test_c10_smallball_exponent_third_chaos():
    start = time.perf_counter()
    t = family_generators("complete-3-tensor", 20)
    eps = np.geomspace(0.01, 0.3, 8)
    res = chaos3.smallball_gamma3(t, eps, 10_000_000, SEED)
    elapsed = time.perf_counter() - start
    margin = (res.slope - 0.25) / res.slope_se
    ok = margin >= 2.0 and elapsed < 600.0
    # the slope itself and its distance to the 3/4 target are reported only
    assert report(10, ok,
                  f"slope={res.slope:.4f} +- {res.slope_se:.4f} "
                  f"(CW baseline 0.25 exceeded by {margin:.1f} se); "
                  f"distance to 0.75: {res.slope - 0.75:+.4f}; "
                  f"widened={res.widened}; {elapsed:.0f}s")


def test_c11_trace_concentration_monotonicity():
    """Trace concentration along central convergence, gated exactly.

    Part 1, decrease along the vanishing-kappa4 family: block-3-tensor
    with n_b = N/3 disjoint triples is a normalized sum of n_b iid copies
    of one triple product, so kappa4 = 24/n_b and Var Tr(A_hat^2) =
    3/(2 n_b) in closed form.  At N = 6, 12, 24 both must match these to
    1e-12 and decrease strictly.

    Part 2, concentration controlled by kappa4 on every family:
    Var Tr = 2 Tr(B^2) = 162 ||a x_1 a||^2, and the third-chaos contraction
    formula (Nourdin-Peccati 2012, Lemma 5.2.4)
        kappa4 = sum_{r=1,2} 324 (||a x_r a||^2 + C(6-2r, 3-r) ||a ~x_r a||^2)
    is at least 648 ||a x_1 a||^2, since ||a x_2 a|| = ||a x_1 a|| for a
    symmetric a.  Hence Var Tr <= kappa4/4 on block-, complete- and
    spiked-3-tensor at N = 6, 12, 24.

    complete-3-tensor is the contrast case: it converges to the
    non-Gaussian H3(Z)/sqrt(6), not to a Gaussian, so its kappa4 rises
    toward 90 (35.40 / 58.04 / 72.97) and its trace variance rises with it
    (2.100 / 3.136 / 3.783).  Part 1 does not apply to it; part 2 does.
    """
    sizes = (6, 12, 24)
    values = {}
    for kind in ("block-3-tensor", "complete-3-tensor", "spiked-3-tensor"):
        for n in sizes:
            t = family_generators(kind, n)
            values[kind, n] = (chaos3.kappa4_contraction(t),
                               chaos3.trace_form(t).var_trace)
    block = [values["block-3-tensor", n] for n in sizes]
    closed_ok = all(
        math.isclose(k4, 24.0 / (n // 3), rel_tol=1e-12)
        and math.isclose(vt, 3.0 / (2 * (n // 3)), rel_tol=1e-12)
        for n, (k4, vt) in zip(sizes, block))
    decreasing = all(b[0] < a[0] and b[1] < a[1]
                     for a, b in zip(block, block[1:]))
    bound_ok = all(vt <= k4 / 4.0 for k4, vt in values.values())
    detail = "; ".join(f"{kind.split('-')[0]} N={n}: kappa4={k4:.4f}, "
                       f"VarTr={vt:.4f}, VarTr/kappa4={vt / k4:.4f}"
                       for (kind, n), (k4, vt) in values.items())
    ok = closed_ok and decreasing and bound_ok
    report(11, ok, detail + f" (block closed forms: {closed_ok}, block "
                            f"decreasing: {decreasing}, VarTr <= kappa4/4: "
                            f"{bound_ok})")
    assert ok, ("trace concentration gate: block-3-tensor must match "
                "kappa4 = 24/n_b and Var Tr = 3/(2 n_b) and decrease in N, "
                "and Var Tr <= kappa4/4 must hold on every family "
                f"(contraction-formula bound): {detail}")


def test_c12_density_regularization():
    n = 64
    f = DiagonalSecondChaos(np.full(n, 1.0 / math.sqrt(2 * n)))
    xs, dens = chaos2.density_by_inversion(f, -6.0, 6.0, 0.01)
    mass = float(np.trapezoid(dens, xs))
    mass_ok = abs(mass - 1.0) <= 1e-3
    inner = (xs >= -4.0) & (xs <= 4.0)
    nonneg_ok = bool(dens[inner].min() >= -1e-3)
    gauss = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    tv = 0.5 * float(np.trapezoid(np.abs(dens - gauss), xs))
    bound = min(chaos3.dtv_bound(12.0 / n), 1.0)
    tv_ok = tv <= bound
    ok = mass_ok and nonneg_ok and tv_ok
    assert report(12, ok, f"mass={mass:.6f}; min density on [-4,4] "
                          f"{dens[inner].min():.2e}; tv={tv:.4f} <= "
                          f"bound={bound:.4f}")
