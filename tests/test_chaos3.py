import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wienerchaos import chaos2, chaos3, mc
from wienerchaos.chaos3 import SymThreeTensor
from wienerchaos.cli import family_generators
from wienerchaos.wick import isserlis_expectation

import oracles

SEED = 20260811


def triple_product():
    # F = X1 X2 X3
    return SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True)


# ---------------------------------------------------------------------------
# construction and the variance convention
# ---------------------------------------------------------------------------

def test_make_tensor_normalization():
    t = triple_product()
    assert t.entries[(1, 2, 3)] == pytest.approx(1.0 / 6.0)
    p = t.to_polynomial()
    assert p.terms == {(1, 1, 1): pytest.approx(1.0)}
    assert isserlis_expectation(p * p) == pytest.approx(1.0)


def test_complete_tensor_entry_value():
    t = family_generators("complete-3-tensor", 4)
    assert len(t.entries) == 4
    for v in t.entries.values():
        assert abs(v) == pytest.approx(1.0 / 12.0)  # 1/sqrt(144)
    assert t.unit_variance


def test_coincident_index_rejected():
    with pytest.raises(ValueError):
        SymThreeTensor(3, {(1, 1, 2): 1.0})
    with pytest.raises(ValueError):
        SymThreeTensor(3, {(2, 1, 3): 1.0})   # not strictly increasing
    with pytest.raises(ValueError):
        SymThreeTensor(3, {(1, 2, 4): 1.0})   # out of range


def test_zero_tensor_normalize_rejected():
    with pytest.raises(ValueError):
        SymThreeTensor(4, {}, normalize=True)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_normalize_survives_extreme_scales(scale):
    # the squares under- or overflow: once "all-zero" and 0.0 entries
    t = SymThreeTensor(6, {(1, 2, 3): scale, (4, 5, 6): scale},
                       normalize=True)
    assert list(t.entries.values()) == [t.entries[(1, 2, 3)]] * 2
    assert t.entries[(1, 2, 3)] == pytest.approx(1.0 / (6.0 * 2 ** 0.5),
                                                 rel=1e-15)
    assert t.unit_variance


@pytest.mark.filterwarnings("error")
def test_overflowing_tensor_raises_named_errors():
    # at 1e160 the squares overflow: once variance inf and kappa4 NaN
    with pytest.raises(ValueError, match="variance inf is not finite"):
        SymThreeTensor(6, {(1, 2, 3): 1e160, (4, 5, 6): 1e160})
    # at 1e77 the variance is finite but kappa4 overflows: once inf, with
    # bound_holds True
    t = SymThreeTensor(6, {(1, 2, 3): 1e77, (4, 5, 6): 1e77})
    assert t.variance == pytest.approx(7.2e155)
    with pytest.raises(chaos2.PreconditionError, match="overflow"):
        chaos3.kappa4_and_var_gamma(t)


def test_variance_matches_oracle(unit_tensor_factory):
    rng = np.random.default_rng(1)
    for _ in range(5):
        t = unit_tensor_factory(rng)
        p = t.to_polynomial()
        assert isserlis_expectation(p * p) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# carre du champ
# ---------------------------------------------------------------------------

def test_gamma_point_values():
    t = triple_product()
    got = chaos3.gamma_batch(t, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    assert got[0] == pytest.approx(3.0)
    assert got[1] == 0.0
    assert oracles.gamma_at(t, [1.0, 1.0, 1.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        chaos3.gamma_batch(t, [[1.0, 1.0]])


def test_gamma_mean_is_three():
    t = triple_product()
    est = mc.estimate(
        lambda rng, cnt: chaos3.gamma_batch(t, rng.standard_normal((cnt, 3))),
        100_000, mc.RngSpec(SEED, 0))
    assert est.within(3.0, 3.0)


def test_gamma_batch_matches_pointwise(unit_tensor_factory):
    rng = np.random.default_rng(2)
    t = unit_tensor_factory(rng)
    x = rng.standard_normal((16, t.n))
    batch = chaos3.gamma_batch(t, x)
    for row, val in zip(x, batch):
        assert val == pytest.approx(oracles.gamma_at(t, row), rel=1e-12)


def random_sparse_tensor(n, fill, seed):
    rng = np.random.default_rng(seed)
    entries = {trip: float(rng.standard_normal())
               for trip in itertools.combinations(range(1, n + 1), 3)
               if rng.random() < fill}
    return SymThreeTensor(n, entries, normalize=True)


GAMMA_KERNEL_CASES = {
    "complete-6": lambda: family_generators("complete-3-tensor", 6),
    "complete-20": lambda: family_generators("complete-3-tensor", 20),
    "spiked-20": lambda: family_generators("spiked-3-tensor", 20),
    "block-60": lambda: family_generators("block-3-tensor", 60),
    "random-30": lambda: random_sparse_tensor(30, 0.06, 3),  # ~1 % of n^3
    "triple-product": triple_product,     # n = 3: all three pairs, one slab
    # one each side of the triple kernel's crossover nnz ~ n^2 / 4
    # (C(20,3) = 1140 and C(40,3) = 9880 triples)
    "random-20-sparse": lambda: random_sparse_tensor(20, 0.04, 17),
    "random-20-dense": lambda: random_sparse_tensor(20, 0.25, 18),
    "random-40-sparse": lambda: random_sparse_tensor(40, 0.02, 19),
    "random-40-dense": lambda: random_sparse_tensor(40, 0.08, 20),
}


@pytest.mark.parametrize("case", GAMMA_KERNEL_CASES)
def test_gamma_kernels_match_pointwise(case):
    # both kernels, whichever one gamma_batch would pick for this tensor
    t = GAMMA_KERNEL_CASES[case]()
    x = np.random.default_rng(4).standard_normal((64, t.n))
    ref = np.array([oracles.gamma_at(t, row) for row in x])
    triples = chaos3._gamma_triples(t, x)
    pairs = chaos3._gamma_pairs(t, x)
    assert triples == pytest.approx(ref, rel=1e-12)
    assert pairs == pytest.approx(ref, rel=1e-12)
    assert triples == pytest.approx(pairs, rel=1e-12)


def test_gamma_kernels_block_closed_form():
    # unit block tensor: Gamma = (1/n_b) sum_blocks x1^2 x2^2 + x1^2 x3^2
    # + x2^2 x3^2, since each block's value is 1/(6 sqrt(n_b))
    t = family_generators("block-3-tensor", 150)
    x = np.random.default_rng(5).standard_normal((300, 150))
    sq = (x * x).reshape(300, 50, 3)
    ref = (sq[:, :, 0] * sq[:, :, 1] + sq[:, :, 0] * sq[:, :, 2]
           + sq[:, :, 1] * sq[:, :, 2]).sum(axis=1) / 50
    # the pair kernel runs first: rows its steps left unwritten could
    # otherwise read back the triple kernel's freed, identical result
    assert chaos3._gamma_pairs(t, x) == pytest.approx(ref, rel=1e-12)
    assert chaos3._gamma_triples(t, x) == pytest.approx(ref, rel=1e-12)


def test_gamma_kernels_zero_tensor():
    t = SymThreeTensor(4, {})
    x = np.random.default_rng(6).standard_normal((10, 4))
    assert np.array_equal(chaos3._gamma_triples(t, x), np.zeros(10))
    assert np.array_equal(chaos3._gamma_pairs(t, x), np.zeros(10))


def test_gamma_kernels_empty_batch():
    for t in (triple_product(), family_generators("complete-3-tensor", 20)):
        x = np.empty((0, t.n))
        assert chaos3._gamma_triples(t, x).shape == (0,)
        assert chaos3._gamma_pairs(t, x).shape == (0,)


@pytest.mark.parametrize("case, triples", [
    ("block-60", True), ("complete-20", False), ("spiked-20", False),
    ("random-20-sparse", True), ("random-20-dense", False),
    ("random-40-sparse", True), ("random-40-dense", False)])
def test_gamma_kernel_choice(case, triples):
    t = GAMMA_KERNEL_CASES[case]()
    assert chaos3._triples_win(len(t.entries), t.n) is triples


def test_gamma_batch_builds_no_sharp_matrix(monkeypatch):
    def no_sharp(*args, **kwargs):
        raise AssertionError("Gamma must not build sharp matrices")

    monkeypatch.setattr(chaos3, "sharp_batch", no_sharp)
    t = family_generators("complete-3-tensor", 20)
    x = np.random.default_rng(22).standard_normal((100, 20))
    assert np.all(chaos3.gamma_batch(t, x) > 0.0)
    assert "a" not in vars(t)     # the dense tensor is never built
    with pytest.raises(ValueError):
        t._pair_weights[0, 0] = 1.0


def test_gamma_pairs_memory_is_one_slab():
    # complete-40: a slab for the whole 4096-row call would be 25.6 MB; the
    # kernel's slab stays within 4 * STEP_ELEMENTS values (8 MB), and the
    # rest (transposed rows, gradients, output) is O(n * rows).
    # numpy reports its buffers to tracemalloc.
    t = family_generators("complete-3-tensor", 40)
    rows = 4096
    x = np.random.default_rng(23).standard_normal((rows, t.n))
    t._pair_weights     # cached with the tensor, not per call
    tracemalloc.start()
    try:
        g = chaos3.gamma_batch(t, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (rows,)
    assert peak < 8 * (4 * chaos3.STEP_ELEMENTS + 4 * t.n * rows)


# ---------------------------------------------------------------------------
# sharp matrix and spectrum
# ---------------------------------------------------------------------------

def test_sharp_matrix_basis_vector():
    t = triple_product()
    (m,) = chaos3.sharp_batch(t, np.array([[0.0, 0.0, 1.0]]))
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = 0.5
    assert np.allclose(m, expect, atol=1e-15)
    assert np.trace(m) == 0.0


def test_sharp_matrix_zero_source():
    t = triple_product()
    assert np.all(chaos3.sharp_batch(t, np.zeros((1, 3))) == 0.0)


def test_sharp_quadratic_form_identity(unit_tensor_factory):
    # x' A_hat x equals the sharp-gradient value grad F(x) . xhat
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = unit_tensor_factory(rng)
        x = rng.standard_normal(t.n)
        xhat = rng.standard_normal(t.n)
        (m,) = chaos3.sharp_batch(t, xhat[None, :])
        assert float(x @ m @ x) == pytest.approx(
            float(oracles.gradient(t, x) @ xhat), rel=1e-12, abs=1e-12)


def test_sharp_second_moment_is_gamma():
    # E over both spaces of (sharp F)^2 = E Gamma = 3
    t = triple_product()

    def fn(rng, cnt):
        x = rng.standard_normal((cnt, 3))
        xh = rng.standard_normal((cnt, 3))
        ms = chaos3.sharp_batch(t, xh)
        return np.einsum('bi,bij,bj->b', x, ms, x) ** 2

    est = mc.estimate(fn, 200_000, mc.RngSpec(SEED, 1))
    assert est.within(3.0, 3.0)


def test_spectrum_basis_sample():
    t = triple_product()
    xh = np.array([[0.0, 0.0, 1.0]])
    (eigs,) = chaos3.spectra_batch(t, xh)
    assert np.allclose(np.abs(eigs), [0.5, 0.5, 0.0], atol=1e-12)
    ref, recentred = oracles.spectrum(chaos3.sharp_batch(t, xh[:1])[0])
    assert np.allclose(eigs, ref, atol=1e-12)
    assert not recentred


def test_spectrum_zero_matrix():
    t = triple_product()
    assert np.all(chaos3.spectra_batch(t, np.zeros((1, 3))) == 0.0)


def test_spectrum_trace_identities(unit_tensor_factory):
    rng = np.random.default_rng(4)
    for _ in range(5):
        t = unit_tensor_factory(rng)
        xh = rng.standard_normal((1, t.n))
        (eigs,) = chaos3.spectra_batch(t, xh)
        (m,) = chaos3.sharp_batch(t, xh[:1])
        assert abs(eigs.sum()) <= 1e-10 * max(1.0, np.abs(eigs).max())
        assert float(np.sum(eigs ** 2)) == pytest.approx(
            float(np.sum(m ** 2)), rel=1e-10)
        assert np.allclose(eigs, oracles.spectrum(m)[0], atol=1e-12)


def test_spectrum_invariant_under_permutation(unit_tensor_factory):
    # relabelling the coordinates of the tensor and of the source vector
    # conjugates A_hat by a permutation, which keeps its spectrum
    rng = np.random.default_rng(5)
    t = unit_tensor_factory(rng, n=5)
    perm = rng.permutation(5)
    relabelled = SymThreeTensor(5, {
        tuple(sorted(int(perm[i - 1]) + 1 for i in trip)): v
        for trip, v in t.entries.items()})
    xh = rng.standard_normal((8, 5))
    yh = np.empty_like(xh)
    yh[:, perm] = xh
    assert np.allclose(chaos3.spectra_batch(t, xh),
                       chaos3.spectra_batch(relabelled, yh), atol=1e-8)


def test_spectrum_rejects_asymmetric():
    # the residual-checked oracle refuses a matrix that is not symmetric
    with pytest.raises(ValueError):
        oracles.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# spectral identity for the Laplace transform
# ---------------------------------------------------------------------------

def test_gamma_spec_at_zero():
    t = triple_product()
    (chk,) = chaos3.verify_gamma_spec(t, [0.0], 2000, SEED)
    assert chk.lhs.mean == 1.0 and chk.lhs.stderr == 0.0
    assert chk.rhs_re.mean == 1.0 and chk.rhs_im.mean == 0.0
    assert chk.rhs_re.stderr == 0.0 and chk.rhs_im.stderr == 0.0


def test_gamma_spec_triple_product():
    t = triple_product()
    (chk,) = chaos3.verify_gamma_spec(t, [1.0], 20_000, SEED)
    assert abs(chk.lhs.mean - chk.rhs_re.mean) <= 3.0 * math.hypot(
        chk.lhs.stderr, chk.rhs_re.stderr)
    assert chk.rhs_im.within(0.0, 3.0)


def test_gamma_spec_sample_floor():
    with pytest.raises(ValueError):
        chaos3.verify_gamma_spec(triple_product(), [1.0], 500, SEED)


def test_gamma_spec_small_xi_expansion():
    # E exp(-xi^2 Gamma / 2) = 1 - (3/2) xi^2 + O(xi^4)
    t = triple_product()
    (chk,) = chaos3.verify_gamma_spec(t, [0.05], 100_000, SEED)
    assert abs(chk.lhs.mean - (1.0 - 1.5 * 0.05 ** 2)) < 1e-3


# ---------------------------------------------------------------------------
# trace form
# ---------------------------------------------------------------------------

def test_trace_form_triple_product():
    tf = chaos3.trace_form(triple_product())
    assert np.allclose(tf.b_matrix, 0.5 * np.eye(3), atol=1e-15)
    assert np.allclose(tf.betas, 0.5, atol=1e-15)
    assert tf.expected_trace == pytest.approx(1.5, abs=1e-12)
    assert tf.var_trace == pytest.approx(1.5)


def test_trace_form_requires_unit_variance():
    t = SymThreeTensor(3, {(1, 2, 3): 1.0})
    with pytest.raises(chaos2.PreconditionError):
        chaos3.trace_form(t)


def test_trace_form_sum_always_three_halves(unit_tensor_factory):
    rng = np.random.default_rng(6)
    for _ in range(8):
        tf = chaos3.trace_form(unit_tensor_factory(rng))
        assert tf.expected_trace == pytest.approx(1.5, abs=1e-12)


def test_trace_form_variance_matches_mc(unit_tensor_factory):
    rng = np.random.default_rng(7)
    t = unit_tensor_factory(rng, n=5)
    tf = chaos3.trace_form(t)

    def fn(rng_, cnt):
        return chaos3.trace_square_batch(t, rng_.standard_normal((cnt, t.n)))

    est = mc.estimate(fn, 200_000, mc.RngSpec(SEED, 2))
    assert est.within(1.5, 3.0)
    var_est = mc.estimate(lambda r, c: (fn(r, c) - 1.5) ** 2,
                          200_000, mc.RngSpec(SEED, 3))
    assert var_est.within(tf.var_trace, 4.0)


def test_trace_form_negative_moment_reuse():
    # Tr(A_hat^2) = sum beta_k G_k^2 maps onto the diagonal second-chaos
    # machinery with alpha_k = sqrt(beta_k)/2
    tf = chaos3.trace_form(triple_product())
    f = tf.to_diagonal_chaos()
    # Gamma of that object is exactly sum beta G^2 = chi^2_3 / 2
    val = chaos2.negative_moment(f, 1.0)
    # E (chi^2_3 / 2)^(-1) = 2 / (3 - 2) ... direct: E (chi2_3)^{-1} = 1
    assert val == pytest.approx(2.0 * 1.0, rel=1e-7)


# ---------------------------------------------------------------------------
# kappa_4 and Var Gamma
# ---------------------------------------------------------------------------

def test_k4_var_gamma_triple_product():
    res = chaos3.kappa4_and_var_gamma(triple_product())
    assert res.kappa4 == pytest.approx(24.0, rel=1e-12)
    assert res.var_gamma == pytest.approx(36.0, rel=1e-12)
    assert res.bound_holds  # 6 <= 3 sqrt(24)


def test_k4_var_gamma_complete_n6():
    res = chaos3.kappa4_and_var_gamma(
        family_generators("complete-3-tensor", 6))
    assert res.bound_holds
    assert res.kappa4 >= 0.0


def test_k4_exact_beyond_isserlis_range():
    # the contraction route has no dimension cap: n = 7 is past the
    # Isserlis oracle's reach and still exact
    t = family_generators("complete-3-tensor", 7)
    res = chaos3.kappa4_and_var_gamma(t)
    assert res.kappa4 == chaos3.kappa4_contraction(t)
    assert res.var_gamma > res.kappa4 > 0.0
    assert res.bound_holds


def test_k4_nonnegative_and_bound(unit_tensor_factory):
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = unit_tensor_factory(rng, n=int(rng.integers(3, 6)))
        res = chaos3.kappa4_and_var_gamma(t)
        assert res.kappa4 >= -1e-10
        assert res.bound_holds


def test_kappa4_contraction_matches_isserlis(unit_tensor_factory):
    rng = np.random.default_rng(9)
    for _ in range(8):
        t = unit_tensor_factory(rng, n=int(rng.integers(3, 7)))
        exact, _ = oracles.isserlis_k4_var_gamma(t)
        assert chaos3.kappa4_contraction(t) == pytest.approx(
            exact, rel=1e-10, abs=1e-10)


VAR_GAMMA_ISSERLIS_CASES = {
    "complete-6": lambda: family_generators("complete-3-tensor", 6),
    "spiked-6": lambda: family_generators("spiked-3-tensor", 6),
    "block-6": lambda: family_generators("block-3-tensor", 6),
    "triple-3": triple_product,
    **{f"random-{n}": (lambda n=n: random_sparse_tensor(n, 1.0, 20 + n))
       for n in (4, 5, 6)},
}


@pytest.mark.parametrize("case", VAR_GAMMA_ISSERLIS_CASES)
def test_k4_var_gamma_matches_isserlis(case):
    t = VAR_GAMMA_ISSERLIS_CASES[case]()
    kappa4, var_gamma = oracles.isserlis_k4_var_gamma(t)
    res = chaos3.kappa4_and_var_gamma(t)
    assert res.kappa4 == pytest.approx(kappa4, rel=1e-10)
    assert res.var_gamma == pytest.approx(var_gamma, rel=1e-10)


@pytest.mark.parametrize("n_blocks", [2, 4, 10])
def test_k4_var_gamma_block_closed_form(n_blocks):
    # F averages n_b independent copies of X1 X2 X3, whose
    # (kappa4, Var Gamma) is (24, 36): both scale as 1/n_b
    res = chaos3.kappa4_and_var_gamma(
        family_generators("block-3-tensor", 3 * n_blocks))
    assert res.kappa4 == pytest.approx(24.0 / n_blocks, rel=1e-12)
    assert res.var_gamma == pytest.approx(36.0 / n_blocks, rel=1e-12)


def test_k4_var_gamma_matches_mc_oracle():
    # beyond the Isserlis range: a random dense tensor at n = 8 against
    # four independent Monte Carlo streams
    t = random_sparse_tensor(8, 1.0, 8)
    res = chaos3.kappa4_and_var_gamma(t)
    k4, k4_se, vg, vg_se = oracles.mc_k4_var_gamma(t, 400_000, SEED)
    assert abs(res.kappa4 - k4) <= 4.0 * k4_se
    assert abs(res.var_gamma - vg) <= 4.0 * vg_se
    assert res.bound_holds


def test_kappa4_block_family_exact():
    # disjoint blocks: F is a normalized sum of n iid copies, kappa4 = 24/n
    for n_blocks in (2, 4, 8):
        t = family_generators("block-3-tensor", 3 * n_blocks)
        assert chaos3.kappa4_contraction(t) == pytest.approx(
            24.0 / n_blocks, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_triple_product():
    # brute-force oracle (5e6 samples, recorded before the build):
    # E lam_1^2 = 0.858649 +- 0.000316
    (est,) = chaos3.spectral_radius_moments(triple_product(), [1], 100_000,
                                             SEED)
    e2 = est.mean ** 2
    se2 = 2.0 * est.mean * est.stderr
    assert abs(e2 - 0.858649) <= 3.0 * se2 + 0.001


def test_spectral_radius_zero_tensor():
    t = SymThreeTensor(3, {})
    (est,) = chaos3.spectral_radius_moments(t, [1], 1000, SEED)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_spectral_radius_complete_family_grows():
    # measured direction (1e5-sample oracle): ||lam1||_2 rises with N
    # (1.048, 1.145, 1.192 at N = 6, 12, 24): the family concentrates its
    # trace in one dominant eigenvalue as N grows
    vals = []
    for n in (6, 12, 24):
        t = family_generators("complete-3-tensor", n)
        (est,) = chaos3.spectral_radius_moments(t, [1], 20_000, SEED)
        vals.append((est.mean, est.stderr))
    for (lo, lo_se), (hi, hi_se) in zip(vals, vals[1:]):
        assert hi - lo > 3.0 * math.hypot(lo_se, hi_se)


def test_spectral_radius_block_family_shrinks():
    # the vanishing-kappa4 family: the spectral radius decays with size
    vals = []
    for n in (6, 12, 24):
        t = family_generators("block-3-tensor", n)
        (est,) = chaos3.spectral_radius_moments(t, [1], 20_000, SEED)
        vals.append((est.mean, est.stderr))
    for (lo, lo_se), (hi, hi_se) in zip(vals, vals[1:]):
        assert lo - hi > 3.0 * math.hypot(lo_se, hi_se)


# ---------------------------------------------------------------------------
# small ball and negative moments
# ---------------------------------------------------------------------------

def test_smallball_triple_product_slope():
    # 1e7-sample oracle before the build: slope 0.5895 +- 0.0003 on this grid
    t = triple_product()
    eps = np.geomspace(0.01, 0.3, 8)
    res = chaos3.smallball_gamma3(t, eps, 1_000_000, SEED)
    assert not res.widened
    assert np.all(np.diff(res.phat) >= 0)
    assert 0.55 <= res.slope <= 0.63


def test_smallball_widened_grid_flag():
    t = triple_product()
    eps = np.concatenate([[1e-9], np.geomspace(0.05, 0.3, 5)])
    res = chaos3.smallball_gamma3(t, eps, 100_000, SEED)
    assert res.widened
    assert not res.used[0]
    assert math.isfinite(res.slope)


def test_smallball_saturated_points_leave_the_fit():
    # eps = 200 and 400 lie far above Gamma's bulk: 199990 and 200000 of
    # 200000 hits.  Their binomial se (1.6e-5 relative, and 0) would
    # outweigh the other points about 1e6 to 1 and flatten the slope to
    # 0.0016; so they leave the fit, which then equals the fit of the grid
    # without them (one stream, one count per eps), 1.017 +- 0.005
    t = family_generators("complete-3-tensor", 6)
    eps = [0.05, 0.1, 0.2, 0.4]
    res = chaos3.smallball_gamma3(t, eps + [200, 400], 200_000, 3)
    assert res.hits[-1] == res.n and res.n - res.hits[-2] < chaos3.MIN_HITS
    assert res.used.tolist() == [True] * 4 + [False] * 2
    assert res.widened
    ref = chaos3.smallball_gamma3(t, eps, 200_000, 3)
    assert not ref.widened
    assert (res.slope, res.slope_se) == (ref.slope, ref.slope_se)
    # the slope lies between the steepest and flattest two-point slopes
    two_point = np.diff(np.log(ref.phat)) / np.diff(np.log(eps))
    assert two_point.min() < res.slope < two_point.max()


def test_smallball_too_few_fit_points():
    # block n = 60: Gamma averages 20 independent blocks, so no point of
    # this grid gets min_hits hits and the slope fit has nothing to use
    t = family_generators("block-3-tensor", 60)
    eps = np.geomspace(0.01, 0.3, 8)
    with pytest.raises(ValueError, match=r"only 0 of 8 .*min_hits=50"
                       r" \(largest hit count 0 "):
        chaos3.smallball_gamma3(t, eps, 2000, SEED)


def test_smallball_sparse_tensor_builds_no_dense_array():
    t = family_generators("block-3-tensor", 300)
    res = chaos3.smallball_gamma3(t, np.linspace(2.0, 2.6, 4), 100_000, SEED)
    assert not res.widened
    assert "a" not in vars(t)        # the n^3 array was never built


def test_dense_array_built_on_access():
    t = random_sparse_tensor(9, 0.5, 7)
    assert "a" not in vars(t)
    dense = np.zeros((9, 9, 9))
    for trip, v in t.entries.items():
        for p in itertools.permutations(trip):
            dense[tuple(i - 1 for i in p)] = v
    assert np.array_equal(t.a, dense)
    assert t.a is t.a
    assert not t.a.flags.writeable
    assert t.variance == pytest.approx(6.0 * np.sum(dense * dense),
                                       rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda t: chaos3.smallball_gamma3(t, [0.05, 0.1, 0.2], 1, SEED),
    lambda t: chaos3.negative_moment_gamma3(t, 0.25, 1, SEED),
    lambda t: chaos3.sp_batch_estimate(t, 1, 1, SEED),
], ids=["smallball_gamma3", "negative_moment_gamma3", "sp_batch_estimate"])
def test_mc_estimators_reject_too_few_samples(call):
    with pytest.raises(ValueError, match="need at least 100 samples"):
        call(triple_product())


def test_smallball_grid_validation():
    t = triple_product()
    with pytest.raises(ValueError):
        chaos3.smallball_gamma3(t, [0.1, 0.05, 0.2], 1000, SEED)
    with pytest.raises(ValueError):
        chaos3.smallball_gamma3(t, [-0.1, 0.05, 0.2], 1000, SEED)


def test_negative_moment_gamma3_small_theta():
    t = triple_product()
    (res,) = chaos3.negative_moment_gamma3(t, [0.01], 100_000, SEED)
    assert res.estimate.mean == pytest.approx(1.0, abs=0.02)
    assert not res.unstable


def test_negative_moment_gamma3_stable():
    t = triple_product()
    (res,) = chaos3.negative_moment_gamma3(t, [0.25], 100_000, SEED)
    assert math.isfinite(res.estimate.mean)
    assert not res.unstable


def test_negative_moment_gamma3_instability_flag():
    # theta = 0.9 exceeds the small-ball exponent (~0.59) of this Gamma:
    # the moment is infinite and the mass concentrates in the top summands
    t = triple_product()
    (res,) = chaos3.negative_moment_gamma3(t, [0.9], 200_000, SEED)
    assert res.unstable


def test_grid_columns_have_their_own_bits():
    # a grid point computed beside others equals the one-point grid at the
    # same seed, bitwise, across a chunk boundary
    t = triple_product()
    n = mc.CHUNK_SAMPLES + 4000
    pair = chaos3.negative_moment_gamma3(t, [0.25, 0.5], n, SEED)
    (alone,) = chaos3.negative_moment_gamma3(t, [0.5], n, SEED)
    assert pair[1] == alone
    checks = chaos3.verify_gamma_spec(t, [0.5, 1.0], 2000, SEED)
    (single,) = chaos3.verify_gamma_spec(t, [1.0], 2000, SEED)
    assert checks[1] == single


def _whole_chunks(fn, n, spec, acc):
    # the reference reduction: fn(rng, cnt) once per counter block
    for _, cnt, rng in mc.chunks(spec, n):
        acc.add(np.ascontiguousarray(fn(rng, cnt).reshape(cnt, -1).T))
    return acc


def test_stepped_estimators_match_whole_chunks_bitwise():
    # two chunks of whole steps, then a ragged last chunk of 777 samples;
    # the reference calls fn once per counter block
    t = family_generators("complete-3-tensor", 20)
    n = 2 * mc.CHUNK_SAMPLES + 777
    spec = mc.RngSpec(SEED, 0)
    gamma = lambda rng, cnt: chaos3.gamma_batch(
        t, rng.standard_normal((cnt, t.n)))
    eps = np.geomspace(0.01, 0.3, 8)
    res = chaos3.smallball_gamma3(t, eps, n, SEED)
    hits = _whole_chunks(gamma, n, spec, mc.Hits(eps))
    assert np.array_equal(res.hits, hits.counts[0])

    thetas = [0.25, 0.5]

    def powers(rng, cnt):
        g = gamma(rng, cnt)
        return np.stack([g ** -theta for theta in thetas], axis=1)

    got = chaos3.negative_moment_gamma3(t, thetas, n, SEED)
    moments = _whole_chunks(powers, n, spec, mc.Moments())
    for r, ref in zip(got, moments.results()):
        assert (r.estimate.mean, r.estimate.stderr) == (ref.mean, ref.stderr)


def test_negative_moment_gamma3_domain():
    with pytest.raises(ValueError):
        chaos3.negative_moment_gamma3(triple_product(), [1.0], 1000, SEED)


# ---------------------------------------------------------------------------
# elementary symmetric functions of the squared spectrum
# ---------------------------------------------------------------------------

def test_s1_equals_trace_square(unit_tensor_factory):
    rng = np.random.default_rng(10)
    t = unit_tensor_factory(rng, n=5)
    xh = rng.standard_normal((64, 5))
    lams = chaos3.spectra_batch(t, xh)
    tr2 = chaos3.trace_square_batch(t, xh)
    s1 = oracles.elementary_symmetric_spectrum(lams, 1)[:, 0]
    assert np.allclose(s1, tr2, rtol=1e-10)


def test_spectra_batch_matches_single_spectra_across_steps():
    # 1500 rows at n = 20 span two full solve steps and a partial one
    t = family_generators("complete-3-tensor", 20)
    xh = np.random.default_rng(12).standard_normal((1500, 20))
    lams = chaos3.spectra_batch(t, xh)
    assert xh.shape[0] > 2 * (chaos3.STEP_ELEMENTS // 400)
    single = np.array([oracles.spectrum(m)[0]
                       for m in chaos3.sharp_batch(t, xh)])
    assert np.allclose(np.sort(lams, axis=1), np.sort(single, axis=1),
                       rtol=0.0, atol=1e-12)
    assert np.all(np.diff(np.abs(lams), axis=1) <= 0.0)


def test_trace_square_batch_matches_unstepped_einsum():
    # 2000 rows at n = 24 span four full steps and a partial one
    t = family_generators("complete-3-tensor", 24)
    xh = np.random.default_rng(13).standard_normal((2000, 24))
    assert xh.shape[0] > 4 * (chaos3.STEP_ELEMENTS // 576)
    got = chaos3.trace_square_batch(t, xh)
    m = chaos3.sharp_batch(t, xh)     # the whole (B, n, n) stack at once
    assert np.allclose(got, np.einsum('bij,bij->b', m, m),
                       rtol=1e-13, atol=0.0)
    m = np.einsum('bk,ijk->bij', xh, 3.0 * t.a)
    assert np.allclose(got, np.einsum('bij,bij->b', m, m),
                       rtol=1e-12, atol=0.0)


def test_sp_grid_shares_one_table():
    # every p of the grid reads the same draws: p = 1 of a grid equals
    # the one-point grid bitwise, and each column is one Newton table
    t = family_generators("block-3-tensor", 9)
    grid = chaos3.sp_batch_estimate(t, [1, 2, 3], 2000, SEED)
    (alone,) = chaos3.sp_batch_estimate(t, [1], 2000, SEED)
    assert grid[0].estimate == alone.estimate
    assert np.array_equal(grid[0].phat, alone.phat)
    assert [r.p for r in grid] == [1, 2, 3]
    xh = np.random.default_rng(1).standard_normal((50, 9))
    lams = chaos3.spectra_batch(t, xh)
    table = oracles.elementary_symmetric_spectrum(lams, 3)
    products = chaos2.newton_to_elementary(chaos3.sharp_power_sums(t, xh, 3))
    for p in (1, 2, 3):
        brute = np.array([sum(np.prod(np.square(lam[list(c)]))
                              for c in itertools.combinations(range(9), p))
                          for lam in lams])
        assert np.allclose(table[:, p - 1], brute, rtol=1e-10)
        assert np.allclose(products[p - 1], brute, rtol=1e-10)


def test_sp_batch_triple_product_mean():
    (res,) = chaos3.sp_batch_estimate(triple_product(), [1], 50_000, SEED)
    assert abs(res.estimate.mean - 1.5) <= 3.0 * res.estimate.stderr


def test_sp_domain_error():
    with pytest.raises(ValueError, match=r"p must lie in 1\.\.3"):
        chaos3.sp_batch_estimate(triple_product(), [4], 1000, SEED)


@pytest.mark.parametrize("call", [
    lambda t: chaos3.spectral_radius_moments(t, [1, 1.5], 1000, SEED),
    lambda t: chaos3.sp_batch_estimate(t, [1.5], 1000, SEED),
], ids=["spectral_radius_moments", "sp_batch_estimate"])
def test_integer_grids_reject_other_values_by_name(call):
    with pytest.raises(ValueError, match="must hold integers, got 1.5"):
        call(triple_product())


def test_sp_batch_estimate_never_eigensolves(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("S_hat_p must not call eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    t = family_generators("complete-3-tensor", 8)
    res = chaos3.sp_batch_estimate(t, [1, 2, 8], 2000, SEED)
    assert [r.p for r in res] == [1, 2, 8]
    assert all(math.isfinite(r.estimate.mean) for r in res)


def _dense_unit_tensor(n, seed):
    rng = np.random.default_rng(seed)
    return SymThreeTensor(n, {
        trip: float(rng.standard_normal())
        for trip in itertools.combinations(range(1, n + 1), 3)},
        normalize=True)


@pytest.mark.parametrize("make", [
    lambda: family_generators("complete-3-tensor", 6),
    lambda: family_generators("block-3-tensor", 12),
    lambda: _dense_unit_tensor(8, 14),
], ids=["complete-6", "block-12", "dense-8"])
def test_sharp_power_sums_match_eigenvalue_oracle(make):
    t = make()
    xh = np.random.default_rng(15).standard_normal((40, t.n))
    got = chaos3.sharp_power_sums(t, xh, t.n)
    lams = np.array([oracles.spectrum(m)[0]
                     for m in chaos3.sharp_batch(t, xh)])
    ref = oracles.spectrum_power_sums(lams, t.n)
    assert got.shape == (t.n, 40)
    scale = ref[0] ** np.arange(1, t.n + 1)[:, None]     # S_1^q
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("q_max", [5, 6])
def test_sharp_power_sums_match_unstepped_products(q_max):
    # 1500 rows at n = 20 span two full steps and a partial one
    t = _dense_unit_tensor(20, 16)
    xh = np.random.default_rng(17).standard_normal((1500, 20))
    assert xh.shape[0] > 2 * (chaos3.STEP_ELEMENTS // 400)
    got = chaos3.sharp_power_sums(t, xh, q_max)
    m = chaos3.sharp_batch(t, xh)     # the whole (B, n, n) stack at once
    for q in range(1, q_max + 1):
        mq = np.linalg.matrix_power(m, q)
        assert np.allclose(got[q - 1], np.einsum('bij,bij->b', mq, mq),
                           rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("q_max", [1, 4])
def test_sharp_power_sums_zero_rows(q_max):
    t = family_generators("complete-3-tensor", 5)
    assert chaos3.sharp_power_sums(t, np.zeros((0, 5)), q_max).shape \
        == (q_max, 0)
    assert np.all(chaos3.sharp_power_sums(t, np.zeros((3, 5)), q_max) == 0.0)


@pytest.mark.parametrize("call", [
    lambda t, x: chaos3.spectra_batch(t, x),
    lambda t, x: chaos3.trace_square_batch(t, x),
    lambda t, x: chaos3.sharp_power_sums(t, x, 2),
    lambda t, x: chaos3.gamma_batch(t, x),
], ids=["spectra_batch", "trace_square_batch", "sharp_power_sums",
        "gamma_batch"])
@pytest.mark.parametrize("shape", [(4,), (2, 5), (2, 4, 4)],
                         ids=["1-d", "wrong-width", "3-d"])
def test_batch_shape_errors(call, shape):
    t = family_generators("complete-3-tensor", 4)
    with pytest.raises(ValueError, match=r"batch must have shape \(B, 4\)"):
        call(t, np.ones(shape))


@pytest.mark.parametrize("q_max", [0, 5])
def test_sharp_power_sums_q_max_domain(q_max):
    t = family_generators("complete-3-tensor", 4)
    with pytest.raises(ValueError, match=r"q_max must lie in 1\.\.4"):
        chaos3.sharp_power_sums(t, np.ones((2, 4)), q_max)


def test_sp_bound_block_vs_complete_n12():
    # the spectral lower bound (1/2)(3/2)^p / p! at p = 2 is 0.5625: it holds
    # for the vanishing-kappa4 block family (E = 276/256) and fails for the
    # complete family (measured 0.485 +- 0.003, kappa4 = 58 there)
    (block,) = chaos3.sp_batch_estimate(
        family_generators("block-3-tensor", 12), [2], 30_000, SEED)
    assert block.lower_bound == pytest.approx(0.5625)
    assert block.estimate.mean >= block.lower_bound
    assert abs(block.estimate.mean - 276.0 / 256.0) \
        <= 4.0 * block.estimate.stderr
    (complete,) = chaos3.sp_batch_estimate(
        family_generators("complete-3-tensor", 12), [2], 30_000, SEED)
    assert complete.estimate.mean < complete.lower_bound


# ---------------------------------------------------------------------------
# total variation bound
# ---------------------------------------------------------------------------

def test_dtv_bound_values():
    assert chaos3.dtv_bound(0.03) == pytest.approx(0.1)
    assert chaos3.dtv_bound(0.0) == 0.0
    # unclamped: the density experiment clamps it at 1
    assert chaos3.dtv_bound(24.0) == pytest.approx(math.sqrt(8.0))
    with pytest.raises(ValueError):
        chaos3.dtv_bound(-0.1)


# ---------------------------------------------------------------------------
# trace concentration across families (verified directions)
# ---------------------------------------------------------------------------

def test_trace_variance_complete_family_exact_values():
    # exact closed form: Var Tr(A_hat^2) = 162 ||a x_1 a||^2 rises with N
    # for the complete family (2.100, 3.136..., 3.782... at N = 6, 12, 24)
    expected = {6: 2.1, 12: 3.1363636363636362, 24: 3.782608695652174}
    for n, want in expected.items():
        tf = chaos3.trace_form(family_generators("complete-3-tensor", n))
        assert tf.var_trace == pytest.approx(want, rel=1e-9)


def symmetrised_contraction_kappa4(a):
    # the symmetrised contraction formula for the third chaos
    # (Nourdin-Peccati 2012, Lemma 5.2.4):
    # kappa4 = 1944 ||a ~x_1 a||^2 + 1296 ||a ~x_2 a||^2
    c1 = np.einsum('ijm,klm->ijkl', a, a)
    s1 = sum(np.transpose(c1, p)
             for p in itertools.permutations(range(4))) / 24.0
    c2 = np.einsum('imp,kmp->ik', a, a)   # already symmetric
    return 1944.0 * np.sum(s1 * s1) + 1296.0 * np.sum(c2 * c2)


def test_kappa4_complete_family_symmetrised_contraction():
    # beyond the Isserlis range (n <= 6), cross-check kappa4 against the
    # symmetrised contraction formula.
    # The values rise toward 90, the kappa4 of H3(Z)/sqrt(6):
    # 58.036... at N = 12 and 72.972... at N = 24.
    for n in (12, 24):
        t = family_generators("complete-3-tensor", n)
        got = chaos3.kappa4_contraction(t)
        assert got == pytest.approx(symmetrised_contraction_kappa4(t.a),
                                    rel=1e-9)
        assert 35.4 < got < 90.0


@pytest.mark.parametrize("n", [9, 12])
def test_kappa4_random_dense_symmetrised_contraction(n):
    # a tensor with no structure: every triple carries its own value
    rng = np.random.default_rng(100 + n)
    entries = {trip: float(rng.standard_normal())
               for trip in itertools.combinations(range(1, n + 1), 3)}
    t = SymThreeTensor(n, entries, normalize=True)
    assert chaos3.kappa4_contraction(t) == pytest.approx(
        symmetrised_contraction_kappa4(t.a), rel=1e-9)


def test_trace_variance_block_family_decreases():
    # Var Tr(A_hat^2) = 3/(2 n_blocks): vanishes as kappa4 = 24/n_blocks does
    prev = None
    for n in (6, 12, 24):
        tf = chaos3.trace_form(family_generators("block-3-tensor", n))
        assert tf.var_trace == pytest.approx(3.0 / (2 * (n // 3)), rel=1e-12)
        if prev is not None:
            assert tf.var_trace < prev
        prev = tf.var_trace


# ---------------------------------------------------------------------------
# tensor file format
# ---------------------------------------------------------------------------

def test_tensor_file_roundtrip(tmp_path, unit_tensor_factory):
    rng = np.random.default_rng(11)
    t = unit_tensor_factory(rng, n=5)
    path = tmp_path / "tensor.txt"
    chaos3.write_tensor_file(t, path)
    back = chaos3.read_tensor_file(path)
    assert back.n == t.n
    assert np.allclose(back.a, t.a, atol=1e-15)


def test_tensor_file_normalize(tmp_path):
    path = tmp_path / "tensor.txt"
    path.write_text("6\n1 2 3 1.5\n4 5 6 -3\n")
    assert chaos3.read_tensor_file(path).variance == pytest.approx(405.0)
    t = chaos3.read_tensor_file(path, normalize=True)
    assert t.unit_variance
    assert t.entries[(4, 5, 6)] == pytest.approx(-2.0 * t.entries[(1, 2, 3)])


def test_tensor_file_parse_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# only a comment\n")
    with pytest.raises(ValueError):
        chaos3.read_tensor_file(p)
    p.write_text("3\n1 2 1.0\n")
    with pytest.raises(ValueError):
        chaos3.read_tensor_file(p)
    p.write_text("# dim\n3\n1 2 3 0.25\n")
    t = chaos3.read_tensor_file(p)
    assert t.entries[(1, 2, 3)] == 0.25
    p.write_text("4\n1 2 3 0.5\n1 2 4 1.0\n1 2 3 -7.0\n")
    with pytest.raises(ValueError,
                       match=r"bad\.txt:4: triple \(1, 2, 3\) repeats the "
                             r"one on line 2"):
        chaos3.read_tensor_file(p)
    # what the tensor constructor would reject is reported at its line
    for text, bad in [
            ("# dim\n2\n", r"bad\.txt:2: dimension must be >= 3"),
            ("3\n1 1 2 0.5\n", r"bad\.txt:2: triple \(1, 1, 2\) must "
                               r"satisfy 1 <= i < j < k <= 3"),
            ("3\n1 2 3 0.5\n1 2 4 0.5\n",
             r"bad\.txt:3: triple \(1, 2, 4\) must satisfy "
             r"1 <= i < j < k <= 3"),
            ("3\n1 2 3 nan\n", r"bad\.txt:2: non-finite value at "
                                r"\(1, 2, 3\)")]:
        p.write_text(text)
        with pytest.raises(ValueError, match=bad):
            chaos3.read_tensor_file(p)


@pytest.mark.parametrize("text, bad", [
    ("four\n", "1: invalid literal for int() with base 10: 'four'"),
    ("3\n1 2 x 0.5\n", "2: invalid literal for int() with base 10: 'x'"),
    ("3\n1 2 3 abc\n", "2: could not convert string to float: 'abc'"),
], ids=["header", "index", "value"])
def test_tensor_file_non_numeric_field(tmp_path, text, bad):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        chaos3.read_tensor_file(p)
    assert str(err.value) == f"{p}:{bad}"
