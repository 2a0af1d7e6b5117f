import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wienerchaos import chaos2, chaos3, cli, mc
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
    assert oracles.entries(t)[(1, 2, 3)] == pytest.approx(1.0 / 6.0)
    p = t.to_polynomial()
    assert p.terms == {(1, 1, 1): pytest.approx(1.0)}
    assert isserlis_expectation(p * p) == pytest.approx(1.0)


def test_complete_tensor_entry_value():
    t = family_generators("complete-3-tensor", 4)
    assert len(oracles.entries(t)) == 4
    for v in oracles.entries(t).values():
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
    entries = oracles.entries(t)
    assert list(entries.values()) == [entries[(1, 2, 3)]] * 2
    assert entries[(1, 2, 3)] == pytest.approx(1.0 / (6.0 * 2 ** 0.5),
                                               rel=1e-15)
    assert t.unit_variance


@pytest.mark.filterwarnings("error")
def test_overflowing_tensor_raises_named_errors():
    # at 1e160 the squares overflow: once variance inf and kappa4 NaN
    with pytest.raises(ValueError, match="variance inf is not finite"):
        SymThreeTensor(6, {(1, 2, 3): 1e160, (4, 5, 6): 1e160})
    # at 1e77 the variance is finite but kappa4 overflows: once inf
    t = SymThreeTensor(6, {(1, 2, 3): 1e77, (4, 5, 6): 1e77})
    assert t.variance == pytest.approx(7.2e155)
    with pytest.raises(chaos2.PreconditionError, match="overflow"):
        chaos3.kappa4_and_var_gamma(t)
    # the squares underflow: at 1e-170 the variance once read 0.0; at
    # 1e-80 kappa4 / variance^2 once read 11.99987 instead of 12, and at
    # 1e-100 kappa4 read 0.0
    with pytest.raises(ValueError, match="variance 0.0 underflows"):
        SymThreeTensor(6, {(1, 2, 3): 1e-170, (4, 5, 6): 1e-170})
    for scale in (1e-80, 1e-100):
        t = SymThreeTensor(6, {(1, 2, 3): scale, (4, 5, 6): scale})
        with pytest.raises(chaos2.PreconditionError, match="underflow"):
            chaos3.kappa4_and_var_gamma(t)
    # normalising works at every scale: two disjoint triples, kappa4 = 12
    for scale in (1e-170, 1e-100, 1e-80, 1e77, 1e160):
        t = SymThreeTensor(6, {(1, 2, 3): scale, (4, 5, 6): scale},
                           normalize=True)
        assert t.variance == pytest.approx(1.0, rel=1e-12)
        assert chaos3.kappa4_contraction(t) == pytest.approx(12.0, rel=1e-12)


def per_triple_reference(n, entries, normalize):
    """The tensor's storage built one triple at a time: the entries dict,
    a, the variance, the triple scatter and the pair weights 6a[:, j<k]."""
    canon = {tuple(int(i) for i in trip): float(v)
             for trip, v in entries.items()}
    if normalize:
        vals = np.array(list(canon.values()))
        _, e = math.frexp(float(np.max(np.abs(vals))))
        w = np.ldexp(vals, -e)
        total = 0.0
        for x in w * w:     # in order
            total += x
        scale = 1.0 / (6.0 * math.ldexp(math.sqrt(total), e))
        canon = {trip: v * scale for trip, v in canon.items()}
    a = np.zeros((n, n, n))
    pairs = np.zeros((n, n * (n - 1) // 2))
    slots = [[] for _ in range(n)]
    for role in range(3):
        for trip, v in canon.items():
            trip = [i - 1 for i in trip]
            target = trip.pop(role)
            slots[target].append((*trip, 6.0 * v))
    for (i, j, k), v in canon.items():
        for p in itertools.permutations((i - 1, j - 1, k - 1)):
            a[p] = v
        for target, lo, hi in ((i, j, k), (j, i, k), (k, i, j)):
            lo, hi = lo - 1, hi - 1
            pairs[target - 1, lo * (2 * n - lo - 1) // 2 + hi - lo - 1] = \
                6.0 * v
    # block q holds the q-th slot of each target, longest runs first
    ranked = sorted(range(n), key=lambda t: -len(slots[t]))
    blocks = [[slots[t][q] for t in ranked if len(slots[t]) > q]
              for q in range(max(map(len, slots)))]
    flat = [slot for block in blocks for slot in block]
    scatter = (np.array([s[0] for s in flat]), np.array([s[1] for s in flat]),
               np.array([[s[2]] for s in flat]),
               tuple(len(block) for block in blocks))
    variance = 36.0 * math.fsum(v * v for v in canon.values())
    return canon, a, variance, scatter, pairs


@pytest.mark.parametrize("n", [3, 5, 9, 17, 30])
def test_array_storage_matches_a_per_triple_reference(n):
    rng = np.random.default_rng(n)
    for fill, normalize in ((0.9, True), (0.2, False), (0.05, True)):
        trips = [t for t in itertools.combinations(range(1, n + 1), 3)
                 if rng.random() < fill] or [(1, 2, 3)]
        order = rng.permutation(len(trips))
        values = rng.standard_normal(len(trips)) * np.exp(
            rng.uniform(-20, 20, len(trips)))
        entries = {trips[m]: float(v) for m, v in zip(order, values)}
        t = SymThreeTensor(n, entries, normalize=normalize)
        canon, a, variance, scatter, pairs = per_triple_reference(
            n, entries, normalize)
        stored = oracles.entries(t)
        assert list(stored.items()) == list(canon.items())
        assert all(type(i) is int for trip in stored for i in trip)
        assert t.a.tobytes() == a.tobytes()
        assert t.variance == variance
        # grad F = 2 U @ pairs(x): the pair weights are twice the upper
        # unfolding, which is column-major
        assert (2.0 * t._sharp_upper).tobytes() == pairs.tobytes()
        assert t._sharp_upper.flags.f_contiguous
        left, right, w, sizes = t._scatter
        assert sizes == scatter[3]
        for got, ref in zip((left, right, w), scatter):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_non_integer_triples_take_the_per_entry_route():
    # int() and float() of each entry, as the tensor file reader gives
    t = SymThreeTensor(4, {(1.0, 2, 3): 0.5, ("1", "2", "4"): "-0.25"})
    assert oracles.entries(t) == {(1, 2, 3): 0.5, (1, 2, 4): -0.25}
    assert t.triples.tolist() == [[0, 1, 2], [0, 1, 3]]
    assert t.values.tolist() == [0.5, -0.25]
    assert not t.triples.flags.writeable and not t.values.flags.writeable


@pytest.mark.parametrize("entries", [
    {(1, 2): 1.0}, {(1, 2, 3, 4): 1.0}, {(1, 2, 3): 1.0, (1, 2): 2.0},
    {(1, 2, 3): [1.0, 2.0]}, {(1, 2, 3): [1.0]}, {(1, 2, 3): None},
    {(1, 2, 3): 1j}, {(1, 2, 3): "x"}, {(1, 2, 3 ** 70): 1.0},
], ids=["pair", "quadruple", "ragged", "list", "one-list", "none",
        "complex", "text", "huge-index"])
def test_malformed_entries_fail_as_the_per_entry_rule(entries):
    with pytest.raises((TypeError, ValueError)) as ref:
        for trip, val in entries.items():
            chaos3._checked_entry(trip, val, 4)
    with pytest.raises(type(ref.value)) as err:
        SymThreeTensor(4, entries)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("n, entries, normalize, message", [
    (4, {(1, 2, 3): 1.0, (2, 1, 4): 1.0}, False,
     "triple (2, 1, 4) must satisfy 1 <= i < j < k <= 4 (coincident or "
     "unordered indices are invalid)"),
    (4, {(1, 3, 3): 1.0}, False,
     "triple (1, 3, 3) must satisfy 1 <= i < j < k <= 4"),
    (4, {(1, 2, 3): 1.0, (0, 2, 3): 1.0}, True,
     "triple (0, 2, 3) must satisfy 1 <= i < j < k <= 4"),
    (4, {(2, 3, 5): 1.0}, False,
     "triple (2, 3, 5) must satisfy 1 <= i < j < k <= 4"),
    (4, {(1, 2, 3): 1.0, (1, 2, 4): math.nan}, False,
     "non-finite value at (1, 2, 4)"),
    (4, {(1, 2, 3): -math.inf}, True, "non-finite value at (1, 2, 3)"),
    # the first bad entry in the given order is named
    (4, {(1, 2, 4): math.inf, (3, 2, 1): 1.0}, False,
     "non-finite value at (1, 2, 4)"),
    (4, {(3, 2, 1): 1.0, (1, 2, 4): math.inf}, False,
     "triple (3, 2, 1) must satisfy"),
    (6, {(1, 2, 3): 1e160, (4, 5, 6): 1e160}, False,
     "variance inf is not finite: pass normalize=True or rescale the "
     "entries"),
    (6, {(1, 2, 3): 1e-170, (4, 5, 6): -1e-170}, False,
     "variance 0.0 underflows: pass normalize=True or rescale the "
     "entries"),
    (5, {}, True, "cannot normalize an all-zero tensor"),
    (5, {(1, 2, 3): 0.0, (3, 4, 5): -0.0}, True,
     "cannot normalize an all-zero tensor"),
    (2, {}, False, "dimension must be >= 3"),
], ids=["unordered", "coincident", "below-range", "above-range", "nan",
        "inf-normalized", "first-is-value", "first-is-triple",
        "variance-overflow", "variance-underflow", "empty-normalized",
        "zeros-normalized", "dimension"])
def test_constructor_errors_keep_their_messages(n, entries, normalize,
                                                 message):
    with pytest.raises(ValueError) as err:
        SymThreeTensor(n, entries, normalize=normalize)
    assert str(err.value).startswith(message)


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
    est = mc.estimate(lambda x: chaos3.gamma_batch(t, x), 100_000,
                      mc.RngSpec(SEED, 0), 3)
    assert oracles.within(est, 3.0, 3.0)


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
    # one each side of the triple kernel's crossover nnz ~ n^2 / 6
    # (C(20,3) = 1140 and C(40,3) = 9880 triples)
    "random-20-sparse": lambda: random_sparse_tensor(20, 0.04, 17),
    "random-20-dense": lambda: random_sparse_tensor(20, 0.25, 18),
    "random-40-sparse": lambda: random_sparse_tensor(40, 0.02, 19),
    "random-40-dense": lambda: random_sparse_tensor(40, 0.08, 20),
    # long runs: 352 triples, 10 to 28 slots per gradient row
    "random-60-runs": lambda: random_sparse_tensor(60, 0.0105, 23),
    # indices 5, 6 and 8 lie in no triple; runs of 4, 3, 2 and 1 slots
    "unused-indices": lambda: SymThreeTensor(9, {
        (1, 2, 4): 1.0, (2, 4, 7): -0.5, (1, 4, 9): 2.0, (2, 3, 4): 0.7},
        normalize=True),
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
        assert chaos3.gamma_batch(t, x).shape == (0,)
        # the sharp kernels issue no stack, and return their empty shape
        assert chaos3.sharp_batch(t, x).shape == (0, t.n, t.n)
        assert chaos3.trace_square_batch(t, x).shape == (0,)
        assert chaos3.sharp_power_sums(t, x, 3).shape == (3, 0)
        assert chaos3.spectra_batch(t, x).shape == (0, t.n)


@pytest.mark.parametrize("case, triples", [
    ("block-60", True), ("complete-20", False), ("spiked-20", False),
    ("random-20-sparse", True), ("random-20-dense", False),
    ("random-40-sparse", True), ("random-40-dense", False)])
def test_gamma_kernel_choice(case, triples):
    t = GAMMA_KERNEL_CASES[case]()
    assert chaos3._triples_win(t.values.size, t.n) is triples


def test_gamma_batch_builds_no_sharp_matrix(monkeypatch):
    def no_sharp(*args, **kwargs):
        raise AssertionError("Gamma must not build sharp matrices")

    monkeypatch.setattr(chaos3, "sharp_batch", no_sharp)
    t = family_generators("complete-3-tensor", 20)
    x = np.random.default_rng(22).standard_normal((100, 20))
    assert np.all(chaos3.gamma_batch(t, x) > 0.0)
    assert "a" not in vars(t)     # the dense tensor is never built
    with pytest.raises(ValueError):     # the pair GEMM's weights
        t._sharp_upper[0, 0] = 1.0


def test_gamma_pairs_memory_is_one_slab():
    # complete-40: a slab for the whole 4096-row call would be 25.6 MB; the
    # kernel's slab stays within STEP_ELEMENTS values (2 MB), and the rest
    # (transposed rows, gradients, output) is O(n * rows).
    # numpy reports its buffers to tracemalloc.
    t = family_generators("complete-3-tensor", 40)
    rows = 4096
    x = np.random.default_rng(23).standard_normal((rows, t.n))
    t._sharp_upper     # cached with the tensor, not per call
    tracemalloc.start()
    try:
        g = chaos3.gamma_batch(t, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (rows,)
    assert peak < 8 * (chaos3.STEP_ELEMENTS + 4 * t.n * rows)


# ---------------------------------------------------------------------------
# sharp matrix and spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [6, 8, 12, 16, 24])
def test_sharp_batch_gemms_stay_under_the_cap(monkeypatch, size):
    # OpenBLAS runs a GEMM of at most GEMM_MADDS multiply-adds on the
    # calling thread; up to n = 16 every sharp stack stays under that,
    # beyond it a stack has GEMM_POINTS rows.  sharp_power_sums and
    # spectra_batch issue the same stacks, and each call's stacks cover
    # the batch.  The batched n x n products of sharp_power_sums are not
    # sharp GEMMs, and are not recorded.
    t = family_generators("complete-3-tensor", size)
    x = np.random.default_rng(29).standard_normal((2048, size))
    ref = np.einsum('bk,ijk->bij', x, 3.0 * t.a)
    shapes, matmul = [], np.matmul

    def recorded(a, b, *args, **kwargs):
        if np.ndim(b) == 2:
            shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    assert np.allclose(chaos3.sharp_batch(t, x), ref, rtol=0.0, atol=1e-12)
    for kernel in (lambda: chaos3.sharp_batch(t, x),
                   lambda: chaos3.sharp_power_sums(t, x, 2),
                   lambda: chaos3.spectra_batch(t, x)):
        shapes.clear()
        kernel()
        assert sum(a[0] for a, _ in shapes) == 2048
        for (rows, depth), (depth_b, cols) in shapes:
            assert depth == depth_b == size and cols == size * size
            assert (rows * depth * cols <= chaos3.GEMM_MADDS if size <= 16
                    else rows == chaos3.GEMM_POINTS)


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

    def fn(pts):
        x, xh = pts[:, :3], pts[:, 3:]    # X and X_hat side by side
        ms = chaos3.sharp_batch(t, xh)
        return np.einsum('bi,bij,bj->b', x, ms, x) ** 2

    est = mc.estimate(fn, 200_000, mc.RngSpec(SEED, 1), 6)
    assert oracles.within(est, 3.0, 3.0)


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
        for trip, v in oracles.entries(t).items()})
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

def test_gamma_spec_at_zero(run_experiment):
    run = run_experiment("gamma-spec", triple_product(), {"xi": "0"}, 2000,
                         SEED)
    (row,) = run.csv["gamma_spec.csv"]
    assert row["lhs"] == 1.0 and row["lhs_se"] == 0.0
    assert row["rhs_re"] == 1.0 and row["rhs_im"] == 0.0
    assert row["rhs_re_se"] == 0.0 and row["rhs_im_se"] == 0.0


def test_gamma_spec_triple_product(run_experiment):
    run = run_experiment("gamma-spec", triple_product(), {"xi": "1"},
                         20_000, SEED)
    (row,) = run.csv["gamma_spec.csv"]
    assert abs(row["lhs"] - row["rhs_re"]) <= 3.0 * math.hypot(
        row["lhs_se"], row["rhs_re_se"])
    assert abs(row["rhs_im"]) <= 3.0 * row["rhs_im_se"]
    assert row["real_pass"] == row["imag_pass"] == 1.0


def test_gamma_spec_sample_floor(run_experiment):
    with pytest.raises(ValueError, match="need at least 100 samples"):
        run_experiment("gamma-spec", triple_product(), {"xi": "1"}, 99, SEED)


def test_gamma_spec_small_xi_expansion(run_experiment):
    # E exp(-xi^2 Gamma / 2) = 1 - (3/2) xi^2 + O(xi^4)
    run = run_experiment("gamma-spec", triple_product(), {"xi": "0.05"},
                         100_000, SEED)
    (row,) = run.csv["gamma_spec.csv"]
    assert abs(row["lhs"] - (1.0 - 1.5 * 0.05 ** 2)) < 1e-3


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

    fn = lambda xh: chaos3.trace_square_batch(t, xh)
    est = mc.estimate(fn, 200_000, mc.RngSpec(SEED, 2), t.n)
    assert oracles.within(est, 1.5, 3.0)
    var_est = mc.estimate(lambda xh: (fn(xh) - 1.5) ** 2,
                          200_000, mc.RngSpec(SEED, 3), t.n)
    assert oracles.within(var_est, tf.var_trace, 4.0)


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
    assert math.sqrt(res.var_gamma) <= 3.0 * math.sqrt(res.kappa4)


def test_k4_var_gamma_complete_n6():
    res = chaos3.kappa4_and_var_gamma(
        family_generators("complete-3-tensor", 6))
    assert math.sqrt(res.var_gamma) <= 3.0 * math.sqrt(res.kappa4)
    assert res.kappa4 >= 0.0


def test_k4_exact_beyond_isserlis_range():
    # the contraction route has no dimension cap: n = 7 is past the
    # Isserlis oracle's reach and still exact
    t = family_generators("complete-3-tensor", 7)
    res = chaos3.kappa4_and_var_gamma(t)
    assert res.kappa4 == chaos3.kappa4_contraction(t)
    assert res.var_gamma > res.kappa4 > 0.0
    assert math.sqrt(res.var_gamma) <= 3.0 * math.sqrt(res.kappa4)


def test_k4_nonnegative_and_bound(unit_tensor_factory):
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = unit_tensor_factory(rng, n=int(rng.integers(3, 6)))
        res = chaos3.kappa4_and_var_gamma(t)
        assert res.kappa4 >= -1e-10
        assert math.sqrt(res.var_gamma) <= 3.0 * math.sqrt(res.kappa4)


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
    assert math.sqrt(res.var_gamma) <= 3.0 * math.sqrt(res.kappa4)


def test_kappa4_block_family_exact():
    # disjoint blocks: F is a normalized sum of n iid copies, kappa4 = 24/n
    for n_blocks in (2, 4, 8):
        t = family_generators("block-3-tensor", 3 * n_blocks)
        assert chaos3.kappa4_contraction(t) == pytest.approx(
            24.0 / n_blocks, rel=1e-12)


def complete_family_exact(n):
    # kappa_4 and Var Gamma of the unit-variance complete family, in exact
    # arithmetic.  Every triple of distinct indices carries c, with
    # 36 C(n,3) c^2 = 1.  (a x_1 a)(j,k,l,m) is c^2 times the number of i
    # outside {j,k,l,m} (j != k, l != m), and C4(a) is c^4 times the number
    # of ways to label the six edges of K4 so that the three edges at each
    # vertex differ.  Both counts depend only on how many distinct labels
    # a tuple uses; each is counted by brute force over a label set of the
    # tuple's length, per fixed set of s labels, and summed over C(n, s).
    def per_label_set(length, ok):
        counts = Counter(len(set(v)) for v in
                         itertools.product(range(length), repeat=length)
                         if ok(v))
        return {s: Fraction(k, math.comb(length, s))
                for s, k in counts.items()}

    pairs = per_label_set(4, lambda v: v[0] != v[1] and v[2] != v[3])
    v1 = sum(math.comb(n, s) * p * (n - s) ** 2 for s, p in pairs.items())
    vertices = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
    edges = per_label_set(6, lambda v: all(
        len({v[i], v[j], v[k]}) == 3 for i, j, k in vertices))
    v2 = sum(math.comb(n, s) * p for s, p in edges.items())
    c4 = Fraction(1, 36 * math.comb(n, 3)) ** 2
    kappa4 = c4 * (1944 * v1 + 1296 * v2)
    return kappa4, kappa4 + 1296 * c4 * v1


def test_kappa4_complete_family_exact():
    # n = 6 is the Isserlis value 177/5 = 35.4
    assert complete_family_exact(6)[0] == Fraction(177, 5)
    for n in (8, 12, 24, 48):
        res = chaos3.kappa4_and_var_gamma(
            family_generators("complete-3-tensor", n))
        kappa4, var_gamma = complete_family_exact(n)
        assert abs(Fraction(res.kappa4) - kappa4) <= 1e-13 * kappa4
        assert abs(Fraction(res.var_gamma) - var_gamma) <= 1e-13 * var_gamma


@pytest.mark.parametrize("size", [24, 48])
def test_contraction_gemms_stay_under_the_cap(monkeypatch, size):
    # the n^2 x n^2 Gram has n^4 multiply-adds (8.0 M at n = 24), far
    # above what OpenBLAS runs on the calling thread; its slices are
    # issued in row stacks of at most GEMM_MADDS multiply-adds
    t = family_generators("complete-3-tensor", size)
    shapes, matmul = [], np.matmul

    def recorded(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    chaos3.kappa4_and_var_gamma(t)
    assert shapes
    for (rows, depth), (depth_b, cols) in shapes:
        assert depth == depth_b
        assert rows * depth * cols <= chaos3.GEMM_MADDS


def test_contractions_memory_is_one_slice():
    # complete-48: the Gram and its square were 2 x 42.5 MB; one slice
    # of the Gram is n^3 values (0.88 MB)
    # numpy reports its buffers to tracemalloc.
    t = family_generators("complete-3-tensor", 48)
    t.a         # cached with the tensor, not per call
    tracemalloc.start()
    try:
        chaos3.kappa4_and_var_gamma(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def spectral_radius(run_experiment, model, samples):
    """||lam_1||_2 and its standard error from a spectral-radius run."""
    run = run_experiment("spectral-radius", model, {"p": "1"}, samples, SEED)
    (row,) = run.csv["spectral_radius.csv"]
    return row["norm_2p"], row["se"]


def test_spectral_radius_triple_product(run_experiment):
    # brute-force oracle (5e6 samples, recorded before the build):
    # E lam_1^2 = 0.858649 +- 0.000316
    norm, se = spectral_radius(run_experiment, triple_product(), 100_000)
    e2 = norm ** 2
    se2 = 2.0 * norm * se
    assert abs(e2 - 0.858649) <= 3.0 * se2 + 0.001


def test_spectral_radius_zero_tensor(run_experiment):
    norm, se = spectral_radius(run_experiment, SymThreeTensor(3, {}), 1000)
    assert norm == 0.0 and se == 0.0


def test_spectral_radius_complete_family_grows(run_experiment):
    # measured direction (1e5-sample oracle): ||lam1||_2 rises with N
    # (1.048, 1.145, 1.192 at N = 6, 12, 24): the family concentrates its
    # trace in one dominant eigenvalue as N grows
    vals = [spectral_radius(run_experiment, {"kind": "complete-3-tensor",
                                             "size": str(n)}, 20_000)
            for n in (6, 12, 24)]
    for (lo, lo_se), (hi, hi_se) in zip(vals, vals[1:]):
        assert hi - lo > 3.0 * math.hypot(lo_se, hi_se)


def test_spectral_radius_block_family_shrinks(run_experiment):
    # the vanishing-kappa4 family: the spectral radius decays with size
    vals = [spectral_radius(run_experiment, {"kind": "block-3-tensor",
                                             "size": str(n)}, 20_000)
            for n in (6, 12, 24)]
    for (lo, lo_se), (hi, hi_se) in zip(vals, vals[1:]):
        assert lo - hi > 3.0 * math.hypot(lo_se, hi_se)


# ---------------------------------------------------------------------------
# small ball and negative moments
# ---------------------------------------------------------------------------

def refuse_draws(*args, **kwargs):
    raise AssertionError("a rejected grid drew samples")


def smallball(run_experiment, model, eps, samples, seed=SEED):
    """The grid points and the slope fit of a smallball3 run."""
    run = run_experiment("smallball3", model, {"eps": eps}, samples, seed)
    (fit,) = run.csv["smallball3_fit.csv"]
    return run.csv["smallball3.csv"], fit


def test_smallball_triple_product_slope(run_experiment):
    # 1e7-sample oracle before the build: slope 0.5895 +- 0.0003 on this grid
    points, fit = smallball(run_experiment, triple_product(),
                            np.geomspace(0.01, 0.3, 8), 1_000_000)
    assert not fit["widened"]
    assert np.all(np.diff([r["phat"] for r in points]) >= 0)
    assert 0.55 <= fit["slope"] <= 0.63


def test_smallball_widened_grid_flag(run_experiment):
    eps = np.concatenate([[1e-9], np.geomspace(0.05, 0.3, 5)])
    points, fit = smallball(run_experiment, triple_product(), eps, 100_000)
    assert fit["widened"]
    assert not points[0]["used_in_fit"]
    assert math.isfinite(fit["slope"])


def test_smallball_saturated_points_leave_the_fit(run_experiment):
    # eps = 200 and 400 lie far above Gamma's bulk: 199990 and 200000 of
    # 200000 hits.  Their binomial se (1.6e-5 relative, and 0) would
    # outweigh the other points about 1e6 to 1 and flatten the slope to
    # 0.0016; so they leave the fit, which then equals the fit of the grid
    # without them (one stream, one count per eps), 1.017 +- 0.005
    model = {"kind": "complete-3-tensor", "size": "6"}
    eps, n = [0.05, 0.1, 0.2, 0.4], 200_000
    points, fit = smallball(run_experiment, model, eps + [200, 400], n, 3)
    assert points[-1]["hits"] == n
    assert n - points[-2]["hits"] < cli.MIN_HITS
    assert [r["used_in_fit"] for r in points] == [1.0] * 4 + [0.0] * 2
    assert fit["widened"]
    ref_points, ref = smallball(run_experiment, model, eps, n, 3)
    assert not ref["widened"]
    assert (fit["slope"], fit["slope_se"]) == (ref["slope"], ref["slope_se"])
    # the slope lies between the steepest and flattest two-point slopes
    phat = [r["phat"] for r in ref_points]
    two_point = np.diff(np.log(phat)) / np.diff(np.log(eps))
    assert two_point.min() < fit["slope"] < two_point.max()


def test_smallball_too_few_fit_points(run_experiment):
    # block n = 60: Gamma averages 20 independent blocks, so no point of
    # this grid gets min_hits hits and the slope fit has nothing to use
    with pytest.raises(ValueError, match=r"only 0 of 8 .*min_hits=50"
                       r" \(largest hit count 0 "):
        smallball(run_experiment, {"kind": "block-3-tensor", "size": "60"},
                  np.geomspace(0.01, 0.3, 8), 2000)


def test_smallball_sparse_tensor_builds_no_dense_array():
    t = family_generators("block-3-tensor", 300)
    (hits,) = mc.reduce(lambda x: chaos3.gamma_batch(t, x), 100_000,
                        mc.RngSpec(SEED), t.n,
                        mc.Hits(np.linspace(2.0, 2.6, 4)))
    # every point has the hits and misses that the slope fit asks for
    counts = hits.counts[0]
    assert np.all(np.minimum(counts, hits.n - counts) >= cli.MIN_HITS)
    assert "a" not in vars(t)        # the n^3 array was never built


def test_dense_array_built_on_access():
    t = random_sparse_tensor(9, 0.5, 7)
    assert "a" not in vars(t)
    dense = np.zeros((9, 9, 9))
    for trip, v in oracles.entries(t).items():
        for p in itertools.permutations(trip):
            dense[tuple(i - 1 for i in p)] = v
    assert np.array_equal(t.a, dense)
    assert t.a is t.a
    assert not t.a.flags.writeable
    # the sharp unfolding 3a.reshape(n, n^2) is cached the same way
    assert np.array_equal(t._sharp_unfolding, 3.0 * dense.reshape(9, 81))
    assert t._sharp_unfolding is t._sharp_unfolding
    assert not t._sharp_unfolding.flags.writeable
    # and so is its upper half 3a[:, i<j], the columns of the trace route
    i, j = np.triu_indices(9, 1)
    assert np.array_equal(t._sharp_upper, 3.0 * dense[:, i, j])
    assert t._sharp_upper is t._sharp_upper
    assert not t._sharp_upper.flags.writeable
    assert t.variance == pytest.approx(6.0 * np.sum(dense * dense),
                                       rel=1e-14)


def test_smallball_grid_validation(run_experiment, monkeypatch):
    # the eps grid is checked before any draw
    monkeypatch.setattr(mc.RngSpec, "generator", refuse_draws)
    for eps, message in (("0.1, 0.05, 0.2", "be positive and increasing"),
                         ("-0.1, 0.05, 0.2", "be positive and increasing"),
                         ("0.05, 0.1", "hold at least 3 values")):
        with pytest.raises(ValueError, match=f"grid 'eps' must {message}"):
            smallball(run_experiment, triple_product(), eps, 1000)


def negmoment(run_experiment, theta, samples):
    """The one row of a negmoment3 run of F = X1 X2 X3."""
    run = run_experiment("negmoment3", triple_product(), {"theta": theta},
                         samples, SEED)
    (row,) = run.csv["negmoment3.csv"]
    return row


def test_negative_moment_gamma3_small_theta(run_experiment):
    row = negmoment(run_experiment, "0.01", 100_000)
    assert row["mean"] == pytest.approx(1.0, abs=0.02)
    assert not row["unstable"]


def test_negative_moment_gamma3_stable(run_experiment):
    row = negmoment(run_experiment, "0.25", 100_000)
    assert math.isfinite(row["mean"])
    assert not row["unstable"]


def test_negative_moment_gamma3_instability_flag(run_experiment,
                                                monkeypatch):
    # the flag reads the sample: a Gamma of x_1^4, whose moment at theta =
    # 0.9 is E |x_1|^(-3.6) = inf, puts the mass in the top summands (the
    # model's 4 coordinates pass the divergence check)
    monkeypatch.setattr(chaos3, "gamma_batch", lambda t, x: x[:, 0] ** 4)
    run = run_experiment("negmoment3", family_generators("complete-3-tensor",
                                                         4),
                         {"theta": "0.9"}, 200_000, SEED)
    (row,) = run.csv["negmoment3.csv"]
    assert row["top_share"] > 0.9
    assert row["unstable"]


@pytest.mark.parametrize("theta", ["0.75", "0.8", "0.95"])
def test_negative_moment_gamma3_divergence(run_experiment, monkeypatch,
                                           theta):
    # Gamma of X1 X2 X3 is homogeneous of degree 4 in 3 coordinates, so
    # E Gamma^(-theta) = inf for theta >= 3/4: refused before any draw
    monkeypatch.setattr(mc.RngSpec, "generator", refuse_draws)
    with pytest.raises(chaos2.DivergenceError,
                       match=rf"theta={theta}, n=3 coordinates"):
        negmoment(run_experiment, f"0.25, {theta}", 1000)


def test_negative_moment_gamma3_counts_the_coordinates_gamma_uses(
        run_experiment, monkeypatch):
    # a triple in 6 coordinates: Gamma uses 3 of them
    monkeypatch.setattr(mc.RngSpec, "generator", refuse_draws)
    t = SymThreeTensor(6, {(2, 4, 5): 1.0, (1, 2, 3): 0.0}, normalize=True)
    with pytest.raises(chaos2.DivergenceError, match="n=3 coordinates"):
        run_experiment("negmoment3", t, {"theta": "0.8"}, 1000, SEED)


def test_grid_columns_have_their_own_bits(run_experiment):
    # a grid point computed beside others equals the one-point grid at the
    # same seed, bitwise, across a chunk boundary
    t = triple_product()
    n = mc.CHUNK_SAMPLES + 4000
    pair = run_experiment("negmoment3", t, {"theta": "0.25, 0.5"}, n, SEED)
    alone = run_experiment("negmoment3", t, {"theta": "0.5"}, n, SEED)
    assert pair.csv["negmoment3.csv"][1] == alone.csv["negmoment3.csv"][0]
    pair = run_experiment("gamma-spec", t, {"xi": "0.5, 1"}, 2000, SEED)
    alone = run_experiment("gamma-spec", t, {"xi": "1"}, 2000, SEED)
    assert pair.csv["gamma_spec.csv"][1] == alone.csv["gamma_spec.csv"][0]


def _whole_chunks(fn, n, spec, dim, acc):
    # the reference reduction: each counter block drawn whole and mapped
    # by fn in one call
    for _, cnt, rng in mc.chunks(spec, n):
        x = fn(rng.standard_normal((cnt, dim)))
        acc.add(np.ascontiguousarray(x.reshape(cnt, -1).T))
    return acc


def test_stepped_estimators_match_whole_chunks_bitwise(run_experiment):
    # two chunks of whole steps, then a ragged last chunk of 777 samples;
    # the reference calls fn once per counter block
    model = {"kind": "complete-3-tensor", "size": "20"}
    t = family_generators("complete-3-tensor", 20)
    n = 2 * mc.CHUNK_SAMPLES + 777
    spec = mc.RngSpec(SEED, 0)
    gamma = lambda x: chaos3.gamma_batch(t, x)
    eps = np.geomspace(0.01, 0.3, 8)
    points, _ = smallball(run_experiment, model, eps, n)
    hits = _whole_chunks(gamma, n, spec, t.n, mc.Hits(eps))
    assert [r["hits"] for r in points] == hits.counts[0].tolist()

    thetas = [0.25, 0.5]

    def powers(x):
        g = gamma(x)
        return np.stack([g ** -theta for theta in thetas], axis=1)

    run = run_experiment("negmoment3", model, {"theta": thetas}, n, SEED)
    moments = _whole_chunks(powers, n, spec, t.n, mc.Moments())
    for row, ref in zip(run.csv["negmoment3.csv"], moments.results()):
        assert (row["mean"], row["se"]) == (ref.mean, ref.stderr)


def test_negative_moment_gamma3_domain(run_experiment, monkeypatch):
    # theta is checked before any draw
    monkeypatch.setattr(mc.RngSpec, "generator", refuse_draws)
    for theta in ("1", "0", "0.25, 1.5"):
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            negmoment(run_experiment, theta, 1000)


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
    # 1500 rows at n = 20 span 23 full sharp stacks of 64 rows and a
    # partial one
    t = family_generators("complete-3-tensor", 20)
    xh = np.random.default_rng(12).standard_normal((1500, 20))
    lams = chaos3.spectra_batch(t, xh)
    assert len(list(chaos3._sharp_stacks(t, xh, t._sharp_unfolding))) > 2
    single = np.array([oracles.spectrum(m)[0]
                       for m in chaos3.sharp_batch(t, xh)])
    assert np.allclose(np.sort(lams, axis=1), np.sort(single, axis=1),
                       rtol=0.0, atol=1e-12)
    assert np.all(np.diff(np.abs(lams), axis=1) <= 0.0)


def test_trace_square_batch_matches_unstepped_einsum():
    # 2000 rows at n = 24 span 31 full sharp stacks of 64 rows and a
    # partial one
    t = family_generators("complete-3-tensor", 24)
    xh = np.random.default_rng(13).standard_normal((2000, 24))
    assert len(list(chaos3._sharp_stacks(t, xh, t._sharp_upper))) > 4
    got = chaos3.trace_square_batch(t, xh)
    m = chaos3.sharp_batch(t, xh)     # the whole (B, n, n) stack at once
    assert np.allclose(got, np.einsum('bij,bij->b', m, m),
                       rtol=1e-13, atol=0.0)
    m = np.einsum('bk,ijk->bij', xh, 3.0 * t.a)
    assert np.allclose(got, np.einsum('bij,bij->b', m, m),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind, size", [
    ("complete-3-tensor", 3), ("complete-3-tensor", 7),
    ("complete-3-tensor", 24), ("complete-3-tensor", 48),
    ("spiked-3-tensor", 3), ("spiked-3-tensor", 10), ("spiked-3-tensor", 48),
    ("block-3-tensor", 3), ("block-3-tensor", 12), ("block-3-tensor", 48),
    ("random", 3), ("random", 5), ("random", 16), ("random", 33),
    ("random", 48)])
def test_trace_square_batch_is_the_trace_form(kind, size):
    # two routes per sample: the upper unfolding's 2 sum_{i<j} A_hat_ij^2,
    # and x' B x with B = 9 a_(1)' a_(1) of the trace form
    t = (oracles.make_unit_tensor(np.random.default_rng(size), size)
         if kind == "random" else family_generators(kind, size))
    x = np.random.default_rng(t.n).standard_normal((300, t.n))
    got = chaos3.trace_square_batch(t, x)
    b = chaos3.trace_form(t).b_matrix
    assert np.allclose(got, np.einsum('bi,ij,bj->b', x, b, x),
                       rtol=1e-13, atol=0.0)
    newton = chaos3.sharp_power_sums(t, x, 1)[0]
    assert np.allclose(got, newton, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("size", [3, 6, 12, 20, 21, 24, 32])
def test_trace_square_gemms_stay_under_the_cap(monkeypatch, size):
    # the upper unfolding has n(n-1)/2 columns: up to n = 20 a stack of
    # GEMM_POINTS rows does at most GEMM_MADDS multiply-adds, and every
    # stack but the last is as long as that cap allows; beyond it every
    # stack has GEMM_POINTS rows
    t = family_generators("complete-3-tensor", size)
    x = np.random.default_rng(30).standard_normal((2048, size))
    cols = size * (size - 1) // 2
    shapes, matmul = [], np.matmul

    def recorded(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    chaos3.trace_square_batch(t, x)
    assert sum(a[0] for a, _ in shapes) == 2048
    under = chaos3.GEMM_POINTS * size * cols <= chaos3.GEMM_MADDS
    assert under == (size <= 20)
    for m, ((rows, depth), (depth_b, width)) in enumerate(shapes):
        assert depth == depth_b == size and width == cols
        assert (rows * depth * width <= chaos3.GEMM_MADDS if under
                else rows == chaos3.GEMM_POINTS)
        if under and m < len(shapes) - 1:
            assert (rows + 1) * depth * width > chaos3.GEMM_MADDS


def test_sp_grid_shares_one_table(run_experiment):
    # every p of the grid reads the same draws: p = 1 of a grid equals
    # the one-point grid bitwise, and each column is one Newton table
    model = {"kind": "block-3-tensor", "size": "9"}
    grid = run_experiment("sp-lower-bound", model, {"p": "1, 2, 3"}, 2000,
                          SEED)
    alone = run_experiment("sp-lower-bound", model, {"p": "1"}, 2000, SEED)
    rows = grid.csv["sp_lower_bound.csv"]
    assert rows[0] == alone.csv["sp_lower_bound.csv"][0]
    assert grid.csv["sp_smallball_p1.csv"] == alone.csv["sp_smallball_p1.csv"]
    assert [r["p"] for r in rows] == [1, 2, 3]
    t = family_generators("block-3-tensor", 9)
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


def test_sp_batch_triple_product_mean(run_experiment):
    run = run_experiment("sp-lower-bound", triple_product(), {"p": "1"},
                         50_000, SEED)
    (row,) = run.csv["sp_lower_bound.csv"]
    assert abs(row["mean_sp"] - 1.5) <= 3.0 * row["se"]


def test_sp_domain_error(run_experiment, monkeypatch):
    # p is checked before any draw, the self-check's included
    monkeypatch.setattr(mc.RngSpec, "generator", refuse_draws)
    for p in ("4", "0, 1"):
        with pytest.raises(ValueError, match=r"p must lie in 1\.\.3"):
            run_experiment("sp-lower-bound", triple_product(), {"p": p},
                           1000, SEED)


def test_sp_batch_estimate_never_eigensolves(run_experiment, monkeypatch):
    # S_hat_p comes from the Newton sums: the run's one eigensolve is the
    # 256-row self-check of the product route
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        solved.append(m.shape[0])
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    run = run_experiment("sp-lower-bound",
                         {"kind": "complete-3-tensor", "size": "8"},
                         {"p": "1, 2, 8"}, 2000, SEED)
    assert solved == [256]
    rows = run.csv["sp_lower_bound.csv"]
    assert [r["p"] for r in rows] == [1, 2, 8]
    assert all(math.isfinite(r["mean_sp"]) for r in rows)


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
    # 1500 rows at n = 20 span 23 full sharp stacks of 64 rows and a
    # partial one
    t = _dense_unit_tensor(20, 16)
    xh = np.random.default_rng(17).standard_normal((1500, 20))
    assert len(list(chaos3._sharp_stacks(t, xh, t._sharp_unfolding))) > 2
    got = chaos3.sharp_power_sums(t, xh, q_max)
    m = chaos3.sharp_batch(t, xh)     # the whole (B, n, n) stack at once
    for q in range(1, q_max + 1):
        mq = np.linalg.matrix_power(m, q)
        assert np.allclose(got[q - 1], np.einsum('bij,bij->b', mq, mq),
                           rtol=1e-12, atol=0.0)


def test_sharp_power_sums_memory_is_one_small_step():
    # complete-12, q_max 3 and 5: the steps share at most three buffers
    # (A_hat, M2 and a product; q_max 5 is the first to need the third),
    # each one sharp GEMM stack of at most max(GEMM_MADDS / n,
    # GEMM_POINTS n^2) values (171 KB here); the rest is the output,
    # O(q_max rows).  3a is cached with the tensor.
    # numpy reports its buffers to tracemalloc.
    t = family_generators("complete-3-tensor", 12)
    rows = 4096
    x = np.random.default_rng(31).standard_normal((rows, t.n))
    t._sharp_unfolding
    stack = max(chaos3.GEMM_MADDS // t.n, chaos3.GEMM_POINTS * t.n ** 2)
    for q_max in (3, 5):
        tracemalloc.start()
        try:
            sums = chaos3.sharp_power_sums(t, x, q_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sums.shape == (q_max, rows)
        assert peak < 8 * (3 * stack + (q_max + 1) * rows)


@pytest.mark.parametrize("q_max", [1, 4])
def test_sharp_power_sums_zero_rows(q_max):
    t = family_generators("complete-3-tensor", 5)
    assert chaos3.sharp_power_sums(t, np.zeros((0, 5)), q_max).shape \
        == (q_max, 0)
    assert np.all(chaos3.sharp_power_sums(t, np.zeros((3, 5)), q_max) == 0.0)


@pytest.mark.parametrize("call", [
    lambda t, x: chaos3.sharp_batch(t, x),
    lambda t, x: chaos3.spectra_batch(t, x),
    lambda t, x: chaos3.trace_square_batch(t, x),
    lambda t, x: chaos3.sharp_power_sums(t, x, 2),
    lambda t, x: chaos3.gamma_batch(t, x),
], ids=["sharp_batch", "spectra_batch", "trace_square_batch",
        "sharp_power_sums", "gamma_batch"])
@pytest.mark.parametrize("shape", [(), (4,), (2, 5), (0, 5), (2, 4, 4)],
                         ids=["0-d", "1-d", "wrong-width", "empty-wrong-width",
                              "3-d"])
def test_batch_shape_errors(call, shape):
    # a named error, not a TypeError from len() of a scalar, and raised
    # even where the batch would issue no GEMM stack
    t = family_generators("complete-3-tensor", 4)
    with pytest.raises(ValueError, match=r"batch must have shape \(B, 4\)"):
        call(t, np.ones(shape))


@pytest.mark.parametrize("q_max", [0, 5])
def test_sharp_power_sums_q_max_domain(q_max):
    t = family_generators("complete-3-tensor", 4)
    with pytest.raises(ValueError, match=r"q_max must lie in 1\.\.4"):
        chaos3.sharp_power_sums(t, np.ones((2, 4)), q_max)


def test_sp_bound_block_vs_complete_n12(run_experiment):
    # the spectral lower bound (1/2)(3/2)^p / p! at p = 2 is 0.5625: it holds
    # for the vanishing-kappa4 block family (E = 276/256) and fails for the
    # complete family (measured 0.485 +- 0.003, kappa4 = 58 there)
    def sp2(kind):
        run = run_experiment("sp-lower-bound", {"kind": kind, "size": "12"},
                             {"p": "2"}, 30_000, SEED)
        return run.csv["sp_lower_bound.csv"][0]

    block = sp2("block-3-tensor")
    assert block["lower_bound"] == pytest.approx(0.5625)
    assert block["mean_sp"] >= block["lower_bound"]
    assert abs(block["mean_sp"] - 276.0 / 256.0) <= 4.0 * block["se"]
    complete = sp2("complete-3-tensor")
    assert complete["mean_sp"] < complete["lower_bound"]


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
    oracles.write_tensor_file(t, path)
    back = chaos3.read_tensor_file(path)
    assert back.n == t.n
    assert np.allclose(back.a, t.a, atol=1e-15)


def test_tensor_file_normalize(tmp_path):
    path = tmp_path / "tensor.txt"
    path.write_text("6\n1 2 3 1.5\n4 5 6 -3\n")
    assert chaos3.read_tensor_file(path).variance == pytest.approx(405.0)
    t = chaos3.read_tensor_file(path, normalize=True)
    assert t.unit_variance
    entries = oracles.entries(t)
    assert entries[(4, 5, 6)] == pytest.approx(-2.0 * entries[(1, 2, 3)])


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
    assert oracles.entries(t)[(1, 2, 3)] == 0.25
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
