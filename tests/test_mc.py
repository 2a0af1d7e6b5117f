import ast
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wienerchaos import chaos2, chaos3, mc
from wienerchaos.cli import family_generators

import oracles


def test_gaussian_vector_deterministic():
    spec = mc.RngSpec(seed=42, stream=0)
    a = spec.generator().standard_normal(3)
    b = spec.generator().standard_normal(3)
    assert a.shape == (3,)
    assert np.array_equal(a, b)


def test_gaussian_vector_marginals():
    n = 1_000_000
    x = mc.RngSpec(1).generator().standard_normal(n)
    assert abs(x.mean()) < 5.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_distinct_streams_uncorrelated():
    n = 200_000
    a = mc.RngSpec(9, 0).generator().standard_normal(n)
    b = mc.RngSpec(9, 1).generator().standard_normal(n)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 5.0 / np.sqrt(n)


def test_estimate_constant():
    res = mc.estimate(lambda x: np.ones(len(x)), 1000, mc.RngSpec(0), 1)
    assert res.mean == 1.0
    assert res.stderr == 0.0
    assert res.n == 1000


def test_estimate_chi_square():
    res = mc.estimate(lambda x: x[:, 0] ** 2, 200_000, mc.RngSpec(5), 1)
    assert oracles.within(res, 1.0, 4.0)


def test_estimate_matches_laplace_transform():
    f = chaos2.DiagonalSecondChaos([2 ** -0.5])
    res = mc.estimate(lambda x: np.exp(-f.sample_gamma(x)), 200_000,
                      mc.RngSpec(6), f.m)
    assert oracles.within(res, chaos2.laplace_gamma(f, 1.0), 4.0)


def test_estimate_reproducible_bitwise():
    fn = lambda x: x[:, 0] ** 2
    r1 = mc.estimate(fn, 150_000, mc.RngSpec(3, 2), 1)
    r2 = mc.estimate(fn, 150_000, mc.RngSpec(3, 2), 1)
    assert r1.mean == r2.mean and r1.stderr == r2.stderr


def test_estimate_chunk_merge_matches_flat_mean():
    # samples are fixed per index; merging must agree with the flat mean
    n = 300_000
    spec = mc.RngSpec(12, 4)
    res = mc.estimate(lambda x: x[:, 0] ** 2, n, spec, 1)
    flat = np.concatenate([rng.standard_normal(cnt) ** 2
                           for _, cnt, rng in mc.chunks(spec, n)])
    assert res.mean == pytest.approx(float(flat.mean()), rel=1e-10)
    assert res.stderr == pytest.approx(
        float(flat.std(ddof=1) / np.sqrt(n)), rel=1e-10)


def test_estimate_rejects_small_n():
    with pytest.raises(ValueError):
        mc.estimate(lambda x: np.ones(len(x)), 99, mc.RngSpec(0), 1)


def test_estimate_poisoned_sample_names_chunk():
    def fn(x):
        out = np.ones(len(x))
        out[0] = np.nan
        return out

    with pytest.raises(mc.PoisonedSampleError, match="chunk 0"):
        mc.estimate(fn, 1000, mc.RngSpec(7, 3), 1)


def test_estimate_complex():
    # a complex sample reduces as two real Moments columns
    def fn(x):
        z = np.exp(1j * x[:, 0])
        return np.stack([z.real, z.imag], axis=1)

    (m,) = mc.reduce(fn, 200_000, mc.RngSpec(8), 1, mc.Moments())
    re, im = m.results()
    # E exp(iG) = exp(-1/2)
    assert oracles.within(re, np.exp(-0.5), 4.0)
    assert oracles.within(im, 0.0, 4.0)


# ---------------------------------------------------------------------------
# the reduction and its accumulators
# ---------------------------------------------------------------------------

def _flat(fn, n, spec, dim):
    # each chunk's points drawn whole, in one call
    return np.concatenate([
        np.asarray(fn(rng.standard_normal((cnt, dim)))).reshape(cnt, -1)
        for _, cnt, rng in mc.chunks(spec, n)])


def _chan_reference(fn, n, spec, dim):
    # 1-D chunk means and the Chan-Golub-LeVeque merge, in Python floats,
    # on whole-chunk draws
    count, mean, m2 = 0, 0.0, 0.0
    for _, cnt, rng in mc.chunks(spec, n):
        x = fn(rng.standard_normal((cnt, dim)))
        cm = float(x.mean())
        cm2 = float(np.sum((x - cm) ** 2))
        tot = count + cnt
        delta = cm - mean
        mean = mean + delta * cnt / tot
        m2 = m2 + cm2 + delta * delta * count * cnt / tot
        count = tot
    return mean, float(np.sqrt(m2 / (count - 1) / count))


@pytest.mark.parametrize("n", [100, 12_345, 150_000])
def test_reduce_columns_match_estimate_bitwise(n):
    fn = lambda x: x[:, 0] ** 2
    spec = mc.RngSpec(3, 2)
    both = lambda x: np.stack([fn(x)] * 2, axis=1)
    (m,) = mc.reduce(both, n, spec, 1, mc.Moments())
    ref = mc.estimate(fn, n, spec, 1)
    assert m.results() == [ref, ref]
    assert (ref.mean, ref.stderr) == _chan_reference(fn, n, spec, 1)


def test_reduce_hands_one_array_to_every_accumulator():
    # accumulators reduced together each give, bit for bit, what they give
    # alone, across whole and ragged chunks
    n = 2 * mc.CHUNK_SAMPLES + 777
    spec = mc.RngSpec(2, 5)
    fn = lambda x: np.exp(x * [0.5, 1, 2])
    m, hits, top = mc.reduce(fn, n, spec, 3, mc.Moments(),
                             mc.Hits([0.5, 1.0, 2.0]), mc.TopShare(n // 1000))
    (m1,) = mc.reduce(fn, n, spec, 3, mc.Moments())
    (hits1,) = mc.reduce(fn, n, spec, 3, mc.Hits([0.5, 1.0, 2.0]))
    (top1,) = mc.reduce(fn, n, spec, 3, mc.TopShare(n // 1000))
    assert m.results() == m1.results()
    assert hits.n == hits1.n == n
    assert np.array_equal(hits.counts, hits1.counts)
    assert np.array_equal(top.share, top1.share)
    assert np.array_equal(top.top, top1.top)


def test_hits_across_chunks_match_flat_count():
    n = mc.CHUNK_SAMPLES + 5000
    spec = mc.RngSpec(4, 1)
    thresholds = [0.1, 0.5, 1.0, 2.0]
    fn = lambda x: x ** 2
    (hits,) = mc.reduce(fn, n, spec, 2, mc.Hits(thresholds))
    flat = _flat(fn, n, spec, 2)
    expected = np.array([[np.count_nonzero(col < t) for t in thresholds]
                         for col in flat.T])
    assert hits.counts.dtype == np.int64
    assert np.array_equal(hits.counts, expected)
    assert hits.n == n
    assert np.array_equal(hits.fractions()[0], expected / n)


def test_hits_counts_ties_over_several_adds():
    # x < t is strict, so a value on a threshold is a miss; counts add up
    hits = mc.Hits([0.0, 1.0, 2.0])
    hits.add(np.array([[0.0, 1.0, 2.0, 1.0], [-1.0, 2.0, 2.0, 3.0]]))
    hits.add(np.array([[1.0, 0.5], [2.0, 1.5]]))
    hits.add(np.array([[2.0], [0.0]]))
    assert hits.counts.dtype == np.int64
    assert hits.counts.tolist() == [[0, 2, 5], [1, 2, 3]]
    assert hits.n == 7


def test_top_share_matches_brute_force():
    n = 2 * mc.CHUNK_SAMPLES + 777
    k = n // 1000
    spec = mc.RngSpec(5, 3)
    fn = lambda x: np.exp(x * [1.0, 3.0])
    (top,) = mc.reduce(fn, n, spec, 2, mc.TopShare(k))
    flat = _flat(fn, n, spec, 2)
    expected = np.sort(flat, axis=0)[-k:].sum(axis=0) / flat.sum(axis=0)
    assert top.share == pytest.approx(expected, rel=1e-12)
    assert top.share[1] > top.share[0]


@pytest.mark.parametrize("k", [0, -3])
def test_top_share_rejects_k_below_one(k):
    # before any sampling is paid for, not at the first merge
    with pytest.raises(ValueError, match=rf"got k={k}"):
        mc.TopShare(k)


def point_at(spec, index, dim=1):
    """The Gaussian point mc.reduce draws for one global sample index."""
    block, row = divmod(index, mc.CHUNK_SAMPLES)
    return spec.generator(block).standard_normal((row + 1, dim))[-1]


def set_workers(monkeypatch, workers):
    # mc.reduce maps on one thread per usable CPU
    monkeypatch.setattr(mc.os, "sched_getaffinity",
                        lambda pid: set(range(workers)))


class Fed:
    """An accumulator that records the sample count and the first value of
    each array fed."""

    def __init__(self):
        self.counts, self.firsts = [], []

    def add(self, xt):
        self.counts.append(xt.shape[1])
        self.firsts.append(float(xt[0, 0]))


def drawn_blocks(monkeypatch):
    """Record the counter block of every draw mc.reduce makes."""
    drawn = []
    generator = mc.RngSpec.generator

    class Recorder:
        def __init__(self, rng, block):
            self.rng, self.block = rng, block

        def standard_normal(self, size):
            drawn.append(self.block)
            return self.rng.standard_normal(size)

    monkeypatch.setattr(mc.RngSpec, "generator", lambda spec, block=0:
                        Recorder(generator(spec, block), block))
    return drawn


class Merges:
    """An accumulator that logs "merge" to events for each array fed."""

    def __init__(self, events):
        self.events = events

    def add(self, xt):
        self.events.append("merge")


@pytest.mark.parametrize("workers", [2, 3])
def test_reduce_maps_at_most_w_chunks_ahead_of_the_merge(monkeypatch,
                                                         workers):
    # no draw of chunk j comes before chunk j - W is merged
    set_workers(monkeypatch, workers)
    events = drawn_blocks(monkeypatch)   # the block of every draw
    mc.reduce(np.ones_like, 8 * mc.CHUNK_SAMPLES + 10, mc.RngSpec(4), 1,
              Merges(events))
    merged = 0
    for event in events:
        if event == "merge":
            merged += 1
        else:
            assert event < merged + workers
    assert merged == 9
    assert set(events) == {"merge", *range(9)}


def test_reduce_poisoned_column_names_chunk(monkeypatch):
    # the bad value sits in the second step of chunk 1; the error names its
    # global sample index, no accumulator gets chunk 2, and at most W - 1
    # of the 11 chunks past chunk 1 are mapped
    spec = mc.RngSpec(7, 3)
    bad = mc.CHUNK_SAMPLES + mc.STEP_SAMPLES + 17
    target = point_at(spec, bad)

    def fn(x):
        out = np.ones((len(x), 3))
        out[(x == target).all(axis=1), 1] = np.nan
        return out

    for workers in (1, 2, 3):
        set_workers(monkeypatch, workers)
        drawn = drawn_blocks(monkeypatch)
        fed = Fed()
        with pytest.raises(mc.PoisonedSampleError,
                           match=rf"chunk 1, column 1, sample {bad} "
                                 r"\(seed=7, stream=3\)"):
            mc.reduce(fn, 12 * mc.CHUNK_SAMPLES + 10, spec, 1, fed)
        assert fed.counts == [mc.CHUNK_SAMPLES]
        assert len({b for b in drawn if b > 1}) <= workers - 1
        monkeypatch.undo()


def raising_at(point, fn):
    """fn, but a batch holding point raises RuntimeError."""
    def wrapped(x):
        if (x == point).all(axis=1).any():
            raise RuntimeError("fn failed")
        return fn(x)
    return wrapped


def poisoned_at(point):
    """Ones, but inf on the row that equals point."""
    def fn(x):
        out = np.ones(len(x))
        out[(x == point).all(axis=1)] = np.inf
        return out
    return fn


def test_reduce_later_error_does_not_hide_an_earlier_poisoned_chunk(
        monkeypatch):
    # at 3 workers chunk 2 (10 samples) raises while chunk 1 is still
    # being mapped; at any count the merge meets chunk 1 first
    spec = mc.RngSpec(7, 3)
    n = 2 * mc.CHUNK_SAMPLES + 10
    bad = mc.CHUNK_SAMPLES + 5
    later = point_at(spec, 2 * mc.CHUNK_SAMPLES)
    fn = raising_at(later, poisoned_at(point_at(spec, bad)))
    for workers in (1, 2, 3):
        set_workers(monkeypatch, workers)
        with pytest.raises(mc.PoisonedSampleError,
                           match=rf"chunk 1, column 0, sample {bad} "):
            mc.reduce(fn, n, spec, 1, mc.Moments())
        with pytest.raises(RuntimeError, match="fn failed"):
            mc.reduce(raising_at(later, np.ones_like), n, spec, 1,
                      mc.Moments())


def test_reduce_leaves_no_thread_behind(monkeypatch):
    # after a clean run, an error raised in a helper's chunk and a
    # poisoned chunk, the thread count is back where it was
    set_workers(monkeypatch, 3)
    spec, n = mc.RngSpec(1), 3 * mc.CHUNK_SAMPLES + 10
    point = point_at(spec, mc.CHUNK_SAMPLES + 3)
    before = threading.active_count()
    mc.reduce(np.ones_like, n, spec, 1, mc.Moments())
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="fn failed"):
        mc.reduce(raising_at(point, np.ones_like), n, spec, 1, mc.Moments())
    assert threading.active_count() == before
    with pytest.raises(mc.PoisonedSampleError, match="chunk 1,"):
        mc.reduce(poisoned_at(point), n, spec, 1, mc.Moments())
    assert threading.active_count() == before


def test_reduce_merges_in_block_order_under_thread_stress(monkeypatch):
    # more workers than CPUs and a short switch interval: a lost update in
    # the hand-off would drop, repeat or reorder a chunk, or hang the merge
    spec, n = mc.RngSpec(3, 9), 12 * mc.CHUNK_SAMPLES + 7
    set_workers(monkeypatch, 1)
    serial = mc.reduce(np.exp, n, spec, 1, mc.Moments(), Fed())
    set_workers(monkeypatch, 8)
    done = []
    worker = threading.Thread(target=lambda: done.append(
        mc.reduce(np.exp, n, spec, 1, mc.Moments(), Fed())))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    (moments, fed), = done
    assert fed.counts == [mc.CHUNK_SAMPLES] * 12 + [7]
    assert fed.firsts == serial[1].firsts
    assert moments.results() == serial[0].results()


KERNELS = {
    "gamma_batch": chaos3.gamma_batch,
    "spectra_batch": chaos3.spectra_batch,
    "sharp_power_sums": lambda t, x: chaos3.sharp_power_sums(t, x, 3).T,
}


@pytest.mark.parametrize("kernel, size, n", [
    ("gamma_batch", 20, 3 * mc.CHUNK_SAMPLES + 10),
    ("spectra_batch", 6, mc.CHUNK_SAMPLES + 1000),
    ("spectra_batch", 12, 25_000),            # one chunk, its steps dealt
    ("sharp_power_sums", 8, 40_000),          # q_max 3, one chunk
    ("gamma_batch", 20, mc.CHUNK_SAMPLES + 34_464)])   # an uneven round
def test_reduce_bits_do_not_depend_on_the_thread_count(monkeypatch, kernel,
                                                       size, n):
    t = family_generators("complete-3-tensor", size)
    fn = lambda x: KERNELS[kernel](t, x)
    accumulators = lambda: (mc.Moments(), mc.Hits([0.5, 1.0, 2.0]),
                            mc.TopShare(n // 1000))
    default = mc.reduce(fn, n, mc.RngSpec(5, 1), size, *accumulators())
    for workers in (1, 2, 3):
        set_workers(monkeypatch, workers)
        mapped = mc.reduce(fn, n, mc.RngSpec(5, 1), size, *accumulators())
        assert mapped[0].results() == default[0].results()
        assert np.array_equal(mapped[1].counts, default[1].counts)
        assert np.array_equal(mapped[2].top, default[2].top)
        assert np.array_equal(mapped[2].total, default[2].total)


def test_reduce_deals_one_chunk_to_every_worker(monkeypatch):
    # a one-chunk round shares its steps: fn runs on two threads
    set_workers(monkeypatch, 2)
    callers = set()

    def fn(x):
        callers.add(threading.get_ident())
        return np.ones(len(x))

    (moments,) = mc.reduce(fn, 5 * mc.STEP_SAMPLES, mc.RngSpec(6), 1,
                           mc.Moments())
    assert moments.n == 5 * mc.STEP_SAMPLES
    assert len(callers) == 2 and threading.get_ident() in callers


def test_reduce_of_one_step_starts_no_thread(monkeypatch):
    set_workers(monkeypatch, 4)

    def no_thread(*args, **kwargs):
        raise AssertionError("mc.reduce started a thread")

    monkeypatch.setattr(mc.threading, "Thread", no_thread)
    (moments,) = mc.reduce(np.exp, 100, mc.RngSpec(6), 1, mc.Moments())
    assert moments.n == 100


def reduce_joined(*args):
    """What mc.reduce(*args) raises, run on a thread joined with a timeout:
    a step that waits on a draw that never comes would hang it."""
    raised = []

    def target():
        try:
            mc.reduce(*args)
        except Exception as exc:
            raised.append(exc)

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    (exc,) = raised
    return exc


def draws_raising_at(monkeypatch, step):
    """Make the chunk's draw of one step (0-based) raise RuntimeError."""
    generator = mc.RngSpec.generator

    class Raising:
        def __init__(self, rng):
            self.rng, self.steps = rng, 0

        def standard_normal(self, size):
            # the chain orders a chunk's draws, so this count is the step
            self.steps += 1
            if self.steps == step + 1:
                raise RuntimeError(f"draw of step {step} failed")
            return self.rng.standard_normal(size)

    monkeypatch.setattr(mc.RngSpec, "generator", lambda spec, block=0:
                        Raising(generator(spec, block)))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("step", [1, 4])
def test_reduce_one_chunk_fails_by_its_first_failing_step(monkeypatch,
                                                          workers, step):
    # step 1 is a helper's at 2 and 3 workers, step 4 the caller's at 2
    # and a helper's at 3; a failed step frees the steps that wait on it
    set_workers(monkeypatch, workers)
    spec, n = mc.RngSpec(7, 3), 8 * mc.STEP_SAMPLES + 10
    before = threading.active_count()
    bad = step * mc.STEP_SAMPLES + 5
    exc = reduce_joined(raising_at(point_at(spec, bad), np.ones_like), n,
                        spec, 1, mc.Moments())
    assert isinstance(exc, RuntimeError) and str(exc) == "fn failed"
    exc = reduce_joined(poisoned_at(point_at(spec, bad)), n, spec, 1,
                        mc.Moments())
    assert isinstance(exc, mc.PoisonedSampleError)
    assert f"chunk 0, column 0, sample {bad} " in str(exc)
    draws_raising_at(monkeypatch, step)
    exc = reduce_joined(np.ones_like, n, spec, 1, mc.Moments())
    assert isinstance(exc, RuntimeError)
    assert str(exc) == f"draw of step {step} failed"
    assert threading.active_count() == before


def test_reduce_memory_is_one_step_not_one_chunk():
    # chi2-average m = 192: one chunk of normals is 100 MB, one step 6.3 MB.
    # numpy reports its buffers to tracemalloc.
    f = family_generators("chi2-average", 192)
    tracemalloc.start()
    try:
        (hits,) = mc.reduce(f.sample_gamma, 100_000, mc.RngSpec(11), f.m,
                            mc.Hits([0.5, 1.0, 1.5]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits.n == 100_000
    assert peak < 16 * 2 ** 20


def test_reduce_runs_where_os_has_no_sched_getaffinity(monkeypatch):
    # macOS has no sched_getaffinity: the CPUs are os.cpu_count(), 1 if
    # unknown, and the bits are a one-worker run's
    spec, n = mc.RngSpec(2, 4), 3 * mc.CHUNK_SAMPLES + 10
    set_workers(monkeypatch, 1)
    serial = mc.reduce(np.exp, n, spec, 1, mc.Moments(), Fed())
    monkeypatch.delattr(mc.os, "sched_getaffinity")
    for cpus in (3, None):
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        assert mc.usable_cpus() == (cpus or 1)
        moments, fed = mc.reduce(np.exp, n, spec, 1, mc.Moments(), Fed())
        assert fed.firsts == serial[1].firsts
        assert moments.results() == serial[0].results()


def test_reduce_rejects_bad_shapes_and_counts():
    with pytest.raises(ValueError, match="expected"):
        mc.reduce(lambda x: np.ones(len(x) + 1), 1000, mc.RngSpec(0), 1,
                  mc.Moments())
    # a step with other columns than the chunk's first step is named, not
    # left to numpy's broadcast error
    widths = iter([2, 3])
    with pytest.raises(ValueError, match="fn returned 3 columns, but 2 at "
                                         "the chunk's first step"):
        mc.reduce(lambda x: np.ones((len(x), next(widths))),
                  mc.STEP_SAMPLES + 1, mc.RngSpec(0), 1, mc.Moments())
    drawn = []
    with pytest.raises(ValueError, match="need at least 100 samples"):
        mc.reduce(drawn.append, 99, mc.RngSpec(0), 1, mc.Moments())
    assert not drawn


# the only draws outside mc: sphere_grid's fixed-key directions and the
# stream-999 probe of the sp-lower-bound run
DRAW_PROBES = {("chaos2", "sphere_grid"), ("cli", "_exp_sp_lower_bound")}


def test_only_mc_draws():
    # every estimator is a map of the points mc.reduce draws
    sites = set()
    for path in Path(mc.__file__).parent.glob("*.py"):
        # each top-level statement: a function, a class or a module line
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Attribute)
                   and node.attr == "standard_normal"
                   for node in ast.walk(top)):
                sites.add((path.stem, getattr(top, "name", "<module>")))
    assert sites - {("mc", "reduce")} == DRAW_PROBES


def imported_names(path) -> set:
    """Every module and name that the imports of one source file name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    return names


@pytest.mark.parametrize("module", ["chaos2", "chaos3"])
def test_library_does_not_import_mc(module):
    # the library computes closed forms and kernels; every Monte Carlo
    # estimate and cross-check is the runner's, so it imports no part of mc
    names = imported_names(Path(mc.__file__).parent / f"{module}.py")
    assert not [n for n in names if n.split(".")[-1] == "mc"], names


# the Monte Carlo machinery that only the runner drives
MC_NAMES = {"reduce", "estimate", "Moments", "Hits", "TopShare",
            "loglog_slope"}


def test_demos_run_the_runner():
    # a demo prints the runner's estimates and gates, not its own copies;
    # it runs on numpy alone, without the oracle polynomials of wick
    for path in (Path(mc.__file__).parents[2] / "demos").glob("*.py"):
        names = imported_names(path)
        assert not [n for n in names
                    if n.split(".")[-1] in {"mc", "wick"}
                    or n.split(".")[0] == "scipy"], path
        used = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(ast.parse(path.read_text(
                    encoding="utf-8")))
                if isinstance(node, (ast.Name, ast.Attribute))}
        assert not used & MC_NAMES, path


def test_src_does_not_import_scipy():
    # the library runs on numpy alone; scipy serves the tests and the
    # benchmark only
    for path in Path(mc.__file__).parent.glob("*.py"):
        names = imported_names(path)
        assert not [n for n in names if n.split(".")[0] == "scipy"], path


def test_every_public_name_has_a_caller_outside_tests():
    # src/ holds what a run, a demo, the benchmark or another module
    # calls; a helper that only tests call lives in tests/oracles.py.  A
    # class member counts as called only where it is read as an
    # attribute, so a local variable of the same name does not count.
    src = Path(mc.__file__).parent
    root = src.parents[1]
    named, attrs = set(), set()
    for top in ("src", "demos", "benchmarks"):
        for path in (root / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name.split(".")[-1])
    defined = []
    for module in ("chaos2", "chaos3", "mc", "cli"):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                defined += [(module, f"{top.name}.{node.name}", node.name,
                             attrs) for node in top.body
                            if isinstance(node, ast.FunctionDef)]
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, top.name, top.name, named | attrs))
    unused = [f"{module}.{qualname}"
              for module, qualname, name, callers in defined
              if not name.startswith("_") and name not in callers]
    assert not unused


def test_loglog_slope_noisy_power_law():
    rng = np.random.default_rng(0)
    n = 2_000_000
    x = rng.standard_normal(n) ** 2  # P(x < eps) ~ sqrt(2 eps / pi)
    eps = np.geomspace(1e-4, 1e-2, 6)
    phat = np.array([(x < e).mean() for e in eps])
    se = np.sqrt(phat * (1 - phat) / n)
    slope, slope_se = mc.loglog_slope(eps, phat, se)
    assert abs(slope - 0.5) <= 2.0 * slope_se + 5e-3


def test_loglog_slope_too_few_points():
    with pytest.raises(ValueError, match="need at least 3 points"):
        mc.loglog_slope([0.1, 0.2], [0.1, 0.2], [0.01, 0.01])


@pytest.mark.parametrize("column, value", [(0, 0.0), (1, 0.0), (2, 0.0),
                                           (0, -0.1), (2, np.nan)])
def test_loglog_slope_rejects_points_off_its_domain(column, value):
    # the caller picks the points; the fit has no fallback for a zero se
    # or a zero phat, whose weights would swamp or void the others
    pts = np.array([[0.05, 0.1, 0.2], [0.05, 0.1, 0.2], [0.01, 0.01, 0.02]])
    pts[column, 1] = value
    with pytest.raises(ValueError, match="each with eps, phat and se > 0"):
        mc.loglog_slope(*pts)


def test_loglog_slope_empty():
    with pytest.raises(ValueError, match="need at least 3 points"):
        mc.loglog_slope([], [], [])


def test_rngspec_validation():
    with pytest.raises(ValueError):
        mc.RngSpec(-1)
    with pytest.raises(ValueError):
        mc.RngSpec(0, 1 << 64)
