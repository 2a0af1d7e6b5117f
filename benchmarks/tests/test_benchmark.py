"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import spans
import workloads
from wienerchaos import chaos3, cli

ROOT = run.ROOT


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_times_of_nested_spans():
    spans_ = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(spans_) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_count_overlapping_children_once():
    spans_ = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0),
              ("b", 4.0, 6.0, 0), ("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] inside the root
    assert spans.self_times(spans_)[0] == pytest.approx(4.0)


def test_tracer_records_parents_runs_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("chaos3.gamma_batch", lambda t, x: np.zeros(len(x)))
    outer = tracer.wrap("outer", lambda: inner(None, [1, 2, 3]))
    outer()
    outer()
    recorded = tracer.spans()
    assert [s[0] for s in recorded] == ["outer", "chaos3.gamma_batch"] * 2
    assert [s[3] for s in recorded] == [-1, 0, -1, 2]
    assert [s[4] for s in recorded] == [1, 1, 2, 2]
    assert tracer.counts["chaos3.gamma_batch.rows"] == 6
    table = spans.summarize(recorded)
    assert table["outer"]["calls"] == 2
    assert table["outer"]["s"] >= table["outer"]["self_s"] >= 0.0


def test_install_wraps_every_binding_and_uninstall_restores():
    import wienerchaos
    before = (chaos3.isserlis_expectation, chaos3.gamma_batch,
              cli.write_csv, wienerchaos.mc.RngSpec.generator,
              dict(cli.EXPERIMENTS))
    tracer = spans.Tracer()
    tracer.install(wienerchaos)
    try:
        assert chaos3.isserlis_expectation is not before[0]
        assert (chaos3.isserlis_expectation
                is wienerchaos.wick.isserlis_expectation)
        assert chaos3.gamma_batch is not before[1]
    finally:
        tracer.uninstall()
    after = (chaos3.isserlis_expectation, chaos3.gamma_batch,
             cli.write_csv, wienerchaos.mc.RngSpec.generator,
             dict(cli.EXPERIMENTS))
    assert after == before


def test_traced_run_writes_the_same_bytes(tmp_path, capsys):
    import wienerchaos
    config = tmp_path / "c.ini"
    config.write_text(workloads.config_text(workloads.Run(
        "gamma-spec", 2000, {"kind": "complete-3-tensor", "size": 6},
        {"xi": "1"}), 5))
    assert cli.main(["run", str(config),
                     "--out", str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    tracer.install(wienerchaos)
    try:
        assert cli.main(["run", str(config),
                         "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    name = "gamma_spec.csv"
    assert ((tmp_path / "plain" / name).read_bytes()
            == (tmp_path / "traced" / name).read_bytes())
    table = spans.summarize(tracer.spans())
    assert table["cli.main"]["calls"] == 1
    assert table["chaos3.spectra_batch"]["calls"] >= 1
    assert tracer.counts["mc.draw.normals"] == 2 * 2000 * 6
    assert tracer.counts["mc.samples"] == 2 * 2000


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _plan_bytes(workload, seed, root):
    plan = workloads.write_plan(workload, seed, root)
    files = {p.name: p.read_bytes() for p in (root / "inputs").iterdir()}
    return [r["config_text"] for r in plan], files


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_and_seed_sensitive(workload, tmp_path):
    a = _plan_bytes(workload, 1, tmp_path / "a")
    b = _plan_bytes(workload, 1, tmp_path / "b")
    c = _plan_bytes(workload, 2, tmp_path / "c")
    # configs embed their own input paths; compare them with paths removed
    strip = lambda texts, root: [t.replace(str(root), "") for t in texts]
    assert strip(a[0], tmp_path / "a") == strip(b[0], tmp_path / "b")
    assert a[1].keys() == b[1].keys()
    assert all(a[1][k] == b[1][k] for k in a[1] if not k.endswith(".ini"))
    assert strip(a[0], tmp_path / "a") != strip(c[0], tmp_path / "c")


def test_generated_inputs_are_unit_variance(tmp_path):
    workloads.write_plan("spectral", 3, tmp_path)
    t = chaos3.read_tensor_file(tmp_path / "inputs" / "tensor8.txt")
    assert t.variance == pytest.approx(1.0, rel=1e-12)
    plan = workloads.write_plan("closed-form", 3, tmp_path)
    m = cli.build_model(plan[0]["model"])
    assert np.diag(m.covariance()) == pytest.approx([1.0, 1.0], rel=1e-12)


def test_sparse_eps_grid_follows_its_rule():
    """Every grid point expects at least 4 * MIN_HITS hits."""
    n_blocks = 20
    t = cli.family_generators("block-3-tensor", 3 * n_blocks)
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((200_000, 3 * n_blocks))
    # closed form of Gamma for disjoint triples, checked against the library
    sq = (x * x).reshape(-1, n_blocks, 3)
    g = (sq[..., 0] * sq[..., 1] + sq[..., 0] * sq[..., 2]
         + sq[..., 1] * sq[..., 2]).sum(axis=1) / n_blocks
    assert g[:500] == pytest.approx(chaos3.gamma_batch(t, x[:500]), rel=1e-10)
    p_min = float(np.mean(g < min(workloads.SPARSE_EPS)))
    expected = p_min * workloads.SPARSE_SMALLBALL_SAMPLES
    assert expected >= 4 * workloads.MIN_HITS


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def test_closed_forms_reproduce_the_quoted_values():
    for n, quoted in ((6, 35.40), (12, 58.04), (24, 72.97)):
        assert gate.complete_tensor_kappa4(n) == pytest.approx(quoted,
                                                               rel=1e-3)
    # chi2-average m = 12: E Gamma^(-1) = (m/4) / (m/2 - 1) = 0.6
    assert gate.chi2_average_negative_moment(12, 1.0) == pytest.approx(0.6)


@pytest.fixture
def two_passes(tmp_path, capsys):
    """Two passes of a small closed-form plan, run through the CLI."""
    runs = [
        workloads.Run("trace-concentration", 1000,
                      {"kind": "complete-3-tensor"}, {"sizes": "6, 12"}),
        workloads.Run("negmoment2", 1000, {"kind": "chi2-average", "size": 12},
                      {"q": "0.25, 1"}),
        workloads.Run("density", 1000, {"kind": "chi2-average", "size": 64}),
    ]
    plan = []
    for i, r in enumerate(runs):
        path = tmp_path / f"{i}.ini"
        path.write_text(workloads.config_text(r, 11 + i))
        plan.append({"label": f"{i:02d}-{r.experiment}",
                     "experiment": r.experiment, "config": str(path),
                     "model": r.model, "grids": r.grids})
    passes = []
    for k in range(2):
        root = tmp_path / f"pass{k}"
        rcs = [cli.main(["run", p["config"], "--out", str(root / p["label"])])
               for p in plan]
        passes.append({"dir": str(root), "rcs": rcs})
    return plan, passes


def _failed(plan, passes):
    return [c for c in gate.run_gate(plan, passes) if not c.passed]


def test_gate_passes_clean_outputs(two_passes):
    plan, passes = two_passes
    checks = gate.run_gate(*two_passes)
    assert not [c for c in checks if not c.passed]
    names = {c.name for c in checks}
    assert "00-trace-concentration/kappa4_n12" in names
    assert "01-negmoment2/mellin_q1" in names
    assert "02-density/mass" in names
    assert "pass1/02-density/density.csv/bytes_equal" in names


def test_gate_catches_a_flipped_csv_byte(two_passes):
    plan, passes = two_passes
    path = Path(passes[1]["dir"]) / "02-density" / "density.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    failed = _failed(plan, passes)
    assert [c.name for c in failed] == [
        "pass1/02-density/density.csv/bytes_equal"]


def test_gate_catches_a_changed_value(two_passes):
    plan, passes = two_passes
    for p in passes:
        path = (Path(p["dir"]) / "00-trace-concentration"
                / "trace_concentration.csv")
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    failed = _failed(plan, passes)
    assert [c.name for c in failed] == ["00-trace-concentration/kappa4_n12"]


def test_gate_counts_a_failed_run(two_passes):
    plan, passes = two_passes
    passes[1]["rcs"][0] = 2
    assert [c.name for c in _failed(plan, passes)] == [
        "pass1/00-trace-concentration/exit0"]


def _shift_negmoment(passes, z):
    """Move the q=1 Monte Carlo mean z standard errors off and fail its
    assertion, in every pass."""
    for p in passes:
        p["rcs"][1] = 1
        out = Path(p["dir"]) / "01-negmoment2"
        lines = (out / "negmoment2.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = repr(float(cells[1]) + z * float(cells[3]))
        lines[2] = ",".join(cells)
        (out / "negmoment2.csv").write_text("\n".join(lines) + "\n")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["assertions"][1]["passed"] = False
        (out / "manifest.json").write_text(json.dumps(manifest))


def test_gate_reports_a_3_sigma_alarm_without_failing(two_passes):
    plan, passes = two_passes
    _shift_negmoment(passes, 3.5)
    checks = gate.run_gate(plan, passes)
    assert not [c for c in checks if not c.passed]
    assert {c.name for c in checks if c.alarm} == {
        f"pass{k}/01-negmoment2/{name}" for k in (0, 1)
        for name in ("exit0", "negmoment_q1")}


def test_gate_fails_a_deviation_beyond_the_z_gate(two_passes):
    plan, passes = two_passes
    _shift_negmoment(passes, gate.Z_GATE + 1.0)
    assert {c.name for c in _failed(plan, passes)} == {
        f"pass{k}/01-negmoment2/{name}" for k in (0, 1)
        for name in ("exit0", "negmoment_q1")}


# ---------------------------------------------------------------------------
# the benchmark's contract
# ---------------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    fake = [{"layers": spans.layer_metrics({}, {}, 1.0),
             "wall_s": 1.0, "cpu_s": 1.0, "ref_s": 1.0}]
    emitted = {n: m["unit"]
               for n, m in run.per_layer_metrics(fake, fake).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dense-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
