import configparser
import fnmatch
import json
import math
import operator
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from wienerchaos import chaos2, chaos3, cli, mc


def write_config(path, name, model_lines, grid_lines=(), seed=7,
                 samples=20_000, out="out"):
    text = ["[experiment]", f"name = {name}", f"seed = {seed}",
            f"samples = {samples}", f"out = {out}", "", "[model]"]
    text += list(model_lines)
    if grid_lines:
        text += ["", "[grids]"] + list(grid_lines)
    path.write_text("\n".join(text) + "\n")
    return path


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_chi2_average_kappa4():
    f = cli.family_generators("chi2-average", 12)
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    assert kappa4 == pytest.approx(1.0, rel=1e-12)


def test_complete_tensor_family():
    t = cli.family_generators("complete-3-tensor", 4)
    assert len(oracles.entries(t)) == 4
    assert all(abs(v) == pytest.approx(1.0 / math.sqrt(144.0))
               for v in oracles.entries(t).values())


def test_spiked_tensor_family_keeps_kappa4_large():
    k4 = [chaos3.kappa4_contraction(
        cli.family_generators("spiked-3-tensor", n)) for n in (6, 9, 12)]
    assert all(v > 1.0 for v in k4)


def test_family_size_validation():
    with pytest.raises(ValueError):
        cli.family_generators("chi2-average", 0)
    with pytest.raises(ValueError):
        cli.family_generators("complete-3-tensor", 2)
    with pytest.raises(ValueError):
        cli.family_generators("block-3-tensor", 7)
    with pytest.raises(ValueError):
        cli.family_generators("no-such-family", 3)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_and_overrides(tmp_path):
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 0.5, 0.5"],
                     ["lambda = 1"], seed=3, samples=5000)
    cfg = cli.parse_config(p)
    assert cfg.name == "laplace-check"
    assert cfg.seed == 3 and cfg.samples == 5000
    cfg2 = cli.parse_config(p, seed=99, samples=1234, out=tmp_path / "o2")
    assert cfg2.seed == 99 and cfg2.samples == 1234
    # the echo holds the values the run uses, not the file's
    assert cfg2.raw["experiment"] == {
        "name": "laplace-check", "seed": "99", "samples": "1234",
        "out": str(tmp_path / "o2")}
    assert cli.parse_config(p).raw["experiment"]["seed"] == "3"


@pytest.mark.parametrize("key", ["seed", "samples"])
def test_non_integer_experiment_value_exits_2_by_key(tmp_path, capsys, key):
    # int()'s "invalid literal for int() with base 10" once named no key
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 0.5, 0.5"],
                     out=tmp_path / "run", **{key: "abc"})
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: [experiment] {key} must be an integer, got 'abc'"
    assert not (tmp_path / "run").exists()


def test_rerun_from_manifest_echo_reproduces_overridden_run(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 0.5, 0.5"],
                     ["lambda = 0.25, 1"], seed=1, samples=1000)
    assert cli.main(["run", str(p), "--seed", "7", "--samples", "2000",
                     "--out", str(out)]) == 0
    man = read_manifest(out)
    assert man["config"]["experiment"]["seed"] == "7"
    assert man["config"]["experiment"]["samples"] == "2000"
    cp = configparser.ConfigParser()
    cp.read_dict(man["config"])
    cp["experiment"]["out"] = str(tmp_path / "rerun")
    with open(tmp_path / "echo.ini", "w", encoding="utf-8") as fh:
        cp.write(fh)
    assert cli.main(["run", str(tmp_path / "echo.ini")]) == 0
    assert (read_manifest(tmp_path / "rerun")["config"]
            == man["config"] | {"experiment": dict(cp["experiment"])})
    for name in man["files"]:
        assert ((tmp_path / "rerun" / name).read_bytes()
                == (out / name).read_bytes())


def test_build_model_kinds(tmp_path):
    assert isinstance(cli.build_model({"kind": "diagonal", "alphas": "0.5 0.5"}),
                      chaos2.DiagonalSecondChaos)
    m = cli.build_model({"kind": "matrices",
                         "mat.1": "0.5 0 ; 0 -0.5",
                         "mat.2": "0 0.5 ; 0.5 0"})
    assert isinstance(m, chaos2.MultivariateSecondChaos)
    assert np.max(np.abs(m.covariance() - np.eye(2))) <= chaos2.UNIT_VAR_TOL
    t = chaos3.SymThreeTensor(3, {(1, 2, 3): 1.0}, normalize=True)
    path = tmp_path / "t.txt"
    oracles.write_tensor_file(t, path)
    back = cli.build_model({"kind": "tensor-file", "path": str(path)})
    assert isinstance(back, chaos3.SymThreeTensor)
    with pytest.raises(ValueError):
        cli.build_model({"kind": "diagonal"})
    with pytest.raises(ValueError):
        cli.build_model({})


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def read_manifest(outdir):
    with open(outdir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_run_thm1_certificate_pass(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "thm1-certificate",
                     ["kind = chi2-average", "size = 192"], ["p = 3"],
                     out=out)
    assert cli.main(["run", str(p)]) == 0
    man = read_manifest(out)
    assert man["n_failed"] == 0
    assert [a["name"] for a in man["assertions"]] == ["certified_p3",
                                                      "q_sup_p3"]
    assert man["assertions"][0]["tolerance"] == 0.0
    rows = (out / "thm1_certificate.csv").read_text().strip().split("\n")
    assert rows[0] == ("p,kappa4,threshold,certified,q_sup,q_sup_exact,"
                       "eta_sharp")
    # q_sup = p/2, against the exact m/2; eta_sharp = 12/(p-1)
    assert rows[1].split(",")[3:] == ["1", "1.5", "96", "6"]


def test_thm1_certificate_meets_the_exact_truth(run_experiment):
    # a certified q_sup = p/2 is at most the exact m/2 (m nonzero
    # coefficients) on random unit-variance models: near-equal ones, which
    # the certificate reaches up to p = 4, and any with zeros among them
    rng = np.random.default_rng(36)
    models = []
    for i in range(200):
        m = int(np.exp(rng.uniform(0.0, math.log(2000.0))))
        alphas = (1.0 + 0.05 * rng.standard_normal(m) if i % 2 else
                  rng.standard_normal(m) * (rng.random(m) < 0.8))
        alphas[0] = 1.0     # not all zero
        models.append((np.count_nonzero(alphas), {
            "kind": "diagonal", "normalize": "true",
            "alphas": ", ".join(map(repr, alphas.tolist()))}))
    # chi2-average p-1 has kappa4 = eta_sharp and q_sup exactly (p-1)/2
    models += [(p - 1, {"kind": "chi2-average", "size": str(p - 1)})
               for p in (2, 3, 4)]
    certified = dict.fromkeys((1, 2, 3, 4), 0)
    for m, model in models:
        res = run_experiment("thm1-certificate", model, {"p": "1, 2, 3, 4"},
                             2000, 1)
        assert all(a["passed"] for a in res.assertions
                   if a["name"].startswith("q_sup_p"))
        for row in res.csv["thm1_certificate.csv"]:
            p = int(row["p"])
            assert row["q_sup_exact"] == m / 2
            assert row["eta_sharp"] == (12.0 / (p - 1) if p > 1
                                        else math.inf)
            certified[p] += row["certified"]
            if model["kind"] == "chi2-average" and p == m + 1:
                assert row["kappa4"] == pytest.approx(row["eta_sharp"],
                                                      rel=1e-14)
    assert min(certified.values()) > 0


@pytest.mark.parametrize("p", [2, 3, 4])
def test_q_sup_fails_a_threshold_above_the_sharp_one(run_experiment,
                                                     monkeypatch, p):
    # a threshold 1 % above 12/(p-1) certifies chi2-average p-1, whose
    # exact q_sup is (p-1)/2 < p/2: the q_sup record fails
    monkeypatch.setattr(cli.chaos2, "thm1_threshold",
                        lambda p: 1.01 * 12.0 / (p - 1))
    res = run_experiment("thm1-certificate",
                         {"kind": "chi2-average", "size": str(p - 1)},
                         {"p": str(p)}, 2000, 1)
    assert [a["passed"] for a in res.assertions] == [True, False]


def test_run_records_provenance(tmp_path, monkeypatch):
    # cpus comes from the count mc.reduce uses, and blas and gemm_madds
    # say whether the BLAS runs the kernels' GEMMs on the calling thread,
    # so a diff of two manifests shows why their times differ; gemm_madds
    # and gemm_points fix the GEMM shapes, on which the bits may depend
    monkeypatch.setattr(mc.os, "sched_getaffinity",
                        lambda pid: set(range(3)))
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "thm1-certificate",
                     ["kind = chi2-average", "size = 192"], ["p = 3"],
                     out=out)
    assert cli.main(["run", str(p)]) == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert read_manifest(out)["provenance"] == {
        "cpus": 3, "chunk_samples": 65536, "step_samples": 2048,
        "blas": f"{blas['name']} {blas['version']}", "gemm_madds": 262144,
        "gemm_points": 64}
    # where numpy does not name its BLAS, the field is null
    monkeypatch.setattr(cli.np, "show_config",
                        lambda mode: {"Build Dependencies": {}})
    assert cli.main(["run", str(p)]) == 0
    assert read_manifest(out)["provenance"]["blas"] is None


def test_run_assertion_failure_still_writes(tmp_path):
    # chi2-average n=4 has kappa4 = 3 > 1/8: certification fails, artifacts
    # are still produced and the exit status is nonzero
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "thm1-certificate",
                     ["kind = chi2-average", "size = 4"], ["p = 3"], out=out)
    assert cli.main(["run", str(p)]) == 1
    man = read_manifest(out)
    assert man["n_failed"] == 1
    rows = (out / "thm1_certificate.csv").read_text().strip().split("\n")
    # q_sup 0: not certified
    assert rows[1].split(",")[3:] == ["0", "0", "2", "6"]


def test_run_unknown_experiment(tmp_path, capsys):
    p = write_config(tmp_path / "c.ini", "definitely-not-real",
                     ["kind = chi2-average", "size = 4"])
    assert cli.main(["run", str(p)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_missing_config():
    assert cli.main(["run", "/nonexistent/cfg.ini"]) == 2


def test_run_laplace_check(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 0.70710678118654752"],
                     ["lambda = 0.25, 1"], samples=50_000, out=out)
    assert cli.main(["run", str(p)]) == 0
    body = (out / "laplace_check.csv").read_text().strip().split("\n")
    assert body[0] == "lambda,closed_form,mc_mean,mc_se,pass"
    assert len(body) == 3


def test_run_gamma_spec(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "gamma-spec",
                     ["kind = complete-3-tensor", "size = 6"],
                     ["xi = 0.5, 1"], samples=5000, out=out)
    rc = cli.main(["run", str(p)])
    man = read_manifest(out)
    assert (out / "gamma_spec.csv").exists()
    assert rc in (0, 1)  # statistical gates, artifacts always written
    assert len(man["assertions"]) == 2


def test_gamma_spec_runs_at_the_reduction_floor(tmp_path, capsys):
    # gamma-spec once asked for 1000 samples on top of mc.reduce's 100
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "gamma-spec",
                     ["kind = complete-3-tensor", "size = 4"], ["xi = 1"],
                     samples=100, out=out)
    assert cli.main(["run", str(p)]) in (0, 1)
    assert (out / "gamma_spec.csv").exists()
    low = tmp_path / "low"
    assert cli.main(["run", str(p), "--samples", "99", "--out",
                     str(low)]) == 2
    assert "need at least 100 samples" in capsys.readouterr().err
    assert not low.exists()


def test_run_multivariate_bounds(tmp_path, monkeypatch):
    calls = []
    for name in ("sphere_kappa4_max", "sphere_grid"):
        fn = getattr(chaos2, name)
        monkeypatch.setattr(chaos2, name, lambda arg, name=name, fn=fn:
                            calls.append(name) or fn(arg))
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "multivariate-bounds",
                     ["kind = matrices",
                      "mat.1 = 0.5 0 ; 0 -0.5",
                      "mat.2 = 0 0.5 ; 0.5 0"], out=out)
    assert cli.main(["run", str(p)]) == 0
    man = read_manifest(out)
    assert man["assertions"][0]["name"] == "control1multi"
    assert (out / "sphere_kappa4.csv").exists()
    # the bound and the kappa4 CSV share one search over one grid
    assert calls == ["sphere_kappa4_max", "sphere_grid"]


@pytest.mark.parametrize("scale", ["1e80", repr(2.0 ** -300)])
def test_multivariate_bounds_names_an_overflow_or_underflow(tmp_path, capsys,
                                                           scale):
    # once a verdict on inf (1e80) or on a variance that underflows to 0
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "multivariate-bounds",
                     ["kind = matrices",
                      f"mat.1 = {scale} 0 ; 0 -{scale}",
                      f"mat.2 = 0 {scale} ; {scale} 0"], out=out)
    assert cli.main(["run", str(p)]) == 2
    assert ("error: Var Gamma[F_i, F_i] overflows or underflows"
            in capsys.readouterr().err)
    assert not out.exists()


def test_run_density(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "density",
                     ["kind = chi2-average", "size = 16"],
                     ["x = -6, 6, 0.02"], out=out)
    assert cli.main(["run", str(p)]) == 0
    man = read_manifest(out)
    names = {a["name"] for a in man["assertions"]}
    assert names == {"mass_unit", "nonnegative", "tv_bound"}


def test_run_density_beyond_node_cap_exits_2(tmp_path, capsys):
    # |phi| ~ xi^(-3/2) on chi2-average 3: the default x grid needs about
    # 1.6e7 xi nodes, which once ran for minutes
    p = write_config(tmp_path / "c.ini", "density",
                     ["kind = chi2-average", "size = 3"],
                     out=tmp_path / "run")
    start = time.perf_counter()
    assert cli.main(["run", str(p)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert f"past {chaos2.MAX_GRID_NODES} nodes" in err


def test_cli_import_loads_no_heavy_scipy_module():
    # every CLI run and benchmark pass pays the import time of these; the
    # sparse Gamma kernel, run on the block family, loads no scipy either.
    # mc.reduce's threads need no concurrent.futures, which loads logging.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, numpy as np, wienerchaos.cli as cli; "
            "from wienerchaos import chaos3; "
            "t = cli.family_generators('block-3-tensor', 60); "
            "g = chaos3.gamma_batch(t, np.ones((10, 60))); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] "
            "in ('scipy', 'concurrent', 'logging')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_bits_do_not_depend_on_the_blas_thread_count(tmp_path,
                                                     run_under_blas_threads):
    # GEMM-heavy runs under a one- and a two-thread BLAS write the same
    # CSV bytes: every GEMM stays within GEMM_MADDS, which the BLAS runs
    # on the calling thread.  trace-concentration's sharp stacks at
    # n = 24 and 30 and its kappa4 and trace-form GEMMs would exceed it
    # unsplit; gamma-spec solves the spectra of complete-6, and
    # negmoment3 on complete-20 and complete-40 runs the pair GEMMs, which
    # at n = 40 split their pairs into runs to stay within GEMM_MADDS
    configs = [
        write_config(tmp_path / "trace.ini", "trace-concentration",
                     ["kind = complete-3-tensor"], ["sizes = 6, 24, 30"],
                     samples=4096),
        write_config(tmp_path / "spec.ini", "gamma-spec",
                     ["kind = complete-3-tensor", "size = 6"],
                     samples=4096),
        write_config(tmp_path / "neg.ini", "negmoment3",
                     ["kind = complete-3-tensor", "size = 20"],
                     samples=4096),
        write_config(tmp_path / "neg40.ini", "negmoment3",
                     ["kind = complete-3-tensor", "size = 40"],
                     samples=4096)]
    code = ("import sys; from wienerchaos import cli; "
            "sys.exit(max(cli.main(['run', c, '--out', f'{sys.argv[1]}/{i}'])"
            " for i, c in enumerate(sys.argv[2:])))")
    csvs = []
    for threads in (1, 2):
        root = tmp_path / f"blas{threads}"
        run_under_blas_threads(code, threads, root, *configs)
        csvs.append({f.relative_to(root): f.read_bytes()
                     for f in sorted(root.rglob("*.csv"))})
    assert len(csvs[0]) == 4
    assert csvs[0] == csvs[1]


def test_run_trace_concentration(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "trace-concentration",
                     ["kind = block-3-tensor"], ["sizes = 6, 12"],
                     samples=30_000, out=out)
    assert cli.main(["run", str(p)]) == 0
    rows = (out / "trace_concentration.csv").read_text().strip().split("\n")
    assert rows[0].startswith("n,kappa4,var_trace")
    k4 = [float(r.split(",")[1]) for r in rows[1:]]
    vt = [float(r.split(",")[2]) for r in rows[1:]]
    assert k4[1] < k4[0] and vt[1] < vt[0]
    assert [a["name"] for a in read_manifest(out)["assertions"]] == [
        "sum_beta_n6", "trace_mean_n6", "sum_beta_n12", "trace_mean_n12"]


def test_sum_beta_is_checked_apart_from_the_monte_carlo_mean(tmp_path,
                                                             monkeypatch):
    # trace_mean_n* once also held |sum beta - 3/2| <= 1e-12, so this gap
    # failed it whatever its z
    trace_form = chaos3.trace_form

    def off(t):
        tf = trace_form(t)
        betas = tf.betas.copy()
        betas[0] += 1.5 + 1.2e-12 - tf.expected_trace
        return chaos3.TraceFormSpectrum(tf.b_matrix, betas, tf.var_trace)

    monkeypatch.setattr(chaos3, "trace_form", off)
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "trace-concentration",
                     ["kind = block-3-tensor"], ["sizes = 6"], out=out)
    assert cli.main(["run", str(p)]) == 1
    checks = {a["name"]: a for a in read_manifest(out)["assertions"]}
    assert checks.keys() == {"sum_beta_n6", "trace_mean_n6"}
    assert not checks["sum_beta_n6"]["passed"]
    assert checks["sum_beta_n6"]["statistic"] == pytest.approx(
        1.5 + 1.2e-12, abs=1e-15)
    assert checks["sum_beta_n6"]["tolerance"] == 1e-12
    assert checks["trace_mean_n6"]["passed"]
    assert abs(checks["trace_mean_n6"]["z"]) <= 3.0


def test_trace_concentration_needs_unit_variance(tmp_path, monkeypatch,
                                                 capsys):
    # trace_form and the reference E Tr(A_hat^2) = 3/2 assume variance one
    monkeypatch.setattr(cli, "family_generators", lambda kind, size:
                        chaos3.SymThreeTensor(6, {(1, 2, 3): 1.5}))
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "trace-concentration",
                     ["kind = block-3-tensor"], ["sizes = 6"], out=out)
    assert cli.main(["run", str(p)]) == 2
    assert ("experiment 'trace-concentration' needs a unit-variance model, "
            "got variance 81") in capsys.readouterr().err
    assert not out.exists()


def test_trace_concentration_rejected_size_draws_nothing(tmp_path,
                                                        monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("trace-concentration drew samples")

    monkeypatch.setattr(cli.mc, "estimate", refuse)
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "trace-concentration",
                     ["kind = block-3-tensor"], ["sizes = 6, 13"],
                     samples=200_000, out=out)
    assert cli.main(["run", str(p)]) == 2
    assert "divisible by 3" in capsys.readouterr().err
    assert not out.exists()


def test_run_smallball3_and_negmoment3(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "smallball3",
                     ["kind = complete-3-tensor", "size = 6"],
                     ["eps = 0.05, 0.1, 0.2, 0.4"], samples=50_000, out=out)
    rc = cli.main(["run", str(p)])
    assert rc in (0, 1)
    assert (out / "smallball3_fit.csv").exists()
    out2 = tmp_path / "run2"
    p2 = write_config(tmp_path / "c2.ini", "negmoment3",
                      ["kind = complete-3-tensor", "size = 6"],
                      ["theta = 0.25"], samples=20_000, out=out2)
    assert cli.main(["run", str(p2)]) == 0


def test_negmoment3_infinite_moment_exits_2_by_name(tmp_path, capsys):
    # one triple: E Gamma^(-theta) = inf for theta >= 3/4, yet the run once
    # recorded finite_theta0.8 and finite_theta0.95 as PASS and exited 0
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "negmoment3",
                     ["kind = block-3-tensor", "size = 3"],
                     ["theta = 0.8, 0.95"], seed=3, samples=200_000, out=out)
    assert cli.main(["run", str(p)]) == 2
    assert ("error: E Gamma^(-theta) diverges for theta >= n/4 (theta=0.8, "
            "n=3 coordinates that Gamma depends on)"
            ) in capsys.readouterr().err
    assert not out.exists()


def test_run_smallball3_no_fit_points(tmp_path, capsys):
    # the default eps grid is far below Gamma's bulk on block n = 60
    p = write_config(tmp_path / "c.ini", "smallball3",
                     ["kind = block-3-tensor", "size = 60"],
                     samples=5_000, out=tmp_path / "run")
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "only 0 of 8 eps grid points reach min_hits=50" in err
    assert "largest hit count 0" in err


def test_run_sp_lower_bound(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "sp-lower-bound",
                     ["kind = block-3-tensor", "size = 12"],
                     ["p = 1, 2"], samples=10_000, out=out)
    assert cli.main(["run", str(p)]) == 0
    rows = (out / "sp_lower_bound.csv").read_text().strip().split("\n")
    assert rows[0] == "p,mean_sp,se,lower_bound,bound_holds"
    checks = {a["name"]: a for a in read_manifest(out)["assertions"]}
    assert set(checks) == {"newton_sums_match_spectrum", "sp_lower_bound_p1",
                           "sp_lower_bound_p2"}
    newton = checks["newton_sums_match_spectrum"]
    assert newton["passed"] and newton["tolerance"] == 1e-12
    assert 0.0 <= newton["statistic"] <= newton["tolerance"]
    assert newton["stderr"] is None and newton["z"] is None
    for row in rows[1:]:
        p, mean, se, bound, holds = row.split(",")
        a = checks[f"sp_lower_bound_p{p}"]
        assert a["passed"] and holds == "1"
        assert (a["statistic"], a["stderr"], a["reference"]) == (
            float(mean), float(se), float(bound))
        assert a["z"] == (float(mean) - float(bound)) / float(se) > 0.0


def test_run_spectral_radius_and_negmoment2(tmp_path):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "spectral-radius",
                     ["kind = complete-3-tensor", "size = 6"],
                     ["p = 1"], samples=10_000, out=out)
    assert cli.main(["run", str(p)]) == 0
    out2 = tmp_path / "run2"
    p2 = write_config(tmp_path / "c2.ini", "negmoment2",
                      ["kind = diagonal", "alphas = 0.5, 0.5"],
                      ["q = 0.25"], samples=50_000, out=out2)
    assert cli.main(["run", str(p2)]) == 0


def test_spectral_radius_overflow_exits_2_by_name(tmp_path, capsys):
    # |lambda_1|^800 overflows on some samples: numpy's RuntimeWarning once
    # escaped cli.main under warnings-as-errors instead of exiting 2
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "spectral-radius",
                     ["kind = complete-3-tensor", "size = 6"],
                     ["p = 1, 400"], seed=1, samples=2000, out=out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(p)]) == 2
    assert ("error: |lambda_1|^(2p) overflows at p=400"
            in capsys.readouterr().err)
    assert not out.exists()


def test_run_negmoment2_quadrature_failure_exits_2(tmp_path, capsys):
    # q just below m/2 = 1/2: the trapezoid sums never settle; this once
    # ended in a traceback, after drawing every sample
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "negmoment2",
                     ["kind = diagonal", "alphas = 0.70710678118654752"],
                     ["q = 0.4999"], out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: no agreement in")
    assert not out.exists()


def test_run_negmoment2_beyond_the_largest_double_exits_2(tmp_path, capsys):
    # E Gamma^(-0.999) is about exp(779): once a bare "math range error"
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "negmoment2",
                     ["kind = diagonal", "alphas = " + ", ".join(
                         ["1e-170"] * 5)],
                     ["q = 0.999"], out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: E Gamma^(-q) = exp(779.6")
    assert "exceeds the largest double (q=0.999)" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("scale, shown", [("1e165", "inf"), ("1e-170", "0")])
def test_unit_variance_error_names_an_extreme_variance(tmp_path, capsys,
                                                        scale, shown):
    # at 1e165 the variance once overflowed with a RuntimeWarning first
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "density",
                     ["kind = diagonal", "alphas = " + ", ".join([scale] * 3)],
                     out=out)
    assert cli.main(["run", str(p)]) == 2
    assert ("experiment 'density' needs a unit-variance model, got "
            f"variance {shown}: set normalize = true"
            ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,key,csv", [
    ("negmoment3", "theta", "negmoment3.csv"),
    ("gamma-spec", "xi", "gamma_spec.csv"),
])
def test_grid_points_do_not_alias_across_seeds(tmp_path, name, key, csv):
    # grid point 1 at seed 41 and grid point 0 at seed 42 evaluate the
    # same grid value; they must not read the same random stream
    rows = []
    for seed, grid in ((41, "0.25, 0.5"), (42, "0.5")):
        out = tmp_path / f"s{seed}"
        p = write_config(tmp_path / f"s{seed}.ini", name,
                         ["kind = complete-3-tensor", "size = 4"],
                         [f"{key} = {grid}"], seed=seed, samples=2000,
                         out=out)
        assert cli.main(["run", str(p)]) in (0, 1)
        rows.append((out / csv).read_text().strip().split("\n"))
    assert rows[0][2].split(",")[0] == rows[1][1].split(",")[0] == "0.5"
    assert rows[0][2] != rows[1][1]


@pytest.mark.parametrize("name,key,csv", [
    ("laplace-check", "lambda", "laplace_check.csv"),
    ("negmoment2", "q", "negmoment2.csv"),
])
def test_second_chaos_grid_reads_one_stream(tmp_path, name, key, csv):
    # every grid point is a column of the same draws: the second point of
    # a two-point grid equals the one-point grid at the same seed, bitwise
    rows = []
    for tag, grid in (("pair", "0.25, 1"), ("alone", "1")):
        out = tmp_path / tag
        p = write_config(tmp_path / f"{tag}.ini", name,
                         ["kind = chi2-average", "size = 12"],
                         [f"{key} = {grid}"], seed=5, samples=20_000,
                         out=out)
        assert cli.main(["run", str(p)]) in (0, 1)
        rows.append((out / csv).read_text().strip().split("\n"))
    assert rows[0][2] == rows[1][1]


# every kind of value write_csv meets, as a column of four
CSV_COLUMNS = {
    "bool": [True, False, False, True],
    "np_bool": list(np.array([False, True, True, False])),
    "int": [0, -3, 7, 10 ** 20],
    "np_int64": list(np.array([-1, 0, 2 ** 62, 5], dtype=np.int64)),
    "np_uint8": list(np.array([0, 1, 254, 255], dtype=np.uint8)),
    "float": [0.1, -0.0, 1e300, 5e-324],
    "float_thirds": [1.0 / 3.0, -2.0 / 3.0, 1e-3 / 3.0, 3e16 / 7.0],
    "float_special": [math.nan, math.inf, -math.inf, 2.0],
    "np_float64": list(np.random.default_rng(3).standard_normal(4)),
    "np_float32": list(np.float32([0.1, -1.5, 3e38, 1e-45])),
    "np_float16": list(np.float16([0.1, 65504.0, -6e-8, 1.0])),
    "str": ["a", "b c", "", "2.5"],
    "mixed_numbers": [1, 2.5, np.float32(0.5), np.int64(4)],
    "mixed_bools": [True, np.True_, 0, 1.0],
    "mixed_all": [None, "x", np.bool_(False), np.float64(0.25)],
}


def _per_value_csv(header, rows) -> bytes:
    """The CSV that _fmt writes one value at a time."""
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row)
                                  for row in rows]
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("names", [[name] for name in CSV_COLUMNS]
                         + [list(CSV_COLUMNS)], ids=list(CSV_COLUMNS)
                         + ["all"])
def test_write_csv_matches_the_per_value_rule(tmp_path, names):
    rows = list(zip(*(CSV_COLUMNS[name] for name in names)))
    path = tmp_path / "t.csv"
    cli.write_csv(path, names, rows)
    assert path.read_bytes() == _per_value_csv(names, rows)
    for row, line in zip(rows, path.read_text().splitlines()[1:]):
        for value, text in zip(row, line.split(",")):
            if isinstance(value, (float, np.floating)) and \
                    not math.isnan(value):
                assert float(text) == value


def test_write_csv_zero_rows(tmp_path):
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["eps", "phat"], [])
    assert path.read_bytes() == b"eps,phat\n"
    cli.write_csv(path, ["eps", "phat"], iter(()))
    assert path.read_bytes() == b"eps,phat\n"


def test_write_csv_rejects_a_short_row(tmp_path):
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])


def test_rerun_reproduces_csv_bitwise(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        p = write_config(tmp_path / f"{tag}.ini", "laplace-check",
                         ["kind = diagonal", "alphas = 0.5, 0.5"],
                         ["lambda = 0.25, 1"], samples=30_000, out=out)
        assert cli.main(["run", str(p)]) == 0
        outs.append((out / "laplace_check.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_smallball2(tmp_path):
    # Gamma = chi2_192 / 96: the exact CDF is gammainc(96, 48 eps)
    from scipy.special import gammainc
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "smallball2",
                     ["kind = chi2-average", "size = 192"],
                     ["p = 3", "eps = 0.05, 0.1, 0.2"],
                     samples=50_000, out=out)
    assert cli.main(["run", str(p)]) == 0
    rows = (out / "smallball2.csv").read_text().strip().split("\n")
    assert rows[0] == "eps,cdf,bound,pass"
    eps, cdf = np.array([[float(v) for v in r.split(",")[:2]]
                         for r in rows[1:]]).T
    assert np.allclose(cdf, gammainc(96, 48 * eps), rtol=1e-12, atol=0)
    assert np.allclose(cdf, [2.968e-115, 2.189e-87, 1.505e-60], rtol=1e-3)


def test_smallball2_draws_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("smallball2 drew samples")

    monkeypatch.setattr(chaos2.DiagonalSecondChaos, "sample_gamma", refuse)
    monkeypatch.setattr(cli.mc, "reduce", refuse)
    p = write_config(tmp_path / "c.ini", "smallball2",
                     ["kind = chi2-average", "size = 192"],
                     samples=50_000, out=tmp_path / "run")
    assert cli.main(["run", str(p)]) == 0


def test_smallball2_past_series_cap_exits_2(tmp_path, capsys):
    # w_max / w_min = 1e8: y = eps / (2 beta) is 6e5 at eps = 0.05
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "smallball2",
                     ["kind = diagonal", "alphas = 1, 0.0001",
                      "normalize = true"],
                     out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"more than {chaos2.MAX_SERIES_TERMS} terms" in err
    assert not out.exists()


@pytest.mark.parametrize("name,model,key,value", [
    ("smallball2", ["kind = chi2-average", "size = 192"], "p", "2.5"),
    ("thm1-certificate", ["kind = chi2-average", "size = 192"], "p",
     "1, two"),
    ("spectral-radius", ["kind = complete-3-tensor", "size = 6"], "p", "1.5"),
    ("sp-lower-bound", ["kind = block-3-tensor", "size = 12"], "p",
     "1, 2.0"),
    ("trace-concentration", ["kind = complete-3-tensor"], "sizes", "6, 12x"),
])
def test_integer_grids_reject_other_values_by_name(tmp_path, capsys, name,
                                                   model, key, value):
    # smallball2 used to run p = 2.5 as p = 2 and write its CSV
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, [f"{key} = {value}"],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"grid {key!r} must hold integers, got {value!r}" in err
    assert not list(out.glob("*.csv"))


def test_rejected_config_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "smallball2",
                     ["kind = chi2-average", "size = 192"], ["p = 2.5"],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    assert "must hold integers" in capsys.readouterr().err
    assert not out.exists()


def test_smallball2_takes_one_p(tmp_path, capsys):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "smallball2",
                     ["kind = chi2-average", "size = 192"], ["p = 2, 3"],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "grid 'p' must hold exactly 1 value(s), got '2, 3'" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# assertion records
# ---------------------------------------------------------------------------

MATRICES = ["kind = matrices", "mat.1 = 0.5 0 ; 0 -0.5",
            "mat.2 = 0 0.5 ; 0.5 0"]

# a small config of every experiment: model lines, grid lines, samples
RECORD_CONFIGS = {
    "thm1-certificate": (["kind = chi2-average", "size = 192"], ["p = 3"],
                         2000),
    "laplace-check": (["kind = diagonal", "alphas = 0.5, 0.5"],
                      ["lambda = 1"], 2000),
    "smallball2": (["kind = chi2-average", "size = 192"], [], 2000),
    "negmoment2": (["kind = chi2-average", "size = 12"], ["q = 0.25"], 2000),
    "density": (["kind = chi2-average", "size = 16"], ["x = -6, 6, 0.02"],
                2000),
    "multivariate-bounds": (MATRICES, [], 2000),
    # xi = 0 makes both sides exact: stderr 0, so z is 0/0
    "gamma-spec": (["kind = complete-3-tensor", "size = 4"],
                   ["xi = 0, 0.5"], 2000),
    "spectral-radius": (["kind = complete-3-tensor", "size = 6"], ["p = 1"],
                        2000),
    "trace-concentration": (["kind = block-3-tensor"], ["sizes = 6"], 2000),
    "smallball3": (["kind = complete-3-tensor", "size = 6"],
                   ["eps = 0.05, 0.1, 0.2, 0.4"], 20_000),
    "negmoment3": (["kind = complete-3-tensor", "size = 4"],
                   ["theta = 0.25"], 2000),
    "sp-lower-bound": (["kind = block-3-tensor", "size = 12"], ["p = 1, 2"],
                       2000),
}

RECORD_KEYS = {"name", "passed", "relation", "statistic", "reference",
               "stderr", "z", "tolerance", "detail"}

# how each relation compares gap = statistic - reference with its bound
RELATIONS = {"==": lambda gap, bound: abs(gap) <= bound, "<=": operator.le,
             ">=": operator.ge, "<": operator.lt}


def strict_manifest(outdir):
    def refuse(name):
        raise ValueError(f"manifest.json holds {name}")

    text = (outdir / "manifest.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_every_assertion_is_a_record_of_numbers(tmp_path, name):
    model, grids, samples = RECORD_CONFIGS[name]
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, grids, samples=samples,
                     out=out)
    assert cli.main(["run", str(p)]) in (0, 1)
    assertions = strict_manifest(out)["assertions"]
    assert assertions
    for a in assertions:
        assert set(a) == RECORD_KEYS
        assert isinstance(a["passed"], bool)
        for key in ("statistic", "reference", "stderr", "z", "tolerance"):
            assert a[key] is None or isinstance(a[key], float)
        assert a["detail"].startswith("statistic=")
        # the text says which comparison decided the verdict
        assert a["detail"].endswith(f" relation={a['relation'] or 'finite'}")
        if a["z"] is not None:
            assert a["z"] == (a["statistic"] - a["reference"]) / a["stderr"]
        if a["stderr"] is None:
            assert a["z"] is None
        # the verdict follows from the stored fields alone
        if a["name"].startswith("finite_"):
            assert a["relation"] is a["reference"] is a["tolerance"] is None
            assert a["passed"] is (a["statistic"] is not None)
            continue
        gap = a["statistic"] - a["reference"]
        bound = a["tolerance"] * (1.0 if a["stderr"] is None else a["stderr"])
        assert a["passed"] is RELATIONS[a["relation"]](gap, bound)


def test_cw_exceedance_is_one_sided(tmp_path, monkeypatch):
    # slope = 0.25 + 1.5 se: inside a two-sided 2-sigma band, yet short of
    # the one-sided margin of 2 se that the factor-three claim needs
    monkeypatch.setattr(cli.mc, "loglog_slope",
                        lambda eps, phat, se: (0.4375, 0.125))
    model, grids, samples = RECORD_CONFIGS["smallball3"]
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "smallball3", model, grids,
                     samples=samples, out=out)
    assert cli.main(["run", str(p)]) == 1
    (a,) = read_manifest(out)["assertions"]
    assert a["name"] == "cw_exceedance" and not a["passed"]
    assert (a["z"], a["relation"], a["tolerance"]) == (1.5, ">=", 2.0)


def gate_abs_z(experiment, outdir):
    """|z| of each Monte Carlo z-test from the run's CSV columns, by the
    rule of the benchmark gate (benchmarks/gate.py, z_scores)."""
    def rows(name):
        lines = (outdir / name).read_text().strip().split("\n")
        header = lines[0].split(",")
        return [dict(zip(header, map(float, r.split(","))))
                for r in lines[1:]]

    if experiment == "gamma-spec":
        return {f"gamma_spec_xi{r['xi']:g}": max(
            abs(r["lhs"] - r["rhs_re"]) / math.hypot(r["lhs_se"],
                                                     r["rhs_re_se"]),
            abs(r["rhs_im"]) / r["rhs_im_se"])
            for r in rows("gamma_spec.csv")}
    if experiment == "negmoment2":
        return {f"negmoment_q{r['q']:g}": abs(r["mc_mean"] - r["mellin"])
                / r["mc_se"] for r in rows("negmoment2.csv")}
    return {f"trace_mean_n{int(r['n'])}": abs(r["mc_trace_mean"] - 1.5)
            / r["mc_trace_se"] for r in rows("trace_concentration.csv")}


@pytest.mark.parametrize("name,model,grid", [
    ("gamma-spec", ["kind = complete-3-tensor", "size = 4"],
     "xi = 0.5, 1, 2"),
    ("negmoment2", ["kind = chi2-average", "size = 12"], "q = 0.25, 1, 2"),
    ("trace-concentration", ["kind = complete-3-tensor"], "sizes = 6, 12"),
])
def test_manifest_z_matches_the_gate_rule(tmp_path, name, model, grid):
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, [grid], samples=5000,
                     out=out)
    assert cli.main(["run", str(p)]) in (0, 1)
    expected = gate_abs_z(name, out)
    zs = {a["name"]: a["z"] for a in read_manifest(out)["assertions"]
          if a["name"] in expected}
    assert zs.keys() == expected.keys()
    for key, z in zs.items():
        assert abs(z) == pytest.approx(expected[key], rel=1e-12)


def write_variance_81_tensor(path):
    # 36 * 1.5^2 = 81
    path.write_text("6\n1 2 3 1.5\n")
    return path


@pytest.mark.parametrize("name,grids,variance", [
    ("thm1-certificate", [], "0.002"),
    ("density", [], "0.002"),
    ("smallball2", [], "0.002"),
    ("sp-lower-bound", ["p = 1, 2"], "81"),
])
def test_unit_variance_experiments_reject_other_variances(
        tmp_path, capsys, name, grids, variance):
    if name == "sp-lower-bound":
        path = write_variance_81_tensor(tmp_path / "t.txt")
        model = ["kind = tensor-file", f"path = {path}"]
    else:
        model = ["kind = diagonal", "alphas = " + ", ".join(["0.01"] * 10)]
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, grids, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"needs a unit-variance model, got variance {variance}:" in err
    assert "normalize = true" in err
    assert not out.exists()


def test_misspelled_grid_key_exits_2(tmp_path, capsys):
    # the model lacks its alphas: the grid key is rejected before the build
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "laplace-check", ["kind = diagonal"],
                     ["lamda = 9"], out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "experiment 'laplace-check' reads no grid 'lamda'; " \
           "it reads ['lambda']" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# inputs checked before any work
# ---------------------------------------------------------------------------

GRID_KEYS = [(name, key)
             for name, (_, _, _, grids) in sorted(cli.INPUTS.items())
             for key in grids]


def test_every_experiment_has_an_input_entry():
    assert cli.INPUTS.keys() == RECORD_CONFIGS.keys()


@pytest.mark.parametrize("name,key", GRID_KEYS,
                         ids=[f"{n}-{k}" for n, k in GRID_KEYS])
def test_empty_grid_exits_2_by_name(tmp_path, capsys, name, key):
    # an empty p or sizes once recorded no assertion and exited 0; an
    # empty lambda, q or eps died inside numpy
    model, _, _ = RECORD_CONFIGS[name]
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, [f"{key} ="],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: grid {key!r} must hold ")
    assert err.endswith(" value(s), got ''")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-6, 6", "-6, 6, 0.01, 99"])
def test_density_takes_three_x_values(tmp_path, capsys, value):
    # two values once raised IndexError; a fourth was dropped without a word
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "density",
                     ["kind = chi2-average", "size = 16"], [f"x = {value}"],
                     out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"grid 'x' must hold exactly 3 value(s), got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("value,shown", [
    ("-1, 1, 0", "x_min=-1, x_max=1, dx=0"),
    ("1, -1, 0.1", "x_min=1, x_max=-1, dx=0.1"),
])
def test_density_names_its_bad_grid(tmp_path, capsys, value, shown):
    # these once exited 2 with only "error: bad grid"
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "density",
                     ["kind = chi2-average", "size = 16"], [f"x = {value}"],
                     out=out)
    assert cli.main(["run", str(p)]) == 2
    assert (f"error: bad grid {shown}: need x_min < x_max and dx > 0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name,model,key,value", [
    ("gamma-spec", ["kind = complete-3-tensor", "size = 4"], "xi",
     "0.5, one"),
    ("gamma-spec", ["kind = complete-3-tensor", "size = 4"], "xi", "nan"),
    ("laplace-check", ["kind = chi2-average", "size = 4"], "lambda",
     "1, inf"),
    ("smallball3", ["kind = complete-3-tensor", "size = 4"], "eps",
     "nan, 0.1, 0.2, 0.4"),
])
def test_float_grids_reject_other_values_by_name(tmp_path, capsys, name,
                                                 model, key, value):
    # a nan xi or lambda once ended in a PoisonedSampleError traceback, and
    # smallball3 ran a nan eps to exit 0
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, [f"{key} = {value}"],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"grid {key!r} must hold finite numbers, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("name,model,key,value,first,second", [
    ("sp-lower-bound", ["kind = block-3-tensor", "size = 12"], "p", "1, 1",
     "1", "1"),
    ("negmoment2", ["kind = chi2-average", "size = 12"], "q",
     "0.25, 0.2500001", "0.25", "0.2500001"),
    ("gamma-spec", ["kind = complete-3-tensor", "size = 4"], "xi",
     "1e6, 1000001", "1000000.0", "1000001.0"),
])
def test_grid_values_sharing_a_name_exit_2(tmp_path, capsys, name, model,
                                           key, value, first, second):
    # records and files are named by the :g form of their grid value; two
    # values of one name once wrote two records of that name, and p = 1, 1
    # listed sp_smallball_p1.csv twice
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, [f"{key} = {value}"],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"grid {key!r} holds {first} and {second}, both named" in err
    assert not out.exists()


def test_fixed_length_grid_may_repeat_a_value():
    # density's x is start, stop and step, not a list of grid points
    assert cli._grid("x", "-2, 2, 2", (-6.0, 6.0, 0.01)) == [-2.0, 2.0, 2.0]


def test_laplace_check_negative_lambda_draws_nothing(tmp_path, capsys,
                                                    monkeypatch):
    # the closed form rejects the grid before mc.reduce draws a sample
    def refuse(*args, **kwargs):
        raise AssertionError("laplace-check drew samples")

    monkeypatch.setattr(cli.mc, "reduce", refuse)
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 0.5, 0.5"],
                     ["lambda = 1, -0.5"], out=out)
    assert cli.main(["run", str(p)]) == 2
    assert "error: lam must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_poisoned_sample_exits_2_by_name(tmp_path, capsys, monkeypatch):
    # a non-finite sample once ended the run in a traceback with exit 1,
    # which reads like a failed assertion
    def poisoned(t, x):
        g = np.ones(len(x))
        g[-1] = np.nan
        return g

    monkeypatch.setattr(chaos3, "gamma_batch", poisoned)
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "negmoment3",
                     ["kind = complete-3-tensor", "size = 4"],
                     samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert ("error: non-finite sample value in chunk 0, column 0, "
            "sample 1999 (seed=7, stream=0)") in err
    assert not out.exists()


def test_gamma_spec_at_huge_xi(tmp_path):
    # log_char_product once squared 2 xi lam unscaled: an overflow warning,
    # so a traceback under the suite's warnings-as-errors filter
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "gamma-spec",
                     ["kind = complete-3-tensor", "size = 4"],
                     ["xi = 1e200"], samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 0
    (check,) = read_manifest(out)["assertions"]
    assert check["passed"] and check["statistic"] == 0.0


def test_gamma_spec_left_side_overflows_to_its_exact_zero(tmp_path, capsys):
    # at xi = 1e154, xi^2 Gamma / 2 overflows and exp(-inf) = 0 is exact:
    # once an overflow warning, so a traceback under the suite's
    # warnings-as-errors filter.  The right side underflows to a subnormal
    # with stderr 0, a gap that no z-test decides: it once recorded FAIL
    # on that, and exits 2 by name now.
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "gamma-spec",
                     ["kind = complete-3-tensor", "size = 4"],
                     ["xi = 1e154"], samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert ("error: gamma_spec_xi1e+154: statistic -3.40635e-308 differs "
            "from reference 0 with a standard error of 0") in err
    assert not out.exists()


def test_laplace_check_overflows_to_its_exact_zero(tmp_path, capsys):
    # lambda = 1e300 on alphas of 1e5 and 2e5: lambda alpha^2 overflows,
    # and the closed form takes the log route to 6.25e-312 (once an
    # overflow warning, so a traceback here), while every sample's
    # exp(-lambda Gamma) is 0: a gap with stderr 0 exits 2 by name
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 1e5, 2e5"],
                     ["lambda = 1e300"], samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert ("error: laplace_lambda1e+300: statistic 0 differs from "
            "reference 6.25e-312 with a standard error of 0") in err
    assert not out.exists()


def test_zero_stderr_with_a_zero_gap_passes(tmp_path):
    # lambda = 0: every sample and the closed form read 1, stderr 0
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 1e5, 2e5"],
                     ["lambda = 0, 1e290"], samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2     # 1e290 meets the rule
    p = write_config(tmp_path / "c.ini", "laplace-check",
                     ["kind = diagonal", "alphas = 1e5, 2e5"],
                     ["lambda = 0"], samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 0
    header, row = (out / "laplace_check.csv").read_text().splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["closed_form"] == values["mc_mean"] == 1.0
    assert values["mc_se"] == 0.0


def test_trace_concentration_checks_the_model_class(tmp_path, capsys):
    # the size sweep once skipped the class check and died on t.n
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "trace-concentration",
                     ["kind = chi2-average"], ["sizes = 6, 12"], out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert ("experiment 'trace-concentration' needs a SymThreeTensor model, "
            "got DiagonalSecondChaos") in err
    assert not out.exists()


def test_tensor_file_can_be_normalised(tmp_path):
    path = write_variance_81_tensor(tmp_path / "t.txt")
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "sp-lower-bound",
                     ["kind = tensor-file", f"path = {path}",
                      "normalize = true"], ["p = 1, 2"], samples=5000,
                     out=out)
    assert cli.main(["run", str(p)]) == 0
    assert read_manifest(out)["n_failed"] == 0


@pytest.mark.parametrize("name,kind", [("gamma-spec", "tensor-file"),
                                       ("negmoment2", "diagonal")])
def test_misspelled_normalize_exits_2(tmp_path, capsys, name, kind):
    # "ture" used to be read as false without a word
    path = write_variance_81_tensor(tmp_path / "t.txt")
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name,
                     [f"kind = {kind}", f"path = {path}", "alphas = 0.5",
                      "normalize = ture"], out=out)
    assert cli.main(["run", str(p)]) == 2
    assert ("[model] normalize must be true or false, got 'ture'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name,model,key", [
    ("laplace-check", ["kind = diagonal", "alphas = 0.5, 0.5",
                       "normalise = true"], "normalise"),
    ("multivariate-bounds", MATRICES + ["normalize = true"], "normalize"),
    ("trace-concentration", ["kind = block-3-tensor", "size = 99"], "size"),
    ("trace-concentration", ["kind = block-3-tensor", "normalize = false"],
     "normalize"),
    ("thm1-certificate", ["kind = chi2-average", "size = 192",
                          "normalize = true"], "normalize"),
    ("gamma-spec", ["kind = tensor-file", "path = {path}", "alphas = 1"],
     "alphas"),
])
def test_unknown_model_key_exits_2(tmp_path, capsys, name, model, key):
    # each of these once ran as if the key were absent and exited 0
    path = write_variance_81_tensor(tmp_path / "t.txt")
    model = [line.format(path=path) for line in model]
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    assert f"reads no [model] key {key!r}; it reads kind" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name,model,message", [
    ("negmoment2", ["kind = diagnoal", "alphas = 1"],
     "unknown model kind 'diagnoal'; choose one of diagonal, matrices, "
     "tensor-file, "),
    ("trace-concentration", ["kind = blok-3-tensor"],
     "unknown family kind 'blok-3-tensor'; choose one of "),
], ids=["diagnoal", "blok-3-tensor"])
def test_unknown_model_kind_exits_2(tmp_path, capsys, name, model, message):
    # a misspelled kind was once reported by its keys, never by its name
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", name, model, samples=2000, out=out)
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert message + ", ".join(cli.FAMILIES) in err
    assert not out.exists()


def test_matrices_are_built_in_numeric_order():
    # sorted as strings, mat.10 once became the second matrix
    m = cli.build_model({"kind": "matrices"} | {
        f"mat.{i}": str(i) for i in range(11, 0, -1)})
    assert m.mats[:, 0, 0].tolist() == list(range(1, 12))


def test_matrices_need_mat_1_to_d(tmp_path, capsys):
    # mat.1 with mat.7 once ran as d = 2
    out = tmp_path / "run"
    p = write_config(tmp_path / "c.ini", "multivariate-bounds",
                     ["kind = matrices", "mat.1 = 0.5 0 ; 0 -0.5",
                      "mat.7 = 0 0.5 ; 0.5 0"], out=out)
    assert cli.main(["run", str(p)]) == 2
    assert ("kind 'matrices' reads no [model] key 'mat.7'; it reads kind, "
            "mat.1, mat.2") in capsys.readouterr().err
    assert not out.exists()


def test_normalize_reads_configparser_booleans():
    model = {"kind": "diagonal", "alphas": "3, 4"}
    for flag, unit in (("on", True), ("Yes", True), ("1", True),
                       ("off", False), ("no", False), ("0", False)):
        f = cli.build_model(model | {"normalize": flag})
        assert f.unit_variance is unit


@pytest.mark.parametrize("extra,message", [
    (["sample = 500"], "[experiment] reads no key 'sample'; it reads name, "
                       "seed, samples and out"),
    (["[grid]", "lambda = 1"], "config has no section [grid]; it reads "
                               "[experiment], [model] and [grids]"),
])
def test_unknown_key_or_section_exits_2(tmp_path, capsys, extra, message):
    # a misspelled samples key once ran 100 000 samples; [grid] was ignored
    out = tmp_path / "run"
    p = tmp_path / "c.ini"
    p.write_text("\n".join(["[experiment]", "name = laplace-check",
                            f"out = {out}"] + extra
                           + ["[model]", "kind = diagonal",
                              "alphas = 0.5, 0.5"]) + "\n")
    assert cli.main(["run", str(p)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_runs_as_written(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.ini"
    p.write_text(block, encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["run", str(p), "--samples", "2000", "--out",
                     str(out)]) == 0
    assert read_manifest(out)["config"]["experiment"]["seed"] == "42"


def test_readme_claim_table_names_experiments_and_their_records(tmp_path):
    # each experiment of the README's claim table is a key of cli.INPUTS,
    # and each gate it names (a record name, * for a grid value) is a
    # record that one of its row's experiments writes at RECORD_CONFIGS
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("| abstract claim | experiments |", 1)[1]
    rows = [line.strip("|").split("|")
            for line in table.split("\n\n", 1)[0].splitlines()[2:]]
    assert rows
    records = {}
    for _, experiments, *gates in rows:
        names = re.findall(r"`([^`]+)`", experiments)
        assert names and set(names) <= cli.INPUTS.keys()
        for name in set(names) - records.keys():
            model, grids, samples = RECORD_CONFIGS[name]
            out = tmp_path / name
            p = write_config(tmp_path / f"{name}.ini", name, model, grids,
                             samples=samples, out=out)
            assert cli.main(["run", str(p)]) in (0, 1)
            records[name] = [a["name"]
                             for a in read_manifest(out)["assertions"]]
        written = [r for name in names for r in records[name]]
        for gate in re.findall(r"`([^`]+)`", "|".join(gates)):
            assert fnmatch.filter(written, gate), (gate, names)


def test_readme_experiment_table_is_the_inputs_table():
    # one README row per cli.INPUTS row, in its order: name, model class,
    # unit-variance mark and grid keys
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("| experiment | model | unit variance |", 1)[1]
    rows = [line.strip("|").split("|")
            for line in table.split("\n\n", 1)[0].splitlines()[2:]]
    documented = [
        (name.strip().strip("`"), model.strip().strip("`"),
         unit.strip() == "yes",
         grids.split("`")[1::2])
        for name, model, unit, grids in rows]
    assert documented == [
        (name, cls.__name__, unit_variance, list(defaults))
        for name, (_, cls, unit_variance, defaults) in cli.INPUTS.items()]
