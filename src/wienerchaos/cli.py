"""Experiment runner: reproducible batch runs bound to CSV + JSON artifacts.

Usage:  wienerchaos run <config> [--seed S] [--samples N] [--out DIR]

The config is flat key/value text (INI sections), fully echoed into the
run manifest.  Assertion failures never abort a run: they are recorded
per assertion in the manifest and surface through the exit status.

Config format::

    [experiment]
    name = gamma-spec          # one of EXPERIMENTS below
    seed = 42                  # u64
    samples = 100000
    out = results/run1

    [model]
    kind = complete-3-tensor   # family kind, or: diagonal | matrices | tensor-file
    size = 6                   # family size parameter
    # kind = diagonal:      alphas = 0.5, 0.5      (normalize = true optional)
    # kind = matrices:      mat.1 = 0.5 0 ; 0 -0.5   (rows split by ';')
    # kind = tensor-file:   path = tensor.txt      (format: chaos3 docs)

    [grids]                    # optional per-experiment grids
    lambda = 0.25, 1, 4
    xi = 0.5, 1, 2
    eps = 0.01, 0.02, 0.05, 0.1, 0.2, 0.3
    theta = 0.25
    p = 3
    q = 0.25
    sizes = 6, 12, 24
    x = -6, 6, 0.01
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, chaos2, chaos3, mc


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

def family_generators(kind: str, size: int):
    """Named model families indexed by a single size parameter.

    chi2-average:      alpha_k = 1/sqrt(2n), k <= n       (kappa4 = 12/n)
    complete-3-tensor: all triples of [1,N] equal, unit variance
    spiked-3-tensor:   complete tensor with one boosted triple, unit
                       variance (kappa4 stays away from 0)
    block-3-tensor:    N/3 disjoint triples, unit variance
                       (kappa4 = 72/N exactly; the vanishing-kappa4 family)
    """
    size = int(size)
    if kind == "chi2-average":
        if size < 1:
            raise ValueError("chi2-average needs size >= 1")
        return chaos2.DiagonalSecondChaos(
            np.full(size, 1.0 / math.sqrt(2.0 * size)))
    if kind in ("complete-3-tensor", "spiked-3-tensor"):
        if size < 3:
            raise ValueError(f"{kind} needs size >= 3")
        entries = dict.fromkeys(
            itertools.combinations(range(1, size + 1), 3), 1.0)
        if kind == "spiked-3-tensor":
            entries[(1, 2, 3)] = math.sqrt(math.comb(size, 3))
        return chaos3.SymThreeTensor(size, entries, normalize=True)
    if kind == "block-3-tensor":
        if size < 3 or size % 3 != 0:
            raise ValueError("block-3-tensor needs size >= 3 divisible by 3")
        entries = {(3 * b + 1, 3 * b + 2, 3 * b + 3): 1.0
                   for b in range(size // 3)}
        return chaos3.SymThreeTensor(size, entries, normalize=True)
    raise ValueError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    name: str
    seed: int
    samples: int
    out: Path
    model: dict
    grids: dict
    raw: dict


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _int_grid(grids: dict, key: str, default: str) -> list[int]:
    """The integers of grid `key`; a ValueError names the key and value."""
    text = grids.get(key, default)
    try:
        return [int(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"grid {key!r} must hold integers, "
                         f"got {text!r}") from None


def parse_config(path, seed=None, samples=None, out=None) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if "experiment" not in cp:
        raise ValueError("config needs an [experiment] section")
    exp = cp["experiment"]
    name = exp.get("name")
    if not name:
        raise ValueError("experiment name is required")
    cfg_seed = int(seed if seed is not None else exp.get("seed", "0"))
    cfg_samples = int(samples if samples is not None
                      else exp.get("samples", "100000"))
    cfg_out = Path(out if out is not None else exp.get("out", "results"))
    model = dict(cp["model"]) if "model" in cp else {}
    grids = dict(cp["grids"]) if "grids" in cp else {}
    raw = {s: dict(cp[s]) for s in cp.sections()}
    return ExperimentConfig(name, cfg_seed, cfg_samples, cfg_out,
                            model, grids, raw)


def build_model(model: dict):
    kind = model.get("kind", "")
    if not kind:
        raise ValueError("[model] needs a 'kind'")
    if kind == "diagonal":
        alphas = _parse_floats(model.get("alphas", ""))
        if not alphas:
            raise ValueError("diagonal model needs 'alphas'")
        normalize = model.get("normalize", "false").lower() in ("1", "true", "yes")
        return chaos2.DiagonalSecondChaos(alphas, normalize=normalize)
    if kind == "matrices":
        mats = []
        for key in sorted(k for k in model if k.startswith("mat.")):
            rows = [r for r in model[key].split(";") if r.strip()]
            mats.append(np.array([_parse_floats(r) for r in rows]))
        if not mats:
            raise ValueError("matrices model needs mat.1, mat.2, ...")
        return chaos2.MultivariateSecondChaos(mats)
    if kind == "tensor-file":
        path = model.get("path")
        if not path:
            raise ValueError("tensor-file model needs 'path'")
        return chaos3.read_tensor_file(path)
    size = model.get("size")
    if size is None:
        raise ValueError(f"family kind {kind!r} needs 'size'")
    return family_generators(kind, int(size))


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class RunRecorder:
    """Collects assertions and CSV files for one experiment run."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.assertions: list[dict] = []
        self.files: list[str] = []

    def check(self, name: str, passed: bool, detail: str) -> bool:
        self.assertions.append(
            {"name": name, "passed": bool(passed), "detail": detail})
        return bool(passed)

    def csv(self, name: str, header, rows) -> None:
        # the first artifact makes the directory: a rejected config leaves none
        self.outdir.mkdir(parents=True, exist_ok=True)
        write_csv(self.outdir / name, header, rows)
        self.files.append(name)


def _require(model, cls, experiment):
    if not isinstance(model, cls):
        raise ValueError(
            f"experiment {experiment!r} needs a {cls.__name__} model")
    return model


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_thm1_certificate(cfg, model, rec):
    f = _require(model, chaos2.DiagonalSecondChaos, cfg.name)
    ps = _int_grid(cfg.grids, "p", "1 2 3")
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    rows = []
    for p in ps:
        cert = chaos2.thm1_certificate(kappa4, p)
        rows.append((p, kappa4, cert.threshold, cert.certified, cert.q_sup))
        rec.check(f"certified_p{p}", cert.certified,
                  f"kappa4={kappa4:.6g} threshold={cert.threshold:.6g}")
    rec.csv("thm1_certificate.csv",
            ["p", "kappa4", "threshold", "certified", "q_sup"], rows)


def _exp_laplace_check(cfg, model, rec):
    f = _require(model, chaos2.DiagonalSecondChaos, cfg.name)
    lams = _parse_floats(cfg.grids.get("lambda", "0.25, 1, 4"))
    rows = []
    checks = chaos2.laplace_vs_mc(f, lams, cfg.samples, mc.RngSpec(cfg.seed))
    for lam, (closed, est) in zip(lams, checks):
        ok = est.within(closed, 4.0)
        rec.check(f"laplace_lambda{lam:g}", ok,
                  f"closed={closed:.8g} mc={est.mean:.8g} se={est.stderr:.3g}")
        rows.append((lam, closed, est.mean, est.stderr, ok))
    rec.csv("laplace_check.csv",
            ["lambda", "closed_form", "mc_mean", "mc_se", "pass"], rows)


def _exp_smallball2(cfg, model, rec):
    f = _require(model, chaos2.DiagonalSecondChaos, cfg.name)
    ps = _int_grid(cfg.grids, "p", "3")
    if len(ps) != 1:
        raise ValueError(f"smallball2 takes one p, got {cfg.grids['p']!r}")
    (p,) = ps
    eps = _parse_floats(cfg.grids.get("eps", "0.05, 0.1, 0.2"))
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    cert = chaos2.thm1_certificate(kappa4, p)
    rec.check("certificate", cert.certified,
              f"kappa4={kappa4:.6g} threshold={cert.threshold:.6g}")
    rows = []
    for e, cdf in zip(eps, chaos2.smallball_cdf(f, eps)):
        bound = chaos2.smallball_bound(p, e)
        ok = cdf <= bound
        rec.check(f"smallball_eps{e:g}", ok,
                  f"cdf={cdf:.6g} bound={bound:.6g}")
        rows.append((e, cdf, bound, ok))
    rec.csv("smallball2.csv", ["eps", "cdf", "bound", "pass"], rows)


def _exp_negmoment2(cfg, model, rec):
    f = _require(model, chaos2.DiagonalSecondChaos, cfg.name)
    qs = _parse_floats(cfg.grids.get("q", "0.25"))
    # before the draws, so a rejected q costs no sampling
    vals = [chaos2.negative_moment(f, q) for q in qs]

    def fn(rng, cnt):
        g = f.sample_gamma(rng, cnt)
        return np.stack([g ** (-q) for q in qs], axis=1)

    (moments,) = mc.reduce(fn, cfg.samples, mc.RngSpec(cfg.seed),
                           mc.Moments())
    rows = []
    for q, val, est in zip(qs, vals, moments.results()):
        ok = est.within(val, 3.0)
        rec.check(f"negmoment_q{q:g}", ok,
                  f"mellin={val:.8g} mc={est.mean:.8g} se={est.stderr:.3g}")
        rows.append((q, val, est.mean, est.stderr, ok))
    rec.csv("negmoment2.csv",
            ["q", "mellin", "mc_mean", "mc_se", "pass"], rows)


def _exp_density(cfg, model, rec):
    f = _require(model, chaos2.DiagonalSecondChaos, cfg.name)
    x = _parse_floats(cfg.grids.get("x", "-6, 6, 0.01"))
    xs, dens = chaos2.density_by_inversion(f, x[0], x[1], x[2])
    mass = float(np.trapezoid(dens, xs))
    rec.check("mass_unit", abs(mass - 1.0) <= 1e-3, f"mass={mass:.6f}")
    rec.check("nonnegative", bool(dens.min() >= -1e-3),
              f"min={dens.min():.3g}")
    gauss = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    tv = 0.5 * float(np.trapezoid(np.abs(dens - gauss), xs))
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    bound = chaos3.dtv_bound(kappa4).clamped
    rec.check("tv_bound", tv <= bound, f"tv={tv:.4f} bound={bound:.4f}")
    rec.csv("density.csv", ["x", "density", "gauss"],
            list(zip(xs, dens, gauss)))


def _exp_multivariate_bounds(cfg, model, rec):
    m = _require(model, chaos2.MultivariateSecondChaos, cfg.name)
    stats = chaos2.cross_gamma_stats(m)
    k4 = stats.kappa4_max
    rec.check("control1multi", stats.holds,
              f"worst_lhs={stats.worst_lhs:.6g} rhs={stats.bound_rhs:.6g}")
    rows = [(i, stats.var_diag[i]) for i in range(m.d)]
    rec.csv("var_gamma_diag.csv", ["i", "var_gamma_ii"], rows)
    rows = [(i, j, stats.cross_l2[i, j])
            for i in range(m.d) for j in range(m.d)]
    rec.csv("gamma_cross_l2.csv", ["i", "j", "l2_norm"], rows)
    rec.csv("sphere_kappa4.csv", ["kappa4_max", "direction"],
            [(k4.value, " ".join(f"{v:.12g}" for v in k4.direction))])


def _exp_gamma_spec(cfg, model, rec):
    t = _require(model, chaos3.SymThreeTensor, cfg.name)
    xis = _parse_floats(cfg.grids.get("xi", "0.5, 1, 2"))
    rows = []
    for chk in chaos3.verify_gamma_spec(t, xis, cfg.samples, cfg.seed):
        xi = chk.xi
        rec.check(f"gamma_spec_xi{xi:g}", chk.real_ok and chk.imag_ok,
                  f"gap={chk.gap:.3g} combined_se={chk.combined_se:.3g} "
                  f"im={chk.rhs_im.mean:.3g}")
        rows.append((xi, chk.lhs.mean, chk.lhs.stderr, chk.rhs_re.mean,
                     chk.rhs_re.stderr, chk.rhs_im.mean, chk.rhs_im.stderr,
                     chk.real_ok, chk.imag_ok))
    rec.csv("gamma_spec.csv",
            ["xi", "lhs", "lhs_se", "rhs_re", "rhs_re_se", "rhs_im",
             "rhs_im_se", "real_pass", "imag_pass"], rows)


def _exp_spectral_radius(cfg, model, rec):
    t = _require(model, chaos3.SymThreeTensor, cfg.name)
    ps = _int_grid(cfg.grids, "p", "1 2")
    rows = []
    ests = chaos3.spectral_radius_moments(t, ps, cfg.samples, cfg.seed)
    for p, est in zip(ps, ests):
        rec.check(f"finite_p{p}", math.isfinite(est.mean),
                  f"norm={est.mean:.6g}")
        rows.append((p, est.mean, est.stderr, est.n))
    rec.csv("spectral_radius.csv", ["p", "norm_2p", "se", "n"], rows)


def _exp_trace_concentration(cfg, model, rec):
    sizes = _int_grid(cfg.grids, "sizes", "6, 12, 24")
    kind = cfg.model.get("kind", "complete-3-tensor")
    # every model before the first draw: a rejected size costs no sampling
    models = [family_generators(kind, size) for size in sizes]
    rows = []
    for i, (size, t) in enumerate(zip(sizes, models)):
        tf = chaos3.trace_form(t)
        kappa4 = chaos3.kappa4_contraction(t)
        est = mc.estimate(
            lambda rng, cnt, t=t: chaos3.trace_square_batch(
                t, rng.standard_normal((cnt, t.n))),
            cfg.samples, mc.RngSpec(cfg.seed, i))
        ok = est.within(1.5, 3.0)
        rec.check(f"trace_mean_n{size}",
                  abs(tf.expected_trace - 1.5) <= 1e-12 and ok,
                  f"sum_beta={tf.expected_trace:.15g} mc={est.mean:.6g}")
        rows.append((size, kappa4, tf.var_trace, tf.expected_trace,
                     est.mean, est.stderr))
    rec.csv("trace_concentration.csv",
            ["n", "kappa4", "var_trace", "sum_beta", "mc_trace_mean",
             "mc_trace_se"], rows)


def _exp_smallball3(cfg, model, rec):
    t = _require(model, chaos3.SymThreeTensor, cfg.name)
    eps = np.asarray(_parse_floats(
        cfg.grids.get("eps", "0.01, 0.0163, 0.0265, 0.0431, 0.0702, "
                             "0.114, 0.186, 0.3")))
    res = chaos3.smallball_gamma3(t, eps, cfg.samples, cfg.seed)
    exceed = res.slope - 0.25 >= 2.0 * res.slope_se
    rec.check("cw_exceedance", exceed,
              f"slope={res.slope:.4f} se={res.slope_se:.4f} "
              f"distance_to_0.75={res.slope - 0.75:+.4f} widened={res.widened}")
    rec.csv("smallball3.csv",
            ["eps", "phat", "se", "hits", "used_in_fit"],
            list(zip(res.eps, res.phat, res.se, res.hits, res.used)))
    rec.csv("smallball3_fit.csv",
            ["slope", "slope_se", "cw_baseline", "target_exponent",
             "widened"],
            [(res.slope, res.slope_se, 0.25, 0.75, res.widened)])


def _exp_negmoment3(cfg, model, rec):
    t = _require(model, chaos3.SymThreeTensor, cfg.name)
    thetas = _parse_floats(cfg.grids.get("theta", "0.25"))
    rows = []
    for res in chaos3.negative_moment_gamma3(t, thetas, cfg.samples,
                                             cfg.seed):
        theta = res.theta
        rec.check(f"finite_theta{theta:g}", math.isfinite(res.estimate.mean),
                  f"mean={res.estimate.mean:.6g} top_share={res.top_share:.3f} "
                  f"unstable={res.unstable}")
        rows.append((theta, res.estimate.mean, res.estimate.stderr,
                     res.top_share, res.unstable))
    rec.csv("negmoment3.csv",
            ["theta", "mean", "se", "top_share", "unstable"], rows)


def _exp_sp_lower_bound(cfg, model, rec):
    t = _require(model, chaos3.SymThreeTensor, cfg.name)
    ps = _int_grid(cfg.grids, "p", "1 2")
    results = chaos3.sp_batch_estimate(t, ps, cfg.samples, cfg.seed)
    # identity self-check on a small batch: S_hat_1 == Tr(A_hat^2)
    rng = mc.RngSpec(cfg.seed, 999).generator()
    xh = rng.standard_normal((256, t.n))
    lams = chaos3.spectra_batch(t, xh)
    tr2 = chaos3.trace_square_batch(t, xh)
    lam2 = lams * lams
    s1 = np.sum(lam2, axis=1)
    rec.check("s1_equals_trace",
              bool(np.max(np.abs(s1 - tr2)) <= 1e-10 * max(1.0, tr2.max())),
              f"max_gap={np.max(np.abs(s1 - tr2)):.3g}")
    # the product route of S_hat_p against the eigenvalues:
    # Tr((A_hat^2)^q) == sum lam^(2q) within 1e-12 (Tr A_hat^2)^q
    newton = chaos3.sharp_power_sums(t, xh, max(ps))
    rel = max(float(np.max(np.abs(n_q - np.sum(lam2 ** q, axis=1))
                           / np.maximum(tr2 ** q, np.finfo(float).tiny)))
              for q, n_q in enumerate(newton, start=1))
    rec.check("newton_sums_match_spectrum", rel <= 1e-12,
              f"q_max={max(ps)} max_rel_gap={rel:.3g}")
    rows = []
    for res in results:
        p = res.p
        rec.check(f"sp_lower_bound_p{p}", res.bound_holds,
                  f"mean={res.estimate.mean:.6g} se={res.estimate.stderr:.3g} "
                  f"lower_bound={res.lower_bound:.6g}")
        rows.append((p, res.estimate.mean, res.estimate.stderr,
                     res.lower_bound, res.bound_holds))
        rec.csv(f"sp_smallball_p{p}.csv", ["alpha", "phat", "se"],
                list(zip(res.alpha, res.phat, res.se)))
    rec.csv("sp_lower_bound.csv",
            ["p", "mean_sp", "se", "lower_bound", "bound_holds"], rows)


# experiments that sweep family sizes themselves; [model] only names the kind
SIZE_SWEEP_EXPERIMENTS = {"trace-concentration"}

EXPERIMENTS = {
    "thm1-certificate": _exp_thm1_certificate,
    "laplace-check": _exp_laplace_check,
    "smallball2": _exp_smallball2,
    "negmoment2": _exp_negmoment2,
    "density": _exp_density,
    "multivariate-bounds": _exp_multivariate_bounds,
    "gamma-spec": _exp_gamma_spec,
    "spectral-radius": _exp_spectral_radius,
    "trace-concentration": _exp_trace_concentration,
    "smallball3": _exp_smallball3,
    "negmoment3": _exp_negmoment3,
    "sp-lower-bound": _exp_sp_lower_bound,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the exit status (0 = all passed)."""
    if cfg.name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {cfg.name!r}; choose one of "
            f"{', '.join(sorted(EXPERIMENTS))}")
    if cfg.name in SIZE_SWEEP_EXPERIMENTS or not cfg.model:
        model = None
    else:
        model = build_model(cfg.model)
    rec = RunRecorder(cfg.out)
    start = time.perf_counter()
    EXPERIMENTS[cfg.name](cfg, model, rec)
    wall = time.perf_counter() - start
    n_failed = sum(1 for a in rec.assertions if not a["passed"])
    manifest = {
        "experiment": cfg.name,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "config": cfg.raw,
        "versions": {
            "wienerchaos": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "scipy": scipy.__version__,
        },
        "wall_time_s": round(wall, 3),
        "files": rec.files,
        "assertions": rec.assertions,
        "n_failed": n_failed,
    }
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for a in rec.assertions:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{cfg.name}] {a['name']}: {status} {a['detail']}")
    print(f"[{cfg.name}] wrote {len(rec.files)} csv file(s) + manifest.json "
          f"to {cfg.out} in {wall:.2f}s")
    return 0 if n_failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wienerchaos",
        description="Wiener-chaos experiment workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", help="path to the experiment config file")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed (u64)")
    runp.add_argument("--samples", type=int, default=None,
                      help="override the sample count")
    runp.add_argument("--out", default=None,
                      help="override the output directory")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, seed=args.seed,
                           samples=args.samples, out=args.out)
        return run(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
