"""Experiment runner: reproducible batch runs bound to CSV + JSON artifacts.

Usage:  wienerchaos run <config> [--seed S] [--samples N] [--out DIR]

The config is flat key/value text (INI sections), echoed into the run
manifest with the command-line overrides in place, so a rerun from the
echo is the same run; README.md ("Experiment runner") shows one in full.
[experiment] holds name (a key of INPUTS, the one table of experiments),
seed (u64), samples and out; [model] a kind, a family of family_generators
or one of build_model's explicit kinds, with only that kind's parameters;
the optional [grids] only the keys that INPUTS lists for the experiment.
run() checks every input before any work.  RunRecorder.check decides each
assertion by the one rule of `verdict` from the numbers it records in the
manifest; failures never abort a run, they surface in the exit status.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, chaos2, chaos3, mc


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

FAMILIES = ("chi2-average", "complete-3-tensor", "spiked-3-tensor",
            "block-3-tensor")
# build_model's kinds: its explicit ones, then the families
MODEL_KINDS = ("diagonal", "matrices", "tensor-file") + FAMILIES


def family_generators(kind: str, size: int):
    """Named model families indexed by a single size parameter.

    chi2-average:      alpha_k = 1/sqrt(2n), k <= n       (kappa4 = 12/n)
    complete-3-tensor: all triples of [1,N] equal, unit variance
    spiked-3-tensor:   complete tensor with one boosted triple, unit
                       variance (kappa4 stays away from 0)
    block-3-tensor:    N/3 disjoint triples, unit variance
                       (kappa4 = 72/N exactly; the vanishing-kappa4 family)
    """
    if kind not in FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}; choose one of "
                         f"{', '.join(FAMILIES)}")
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


def _values(text: str, cast=float) -> list:
    return [cast(v) for v in text.replace(",", " ").split()]


def parse_config(path, seed=None, samples=None, out=None) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    unknown = sorted(set(cp.sections()) - {"experiment", "model", "grids"})
    if unknown:
        raise ValueError(f"config has no section [{unknown[0]}]; it reads "
                         "[experiment], [model] and [grids]")
    if "experiment" not in cp:
        raise ValueError("config needs an [experiment] section")
    exp = cp["experiment"]
    unknown = sorted(exp.keys() - {"name", "seed", "samples", "out"})
    if unknown:
        raise ValueError(f"[experiment] reads no key {unknown[0]!r}; it "
                         "reads name, seed, samples and out")
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
    raw["experiment"] |= {k: str(v) for k, v in zip(
        ("seed", "samples", "out"), (seed, samples, out)) if v is not None}
    return ExperimentConfig(name, cfg_seed, cfg_samples, cfg_out,
                            model, grids, raw)


def _model_keys(model: dict, known: list, reader: str) -> None:
    """A [model] key outside `known` is a ValueError naming it."""
    unknown = [key for key in model if key not in known]
    if unknown:
        raise ValueError(f"{reader} reads no [model] key {unknown[0]!r}; "
                         f"it reads {', '.join(known)}")


def build_model(model: dict):
    kind = model.get("kind", "")
    if not kind:
        raise ValueError("[model] needs a 'kind'")
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; choose one of "
                         f"{', '.join(MODEL_KINDS)}")
    flag = model.get("normalize", "false")
    normalize = configparser.ConfigParser.BOOLEAN_STATES.get(flag.lower())
    if normalize is None:
        raise ValueError(f"[model] normalize must be true or false, "
                         f"got {flag!r}")
    # matrices reads exactly mat.1 .. mat.d, a family its size
    _model_keys(model, ["kind"] + {
        "diagonal": ["alphas", "normalize"],
        "tensor-file": ["path", "normalize"],
        "matrices": [f"mat.{i}" for i in range(1, len(model))],
    }.get(kind, ["size"]), f"kind {kind!r}")
    if kind == "diagonal":
        alphas = _values(model.get("alphas", ""))
        if not alphas:
            raise ValueError("diagonal model needs 'alphas'")
        return chaos2.DiagonalSecondChaos(alphas, normalize=normalize)
    if kind == "matrices":
        mats = []
        for i in range(1, len(model)):
            rows = [r for r in model[f"mat.{i}"].split(";") if r.strip()]
            mats.append(np.array([_values(r) for r in rows]))
        if not mats:
            raise ValueError("matrices model needs mat.1, mat.2, ...")
        return chaos2.MultivariateSecondChaos(mats)
    if kind == "tensor-file":
        path = model.get("path")
        if not path:
            raise ValueError("tensor-file model needs 'path'")
        return chaos3.read_tensor_file(path, normalize=normalize)
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


def verdict(statistic, relation, reference, tolerance, stderr=None) -> bool:
    """The one rule of every verdict: gap = statistic - reference bears
    `relation` ("==" means |gap| <=) to the bound tolerance * stderr, or
    tolerance without a stderr.  No relation: the statistic is finite."""
    if relation is None:
        return math.isfinite(statistic)
    gap = statistic - reference
    bound = tolerance if stderr is None else tolerance * stderr
    return bool({"==": abs(gap) <= bound, "<=": gap <= bound,
                 ">=": gap >= bound, "<": gap < bound}[relation])


class RunRecorder:
    """Collects assertions and CSV files for one experiment run."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.assertions: list[dict] = []
        self.files: list[str] = []

    def check(self, name, statistic, relation, reference, tolerance,
              stderr=None) -> bool:
        """Decide a verdict by `verdict`, record it with its numbers and
        return it.  A Monte Carlo check passes its stderr and gets
        z = (statistic - reference) / stderr; a non-finite number is
        stored as None, so the JSON stays strict."""
        passed = verdict(statistic, relation, reference, tolerance, stderr)
        z = (statistic - reference) / stderr if stderr else None
        nums = {"statistic": statistic, "reference": reference,
                "stderr": stderr, "z": z, "tolerance": tolerance}
        detail = " ".join(f"{k}={float(v):.6g}" for k, v in nums.items()
                          if v is not None)
        detail += f" relation={relation or 'finite'}"   # the rule applied
        self.assertions.append({"name": name, "passed": passed,
                                "relation": relation, "detail": detail} | {
            k: float(v) if v is not None and math.isfinite(v) else None
            for k, v in nums.items()})
        return passed

    def csv(self, name: str, header, rows) -> None:
        # the first artifact makes the directory: a rejected config leaves none
        self.outdir.mkdir(parents=True, exist_ok=True)
        write_csv(self.outdir / name, header, rows)
        self.files.append(name)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_thm1_certificate(cfg, f, rec):
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    rows = []
    for p in cfg.grids["p"]:
        threshold = chaos2.thm1_threshold(p)
        # 1/Gamma in L^q for q < p/2
        certified = rec.check(f"certified_p{p}", kappa4, "<", threshold, 0.0)
        rows.append((p, kappa4, threshold, certified,
                     p / 2.0 if certified else 0.0))
    rec.csv("thm1_certificate.csv",
            ["p", "kappa4", "threshold", "certified", "q_sup"], rows)


def _exp_laplace_check(cfg, f, rec):
    lams = cfg.grids["lambda"]
    # before the draws, so a negative lambda costs no sampling
    closed_forms = chaos2.laplace_gamma(f, lams)

    def fn(x):
        g = f.sample_gamma(x)
        return np.stack([np.exp(-lam * g) for lam in lams], axis=1)

    (moments,) = mc.reduce(fn, cfg.samples, mc.RngSpec(cfg.seed), f.m,
                           mc.Moments())
    rows = []
    for lam, closed, est in zip(lams, closed_forms, moments.results()):
        ok = rec.check(f"laplace_lambda{lam:g}", est.mean, "==", closed, 4.0,
                       est.stderr)
        rows.append((lam, closed, est.mean, est.stderr, ok))
    rec.csv("laplace_check.csv",
            ["lambda", "closed_form", "mc_mean", "mc_se", "pass"], rows)


def _exp_smallball2(cfg, f, rec):
    (p,), eps = cfg.grids["p"], cfg.grids["eps"]
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    threshold = chaos2.thm1_threshold(p)
    rec.check("certificate", kappa4, "<", threshold, 0.0)
    rows = []
    for e, cdf in zip(eps, chaos2.smallball_cdf(f, eps)):
        bound = chaos2.smallball_bound(p, e)
        rows.append((e, cdf, bound,
                     rec.check(f"smallball_eps{e:g}", cdf, "<=", bound, 0.0)))
    rec.csv("smallball2.csv", ["eps", "cdf", "bound", "pass"], rows)


def _exp_negmoment2(cfg, f, rec):
    qs = cfg.grids["q"]
    # before the draws, so a rejected q costs no sampling
    vals = [chaos2.negative_moment(f, q) for q in qs]

    def fn(x):
        g = f.sample_gamma(x)
        return np.stack([g ** (-q) for q in qs], axis=1)

    (moments,) = mc.reduce(fn, cfg.samples, mc.RngSpec(cfg.seed), f.m,
                           mc.Moments())
    rows = []
    for q, val, est in zip(qs, vals, moments.results()):
        ok = rec.check(f"negmoment_q{q:g}", est.mean, "==", val, 3.0,
                       est.stderr)
        rows.append((q, val, est.mean, est.stderr, ok))
    rec.csv("negmoment2.csv",
            ["q", "mellin", "mc_mean", "mc_se", "pass"], rows)


def _exp_density(cfg, f, rec):
    xs, dens = chaos2.density_by_inversion(f, *cfg.grids["x"])
    mass = float(np.trapezoid(dens, xs))
    rec.check("mass_unit", mass, "==", 1.0, 1e-3)
    rec.check("nonnegative", float(dens.min()), ">=", 0.0, -1e-3)
    gauss = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    tv = 0.5 * float(np.trapezoid(np.abs(dens - gauss), xs))
    kappa4 = chaos2.newton_cumulants(f, 2).cumulants[1]
    # the fourth-moment bound sqrt(kappa4 / 3); a TV distance is <= 1
    bound = min(math.sqrt(kappa4 / 3.0), 1.0)
    rec.check("tv_bound", tv, "<=", bound, 0.0)
    rec.csv("density.csv", ["x", "density", "gauss"],
            list(zip(xs, dens, gauss)))


def _exp_multivariate_bounds(cfg, m, rec):
    stats = chaos2.cross_gamma_stats(m)
    k4 = stats.kappa4_max
    rec.check("control1multi", stats.worst_lhs, "<=", stats.bound_rhs,
              1e-12 * max(1.0, abs(stats.bound_rhs)))
    rows = [(i, stats.var_diag[i]) for i in range(m.d)]
    rec.csv("var_gamma_diag.csv", ["i", "var_gamma_ii"], rows)
    rows = [(i, j, stats.cross_l2[i, j])
            for i in range(m.d) for j in range(m.d)]
    rec.csv("gamma_cross_l2.csv", ["i", "j", "l2_norm"], rows)
    rec.csv("sphere_kappa4.csv", ["kappa4_max", "direction"],
            [(k4.value, " ".join(f"{v:.12g}" for v in k4.direction))])


def _exp_gamma_spec(cfg, t, rec):
    rows = []
    for chk in chaos3.verify_gamma_spec(t, cfg.grids["xi"], cfg.samples,
                                        cfg.seed):
        lhs, rhs, im, gap = chk.lhs, chk.rhs_re, chk.rhs_im, chk.gap
        real_ok, imag_ok = (verdict(part.mean, "==", 0.0, 3.0, part.stderr)
                            for part in (gap, im))
        # the part with the larger |z| carries the record's numbers
        worst = (gap if abs(gap.mean) * im.stderr >= abs(im.mean) * gap.stderr
                 else im)
        rec.check(f"gamma_spec_xi{chk.xi:g}", worst.mean, "==", 0.0, 3.0,
                  worst.stderr)
        rows.append((chk.xi, lhs.mean, lhs.stderr, rhs.mean, rhs.stderr,
                     im.mean, im.stderr, real_ok, imag_ok))
    rec.csv("gamma_spec.csv",
            ["xi", "lhs", "lhs_se", "rhs_re", "rhs_re_se", "rhs_im",
             "rhs_im_se", "real_pass", "imag_pass"], rows)


def _exp_spectral_radius(cfg, t, rec):
    ps = cfg.grids["p"]
    rows = []
    ests = chaos3.spectral_radius_moments(t, ps, cfg.samples, cfg.seed)
    for p, est in zip(ps, ests):
        rec.check(f"finite_p{p}", est.mean, None, None, None)
        rows.append((p, est.mean, est.stderr, est.n))
    rec.csv("spectral_radius.csv", ["p", "norm_2p", "se", "n"], rows)


def _exp_trace_concentration(cfg, models, rec):
    rows = []
    for i, (size, t) in enumerate(zip(cfg.grids["sizes"], models)):
        tf = chaos3.trace_form(t)
        rec.check(f"sum_beta_n{size}", tf.expected_trace, "==", 1.5, 1e-12)
        kappa4 = chaos3.kappa4_contraction(t)
        est = mc.estimate(lambda xh: chaos3.trace_square_batch(t, xh),
                          cfg.samples, mc.RngSpec(cfg.seed, i), t.n)
        rec.check(f"trace_mean_n{size}", est.mean, "==", 1.5, 3.0,
                  est.stderr)
        rows.append((size, kappa4, tf.var_trace, tf.expected_trace,
                     est.mean, est.stderr))
    rec.csv("trace_concentration.csv",
            ["n", "kappa4", "var_trace", "sum_beta", "mc_trace_mean",
             "mc_trace_se"], rows)


def _exp_smallball3(cfg, t, rec):
    res = chaos3.smallball_gamma3(t, np.asarray(cfg.grids["eps"]),
                                  cfg.samples, cfg.seed)
    rec.check("cw_exceedance", res.slope, ">=", 0.25, 2.0, res.slope_se)
    rec.csv("smallball3.csv",
            ["eps", "phat", "se", "hits", "used_in_fit"],
            list(zip(res.eps, res.phat, res.se, res.hits, res.used)))
    rec.csv("smallball3_fit.csv",
            ["slope", "slope_se", "cw_baseline", "target_exponent",
             "widened"],
            [(res.slope, res.slope_se, 0.25, 0.75, res.widened)])


def _exp_negmoment3(cfg, t, rec):
    rows = []
    for res in chaos3.negative_moment_gamma3(t, cfg.grids["theta"],
                                             cfg.samples, cfg.seed):
        rec.check(f"finite_theta{res.theta:g}", res.estimate.mean, None,
                  None, None)
        rows.append((res.theta, res.estimate.mean, res.estimate.stderr,
                     res.top_share, res.unstable))
    rec.csv("negmoment3.csv",
            ["theta", "mean", "se", "top_share", "unstable"], rows)


def _exp_sp_lower_bound(cfg, t, rec):
    ps = cfg.grids["p"]
    results = chaos3.sp_batch_estimate(t, ps, cfg.samples, cfg.seed)
    # self-check of the product route of S_hat_p on a small batch:
    # Tr((A_hat^2)^q) == sum lam^(2q) within 1e-12 (Tr A_hat^2)^q
    rng = mc.RngSpec(cfg.seed, 999).generator()
    xh = rng.standard_normal((256, t.n))
    lam2 = chaos3.spectra_batch(t, xh) ** 2
    newton = chaos3.sharp_power_sums(t, xh, max(ps))
    tr2 = newton[0]    # Tr(A_hat^2), the trace_square_batch values
    rel = max(float(np.max(np.abs(n_q - np.sum(lam2 ** q, axis=1))
                           / np.maximum(tr2 ** q, np.finfo(float).tiny)))
              for q, n_q in enumerate(newton, start=1))
    rec.check("newton_sums_match_spectrum", rel, "<=", 0.0, 1e-12)
    rows = []
    for res in results:
        p, est = res.p, res.estimate
        holds = rec.check(f"sp_lower_bound_p{p}", est.mean, ">=",
                          res.lower_bound, 0.0, est.stderr)
        rows.append((p, est.mean, est.stderr, res.lower_bound, holds))
        rec.csv(f"sp_smallball_p{p}.csv", ["alpha", "phat", "se"],
                list(zip(res.alpha, res.phat, res.se)))
    rec.csv("sp_lower_bound.csv",
            ["p", "mean_sp", "se", "lower_bound", "bound_holds"], rows)


_DIAGONAL, _TENSOR = chaos2.DiagonalSecondChaos, chaos3.SymThreeTensor

# The experiments: each one's function, the model class it needs, whether
# its references assume a variance-one F, and its [grids] keys with typed
# defaults.  A grid is cast like its default, finite and not empty; a
# tuple default also fixes the grid's length.
INPUTS = {
    "thm1-certificate": (_exp_thm1_certificate, _DIAGONAL, True,
                         {"p": [1, 2, 3]}),
    "laplace-check": (_exp_laplace_check, _DIAGONAL, False,
                      {"lambda": [0.25, 1.0, 4.0]}),
    "smallball2": (_exp_smallball2, _DIAGONAL, True,
                   {"p": (3,), "eps": [0.05, 0.1, 0.2]}),
    "negmoment2": (_exp_negmoment2, _DIAGONAL, False, {"q": [0.25]}),
    "density": (_exp_density, _DIAGONAL, True,
                {"x": (-6.0, 6.0, 0.01)}),    # start stop step
    "multivariate-bounds": (_exp_multivariate_bounds,
                            chaos2.MultivariateSecondChaos, False, {}),
    "gamma-spec": (_exp_gamma_spec, _TENSOR, False, {"xi": [0.5, 1.0, 2.0]}),
    "spectral-radius": (_exp_spectral_radius, _TENSOR, False, {"p": [1, 2]}),
    "trace-concentration": (_exp_trace_concentration, _TENSOR, True,
                            {"sizes": [6, 12, 24]}),
    "smallball3": (_exp_smallball3, _TENSOR, False,
                   {"eps": [0.01, 0.0163, 0.0265, 0.0431, 0.0702, 0.114,
                            0.186, 0.3]}),
    "negmoment3": (_exp_negmoment3, _TENSOR, False, {"theta": [0.25]}),
    "sp-lower-bound": (_exp_sp_lower_bound, _TENSOR, True, {"p": [1, 2]}),
}

EXPERIMENTS = {name: row[0] for name, row in INPUTS.items()}

# experiments that sweep family sizes themselves; [model] only names the kind
SIZE_SWEEP_EXPERIMENTS = {name for name, row in INPUTS.items()
                          if "sizes" in row[3]}


def _grid(key: str, text: str, default) -> list:
    """Grid `key` cast like its default; a ValueError names key and text."""
    cast = type(default[0])
    try:
        values = _values(text, cast)
        if not all(map(math.isfinite, values)):    # nan and inf parse
            raise ValueError
    except ValueError:
        what = "integers" if cast is int else "finite numbers"
        raise ValueError(f"grid {key!r} must hold {what}, "
                         f"got {text!r}") from None
    fixed = isinstance(default, tuple)
    if not values or fixed and len(values) != len(default):
        count = f"exactly {len(default)}" if fixed else "at least 1"
        raise ValueError(f"grid {key!r} must hold {count} value(s), "
                         f"got {text!r}")
    return values


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the exit status (0 = all passed)."""
    if cfg.name not in INPUTS:
        raise ValueError(
            f"unknown experiment {cfg.name!r}; choose one of "
            f"{', '.join(sorted(INPUTS))}")
    _, cls, unit_variance, defaults = INPUTS[cfg.name]
    unknown = sorted(cfg.grids.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"experiment {cfg.name!r} reads no grid "
                         f"{unknown[0]!r}; it reads {sorted(defaults)}")
    grids = {key: _grid(key, cfg.grids[key], default) if key in cfg.grids
             else list(default) for key, default in defaults.items()}
    cfg = replace(cfg, grids=grids)
    if cfg.name in SIZE_SWEEP_EXPERIMENTS:
        kind = cfg.model.get("kind", "complete-3-tensor")
        _model_keys(cfg.model, ["kind"], f"experiment {cfg.name!r}")
        models = [family_generators(kind, size) for size in grids["sizes"]]
    else:
        models = [build_model(cfg.model)]
    for m in models:
        if not isinstance(m, cls):
            raise ValueError(f"experiment {cfg.name!r} needs a "
                             f"{cls.__name__} model, got {type(m).__name__}")
        if unit_variance and not m.unit_variance:
            raise chaos2.PreconditionError(
                f"experiment {cfg.name!r} needs a unit-variance model, got "
                f"variance {m.variance:.6g}: set normalize = true")
    model = models if cfg.name in SIZE_SWEEP_EXPERIMENTS else models[0]
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
