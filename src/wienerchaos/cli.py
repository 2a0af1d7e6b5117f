"""Experiment runner: reproducible batch runs bound to CSV + JSON artifacts.

Usage:  wienerchaos run <config> [--seed S] [--samples N] [--out DIR]

The config is flat key/value text (INI sections), echoed into the run
manifest with the command-line overrides in place, so a rerun from the
echo is the same run; README.md ("Experiment runner") shows one in full.
[experiment] holds name (a key of INPUTS, the one table of experiments),
seed (u64), samples and out; [model] a kind, a family of family_generators
or one of build_model's explicit kinds, with only that kind's parameters;
the optional [grids] only the keys that INPUTS lists for the experiment,
no two values of a list grid sharing the `:g` name of their records.
run() checks every input before any work.  Every Monte Carlo estimate is
made here: each experiment maps Gaussian points through the kernels of
chaos2 and chaos3, which draw nothing, and reduces them with mc.reduce
itself, after its domain checks.  RunRecorder.check decides each
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


def _integer(key: str, value) -> int:
    """An [experiment] value as an int; a ValueError names key and value."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"[experiment] {key} must be an integer, "
                         f"got {value!r}") from None


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
    cfg_seed = _integer("seed", seed if seed is not None
                        else exp.get("seed", "0"))
    cfg_samples = _integer("samples", samples if samples is not None
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


def _fmt_column(col) -> list[str]:
    """_fmt of each value of a column; a column of one float type, the
    bulk of every CSV, is formatted without the per-value type tests."""
    kinds = set(map(type, col))
    if len(kinds) == 1 and issubclass(kinds.pop(), (float, np.floating)):
        return [f"{v:.17g}" for v in np.asarray(col, dtype=float).tolist()]
    return [_fmt(v) for v in col]


def write_csv(path: Path, header, rows) -> None:
    """One header line and one line per row, each value as _fmt gives
    it, the rule picked per column; the rows must be of one length."""
    cols = [_fmt_column(col) for col in zip(*rows, strict=True)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join([",".join(header) + "\n"]
                         + [",".join(row) + "\n" for row in zip(*cols)]))


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

MIN_HITS = 50   # fewer hits or misses: a small-ball point leaves the fit


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
        with np.errstate(over="ignore"):    # exp(-inf) = 0 is exact
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
    xis = cfg.grids["xi"]

    def lhs_fn(x):      # E exp(-Gamma xi^2 / 2)
        g = chaos3.gamma_batch(t, x)
        with np.errstate(over="ignore"):    # exp(-inf) = 0 is exact
            return np.stack([np.exp(-0.5 * xi * xi * g) for xi in xis], axis=1)

    def rhs_fn(xh):     # E_hat prod (1 - 2 i xi lam)^(-1/2), Re then Im
        lams = chaos3.spectra_batch(t, xh)
        z = np.stack([np.exp(chaos2.log_char_product(xi * lams))
                      for xi in xis], axis=1)
        return np.concatenate([z.real, z.imag], axis=1)

    # each side of the identity from its own stream, every xi a column
    (lhs,) = mc.reduce(lhs_fn, cfg.samples, mc.RngSpec(cfg.seed, 0), t.n,
                       mc.Moments())
    (rhs,) = mc.reduce(rhs_fn, cfg.samples, mc.RngSpec(cfg.seed, 1), t.n,
                       mc.Moments())
    parts = rhs.results()
    rows = []
    # Im rhs vanishes by the sign symmetry of the spectrum's law
    for xi, left, re, im in zip(xis, lhs.results(), parts, parts[len(xis):]):
        gap = mc.EstimatorResult(left.mean - re.mean,
                                 math.hypot(left.stderr, re.stderr), left.n)
        real_ok, imag_ok = (verdict(part.mean, "==", 0.0, 3.0, part.stderr)
                            for part in (gap, im))
        # the part with the larger |z| carries the record's numbers
        worst = (gap if abs(gap.mean) * im.stderr >= abs(im.mean) * gap.stderr
                 else im)
        rec.check(f"gamma_spec_xi{xi:g}", worst.mean, "==", 0.0, 3.0,
                  worst.stderr)
        rows.append((xi, left.mean, left.stderr, re.mean, re.stderr,
                     im.mean, im.stderr, real_ok, imag_ok))
    rec.csv("gamma_spec.csv",
            ["xi", "lhs", "lhs_se", "rhs_re", "rhs_re_se", "rhs_im",
             "rhs_im_se", "real_pass", "imag_pass"], rows)


def _exp_spectral_radius(cfg, t, rec):
    ps = cfg.grids["p"]
    if min(ps) < 1:
        raise ValueError("p must be >= 1")

    def fn(xh):
        lam1 = np.abs(chaos3.spectra_batch(t, xh)[:, 0])
        with np.errstate(over="ignore"):     # checked below
            powers = np.stack([lam1 ** (2 * p) for p in ps], axis=1)
        if not np.isfinite(powers).all():     # first at the largest p
            raise ValueError(f"|lambda_1|^(2p) overflows at p={max(ps)}")
        return powers

    (moments,) = mc.reduce(fn, cfg.samples, mc.RngSpec(cfg.seed, 0), t.n,
                           mc.Moments())
    rows = []
    for p, raw in zip(ps, moments.results()):
        # (E |lam_1|^(2p))^(1/(2p)), its stderr by the delta method
        norm, se = 0.0, 0.0
        if raw.mean > 0.0:
            norm = raw.mean ** (1.0 / (2 * p))
            se = norm * raw.stderr / (2 * p * raw.mean)
        rec.check(f"finite_p{p}", norm, None, None, None)
        rows.append((p, norm, se, raw.n))
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
    eps = np.asarray(cfg.grids["eps"])
    if eps.size < 3:
        raise ValueError("grid 'eps' must hold at least 3 values")
    if np.any(eps <= 0) or np.any(np.diff(eps) <= 0):
        raise ValueError("grid 'eps' must be positive and increasing")
    (hits,) = mc.reduce(lambda x: chaos3.gamma_batch(t, x), cfg.samples,
                        mc.RngSpec(cfg.seed, 0), t.n, mc.Hits(eps))
    (phat,), (se,) = hits.fractions()
    n, counts = hits.n, hits.counts[0]
    # the binomial se that weighs a point is a normal approximation: a
    # point with fewer than MIN_HITS hits or misses leaves the fit
    used = (counts >= MIN_HITS) & (n - counts >= MIN_HITS)
    if used.sum() < 3:
        raise ValueError(
            f"only {int(used.sum())} of {eps.size} eps grid points reach "
            f"min_hits={MIN_HITS} (largest hit count {int(counts.max())} "
            f"and smallest miss count {int(n - counts.min())} of {n} "
            "samples); at least 3 are needed for the slope fit: move the "
            "eps grid or raise the sample count")
    slope, slope_se = mc.loglog_slope(eps[used], phat[used], se[used])
    rec.check("cw_exceedance", slope, ">=", 0.25, 2.0, slope_se)
    rec.csv("smallball3.csv",
            ["eps", "phat", "se", "hits", "used_in_fit"],
            list(zip(eps, phat, se, counts, used)))
    rec.csv("smallball3_fit.csv",
            ["slope", "slope_se", "cw_baseline", "target_exponent",
             "widened"],
            [(slope, slope_se, 0.25, 0.75, not used.all())])


def _exp_negmoment3(cfg, t, rec):
    thetas = cfg.grids["theta"]
    if not all(0.0 < theta < 1.0 for theta in thetas):
        raise ValueError("theta must lie in (0, 1)")
    # Gamma = R^4 G(U) on the n coordinates it depends on, G bounded, so
    # E Gamma^(-theta) >= c E R^(-4 theta) = inf once 4 theta >= n
    n = np.unique(t.triples[t.values != 0.0]).size
    for theta in thetas:
        if 4.0 * theta >= n:
            raise chaos2.DivergenceError(
                f"E Gamma^(-theta) diverges for theta >= n/4 (theta="
                f"{theta:g}, n={n} coordinates that Gamma depends on)")

    def fn(x):
        g = chaos3.gamma_batch(t, x)
        return np.stack([g ** (-theta) for theta in thetas], axis=1)

    # the share of the top 0.1% summands flags a heavy tail
    moments, top = mc.reduce(fn, cfg.samples, mc.RngSpec(cfg.seed, 0), t.n,
                             mc.Moments(),
                             mc.TopShare(max(1, cfg.samples // 1000)))
    rows = []
    for theta, est, share in zip(thetas, moments.results(), top.share):
        rec.check(f"finite_theta{theta:g}", est.mean, None, None, None)
        rows.append((theta, est.mean, est.stderr, share, share > 0.5))
    rec.csv("negmoment3.csv",
            ["theta", "mean", "se", "top_share", "unstable"], rows)


def _exp_sp_lower_bound(cfg, t, rec):
    ps = cfg.grids["p"]
    if min(ps) < 1 or max(ps) > t.n:
        raise ValueError(f"p must lie in 1..{t.n}")
    cols = np.array(ps) - 1
    alphas = np.geomspace(1e-3, 1.0, 7)    # the S_hat_p small-ball grid

    def fn(xh):
        # S_hat_p of the squared spectrum by Newton-Girard: no eigensolve
        newton = chaos3.sharp_power_sums(t, xh, max(ps))
        return chaos2.newton_to_elementary(newton)[cols].T

    moments, hits = mc.reduce(fn, cfg.samples, mc.RngSpec(cfg.seed, 0), t.n,
                              mc.Moments(), mc.Hits(alphas))
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
    for p, est, phat, se in zip(ps, moments.results(), *hits.fractions()):
        bound = 0.5 * 3.0 ** p / (2.0 ** p * math.factorial(p))
        holds = rec.check(f"sp_lower_bound_p{p}", est.mean, ">=", bound, 0.0,
                          est.stderr)
        rows.append((p, est.mean, est.stderr, bound, holds))
        rec.csv(f"sp_smallball_p{p}.csv", ["alpha", "phat", "se"],
                list(zip(alphas, phat, se)))
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
    if not fixed:   # a grid point names its records and files by :g
        names = [f"{v:g}" for v in values]
        for i, name in enumerate(names):
            j = names.index(name)
            if j < i:
                raise ValueError(f"grid {key!r} holds {values[j]!r} and "
                                 f"{values[i]!r}, both named {name}")
    return values


def _blas() -> str | None:
    """The BLAS numpy was built with, as "name version"; None where numpy
    does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except KeyError:
        return None


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
        # the bits do not depend on the CPU count or the BLAS threads; the
        # time does, and the threads gain only if the BLAS runs GEMMs of at
        # most gemm_madds multiply-adds on the calling thread
        "provenance": {
            "cpus": mc.usable_cpus(),
            "chunk_samples": mc.CHUNK_SAMPLES,
            "step_samples": mc.STEP_SAMPLES,
            "blas": _blas(),
            "gemm_madds": chaos3.GEMM_MADDS,
            "gemm_points": chaos3.GEMM_POINTS,
        },
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
