"""Correctness gate over the outputs of a workload's passes.

Each pass writes one output directory per run.  The gate counts one check
per item below; `failed_frac` is failed checks / checks attempted.

* every run exits 0;
* every assertion recorded in every manifest.json passed, except that a
  Monte Carlo z-test (see Z_GATE) fails only beyond Z_GATE; a run whose
  only failed assertions are such alarms passes its exit check too;
* every CSV of every later pass is byte-identical to the first pass's
  (re-running a config with its seed reproduces its CSVs bitwise);
* exact outputs match closed forms derived independently of the library:
  trace-concentration `sum_beta` = 3/2 and the complete-tensor `kappa4`,
  the density's mass, and the chi2-average negative moment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


# The manifests' Monte Carlo z-tests fail at about 3 sigma, so each fails a
# correct program with probability ~0.27 %.  A workload runs up to ten of
# them, and a strict gate would fail ~2 % of seeds by chance (spectral
# seed 28 does: gamma_spec_xi0.5 at z = 3.06).  The gate recomputes each
# z-score from the run's CSV and fails it beyond Z_GATE; a failed z-test
# within Z_GATE counts as passed and is reported as an alarm.
Z_GATE = 5.0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""
    alarm: bool = False


def complete_tensor_kappa4(n: int) -> float:
    """kappa_4 of the unit-variance complete 3-tensor on [1, n].

    Every triple of distinct indices carries c with 36 C(n,3) c^2 = 1, and
    kappa_4 = 1944 ||a (x)_1 a||^2 + 1296 C4(a).  ||a (x)_1 a||^2 / c^4
    counts ordered (j,k,l,m), j != k, l != m, weighted by (n - |{j,k,l,m}|)^2;
    C4(a) / c^4 counts proper edge colourings of K4 with n colours, the
    chromatic polynomial of the octahedron n(n-1)(n-2)(n^3-9n^2+29n-32).
    """
    c2 = 1.0 / (36.0 * math.comb(n, 3))
    base = n * (n - 1) * (n - 2)
    contraction = base * (2 * (n - 2) + 4 * (n - 3) ** 2
                          + (n - 3) * (n - 4) ** 2)
    cycles = base * (n ** 3 - 9 * n ** 2 + 29 * n - 32)
    return c2 * c2 * (1944.0 * contraction + 1296.0 * cycles)


def chi2_average_negative_moment(m: int, q: float) -> float:
    """E Gamma^(-q) for chi2-average of size m.

    alpha_k = a = 1/sqrt(2m), so Gamma = 4 a^2 chi2_m and
    E Gamma^(-q) = (4a^2)^(-q) 2^(-q) Gamma(m/2 - q) / Gamma(m/2).
    """
    four_a2 = 2.0 / m
    return math.exp(-q * math.log(four_a2) - q * math.log(2.0)
                    + math.lgamma(m / 2.0 - q) - math.lgamma(m / 2.0))


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def closed_form_checks(run: dict, outdir: Path) -> list[Check]:
    """Checks of one run's exact outputs against closed forms."""
    exp, model, label = run["experiment"], run["model"], run["label"]
    out = []
    if exp == "trace-concentration":
        for row in _rows(outdir / "trace_concentration.csv"):
            n, sum_beta = int(row["n"]), float(row["sum_beta"])
            out.append(Check(f"{label}/sum_beta_n{n}",
                             abs(sum_beta - 1.5) <= 1e-12,
                             f"sum_beta={sum_beta!r}"))
            if model.get("kind") == "complete-3-tensor":
                k4, ref = float(row["kappa4"]), complete_tensor_kappa4(n)
                out.append(Check(f"{label}/kappa4_n{n}",
                                 _rel(k4, ref) <= 1e-9,
                                 f"kappa4={k4!r} closed_form={ref!r}"))
    elif exp == "density":
        rows = _rows(outdir / "density.csv")
        xs = [float(r["x"]) for r in rows]
        ds = [float(r["density"]) for r in rows]
        mass = sum(0.5 * (ds[i] + ds[i + 1]) * (xs[i + 1] - xs[i])
                   for i in range(len(xs) - 1))
        out.append(Check(f"{label}/mass", abs(mass - 1.0) <= 1e-3,
                         f"mass={mass!r}"))
    elif exp == "negmoment2" and model.get("kind") == "chi2-average":
        m = int(model["size"])
        for row in _rows(outdir / "negmoment2.csv"):
            q, val = float(row["q"]), float(row["mellin"])
            ref = chi2_average_negative_moment(m, q)
            out.append(Check(f"{label}/mellin_q{q:g}", _rel(val, ref) <= 1e-6,
                             f"mellin={val!r} closed_form={ref!r}"))
    return out


def _z(gap: float, se: float) -> float:
    if se > 0:
        return gap / se
    return math.inf if gap > 0 else 0.0


def z_scores(run: dict, outdir: Path) -> dict:
    """z-score of each Monte Carlo z-test assertion, from the run's CSV."""
    exp, out = run["experiment"], {}
    if exp == "gamma-spec":
        for r in _rows(outdir / "gamma_spec.csv"):
            f = {k: float(v) for k, v in r.items()}
            out[f"gamma_spec_xi{f['xi']:g}"] = max(
                _z(abs(f["lhs"] - f["rhs_re"]),
                   math.hypot(f["lhs_se"], f["rhs_re_se"])),
                _z(abs(f["rhs_im"]), f["rhs_im_se"]))
    elif exp == "negmoment2":
        for r in _rows(outdir / "negmoment2.csv"):
            out[f"negmoment_q{float(r['q']):g}"] = _z(
                abs(float(r["mc_mean"]) - float(r["mellin"])),
                float(r["mc_se"]))
    elif exp == "trace-concentration":
        # the exact half of trace_mean_n* is the sum_beta check
        for r in _rows(outdir / "trace_concentration.csv"):
            out[f"trace_mean_n{int(r['n'])}"] = _z(
                abs(float(r["mc_trace_mean"]) - 1.5), float(r["mc_trace_se"]))
    elif exp == "smallball2":
        for r in _rows(outdir / "smallball2.csv"):
            out[f"smallball_eps{float(r['eps']):g}"] = _z(
                float(r["phat"]) - float(r["bound"]), float(r["se"]))
    return out


def assertion_checks(run: dict, outdir: Path, tag: str,
                     assertions: list) -> list[Check]:
    """One check per manifest assertion, with the z-test allowance."""
    try:
        zs = z_scores(run, outdir)
    except (OSError, KeyError, ValueError):
        zs = {}
    out = []
    for a in assertions:
        name, detail = f"{tag}/{a['name']}", a.get("detail", "")
        z = zs.get(a["name"])
        if a["passed"]:
            out.append(Check(name, True, detail))
        elif z is not None and z <= Z_GATE:
            out.append(Check(name, True, f"z={z:.3f} <= {Z_GATE:g}: {detail}",
                             alarm=True))
        else:
            out.append(Check(name, False, detail))
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(outdir: Path):
    try:
        with open(outdir / "manifest.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_gate(plan: list[dict], passes: list[dict]) -> list[Check]:
    """All checks over a workload's passes.

    plan: the workload's runs (label, experiment, model).
    passes: per pass, {"dir": output root, "rcs": exit code per run};
    run i of a pass writes to dir / plan[i]["label"].
    """
    checks: list[Check] = []
    first = Path(passes[0]["dir"])
    for k, p in enumerate(passes):
        root = Path(p["dir"])
        for run, rc in zip(plan, p["rcs"]):
            label = run["label"]
            tag = f"pass{k}/{label}"
            manifest = _manifest(root / label)
            if manifest is None:
                checks.append(Check(f"{tag}/exit0", rc == 0, f"rc={rc}"))
                checks.append(Check(f"{tag}/manifest", False, "missing"))
                continue
            asserted = assertion_checks(run, root / label, tag,
                                        manifest["assertions"])
            alarms_only = rc == 1 and all(c.passed for c in asserted)
            checks.append(Check(f"{tag}/exit0", rc == 0 or alarms_only,
                                f"rc={rc}", alarm=alarms_only))
            checks += asserted
            if k == 0:
                continue
            ref = _manifest(first / label)
            for name in (ref or {}).get("files", []):
                try:
                    same = _digest(root / label / name) == _digest(
                        first / label / name)
                except OSError:
                    same = False
                checks.append(Check(f"{tag}/{name}/bytes_equal", same))
    for run in plan:
        try:
            checks += closed_form_checks(run, first / run["label"])
        except (OSError, KeyError, ValueError) as exc:
            checks.append(Check(f"{run['label']}/closed_form", False,
                                f"{type(exc).__name__}: {exc}"))
    return checks
