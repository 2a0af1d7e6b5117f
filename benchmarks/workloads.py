"""Benchmark workloads: seeded plans of `wienerchaos run` experiments.

Each workload is a fixed list of experiment runs executed back to back by
one client (a closed loop).  The workload seed determines every run seed
and every generated input (tensor files, matrices); the program sees only
the config files and inputs written here.  This module uses the standard
library only, so inputs do not depend on the numpy version under test.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# chaos3.smallball_gamma3's default: grid points with fewer hits are
# dropped from the slope fit.
MIN_HITS = 50

SPARSE_SMALLBALL_SAMPLES = 100_000

# Small-ball grid for block-3-tensor n=60 at SPARSE_SMALLBALL_SAMPLES.
# Rule: every grid point expects at least 4 * MIN_HITS hits, i.e.
# P(Gamma < eps) * samples >= 200; the smallest point, 0.8, has
# P ~ 3.6e-3 (about 360 expected hits).  The default grid (0.01 .. 0.3)
# expects no hits on this family: see NOTES.md for the defect it exposes.
SPARSE_EPS = (0.8, 0.9, 1.0, 1.2, 1.5, 2.0)


@dataclass(frozen=True)
class Run:
    """One `wienerchaos run` config: experiment, model and grids."""

    experiment: str
    samples: int
    model: dict
    grids: dict = field(default_factory=dict)


def derive_seed(seed: int, *labels) -> int:
    """A u64 run seed derived from the workload seed and a label path."""
    text = ":".join(str(v) for v in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _floats(values) -> str:
    return ", ".join(f"{v:g}" for v in values)


def random_unit_tensor_lines(n: int, rng: random.Random) -> list[str]:
    """Tensor-file lines for a dense random tensor of unit variance.

    Every triple i<j<k gets a Gaussian value; the values are scaled so
    36 * sum a^2 = 1, the chaos3 unit-variance convention.
    """
    triples = [(i, j, k) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    vals = [rng.gauss(0.0, 1.0) for _ in triples]
    scale = 1.0 / (6.0 * math.sqrt(sum(v * v for v in vals)))
    lines = ["# random unit-variance tensor", str(n)]
    lines += [f"{i} {j} {k} {v * scale:.17g}"
              for (i, j, k), v in zip(triples, vals)]
    return lines


def random_unit_matrix(n: int, rng: random.Random) -> str:
    """A symmetric n x n matrix with 2 Tr(A^2) = 1, in config row syntax."""
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.gauss(0.0, 1.0)
    scale = 1.0 / math.sqrt(2.0 * sum(v * v for row in m for v in row))
    return " ; ".join(" ".join(f"{v * scale:.17g}" for v in row) for row in m)


def dense_mc(seed: int, inputs: Path) -> list[Run]:
    return [
        Run("smallball3", 600_000, {"kind": "complete-3-tensor", "size": 20}),
        Run("negmoment3", 300_000, {"kind": "spiked-3-tensor", "size": 20}),
    ]


def sparse_mc(seed: int, inputs: Path) -> list[Run]:
    return [
        Run("smallball3", SPARSE_SMALLBALL_SAMPLES,
            {"kind": "block-3-tensor", "size": 60},
            {"eps": _floats(SPARSE_EPS)}),
        Run("negmoment3", 40_000, {"kind": "block-3-tensor", "size": 60}),
    ]


def spectral(seed: int, inputs: Path) -> list[Run]:
    rng = random.Random(derive_seed(seed, "spectral", "tensor"))
    path = inputs / "tensor8.txt"
    path.write_text("\n".join(random_unit_tensor_lines(8, rng)) + "\n",
                    encoding="utf-8")
    return [
        Run("gamma-spec", 40_000, {"kind": "complete-3-tensor", "size": 6},
            {"xi": "0.5, 1, 2"}),
        Run("sp-lower-bound", 40_000,
            {"kind": "tensor-file", "path": str(path)}, {"p": "1, 2, 3"}),
        Run("spectral-radius", 25_000,
            {"kind": "complete-3-tensor", "size": 12}, {"p": "1, 2"}),
    ]


def closed_form(seed: int, inputs: Path) -> list[Run]:
    rng = random.Random(derive_seed(seed, "closed-form", "matrices"))
    mats = {f"mat.{i}": random_unit_matrix(10, rng) for i in (1, 2)}
    return [
        Run("multivariate-bounds", 1000, {"kind": "matrices", **mats}),
        Run("trace-concentration", 20_000, {"kind": "complete-3-tensor"},
            {"sizes": "6, 12, 24"}),
        Run("negmoment2", 100_000, {"kind": "chi2-average", "size": 12},
            {"q": "0.25, 1, 2"}),
        Run("density", 1000, {"kind": "chi2-average", "size": 64}),
        Run("smallball2", 100_000, {"kind": "chi2-average", "size": 192}),
    ]


WORKLOADS = {
    "dense-mc": dense_mc,
    "sparse-mc": sparse_mc,
    "spectral": spectral,
    "closed-form": closed_form,
}


def config_text(run: Run, seed: int) -> str:
    """The INI text `wienerchaos run` reads for one run."""
    lines = ["[experiment]", f"name = {run.experiment}", f"seed = {seed}",
             f"samples = {run.samples}", "", "[model]"]
    lines += [f"{k} = {v}" for k, v in run.model.items()]
    if run.grids:
        lines += ["", "[grids]"] + [f"{k} = {v}" for k, v in run.grids.items()]
    return "\n".join(lines) + "\n"


def write_plan(workload: str, seed: int, root: Path) -> list[dict]:
    """Generate the workload's inputs and configs under root.

    Returns one entry per run: label, experiment, config path and text.
    """
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    plan = []
    for i, run in enumerate(WORKLOADS[workload](seed, inputs)):
        label = f"{i:02d}-{run.experiment}"
        text = config_text(run, derive_seed(seed, workload, i))
        path = inputs / f"{label}.ini"
        path.write_text(text, encoding="utf-8")
        plan.append({"label": label, "experiment": run.experiment,
                     "config": str(path), "config_text": text,
                     "model": dict(run.model), "grids": dict(run.grids)})
    return plan
