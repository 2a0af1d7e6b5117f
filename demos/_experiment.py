"""The demos' one route to a Monte Carlo number or a gate: an experiment
of the runner, run by cli.run into a temporary directory."""

import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from wienerchaos import cli

X1X2X3 = {"kind": "block-3-tensor", "size": 3}    # one triple: X1 X2 X3


def _text(values):
    return {key: str(v) for key, v in values.items()}


def run(name, model, grids={}, samples=100_000, seed=0):
    """Run experiment `name` on [model] and [grids] values as a config
    would give them; cli.run prints every record.  Returns each CSV as an
    array of rows with named columns and each assertion by name."""
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        cli.run(cli.ExperimentConfig(name, seed, samples, out, _text(model),
                                     _text(grids), {}))
        manifest = json.loads((out / "manifest.json").read_text())
        return SimpleNamespace(
            csv={f: np.atleast_1d(np.genfromtxt(out / f, delimiter=",",
                                                names=True))
                 for f in manifest["files"]},
            checks={a["name"]: a for a in manifest["assertions"]})
