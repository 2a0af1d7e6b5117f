import faulthandler
import itertools
import json
import os
import sys
from types import SimpleNamespace

import pytest

from wienerchaos import chaos3, cli

from oracles import make_unit_alphas, make_unit_tensor, write_tensor_file


def pytest_configure(config):
    # a hang, also at interpreter exit, dumps every thread's stack and
    # exits non-zero well above the suite's ~35 s; the file is a copy of
    # stderr, since the test output capture redirects fd 2 itself
    faulthandler.dump_traceback_later(600, exit=True,
                                      file=os.dup(sys.stderr.fileno()))


@pytest.fixture
def unit_alphas_factory():
    return make_unit_alphas


@pytest.fixture
def unit_tensor_factory():
    return make_unit_tensor


def _csv_rows(path) -> list[dict]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return [dict(zip(header.split(","), map(float, row.split(","))))
            for row in rows]


@pytest.fixture
def run_experiment(tmp_path):
    """Run one experiment through cli.run.

    model is a [model] dict or a SymThreeTensor, which is written to a
    tensor file that reads back bit for bit; a grid that is not a string
    is written at full precision.  Returns the exit status, each CSV as a
    list of rows keyed by column, and the manifest's assertions.
    """
    runs = itertools.count()

    def run(name, model, grids, samples, seed):
        out = tmp_path / f"run{next(runs)}"
        if isinstance(model, chaos3.SymThreeTensor):
            path = tmp_path / f"tensor{next(runs)}.txt"
            write_tensor_file(model, path)
            model = {"kind": "tensor-file", "path": str(path)}
        grids = {key: v if isinstance(v, str)
                 else ", ".join(repr(float(x)) for x in v)
                 for key, v in grids.items()}
        status = cli.run(cli.ExperimentConfig(name, seed, samples, out,
                                              model, grids, {}))
        manifest = json.loads((out / "manifest.json").read_text())
        return SimpleNamespace(
            status=status, assertions=manifest["assertions"],
            csv={f: _csv_rows(out / f) for f in manifest["files"]})
    return run
