import faulthandler
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
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
def run_under_blas_threads():
    """Run a Python snippet in a fresh interpreter whose BLAS has the given
    thread count and which imports wienerchaos from this checkout first.

    run(code, threads, *args) passes args as sys.argv[1:] and returns the
    snippet's stdout; a nonzero exit raises CalledProcessError.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code, threads, *args):
        threads = str(threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=path)
        return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              env=env, check=True, capture_output=True,
                              text=True, timeout=120).stdout
    return run


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
