"""Benchmark worker: one fresh interpreter per set-up measurement.

Usage: python worker.py JOB.json [--setup-only]

Imports wienerchaos.cli and builds every model of the workload, then
prints READY (the parent times the interval from spawn to READY as
set-up).  Unless --setup-only, it then runs passes over the workload's
configs through `cli.main(["run", ...])` until the job's seconds are spent
and writes the timings, peak RSS, provenance and traced-pass layer
metrics to the job's result file.  With tracing on, plain and traced
passes alternate, so their difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

MIN_PASSES = 3    # a median needs at least three passes
MAX_CYCLES = 40   # bounds the output written when passes are very fast


def setup(plan):
    from wienerchaos import cli
    for run in plan:
        cfg = cli.parse_config(run["config"])
        if cfg.name in cli.SIZE_SWEEP_EXPERIMENTS:
            for size in cfg.grids["sizes"].replace(",", " ").split():
                cli.family_generators(cfg.model["kind"], int(size))
        else:
            cli.build_model(cfg.model)
    return cli


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_s() -> float:
    """Seconds for a fixed numpy job shaped like the program's mix.

    Philox normals feeding a GEMM as in gamma_batch, batched eigvalsh as
    in spectra_batch, and a dict-heavy Python loop as in wick.  It uses no
    wienerchaos code, so only the machine's speed moves it; pass times
    divided by it cancel much of the drift of a shared machine.  Each
    part counts as the median of three timings, so that one stall of a
    BLAS thread does not move the result.
    """
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 11],
                                                            dtype=np.uint64)))
    a = rng.standard_normal((20, 400))

    def gemm():
        x = rng.standard_normal((16384, 20))
        for _ in range(4):
            x @ a

    def eig():
        m = rng.standard_normal((7000, 6, 6))
        np.linalg.eigvalsh(m + m.transpose(0, 2, 1))

    def loop():
        acc: dict = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            acc[key] = acc.get(key, 0.0) + 1.0

    total = 0.0
    for part in (gemm, eig, loop):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def run_pass(cli, plan, outdir: Path, log) -> dict:
    """Run every config once; exit codes are recorded, never raised."""
    rcs = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for run in plan:
            try:
                rc = cli.main(["run", run["config"],
                               "--out", str(outdir / run["label"])])
            except Exception:  # a crash is a failed run, not a failed pass
                traceback.print_exc(file=log)
                rc = None
            rcs.append(rc)
    wall = time.perf_counter() - t0
    return {"dir": str(outdir), "wall_s": wall, "cpu_s": _cpu_s() - cpu0,
            "rcs": rcs}


def provenance(cli) -> dict:
    import numpy as np
    import scipy
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "chunk_samples": cli.mc.CHUNK_SAMPLES,
        "wienerchaos": cli.__version__,
    }


def measure(cli, job) -> dict:
    import wienerchaos
    plan, out = job["plan"], Path(job["out"])
    kinds = ("plain", "traced") if job["trace"] else ("plain",)
    passes, all_spans = [], []
    with open(out / "worker.log", "w", encoding="utf-8") as log:
        # untimed, but gated: the first pass after set-up runs slower
        warmup = run_pass(cli, plan, out / "passes" / "warmup", log)
        warmup["warmup"] = True
        passes.append(warmup)
        start, cycle_s = time.perf_counter(), 0.0
        ref = reference_s()
        for _ in range(MAX_CYCLES):
            if (len(passes) > MIN_PASSES and
                    time.perf_counter() - start + cycle_s > job["seconds"]):
                break
            c0 = time.perf_counter()
            for kind in kinds:
                outdir = out / "passes" / f"{len(passes):02d}-{kind}"
                if kind == "plain":
                    passes.append(run_pass(cli, plan, outdir, log))
                    after = reference_s()
                    passes[-1]["ref_s"] = 0.5 * (ref + after)
                    ref = after
                    continue
                tracer = spans.Tracer()
                tracer.install(wienerchaos)
                try:
                    p = run_pass(cli, plan, outdir, log)
                finally:
                    tracer.uninstall()
                recorded = tracer.spans()
                table = spans.summarize(recorded)
                p["layers"] = spans.layer_metrics(table, tracer.counts,
                                                  p["wall_s"])
                p["table"] = table
                p["counts"] = dict(tracer.counts)
                passes.append(p)
                all_spans.append(recorded)
            cycle_s = time.perf_counter() - c0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if all_spans:
        with open(out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "passes": all_spans}, fh)
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0,
            "provenance": provenance(cli)}


def main(argv) -> int:
    job_path = Path(argv[0])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    cli = setup(job["plan"])
    print("READY", flush=True)
    if "--setup-only" in argv[1:]:
        return 0
    result = measure(cli, job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
