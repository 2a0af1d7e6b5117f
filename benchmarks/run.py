"""Benchmark of the wienerchaos experiment runner.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dense-mc, sparse-mc, spectral, closed-form, or `all` to run
each in turn.  The workload seed fixes every generated input and run seed
(see workloads.py).  Each run is driven in-process through
`cli.main(["run", ...])` by a worker interpreter with BLAS threads set to
the CPUs available; one client runs the configs back to back.

With --trace 0 the end-to-end metrics are reported: set-up time (median
of fresh interpreters importing wienerchaos.cli and building every
model), wall_rel (the median over passes of a pass's wall time divided by
the time of a fixed reference job run before and after it, see
worker.reference_s), and the peak RSS of the process that ran the
passes.  The raw pass wall times (wall_s) are in the report and result
file; on a shared machine they drift too much from run to run to bound a
regression.  With --trace 1 plain and traced
passes alternate and the per-layer metrics of the traced passes are
reported (see spans.py), with the tracing overhead.  Every pass's outputs
go through the correctness gate (gate.py); `failed` counts failed checks.

A human-readable report goes to stderr and a full result file, with
provenance, to .bench_out/<workload>-seed<N>-trace<T>/result.json.  The
last line on stdout is the JSON summary
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "wienerchaos"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3        # fresh interpreters timed per run; median reported
RUN_DEADLINE_S = 170.0   # the whole run must end within this
LAYER_MODULES = ("wick", "chaos2", "chaos3", "mc", "cli")
E2E_UNITS = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    cpus = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cpus
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_worker(job_path: Path, setup_only: bool, deadline: float) -> float:
    """Start a worker, return seconds from spawn to READY, wait for it."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(job_path)]
    if setup_only:
        cmd.append("--setup-only")
    log_path = job_path.parent / "worker.stderr"
    with open(log_path, "a", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                env=worker_env(), cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker timed out; see {log_path}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}; "
                         f"see {log_path}")
    return ready


def stats(values: list[float]) -> dict:
    """Median, quartiles, count and the samples themselves."""
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def layer_unit(name: str) -> str:
    if name.startswith("src.loc."):
        return "lines"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("ns_per_row"):
        return "ns"
    if name.endswith(("_frac", "_util")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def src_loc() -> dict:
    loc = {f"src.loc.{m}": len((SRC / f"{m}.py").read_text(
        encoding="utf-8").splitlines()) for m in LAYER_MODULES}
    loc["src.loc.total"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                               for p in sorted(SRC.glob("*.py")))
    return loc


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = workloads.write_plan(name, seed, out)
    job_path = out / "job.json"
    job = {"plan": plan, "out": str(out), "seconds": seconds, "trace": trace,
           "result": str(out / "worker.json")}
    job_path.write_text(json.dumps(job, indent=1), encoding="utf-8")

    setup = [spawn_worker(job_path, True, deadline)
             for _ in range(SETUP_REPEATS - 1)]
    setup.append(spawn_worker(job_path, False, deadline))
    worker = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    passes = worker["passes"]
    checks = gate.run_gate(plan, passes)
    shutil.rmtree(out / "passes", ignore_errors=True)

    plain = [p for p in passes if "layers" not in p and "warmup" not in p]
    traced = [p for p in passes if "layers" in p]
    walls = [p["wall_s"] for p in plain]
    rels = [p["wall_s"] / p["ref_s"] for p in plain]
    failed = [c for c in checks if not c.passed]
    if trace:
        metrics = per_layer_metrics(plain, traced)
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_rel": statistics.median(rels),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]}
                   for n, v in values.items()}
    inputs = sorted((out / "inputs").iterdir())
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            **worker["provenance"],
            "git_revision": git_revision(),
            "workload_seed": seed,
            "configs": {run["label"]: run["config_text"] for run in plan},
            "input_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in inputs},
        },
        "setup_s_samples": setup,
        "wall_s": stats(walls),
        "ref_s": stats([p["ref_s"] for p in plain]),
        "wall_rel": stats(rels),
        "peak_rss_mb": worker["peak_rss_mb"],
        "checks": {"attempted": len(checks), "failed": len(failed),
                   "failed_frac": len(failed) / len(checks),
                   "failures": [vars(c) for c in failed],
                   "alarms": [vars(c) for c in checks if c.alarm]},
        "metrics": metrics,
    }
    if trace:
        result["span_table"] = mean_table(traced)
        result["traced_wall_s"] = [p["wall_s"] for p in traced]
    (out / "result.json").write_text(json.dumps(result, indent=1),
                                     encoding="utf-8")
    return result


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced passes, process figures
    over plain passes, tracing overhead, and the src/ line counts."""
    metrics = {n: statistics.median(p["layers"][n] for p in traced)
               for n in traced[0]["layers"]}
    metrics["machine.ref_s"] = statistics.median(p["ref_s"] for p in plain)
    metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["process.cpu_util"] = statistics.median(
        p["cpu_s"] / p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = statistics.median(
        p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain) - 1.0
    metrics.update(src_loc())
    return {n: {"value": v, "unit": layer_unit(n)}
            for n, v in sorted(metrics.items())}


def mean_table(traced: list[dict]) -> dict:
    """Per span name: calls, s and self_s averaged over traced passes."""
    table: dict[str, dict] = {}
    for p in traced:
        for name, row in p["table"].items():
            acc = table.setdefault(name, {"calls": 0.0, "s": 0.0,
                                          "self_s": 0.0})
            for key in acc:
                acc[key] += row[key] / len(traced)
    return table


def report(result: dict, file=sys.stderr) -> None:
    chk = result["checks"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}", file=file)
    setup = result["setup_s_samples"]
    print(f"  {'setup_s':<12} {statistics.median(setup):10.4f} s     "
          f"median of {len(setup)} fresh interpreters", file=file)
    for name, unit in (("wall_s", "s"), ("ref_s", "s"), ("wall_rel", "ratio")):
        w = result[name]
        print(f"  {name:<12} {w['median']:10.4f} {unit:<5} q1 {w['q1']:.4f}  "
              f"q3 {w['q3']:.4f}  n {w['n']}", file=file)
    print(f"  {'peak_rss_mb':<12} {result['peak_rss_mb']:10.1f} MB", file=file)
    print(f"  {'failed_frac':<12} {chk['failed_frac']:10.4f} ratio "
          f"({chk['failed']} of {chk['attempted']} checks failed)", file=file)
    for c in chk["failures"][:20]:
        print(f"    FAILED {c['name']}: {c['detail']}", file=file)
    for c in chk["alarms"]:
        print(f"    alarm (within the z gate) {c['name']}: {c['detail']}",
              file=file)
    if not result["trace"]:
        return
    table = result["span_table"]
    traced_wall = statistics.median(result["traced_wall_s"])
    print(f"  per traced pass ({traced_wall:.3f} s):", file=file)
    print(f"    {'span':<34} {'calls':>8} {'s':>9} {'self_s':>9} {'self%':>6}",
          file=file)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<34} {row['calls']:8.0f} {row['s']:9.4f} "
              f"{row['self_s']:9.4f} {100 * row['self_s'] / traced_wall:6.1f}",
              file=file)
    for name, m in result["metrics"].items():
        print(f"    {name:<40} {m['value']:14.6g} {m['unit']}", file=file)


def summary(results: list[dict]) -> dict:
    attempted = sum(r["checks"]["attempted"] for r in results)
    failed = sum(r["checks"]["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results
                   for n, m in r["metrics"].items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no wienerchaos sources at {SRC}", file=sys.stderr)
        return 2
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace)))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
