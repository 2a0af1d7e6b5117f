"""In-memory span tracing of the wienerchaos layers, installed from outside.

A Tracer wraps the public functions of wick, chaos2, chaos3, mc and cli
wherever a module of the package binds them (so chaos3's imported
`isserlis_expectation` is traced too), a few methods that carry the work
(the SymThreeTensor constructor, polynomial products, second-chaos
sampling), the experiment functions the CLI dispatches to, and the
generators that `mc.RngSpec.generator` hands out.  Each call records a
span: name, start, end, parent span and run id; the spans of one
top-level call (one `cli.main`) share a run id.  Counters are recorded at
the same boundaries.  `uninstall` restores every original binding, so
untraced passes in the same process run the unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("wick", "chaos2", "chaos3", "mc", "cli")


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _monomials(args, kwargs, result):
    return {"monomials": len(args[0].terms)}


def _smallball_points(args, kwargs, result):
    return {"used": int(result.used.sum()), "grid": int(result.used.size)}


# counters recorded when the named span closes:
# span name -> fn(args, kwargs, result) -> {counter suffix: amount}
COUNTERS = {
    "chaos3.gamma_batch": _rows,
    "chaos3.spectra_batch": _rows,
    "chaos3.smallball_gamma3": _smallball_points,
    "chaos2.sample_gamma": _rows,
    "wick.isserlis_expectation": _monomials,
    "cli.write_csv": _csv_bytes,
}

# methods traced under their own span names: (module, class, method, span)
METHODS = (
    ("chaos3", "SymThreeTensor", "__init__", "chaos3.SymThreeTensor"),
    ("wick", "GaussianPolynomial", "__mul__", "wick.mul"),
    ("wick", "GaussianPolynomial", "__rmul__", "wick.mul"),
    ("chaos2", "DiagonalSecondChaos", "sample_gamma", "chaos2.sample_gamma"),
)


class _TimedGenerator:
    """Proxy for a numpy Generator that times its normal draws."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        tracer = self._tracer
        idx = tracer.open("mc.draw")
        try:
            out = self._rng.standard_normal(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.counts["mc.draw.normals"] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Records spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_run = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        if not self._stack:
            self._next_run += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self._next_run)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> list[tuple]:
        """(name, start, end, parent, run) for every recorded span."""
        return list(zip(self.names, self.starts, self.ends, self.parents,
                        self.runs))

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result
        return traced

    def _count_chunks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts["mc.samples"] += item[1]
                yield item
        return counted

    def _timed_generator(self, fn):
        tracer = self

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            tracer.counts["mc.blocks"] += 1
            return _TimedGenerator(fn(*args, **kwargs), tracer)
        return generator

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the layers of an imported wienerchaos package."""
        mods = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self._count_chunks(obj)
                else:
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # patch every binding of a wrapped function, in any layer module
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for layer, cls, meth, span in METHODS:
            owner = getattr(mods[layer], cls)
            self._patch(owner, meth, self.wrap(span, getattr(owner, meth)))
        rngspec = mods["mc"].RngSpec
        self._patch(rngspec, "generator",
                    self._timed_generator(rngspec.generator))
        experiments = mods["cli"].EXPERIMENTS
        for name, fn in list(experiments.items()):
            self._patches.append((experiments, name, fn))
            experiments[name] = self.wrap("cli.experiment", fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    spans: sequence of (name, start, end, parent, ...) with parent the
    index of the enclosing span or -1.  Overlapping children count once.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += own
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metrics: counters, call counts, inclusive and self seconds
COUNTED = ("mc.draw.normals", "mc.blocks", "mc.samples",
           "chaos3.gamma_batch.rows", "chaos3.spectra_batch.rows",
           "chaos2.sample_gamma.rows", "wick.isserlis_expectation.monomials",
           "cli.write_csv.bytes")
CALLED = ("mc.estimate", "wick.isserlis_expectation", "wick.mul")
INCLUSIVE = ("mc.draw", "chaos3.gamma_batch", "chaos3.spectra_batch",
             "chaos3.sharp_batch", "chaos3.trace_square_batch",
             "chaos3.kappa4_contraction", "chaos3.trace_form",
             "chaos3.SymThreeTensor", "chaos2.cross_gamma_stats",
             "chaos2.sample_gamma", "chaos2.negative_moment",
             "chaos2.density_by_inversion", "chaos2.sphere_kappa4_max",
             "wick.isserlis_expectation", "wick.mul",
             "wick.gamma_of_polynomial", "cli.parse_config",
             "cli.build_model", "cli.write_csv")
SELF = ("mc.estimate", "mc.estimate_complex", "chaos3.spectra_batch",
        "chaos3.smallball_gamma3", "chaos3.negative_moment_gamma3",
        "chaos3.sp_batch_estimate", "chaos2.cross_gamma_stats", "cli.run",
        "cli.experiment")


def layer_metrics(table: dict, counts: dict, wall_s: float) -> dict:
    """The benchmark's per-layer metrics of one traced pass."""
    def get(name, key):
        return table.get(name, {}).get(key, 0.0)

    m = {name: counts.get(name, 0.0) for name in COUNTED}
    m.update({f"{name}.calls": get(name, "calls") for name in CALLED})
    m.update({f"{name}.s": get(name, "s") for name in INCLUSIVE})
    m.update({f"{name}.self_s": get(name, "self_s") for name in SELF})
    m["mc.draw.normals_per_s"] = _ratio(m["mc.draw.normals"], m["mc.draw.s"])
    m["chaos3.gamma_batch.ns_per_row"] = 1e9 * _ratio(
        m["chaos3.gamma_batch.s"], m["chaos3.gamma_batch.rows"])
    m["chaos3.smallball.used_frac"] = _ratio(
        counts.get("chaos3.smallball_gamma3.used", 0.0),
        counts.get("chaos3.smallball_gamma3.grid", 0.0))
    library = sum(row["self_s"] for name, row in table.items()
                  if name.split(".")[0] in ("wick", "chaos2", "chaos3", "mc"))
    m["trace.covered_frac"] = _ratio(library, wall_s)
    return m
