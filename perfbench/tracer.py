"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions at the module bindings that
run_pipeline and its callees look up at call time (for example
trackbounds.simulate.step_response, which settled_step_response calls), so
no file of the library changes. Each call made while an operation is open
records a span (name, start, end, parent, operation) and bumps the counts
its layer defines. Spans stay in memory until write_spans().

Layers are the library's modules. A binding that no longer exists is
recorded in `missing` and skipped, so a refactor that removes a function
shows as a missing layer instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# (module the caller looks the function up in, attribute, layer of the function)
BINDINGS = (
    ("trackbounds.pipeline", "run_pipeline", "pipeline"),
    ("trackbounds.pipeline", "emit", "pipeline"),
    ("trackbounds.pipeline", "format_summary", "pipeline"),
    ("trackbounds.pipeline", "build_wd", "family"),
    ("trackbounds.family", "omega_n_for", "timing"),
    ("trackbounds.timing", "newton_inverse_interp", "timing"),
    ("trackbounds.pipeline", "extract_metrics", "timing"),
    ("trackbounds.pipeline", "envelope_of", "envelope"),
    ("trackbounds.pipeline", "select_restricted", "envelope"),
    ("trackbounds.envelope", "freq_response", "tf_model"),
    ("trackbounds.ratfit", "freq_response", "tf_model"),
    ("trackbounds.pipeline", "freq_response", "tf_model"),
    ("trackbounds.pipeline", "fit", "ratfit"),
    ("trackbounds.pipeline", "cleanup", "ratfit"),
    ("trackbounds.pipeline", "report", "ratfit"),
    ("trackbounds.pipeline", "settled_step_response", "simulate"),
    ("trackbounds.simulate", "step_response", "simulate"),
)

# the same functions as the command-line front end looks them up
CLI_BINDINGS = (
    ("trackbounds.cli", "run_pipeline", "pipeline"),
    ("trackbounds.cli", "emit", "pipeline"),
    ("trackbounds.cli", "format_summary", "pipeline"),
)

LAYERS = ("pipeline", "family", "timing", "envelope", "tf_model", "ratfit", "simulate")


def _count(counts: Counter, site: str, attr: str, args, result, failed: bool) -> None:
    """Work counts of one call, taken at the layer boundary."""
    if attr == "newton_inverse_interp":
        counts["timing.newton_calls"] += 1
        # the caller falls back to bisection when the solver raises or its
        # estimate leaves the sample window
        times = args[0] if args else None
        if failed or times is None or not times[0] <= result <= times[-1]:
            counts["timing.newton_fallbacks"] += 1
    elif failed:
        return
    elif attr == "build_wd":
        counts["wd.pairs"] += len(result)
    elif attr == "freq_response":
        points = len(args[1])
        counts["tf_model.freq_points"] += points
        counts[f"tf_model.freq_points.{site}"] += points
    elif attr == "fit":
        counts["ratfit.fit_calls"] += 1
    elif attr == "cleanup":
        before, after = args[0], result
        counts["ratfit.roots_removed"] += (before.num_degree + before.den_degree
                                           - after.num_degree - after.den_degree)
    elif attr == "step_response":
        samples = result.values.size
        counts["simulate.step_calls"] += 1
        counts["simulate.samples_computed"] += samples
        # state history plus the times and values arrays, from their sizes
        counts["simulate.bytes_computed"] += samples * (args[0].den_degree + 2) * 8
    elif attr == "settled_step_response":
        counts["simulate.samples_kept"] += result.values.size
    elif attr == "emit":
        counts["emit.bytes"] += sum(os.path.getsize(p) for p in result)


class Tracer:
    """Span recorder; calls made while `op` is None are not recorded."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op, failed]
        self.counts = defaultdict(Counter)  # op -> counts
        self.missing = []
        self.op = None
        self._stack = []
        self._restore = []

    def install(self, bindings=BINDINGS) -> None:
        for module_name, attr, layer in bindings:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            site = module_name.rsplit(".", 1)[-1]
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", site, attr))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name: str, site: str, attr: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, op, True]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                span[5] = False
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                _count(self.counts[op], site, attr, args, result, span[5])
        return traced

    def close_open_spans(self) -> None:
        """End the spans of calls still running, as failed, at this instant;
        for a process about to be killed."""
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_s,end_s,parent,op,failed\n")
            for i, (name, start, end, parent, op, failed) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{int(failed)}\n")


def op_times(spans) -> dict:
    """Per operation: inclusive and self ms per span name.

    A span's self time is its duration minus the durations of its child
    spans.
    """
    durs = [(s[2] - s[1]) * 1e3 for s in spans]
    child = [0.0] * len(spans)
    for s, dur in zip(spans, durs):
        if s[3] >= 0:
            child[s[3]] += dur
    out = defaultdict(lambda: {"incl": Counter(), "self": Counter()})
    for s, dur, kids in zip(spans, durs, child):
        out[s[4]]["incl"][s[0]] += dur
        out[s[4]]["self"][s[0]] += dur - kids
    return out


def layer_metrics(spans, counts_by_op, ops, counted_ops) -> dict:
    """The per-layer metrics as {name: (value, unit)}.

    Times are means per op over the traced `ops`; counts are means per op
    over `counted_ops`, a fixed seeded set, so they repeat exactly.
    """
    times = op_times(spans)
    n = max(1, len(ops))

    def mean(kind, *names):
        return sum(times[op][kind][nm] for op in ops for nm in names) / n

    counts = Counter()
    for op in counted_ops:
        counts.update(counts_by_op.get(op, Counter()))
    k = max(1, len(counted_ops))

    def per_op(key):
        return counts[key] / k

    calls = counts["timing.newton_calls"]
    computed = counts["simulate.samples_computed"]
    metrics = {
        "wd.ms": (mean("incl", "family.build_wd"), "ms"),
        "wd.pairs": (per_op("wd.pairs"), "count"),
        "timing.newton_calls": (per_op("timing.newton_calls"), "count"),
        "timing.newton_fallbacks": (per_op("timing.newton_fallbacks"), "count"),
        "timing.newton_ok_frac": (
            (calls - counts["timing.newton_fallbacks"]) / calls if calls else 0.0, "frac"),
        "timing.metrics_ms": (mean("incl", "timing.extract_metrics"), "ms"),
        "envelope.ms": (mean("incl", "envelope.envelope_of"), "ms"),
        "select.ms": (mean("incl", "envelope.select_restricted"), "ms"),
        "tf_model.freq_points": (per_op("tf_model.freq_points"), "count"),
        "fit.ms": (mean("incl", "ratfit.fit", "ratfit.cleanup", "ratfit.report"), "ms"),
        "ratfit.fit_calls": (per_op("ratfit.fit_calls"), "count"),
        "ratfit.roots_removed": (per_op("ratfit.roots_removed"), "count"),
        "simulate.ms": (mean("incl", "simulate.settled_step_response"), "ms"),
        "simulate.step_calls": (per_op("simulate.step_calls"), "count"),
        "simulate.samples_computed": (per_op("simulate.samples_computed"), "count"),
        "simulate.samples_kept": (per_op("simulate.samples_kept"), "count"),
        "simulate.kept_frac": (
            counts["simulate.samples_kept"] / computed if computed else 0.0, "frac"),
        "simulate.bytes_computed": (per_op("simulate.bytes_computed"), "B"),
        "pipeline.self_ms": (mean("self", "pipeline.run_pipeline"), "ms"),
        "emit.ms": (mean("incl", "pipeline.emit"), "ms"),
        "emit.bytes": (per_op("emit.bytes"), "B"),
        "summary.ms": (mean("incl", "pipeline.format_summary"), "ms"),
    }
    names = {nm for op in ops for nm in times[op]["self"]}
    for layer in LAYERS:
        layer_names = [nm for nm in names if nm.split(".", 1)[0] == layer]
        metrics[f"self_ms.{layer}"] = (mean("self", *layer_names), "ms")
    return metrics
