"""Span arithmetic and per-layer metrics for traced runs.

A trace is what ``trace_launcher.py`` writes for one CLI process: the
import times, a list of spans ``(name, start, end, parent)`` where
``parent`` is the index of the enclosing span or -1, hook counters, and the
hooks whose targets were not found.  A layer's self time is its span's
duration minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

from collections import defaultdict

# Per-layer metrics in report order, with their units.  Values are sums over
# the processes of one pass, except the ratios, which are formed from sums.
LAYER_METRICS = {
    "import.numpy_s": "s",
    "import.scipy_special_s": "s",
    "import.bayesbag_s": "s",
    "cli.parse_s": "s",
    "cli.read_input_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "resampling.resample_calls": "count",
    "resampling.resample_s": "s",
    "resampling.rng_s": "s",
    "model.dataset_calls": "count",
    "model.dataset_s": "s",
    "model.posterior_calls": "count",
    "model.posterior_s": "s",
    "model.normal_quantile_calls": "count",
    "model.normal_quantile_s": "s",
    "bagging.replicates": "count",
    "bagging.replicates_per_s": "1/s",
    "bagging.bayesbag_mc_self_s": "s",
    "bagging.mixture_quantile_s": "s",
    "bagging.mixture_cdf_eval_calls": "count",
    "bagging.cdf_evals_per_quantile": "ratio",
    "bagging.exact_s": "s",
    "diagnostics.grid_eval_s": "s",
    "diagnostics.grid_cells": "count",
    "trace.overhead_s": "s",
}

# Import phases timed by the launcher, keyed by the module imported.
IMPORT_METRICS = {
    "numpy": "import.numpy_s",
    "scipy.special": "import.scipy_special_s",
    "bayesbag": "import.bayesbag_s",
}


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (name, start, end, parent) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        result.append((end - start) - covered_length(clipped))
    return result


def summarize(trace) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive time and self time."""
    spans = [tuple(s) for s in trace["spans"]]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out


def layer_metrics(traces, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one pass from the traces of its processes."""
    span = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    imports: dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, entry in summarize(trace).items():
            for key, value in entry.items():
                span[name][key] += value
        for name, value in trace["counts"].items():
            counts[name] += value
        for module, seconds in trace["imports"].items():
            imports[IMPORT_METRICS[module]] += seconds

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    quantiles = span["bagging.mixture_quantile"]["calls"]
    mc_total = span["bagging.bayesbag_mc"]["total_s"]
    metrics = {
        **{name: imports[name] for name in IMPORT_METRICS.values()},
        "cli.parse_s": span["cli.parse"]["total_s"],
        "cli.read_input_s": span["cli.read_input"]["total_s"],
        "cli.self_s": span["cli.main"]["self_s"],
        "cli.bytes_written": float(bytes_written),
        "resampling.resample_calls": span["resampling.resample"]["calls"],
        "resampling.resample_s": span["resampling.resample"]["total_s"],
        "resampling.rng_s": span["resampling.rng"]["total_s"],
        "model.dataset_calls": span["model.dataset"]["calls"],
        "model.dataset_s": span["model.dataset"]["total_s"],
        "model.posterior_calls": span["model.posterior"]["calls"],
        "model.posterior_s": span["model.posterior"]["total_s"],
        "model.normal_quantile_calls": span["model.normal_quantile"]["calls"],
        "model.normal_quantile_s": span["model.normal_quantile"]["total_s"],
        "bagging.replicates": counts["bagging.replicates"],
        "bagging.replicates_per_s": ratio(counts["bagging.replicates"], mc_total),
        "bagging.bayesbag_mc_self_s": span["bagging.bayesbag_mc"]["self_s"],
        "bagging.mixture_quantile_s": span["bagging.mixture_quantile"]["total_s"],
        "bagging.mixture_cdf_eval_calls": span["bagging.mixture_cdf_eval"]["calls"],
        "bagging.cdf_evals_per_quantile": ratio(span["bagging.mixture_cdf_eval"]["calls"], quantiles),
        "bagging.exact_s": span["bagging.bayesbag_exact"]["total_s"],
        "diagnostics.grid_eval_s": span["diagnostics.build_band"]["self_s"]
        + span["diagnostics.bagged_cdf_curves"]["self_s"],
        "diagnostics.grid_cells": counts["diagnostics.grid_cells"],
    }
    return {name: float(value) for name, value in metrics.items()}
