"""Run one bayesbag CLI invocation under timing hooks and write its trace.

    python trace_launcher.py SRC_DIR TRACE_JSON -- <bayesbag arguments>

Times the numpy, scipy.special and bayesbag imports, installs a timing
wrapper on each function listed in ``SPAN_HOOKS`` (and a counter on each in
``COUNT_HOOKS``), calls ``bayesbag.cli.main`` and, when it returns, writes
the import times, spans ``(name, start, end, parent)``, counters and the
hooks whose targets were not found to TRACE_JSON.  Exits with the CLI's code.

A function is replaced in every ``bayesbag`` module namespace that holds it
(or, for ``LOCAL_TARGETS``, in its own module only), because callers look
names up in their own module's globals; a method is replaced on its class.
A target that no longer exists is recorded as absent and skipped.  The
benchmark's end-to-end runs never load this file.
"""

from __future__ import annotations

import json
import sys
import time
from importlib import import_module

clock = time.perf_counter

# (span name, module, attribute path) -- the path may name a class method.
# A function is replaced wherever the package holds it, unless the target is
# listed in LOCAL_TARGETS, where only its own module's callers see the hook.
SPAN_HOOKS = (
    ("cli.main", "bayesbag.cli", "main"),
    ("cli.parse", "bayesbag.cli", "build_parser"),
    ("cli.read_input", "bayesbag.cli", "read_observations"),
    ("resampling.resample", "bayesbag.resampling", "resample"),
    ("resampling.rng", "bayesbag.resampling", "Seed.rng"),
    ("model.dataset", "bayesbag.model", "Dataset.__init__"),
    ("model.posterior", "bayesbag.model", "posterior"),
    ("model.normal_quantile", "bayesbag.model", "normal_quantile"),
    ("bagging.bayesbag_mc", "bayesbag.bagging", "bayesbag_mc"),
    ("bagging.mixture_quantile", "bayesbag.bagging", "mixture_quantile"),
    ("bagging.mixture_cdf_eval", "bayesbag.bagging", "mixture_cdf_eval"),
    ("bagging.bayesbag_exact", "bayesbag.bagging", "bayesbag_exact"),
    ("diagnostics.build_band", "bayesbag.diagnostics", "build_band"),
    ("diagnostics.bagged_cdf_curves", "bayesbag.diagnostics", "bagged_cdf_curves"),
)

# (counter name, module, attribute path, amount counted from the result)
COUNT_HOOKS = (
    ("bagging.replicates", "bayesbag.bagging", "bayesbag_mc", len),
    ("diagnostics.grid_cells", "bayesbag.diagnostics", "_component_values", lambda a: a.size),
    ("diagnostics.grid_cells", "bayesbag.diagnostics", "_normal_curve", lambda a: a.size),
)

# grid helpers the bagging module also calls; count only the diagnostics layer
LOCAL_TARGETS = {
    ("bayesbag.diagnostics", "_component_values"),
    ("bayesbag.diagnostics", "_normal_curve"),
}


class Recorder:
    """Keeps spans and counters in memory until the process ends."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return timed

    def count(self, name, fn, amount):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(result)
            return result

        return counted

    def parse_span(self, build_parser):
        """Time building the parser and the parse_args call made on it."""
        timed_build = self.span("cli.parse", build_parser)

        def build():
            parser = timed_build()
            parser.parse_args = self.span("cli.parse", parser.parse_args)
            return parser

        return build


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) of a hook target, or None if absent."""
    try:
        owner = import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def install(recorder: Recorder) -> None:
    """Wrap every hook target that exists, in the place its callers look it up."""
    wrapped: dict[tuple[str, str], tuple] = {}
    for kind, hooks in (("count", COUNT_HOOKS), ("span", SPAN_HOOKS)):
        for hook in hooks:
            name, module_name, path = hook[:3]
            key = (module_name, path)
            if key not in wrapped:
                target = _resolve(module_name, path)
                if target is None:
                    recorder.absent.append(f"{name} ({module_name}.{path})")
                    continue
                wrapped[key] = (target, target[2])
            (owner, attr, original), current = wrapped[key]
            if kind == "count":
                current = recorder.count(name, current, hook[3])
            elif name == "cli.parse":
                current = recorder.parse_span(current)
            else:
                current = recorder.span(name, current)
            wrapped[key] = ((owner, attr, original), current)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "bayesbag" or n.startswith("bayesbag.")]
    for key, ((owner, attr, original), replacement) in wrapped.items():
        if isinstance(owner, type) or key in LOCAL_TARGETS:
            setattr(owner, attr, replacement)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    src_dir, trace_path, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, src_dir)
    imports = {}
    for label, module_name in (("numpy", "numpy"), ("scipy.special", "scipy.special"), ("bayesbag", "bayesbag.cli")):
        start = clock()
        import_module(module_name)
        imports[label] = clock() - start
    recorder = Recorder()
    install(recorder)
    cli = import_module("bayesbag.cli")
    code = cli.main(cli_args)
    sys.stdout.flush()
    trace = {
        "imports": imports,
        "spans": recorder.spans,
        "counts": recorder.counts,
        "absent": recorder.absent,
        "exit": code,
    }
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
