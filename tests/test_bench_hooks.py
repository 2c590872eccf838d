"""The benchmark's trace hooks must name functions that exist in the package.

``bench/trace_launcher.py`` skips a hook whose target is gone and records it
as absent, so a renamed function would silently drop a per-layer metric.
The launcher is loaded in-process and only its lookup is called: no
process is started and no file is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "bench" / "trace_launcher.py"


@pytest.fixture(scope="module")
def launcher():
    spec = importlib.util.spec_from_file_location("_bench_trace_launcher", LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # no bench/__pycache__
        spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(launcher):
    hooks = launcher.SPAN_HOOKS + launcher.COUNT_HOOKS
    absent = [f"{module}.{path}" for _, module, path, *_ in hooks
              if launcher._resolve(module, path) is None]
    assert absent == []
