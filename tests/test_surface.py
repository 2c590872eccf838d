"""The public surface: exported names, the CLI's vocabulary and defaults, field types."""

import argparse
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import bayesbag
from bayesbag import (
    BagConfig,
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    GridSpec,
    MixtureCdf,
    NormalDist,
    QuantilePair,
    ResampleScheme,
    SchemeKind,
    Seed,
    bayesbag_exact,
    bayesbag_quadrature,
    bootstrap_mean_law,
    resample,
)
from bayesbag.bagging import DEFAULT_LEVEL
from bayesbag.cli import build_parser

PUBLIC_NAMES = {
    "BagConfig", "BagReport", "CdfBand", "CenterPolicy", "Dataset",
    "GaussianLocationModel", "GridSpec", "MixtureCdf", "NormalDist",
    "QuantilePair", "ResampleScheme", "SchemeKind", "Seed", "bagged_cdf_curves",
    "bayesbag_exact", "bayesbag_mc", "bayesbag_quadrature", "bootstrap_mean_law",
    "build_band", "credible_interval", "evaluation_grid", "make_report",
    "mixture_cdf_eval", "mixture_quantile", "normal_quantile", "posterior", "resample",
}


def test_root_exports_the_public_names_once():
    assert set(bayesbag.__all__) == PUBLIC_NAMES
    assert len(bayesbag.__all__) == len(PUBLIC_NAMES)
    for name in bayesbag.__all__:
        assert getattr(bayesbag, name) is not None


def test_replicate_means_imports_from_resampling():
    from bayesbag.resampling import replicate_means

    assert callable(replicate_means)


def _flags(command):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {action.dest: action for action in subparsers.choices[command]._actions}


@pytest.mark.parametrize("command", ["bag", "curves"])
def test_cli_defaults_are_the_library_defaults(command):
    args = build_parser().parse_args([command])
    defaults = BagConfig()
    assert SchemeKind(args.scheme) is defaults.scheme.kind
    assert CenterPolicy(args.center) is defaults.center_policy
    assert args.B == defaults.replicates
    assert args.seed == defaults.seed
    assert args.level == DEFAULT_LEVEL


@pytest.mark.parametrize("command", ["bag", "curves"])
def test_cli_choices_are_the_enum_values(command):
    flags = _flags(command)
    assert flags["scheme"].choices == [kind.value for kind in SchemeKind]
    assert flags["center"].choices == [policy.value for policy in CenterPolicy]
    # --help lists them in this order
    assert flags["scheme"].choices == ["parametric", "nonparametric", "subsample"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: BagConfig(replicates=50.9),
        lambda: BagConfig(seed=42.7),
        lambda: GridSpec(2.9),
        lambda: ResampleScheme.subsample(1.5),
        lambda: Seed("7", True),
    ],
    ids=["replicates-float", "seed-float", "grid-points-float", "subsample-float", "seed-str"],
)
def test_integer_fields_reject_non_integers(build):
    with pytest.raises(TypeError):
        build()


def test_integer_fields_take_numpy_integers_as_ints():
    fields = [
        BagConfig(replicates=np.int64(50)).replicates,
        BagConfig(seed=np.uint64(42)).seed,
        GridSpec(np.int32(3)).points,
        ResampleScheme.subsample(np.uint8(2)).subsample_size,
        Seed(np.uint64(2**64 - 1)).master,
        Seed(7, np.int64(3)).replicate_index,
    ]
    assert fields == [50, 42, 3, 2, 2**64 - 1, 3]
    assert all(type(value) is int for value in fields)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianLocationModel("4", True),
        lambda: Dataset(("1.5", True, "3")),
        lambda: Dataset((1.5, np.True_)),
        lambda: NormalDist("0", True),
        lambda: NormalDist(0.0, b"1"),
        lambda: QuantilePair(False, 1.0),
        lambda: MixtureCdf(["1.0", "2"], [True, "0.5"]),
        lambda: MixtureCdf([1.0, 2.0], [True, True]),
        lambda: MixtureCdf([1.0, True], [1.0, 1.0]),
        lambda: MixtureCdf((1.0, 2.0), (1.0, np.True_)),
        lambda: BagConfig(replicates=True),
        lambda: Seed(False),
        lambda: Seed(7, True),
        lambda: GridSpec(True),
        lambda: ResampleScheme.subsample(True),
    ],
    ids=[
        "model-str-bool", "dataset-str-bool", "dataset-numpy-bool", "normal-str-bool",
        "normal-bytes", "quantile-pair-bool", "mixture-str", "mixture-bool-array",
        "mixture-bool-in-list", "mixture-numpy-bool-in-tuple", "replicates-bool", "seed-bool",
        "replicate-index-bool", "grid-points-bool", "subsample-bool",
    ],
)
def test_fields_refuse_strings_and_bools(build):
    with pytest.raises(TypeError):
        build()


MODEL = GaussianLocationModel(4.0, 1.0)
DATA = Dataset((1.325,))


@pytest.mark.parametrize(
    "build",
    [
        lambda: BagConfig(center_policy="map", scheme=ResampleScheme.nonparametric()),
        lambda: BagConfig(center_policy=None),
        lambda: BagConfig(scheme="parametric"),
        lambda: BagConfig(scheme=SchemeKind.SUBSAMPLE),
        lambda: ResampleScheme("subsample"),
        lambda: bayesbag_exact(MODEL, DATA, "map"),
        lambda: bayesbag_quadrature(MODEL, DATA, 0.0, "map"),
        lambda: bootstrap_mean_law(MODEL, DATA, "mean"),
        lambda: resample(ResampleScheme.parametric(), MODEL, DATA, "map", Seed(0)),
    ],
    ids=[
        "config-center-str", "config-center-none", "config-scheme-str", "config-scheme-kind",
        "scheme-kind-str", "exact-center-str",
        "quadrature-center-str", "law-center-str", "resample-center-str",
    ],
)
def test_enum_fields_refuse_non_members(build):
    # the value of a member is not the member: "map" must not pass for the
    # sample mean, nor an index scheme's name for the scheme
    with pytest.raises(TypeError):
        build()


def test_real_fields_take_numpy_scalars_as_floats():
    mix = MixtureCdf(np.array([1, 2], dtype=np.int32), np.array([0.5, 2.0], dtype=np.float32))
    fields = [
        GaussianLocationModel(np.float32(4.0), np.int64(1)).sigma_sq,
        *Dataset((np.float64(1.5), np.int8(2), 3)).observations,
        NormalDist(np.uint16(3), np.float32(0.25)).variance,
        QuantilePair(np.float32(-1.5), np.float64(1.5)).hi,
    ]
    assert fields == [1.0, 1.5, 2.0, 3.0, 0.25, 1.5]
    assert all(type(value) is float for value in fields)
    assert mix.means.tolist() == [1.0, 2.0] and mix.variances.tolist() == [0.5, 2.0]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_import_guard_sees_an_unused_import():
    source = (Path(bayesbag.__file__).parent / "diagnostics.py").read_text(encoding="utf-8")
    assert unused_imports(source.replace("from dataclasses", "import math\nfrom dataclasses", 1)) == ["math"]
    assert unused_imports("from .a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize(
    "module",
    sorted(Path(bayesbag.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_every_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """Module-level ``_function``, ``_Class`` and ``_CONSTANT`` names that ``source`` defines."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names |= {elt.id for elt in elts if isinstance(elt, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Names ``source`` reads, imports or spells as a dotted string (a hook or patch target)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(bayesbag.__file__).parent.glob("*.py"))
READERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def test_private_name_guard_sees_an_unreferenced_name():
    source = (Path(bayesbag.__file__).parent / "diagnostics.py").read_text(encoding="utf-8")
    orphaned = source + "\n\ndef _orphan():\n    return _ORPHAN\n\n\n_ORPHAN = 1\n"
    assert private_definitions(orphaned) - private_definitions(source) == {"_orphan", "_ORPHAN"}
    assert "_orphan" not in referenced_names(orphaned)
    assert "_ORPHAN" in referenced_names(orphaned)


@pytest.mark.parametrize("module", SOURCES, ids=lambda path: path.name)
def test_every_private_name_is_referenced(module):
    # a private name that nothing reads is dead code; the companion of
    # test_every_import_is_used
    referenced = set().union(
        *(referenced_names(path.read_text(encoding="utf-8")) for path in READERS)
    )
    defined = private_definitions(module.read_text(encoding="utf-8"))
    assert sorted(defined - referenced) == []


def callers(source: str, name: str) -> list[str]:
    """Per call of ``name`` in ``source``, the innermost function holding it, or ``"<module>"``.

    A call of ``name`` is one whose callee reads ``name`` or ``<anything>.name``.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and f".{ast.unparse(child.func)}".endswith(f".{name}"):
                found.append(function)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_fork_guard_sees_a_second_call_site():
    source = (Path(bayesbag.__file__).parent / "cli.py").read_text(encoding="utf-8")
    copied = source + "\n\ndef _second_split():\n    if os.fork() == 0:\n        os._exit(0)\n"
    assert callers(copied, "os.fork") == [*callers(source, "os.fork"), "_second_split"]
    assert callers("import os\nos.fork()\n", "os.fork") == ["<module>"]


def test_one_function_forks():
    # the CSV writer alone splits work across processes, through one fork,
    # reap and done-flag loop
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert [name for source in sources for name in callers(source, "os.fork")] == ["_split"]
    assert [name for source in sources for name in callers(source, "_split")] == ["_write_csv"]


def test_cpu_count_guard_sees_a_second_call_site():
    source = (Path(bayesbag.__file__).parent / "cli.py").read_text(encoding="utf-8")
    copied = source + "\n\ndef _second_plan(n):\n    return min(n, _usable_cpus())\n"
    assert callers(copied, "_usable_cpus") == [*callers(source, "_usable_cpus"), "_second_plan"]
    assert callers("_usable_cpus()\n", "_usable_cpus") == ["<module>"]
    assert callers("_not_usable_cpus()\n", "_usable_cpus") == []


def test_one_function_counts_cpus():
    # the CSV writer takes its runs from one planner, so whether and how
    # work splits is decided in one place
    found = [name for path in SOURCES for name in callers(path.read_text(encoding="utf-8"), "_usable_cpus")]
    assert found == ["_runs"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_process_import_guard_sees_a_nested_import():
    assert imported_modules("def f():\n    import mmap\n    from os import path\n") == {"mmap", "os"}
    assert imported_modules("from .cli import _split\nimport os.path\n") == {"os"}


@pytest.mark.parametrize("module", ["model", "resampling", "bagging", "diagnostics"])
def test_computing_modules_import_no_process_tools(module):
    # processes and shared memory belong to the CLI's CSV writer alone
    source = (Path(bayesbag.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert imported_modules(source) & {"os", "mmap"} == set()


def names_read(source: str) -> set[str]:
    """Names ``source`` loads or takes as an attribute, outside the module-level def or class of that name.

    A string, such as an ``__all__`` entry, is no read, and neither is a
    function's call of itself.
    """
    names = set()
    for statement in ast.parse(source).body:
        read = {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
        read |= {
            node.id for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read.discard(getattr(statement, "name", None))
        names |= read
    return names


def unread_public_names(sources, readme: str, public) -> list[str]:
    """Names of ``public`` that no source reads and that begin no code span of ``readme``."""
    read = set().union(*map(names_read, sources))
    documented = set(re.findall(r"`([A-Za-z_]\w*)", readme))
    return sorted(set(public) - read - documented)


def test_public_name_guard_sees_an_unread_name():
    orphans = (
        "__all__ = ['orphan', 'Orphan']\n\n\n"
        "def orphan(x):\n    return orphan(x - 1) if x else Orphan\n\n\n"
        "class Orphan:\n    pass\n"
    )
    public = ["orphan", "Orphan"]
    assert unread_public_names([orphans], "", public) == ["orphan"]
    assert unread_public_names([orphans, "orphan(3)\n"], "", public) == []
    assert unread_public_names([orphans], "Call `orphan(x)`.", public) == []


def test_every_public_name_is_read_or_documented():
    # a public name that the package never reads and README never names
    # serves no caller; the companion of test_every_private_name_is_referenced
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_public_names(sources, readme, bayesbag.__all__) == []
