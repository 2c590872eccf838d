"""The public surface: exported names, the CLI's vocabulary and defaults, field types."""

import argparse
import ast
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
    PointEstimate,
    QuantilePair,
    ResampleScheme,
    SchemeKind,
    Seed,
)
from bayesbag.bagging import DEFAULT_LEVEL
from bayesbag.cli import build_parser

PUBLIC_NAMES = {
    "BagConfig", "BagReport", "CdfBand", "CenterPolicy", "Dataset",
    "GaussianLocationModel", "GridSpec", "MixtureCdf", "NormalDist", "PointEstimate",
    "QuantilePair", "ResampleScheme", "SchemeKind", "Seed", "bagged_cdf_curves",
    "bayesbag_exact", "bayesbag_mc", "bayesbag_quadrature", "bootstrap_mean_law",
    "build_band", "credible_interval", "evaluation_grid", "make_report",
    "map_point_estimate", "mixture_cdf_eval", "mixture_quantile", "normal_cdf",
    "normal_pdf", "normal_quantile", "point_estimate", "posterior", "resample",
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
        lambda: PointEstimate("1.5"),
        lambda: QuantilePair(False, 1.0),
        lambda: MixtureCdf(["1.0", "2"], [True, "0.5"]),
        lambda: MixtureCdf([1.0, 2.0], [True, True]),
        lambda: BagConfig(replicates=True),
        lambda: Seed(False),
        lambda: Seed(7, True),
        lambda: GridSpec(True),
        lambda: ResampleScheme.subsample(True),
    ],
    ids=[
        "model-str-bool", "dataset-str-bool", "dataset-numpy-bool", "normal-str-bool",
        "normal-bytes", "point-estimate-str", "quantile-pair-bool", "mixture-str",
        "mixture-bool-array", "replicates-bool", "seed-bool", "replicate-index-bool",
        "grid-points-bool", "subsample-bool",
    ],
)
def test_fields_refuse_strings_and_bools(build):
    with pytest.raises(TypeError):
        build()


def test_real_fields_take_numpy_scalars_as_floats():
    mix = MixtureCdf(np.array([1, 2], dtype=np.int32), np.array([0.5, 2.0], dtype=np.float32))
    fields = [
        GaussianLocationModel(np.float32(4.0), np.int64(1)).sigma_sq,
        *Dataset((np.float64(1.5), np.int8(2), 3)).observations,
        NormalDist(np.uint16(3), np.float32(0.25)).variance,
        PointEstimate(np.int64(-2)).value,
        QuantilePair(np.float32(-1.5), np.float64(1.5)).hi,
    ]
    assert fields == [1.0, 1.5, 2.0, 3.0, 0.25, -2.0, 1.5]
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
