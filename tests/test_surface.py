"""The public surface: exported names, the CLI's vocabulary and defaults, integer fields."""

import argparse

import numpy as np
import pytest

import bayesbag
from bayesbag import BagConfig, CenterPolicy, GridSpec, ResampleScheme, SchemeKind, Seed
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
