"""CLI tests: flags, outputs, error contracts, determinism."""

import csv
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bayesbag
from bayesbag import (
    BagConfig,
    CenterPolicy,
    Dataset,
    GaussianLocationModel,
    GridSpec,
    ResampleScheme,
    Seed,
    bagged_cdf_curves,
    bayesbag_exact,
    build_band,
    credible_interval,
    make_report,
    posterior,
    resample,
)
from bayesbag.bagging import _QUANTILE_CDF_TOL, RESOLUTION_ULPS
from bayesbag import cli
from bayesbag.cli import (
    _derived_master,
    _fill,
    _grid_template,
    _runs,
    _split,
    _usable_cpus,
    _write_table,
    main,
    read_observations,
    synthetic_dataset,
)
from bayesbag.diagnostics import DEFAULT_GRID_POINTS
from bayesbag.model import _normal_cdf

MODEL = GaussianLocationModel(4.0, 1.0)

# ten values that average to exactly 0.72775 (offsets are powers of two, so
# the exact sum telescopes back to 10 * 0.72775)
A = 0.72775
TEN_VALUES = [A + 0.125, A - 0.125, A + 0.25, A - 0.25, A + 0.0625,
              A - 0.0625, A + 0.5, A - 0.5, A, A]


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_python(*args, **env):
    """Run a fresh interpreter on ``args`` with this checkout on its path; ``env`` sets variables, None unsets one."""
    src = str(Path(bayesbag.__file__).resolve().parents[1])
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=environ, timeout=120
    )


WIDE_DRAWS = [repr(v) for v in (10.0 * np.random.default_rng(7).standard_normal(100)).tolist()]


class TestTable1:
    def test_exact_rows(self, tmp_path):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "table1.csv")
        assert [r["n"] for r in rows] == ["1", "10"]

        n1, n10 = rows
        assert (n1["posterior_lo_2dp"], n1["posterior_hi_2dp"]) == ("-0.69", "2.81")
        assert (n10["posterior_lo_2dp"], n10["posterior_hi_2dp"]) == ("0.10", "1.32")
        # published bagged rows, within the documented slack before rounding
        assert float(n1["bayesbag_lo"]) == pytest.approx(-1.30, abs=0.015)
        assert float(n1["bayesbag_hi"]) == pytest.approx(3.41, abs=0.015)
        assert float(n10["bayesbag_lo"]) == pytest.approx(-0.16, abs=0.02)
        assert float(n10["bayesbag_hi"]) == pytest.approx(1.56, abs=0.02)
        # rounded view is the rounding of the full-precision column
        for row in rows:
            for col in ("posterior_lo", "posterior_hi", "bayesbag_lo", "bayesbag_hi"):
                assert f"{float(row[col]):.2f}" == row[col + "_2dp"]

    def test_mc_agrees_with_exact(self, tmp_path):
        exact_dir = tmp_path / "exact"
        mc_dir = tmp_path / "mc"
        assert main(["table1", "--exact", "--out", str(exact_dir)]) == 0
        assert main(["table1", "--mc", "--B", "10000", "--out", str(mc_dir)]) == 0
        for exact, mc in zip(read_rows(exact_dir / "table1.csv"), read_rows(mc_dir / "table1.csv")):
            assert float(mc["bayesbag_lo"]) == pytest.approx(float(exact["bayesbag_lo"]), abs=0.03)
            assert float(mc["bayesbag_hi"]) == pytest.approx(float(exact["bayesbag_hi"]), abs=0.03)

    def test_simulate_uses_fresh_data(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["table1", "--simulate", "--seed", "1", "--out", str(a)]) == 0
        assert main(["table1", "--simulate", "--seed", "2", "--out", str(b)]) == 0
        row_a = read_rows(a / "table1.csv")[0]
        row_b = read_rows(b / "table1.csv")[0]
        assert row_a["posterior_lo"] != row_b["posterior_lo"]

    def test_module_entry_point(self, tmp_path):
        result = run_python("-m", "bayesbag.cli", "table1", "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert "95% credible intervals" in result.stdout
        assert [r["n"] for r in read_rows(tmp_path / "table1.csv")] == ["1", "10"]

    def test_runs_without_importing_scipy(self, tmp_path):
        # scipy is a test dependency only; importing it would cost every
        # process most of its start-up time.  numpy is the only runtime
        # dependency: every other module the CLI adds, once a Monte Carlo
        # run has loaded numpy for real, is the standard library's or the
        # Cython runtime that numpy.random's extensions register (site may
        # have loaded third-party modules before it)
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from bayesbag.cli import main\n"
            f"assert main(['table1', '--mc', '--B', '20', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'numpy._core' in sys.modules\n"
            "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "added = {m for m in added if m != 'cython_runtime' and not m.startswith('_cython_')}\n"
            "print(sorted(added - {'bayesbag', 'numpy'} - sys.stdlib_module_names))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["[]", "[]"]

    def test_exact_table1_loads_no_numpy(self, tmp_path):
        # the closed form is pure Python; numpy is imported at the first
        # read of one of its names, so its real package is the test
        code = (
            "import sys\n"
            "from bayesbag.cli import entrypoint\n"
            "for out, flags in ((sys.argv[1], []), (sys.argv[2], ['--mc', '--B', '20'])):\n"
            "    sys.argv = ['bayesbag', 'table1', '--out', out, *flags]\n"
            "    try:\n"
            "        entrypoint()\n"
            "    except SystemExit as exit:\n"
            "        assert exit.code == 0, exit.code\n"
            "    print('numpy loaded:', 'numpy._core' in sys.modules)\n"
        )
        result = run_python("-c", code, str(tmp_path / "exact"), str(tmp_path / "mc"))
        assert result.returncode == 0, result.stderr
        loaded = [line for line in result.stdout.splitlines() if line.startswith("numpy loaded:")]
        assert loaded == ["numpy loaded: False", "numpy loaded: True"]
        # the same bytes as a run in this process, where numpy is loaded
        assert main(["table1", "--out", str(tmp_path / "here")]) == 0
        assert (tmp_path / "exact" / "table1.csv").read_bytes() == (
            tmp_path / "here" / "table1.csv"
        ).read_bytes()

    def test_first_numpy_use_from_threads_at_once(self):
        # eight threads reach numpy's first use together, in a process that
        # has not imported it yet; every one must see the whole module
        code = (
            "import sys, threading\n"
            "from bayesbag import MixtureCdf, credible_interval\n"
            "assert 'numpy._core' not in sys.modules\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier, errors = threading.Barrier(8), []\n"
            "def work():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        credible_interval(MixtureCdf([0.0, 1.0], [1.0, 1.0]))\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=work) for _ in range(8)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(timeout=60)\n"
            "print(errors, sum(thread.is_alive() for thread in threads))\n"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[] 0"

    def test_library_use_leaves_the_environment_alone(self, tmp_path):
        # importing the package and calling main as a library set no
        # variable, so numpy starts the BLAS threads a bare import starts
        threads = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None"
        code = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import bayesbag, bayesbag.cli\n"
            "assert dict(os.environ) == before\n"
            "assert bayesbag.cli.main(['table1', '--mc', '--B', '20', '--out', sys.argv[1]]) == 0\n"
            "assert 'numpy._core' in sys.modules\n"
            "print(dict(os.environ) == before)\n"
            f"print({threads})\n"
        )
        result = run_python("-c", code, str(tmp_path))
        bare = run_python("-c", f"import os\nimport numpy\nprint({threads})\n")
        assert result.returncode == 0, result.stderr
        assert bare.returncode == 0, bare.stderr
        assert result.stdout.splitlines()[-2:] == ["True", bare.stdout.strip()]

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")], ids=["unset", "user-set"])
    def test_entrypoint_defaults_to_one_blas_thread(self, tmp_path, preset, expected):
        code = (
            "import os, sys\n"
            "from bayesbag.cli import entrypoint\n"
            "sys.argv = ['bayesbag', 'table1', '--out', sys.argv[1]]\n"
            "try:\n"
            "    entrypoint()\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        result = run_python("-c", code, str(tmp_path), OPENBLAS_NUM_THREADS=preset)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == expected


class TestBag:
    def test_monte_carlo_curve_forks_no_child(self, tmp_path):
        # 6,000 replicates x 401 points: the bagged curve is evaluated in this
        # process, and cdf.csv's 1,203 cells are too few to split its writing
        flags = ["bag", "--synthetic-n", "20", "--scheme", "nonparametric", "--B", "6000"]
        code = (
            "import os, sys\n"
            "from bayesbag.cli import entrypoint\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
            "sys.argv = ['bayesbag', *sys.argv[1:]]\n"
            "try:\n"
            "    entrypoint()\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
            "print('forks:', len(forks))\n"
        )
        result = run_python("-c", code, *flags, "--out", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "forks: 0"

    @pytest.mark.parametrize(
        "lines, flags",
        [
            # 100 draws of N(0, 10**2) against the model's sigma_sq of 1: the
            # replicate means spread ten times wider than the closed form says
            *[
                (WIDE_DRAWS, ["--sigma-sq", "1", "--scheme", scheme])
                for scheme in ("nonparametric", "subsample")
            ],
            # replicate posterior means of about -6.7e159, 0 and 6.7e159, each
            # with sd 5.8e149, whose variance overflows a float
            (["x", "1e160", "-1e160"],
             ["--tau-sq", "1e300", "--sigma-sq", "1e300", "--scheme", "nonparametric", "--B", "400"]),
        ],
        ids=["wide-nonparametric", "wide-subsample", "near-largest-floats"],
    )
    def test_grid_covers_the_bag_it_plots(self, tmp_path, lines, flags):
        write_lines(tmp_path / "data.csv", lines)
        assert main(["bag", "--input", str(tmp_path / "data.csv"), *flags, "--out", str(tmp_path)]) == 0
        grid, _, bagged = np.loadtxt(tmp_path / "cdf.csv", delimiter=",", skiprows=1).T
        (row,) = read_rows(tmp_path / "report.csv")
        assert bagged[0] < 1e-6 and bagged[-1] > 1 - 1e-6
        assert grid[0] < float(row["bayesbag_lo"]) < float(row["bayesbag_hi"]) < grid[-1]

    def test_single_value_file_matches_reference_row(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.325"])
        assert main(["bag", "--input", str(data_file), "--out", str(tmp_path)]) == 0
        (row,) = read_rows(tmp_path / "report.csv")
        post = credible_interval(posterior(MODEL, Dataset((1.325,))))
        bag = credible_interval(bayesbag_exact(MODEL, Dataset((1.325,))))
        assert float(row["posterior_lo"]) == post.lo
        assert float(row["posterior_hi"]) == post.hi
        assert float(row["bayesbag_lo"]) == bag.lo
        assert float(row["bayesbag_hi"]) == bag.hi
        assert row["degenerate_resampling"] == "0"

    def test_ten_value_file_matches_reference_row(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, [repr(v) for v in TEN_VALUES])
        assert main(["bag", "--input", str(data_file), "--out", str(tmp_path)]) == 0
        (row,) = read_rows(tmp_path / "report.csv")
        assert row["n"] == "10"
        reference = make_report(MODEL, Dataset(tuple(TEN_VALUES)), BagConfig(replicates=1000))
        assert float(row["bayesbag_lo"]) == reference.bagged_interval.lo
        assert float(row["bayesbag_hi"]) == reference.bagged_interval.hi
        assert float(row["widening_ratio"]) == reference.widening_ratio
        table = np.loadtxt(tmp_path / "cdf.csv", delimiter=",", skiprows=1)
        curves = np.column_stack((reference.grid, reference.posterior_curve, reference.bagged_curve))
        assert table.shape == curves.shape
        assert table.tobytes() == curves.tobytes()

    def test_cdf_curve_columns(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.325"])
        assert main(["bag", "--input", str(data_file), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "cdf.csv")
        assert len(rows) == 401
        bag = bayesbag_exact(MODEL, Dataset((1.325,)))
        u = np.array([float(row["u"]) for row in rows])
        F = np.array([float(row["F_bayesbag"]) for row in rows])
        assert F.tolist() == _normal_cdf(u, bag.mean, bag.sd).tolist()

    def test_byte_order_mark_keeps_first_observation(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"1.5\n2.5\n")
        marked.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n")
        for path in (plain, marked):
            assert main(["bag", "--input", str(path), "--out", str(tmp_path / path.stem)]) == 0
        report = (tmp_path / "plain" / "report.csv").read_bytes()
        assert (tmp_path / "marked" / "report.csv").read_bytes() == report
        assert read_rows(tmp_path / "plain" / "report.csv")[0]["n"] == "2"

    def test_header_autodetected(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["value", "1.0", "", "   ", "2.0", ""])
        assert read_observations(data_file).n == 2

    def test_empty_file_exit_code(self, tmp_path, capsys):
        data_file = tmp_path / "empty.csv"
        data_file.write_text("", encoding="utf-8")
        assert main(["bag", "--input", str(data_file), "--out", str(tmp_path)]) == 2
        assert "empty dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["oops", "nan", "inf"])
    def test_malformed_row_reports_line_number(self, tmp_path, capsys, row):
        data_file = tmp_path / "bad.csv"
        write_lines(data_file, ["1.0", row, "2.0"])
        assert main(["bag", "--input", str(data_file), "--out", str(tmp_path)]) == 2
        assert f"{data_file}: line 2: " in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["bag", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    def test_unexpected_exception_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(bayesbag.cli, "make_report", fail)
        assert main(["bag", "--synthetic-n", "3", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "internal error: boom\n"

    def test_input_and_synthetic_are_exclusive(self, tmp_path, capsys):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.0"])
        assert (
            main(["bag", "--input", str(data_file), "--synthetic-n", "5", "--out", str(tmp_path)])
            == 2
        )
        assert main(["bag", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "lines, replicates, degenerate",
        [(["1.325"], 1000, True), (["1.0", "2.0", "3.5"], 1, False)],
        # one replicate has no spread to lack, so it is not flagged
        ids=["one-observation", "one-replicate"],
    )
    def test_nonparametric_degenerate_warning(self, tmp_path, capsys, lines, replicates, degenerate):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, lines)
        rc = main([
            "bag", "--input", str(data_file), "--scheme", "nonparametric",
            "--B", str(replicates), "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert ("degenerate" in out) is degenerate
        assert f"method: mc(B={replicates})\n" in out.splitlines(keepends=True)
        (row,) = read_rows(tmp_path / "report.csv")
        assert row["degenerate_resampling"] == str(int(degenerate))
        if degenerate:
            assert float(row["widening_ratio"]) == 1.0

    def test_synthetic_roundtrip_through_file(self, tmp_path):
        gen_dir = tmp_path / "gen"
        file_dir = tmp_path / "file"
        args = ["--B", "500", "--seed", "9", "--scheme", "nonparametric"]
        rc = main([
            "bag", "--synthetic-n", "15", "--synthetic-theta", "1.31",
            "--synthetic-seed", "77", "--out", str(gen_dir), *args,
        ])
        assert rc == 0
        rc = main(["bag", "--input", str(gen_dir / "data.csv"), "--out", str(file_dir), *args])
        assert rc == 0
        assert (gen_dir / "report.csv").read_bytes() == (file_dir / "report.csv").read_bytes()
        assert (gen_dir / "cdf.csv").read_bytes() == (file_dir / "cdf.csv").read_bytes()

    def test_synthetic_data_stream_apart_from_replicate_streams(self, tmp_path):
        # --synthetic-seed and --seed both default to 42; parametric replicate
        # 0 must not be the data's own draws shifted by a constant
        assert main(["bag", "--synthetic-n", "25", "--out", str(tmp_path)]) == 0
        data = read_observations(tmp_path / "data.csv")
        replicate = resample(ResampleScheme.parametric(), MODEL, data, CenterPolicy.SAMPLE_MEAN, Seed(42, 0))
        assert abs(np.corrcoef(data.observations, replicate.observations)[0, 1]) < 0.9

    def test_level_round_trips_through_report(self, tmp_path, capsys):
        # six significant digits would print 1 and "100% interval"
        rc = main(["bag", "--synthetic-n", "5", "--level", "0.9999999", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "posterior 99.99999% interval" in out
        assert "method: exact (--B and --seed not used)\n" in out.splitlines(keepends=True)
        (row,) = read_rows(tmp_path / "report.csv")
        assert float(row["level"]) == 0.9999999


class TestCurves:
    def test_row_count_and_sentinels(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.325"])
        rc = main([
            "curves", "--input", str(data_file), "--B", "2",
            "--grid-points", "11", "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = read_rows(tmp_path / "curves.csv")
        assert len(rows) == 2 * 11 + 2 * 11
        ids = {row["replicate_id"] for row in rows}
        assert ids == {"0", "1", "-1", "-2"}

    def test_byte_identical_reruns(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.325"])
        args = ["curves", "--input", str(data_file), "--B", "50", "--grid-points", "31",
                "--seed", "4"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

    def test_mean_rows_close_to_exact(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.325"])
        rc = main([
            "curves", "--input", str(data_file), "--B", "500",
            "--grid-points", "101", "--seed", "10", "--out", str(tmp_path),
        ])
        assert rc == 0
        bag = bayesbag_exact(MODEL, Dataset((1.325,)))
        u, F = np.array([
            (float(row["u"]), float(row["F"]))
            for row in read_rows(tmp_path / "curves.csv")
            if row["replicate_id"] == "-1"
        ]).T
        assert len(F) == 101
        assert np.max(np.abs(F - _normal_cdf(u, bag.mean, bag.sd))) <= 1.36 / math.sqrt(500) + 0.005

    def test_posterior_sentinel_matches_model(self, tmp_path):
        data_file = tmp_path / "obs.csv"
        write_lines(data_file, ["1.325"])
        rc = main([
            "curves", "--input", str(data_file), "--B", "2",
            "--grid-points", "11", "--out", str(tmp_path),
        ])
        assert rc == 0
        post = posterior(MODEL, Dataset((1.325,)))
        u, F = np.array([
            (float(row["u"]), float(row["F"]))
            for row in read_rows(tmp_path / "curves.csv")
            if row["replicate_id"] == "-2"
        ]).T
        assert len(F) == 11
        assert F.tolist() == _normal_cdf(u, post.mean, post.sd).tolist()


def per_cell_csv(header, rows):
    """Reference CSV bytes: every float cell through "{:.17g}".format, row by row."""
    def cell(value):
        return value if isinstance(value, str) else "{:.17g}".format(value)

    lines = [header] + [",".join(cell(value) for value in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestFloatCsv:
    """The template writer writes the bytes of per-cell "{:.17g}".format."""

    EDGE_FLOATS = (-0.0, 5e-324, 1e-300, 0.1, 1 - 2**-53, 1e16)

    def test_files_match_per_cell_reference(self, tmp_path):
        flags = ["--synthetic-n", "7", "--synthetic-theta", "0.3", "--synthetic-seed", "5",
                 "--scheme", "nonparametric", "--B", "2", "--seed", "11"]
        curves_dir, bag_dir = tmp_path / "curves", tmp_path / "bag"
        assert main(["curves", *flags, "--grid-points", "2", "--out", str(curves_dir)]) == 0
        assert main(["bag", *flags, "--out", str(bag_dir)]) == 0

        data = synthetic_dataset(7, 0.3, 1.0, _derived_master(5, 0))
        cfg = BagConfig(2, ResampleScheme.nonparametric(), 11)
        band = build_band(MODEL, data, cfg, GridSpec(2))
        post = posterior(MODEL, data)
        curve_rows = [
            (str(b), u, value)
            for b in range(2)
            for u, value in zip(band.grid, band.per_replicate[b])
        ]
        curve_rows += [("-1", u, value) for u, value in zip(band.grid, band.mean_curve)]
        curve_rows += [("-2", u, value) for u, value in zip(band.grid, _normal_cdf(band.grid, post.mean, post.sd))]
        assert (curves_dir / "curves.csv").read_bytes() == per_cell_csv("replicate_id,u,F", curve_rows)

        grid, post_curve, bag_curve = bagged_cdf_curves(MODEL, data, cfg)[:3]
        assert (bag_dir / "cdf.csv").read_bytes() == per_cell_csv(
            "u,F_posterior,F_bayesbag", zip(grid, post_curve, bag_curve)
        )
        data_rows = [(x,) for x in data.observations]
        for out in (curves_dir, bag_dir):
            assert (out / "data.csv").read_bytes() == per_cell_csv("observation", data_rows)

    def test_edge_floats(self, tmp_path):
        # 6,000 rows also cross a block boundary of the data writer
        values = self.EDGE_FLOATS * 1000
        _write_table(tmp_path / "data.csv", "observation", Dataset(values).observations)
        expected = per_cell_csv("observation", [(x,) for x in values])
        assert (tmp_path / "data.csv").read_bytes() == expected

        grid = np.array(self.EDGE_FLOATS)
        block = _fill(_grid_template(grid, "{0},", 1).format(-2), grid[::-1])
        rows = [("-2", u, value) for u, value in zip(grid, grid[::-1])]
        assert block.encode("utf-8") == per_cell_csv("h", rows)[2:]
        _write_table(tmp_path / "cdf.csv", "h", grid, grid, grid[::-1])
        rows = [(u, u, value) for u, value in zip(grid, grid[::-1])]
        assert (tmp_path / "cdf.csv").read_bytes() == per_cell_csv("h", rows)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@given(
    count=st.integers(0, 1000),
    cells=st.integers(0, 10**6),
    part_cells=st.integers(1, 10**5),
    usable=st.integers(1, 64),
)
def test_runs_cover_the_work_in_order(count, cells, part_cells, usable):
    asked = []
    with pytest.MonkeyPatch.context() as patch:  # forks nothing: only the CPU count is read
        patch.setattr(cli, "_usable_cpus", lambda: asked.append(usable) or usable)
        runs = _runs(count, cells, part_cells)
    could = min(count, cells // part_cells)
    assert len(runs) == max(1, min(could, usable))
    assert asked == ([usable] if could >= 2 else [])
    assert [index for run in runs for index in run] == list(range(count))
    assert all(run.step == 1 for run in runs)
    assert [run.stop for run in runs[:-1]] == [run.start for run in runs[1:]]
    assert max(map(len, runs)) - min(map(len, runs)) <= 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="_split forks")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
@pytest.mark.parametrize("failure", ["fork", "raises", "killed"])
def test_split_returns_the_unfinished_parts_in_order(monkeypatch, failure):
    # parts 1 and 3 of 4 fail in the way named; 0 and 2 run to their end
    import mmap

    ran, parent, failing, fork = mmap.mmap(-1, 4), os.getpid(), {1, 3}, os.fork
    forked = []

    def fork_or_refuse():
        forked.append(len(forked) + 1)  # the part this fork is for
        if failure == "fork" and forked[-1] in failing:
            raise OSError("no fork")
        return fork()

    def run(k):
        if os.getpid() != parent and k in failing:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError(f"part {k}")
        ran[k] = 1

    monkeypatch.setattr(os, "fork", fork_or_refuse)
    assert _split(4, run) == [1, 3]
    assert ran[:] == bytes([1, 0, 1, 0])
    assert forked == [1, 2, 3]
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the CSV split is Linux-only")
def test_no_split_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _usable_cpus() == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="the CSV split forks and writes memory files")
# a 3.12+ interpreter warns on a fork while a BLAS pool runs; the children never use it
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
class TestSplitCsv:
    """CSV files formatted across forked processes, with the split forced.

    ``curves`` writes 2 replicate curves and the 2 sentinels on 301 points,
    1,204 cells in 4 blocks, and with ``--synthetic-n 1204`` a ``data.csv``
    of 1,204 cells in 4 blocks of 301 rows.  The CPU count is set to 3, so a
    per-part minimum of 1,204, 602 or 401 cells splits each file in 1, 2 or
    3 parts.  A curve's text, over 8 KiB, leaves a file object's buffers as
    soon as it is written.
    """

    FLAGS = ["curves", "--synthetic-n", "1204", "--scheme", "nonparametric", "--B", "2",
             "--grid-points", "301", "--seed", "6"]
    FILES = ("curves.csv", "data.csv")

    @pytest.fixture
    def serial(self, tmp_path, monkeypatch):
        """The files of a serial run."""
        with monkeypatch.context() as serial_only:
            serial_only.setattr(cli, "_usable_cpus", lambda: 1)
            assert main([*self.FLAGS, "--out", str(tmp_path / "serial")]) == 0
        return {name: (tmp_path / "serial" / name).read_bytes() for name in self.FILES}

    @pytest.fixture
    def forks(self, monkeypatch, serial):
        """Forces a 3-part split; the list returned collects the pid of each child forked."""
        monkeypatch.setattr(cli, "_TABLE_BLOCK_ROWS", 301)
        monkeypatch.setattr(cli, "_CSV_PART_CELLS", 401)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        made, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return made

    def split_run(self, tmp_path):
        out = tmp_path / "split"
        assert main([*self.FLAGS, "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in self.FILES}

    @pytest.mark.parametrize("part_cells, parts", [(1204, 1), (603, 1), (602, 2), (402, 2), (401, 3), (1, 3)])
    def test_equals_serial_bytes(self, tmp_path, serial, forks, monkeypatch, part_cells, parts):
        monkeypatch.setattr(cli, "_CSV_PART_CELLS", part_cells)
        assert self.split_run(tmp_path) == serial
        assert len(forks) == 2 * (parts - 1)
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_failed_child_gives_the_serial_bytes(self, tmp_path, serial, forks, monkeypatch, failure):
        # the child of curves.csv's last run, [-1, -2], fails after it has written curve -1
        parent, fill = os.getpid(), cli._fill

        def failing(template, values):
            if os.getpid() != parent and template.startswith("-2,"):
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError("child")
            return fill(template, values)

        monkeypatch.setattr(cli, "_fill", failing)
        assert self.split_run(tmp_path) == serial
        assert len(forks) == 4
        assert_no_child_left()

    @pytest.mark.parametrize("call", ["fork", "memfd_create"])
    def test_os_error_gives_a_serial_write(self, tmp_path, serial, forks, monkeypatch, call):
        def refuse(*args):
            raise OSError(f"no {call}")

        monkeypatch.setattr(os, call, refuse)
        assert self.split_run(tmp_path) == serial
        assert forks == []
        assert_no_child_left()

    @pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
    def test_parent_formats_only_its_own_run(self, tmp_path, serial, forks, monkeypatch, sigchld):
        parent, fill, formatted = os.getpid(), cli._fill, []

        def recorded(template, values):
            if os.getpid() == parent:
                formatted.append(template.partition(",")[0])
            return fill(template, values)

        monkeypatch.setattr(cli, "_fill", recorded)
        previous = signal.signal(signal.SIGCHLD, sigchld)
        try:
            assert self.split_run(tmp_path) == serial
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 4
        # the first of 3 runs of 4 blocks is 1 block: curve 0, then data.csv's first 301 rows
        assert formatted == ["0", "%.17g\n" * 301]
        assert_no_child_left()

    @pytest.mark.parametrize("poisoned", [0, 1, 2], ids=["own-run", "first-child", "last-child"])
    def test_error_in_a_run_is_the_serial_runs(self, tmp_path, capsys, forks, monkeypatch, poisoned):
        # curves.csv's 4 blocks make the runs [0], [1] and [-1, -2]; every curve
        # from the poisoned run's first on fails, and a serial run raises that
        # one's error and leaves the curves before it in the file
        failing = ["0", "1", "-1", "-2"][poisoned:]
        fill = cli._fill

        def poisoned_fill(template, values):
            curve = template.partition(",")[0]
            if curve in failing:
                raise FloatingPointError(f"curve {curve}")
            return fill(template, values)

        monkeypatch.setattr(cli, "_fill", poisoned_fill)
        with monkeypatch.context() as serial_only:
            serial_only.setattr(cli, "_usable_cpus", lambda: 1)
            assert main([*self.FLAGS, "--out", str(tmp_path / "serial")]) == 1
        assert capsys.readouterr().err == f"internal error: curve {failing[0]}\n"
        assert main([*self.FLAGS, "--out", str(tmp_path / "split")]) == 1
        assert capsys.readouterr().err == f"internal error: curve {failing[0]}\n"
        assert (tmp_path / "split" / "curves.csv").read_bytes() == (tmp_path / "serial" / "curves.csv").read_bytes()
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.skipif(sys.platform != "linux", reason="the CSV split is Linux-only")
    def test_stdout_printed_before_a_split_appears_once(self, tmp_path, capsys, monkeypatch):
        # bag prints its report, then writes cdf.csv, 1,203 cells in 7 blocks
        # of 64 rows, in 3 parts, and data.csv, 200 cells in 4 blocks, in 2.
        # stdout is a pipe, so the report sits in its buffer when each child forks.
        flags = ["bag", "--synthetic-n", "200", "--scheme", "nonparametric", "--B", "50"]
        code = (
            "import os, sys\n"
            "from bayesbag import cli\n"
            "cli._TABLE_BLOCK_ROWS, cli._CSV_PART_CELLS, cli._usable_cpus = 64, 100, lambda: 3\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
            "sys.argv = ['bayesbag', *sys.argv[1:]]\n"
            "try:\n"
            "    cli.entrypoint()\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
            "print('forks:', len(forks))\n"
        )
        split = run_python("-c", code, *flags, "--out", str(tmp_path / "split"))
        assert split.returncode == 0, split.stderr
        *lines, last = split.stdout.splitlines()
        assert last == "forks: 3"
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert main([*flags, "--out", str(tmp_path / "serial")]) == 0
        assert lines == capsys.readouterr().out.splitlines()
        assert len(lines) == len(set(lines))
        for name in ("report.csv", "cdf.csv", "data.csv"):
            assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


# numpy takes its AVX2 loops, in place of its AVX-512 ones, in a process
# started with this variable; its exp then rounds some cells differently
AVX2_ONLY = "AVX512_ICL AVX512_SPR X86_V4"
# _ndtr moved by at most 6 ulps on 4,000,002 points over [-40, 10] between the
# two levels, and these runs' cells by at most 5 over 41 seeds; 2 more ulps
# leave room for the rounding of a mean of B such values
DISPATCH_ULPS = 8
FLOAT_CELL = re.compile(r"-?\d+(\.\d+)?(e[-+]?\d+)?")
EXACT_CELL = re.compile(r"-?\d+(\.\d\d)?")  # an integer or a 2-decimal rounding


def float_ordinals(values):
    """Float64 ``values`` as int64s that order like them, adjacent floats one apart."""
    q = np.asarray(values, dtype=float).view(np.int64)
    return np.where(q >= 0, q, np.iinfo(np.int64).min - q)


def cells_moved(a, b):
    """Cells of texts ``a`` and ``b`` that differ, after checking each pair is two floats within ``DISPATCH_ULPS``."""
    a, b = re.split(r"[\s,\[\]]+", a), re.split(r"[\s,\[\]]+", b)
    assert len(a) == len(b)
    moved = [(x, y) for x, y in zip(a, b) if x != y]
    for pair in moved:
        assert all(FLOAT_CELL.fullmatch(x) and not EXACT_CELL.fullmatch(x) for x in pair), pair
    if moved:
        x, y = float_ordinals(np.array(moved, dtype=float).T)
        worst = int(np.abs(x - y).max())
        assert worst <= DISPATCH_ULPS, f"{worst} ulps apart"
    return len(moved)


class TestCpuDispatch:
    def test_outputs_agree_within_the_ulp_bound_across_dispatch_levels(self, tmp_path):
        commands = {
            "bag": ["bag", "--synthetic-n", "50", "--scheme", "nonparametric", "--B", "2000"],
            "curves": ["curves", "--scheme", "subsample", "--synthetic-n", "30", "--B", "200",
                       "--grid-points", "101"],
        }
        moved = 0
        for name, args in commands.items():
            native, avx2 = (tmp_path / name / level for level in ("native", "avx2"))
            runs = [
                run_python("-m", "bayesbag.cli", *args, "--out", str(out), NPY_DISABLE_CPU_FEATURES=value)
                for out, value in ((native, None), (avx2, AVX2_ONLY))
            ]
            assert runs[0].returncode == runs[1].returncode == 0, runs[1].stderr
            assert runs[0].stderr == runs[1].stderr
            moved += cells_moved(runs[0].stdout, runs[1].stdout)
            files = sorted(path.name for path in native.iterdir())
            assert files == sorted(path.name for path in avx2.iterdir())
            for file in files:
                moved += cells_moved((native / file).read_text(), (avx2 / file).read_text())
        if not moved:
            warnings.warn("the runs at both dispatch levels are identical: numpy took the same "
                          "loops in both, as it does on a CPU without AVX-512")


class TestHelpers:
    def test_synthetic_dataset_deterministic(self):
        a = synthetic_dataset(10, 1.31, 1.0, 123)
        b = synthetic_dataset(10, 1.31, 1.0, 123)
        c = synthetic_dataset(10, 1.31, 1.0, 124)
        assert a == b
        assert a != c
        assert a.n == 10

    def test_synthetic_dataset_statistics(self):
        data = synthetic_dataset(200_000, 1.31, 1.0, 5)
        assert data.mean == pytest.approx(1.31, abs=3 / math.sqrt(200_000))
        assert np.var(data.observations) == pytest.approx(1.0, abs=0.02)


# Out-of-range values of the numeric flags, each paired with the commands
# that take the flag.  Runs stay tiny: n = SMALL_N synthetic observations,
# B = 2 unless --B is the flag under test (argparse keeps the last value).
SMALL_N = 3
BASE_ARGS = {
    "table1": ["table1", "--mc", "--B=2"],
    "bag": ["bag", f"--synthetic-n={SMALL_N}", "--scheme=subsample", "--B=2"],
    "curves": ["curves", f"--synthetic-n={SMALL_N}", "--scheme=subsample", "--B=2"],
}
bad_seeds = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))
bad_variances = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))
# the smallest level, and the smallest tail (1 - level)/2, the CLI accepts
LEVEL_FLOOR = RESOLUTION_ULPS * _QUANTILE_CDF_TOL
OUT_OF_RANGE = [
    ("--seed", ("table1", "bag", "curves"), bad_seeds),
    ("--synthetic-seed", ("bag", "curves"), bad_seeds),
    ("--synthetic-n", ("bag", "curves"), st.integers(max_value=0)),
    ("--B", ("table1", "bag", "curves"), st.integers(max_value=0)),
    (
        "--level",
        ("bag", "curves"),
        st.one_of(
            st.floats(max_value=0.0),
            st.floats(min_value=1.0),
            st.just(math.nan),
            st.floats(min_value=0.0, max_value=LEVEL_FLOOR, exclude_min=True, exclude_max=True),
            st.floats(min_value=1.0 - 2.0 * LEVEL_FLOOR, max_value=1.0, exclude_max=True),
        ),
    ),
    ("--tau-sq", ("bag", "curves"), bad_variances),
    ("--sigma-sq", ("bag", "curves"), bad_variances),
    ("--m", ("bag", "curves"), st.one_of(st.integers(max_value=0), st.integers(min_value=SMALL_N + 1))),
    ("--grid-points", ("curves",), st.integers(max_value=1)),
]
out_of_range_invocations = st.one_of([
    st.tuples(st.just(flag), st.sampled_from(commands), values)
    for flag, commands, values in OUT_OF_RANGE
])


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bag", "--synthetic-n", "5", "--seed", "-1"], "--seed"),
            (["bag", "--synthetic-n", "5", "--synthetic-seed", "-3"], "--synthetic-seed"),
            (["bag", "--synthetic-n", "3", "--scheme", "subsample", "--m", "5"], "--m"),
            (["bag", "--synthetic-n", "10", "--scheme", "nonparametric", "--m", "3"], "--m"),
            *[
                (["bag", "--synthetic-n", "10", "--scheme", scheme, "--center", "map"], "--center")
                for scheme in ("nonparametric", "subsample")
            ],
            (["table1", "--mc", "--B", "0"], "--B"),
            (["curves", "--synthetic-n", "5", "--B", "1"], "--B"),
            (["bag", "--synthetic-n", "5", "--tau-sq", "1e-320"], "--tau-sq"),
            (["bag", "--synthetic-n", "3", "--sigma-sq", "1e-308"], "--sigma-sq"),
            # the closed form's n * sigma_sq overflows, though the bag's variance would not
            (["bag", "--synthetic-n", "2", "--sigma-sq", "1e308", "--tau-sq", "1e308"],
             "--tau-sq/--sigma-sq"),
            (["bag", "--input", "OVERFLOWING_FILE"], "--input"),
            (["bag", "--input", "ONE_VALUE_FILE", "--synthetic-seed", "7"], "--synthetic-seed"),
            (["bag", "--input", "ONE_VALUE_FILE", "--synthetic-theta", "3"], "--synthetic-theta"),
            # the posterior sd is below the float spacing at the data's magnitude
            (["bag", "--input", "FILE_1E308", "--scheme", "nonparametric"], "--input"),
            (["bag", "--input", "FILE_1E308", "--scheme", "subsample", "--m", "1"], "--input"),
            (["bag", "--input", "FILE_8E307", "--scheme", "nonparametric"], "--input"),
            (["bag", "--input", "FILE_8E307", "--scheme", "subsample", "--m", "1"], "--input"),
            *[
                (["bag", "--synthetic-n", "3", "--synthetic-theta", "5",
                  "--sigma-sq", "1e-300", "--scheme", scheme], "--sigma-sq")
                for scheme in ("parametric", "nonparametric", "subsample")
            ],
            (["bag", "--synthetic-n", "100", "--synthetic-theta", "1",
              "--sigma-sq", "1e-40", "--scheme", "nonparametric"], "--sigma-sq"),
            # a level or tail below the floor: bisection cannot resolve the interval
            *[
                (["bag", "--synthetic-n", "5", "--level", level, "--scheme", scheme], "--level")
                for level, scheme in (
                    ("1e-16", "parametric"), ("1e-300", "parametric"),
                    ("0.9999999999999999", "parametric"), ("1e-12", "nonparametric"),
                )
            ],
            # the interval's endpoints round together at the data's magnitude
            (["bag", "--synthetic-n", "5", "--synthetic-theta", "1e8", "--level", "1e-6"],
             "--level"),
            # counts too large to allocate: 10**17 float64 values fail at once,
            # 10**20 exceed any array
            *[
                case
                for size in (str(10**17), str(10**20))
                for case in (
                    (["bag", "--synthetic-n", "5", "--scheme", "nonparametric", "--B", size], "--B"),
                    (["table1", "--mc", "--B", size], "--B"),
                    (["curves", "--synthetic-n", "3", "--B", "2", "--grid-points", size],
                     "--grid-points"),
                    (["bag", "--synthetic-n", size], "--synthetic-n"),
                )
            ],
        ],
        ids=[
            "seed-negative", "synthetic-seed-negative", "m-above-n", "m-without-subsample",
            "center-map-nonparametric", "center-map-subsample",
            "table1-mc-B-zero",
            "curves-B-one", "tau-sq-underflow", "sigma-sq-posterior-underflow",
            "closed-form-spread-overflow",
            "input-sum-overflow", "input-with-synthetic-seed", "input-with-synthetic-theta",
            "input-1e308-nonparametric", "input-1e308-subsample-m1",
            "input-8e307-nonparametric", "input-8e307-subsample-m1",
            "theta-5-sigma-sq-1e-300-parametric", "theta-5-sigma-sq-1e-300-nonparametric",
            "theta-5-sigma-sq-1e-300-subsample", "theta-1-sigma-sq-1e-40-nonparametric",
            "level-1e-16", "level-1e-300", "level-1-minus-1e-16", "level-1e-12-nonparametric",
            "level-1e-6-theta-1e8",
            *[
                f"{flag}-{size}"
                for size in ("1e17", "1e20")
                for flag in ("bag-B", "table1-mc-B", "curves-grid-points", "synthetic-n")
            ],
        ],
    )
    def test_bad_input_exits_2_naming_its_flag(self, tmp_path, capsys, argv, flag):
        files = {
            "OVERFLOWING_FILE": ["1e308", "1e308"],  # the sum overflows
            "FILE_1E308": ["1e308", "-1e308"],
            "FILE_8E307": ["8e307", "-8e307"],
            "ONE_VALUE_FILE": ["1.0"],
        }
        for name, lines in files.items():
            write_lines(tmp_path / f"{name}.csv", lines)
        argv = [str(tmp_path / f"{a}.csv") if a in files else a for a in argv]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert flag in err

    @pytest.mark.parametrize("command", ["table1", "bag", "curves"])
    def test_out_naming_a_file_exits_2_before_any_output(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main([*BASE_ARGS[command], "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out {taken}: ")
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--mc", "--B", "0"],
            ["bag", "--input", "MISSING"],
            ["curves", "--synthetic-n", "5", "--grid-points", "1"],
        ],
        ids=["table1", "bag", "curves"],
    )
    def test_refused_run_creates_no_out_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "a" / "b"
        argv = [str(tmp_path / "missing.csv") if a == "MISSING" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "a").exists()

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(invocation=out_of_range_invocations)
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, invocation):
        flag, command, value = invocation
        rc = main([*BASE_ARGS[command], f"{flag}={value}", f"--out={tmp_path}"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert flag in err


# The documented valid range of the property tests below: every scheme, n
# 1..50, B 2..20, tau_sq and sigma_sq in [1e-6, 1e6], |theta| <= 1e6.
SCHEMES = ("parametric", "nonparametric", "subsample")
positive_variances = st.floats(min_value=1e-6, max_value=1e6)
valid_bag_runs = st.fixed_dictionaries({
    "scheme": st.sampled_from(SCHEMES),
    "n": st.integers(min_value=1, max_value=50),
    "B": st.integers(min_value=2, max_value=20),
    "tau_sq": positive_variances,
    "sigma_sq": positive_variances,
    "theta": st.floats(min_value=-1e6, max_value=1e6),
    "seed": st.integers(min_value=0, max_value=2**64 - 1),
})


def _extreme_run(scheme, theta, sigma_sq):
    # outside the sampled range, yet resolvable in floats, so still valid
    return {"scheme": scheme, "n": 3, "B": 2, "tau_sq": 4.0, "sigma_sq": sigma_sq,
            "theta": theta, "seed": 42}


def _file_run(data):
    # replicate means that agree to the last few digits: the mean of their
    # CDFs can round outside the replicates' pointwise range
    return {"scheme": "nonparametric", "n": len(data), "B": 20, "tau_sq": 4.0,
            "sigma_sq": 1.0, "theta": 0.0, "seed": 42, "data": data}


NEAR_IDENTICAL = (0.5 + 1e-4 * np.random.default_rng(1).standard_normal(5)).tolist()


def _with_examples(test):
    for scheme in SCHEMES:
        test = example(run=_extreme_run(scheme, 0.0, 1e-300))(test)  # data near 1e-150
        test = example(run=_extreme_run(scheme, 1.0, 1e-20))(test)
    test = example(run=_file_run([A] * 3))(test)
    test = example(run=_file_run(NEAR_IDENTICAL))(test)
    # the parametric replicate-mean law's variance n * sigma_sq / (n +
    # sigma_sq / tau_sq)**2 underflows to 0; the bagged variance does not
    underflowing_law = {**_file_run([0.0, 0.0]), "scheme": "parametric",
                        "tau_sq": 1e-60, "sigma_sq": 1e100}
    return example(run=underflowing_law)(test)


def _run_valid(command, run, out):
    """Exit code of ``command`` on ``run``'s data (a file when it lists values)."""
    if "data" in run:
        write_lines(out / "data.txt", [repr(x) for x in run["data"]])
        source = [f"--input={out / 'data.txt'}"]
    else:
        source = [f"--synthetic-n={run['n']}", f"--synthetic-theta={run['theta']!r}"]
    return main([
        command, f"--scheme={run['scheme']}", *source, f"--B={run['B']}",
        f"--tau-sq={run['tau_sq']!r}", f"--sigma-sq={run['sigma_sq']!r}",
        f"--seed={run['seed']}", f"--out={out}",
    ])


class TestValidInputs:
    @settings(max_examples=60, deadline=None)
    @_with_examples
    @given(run=valid_bag_runs)
    def test_valid_input_exits_0_with_finite_report(self, run):
        with tempfile.TemporaryDirectory() as out:
            assert _run_valid("bag", run, Path(out)) == 0
            (row,) = read_rows(Path(out) / "report.csv")
        values = {key: float(value) for key, value in row.items()}
        assert all(math.isfinite(value) for value in values.values())
        assert values["posterior_lo"] < values["posterior_hi"]
        assert values["bayesbag_lo"] < values["bayesbag_hi"]
        assert 0.0 <= values["ks_distance"] <= 1.0

    @settings(max_examples=30, deadline=None)
    @_with_examples
    @given(run=valid_bag_runs)
    def test_valid_input_exits_0_with_bounded_curves(self, run):
        with tempfile.TemporaryDirectory() as out:
            assert _run_valid("curves", run, Path(out)) == 0
            table = np.loadtxt(Path(out) / "curves.csv", delimiter=",", skiprows=1)
        assert table.shape == ((run["B"] + 2) * DEFAULT_GRID_POINTS, 3)
        assert np.isfinite(table).all()
        assert np.all((table[:, 2] >= 0.0) & (table[:, 2] <= 1.0))
