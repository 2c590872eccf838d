"""Command-line surface: reference-table reproduction, bagging reports, curve export.

Exit codes: 0 success, 1 internal/numerical error, 2 input error.  All
randomness flows from ``--seed``; omitting it selects the fixed default 42,
so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bagging import (
    DEFAULT_LEVEL,
    DEFAULT_SEED,
    RESOLUTION_ULPS,
    BagConfig,
    bayesbag_exact,
    bayesbag_mc,
    credible_interval,
)
from .diagnostics import DEFAULT_GRID_POINTS, GridSpec, build_band, make_report
from .model import Dataset, GaussianLocationModel, np, posterior
from .resampling import CenterPolicy, ResampleScheme, SchemeKind, Seed

__all__ = [
    "read_observations",
    "synthetic_dataset",
    "main",
    "entrypoint",
]

DEFAULT_TAU_SQ = 4.0
DEFAULT_SIGMA_SQ = 1.0

# Built-in reference scenario: sample means back-solved from the published
# two-row interval table (posterior centers 1.06 and 0.71); --simulate draws
# fresh data at location 1.31 instead.
REFERENCE_SAMPLE_MEANS = {1: 1.325, 10: 0.72775}
REFERENCE_TRUE_LOCATION = 1.31
REFERENCE_MC_REPLICATES = 10000

# Sentinel replicate ids in curves.csv
MEAN_CURVE_ID = -1
POSTERIOR_CURVE_ID = -2

# 17 significant digits, which parse back to the same float64.  Float CSVs
# are written from %-templates of these cells, so a whole block of values is
# formatted in one call and each fixed cell (a grid point, a replicate id)
# only once; _FULL formats a single value the same way.
_CELL = "%.17g"
_FULL = _CELL.__mod__
_ROUNDED = "{:.2f}".format
_TABLE_BLOCK_ROWS = 4096
# cells that each process formats when a CSV is split across CPUs: about
# 70 ms of %.17g work, against about 5 ms that a split adds (fork, copy-on-write
# faults, reap); a split broke even near 2**13 cells a part (2-CPU Xeon VM)
_CSV_PART_CELLS = 2**16
# float64 values an array can hold: its size in bytes cannot exceed sys.maxsize
_MAX_COUNT = sys.maxsize // 8


class InputError(Exception):
    """Bad user input: unreadable, malformed, or empty data / options."""


def read_observations(path: Path) -> Dataset:
    """Parse one observation per line; a non-numeric first line is a header.

    A file that cannot be read, holds a bad line or holds no observation
    raises ``ValueError``; its message names the line, and leaves naming
    the file to the caller.
    """
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read: {exc.strerror}") from exc
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        token = raw.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            if lineno == 1:
                continue  # header line
            raise ValueError(f"line {lineno}: not a number: {token!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: non-finite input")
        values.append(value)
    return Dataset(tuple(values))  # which refuses an empty dataset


def synthetic_dataset(n: int, theta: float, sigma_sq: float, master: int) -> Dataset:
    """n i.i.d. draws from N(theta, sigma_sq) on the stream keyed by master."""
    if n < 1:
        raise InputError("--synthetic-n must be at least 1")
    draws = theta + math.sqrt(sigma_sq) * Seed(master, 0).rng().standard_normal(n)
    return Dataset(tuple(float(v) for v in draws))


def _check_count(flag: str, count: int) -> None:
    """Reject a count of float64 values that no array can hold."""
    if count > _MAX_COUNT:
        raise InputError(f"{flag}: {count} values exceed the largest float64 array ({_MAX_COUNT})")


def _derived_master(master: int, tag: int) -> int:
    # separates data streams from replicate streams; Seed range-checks master
    seed = Seed(master, tag)
    return int(np.random.SeedSequence((seed.master, tag)).generate_state(1, np.uint64)[0])


def _checked(flag: str, build, *args, **kwargs):
    """``build(...)``, with its ValueError turned into an InputError naming ``flag``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _resolve(args):
    """(model, dataset, bag config) of a bag/curves invocation.

    The domain types, and ``credible_interval`` for the level, validate
    their own values; this maps each rejection to the flag that supplied
    it.  One rule no domain type holds is checked here: the full-data
    posterior's sd, and the half-width of its credible interval, must span
    ``RESOLUTION_ULPS`` float spacings at the largest of ``|x|`` and
    ``|posterior mean|``.  (A variance that underflows to 0 is already
    rejected by ``posterior``.)  No replicate has more observations, so
    every replicate posterior, and with them the bagged interval, is at
    least as wide; and with sd bounded by ``sqrt(tau_sq)``, the bound caps
    ``|x|`` far below where a replicate sum could overflow.
    """
    if (args.input is None) == (args.synthetic_n is None):
        raise InputError("give exactly one of --input or --synthetic-n")
    model = _checked("--tau-sq/--sigma-sq", GaussianLocationModel, args.tau_sq, args.sigma_sq)
    if args.input is not None:
        for flag, value in (("--synthetic-seed", args.synthetic_seed),
                            ("--synthetic-theta", args.synthetic_theta)):
            if value is not None:
                raise InputError(f"{flag}: only --synthetic-n generates data")
        data = _checked(f"--input {args.input}", read_observations, args.input)
    else:
        _check_count("--synthetic-n", args.synthetic_n)
        seed = DEFAULT_SEED if args.synthetic_seed is None else args.synthetic_seed
        theta = 0.0 if args.synthetic_theta is None else args.synthetic_theta
        master = _checked("--synthetic-seed", _derived_master, seed, 0)
        data = _checked(
            "--synthetic-theta", synthetic_dataset, args.synthetic_n, theta, model.sigma_sq, master
        )
    post = _checked("--tau-sq/--sigma-sq", posterior, model, data)
    scale = max(max(map(abs, data.observations)), abs(post.mean))
    limit = RESOLUTION_ULPS * math.ulp(scale)
    source = "--input" if args.input is not None else "--synthetic-theta"
    if post.sd < limit:
        raise InputError(
            f"{source}/--tau-sq/--sigma-sq: the posterior sd {post.sd:.3g} is below "
            f"{RESOLUTION_ULPS} float spacings at the data's magnitude {scale:.3g}, "
            "so its credible interval cannot be resolved"
        )
    half_width = _checked("--level", credible_interval, replace(post, mean=0.0), args.level).hi
    if half_width < limit:
        raise InputError(
            f"--level/{source}/--tau-sq/--sigma-sq: the posterior interval's half-width "
            f"{half_width:.3g} is below {RESOLUTION_ULPS} float spacings at the data's "
            f"magnitude {scale:.3g}, so the interval cannot be resolved"
        )
    kind = SchemeKind(args.scheme)
    scheme = _checked("--m", ResampleScheme, kind, args.m)
    if kind is SchemeKind.SUBSAMPLE:
        _checked("--m", scheme.subsample_size_for, data.n)
    _check_count("--B", args.B)
    cfg = _checked("--B/--seed", BagConfig, args.B, scheme, args.seed)
    return model, data, _checked("--center", replace, cfg, center_policy=CenterPolicy(args.center))


def _percent(level: float) -> str:
    return f"{100.0 * level:.15g}"


def _output_dir(path: Path) -> Path:
    """``path``, created with its parents if it does not exist yet."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out {path}: cannot create the output directory: {exc.strerror}") from exc
    return path


def _usable_cpus() -> int:
    """CPUs that work may be split across: 1 unless this is a single-threaded Linux process.

    A forked child holds only the thread that forked it, so a lock that
    another thread (a BLAS pool, say) held at the fork would never be
    released in the child.
    """
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) == 1:
            return len(os.sched_getaffinity(0))
    except OSError:  # no /proc to count threads in
        pass
    return 1


def _runs(count: int, cells: int, part_cells: int) -> list[range]:
    """``range(count)`` cut into contiguous runs: one per usable CPU, and no more than ``cells // part_cells``.

    Run k of ``parts`` is ``range(count * k // parts, count * (k + 1) // parts)``.
    :func:`_usable_cpus` is asked only when the work could make two runs.
    """
    parts = min(count, cells // part_cells)
    parts = min(parts, _usable_cpus()) if parts > 1 else 1
    return [range(count * k // parts, count * (k + 1) // parts) for k in range(parts)]


def _write_csv(path: Path, header: str, blocks, text=str, cells: int = 0) -> None:
    """Write ``header``, then ``text(block)``, a string of whole lines, for each of ``blocks`` in order.

    ``text`` formats ``cells`` cells in all.  :func:`_runs` cuts the
    blocks into runs.  A forked child formats each run after the first into
    an anonymous memory file, sets the run's done flag in a shared anonymous
    mapping, and leaves through ``os._exit`` alone, so it never returns here
    and flushes no buffer it inherited.  This process formats the first run
    into the file and reaps every child.  It then appends each finished
    run's memory file, in order, by ``os.sendfile``, so it never holds that
    text, and formats each unfinished run into the file in its place: one
    whose fork raised ``OSError``, or whose child raised or was killed.  The
    bytes, and any error, are a serial write's.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle, contextlib.ExitStack() as stack:
        handle.write(header + "\n")
        runs = _runs(len(blocks), cells, _CSV_PART_CELLS)
        try:
            files = [
                stack.enter_context(open(os.memfd_create(path.name), "w", encoding="utf-8", newline=""))
                for _ in runs[1:]
            ]
        except OSError:
            files = []
        if not files:
            handle.writelines(map(text, blocks))
            return

        def write(k, out):
            out.writelines(map(text, blocks[runs[k].start:runs[k].stop]))
            out.flush()  # a child leaves without flushing, and this process appends after it

        import mmap  # here, so that a process that never splits does not load it
        done = mmap.mmap(-1, len(runs))
        children = []
        for k, file in enumerate(files, start=1):
            try:
                pid = os.fork()
            except OSError:
                continue
            if pid == 0:  # the child: it answers through its memory file and its flag alone
                try:
                    write(k, file)
                    done[k] = 1
                finally:
                    os._exit(0)
            children.append(pid)
        try:
            write(0, handle)
        finally:
            for pid in children:
                with contextlib.suppress(ChildProcessError):  # reaped already where SIGCHLD is ignored
                    os.waitpid(pid, 0)
        for k, file in enumerate(files, start=1):
            if not done[k]:
                write(k, handle)
                continue
            size, offset = os.fstat(file.fileno()).st_size, 0
            while offset < size:
                offset += os.sendfile(handle.fileno(), file.fileno(), offset, size - offset)


def _line(cells) -> str:
    return ",".join(cells) + "\n"


def _fill(template: str, values) -> str:
    """``template`` with its float cells, in order, set to ``values``."""
    return template % tuple(np.ravel(values).tolist())


def _grid_template(grid: np.ndarray, prefix: str, cells: int) -> str:
    """One line per grid point: ``prefix``, the point, then ``cells`` float cells."""
    tail = ("," + _CELL) * cells + "\n"
    return "".join(prefix + _CELL % u + tail for u in grid.tolist())


def _write_table(path: Path, header: str, *columns) -> None:
    """Write float ``columns`` side by side, in blocks of ``_TABLE_BLOCK_ROWS`` rows."""
    table = np.column_stack(columns)
    row = ",".join([_CELL] * table.shape[1]) + "\n"

    def text(start):
        block = table[start:start + _TABLE_BLOCK_ROWS]
        return _fill(row * len(block), block)

    _write_csv(path, header, range(0, table.shape[0], _TABLE_BLOCK_ROWS), text, table.size)


def cmd_table1(args) -> int:
    """Two-row reference table: raw and bagged intervals for n=1 and n=10."""
    _check_count("--B", args.B)
    cfg = _checked("--B/--seed", BagConfig, args.B, seed=args.seed)
    out = _output_dir(args.out)
    model = GaussianLocationModel(DEFAULT_TAU_SQ, DEFAULT_SIGMA_SQ)
    rows = []
    for tag, n in enumerate((1, 10), start=1):
        if args.simulate:
            data = synthetic_dataset(
                n, REFERENCE_TRUE_LOCATION, DEFAULT_SIGMA_SQ, _derived_master(args.seed, tag)
            )
        else:
            data = Dataset((REFERENCE_SAMPLE_MEANS[n],) * n)
        post_iv = credible_interval(posterior(model, data), DEFAULT_LEVEL)
        if args.mc:
            bag = bayesbag_mc(model, data, replace(cfg, seed=_derived_master(args.seed, 100 + tag)))
            method = f"mc(B={args.B})"
        else:
            bag, method = bayesbag_exact(model, data), "exact"
        rows.append((n, post_iv, credible_interval(bag, DEFAULT_LEVEL), method))

    print(f"{_percent(DEFAULT_LEVEL)}% credible intervals (tau_sq={DEFAULT_TAU_SQ}, sigma_sq={DEFAULT_SIGMA_SQ})")
    print(f"{'n':>6}  {'posterior':>16}  {'bayesbag':>16}  method")
    for n, post_iv, bag_iv, method in rows:
        post = f"({_ROUNDED(post_iv.lo)}, {_ROUNDED(post_iv.hi)})"
        bag = f"({_ROUNDED(bag_iv.lo)}, {_ROUNDED(bag_iv.hi)})"
        print(f"{n:>6}  {post:>16}  {bag:>16}  {method}")
    print("\nfull precision:")
    for n, post_iv, bag_iv, _ in rows:
        print(
            f"  n={n}: posterior [{_FULL(post_iv.lo)}, {_FULL(post_iv.hi)}] "
            f"bayesbag [{_FULL(bag_iv.lo)}, {_FULL(bag_iv.hi)}]"
        )

    _write_csv(
        out / "table1.csv",
        "n,method,posterior_lo,posterior_hi,bayesbag_lo,bayesbag_hi,"
        "posterior_lo_2dp,posterior_hi_2dp,bayesbag_lo_2dp,bayesbag_hi_2dp",
        [
            _line([
                str(n),
                method,
                _FULL(post_iv.lo),
                _FULL(post_iv.hi),
                _FULL(bag_iv.lo),
                _FULL(bag_iv.hi),
                _ROUNDED(post_iv.lo),
                _ROUNDED(post_iv.hi),
                _ROUNDED(bag_iv.lo),
                _ROUNDED(bag_iv.hi),
            ])
            for n, post_iv, bag_iv, method in rows
        ],
    )
    return 0


def cmd_bag(args) -> int:
    """Full pipeline on user data: report plus raw/bagged CDF curves."""
    model, data, cfg = _resolve(args)
    if cfg.scheme.kind is SchemeKind.PARAMETRIC_BOOTSTRAP:  # the report's closed form
        _checked("--tau-sq/--sigma-sq", bayesbag_exact, model, data, cfg.center_policy)
    out = _output_dir(args.out)
    report = make_report(model, data, cfg, args.level)
    post_iv, bag_iv = report.posterior_interval, report.bagged_interval

    pct = _percent(args.level)
    print(f"n = {data.n}, sample mean = {_FULL(data.mean)}")
    unused = " (--B and --seed not used)" if report.method == "exact" else ""
    print(f"method: {report.method}{unused}")
    print(f"posterior {pct}% interval: [{_FULL(post_iv.lo)}, {_FULL(post_iv.hi)}]")
    print(f"bayesbag  {pct}% interval: [{_FULL(bag_iv.lo)}, {_FULL(bag_iv.hi)}]")
    print(f"widening ratio: {_FULL(report.widening_ratio)}")
    print(f"ks distance (grid): {_FULL(report.ks_distance)}")
    if report.degenerate_resampling_flag:
        print("warning: degenerate resampling (zero resampling variability)")

    _write_csv(
        out / "report.csv",
        "n,level,posterior_lo,posterior_hi,bayesbag_lo,bayesbag_hi,"
        "widening_ratio,ks_distance,degenerate_resampling",
        [
            _line([
                str(data.n),
                repr(args.level),
                _FULL(post_iv.lo),
                _FULL(post_iv.hi),
                _FULL(bag_iv.lo),
                _FULL(bag_iv.hi),
                _FULL(report.widening_ratio),
                _FULL(report.ks_distance),
                str(int(report.degenerate_resampling_flag)),
            ])
        ],
    )
    _write_table(
        out / "cdf.csv", "u,F_posterior,F_bayesbag", report.grid, report.posterior_curve, report.bagged_curve
    )
    if args.input is None:
        _write_table(out / "data.csv", "observation", data.observations)
    return 0


def cmd_curves(args) -> int:
    """Long-format CSV of every replicate CDF plus mean and posterior curves."""
    model, data, cfg = _resolve(args)
    grid_spec = _checked("--grid-points", GridSpec, args.grid_points)
    if cfg.replicates < 2:
        raise InputError("--B: a band needs at least 2 replicates")
    _check_count("--B/--grid-points", cfg.replicates * grid_spec.points)
    out = _output_dir(args.out)
    band = build_band(model, data, cfg, grid_spec)

    # one block per curve: the grid template with the curve's id put in,
    # split once at the id so that no curve parses the template again
    pieces = _grid_template(band.grid, "{id},", 1).split("{id}")
    curves = [
        *enumerate(band.per_replicate),
        (MEAN_CURVE_ID, band.mean_curve),
        (POSTERIOR_CURVE_ID, band.posterior_curve),
    ]
    _write_csv(
        out / "curves.csv",
        "replicate_id,u,F",
        curves,
        lambda curve: _fill(str(curve[0]).join(pieces), curve[1]),
        len(curves) * band.grid.shape[0],
    )
    if args.input is None:
        _write_table(out / "data.csv", "observation", data.observations)
    print(f"wrote {band.replicates} replicate curves on {band.grid.shape[0]} grid points")
    return 0


def _add_common_flags(sub) -> None:
    defaults = BagConfig()
    sub.add_argument("--input", type=Path, default=None, help="CSV/text file, one observation per line")
    sub.add_argument("--synthetic-n", type=int, default=None, help="generate n observations instead of reading a file")
    sub.add_argument("--synthetic-theta", type=float, default=None, help="true location for generated data (default 0)")
    sub.add_argument("--synthetic-seed", type=int, default=None, help="seed for generated data (default = fixed default seed)")
    sub.add_argument("--tau-sq", type=float, default=DEFAULT_TAU_SQ, help="prior variance")
    sub.add_argument("--sigma-sq", type=float, default=DEFAULT_SIGMA_SQ, help="known noise variance")
    sub.add_argument("--scheme", choices=[k.value for k in SchemeKind], default=defaults.scheme.kind.value)
    sub.add_argument("--m", type=int, default=None, help="subsample size (default ceil(n/2))")
    sub.add_argument("--B", type=int, default=defaults.replicates, help="bootstrap replicates")
    sub.add_argument("--center", choices=[p.value for p in CenterPolicy], default=defaults.center_policy.value, help="parametric bootstrap center")
    sub.add_argument("--level", type=float, default=DEFAULT_LEVEL, help="credible level")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (fixed default, not entropy)")
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesbag",
        description="Bagged posteriors for the Gaussian location model.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="reproduce the built-in two-row reference table")
    mode = table1.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="closed-form bagged intervals (default)")
    mode.add_argument("--mc", action="store_true", help="Monte Carlo bagged intervals")
    table1.add_argument("--B", type=int, default=REFERENCE_MC_REPLICATES, help="replicates for --mc")
    table1.add_argument("--seed", type=int, default=DEFAULT_SEED)
    table1.add_argument("--simulate", action="store_true", help="draw fresh data at location 1.31 instead of the stored sample means")
    table1.add_argument("--out", type=Path, default=Path("."), help="output directory")
    table1.set_defaults(func=cmd_table1)

    bag = subparsers.add_parser("bag", help="bagging report for a dataset")
    _add_common_flags(bag)
    bag.set_defaults(func=cmd_bag)

    curves = subparsers.add_parser("curves", help="export replicate CDF curves")
    _add_common_flags(curves)
    curves.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    curves.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory, lower --B, --grid-points or --synthetic-n: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical / internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    # numpy, and its OpenBLAS, load after this line: a pool of one thread per core
    # burns CPU that the package's 1-d products never use.  Library callers keep theirs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
