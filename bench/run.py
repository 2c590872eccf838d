"""End-to-end benchmark of the bayesbag CLI.

    python3 bench/run.py --workload cold-cli --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of CLI invocations.  The benchmark writes the
input files from ``--seed``, sets up (input files plus one untimed warm-up
invocation, repeated SETUP_REPEATS times), then runs passes through the list
as a closed loop of fresh ``python`` processes, one at a time, for
``--seconds``: a pass starts only if one more of the last pass's length
fits.  Each invocation is timed from spawn to exit and its outputs are
checked by ``checks.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes run through ``trace_launcher.py`` and reports the
per-layer metrics of ``spans.py``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every path is inside the checkout: inputs and outputs go to ``.bench_work/``.
This process imports nothing large and reads no output file: checks and
trace aggregation run in ``checker.py``, because a child's peak RSS starts
from its parent's high-water RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MC_REPLICATES = 10000
CURVES_REPLICATES = 1000
GRID_POINTS = 401
# the model checks.py assumes (TAU_SQ, SIGMA_SQ, LEVEL), passed explicitly
MODEL_FLAGS = ["--tau-sq", "4.0", "--sigma-sq", "1.0", "--level", "0.95"]
ENTRY = "from bayesbag.cli import entrypoint; entrypoint()"
WORKLOADS = ("cold-cli", "mc-bag", "curves-export")


@dataclass(frozen=True)
class Inputs:
    """Input files and program seed derived from the workload seed."""

    seed: int
    data: dict  # file name -> observations

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(f"bayesbag-bench/{seed}")
        theta = rng.uniform(-1.0, 2.0)
        data = {
            "n1000.csv": [rng.gauss(theta, 1.0) for _ in range(1000)],
            "n100.csv": [rng.gauss(theta, 1.0) for _ in range(100)],
        }
        return cls(rng.randrange(2**63), data)

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, values in self.data.items():
            lines = ["observation"] + [repr(v) for v in values]
            (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it must write and the request that checks them."""

    label: str
    args: list
    outputs: tuple
    check: dict


def workload_commands(name: str, inputs: Inputs, work: Path) -> list[Command]:
    seed = ["--seed", str(inputs.seed)]

    def bag(scheme, data, replicates):
        path = str(work / data)
        args = ["bag", "--scheme", scheme, "--input", path, "--B", str(replicates)] + MODEL_FLAGS + seed
        check = {"kind": "bag", "input": path, "scheme": scheme, "replicates": replicates,
                 "grid_points": GRID_POINTS}
        return Command(f"bag-{scheme}-{data[:-4]}", args, ("report.csv", "cdf.csv"), check)

    if name == "cold-cli":
        return [
            Command("table1", ["table1"] + seed, ("table1.csv",), {"kind": "table1"}),
            bag("parametric", "n1000.csv", CURVES_REPLICATES),
        ]
    if name == "mc-bag":
        return [
            Command("table1-mc", ["table1", "--mc", "--B", str(MC_REPLICATES)] + seed, ("table1.csv",),
                    {"kind": "table1", "mc_replicates": MC_REPLICATES}),
            bag("nonparametric", "n1000.csv", MC_REPLICATES),
            bag("subsample", "n100.csv", MC_REPLICATES),
        ]
    if name == "curves-export":
        path = str(work / "n100.csv")
        args = ["curves", "--scheme", "parametric", "--input", path, "--B", str(CURVES_REPLICATES),
                "--grid-points", str(GRID_POINTS)] + MODEL_FLAGS + seed
        check = {"kind": "curves", "input": path, "replicates": CURVES_REPLICATES, "grid_points": GRID_POINTS}
        return [Command("curves-n100", args, ("curves.csv",), check)]
    raise ValueError(f"unknown workload {name!r}")


class Checker:
    """The checker.py process: checks outputs and aggregates traces on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "checker.py")], cwd=BENCH,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ask({"op": "ping"})  # its imports finish before anything is timed

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("checker process ended unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool = False  # exited 0 and wrote every output


@dataclass
class Runner:
    """Spawns the invocations of one workload and tallies their outcomes."""

    work: Path
    checker: Checker
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def spawn(self, command: Command, trace_path: Path | None = None, check: bool = True) -> Outcome:
        """Run one invocation in a fresh process, timed from spawn to exit, then check it."""
        out_dir = self.work / "out" / command.label
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        args = command.args + ["--out", str(out_dir)]
        if trace_path is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(BENCH / "trace_launcher.py"), str(SRC), str(trace_path), "--", *args]
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        err_path = self.work / "log" / f"{command.label}.err"
        err_path.parent.mkdir(exist_ok=True)
        with open(err_path.with_suffix(".out"), "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        self.attempted += 1
        missing = [name for name in command.outputs if not (out_dir / name).is_file()]
        if proc.returncode != 0 or missing:
            self.failed += 1
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"FAILED {command.label}: exit {proc.returncode}, missing {missing}\n{tail}", file=sys.stderr)
            return outcome
        outcome.ok = True
        if not check:
            return outcome
        verdict = self.checker.ask({"op": "check", "out_dir": str(out_dir), **command.check})
        if not verdict["ok"]:
            print(f"WRONG OUTPUT {command.label}: {verdict['error']}", file=sys.stderr)
            self.correct = False
        return outcome

    def run_pass(self, commands) -> list[Outcome]:
        return [self.spawn(command) for command in commands]

    def traced_pass(self, commands) -> tuple[list[Outcome], dict | None]:
        paths = [self.work / f"trace-{c.label}.json" for c in commands]
        outcomes = [self.spawn(c, p) for c, p in zip(commands, paths)]
        if not all(o.ok for o in outcomes):
            return outcomes, None
        written = sum(f.stat().st_size for c in commands for f in (self.work / "out" / c.label).iterdir())
        reply = self.checker.ask({"op": "layers", "traces": [str(p) for p in paths], "bytes_written": written})
        return outcomes, reply


def setup(name: str, inputs: Inputs, work: Path, checker: Checker) -> float:
    """Write the inputs and run the workload's first invocation once, untimed by the passes.

    The warm-up must exit 0 and write its files; its outputs are checked in the passes.
    """
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    inputs.write(work)
    warm_runner = Runner(work, checker)
    warm_runner.spawn(workload_commands(name, inputs, work)[0], check=False)
    elapsed = time.perf_counter() - start
    if warm_runner.failed:
        raise SystemExit(f"set-up failed: the warm-up invocation of {name} did not succeed")
    return elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _pass_wall(passes) -> float:
    return statistics.median(sum(o.wall_s for o in p) for p in passes)


def measure(name: str, seed: int, seconds: float, trace: bool, checker: Checker) -> dict:
    inputs = Inputs.from_seed(seed)
    work = WORK / name
    setup_times = [setup(name, inputs, work, checker) for _ in range(SETUP_REPEATS)]
    commands = workload_commands(name, inputs, work)
    runner = Runner(work, checker)
    plain, traced, layers = [], [], []
    absent: set[str] = set()
    # whole passes only: the next one starts if the last one's length still fits
    start = last = time.perf_counter()
    cycle = 0.0
    while not plain or last + cycle <= start + seconds:
        plain.append(runner.run_pass(commands))
        if trace:
            outcomes, reply = runner.traced_pass(commands)
            traced.append(outcomes)
            if reply is not None:
                layers.append(reply["metrics"])
                absent.update(reply["absent"])
        now = time.perf_counter()
        cycle, last = now - last, now

    print(f"workload {name}: seed {seed}, {len(plain)} untraced passes of {len(commands)} invocations")
    if trace:
        if absent:
            print("absent hooks (reported as 0): " + ", ".join(sorted(absent)))
        metrics = {}
        for metric, unit in spans.LAYER_METRICS.items():
            if metric == "trace.overhead_s":
                value = _pass_wall(traced) - _pass_wall(plain)
            else:
                value = statistics.median(m[metric] for m in layers) if layers else 0.0
            metrics[metric] = _metric(value, unit)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "pass_wall_s": _metric(_pass_wall(plain), "s"),
            "pass_cpu_s": _metric(statistics.median(sum(o.cpu_s for o in p) for p in plain), "s"),
            "peak_rss_mb": _metric(statistics.median(max(o.rss_mb for o in p) for p in plain), "MB"),
        }
    for metric, entry in metrics.items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  operations attempted {runner.attempted}, failed {runner.failed}, correct {runner.correct}")
    return {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bayesbag" / "cli.py").is_file():
        print(f"error: no bayesbag source tree at {SRC}", file=sys.stderr)
        return 2
    checker = Checker()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), checker)
    finally:
        checker.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
