"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 bench/steadiness.py --runs 10 [--first-seed 1]

Runs the command of BENCHMARK.json once per (seed, workload) for every
workload it lists, seeds ``first-seed .. first-seed + runs - 1``, interleaving
workloads so that slow drift of the machine spreads over all of them.  For
every workload and metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median against the
metric's bound, plus the share of failed operations in each run.  This is how
the bounds in BENCHMARK.json were set: every spread should sit below a third
of its bound.  It exits 1 if an output is wrong, an operation failed or a
spread other than that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = {w["name"]: [] for w in spec["workloads"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in results:
            start = time.perf_counter()
            result = run_once(spec["command"], workload, seed, spec["run_seconds"])
            elapsed = time.perf_counter() - start
            results[workload].append({"seed": seed, "elapsed_s": elapsed, **result})
            values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {workload} ({elapsed:.1f} s): {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_ok = True
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        longest = max(r["elapsed_s"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs (longest {longest:.1f} s), failed share {shares}, all correct {correct}")
        print(f"  {'metric':32s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'bound':>6s}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                # setup_s is a median of SETUP_REPEATS single invocations, so its
                # spread is wider than that of the pass metrics; its bound limits
                # how far its median may move between two sets of runs.
                if metric != "setup_s":
                    worst_ok &= spread <= bound
            print(f"  {metric:32s} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        worst_ok &= correct and shares == [0.0]
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
