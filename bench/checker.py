"""Check-and-aggregate worker for ``run.py``, one JSON request per stdin line.

    {"op": "check", "kind": "table1"|"bag"|"curves", "out_dir": ..., ...}
        -> {"ok": true} or {"ok": false, "error": "..."}
    {"op": "layers", "traces": [trace paths], "bytes_written": n}
        -> {"ok": true, "metrics": {...}, "absent": [...]}
    {"op": "ping"} -> {"ok": true}

Reading an 18 MB CSV or a large trace raises a process's high-water RSS,
and Linux carries a parent's high-water RSS into every child it spawns.
``run.py`` therefore stays small and leaves this work to this process, so
that the peak RSS it reads for each CLI process is the CLI's own.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import checks
import spans


def read_sample(path: str) -> checks.Sample:
    lines = Path(path).read_text(encoding="utf-8").split()
    return checks.Sample.of(lines[1:])  # the first line is a header


def check(req: dict) -> None:
    out = Path(req["out_dir"])

    def text(name):
        return (out / name).read_text(encoding="utf-8")

    kind = req["kind"]
    if kind == "table1":
        checks.check_table1(text("table1.csv"), req.get("mc_replicates"))
    elif kind == "bag":
        sample = read_sample(req["input"])
        checks.check_report(text("report.csv"), sample, req["scheme"], req["replicates"])
        checks.check_cdf(text("cdf.csv"), req["grid_points"])
    elif kind == "curves":
        sample = read_sample(req["input"])
        checks.check_curves(text("curves.csv"), sample, req["replicates"], req["grid_points"])
    else:
        raise ValueError(f"unknown check {kind!r}")


def handle(req: dict) -> dict:
    if req["op"] == "check":
        try:
            check(req)
        except checks.CheckError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception:  # a malformed file is a wrong output, not a crash
            return {"ok": False, "error": traceback.format_exc(limit=3)}
        return {"ok": True}
    if req["op"] == "layers":
        traces = [json.loads(Path(p).read_text(encoding="utf-8")) for p in req["traces"]]
        return {
            "ok": True,
            "metrics": spans.layer_metrics(traces, req["bytes_written"]),
            "absent": sorted({a for t in traces for a in t["absent"]}),
        }
    if req["op"] == "ping":
        return {"ok": True}
    raise ValueError(f"unknown op {req['op']!r}")


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(handle(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
