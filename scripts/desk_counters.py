#!/usr/bin/env python3
"""Run the desk sweep plan and write its reports without any wall-clock field.

What is left is deterministic: configuration, wire and tier counters, modeled
times, read-count histograms, result digests and phase names. Two checkouts
that move no counter write byte-identical files, so a refactor can show that
nothing moved with ``cmp before.json after.json``.

    PYTHONPATH=src python scripts/desk_counters.py [out.json] [plan.json]
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from aostore.bench import load_plan, run_benchmark

# derived from total_ns and method_total_ns, so wall-clock as well
WALL_METRICS = ("computation_to_data_ratio_ms_per_mb", "method_computation_index_ms_per_mb")


def without_wall_clock(report: dict) -> dict:
    report["wall_ns"] = {"phases": list(report["wall_ns"]["phases"])}
    for key in ("total_ns", "method_total_ns"):
        del report["raw"][key]
    for key in WALL_METRICS:
        del report["metrics"][key]
    return report


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("desk_counters.json")
    plan = Path(sys.argv[2]) if len(sys.argv) > 2 else Path(__file__).parent / "plans" / "desk_sweep.json"
    reports = []
    with tempfile.TemporaryDirectory() as arenas:
        for config in load_plan(plan):
            report = run_benchmark(dataclasses.replace(config, arena_path=arenas))
            reports.append(without_wall_clock(report))
    out.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"{len(reports)} reports written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
