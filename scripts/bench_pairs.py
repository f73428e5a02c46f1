#!/usr/bin/env python3
"""Compare two checkouts with alternated benchmark runs and write a BENCH_*.json.

    python scripts/bench_pairs.py --parent ../a/parent --change ../a/change \\
        --parent-rev 29e1ea0 --note "what the change does" \\
        --workload matadd-nvm:5 --workload matmul-fma:3 --seconds 30 --seed 11 \\
        --claim matadd-nvm:get_p50_ms --out BENCH_wire.json

Each pair runs ``python3 perfbench/run.py`` once in each checkout, one run at
a time, and the side that runs first alternates from pair to pair. The two
paths must have the same length: the allocator's behaviour, and with it some
metrics, has been seen to depend on the length of the checkout's path. Metric
units, directions and bounds come from the change's ``BENCHMARK.json``. A run
whose results are wrong stops the comparison.

The output has, per workload and end-to-end metric, each side's runs, median
and inclusive quartiles, the ratio of the medians, how many pairs the change
won, and whether its median is within the metric's bound; and per workload
the failed and attempted operations of every run. A ``--claim`` adds whether
the change won at least 9 in 10 pairs and beat the parent's median by more
than the parent's interquartile range. The file is rewritten after every
pair, so an interrupted comparison keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

METHOD = (
    "alternated pairs of parent and change runs in checkouts with paths of equal length, "
    "the side that runs first alternating from pair to pair; one run at a time; "
    "medians and quartiles (inclusive) over the runs of each side"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--parent-rev", required=True, help="the parent's commit, as recorded")
    parser.add_argument("--note", required=True, help="what the change does, one line")
    parser.add_argument("--machine", default="", help="the machine, as recorded")
    parser.add_argument(
        "--workload", action="append", required=True, metavar="NAME:PAIRS",
        help="a workload and its number of pairs; repeatable",
    )
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric a gain is claimed on")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    if len(str(args.parent)) != len(str(args.change)):
        parser.error(f"paths differ in length: {args.parent} and {args.change}")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its last line of output, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    if not out.get("correct"):
        raise RuntimeError(f"{checkout}: {workload} run failed its checks\n{proc.stderr}")
    return out


def summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    p, c = summary(parent), summary(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    limit = p["median"] * (1 + spec["bound"] if lower else 1 - spec["bound"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_over_parent": round(c["median"] / p["median"], 4) if p["median"] else None,
        "change_wins": f"{wins}/{len(parent)}",
        "within_bound": c["median"] <= limit if lower else c["median"] >= limit,
    }


def claim(report: dict, workload: str, metric: str) -> dict:
    m = report["workloads"][workload]["metrics"][metric]
    wins, pairs = map(int, m["change_wins"].split("/"))
    sign = 1 if m["better"] == "lower" else -1
    difference = sign * (m["parent"]["median"] - m["change"]["median"])
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    return {
        "workload": workload,
        "metric": metric,
        "change_over_parent": m["change_over_parent"],
        "change_wins": m["change_wins"],
        "median_difference": difference,
        "parent_interquartile_range": spread,
        "met": wins >= math.ceil(0.9 * pairs) and difference > spread,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = {m["name"]: m for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {
        "change": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "parent": args.parent_rev,
        "machine": args.machine,
        "method": METHOD,
        "workloads": {},
    }
    for item in args.workload:
        workload, pairs = item.rsplit(":", 1)
        runs = {"parent": [], "change": []}
        for pair in range(int(pairs)):
            for side in ("parent", "change")[:: 1 if pair % 2 == 0 else -1]:
                out = run_once(getattr(args, side), workload, args.seed, args.seconds)
                runs[side].append(out)
                print(f"{workload} pair {pair + 1} {side}: failed {out['failed']}/{out['attempted']}",
                      file=sys.stderr)
            report["workloads"][workload] = {
                "seed": args.seed,
                "seconds": args.seconds,
                "pairs": pair + 1,
                "failed_of_attempted": {
                    side: [f"{r['failed']}/{r['attempted']}" for r in side_runs]
                    for side, side_runs in runs.items()
                },
                "metrics": {
                    name: compare(spec, *[[r["metrics"][name]["value"] for r in runs[side]]
                                          for side in ("parent", "change")])
                    for name, spec in specs.items()
                },
            }
            if args.claim and args.claim.split(":")[0] in report["workloads"]:
                report["claim"] = claim(report, *args.claim.split(":"))
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
