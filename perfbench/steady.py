"""Check that the benchmark repeats: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads kmeans-spill

Run it from the root of a checkout. Run i of set A uses seed ``1000 + i`` and
run i of set B seed ``1100 + i``; the two sets alternate which goes
first. Each run is its own ``perfbench/run.py`` process. For every workload
and end-to-end metric it prints each set's median, quartiles and spread
(interquartile distance over the median), then says whether the sets agree
with the bounds in BENCHMARK.json:

* each spread, except that of ``setup_s``, is within the metric's bound;
* set B's median is not worse than set A's by more than the bound;
* the share of failed operations is the same in every run.

Raw results go to ``.perfbench-out/steady-<time>.json``. Exit code 0 means
the sets agree.
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
RUN_TIMEOUT_S = 180
SEED_BASE = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["stdout"] = lines[:-1]  # kept in the raw results, with the per-pass values
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workloads.split(",")
    results = {s: {w: [] for w in workloads} for s in "AB"}
    for i in range(args.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            seed = SEED_BASE + i + (100 if s == "B" else 0)
            for w in workloads:
                t0 = time.perf_counter()
                results[s][w].append(run_once(w, seed, args.seconds))
                r = results[s][w][-1]
                print(f"run {i} set {s} {w} seed {seed} ({time.perf_counter() - t0:.0f} s): "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        runs = results["A"][w] + results["B"][w]
        shares = {(r["failed"] / r["attempted"]) for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
        print(f"  failed share {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':20} {'set A median [q1, q3] spread':44} {'set B median [q1, q3] spread':44} "
              f"{'B vs A':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in "AB":
                stats[s] = spread([r["metrics"][name]["value"] for r in results[s][w]])
            worse = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            if m["better"] == "higher":
                worse = -worse
            verdict = worse <= bound and (
                name == "setup_s" or all(stats[s][3] <= bound for s in "AB")
            )
            ok &= verdict
            cells = [f"{med:.5g} [{q1:.5g}, {q3:.5g}] {sp:6.1%}" for med, q1, q3, sp in stats.values()]
            print(f"  {name:20} {cells[0]:44} {cells[1]:44} {worse:+7.1%} {bound:6.0%}"
                  f"{'' if verdict else '  <- outside bound'}")
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))
    print(f"\nraw results: {path}")
    print("the two sets agree within the bounds" if ok else "the two sets do NOT agree within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
