"""The measuring loop of one run: a warm-up pass, then passes for a set time.

Every pass runs on a fresh store, so a pass's numbers do not depend on the
passes before it. Each timed figure of a job, its round trips included, is
normalized by the probes (probe.py) run just before and after that job, to
seconds of a machine on which the probe takes ``probe.REFERENCE_S``. Each
timed end-to-end metric is the median of its normalized values over the
measured passes. See README.md for the measured drift and for what each
metric covers.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from probe import REFERENCE_S, Probe
from spans import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, Oracle, run_pass

_CPU_PROBE_A = np.ones((64, 256))
_CPU_PROBE_B = np.ones((256, 16))

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_MBps": "MB/s",
    "job_s": "s",
    "passive_job_s": "s",
    "invoke_p50_us": "us",
    "get_p50_ms": "ms",
    "persist_p50_ms": "ms",
    "wire_B_per_input_B": "B/B",
    "rss_peak_MB": "MB",
}


def _tails(samples: dict) -> list[str]:
    """p50, and the highest of p90/p99 with at least ten samples beyond it."""
    lines = []
    for op, ns in samples.items():
        if not ns:
            continue
        q = statistics.quantiles(ns, n=100) if len(ns) > 1 else [ns[0]] * 99
        parts = [f"p50 {statistics.median(ns) / 1e3:.1f} us"]
        for pct, need in ((90, 100), (99, 1000)):
            if len(ns) >= need:
                parts.append(f"p{pct} {q[pct - 1] / 1e3:.1f} us")
        lines.append(f"  {op}: n={len(ns)} " + ", ".join(parts))
    return lines


def _cpu_probe_s() -> float:
    """Time of a short mix of interpreted Python and a small BLAS call."""
    t0 = time.perf_counter()
    sum(i * i for i in range(10000))
    _CPU_PROBE_A @ _CPU_PROBE_B
    return time.perf_counter() - t0


def pin_fastest_cpu(cpus: list[int]) -> int:
    """Pin this thread, and the threads it starts, to the CPU of ``cpus`` that
    runs the probe fastest right now.

    A request and its reply never run at the same time, so one CPU serves
    both the client and the server thread, without cross-CPU wake-ups. Each
    CPU of a shared machine drifts between fast and slow states on its own,
    for seconds at a time; choosing before each pass avoids a slow one.
    """
    best = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(_cpu_probe_s() for _ in range(5))
    cpu = min(best, key=best.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(workload: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> int:
    w = WORKLOADS[workload]
    out_dir.mkdir(exist_ok=True)
    arena_dir = Path(tempfile.mkdtemp(prefix="arenas-", dir=out_dir))
    samples: dict[str, list[float]] = {"invoke": [], "get": [], "persist": []}
    oracle = Oracle(w, seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    calls: dict[str, list[float]] = {op: [] for op in samples}  # every measured call
    p50s: list[dict[str, float]] = []  # per measured pass, normalized, in ns
    cpus = sorted(os.sched_getaffinity(0))
    probe = Probe()

    def one_pass():
        pin_fastest_cpu(cpus)
        result = run_pass(w, seed, arena_dir, oracle, samples, probe, tracer)
        p50s.append({op: statistics.median(ns) for op, ns in samples.items()})
        for op, ns in samples.items():
            calls[op] += ns
            ns.clear()
        return result

    try:
        warm_up = one_pass()
        p50s.clear()
        for ns in calls.values():
            ns.clear()
        if tracer:
            tracer.spans.clear()
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(one_pass())
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(arena_dir, ignore_errors=True)

    every = [warm_up, *passes]
    problems = [p for r in every for p in r.problems]
    if any(r.counts != every[0].counts for r in every):
        problems.append("exact per-pass counters differ between passes")

    def median(attr):
        return statistics.median(getattr(r, attr) for r in passes)

    print(f"{workload}: seed {seed}, {len(passes)} measured passes after one warm-up pass")
    print(
        f"probe {REFERENCE_S / median('speed') * 1e3:.1f} ms against {REFERENCE_S * 1e3:.0f} ms"
        f" for reference; active job {median('wall_job_s'):.4f} s of wall time"
    )
    if tracer:
        print(f"traced job_s {median('job_s'):.4f} s, passive_job_s {median('passive_job_s'):.4f} s")
        print("round-trip latency (traced, normalized like the metrics):")
        print("\n".join(_tails(calls)))
        metrics = layer_metrics(tracer.spans, len(passes), passes[0].counts)
        own = {"apps": metrics["apps.self_ms"]}
        own.update((k[8:], v) for k, v in metrics.items() if k.startswith("self_ms."))
        print("layer self time per pass: " + ", ".join(f"{k} {v:.1f} ms" for k, v in own.items()))
        trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_path)
        print(f"spans written to {trace_path}")
        units = PER_LAYER
    else:
        per_pass = {
            "setup_s": [r.setup_s for r in passes],
            "ingest_MBps": [r.ingest_MBps for r in passes],
            "job_s": [r.job_s for r in passes],
            "passive_job_s": [r.passive_job_s for r in passes],
            "invoke_p50_us": [p["invoke"] / 1e3 for p in p50s],
            "get_p50_ms": [p["get"] / 1e6 for p in p50s],
            "persist_p50_ms": [p["persist"] / 1e6 for p in p50s],
        }
        print("normalized values of the measured passes:")
        for name, values in per_pass.items():
            print(f"  {name}: " + " ".join(f"{v:.5g}" for v in values))
        metrics = {name: statistics.median(values) for name, values in per_pass.items()}
        metrics["wire_B_per_input_B"] = median("wire_B_per_input_B")
        # the first measured pass: later ones add only the allocator arenas
        # of the server threads that each fresh store starts
        metrics["rss_peak_MB"] = passes[0].rss_peak_MB
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
    attempted = sum(r.attempted for r in every)
    failures = sum((r.failures for r in every), collections.Counter())
    failed = sum(failures.values())
    print(f"operations: {attempted} attempted, {failed} failed")
    for error, n in failures.items():
        print(f"  {n} x {error}")
    print("checks: " + ("all passed" if not problems else "FAILED"))
    for p in dict.fromkeys(problems):
        print(f"  {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1
