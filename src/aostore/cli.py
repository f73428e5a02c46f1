"""Command-line harness: `bench run ...` and `bench sweep --plan FILE`.

Exit codes: 0 success, 2 configuration/validation error, 1 runtime failure.
Cost model defaults can be overridden with environment variables
(AOSTORE_DRAM_READ_NS_PER_B, AOSTORE_DRAM_WRITE_NS_PER_B,
AOSTORE_NVM_READ_NS_PER_B, AOSTORE_NVM_WRITE_NS_PER_B, AOSTORE_PER_OP_NS).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .bench import (
    APPS,
    BenchmarkConfig,
    ConfigError,
    DATASETS,
    MODES,
    OBJECT_SIZES,
    RESULTS,
    TIERS,
    TRANSPORTS,
    emit_report,
    load_plan,
    run_benchmark,
    sweep,
    verify_report_metrics,
)
from .errors import StoreError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark configuration")
    run.add_argument("--app", required=True, choices=APPS)
    run.add_argument("--mode", default="active", choices=MODES)
    run.add_argument("--tier", default="dram", choices=TIERS)
    run.add_argument("--objects", default="big", choices=OBJECT_SIZES)
    run.add_argument("--dataset", default="desk", choices=DATASETS)
    run.add_argument("--result", default="value", choices=RESULTS)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--arena", dest="arena_path", default="bench-arenas",
                     help="directory for arena files")
    run.add_argument("--transport", default="loopback", choices=TRANSPORTS)
    run.add_argument("--dram-capacity", dest="dram_capacity_bytes", type=int, default=1 << 30)
    run.add_argument("--mm-cache", dest="mm_cache_bytes", type=int, default=0,
                     help="Memory-Mode cache bytes (0 = derive from dataset)")
    run.add_argument("--out", default=None, help="report path (default: stdout)")
    run.add_argument("--format", default="json", choices=("json", "csv"))
    run.add_argument("--repeat", type=int, default=1)

    sw = sub.add_parser("sweep", help="run a configuration matrix from a plan file")
    sw.add_argument("--plan", required=True, help="JSON plan file")
    sw.add_argument("--out", default="sweep.csv", help="aggregated CSV path")
    return parser


def _cmd_run(args) -> int:
    # every option of `run` but the output ones is named after its config field
    config = BenchmarkConfig(
        **{f.name: getattr(args, f.name) for f in fields(BenchmarkConfig) if hasattr(args, f.name)}
    )
    config.validate()
    for _ in range(max(1, args.repeat)):
        report = run_benchmark(config)
        verify_report_metrics(report.to_dict())
        if args.out is None:
            json.dump(report.to_dict(), sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            emit_report(report, args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    configs = load_plan(args.plan)
    for config in configs:
        config.validate()
    summary = sweep(configs, args.out)
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if summary["failures"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (StoreError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
