"""Run one workload of the aostore benchmark and print its metrics.

    python3 perfbench/run.py --workload matmul-fma --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the store from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the run is traced and they are the
per-layer ones. Arenas, and the spans of a traced run, go to
``.perfbench-out/`` in the checkout. Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("matmul-fma", "kmeans-spill", "matadd-nvm")
# OpenBLAS reads these when numpy loads. One thread keeps kernel times from
# depending on whether a second CPU is free, and OpenBLAS results are
# reproducible only for a fixed thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, help="measuring time after warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "aostore" / "__init__.py").is_file():
        print(f"perfbench: no aostore sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import measure  # loads numpy, so only after the thread count is set

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench-out")


if __name__ == "__main__":
    sys.exit(main())
