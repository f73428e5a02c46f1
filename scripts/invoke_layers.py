#!/usr/bin/env python3
"""Per-call microseconds of one invoke at each layer of the store, in process.

    PYTHONPATH=src python scripts/invoke_layers.py

Three invokes. Two on the same NVM-direct objects: a 96x96 in-place FMA
whose two arguments are stored objects named by reference, and a mutating
routine that takes the same arguments and leaves its target as it is, so that
all but its 73,728-byte write back is the fixed cost of such an invoke. The
third is the k-means ``accumulate`` of the kmeans-spill benchmark: a DRAM
accumulator of 20 x 501 values takes the partial of a 256 x 500 block held in
Memory Mode, whose cache is too small to keep it, so that every read misses,
with the 20 centroids in DRAM; the block and the centroids are named by
reference. Each is timed at five layers, from the inside out:

    kernel          the routine's function on the payload arrays
    Engine.invoke   the engine call, with claims, tier views and charges
    handle_frame    ServerCore.handle_frame_bytes on the encoded request frame
    loopback        Session.invoke over the in-process transport
    tcp             Session.invoke over TCP to a server thread of this process

A figure is the best of 30 rounds of 200 calls, per call: short rounds, so
that the best of them misses the host's bursts of other work even for the
half-millisecond accumulate. The difference between two layers is what the
outer one adds. The last line is the kernel's share of the invoke over TCP.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

# one BLAS thread, as the benchmark runs, read by OpenBLAS when numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np

from aostore.client import Session
from aostore.engine import Engine, ResultPlacement, Routine, RoutineCatalog
from aostore.kernels import MATRIX_CLASS, POINTS_CLASS, KMeansSpec, build_catalog, fma_values
from aostore.kernels import gen_points, initial_centroids, kernel_classes, kernel_methods
from aostore.model import MethodDescriptor, ObjectId, PointsBlock, Submatrix
from aostore.model import SEM_NONE, SEM_SUBMATRIX
from aostore.tiers import ArenaConfig, TierKind, copy_of, open_tier
from aostore.wire import MESSAGES, MSG_INVOKE, Frame, ServerCore, TcpServer
from aostore.wire import encode_body, encode_frame

CALLS, ROUNDS = 200, 30
LAYERS = ("kernel", "Engine.invoke", "handle_frame", "loopback", "tcp")


def best_us(call) -> float:
    """The best per-call time of ``call()`` in microseconds."""
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter_ns()
        for _ in range(CALLS):
            call()
        best = min(best, (time.perf_counter_ns() - t0) / CALLS / 1e3)
    return best


def noop(target, args):
    """A mutating routine that leaves its target as it is."""
    return target.values


def persist(engine: Engine, class_name: str, payload, tier=TierKind.NVM_DIRECT) -> ObjectId:
    return engine.make_persistent(class_name, payload.schema(), tier, copy_of(payload.data_view()))


def open_store(arenas) -> tuple[Engine, dict]:
    """An engine over DRAM, NVM-direct and Memory-Mode tiers with their arenas
    in the directory ``arenas``, holding the objects of the three invokes;
    and the invokes by name, each as (kernel call, target, method, args)."""
    kernels = build_catalog()
    catalog = RoutineCatalog([*map(kernels.get, kernels.keys()), Routine("noop", noop, True)])
    tiers = {
        TierKind.DRAM: ArenaConfig(capacity_bytes=1 << 24),
        TierKind.NVM_DIRECT: ArenaConfig(Path(arenas) / "nvm.arena", 1 << 24),
        TierKind.MEMORY_MODE: ArenaConfig(Path(arenas) / "mm.arena", 1 << 24, 1 << 19),
    }
    engine = Engine({kind: open_tier(kind, config) for kind, config in tiers.items()}, catalog)
    for desc in kernel_classes():
        engine.register_class(desc)
    for desc in kernel_methods():
        engine.register_method(desc)
    engine.register_method(MethodDescriptor(
        MATRIX_CLASS, "noop", "noop", (SEM_SUBMATRIX, SEM_SUBMATRIX), SEM_NONE, True))

    rng = np.random.default_rng(7)
    acc, a, b = (persist(engine, MATRIX_CLASS, Submatrix(v))
                 for v in (np.zeros((96, 96)), rng.random((96, 96)), rng.random((96, 96))))
    accv, av, bv = map(engine.get_object, (acc, a, b))
    args = [a, b]

    spec = KMeansSpec()
    blocks = gen_points(5, 512, spec.dims, 256)
    points = persist(engine, POINTS_CLASS, blocks[1], TierKind.MEMORY_MODE)
    cents, sums = (persist(engine, POINTS_CLASS, p, TierKind.DRAM) for p in (
        initial_centroids(blocks, spec.centers), PointsBlock(np.zeros(spec.partial_shape))))
    sumsv, pointsv, centsv = map(engine.get_object, (sums, points, cents))
    accumulate = kernels.get("kmeans.accumulate").fn
    return engine, {
        "fma 96x96": (lambda: fma_values(accv.values, av.values, bv.values), acc, "fma", args),
        "no-op": (lambda: noop(accv, [av, bv]), acc, "noop", args),
        "accumulate": (lambda: accumulate(sumsv, [pointsv, centsv]), sums, "accumulate",
                       [points, cents]),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as arenas:
        engine, cases = open_store(arenas)
        core = ServerCore(engine)
        server = TcpServer(engine)
        loopback = Session.connect_loopback(core)
        tcp = Session.connect_tcp(server.host, server.port)
        request = MESSAGES[MSG_INVOKE].request
        rows = {}
        try:
            for name, (kernel, target, method, margs) in cases.items():
                body = encode_body(request, (target, method, ResultPlacement.value(), margs))
                frame = b"".join(encode_frame(Frame(MSG_INVOKE, 1, body)))
                rows[name] = [best_us(f) for f in (
                    kernel,
                    lambda: engine.invoke(target, method, margs),
                    lambda: core.handle_frame_bytes(frame),
                    lambda: loopback.invoke(target, method, margs),
                    lambda: tcp.invoke(target, method, margs),
                )]
        finally:
            loopback.close()
            tcp.close()
            server.stop()
            engine.close()

    print(f"in-process us per call, best of {ROUNDS} x {CALLS:,} calls")
    print(f"{'layer':<16}" + "".join(f"{name:>12}" for name in rows))
    for i, layer in enumerate(LAYERS):
        print(f"{layer:<16}" + "".join(f"{row[i]:>12.1f}" for row in rows.values()))
    print(f"{'kernel / tcp':<16}" + "".join(f"{row[0] / row[-1]:>12.0%}" for row in rows.values()))


if __name__ == "__main__":
    main()
