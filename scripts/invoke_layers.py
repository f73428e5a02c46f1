#!/usr/bin/env python3
"""Per-call microseconds of one invoke at each layer of the store, in process.

    PYTHONPATH=src python scripts/invoke_layers.py

Two invokes on the same NVM-direct objects: a 96x96 in-place FMA whose two
arguments are stored objects named by reference, and a mutating routine that
takes the same arguments and leaves its target as it is, so that all but its
73,728-byte write back is the fixed cost of such an invoke. Each is timed at
five layers, from the inside out:

    kernel          the routine's function on the payload arrays
    Engine.invoke   the engine call, with claims, tier views and charges
    handle_frame    ServerCore.handle_frame_bytes on the encoded request frame
    loopback        Session.invoke over the in-process transport
    tcp             Session.invoke over TCP to a server thread of this process

A figure is the best of 3 rounds of 2,000 calls, per call; the difference
between two layers is what the outer one adds.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from aostore.client import Session
from aostore.engine import ByRef, Engine, ResultPlacement, Routine, RoutineCatalog
from aostore.kernels import MATRIX_CLASS, build_catalog, fma_values
from aostore.kernels import kernel_classes, kernel_methods
from aostore.model import MethodDescriptor, ObjectId, SEM_NONE, SEM_SUBMATRIX, Submatrix
from aostore.tiers import ArenaConfig, TierKind, copy_of, open_tier
from aostore.wire import MESSAGES, MSG_INVOKE, Frame, ServerCore, TcpServer
from aostore.wire import encode_body, encode_frame

CALLS, ROUNDS = 2000, 3
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


def persist(engine: Engine, class_name: str, payload) -> ObjectId:
    tier = TierKind.NVM_DIRECT
    return engine.make_persistent(class_name, payload.schema(), tier, copy_of(payload.data_view()))


def main() -> None:
    kernels = build_catalog()
    catalog = RoutineCatalog([*map(kernels.get, kernels.keys()), Routine("noop", noop, True)])
    with tempfile.TemporaryDirectory() as arenas:
        config = ArenaConfig(path=Path(arenas) / "nvm.arena", capacity_bytes=1 << 24)
        engine = Engine({TierKind.NVM_DIRECT: open_tier(TierKind.NVM_DIRECT, config)}, catalog)
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
        args = [ByRef(a), ByRef(b)]
        cases = {
            "fma 96x96": (lambda: fma_values(accv.values, av.values, bv.values), "fma"),
            "no-op": (lambda: noop(accv, [av, bv]), "noop"),
        }

        core = ServerCore(engine)
        server = TcpServer(engine)
        loopback = Session.connect_loopback(core)
        tcp = Session.connect_tcp(server.host, server.port)
        request = MESSAGES[MSG_INVOKE].request
        rows = {}
        try:
            for name, (kernel, method) in cases.items():
                body = encode_body(request, (acc, method, ResultPlacement.value(), args))
                frame = b"".join(encode_frame(Frame(MSG_INVOKE, 1, body)))
                rows[name] = [best_us(f) for f in (
                    kernel,
                    lambda: engine.invoke(acc, method, args),
                    lambda: core.handle_frame_bytes(frame),
                    lambda: loopback.invoke(acc, method, args),
                    lambda: tcp.invoke(acc, method, args),
                )]
        finally:
            loopback.close()
            tcp.close()
            server.stop()
            engine.close()

    print(f"in-process us per call, best of {ROUNDS} x {CALLS:,} calls, NVM-direct tier")
    print(f"{'layer':<16}" + "".join(f"{name:>12}" for name in rows))
    for i, layer in enumerate(LAYERS):
        print(f"{layer:<16}" + "".join(f"{row[i]:>12.1f}" for row in rows.values()))


if __name__ == "__main__":
    main()
