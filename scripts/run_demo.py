#!/usr/bin/env python3
"""Minimal end-to-end walkthrough of the active store.

Registers a class with a `mean` method, persists a block through a stub, and
invokes the method remotely; then runs one active and one passive histogram
over the same seeded dataset and prints the client-bound traffic of each.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from aostore import ClassDescriptor, Engine, MethodDescriptor, Session, Stub
from aostore.apps import run_app
from aostore.kernels import build_catalog
from aostore.model import FloatArray, ObjectIdFactory
from aostore.tiers import ArenaConfig, TierKind, open_tier
from aostore.wire import ServerCore


def main() -> None:
    arena_dir = Path(tempfile.mkdtemp(prefix="aostore-demo-"))
    catalog = build_catalog()
    tiers = {
        TierKind.DRAM: open_tier(TierKind.DRAM, ArenaConfig(capacity_bytes=1 << 30)),
        TierKind.NVM_DIRECT: open_tier(
            TierKind.NVM_DIRECT,
            ArenaConfig(path=arena_dir / "demo.arena", capacity_bytes=1 << 28),
        ),
    }
    engine = Engine(tiers, catalog, id_factory=ObjectIdFactory(seed=1))
    session = Session.connect_loopback(ServerCore(engine), catalog)

    # class registration happens once, on application initialization
    session.register_class(
        ClassDescriptor("Block", (("data", "f64_array"), ("label", "str")), ("mean",))
    )
    session.register_method(MethodDescriptor("Block", "mean", "stat.mean", (), "scalar"))

    block = Stub(session, "Block", FloatArray([1.0, 2.0, 3.0]))
    print("local mean :", block.call("mean"))
    oid = block.persist(TierKind.NVM_DIRECT)
    print("persisted  :", oid.hex())
    print("remote mean:", block.call("mean"))
    print("fetched    :", session.get(oid).values.tolist())

    # the locality story in one picture: same dataset, both execution modes
    for mode in ("active", "passive"):
        before = session.counters().bytes_received
        run = run_app("histogram", mode, session, seed=7, tier=TierKind.NVM_DIRECT,
                      profile={"n_elems": 1 << 20, "block_elems": 1 << 17}, engine=engine)
        client_bound = session.counters().bytes_received - before
        print(
            f"{mode:7s} histogram: dataset {run.dataset_bytes/1e6:7.1f} MB, "
            f"client-bound {client_bound/1e6:7.3f} MB, "
            f"sum(counts)={int(run.final.counts.sum())}"
        )

    session.close()
    engine.close()
    print("arena file :", arena_dir / "demo.arena")


if __name__ == "__main__":
    main()
