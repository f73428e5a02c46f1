from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import settings

from aostore.engine import Engine
from aostore.kernels import build_catalog
from aostore.model import ObjectIdFactory
from aostore.tiers import ArenaConfig, TierKind, copy_of, open_tier
from aostore.wire import ServerCore
from aostore.client import Session

settings.register_profile("store", deadline=None, max_examples=80)
settings.load_profile("store")


@pytest.fixture
def arena_dir(tmp_path):
    d = tmp_path / "arenas"
    d.mkdir()
    return d


def make_tiers(arena_dir, *, capacity=1 << 26, cache=1 << 22):
    return {
        TierKind.DRAM: open_tier(TierKind.DRAM, ArenaConfig(capacity_bytes=capacity)),
        TierKind.NVM_DIRECT: open_tier(
            TierKind.NVM_DIRECT,
            ArenaConfig(path=arena_dir / "nvm.arena", capacity_bytes=capacity),
        ),
        TierKind.MEMORY_MODE: open_tier(
            TierKind.MEMORY_MODE,
            ArenaConfig(
                path=arena_dir / "mm.arena",
                capacity_bytes=capacity,
                cache_capacity_bytes=cache,
            ),
        ),
    }


def peak_traced_bytes(call) -> int:
    """The peak of the memory tracemalloc traces while ``call()`` runs: numpy
    arrays and Python objects, not tier mappings."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def persist(engine, class_name, payload, tier):
    """``engine.make_persistent`` of a payload in memory, copied in."""
    return engine.make_persistent(class_name, payload.schema(), tier, copy_of(payload.data_view()))


@pytest.fixture
def engine(arena_dir):
    eng = Engine(make_tiers(arena_dir), build_catalog(), id_factory=ObjectIdFactory(42))
    yield eng
    eng.close()


@pytest.fixture
def session(engine):
    s = Session.connect_loopback(ServerCore(engine), build_catalog())
    yield s
    s.close()
