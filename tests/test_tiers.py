from __future__ import annotations

import mmap
import os
import random
import shutil
import struct
from dataclasses import astuple

import numpy as np
import pytest

from aostore.errors import ArenaError, CapacityError, NotFoundError, InvalidRequestError
from aostore.model import ObjectIdFactory, Schema, Submatrix, TAG_SUBMATRIX
from aostore.bench import CostModel, modeled_time_ns
from aostore.tiers import ArenaConfig, DramTier, TierKind, open_tier

from .conftest import peak_traced_bytes
from .oracles import LruModel

ids = ObjectIdFactory(seed=99)


def oid():
    return ids.new_object_id()


@pytest.fixture
def nvm(tmp_path):
    tier = open_tier(
        TierKind.NVM_DIRECT,
        ArenaConfig(path=tmp_path / "a.arena", capacity_bytes=1 << 20),
    )
    yield tier
    tier.close()


@pytest.fixture
def mm(tmp_path):
    tier = open_tier(
        TierKind.MEMORY_MODE,
        ArenaConfig(path=tmp_path / "m.arena", capacity_bytes=1 << 20, cache_capacity_bytes=1 << 14),
    )
    yield tier
    tier.close()


class TestDram:
    def test_store_read_round_trip(self):
        tier = DramTier(ArenaConfig(capacity_bytes=1 << 20))
        key = oid()
        tier.store(key, b"hello tiers")
        assert bytes(tier.read_view(key)) == b"hello tiers"

    def test_store_one_mib_counts_bytes(self):
        tier = DramTier(ArenaConfig(capacity_bytes=1 << 21))
        tier.store(oid(), bytes(1 << 20))
        assert tier.media_counters()["dram"].bytes_written == 1 << 20

    def test_capacity_error_leaves_counters_unchanged(self):
        tier = DramTier(ArenaConfig(capacity_bytes=16))
        with pytest.raises(CapacityError):
            tier.store(oid(), bytes(32))
        c = tier.media_counters()["dram"]
        assert c.bytes_written == 0 and c.write_ops == 0

    def test_delete_frees_exact_capacity(self):
        tier = DramTier(ArenaConfig(capacity_bytes=100))
        key = oid()
        tier.store(key, bytes(60))
        assert tier.used_bytes == 60
        tier.free(key)
        assert tier.used_bytes == 0

    def test_read_after_delete_not_found(self):
        tier = DramTier(ArenaConfig(capacity_bytes=100))
        key = oid()
        tier.store(key, b"x")
        tier.free(key)
        with pytest.raises(NotFoundError):
            tier.read_view(key)

    def test_capacity_beyond_memory_reserves_none(self):
        # 1 TiB: a mapping that reserved its pages would fail with ENOMEM
        tier = DramTier(ArenaConfig(capacity_bytes=1 << 40))
        key = oid()
        tier.store(key, b"sparse")
        assert bytes(tier.read_view(key)) == b"sparse"
        tier.close()

    def test_fresh_tier_all_zero(self):
        c = DramTier(ArenaConfig(capacity_bytes=1)).media_counters()["dram"]
        assert astuple(c) == (0, 0, 0, 0, 0, 0)
        assert modeled_time_ns(c, "dram", CostModel()) == 0


def _arena_of_one_object(path) -> int:
    """Write a closed NVM arena of 4,096 data bytes holding one 8-byte
    object, 4,196 bytes in all: the 64-byte header, the data region, and a
    directory of a u32 count and one 32-byte entry. Returns its capacity."""
    tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
    tier.store(oid(), bytes(8))
    tier.close()
    assert path.stat().st_size == 64 + 4096 + 4 + 32
    return 4096


class TestNvmDirect:
    def test_round_trip_and_counters(self, nvm):
        key = oid()
        nvm.store(key, bytes(range(256)))
        view = nvm.read_view(key)
        assert bytes(view) == bytes(range(256))
        c = nvm.media_counters()["nvm"]
        assert c.bytes_written == 256 and c.bytes_read == 256

    def test_fresh_arena_has_magic(self, tmp_path):
        path = tmp_path / "fresh.arena"
        open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096)).close()
        assert path.read_bytes()[:4] == b"AOSA"

    def test_reopen_recovers_bytes(self, tmp_path):
        path = tmp_path / "r.arena"
        key = oid()
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        tier.store(key, b"survives close")
        tier.close()
        tier2 = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        assert bytes(tier2.read_view(key)) == b"survives close"
        tier2.close()

    def test_in_place_write_persists(self, tmp_path):
        path = tmp_path / "w.arena"
        key = oid()
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        tier.store(key, bytearray(16))
        tier.write_in_place(key, 4, b"ABCD")
        tier.close()
        tier2 = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        assert bytes(tier2.read_view(key))[4:8] == b"ABCD"
        tier2.close()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.arena"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ArenaError, match="magic"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))

    def test_corrupt_directory_count_rejected(self, tmp_path):
        # a count of 2**32 - 1 entries would ask pread for 160 GiB
        path = tmp_path / "count.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        tier.store(oid(), bytes(64))
        tier.close()
        with path.open("r+b") as fh:
            fh.seek(64 + 4096)  # the directory follows the header and the data region
            fh.write(struct.pack("<I", 0xFFFFFFFF))
        with pytest.raises(ArenaError, match="truncated directory"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))

    def test_version_1_arena_rejected(self, tmp_path):
        # the version-1 layout: a 22-byte header, data right after it, and an
        # empty directory at the end
        path = tmp_path / "v1.arena"
        capacity = 4096
        header = struct.pack("<4sHQQ", b"AOSA", 1, capacity, 22 + capacity)
        path.write_bytes(header + bytes(capacity) + struct.pack("<I", 0))
        with pytest.raises(ArenaError, match="unsupported version 1"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=capacity))

    def test_capacity_below_directory_rejected(self, tmp_path):
        path = tmp_path / "cap.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=8192))
        tier.store(oid(), bytes(4096))
        tier.close()
        with pytest.raises(ArenaError, match="capacity"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1024))

    def test_directory_offset_inside_data_rejected(self, tmp_path):
        # a directory at byte 256 reads as empty, and a flush would write it
        # over the data region and cut the file there
        path = tmp_path / "diroff.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        tier.store(oid(), b"\x01" * 64)
        tier.close()
        with path.open("r+b") as fh:
            fh.seek(14)  # dir_offset, after magic, version and capacity
            fh.write(struct.pack("<Q", 256))
        before = path.read_bytes()
        with pytest.raises(ArenaError, match="directory offset 256"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        assert path.read_bytes() == before

    def test_overlapping_directory_entries_rejected(self, tmp_path):
        path = tmp_path / "overlap.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        tier.store(oid(), bytes(64))  # at offset 0
        tier.store(oid(), bytes(64))  # at offset 64
        tier.close()
        with path.open("r+b") as fh:
            fh.seek(64 + 4096 + 4 + 32 + 16)  # the second entry's offset
            fh.write(struct.pack("<Q", 32))
        before = path.read_bytes()
        with pytest.raises(ArenaError, match="overlap"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        assert path.read_bytes() == before

    def test_a_file_shorter_than_its_header_is_refused(self, tmp_path):
        path = tmp_path / "short.arena"
        path.write_bytes(b"AOSA" + bytes(6))
        with pytest.raises(ArenaError, match="truncated header"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))

    @pytest.mark.parametrize("size", [164, 4160, 4162])
    def test_a_file_cut_before_its_directory_count_is_refused(self, tmp_path, size):
        """Cut inside the data region, at its end, or inside the count: the
        directory cannot be read, so the file is refused before it is mapped
        or written."""
        path = tmp_path / "cut.arena"
        _arena_of_one_object(path)
        os.truncate(path, size)
        with pytest.raises(ArenaError, match="truncated directory header"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        assert path.stat().st_size == size

    def test_a_directory_entry_past_the_capacity_is_refused(self, tmp_path):
        path = tmp_path / "past.arena"
        capacity = _arena_of_one_object(path)
        with path.open("r+b") as fh:
            fh.seek(64 + capacity + 4 + 16)  # the entry's offset, after the count and the id
            fh.write(struct.pack("<Q", capacity))
        with pytest.raises(ArenaError, match="exceeds capacity 4096"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=capacity))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize(
        "kind", [TierKind.NVM_DIRECT, TierKind.MEMORY_MODE], ids=lambda k: k.name.lower()
    )
    def test_failed_create_closes_its_fd(self, tmp_path, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise OSError("mapping refused")

        monkeypatch.setattr(mmap, "mmap", refuse)
        config = ArenaConfig(
            path=tmp_path / "f.arena", capacity_bytes=1 << 16, cache_capacity_bytes=1 << 12
        )
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="mapping refused"):
            open_tier(kind, config)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_reopen_recovers_a_hole_between_live_objects(self, tmp_path):
        # x, y, z fill the arena; with y freed, only y's old region is left
        path = tmp_path / "h.arena"
        x, y, z = oid(), oid(), oid()
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=192))
        for key, fill in ((x, b"x"), (y, b"y"), (z, b"z")):
            tier.store(key, fill * 64)
        tier.free(y)
        tier.flush()
        tier.close()
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=192))
        new = oid()
        tier.store(new, b"n" * 64)
        with pytest.raises(CapacityError):
            tier.store(oid(), bytes(8))
        assert [bytes(tier.read_view(k)) for k in (x, new, z)] == [b"x" * 64, b"n" * 64, b"z" * 64]
        tier.close()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_a_crash_after_reuse_never_serves_one_object_as_another(self, tmp_path):
        """A copy of the arena file taken without a flush, as a crash leaves
        it, lists X with X's bytes or not at all. Today a freed region is
        reused before the next flush, so Y, stored after X is freed, lands in
        the region the flushed directory still gives X, and the copy serves
        Y's bytes under X's id."""
        path, crashed = tmp_path / "c.arena", tmp_path / "crashed.arena"
        x, y = oid(), oid()
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=4096))
        tier.store(x, b"X" * 64)
        tier.flush()
        tier.free(x)
        tier.store(y, b"Y" * 64)
        shutil.copyfile(path, crashed)
        tier.close()
        reopened = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=crashed, capacity_bytes=4096))
        try:
            assert x not in reopened.ids() or bytes(reopened.read_view(x)) == b"X" * 64
        finally:
            reopened.close()

    def test_flush_is_idempotent(self, nvm):
        nvm.store(oid(), bytes(64))
        before = nvm.media_counters()["nvm"]
        nvm.flush()
        nvm.flush()
        assert astuple(nvm.media_counters()["nvm"]) == astuple(before)


@pytest.mark.parametrize(
    "kind", [TierKind.DRAM, TierKind.NVM_DIRECT], ids=lambda k: k.name.lower()
)
class TestArenaPath:
    """The storage path the DRAM and NVM tiers share."""

    @pytest.fixture
    def tier(self, kind, tmp_path):
        tier = open_tier(kind, ArenaConfig(path=tmp_path / "a.arena", capacity_bytes=1 << 20))
        yield tier
        tier.close()

    def test_zero_copy_view_sees_in_place_write(self, tier):
        key = oid()
        tier.store(key, bytes(8))
        view = tier.read_view(key)
        tier.write_in_place(key, 0, b"ZZZZZZZZ")
        assert bytes(view) == b"ZZZZZZZZ"

    def test_payload_views_are_aligned(self, tier):
        for k in (3, 8, 96):
            key = oid()
            tier.store(key, Submatrix(np.ones((k, k))).data_view())
            payload = Schema(TAG_SUBMATRIX, (k,)).view(tier.read_view(key))
            assert payload.values.flags.aligned
            del payload

    def test_range_overflow_rejected(self, tier):
        key = oid()
        tier.store(key, bytes(8))
        with pytest.raises(InvalidRequestError, match="overflow"):
            tier.write_in_place(key, 4, bytes(8))

    def test_freed_space_is_reused(self, kind, tmp_path):
        tier = open_tier(kind, ArenaConfig(path=tmp_path / "f.arena", capacity_bytes=1024))
        keys = [oid() for _ in range(4)]
        for k in keys:
            tier.store(k, bytes(256))
        with pytest.raises(CapacityError):
            tier.store(oid(), bytes(256))
        tier.free(keys[1])
        tier.store(oid(), bytes(256))  # fits the freed hole
        tier.close()


class TestRefusedConfigs:
    def test_nvm_direct_needs_a_path(self):
        with pytest.raises(InvalidRequestError, match="requires an arena path"):
            open_tier(TierKind.NVM_DIRECT, ArenaConfig(capacity_bytes=4096))

    @pytest.mark.parametrize("cache", [1 << 16, 1 << 17])
    def test_memory_mode_needs_a_cache_below_its_capacity(self, tmp_path, cache):
        config = ArenaConfig(tmp_path / "m.arena", 1 << 16, cache_capacity_bytes=cache)
        with pytest.raises(InvalidRequestError, match="cache_capacity_bytes < capacity_bytes"):
            open_tier(TierKind.MEMORY_MODE, config)

    def test_an_unknown_tier_kind_is_refused(self):
        with pytest.raises(InvalidRequestError, match="unknown tier kind 4"):
            open_tier(4, ArenaConfig(capacity_bytes=4096))

    def test_placing_a_stored_id_again_is_refused_and_changes_nothing(self, nvm):
        key = oid()
        nvm.store(key, b"original")
        counters = nvm.media_counters()
        with pytest.raises(InvalidRequestError, match="already stored"):
            nvm.place(key, 16, lambda region: region.__setitem__(slice(None), bytes(16)))
        assert nvm.media_counters() == counters
        assert nvm.used_bytes == 8
        assert bytes(nvm.read_view(key)) == b"original"

@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("kind", list(TierKind), ids=lambda k: k.name.lower())
def test_close_with_live_view_releases_fds(tmp_path, kind):
    before = len(os.listdir("/proc/self/fd"))
    config = ArenaConfig(
        path=tmp_path / "v.arena", capacity_bytes=1 << 16, cache_capacity_bytes=1 << 12
    )
    tier = open_tier(kind, config)
    key = oid()
    tier.store(key, b"pinned!!")
    view = tier.read_view(key)
    if kind != TierKind.DRAM:
        with pytest.raises(BufferError):  # a pinned file mapping is reported
            tier.close()
    else:
        tier.close()
    assert bytes(view) == b"pinned!!"  # the mapping lasts as long as the view
    view.release()
    assert len(os.listdir("/proc/self/fd")) == before
    tier.close()  # closing again does nothing


class TestMemoryMode:
    def test_volatile_across_reopen(self, tmp_path):
        path = tmp_path / "v.arena"
        key = oid()
        tier = open_tier(
            TierKind.MEMORY_MODE,
            ArenaConfig(path=path, capacity_bytes=1 << 16, cache_capacity_bytes=1 << 12),
        )
        tier.store(key, b"gone after reopen")
        tier.close()
        tier2 = open_tier(
            TierKind.MEMORY_MODE,
            ArenaConfig(path=path, capacity_bytes=1 << 16, cache_capacity_bytes=1 << 12),
        )
        assert tier2.ids() == []
        with pytest.raises(NotFoundError):
            tier2.read_view(key)
        tier2.close()

    def test_cold_then_hot_read_counters(self, mm):
        key = oid()
        mm.store(key, bytes(4096))
        c0 = mm.media_counters()
        assert c0["nvm"].bytes_read == 0

        mm.read_view(key)  # cold: miss, nvm read
        c1 = mm.media_counters()
        assert c1["nvm"].bytes_read - c0["nvm"].bytes_read == 4096
        assert c1["dram"].cache_misses - c0["dram"].cache_misses == 1

        mm.read_view(key)  # hot: hit, no nvm read
        c2 = mm.media_counters()
        assert c2["nvm"].bytes_read == c1["nvm"].bytes_read
        assert c2["dram"].cache_hits - c1["dram"].cache_hits == 1

    def test_write_then_flush_writes_back_once(self, mm):
        key = oid()
        mm.store(key, bytes(2048))
        wrote = mm.media_counters()["nvm"].bytes_written
        mm.write_in_place(key, 0, b"dirty")
        assert mm.media_counters()["nvm"].bytes_written == wrote  # still cached, not written back
        mm.flush()
        assert mm.media_counters()["nvm"].bytes_written == wrote + 2048
        mm.flush()  # second flush writes nothing
        assert mm.media_counters()["nvm"].bytes_written == wrote + 2048

    def test_write_in_place_larger_than_the_cache_writes_through(self, mm):
        # the cache holds 16 KiB: a 32 KiB object is read in on every use and
        # never kept, so a write goes to the cached copy and the arena alike
        key, size, data = oid(), 1 << 15, b"written!" * 4
        mm.store(key, bytes(size))
        before = mm.media_counters()
        mm.write_in_place(key, 64, data)
        after = mm.media_counters()
        delta = {
            m: tuple(a - b for a, b in zip(astuple(after[m]), astuple(before[m])))
            for m in ("dram", "nvm")
        }
        # (bytes_read, bytes_written, cache_hits, cache_misses, read_ops, write_ops)
        assert delta["dram"] == (0, size + len(data), 0, 1, 0, 2)
        assert delta["nvm"] == (size, len(data), 0, 0, 1, 1)
        assert bytes(mm.read_view(key)[64 : 64 + len(data)]) == data
        assert mm.cache_used_bytes == 0

    def test_miss_copies_no_object(self, tmp_path):
        tier = open_tier(
            TierKind.MEMORY_MODE,
            ArenaConfig(path=tmp_path / "big.arena", capacity_bytes=1 << 22,
                        cache_capacity_bytes=1 << 21),
        )
        key = oid()
        tier.store(key, bytes(1 << 20))
        assert peak_traced_bytes(lambda: tier.read_view(key)) < 64 * 1024
        assert tier.media_counters()["dram"].cache_misses == 1
        assert tier.cache_used_bytes == 1 << 20
        tier.close()

    def test_view_of_an_object_larger_than_the_cache_sees_later_writes(self, mm):
        key, data = oid(), b"written!"
        mm.store(key, bytes(1 << 15))
        view = mm.read_view(key)
        mm.write_in_place(key, 64, data)
        assert bytes(view[64 : 64 + len(data)]) == data
        view.release()

    def test_flush_after_n_dirty_objects(self, mm):
        keys = [oid() for _ in range(3)]
        for k in keys:
            mm.store(k, bytes(512))
            mm.write_in_place(k, 0, b"x")
        base = mm.media_counters()["nvm"].bytes_written
        mm.flush()
        assert mm.media_counters()["nvm"].bytes_written == base + 3 * 512

    def test_cache_occupancy_bounded(self, mm):
        # cache capacity is 16 KiB; store 16 x 4 KiB and sweep twice
        keys = [oid() for _ in range(16)]
        for k in keys:
            mm.store(k, bytes(4096))
        for k in keys:
            mm.read_view(k)
        assert mm.cache_used_bytes <= 1 << 14
        nvm_reads = mm.media_counters()["nvm"].bytes_read
        for k in keys:
            mm.read_view(k)
        # evictions forced every miss: the second sweep re-reads from the arena
        assert mm.media_counters()["nvm"].bytes_read > nvm_reads

    def test_second_sweep_free_when_cache_fits(self, tmp_path):
        tier = open_tier(
            TierKind.MEMORY_MODE,
            ArenaConfig(
                path=tmp_path / "hot.arena",
                capacity_bytes=1 << 20,
                cache_capacity_bytes=1 << 18,
            ),
        )
        keys = [oid() for _ in range(8)]
        for k in keys:
            tier.store(k, bytes(4096))
        for k in keys:
            tier.read_view(k)
        cold_reads = tier.media_counters()["nvm"].bytes_read
        for k in keys:
            tier.read_view(k)
        assert tier.media_counters()["nvm"].bytes_read == cold_reads
        tier.close()

    def test_lru_replay_matches_model(self, tmp_path):
        cache_cap = 3000
        tier = open_tier(
            TierKind.MEMORY_MODE,
            ArenaConfig(
                path=tmp_path / "lru.arena",
                capacity_bytes=1 << 18,
                cache_capacity_bytes=cache_cap,
            ),
        )
        model = LruModel(cache_cap)
        rng = random.Random(1234)
        keys = []
        for step in range(400):
            op = rng.random()
            if op < 0.2 or not keys:
                key = oid()
                size = rng.choice([300, 700, 1100, 2900])
                tier.store(key, bytes(size))
                model.store(key, size)
                keys.append(key)
            elif op < 0.75:
                key = rng.choice(keys)
                tier.read_view(key)
                model.read(key)
            elif op < 0.95:
                key = rng.choice(keys)
                n = rng.randint(1, model.sizes[key])
                tier.write_in_place(key, 0, bytes(n))
                model.write(key, n)
            else:
                tier.flush()
                model.flush()
        media = tier.media_counters()
        assert list(astuple(media["nvm"])) == model.nvm
        assert list(astuple(media["dram"])) == model.dram
        tier.close()

