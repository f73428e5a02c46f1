"""Emulated memory tiers with exact byte accounting.

Three tier kinds, each storing its objects by first-fit allocation and a
directory over a mapping with the arena layout:

* ``DRAM`` -- an anonymous private mapping that reserves no memory; volatile.
* ``NVM_DIRECT`` -- memory-mapped arena file with zero-copy views and
  clean-close durability (byte-addressable persistent memory analogue).
* ``MEMORY_MODE`` -- arena file fronted by a transparent whole-object LRU
  cache; the arena is reinitialized empty on every open, so the tier is
  volatile across restarts.

Arena file format, version 2 (little-endian):

    magic "AOSA" (4) | version u16 | capacity u64 | dir_offset u64 | zeros
    <data region of `capacity` bytes, from byte 64>
    directory at dir_offset: count u32, then per entry
        object id 16 bytes | offset u64 | length u64

Region offsets are relative to the start of the data region. Payload regions
are multiples of 8 bytes long, so each starts 8-byte aligned and numpy sees
aligned arrays over it; a version-1 file (22-byte header) is refused. An
arena file's directory is rewritten on flush/close. Timing is never simulated
by sleeping: a handle keeps only integer traffic counters per medium, and a
report derives the modeled time from them with :func:`modeled_time_ns`, the
exact rational dot product of the counters with the configured
:class:`CostModel`.
"""

from __future__ import annotations

import enum
import mmap
import os
import struct
import threading
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from .errors import ArenaError, CapacityError, InvalidRequestError, NotFoundError
from .model import ObjectId

ARENA_MAGIC = b"AOSA"
ARENA_VERSION = 2
_HEADER = struct.Struct("<4sHQQ")
_DATA_START = 64  # the header, padded so the data region is 64-byte aligned
_DIR_COUNT = struct.Struct("<I")
_DIR_ENTRY = struct.Struct("<16sQQ")
_MAP_NORESERVE = 0x4000  # Linux's value; Python 3.11's mmap module has no name for it


class TierKind(enum.IntEnum):
    DRAM = 1
    NVM_DIRECT = 2
    MEMORY_MODE = 3


MEDIA_DRAM = "dram"
MEDIA_NVM = "nvm"


@dataclass(frozen=True)
class CostModel:
    """Per-byte and per-operation costs, exact rationals (ns units).

    Default ordering follows the qualitative hardware behaviour: NVM writes
    cost more than NVM reads, which cost more than DRAM accesses.
    """

    dram_read_ns_per_byte: Fraction = Fraction(1, 100)
    dram_write_ns_per_byte: Fraction = Fraction(1, 100)
    nvm_read_ns_per_byte: Fraction = Fraction(3, 100)
    nvm_write_ns_per_byte: Fraction = Fraction(1, 10)
    per_op_latency_ns: Fraction = Fraction(1000)

    @classmethod
    def create(cls, **overrides) -> "CostModel":
        """The defaults with ``overrides`` applied, each made an exact rational."""
        names = {f.name for f in fields(cls)}
        exact = {}
        for key, value in overrides.items():
            if key not in names:
                raise InvalidRequestError(f"unknown cost model field {key!r}")
            # Fraction(str(float)) keeps 0.01 exactly 1/100 instead of the binary double
            exact[key] = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
            if exact[key] < 0:
                raise InvalidRequestError(f"cost model field {key!r} must be non-negative")
        return replace(cls(), **exact)

    def rates_for(self, medium: str) -> tuple[Fraction, Fraction]:
        if medium == MEDIA_DRAM:
            return self.dram_read_ns_per_byte, self.dram_write_ns_per_byte
        if medium == MEDIA_NVM:
            return self.nvm_read_ns_per_byte, self.nvm_write_ns_per_byte
        raise InvalidRequestError(f"unknown medium {medium!r}")


@dataclass(frozen=True)
class TierCounters:
    """Monotone traffic counters for one medium."""

    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    read_ops: int = 0
    write_ops: int = 0


def modeled_time_ns(counters: TierCounters, medium: str, cost: CostModel) -> Fraction:
    """Exact modeled cost of the counter vector under ``cost``. Tier handles
    keep only the counters; reports compute the modeled time with this
    function, so a reader can recompute it from the counters they carry."""
    read_rate, write_rate = cost.rates_for(medium)
    return (
        counters.bytes_read * read_rate
        + counters.bytes_written * write_rate
        + (counters.read_ops + counters.write_ops) * cost.per_op_latency_ns
    )


# the raw counts per medium charged to the operation open on this thread, if any
_charges: ContextVar[dict | None] = ContextVar("charges", default=None)


def open_charges() -> None:
    """Charge this thread's tier traffic to a new accumulator as well."""
    _charges.set({})


def close_charges() -> dict[tuple[TierKind, str], list[int]]:
    """Stop charging this thread; the traffic charged since
    :func:`open_charges`, as raw counters per (TierKind, medium)."""
    acc = _charges.get()
    _charges.set(None)
    return {counters.key: raw for counters, raw in (acc or {}).items()}


class _MediumCounters:
    """Mutable integer counters of one medium, in ``TierCounters`` field
    order; each bump is also charged to the operation open on the calling
    thread."""

    __slots__ = ("key", "counts")

    def __init__(self, key: tuple[TierKind, str]):
        self.key = key
        self.counts = [0] * 6

    def _bump(self, i: int, n: int, ops: int | None = None) -> None:
        """Add ``n`` to counter ``i`` and, if given, 1 to counter ``ops``,
        here and in the open operation's charges."""
        counts = self.counts
        counts[i] += n
        if ops is not None:
            counts[ops] += 1
        acc = _charges.get()
        if acc is not None:
            mine = acc.get(self) or acc.setdefault(self, [0] * 6)
            mine[i] += n
            if ops is not None:
                mine[ops] += 1

    def read(self, n: int) -> None:
        self._bump(0, n, 4)

    def write(self, n: int) -> None:
        self._bump(1, n, 5)

    def hit(self) -> None:
        self._bump(2, 1)

    def miss(self) -> None:
        self._bump(3, 1)


@dataclass(frozen=True)
class ArenaConfig:
    """Configuration for opening a tier handle."""

    path: str | os.PathLike | None = None
    capacity_bytes: int = 1 << 30
    cache_capacity_bytes: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise InvalidRequestError("capacity_bytes must be positive")


class _Arena:
    """A mapping laid out as the arena file: fixed header, data region,
    trailing directory. With a path it maps that file; without one it is an
    anonymous private mapping that reserves no memory up front, has no
    directory and nothing to flush."""

    def __init__(self, path: str | os.PathLike | None, capacity: int, recover: bool):
        self.path = None if path is None else Path(path)
        self._fd: int | None = None
        self.entries: dict[ObjectId, tuple[int, int]] = {}
        if self.path is None:
            self.capacity = capacity
            flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | _MAP_NORESERVE
            self.mm = mmap.mmap(-1, _DATA_START + capacity, flags=flags)
        elif recover and self.path.exists() and self.path.stat().st_size > 0:
            self._open_existing(capacity)
        else:
            self._create(capacity)

    def _create(self, capacity: int) -> None:
        self.capacity = capacity
        self.dir_offset = _DATA_START + capacity
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
        try:
            os.ftruncate(self._fd, _DATA_START + capacity)
            os.pwrite(
                self._fd,
                _HEADER.pack(ARENA_MAGIC, ARENA_VERSION, capacity, self.dir_offset),
                0,
            )
            self.mm = mmap.mmap(self._fd, _DATA_START + capacity)
            self._write_directory({})
        except BaseException:
            os.close(self._fd)
            raise

    def _open_existing(self, requested_capacity: int) -> None:
        self._fd = os.open(self.path, os.O_RDWR)
        try:
            header = os.pread(self._fd, _HEADER.size, 0)
            if len(header) < _HEADER.size:
                raise ArenaError(f"arena {self.path}: truncated header")
            magic, version, capacity, dir_offset = _HEADER.unpack(header)
            if magic != ARENA_MAGIC:
                raise ArenaError(f"arena {self.path}: bad magic {magic!r}")
            if version != ARENA_VERSION:
                raise ArenaError(f"arena {self.path}: unsupported version {version}")
            self.capacity = capacity
            self.dir_offset = dir_offset
            self.entries = self._read_directory()
            high_water = max((off + length for off, length in self.entries.values()), default=0)
            if requested_capacity < high_water:
                raise ArenaError(
                    f"arena {self.path}: configured capacity {requested_capacity} smaller "
                    f"than existing directory extent {high_water}"
                )
            if os.fstat(self._fd).st_size < _DATA_START + capacity:
                os.ftruncate(self._fd, _DATA_START + capacity)
            self.mm = mmap.mmap(self._fd, _DATA_START + capacity)
        except BaseException:
            os.close(self._fd)
            raise

    def _read_directory(self) -> dict[ObjectId, tuple[int, int]]:
        raw_count = os.pread(self._fd, _DIR_COUNT.size, self.dir_offset)
        if len(raw_count) < _DIR_COUNT.size:
            raise ArenaError(f"arena {self.path}: truncated directory header")
        (count,) = _DIR_COUNT.unpack(raw_count)
        # bound a corrupt count by the file size before pread allocates for it
        room = os.fstat(self._fd).st_size - self.dir_offset - _DIR_COUNT.size
        if _DIR_ENTRY.size * count > room:
            raise ArenaError(f"arena {self.path}: truncated directory entries")
        raw = os.pread(self._fd, _DIR_ENTRY.size * count, self.dir_offset + _DIR_COUNT.size)
        entries: dict[ObjectId, tuple[int, int]] = {}
        for i in range(count):
            raw_id, offset, length = _DIR_ENTRY.unpack_from(raw, i * _DIR_ENTRY.size)
            if offset + length > self.capacity:
                raise ArenaError(
                    f"arena {self.path}: directory entry {i} [{offset}, {offset + length}) "
                    f"exceeds capacity {self.capacity}"
                )
            entries[ObjectId(raw_id)] = (offset, length)
        return entries

    def _write_directory(self, entries: dict[ObjectId, tuple[int, int]]) -> None:
        blob = _DIR_COUNT.pack(len(entries)) + b"".join(
            _DIR_ENTRY.pack(oid, off, length) for oid, (off, length) in entries.items()
        )
        os.pwrite(self._fd, blob, self.dir_offset)
        os.ftruncate(self._fd, self.dir_offset + len(blob))

    def read(self, offset: int, length: int) -> memoryview:
        base = _DATA_START + offset
        return memoryview(self.mm)[base : base + length]

    def write(self, offset: int, data: bytes) -> None:
        base = _DATA_START + offset
        self.mm[base : base + len(data)] = data

    def flush(self, entries: dict[ObjectId, tuple[int, int]]) -> None:
        if self._fd is not None:
            self.mm.flush()
            self._write_directory(entries)
            os.fsync(self._fd)

    def close(self, entries: dict[ObjectId, tuple[int, int]]) -> None:
        """Flush, unmap, and close the file even when a step before fails. A
        live view pins the mapping, which is then unmapped when the last view
        is released; for a file, the BufferError is raised once it is closed."""
        try:
            self.flush(entries)
            self.mm.close()
        except BufferError:
            self.mm = None
            if self._fd is not None:
                raise
        finally:
            if self._fd is not None:
                os.close(self._fd)


class _Allocator:
    """First-fit free-list over a bump pointer; offsets are data-relative."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.bump = 0
        self.holes: list[list[int]] = []  # sorted [offset, length]

    def seed(self, live: list[tuple[int, int]]) -> None:
        # Rebuild state from recovered regions: bump past them, holes between.
        regions = sorted(live)
        self.bump = 0
        self.holes = []
        for offset, length in regions:
            if offset > self.bump:
                self.holes.append([self.bump, offset - self.bump])
            self.bump = max(self.bump, offset + length)

    def allocate(self, length: int) -> int:
        for i, (off, hole_len) in enumerate(self.holes):
            if hole_len >= length:
                if hole_len == length:
                    self.holes.pop(i)
                else:
                    self.holes[i] = [off + length, hole_len - length]
                return off
        if self.bump + length > self.capacity:
            raise CapacityError(
                f"arena out of space: need {length}, bump {self.bump}, capacity {self.capacity}"
            )
        off = self.bump
        self.bump += length
        return off

    def release(self, offset: int, length: int) -> None:
        if length == 0:
            return
        self.holes.append([offset, length])
        self.holes.sort()
        merged: list[list[int]] = []
        for off, ln in self.holes:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1][1] += ln
            else:
                merged.append([off, ln])
        # retract trailing hole into the bump pointer
        if merged and merged[-1][0] + merged[-1][1] == self.bump:
            self.bump = merged.pop()[0]
        self.holes = merged


class TierHandle:
    """One tier: an object directory and first-fit allocation over an
    :class:`_Arena`, and one :class:`_MediumCounters` per medium it touches,
    in ``_media``; :meth:`media_counters` takes a snapshot of them.

    A subclass names its kind, its media, the medium its arena stands for
    (``backing``: a DRAM arena is an anonymous mapping, an NVM arena a file)
    and whether the objects of an existing arena file are adopted
    (``recover``). The traced benchmark wraps ``store``, ``read_view`` and
    ``write_in_place`` per tier class, so each subclass names them in its body.
    """

    kind: TierKind
    media: tuple[str, ...]
    backing: str
    recover = False

    def __init__(self, config: ArenaConfig):
        file_backed = self.backing == MEDIA_NVM
        if file_backed and config.path is None:
            raise InvalidRequestError(f"{self.kind.name} tier requires an arena path")
        self._lock = threading.Lock()
        self._media = {medium: _MediumCounters((self.kind, medium)) for medium in self.media}
        self._arena_io = self._media[self.backing]
        self._arena = _Arena(
            config.path if file_backed else None, config.capacity_bytes, self.recover
        )
        self._config = replace(config, capacity_bytes=self._arena.capacity)
        self._dir = dict(self._arena.entries)
        self._alloc = _Allocator(self._arena.capacity)
        self._alloc.seed(list(self._dir.values()))
        self._closed = False

    # -- directory ---------------------------------------------------------

    def ids(self) -> list[ObjectId]:
        with self._lock:
            return list(self._dir)

    def _entry(self, oid: ObjectId) -> tuple[int, int]:
        try:
            return self._dir[oid]
        except KeyError:
            raise NotFoundError(f"object {oid.hex()} not in {self.kind.name} tier") from None

    def _check_range(self, oid: ObjectId, offset: int, length: int) -> tuple[int, int]:
        base, size = self._entry(oid)
        if offset < 0 or length < 0 or offset + length > size:
            raise InvalidRequestError(
                f"write range [{offset}, {offset + length}) overflows object of {size} bytes"
            )
        return base, size

    # -- data path: views and writes straight over the arena ------------------

    def store(self, oid: ObjectId, data: bytes) -> None:
        with self._lock:
            if oid in self._dir:
                raise InvalidRequestError(f"object {oid.hex()} already stored")
            offset = self._alloc.allocate(len(data))
            self._arena.write(offset, data)
            self._dir[oid] = (offset, len(data))
            self._arena_io.write(len(data))

    def read_view(self, oid: ObjectId) -> memoryview:
        with self._lock:
            offset, size = self._entry(oid)
            self._arena_io.read(size)
            return self._arena.read(offset, size)

    def write_in_place(self, oid: ObjectId, offset: int, data: bytes) -> None:
        with self._lock:
            base, _ = self._check_range(oid, offset, len(data))
            self._arena.write(base + offset, data)
            self._arena_io.write(len(data))

    # -- lifetime ----------------------------------------------------------------

    def free(self, oid: ObjectId) -> None:
        with self._lock:
            offset, size = self._entry(oid)
            del self._dir[oid]
            self._alloc.release(offset, size)
            self._forget(oid)

    def _forget(self, oid: ObjectId) -> None:
        """Drop what the tier keeps of a freed object besides its region."""

    def _sync(self) -> None:
        """Bring the arena up to date before a flush or close."""

    def flush(self) -> None:
        """Make the stored objects durable; nothing to do for a volatile arena."""
        with self._lock:
            self._sync()
            self._arena.flush(self._dir)

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._sync()
                self._closed = True  # the arena closes its file even when it raises
                self._arena.close(self._dir)

    def media_counters(self) -> dict[str, TierCounters]:
        """A snapshot of the counters of each medium."""
        with self._lock:
            return {medium: TierCounters(*c.counts) for medium, c in self._media.items()}

    @property
    def capacity_bytes(self) -> int:
        return self._config.capacity_bytes

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return sum(length for _, length in self._dir.values())


class DramTier(TierHandle):
    """Volatile process memory: the arena is an anonymous mapping."""

    kind = TierKind.DRAM
    media = (MEDIA_DRAM,)
    backing = MEDIA_DRAM
    store = TierHandle.store
    read_view = TierHandle.read_view
    write_in_place = TierHandle.write_in_place


class NvmDirectTier(TierHandle):
    """App-Direct analogue: zero-copy views over a persistent mapped arena."""

    kind = TierKind.NVM_DIRECT
    media = (MEDIA_NVM,)
    backing = MEDIA_NVM
    recover = True
    store = TierHandle.store
    read_view = TierHandle.read_view
    write_in_place = TierHandle.write_in_place


class _CacheEntry:
    __slots__ = ("buf", "dirty")

    def __init__(self, buf: bytearray, dirty: bool = False):
        self.buf = buf
        self.dirty = dirty


class MemoryModeTier(TierHandle):
    """NVM presented as volatile system memory with a DRAM LRU cache in front.

    Reads are served from the cache; a miss copies the region from the arena
    (NVM read) into the cache (DRAM write), evicting least-recently-used
    objects as needed. Dirty cached objects are written back to the arena on
    eviction or flush, each write-back accounted exactly once. The arena file
    is reinitialized empty on every open: nothing survives a restart.
    """

    kind = TierKind.MEMORY_MODE
    media = (MEDIA_DRAM, MEDIA_NVM)
    backing = MEDIA_NVM

    def __init__(self, config: ArenaConfig):
        if not 0 < config.cache_capacity_bytes < config.capacity_bytes:
            raise InvalidRequestError(
                "MEMORY_MODE needs 0 < cache_capacity_bytes < capacity_bytes"
            )
        super().__init__(config)
        self._cache: OrderedDict[ObjectId, _CacheEntry] = OrderedDict()
        self._cache_used = 0
        self._dram = self._media[MEDIA_DRAM]

    # -- cache plumbing ------------------------------------------------------

    def _write_back(self, entries) -> None:
        """Write the dirty ones of the (oid, entry) pairs back to the arena."""
        for oid, entry in entries:
            if entry.dirty:
                offset, _ = self._dir[oid]
                self._arena.write(offset, entry.buf)
                self._arena_io.write(len(entry.buf))
                entry.dirty = False

    def _evict_for(self, incoming: int) -> None:
        while self._cache and self._cache_used + incoming > self._config.cache_capacity_bytes:
            oid, entry = self._cache.popitem(last=False)
            self._cache_used -= len(entry.buf)
            self._write_back([(oid, entry)])

    def _fill(self, oid: ObjectId) -> _CacheEntry:
        """Miss path: arena -> cache copy, with eviction; returns the entry."""
        offset, size = self._entry(oid)
        self._arena_io.read(size)
        self._dram.write(size)
        self._dram.miss()
        entry = _CacheEntry(bytearray(self._arena.read(offset, size)))
        if size <= self._config.cache_capacity_bytes:
            self._evict_for(size)
            self._cache[oid] = entry
            self._cache_used += size
        return entry

    def _cached(self, oid: ObjectId) -> _CacheEntry:
        entry = self._cache.get(oid)
        if entry is None:
            return self._fill(oid)
        self._cache.move_to_end(oid)
        self._dram.hit()
        return entry

    # -- tier operations -----------------------------------------------------

    store = TierHandle.store

    def read_view(self, oid: ObjectId) -> memoryview:
        with self._lock:
            _, size = self._entry(oid)
            entry = self._cached(oid)
            self._dram.read(size)
            return memoryview(entry.buf)

    def write_in_place(self, oid: ObjectId, offset: int, data: bytes) -> None:
        with self._lock:
            self._check_range(oid, offset, len(data))
            entry = self._cached(oid)
            memoryview(entry.buf)[offset : offset + len(data)] = data
            entry.dirty = True
            self._dram.write(len(data))
            if oid not in self._cache:
                # object larger than the whole cache: write straight through
                base, _ = self._dir[oid]
                self._arena.write(base + offset, data)
                self._arena_io.write(len(data))
                entry.dirty = False

    def _forget(self, oid: ObjectId) -> None:
        entry = self._cache.pop(oid, None)
        if entry is not None:
            self._cache_used -= len(entry.buf)

    def _sync(self) -> None:
        self._write_back(self._cache.items())

    def close(self) -> None:
        super().close()
        with self._lock:
            self._cache.clear()
            self._cache_used = 0

    @property
    def cache_used_bytes(self) -> int:
        with self._lock:
            return self._cache_used


_TIER_CLASSES = {cls.kind: cls for cls in (DramTier, NvmDirectTier, MemoryModeTier)}


def open_tier(kind: TierKind, config: ArenaConfig) -> TierHandle:
    """Open a tier handle; arena kinds require a writable path."""
    if kind not in _TIER_CLASSES:
        raise InvalidRequestError(f"unknown tier kind {kind!r}")
    return _TIER_CLASSES[kind](config)
