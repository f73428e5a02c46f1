"""Emulated memory tiers with exact byte accounting.

Three tier kinds, each storing its objects by first-fit allocation and a
directory over a mapping with the arena layout:

* ``DRAM`` -- an anonymous private mapping that reserves no memory; volatile.
* ``NVM_DIRECT`` -- memory-mapped arena file with zero-copy views and
  clean-close durability (byte-addressable persistent memory analogue).
* ``MEMORY_MODE`` -- arena file fronted by a transparent whole-object DRAM
  LRU cache that only charges traffic: views alias the arena as on the other
  tiers. The arena is reinitialized empty on every open, so the tier is
  volatile across restarts.

Arena file format, version 2 (little-endian):

    magic "AOSA" (4) | version u16 | capacity u64 | dir_offset u64 | zeros
    <data region of `capacity` bytes, from byte 64>
    directory at dir_offset: count u32, then per entry
        object id 16 bytes | offset u64 | length u64

Region offsets are relative to the start of the data region. Payload regions
are multiples of 8 bytes long, so each starts 8-byte aligned and numpy sees
aligned arrays over it; a version-1 file (22-byte header) is refused, and so
is a file whose directory does not start right after the data region or
whose entries overlap. An arena file's directory is rewritten on
flush/close. Timing is never simulated by sleeping: a handle keeps only
integer traffic counters per medium.
"""

from __future__ import annotations

import enum
import mmap
import os
import struct
import threading
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass
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
class TierCounters:
    """Monotone traffic counters for one medium."""

    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    read_ops: int = 0
    write_ops: int = 0


# the raw counts per medium charged to the operation open on this thread, if any
_charges: ContextVar[dict | None] = ContextVar("charges", default=None)


def open_charges() -> None:
    """Charge this thread's tier traffic to a new accumulator as well."""
    _charges.set({})


def close_charges() -> dict["_MediumCounters", list[int]]:
    """Stop charging this thread; the traffic charged since
    :func:`open_charges`, as raw counts per medium's counters, whose ``key``
    is (TierKind, medium)."""
    acc = _charges.get()
    _charges.set(None)
    return acc or {}


def copy_of(data: bytes):
    """A ``fill`` for :meth:`TierHandle.place` that copies ``data`` in."""
    return lambda region: region.__setitem__(slice(None), data)


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
        self._whole = memoryview(self.mm)  # what views are sliced from

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
            if dir_offset != _DATA_START + capacity:
                # the directory would be rewritten over, and the file cut inside, the data
                raise ArenaError(
                    f"arena {self.path}: directory offset {dir_offset} is not the end "
                    f"{_DATA_START + capacity} of the data region"
                )
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
        end = 0
        for offset, length in sorted(e for e in entries.values() if e[1]):
            if offset < end:
                raise ArenaError(f"arena {self.path}: directory entries overlap at {offset}")
            end = offset + length
        return entries

    def _write_directory(self, entries: dict[ObjectId, tuple[int, int]]) -> None:
        blob = _DIR_COUNT.pack(len(entries)) + b"".join(
            _DIR_ENTRY.pack(oid, off, length) for oid, (off, length) in entries.items()
        )
        os.pwrite(self._fd, blob, self.dir_offset)
        os.ftruncate(self._fd, self.dir_offset + len(blob))

    def view(self, offset: int, length: int) -> memoryview:
        base = _DATA_START + offset
        return self._whole[base : base + length]

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
            self._whole.release()
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

    def __init__(self, capacity: int, live):
        # start from the live (offset, length) regions: bump past them, holes between
        self.capacity = capacity
        self.bump = 0
        self.holes: list[list[int]] = []  # sorted [offset, length]
        for offset, length in sorted(live):
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
        self._dir = dict(self._arena.entries)
        self._alloc = _Allocator(self._arena.capacity, self._dir.values())
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

    def place(self, oid: ObjectId, size: int, fill) -> None:
        """Store ``size`` new bytes that ``fill`` writes into a view of their region outside
        the lock; one write is charged, or if ``fill`` raises, the region is released."""
        with self._lock:
            if oid in self._dir:
                raise InvalidRequestError(f"object {oid.hex()} already stored")
            offset = self._alloc.allocate(size)
        try:
            fill(self._arena.view(offset, size))
        except BaseException:
            with self._lock:
                self._alloc.release(offset, size)
            raise
        with self._lock:
            self._dir[oid] = (offset, size)
            self._arena_io.write(size)

    def store(self, oid: ObjectId, data: bytes) -> None:
        self.place(oid, len(data), copy_of(data))

    def read_view(self, oid: ObjectId) -> memoryview:
        with self._lock:
            offset, size = self._entry(oid)
            self._arena_io.read(size)
            return self._arena.view(offset, size)

    def write_in_place(self, oid: ObjectId, offset: int, data: bytes) -> None:
        with self._lock:
            base, _ = self._check_range(oid, offset, len(data))
            self._arena.view(base + offset, len(data))[:] = data
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


class MemoryModeTier(TierHandle):
    """NVM presented as volatile system memory with a DRAM LRU cache in front.

    The cache is modeled by its bookkeeping alone: the sizes of the cached
    objects in LRU order and the set of dirty ones. The bytes live once, in
    the arena, and views alias it as on the other tiers. A miss is charged an
    NVM read and a DRAM write of the object, evicting least-recently-used
    objects as needed; a dirty object is charged one write-back when it is
    evicted, flushed or closed. An object larger than the cache is never
    kept, so a write to it is charged as written through. The arena file is
    reinitialized empty on every open: nothing survives a restart.
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
        self._cache_capacity = config.cache_capacity_bytes
        self._cache: OrderedDict[ObjectId, int] = OrderedDict()  # size per object, LRU first
        self._dirty: set[ObjectId] = set()
        self._cache_used = 0
        self._dram = self._media[MEDIA_DRAM]

    def _use(self, oid: ObjectId, size: int) -> bool:
        """Charge a hit, or a miss that fills the cache; whether the object
        is cached afterwards."""
        if oid in self._cache:
            self._cache.move_to_end(oid)
            self._dram.hit()
            return True
        self._arena_io.read(size)
        self._dram.write(size)
        self._dram.miss()
        if size > self._cache_capacity:
            return False
        while self._cache_used + size > self._cache_capacity:
            victim, victim_size = self._cache.popitem(last=False)
            self._cache_used -= victim_size
            if victim in self._dirty:
                self._dirty.remove(victim)
                self._arena_io.write(victim_size)
        self._cache[oid] = size
        self._cache_used += size
        return True

    # -- tier operations -----------------------------------------------------

    store = TierHandle.store

    def read_view(self, oid: ObjectId) -> memoryview:
        with self._lock:
            offset, size = self._entry(oid)
            self._use(oid, size)
            self._dram.read(size)
            return self._arena.view(offset, size)

    def write_in_place(self, oid: ObjectId, offset: int, data: bytes) -> None:
        with self._lock:
            base, size = self._check_range(oid, offset, len(data))
            cached = self._use(oid, size)
            self._arena.view(base + offset, len(data))[:] = data
            self._dram.write(len(data))
            if cached:
                self._dirty.add(oid)
            else:
                self._arena_io.write(len(data))

    def _forget(self, oid: ObjectId) -> None:
        self._cache_used -= self._cache.pop(oid, 0)
        self._dirty.discard(oid)

    def _sync(self) -> None:
        for oid in self._dirty:
            self._arena_io.write(self._cache[oid])
        self._dirty.clear()

    def close(self) -> None:
        try:
            super().close()
        finally:
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
