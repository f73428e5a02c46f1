"""The active heart of the store: registries, object persistence, invocation.

Registered routines execute directly over tier-resident payloads: for DRAM and
NVM-direct objects the routine sees numpy arrays aliasing the stored region
(no payload-sized copy); for Memory-Mode objects it sees the cached copy.
Results are delivered by value, stored volatile in DRAM, or stored into a
named tier. Mutating routines update their target through the tier's
write-in-place path under an exclusive per-object lock.

Every operation adds the tier traffic it caused, and an invocation its method
time, to running totals kept per operation name (:class:`OpTotals`), so the
engine's bookkeeping stays the same size however many operations run.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DuplicateError,
    InvalidRequestError,
    NotFoundError,
    ShapeMismatchError,
    UnknownNameError,
)
from .model import (
    BlockPayload,
    ClassDescriptor,
    MethodDescriptor,
    ObjectId,
    ObjectIdFactory,
    payload_from_region,
    encoded_size,
)
from .tiers import TierHandle, TierKind

SMALL_RESULT_LIMIT = 1 << 20  # return-by-value ceiling, 1 MiB


class PlacementKind(enum.IntEnum):
    RETURN_BY_VALUE = 0
    VOLATILE_DRAM = 1
    STORE_IN_TIER = 2


@dataclass(frozen=True)
class ResultPlacement:
    kind: PlacementKind
    tier: Optional[TierKind] = None

    @classmethod
    def value(cls) -> "ResultPlacement":
        return cls(PlacementKind.RETURN_BY_VALUE)

    @classmethod
    def volatile(cls) -> "ResultPlacement":
        return cls(PlacementKind.VOLATILE_DRAM)

    @classmethod
    def store_in(cls, tier: TierKind) -> "ResultPlacement":
        return cls(PlacementKind.STORE_IN_TIER, tier)


@dataclass(frozen=True)
class ByValue:
    payload: BlockPayload


@dataclass(frozen=True)
class ByRef:
    object_id: ObjectId


@dataclass
class RoutineOutput:
    """What a routine produced: an optional result payload and, for mutating
    routines, the full replacement values for the target."""

    result: Optional[BlockPayload] = None
    target_update: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Routine:
    key: str
    fn: Callable[[BlockPayload, list[BlockPayload]], RoutineOutput]
    mutates: bool = False


class RoutineCatalog:
    """Server-side catalog of executable routines, keyed by routine_key."""

    def __init__(self, routines: list[Routine] | None = None):
        self._routines: dict[str, Routine] = {}
        for routine in routines or []:
            if routine.key in self._routines:
                raise DuplicateError(f"routine {routine.key!r} already in catalog")
            self._routines[routine.key] = routine

    def get(self, key: str) -> Routine:
        try:
            return self._routines[key]
        except KeyError:
            raise UnknownNameError(f"unknown routine {key!r}") from None

    def keys(self) -> list[str]:
        return sorted(self._routines)


class _RWLock:
    """Shared/exclusive lock; writers wait for readers, readers for a writer."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire(self, exclusive: bool) -> None:
        with self._cond:
            while self._writer or (exclusive and self._readers):
                self._cond.wait()
            if exclusive:
                self._writer = True
            else:
                self._readers += 1

    def release(self, exclusive: bool) -> None:
        with self._cond:
            if exclusive:
                self._writer = False
            else:
                self._readers -= 1
            if not self._readers:
                self._cond.notify_all()


@dataclass
class _ObjectMeta:
    class_name: Optional[str]
    tier: TierKind
    variant: Optional[int]
    shape: Optional[tuple[int, ...]]
    read_count: int = 0
    lock: _RWLock = field(default_factory=_RWLock)


OPS = ("invoke", "__persist__", "__get__", "__delete__", "__flush__")
_ZERO = (0,) * 6


@dataclass
class OpTotals:
    """Running totals of one engine operation: how many ran, their summed
    method time, and the summed tier traffic they caused as six integers per
    (TierKind, medium).

    The op names (:data:`OPS`) are "invoke" for method execution and
    double-underscore names for the plumbing operations, so the conservation
    law (sum of every op's deltas == tier counter totals) can be checked over
    every byte moved. Totals only grow; "since a start" is
    ``later.since(earlier)``.
    """

    count: int = 0
    method_ns: int = 0
    tier_deltas: dict = field(default_factory=dict)

    def since(self, earlier: "OpTotals") -> "OpTotals":
        deltas = {}
        for key, post in self.tier_deltas.items():
            d = tuple(p - q for p, q in zip(post, earlier.tier_deltas.get(key, _ZERO)))
            if any(d):
                deltas[key] = d
        return OpTotals(self.count - earlier.count, self.method_ns - earlier.method_ns, deltas)


class Engine:
    """Single-node active object store engine over a set of open tiers."""

    def __init__(
        self,
        tiers: dict[TierKind, TierHandle],
        catalog: RoutineCatalog,
        id_factory: ObjectIdFactory | None = None,
        small_result_limit: int = SMALL_RESULT_LIMIT,
    ):
        self._tiers = dict(tiers)
        self._catalog = catalog
        self._ids = id_factory or ObjectIdFactory()
        self._small_result_limit = small_result_limit
        self._classes: dict[str, ClassDescriptor] = {}
        self._methods: dict[tuple[str, str], MethodDescriptor] = {}
        self._objects: dict[ObjectId, _ObjectMeta] = {}
        self._totals = {op: OpTotals() for op in OPS}
        self._lock = threading.Lock()
        # Adopt objects recovered from persistent arenas; their schema was not
        # persisted, so they are readable at the byte level only.
        for kind, handle in self._tiers.items():
            for oid in handle.ids():
                self._objects[oid] = _ObjectMeta(None, kind, None, None)

    # -- registries ----------------------------------------------------------

    def register_class(self, desc: ClassDescriptor) -> None:
        with self._lock:
            if desc.class_name in self._classes:
                raise DuplicateError(f"class {desc.class_name!r} already registered")
            self._classes[desc.class_name] = desc

    def register_method(self, desc: MethodDescriptor) -> None:
        with self._lock:
            if desc.class_name not in self._classes:
                raise UnknownNameError(f"unknown class {desc.class_name!r}")
            key = (desc.class_name, desc.method_name)
            if key in self._methods:
                raise DuplicateError(f"method {key} already registered")
            routine = self._catalog.get(desc.routine_key)
            if routine.mutates != desc.mutates_target:
                raise InvalidRequestError(
                    f"method {key} declares mutates_target={desc.mutates_target} but "
                    f"routine {desc.routine_key!r} has mutates={routine.mutates}"
                )
            self._methods[key] = desc

    def list_classes(self) -> list[str]:
        with self._lock:
            return sorted(self._classes)

    def has_method(self, class_name: str, method_name: str) -> bool:
        with self._lock:
            return (class_name, method_name) in self._methods

    def tier(self, kind: TierKind) -> TierHandle:
        try:
            return self._tiers[kind]
        except KeyError:
            raise InvalidRequestError(f"tier {kind.name} is not open") from None

    @property
    def tiers(self) -> dict[TierKind, TierHandle]:
        return dict(self._tiers)

    # -- running totals --------------------------------------------------------

    def _counter_snapshot(self) -> dict:
        return {
            (kind, medium): raw
            for kind, handle in self._tiers.items()
            for medium, raw in handle.raw_counters().items()
        }

    def _record(self, op: str, before: dict, method_ns: int = 0) -> None:
        """Add one ``op`` to its totals: ``method_ns`` and the tier traffic
        since the counters ``before``."""
        after = self._counter_snapshot()
        with self._lock:
            totals = self._totals[op]
            totals.count += 1
            totals.method_ns += method_ns
            sums = totals.tier_deltas
            for key, post in after.items():
                pre = before.get(key, _ZERO)
                if post != pre:
                    old = sums.get(key, _ZERO)
                    sums[key] = tuple(a + p - q for a, p, q in zip(old, post, pre))

    @property
    def record_count(self) -> int:
        """The number of operations so far."""
        with self._lock:
            return sum(t.count for t in self._totals.values())

    def op_totals(self) -> dict[str, OpTotals]:
        """A copy of the running totals, keyed by op name (every name in :data:`OPS`)."""
        with self._lock:
            return {
                op: OpTotals(t.count, t.method_ns, dict(t.tier_deltas))
                for op, t in self._totals.items()
            }

    # -- object lifecycle ------------------------------------------------------

    def make_persistent(
        self, class_name: str, payload: BlockPayload, tier: TierKind
    ) -> ObjectId:
        with self._lock:
            if class_name not in self._classes:
                raise UnknownNameError(f"unknown class {class_name!r}")
        handle = self.tier(tier)
        oid = self._ids.new_object_id()
        before = self._counter_snapshot()
        handle.store(oid, payload.data_bytes())
        meta = _ObjectMeta(class_name, tier, payload.tag, payload.shape_fields())
        with self._lock:
            self._objects[oid] = meta
        self._record("__persist__", before)
        return oid

    def _meta(self, oid: ObjectId) -> _ObjectMeta:
        with self._lock:
            try:
                return self._objects[oid]
            except KeyError:
                raise NotFoundError(f"unknown object {oid.hex()}") from None

    def _payload_view(self, meta: _ObjectMeta, oid: ObjectId) -> BlockPayload:
        if meta.variant is None or meta.shape is None:
            raise InvalidRequestError(
                f"object {oid.hex()} was recovered without schema; only raw reads apply"
            )
        view = self.tier(meta.tier).read_view(oid)
        return payload_from_region(meta.variant, meta.shape, view)

    def get_object(self, oid: ObjectId) -> BlockPayload:
        meta = self._meta(oid)
        meta.lock.acquire(exclusive=False)
        before = self._counter_snapshot()
        try:
            src = self._payload_view(meta, oid)
            payload = type(src)(src.values.copy())
            with self._lock:
                meta.read_count += 1
        finally:
            meta.lock.release(exclusive=False)
        self._record("__get__", before)
        return payload

    def delete_object(self, oid: ObjectId) -> None:
        meta = self._meta(oid)
        meta.lock.acquire(exclusive=True)
        before = self._counter_snapshot()
        try:
            self.tier(meta.tier).free(oid)
            with self._lock:
                del self._objects[oid]
        finally:
            meta.lock.release(exclusive=True)
        self._record("__delete__", before)

    def flush(self, tier: TierKind | None = None) -> None:
        before = self._counter_snapshot()
        kinds = [tier] if tier is not None else list(self._tiers)
        for kind in kinds:
            self.tier(kind).flush()
        self._record("__flush__", before)

    # -- invocation --------------------------------------------------------------

    def invoke(
        self,
        oid: ObjectId,
        method_name: str,
        args: "list[ByValue | ByRef]" = (),
        placement: ResultPlacement = ResultPlacement.value(),
    ):
        """Execute a registered method against the tier-resident payload.

        Returns the result payload (RETURN_BY_VALUE), the new ObjectId
        (VOLATILE_DRAM / STORE_IN_TIER), or None for mutating routines that
        produce no result.
        """
        meta = self._meta(oid)
        if meta.class_name is None:
            raise UnknownNameError(f"object {oid.hex()} has no registered class")
        with self._lock:
            desc = self._methods.get((meta.class_name, method_name))
        if desc is None:
            raise UnknownNameError(
                f"method {method_name!r} not registered for class {meta.class_name!r}"
            )
        routine = self._catalog.get(desc.routine_key)
        if len(args) != len(desc.arg_schema):
            raise ShapeMismatchError(
                f"method {method_name!r} expects {len(desc.arg_schema)} args, got {len(args)}"
            )

        ref_metas: list[tuple[ObjectId, _ObjectMeta]] = []
        for arg in args:
            if isinstance(arg, ByRef):
                if routine.mutates and arg.object_id == oid:
                    raise InvalidRequestError(
                        "argument aliases the mutation target; pass distinct objects"
                    )
                ref_metas.append((arg.object_id, self._meta(arg.object_id)))

        # Deadlock-free ordering: all locks acquired sorted by object id.
        plan = [(oid, meta, routine.mutates)] + [(i, m, False) for i, m in ref_metas]
        plan.sort(key=lambda item: item[0].raw)
        acquired: list[tuple[_ObjectMeta, bool]] = []
        before = self._counter_snapshot()
        try:
            for _, m, exclusive in plan:
                m.lock.acquire(exclusive)
                acquired.append((m, exclusive))

            target = self._payload_view(meta, oid)
            resolved: list[BlockPayload] = []
            ref_iter = iter(ref_metas)
            for arg, schema in zip(args, desc.arg_schema):
                if isinstance(arg, ByValue):
                    self._check_schema(arg.payload, schema, method_name)
                    resolved.append(arg.payload)
                else:
                    ref_id, ref_meta = next(ref_iter)
                    view = self._payload_view(ref_meta, ref_id)
                    self._check_schema(view, schema, method_name)
                    resolved.append(view)
                    with self._lock:
                        ref_meta.read_count += 1
            if not routine.mutates:
                with self._lock:
                    meta.read_count += 1

            t0 = time.perf_counter_ns()
            out = routine.fn(target, resolved)
            method_ns = time.perf_counter_ns() - t0

            if routine.mutates:
                if out.target_update is None:
                    raise InvalidRequestError(
                        f"mutating routine {routine.key!r} returned no target update"
                    )
                update = np.ascontiguousarray(out.target_update)
                self.tier(meta.tier).write_in_place(oid, 0, update.tobytes())

            result_value = self._place_result(out.result, meta, placement)
        finally:
            for m, exclusive in reversed(acquired):
                m.lock.release(exclusive)

        self._record("invoke", before, method_ns)
        return result_value

    @staticmethod
    def _check_schema(payload: BlockPayload, schema: str, method_name: str) -> None:
        if schema and schema != payload.semantic:
            raise ShapeMismatchError(
                f"method {method_name!r} expects {schema!r} argument, got {payload.semantic!r}"
            )

    def _place_result(
        self,
        result: Optional[BlockPayload],
        target_meta: _ObjectMeta,
        placement: ResultPlacement,
    ):
        if result is None:
            return None
        size = encoded_size(result)
        if placement.kind == PlacementKind.RETURN_BY_VALUE:
            if size > self._small_result_limit:
                raise InvalidRequestError(
                    f"result of {size} bytes exceeds the {self._small_result_limit}-byte "
                    f"return-by-value limit; use a stored placement"
                )
            return result
        tier = TierKind.DRAM if placement.kind == PlacementKind.VOLATILE_DRAM else placement.tier
        if tier is None:
            raise InvalidRequestError("STORE_IN_TIER placement needs a tier")
        handle = self.tier(tier)
        new_id = self._ids.new_object_id()
        handle.store(new_id, result.data_bytes())
        with self._lock:
            self._objects[new_id] = _ObjectMeta(
                target_meta.class_name, tier, result.tag, result.shape_fields()
            )
        return new_id

    # -- introspection -------------------------------------------------------------

    def read_counts(self) -> dict[ObjectId, int]:
        with self._lock:
            return {oid: m.read_count for oid, m in self._objects.items()}

    def object_ids(self) -> list[ObjectId]:
        with self._lock:
            return list(self._objects)

    def object_tier(self, oid: ObjectId) -> TierKind:
        return self._meta(oid).tier

    def close(self) -> None:
        """Close every tier, even when one fails; then re-raise the first error."""
        first: BaseException | None = None
        for handle in self._tiers.values():
            try:
                handle.close()
            except Exception as exc:
                first = first or exc
        if first is not None:
            raise first
