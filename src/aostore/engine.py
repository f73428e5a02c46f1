"""The active heart of the store: registries, object persistence, invocation.

Registered routines execute directly over tier-resident payloads: the routine
sees numpy arrays aliasing the stored region (no payload-sized copy).
A result is returned by value or stored in a new object in a named tier (volatile
in DRAM), computed straight into its region if it has the target's variant and
shape. Mutating routines update their target in place under an exclusive claim.

An operation claims all its objects at once under one engine-wide condition
(the target exclusive if the routine mutates it, every other object shared),
or waits; holding no claim while it waits, it needs no lock order.

An object's payload view, the payload whose array aliases its tier region,
is built on the object's first read from the region the tier's ``read_view``
returns, and reused while the object lives; every read still calls
``read_view``, so every read is charged, and Memory Mode's LRU order kept,
as if the view were new. Two readers holding shared claims may both build
the view at once; either view is right, so it does not matter which one is
kept. :meth:`Engine.close` drops the views before it closes the tiers, as a
live view keeps a mapping from being unmapped.

The tiers charge each counter bump to the operation open on the calling
thread (:func:`~aostore.tiers.open_charges`). Every operation adds that
traffic, and an invocation its method time, to running totals per operation
name (:class:`OpTotals`), which stay the same size however many operations
run. A failed operation that moved bytes is counted too.
"""

from __future__ import annotations

import inspect
import operator
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
    Schema,
    encoded_size,
)
from .tiers import TierHandle, TierKind, close_charges, copy_of, open_charges

SMALL_RESULT_LIMIT = 1 << 20  # return-by-value ceiling, 1 MiB


@dataclass(frozen=True)
class ResultPlacement:
    """Where an invocation's result goes: back to the caller by value when
    ``tier`` is None, else into a new object in that tier."""

    tier: Optional[TierKind] = None

    @classmethod
    def value(cls) -> "ResultPlacement":
        return cls()

    @classmethod
    def volatile(cls) -> "ResultPlacement":
        return cls.store_in(TierKind.DRAM)

    @classmethod
    def store_in(cls, tier: TierKind) -> "ResultPlacement":
        return cls(tier)


@dataclass(frozen=True)
class Routine:
    """A catalog entry: ``fn(target, args)`` returns its result payload, or
    None for no result; a routine that ``mutates`` returns the target's new
    values instead, which the engine writes in place. One whose result has the
    target's variant and shape may take a keyword-only ``out``, an array to fill."""

    key: str
    fn: Callable[..., "BlockPayload | np.ndarray | None"]
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


@dataclass
class _ObjectMeta:
    class_name: Optional[str]
    tier: TierKind
    schema: Optional[Schema]  # None for an object recovered from an arena
    read_count: int = 0
    held: int = 0  # claims held: -1 for an exclusive one, else the shared ones
    view: Optional[BlockPayload] = None  # the payload over the region, once first read


def _by_value(payload: BlockPayload) -> BlockPayload:
    """A by-value argument as a routine sees it: aligned and read-only.

    Decoded in place from a request frame, its array is a view of the frame
    that may be unaligned, and writable or not depending on the transport; an
    unaligned one is copied, since numpy runs unaligned operands through slower
    loops and keeps them out of BLAS. Read-only on every transport, a routine
    cannot write into a receive buffer or into the caller's array."""
    values = payload.values
    if values.flags.aligned and not values.flags.writeable:
        return payload
    values = values.view() if values.flags.aligned else values.copy()
    values.flags.writeable = False
    return type(payload)(values)


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


class _Operation:
    """One engine operation, as a context: inside it the tiers charge this
    thread's traffic to it; leaving it ends it with :meth:`Engine._finish`."""

    def __init__(self, engine: "Engine", name: str, claims=()):
        self.engine, self.name, self.claims = engine, name, claims
        self.reads: list[_ObjectMeta] = []  # objects read, one count each
        self.method_ns = 0

    def __enter__(self) -> "_Operation":
        open_charges()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.engine._finish(self, exc_type is None)


class Engine:
    """Single-node active object store engine over a set of open tiers."""

    def __init__(
        self,
        tiers: dict[TierKind, TierHandle],
        catalog: RoutineCatalog,
        id_factory: ObjectIdFactory | None = None,
    ):
        self._tiers = dict(tiers)
        self._catalog = catalog
        self._ids = id_factory or ObjectIdFactory()
        self._classes: dict[str, ClassDescriptor] = {}
        # (class, method) -> its descriptor, its routine, whether that takes out
        self._methods: dict[tuple[str, str], tuple[MethodDescriptor, Routine, bool]] = {}
        self._objects: dict[ObjectId, _ObjectMeta] = {}
        self._totals = {op: OpTotals() for op in OPS}
        self._lock = threading.Lock()  # guards the registries, the claims and the totals
        self._released = threading.Condition(self._lock)  # what a blocked claim waits on
        self._waiting = 0  # claims blocked on _released
        # Adopt objects recovered from persistent arenas. Their class and schema
        # were not persisted, so until they are (ROADMAP item 1) a GET of one
        # raises InvalidRequestError and an INVOKE on one UnknownNameError.
        for kind, handle in self._tiers.items():
            for oid in handle.ids():
                self._objects[oid] = _ObjectMeta(None, kind, None)

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
            # a wrapper made by functools.wraps keeps the routine as __wrapped__
            kwargs = getattr(inspect.unwrap(routine.fn), "__kwdefaults__", None) or {}
            self._methods[key] = (desc, routine, "out" in kwargs and not routine.mutates)

    def tier(self, kind: TierKind) -> TierHandle:
        try:
            return self._tiers[kind]
        except KeyError:
            raise InvalidRequestError(f"tier {kind.name} is not open") from None

    @property
    def tiers(self) -> dict[TierKind, TierHandle]:
        return dict(self._tiers)

    # -- claims and running totals ----------------------------------------------

    def _claim(self, claims: list[tuple[_ObjectMeta, bool]]) -> None:
        """Take every (object, exclusive) claim at once, waiting while any of
        them conflicts with a claim held; the caller holds ``_lock``."""
        while True:
            for m, exclusive in claims:
                if m.held < 0 or (exclusive and m.held):
                    break
            else:
                break
            self._waiting += 1
            self._released.wait()
            self._waiting -= 1
        for m, exclusive in claims:
            m.held = -1 if exclusive else m.held + 1

    def _release(self, claims: list[tuple[_ObjectMeta, bool]]) -> None:
        """Give back claims that :meth:`_claim` took, waking the blocked
        claims if there are any; the caller holds ``_lock``."""
        for m, exclusive in claims:
            m.held = 0 if exclusive else m.held - 1
        if self._waiting:
            self._released.notify_all()

    def _finish(self, op: "_Operation", ok: bool) -> None:
        """Stop charging this thread, release the operation's claims, count
        its reads, and add it to its totals if it succeeded or moved bytes."""
        charges = close_charges()
        with self._lock:
            self._release(op.claims)
            for m in op.reads:
                m.read_count += 1
            if not (ok or charges):
                return
            totals = self._totals[op.name]
            totals.count += 1
            totals.method_ns += op.method_ns
            sums = totals.tier_deltas
            for counters, raw in charges.items():
                key = counters.key
                sums[key] = tuple(map(operator.add, sums.get(key, _ZERO), raw))

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

    def make_persistent(self, class_name: str, schema: Schema, tier: TierKind, fill) -> ObjectId:
        """A new object of ``class_name`` in ``tier`` holding a payload of
        ``schema``, whose data section ``fill`` writes into the new region
        (see :meth:`TierHandle.place`); a payload in memory fills with
        ``copy_of(payload.data_view())``. ``fill`` is not called when the
        class, the tier or the tier's free space rules the object out."""
        with self._lock:
            if class_name not in self._classes:
                raise UnknownNameError(f"unknown class {class_name!r}")
        with _Operation(self, "__persist__"):
            return self._new_object(class_name, schema, tier, fill)

    def _new_object(self, class_name: str, schema: Schema, tier: TierKind, fill) -> ObjectId:
        """A new object of ``schema`` in ``tier``, written by ``fill``
        (:meth:`TierHandle.place`). A fresh id that names a live object, such
        as one recovered from an arena of the same seed, is skipped."""
        handle = self.tier(tier)
        with self._lock:
            oid = self._ids.new_object_id()
            while oid in self._objects:
                oid = self._ids.new_object_id()
        handle.place(oid, schema.nbytes, fill)
        with self._lock:
            self._objects[oid] = _ObjectMeta(class_name, tier, schema)
        return oid

    def _meta(self, oid: ObjectId) -> _ObjectMeta:
        """The object's metadata; the caller holds ``_lock``."""
        try:
            return self._objects[oid]
        except KeyError:
            raise NotFoundError(f"unknown object {oid.hex()}") from None

    def _payload_view(self, meta: _ObjectMeta, oid: ObjectId) -> BlockPayload:
        """The object's payload over its region, built on the first read; every
        read is charged through the tier's ``read_view``."""
        view = meta.view
        if view is None and meta.schema is None:
            raise InvalidRequestError(
                f"object {oid.hex()} was recovered without schema; only raw reads apply"
            )
        region = self._tiers[meta.tier].read_view(oid)
        if view is None:
            view = meta.view = meta.schema.view(region)
        return view

    def get_object(self, oid: ObjectId, read: Callable[[BlockPayload], object] | None = None):
        """The object's payload as a copy the caller owns; or, with ``read``,
        what ``read`` returns for a payload aliasing the tier region.

        The operation is finished, its read counted and its traffic added to
        the totals, before ``read`` runs, so whatever ``read`` sends on is
        accounted for by the time it arrives. ``read`` runs while the shared
        claim is still held, so the region cannot change under it; the claim
        is released when ``read`` returns or raises, and the view must not
        outlive the call."""
        with self._lock:
            meta = self._meta(oid)
            claims = [(meta, False)]
            self._claim(claims)
        try:
            with _Operation(self, "__get__") as op:
                view = self._payload_view(meta, oid)
                op.reads.append(meta)
            return type(view)(view.values.copy()) if read is None else read(view)
        finally:
            with self._lock:
                self._release(claims)

    def delete_object(self, oid: ObjectId) -> None:
        with self._lock:
            meta = self._meta(oid)
            claims = [(meta, True)]
            self._claim(claims)
        with _Operation(self, "__delete__", claims):
            self.tier(meta.tier).free(oid)
            with self._lock:
                del self._objects[oid]

    def flush(self, tier: TierKind | None = None) -> None:
        with _Operation(self, "__flush__"):
            for kind in [tier] if tier is not None else list(self._tiers):
                self.tier(kind).flush()

    # -- invocation --------------------------------------------------------------

    def invoke(
        self,
        oid: ObjectId,
        method_name: str,
        args: "list[BlockPayload | ObjectId]" = (),
        placement: ResultPlacement = ResultPlacement.value(),
    ):
        """Execute a registered method against the tier-resident payload.

        An argument is an :class:`ObjectId`, naming a stored object by
        reference, or a payload, passed by value.

        Returns the result payload when ``placement.tier`` is None, else the
        ObjectId of the result stored in that tier; None for a routine that
        produces no result or mutates its target.
        """
        with self._lock:
            meta = self._meta(oid)
            if meta.class_name is None:
                raise UnknownNameError(f"object {oid.hex()} has no registered class")
            try:
                desc, routine, fills = self._methods[(meta.class_name, method_name)]
            except KeyError:
                raise UnknownNameError(
                    f"method {method_name!r} not registered for class {meta.class_name!r}"
                ) from None
            if len(args) != len(desc.arg_schema):
                raise ShapeMismatchError(
                    f"method {method_name!r} expects {len(desc.arg_schema)} args, got {len(args)}"
                )
            if routine.mutates and any(isinstance(a, ObjectId) and a == oid for a in args):
                raise InvalidRequestError(
                    "argument aliases the mutation target; pass distinct objects"
                )
            # per argument: the referenced object's meta, or None for a value
            arg_metas = [self._meta(a) if isinstance(a, ObjectId) else None for a in args]
            claims = [(meta, routine.mutates)] + [(m, False) for m in arg_metas if m is not None]
            self._claim(claims)

        with _Operation(self, "invoke", claims) as op:
            target = self._payload_view(meta, oid)
            resolved: list[BlockPayload] = []
            for arg, arg_meta, schema in zip(args, arg_metas, desc.arg_schema):
                if arg_meta is None:
                    self._check_schema(arg, schema, method_name)
                    resolved.append(_by_value(arg))
                else:
                    view = self._payload_view(arg_meta, arg)
                    self._check_schema(view, schema, method_name)
                    resolved.append(view)
                    op.reads.append(arg_meta)
            if not routine.mutates:
                op.reads.append(meta)

            def run(**out):
                t0 = time.perf_counter_ns()
                result = routine.fn(target, resolved, **out)
                op.method_ns = time.perf_counter_ns() - t0
                return result

            if routine.mutates:
                update = np.ascontiguousarray(run())
                self.tier(meta.tier).write_in_place(oid, 0, memoryview(update).cast("B"))
                return None
            if fills and placement.tier is not None:
                fill = lambda region: run(out=meta.schema.view(region).values)
                return self._new_object(meta.class_name, meta.schema, placement.tier, fill)
            return self._place_result(run(), meta, placement)

    @staticmethod
    def _check_schema(payload: BlockPayload, schema: str, method_name: str) -> None:
        if schema and schema != payload.semantic:
            raise ShapeMismatchError(
                f"method {method_name!r} expects {schema!r} argument, got {payload.semantic!r}"
            )

    def _place_result(self, result: Optional[BlockPayload], meta: _ObjectMeta, placement):
        """Return ``result`` by value, or copy it into a new object; :meth:`invoke`
        computes a stored result of a routine taking ``out`` in its region instead."""
        if result is None:
            return None
        if placement.tier is not None:
            fill = copy_of(result.data_view())
            return self._new_object(meta.class_name, result.schema(), placement.tier, fill)
        size = encoded_size(result)
        if size > SMALL_RESULT_LIMIT:
            raise InvalidRequestError(
                f"result of {size} bytes exceeds the {SMALL_RESULT_LIMIT}-byte "
                f"return-by-value limit; use a stored placement"
            )
        return result

    # -- introspection -------------------------------------------------------------

    def read_counts(self) -> dict[ObjectId, int]:
        with self._lock:
            return {oid: m.read_count for oid, m in self._objects.items()}

    def object_ids(self) -> list[ObjectId]:
        with self._lock:
            return list(self._objects)

    def object_tier(self, oid: ObjectId) -> TierKind:
        with self._lock:
            return self._meta(oid).tier

    def close(self) -> None:
        """Drop the payload views, then close every tier, even when one fails;
        then re-raise the first error."""
        with self._lock:
            for meta in self._objects.values():
                meta.view = None
        first: BaseException | None = None
        for handle in self._tiers.values():
            try:
                handle.close()
            except Exception as exc:
                first = first or exc
        if first is not None:
            raise first
