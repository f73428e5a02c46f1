"""Application-facing SDK: sessions and stub objects.

A stub behaves as a plain local object until it is persisted; from then on
every method call is a transparent INVOKE round-trip. The passive baseline
(`Session.get` + client-side compute) uses the same server with GET traffic
only and performs no client-side caching, so every fetch hits the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import ByRef, ByValue, ResultPlacement, RoutineCatalog
from .errors import InvalidRequestError, NotFoundError
from .model import (
    BlockPayload,
    ClassDescriptor,
    FloatArray,
    MethodDescriptor,
    ObjectId,
    SEM_SCALAR,
    decode_payload,  # unused here; the traced benchmark wraps it by this name
)
from .tiers import TierKind
from . import wire


@dataclass
class SessionCounters:
    """Client-side view of traffic; ``gets``, ``puts`` and ``invokes`` are
    the GET, MAKE_PERSISTENT and INVOKE requests sent, failed ones too."""

    bytes_sent: int = 0
    bytes_received: int = 0
    per_type: dict[int, int] = field(default_factory=dict)
    gets: int = 0
    puts: int = 0
    invokes: int = 0


class Session:
    """One client endpoint; usable from a single thread at a time."""

    def __init__(self, connection: wire.Connection, catalog: RoutineCatalog | None = None):
        self._conn = connection
        self.catalog = catalog
        self._methods: dict[tuple[str, str], MethodDescriptor] = {}

    @classmethod
    def connect_loopback(cls, core: wire.ServerCore, catalog: RoutineCatalog | None = None) -> "Session":
        return cls(wire.LoopbackConnection(core), catalog)

    @classmethod
    def connect_tcp(cls, host: str, port: int, catalog: RoutineCatalog | None = None) -> "Session":
        return cls(wire.TcpConnection(host, port), catalog)

    # -- protocol operations -------------------------------------------------

    def register_class(self, desc: ClassDescriptor) -> None:
        self._conn.call(wire.MSG_REGISTER_CLASS, desc)

    def register_method(self, desc: MethodDescriptor) -> None:
        self._conn.call(wire.MSG_REGISTER_METHOD, desc)
        self._methods[(desc.class_name, desc.method_name)] = desc

    def remember_method(self, desc: MethodDescriptor) -> None:
        """Cache a descriptor registered by an earlier session on this server."""
        self._methods[(desc.class_name, desc.method_name)] = desc

    def make_persistent(self, class_name: str, payload: BlockPayload, tier: TierKind) -> ObjectId:
        return self._conn.call(wire.MSG_MAKE_PERSISTENT, class_name, tier, payload)[0]

    def get(self, oid: ObjectId) -> BlockPayload:
        return self._conn.call(wire.MSG_GET, oid)[0]

    def invoke(
        self,
        oid: ObjectId,
        method_name: str,
        args: list[ByValue | ByRef] = (),
        placement: ResultPlacement = ResultPlacement.value(),
    ):
        return self._conn.call(wire.MSG_INVOKE, oid, method_name, placement, args)[0]

    def delete(self, oid: ObjectId) -> None:
        self._conn.call(wire.MSG_DELETE, oid)

    def flush(self, tier: TierKind | None = None) -> None:
        self._conn.call(wire.MSG_FLUSH, tier)

    def stats(self) -> wire.ServerStats:
        return self._conn.call(wire.MSG_STATS)[0]

    def counters(self) -> SessionCounters:
        """The connection's wire counters, with its request counts by kind."""
        c = self._conn.counters
        count = c.per_type.get
        return SessionCounters(
            c.bytes_sent, c.bytes_received, dict(c.per_type),
            gets=count(wire.MSG_GET, 0),
            puts=count(wire.MSG_MAKE_PERSISTENT, 0),
            invokes=count(wire.MSG_INVOKE, 0),
        )

    def method_descriptor(self, class_name: str, method_name: str) -> MethodDescriptor:
        try:
            return self._methods[(class_name, method_name)]
        except KeyError:
            raise NotFoundError(
                f"method {method_name!r} of class {class_name!r} not known to this session"
            ) from None

    def close(self) -> None:
        self._conn.close()


class Stub:
    """Local object until persisted; transparent RPC proxy afterwards."""

    def __init__(self, session: Session, class_name: str, payload: BlockPayload):
        self._session = session
        self.class_name = class_name
        self._payload: BlockPayload | None = payload
        self._oid: ObjectId | None = None

    @property
    def object_id(self) -> ObjectId:
        if self._oid is None:
            raise InvalidRequestError("stub is local; persist it first")
        return self._oid

    @property
    def payload(self) -> BlockPayload:
        if self._payload is None:
            raise InvalidRequestError("stub is remote; use get or call")
        return self._payload

    def persist(self, tier: TierKind) -> ObjectId:
        if self._oid is not None:
            raise InvalidRequestError("stub already persisted")
        self._oid = self._session.make_persistent(self.class_name, self._payload, tier)
        self._payload = None
        return self._oid

    def call(
        self,
        method_name: str,
        args: list[ByValue | ByRef] = (),
        placement: ResultPlacement = ResultPlacement.value(),
    ):
        desc = self._session.method_descriptor(self.class_name, method_name)
        if self._oid is not None:
            result = self._session.invoke(self._oid, method_name, list(args), placement)
            return _unwrap(result, desc)
        # local execution through the same routine catalog, zero wire traffic
        if self._session.catalog is None:
            raise InvalidRequestError("session has no local catalog for local stub calls")
        routine = self._session.catalog.get(desc.routine_key)
        resolved = []
        for arg in args:
            if isinstance(arg, ByRef):
                raise InvalidRequestError("local stub calls cannot take object references")
            resolved.append(arg.payload)
        out = routine.fn(self._payload, resolved)
        if routine.mutates:
            self._payload = type(self._payload)(out)
            return None
        return _unwrap(out, desc)


def _unwrap(result, desc: MethodDescriptor):
    if result is None:
        return None
    if desc.result_schema == SEM_SCALAR and isinstance(result, FloatArray):
        return float(result.values[0])
    return result
