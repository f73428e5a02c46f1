"""Length-prefixed binary request/response protocol with exact byte accounting.

Frame layout (little-endian):

    length u32   -- bytes after this field (9 + len(body))
    msg_type u8  -- request type; replies set bit 0x80
    request_id u64
    body

Each message body is declared once, as a row of ``MESSAGES``: the fields of
the request and of the reply, written in order by ``encode_body`` and read
back by ``decode_body``. A str16 is a u16 length and UTF-8 bytes, an object id
16 raw bytes, a payload the core codec encoding of ``aostore.model``.

Every reply echoes the request_id. The same ``ServerCore`` byte path backs
both the in-process loopback transport and the TCP transport, so identical
workloads produce identical counters on either.
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import ByRef, ByValue, Engine, PlacementKind, ResultPlacement
from .errors import FrameError, StoreError, UnknownMsgTypeError, error_for_code
from .model import (
    BlockPayload,
    ClassDescriptor,
    MethodDescriptor,
    ObjectId,
    decode_payload,
    encode_payload,
    encoded_length,
)
from .tiers import MEDIA_DRAM, MEDIA_NVM, TierCounters, TierKind

MAX_FRAME = 256 << 20  # bytes after the length field
REPLY_BIT = 0x80

MSG_REGISTER_CLASS = 1
MSG_REGISTER_METHOD = 2
MSG_MAKE_PERSISTENT = 3
MSG_GET = 4
MSG_INVOKE = 5
MSG_DELETE = 6
MSG_STATS = 7
MSG_FLUSH = 8
MSG_ERROR = 127

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<IBQ")  # length, msg_type, request_id


@dataclass(frozen=True)
class Frame:
    msg_type: int
    request_id: int
    body: bytes


def encode_frame(frame: Frame, max_frame: int = MAX_FRAME) -> bytes:
    length = 9 + len(frame.body)
    if length > max_frame:
        raise FrameError(f"frame of {length} bytes exceeds max_frame {max_frame}")
    return _HEAD.pack(length, frame.msg_type, frame.request_id) + frame.body


def _frame_head(data, offset: int, max_frame: int) -> tuple[int, int, int]:
    """(msg_type, request_id, end offset) of the frame starting at ``offset``."""
    if len(data) - offset < _LEN.size:
        raise FrameError(f"truncated frame: missing length field at offset {offset}")
    (length,) = _LEN.unpack_from(data, offset)
    if length > max_frame:
        raise FrameError(f"oversize frame of {length} bytes at offset {offset}")
    if length < 9:
        raise FrameError(f"frame length {length} below minimum 9 at offset {offset}")
    end = offset + _LEN.size + length
    if len(data) < end:
        raise FrameError(
            f"truncated frame at offset {offset}: need {length} bytes after length field"
        )
    _, msg_type, request_id = _HEAD.unpack_from(data, offset)
    return msg_type, request_id, end


def decode_frame(data: bytes, offset: int = 0, max_frame: int = MAX_FRAME) -> tuple[Frame, int]:
    """Decode one frame starting at ``offset``; returns (frame, next offset)."""
    msg_type, request_id, end = _frame_head(data, offset, max_frame)
    if msg_type & ~REPLY_BIT not in MESSAGES:
        raise UnknownMsgTypeError(f"unknown msg_type {msg_type} at offset {offset + 4}")
    return Frame(msg_type, request_id, bytes(data[offset + 13 : end])), end


@dataclass
class WireCounters:
    """Bytes and per-message-type tallies seen by one endpoint."""

    bytes_sent: int = 0
    bytes_received: int = 0
    per_type: dict[int, int] = field(default_factory=dict)

    def count(self, msg_type: int) -> None:
        self.per_type[msg_type] = self.per_type.get(msg_type, 0) + 1

    def snapshot(self) -> "WireCounters":
        return WireCounters(self.bytes_sent, self.bytes_received, dict(self.per_type))


@dataclass(frozen=True)
class ServerStats:
    wire: WireCounters
    tiers: dict[TierKind, dict[str, TierCounters]]


# -- field kinds ------------------------------------------------------------------
#
# A field kind appends the bytes of one value to a list (``put``) and reads
# one value from a memoryview of the body at a position, returning the value
# and the position after it (``take``). Reads past the end raise struct.error
# or IndexError, which ``decode_body`` reports as a truncated body.


class _Int:
    def __init__(self, fmt: str):
        self._struct = struct.Struct("<" + fmt)

    def put(self, out: list, value) -> None:
        try:
            out.append(self._struct.pack(value))
        except struct.error:
            raise FrameError(f"{value!r} does not fit a '{self._struct.format}' field") from None

    def take(self, buf: memoryview, pos: int):
        return self._struct.unpack_from(buf, pos)[0], pos + self._struct.size


class _Str16:
    _len = struct.Struct("<H")

    def put(self, out: list, value: str) -> None:
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FrameError(f"string of {len(raw)} bytes exceeds str16 limit")
        out.append(self._len.pack(len(raw)))
        out.append(raw)

    def take(self, buf: memoryview, pos: int):
        end = pos + 2 + self._len.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise IndexError(end)
        try:
            return str(buf[pos + 2 : end], "utf-8"), end
        except UnicodeDecodeError as exc:
            raise FrameError(f"string at offset {pos} is not UTF-8: {exc.reason}") from None


class _Text:
    """UTF-8 up to the end of the body; bytes that do not decode become U+FFFD."""

    def put(self, out: list, value: str) -> None:
        out.append(value.encode("utf-8", "replace"))

    def take(self, buf: memoryview, pos: int):
        return str(buf[pos:], "utf-8", "replace"), len(buf)


class _ObjectId:
    _struct = struct.Struct("16s")

    def put(self, out: list, value: ObjectId) -> None:
        out.append(value.raw)

    def take(self, buf: memoryview, pos: int):
        return ObjectId(self._struct.unpack_from(buf, pos)[0]), pos + 16


class _Payload:
    """The payload codec of ``aostore.model``, looked up at each call; an
    encoded payload carries its own length."""

    def put(self, out: list, value: BlockPayload) -> None:
        out.append(encode_payload(value))

    def take(self, buf: memoryview, pos: int):
        end = pos + encoded_length(buf[pos:])
        return decode_payload(buf[pos:end]), end


class _Code:
    """A u8 code standing for one of a fixed set of values."""

    def __init__(self, what: str, codes: dict):
        self._what = what
        self._byte = {value: bytes((code,)) for value, code in codes.items()}
        self._value = {code: value for value, code in codes.items()}

    def put(self, out: list, value) -> None:
        try:
            out.append(self._byte[value])
        except KeyError:
            raise FrameError(f"no {self._what} code for {value!r}") from None

    def take(self, buf: memoryview, pos: int):
        try:
            return self._value[buf[pos]], pos + 1
        except KeyError:
            raise FrameError(f"unknown {self._what} code {buf[pos]} at offset {pos}") from None


class _Fields:
    """Fields one after another; the value is the tuple of their values."""

    def __init__(self, *fields, what: str = "body"):
        self.fields = fields
        self.what = what

    def put(self, out: list, values) -> None:
        for kind, value in zip(self.fields, values):
            kind.put(out, value)

    def take(self, buf: memoryview, pos: int):
        values = []
        for kind in self.fields:
            value, pos = kind.take(buf, pos)
            values.append(value)
        return tuple(values), pos


class _Record(_Fields):
    """The leading fields of dataclass ``cls``, in declaration order."""

    def __init__(self, cls, *fields):
        super().__init__(*fields)
        self._cls = cls
        self._names = [f.name for f in dataclasses.fields(cls)[: len(fields)]]

    def put(self, out: list, value) -> None:
        for kind, name in zip(self.fields, self._names):
            kind.put(out, getattr(value, name))

    def take(self, buf: memoryview, pos: int):
        values, pos = super().take(buf, pos)
        return self._cls(*values), pos


class _Wrapper(_Record):
    """A one-field dataclass carried as that field; shorter paths for INVOKE args."""

    def put(self, out: list, value) -> None:
        self.fields[0].put(out, getattr(value, self._names[0]))

    def take(self, buf: memoryview, pos: int):
        value, pos = self.fields[0].take(buf, pos)
        return self._cls(value), pos


class _List:
    """A count, then that many items; an item of several fields is a tuple."""

    def __init__(self, count: _Int, *item):
        self._count = count
        self._item = item[0] if len(item) == 1 else _Fields(*item)

    def put(self, out: list, values) -> None:
        self._count.put(out, len(values))
        for value in values:
            self._item.put(out, value)

    def take(self, buf: memoryview, pos: int):
        n, pos = self._count.take(buf, pos)
        items = []
        for _ in range(n):
            item, pos = self._item.take(buf, pos)
            items.append(item)
        return tuple(items), pos


class _Map(_List):
    """A counted list of (key, value) pairs in key order; a dict in Python."""

    def put(self, out: list, mapping: dict) -> None:
        super().put(out, sorted(mapping.items()))

    def take(self, buf: memoryview, pos: int):
        pairs, pos = super().take(buf, pos)
        return dict(pairs), pos


class _Union:
    """A u8 tag, then that arm's field; ``arms`` maps a tag to the Python type
    it carries (subclasses too) and its field kind, None for no bytes."""

    def __init__(self, what: str, arms: dict):
        self._what = what
        self._by_tag = {tag: kind for tag, (_, kind) in arms.items()}
        self._by_type = {sub: (bytes((tag,)), kind)
                         for tag, (cls, kind) in arms.items() for sub in _family(cls)}

    def put(self, out: list, value) -> None:
        try:
            tag, kind = self._by_type[type(value)]
        except KeyError:
            raise FrameError(f"{self._what} cannot carry {type(value).__name__}") from None
        out.append(tag)
        if kind is not None:
            kind.put(out, value)

    def take(self, buf: memoryview, pos: int):
        if buf[pos] not in self._by_tag:
            raise FrameError(f"unknown {self._what} tag {buf[pos]} at offset {pos}")
        kind = self._by_tag[buf[pos]]
        return (None, pos + 1) if kind is None else kind.take(buf, pos + 1)


def _family(cls: type) -> list[type]:
    return [cls] + [sub for child in cls.__subclasses__() for sub in _family(child)]


_STORE_IN_TIER = PlacementKind.STORE_IN_TIER


class _Placement:
    """u8 placement kind, then a u8 tier only for STORE_IN_TIER."""

    _kind = _Code("placement", {k: k.value for k in PlacementKind})
    _plain = {k: ResultPlacement(k) for k in PlacementKind if k is not _STORE_IN_TIER}

    def put(self, out: list, value: ResultPlacement) -> None:
        self._kind.put(out, value.kind)
        if value.kind is _STORE_IN_TIER:
            TIER.put(out, value.tier)

    def take(self, buf: memoryview, pos: int):
        kind, pos = self._kind.take(buf, pos)
        if kind is not _STORE_IN_TIER:
            return self._plain[kind], pos
        tier, pos = TIER.take(buf, pos)
        return ResultPlacement(kind, tier), pos


U8, U16, U64 = _Int("B"), _Int("H"), _Int("Q")
BOOL = _Code("bool", {False: 0, True: 1})
STR16 = _Str16()
OBJECT_ID = _ObjectId()
PAYLOAD = _Payload()
_TIER_CODES = {t: t.value for t in TierKind}
TIER = _Code("tier", _TIER_CODES)
TIER_OR_ALL = _Code("tier", {None: 0xFF, **_TIER_CODES})  # 0xFF: every tier
CLASS = _Record(ClassDescriptor, STR16, _List(U16, STR16, STR16), _List(U16, STR16))
METHOD = _Record(MethodDescriptor, STR16, STR16, STR16, _List(U8, STR16), STR16, BOOL)
ARG = _Union("INVOKE arg", {1: (ByValue, _Wrapper(ByValue, PAYLOAD)),
                            2: (ByRef, _Wrapper(ByRef, OBJECT_ID))})
RESULT = _Union("INVOKE result", {0: (type(None), None), 1: (BlockPayload, PAYLOAD),
                                  2: (ObjectId, OBJECT_ID)})
MEDIUM = _Code("medium", {MEDIA_DRAM: 1, MEDIA_NVM: 2})
COUNTERS = _Record(TierCounters, *[U64] * 6)  # the modeled time is derived, not sent
STATS = _Record(ServerStats, _Record(WireCounters, U64, U64, _Map(U8, U8, U64)),
                _Map(U8, TIER, _Map(U8, MEDIUM, COUNTERS)))  # per tier, per medium


# -- messages ---------------------------------------------------------------------


class Message(NamedTuple):
    name: str
    request: _Fields
    reply: _Fields


def _message(name: str, request: list, reply: list) -> Message:
    return Message(
        name, _Fields(*request, what=f"{name} request"), _Fields(*reply, what=f"{name} reply")
    )


MESSAGES: dict[int, Message] = {
    MSG_REGISTER_CLASS: _message("REGISTER_CLASS", [CLASS], []),
    MSG_REGISTER_METHOD: _message("REGISTER_METHOD", [METHOD], []),
    MSG_MAKE_PERSISTENT: _message("MAKE_PERSISTENT", [STR16, TIER, PAYLOAD], [OBJECT_ID]),
    MSG_GET: _message("GET", [OBJECT_ID], [PAYLOAD]),
    MSG_INVOKE: _message("INVOKE", [OBJECT_ID, STR16, _Placement(), _List(U8, ARG)], [RESULT]),
    MSG_DELETE: _message("DELETE", [OBJECT_ID], []),
    MSG_STATS: _message("STATS", [], [STATS]),
    MSG_FLUSH: _message("FLUSH", [TIER_OR_ALL], []),
    MSG_ERROR: _message("ERROR", [], [U16, _Text()]),
}

REQUEST_TYPES = {t for t in MESSAGES if t != MSG_ERROR}


def encode_body(layout: _Fields, values) -> bytes:
    out: list[bytes] = []
    layout.put(out, values)
    return b"".join(out)


def decode_body(layout: _Fields, body) -> tuple:
    """The values of ``layout`` read from ``body``, which they must fill."""
    buf = memoryview(body)
    try:
        values, pos = layout.take(buf, 0)
    except (struct.error, IndexError):
        raise FrameError(f"truncated {layout.what} of {len(buf)} bytes") from None
    if pos != len(buf):
        raise FrameError(f"trailing garbage in {layout.what}: {len(buf) - pos} bytes at {pos}")
    return values


# -- server ---------------------------------------------------------------------


class ServerCore:
    """Frame-level dispatcher: one request frame in, one reply frame out.

    Thread safe; shared by every connection of a server so wire counters are
    global to the endpoint, matching what one process would observe.
    """

    # msg type -> engine call on the request's values; returns the reply's
    # one value, if its row has one
    _HANDLERS = {
        MSG_REGISTER_CLASS: lambda core, desc: core.engine.register_class(desc),
        MSG_REGISTER_METHOD: lambda core, desc: core.engine.register_method(desc),
        MSG_MAKE_PERSISTENT: lambda core, cls, tier, p: core.engine.make_persistent(cls, p, tier),
        MSG_GET: lambda core, oid: core.engine.get_object(oid),
        MSG_INVOKE: lambda core, oid, name, place, args: core.engine.invoke(oid, name, args, place),
        MSG_DELETE: lambda core, oid: core.engine.delete_object(oid),
        MSG_STATS: lambda core: ServerStats(
            core.wire_counters(),
            {kind: handle.media_counters() for kind, handle in core.engine.tiers.items()},
        ),
        MSG_FLUSH: lambda core, tier: core.engine.flush(tier),
    }

    def __init__(self, engine: Engine, max_frame: int = MAX_FRAME):
        self.engine = engine
        self.max_frame = max_frame
        self._counters = WireCounters()
        self._lock = threading.Lock()

    def wire_counters(self) -> WireCounters:
        with self._lock:
            return self._counters.snapshot()

    def handle_frame_bytes(self, data: bytes) -> bytes:
        with self._lock:
            self._counters.bytes_received += len(data)
        reply = self._dispatch(data)
        with self._lock:
            self._counters.bytes_sent += len(reply)
        return reply

    def _dispatch(self, data: bytes) -> bytes:
        request_id = 0
        try:
            msg_type, request_id, end = _frame_head(data, 0, self.max_frame)
            if end != len(data):
                raise FrameError(f"frame length {end - 4} disagrees with {len(data) - 4} bytes")
            if msg_type not in REQUEST_TYPES:
                raise UnknownMsgTypeError(f"unknown msg_type {msg_type}")
            with self._lock:
                self._counters.count(msg_type)
            _, request, reply = MESSAGES[msg_type]
            result = self._HANDLERS[msg_type](self, *decode_body(request, memoryview(data)[13:]))
            body = encode_body(reply, (result,)[: len(reply.fields)])
            return encode_frame(Frame(msg_type | REPLY_BIT, request_id, body), self.max_frame)
        except StoreError as exc:
            return self._error_reply(request_id, exc)
        except Exception as exc:  # engine bugs must not kill the connection
            err = StoreError(f"internal: {exc}")
            return self._error_reply(request_id, err)

    def _error_reply(self, request_id: int, exc: StoreError) -> bytes:
        body = encode_body(MESSAGES[MSG_ERROR].reply, (exc.code, str(exc)))
        return encode_frame(Frame(MSG_ERROR | REPLY_BIT, request_id, body), self.max_frame)


# -- transports -------------------------------------------------------------------


class Connection:
    """Client side of the protocol: framing, request ids, byte counters."""

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self.counters = WireCounters()
        self._next_request = 1

    def call(self, msg_type: int, *values) -> tuple:
        """Send the request of ``msg_type`` carrying ``values``; returns the
        values of its reply."""
        _, request, reply = MESSAGES[msg_type]
        return decode_body(reply, self.request(msg_type, encode_body(request, values)))

    def request(self, msg_type: int, body: bytes) -> memoryview:
        """One request frame out; returns the body of its reply, or raises
        the typed error of an ERROR reply."""
        request_id = self._next_request
        self._next_request += 1
        raw = encode_frame(Frame(msg_type, request_id, body), self.max_frame)
        self.counters.bytes_sent += len(raw)
        self.counters.count(msg_type)
        reply = self._roundtrip(raw)
        self.counters.bytes_received += len(reply)
        reply_type, reply_id, end = _frame_head(reply, 0, self.max_frame)
        if reply_id != request_id:
            raise FrameError(f"reply for request {reply_id}, expected {request_id}")
        reply_body = memoryview(reply)[13:end]
        if reply_type == MSG_ERROR | REPLY_BIT:
            raise error_for_code(*decode_body(MESSAGES[MSG_ERROR].reply, reply_body))
        if reply_type != msg_type | REPLY_BIT:
            raise FrameError(f"reply type {reply_type} does not match request type {msg_type}")
        return reply_body

    def _roundtrip(self, raw: bytes) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LoopbackConnection(Connection):
    """In-process transport running the same frame bytes through ServerCore."""

    def __init__(self, core: ServerCore):
        super().__init__(core.max_frame)
        self._core = core

    def _roundtrip(self, raw: bytes) -> bytes:
        return self._core.handle_frame_bytes(raw)


class TcpConnection(Connection):
    def __init__(self, host: str, port: int, max_frame: int = MAX_FRAME, timeout: float = 30.0):
        super().__init__(max_frame)
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def _roundtrip(self, raw: bytes) -> bytes:
        self._sock.sendall(raw)
        return _recv_frame(self._sock, self.max_frame)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _recv_frame(sock: socket.socket, max_frame: int) -> bytes:
    """One whole frame; FrameError when the peer closes first or claims an
    oversize frame, after which the stream cannot be resynchronized."""
    head = _recv_exact(sock, 4)
    (length,) = _LEN.unpack(head)
    if length > max_frame:
        raise FrameError(f"oversize frame of {length} bytes")
    return head + _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise FrameError(f"connection closed mid-frame: {remaining} bytes missing")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class TcpServer:
    """Threaded TCP front-end over a ServerCore; one thread per connection,
    per-connection requests processed strictly in order. ``stop`` closes the
    listener and every live connection and joins all the server's threads."""

    def __init__(self, engine: Engine, host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = MAX_FRAME):
        self.core = ServerCore(engine, max_frame)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []  # live connection threads
        self._conns: set[socket.socket] = set()
        self._running = True
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener shut down by stop()
            t = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
            with self._lock:
                if not self._running:
                    conn.close()
                    return
                self._threads = [x for x in self._threads if x.is_alive()]
                self._threads.append(t)
                self._conns.add(conn)
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                raw = _recv_frame(conn, self.core.max_frame)
                conn.sendall(self.core.handle_frame_bytes(raw))
        except (OSError, FrameError):
            pass  # peer closed, or sent a frame the stream cannot recover from
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def stop(self) -> None:
        with self._lock:
            self._running = False
            conns, threads = list(self._conns), self._threads
            self._threads = []
        # shutdown, unlike close, wakes a thread blocked in accept or recv
        for sock in (self._listener, *conns):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._listener.close()
        self._accept_thread.join()
        for t in threads:
            t.join()
