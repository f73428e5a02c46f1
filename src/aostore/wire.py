"""Length-prefixed binary request/response protocol with exact byte accounting.

Frame layout (little-endian):

    length u32   -- bytes after this field (9 + len(body))
    msg_type u8  -- request type; replies set bit 0x80
    request_id u64
    body

Message bodies (str16 = u16 length + UTF-8 bytes, id = 16 raw bytes,
payload = core codec encoding):

    REGISTER_CLASS   str16 class, u16 nfields (str16 name, str16 type)...,
                     u16 nmethods, str16 method...        -> empty
    REGISTER_METHOD  str16 class, str16 method, str16 routine_key,
                     u8 nargs, str16 tag..., str16 result_tag, u8 mutates
                                                          -> empty
    MAKE_PERSISTENT  str16 class, u8 tier, payload        -> id
    GET              id                                    -> payload
    INVOKE           id, str16 method, u8 placement[, u8 tier],
                     u8 nargs, (u8 kind: 1 payload | 2 id)...
                                                          -> u8 kind (0 none,
                                                             1 payload, 2 id), body
    DELETE           id                                    -> empty
    STATS            empty                                 -> wire counters +
                                                             per-tier counters
    FLUSH            u8 tier (0xFF = all)                  -> empty
    ERROR reply      u16 code, UTF-8 message

Every reply echoes the request_id. The same ``ServerCore`` byte path backs
both the in-process loopback transport and the TCP transport, so identical
workloads produce identical counters on either.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass, field

from .engine import ByRef, ByValue, Engine, PlacementKind, ResultPlacement
from .errors import (
    FrameError,
    StoreError,
    UnknownMsgTypeError,
    error_for_code,
)
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

REQUEST_TYPES = {
    MSG_REGISTER_CLASS,
    MSG_REGISTER_METHOD,
    MSG_MAKE_PERSISTENT,
    MSG_GET,
    MSG_INVOKE,
    MSG_DELETE,
    MSG_STATS,
    MSG_FLUSH,
}

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<IBQ")  # length, msg_type, request_id

_MEDIA_TAG = {MEDIA_DRAM: 1, MEDIA_NVM: 2}
_MEDIA_FROM_TAG = {1: MEDIA_DRAM, 2: MEDIA_NVM}


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


def decode_frame(data: bytes, offset: int = 0, max_frame: int = MAX_FRAME) -> tuple[Frame, int]:
    """Decode one frame starting at ``offset``; returns (frame, next offset)."""
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
    msg_type = data[offset + 4]
    (request_id,) = struct.unpack_from("<Q", data, offset + 5)
    base = msg_type & ~REPLY_BIT
    if base not in REQUEST_TYPES and base != MSG_ERROR:
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


# -- body readers/writers ------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes, what: str = "body"):
        self.data = data
        self.pos = 0
        self.what = what

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FrameError(
                f"truncated {self.what}: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def str16(self) -> str:
        n = self.u16()
        return self._take(n).decode("utf-8")

    def object_id(self) -> ObjectId:
        return ObjectId(self._take(16))

    def payload(self) -> BlockPayload:
        """A payload that is followed by more fields; it encodes its own length."""
        return decode_payload(self._take(encoded_length(memoryview(self.data)[self.pos :])))

    def rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FrameError(
                f"trailing garbage in {self.what}: {len(self.data) - self.pos} bytes "
                f"at offset {self.pos}"
            )


def _str16(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FrameError(f"string of {len(raw)} bytes exceeds str16 limit")
    return struct.pack("<H", len(raw)) + raw


def encode_register_class(desc: ClassDescriptor) -> bytes:
    out = [_str16(desc.class_name), struct.pack("<H", len(desc.fields))]
    for name, type_tag in desc.fields:
        out.append(_str16(name))
        out.append(_str16(type_tag))
    out.append(struct.pack("<H", len(desc.methods)))
    for m in desc.methods:
        out.append(_str16(m))
    return b"".join(out)


def decode_register_class(body: bytes) -> ClassDescriptor:
    r = _Reader(body, "REGISTER_CLASS body")
    class_name = r.str16()
    fields = tuple((r.str16(), r.str16()) for _ in range(r.u16()))
    methods = tuple(r.str16() for _ in range(r.u16()))
    r.done()
    return ClassDescriptor(class_name, fields, methods)


def encode_register_method(desc: MethodDescriptor) -> bytes:
    out = [
        _str16(desc.class_name),
        _str16(desc.method_name),
        _str16(desc.routine_key),
        struct.pack("<B", len(desc.arg_schema)),
    ]
    for tag in desc.arg_schema:
        out.append(_str16(tag))
    out.append(_str16(desc.result_schema))
    out.append(struct.pack("<B", 1 if desc.mutates_target else 0))
    return b"".join(out)


def decode_register_method(body: bytes) -> MethodDescriptor:
    r = _Reader(body, "REGISTER_METHOD body")
    class_name = r.str16()
    method_name = r.str16()
    routine_key = r.str16()
    arg_schema = tuple(r.str16() for _ in range(r.u8()))
    result_schema = r.str16()
    mutates = r.u8() != 0
    r.done()
    return MethodDescriptor(
        class_name, method_name, routine_key, arg_schema, result_schema, mutates
    )


def encode_make_persistent(class_name: str, tier: TierKind, payload: BlockPayload) -> bytes:
    return _str16(class_name) + struct.pack("<B", int(tier)) + encode_payload(payload)


def decode_make_persistent(body: bytes) -> tuple[str, TierKind, BlockPayload]:
    r = _Reader(body, "MAKE_PERSISTENT body")
    class_name = r.str16()
    tier = _tier_from_byte(r.u8())
    payload = decode_payload(r.rest())
    return class_name, tier, payload


def _tier_from_byte(b: int) -> TierKind:
    try:
        return TierKind(b)
    except ValueError:
        raise FrameError(f"unknown tier code {b}") from None


def encode_invoke(
    oid: ObjectId,
    method_name: str,
    args: list[ByValue | ByRef],
    placement: ResultPlacement,
) -> bytes:
    out = [oid.raw, _str16(method_name), struct.pack("<B", int(placement.kind))]
    if placement.kind == PlacementKind.STORE_IN_TIER:
        if placement.tier is None:
            raise FrameError("STORE_IN_TIER placement needs a tier")
        out.append(struct.pack("<B", int(placement.tier)))
    out.append(struct.pack("<B", len(args)))
    for arg in args:
        if isinstance(arg, ByValue):
            out.append(b"\x01")
            out.append(encode_payload(arg.payload))
        else:
            out.append(b"\x02")
            out.append(arg.object_id.raw)
    return b"".join(out)


def decode_invoke(body: bytes) -> tuple[ObjectId, str, list, ResultPlacement]:
    r = _Reader(body, "INVOKE body")
    oid = r.object_id()
    method = r.str16()
    placement_code = r.u8()
    try:
        kind = PlacementKind(placement_code)
    except ValueError:
        raise FrameError(f"unknown placement code {placement_code}") from None
    tier = _tier_from_byte(r.u8()) if kind == PlacementKind.STORE_IN_TIER else None
    args: list[ByValue | ByRef] = []
    for _ in range(r.u8()):
        arg_kind = r.u8()
        if arg_kind == 1:
            args.append(ByValue(r.payload()))
        elif arg_kind == 2:
            args.append(ByRef(r.object_id()))
        else:
            raise FrameError(f"unknown INVOKE arg kind {arg_kind} at offset {r.pos - 1}")
    r.done()
    return oid, method, args, ResultPlacement(kind, tier)


def encode_invoke_reply(result) -> bytes:
    if result is None:
        return b"\x00"
    if isinstance(result, ObjectId):
        return b"\x02" + result.raw
    return b"\x01" + encode_payload(result)


def decode_invoke_reply(body: bytes):
    r = _Reader(body, "INVOKE reply")
    kind = r.u8()
    if kind == 0:
        r.done()
        return None
    if kind == 1:
        return decode_payload(r.rest())
    if kind == 2:
        oid = r.object_id()
        r.done()
        return oid
    raise FrameError(f"unknown INVOKE result kind {kind}")


@dataclass(frozen=True)
class ServerStats:
    wire: WireCounters
    tiers: dict[TierKind, dict[str, TierCounters]]


def encode_stats(wire: WireCounters, tiers: dict[TierKind, dict[str, TierCounters]]) -> bytes:
    out = [struct.pack("<QQ", wire.bytes_sent, wire.bytes_received)]
    types = sorted(wire.per_type)
    out.append(struct.pack("<B", len(types)))
    for t in types:
        out.append(struct.pack("<BQ", t, wire.per_type[t]))
    out.append(struct.pack("<B", len(tiers)))
    for kind in sorted(tiers):
        media = tiers[kind]
        out.append(struct.pack("<BB", int(kind), len(media)))
        for medium in sorted(media):
            c = media[medium]
            out.append(struct.pack("<B", _MEDIA_TAG[medium]))
            out.append(struct.pack("<6Q", *c.raw()))
    return b"".join(out)


def decode_stats(body: bytes) -> ServerStats:
    r = _Reader(body, "STATS reply")
    sent, received = r.u64(), r.u64()
    per_type = {}
    for _ in range(r.u8()):
        t = r.u8()
        per_type[t] = r.u64()
    tiers: dict[TierKind, dict[str, TierCounters]] = {}
    for _ in range(r.u8()):
        kind = _tier_from_byte(r.u8())
        media: dict[str, TierCounters] = {}
        for _ in range(r.u8()):
            mtag = r.u8()
            if mtag not in _MEDIA_FROM_TAG:
                raise FrameError(f"unknown media tag {mtag}")
            media[_MEDIA_FROM_TAG[mtag]] = TierCounters(*(r.u64() for _ in range(6)))
        tiers[kind] = media
    r.done()
    return ServerStats(WireCounters(sent, received, per_type), tiers)


# -- server ---------------------------------------------------------------------


class ServerCore:
    """Frame-level dispatcher: one request frame in, one reply frame out.

    Thread safe; shared by every connection of a server so wire counters are
    global to the endpoint, matching what one process would observe.
    """

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
            if len(data) < 13:
                raise FrameError(f"truncated frame: {len(data)} bytes, need 13 minimum")
            (length,) = _LEN.unpack_from(data, 0)
            if length != len(data) - 4:
                raise FrameError(
                    f"frame length field {length} disagrees with {len(data) - 4} bytes on the wire"
                )
            if length > self.max_frame:
                raise FrameError(f"oversize frame of {length} bytes")
            msg_type = data[4]
            (request_id,) = struct.unpack_from("<Q", data, 5)
            body = data[13:]
            if msg_type not in REQUEST_TYPES:
                raise UnknownMsgTypeError(f"unknown msg_type {msg_type}")
            with self._lock:
                self._counters.count(msg_type)
            reply_body = self._handle(msg_type, body)
            reply = Frame(msg_type | REPLY_BIT, request_id, reply_body)
            return encode_frame(reply, self.max_frame)
        except StoreError as exc:
            return self._error_reply(request_id, exc)
        except Exception as exc:  # engine bugs must not kill the connection
            err = StoreError(f"internal: {exc}")
            return self._error_reply(request_id, err)

    def _error_reply(self, request_id: int, exc: StoreError) -> bytes:
        body = struct.pack("<H", exc.code) + str(exc).encode("utf-8", "replace")
        return encode_frame(Frame(MSG_ERROR | REPLY_BIT, request_id, body), self.max_frame)

    def _handle(self, msg_type: int, body: bytes) -> bytes:
        engine = self.engine
        if msg_type == MSG_REGISTER_CLASS:
            engine.register_class(decode_register_class(body))
            return b""
        if msg_type == MSG_REGISTER_METHOD:
            engine.register_method(decode_register_method(body))
            return b""
        if msg_type == MSG_MAKE_PERSISTENT:
            class_name, tier, payload = decode_make_persistent(body)
            oid = engine.make_persistent(class_name, payload, tier)
            return oid.raw
        if msg_type == MSG_GET:
            r = _Reader(body, "GET body")
            oid = r.object_id()
            r.done()
            return encode_payload(engine.get_object(oid))
        if msg_type == MSG_INVOKE:
            oid, method, args, placement = decode_invoke(body)
            result = engine.invoke(oid, method, args, placement)
            return encode_invoke_reply(result)
        if msg_type == MSG_DELETE:
            r = _Reader(body, "DELETE body")
            oid = r.object_id()
            r.done()
            engine.delete_object(oid)
            return b""
        if msg_type == MSG_STATS:
            if body:
                raise FrameError("STATS takes no body")
            tiers = {
                kind: handle.media_counters() for kind, handle in engine.tiers.items()
            }
            return encode_stats(self.wire_counters(), tiers)
        if msg_type == MSG_FLUSH:
            r = _Reader(body, "FLUSH body")
            code = r.u8()
            r.done()
            engine.flush(None if code == 0xFF else _tier_from_byte(code))
            return b""
        raise UnknownMsgTypeError(f"unknown msg_type {msg_type}")


# -- transports -------------------------------------------------------------------


class Connection:
    """Client side of the protocol: framing, request ids, byte counters."""

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self.counters = WireCounters()
        self._next_request = 1

    def request(self, msg_type: int, body: bytes) -> tuple[int, bytes]:
        request_id = self._next_request
        self._next_request += 1
        raw = encode_frame(Frame(msg_type, request_id, body), self.max_frame)
        self.counters.bytes_sent += len(raw)
        self.counters.count(msg_type)
        reply_raw = self._roundtrip(raw)
        self.counters.bytes_received += len(reply_raw)
        frame, _ = decode_frame(reply_raw, max_frame=self.max_frame)
        if frame.request_id != request_id:
            raise FrameError(
                f"reply for request {frame.request_id}, expected {request_id}"
            )
        if frame.msg_type == (MSG_ERROR | REPLY_BIT):
            r = _Reader(frame.body, "ERROR reply")
            code = r.u16()
            message = r.rest().decode("utf-8", "replace")
            raise error_for_code(code, message)
        if frame.msg_type != (msg_type | REPLY_BIT):
            raise FrameError(
                f"reply type {frame.msg_type} does not match request type {msg_type}"
            )
        return frame.msg_type, frame.body

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
