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

Over TCP the data section of a large frame, one of at least
``GATHER_LIMIT`` bytes, crosses user space on neither side: a persist's, but
for the data bytes that come in with its header, and a reply's when the
socket takes it whole. A client sends a frame with ``sendmsg`` over a few
parts: the head and the small fields joined, each large payload's data
section a view of its array. Each end receives with ``recv_into``: a small
frame into one reused buffer of ``GATHER_LIMIT`` bytes, and a large one into
fresh memory, placed so that the frame ends on a 64-byte boundary, whose
pages are committed only as the frame's bytes arrive. Only a large persist
is received otherwise: its prefix into the reused buffer, its data section
into the tier region. A reply ends with its payload, whose data section is
a multiple of 8 bytes, so that section of a large reply starts aligned
(64-byte aligned when its length is a multiple of 64) and is decoded as a
view. The copies left, per operation:

- persist: the client sends the payload's own array. The server receives a
  large frame into its reused buffer only up to the end of the payload's
  header, with what else came in the same reads, at most ``GATHER_LIMIT``
  bytes. The engine then reserves the object's region, the data bytes that
  came with the prefix are copied in, and the rest are received from the
  socket straight into the region. A small frame is received whole, as is a
  large one whose payload header does not fit that prefix, and the tier
  region filled from the frame.
- get: while ``Engine.get_object`` holds the shared claim, the server sends
  the reply with one non-blocking ``sendmsg`` whose data part is the tier
  region itself. Only what the socket did not take is copied, into the
  connection's reused send buffer, and sent once the claim is released. The
  client decodes the payload as a view of the memory it received the frame
  into (no copy).
- invoke by value: the argument is received whole, into the reused buffer
  or, in a large frame, into fresh memory, and the routine sees it as a
  read-only view of that memory, copied first only if it is unaligned. A
  by-value result is sent from the routine's array as a get's reply is from
  the tier region, and received as a get's.

A reply below ``GATHER_LIMIT`` is one joined bytes object, sent with
``sendall`` after the handler returns; the client copies a payload out of it.

A peer that stalls part way through a large persist's data section holds
its connection's thread and the object's reserved region, which is not yet
written: a sparse range of the arena file, or untouched pages of the DRAM
tier's NORESERVE mapping, so memory grows only by the bytes that have
arrived, as it does for a peer that stalls in any other large frame. It
holds them until a receive makes no progress for ``SOCKET_TIMEOUT_S``, the
peer closes, or ``TcpServer.stop`` shuts the connection: the receive then
fails, the region is given back, no object is made, and the connection
closes. The timeout bounds every receive of a frame
that has begun to arrive, and only those: a connection may idle between
requests. A request that fails before its data section is received reads
that section and drops it, under the same timeout, and the connection goes
on.

Ownership: a value returned to a client caller owns its memory. A value the
server decodes from a request may alias the memory the frame was received
into, the reused buffer that the next request overwrites or a large frame's
own array; it is used only until its reply is sent, and a persist's data
section is copied or received into the tier region. The loopback transport
joins each request's parts into one bytes object, and each reply's parts
too, the latter under the claim.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .engine import ByRef, ByValue, Engine, ResultPlacement
from .errors import FrameError, StoreError, UnknownMsgTypeError, error_for_code
from .model import (
    BlockPayload,
    ClassDescriptor,
    MethodDescriptor,
    ObjectId,
    decode_header,
    decode_payload,
    encode_payload,
    encoded_size,
    header_length,
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


# parts shorter than this are joined to their neighbours before a send, so a
# frame goes out as at most a few iovecs; longer ones are sent in place
GATHER_LIMIT = 1 << 14
# seconds a client socket waits to connect, and then for each send or receive;
# and seconds a server connection's blocking send, or its receive of a frame
# whose first bytes have arrived, may go without progress
SOCKET_TIMEOUT_S = 30.0


class Frame(NamedTuple):
    msg_type: int
    request_id: int
    body: bytes  # or a list of bytes-like parts, as encode_body returns


class FrameBuffer:
    """A reusable byte buffer: a connection's receive buffer, of
    ``GATHER_LIMIT`` bytes (see ``_recv_frame``), or a server's send buffer.

    It grows to the largest size asked of it and never shrinks until
    ``release``. Growing replaces the array, bytes dropped, so a view handed
    out earlier stays valid, over the old bytes."""

    __slots__ = ("_whole",)

    def __init__(self):
        self._whole = memoryview(bytearray())

    @property
    def capacity(self) -> int:
        return len(self._whole)

    def view(self, size: int) -> memoryview:
        """A writable view of the first ``size`` bytes."""
        if size > len(self._whole):
            self._whole = memoryview(bytearray(size))
        return self._whole[:size]

    def release(self) -> None:
        self._whole = memoryview(bytearray())


def encode_frame(frame: Frame):
    """The frame with its head. A bytes body gives one bytes object.

    A list of parts, as ``encode_body`` returns, gives a list of parts ready
    for ``sendmsg``. A frame shorter than ``GATHER_LIMIT`` is one bytes object.
    A longer one is the head and the small parts joined, with each part of at
    least ``GATHER_LIMIT`` bytes left as it is.
    """
    body = frame.body
    whole = type(body) is not list
    length = 9 + (len(body) if whole else sum(map(len, body)))
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME {MAX_FRAME}")
    head = _HEAD.pack(length, frame.msg_type, frame.request_id)
    if whole:
        return head + body
    if length < GATHER_LIMIT:
        return [b"".join((head, *body))]
    out, small = [], [head]
    for part in body:
        if len(part) < GATHER_LIMIT:
            small.append(part)
            continue
        out += (b"".join(small), part)
        small = []
    if small:
        out.append(b"".join(small))
    return out


def _frame_head(data, offset: int, have: int | None = None) -> tuple[int, int, int]:
    """(msg_type, request_id, end offset) of the frame starting at ``offset``;
    ``have`` is the length of the stream that ``data`` starts, ``len(data)``
    unless ``data`` holds only a prefix of the frame (its head at least)."""
    have = len(data) if have is None else have
    if have - offset < _LEN.size:
        raise FrameError(f"truncated frame: missing length field at offset {offset}")
    (length,) = _LEN.unpack_from(data, offset)
    if length > MAX_FRAME:
        raise FrameError(f"oversize frame of {length} bytes at offset {offset}")
    if length < 9:
        raise FrameError(f"frame length {length} below minimum 9 at offset {offset}")
    end = offset + _LEN.size + length
    if have < end:
        raise FrameError(
            f"truncated frame at offset {offset}: need {length} bytes after length field"
        )
    _, msg_type, request_id = _HEAD.unpack_from(data, offset)
    return msg_type, request_id, end


def decode_frame(data: bytes, offset: int = 0) -> tuple[Frame, int]:
    """Decode one frame starting at ``offset``; returns (frame, next offset)."""
    msg_type, request_id, end = _frame_head(data, offset)
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
        out.append(value)  # an ObjectId is its 16 bytes

    def take(self, buf: memoryview, pos: int):
        return ObjectId(self._struct.unpack_from(buf, pos)[0]), pos + 16


class _Payload:
    """The payload codec of ``aostore.model``, looked up at each call; an
    encoded payload carries its own length. The data section goes out as a
    view of the array, and the header is read once on the way back.

    In a request (a by-value INVOKE argument) it is read back as a view of
    the frame: the routine reads it, then the server drops it. In a reply,
    whose last field it is, it runs to the end of the frame, and it is read
    back as a view too when the frame is memory of its own (an array, see
    ``_recv_frame``), which the caller then owns; that view is aligned,
    since such a frame ends 64-byte aligned. From any other frame (the
    reused buffer, the loopback's bytes) it is read back as a copy."""

    def __init__(self, reply: bool):
        self._reply = reply

    def put(self, out: list, value: BlockPayload) -> None:
        encode_payload(value, out)

    def take(self, buf: memoryview, pos: int):
        if self._reply:
            return decode_payload(buf[pos:], not isinstance(buf.obj, np.ndarray)), len(buf)
        value = decode_payload(buf[pos:], False, whole=False)
        return value, pos + encoded_size(value)


class _Upload:
    """A persisted payload as the server takes it: its :class:`Schema`, and a
    view of its data section in the frame. When the server has received only
    a prefix of the frame (see ``ServerCore.handle_frame_bytes``), the view
    holds only the data bytes that came with the prefix, maybe none. A client
    sends it as a payload, the data section a view of the array."""

    def put(self, out: list, value: BlockPayload) -> None:
        encode_payload(value, out)

    def take(self, buf: memoryview, pos: int):
        schema, offset = decode_header(buf[pos:])
        start = pos + offset
        end = start + schema.nbytes
        return (schema, buf[start:end]), end


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


class _Placement:
    """A ResultPlacement as a u8 code: 0 by value, 1 DRAM, or 2 and then a
    u8 tier; ``02 01`` decodes as DRAM too."""

    _short = {None: b"\x00", TierKind.DRAM: b"\x01"}
    _decoded = {0: ResultPlacement.value(), 1: ResultPlacement.volatile()}

    def put(self, out: list, value: ResultPlacement) -> None:
        out.append(self._short.get(value.tier, b"\x02"))
        if value.tier not in self._short:
            TIER.put(out, value.tier)

    def take(self, buf: memoryview, pos: int):
        code = buf[pos]
        if code in self._decoded:
            return self._decoded[code], pos + 1
        if code != 2:
            raise FrameError(f"unknown placement code {code} at offset {pos}")
        tier, pos = TIER.take(buf, pos + 1)
        return ResultPlacement(tier), pos


U8, U16, U64 = _Int("B"), _Int("H"), _Int("Q")
BOOL = _Code("bool", {False: 0, True: 1})
STR16 = _Str16()
OBJECT_ID = _ObjectId()
PAYLOAD = _Payload(reply=True)  # in replies: the client keeps what it decodes
PAYLOAD_VIEW = _Payload(reply=False)  # by-value INVOKE arguments, read by the routine, then dropped
UPLOAD = _Upload()
_TIER_CODES = {t: t.value for t in TierKind}
TIER = _Code("tier", _TIER_CODES)
TIER_OR_ALL = _Code("tier", {None: 0xFF, **_TIER_CODES})  # 0xFF: every tier
CLASS = _Record(ClassDescriptor, STR16, _List(U16, STR16, STR16), _List(U16, STR16))
METHOD = _Record(MethodDescriptor, STR16, STR16, STR16, _List(U8, STR16), STR16, BOOL)
ARG = _Union("INVOKE arg", {1: (ByValue, _Wrapper(ByValue, PAYLOAD_VIEW)),
                            2: (ByRef, _Wrapper(ByRef, OBJECT_ID))})
RESULT = _Union("INVOKE result", {0: (type(None), None), 1: (BlockPayload, PAYLOAD),
                                  2: (ObjectId, OBJECT_ID)})
MEDIUM = _Code("medium", {MEDIA_DRAM: 1, MEDIA_NVM: 2})
COUNTERS = _Record(TierCounters, *[U64] * 6)
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
    MSG_MAKE_PERSISTENT: _message("MAKE_PERSISTENT", [STR16, TIER, UPLOAD], [OBJECT_ID]),
    MSG_GET: _message("GET", [OBJECT_ID], [PAYLOAD]),
    MSG_INVOKE: _message("INVOKE", [OBJECT_ID, STR16, _Placement(), _List(U8, ARG)], [RESULT]),
    MSG_DELETE: _message("DELETE", [OBJECT_ID], []),
    MSG_STATS: _message("STATS", [], [STATS]),
    MSG_FLUSH: _message("FLUSH", [TIER_OR_ALL], []),
    MSG_ERROR: _message("ERROR", [], [U16, _Text()]),
}

REQUEST_TYPES = {t for t in MESSAGES if t != MSG_ERROR}


def encode_body(layout: _Fields, values) -> list:
    """The body's parts: small bytes objects, and a flat byte view of each
    payload's data section; ``encode_frame`` joins the small ones."""
    out: list = []
    layout.put(out, values)
    return out


def decode_body(layout: _Fields, body, length: int | None = None) -> tuple:
    """The values of ``layout`` read from ``body``, which they must fill; or,
    with ``length``, from a prefix of a body of that many bytes, which the
    values must fill, the last of them past the end of the prefix maybe."""
    buf = memoryview(body)
    length = len(buf) if length is None else length
    try:
        values, pos = layout.take(buf, 0)
    except (struct.error, IndexError):
        pos = length + 1
    if pos > length:
        raise FrameError(f"truncated {layout.what} of {length} bytes")
    if pos != length:
        raise FrameError(f"trailing garbage in {layout.what}: {length - pos} bytes at {pos}")
    return values


# -- server ---------------------------------------------------------------------


class ServerCore:
    """Frame-level dispatcher: one request frame in, one reply frame out.

    Thread safe; shared by every connection of a server so wire counters are
    global to the endpoint, matching what one process would observe.
    """

    # msg type -> engine call on the request's values, returning the reply's
    # one value (None if its row has none); a MAKE_PERSISTENT, whose payload
    # decodes as its schema and the data bytes in hand, gives the engine a
    # fill that copies those bytes into the object's region and receives the
    # ``rest`` of the frame after them. A GET is not here: the engine hands a
    # view of the object to a function that replies under the object's claim.
    _HANDLERS = {
        MSG_REGISTER_CLASS: lambda core, rest, desc: core.engine.register_class(desc),
        MSG_REGISTER_METHOD: lambda core, rest, desc: core.engine.register_method(desc),
        MSG_MAKE_PERSISTENT: lambda core, rest, cls, tier, upload: core.engine.make_persistent(
            cls, upload[0], tier, rest.fill(upload[1])
        ),
        MSG_INVOKE: lambda core, rest, oid, name, place, args: core.engine.invoke(
            oid, name, args, place
        ),
        MSG_DELETE: lambda core, rest, oid: core.engine.delete_object(oid),
        MSG_STATS: lambda core, rest: core._stats(),
        MSG_FLUSH: lambda core, rest, tier: core.engine.flush(tier),
    }

    def __init__(self, engine: Engine):
        self.engine = engine
        self._counters = WireCounters()
        self._lock = threading.Lock()

    def wire_counters(self) -> WireCounters:
        with self._lock:
            return self._counters.snapshot()

    def _stats(self) -> ServerStats:
        """The reply to a STATS request, counted in it as if it were counted
        on arrival: a request is counted only with its reply, and a STATS
        request, which has no body, is its head alone."""
        wire = self.wire_counters()
        wire.bytes_received += _HEAD.size
        wire.count(MSG_STATS)
        tiers = {kind: handle.media_counters() for kind, handle in self.engine.tiers.items()}
        return ServerStats(wire, tiers)

    def handle_frame_bytes(self, data, send=None, recv=None):
        """The reply frame to the request frame ``data``, as bytes.

        With ``send``, a reply of at least ``GATHER_LIMIT`` bytes is handed to
        ``send`` as the list of parts that ``encode_frame`` returns, while the
        claim its payload is read under is still held, and what ``send``
        returns takes its place: the bytes of the frame still to be sent.
        ``send`` must not block, and must copy what it keeps.

        With ``recv``, ``data`` may be a prefix of a MAKE_PERSISTENT frame
        that runs at least to the end of its payload's header, and
        ``recv(view)`` fills ``view`` with the next bytes of the frame. The
        engine reserves the object's region, the data bytes in ``data`` are
        copied in, and the rest are received into the region straight from
        the socket. A request that fails before that reads the rest and drops
        it, then replies with its error as for a whole frame; one whose
        receive fails (the peer closed or stalled, see ``TcpServer``) raises,
        since the stream cannot be read on, and the region is given back.

        A request is counted together with its reply, in one step, so a
        frame is counted only once all its bytes have arrived; its type is
        counted if its head is valid and names a request."""
        missing = _LEN.size + _LEN.unpack_from(data)[0] - len(data) if recv else 0
        rest = _Rest(recv, missing) if missing else _NOTHING_MORE
        size = len(data) + missing
        request_type = None
        request_id = 0
        try:
            msg_type, request_id, end = _frame_head(data, 0, size)
            if end != size:
                raise FrameError(f"frame length {end - 4} disagrees with {size - 4} bytes")
            if msg_type not in REQUEST_TYPES:
                raise UnknownMsgTypeError(f"unknown msg_type {msg_type}")
            request_type = msg_type
            _, request, layout = MESSAGES[msg_type]
            values = decode_body(request, memoryview(data)[13:], size - 13)
            if msg_type == MSG_GET:
                return self.engine.get_object(*values, lambda view: self._reply(
                    size, msg_type, msg_type, request_id, encode_body(layout, (view,)), send
                ))
            result = self._HANDLERS[msg_type](self, rest, *values)
            body = encode_body(layout, (result,)[: len(layout.fields)])
            return self._reply(size, msg_type, msg_type, request_id, body, send)
        except Exception as exc:  # engine bugs must not kill the connection
            if rest.broken:
                raise
            rest.drain()
            err = exc if isinstance(exc, StoreError) else StoreError(f"internal: {exc}")
            body = encode_body(MESSAGES[MSG_ERROR].reply, (err.code, str(err)))
            return self._reply(size, request_type, MSG_ERROR, request_id, body, send)

    def _reply(self, received: int, request_type, reply_type: int, request_id: int, body, send):
        """Frame ``body`` as a reply of ``reply_type`` to a request of
        ``received`` bytes and of ``request_type`` (None if that is not
        known); count the request and the reply in one step, and return the
        reply or what ``send`` left of it. A handler replies last, so nothing
        fails after this."""
        parts = encode_frame(Frame(reply_type | REPLY_BIT, request_id, body))
        sent = sum(map(len, parts))
        with self._lock:
            counters = self._counters
            counters.bytes_received += received
            counters.bytes_sent += sent
            if request_type is not None:
                counters.count(request_type)
        if len(parts) == 1:
            return parts[0]
        return b"".join(parts) if send is None else send(parts)


class _Rest:
    """The bytes of a request frame that follow the part the server has in
    hand: ``missing`` of them, which ``recv(view)`` receives in order.
    ``broken`` is set while a receive is under way, and stays set if it
    fails: the stream cannot then be read on."""

    __slots__ = ("_recv", "missing", "broken")

    def __init__(self, recv, missing: int):
        self._recv, self.missing = recv, missing
        self.broken = False

    def _into(self, view: memoryview) -> None:
        self.broken = True
        self._recv(view)
        self.broken = False
        self.missing -= len(view)

    def fill(self, section: memoryview):
        """A fill for :meth:`TierHandle.place` that copies ``section``, the
        data bytes in hand, to the start of the region and receives the rest
        of the frame into the rest of it: the payload ends the frame."""

        def fill(region: memoryview) -> None:
            n = len(section)
            region[:n] = section
            if n < len(region):
                self._into(region[n:])

        return fill

    def drain(self) -> None:
        """Receive what is missing and drop it, so the next frame can be read."""
        scratch = memoryview(bytearray(min(self.missing, GATHER_LIMIT)))
        while self.missing:
            self._into(scratch[: self.missing])


_NOTHING_MORE = _Rest(None, 0)  # for a frame in hand whole; shared, since it never changes


# -- transports -------------------------------------------------------------------


class Connection:
    """Client side of the protocol: framing, request ids, byte counters.

    ``_roundtrip`` sends one request frame, given as the list of parts that
    ``encode_frame`` returns, and returns the reply frame."""

    def __init__(self):
        self.counters = WireCounters()
        self._next_request = 1

    def call(self, msg_type: int, *values) -> tuple:
        """Send the request of ``msg_type`` carrying ``values``; returns the
        values of its reply, or raises the typed error of an ERROR reply."""
        _, request, reply_layout = MESSAGES[msg_type]
        body = encode_body(request, values)
        request_id = self._next_request
        self._next_request += 1
        raw = encode_frame(Frame(msg_type, request_id, body))
        self.counters.bytes_sent += sum(map(len, raw))
        self.counters.count(msg_type)
        reply = self._roundtrip(raw)
        self.counters.bytes_received += len(reply)
        reply_type, reply_id, end = _frame_head(reply, 0)
        if reply_id != request_id:
            raise FrameError(f"reply for request {reply_id}, expected {request_id}")
        reply_body = memoryview(reply)[13:end]
        if reply_type == MSG_ERROR | REPLY_BIT:
            raise error_for_code(*decode_body(MESSAGES[MSG_ERROR].reply, reply_body))
        if reply_type != msg_type | REPLY_BIT:
            raise FrameError(f"reply type {reply_type} does not match request type {msg_type}")
        return decode_body(reply_layout, reply_body)

    def _roundtrip(self, raw):
        raise NotImplementedError

    def close(self) -> None:
        pass


class LoopbackConnection(Connection):
    """In-process transport running the same frame bytes through ServerCore."""

    def __init__(self, core: ServerCore):
        super().__init__()
        self._core = core

    def _roundtrip(self, raw: list) -> bytes:
        return self._core.handle_frame_bytes(b"".join(raw))


class TcpConnection(Connection):
    def __init__(self, host: str, port: int):
        super().__init__()
        self._sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._received = FrameBuffer()  # small replies only

    def _roundtrip(self, raw: list) -> memoryview:
        _send_parts(self._sock, raw)
        return _recv_frame(self._sock, self._received, own_large=True)

    def close(self) -> None:
        self._received.release()
        try:
            self._sock.close()
        except OSError:
            pass


def _recv_frame(sock: socket.socket, buf: FrameBuffer, own_large: bool = False) -> memoryview:
    """One frame, returned as a view of the memory it was received into;
    FrameError when the peer closes first or claims an oversize frame (before
    any memory is set aside for it), after which the stream cannot be
    resynchronized.

    A frame below ``GATHER_LIMIT`` bytes is received whole into ``buf``. Of a
    larger MAKE_PERSISTENT frame only a prefix is: up to the end of its
    payload's header, and with it whatever else the same reads bring, up to
    ``GATHER_LIMIT`` bytes in all. The rest stays on the socket, for
    ``ServerCore.handle_frame_bytes`` to receive into the object's region.

    Any other frame of at least ``GATHER_LIMIT`` bytes, a persist whose header
    does not fit that prefix too, is received whole into fresh memory, an
    array that only the returned view refers to, placed so that the frame
    ends on a 64-byte boundary. Its pages are committed only as bytes arrive,
    so a peer that announces a large frame and stalls costs memory only for
    what it has sent. With ``own_large``, as a client receives replies, a
    large frame goes there straight after its length field."""
    prefix = buf.view(GATHER_LIMIT)
    head = prefix[: _LEN.size]
    while True:
        try:
            got = sock.recv_into(head)
            break
        except BlockingIOError:  # a server's receive timeout: it waits for requests unbounded
            pass
    if not got:
        raise FrameError("connection closed before a frame")
    _recv_into(sock, head[got:])
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise FrameError(f"oversize frame of {length} bytes")
    size, got = _LEN.size + length, _LEN.size
    if size < GATHER_LIMIT:
        frame = prefix[:size]
        _recv_into(sock, frame[got:])
        return frame
    need = 0 if own_large else _upload_header_end(head)
    while got < need <= GATHER_LIMIT:
        n = sock.recv_into(prefix[got:])
        if not n:
            raise FrameError(f"connection closed mid-frame: {size - got} bytes missing")
        got += n
        need = _upload_header_end(prefix[:got])
    if got >= need > 0:
        return prefix[:got]
    whole = memoryview(np.empty(size + 63, np.uint8))
    # the buffer's address, read the cheapest way (numpy's interface dict costs more)
    start = -(ctypes.addressof(ctypes.c_char.from_buffer(whole)) + size) % 64
    frame = whole[start : start + size]
    frame[:got] = prefix[:got]
    _recv_into(sock, frame[got:])
    return frame


def _upload_header_end(prefix) -> int:
    """The length of the MAKE_PERSISTENT frame that ``prefix`` starts up to
    the end of its payload's header: the head, the class name (str16), the
    tier and the payload's tag and shape fields. While ``prefix`` is too short
    to tell, a length it must reach first; 0 for a frame of another type."""
    if len(prefix) < 15:
        return 15
    if prefix[4] != MSG_MAKE_PERSISTENT:
        return 0
    tag_at = 16 + _Str16._len.unpack_from(prefix, 13)[0]
    if len(prefix) <= tag_at:
        return tag_at + 1
    return tag_at + header_length(prefix[tag_at])


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    if not view:
        return  # a socket with a timeout would wait for data even to read nothing
    n = sock.recv_into(view)
    while n < len(view):
        if not n:
            raise FrameError(f"connection closed mid-frame: {len(view)} bytes missing")
        view = view[n:]
        n = sock.recv_into(view)


def _send_now(sock: socket.socket, spill: FrameBuffer, parts: list) -> memoryview:
    """Send what the socket takes of ``parts`` at once, with one non-blocking
    ``sendmsg`` (``sock`` must have no timeout, or Python would wait on it);
    copy the rest into ``spill`` and return a view of it, which may be empty.
    An error sends nothing and keeps every byte, so the send of the rest
    reports it."""
    try:
        sent = sock.sendmsg(parts, (), socket.MSG_DONTWAIT)
    except OSError:  # the socket is full (EAGAIN), or broken
        sent = 0
    rest = spill.view(sum(map(len, parts)) - sent)
    pos = 0
    for part in parts:
        if sent >= len(part):
            sent -= len(part)
            continue
        piece = memoryview(part)[sent:]
        rest[pos : pos + len(piece)] = piece
        pos, sent = pos + len(piece), 0
    return rest


def _send_parts(sock: socket.socket, parts: list) -> None:
    """Send every byte of ``parts`` (bytes-like, one byte per item) with
    ``sendmsg``, resuming after a partial send. A single part, which every
    small frame is, goes out with ``sendall``, which costs less per call."""
    if len(parts) == 1:
        sock.sendall(parts[0])
        return
    left = sum(map(len, parts))
    while True:
        sent = sock.sendmsg(parts)
        left -= sent
        if not left:
            return
        while sent >= len(parts[0]):  # drop the parts that went out whole
            sent -= len(parts[0])
            parts = parts[1:]
        parts = [memoryview(parts[0])[sent:], *parts[1:]]


class TcpServer:
    """Threaded TCP front-end over a ServerCore; one thread per connection,
    per-connection requests processed strictly in order. A connection whose
    send, or receive of a frame that has begun to arrive, makes no progress
    for ``SOCKET_TIMEOUT_S`` is dropped; one may idle between requests
    without limit. ``stop`` closes the
    listener and every live connection and joins all the server's threads."""

    def __init__(self, engine: Engine, host: str = "127.0.0.1", port: int = 0):
        self.core = ServerCore(engine)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(16)
        except OSError:
            self._listener.close()
            raise
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
        received, spill = FrameBuffer(), FrameBuffer()
        send = functools.partial(_send_now, conn, spill)
        recv = functools.partial(_recv_into, conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # kernel timeouts, as _send_now needs a socket with no Python timeout: the
            # send one bounds sendall, the receive one a frame that stalls part way
            timeout = struct.pack("ll", int(SOCKET_TIMEOUT_S), int(SOCKET_TIMEOUT_S % 1 * 1e6))
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeout)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeout)
            while True:
                unsent = self.core.handle_frame_bytes(_recv_frame(conn, received), send, recv)
                if unsent:
                    conn.sendall(unsent)
        except (OSError, FrameError):
            pass  # peer closed or stalled, or sent a frame the stream cannot recover from
        finally:
            received.release()
            spill.release()
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
