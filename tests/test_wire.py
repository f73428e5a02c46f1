from __future__ import annotations

import collections
import functools
import gc
import os
import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aostore import model, wire
from aostore.apps import ensure_kernel_registration
from aostore.client import Session
from aostore.engine import (
    ByRef,
    ByValue,
    Engine,
    ResultPlacement,
    Routine,
    RoutineCatalog,
)
from aostore.errors import (
    ERR_CAPACITY,
    ERR_INVALID,
    ERR_MALFORMED,
    ERR_UNKNOWN_NAME,
    CapacityError,
    FrameError,
    NotFoundError,
    StoreError,
    UnknownMsgTypeError,
)
from aostore.kernels import (
    MATRIX_CLASS,
    POINTS_CLASS,
    build_catalog,
    kernel_classes,
    kernel_methods,
)
from aostore.model import (
    Centroids,
    ClassDescriptor,
    FloatArray,
    Histogram,
    MethodDescriptor,
    ObjectId,
    ObjectIdFactory,
    PointsBlock,
    Submatrix,
)
from aostore.tiers import MEDIA_DRAM, MEDIA_NVM, TierCounters, TierKind
from aostore.wire import (
    Frame,
    FrameBuffer,
    LoopbackConnection,
    MSG_ERROR,
    MSG_GET,
    MSG_INVOKE,
    MSG_MAKE_PERSISTENT,
    MSG_REGISTER_CLASS,
    MSG_STATS,
    REPLY_BIT,
    ServerCore,
    TcpServer,
    decode_frame,
    encode_frame,
)

from .conftest import make_tiers, persist


class TestFraming:
    def test_get_frame_is_29_bytes(self):
        raw = encode_frame(Frame(MSG_GET, 7, bytes(16)))
        assert len(raw) == 4 + 1 + 8 + 16 == 29
        (length,) = struct.unpack_from("<I", raw)
        assert length == 9 + 16

    @given(
        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 127]),
        st.integers(0, 2**64 - 1),
        st.binary(max_size=2048),
    )
    def test_round_trip(self, msg_type, request_id, body):
        frame = Frame(msg_type, request_id, body)
        decoded, consumed = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert consumed == len(encode_frame(frame))

    def test_oversize_encode_rejected(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 64)
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(Frame(MSG_GET, 1, bytes(100)))

    def test_truncated_stream_reports_offset(self):
        raw = encode_frame(Frame(MSG_GET, 1, bytes(16)))
        with pytest.raises(FrameError, match="offset 0"):
            decode_frame(raw[:20])

    def test_second_frame_error_reports_its_offset(self):
        first = encode_frame(Frame(MSG_GET, 1, bytes(16)))
        stream = first + b"\x01\x00"
        frame, offset = decode_frame(stream)
        assert offset == len(first)
        with pytest.raises(FrameError, match=f"offset {len(first)}"):
            decode_frame(stream, offset)

    def test_unknown_msg_type_on_decode(self):
        raw = bytearray(encode_frame(Frame(MSG_GET, 1, b"")))
        raw[4] = 99
        with pytest.raises(UnknownMsgTypeError):
            decode_frame(bytes(raw))


def _loopback(arena_dir, seed=5, tiers=None):
    tiers = tiers or make_tiers(arena_dir)
    engine = Engine(tiers, build_catalog(), id_factory=ObjectIdFactory(seed))
    for c in kernel_classes():
        engine.register_class(c)
    for m in kernel_methods():
        engine.register_method(m)
    core = ServerCore(engine)
    return engine, core


class TestServerCore:
    def test_unknown_msg_type_gets_error_code_1(self, arena_dir):
        _, core = _loopback(arena_dir)
        raw = encode_frame(Frame(MSG_GET, 3, bytes(16)))
        raw = bytes([raw[0], raw[1], raw[2], raw[3], 99]) + raw[5:]
        reply, _ = decode_frame(core.handle_frame_bytes(raw))
        assert reply.msg_type == (MSG_ERROR | REPLY_BIT)
        assert reply.request_id == 3
        code = struct.unpack_from("<H", reply.body)[0]
        assert code == 1

    def test_malformed_body_keeps_connection_usable(self, arena_dir, session):
        raw = encode_frame(Frame(MSG_GET, 1, b"too-short"))
        reply, _ = decode_frame(session._conn._core.handle_frame_bytes(raw))
        assert reply.msg_type == (MSG_ERROR | REPLY_BIT)
        # the same core keeps serving normal requests
        session.stats()

    def test_stats_counts_per_type(self, arena_dir):
        engine, core = _loopback(arena_dir)
        session = Session.connect_loopback(core)
        from aostore.kernels import HIST_CLASS

        oid = session.make_persistent(HIST_CLASS, FloatArray([1.0, 2.0]), session_tier())
        for _ in range(5):
            session.get(oid)
        stats = session.stats()
        assert stats.wire.per_type[MSG_GET] == 5
        engine.close()

    def test_reply_ids_echo_requests(self, arena_dir):
        _, core = _loopback(arena_dir)
        for rid in (1, 99, 2**40):
            reply, _ = decode_frame(core.handle_frame_bytes(encode_frame(Frame(MSG_STATS, rid, b""))))
            assert reply.request_id == rid

    def test_wire_conservation_under_loopback(self, arena_dir):
        engine, core = _loopback(arena_dir)
        session = Session.connect_loopback(core)
        from aostore.kernels import HIST_CLASS

        oid = session.make_persistent(HIST_CLASS, FloatArray(np.ones(500)), session_tier())
        session.get(oid)
        before = session.counters()
        stats = session.stats()
        after = session.counters()
        assert stats.wire.bytes_received == after.bytes_sent
        assert stats.wire.bytes_sent == before.bytes_received
        engine.close()


def session_tier():
    from aostore.tiers import TierKind

    return TierKind.DRAM


class TestTcpTransport:
    def test_loopback_and_tcp_counters_identical(self, tmp_path):
        def scripted(session):
            from aostore.kernels import HIST_CLASS
            from aostore.apps import ensure_kernel_registration

            ensure_kernel_registration(session)
            ids = [
                session.make_persistent(HIST_CLASS, FloatArray(np.arange(64.0)), session_tier())
                for _ in range(3)
            ]
            for oid in ids:
                session.invoke(oid, "histogram")
                session.get(oid)
            with pytest.raises(NotFoundError):
                session.get(ObjectIdFactory(123).new_object_id())
            session.flush()
            return session.counters(), session.stats()

        d1 = tmp_path / "a"
        d1.mkdir()
        engine1, core = _loopback(d1, seed=5)
        s1 = Session.connect_loopback(core)
        c1, st1 = scripted(s1)
        engine1.close()

        d2 = tmp_path / "b"
        d2.mkdir()
        engine2, _ = _loopback(d2, seed=5)
        server = TcpServer(engine2)
        s2 = Session.connect_tcp(server.host, server.port)
        c2, st2 = scripted(s2)
        server.stop()
        s2.close()
        engine2.close()

        assert (c1.bytes_sent, c1.bytes_received) == (c2.bytes_sent, c2.bytes_received)
        assert c1.per_type == c2.per_type
        assert st1.wire.bytes_sent == st2.wire.bytes_sent
        assert st1.wire.bytes_received == st2.wire.bytes_received
        assert st1.tiers == st2.tiers

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_stats_tiers_equal_the_server_counters(self, arena_dir, transport):
        engine, core = _loopback(arena_dir)
        server = TcpServer(engine) if transport == "tcp" else None
        session = (
            Session.connect_tcp(server.host, server.port) if server else Session.connect_loopback(core)
        )
        from aostore.kernels import HIST_CLASS

        for tier in (TierKind.NVM_DIRECT, TierKind.DRAM, TierKind.MEMORY_MODE):
            session.get(session.make_persistent(HIST_CLASS, FloatArray(np.ones(1000)), tier))
        stats = session.stats()
        session.close()
        if server:
            server.stop()
        for kind, handle in engine.tiers.items():
            for medium, counters in handle.media_counters().items():
                assert stats.tiers[kind][medium] == counters
        assert stats.tiers[TierKind.NVM_DIRECT][MEDIA_NVM].bytes_written == 8000
        engine.close()

    def test_stop_joins_its_threads_while_sessions_stay_open(self, arena_dir):
        engine, _ = _loopback(arena_dir)
        before = set(threading.enumerate())
        sessions = []
        for _ in range(5):
            server = TcpServer(engine)
            sessions.append(Session.connect_tcp(server.host, server.port))
            sessions[-1].stats()  # the connection is being served
            server.stop()
        assert set(threading.enumerate()) == before
        for session in sessions:
            session.close()
        engine.close()

    def test_failed_bind_closes_the_listener(self, arena_dir):
        engine, _ = _loopback(arena_dir)
        with socket.socket() as holder, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            with pytest.raises(OSError):
                TcpServer(engine, port=holder.getsockname()[1])
            gc.collect()
        engine.close()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_concurrent_clients_disjoint_invokes(self, arena_dir):
        engine, _ = _loopback(arena_dir)
        server = TcpServer(engine)
        setup = Session.connect_tcp(server.host, server.port)
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(4):
            a = setup.make_persistent(MATRIX_CLASS, Submatrix(rng.random((4, 4))), session_tier())
            b = setup.make_persistent(MATRIX_CLASS, Submatrix(rng.random((4, 4))), session_tier())
            pairs.append((a, b))
        results = {}

        def worker(idx, pair):
            s = Session.connect_tcp(server.host, server.port)
            results[idx] = s.invoke(pair[0], "add", [ByRef(pair[1])])
            s.close()

        threads = [threading.Thread(target=worker, args=(i, p)) for i, p in enumerate(pairs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        for idx, pair in enumerate(pairs):
            expected = setup.get(pair[0]).values + setup.get(pair[1]).values
            assert np.array_equal(results[idx].values, expected)
        setup.close()
        server.stop()
        engine.close()


# -- message bodies ----------------------------------------------------------------

OID_A = ObjectId(bytes(range(16)))
OID_B = ObjectId(bytes(range(16, 32)))


class _ScriptedEngine:
    """Stands in for the engine behind a ServerCore: records the values each
    request decoded to and answers with ``reply`` (raised if an exception)."""

    def __init__(self, tiers=None):
        self.tiers = tiers or {}
        self.calls = []
        self.reply = None

    def _answer(self, *call):
        self.calls.append(call)
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply

    def register_class(self, desc):
        return self._answer("register_class", desc)

    def register_method(self, desc):
        return self._answer("register_method", desc)

    def make_persistent(self, class_name, schema, tier, fill):
        """Records the payload that ``fill`` writes into a region of its size."""
        region = memoryview(bytearray(schema.nbytes))
        fill(region)
        payload = schema.view(region)
        return self._answer("make_persistent", class_name, payload, tier)

    def get_object(self, oid, read=None):
        payload = self._answer("get_object", oid)
        return payload if read is None else read(payload)

    def invoke(self, oid, method_name, args, placement):
        return self._answer("invoke", oid, method_name, list(args), placement)

    def delete_object(self, oid):
        return self._answer("delete_object", oid)

    def flush(self, tier=None):
        return self._answer("flush", tier)


class _FixedCounters:
    def __init__(self, media):
        self._media = media

    def media_counters(self):
        return dict(self._media)


class _Recording(LoopbackConnection):
    """Loopback transport that keeps every (request, reply) frame pair."""

    def __init__(self, core):
        super().__init__(core)
        self.frames = []

    def _roundtrip(self, raw):
        reply = super()._roundtrip(raw)
        self.frames.append((b"".join(raw), reply))
        return reply


def _scripted(tiers=None):
    engine = _ScriptedEngine(tiers)
    conn = _Recording(ServerCore(engine))
    return engine, conn, Session(conn)


_STATS_TIERS = {
    TierKind.DRAM: _FixedCounters({MEDIA_DRAM: TierCounters(1, 2, 3, 4, 5, 6)}),
    TierKind.MEMORY_MODE: _FixedCounters(
        {MEDIA_NVM: TierCounters(7, 8, 9, 10, 11, 12), MEDIA_DRAM: TierCounters(2**64 - 1)}
    ),
}


def _golden_script(engine, session):
    """One request of every type, and every reply shape, with fixed values."""
    engine.reply = None
    session.register_class(
        ClassDescriptor("Blk", (("n", "u64"), ("w", "f64")), ("mean", "fma"))
    )
    session.register_method(
        MethodDescriptor("Blk", "fma", "mat.fma", ("submatrix", "submatrix"), "none", True)
    )
    engine.reply = OID_A
    session.make_persistent("Blk", FloatArray([1.0, -2.5]), TierKind.NVM_DIRECT)
    engine.reply = Submatrix([[1.0, 2.0], [3.0, 4.0]])
    session.get(OID_A)
    engine.reply = None
    session.invoke(
        OID_A,
        "fma",
        [ByValue(Submatrix([[0.5]])), ByRef(OID_B)],
        ResultPlacement.store_in(TierKind.MEMORY_MODE),
    )
    engine.reply = Histogram([3, 0, 2**64 - 1])
    session.invoke(OID_B, "histogram")
    engine.reply = OID_B
    session.invoke(
        OID_A, "partial", [ByValue(Centroids(np.zeros((1, 2))))], ResultPlacement.volatile()
    )
    engine.reply = None
    session.delete(OID_B)
    session.flush(TierKind.NVM_DIRECT)
    session.flush()
    session.stats()
    engine.reply = NotFoundError("no object é")
    with pytest.raises(NotFoundError):
        session.get(OID_B)


# (request frame, reply frame) of each step of ``_golden_script``, as hex
_GOLDEN = [
    (
        (
            "2d0000000101000000000000000300426c6b020001006e0300753634010077030066363402000400"
            "6d65616e0300666d61"
        ),
        "09000000810100000000000000",
    ),
    (
        (
            "3a0000000202000000000000000300426c6b0300666d6107006d61742e666d610209007375626d61"
            "7472697809007375626d617472697804006e6f6e6501"
        ),
        "09000000820200000000000000",
    ),
    (
        (
            "280000000303000000000000000300426c6b02010200000000000000000000000000f03f00000000"
            "000004c0"
        ),
        "19000000830300000000000000000102030405060708090a0b0c0d0e0f",
    ),
    (
        "19000000040400000000000000000102030405060708090a0b0c0d0e0f",
        (
            "32000000840400000000000000030200000000000000000000000000f03f00000000000000400000"
            "0000000008400000000000001040"
        ),
    ),
    (
        (
            "44000000050500000000000000000102030405060708090a0b0c0d0e0f0300666d61020302010301"
            "00000000000000000000000000e03f02101112131415161718191a1b1c1d1e1f"
        ),
        "0a00000085050000000000000000",
    ),
    (
        (
            "26000000050600000000000000101112131415161718191a1b1c1d1e1f0900686973746f6772616d"
            "0000"
        ),
        (
            "2b0000008506000000000000000104030000000000000003000000000000000000000000000000ff"
            "ffffffffffffff"
        ),
    ),
    (
        (
            "46000000050700000000000000000102030405060708090a0b0c0d0e0f07007061727469616c0101"
            "01050100000000000000020000000000000000000000000000000000000000000000"
        ),
        "1a00000085070000000000000002101112131415161718191a1b1c1d1e1f",
    ),
    (
        "19000000060800000000000000101112131415161718191a1b1c1d1e1f",
        "09000000860800000000000000",
    ),
    (
        "0a00000008090000000000000002",
        "09000000880900000000000000",
    ),
    (
        "0a000000080a00000000000000ff",
        "09000000880a00000000000000",
    ),
    (
        "09000000070b00000000000000",
        (
            "fa000000870b00000000000000ef00000000000000ba010000000000000801010000000000000002"
            "01000000000000000301000000000000000401000000000000000503000000000000000601000000"
            "00000000070100000000000000080200000000000000020101010100000000000000020000000000"
            "00000300000000000000040000000000000005000000000000000600000000000000030201ffffff"
            "ffffffffff0000000000000000000000000000000000000000000000000000000000000000000000"
            "0000000000020700000000000000080000000000000009000000000000000a000000000000000b00"
            "0000000000000c00000000000000"
        ),
    ),
    (
        "19000000040c00000000000000101112131415161718191a1b1c1d1e1f",
        "17000000ff0c0000000000000003006e6f206f626a65637420c3a9",
    ),
]


class TestMessageFormat:
    def test_golden_bytes(self):
        engine, conn, session = _scripted(_STATS_TIERS)
        _golden_script(engine, session)
        assert [(req.hex(), rep.hex()) for req, rep in conn.frames] == _GOLDEN

    def test_every_truncated_or_padded_request_is_malformed(self):
        engine, conn, session = _scripted(_STATS_TIERS)
        _golden_script(engine, session)
        core = ServerCore(_ScriptedEngine(_STATS_TIERS))
        for raw, _ in conn.frames:
            frame, _ = decode_frame(raw)
            body = frame.body
            for bad in [body[:n] for n in range(len(body))] + [body + b"\x00"]:
                reply = core.handle_frame_bytes(encode_frame(Frame(frame.msg_type, 9, bad)))
                got, _ = decode_frame(reply)
                assert got.msg_type == MSG_ERROR | REPLY_BIT, (frame.msg_type, bad)
                assert struct.unpack_from("<H", got.body)[0] == ERR_MALFORMED, (frame.msg_type, bad)
        assert core.engine.calls == []
        reply, _ = decode_frame(core.handle_frame_bytes(encode_frame(Frame(MSG_STATS, 5, b""))))
        assert reply.msg_type == MSG_STATS | REPLY_BIT

    @pytest.mark.parametrize("msg_type, body", [
        (MSG_REGISTER_CLASS, b"\x02\x00\xff\xfe\x00\x00\x00\x00"),
        (MSG_INVOKE, bytes(16) + b"\x02\x00\xff\xfe\x00\x00"),
    ])
    def test_invalid_utf8_string_is_malformed(self, msg_type, body):
        core = ServerCore(_ScriptedEngine())
        reply, _ = decode_frame(core.handle_frame_bytes(encode_frame(Frame(msg_type, 4, body))))
        assert reply.msg_type == MSG_ERROR | REPLY_BIT
        assert struct.unpack_from("<H", reply.body)[0] == ERR_MALFORMED
        assert core.engine.calls == []

    def test_count_too_large_for_its_field_fails_on_encode(self, session):
        tags = tuple(f"t{i}" for i in range(256))
        with pytest.raises(FrameError):
            session.register_method(MethodDescriptor("C", "m", "k", tags))
        args = [ByRef(OID_A)] * 256
        with pytest.raises(FrameError):
            session.invoke(OID_A, "m", args)
        session.stats()  # nothing half-sent: the connection still works


class TestPlacementBytes:
    """The placement field of an INVOKE request, byte for byte."""

    @pytest.mark.parametrize("placement, code", [
        pytest.param(ResultPlacement.value(), "00", id="value"),
        pytest.param(ResultPlacement.volatile(), "01", id="volatile"),
        pytest.param(ResultPlacement.store_in(TierKind.DRAM), "01", id="store-dram"),
        pytest.param(ResultPlacement.store_in(TierKind.NVM_DIRECT), "0202", id="store-nvm"),
        pytest.param(ResultPlacement.store_in(TierKind.MEMORY_MODE), "0203", id="store-mm"),
    ])
    def test_encoding(self, placement, code):
        engine, conn, session = _scripted()
        session.invoke(OID_A, "m", [], placement)
        frame, _ = decode_frame(conn.frames[0][0])
        # object id, str16 method name, placement, u8 arg count
        assert frame.body.hex() == OID_A.hex() + "01006d" + code + "00"
        assert engine.calls == [("invoke", OID_A, "m", [], placement)]

    def test_store_in_dram_is_volatile(self):
        assert ResultPlacement.store_in(TierKind.DRAM) == ResultPlacement.volatile()

    @pytest.mark.parametrize("code, tier", [
        pytest.param(b"\x01", TierKind.DRAM, id="01"),
        pytest.param(b"\x02\x01", TierKind.DRAM, id="0201"),
        pytest.param(b"\x02\x02", TierKind.NVM_DIRECT, id="0202"),
    ])
    def test_hand_built_request_decodes(self, code, tier):
        core = ServerCore(_ScriptedEngine())
        body = OID_A + b"\x01\x00m" + code + b"\x00"
        reply, _ = decode_frame(core.handle_frame_bytes(encode_frame(Frame(MSG_INVOKE, 1, body))))
        assert reply.msg_type == MSG_INVOKE | REPLY_BIT
        assert core.engine.calls == [("invoke", OID_A, "m", [], ResultPlacement(tier))]

    def test_long_form_dram_stores_the_result_in_dram(self, arena_dir):
        engine, core = _loopback(arena_dir)
        a, b = (
            persist(engine, MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.NVM_DIRECT)
            for _ in range(2)
        )
        body = a + b"\x03\x00add" + b"\x02\x01" + b"\x01\x02" + b
        reply, _ = decode_frame(core.handle_frame_bytes(encode_frame(Frame(MSG_INVOKE, 1, body))))
        (result,) = wire.decode_body(wire.MESSAGES[MSG_INVOKE].reply, reply.body)
        assert engine.object_tier(result) == TierKind.DRAM
        np.testing.assert_array_equal(engine.get_object(result).values, 2 * np.eye(2))
        engine.close()

    def test_unknown_placement_code_is_malformed(self):
        core = ServerCore(_ScriptedEngine())
        body = OID_A + b"\x01\x00m\x03\x00"
        reply, _ = decode_frame(core.handle_frame_bytes(encode_frame(Frame(MSG_INVOKE, 1, body))))
        assert struct.unpack_from("<H", reply.body)[0] == ERR_MALFORMED
        assert core.engine.calls == []


_text = st.text(max_size=12)
_oids = st.binary(min_size=16, max_size=16).map(ObjectId)
_tiers = st.sampled_from(list(TierKind))
_f64 = st.floats(width=64)
_payloads = st.one_of(
    st.lists(_f64, max_size=6).map(FloatArray),
    st.integers(0, 3).flatmap(
        lambda k: st.lists(_f64, min_size=k * k, max_size=k * k).map(
            lambda v, k=k: Submatrix(np.array(v).reshape(k, k))
        )
    ),
    st.lists(st.integers(0, 2**64 - 1), max_size=6).map(Histogram),
    *[
        st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
            lambda rd, cls=cls: st.lists(_f64, min_size=rd[0] * rd[1], max_size=rd[0] * rd[1]).map(
                lambda v, rd=rd: cls(np.array(v).reshape(rd))
            )
        )
        for cls in (PointsBlock, Centroids)
    ],
)
_placements = st.one_of(
    st.just(ResultPlacement.value()),
    st.just(ResultPlacement.volatile()),
    _tiers.map(ResultPlacement.store_in),
)
_args = st.lists(st.one_of(_payloads.map(ByValue), _oids.map(ByRef)), max_size=4)
_counters = st.tuples(*[st.integers(0, 2**64 - 1)] * 6).map(lambda raw: TierCounters(*raw))
_stats_tiers = st.dictionaries(
    _tiers, st.dictionaries(st.sampled_from([MEDIA_DRAM, MEDIA_NVM]), _counters), max_size=3
)


class TestMessageRoundTrip:
    """Each request reaches the engine as the values the client sent, and
    each reply reaches the client as the values the engine returned."""

    @given(
        st.text(min_size=1, max_size=12),
        st.lists(st.tuples(_text, _text), max_size=4, unique_by=lambda f: f[0]),
        st.lists(_text, max_size=4, unique=True),
    )
    def test_register_class(self, name, fields, methods):
        desc = ClassDescriptor(name, tuple(fields), tuple(methods))
        engine, _, session = _scripted()
        assert session.register_class(desc) is None
        assert engine.calls == [("register_class", desc)]

    @given(_text, _text, _text, st.lists(_text, max_size=255), _text, st.booleans())
    def test_register_method(self, cls, method, key, args, result, mutates):
        desc = MethodDescriptor(cls, method, key, tuple(args), result, mutates)
        engine, _, session = _scripted()
        session.register_method(desc)
        assert engine.calls == [("register_method", desc)]

    @given(_text, _payloads, _tiers, _oids)
    def test_make_persistent(self, cls, payload, tier, oid):
        engine, _, session = _scripted()
        engine.reply = oid
        assert session.make_persistent(cls, payload, tier) == oid
        assert engine.calls == [("make_persistent", cls, payload, tier)]

    @given(_oids, _payloads)
    def test_get(self, oid, payload):
        engine, _, session = _scripted()
        engine.reply = payload
        assert session.get(oid) == payload
        assert engine.calls == [("get_object", oid)]

    @given(_oids, _text, _args, _placements, st.one_of(st.none(), _payloads, _oids))
    def test_invoke(self, oid, method, args, placement, result):
        engine, _, session = _scripted()
        engine.reply = result
        assert session.invoke(oid, method, args, placement) == result
        assert engine.calls == [("invoke", oid, method, args, placement)]

    @given(_oids)
    def test_delete(self, oid):
        engine, _, session = _scripted()
        session.delete(oid)
        assert engine.calls == [("delete_object", oid)]

    @given(st.one_of(st.none(), _tiers))
    def test_flush(self, tier):
        engine, _, session = _scripted()
        session.flush(tier)
        assert engine.calls == [("flush", tier)]

    @given(_stats_tiers)
    def test_stats(self, tiers):
        engine, conn, session = _scripted({k: _FixedCounters(m) for k, m in tiers.items()})
        engine.reply = FloatArray([1.0])
        session.get(OID_A)  # some traffic for the wire counters
        stats = session.stats()
        assert stats.tiers == {k: m for k, m in tiers.items()}
        assert stats.wire.bytes_sent == len(conn.frames[0][1])
        assert stats.wire.bytes_received == len(conn.frames[0][0]) + len(conn.frames[1][0])
        assert stats.wire.per_type == {MSG_GET: 1, MSG_STATS: 1}

    @given(st.integers(1, 0xFFFF), st.text(max_size=40))
    def test_error(self, code, message):
        engine, _, session = _scripted()
        engine.reply = StoreError(message)
        engine.reply.code = code
        with pytest.raises(StoreError) as info:
            session.get(OID_A)
        assert info.value.code == code
        assert str(info.value) == message


class TestCodecLookup:
    def test_codec_calls_the_functions_bound_in_wire(self, session, monkeypatch):
        """The codec looks ``encode_frame``, ``encode_payload``,
        ``decode_header`` and ``decode_payload`` up as ``aostore.wire``
        globals at call time, so a wrapper set there (the traced benchmark
        sets one) sees every call."""
        calls = collections.Counter()
        for name in ("encode_frame", "encode_payload", "decode_header", "decode_payload"):

            def counted(*args, _name=name, _fn=getattr(wire, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(wire, name, counted)
        ensure_kernel_registration(session)
        calls.clear()
        oid = session.make_persistent(POINTS_CLASS, PointsBlock(np.ones((4, 2))), TierKind.DRAM)
        session.get(oid)
        session.invoke(oid, "partial", [ByValue(Centroids(np.zeros((2, 2))))])
        # three requests and three replies carrying four payloads: the
        # persisted block, of which the server reads the header only, the
        # GET reply, the argument and the result
        assert calls == {
            "encode_frame": 6, "encode_payload": 4, "decode_header": 1, "decode_payload": 3
        }

    def test_each_decoded_payload_reads_its_header_once(self, session, monkeypatch):
        """A reply's payload runs to the end of its frame, and a by-value
        argument ends where its decoded payload does, so neither header is
        read a second time to find where the payload ends."""
        reads = []
        read = model.decode_header
        monkeypatch.setattr(model, "decode_header", lambda data: reads.append(1) or read(data))
        ensure_kernel_registration(session)
        oid = session.make_persistent(POINTS_CLASS, PointsBlock(np.ones((4, 2))), TierKind.DRAM)
        reads.clear()
        assert session.get(oid) == PointsBlock(np.ones((4, 2)))
        assert len(reads) == 1
        session.invoke(oid, "partial", [ByValue(Centroids(np.zeros((2, 2))))])
        assert len(reads) == 3  # the argument, then the result


# -- partial I/O and buffer ownership -----------------------------------------------


class _CountingSocket(socket.socket):
    """A socket that records what each recv_into and sendmsg call returned."""

    def __init__(self, sock: socket.socket):
        super().__init__(fileno=sock.detach())
        self.returns = []

    def recv_into(self, *args):
        self.returns.append(super().recv_into(*args))
        return self.returns[-1]

    def sendmsg(self, *args):
        self.returns.append(super().sendmsg(*args))
        return self.returns[-1]


class TestPartialIO:
    def test_frame_sent_a_byte_at_a_time_is_read_whole(self):
        frames = [encode_frame(Frame(MSG_GET, 1, bytes(range(16)))),
                  encode_frame(Frame(MSG_STATS, 2, b""))]
        a, b = socket.socketpair()
        reader = _CountingSocket(b)

        def drip():
            for raw in frames:
                for i in range(len(raw)):
                    a.sendall(raw[i : i + 1])
                    time.sleep(0.0005)

        sender = threading.Thread(target=drip)
        sender.start()
        buf = FrameBuffer()
        got = [bytes(wire._recv_frame(reader, buf)) for _ in frames]
        sender.join()
        a.close()
        reader.close()
        assert got == frames
        assert len(reader.returns) > 2 * len(frames)  # more than one read per field

    def test_partial_sendmsg_delivers_identical_bytes(self):
        a, b = socket.socketpair()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sender = _CountingSocket(a)
        sender.settimeout(10.0)
        data = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
        parts = [b"head", memoryview(data).cast("B"), b"", b"tail"]
        expected = b"".join(parts)
        received = bytearray()

        def drain():
            while len(received) < len(expected):
                chunk = b.recv(1 << 16)
                if not chunk:
                    return
                received.extend(chunk)

        reader = threading.Thread(target=drain)
        reader.start()
        wire._send_parts(sender, parts)
        reader.join()
        sender.close()
        b.close()
        assert bytes(received) == expected
        assert len(sender.returns) > 1 and sum(sender.returns) == len(expected)

    def test_stalled_large_frame_grows_the_buffer_only_by_what_arrived(self):
        """A frame announced large is received into fresh memory whose pages
        are committed only as its bytes arrive: while the receiver waits for
        the rest, the process's resident memory has grown by no more than the
        bytes sent and a margin of two transparent huge pages (one at each end
        of the written range) and 1 MiB for the rest of the process."""
        margin = (2 << 21) + (1 << 20)
        for announced, sent in ((64 << 20, 3 << 20), (wire.MAX_FRAME, 8 << 20)):
            a, b = socket.socketpair()
            reader = _CountingSocket(b)
            raw = struct.pack("<I", announced) + bytes(sent)
            failed = []

            def receive():
                with pytest.raises(FrameError, match="closed mid-frame") as caught:
                    wire._recv_frame(reader, FrameBuffer())
                failed.append(caught.value)

            before = _resident_bytes()
            receiver = threading.Thread(target=receive)
            receiver.start()
            a.sendall(raw)
            deadline = time.monotonic() + 30
            while sum(reader.returns) < len(raw) and time.monotonic() < deadline:
                time.sleep(0.001)
            grown = _resident_bytes() - before
            a.shutdown(socket.SHUT_WR)
            receiver.join(30)
            a.close()
            reader.close()
            assert sum(reader.returns) == len(raw) and failed
            assert grown <= sent + margin, (announced, grown)

    def test_frame_larger_than_a_step_is_read_whole(self):
        """A frame of a few MiB is received whole, byte for byte, into memory
        of its own; the reused buffer stays at GATHER_LIMIT bytes."""
        raw = encode_frame(Frame(MSG_GET, 3, np.random.default_rng(0).bytes((5 << 20) + 7)))
        a, b = socket.socketpair()
        sender = threading.Thread(target=a.sendall, args=(raw,))
        sender.start()
        buf = FrameBuffer()
        got = wire._recv_frame(b, buf)
        sender.join()
        a.close()
        b.close()
        assert bytes(got) == raw and isinstance(got.obj, np.ndarray)
        assert buf.capacity <= wire.GATHER_LIMIT

    def test_oversize_length_fails_before_the_buffer_grows(self, monkeypatch):
        """A length above MAX_FRAME, one that would be received into fresh
        memory if it were allowed, fails before any array is made for it, on
        a server's and on a client's receive."""
        monkeypatch.setattr(wire, "MAX_FRAME", 1 << 20)
        made, empty = [], np.empty
        monkeypatch.setattr(np, "empty", lambda *args, **kw: made.append(args) or empty(*args, **kw))
        for own_large in (False, True):
            a, b = socket.socketpair()
            a.sendall(struct.pack("<I", (1 << 20) + 1) + bytes(64))
            buf = FrameBuffer()
            with pytest.raises(FrameError, match="oversize"):
                wire._recv_frame(b, buf, own_large)
            a.close()
            b.close()
            assert not made and buf.capacity <= wire.GATHER_LIMIT


def _resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.fixture
def tcp(arena_dir):
    engine, _ = _loopback(arena_dir)
    server = TcpServer(engine)
    session = Session.connect_tcp(server.host, server.port)
    yield server, session
    session.close()
    server.stop()
    engine.close()


def _assert_owned(payloads, session) -> None:
    """Each array is aligned and writable, and shares memory with no other
    and not with the connection's reused receive buffer."""
    buf = session._conn._received
    reused = np.frombuffer(buf.view(buf.capacity), np.uint8)
    for i, payload in enumerate(payloads):
        flags = payload.values.flags
        assert flags.aligned and flags.writeable
        assert not np.shares_memory(payload.values, reused)
        assert not any(np.shares_memory(payload.values, p.values) for p in payloads[i + 1 :])


def _record_what_is_kept(monkeypatch) -> list:
    """The length of what the socket did not take of each large reply that
    a TCP connection accepted from now on sends."""
    kept, send_now = [], wire._send_now

    def recorded(sock, spill, parts):
        rest = send_now(sock, spill, parts)
        kept.append(len(rest))
        return rest

    monkeypatch.setattr(wire, "_send_now", recorded)
    return kept


class TestBufferOwnership:
    def test_a_get_owns_its_payload(self, tcp):
        _, session = tcp
        a, b = (
            session.make_persistent(MATRIX_CLASS, Submatrix(np.full((64, 64), x)), tier)
            for x, tier in ((1.0, TierKind.NVM_DIRECT), (2.0, TierKind.DRAM))
        )
        first = session.get(a)
        second = session.get(b)
        assert np.all(first.values == 1.0) and np.all(second.values == 2.0)
        _assert_owned([first, second], session)

    def test_every_large_reply_is_aligned_writable_and_unshared(self, tcp):
        """A GET of every variant from every tier, and a by-value INVOKE
        result, each at least GATHER_LIMIT bytes, comes back as memory of its
        own that no later reply changes. Their data sections start 6 (GET)
        and 7 (INVOKE, after the result tag) bytes past 8-byte boundaries of
        the frame, so only the placement of the frame's end aligns them."""
        _, session = tcp
        rng = np.random.default_rng(4)
        blocks = [
            FloatArray(rng.random(2049)),
            PointsBlock(rng.random((1031, 3))),
            Submatrix(rng.random((47, 47))),
            Histogram(rng.integers(0, 1 << 60, 2053, dtype=np.uint64)),
            Centroids(rng.random((7, 301))),
        ]
        sent, got = [], []
        for tier in TierKind:
            for block in blocks:
                oid = session.make_persistent(MATRIX_CLASS, block, tier)
                sent.append(block)
                got.append(session.get(oid))
        a, b = (
            session.make_persistent(MATRIX_CLASS, Submatrix(np.full((64, 64), x)), TierKind.DRAM)
            for x in (1.0, 2.0)
        )
        before = session.counters().bytes_received
        total = session.invoke(a, "add", [ByRef(b)])
        assert session.counters().bytes_received - before >= wire.GATHER_LIMIT
        sent.append(Submatrix(np.full((64, 64), 3.0)))
        got.append(total)
        _assert_owned(got, session)
        assert not any(p.values.flags.owndata for p in got)  # views of the frames, not copies
        assert got == sent

    def test_every_array_a_routine_sees_is_aligned(self, arena_dir):
        seen = []

        def probe(target, args):
            seen.append([target.values.flags.aligned] + [a.values.flags.aligned for a in args])
            return None

        engine = Engine(make_tiers(arena_dir), RoutineCatalog([Routine("test.probe", probe)]))
        server = TcpServer(engine)
        session = Session.connect_tcp(server.host, server.port)
        session.register_class(ClassDescriptor("Probe"))
        # method names of 1 to 8 bytes shift the by-value argument through
        # every offset mod 8 in the request frame
        names = ["p" * n for n in range(1, 9)]
        for name in names:
            session.register_method(MethodDescriptor("Probe", name, "test.probe", ("", "")))
        block = Submatrix(np.ones((4, 4)))
        small = ByValue(Centroids(np.ones((3, 5))))
        large = ByValue(Centroids(np.ones((64, 33))))
        assert large.payload.values.nbytes > wire.GATHER_LIMIT  # received into fresh memory
        for tier in TierKind:
            target = session.make_persistent("Probe", block, tier)
            ref = ByRef(session.make_persistent("Probe", block, tier))
            for name in names:
                for args in ([ref, small], [ref, large], [large, ref]):
                    session.invoke(target, name, args)
            assert session.get(target).values.flags.aligned
        session.close()
        server.stop()
        engine.close()
        assert seen == [[True, True, True]] * 3 * len(names) * len(TierKind)

    @pytest.mark.parametrize("transport", ["engine", "loopback", "tcp"])
    def test_by_value_arguments_are_read_only(self, arena_dir, transport):
        writable = []

        def probe(target, args):
            writable.extend(a.values.flags.writeable for a in args)
            return None

        engine = Engine(make_tiers(arena_dir), RoutineCatalog([Routine("test.probe", probe)]))
        server = TcpServer(engine) if transport == "tcp" else None
        client = {"engine": lambda: engine,
                  "loopback": lambda: Session.connect_loopback(ServerCore(engine)),
                  "tcp": lambda: Session.connect_tcp(server.host, server.port)}[transport]()
        client.register_class(ClassDescriptor("Probe"))
        names = ["p" * n for n in range(1, 9)]  # aligned and unaligned arguments
        for name in names:
            client.register_method(MethodDescriptor("Probe", name, "test.probe", ("",)))
        block = Submatrix(np.ones((4, 4)))
        target = (persist(engine, "Probe", block, TierKind.DRAM) if client is engine
                  else client.make_persistent("Probe", block, TierKind.DRAM))
        mine = Centroids(np.ones((3, 5)))
        large = Centroids(np.ones((64, 33)))
        assert large.values.nbytes > wire.GATHER_LIMIT  # received into fresh memory over TCP
        for name in names:
            client.invoke(target, name, [ByValue(mine)])
            client.invoke(target, name, [ByValue(large)])
        if server:
            client.close()
            server.stop()
        engine.close()
        assert writable == [False] * 2 * len(names)
        # the caller's arrays are left as they were
        assert mine.values.flags.writeable and large.values.flags.writeable

    def test_server_buffers_fit_the_largest_frame_and_go_on_close(self, arena_dir, monkeypatch):
        """The client's and the server's reused receive buffers hold at most
        GATHER_LIMIT bytes, through a large persist, a large GET reply, an
        INVOKE with a large by-value argument and a small STATS reply. The
        server's send buffer holds only what the socket did not take of a
        large reply. All three go on close."""
        made = []

        class Recorded(FrameBuffer):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(wire, "FrameBuffer", Recorded)
        kept = _record_what_is_kept(monkeypatch)
        engine, _ = _loopback(arena_dir)
        server = TcpServer(engine)
        session = Session.connect_tcp(server.host, server.port)
        block = Submatrix(np.ones((100, 100)))
        start = session.counters()
        oid = session.make_persistent(MATRIX_CLASS, block, TierKind.DRAM)
        persisted = session.counters()
        session.get(oid)
        got = session.counters()
        session.invoke(oid, "add", [ByValue(block)], ResultPlacement.volatile())
        invoked = session.counters()
        session.stats()
        client = session._conn._received
        received, spill = [b for b in made if b is not client]
        assert persisted.bytes_sent - start.bytes_sent > wire.GATHER_LIMIT
        assert got.bytes_received - persisted.bytes_received >= wire.GATHER_LIMIT
        assert invoked.bytes_sent - got.bytes_sent > wire.GATHER_LIMIT
        assert 0 < client.capacity <= wire.GATHER_LIMIT
        assert 0 < received.capacity <= wire.GATHER_LIMIT
        assert spill.capacity == max(kept, default=0)
        session.close()
        assert client.capacity == 0
        deadline = time.monotonic() + 10
        while (received.capacity or spill.capacity) and time.monotonic() < deadline:
            time.sleep(0.01)
        server.stop()
        engine.close()
        assert (received.capacity, spill.capacity) == (0, 0)

    def test_a_reply_the_socket_takes_in_part_is_sent_whole(self, arena_dir):
        """What the socket does not take under the claim is copied before the
        handler returns, so a later write to the object does not show in the
        reply, and the server counts the whole frame as sent."""
        engine, core = _loopback(arena_dir)
        values = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)  # 2 MiB
        oid = persist(engine, MATRIX_CLASS, Submatrix(values), TierKind.DRAM)
        body = wire.encode_body(wire.MESSAGES[MSG_GET].reply, (Submatrix(values),))
        expected = b"".join(encode_frame(Frame(MSG_GET | REPLY_BIT, 1, body)))
        a, b = socket.socketpair()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        a.setblocking(False)  # a send that would wait for the reader fails instead
        before = core.wire_counters().bytes_sent
        rest = core.handle_frame_bytes(
            encode_frame(Frame(MSG_GET, 1, oid)), functools.partial(wire._send_now, a, FrameBuffer())
        )
        a.setblocking(True)
        engine.tier(TierKind.DRAM).write_in_place(oid, 0, bytes(values.nbytes))
        assert 0 < len(rest) < len(expected)
        received = bytearray()

        def drain():
            while len(received) < len(expected):
                chunk = b.recv(1 << 16)
                if not chunk:
                    return
                received.extend(chunk)

        reader = threading.Thread(target=drain)
        reader.start()
        a.sendall(rest)
        a.close()  # the reader stops at the end of what was sent
        reader.join(30)
        assert not reader.is_alive()
        b.close()
        engine.close()
        assert bytes(received) == expected
        assert core.wire_counters().bytes_sent - before == len(expected)

    def test_a_stalled_reader_holds_no_claim(self, tcp, monkeypatch):
        """A client that asks for a large object and never reads the reply
        leaves the object free: the server keeps the part the socket did not
        take, releases the claim, and blocks only in sending that part."""
        server, session = tcp
        kept = _record_what_is_kept(monkeypatch)
        values = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        oid = session.make_persistent(MATRIX_CLASS, FloatArray(values), TierKind.DRAM)
        stalled = socket.create_connection((server.host, server.port))
        try:
            stalled.sendall(encode_frame(Frame(MSG_GET, 1, oid)))
            deadline = time.monotonic() + 10
            while not kept and time.monotonic() < deadline:
                time.sleep(0.01)
            deleter = threading.Thread(target=session.delete, args=(oid,), daemon=True)
            deleter.start()
            deleter.join(10)
            freed = not deleter.is_alive()
            if freed:  # the freed region may be reused by the next object
                session.make_persistent(MATRIX_CLASS, FloatArray(-values), TierKind.DRAM)
            stalled.settimeout(30)
            reply = wire._recv_frame(stalled, FrameBuffer())
        finally:
            stalled.close()
        deleter.join(30)
        assert freed
        assert kept and kept[0] > 0
        assert np.array_equal(np.frombuffer(reply, np.float64, offset=4 + 9 + 9), values)

    def test_a_stalled_reader_is_dropped_after_the_send_timeout(self, tcp, monkeypatch):
        """A client that asks for a large object and never reads the reply
        holds its server thread only until a send makes no progress for
        SOCKET_TIMEOUT_S; the connection then closes, and others still work."""
        server, session = tcp
        monkeypatch.setattr(wire, "SOCKET_TIMEOUT_S", 1.0)
        values = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        oid = session.make_persistent(MATRIX_CLASS, FloatArray(values), TierKind.DRAM)
        session.close()  # the connection the fixture opened before the patch
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)  # takes little
        try:
            stalled.connect((server.host, server.port))
            stalled.sendall(encode_frame(Frame(MSG_GET, 1, oid)))
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                with server._lock:
                    if not server._conns:
                        break
                time.sleep(0.05)
            with server._lock:
                assert not server._conns
        finally:
            stalled.close()
        fresh = Session.connect_tcp(server.host, server.port)
        try:
            assert np.array_equal(fresh.get(oid).values, values)
        finally:
            fresh.close()

    def test_tcp_sockets_send_without_delay(self, tcp):
        """A reply the socket takes only in part leaves in two sends; the
        second must not wait for the peer's delayed ACK."""
        server, session = tcp
        session.stats()  # the server has accepted the connection
        with server._lock:
            served = list(server._conns)
        assert len(served) == 1
        for sock in (session._conn._sock, *served):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


# -- persists received straight into the tier region --------------------------------

# a variant and shape whose data section is just below, then just above, GATHER_LIMIT
_NEAR_THE_LIMIT = [
    (FloatArray, (2047,)), (FloatArray, (2049,)),
    (PointsBlock, (23, 89)), (PointsBlock, (3, 683)),
    (Submatrix, (45, 45)), (Submatrix, (46, 46)),
    (Histogram, (2047,)), (Histogram, (2049,)),
    (Centroids, (89, 23)), (Centroids, (683, 3)),
]


def _random_block(cls, shape, rng):
    """A payload whose data section is random bytes: NaNs of any payload too."""
    raw = rng.integers(0, 1 << 64, shape, dtype=np.uint64, endpoint=False)
    return cls(raw if cls is Histogram else raw.view(np.float64))


def _persist_frame(class_name, tier, payload, request_id=1) -> bytes:
    body = wire.encode_body(wire.MESSAGES[MSG_MAKE_PERSISTENT].request, (class_name, tier, payload))
    return b"".join(encode_frame(Frame(MSG_MAKE_PERSISTENT, request_id, body)))


def _exchange(sock, raw: bytes) -> Frame:
    sock.sendall(raw)
    reply, _ = decode_frame(bytes(wire._recv_frame(sock, FrameBuffer())))
    return reply


class TestStreamedPersist:
    @pytest.mark.parametrize("tier", list(TierKind))
    def test_every_variant_near_the_limit_round_trips_byte_exact(self, tcp, tier):
        _, session = tcp
        rng = np.random.default_rng(tier.value)
        for cls, shape in _NEAR_THE_LIMIT:
            block = _random_block(cls, shape, rng)
            got = session.get(session.make_persistent(MATRIX_CLASS, block, tier))
            assert type(got) is cls
            assert got.values.tobytes() == block.values.tobytes()

    @pytest.mark.parametrize("first", [5, 14, 15, -2, -1, 0, 3, None], ids=[
        "in the head", "in the name length", "at the name", "in the shape",
        "a byte short of the data", "at the data", "in the data", "whole frame",
    ])
    def test_the_prefix_may_end_anywhere_in_the_header_or_the_data(self, arena_dir, first):
        """The server reads a large persist up to the end of the payload's
        header and no further than the bytes in hand. The peer sends ``first``
        bytes (counted from the end of the header when not above 0, the whole
        frame when None) and the rest only once the prefix has been read, or
        after a pause when the prefix needs more; the object holds the sent
        bytes either way, and the frame is counted once."""
        engine, core = _loopback(arena_dir)
        block = _random_block(FloatArray, (4099,), np.random.default_rng(1))
        raw = _persist_frame(MATRIX_CLASS, TierKind.NVM_DIRECT, block)
        header_end = 13 + 2 + len(MATRIX_CLASS) + 1 + 9
        first = len(raw) if first is None else first if first > 0 else header_end + first
        read = threading.Event()
        a, b = socket.socketpair()
        b.settimeout(30)

        def send():
            a.sendall(raw[:first])
            read.wait(0.2)
            a.sendall(raw[first:])

        sender = threading.Thread(target=send)
        sender.start()
        buf = FrameBuffer()
        prefix = wire._recv_frame(b, buf)
        read.set()
        recv = functools.partial(wire._recv_into, b)
        reply, _ = decode_frame(core.handle_frame_bytes(prefix, None, recv))
        sender.join(30)
        assert not sender.is_alive()
        a.close()
        b.close()
        assert header_end <= len(prefix) <= wire.GATHER_LIMIT == buf.capacity
        if first >= header_end:
            assert len(prefix) <= first
        assert reply.msg_type == MSG_MAKE_PERSISTENT | REPLY_BIT
        (oid,) = wire.decode_body(wire.MESSAGES[MSG_MAKE_PERSISTENT].reply, reply.body)
        assert engine.get_object(oid).values.tobytes() == block.values.tobytes()
        counters = core.wire_counters()
        assert (counters.bytes_received, counters.per_type) == (len(raw), {MSG_MAKE_PERSISTENT: 1})
        engine.close()

    @pytest.mark.parametrize("case, code", [
        ("unknown class", ERR_UNKNOWN_NAME),
        ("tier not open", ERR_INVALID),
        ("no room", ERR_CAPACITY),
        ("header claims more data", ERR_MALFORMED),
        ("header claims less data", ERR_MALFORMED),
    ])
    def test_an_error_before_the_fill_drains_the_frame(self, arena_dir, case, code):
        """The server reads and drops the data section of a large persist
        that fails before the fill, replies with the error a whole frame gets
        (the loopback's reply, byte for byte), counts the frame, and serves
        the next request on the connection."""
        tiers = make_tiers(arena_dir, capacity=1 << 20, cache=1 << 18)
        if case == "tier not open":
            tiers.pop(TierKind.NVM_DIRECT).close()
        engine, _ = _loopback(arena_dir, tiers=tiers)
        server = TcpServer(engine)
        block = _random_block(FloatArray, (6000,), np.random.default_rng(2))
        cls, payload = MATRIX_CLASS, block
        if case == "unknown class":
            cls = "Nope"
        elif case == "no room":
            payload = FloatArray(np.ones((1 << 17) + 1))
        bad = bytearray(_persist_frame(cls, TierKind.NVM_DIRECT, payload))
        count_at = 13 + 2 + len(cls) + 1 + 1
        if case.startswith("header claims"):
            struct.pack_into("<Q", bad, count_at, 6001 if "more" in case else 5999)
        good = FloatArray(block.values[::-1])
        conn = socket.create_connection((server.host, server.port), timeout=30)
        try:
            reply = _exchange(conn, bad)
            then = _exchange(conn, _persist_frame(MATRIX_CLASS, TierKind.DRAM, good, 2))
            (oid,) = wire.decode_body(wire.MESSAGES[MSG_MAKE_PERSISTENT].reply, then.body)
            fetched = _exchange(conn, encode_frame(Frame(MSG_GET, 3, oid)))
        finally:
            conn.close()
        assert reply.msg_type == MSG_ERROR | REPLY_BIT
        assert struct.unpack_from("<H", reply.body)[0] == code
        whole, _ = decode_frame(ServerCore(engine).handle_frame_bytes(bytes(bad)))
        assert reply == whole
        assert then.msg_type == MSG_MAKE_PERSISTENT | REPLY_BIT
        assert engine.object_ids() == [oid]
        (payload,) = wire.decode_body(wire.MESSAGES[MSG_GET].reply, fetched.body)
        assert payload.values.tobytes() == good.values.tobytes()
        counters = server.core.wire_counters()
        assert counters.per_type == {MSG_MAKE_PERSISTENT: 2, MSG_GET: 1}
        good_frame = _persist_frame(MATRIX_CLASS, TierKind.DRAM, good)
        assert counters.bytes_received == len(bad) + len(good_frame) + 29  # and the GET
        server.stop()
        engine.close()

    @pytest.mark.parametrize("tier", list(TierKind))
    @pytest.mark.parametrize("end", ["peer closes", "server stops"])
    def test_an_upload_cut_short_gives_its_region_back(self, arena_dir, monkeypatch, tier, end):
        """While a large persist is being received its region is reserved:
        another persist of the size is refused for want of room. Once the
        peer closes or the server stops, the region is free again, and no
        object, tier traffic or wire frame is left of the upload; the server
        goes on serving its other connections until it stops."""
        receiving = threading.Event()
        into = wire._Rest._into

        def signalled(rest, view):
            receiving.set()
            return into(rest, view)

        monkeypatch.setattr(wire._Rest, "_into", signalled)
        tiers = make_tiers(arena_dir, capacity=1 << 20, cache=1 << 18)
        engine, _ = _loopback(arena_dir, tiers=tiers)
        server = TcpServer(engine)
        other = Session.connect_tcp(server.host, server.port)
        kept = other.make_persistent(MATRIX_CLASS, FloatArray(np.ones(1000)), tier)
        handle = engine.tier(tier)
        used, traffic = handle.used_bytes, handle.media_counters()
        big = FloatArray(np.arange(80_000, dtype=np.float64))  # 640 kB of the 1 MiB
        raw = _persist_frame(MATRIX_CLASS, tier, big)
        cut = socket.create_connection((server.host, server.port))
        try:
            cut.sendall(raw[: len(raw) // 2])
            assert receiving.wait(10)
            with pytest.raises(CapacityError):
                other.make_persistent(MATRIX_CLASS, big, tier)
            if end == "server stops":
                server.stop()
        finally:
            cut.close()
        deadline = time.monotonic() + 10
        while len(server._conns) > (end == "peer closes") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert (handle.used_bytes, handle.media_counters()) == (used, traffic)
        assert engine.object_ids() == [kept]
        sent, received = other.counters(), server.core.wire_counters()
        assert (received.bytes_received, received.per_type) == (sent.bytes_sent, sent.per_type)
        if end == "peer closes":
            stored = other.make_persistent(MATRIX_CLASS, big, tier)
            server.stop()
        else:
            stored = persist(engine, MATRIX_CLASS, big, tier)
        assert np.array_equal(engine.get_object(stored).values, big.values)
        other.close()
        engine.close()

    def test_a_stalled_upload_gives_its_region_back_after_the_receive_timeout(
        self, arena_dir, monkeypatch
    ):
        """A peer that sends part of a large persist and then neither sends
        nor closes holds the object's region only until a receive makes no
        progress for SOCKET_TIMEOUT_S; the server then drops the connection
        and frees the region. A connection idle between requests for longer
        than that is kept."""
        monkeypatch.setattr(wire, "SOCKET_TIMEOUT_S", 1.0)
        receiving = threading.Event()
        into = wire._Rest._into

        def signalled(rest, view):
            receiving.set()
            return into(rest, view)

        monkeypatch.setattr(wire._Rest, "_into", signalled)
        tiers = make_tiers(arena_dir, capacity=1 << 20, cache=1 << 18)
        engine, _ = _loopback(arena_dir, tiers=tiers)
        server = TcpServer(engine)
        idle = Session.connect_tcp(server.host, server.port)
        tier = TierKind.NVM_DIRECT
        kept = idle.make_persistent(MATRIX_CLASS, FloatArray(np.ones(1000)), tier)
        handle = engine.tier(tier)
        used, traffic = handle.used_bytes, handle.media_counters()
        big = FloatArray(np.arange(80_000, dtype=np.float64))  # 640 kB of the 1 MiB
        raw = _persist_frame(MATRIX_CLASS, tier, big)
        stalled = socket.create_connection((server.host, server.port))
        try:
            stalled.sendall(raw[: len(raw) // 2])
            assert receiving.wait(10)
            started = time.monotonic()
            with pytest.raises(CapacityError):
                idle.make_persistent(MATRIX_CLASS, big, tier)
            while len(server._conns) > 1 and time.monotonic() < started + 10:
                time.sleep(0.01)
            assert 0.5 < time.monotonic() - started < 5
            assert (handle.used_bytes, handle.media_counters()) == (used, traffic)
            assert engine.object_ids() == [kept]
            time.sleep(1.2)  # longer than the timeout since idle's last request
            stored = idle.make_persistent(MATRIX_CLASS, big, tier)
            assert np.array_equal(idle.get(stored).values, big.values)
        finally:
            stalled.close()
            idle.close()
            server.stop()
            engine.close()

    def test_loopback_and_tcp_counters_identical_with_large_persists(self, tmp_path):
        def scripted(session):
            rng = np.random.default_rng(3)
            for tier in TierKind:
                for cls, shape in _NEAR_THE_LIMIT[1::2]:
                    block = _random_block(cls, shape, rng)
                    session.get(session.make_persistent(MATRIX_CLASS, block, tier))
            with pytest.raises(StoreError):
                block = _random_block(FloatArray, (5000,), rng)
                session.make_persistent("Nope", block, TierKind.DRAM)
            # a class name too long for a persist's payload header to fit the
            # prefix the server reads first: its frames are received whole
            long_name = "C" * 20_000
            session.register_class(ClassDescriptor(long_name))
            fetched = []
            for tier in TierKind:
                block = _random_block(FloatArray, (2049,), rng)
                got = session.get(session.make_persistent(long_name, block, tier))
                assert got.values.tobytes() == block.values.tobytes()
                fetched.append(got.values.tobytes())
            session.flush()
            return session.counters(), session.stats(), fetched

        runs = []
        for transport in ("loopback", "tcp"):
            d = tmp_path / transport
            d.mkdir()
            engine, core = _loopback(d)
            server = TcpServer(engine) if transport == "tcp" else None
            session = (Session.connect_tcp(server.host, server.port) if server
                       else Session.connect_loopback(core))
            runs.append(scripted(session))
            session.close()
            if server:
                server.stop()
            engine.close()
        (c1, st1, fetched1), (c2, st2, fetched2) = runs
        assert fetched1 == fetched2
        assert (c1.bytes_sent, c1.bytes_received, c1.per_type) == (
            c2.bytes_sent, c2.bytes_received, c2.per_type)
        assert st1.wire == st2.wire
        assert st1.tiers == st2.tiers

    def test_a_large_get_starts_64_byte_aligned(self, tcp):
        """A large reply's frame ends on a 64-byte boundary, so a data section
        whose length is a multiple of 64 starts 64-byte aligned."""
        _, session = tcp
        for k in (96, 512):
            for tier in TierKind:
                oid = session.make_persistent(MATRIX_CLASS, Submatrix(np.ones((k, k))), tier)
                for _ in range(4):
                    assert session.get(oid).values.ctypes.data % 64 == 0


def _carries_payload(kind) -> bool:
    if isinstance(kind, wire._Payload):
        return True
    if isinstance(kind, wire._Union):
        return any(_carries_payload(arm) for arm in kind._by_tag.values() if arm is not None)
    if isinstance(kind, wire._Fields):
        return any(map(_carries_payload, kind.fields))
    if isinstance(kind, wire._List):
        return _carries_payload(kind._item)
    return False


def _ends_with_payload(kind) -> bool:
    """Whether every value of ``kind`` that holds a payload ends with it."""
    if isinstance(kind, wire._Payload):
        return True
    if isinstance(kind, wire._Union):
        arms = [arm for arm in kind._by_tag.values() if arm is not None]
        return all(_ends_with_payload(arm) for arm in arms if _carries_payload(arm))
    if isinstance(kind, wire._Fields):
        *head, last = kind.fields
        return not any(map(_carries_payload, head)) and _ends_with_payload(last)
    return False  # a list may hold payloads before its last item


@pytest.mark.parametrize("msg_type", sorted(wire.MESSAGES))
def test_a_reply_that_can_carry_a_payload_ends_with_it(msg_type):
    """The client places a large frame so that it ends aligned, which aligns
    the payload's data section only if nothing follows it."""
    reply = wire.MESSAGES[msg_type].reply
    assert not _carries_payload(reply) or _ends_with_payload(reply)
