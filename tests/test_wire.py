from __future__ import annotations

import collections
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aostore import wire
from aostore.apps import ensure_kernel_registration
from aostore.client import Session
from aostore.engine import ByRef, ByValue, Engine, ResultPlacement
from aostore.errors import (
    ERR_MALFORMED,
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
    LoopbackConnection,
    MSG_ERROR,
    MSG_GET,
    MSG_INVOKE,
    MSG_REGISTER_CLASS,
    MSG_STATS,
    REPLY_BIT,
    ServerCore,
    TcpServer,
    decode_frame,
    encode_frame,
)

from .conftest import make_tiers


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

    def test_oversize_encode_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(Frame(MSG_GET, 1, bytes(100)), max_frame=64)

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


def _loopback(arena_dir, seed=5):
    engine = Engine(make_tiers(arena_dir), build_catalog(), id_factory=ObjectIdFactory(seed))
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

    def make_persistent(self, class_name, payload, tier):
        return self._answer("make_persistent", class_name, payload, tier)

    def get_object(self, oid):
        return self._answer("get_object", oid)

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
        self.frames.append((raw, reply))
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
        """The codec looks ``encode_frame``, ``encode_payload`` and
        ``decode_payload`` up as ``aostore.wire`` globals at call time, so a
        wrapper set there (the traced benchmark sets one) sees every call."""
        calls = collections.Counter()
        for name in ("encode_frame", "encode_payload", "decode_payload"):

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
        # persisted block, the GET reply, the argument and the result
        assert calls == {"encode_frame": 6, "encode_payload": 4, "decode_payload": 4}
