from __future__ import annotations

import struct
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aostore.client import Session
from aostore.engine import ByRef, Engine
from aostore.errors import (
    FrameError,
    NotFoundError,
    UnknownMsgTypeError,
)
from aostore.kernels import MATRIX_CLASS, build_catalog, kernel_classes, kernel_methods
from aostore.model import FloatArray, ObjectIdFactory, Submatrix
from aostore.wire import (
    Frame,
    MSG_ERROR,
    MSG_GET,
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
