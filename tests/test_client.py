from __future__ import annotations

import numpy as np
import pytest

from aostore.client import Session, Stub
from aostore.errors import FrameError, InvalidRequestError, NotFoundError, ShapeMismatchError
from aostore.kernels import HIST_CLASS, MATRIX_CLASS, POINTS_CLASS
from aostore.model import Centroids, FloatArray, ObjectIdFactory, PointsBlock, Submatrix
from aostore.tiers import TierKind
from aostore.apps import ensure_kernel_registration
from aostore.wire import ServerCore, TcpServer


@pytest.fixture
def ready(session):
    ensure_kernel_registration(session)
    return session


class TestStubLifecycle:
    def test_local_call_has_zero_wire_traffic(self, ready):
        stub = Stub(ready, HIST_CLASS, FloatArray([1.0, 2.0, 3.0]))
        sent_before = ready.counters().bytes_sent
        assert stub.call("mean") == 2.0
        assert ready.counters().bytes_sent == sent_before

    def test_remote_call_same_result(self, ready):
        stub = Stub(ready, HIST_CLASS, FloatArray([1.0, 2.0, 3.0]))
        local = stub.call("mean")
        stub.persist(TierKind.NVM_DIRECT)
        sent_before = ready.counters().bytes_sent
        remote = stub.call("mean")
        assert remote == local == 2.0
        assert ready.counters().bytes_sent > sent_before  # exactly one INVOKE went out

    def test_persist_ships_payload_once(self, ready):
        n = 4096
        stub = Stub(ready, HIST_CLASS, FloatArray(np.zeros(n)))
        sent_before = ready.counters().bytes_sent
        stub.persist(TierKind.DRAM)
        assert ready.counters().bytes_sent - sent_before >= 8 * n

    def test_double_persist_rejected(self, ready):
        stub = Stub(ready, HIST_CLASS, FloatArray([1.0]))
        stub.persist(TierKind.DRAM)
        with pytest.raises(InvalidRequestError):
            stub.persist(TierKind.DRAM)

    def test_subsequent_invokes_ship_args_and_result_only(self, ready):
        n = 1 << 15
        stub = Stub(ready, HIST_CLASS, FloatArray(np.abs(np.random.default_rng(0).random(n))))
        stub.persist(TierKind.DRAM)
        sent_before = ready.counters().bytes_sent
        recv_before = ready.counters().bytes_received
        stub.call("histogram")
        sent = ready.counters().bytes_sent - sent_before
        received = ready.counters().bytes_received - recv_before
        assert sent < 256  # id + method name + framing
        assert received < 4096  # 140 u64 bins + framing
        assert received < 8 * n / 10

    def test_object_id_before_persist_and_payload_after_are_refused(self, ready):
        stub = Stub(ready, HIST_CLASS, FloatArray([1.0]))
        with pytest.raises(InvalidRequestError, match="persist it first"):
            stub.object_id
        stub.persist(TierKind.DRAM)
        with pytest.raises(InvalidRequestError, match="stub is remote"):
            stub.payload

    def test_local_fma_updates_the_payload_and_sends_nothing(self, ready):
        rng = np.random.default_rng(8)
        acc, a, b = (rng.integers(-3, 4, (4, 4)).astype(np.float64) for _ in range(3))
        stub = Stub(ready, MATRIX_CLASS, Submatrix(acc))
        before = ready.counters()
        assert stub.call("fma", [Submatrix(a), Submatrix(b)]) is None
        assert ready.counters() == before
        assert type(stub.payload) is Submatrix
        assert np.array_equal(stub.payload.values, acc + a @ b)

    def test_remote_fma_returns_none_and_updates_the_stored_object(self, ready):
        rng = np.random.default_rng(9)
        acc, a, b = (rng.integers(-3, 4, (4, 4)).astype(np.float64) for _ in range(3))
        stub = Stub(ready, MATRIX_CLASS, Submatrix(acc))
        stub.persist(TierKind.NVM_DIRECT)
        ids = [ready.make_persistent(MATRIX_CLASS, Submatrix(v), TierKind.DRAM) for v in (a, b)]
        assert stub.call("fma", ids) is None
        assert np.array_equal(ready.get(stub.object_id).values, acc + a @ b)

    def test_an_unknown_method_has_no_descriptor(self, ready):
        with pytest.raises(NotFoundError, match="no_such"):
            ready.method_descriptor(MATRIX_CLASS, "no_such")

    def test_remote_error_surfaces_typed(self, ready):
        stub = Stub(ready, POINTS_CLASS, PointsBlock(np.zeros((4, 3))))
        stub.persist(TierKind.DRAM)
        with pytest.raises(ShapeMismatchError):
            stub.call("partial", [FloatArray([1.0])])

    def test_transparency_on_kernel_methods(self, ready):
        rng = np.random.default_rng(4)
        block = PointsBlock(rng.random((32, 8)))
        cents = Centroids(rng.random((3, 8)))
        local_stub = Stub(ready, POINTS_CLASS, block)
        local = local_stub.call("partial", [cents])
        remote_stub = Stub(ready, POINTS_CLASS, block)
        remote_stub.persist(TierKind.MEMORY_MODE)
        remote = remote_stub.call("partial", [cents])
        assert local == remote  # bit-exact: same routine either side


@pytest.fixture(params=["loopback", "tcp"])
def either(request, engine):
    """A session with the kernels registered, over loopback or over TCP."""
    server = TcpServer(engine) if request.param == "tcp" else None
    session = (Session.connect_tcp(server.host, server.port) if server
               else Session.connect_loopback(ServerCore(engine)))
    ensure_kernel_registration(session)
    yield session
    session.close()
    if server:
        server.stop()


class TestInvokeArguments:
    """An argument is an ObjectId, passed by reference, or a payload, by value."""

    @pytest.mark.parametrize("arg", [bytes(16), 16, np.ones((2, 2))], ids=["bytes", "int", "array"])
    def test_another_type_is_refused_before_a_send(self, either, arg):
        oid = either.make_persistent(MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        before = either.counters()
        with pytest.raises(FrameError, match="INVOKE arg cannot carry"):
            either.invoke(oid, "add", [arg])
        assert either.counters() == before
        assert either.invoke(oid, "add", [oid]) == Submatrix(np.full((2, 2), 2.0))

    def test_a_local_stub_refuses_an_object_id(self, ready):
        oid = ready.make_persistent(MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        stub = Stub(ready, MATRIX_CLASS, Submatrix(np.ones((2, 2))))
        with pytest.raises(InvalidRequestError, match="object references"):
            stub.call("add", [oid])
        assert stub.call("add", [Submatrix(np.ones((2, 2)))]) == Submatrix(np.full((2, 2), 2.0))


class TestPassivePath:
    def test_fetch_full_transfers_whole_payload(self, ready):
        n = 1 << 20  # 8 MB payload
        oid = ready.make_persistent(HIST_CLASS, FloatArray(np.zeros(n)), TierKind.DRAM)
        recv_before = ready.counters().bytes_received
        payload = ready.get(oid)
        assert payload.element_count == n
        assert ready.counters().bytes_received - recv_before >= 8 * n

    def test_no_client_caching_on_repeat_fetch(self, ready):
        n = 1 << 17
        oid = ready.make_persistent(HIST_CLASS, FloatArray(np.zeros(n)), TierKind.DRAM)
        recv_before = ready.counters().bytes_received
        for _ in range(10):
            ready.get(oid)
        assert ready.counters().bytes_received - recv_before >= 10 * 8 * n

    def test_fetch_unknown_id(self, ready):
        with pytest.raises(NotFoundError):
            ready.get(ObjectIdFactory(77).new_object_id())


class TestSessionCounters:
    def test_counts_track_operations(self, ready):
        oid = ready.make_persistent(HIST_CLASS, FloatArray([1.0, 2.0]), TierKind.DRAM)
        ready.get(oid)
        ready.invoke(oid, "mean")
        c = ready.counters()
        assert c.puts == 1 and c.gets == 1 and c.invokes == 1
        with pytest.raises(NotFoundError):  # a request that fails counts too
            ready.get(ObjectIdFactory(77).new_object_id())
        assert ready.counters().gets == 2

    def test_consistent_with_server_stats(self, ready):
        oid = ready.make_persistent(HIST_CLASS, FloatArray(np.ones(100)), TierKind.DRAM)
        ready.get(oid)
        before = ready.counters()
        stats = ready.stats()
        after = ready.counters()
        assert stats.wire.bytes_received == after.bytes_sent
        assert stats.wire.bytes_sent == before.bytes_received
