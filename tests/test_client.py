from __future__ import annotations

import numpy as np
import pytest

from aostore.client import Stub
from aostore.engine import ByValue
from aostore.errors import InvalidRequestError, NotFoundError, ShapeMismatchError
from aostore.kernels import HIST_CLASS, POINTS_CLASS
from aostore.model import Centroids, FloatArray, ObjectIdFactory, PointsBlock
from aostore.tiers import TierKind
from aostore.apps import ensure_kernel_registration


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

    def test_remote_error_surfaces_typed(self, ready):
        stub = Stub(ready, POINTS_CLASS, PointsBlock(np.zeros((4, 3))))
        stub.persist(TierKind.DRAM)
        with pytest.raises(ShapeMismatchError):
            stub.call("partial", [ByValue(FloatArray([1.0]))])

    def test_transparency_on_kernel_methods(self, ready):
        rng = np.random.default_rng(4)
        block = PointsBlock(rng.random((32, 8)))
        cents = Centroids(rng.random((3, 8)))
        local_stub = Stub(ready, POINTS_CLASS, block)
        local = local_stub.call("partial", [ByValue(cents)])
        remote_stub = Stub(ready, POINTS_CLASS, block)
        remote_stub.persist(TierKind.MEMORY_MODE)
        remote = remote_stub.call("partial", [ByValue(cents)])
        assert local == remote  # bit-exact: same routine either side


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
