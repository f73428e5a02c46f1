from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from aostore import engine as engine_module
from aostore.engine import ByRef, ByValue, Engine, ResultPlacement, Routine, RoutineCatalog
from aostore.errors import (
    CapacityError,
    DuplicateError,
    InvalidRequestError,
    NotFoundError,
    ShapeMismatchError,
    UnknownNameError,
)
from aostore.kernels import MATRIX_CLASS, POINTS_CLASS, build_catalog, fma_values
from aostore.model import (
    Centroids,
    ClassDescriptor,
    FloatArray,
    MethodDescriptor,
    ObjectIdFactory,
    PointsBlock,
    Submatrix,
)
from aostore.tiers import ArenaConfig, TierKind, open_tier
from aostore.tiers import MEDIA_DRAM, MEDIA_NVM

from .conftest import make_tiers, peak_traced_bytes, persist
from .oracles import matmul_oracle


def fresh_engine(arena_dir, **tier_kwargs):
    return Engine(
        make_tiers(arena_dir, **tier_kwargs), build_catalog(), id_factory=ObjectIdFactory(5)
    )


BLOCK = ClassDescriptor("Block", (("data", "f64_array"), ("label", "str")), ("mean",))
BLOCK_MEAN = MethodDescriptor("Block", "mean", "stat.mean", (), "scalar")


class TestRegistration:
    def test_register_block_class_and_method(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        # both are registered: registering either again is a duplicate
        with pytest.raises(DuplicateError):
            engine.register_class(BLOCK)
        with pytest.raises(DuplicateError):
            engine.register_method(BLOCK_MEAN)

    def test_duplicate_class_rejected(self, engine):
        engine.register_class(BLOCK)
        with pytest.raises(DuplicateError):
            engine.register_class(BLOCK)

    def test_unknown_routine_rejected(self, engine):
        engine.register_class(BLOCK)
        with pytest.raises(UnknownNameError, match="routine"):
            engine.register_method(
                MethodDescriptor("Block", "mean", "no.such", (), "scalar")
            )

    def test_duplicate_method_rejected(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        with pytest.raises(DuplicateError):
            engine.register_method(BLOCK_MEAN)

    def test_method_for_unknown_class_rejected(self, engine):
        with pytest.raises(UnknownNameError, match="class"):
            engine.register_method(BLOCK_MEAN)


class TestPersistGet:
    def test_get_returns_identical_payload(self, engine):
        engine.register_class(BLOCK)
        payload = FloatArray([1.5, -2.0, 3.25])
        oid = persist(engine, "Block", payload, TierKind.NVM_DIRECT)
        assert engine.get_object(oid) == payload

    def test_persist_accounts_raw_data_bytes(self, engine):
        engine.register_class(BLOCK)
        before = engine.tier(TierKind.NVM_DIRECT).media_counters()[MEDIA_NVM].bytes_written
        persist(engine, "Block", FloatArray(np.zeros(10**6)), TierKind.NVM_DIRECT)
        after = engine.tier(TierKind.NVM_DIRECT).media_counters()[MEDIA_NVM].bytes_written
        assert after - before == 8 * 10**6

    def test_get_increments_read_count_once(self, engine):
        engine.register_class(BLOCK)
        oid = persist(engine, "Block", FloatArray([1.0]), TierKind.DRAM)
        engine.get_object(oid)
        assert engine.read_counts()[oid] == 1

    def test_get_is_counted_before_read_runs_and_claimed_until_it_returns(self, engine):
        """A reply sent from inside ``read`` can reach its client at once, so
        the read count and the totals must already hold it; the shared claim
        keeps the region from changing until ``read`` is done with it."""
        engine.register_class(BLOCK)
        oid = persist(engine, "Block", FloatArray([1.0]), TierKind.DRAM)
        seen = []

        def read(view):
            seen.append((engine.read_counts()[oid], engine.op_totals()["__get__"].count,
                         engine._objects[oid].held))
            return "sent"

        assert engine.get_object(oid, read) == "sent"
        assert seen == [(1, 1, 1)]
        assert engine._objects[oid].held == 0

        def fail(view):
            raise RuntimeError("send failed")

        with pytest.raises(RuntimeError):
            engine.get_object(oid, fail)
        assert engine._objects[oid].held == 0
        engine.delete_object(oid)

    def test_unknown_class_rejected(self, engine):
        with pytest.raises(UnknownNameError):
            persist(engine, "Nope", FloatArray([1.0]), TierKind.DRAM)

    def test_get_unknown_id(self, engine):
        with pytest.raises(NotFoundError):
            engine.get_object(ObjectIdFactory(1).new_object_id())

    def test_delete_then_get_not_found(self, engine):
        engine.register_class(BLOCK)
        oid = persist(engine, "Block", FloatArray([1.0]), TierKind.DRAM)
        engine.delete_object(oid)
        with pytest.raises(NotFoundError):
            engine.get_object(oid)
        with pytest.raises(NotFoundError):
            engine.delete_object(oid)

    def test_delete_frees_payload_capacity(self, engine):
        engine.register_class(BLOCK)
        tier = engine.tier(TierKind.DRAM)
        used0 = tier.used_bytes
        oid = persist(engine, "Block", FloatArray(np.zeros(100)), TierKind.DRAM)
        assert tier.used_bytes == used0 + 800
        engine.delete_object(oid)
        assert tier.used_bytes == used0


class TestInvoke:
    def test_mean_of_example_block(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = persist(engine, "Block", FloatArray([1.0, 2.0, 3.0]), TierKind.DRAM)
        result = engine.invoke(oid, "mean")
        assert float(result.values[0]) == 2.0

    def test_invoke_equals_client_side_routine(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        values = np.random.default_rng(3).random(1000)
        oid = persist(engine, "Block", FloatArray(values), TierKind.NVM_DIRECT)
        remote = engine.invoke(oid, "mean").values[0]
        local = build_catalog().get("stat.mean").fn(FloatArray(values), []).values[0]
        assert remote == local

    def test_unknown_method(self, engine):
        engine.register_class(BLOCK)
        oid = persist(engine, "Block", FloatArray([1.0]), TierKind.DRAM)
        with pytest.raises(UnknownNameError, match="method"):
            engine.invoke(oid, "nope")

    def test_arg_count_checked(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = persist(engine, "Block", FloatArray([1.0]), TierKind.DRAM)
        with pytest.raises(ShapeMismatchError, match="args"):
            engine.invoke(oid, "mean", [ByValue(FloatArray([1.0]))])

    def test_arg_schema_checked(self, engine):
        from aostore.kernels import kernel_classes, kernel_methods

        for c in kernel_classes():
            engine.register_class(c)
        for m in kernel_methods():
            engine.register_method(m)
        oid = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        with pytest.raises(ShapeMismatchError, match="expects"):
            engine.invoke(oid, "add", [ByValue(FloatArray([1.0]))])

    def test_result_placements(self, engine):
        from aostore.kernels import kernel_classes, kernel_methods

        for c in kernel_classes():
            engine.register_class(c)
        for m in kernel_methods():
            engine.register_method(m)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(4)), TierKind.NVM_DIRECT)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.ones((4, 4))), TierKind.NVM_DIRECT)

        by_value = engine.invoke(a, "add", [ByRef(b)])
        assert isinstance(by_value, Submatrix)

        vol_id = engine.invoke(a, "add", [ByRef(b)], ResultPlacement.volatile())
        assert engine.object_tier(vol_id) == TierKind.DRAM

        nvm_written_before = engine.tier(TierKind.NVM_DIRECT).media_counters()[MEDIA_NVM].bytes_written
        stored_id = engine.invoke(
            a, "add", [ByRef(b)], ResultPlacement.store_in(TierKind.NVM_DIRECT)
        )
        assert engine.object_tier(stored_id) == TierKind.NVM_DIRECT
        nvm_written_after = engine.tier(TierKind.NVM_DIRECT).media_counters()[MEDIA_NVM].bytes_written
        assert nvm_written_after - nvm_written_before == 4 * 4 * 8

    def test_small_result_limit_enforced(self, arena_dir, monkeypatch):
        monkeypatch.setattr(engine_module, "SMALL_RESULT_LIMIT", 64)
        engine = Engine(make_tiers(arena_dir), build_catalog(), id_factory=ObjectIdFactory(5))
        from aostore.kernels import kernel_classes, kernel_methods

        for c in kernel_classes():
            engine.register_class(c)
        for m in kernel_methods():
            engine.register_method(m)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(4)), TierKind.DRAM)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.eye(4)), TierKind.DRAM)
        with pytest.raises(InvalidRequestError, match="return-by-value"):
            engine.invoke(a, "add", [ByRef(b)])
        # stored placements have no such ceiling
        engine.invoke(a, "add", [ByRef(b)], ResultPlacement.volatile())
        engine.close()


def _register_matrix(engine):
    from aostore.kernels import kernel_classes, kernel_methods

    for c in kernel_classes():
        engine.register_class(c)
    for m in kernel_methods():
        engine.register_method(m)


class TestFmaInPlace:
    def test_identity_case(self, engine):
        _register_matrix(engine)
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((3, 3))), TierKind.NVM_DIRECT)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(3)), TierKind.NVM_DIRECT)
        m = np.arange(9.0).reshape(3, 3)
        b = persist(engine, MATRIX_CLASS, Submatrix(m), TierKind.NVM_DIRECT)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        assert np.array_equal(engine.get_object(acc).values, m)

    def test_zero_annihilator(self, engine):
        _register_matrix(engine)
        c0 = np.arange(4.0).reshape(2, 2)
        acc = persist(engine, MATRIX_CLASS, Submatrix(c0), TierKind.DRAM)
        z = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        engine.invoke(acc, "fma", [ByRef(z), ByRef(b)])
        assert np.array_equal(engine.get_object(acc).values, c0)

    def test_random_k8_matches_triple_loop(self, engine):
        _register_matrix(engine)
        rng = np.random.default_rng(11)
        a_v, b_v, c_v = rng.random((3, 8, 8))
        acc = persist(engine, MATRIX_CLASS, Submatrix(c_v), TierKind.NVM_DIRECT)
        a = persist(engine, MATRIX_CLASS, Submatrix(a_v), TierKind.NVM_DIRECT)
        b = persist(engine, MATRIX_CLASS, Submatrix(b_v), TierKind.NVM_DIRECT)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        expected = c_v + matmul_oracle(a_v, b_v)
        got = engine.get_object(acc).values
        assert np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)) < 1e-12

    def test_aliasing_rejected(self, engine):
        _register_matrix(engine)
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        with pytest.raises(InvalidRequestError, match="distinct"):
            engine.invoke(acc, "fma", [ByRef(acc), ByRef(b)])

    def test_shape_mismatch_rejected(self, engine):
        _register_matrix(engine)
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.ones((3, 3))), TierKind.DRAM)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        with pytest.raises(ShapeMismatchError):
            engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])

    def test_inputs_read_counts_increment(self, engine):
        _register_matrix(engine)
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.DRAM)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.DRAM)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        counts = engine.read_counts()
        assert counts[a] == 1 and counts[b] == 1
        assert counts[acc] == 0  # mutation target is written, not counted as a read

    def test_nvm_in_place_write_hits_the_mapping(self, engine):
        _register_matrix(engine)
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.NVM_DIRECT)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.NVM_DIRECT)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.full((2, 2), 2.0)), TierKind.NVM_DIRECT)
        view = engine.tier(TierKind.NVM_DIRECT).read_view(acc)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        assert np.frombuffer(bytes(view), dtype="<f8")[0] == 2.0


class TestStoredResultInPlace:
    """A stored result of the target's variant and shape (add, identity) is
    computed straight into the region of its new object."""

    @staticmethod
    def _inputs(engine, kind, k):
        _register_matrix(engine)
        a_v, b_v = np.random.default_rng(k).random((2, k, k))
        a, b = (persist(engine, MATRIX_CLASS, Submatrix(v), kind) for v in (a_v, b_v))
        for oid in (a, b):
            engine.get_object(oid)  # cached, so a Memory-Mode read below is a hit
        return a, b, a_v, b_v

    @pytest.mark.parametrize("kind", list(TierKind), ids=lambda k: k.name.lower())
    @pytest.mark.parametrize("method", ["add", "identity"])
    def test_result_bytes_and_counters(self, engine, kind, method):
        k = 64
        n = k * k * 8
        a, b, a_v, b_v = self._inputs(engine, kind, k)
        args, expected = ([ByRef(b)], a_v + b_v) if method == "add" else ([], a_v)
        before = engine.op_totals()["invoke"]
        stored = engine.invoke(a, method, args, ResultPlacement.store_in(kind))
        moved = engine.op_totals()["invoke"].since(before)
        assert engine.object_tier(stored) == kind
        assert engine.get_object(stored).values.tobytes() == expected.tobytes()
        # the input reads (cache hits in Memory Mode), and one write of the
        # result to the arena's medium
        r = 1 + len(args)
        want = {
            TierKind.DRAM: {(kind, MEDIA_DRAM): (r * n, n, 0, 0, r, 1)},
            TierKind.NVM_DIRECT: {(kind, MEDIA_NVM): (r * n, n, 0, 0, r, 1)},
            TierKind.MEMORY_MODE: {
                (kind, MEDIA_DRAM): (r * n, 0, r, 0, r, 0),
                (kind, MEDIA_NVM): (0, n, 0, 0, 0, 1),
            },
        }[kind]
        assert moved.count == 1
        assert moved.tier_deltas == want

    @pytest.mark.parametrize("method", ["add", "identity"])
    def test_result_is_written_once(self, engine, method):
        k = 512  # a 2 MiB block
        a, b, _, _ = self._inputs(engine, TierKind.NVM_DIRECT, k)
        args = [ByRef(b)] if method == "add" else []
        placement = ResultPlacement.store_in(TierKind.NVM_DIRECT)
        # a result computed apart and then copied in would peak at 2 MiB here
        assert peak_traced_bytes(lambda: engine.invoke(a, method, args, placement)) < 512 * 1024

    def test_concurrent_results_keep_their_regions(self, engine):
        """A region is reserved under the tier lock and filled outside it, so
        results filled at the same time, into holes that frees leave, must
        never share bytes."""
        _register_matrix(engine)
        k, workers = 16, 8
        b = persist(engine, MATRIX_CLASS, Submatrix(np.ones((k, k))), TierKind.DRAM)
        tier = engine.tier(TierKind.DRAM)
        used = tier.used_bytes
        kept = {}

        def worker(i):
            block = Submatrix(np.full((k, k), float(i)))
            a = persist(engine, MATRIX_CLASS, block, TierKind.DRAM)
            mine = []
            for j in range(100):
                mine.append(engine.invoke(a, "add", [ByRef(b)], ResultPlacement.volatile()))
                if j % 2:
                    engine.delete_object(mine.pop(0))
            kept[i] = mine

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True) for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(kept) == list(range(workers))
        for i, mine in kept.items():
            for oid in mine:
                assert np.array_equal(engine.get_object(oid).values, np.full((k, k), i + 1.0))
        results = sum(len(mine) for mine in kept.values())
        assert tier.used_bytes == used + (workers + results) * k * k * 8

    @pytest.mark.parametrize("kind", list(TierKind), ids=lambda k: k.name.lower())
    def test_failing_routine_leaves_nothing_behind(self, arena_dir, kind):
        k = 64
        n = k * k * 8
        engine = fresh_engine(arena_dir, capacity=3 * n, cache=2 * n)  # a, b and one result
        a, b, a_v, b_v = self._inputs(engine, kind, k)
        tier = engine.tier(kind)

        def writes():
            return {m: (c.bytes_written, c.write_ops) for m, c in tier.media_counters().items()}

        used, ids, written = tier.used_bytes, sorted(tier.ids()), writes()
        before = engine.op_totals()["invoke"]
        small = ByValue(Submatrix(np.ones((k // 2, k // 2))))
        with pytest.raises(ShapeMismatchError, match="side mismatch"):
            engine.invoke(a, "add", [small], ResultPlacement.store_in(kind))
        failed = engine.op_totals()["invoke"].since(before)
        assert (tier.used_bytes, sorted(tier.ids()), writes()) == (used, ids, written)
        assert failed.count == 1
        # only the target's read is charged; the reserved region was never written
        medium = MEDIA_NVM if kind == TierKind.NVM_DIRECT else MEDIA_DRAM
        hits = int(kind == TierKind.MEMORY_MODE)
        assert failed.tier_deltas == {(kind, medium): (n, 0, hits, 0, 1, 0)}
        # the region reserved for the failed result went back to the allocator
        stored = engine.invoke(a, "add", [ByRef(b)], ResultPlacement.store_in(kind))
        assert engine.get_object(stored).values.tobytes() == (a_v + b_v).tobytes()
        with pytest.raises(CapacityError):
            engine.invoke(a, "add", [ByRef(b)], ResultPlacement.store_in(kind))
        engine.close()


class TestRecords:
    def test_record_deltas_sum_to_totals(self, engine):
        _register_matrix(engine)
        rng = np.random.default_rng(2)
        ids = [
            persist(engine, MATRIX_CLASS, Submatrix(rng.random((4, 4))), TierKind.MEMORY_MODE)
            for _ in range(6)
        ]
        for i in range(5):
            engine.invoke(ids[i], "add", [ByRef(ids[i + 1])], ResultPlacement.volatile())
        engine.get_object(ids[0])
        engine.delete_object(ids[5])
        engine.flush()

        totals: dict = {}
        for op_totals in engine.op_totals().values():
            for key, delta in op_totals.tier_deltas.items():
                acc = totals.setdefault(key, [0] * 6)
                for i, d in enumerate(delta):
                    acc[i] += d
        for kind, handle in engine.tiers.items():
            for medium, counters in handle.media_counters().items():
                expected = list(astuple(counters))
                assert totals.get((kind, medium), [0] * 6) == expected

    def test_failed_operation_keeps_its_traffic(self, engine):
        _register_matrix(engine)
        oid = persist(engine, POINTS_CLASS, PointsBlock(np.ones((4, 3))), TierKind.DRAM)
        dram = engine.tier(TierKind.DRAM)
        before_tier = astuple(dram.media_counters()[MEDIA_DRAM])
        before = engine.op_totals()["invoke"]
        # the centroids argument is checked after the target was read
        with pytest.raises(ShapeMismatchError):
            engine.invoke(oid, "partial", [ByValue(FloatArray([1.0]))])
        after_tier = astuple(dram.media_counters()[MEDIA_DRAM])
        moved = tuple(a - b for a, b in zip(after_tier, before_tier))
        assert moved == (96, 0, 0, 0, 1, 0)
        failed = engine.op_totals()["invoke"].since(before)
        assert failed.count == 1
        assert failed.tier_deltas == {(TierKind.DRAM, "dram"): moved}

    def test_failed_operation_without_traffic_is_not_counted(self, engine):
        engine.register_class(BLOCK)
        oid = persist(engine, "Block", FloatArray([1.0]), TierKind.DRAM)
        n0 = engine.record_count
        with pytest.raises(UnknownNameError):
            engine.invoke(oid, "mean")
        assert engine.record_count == n0

    def test_every_operation_appends_one_record(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        n0 = engine.record_count
        start = engine.op_totals()
        oid = persist(engine, "Block", FloatArray([1.0, 2.0]), TierKind.DRAM)
        engine.invoke(oid, "mean")
        engine.get_object(oid)
        engine.delete_object(oid)
        engine.flush()
        counts = {op: t.since(start[op]).count for op, t in engine.op_totals().items()}
        ops = ["__persist__", "invoke", "__get__", "__delete__", "__flush__"]
        assert counts == dict.fromkeys(ops, 1)
        assert engine.record_count == n0 + 5

    def test_totals_stay_bounded_over_many_invokes(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = persist(engine, "Block", FloatArray(np.arange(64.0)), TierKind.DRAM)
        # The warm-up also fills CPython's tuple free lists (at most 2,000 per
        # size), which tracemalloc counts as allocated memory.
        for _ in range(3000):
            engine.invoke(oid, "mean")
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(2000):
                engine.invoke(oid, "mean")
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert growth < 64 * 1024


class TestConcurrency:
    def test_concurrent_mutations_serialize(self, engine):
        _register_matrix(engine)
        k = 4
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((k, k))), TierKind.DRAM)
        inputs = []
        for i in range(8):
            a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(k)), TierKind.DRAM)
            b_v = np.full((k, k), float(i + 1))
            b = persist(engine, MATRIX_CLASS, Submatrix(b_v), TierKind.DRAM)
            inputs.append((a, b))

        def worker(pair):
            engine.invoke(acc, "fma", [ByRef(pair[0]), ByRef(pair[1])])

        threads = [threading.Thread(target=worker, args=(p,)) for p in inputs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # integer-valued adds commute exactly: any serialization gives the same sum
        got = engine.get_object(acc).values
        assert np.array_equal(got, np.full((k, k), 36.0))

    def test_concurrent_reads_allowed(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = persist(engine, "Block", FloatArray(np.ones(1000)), TierKind.DRAM)
        results = []

        def reader():
            results.append(engine.invoke(oid, "mean").values[0])

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [1.0] * 8

    def test_threaded_deltas_sum_to_tier_counters(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = persist(engine, "Block", FloatArray(np.arange(12.0)), TierKind.DRAM)
        start = engine.op_totals()

        def reader():
            for _ in range(200):
                engine.invoke(oid, "mean")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        invokes = engine.op_totals()["invoke"].since(start["invoke"])
        assert invokes.count == 1600
        summed = [0] * 6
        for totals in engine.op_totals().values():
            for d in totals.tier_deltas.values():
                summed = [a + b for a, b in zip(summed, d)]
        (counters,) = engine.tier(TierKind.DRAM).media_counters().values()
        assert summed == list(astuple(counters))
        assert invokes.tier_deltas[(TierKind.DRAM, "dram")][4] == 1600  # read ops

    def test_a_blocked_claim_wakes_when_the_conflicting_claim_goes(self, engine):
        _register_matrix(engine)
        acc, a, b = (persist(engine, MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.DRAM)
                     for _ in range(3))
        reading, done_reading = threading.Event(), threading.Event()

        def read(view):  # holds the shared claim on acc until told to return
            reading.set()
            assert done_reading.wait(30)

        getter = threading.Thread(target=engine.get_object, args=(acc, read), daemon=True)
        writer = threading.Thread(
            target=engine.invoke, args=(acc, "fma", [ByRef(a), ByRef(b)]), daemon=True
        )
        getter.start()
        assert reading.wait(30)
        writer.start()
        deadline = time.monotonic() + 30
        try:
            while engine._waiting != 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert engine._waiting == 1 and writer.is_alive()  # blocked on acc
        finally:
            done_reading.set()
        for t in (getter, writer):
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not getter.is_alive() and not writer.is_alive()
        assert engine._waiting == 0
        assert np.array_equal(engine.get_object(acc).values, 2 * np.eye(2))

    def test_crossed_mutations_both_finish(self, engine):
        # each thread mutates the object the other one reads: with per-object
        # locks taken in the wrong order this pair could deadlock
        _register_matrix(engine)
        x, y, c = (
            persist(engine, MATRIX_CLASS, Submatrix(np.zeros((4, 4))), TierKind.DRAM)
            for _ in range(3)
        )
        before = engine.op_totals()["invoke"].count

        def worker(target, other):
            for _ in range(200):
                engine.invoke(target, "fma", [ByRef(other), ByRef(c)])

        threads = [
            threading.Thread(target=worker, args=(x, y), daemon=True),
            threading.Thread(target=worker, args=(y, x), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert engine.op_totals()["invoke"].count == before + 400

    def test_a_crossed_claim_waits_holding_none_of_its_objects(self, arena_dir):
        """x is mutated with y read, then y with x read: the second call waits
        for the first, and while it waits y shows only the first call's shared
        claim, since a blocked claim takes none of its objects. Once the
        first call returns, both finish, in that order."""
        holding, release = threading.Event(), threading.Event()

        def hold_add(target, args):  # target += args[0], once told to return
            holding.set()
            assert release.wait(30)
            return target.values + args[0].values

        base = build_catalog()
        catalog = RoutineCatalog([*map(base.get, base.keys()), Routine("hold_add", hold_add, True)])
        engine = Engine(make_tiers(arena_dir), catalog)
        _register_matrix(engine)
        engine.register_method(MethodDescriptor(MATRIX_CLASS, "hold_add", "hold_add", ("",),
                                                mutates_target=True))
        x, y = (persist(engine, MATRIX_CLASS, Submatrix(np.full((2, 2), v)), TierKind.DRAM)
                for v in (1.0, 2.0))
        first = threading.Thread(target=engine.invoke, args=(x, "hold_add", [ByRef(y)]),
                                 daemon=True)
        second = threading.Thread(target=engine.invoke, args=(y, "hold_add", [ByRef(x)]),
                                  daemon=True)
        first.start()
        deadline = time.monotonic() + 30
        try:
            assert holding.wait(30)
            second.start()
            while engine._waiting != 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert engine._waiting == 1 and second.is_alive()
            assert (engine._objects[x].held, engine._objects[y].held) == (-1, 1)
        finally:
            release.set()
        for t in (first, second):
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not first.is_alive() and not second.is_alive()
        assert engine._waiting == 0
        assert np.array_equal(engine.get_object(x).values, np.full((2, 2), 3.0))
        assert np.array_equal(engine.get_object(y).values, np.full((2, 2), 5.0))
        engine.close()


class TestRecovery:
    def test_recovered_objects_readable_at_byte_level(self, tmp_path):
        path = tmp_path / "persist.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1 << 16))
        engine = Engine({TierKind.NVM_DIRECT: tier}, build_catalog())
        engine.register_class(BLOCK)
        payload = FloatArray([3.0, 1.0, 4.0, 1.0, 5.0])
        oid = persist(engine, "Block", payload, TierKind.NVM_DIRECT)
        engine.close()

        tier2 = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1 << 16))
        engine2 = Engine({TierKind.NVM_DIRECT: tier2}, build_catalog())
        assert oid in engine2.object_ids()
        assert bytes(tier2.read_view(oid)) == bytes(payload.data_view())
        # schema was not persisted: typed access requires re-registration
        with pytest.raises((InvalidRequestError, UnknownNameError)):
            engine2.get_object(oid)
        engine2.close()

    def test_new_objects_never_take_a_recovered_id(self, tmp_path):
        path = tmp_path / "persist.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1 << 16))
        engine = Engine({TierKind.NVM_DIRECT: tier}, build_catalog(), ObjectIdFactory(1))
        engine.register_class(BLOCK)
        recovered = persist(engine, "Block", FloatArray(np.ones(8)), TierKind.NVM_DIRECT)
        engine.close()

        tiers = {
            TierKind.DRAM: open_tier(TierKind.DRAM, ArenaConfig(capacity_bytes=1 << 16)),
            TierKind.NVM_DIRECT: open_tier(
                TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1 << 16)
            ),
        }
        engine2 = Engine(tiers, build_catalog(), ObjectIdFactory(1))
        engine2.register_class(BLOCK)
        fresh = persist(engine2, "Block", FloatArray(np.zeros(8)), TierKind.DRAM)
        # the same seed draws the recovered id first; it is skipped for the next one
        stream = ObjectIdFactory(1)
        assert stream.new_object_id() == recovered
        assert fresh == stream.new_object_id()
        assert engine2.object_tier(recovered) == TierKind.NVM_DIRECT
        assert engine2.object_tier(fresh) == TierKind.DRAM
        engine2.close()


class TestClose:
    def test_close_reaches_every_tier_when_one_fails(self, arena_dir):
        engine = fresh_engine(arena_dir)
        engine.register_class(BLOCK)
        in_nvm = persist(engine, "Block", FloatArray(np.ones(8)), TierKind.NVM_DIRECT)
        in_mm = persist(engine, "Block", FloatArray(np.ones(8)), TierKind.MEMORY_MODE)
        mm = engine.tier(TierKind.MEMORY_MODE)
        mm.write_in_place(in_mm, 0, np.zeros(8).tobytes())  # now cached and dirty
        write_backs = mm.media_counters()[MEDIA_NVM].write_ops
        view = engine.tier(TierKind.NVM_DIRECT).read_view(in_nvm)  # pins the NVM mapping
        with pytest.raises(BufferError):
            engine.close()
        # the Memory-Mode tier, opened after the failing NVM tier, was closed
        # anyway: its dirty object was written back and its cache emptied
        assert mm.media_counters()[MEDIA_NVM].write_ops == write_backs + 1
        assert mm.cache_used_bytes == 0
        view.release()
        engine.close()


def _describe(target, args):
    """A routine reporting what it was handed: the variant tag, the shape
    and the values of its target."""
    return FloatArray([target.tag, *target.values.shape, *target.values.ravel()])


class TestPayloadViews:
    """An object's payload view is built on its first read and reused while
    the object lives; every read is still charged through the tier."""

    @pytest.mark.parametrize("kind", list(TierKind))
    def test_reused_region_shows_the_new_object(self, arena_dir, kind):
        base = build_catalog()
        catalog = RoutineCatalog([*map(base.get, base.keys()), Routine("describe", _describe)])
        engine = Engine(make_tiers(arena_dir), catalog, id_factory=ObjectIdFactory(5))
        _register_matrix(engine)
        engine.register_class(BLOCK)
        engine.register_method(MethodDescriptor("Block", "describe", "describe", (), "f64_array"))
        old_values = np.arange(64.0).reshape(8, 8)
        old = persist(engine, MATRIX_CLASS, Submatrix(old_values), kind)
        other = persist(engine, MATRIX_CLASS, Submatrix(np.ones((8, 8))), kind)
        # both views are built and in use before the old object goes
        assert engine.get_object(old) == Submatrix(old_values)
        engine.invoke(other, "add", [ByRef(old)])
        where = engine.get_object(old, lambda view: view.values.ctypes.data)
        engine.delete_object(old)

        new_values = np.arange(64.0) + 100.0
        new = persist(engine, "Block", FloatArray(new_values), kind)
        assert engine.get_object(new, lambda view: view.values.ctypes.data) == where
        got = engine.get_object(new)
        assert type(got) is FloatArray and got == FloatArray(new_values)
        described = engine.invoke(new, "describe").values
        assert described.tolist() == [FloatArray.tag, 64, *new_values]
        # as an argument it has the new schema: a submatrix is expected
        with pytest.raises(ShapeMismatchError, match="f64_array"):
            engine.invoke(other, "add", [ByRef(new)])
        engine.close()

    @pytest.mark.parametrize("kind", list(TierKind))
    def test_in_place_updates_show_through_get_and_by_ref_reads(self, engine, kind):
        _register_matrix(engine)
        rng = np.random.default_rng(4)
        a_v, b_v, c_v = rng.random((3, 6, 6))
        acc = persist(engine, MATRIX_CLASS, Submatrix(c_v), kind)
        a = persist(engine, MATRIX_CLASS, Submatrix(a_v), kind)
        b = persist(engine, MATRIX_CLASS, Submatrix(b_v), kind)
        ones = persist(engine, MATRIX_CLASS, Submatrix(np.ones((6, 6))), kind)
        expected = c_v
        for _ in range(4):
            engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
            expected = fma_values(expected, a_v, b_v)
            assert np.array_equal(engine.get_object(acc).values, expected)
            by_ref = engine.invoke(ones, "add", [ByRef(acc)])
            assert np.array_equal(by_ref.values, expected + 1.0)

    def test_close_after_serving_every_tier(self, arena_dir):
        engine = fresh_engine(arena_dir)
        _register_matrix(engine)
        rng = np.random.default_rng(6)
        kept = {}
        for kind in TierKind:
            acc, a, b = (persist(engine, MATRIX_CLASS, Submatrix(v), kind)
                         for v in rng.random((3, 4, 4)))
            engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
            engine.invoke(a, "add", [ByRef(b)])
            engine.get_object(acc)
            engine.get_object(b, lambda view: view.values.sum())
            kept[kind] = {oid: engine.get_object(oid) for oid in (acc, a, b)}
        engine.close()  # no view is left to pin a mapping

        nvm = open_tier(
            TierKind.NVM_DIRECT,
            ArenaConfig(path=arena_dir / "nvm.arena", capacity_bytes=1 << 26),
        )
        assert sorted(nvm.ids()) == sorted(kept[TierKind.NVM_DIRECT])
        for oid, payload in kept[TierKind.NVM_DIRECT].items():
            assert bytes(nvm.read_view(oid)) == bytes(payload.data_view())
        nvm.close()

    def test_views_shared_by_concurrent_readers_and_writers(self, engine):
        _register_matrix(engine)
        k, kind = 8, TierKind.NVM_DIRECT
        acc = persist(engine, MATRIX_CLASS, Submatrix(np.zeros((k, k))), kind)
        a = persist(engine, MATRIX_CLASS, Submatrix(np.eye(k)), kind)
        b = persist(engine, MATRIX_CLASS, Submatrix(np.ones((k, k))), kind)
        ones = persist(engine, MATRIX_CLASS, Submatrix(np.ones((k, k))), kind)
        torn = []

        def writer():
            for _ in range(50):
                engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])

        def reader():
            for _ in range(50):
                # every FMA adds 1 to each element, so a whole update is uniform
                seen = engine.get_object(acc).values
                by_ref = engine.invoke(ones, "add", [ByRef(acc)]).values
                torn.extend(v for v in (seen, by_ref - 1.0) if np.ptp(v) != 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f, daemon=True) for f in [writer, reader] * 4]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert torn == []
        assert np.array_equal(engine.get_object(acc).values, np.full((k, k), 200.0))
        counts = engine.read_counts()
        assert (counts[a], counts[b], counts[acc]) == (200, 200, 4 * 50 * 2 + 1)


class TestRepeatedReadCharges:
    """A reused view changes no charge: each read still goes through the
    tier's ``read_view``."""

    def test_each_in_place_fma_charges_three_reads_and_one_write(self, engine):
        _register_matrix(engine)
        rng = np.random.default_rng(8)
        acc, a, b = (persist(engine, MATRIX_CLASS, Submatrix(v), TierKind.NVM_DIRECT)
                     for v in rng.random((3, 96, 96)))
        size = 96 * 96 * 8
        assert size == 73_728
        for _ in range(3):
            before = engine.op_totals()["invoke"]
            engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
            delta = engine.op_totals()["invoke"].since(before)
            assert delta.count == 1
            assert delta.tier_deltas == {
                (TierKind.NVM_DIRECT, MEDIA_NVM): (3 * size, size, 0, 0, 3, 1)
            }

    def test_memory_mode_accumulate_charges_every_hit_and_miss(self, arena_dir):
        acc_v, cents_v = np.zeros((2, 4)), np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        blocks_v = np.random.default_rng(9).random((2, 5, 3))
        # the cache holds the accumulator, the centroids and one block
        acc_n, cents_n, block_n = acc_v.nbytes, cents_v.nbytes, blocks_v[0].nbytes
        engine = fresh_engine(arena_dir, cache=acc_n + cents_n + block_n)
        _register_matrix(engine)
        mm = TierKind.MEMORY_MODE
        acc = persist(engine, POINTS_CLASS, PointsBlock(acc_v), mm)
        cents = persist(engine, POINTS_CLASS, Centroids(cents_v), mm)
        blocks = [persist(engine, POINTS_CLASS, PointsBlock(v), mm) for v in blocks_v]
        engine.flush(mm)
        deltas = []
        for i in range(5):
            before = engine.op_totals()["invoke"]
            engine.invoke(acc, "accumulate", [ByRef(blocks[i % 2]), ByRef(cents)])
            deltas.append(engine.op_totals()["invoke"].since(before).tier_deltas)
        # bytes read, bytes written, hits, misses, read ops, write ops
        dram, nvm = (mm, MEDIA_DRAM), (mm, MEDIA_NVM)
        reads = acc_n + block_n + cents_n
        # the target, block and centroids are read, then the target written
        # back in place; the first call misses all three reads, the rest
        # miss only the block, which evicts the other, clean, block
        assert deltas[0] == {
            dram: (reads, reads + acc_n, 1, 3, 3, 4),
            nvm: (reads, 0, 0, 0, 3, 0),
        }
        for later in deltas[1:]:
            assert later == {
                dram: (reads, block_n + acc_n, 3, 1, 3, 2),
                nvm: (block_n, 0, 0, 0, 1, 0),
            }
        engine.close()
