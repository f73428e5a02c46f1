from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from aostore.engine import ByRef, ByValue, Engine, ResultPlacement
from aostore.errors import (
    DuplicateError,
    InvalidRequestError,
    NotFoundError,
    ShapeMismatchError,
    UnknownNameError,
)
from aostore.kernels import MATRIX_CLASS, build_catalog
from aostore.model import (
    ClassDescriptor,
    FloatArray,
    MethodDescriptor,
    ObjectIdFactory,
    Submatrix,
)
from aostore.tiers import ArenaConfig, TierKind, open_tier
from aostore.tiers import MEDIA_NVM

from .conftest import make_tiers
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
        assert "Block" in engine.list_classes()
        assert engine.has_method("Block", "mean")

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
        oid = engine.make_persistent("Block", payload, TierKind.NVM_DIRECT)
        assert engine.get_object(oid) == payload

    def test_persist_accounts_raw_data_bytes(self, engine):
        engine.register_class(BLOCK)
        before = engine.tier(TierKind.NVM_DIRECT).counters().bytes_written
        engine.make_persistent("Block", FloatArray(np.zeros(10**6)), TierKind.NVM_DIRECT)
        after = engine.tier(TierKind.NVM_DIRECT).counters().bytes_written
        assert after - before == 8 * 10**6

    def test_get_increments_read_count_once(self, engine):
        engine.register_class(BLOCK)
        oid = engine.make_persistent("Block", FloatArray([1.0]), TierKind.DRAM)
        engine.get_object(oid)
        assert engine.read_counts()[oid] == 1

    def test_unknown_class_rejected(self, engine):
        with pytest.raises(UnknownNameError):
            engine.make_persistent("Nope", FloatArray([1.0]), TierKind.DRAM)

    def test_get_unknown_id(self, engine):
        with pytest.raises(NotFoundError):
            engine.get_object(ObjectIdFactory(1).new_object_id())

    def test_delete_then_get_not_found(self, engine):
        engine.register_class(BLOCK)
        oid = engine.make_persistent("Block", FloatArray([1.0]), TierKind.DRAM)
        engine.delete_object(oid)
        with pytest.raises(NotFoundError):
            engine.get_object(oid)
        with pytest.raises(NotFoundError):
            engine.delete_object(oid)

    def test_delete_frees_payload_capacity(self, engine):
        engine.register_class(BLOCK)
        tier = engine.tier(TierKind.DRAM)
        free0 = tier.free_bytes
        oid = engine.make_persistent("Block", FloatArray(np.zeros(100)), TierKind.DRAM)
        assert tier.free_bytes == free0 - 800
        engine.delete_object(oid)
        assert tier.free_bytes == free0


class TestInvoke:
    def test_mean_of_example_block(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = engine.make_persistent("Block", FloatArray([1.0, 2.0, 3.0]), TierKind.DRAM)
        result = engine.invoke(oid, "mean")
        assert float(result.values[0]) == 2.0

    def test_invoke_equals_client_side_routine(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        values = np.random.default_rng(3).random(1000)
        oid = engine.make_persistent("Block", FloatArray(values), TierKind.NVM_DIRECT)
        remote = engine.invoke(oid, "mean").values[0]
        local = build_catalog().get("stat.mean").fn(FloatArray(values), []).result.values[0]
        assert remote == local

    def test_unknown_method(self, engine):
        engine.register_class(BLOCK)
        oid = engine.make_persistent("Block", FloatArray([1.0]), TierKind.DRAM)
        with pytest.raises(UnknownNameError, match="method"):
            engine.invoke(oid, "nope")

    def test_arg_count_checked(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        oid = engine.make_persistent("Block", FloatArray([1.0]), TierKind.DRAM)
        with pytest.raises(ShapeMismatchError, match="args"):
            engine.invoke(oid, "mean", [ByValue(FloatArray([1.0]))])

    def test_arg_schema_checked(self, engine):
        from aostore.kernels import kernel_classes, kernel_methods

        for c in kernel_classes():
            engine.register_class(c)
        for m in kernel_methods():
            engine.register_method(m)
        oid = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        with pytest.raises(ShapeMismatchError, match="expects"):
            engine.invoke(oid, "add", [ByValue(FloatArray([1.0]))])

    def test_result_placements(self, engine):
        from aostore.kernels import kernel_classes, kernel_methods

        for c in kernel_classes():
            engine.register_class(c)
        for m in kernel_methods():
            engine.register_method(m)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(4)), TierKind.NVM_DIRECT)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.ones((4, 4))), TierKind.NVM_DIRECT)

        by_value = engine.invoke(a, "add", [ByRef(b)])
        assert isinstance(by_value, Submatrix)

        vol_id = engine.invoke(a, "add", [ByRef(b)], ResultPlacement.volatile())
        assert engine.object_tier(vol_id) == TierKind.DRAM

        nvm_written_before = engine.tier(TierKind.NVM_DIRECT).counters().bytes_written
        stored_id = engine.invoke(
            a, "add", [ByRef(b)], ResultPlacement.store_in(TierKind.NVM_DIRECT)
        )
        assert engine.object_tier(stored_id) == TierKind.NVM_DIRECT
        nvm_written_after = engine.tier(TierKind.NVM_DIRECT).counters().bytes_written
        assert nvm_written_after - nvm_written_before == 4 * 4 * 8

    def test_small_result_limit_enforced(self, arena_dir):
        engine = Engine(
            make_tiers(arena_dir),
            build_catalog(),
            id_factory=ObjectIdFactory(5),
            small_result_limit=64,
        )
        from aostore.kernels import kernel_classes, kernel_methods

        for c in kernel_classes():
            engine.register_class(c)
        for m in kernel_methods():
            engine.register_method(m)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(4)), TierKind.DRAM)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(4)), TierKind.DRAM)
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
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((3, 3))), TierKind.NVM_DIRECT)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(3)), TierKind.NVM_DIRECT)
        m = np.arange(9.0).reshape(3, 3)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(m), TierKind.NVM_DIRECT)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        assert np.array_equal(engine.get_object(acc).values, m)

    def test_zero_annihilator(self, engine):
        _register_matrix(engine)
        c0 = np.arange(4.0).reshape(2, 2)
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(c0), TierKind.DRAM)
        z = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        engine.invoke(acc, "fma", [ByRef(z), ByRef(b)])
        assert np.array_equal(engine.get_object(acc).values, c0)

    def test_random_k8_matches_triple_loop(self, engine):
        _register_matrix(engine)
        rng = np.random.default_rng(11)
        a_v, b_v, c_v = rng.random((3, 8, 8))
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(c_v), TierKind.NVM_DIRECT)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(a_v), TierKind.NVM_DIRECT)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(b_v), TierKind.NVM_DIRECT)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        expected = c_v + matmul_oracle(a_v, b_v)
        got = engine.get_object(acc).values
        assert np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)) < 1e-12

    def test_aliasing_rejected(self, engine):
        _register_matrix(engine)
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        with pytest.raises(InvalidRequestError, match="distinct"):
            engine.invoke(acc, "fma", [ByRef(acc), ByRef(b)])

    def test_shape_mismatch_rejected(self, engine):
        _register_matrix(engine)
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.ones((3, 3))), TierKind.DRAM)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.ones((2, 2))), TierKind.DRAM)
        with pytest.raises(ShapeMismatchError):
            engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])

    def test_inputs_read_counts_increment(self, engine):
        _register_matrix(engine)
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.DRAM)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.DRAM)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.DRAM)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        counts = engine.read_counts()
        assert counts[a] == 1 and counts[b] == 1
        assert counts[acc] == 0  # mutation target is written, not counted as a read

    def test_nvm_in_place_write_hits_the_mapping(self, engine):
        _register_matrix(engine)
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((2, 2))), TierKind.NVM_DIRECT)
        a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(2)), TierKind.NVM_DIRECT)
        b = engine.make_persistent(MATRIX_CLASS, Submatrix(np.full((2, 2), 2.0)), TierKind.NVM_DIRECT)
        view = engine.tier(TierKind.NVM_DIRECT).read_view(acc)
        engine.invoke(acc, "fma", [ByRef(a), ByRef(b)])
        assert np.frombuffer(bytes(view), dtype="<f8")[0] == 2.0


class TestRecords:
    def test_record_deltas_sum_to_totals(self, engine):
        _register_matrix(engine)
        rng = np.random.default_rng(2)
        ids = [
            engine.make_persistent(
                MATRIX_CLASS, Submatrix(rng.random((4, 4))), TierKind.MEMORY_MODE
            )
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
                expected = list(counters.raw())
                assert totals.get((kind, medium), [0] * 6) == expected

    def test_every_operation_appends_one_record(self, engine):
        engine.register_class(BLOCK)
        engine.register_method(BLOCK_MEAN)
        n0 = engine.record_count
        start = engine.op_totals()
        oid = engine.make_persistent("Block", FloatArray([1.0, 2.0]), TierKind.DRAM)
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
        oid = engine.make_persistent("Block", FloatArray(np.arange(64.0)), TierKind.DRAM)
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
        acc = engine.make_persistent(MATRIX_CLASS, Submatrix(np.zeros((k, k))), TierKind.DRAM)
        inputs = []
        for i in range(8):
            a = engine.make_persistent(MATRIX_CLASS, Submatrix(np.eye(k)), TierKind.DRAM)
            b = engine.make_persistent(
                MATRIX_CLASS, Submatrix(np.full((k, k), float(i + 1))), TierKind.DRAM
            )
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
        oid = engine.make_persistent("Block", FloatArray(np.ones(1000)), TierKind.DRAM)
        results = []

        def reader():
            results.append(engine.invoke(oid, "mean").values[0])

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [1.0] * 8


class TestRecovery:
    def test_recovered_objects_readable_at_byte_level(self, tmp_path):
        path = tmp_path / "persist.arena"
        tier = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1 << 16))
        engine = Engine({TierKind.NVM_DIRECT: tier}, build_catalog())
        engine.register_class(BLOCK)
        payload = FloatArray([3.0, 1.0, 4.0, 1.0, 5.0])
        oid = engine.make_persistent("Block", payload, TierKind.NVM_DIRECT)
        engine.close()

        tier2 = open_tier(TierKind.NVM_DIRECT, ArenaConfig(path=path, capacity_bytes=1 << 16))
        engine2 = Engine({TierKind.NVM_DIRECT: tier2}, build_catalog())
        assert oid in engine2.object_ids()
        assert bytes(tier2.read_view(oid)) == payload.data_bytes()
        # schema was not persisted: typed access requires re-registration
        with pytest.raises((InvalidRequestError, UnknownNameError)):
            engine2.get_object(oid)
        engine2.close()


class TestClose:
    def test_close_reaches_every_tier_when_one_fails(self, arena_dir):
        engine = fresh_engine(arena_dir)
        engine.register_class(BLOCK)
        in_nvm = engine.make_persistent("Block", FloatArray(np.ones(8)), TierKind.NVM_DIRECT)
        in_mm = engine.make_persistent("Block", FloatArray(np.ones(8)), TierKind.MEMORY_MODE)
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
