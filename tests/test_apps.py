from __future__ import annotations

import collections

import numpy as np
import pytest

from aostore import apps
from aostore.apps import run_app
from aostore.kernels import KMeansSpec, MatrixDescriptor
from aostore.tiers import TierKind


def reads_of(engine, result):
    counts = engine.read_counts()
    return sorted({counts[oid] for oid in result.input_ids})


class TestHistogramDriver:
    def test_active_passive_same_result_and_reuse_one(self, engine, session):
        active = run_app("histogram", "active", session, seed=3, tier=TierKind.NVM_DIRECT,
                         profile={"n_elems": 50_000, "block_elems": 8192}, engine=engine)
        assert reads_of(engine, active) == [1]
        passive = run_app("histogram", "passive", session, seed=3, tier=TierKind.DRAM,
                          profile={"n_elems": 50_000, "block_elems": 8192}, engine=engine)
        assert reads_of(engine, passive) == [1]
        assert active.output_digest == passive.output_digest
        assert int(active.final.counts.sum()) == 50_000

    def test_active_traffic_is_results_only(self, engine, session):
        recv0 = session.counters().bytes_received
        result = run_app("histogram", "active", session, seed=1, tier=TierKind.DRAM,
                         profile={"n_elems": 1 << 16, "block_elems": 1 << 13}, engine=engine)
        client_bound = session.counters().bytes_received - recv0
        # per-block replies are a constant ~1.2 kB (140 bins) plus small acks
        assert client_bound < result.invocations * 2048
        assert client_bound < result.dataset_bytes / 10

    def test_passive_traffic_covers_dataset(self, engine, session):
        recv0 = session.counters().bytes_received
        result = run_app("histogram", "passive", session, seed=1, tier=TierKind.DRAM,
                         profile={"n_elems": 1 << 16, "block_elems": 1 << 13}, engine=engine)
        assert session.counters().bytes_received - recv0 >= result.dataset_bytes

    def test_output_constant_size_across_datasets(self, engine, session):
        small = run_app("histogram", "active", session, seed=2, tier=TierKind.DRAM,
                        profile={"n_elems": 4096, "block_elems": 1024}, engine=engine)
        large = run_app("histogram", "active", session, seed=2, tier=TierKind.DRAM,
                        profile={"n_elems": 65536, "block_elems": 1024}, engine=engine)
        assert small.output_bytes == large.output_bytes == 140 * 8


class TestKMeansDriver:
    def test_reuse_factor_is_iteration_count(self, engine, session):
        spec = KMeansSpec(centers=4, iterations=10, dims=16)
        result = run_app("kmeans", "active", session, seed=5, tier=TierKind.MEMORY_MODE,
                         profile={"n_points": 512, "block_rows": 128, "kmeans_spec": spec},
                         engine=engine)
        assert reads_of(engine, result) == [10]
        assert result.method_input_bytes == 10 * result.dataset_bytes

    def test_active_equals_passive_bitwise(self, engine, session):
        spec = KMeansSpec(centers=5, iterations=7, dims=12)
        active = run_app("kmeans", "active", session, seed=6, tier=TierKind.NVM_DIRECT,
                         profile={"n_points": 600, "block_rows": 100, "kmeans_spec": spec},
                         engine=engine)
        passive = run_app("kmeans", "passive", session, seed=6, tier=TierKind.DRAM,
                          profile={"n_points": 600, "block_rows": 100, "kmeans_spec": spec},
                          engine=engine)
        assert active.output_digest == passive.output_digest
        assert np.array_equal(active.final.values, passive.final.values)

    def test_output_is_80kb_at_paper_shape(self, engine, session):
        spec = KMeansSpec(centers=20, iterations=2, dims=500)
        result = run_app("kmeans", "active", session, seed=7, tier=TierKind.DRAM,
                         profile={"n_points": 256, "block_rows": 64, "kmeans_spec": spec},
                         engine=engine)
        assert result.output_bytes == 80_000


class TestMatAddDriver:
    @pytest.mark.parametrize("result_mode", ["value", "volatile", "store"])
    def test_placements_agree_with_passive(self, engine, session, result_mode):
        desc = MatrixDescriptor(48, 16)
        active = run_app("matadd", "active", session, seed=8, tier=TierKind.NVM_DIRECT,
                         profile={"matrix": desc}, result=result_mode, engine=engine)
        passive = run_app("matadd", "passive", session, seed=8, tier=TierKind.DRAM,
                          profile={"matrix": desc}, result="value", engine=engine)
        assert active.output_digest == passive.output_digest
        assert np.array_equal(active.final, passive.final)

    def test_output_ratio_half_and_reuse_one(self, engine, session):
        result = run_app("matadd", "active", session, seed=9, tier=TierKind.DRAM,
                         profile={"matrix": MatrixDescriptor(64, 16)}, result="value",
                         engine=engine)
        assert result.output_bytes * 2 == result.dataset_bytes
        assert reads_of(engine, result) == [1]

    def test_store_places_results_in_tier(self, engine, session):
        result = run_app("matadd", "active", session, seed=10, tier=TierKind.NVM_DIRECT,
                         profile={"matrix": MatrixDescriptor(32, 16)}, result="store",
                         engine=engine)
        assert len(result.output_ids) == 4
        for oid in result.output_ids:
            assert engine.object_tier(oid) == TierKind.NVM_DIRECT

    def test_volatile_places_results_in_dram(self, engine, session):
        result = run_app("matadd", "active", session, seed=10, tier=TierKind.NVM_DIRECT,
                         profile={"matrix": MatrixDescriptor(32, 16)}, result="volatile",
                         engine=engine)
        for oid in result.output_ids:
            assert engine.object_tier(oid) == TierKind.DRAM


class TestMatMulDriver:
    def test_reuse_equals_grid(self, engine, session):
        desc = MatrixDescriptor(40, 8)  # grid 5
        result = run_app("matmul", "active", session, seed=11, tier=TierKind.DRAM,
                         profile={"matrix": desc}, result="volatile", engine=engine)
        assert reads_of(engine, result) == [5]
        assert result.method_input_bytes == 5 * result.dataset_bytes

    def test_all_result_modes_agree(self, engine, session):
        desc = MatrixDescriptor(32, 8)
        digests = set()
        finals = []
        for mode, result_kind, tier in [
            ("active", "value", TierKind.DRAM),
            ("active", "volatile", TierKind.DRAM),
            ("active", "store", TierKind.NVM_DIRECT),
            ("active", "inplace_fma", TierKind.NVM_DIRECT),
            ("active", "inplace_fma", TierKind.MEMORY_MODE),
            ("passive", "value", TierKind.DRAM),
        ]:
            run = run_app("matmul", mode, session, seed=12, tier=tier, profile={"matrix": desc},
                          result=result_kind, engine=engine)
            digests.add(run.output_digest)
            finals.append(run.final)
        assert len(digests) == 1
        dense = finals[0]
        from aostore.kernels import assemble_matrix, gen_matrix

        a = assemble_matrix(gen_matrix(12, desc, 0), desc)
        b = assemble_matrix(gen_matrix(12, desc, 1), desc)
        rel = np.abs(dense - a @ b) / np.maximum(np.abs(a @ b), 1e-300)
        assert rel.max() < 1e-9

    def test_active_and_passive_results_are_bit_identical(self, engine, session):
        """Every execution calls the one BLAS kernel, on arena views at any
        offset and on heap arrays alike, so all four agree bit for bit."""
        desc = MatrixDescriptor(192, 96)  # grid 2 of the paper's block side
        runs = [
            run_app("matmul", mode, session, seed=16, tier=tier, profile={"matrix": desc},
                    result=result_kind, engine=engine)
            for mode, result_kind, tier in [
                ("active", "volatile", TierKind.NVM_DIRECT),
                ("active", "inplace_fma", TierKind.NVM_DIRECT),
                ("active", "inplace_fma", TierKind.MEMORY_MODE),
                ("passive", "value", TierKind.NVM_DIRECT),
            ]
        ]
        assert len({run.output_digest for run in runs}) == 1
        for run in runs[1:]:
            assert np.array_equal(run.final, runs[0].final)

    def test_inplace_outputs_live_in_the_compute_tier(self, engine, session):
        desc = MatrixDescriptor(16, 8)
        result = run_app("matmul", "active", session, seed=13, tier=TierKind.NVM_DIRECT,
                         profile={"matrix": desc}, result="inplace_fma", engine=engine)
        for oid in result.output_ids:
            assert engine.object_tier(oid) == TierKind.NVM_DIRECT

    def test_passive_reuse_matches_grid_too(self, engine, session):
        desc = MatrixDescriptor(24, 8)  # grid 3
        result = run_app("matmul", "passive", session, seed=14, tier=TierKind.DRAM,
                         profile={"matrix": desc}, result="value", engine=engine)
        assert reads_of(engine, result) == [3]

    @pytest.mark.parametrize("mode", ["active", "passive"])
    def test_method_input_bytes_same_without_engine(self, engine, session, mode):
        desc = MatrixDescriptor(24, 8)  # grid 3
        with_engine, without = (
            run_app("matmul", mode, session, seed=15, tier=TierKind.DRAM,
                    profile={"matrix": desc}, engine=e)
            for e in (engine, None)
        )
        assert with_engine.method_input_bytes == 3 * with_engine.dataset_bytes
        assert without.method_input_bytes == with_engine.method_input_bytes


class TestDispatcher:
    def test_run_app_routes_each_kernel(self, engine, session):
        hist = run_app("histogram", "active", session, seed=1, tier=TierKind.DRAM,
                       profile={"n_elems": 2048, "block_elems": 512}, engine=engine)
        assert hist.app == "histogram"
        km = run_app("kmeans", "passive", session, seed=1, tier=TierKind.DRAM,
                     profile={"n_points": 128, "block_rows": 32,
                              "kmeans_spec": KMeansSpec(centers=3, iterations=2, dims=4)},
                     engine=engine)
        assert km.app == "kmeans"
        add = run_app("matadd", "active", session, seed=1, tier=TierKind.DRAM,
                      profile={"matrix": MatrixDescriptor(16, 8)}, engine=engine)
        assert add.app == "matadd"

    def test_unknown_app_rejected(self, session, engine):
        with pytest.raises(Exception, match="unknown app"):
            run_app("sort", "active", session, seed=1, tier=TierKind.DRAM,
                    profile={}, engine=engine)

    def test_phases_are_recorded(self, engine, session):
        result = run_app("histogram", "active", session, seed=1, tier=TierKind.DRAM,
                         profile={"n_elems": 1024, "block_elems": 256}, engine=engine)
        assert set(result.phases) >= {"generate", "persist", "compute"}


class TestClientKernelLookup:
    def test_passive_runs_call_the_kernels_bound_in_apps(self, engine, session, monkeypatch):
        """Passive runs look their client-side kernels up as ``aostore.apps``
        globals at call time, so a wrapper set there (the traced benchmark
        sets one) sees every call."""
        calls = collections.Counter()
        for name in ("fma_values", "matadd_block", "kmeans_partial", "kmeans_reduce"):

            def counted(*args, _name=name, _kernel=getattr(apps, name)):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(apps, name, counted)
        matrix = {"matrix": MatrixDescriptor(16, 8)}  # grid 2
        run_app("matadd", "passive", session, seed=1, tier=TierKind.DRAM, profile=matrix,
                engine=engine)
        run_app("matmul", "passive", session, seed=1, tier=TierKind.DRAM, profile=matrix,
                engine=engine)
        run_app("kmeans", "passive", session, seed=1, tier=TierKind.DRAM,
                profile={"n_points": 128, "block_rows": 32,
                         "kmeans_spec": KMeansSpec(centers=3, iterations=2, dims=4)},
                engine=engine)
        assert calls == {"matadd_block": 4, "fma_values": 8, "kmeans_partial": 8, "kmeans_reduce": 2}
