"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Wall-clock values are never asserted; every check rests on exact
counters, analytic byte budgets derived from the frame layout, or numeric
oracles implemented independently in tests/oracles.py.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from aostore.apps import ensure_kernel_registration, run_app
from aostore.bench import (
    BenchmarkConfig,
    emit_report,
    parse_fraction,
    run_benchmark,
    verify_report_metrics,
)
from aostore.client import Session
from aostore.engine import Engine
from aostore.errors import StoreError
from aostore.kernels import (
    HIST_CLASS,
    POINTS_CLASS,
    KMeansSpec,
    MatrixDescriptor,
    build_catalog,
    gen_f_array,
    gen_matrix,
    assemble_matrix,
    histogram_edges,
    kernel_classes,
    kernel_methods,
)
from aostore.model import (
    Centroids,
    FloatArray,
    Histogram,
    ObjectIdFactory,
    PointsBlock,
    Submatrix,
    decode_payload,
    encode_payload,
    encoded_size,
)
from aostore.tiers import ArenaConfig, TierKind, open_tier
from aostore.wire import Frame, ServerCore, TcpServer, decode_frame, encode_frame

from .conftest import make_tiers, persist
from .oracles import histogram_oracle, lloyd_oracle, matmul_oracle

FRAME_OVERHEAD = 13  # length u32 + msg_type u8 + request_id u64


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def fresh_stack(tmp_path, name, *, capacity=1 << 29, cache=1 << 23, seed=42):
    arena = tmp_path / name
    arena.mkdir(parents=True, exist_ok=True)
    engine = Engine(
        make_tiers(arena, capacity=capacity, cache=cache),
        build_catalog(),
        id_factory=ObjectIdFactory(seed),
    )
    session = Session.connect_loopback(ServerCore(engine), build_catalog())
    return engine, session


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


# -- 1. kernel correctness vs oracles -----------------------------------------


def test_criterion_01_kernel_correctness(tmp_path):
    with criterion(1, "kernel correctness vs oracles"):
        # histogram: 10^6 F-distributed values, blocked+merged == linear scan
        engine, session = fresh_stack(tmp_path, "hist")
        run = run_app("histogram", "active", session, seed=1001, tier=TierKind.NVM_DIRECT,
                      profile={"n_elems": 10**6, "block_elems": 1 << 17}, engine=engine)
        values = np.concatenate(
            [b.values for b in gen_f_array(1001, 10**6, block_elems=1 << 17)]
        )
        oracle_counts = histogram_oracle(values.tolist(), histogram_edges().tolist())
        assert run.final.counts.tolist() == oracle_counts
        assert int(run.final.counts.sum()) == 10**6
        engine.close()

        # k-means: 10 iterations, 20 centers, 500 dims, 1e4 points vs Lloyd oracle
        engine, session = fresh_stack(tmp_path, "km")
        kspec = KMeansSpec(centers=20, iterations=10, dims=500)
        run = run_app("kmeans", "active", session, seed=1002, tier=TierKind.DRAM,
                      profile={"n_points": 10**4, "block_rows": 1024, "kmeans_spec": kspec},
                      engine=engine)
        from aostore.kernels import gen_points

        dense = np.vstack([b.values for b in gen_points(1002, 10**4, 500, 1024)])
        oracle = lloyd_oracle(dense, 20, 10)
        assert rel_err(run.final.values, oracle) < 1e-9
        engine.close()

        # matrix addition: blocked == dense, bit-equal, n=2016, k in {336, 48}
        for k in (336, 48):
            engine, session = fresh_stack(tmp_path, f"add{k}")
            desc = MatrixDescriptor(2016, k)
            run = run_app("matadd", "active", session, seed=1003, tier=TierKind.DRAM,
                          profile={"matrix": desc}, result="value", engine=engine)
            dense_a = assemble_matrix(gen_matrix(1003, desc, 0), desc)
            dense_b = assemble_matrix(gen_matrix(1003, desc, 1), desc)
            assert run.final.tobytes() == (dense_a + dense_b).tobytes()
            engine.close()

        # matrix multiply: blocked FMA vs naive triple loop at n=96, k=32;
        # in-place FMA on NVM equals the return-by-value run within 1e-12
        desc = MatrixDescriptor(96, 32)
        engine, session = fresh_stack(tmp_path, "mul")
        by_value = run_app("matmul", "active", session, seed=1004, tier=TierKind.DRAM,
                           profile={"matrix": desc}, result="value", engine=engine)
        in_place = run_app("matmul", "active", session, seed=1004, tier=TierKind.NVM_DIRECT,
                           profile={"matrix": desc}, result="inplace_fma", engine=engine)
        dense_a = assemble_matrix(gen_matrix(1004, desc, 0), desc)
        dense_b = assemble_matrix(gen_matrix(1004, desc, 1), desc)
        oracle = matmul_oracle(dense_a, dense_b)
        assert rel_err(by_value.final, oracle) < 1e-9
        assert rel_err(in_place.final, by_value.final) < 1e-12
        engine.close()


# -- 2. active/passive equivalence on every tier --------------------------------


def test_criterion_02_active_passive_equivalence(tmp_path):
    profiles = {
        "histogram": {"n_elems": 1 << 17, "block_elems": 1 << 14},
        "kmeans": {"n_points": 1 << 10, "block_rows": 256},
        "matadd": {"matrix": MatrixDescriptor(672, 112)},
        "matmul": {"matrix": MatrixDescriptor(96, 32)},
    }
    with criterion(2, "active == passive on dram, nvm, mm"):
        for app, profile in profiles.items():
            for tier in (TierKind.DRAM, TierKind.NVM_DIRECT, TierKind.MEMORY_MODE):
                engine, session = fresh_stack(tmp_path, f"eq-{app}-{tier.name}")
                runs = {}
                for mode in ("active", "passive"):
                    runs[mode] = run_app(app, mode, session, seed=2000, tier=tier,
                                         profile=profile, result="value", engine=engine)
                a, p = runs["active"], runs["passive"]
                if app == "histogram":
                    assert a.final.counts.tolist() == p.final.counts.tolist()
                elif app == "kmeans":
                    assert rel_err(a.final.values, p.final.values) < 1e-9
                else:
                    assert rel_err(a.final, p.final) < 1e-9
                engine.close()


# -- 3 + 4. reuse-factor counters and output-size ratios -------------------------


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    runs = {}

    engine, session = fresh_stack(tmp, "hist", capacity=1 << 28)
    runs["histogram"] = (
        run_app("histogram", "active", session, seed=3001, tier=TierKind.NVM_DIRECT,
                profile={"n_elems": 1 << 22, "block_elems": 1 << 20}, engine=engine),
        engine.read_counts(),
    )
    runs["histogram_small"] = (
        run_app("histogram", "active", session, seed=3001, tier=TierKind.NVM_DIRECT,
                profile={"n_elems": 1 << 20, "block_elems": 1 << 17}, engine=engine),
        None,
    )
    engine.close()

    engine, session = fresh_stack(tmp, "km", capacity=1 << 28)
    runs["kmeans"] = (
        run_app("kmeans", "active", session, seed=3002, tier=TierKind.NVM_DIRECT,
                profile={"n_points": 1 << 13, "block_rows": 2048}, engine=engine),
        engine.read_counts(),
    )
    runs["kmeans_small"] = (
        run_app("kmeans", "active", session, seed=3002, tier=TierKind.NVM_DIRECT,
                profile={"n_points": 1 << 12, "block_rows": 512}, engine=engine),
        None,
    )
    engine.close()

    engine, session = fresh_stack(tmp, "add", capacity=1 << 28)
    runs["matadd"] = (
        run_app("matadd", "active", session, seed=3003, tier=TierKind.NVM_DIRECT,
                profile={"matrix": MatrixDescriptor(2016, 336)}, result="volatile",
                engine=engine),
        engine.read_counts(),
    )
    engine.close()

    engine, session = fresh_stack(tmp, "mul6", capacity=1 << 28)
    runs["matmul_grid6"] = (
        run_app("matmul", "active", session, seed=3004, tier=TierKind.DRAM,
                profile={"matrix": MatrixDescriptor(2016, 336)}, result="volatile",
                engine=engine, assemble=False),
        engine.read_counts(),
    )
    engine.close()

    engine, session = fresh_stack(tmp, "mul42", capacity=1 << 28)
    runs["matmul_grid42"] = (
        run_app("matmul", "active", session, seed=3005, tier=TierKind.DRAM,
                profile={"matrix": MatrixDescriptor(2016, 48)}, result="volatile",
                engine=engine, assemble=False),
        engine.read_counts(),
    )
    engine.close()
    return runs


def test_criterion_03_reuse_factor_counters(desk_runs):
    with criterion(3, "read counts equal Table-1 reuse factors"):
        expectations = {
            "histogram": 1,
            "matadd": 1,
            "kmeans": 10,
            "matmul_grid6": 6,
            "matmul_grid42": 42,
        }
        for name, expected in expectations.items():
            run, counts = desk_runs[name]
            observed = {counts[oid] for oid in run.input_ids}
            assert observed == {expected}, f"{name}: read counts {observed}"
            assert run.method_input_bytes == expected * run.dataset_bytes


def test_criterion_04_output_size_ratios(desk_runs):
    with criterion(4, "output-size ratios and constant-size results"):
        for name in ("matadd", "matmul_grid6", "matmul_grid42"):
            run, _ = desk_runs[name]
            assert Fraction(run.output_bytes, run.dataset_bytes) == Fraction(1, 2)

        big_hist, _ = desk_runs["histogram"]
        small_hist, _ = desk_runs["histogram_small"]
        assert big_hist.output_bytes == small_hist.output_bytes == 140 * 8

        big_km, _ = desk_runs["kmeans"]
        small_km, _ = desk_runs["kmeans_small"]
        assert big_km.output_bytes == small_km.output_bytes == 80_000


# -- 5. data-movement locality law ------------------------------------------------


def _reply_frame(body_bytes: int) -> int:
    return FRAME_OVERHEAD + body_bytes


def _registration_reply_bytes() -> int:
    # 3 class + 8 method registrations, each an empty-body reply frame
    return 11 * _reply_frame(0)


def test_criterion_05_locality_law(tmp_path):
    with criterion(5, "client-bound traffic: passive >= dataset x reuse, active tiny"):
        # histogram: 32 blocks x 8 MiB = 256 MiB dataset
        n_elems, block_elems = 1 << 25, 1 << 20
        dataset_bytes = n_elems * 8
        assert dataset_bytes >= 256_000_000

        engine, session = fresh_stack(tmp_path, "h-passive", capacity=1 << 30)
        recv0 = session.counters().bytes_received
        run_app("histogram", "passive", session, seed=5001, tier=TierKind.DRAM,
                profile={"n_elems": n_elems, "block_elems": block_elems}, engine=engine)
        passive_hist = session.counters().bytes_received - recv0
        engine.close()
        assert passive_hist >= 256_000_000

        engine, session = fresh_stack(tmp_path, "h-active", capacity=1 << 30)
        recv0 = session.counters().bytes_received
        run_app("histogram", "active", session, seed=5001, tier=TierKind.DRAM,
                profile={"n_elems": n_elems, "block_elems": block_elems}, engine=engine)
        active_hist = session.counters().bytes_received - recv0
        engine.close()

        blocks = n_elems // block_elems
        hist_reply = _reply_frame(1 + encoded_size(Histogram(np.zeros(140, dtype=np.uint64))))
        budget = (
            _registration_reply_bytes()
            + blocks * _reply_frame(16)  # persist acks
            + blocks * hist_reply
        )
        assert active_hist <= budget
        assert active_hist <= 0.001 * passive_hist

        # k-means: 32 blocks x 2048 points x 500 dims, 10 iterations
        n_points, block_rows = 1 << 16, 2048
        spec = KMeansSpec()
        km_dataset = n_points * spec.dims * 8
        engine, session = fresh_stack(tmp_path, "k-passive", capacity=1 << 30)
        recv0 = session.counters().bytes_received
        run_app("kmeans", "passive", session, seed=5002, tier=TierKind.DRAM,
                profile={"n_points": n_points, "block_rows": block_rows, "kmeans_spec": spec},
                engine=engine)
        passive_km = session.counters().bytes_received - recv0
        engine.close()
        assert passive_km >= 10 * 256_000_000

        engine, session = fresh_stack(tmp_path, "k-active", capacity=1 << 30)
        recv0 = session.counters().bytes_received
        run_app("kmeans", "active", session, seed=5002, tier=TierKind.DRAM,
                profile={"n_points": n_points, "block_rows": block_rows, "kmeans_spec": spec},
                engine=engine)
        active_km = session.counters().bytes_received - recv0
        engine.close()

        km_blocks = n_points // block_rows
        centroid_reply = _reply_frame(
            1 + encoded_size(Centroids(np.zeros((spec.centers, spec.dims))))
        )
        per_iteration = (
            _reply_frame(16)  # accumulator persist ack
            + km_blocks * _reply_frame(1)  # accumulate acks (no result)
            + centroid_reply  # finish
            + _reply_frame(0)  # accumulator delete
        )
        km_budget = (
            _registration_reply_bytes()
            + km_blocks * _reply_frame(16)
            + spec.iterations * per_iteration
        )
        assert active_km <= km_budget
        assert active_km <= 0.002 * passive_km


def _str16(text: str) -> int:
    return 2 + len(text.encode("utf-8"))


def _registration_request_bytes() -> int:
    # REGISTER_CLASS: name, u16-counted (field, semantic) pairs, u16-counted
    # method names; REGISTER_METHOD: class, method, routine key, u8-counted arg
    # schema, result schema, mutates flag
    classes = sum(
        FRAME_OVERHEAD + _str16(c.class_name)
        + 2 + sum(_str16(n) + _str16(sem) for n, sem in c.fields)
        + 2 + sum(map(_str16, c.methods))
        for c in kernel_classes()
    )
    methods = sum(
        FRAME_OVERHEAD + _str16(m.class_name) + _str16(m.method_name) + _str16(m.routine_key)
        + 1 + sum(map(_str16, m.arg_schema)) + _str16(m.result_schema) + 1
        for m in kernel_methods()
    )
    return classes + methods


def _persist_frame(payload) -> int:
    return FRAME_OVERHEAD + _str16(POINTS_CLASS) + 1 + encoded_size(payload)  # class, tier, payload


def _invoke_frame(method: str, refs: int) -> int:
    # target id, method name, placement kind, u8 arg count, (tag, id) per by-reference argument
    return FRAME_OVERHEAD + 16 + _str16(method) + 1 + 1 + refs * (1 + 16)


def test_active_kmeans_sent_bytes_exact(tmp_path):
    """Client-sent bytes of an active k-means run, exactly, from the frame layout.

    The centroids cross the wire once, in their first persist; every
    accumulate and finish names them by reference, so no term of the total
    scales with blocks x centroid bytes, only with blocks x a fixed invoke.
    """
    spec = KMeansSpec()
    block_rows, dims = 64, spec.dims
    id_frame = FRAME_OVERHEAD + 16  # GET or DELETE: one object id
    centroids = Centroids(np.zeros((spec.centers, dims)))
    accumulator = PointsBlock(np.zeros((spec.centers, dims + 1)))
    per_iteration_fixed = (
        _persist_frame(accumulator)
        + _invoke_frame("finish", refs=1)
        + 2 * id_frame  # delete the accumulator and the old centroids
    )
    per_block = _persist_frame(PointsBlock(np.zeros((block_rows, dims))))
    per_block_iteration = _invoke_frame("accumulate", refs=2)
    assert per_block_iteration < 100  # a fixed-size frame, no centroid payload in it

    sent = {}
    for blocks in (4, 8):
        engine, session = fresh_stack(tmp_path, f"k-sent-{blocks}", capacity=1 << 27)
        sent0 = session.counters().bytes_sent
        profile = {"n_points": blocks * block_rows, "block_rows": block_rows, "kmeans_spec": spec}
        run_app("kmeans", "active", session, seed=5003, tier=TierKind.DRAM, profile=profile,
                engine=engine)
        sent[blocks] = session.counters().bytes_sent - sent0
        engine.close()
        assert sent[blocks] == (
            _registration_request_bytes()
            + blocks * per_block
            + _persist_frame(centroids)  # the initial centroids, the one by-value copy
            + spec.iterations * (per_iteration_fixed + blocks * per_block_iteration)
            + 2 * id_frame  # GET the final centroids, then delete them
        )
    # four more blocks add their persists and their accumulate invokes only
    assert sent[8] - sent[4] == 4 * (per_block + spec.iterations * per_block_iteration)


# -- 6. persistence semantics -------------------------------------------------------


def test_criterion_06_persistence_semantics(tmp_path):
    with criterion(6, "NVM survives clean restart, DRAM and MM do not"):
        arena = tmp_path / "restart"
        arena.mkdir()
        tiers = make_tiers(arena, capacity=1 << 20, cache=1 << 18)
        engine = Engine(tiers, build_catalog(), id_factory=ObjectIdFactory(6))
        for c in kernel_classes():
            engine.register_class(c)
        payload = FloatArray(np.arange(512.0))
        kept = persist(engine, HIST_CLASS, payload, TierKind.NVM_DIRECT)
        lost_mm = persist(engine, HIST_CLASS, payload, TierKind.MEMORY_MODE)
        lost_dram = persist(engine, HIST_CLASS, payload, TierKind.DRAM)
        engine.close()  # clean shutdown

        tiers2 = make_tiers(arena, capacity=1 << 20, cache=1 << 18)
        engine2 = Engine(tiers2, build_catalog())
        nvm = engine2.tier(TierKind.NVM_DIRECT)
        assert kept in engine2.object_ids()
        assert bytes(nvm.read_view(kept)) == bytes(payload.data_view())
        assert lost_mm not in engine2.tier(TierKind.MEMORY_MODE).ids()
        assert lost_dram not in engine2.tier(TierKind.DRAM).ids()
        engine2.close()


# -- 7. Memory-Mode cache law ----------------------------------------------------------


def test_criterion_07_memory_mode_cache_law(tmp_path):
    with criterion(7, "second sweep: cold when cache < dataset, free when it fits"):
        object_bytes = 1 << 18
        n_objects = 16
        dataset = object_bytes * n_objects
        ids = ObjectIdFactory(7)

        for cache, expect_cold in ((dataset // 4, True), (dataset * 2, False)):
            tier = open_tier(
                TierKind.MEMORY_MODE,
                ArenaConfig(
                    path=tmp_path / f"mm-{cache}.arena",
                    capacity_bytes=dataset * 4,
                    cache_capacity_bytes=cache,
                ),
            )
            keys = [ids.new_object_id() for _ in range(n_objects)]
            for key in keys:
                tier.store(key, bytes(object_bytes))
            for key in keys:
                tier.read_view(key)
            first_sweep_reads = tier.media_counters()["nvm"].bytes_read
            for key in keys:
                tier.read_view(key)
            second_sweep_reads = tier.media_counters()["nvm"].bytes_read - first_sweep_reads
            if expect_cold:
                assert second_sweep_reads > 0
            else:
                assert second_sweep_reads == 0
            tier.close()


# -- 8 + 10. modeled-time ordering and metric recomputation -------------------------------


@pytest.fixture(scope="module")
def bench_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    reports = {}
    for name, overrides in {
        "nvm_volatile": dict(tier="nvm", result="volatile"),
        "nvm_store": dict(tier="nvm", result="store"),
        "mm_volatile": dict(tier="mm", result="volatile"),
        "dram_volatile": dict(tier="dram", result="volatile"),
    }.items():
        config = BenchmarkConfig(
            app="matadd", mode="active", objects="big", dataset="desk", seed=8,
            arena_path=str(tmp / name), **overrides,
        )
        report = run_benchmark(config)
        path = tmp / f"{name}.json"
        emit_report(report, "json", path)
        reports[name] = (report, path)
    return reports


def _total_modeled(doc: dict) -> Fraction:
    return parse_fraction(doc["metrics"]["modeled_time_ns_total_exact"])


def _method_modeled(doc: dict) -> Fraction:
    total = Fraction(0)
    for media in doc["method_traffic"].values():
        for counters in media.values():
            total += parse_fraction(counters["modeled_time_ns"])
    return total


def test_criterion_08_modeled_time_ordering(bench_reports):
    with criterion(8, "NVM writes dominate: volatile < store; MM cold > DRAM"):
        assert _total_modeled(bench_reports["nvm_volatile"][0]) < _total_modeled(
            bench_reports["nvm_store"][0]
        )
        assert _method_modeled(bench_reports["mm_volatile"][0]) > _method_modeled(
            bench_reports["dram_volatile"][0]
        )


def test_criterion_10_metric_recomputation(bench_reports):
    import json

    with criterion(10, "derived metrics recompute exactly from raw counters"):
        for _, path in bench_reports.values():
            verify_report_metrics(json.loads(path.read_text()))


# -- 9. protocol and serialization properties ------------------------------------------------


def _random_payload(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return FloatArray([rng.uniform(-1e9, 1e9) for _ in range(rng.randrange(0, 12))])
    if kind == 1:
        r, d = rng.randrange(1, 5), rng.randrange(1, 5)
        return PointsBlock(np.array([[rng.random() for _ in range(d)] for _ in range(r)]))
    if kind == 2:
        k = rng.randrange(1, 5)
        return Submatrix(np.array([[rng.uniform(-10, 10) for _ in range(k)] for _ in range(k)]))
    if kind == 3:
        return Histogram(np.array([rng.randrange(2**63) for _ in range(rng.randrange(1, 16))],
                                  dtype=np.uint64))
    r, d = rng.randrange(1, 4), rng.randrange(1, 6)
    return Centroids(np.array([[rng.uniform(-5, 5) for _ in range(d)] for _ in range(r)]))


def test_criterion_09_protocol_properties(tmp_path):
    with criterion(9, "round-trips, typed decode errors, transport parity"):
        rng = random.Random(9000)

        # 10^4 payload round-trips
        for _ in range(10_000):
            payload = _random_payload(rng)
            assert decode_payload(encode_payload(payload)) == payload

        # 10^4 frame round-trips
        for _ in range(10_000):
            msg_type = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 127])
            frame = Frame(msg_type, rng.randrange(2**64), rng.randbytes(rng.randrange(0, 64)))
            decoded, _ = decode_frame(encode_frame(frame))
            assert decoded == frame

        # malformed inputs: typed errors, never uncontrolled exceptions
        for _ in range(4_000):
            blob = rng.randbytes(rng.randrange(0, 80))
            try:
                decode_payload(blob)
            except StoreError:
                pass
            try:
                decode_frame(blob)
            except StoreError:
                pass
        for _ in range(2_000):
            payload = _random_payload(rng)
            raw = bytearray(encode_payload(payload))
            op = rng.randrange(3)
            if op == 0 and raw:
                raw = raw[: rng.randrange(len(raw))]
            elif op == 1:
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            else:
                raw += rng.randbytes(rng.randrange(1, 9))
            try:
                decode_payload(bytes(raw))
            except StoreError:
                pass

        # identical scripted workload on loopback and TCP: identical counters
        def scripted(session):
            ensure_kernel_registration(session)
            ids = [
                session.make_persistent(HIST_CLASS, FloatArray(np.arange(256.0)),
                                        TierKind.NVM_DIRECT)
                for _ in range(4)
            ]
            for oid in ids:
                session.invoke(oid, "histogram")
                session.get(oid)
            session.flush()
            return session.counters(), session.stats()

        engine1, s1 = fresh_stack(tmp_path, "parity-loopback", seed=9)
        c1, st1 = scripted(s1)
        engine1.close()

        arena = tmp_path / "parity-tcp"
        arena.mkdir()
        engine2 = Engine(make_tiers(arena), build_catalog(), id_factory=ObjectIdFactory(9))
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
