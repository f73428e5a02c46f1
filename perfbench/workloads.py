"""The three benchmark workloads and the checks made on their results.

A pass builds a fresh store -- DRAM, NVM-direct and Memory-Mode tiers, an
``Engine``, an in-process ``TcpServer`` and one ``Session`` over TCP on
127.0.0.1 -- and runs the workload's application through ``apps.run_app``
twice on the same seeded dataset: first active, then passive. Both results
are checked against computations made here, apart from the program, and
against the exact laws of the application. ``matadd-nvm`` ends each pass with
a restart check. Every pass makes the same operations, so a run that repeats
passes attempts whole rounds of them.
"""

from __future__ import annotations

import collections
import contextlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from aostore import apps
from aostore.client import Session
from aostore.engine import Engine, ResultPlacement, RoutineCatalog
from aostore.errors import StoreError
from aostore.kernels import KMeansSpec, MatrixDescriptor, build_catalog
from aostore.model import ObjectIdFactory
from aostore.tiers import MEDIA_DRAM, ArenaConfig, TierKind, open_tier
from aostore import wire
from aostore.wire import TcpConnection, TcpServer
from probe import REFERENCE_S, Probe

MB = 1e6
REL_TOL = 1e-9
DRAM_CAPACITY = 1 << 30
KMEANS = KMeansSpec()  # 20 centers, 10 iterations, 500 dims


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    tier: TierKind  # holds the inputs, and the stored results
    active_result: str
    passive_result: str
    profile: dict
    input_bytes: int  # one copy of the dataset
    reads_per_input: int  # the application's exact reuse factor
    mm_cache_bytes: int
    restart_check: bool = False

    @property
    def arena_bytes(self) -> int:
        # two copies of the inputs plus results, with room to spare; the
        # arena files are sparse, so unused capacity costs nothing
        return 4 * self.input_bytes + (64 << 20)


KMEANS_POINTS = 8192
KMEANS_BLOCK_ROWS = 256  # 32 blocks of 1.024 MB
MATMUL = MatrixDescriptor(768, 96)  # grid 8: 512 FMA invokes on 73.7 kB blocks
MATADD = MatrixDescriptor(2048, 512)  # grid 4: 2 MiB blocks

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="matmul-fma",
            app="matmul",
            tier=TierKind.NVM_DIRECT,
            active_result="inplace_fma",
            passive_result="value",
            profile={"matrix": MATMUL},
            input_bytes=2 * MATMUL.n**2 * 8,
            reads_per_input=MATMUL.grid,
            mm_cache_bytes=16 << 20,
        ),
        Workload(
            name="kmeans-spill",
            app="kmeans",
            tier=TierKind.MEMORY_MODE,
            active_result="value",
            passive_result="value",
            profile={"n_points": KMEANS_POINTS, "block_rows": KMEANS_BLOCK_ROWS},
            input_bytes=KMEANS_POINTS * KMEANS.dims * 8,
            reads_per_input=KMEANS.iterations,
            # half the dataset: every sequential pass misses on every block
            mm_cache_bytes=16 << 20,
        ),
        Workload(
            name="matadd-nvm",
            app="matadd",
            tier=TierKind.NVM_DIRECT,
            active_result="store",
            passive_result="store",
            profile={"matrix": MATADD},
            input_bytes=2 * MATADD.n**2 * 8,
            reads_per_input=1,
            mm_cache_bytes=16 << 20,
            restart_check=True,
        ),
    )
}


class TimedSession(Session):
    """A Session that keeps the round-trip time of each data call, by op.

    Only persists into the workload's data tier count as ``persist``, so the
    median is that of one input-sized block.
    """

    def __init__(self, connection, catalog, samples: dict, data_tier: TierKind):
        super().__init__(connection, catalog)
        self.samples = samples
        self.data_tier = data_tier

    def make_persistent(self, class_name, payload, tier):
        t0 = time.perf_counter_ns()
        oid = super().make_persistent(class_name, payload, tier)
        if tier == self.data_tier:
            self.samples["persist"].append(time.perf_counter_ns() - t0)
        return oid

    def get(self, oid):
        t0 = time.perf_counter_ns()
        payload = super().get(oid)
        self.samples["get"].append(time.perf_counter_ns() - t0)
        return payload

    def invoke(self, oid, method_name, args=(), placement=ResultPlacement.value()):
        t0 = time.perf_counter_ns()
        out = super().invoke(oid, method_name, args, placement)
        self.samples["invoke"].append(time.perf_counter_ns() - t0)
        return out


class Store:
    """A store over TCP: tiers, engine, server, one connected session.

    An NVM arena file left by a closed store is recovered; the Memory-Mode
    arena always starts empty.
    """

    def __init__(
        self,
        w: Workload,
        seed: int,
        arena_dir: Path,
        catalog: RoutineCatalog,
        connect: Callable[[str, int, RoutineCatalog], Session],
    ):
        self.paths = [arena_dir / "nvm.arena", arena_dir / "mm.arena"]
        self.engine = self.server = self.session = None
        tiers = {}
        try:
            tiers[TierKind.DRAM] = open_tier(
                TierKind.DRAM, ArenaConfig(capacity_bytes=DRAM_CAPACITY)
            )
            tiers[TierKind.NVM_DIRECT] = open_tier(
                TierKind.NVM_DIRECT,
                ArenaConfig(path=self.paths[0], capacity_bytes=w.arena_bytes),
            )
            tiers[TierKind.MEMORY_MODE] = open_tier(
                TierKind.MEMORY_MODE,
                ArenaConfig(
                    path=self.paths[1],
                    capacity_bytes=w.arena_bytes,
                    cache_capacity_bytes=w.mm_cache_bytes,
                ),
            )
            self.engine = Engine(tiers, catalog, id_factory=ObjectIdFactory(seed))
            self.server = TcpServer(self.engine)
            self.session = connect(self.server.host, self.server.port, catalog)
            apps.ensure_kernel_registration(self.session)
        except BaseException:
            if self.engine is None:
                for handle in tiers.values():
                    handle.close()
            self.close()
            raise

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.server is not None:
            self.server.stop()
        if self.engine is not None:
            self.engine.close()


@dataclass
class PassResult:
    """One pass. The four timed figures are normalized to the probe's
    reference speed (probe.py); ``speed`` is the pass's mean factor from wall
    time to normalized time, and ``wall_job_s`` the active job's wall time."""

    setup_s: float
    ingest_MBps: float
    job_s: float
    passive_job_s: float
    speed: float
    wall_job_s: float
    wire_B_per_input_B: float
    rss_peak_MB: float
    attempted: int
    failures: collections.Counter  # failed operations, by error
    problems: list[str]
    counts: dict = field(default_factory=dict)  # exact per-pass layer counters


# -- inputs and results computed apart from the program ----------------------


def matrix_block(seed: int, which: int, r: int, c: int, k: int) -> np.ndarray:
    """Block (r, c) of input matrix ``which``: uniform [-1, 1), seeded per block."""
    return np.random.default_rng([seed, which, r, c]).uniform(-1.0, 1.0, (k, k))


def dense_matrix(seed: int, which: int, desc: MatrixDescriptor) -> np.ndarray:
    g, k = desc.grid, desc.k
    return np.block([[matrix_block(seed, which, r, c, k) for c in range(g)] for r in range(g)])


def lloyd(x: np.ndarray, centers: int, iterations: int) -> np.ndarray:
    """Vectorized Lloyd from the first ``centers`` points; empty centers stay put."""
    c = x[:centers].copy()
    sq = np.einsum("ij,ij->i", x, x)[:, None]
    for _ in range(iterations):
        d2 = sq - 2.0 * (x @ c.T) + np.einsum("ij,ij->i", c, c)
        onehot = np.zeros((x.shape[0], centers))
        onehot[np.arange(x.shape[0]), np.argmin(d2, axis=1)] = 1.0
        counts = onehot.sum(axis=0)
        sums = onehot.T @ x
        occupied = counts > 0
        c[occupied] = sums[occupied] / counts[occupied, None]
    return c


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Normwise relative error: max |got - want| over max |want|.

    An elementwise ratio is unbounded on the entries of a product that lie
    near zero, where two summation orders legitimately differ most.
    """
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class Oracle:
    """Expected results of one workload and seed, computed once per run."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self._want = None

    def want(self) -> np.ndarray:
        if self._want is None:
            if self.w.app == "matmul":
                desc = self.w.profile["matrix"]
                self._want = dense_matrix(self.seed, 0, desc) @ dense_matrix(self.seed, 1, desc)
            elif self.w.app == "kmeans":
                x = np.random.default_rng(self.seed).random((KMEANS_POINTS, KMEANS.dims))
                self._want = lloyd(x, KMEANS.centers, KMEANS.iterations)
        return self._want

    def check(self, run: apps.AppRunResult) -> list[str]:
        w, label = self.w, f"{self.w.name} {run.mode}"
        if w.app == "matadd":
            desc = w.profile["matrix"]
            k = desc.k
            for r in range(desc.grid):
                for c in range(desc.grid):
                    want = matrix_block(self.seed, 0, r, c, k) + matrix_block(self.seed, 1, r, c, k)
                    if not np.array_equal(run.final[r * k : (r + 1) * k, c * k : (c + 1) * k], want):
                        return [f"{label}: block ({r}, {c}) differs from A + B"]
            return []
        got = run.final.values if w.app == "kmeans" else run.final
        err = rel_err(got, self.want())
        return [] if err < REL_TOL else [f"{label}: relative error {err:.3e} >= {REL_TOL}"]


def _mm_cache(engine: Engine) -> tuple[int, int]:
    c = engine.tier(TierKind.MEMORY_MODE).media_counters()[MEDIA_DRAM]
    return c.cache_hits, c.cache_misses


def _laws(w: Workload, engine: Engine, run: apps.AppRunResult, hits: int, misses: int) -> list[str]:
    label = f"{w.name} {run.mode}"
    problems = []
    counts = engine.read_counts()
    reads = sorted({counts[oid] for oid in run.input_ids})
    if reads != [w.reads_per_input]:
        problems.append(f"{label}: reads per input {reads}, expected {w.reads_per_input}")
    want = (0, len(run.input_ids) * KMEANS.iterations) if w.app == "kmeans" else (0, 0)
    if (hits, misses) != want:
        problems.append(f"{label}: Memory-Mode hits/misses {(hits, misses)}, expected {want}")
    return problems


# -- one pass -------------------------------------------------------------------


def _run_app(w: Workload, store: Store, seed: int, mode: str):
    """One application run, with its exact laws checked on the counter deltas."""
    hits0, misses0 = _mm_cache(store.engine)
    run = apps.run_app(
        w.app,
        mode,
        store.session,
        seed=seed,
        tier=w.tier,
        profile=w.profile,
        result=w.active_result if mode == "active" else w.passive_result,
        engine=store.engine,
    )
    hits1, misses1 = _mm_cache(store.engine)
    return run, _laws(w, store.engine, run, hits1 - hits0, misses1 - misses0)


def _job_s(run: apps.AppRunResult) -> float:
    return (run.phases["compute"] + run.phases.get("collect", 0)) / 1e9


_DATA_FRAMES = {
    "persist": wire.MSG_MAKE_PERSISTENT,
    "get": wire.MSG_GET,
    "invoke": wire.MSG_INVOKE,
    "delete": wire.MSG_DELETE,
}


def _layer_counts(w: Workload, store: Store, active: apps.AppRunResult) -> dict:
    """Exact counters of one pass, read before the restart check."""
    counts: dict = {"engine.records": store.engine.record_count}
    traffic = store.session.counters()
    counts["wire.client_B"] = traffic.bytes_sent + traffic.bytes_received
    frames = dict(traffic.per_type)
    for name, msg in _DATA_FRAMES.items():
        counts[f"wire.req_frames.{name}"] = frames.pop(msg, 0)
    counts["wire.req_frames.other"] = sum(frames.values())
    for kind, label in (
        (TierKind.DRAM, "dram"),
        (TierKind.NVM_DIRECT, "nvm"),
        (TierKind.MEMORY_MODE, "mm"),
    ):
        for medium, c in store.engine.tier(kind).media_counters().items():
            for attr in ("bytes_read", "bytes_written", "read_ops", "write_ops"):
                counts[f"tiers.{label}.{medium}.{attr}"] = getattr(c, attr)
    hits, misses = _mm_cache(store.engine)
    counts["tiers.mm.hits"] = hits
    counts["tiers.mm.misses"] = misses
    counts["tiers.mm.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    read_counts = store.engine.read_counts()
    counts["apps.reads_per_input"] = sum(read_counts[o] for o in active.input_ids) / len(
        active.input_ids
    )
    return counts


def run_pass(
    w: Workload,
    seed: int,
    arena_dir: Path,
    oracle: Oracle,
    samples: dict[str, list[float]],
    probe: Probe,
    tracer=None,
) -> PassResult:
    """One pass on a fresh store; ``tracer`` wraps the catalog and is
    suspended for the restart check, which no metric includes.

    The probe runs before the active job, between the two jobs and after the
    passive job; each timed phase, and each round trip appended to
    ``samples``, is normalized by the probes around its job.
    """
    connect = timed_connect(samples, w.tier)

    def catalog() -> RoutineCatalog:
        return build_catalog() if tracer is None else tracer.catalog(build_catalog())

    t0 = time.perf_counter()
    store = Store(w, seed, arena_dir, catalog(), connect)
    setup_s = time.perf_counter() - t0
    try:
        probes = [probe.seconds()]
        active, problems = _run_app(w, store, seed, "active")
        probes.append(probe.seconds())
        active_calls = {op: len(ns) for op, ns in samples.items()}
        passive, passive_problems = _run_app(w, store, seed, "passive")
        probes.append(probe.seconds())
        problems += oracle.check(active)
        problems += passive_problems + oracle.check(passive)
        if w.app == "matadd" and active.output_digest != passive.output_digest:
            problems.append(f"{w.name}: active and passive digests differ")
        counts = _layer_counts(w, store, active)
        rss_peak_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        attempted = sum(store.session.counters().per_type.values())
        failures: collections.Counter = collections.Counter()
        if w.restart_check:
            with tracer.suspended() if tracer else contextlib.nullcontext():
                checked, failures, restart_problems = restart_check(
                    w, seed, store, active, passive, arena_dir
                )
            attempted += checked
            problems += restart_problems
    finally:
        store.close()
        for path in store.paths:
            path.unlink(missing_ok=True)
    # wall time x speed = seconds at the probe's reference speed
    speed_active = REFERENCE_S / ((probes[0] + probes[1]) / 2)
    speed_passive = REFERENCE_S / ((probes[1] + probes[2]) / 2)
    persist_s = (
        active.phases["persist"] * speed_active + passive.phases["persist"] * speed_passive
    ) / 1e9
    for op, ns in samples.items():
        n = active_calls[op]
        ns[:] = [t * speed_active for t in ns[:n]] + [t * speed_passive for t in ns[n:]]
    input_bytes = active.dataset_bytes + passive.dataset_bytes
    return PassResult(
        setup_s=setup_s * REFERENCE_S / probes[0],
        ingest_MBps=input_bytes / MB / persist_s,
        job_s=_job_s(active) * speed_active,
        passive_job_s=_job_s(passive) * speed_passive,
        speed=REFERENCE_S / (sum(probes) / len(probes)),
        wall_job_s=_job_s(active),
        wire_B_per_input_B=counts["wire.client_B"] / input_bytes,
        rss_peak_MB=rss_peak_MB,
        attempted=attempted,
        failures=failures,
        problems=problems,
        counts=counts,
    )


# -- restart check ----------------------------------------------------------------


def _stored_blocks(w: Workload, runs) -> dict:
    """Object id -> (which, r, c) for every matrix block the runs stored in NVM.

    ``run_app`` persists the A grid, then the B grid, in row-major block
    order, and lists stored results in row-major order; which 2 is A + B.
    """
    g = w.profile["matrix"].grid
    cells = [(r, c) for r in range(g) for c in range(g)]
    out = {}
    for run in runs:
        for i, oid in enumerate(run.input_ids):
            out[oid] = (i // len(cells), *cells[i % len(cells)])
        for i, oid in enumerate(run.output_ids):
            out[oid] = (2, *cells[i])
    return out


def restart_check(w, seed, store, active, passive, arena_dir):
    """Flush and close the store, reopen its arenas, GET every object stored in NVM.

    Returns (operations attempted, failures by error, problems). Each GET that
    raises a store error is a failed operation; one that answers must return
    the regenerated block.
    """
    expected = _stored_blocks(w, (active, passive))
    engine = store.engine
    in_nvm = {o for o in engine.object_ids() if engine.object_tier(o) == TierKind.NVM_DIRECT}
    problems = []
    if in_nvm != set(expected):
        problems.append(f"{w.name}: NVM holds {len(in_nvm)} objects, expected {len(expected)}")
    store.session.flush(TierKind.NVM_DIRECT)
    store.close()
    failures: collections.Counter = collections.Counter()
    reopened = Store(w, seed, arena_dir, build_catalog(), Session.connect_tcp)
    try:
        k = w.profile["matrix"].k
        for oid, (which, r, c) in expected.items():
            try:
                got = reopened.session.get(oid).values
            except StoreError as exc:
                failures[f"{type(exc).__name__}: {exc}".replace(oid.hex(), "<id>")] += 1
                continue
            want = (
                matrix_block(seed, 0, r, c, k) + matrix_block(seed, 1, r, c, k)
                if which == 2
                else matrix_block(seed, which, r, c, k)
            )
            if not np.array_equal(got, want):
                problems.append(f"{w.name}: object {oid.hex()} differs after restart")
        attempted = 1 + sum(reopened.session.counters().per_type.values())  # 1: the FLUSH
    finally:
        reopened.close()
    return attempted, failures, problems


def timed_connect(samples: dict, data_tier: TierKind):
    """Session factory: a TimedSession over TCP that records into ``samples``."""

    def connect(host: str, port: int, catalog: RoutineCatalog) -> Session:
        return TimedSession(TcpConnection(host, port), catalog, samples, data_tier)

    return connect
