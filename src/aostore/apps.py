"""End-to-end application runs: generate, persist, compute (active or passive), collect.

Every application runs through one run loop, :meth:`_Run.run`. It registers the
kernels, times the phases, persists the input blocks, tallies invocations,
times the client-side kernels of passive runs, digests the result and builds
the :class:`AppRunResult`. An application subclass contributes only its
``generate`` step (input blocks, in persist order) and its ``compute`` step
(from the persisted ids to the result); the two matrix applications share the
grid layout and the assemble/digest ``collect`` phase.

Active runs ship invocations; the object payloads never cross the client
boundary. State that lives across iterations stays in the store too: the
active k-means run persists its centroids once into DRAM, passes them to
every ``accumulate`` and ``finish`` by reference, has ``finish`` store the
next centroids volatile, and fetches only the final ones. Passive runs
emulate a non-active store on the same engine: whole objects are fetched with
GET on every use (no client caching) and the same kernel functions run
client-side, so both modes produce bit-identical results.

Invocations are issued sequentially; per-object read counts afterwards equal
each kernel's reuse factor (histogram and matrix addition 1, k-means its
iteration count, matrix multiplication the submatrix grid side).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import ClassVar

import numpy as np

from .client import Session
from .engine import Engine, ResultPlacement
from .errors import DuplicateError, InvalidRequestError
from .kernels import (
    HIST_CLASS,
    KMeansSpec,
    MATRIX_CLASS,
    MatrixDescriptor,
    POINTS_CLASS,
    assemble_matrix,
    gen_f_array,
    gen_matrix,
    gen_points,
    histogram_block,
    initial_centroids,
    kernel_classes,
    kernel_methods,
    kmeans_partial,
    kmeans_reduce,
    matadd_block,
    merge_histograms,
    fma_values,
)
from .model import (
    ObjectId,
    PointsBlock,
    Submatrix,
    encode_payload,
)
from .tiers import TierKind

MODE_ACTIVE = "active"
MODE_PASSIVE = "passive"

RESULT_VALUE = "value"
RESULT_VOLATILE = "volatile"
RESULT_STORE = "store"
RESULT_INPLACE_FMA = "inplace_fma"


@dataclass
class AppRunResult:
    app: str
    mode: str
    tier: TierKind
    final: object
    output_digest: str
    dataset_bytes: int
    output_bytes: int
    invocations: int
    method_input_bytes: int
    method_total_ns: int
    input_ids: list[ObjectId] = dc_field(default_factory=list)
    output_ids: list[ObjectId] = dc_field(default_factory=list)
    phases: dict[str, int] = dc_field(default_factory=dict)
    # the tier traffic of the run's invokes alone, as ``OpTotals.tier_deltas``
    # (raw counts per (TierKind, medium)); empty without an engine
    method_traffic: dict = dc_field(default_factory=dict)


def ensure_kernel_registration(session: Session) -> None:
    for cls in kernel_classes():
        try:
            session.register_class(cls)
        except DuplicateError:
            pass
    for method in kernel_methods():
        try:
            session.register_method(method)
        except DuplicateError:
            session.remember_method(method)


def _digest(chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass
class _Run:
    """One application run: the run loop :meth:`run` plus the helpers the steps
    use. ``compute`` returns what :meth:`finish` digests. Kernels are looked
    up as module globals at call time, so they can be wrapped from outside
    (the traced benchmark does)."""

    app: ClassVar[str]
    class_name: ClassVar[str]

    session: Session
    engine: Engine | None
    mode: str
    tier: TierKind
    seed: int
    profile: dict
    result: str = RESULT_VALUE
    assemble: bool = True
    reuse: int = dc_field(default=1, init=False)  # method reads per input without an engine
    phases: dict[str, int] = dc_field(default_factory=dict, init=False)
    invocations: int = dc_field(default=0, init=False)
    passive_ns: int = dc_field(default=0, init=False)

    def __post_init__(self) -> None:
        """Per-application setup from ``profile``; runs before any phase."""

    @property
    def active(self) -> bool:
        return self.mode == MODE_ACTIVE

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter_ns()
        yield
        self.phases[name] = time.perf_counter_ns() - t0

    def invoke(self, oid: ObjectId, method: str, args=(), placement=ResultPlacement.value()):
        self.invocations += 1
        return self.session.invoke(oid, method, list(args), placement)

    def client(self, kernel, *args, invocation: bool = True):
        """Run ``kernel`` client-side, counting its time as method time; a
        per-block kernel counts as one invocation, a final merge as none."""
        t0 = time.perf_counter_ns()
        out = kernel(*args)
        self.passive_ns += time.perf_counter_ns() - t0
        self.invocations += invocation
        return out

    def finish(self, final) -> tuple[object, str, int, list[ObjectId]]:
        """(final, digest, output bytes, output ids) of a by-value result."""
        return final, _digest([encode_payload(final)]), final.values.nbytes, []

    def run(self) -> AppRunResult:
        ensure_kernel_registration(self.session)
        start = self.engine.op_totals()["invoke"] if self.engine else None
        with self.phase("generate"):
            blocks = self.generate()
        with self.phase("persist"):
            ids = [self.session.make_persistent(self.class_name, b, self.tier) for b in blocks]
            sizes = [b.values.nbytes for b in blocks]
            del blocks
        with self.phase("compute"):
            out = self.compute(ids)
        final, digest, output_bytes, output_ids = self.finish(out)

        dataset_bytes = sum(sizes)
        method_input, method_ns = self.reuse * dataset_bytes, self.passive_ns
        method_traffic: dict = {}
        if self.engine is not None:
            counts = self.engine.read_counts()
            method_input = sum(counts.get(oid, 0) * size for oid, size in zip(ids, sizes))
            invokes = self.engine.op_totals()["invoke"].since(start)
            method_ns += invokes.method_ns
            method_traffic = invokes.tier_deltas
        return AppRunResult(
            app=self.app,
            mode=self.mode,
            tier=self.tier,
            final=final,
            output_digest=digest,
            dataset_bytes=dataset_bytes,
            output_bytes=output_bytes,
            invocations=self.invocations,
            method_input_bytes=method_input,
            method_total_ns=method_ns,
            input_ids=ids,
            output_ids=output_ids,
            phases=self.phases,
            method_traffic=method_traffic,
        )


class _Histogram(_Run):
    app = "histogram"
    class_name = HIST_CLASS

    def generate(self):
        p = self.profile
        return gen_f_array(self.seed, p["n_elems"], block_elems=p["block_elems"])

    def compute(self, ids):
        if self.active:
            return merge_histograms([self.invoke(oid, "histogram") for oid in ids])
        partials = [self.client(histogram_block, self.session.get(oid)) for oid in ids]
        return self.client(merge_histograms, partials, invocation=False)


class _KMeans(_Run):
    app = "kmeans"
    class_name = POINTS_CLASS

    def __post_init__(self):
        self.spec = self.profile.get("kmeans_spec") or KMeansSpec()
        self.reuse = self.spec.iterations

    def generate(self):
        spec, p = self.spec, self.profile
        blocks = gen_points(self.seed, p["n_points"], spec.dims, p["block_rows"])
        self.centroids = initial_centroids(blocks, spec.centers)
        return blocks

    def compute(self, ids):
        spec, centroids = self.spec, self.centroids
        if not self.active:
            for _ in range(spec.iterations):
                partials = [
                    self.client(kmeans_partial, self.session.get(oid), centroids) for oid in ids
                ]
                centroids = self.client(kmeans_reduce, partials, centroids, invocation=False)
            return centroids
        # the centroids stay in a DRAM object from one iteration to the next,
        # so each accumulate names them instead of carrying them
        zeros = PointsBlock(np.zeros(spec.partial_shape))
        cid = self.session.make_persistent(POINTS_CLASS, centroids, TierKind.DRAM)
        for _ in range(spec.iterations):
            acc = self.session.make_persistent(POINTS_CLASS, zeros, TierKind.DRAM)
            for oid in ids:
                self.invoke(acc, "accumulate", [oid, cid])
            new_cid = self.invoke(acc, "finish", [cid], ResultPlacement.volatile())
            self.session.delete(acc)
            self.session.delete(cid)
            cid = new_cid
        centroids = self.session.get(cid)
        self.session.delete(cid)
        return centroids


class _Matrix(_Run):
    """Shared by matrix addition and multiplication: the A and B grids are
    persisted block by block in row-major order, A first; ``compute`` returns
    the result blocks as (by-value blocks, stored ids), keyed by grid cell."""

    class_name = MATRIX_CLASS

    def __post_init__(self):
        self.desc: MatrixDescriptor = self.profile["matrix"]
        g = self.desc.grid
        self.cells = [(r, c) for r in range(g) for c in range(g)]

    def generate(self):
        a, b = (gen_matrix(self.seed, self.desc, which) for which in (0, 1))
        return [grid[rc] for grid in (a, b) for rc in self.cells]

    def grids(self, ids: list[ObjectId]) -> tuple[dict, dict]:
        n = len(self.cells)
        return dict(zip(self.cells, ids[:n])), dict(zip(self.cells, ids[n:]))

    def finish(self, out):
        values, stored = out
        final, chunks = None, []
        with self.phase("collect"):
            if self.assemble:
                blocks = {
                    rc: values[rc] if rc in values else self.session.get(stored[rc])
                    for rc in self.cells
                }
                chunks = [blocks[rc].data_view() for rc in self.cells]
                final = assemble_matrix(blocks, self.desc)
        output_ids = [stored[rc] for rc in self.cells if rc in stored]
        digest = _digest(chunks) if chunks else ""
        return final, digest, self.desc.n * self.desc.n * 8, output_ids


class _MatAdd(_Matrix):
    app = "matadd"

    def __post_init__(self):
        super().__post_init__()
        placements = {
            RESULT_VALUE: ResultPlacement.value(),
            RESULT_VOLATILE: ResultPlacement.volatile(),
            RESULT_STORE: ResultPlacement.store_in(self.tier),
        }
        if self.result not in placements:
            raise InvalidRequestError(f"matrix addition has no result placement {self.result!r}")
        self.placement = placements[self.result]

    def compute(self, ids):
        a, b = self.grids(ids)
        values, stored = {}, {}
        for rc in self.cells:
            if self.active:
                got = self.invoke(a[rc], "add", [b[rc]], self.placement)
                (stored if isinstance(got, ObjectId) else values)[rc] = got
                continue
            values[rc] = self.client(
                matadd_block, self.session.get(a[rc]), self.session.get(b[rc])
            )
            if self.result == RESULT_STORE:
                stored[rc] = self.session.make_persistent(MATRIX_CLASS, values[rc], self.tier)
        return values, stored


class _MatMul(_Matrix):
    app = "matmul"

    def __post_init__(self):
        if self.result == RESULT_INPLACE_FMA and not self.active:
            raise InvalidRequestError("in-place FMA is an active-store execution mode")
        super().__post_init__()
        self.reuse = self.desc.grid

    def compute(self, ids):
        a, b = self.grids(ids)
        k, grid = self.desc.k, self.desc.grid
        steps = [((i, j), a[(i, t)], b[(t, j)]) for i, j in self.cells for t in range(grid)]
        if not self.active:
            accs = {rc: np.zeros((k, k)) for rc in self.cells}
            for rc, a_id, b_id in steps:
                pa, pb = self.session.get(a_id), self.session.get(b_id)
                accs[rc] = self.client(fma_values, accs[rc], pa.values, pb.values)
            values = {rc: Submatrix(acc) for rc, acc in accs.items()}
            stored = {}
            if self.result == RESULT_STORE:
                for rc in self.cells:
                    stored[rc] = self.session.make_persistent(MATRIX_CLASS, values[rc], self.tier)
            return values, stored

        acc_tier = self.tier if self.result == RESULT_INPLACE_FMA else TierKind.DRAM
        zeros = Submatrix(np.zeros((k, k)))
        accs = {
            rc: self.session.make_persistent(MATRIX_CLASS, zeros, acc_tier) for rc in self.cells
        }
        for rc, a_id, b_id in steps:
            self.invoke(accs[rc], "fma", [a_id, b_id])
        if self.result == RESULT_STORE:
            stored, placement = {}, ResultPlacement.store_in(self.tier)
            for rc in self.cells:
                stored[rc] = self.invoke(accs[rc], "identity", [], placement)
                self.session.delete(accs[rc])
            return {}, stored
        if self.result == RESULT_VALUE:
            values = {rc: self.session.get(acc) for rc, acc in accs.items()}
            for acc in accs.values():
                self.session.delete(acc)
            return values, {}
        return {}, accs  # volatile or inplace_fma: results stay where they were computed


_APPS: dict[str, type[_Run]] = {
    "histogram": _Histogram,
    "kmeans": _KMeans,
    "matadd": _MatAdd,
    "matmul": _MatMul,
}


def run_app(
    app: str,
    mode: str,
    session: Session,
    *,
    seed: int,
    tier: TierKind,
    profile: dict,
    result: str = RESULT_VALUE,
    engine: Engine | None = None,
    assemble: bool = True,
) -> AppRunResult:
    """One full application run. ``profile`` holds the sizes: ``n_elems`` and
    ``block_elems`` (histogram); ``n_points``, ``block_rows`` and optional
    ``kmeans_spec`` (k-means); ``matrix``, a :class:`MatrixDescriptor`
    (matrix apps). ``result`` and ``assemble`` apply to the matrix apps only.

    With ``engine``, method input bytes come from its per-object read counts,
    and its invoke totals over the run (the difference of two
    :meth:`Engine.op_totals` snapshots) add their method time to the method
    time and give ``method_traffic``; without it, method input is the reuse
    factor times the dataset, method time is client-side only and
    ``method_traffic`` is empty."""
    if mode not in (MODE_ACTIVE, MODE_PASSIVE):
        raise InvalidRequestError(f"unknown mode {mode!r}")
    if app not in _APPS:
        raise InvalidRequestError(f"unknown app {app!r}")
    return _APPS[app](session, engine, mode, tier, seed, profile, result, assemble).run()

