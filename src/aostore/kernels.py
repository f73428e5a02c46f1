"""The four kernel applications as routine-catalog entries plus generators.

histogram     -- 140 fixed bins over [0, inf) on F-distributed arrays
k-means       -- Lloyd iterations, 20 centers. A block's partial is the
                 (centers, dims + 1) array the store keeps: each center's
                 sums, accumulated in row order, then its count.
                 ``accumulate`` adds it onto a stored accumulator; the active
                 run names its centroids, kept in a DRAM object, by reference.
                 A point goes to the center the expanded squared distance
                 ``|p|^2 - 2 p.c + |c|^2`` picks; the kernel ranks centers
                 without the ``|p|^2`` term and keeps that ranking where a
                 rounding-error bound proves it the same, else it evaluates
                 the full expression for the block (see ``kmeans_partial``)
matrix add    -- elementwise sum of k x k submatrix blocks, bit exact
matrix mul    -- blocked multiply-accumulate, one BLAS product per block:
                 active, in-place and passive executions call the same
                 deterministic kernel, so with a fixed BLAS thread count they
                 agree bit for bit; against the ascending-index oracle the
                 product holds within a relative error of 1e-9.

Dataset generators are pure functions of (seed, shape); no external files.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .engine import Routine, RoutineCatalog
from .errors import InvalidRequestError, ShapeMismatchError
from .model import (
    BlockPayload,
    Centroids,
    ClassDescriptor,
    FloatArray,
    Histogram,
    MethodDescriptor,
    PointsBlock,
    SEM_CENTROIDS,
    SEM_FLOAT_ARRAY,
    SEM_HISTOGRAM,
    SEM_NONE,
    SEM_POINTS,
    SEM_SCALAR,
    SEM_SUBMATRIX,
    Submatrix,
)

HIST_CLASS = "HistBlock"
POINTS_CLASS = "PointsChunk"
MATRIX_CLASS = "MatBlock"

F_D1 = 10.0
F_D2 = 50.0


@dataclass(frozen=True)
class KMeansSpec:
    centers: int = 20
    iterations: int = 10
    dims: int = 500

    def __post_init__(self) -> None:
        if self.centers < 1 or self.iterations < 1 or self.dims < 1:
            raise InvalidRequestError("k-means needs centers, iterations, dims >= 1")

    @property
    def partial_shape(self) -> tuple[int, int]:
        return (self.centers, self.dims + 1)  # each center's sums, then its count


@dataclass(frozen=True)
class MatrixDescriptor:
    """n x n matrix held as a grid of k x k submatrix objects."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n <= 0 or self.k <= 0 or self.n % self.k != 0:
            raise InvalidRequestError(
                f"submatrix side {self.k} must divide matrix side {self.n}"
            )

    @property
    def grid(self) -> int:
        return self.n // self.k


# -- generators -------------------------------------------------------------


def gen_f_array(seed: int, n: int, block_elems: int = 1 << 17) -> list[FloatArray]:
    """Blocked F(F_D1, F_D2) sample via a ratio of seeded chi-square draws."""
    if n <= 0 or block_elems <= 0:
        raise InvalidRequestError("n and block_elems must be positive")
    rng = np.random.default_rng(seed)
    blocks = []
    remaining = n
    while remaining > 0:
        size = min(block_elems, remaining)
        num = rng.chisquare(F_D1, size) / F_D1
        den = rng.chisquare(F_D2, size) / F_D2
        blocks.append(FloatArray(num / den))
        remaining -= size
    return blocks


def gen_points(seed: int, n_points: int, dims: int, block_rows: int) -> list[PointsBlock]:
    """Blocked uniform [0,1) point cloud."""
    if n_points <= 0 or dims <= 0 or block_rows <= 0:
        raise InvalidRequestError("n_points, dims and block_rows must be positive")
    rng = np.random.default_rng(seed)
    blocks = []
    remaining = n_points
    while remaining > 0:
        rows = min(block_rows, remaining)
        blocks.append(PointsBlock(rng.random((rows, dims))))
        remaining -= rows
    return blocks


def gen_matrix(seed: int, desc: MatrixDescriptor, which: int = 0) -> dict[tuple[int, int], Submatrix]:
    """Grid of uniform [-1,1) blocks; block (r, c) is seeded independently so
    assembly can be checked against direct regeneration."""
    blocks = {}
    for r in range(desc.grid):
        for c in range(desc.grid):
            rng = np.random.default_rng([seed, which, r, c])
            blocks[(r, c)] = Submatrix(rng.uniform(-1.0, 1.0, (desc.k, desc.k)))
    return blocks


def assemble_matrix(blocks: dict[tuple[int, int], Submatrix], desc: MatrixDescriptor) -> np.ndarray:
    out = np.empty((desc.n, desc.n))
    for (r, c), block in blocks.items():
        out[r * desc.k : (r + 1) * desc.k, c * desc.k : (c + 1) * desc.k] = block.values
    return out


def initial_centroids(blocks: list[PointsBlock], centers: int) -> Centroids:
    """First `centers` points of the dataset, in block order."""
    rows = []
    needed = centers
    for block in blocks:
        take = min(needed, block.rows)
        rows.append(block.values[:take])
        needed -= take
        if needed == 0:
            break
    if needed > 0:
        raise InvalidRequestError(f"dataset has fewer than {centers} points")
    return Centroids(np.vstack(rows))


# -- block operations ----------------------------------------------------------


@functools.cache
def histogram_edges() -> np.ndarray:
    """The 139 inner edges of the 140 bins spanning [0, inf): [0, e1),
    [e1, e2), ..., [e139, inf). Built on first use rather than at import,
    and read-only, since every caller shares the one array."""
    edges = np.geomspace(2.0**-7, 2.0**6, num=139)
    edges.flags.writeable = False
    return edges


def histogram_block(block: FloatArray) -> Histogram:
    values = block.values
    nan_mask = np.isnan(values)
    if nan_mask.any():
        idx = int(np.argmax(nan_mask))
        raise InvalidRequestError(f"histogram input contains NaN at index {idx}")
    edges = histogram_edges()
    bins = np.searchsorted(edges, values, side="right")
    counts = np.bincount(bins, minlength=len(edges) + 1).astype(np.uint64)
    return Histogram(counts)


def merge_histograms(histograms: list[Histogram]) -> Histogram:
    if not histograms:
        raise InvalidRequestError("nothing to merge")
    width = histograms[0].counts.shape[0]
    total = np.zeros(width, dtype=np.uint64)
    for h in histograms:
        if h.counts.shape[0] != width:
            raise ShapeMismatchError(
                f"histogram width mismatch: {h.counts.shape[0]} vs {width}"
            )
        total += h.counts
    return Histogram(total)


def kmeans_partial(block: PointsBlock, centroids: Centroids) -> np.ndarray:
    """Assign each point to the nearest centroid (squared Euclidean distance,
    ties to the lowest index) and accumulate per-center sums in row order into
    the packed partial: per center its sums, then its count (exact below 2**53).

    "Nearest" is what the reference expression ``fl(fl(pn - 2g) + cn)``
    picks, with ``pn = np.sum(p*p)``, ``g = p @ c.T`` and ``cn = np.sum(c*c)``
    (``tests/oracles.py::kmeans_partial_oracle``). A row's norm ``pn`` is the
    same for every center and matters only where rounding could change the
    order, so the centers are ranked by ``e = fl(cn - 2g)``, its products
    summed in any order. A row keeps its argmin of ``e`` when the gap between
    its two smallest ``e`` is strictly greater than the bound below, which
    proves that the reference picks the same center and no tie. If any row
    is not proven, :func:`_exact_assign` assigns the whole block.

    The bound. Let P, G_j and C_j be the exact ``|p|**2``, ``p.c_j`` and
    ``|c_j|**2``, n = dims, u = 2**-53 and gamma_k = k u / (1 - k u). A sum
    of n products in any order (pairwise, blocked as a GEMM does, with or
    without FMA) errs by at most gamma_n times the sum of the products'
    magnitudes (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3), and ``2 sum |p_i c_i| <= 2 |p||c| <= P + C`` (Cauchy-Schwarz).
    With the one or two roundings that follow,

        |reference_j - (P - 2 G_j + C_j)| <= gamma_{n+2} (2P + 2C_j)
        |e_j - (C_j - 2 G_j)|             <= gamma_{n+2} (P + 2C_j),

    so ``reference_j - P`` is within gamma_{n+2} (3P + 4C_j) of ``e_j``, and
    ``e_k - e_j > 8 gamma_{n+2} (P + max C)`` makes reference_k greater than
    reference_j. The kernel's bound is ``16 (n + 2) u (pn' + max cn') +
    2**-1000``, from the fast path's own ``pn' = vecdot(p, p)`` and
    ``cn' = vecdot(c, c)``: the factor 2 over 8 covers gamma's denominator
    and the rounding of pn', cn' and the bound (for any n below 2**50), and
    the absolute term covers products that underflow, by at most 2**-1075
    each (for any n below 2**68). The factor 16 is applied first, so a
    finite bound leaves every ``pn``, ``2g``, ``cn`` and every sum of them
    below overflow, and every ``e`` finite; an infinity in the input makes a
    norm, and with it the bound, infinite, so no row with a non-finite value
    is proven.
    """
    pts = block.values
    cents = centroids.values
    if pts.shape[1] != cents.shape[1]:
        raise ShapeMismatchError(
            f"dims mismatch: points have {pts.shape[1]}, centroids {cents.shape[1]}"
        )
    # A squared norm is NaN exactly when its row holds a NaN: NaN squared is
    # NaN, and a sum of non-negative terms and +inf never is. So the norms the
    # bound needs anyway stand in for a separate pass looking for NaN.
    pt_norms = np.vecdot(pts, pts)
    cent_norms = np.vecdot(cents, cents)
    if np.isnan(pt_norms).any() or np.isnan(cent_norms).any():
        raise InvalidRequestError("k-means input contains NaN")
    e = cents @ pts.T  # (centers, rows): e[j, i] = cn_j - 2 g_ij
    e *= -2.0
    e += cent_norms[:, None]
    assign = e.argmin(axis=0)
    rows = np.arange(len(assign))
    nearest = e.min(axis=0)
    e[assign, rows] = np.inf
    gap = e.min(axis=0) - nearest
    bound = (pt_norms + cent_norms.max()) * 16.0
    bound *= (pts.shape[1] + 2) * 2.0**-53
    bound += 2.0**-1000
    if not (gap > bound).all():
        assign = _exact_assign(pts, cents)
    k, dims = cents.shape
    counts = np.bincount(assign, minlength=k)
    order = np.argsort(assign, kind="stable")
    # Sum each center's rows in row order: numpy reduces a 2-d array over its
    # rows by adding one row after another to 0.0, so the rows are gathered
    # once, grouped by center, and each group reduced in place. A single
    # column numpy would sum pairwise, in another order, so that one case is
    # gathered into a buffer one zero column wider, up to the count column.
    if dims == 1:
        grouped = np.zeros((len(order), 2))
        grouped[:, 0] = pts[order, 0]
    else:
        grouped = pts.take(order, axis=0)
    partial = np.empty((k, dims + 1))
    start = 0
    for j, end in enumerate(np.cumsum(counts).tolist()):
        np.add.reduce(grouped[start:end], axis=0, out=partial[j, : grouped.shape[1]])
        start = end
    partial[:, dims] = counts
    return partial


def _exact_assign(pts: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Each row's nearest center by the reference expression itself, the same
    operations in the same order, so the same argmin bit for bit: the path
    for a block that :func:`kmeans_partial` cannot prove."""
    d2 = (
        np.sum(pts * pts, axis=1, keepdims=True)
        - 2.0 * (pts @ cents.T)
        + np.sum(cents * cents, axis=1)
    )
    return np.argmin(d2, axis=1)


def kmeans_reduce(partials: list[np.ndarray], previous: Centroids) -> Centroids:
    """Add packed partials in list order and divide each center's sums by its
    count; centers with no points keep their previous value."""
    if not partials:
        raise InvalidRequestError("nothing to reduce")
    shape = partials[0].shape
    total = np.zeros(shape)
    for p in partials:
        if p.shape != shape:
            raise ShapeMismatchError(f"partial shape mismatch: {p.shape} vs {shape}")
        total += p
    if previous.values.shape != (shape[0], shape[1] - 1):
        raise ShapeMismatchError(
            f"previous centroids shape {previous.values.shape} does not match partials {shape}"
        )
    out = np.array(previous.values, copy=True)
    counts = total[:, -1]
    occupied = counts > 0
    out[occupied] = total[occupied, :-1] / counts[occupied, None]
    return Centroids(out)


def matadd_block(a: Submatrix, b: Submatrix, out: np.ndarray | None = None) -> Submatrix:
    if a.k != b.k:
        raise ShapeMismatchError(f"submatrix side mismatch: {a.k} vs {b.k}")
    return Submatrix(np.add(a.values, b.values, out=out))


def copy_block(block: Submatrix, out: np.ndarray | None = None) -> Submatrix:
    out = np.empty_like(block.values) if out is None else out
    np.copyto(out, block.values)
    return Submatrix(out)


def fma_values(acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """acc + a @ b in a new array: one BLAS product, then one add.

    The inputs are never written, so an in-place FMA reaches its object only
    through the engine's counted write path.
    """
    if a.shape != b.shape or a.shape != acc.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(
            f"FMA needs equal square blocks, got {acc.shape}, {a.shape}, {b.shape}"
        )
    out = a @ b
    out += acc
    return out


# -- routine catalog -------------------------------------------------------------


def _accumulate(target: BlockPayload, args: list[BlockPayload]) -> np.ndarray:
    """Add the block's packed partial onto the packed accumulator: the same
    float adds ``kmeans_reduce`` makes, counts included."""
    block, centroids = args
    partial = kmeans_partial(block, centroids)
    if target.values.shape != partial.shape:
        raise ShapeMismatchError(
            f"accumulator shape {target.values.shape} does not match partial {partial.shape}"
        )
    partial += target.values
    return partial


# Each kernel method once, in registration order: (class, method, routine key,
# arg schema, result schema, mutates target, routine).
_METHODS = (
    (HIST_CLASS, "histogram", "hist.block", (), SEM_HISTOGRAM, False,
     lambda t, a: histogram_block(t)),
    (HIST_CLASS, "mean", "stat.mean", (), SEM_SCALAR, False,
     lambda t, a: FloatArray([float(np.mean(t.values))])),
    (POINTS_CLASS, "partial", "kmeans.partial", (SEM_CENTROIDS,), SEM_POINTS, False,
     lambda t, a: PointsBlock(kmeans_partial(t, a[0]))),
    (POINTS_CLASS, "accumulate", "kmeans.accumulate", (SEM_POINTS, SEM_CENTROIDS), SEM_NONE, True,
     _accumulate),
    (POINTS_CLASS, "finish", "kmeans.finish", (SEM_CENTROIDS,), SEM_CENTROIDS, False,
     lambda t, a: kmeans_reduce([t.values], a[0])),
    (MATRIX_CLASS, "add", "mat.add", (SEM_SUBMATRIX,), SEM_SUBMATRIX, False,
     lambda t, a, *, out=None: matadd_block(t, a[0], out)),
    (MATRIX_CLASS, "fma", "mat.fma", (SEM_SUBMATRIX, SEM_SUBMATRIX), SEM_NONE, True,
     lambda t, a: fma_values(t.values, a[0].values, a[1].values)),
    (MATRIX_CLASS, "identity", "mat.identity", (), SEM_SUBMATRIX, False,
     lambda t, a, *, out=None: copy_block(t, out)),
)
# (class, semantic of its one data field), in registration order
_CLASSES = (
    (HIST_CLASS, SEM_FLOAT_ARRAY),
    (POINTS_CLASS, SEM_POINTS),
    (MATRIX_CLASS, SEM_SUBMATRIX),
)


def build_catalog() -> RoutineCatalog:
    return RoutineCatalog([Routine(key, fn, mutates) for _, _, key, _, _, mutates, fn in _METHODS])


def kernel_classes() -> list[ClassDescriptor]:
    return [
        ClassDescriptor(cls, (("data", data),), tuple(m for c, m, *_ in _METHODS if c == cls))
        for cls, data in _CLASSES
    ]


def kernel_methods() -> list[MethodDescriptor]:
    return [MethodDescriptor(*row[:6]) for row in _METHODS]
