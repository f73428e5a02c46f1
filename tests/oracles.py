"""Independent reference implementations used to check the store's kernels.

Everything here deliberately avoids the code paths under test: scalar loops,
bisect-based binning, naive distance evaluation, and a pure-Python triple-loop
matrix product. The one exception is :func:`kmeans_partial_oracle`, a former
implementation kept as the reference that the k-means partial sums must match
bit for bit. Its expanded expression, ``np.sum(p*p) - 2 p @ c.T + np.sum(c*c)``
evaluated in that order, is the reference that the kernel's assignment is
certified against: the kernel ranks centers without the row norm and proves,
row by row, that this expression picks the same center, or evaluates it.
"""

from __future__ import annotations

import bisect

import numpy as np


def histogram_oracle(values, edges) -> list[int]:
    """Linear scan with bisect; bin i is [edge_i, edge_{i+1}), last bin open."""
    edges = list(edges)
    counts = [0] * (len(edges) + 1)
    for x in values:
        counts[bisect.bisect_right(edges, x)] += 1
    return counts


def lloyd_oracle(points: np.ndarray, centers: int, iterations: int) -> np.ndarray:
    """Monolithic single-threaded Lloyd iteration.

    Initial centroids are the first `centers` points; assignment uses naive
    (p - c)^2 distances per point, ties to the lowest index; empty clusters
    keep their previous centroid. Sums accumulate point by point in dataset
    order.
    """
    n, dims = points.shape
    centroids = np.array(points[:centers], copy=True)
    for _ in range(iterations):
        sums = np.zeros((centers, dims))
        counts = np.zeros(centers, dtype=np.int64)
        for i in range(n):
            deltas = points[i] - centroids
            d2 = np.einsum("kd,kd->k", deltas, deltas)
            j = int(np.argmin(d2))
            sums[j] += points[i]
            counts[j] += 1
        for j in range(centers):
            if counts[j] > 0:
                centroids[j] = sums[j] / counts[j]
    return centroids


def kmeans_partial_oracle(points: np.ndarray, centroids: np.ndarray):
    """(sums, counts) of one k-means block, one weighted bincount per dimension.

    The assignment is the argmin of the expanded squared distances, ties to the
    lowest index, which the kernel certifies its own against; bincount then
    adds each center's coordinates one point at a time in row order, starting
    from 0.0.
    """
    d2 = (
        np.sum(points * points, axis=1, keepdims=True)
        - 2.0 * (points @ centroids.T)
        + np.sum(centroids * centroids, axis=1)
    )
    assign = np.argmin(d2, axis=1)
    k = centroids.shape[0]
    counts = np.bincount(assign, minlength=k).astype(np.uint64)
    sums = np.empty((k, points.shape[1]))
    for dim in range(points.shape[1]):
        sums[:, dim] = np.bincount(assign, weights=points[:, dim], minlength=k)
    return sums, counts


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop, ascending inner index, pure Python accumulation."""
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        row = a[i]
        for j in range(n):
            acc = 0.0
            col = b[:, j]
            for t in range(n):
                acc += row[t] * col[t]
            out[i, j] = acc
    return out


class LruModel:
    """Whole-object LRU cache model mirroring the Memory-Mode contract.

    Replays store/read/write/flush events and predicts the NVM/DRAM counter
    vectors (bytes_read, bytes_written, cache_hits, cache_misses, read_ops,
    write_ops) that the real tier must report.
    """

    def __init__(self, cache_capacity: int):
        self.cap = cache_capacity
        self.order: list = []  # least recently used first
        self.sizes: dict = {}
        self.dirty: dict = {}
        self.cached: set = set()
        self.nvm = [0, 0, 0, 0, 0, 0]
        self.dram = [0, 0, 0, 0, 0, 0]

    def _touch(self, key) -> None:
        self.order.remove(key)
        self.order.append(key)

    def _evict_for(self, incoming: int) -> None:
        used = sum(self.sizes[k] for k in self.cached)
        while self.cached and used + incoming > self.cap:
            victim = next(k for k in self.order if k in self.cached)
            self.order.remove(victim)
            self.cached.discard(victim)
            used -= self.sizes[victim]
            if self.dirty.get(victim):
                self.nvm[1] += self.sizes[victim]
                self.nvm[5] += 1
                self.dirty[victim] = False

    def _fill(self, key) -> None:
        size = self.sizes[key]
        self.nvm[0] += size
        self.nvm[4] += 1
        self.dram[1] += size
        self.dram[5] += 1
        self.dram[3] += 1
        if size <= self.cap:
            self._evict_for(size)
            self.cached.add(key)
            self.order.append(key)

    def store(self, key, size: int) -> None:
        self.sizes[key] = size
        self.dirty[key] = False
        self.nvm[1] += size
        self.nvm[5] += 1

    def read(self, key) -> None:
        size = self.sizes[key]
        if key in self.cached:
            self.dram[2] += 1
            self._touch(key)
        else:
            self._fill(key)
        self.dram[0] += size
        self.dram[4] += 1

    def write(self, key, nbytes: int) -> None:
        if key in self.cached:
            self.dram[2] += 1
            self._touch(key)
            self.dirty[key] = True
        else:
            self._fill(key)
            if key in self.cached:
                self.dirty[key] = True
            else:
                self.nvm[1] += nbytes
                self.nvm[5] += 1
        self.dram[1] += nbytes
        self.dram[5] += 1

    def flush(self) -> None:
        for key in self.order:
            if key in self.cached and self.dirty.get(key):
                self.nvm[1] += self.sizes[key]
                self.nvm[5] += 1
                self.dirty[key] = False
