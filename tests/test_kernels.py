from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aostore import kernels
from aostore.errors import InvalidRequestError, ShapeMismatchError
from aostore.kernels import (
    MatrixDescriptor,
    assemble_matrix,
    fma_values,
    gen_f_array,
    gen_matrix,
    gen_points,
    histogram_block,
    histogram_edges,
    initial_centroids,
    kmeans_partial,
    kmeans_reduce,
    matadd_block,
    merge_histograms,
)
from aostore.model import Centroids, FloatArray, Histogram, PointsBlock, Submatrix

from .oracles import histogram_oracle, kmeans_partial_oracle, lloyd_oracle, matmul_oracle


class TestGenerators:
    def test_f_array_non_negative(self):
        blocks = gen_f_array(1, 5000, block_elems=1024)
        assert all(np.all(b.values >= 0) for b in blocks)

    def test_f_array_deterministic(self):
        a = gen_f_array(9, 4096, block_elems=512)
        b = gen_f_array(9, 4096, block_elems=512)
        assert all(x == y for x, y in zip(a, b))

    def test_f_array_block_split(self):
        blocks = gen_f_array(3, 10_000, block_elems=4096)
        assert [b.element_count for b in blocks] == [4096, 4096, 1808]

    def test_f_mean_matches_analytic_within_one_percent(self):
        # F(d1, d2) has mean d2 / (d2 - 2)
        blocks = gen_f_array(2024, 10**6, block_elems=1 << 18)
        total = sum(float(b.values.sum()) for b in blocks)
        mean = total / 10**6
        analytic = 50.0 / 48.0
        assert abs(mean - analytic) / analytic < 0.01

    def test_points_in_unit_cube_and_shapes(self):
        blocks = gen_points(5, 1000, 16, 256)
        assert [b.rows for b in blocks] == [256, 256, 256, 232]
        assert all(b.dims == 16 for b in blocks)
        for b in blocks:
            assert np.all(b.values >= 0) and np.all(b.values < 1)

    def test_points_deterministic(self):
        assert gen_points(7, 300, 4, 100) == gen_points(7, 300, 4, 100)

    def test_matrix_grid_count_and_assembly(self):
        desc = MatrixDescriptor(24, 6)
        blocks = gen_matrix(11, desc)
        assert len(blocks) == desc.grid**2 == 16
        dense = assemble_matrix(blocks, desc)
        for r in range(desc.grid):
            for c in range(desc.grid):
                regen = np.random.default_rng([11, 0, r, c]).uniform(-1.0, 1.0, (6, 6))
                assert np.array_equal(dense[r * 6 : r * 6 + 6, c * 6 : c * 6 + 6], regen)

    def test_matrix_divisibility_enforced(self):
        with pytest.raises(InvalidRequestError):
            MatrixDescriptor(10, 3)


class TestHistogram:
    def test_spec_covers_zero_to_infinity(self):
        edges = histogram_edges()
        assert len(edges) + 1 == 140
        assert len(edges) == 139
        assert edges[0] == 2.0**-7 and edges[-1] == 2.0**6
        assert np.all(np.diff(edges) > 0)

    def test_empty_block_all_zero(self):
        h = histogram_block(FloatArray([]))
        assert h.counts.sum() == 0 and len(h.counts) == 140

    def test_values_below_first_edge_land_in_bin_zero(self):
        h = histogram_block(FloatArray(np.full(17, 2.0**-9)))
        assert h.counts[0] == 17 and h.counts.sum() == 17

    def test_open_last_bin(self):
        h = histogram_block(FloatArray([1e12, 65.0]))
        assert h.counts[-1] == 2

    def test_boundary_value_goes_right(self):
        h = histogram_block(FloatArray([float(histogram_edges()[0])]))
        assert h.counts[1] == 1  # edge_1 <= x < edge_2

    def test_random_block_matches_linear_scan_oracle(self):
        block = gen_f_array(31, 20_000, block_elems=20_000)[0]
        ours = histogram_block(block)
        oracle = histogram_oracle(block.values.tolist(), histogram_edges().tolist())
        assert ours.counts.tolist() == oracle

    def test_nan_rejected(self):
        with pytest.raises(InvalidRequestError, match="NaN"):
            histogram_block(FloatArray([1.0, float("nan")]))

    def test_conservation(self):
        block = gen_f_array(8, 5000, block_elems=5000)[0]
        assert histogram_block(block).counts.sum() == 5000

    def test_merge_identity_and_commutativity(self):
        a = histogram_block(gen_f_array(1, 1000, block_elems=1000)[0])
        zero = Histogram(np.zeros(140, dtype=np.uint64))
        assert merge_histograms([a, zero]) == a
        b = histogram_block(gen_f_array(2, 1000, block_elems=1000)[0])
        assert merge_histograms([a, b]) == merge_histograms([b, a])

    def test_merge_width_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            merge_histograms([Histogram(np.zeros(3, dtype=np.uint64)),
                              Histogram(np.zeros(4, dtype=np.uint64))])

    def test_blocked_merge_equals_monolithic(self):
        blocks = gen_f_array(77, 30_000, block_elems=4096)
        merged = merge_histograms([histogram_block(b) for b in blocks])
        whole = np.concatenate([b.values for b in blocks])
        assert merged == histogram_block(FloatArray(whole))


class TestKMeans:
    def test_point_on_centroid(self):
        cents = Centroids(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        block = PointsBlock(np.array([[3.0, 3.0]]))
        p = kmeans_partial(block, cents)
        assert p[:, -1].tolist() == [0, 0, 0, 1]
        assert np.array_equal(p[3, :-1], [3.0, 3.0])

    def test_equidistant_tie_goes_to_lowest_index(self):
        cents = Centroids(np.array([[0.0], [2.0]]))
        p = kmeans_partial(PointsBlock(np.array([[1.0]])), cents)
        assert p[:, -1].tolist() == [1, 0]

    def test_a_row_whose_own_norm_absorbs_the_gap_gets_the_reference_center(self):
        # |p|**2 = 1e16 swallows the 1e-8 between the two centers' distances,
        # so the reference sees a tie and picks center 0, while cn - 2g alone
        # ranks center 1 first: only the bound sends this row to the exact path
        pts = np.array([[1e8, 0.0]])
        cents = np.array([[0.0, 1e-4], [0.0, 0.0]])
        assert np.argmin(np.sum(cents * cents, axis=1) - 2.0 * (pts @ cents.T)[0]) == 1
        p = kmeans_partial(PointsBlock(pts), Centroids(cents))
        sums, counts = kmeans_partial_oracle(pts, cents)
        assert p[:, -1].tolist() == counts.tolist() == [1, 0]
        assert np.array_equal(p[:, :-1], sums)

    def test_exact_path_runs_only_for_rows_the_bound_cannot_prove(self, monkeypatch):
        calls = []

        def counted(pts, cents, _fn=kernels._exact_assign):
            calls.append(pts.shape)
            return _fn(pts, cents)

        monkeypatch.setattr(kernels, "_exact_assign", counted)
        blocks = gen_points(5, 512, 500, 256)
        cents = initial_centroids(blocks, 20)
        for block in blocks:
            kmeans_partial(block, cents)
        assert calls == []
        kmeans_partial(PointsBlock(np.array([[1e8, 0.0]])), Centroids([[0.0, 1e-4], [0.0, 0.0]]))
        assert calls == [(1, 2)]
        kmeans_partial(PointsBlock(np.array([[1.0]])), Centroids([[0.0], [2.0]]))  # exact tie
        assert calls == [(1, 2), (1, 1)]

    def test_dims_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kmeans_partial(PointsBlock(np.zeros((2, 3))), Centroids(np.zeros((2, 4))))

    def test_partial_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        pts = rng.random((200, 12))
        cents = rng.random((5, 12))
        p = kmeans_partial(PointsBlock(pts), Centroids(cents))
        sums = np.zeros((5, 12))
        counts = np.zeros(5, dtype=np.int64)
        for row in pts:
            d2 = [(np.asarray(row - c) ** 2).sum() for c in cents]
            j = int(np.argmin(d2))
            sums[j] += row
            counts[j] += 1
        assert p[:, -1].tolist() == counts.tolist()
        rel = np.abs(p[:, :-1] - sums) / np.maximum(np.abs(sums), 1e-300)
        assert rel[counts > 0].max() < 1e-12

    def test_reduce_single_partial_single_point_clusters(self):
        sums = np.array([[2.0, 4.0], [6.0, 8.0]])
        counts = np.array([1.0, 1.0])
        prev = Centroids(np.zeros((2, 2)))
        out = kmeans_reduce([np.column_stack([sums, counts])], prev)
        assert np.array_equal(out.values, sums)

    def test_empty_cluster_keeps_previous(self):
        sums = np.array([[4.0], [0.0]])
        counts = np.array([2.0, 0.0])
        prev = Centroids(np.array([[9.0], [7.5]]))
        out = kmeans_reduce([np.column_stack([sums, counts])], prev)
        assert out.values.tolist() == [[2.0], [7.5]]

    def test_ten_iterations_match_monolithic_lloyd(self):
        # 200 points, 4 centers, 6 dims: blocked partial/reduce vs the oracle
        blocks = gen_points(13, 200, 6, 64)
        dense = np.vstack([b.values for b in blocks])
        cents = initial_centroids(blocks, 4)
        for _ in range(10):
            partials = [kmeans_partial(b, cents) for b in blocks]
            cents = kmeans_reduce(partials, cents)
        oracle = lloyd_oracle(dense, 4, 10)
        rel = np.abs(cents.values - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() < 1e-9

    def test_assignment_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(17)
        pts = rng.random((64, 5))
        cents = rng.random((6, 5))
        base = kmeans_partial(PointsBlock(pts), Centroids(cents))
        scaled = kmeans_partial(PointsBlock(pts * 8.0), Centroids(cents * 8.0))
        assert base[:, -1].tolist() == scaled[:, -1].tolist()

    def test_centroids_are_convex_combinations(self):
        blocks = gen_points(3, 500, 4, 100)
        cents = initial_centroids(blocks, 8)
        partials = [kmeans_partial(b, cents) for b in blocks]
        out = kmeans_reduce(partials, cents)
        assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)


class TestMatrixOps:
    def test_add_zero_identity_bit_exact(self):
        rng = np.random.default_rng(1)
        a = Submatrix(rng.random((8, 8)))
        zero = Submatrix(np.zeros((8, 8)))
        assert matadd_block(a, zero).data_view() == a.data_view()

    def test_add_commutes_bit_exactly(self):
        rng = np.random.default_rng(2)
        a, b = Submatrix(rng.random((16, 16))), Submatrix(rng.random((16, 16)))
        assert matadd_block(a, b).data_view() == matadd_block(b, a).data_view()

    def test_add_matches_scalar_oracle_bit_exactly(self):
        rng = np.random.default_rng(3)
        av, bv = rng.random((16, 16)), rng.random((16, 16))
        ours = matadd_block(Submatrix(av), Submatrix(bv)).values
        for i in range(16):
            for j in range(16):
                assert ours[i, j] == av[i, j] + bv[i, j]

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matadd_block(Submatrix(np.zeros((2, 2))), Submatrix(np.zeros((3, 3))))

    def test_fma_scalar_case(self):
        out = fma_values(np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]]))
        assert out[0, 0] == 14.0

    def test_fma_identity(self):
        rng = np.random.default_rng(4)
        b = rng.random((6, 6))
        out = fma_values(np.zeros((6, 6)), np.eye(6), b)
        assert np.array_equal(out, b)

    def test_fma_returns_a_new_array_and_leaves_inputs_alone(self):
        # The engine writes an in-place FMA back through the tier's counted
        # write path; a kernel that wrote into a tier view would move bytes
        # that no counter sees. Read-only inputs make any such write raise.
        rng = np.random.default_rng(5)
        acc, a, b = (rng.uniform(-1.0, 1.0, (16, 16)) for _ in range(3))
        before = [x.copy() for x in (acc, a, b)]
        for x in (acc, a, b):
            x.flags.writeable = False
        out = fma_values(acc, a, b)
        for x, x0 in zip((acc, a, b), before):
            assert np.array_equal(x.view(np.uint64), x0.view(np.uint64))
            assert not np.shares_memory(out, x)

    def test_blocked_product_matches_naive_oracle(self):
        desc = MatrixDescriptor(24, 8)
        a_blocks = gen_matrix(6, desc, 0)
        b_blocks = gen_matrix(6, desc, 1)
        accs = {
            (i, j): np.zeros((desc.k, desc.k))
            for i in range(desc.grid)
            for j in range(desc.grid)
        }
        for i in range(desc.grid):
            for j in range(desc.grid):
                for t in range(desc.grid):
                    accs[(i, j)] = fma_values(
                        accs[(i, j)], a_blocks[(i, t)].values, b_blocks[(t, j)].values
                    )
        blocked = assemble_matrix({rc: Submatrix(v) for rc, v in accs.items()}, desc)
        dense_a = assemble_matrix(a_blocks, desc)
        dense_b = assemble_matrix(b_blocks, desc)
        oracle = matmul_oracle(dense_a, dense_b)
        rel = np.abs(blocked - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() < 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(1, 64))
@settings(max_examples=25)
def test_histogram_conservation_property(seed, n):
    block = gen_f_array(seed, n, block_elems=n)[0]
    assert int(histogram_block(block).counts.sum()) == n


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_merge_decomposition_property(seed):
    blocks = gen_f_array(seed, 300, block_elems=64)
    merged = merge_histograms([histogram_block(b) for b in blocks])
    whole = FloatArray(np.concatenate([b.values for b in blocks]))
    assert merged == histogram_block(whole)


@given(
    rows=st.integers(1, 300),
    dims=st.integers(1, 40),
    centers=st.integers(1, 25),
    far_center=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=300, dims=1, centers=1, far_center=False, seed=1)  # one column, one center
@example(rows=300, dims=1, centers=20, far_center=False, seed=2)
@example(rows=3, dims=6, centers=25, far_center=False, seed=3)  # fewer rows than centers
@example(rows=200, dims=40, centers=25, far_center=True, seed=4)  # an empty center
def test_partial_sums_bit_identical_to_bincount_reference(rows, dims, centers, far_center, seed):
    rng = np.random.default_rng(seed)
    # mixed magnitudes make a change of summation order show in the last bits
    pts = rng.normal(size=(rows, dims)) * 10.0 ** rng.integers(-3, 4, size=(rows, dims))
    pts[rng.random((rows, dims)) < 0.05] = -0.0
    cents = rng.normal(size=(centers, dims))
    if far_center and centers > 1:
        cents[-1] = 1e9  # nearest to no point
    got = kmeans_partial(PointsBlock(pts), Centroids(cents))
    sums, counts = kmeans_partial_oracle(pts, cents)
    assert np.array_equal(got[:, -1], counts)
    # compared as bit patterns, so the sign of a zero sum counts too
    assert np.array_equal(got[:, :-1].view(np.uint64), sums.view(np.uint64))


@st.composite
def near_a_bisector(draw):
    """(points, centers): a few points of norm 1e4 to 1e8, each put on the
    bisector of two drawn centers and moved off it by less than the rounding
    of its squared norm, among points of norm about 1. The two centers'
    distances to such a point then differ by less than the reference
    expression can resolve once it adds the norm, while ``cn - 2g`` alone
    still ranks them: only the bound sends the point to the exact path."""
    dims = draw(st.integers(2, 12))
    centers = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cents = rng.normal(size=(centers, dims))
    rows = [rng.normal(size=(draw(st.integers(0, 20)), dims))]
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.lists(st.integers(0, centers - 1), min_size=2, max_size=2, unique=True))
        d = cents[b] - cents[a]
        across = rng.normal(size=dims)
        across -= (across @ d) / (d @ d) * d  # along the bisector
        norm = 10.0 ** draw(st.floats(4, 8))
        p = (cents[a] + cents[b]) / 2 + across * (norm / np.linalg.norm(across))
        # moving p by s along d changes the difference of the two squared
        # distances by 2 s |d|; keep that below one ulp of |p|**2
        s = draw(st.floats(-1, 1)) * np.spacing(p @ p) / (2 * np.linalg.norm(d))
        rows.append([p + s * d / np.linalg.norm(d)])
    pts = np.vstack(rows)
    return pts[rng.permutation(len(pts))], cents


@given(near_a_bisector())
def test_rows_near_a_bisector_get_the_reference_center(block):
    pts, cents = block
    got = kmeans_partial(PointsBlock(pts), Centroids(cents))
    sums, counts = kmeans_partial_oracle(pts, cents)
    assert np.array_equal(got[:, -1], counts)
    assert np.array_equal(got[:, :-1].view(np.uint64), sums.view(np.uint64))


@given(
    rows=st.integers(1, 40),
    dims=st.integers(1, 12),
    centers=st.integers(1, 8),
    in_points=st.booleans(),
    nan=st.booleans(),
    infs=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1, dims=1, centers=1, in_points=True, nan=True, infs=0, seed=0)
@example(rows=5, dims=3, centers=2, in_points=False, nan=True, infs=0, seed=1)
@example(rows=4, dims=3, centers=2, in_points=True, nan=False, infs=6, seed=2)
def test_nan_in_any_input_is_rejected_and_infinities_are_not(
    rows, dims, centers, in_points, nan, infs, seed
):
    # the kernel finds NaN through the row norms it computes anyway: a norm is
    # NaN exactly when its row holds a NaN, whatever infinities sit beside it
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(rows, dims))
    cents = rng.normal(size=(centers, dims))
    for _ in range(infs):
        where = pts if rng.random() < 0.5 else cents
        where[tuple(rng.integers(0, n) for n in where.shape)] = rng.choice([np.inf, -np.inf])
    if nan:
        where = pts if in_points else cents
        where[tuple(rng.integers(0, n) for n in where.shape)] = np.nan
    with np.errstate(all="ignore"):  # infinities make inf - inf in the distances
        if nan:
            with pytest.raises(InvalidRequestError, match="NaN"):
                kmeans_partial(PointsBlock(pts), Centroids(cents))
        else:
            got = kmeans_partial(PointsBlock(pts), Centroids(cents))
            sums, counts = kmeans_partial_oracle(pts, cents)
            assert np.array_equal(got[:, -1], counts)
            assert np.array_equal(got[:, :-1], sums, equal_nan=True)
