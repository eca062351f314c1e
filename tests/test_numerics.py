import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustfl import numerics
from robustfl.numerics import (
    SortedColumns,
    as_vector_set,
    gram_sq_dists,
    gram_sq_dists_with_copy,
    pairwise_sq_dists,
    sorted_slice_means,
    stable_head,
    tile_width,
    tiles,
    top_eigenpair,
)

from conftest import (
    column_matrices,
    finite_elements,
    gram_cases,
    in_blocks,
    in_tiles,
    merge_cases,
    multi_row_matrices,
    random_vector_set,
    scaled_matrices,
    single_block,
    tied_elements,
    tile_budgets,
)
from oracles import covariance_eigh, covariance_top_eigenvalue, naive_pairwise_sq_dists

# Past numpy's 8,192-element buffer, einsum reduces a tile of one pair in
# chunks, another order than a tile of two or more: a lone-pair tile shows.
BUFFERED_D = 9_000


def parent_pairwise_sq_dists(xs: np.ndarray) -> np.ndarray:
    """The whole-tensor expression every tiling reproduces bit for bit."""
    diffs = xs[:, None, :] - xs[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)


matrices = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 5).flatmap(lambda d: arrays(np.float64, (n, d), elements=finite_elements))
)


class TestVectorSetValidation:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="share one dimension"):
            as_vector_set([[1.0, 2.0], [3.0]])

    def test_rejects_single_vector(self):
        with pytest.raises(ValueError, match="matrix of row vectors"):
            as_vector_set([1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_vector_set([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector_set(np.empty((0, 3)))


class TestPairwiseSqDists:
    def test_x3_golden(self, x3):
        expected = np.array([[0.0, 27.0, 108.0], [27.0, 0.0, 27.0], [108.0, 27.0, 0.0]])
        np.testing.assert_array_equal(pairwise_sq_dists(x3), expected)

    def test_single_row(self):
        np.testing.assert_array_equal(pairwise_sq_dists([[5.0]]), [[0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_public_kernel_checks_its_input(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            pairwise_sq_dists([[1.0, bad], [0.0, 0.0]])

    def test_coincident_rows(self):
        np.testing.assert_array_equal(pairwise_sq_dists([[1.0, 2.0], [1.0, 2.0]]), np.zeros((2, 2)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = random_vector_set(rng)
            got = pairwise_sq_dists(xs)
            np.testing.assert_allclose(got, naive_pairwise_sq_dists(xs), rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(matrices)
    def test_symmetric_zero_diagonal(self, xs):
        d2 = pairwise_sq_dists(xs)
        assert np.array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)
        assert np.all(d2 >= 0.0)


class TestBlockedPairwiseSqDists:
    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, st.data())
    def test_blocks_equal_single_block(self, xs, data):
        n, d = xs.shape
        rows = data.draw(st.integers(1, n - 1), label="rows per block")
        blocked = in_blocks(pairwise_sq_dists, rows, n * d, xs)
        np.testing.assert_array_equal(blocked, single_block(pairwise_sq_dists, xs))
        np.testing.assert_array_equal(blocked, blocked.T)
        np.testing.assert_array_equal(np.diag(blocked), np.zeros(n))

    def test_budget_below_one_row_still_progresses(self):
        xs = np.random.default_rng(12).normal(size=(5, 3))
        np.testing.assert_array_equal(in_blocks(pairwise_sq_dists, 1, 1, xs), single_block(pairwise_sq_dists, xs))

    def test_wide_rows_in_uneven_blocks(self):
        xs = np.random.default_rng(13).normal(size=(9, 4099)) * 10.0
        for rows in (1, 2, 4):
            np.testing.assert_array_equal(
                in_blocks(pairwise_sq_dists, rows, 9 * 4099, xs), single_block(pairwise_sq_dists, xs)
            )


class TestTiles:
    @settings(deadline=None, max_examples=120)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 50), st.sampled_from([1, 2, 7, 64, 1 << 40]))
    def test_runs_cover_the_range_in_order_two_items_or_more(self, start, length, item_elements, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "TILE_ELEMENTS", budget)
            runs = tiles(start + length, item_elements, start)
            width = tile_width(item_elements)
        assert width == max(2, budget // item_elements)
        assert [i for run in runs for i in range(run.start, run.stop)] == list(range(start, start + length))
        sizes = [run.stop - run.start for run in runs]
        assert all(size == width for size in sizes[:-1])
        assert sizes == [1] if length == 1 else all(2 <= size <= width + 1 for size in sizes)


class TestTiledPairwiseSqDists:
    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, tile_budgets)
    def test_tiles_equal_parent_expression(self, xs, budget):
        tiled = in_tiles(pairwise_sq_dists, budget, xs)
        assert tiled.tobytes() == parent_pairwise_sq_dists(xs).tobytes()

    # n = 4 in two-pair runs merges row 1's lone trailing pair; 5 and 6 rows
    # in runs of 3 and 4 end rows in merged runs of 3 to 5 pairs.
    @pytest.mark.parametrize(
        "n, budget", [(4, 1), (4, 2 * BUFFERED_D), (5, 1), (5, 3 * BUFFERED_D), (6, 4 * BUFFERED_D)]
    )
    def test_rows_past_numpy_buffer(self, n, budget):
        xs = np.random.default_rng(15).normal(size=(n, BUFFERED_D))
        tiled = in_tiles(pairwise_sq_dists, budget, xs)
        assert tiled.tobytes() == parent_pairwise_sq_dists(xs).tobytes()


def assert_bound_covers_exact_kernel(xs: np.ndarray) -> None:
    """Past the block budget, the Gram form lies within its bound of the exact
    kernel wherever both are finite, and the bound is inf wherever either is not."""
    d2, err = in_tiles(gram_sq_dists, 1 << 40, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = pairwise_sq_dists(xs)
        both = np.isfinite(d2) & np.isfinite(exact)
        assert (np.abs(d2 - exact)[both] <= err[both]).all()
    assert np.isinf(err[~both]).all()
    assert not np.diag(d2).any() and not np.diag(err).any()


class TestGramSqDists:
    @pytest.mark.parametrize("name", list(gram_cases()))
    def test_bound_covers_exact_kernel(self, name):
        assert_bound_covers_exact_kernel(gram_cases()[name])

    @settings(deadline=None, max_examples=150)
    @given(scaled_matrices)
    def test_bound_covers_exact_kernel_on_random_sets(self, xs):
        assert_bound_covers_exact_kernel(xs)

    def test_bound_covers_exact_kernel_on_wide_rows(self):
        rng = np.random.default_rng(19)
        xs = rng.normal(size=50_890) + rng.normal(size=(33, 50_890)) * 0.01
        xs[30:] = xs[:30].mean(axis=0) - 1.5 * xs[:30].std(axis=0)
        assert_bound_covers_exact_kernel(xs)
        d2, err = gram_sq_dists(xs)
        assert err.max() < 1e-6 * np.median(d2)

    def test_one_piece_block_is_the_exact_matrix_with_a_zero_bound(self, x3):
        d2, err = gram_sq_dists(x3)
        assert d2.tobytes() == parent_pairwise_sq_dists(x3).tobytes() and not err.any()


def clustered_head(keys: np.ndarray, bounds: np.ndarray, exact, need: int) -> np.ndarray:
    """``stable_head`` with no shortcut for separated intervals: each row's head read off its clusters."""
    if not bounds.any():
        return np.argsort(keys, axis=-1, kind="stable")[..., :need]
    shape, (keys, bounds) = keys.shape, np.atleast_2d(keys, bounds)
    r, n = keys.shape
    with np.errstate(over="ignore", invalid="ignore"):
        unknown = ~np.isfinite(4.0 * (np.abs(keys) + bounds))
        lo = np.where(unknown, -np.inf, keys - bounds)
        hi = np.where(unknown, np.inf, keys + bounds)
    order = np.argsort(lo, axis=1, kind="stable")
    lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
    cluster = np.zeros((r, n), dtype=np.intp)
    np.cumsum(np.maximum.accumulate(hi, axis=1)[:, :-1] < lo[:, 1:], axis=1, out=cluster[:, 1:])
    size = np.bincount((cluster + n * np.arange(r)[:, None]).ravel(), minlength=r * n).reshape(r, n)
    redo = (cluster <= cluster[:, need - 1 : need]) & (np.take_along_axis(size, cluster, 1) > 1)
    redo &= np.take_along_axis(bounds, order, 1) != 0
    known = np.take_along_axis(keys, order, 1)
    if redo.any():
        known[redo] = exact(np.nonzero(redo)[0], order[redo])
    head = np.lexsort((order, known, cluster), axis=1)[:, :need]
    return np.take_along_axis(order, head, 1).reshape(*shape[:-1], need)


class TestStableHead:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 3), st.integers(1, 9), st.data())
    def test_equals_stable_argsort_of_exact_keys(self, r, n, data):
        # r = 0 draws one 1-D row of keys, r >= 1 an (r, n) block.
        shape = (r, n) if r else (n,)
        exact = data.draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.0, 2.5, 1e308, np.inf])))
        bounds = data.draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.25, 1.0, 3.0, np.inf])))
        offsets = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        need = data.draw(st.integers(1, n), label="need")
        with np.errstate(invalid="ignore"):
            keys = np.where(bounds == 0, exact, exact + offsets * bounds)
        block, asked = np.atleast_2d(exact), []

        def exact_keys(rows, positions):
            asked.extend(np.atleast_2d(bounds)[rows, positions])
            return block[rows, positions]

        got = stable_head(keys, bounds, exact_keys, need)
        np.testing.assert_array_equal(got, np.argsort(exact, axis=-1, kind="stable")[..., :need])
        assert all(asked)
        np.testing.assert_array_equal(got, clustered_head(keys, bounds, exact_keys, need))

    def test_a_block_orders_each_row_as_a_call_on_that_row_does(self):
        rng = np.random.default_rng(111)
        exact = rng.integers(0, 4, size=(5, 8)).astype(float)
        bounds = np.where(rng.random((5, 8)) < 0.5, 0.0, 0.75)
        keys = exact + bounds * rng.uniform(-1.0, 1.0, size=(5, 8))
        exact_keys = lambda rows, positions: exact[rows, positions]  # noqa: E731
        got = stable_head(keys, bounds, exact_keys, 6)
        np.testing.assert_array_equal(got, clustered_head(keys, bounds, exact_keys, 6))
        for i in range(5):
            row = stable_head(keys[i], bounds[i], lambda _, positions: exact[i, positions], 6)
            np.testing.assert_array_equal(got[i], row)
            np.testing.assert_array_equal(row, np.argsort(exact[i], kind="stable")[:6])

    @pytest.mark.parametrize("shape", [(7,), (3, 7)])
    def test_zero_bounds_never_ask_for_an_exact_key(self, shape):
        keys = np.resize([2.0, 0.0, 2.0, -0.0, np.inf, 1.0, 0.0], shape)
        got = stable_head(keys, np.zeros(shape), lambda rows, positions: pytest.fail("recomputed"), 5)
        np.testing.assert_array_equal(got, np.argsort(keys, axis=-1, kind="stable")[..., :5])

    def test_separated_intervals_need_no_exact_key(self):
        keys = np.array([3.0, 0.0, 2.0, 1.0])
        for need in range(1, 5):
            got = stable_head(keys, np.full(4, 0.4), lambda rows, positions: pytest.fail("recomputed"), need)
            np.testing.assert_array_equal(got, [1, 3, 2, 0][:need])
            np.testing.assert_array_equal(got, clustered_head(keys, np.full(4, 0.4), None, need))

    @pytest.mark.parametrize("bounds, recomputed", [([1.0, 1.0, 1.0, 1.0], [0, 1, 2, 3]),
                                                    ([0.0, 0.0, np.inf, 0.0], [2])])
    def test_non_finite_key_overlaps_every_interval(self, bounds, recomputed):
        exact = np.array([0.0, 10.0, 20.0, 30.0])
        asked = []

        def exact_keys(rows, positions):
            asked.extend(positions)
            return exact[positions]

        got = stable_head(np.array([0.0, 10.0, np.nan, 30.0]), np.array(bounds), exact_keys, 1)
        np.testing.assert_array_equal(got, [0])
        assert sorted(asked) == recomputed
        np.testing.assert_array_equal(got, clustered_head(np.array([0.0, 10.0, np.nan, 30.0]), np.array(bounds),
                                                          lambda rows, positions: exact[positions], 1))


def assert_copy_column_covers_exact_kernel(honest: np.ndarray, v: np.ndarray):
    """Stacked over one row v, the honest block is ``gram_sq_dists``'s, and v's
    column lies within its bound of the exact kernel wherever both are finite,
    with an inf bound wherever either is not."""
    block = (*gram_sq_dists(honest), np.einsum("ij,ij->i", honest, honest))
    with np.errstate(over="ignore", invalid="ignore"):
        keys, bounds = gram_sq_dists_with_copy(block, honest, v)
        exact = pairwise_sq_dists(np.vstack([honest, v]))
    n = len(honest)
    assert keys[:n, :n].tobytes() == block[0].tobytes() and bounds[:n, :n].tobytes() == block[1].tobytes()
    assert keys[n, n] == bounds[n, n] == 0.0
    np.testing.assert_array_equal(keys[:n, n], keys[n, :n])
    np.testing.assert_array_equal(bounds[:n, n], bounds[n, :n])
    column, err, exact = keys[:n, n], bounds[:n, n], exact[:n, n]
    both = np.isfinite(column) & np.isfinite(exact)
    with np.errstate(invalid="ignore"):
        assert (np.abs(column - exact)[both] <= err[both]).all()
    assert np.isinf(err[~both]).all()


class TestGramSqDistsWithCopy:
    @pytest.mark.parametrize("name", list(gram_cases()))
    def test_bound_covers_exact_kernel(self, name):
        xs = gram_cases()[name]
        for budget in (1, 1 << 40):
            in_blocks(assert_copy_column_covers_exact_kernel, budget, 1, xs[:-1], xs[-1])

    @settings(deadline=None, max_examples=150)
    @given(scaled_matrices, st.booleans())
    def test_bound_covers_exact_kernel_on_random_sets(self, xs, exact_block):
        in_blocks(assert_copy_column_covers_exact_kernel, 1 << 40 if exact_block else 1, 1, xs[:-1], xs[-1])

    def test_wide_rows(self):
        rng = np.random.default_rng(14)
        honest = rng.normal(size=50_890) * 0.01 + rng.normal(size=(30, 50_890)) * 0.01
        v = honest.mean(axis=0) - 1.5 * honest.std(axis=0)
        assert_copy_column_covers_exact_kernel(honest, v)
        keys, bounds = gram_sq_dists_with_copy((*gram_sq_dists(honest), (honest * honest).sum(axis=1)), honest, v)
        assert bounds.max() < 1e-6 * np.median(keys)

    def test_copy_column_golden(self, x3):
        block = (*gram_sq_dists(x3), (x3 * x3).sum(axis=1))
        keys, bounds = in_tiles(gram_sq_dists_with_copy, 1 << 40, block, x3, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(keys[3], [3.0, 48.0, 147.0, 0.0])
        assert (bounds[3, :3] > 0).all() and bounds[3, 3] == 0.0


class TestSortedSliceMeans:
    @settings(deadline=None, max_examples=120)
    @given(column_matrices, tile_budgets, st.data())
    def test_equals_parent_expression(self, xs, budget, data):
        lo = data.draw(st.integers(0, len(xs) - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, len(xs)), label="hi")
        expected = np.sort(xs, axis=0)[lo:hi].mean(axis=0)
        assert in_tiles(sorted_slice_means, budget, xs, lo, hi).tobytes() == expected.tobytes()


class TestSortedColumns:
    """The merge entry against the dense kernel on the stacked rows: equal
    bytes wherever the mean is not zero, equal values where it is."""

    @staticmethod
    def merge_and_dense(fixed, copies, w, lo, hi, budget):
        block = in_tiles(SortedColumns, budget, list(fixed), copies, lo, hi)
        stacked = block.stacked(w, np.arange(len(w)))
        np.testing.assert_array_equal(stacked, np.vstack([fixed, np.tile(w, (copies, 1))]))
        return block.means(w), in_tiles(sorted_slice_means, budget, stacked, lo, hi)

    @settings(deadline=None, max_examples=200)
    @given(merge_cases(), tile_budgets, st.data())
    def test_merge_equals_dense_kernel(self, case, budget, data):
        fixed, copies, w = case
        lo = data.draw(st.integers(copies, len(fixed) - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, len(fixed)), label="hi")
        got, expected = self.merge_and_dense(fixed, copies, w, lo, hi, budget)
        np.testing.assert_array_equal(got, expected)
        assert got[expected != 0].tobytes() == expected[expected != 0].tobytes()

    @pytest.mark.parametrize("budget", [1, 5, 1 << 40])
    def test_each_placement_of_w_on_long_columns(self, budget):
        # Eleven or more kept values: a pairwise sum would differ from the in-order one.
        rng = np.random.default_rng(17)
        fixed = rng.normal(size=(24, 8))
        fixed[:, 6] = 3.0
        fixed[:, 7] = np.where(np.arange(24) % 3, -0.0, 0.0)
        column = np.sort(fixed, axis=0)
        w = np.array([column[0, 0] - 1.0, column[-1, 1] + 1.0, column[5, 2], column[0, 3],
                      column[-1, 4], (column[9, 5] + column[10, 5]) / 2, 3.0, 0.0])
        for copies, lo, hi in ((1, 1, 23), (3, 3, 21), (4, 13, 15), (2, 12, 13)):
            got, expected = self.merge_and_dense(fixed, copies, w, lo, hi, budget)
            assert got[:7].tobytes() == expected[:7].tobytes()
            assert got[7] == expected[7] == 0.0


class TestTopEigenpair:
    def test_identical_rows_degenerate(self):
        lam, v = top_eigenpair([[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]])
        assert lam == 0.0
        np.testing.assert_array_equal(v, [1.0, 0.0])

    def test_one_dimensional_spread(self):
        lam, v = top_eigenpair([[-1.0], [1.0]])
        assert lam == pytest.approx(1.0, rel=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, rel=1e-12)

    def test_spread_along_first_axis(self):
        lam, v = top_eigenpair([[-1.0, 0.0], [1.0, 0.0]])
        assert lam == pytest.approx(1.0, rel=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, rel=1e-9)
        assert v[1] == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            xs = random_vector_set(rng, d=int(rng.integers(1, 5)))
            lam, v = top_eigenpair(xs)
            assert lam == pytest.approx(covariance_top_eigenvalue(xs), rel=1e-8)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_weighted_matches_dense_eigensolver(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            xs = random_vector_set(rng)
            weights = rng.uniform(0.0, 1.0, size=xs.shape[0])
            weights[int(rng.integers(xs.shape[0]))] = 1.0  # keep the total positive
            lam, _ = top_eigenpair(xs, weights)
            assert lam == pytest.approx(covariance_top_eigenvalue(xs, weights), rel=1e-8, abs=1e-10)

    def test_eigenvector_matches_dense_eigensolver(self):
        rng = np.random.default_rng(37)
        checked = 0
        for trial in range(60):
            n, d = int(rng.integers(4, 12)), int(rng.integers(2, 7))
            if trial % 3:
                xs = random_vector_set(rng, n=n, d=d)
            else:
                # Planted spectrum whose top two eigenvalues are 0.4% apart,
                # where an iteration that stops on the eigenvalue drifts.
                k = min(n - 1, d)
                m = rng.normal(size=(n, k))
                centered = np.linalg.qr(m - m.mean(axis=0))[0]
                spectrum = np.geomspace(10.0, 0.5, k)
                spectrum[1] = spectrum[0] * (1.0 - 2e-3)
                xs = centered * spectrum @ np.linalg.qr(rng.normal(size=(d, k)))[0].T + rng.normal(size=d)
            weights = None if trial % 2 else rng.uniform(0.1, 1.0, size=n)
            eigenvalues, eigenvectors = covariance_eigh(xs, weights)
            if eigenvalues[-1] - eigenvalues[-2] < 1e-3 * eigenvalues[-1]:
                continue
            lam, v = top_eigenpair(xs, weights)
            assert lam == pytest.approx(eigenvalues[-1], rel=1e-9)
            assert abs(v @ eigenvectors[:, -1]) >= 1.0 - 1e-9
            checked += 1
        assert checked >= 40

    def test_wide_rows_eigenvector(self):
        rng = np.random.default_rng(41)
        basis = np.linalg.qr(rng.normal(size=(400, 8)))[0]
        xs = rng.normal(size=(33, 8)) * np.geomspace(3.0, 0.1, 8) @ basis.T + rng.normal(size=400)
        eigenvalues, eigenvectors = covariance_eigh(xs)
        lam, v = top_eigenpair(xs)
        assert lam == pytest.approx(eigenvalues[-1], rel=1e-9)
        assert abs(v @ eigenvectors[:, -1]) >= 1.0 - 1e-9

    def test_zeroed_rows_are_ignored(self):
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [1e6, -1e6]])
        weights = np.array([1.0, 1.0, 0.0])
        lam, _ = top_eigenpair(xs, weights)
        assert lam == pytest.approx(covariance_top_eigenvalue(xs[:2]), rel=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_public_kernel_checks_its_input(self, x3, bad):
        x3 = x3.copy()
        x3[1, 1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            top_eigenpair(x3)

    def test_rejects_zero_weight_total(self, x3):
        with pytest.raises(ValueError, match="positive sum"):
            top_eigenpair(x3, np.zeros(3))

    def test_rejects_negative_weights(self, x3):
        with pytest.raises(ValueError, match="nonnegative"):
            top_eigenpair(x3, np.array([1.0, -0.5, 1.0]))

    def test_eigenvalue_nonnegative_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            lam, _ = top_eigenpair(random_vector_set(rng))
            assert lam >= 0.0
