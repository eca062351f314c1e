import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustfl.numerics import (
    as_vector_set,
    coord_order_stats,
    pairwise_sq_dists,
    pairwise_sq_dists_with_copies,
    top_eigenpair,
)

from conftest import (
    finite_elements,
    in_blocks,
    multi_row_matrices,
    random_vector_set,
    single_block,
    tied_elements,
)
from oracles import covariance_top_eigenvalue, naive_pairwise_sq_dists

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


class TestPairwiseSqDistsWithCopies:
    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, st.integers(1, 4), st.data())
    def test_equals_full_computation(self, honest, f, data):
        v = data.draw(arrays(np.float64, honest.shape[1], elements=tied_elements), label="v")
        candidate = np.vstack([honest, np.tile(v, (f, 1))])
        got = pairwise_sq_dists_with_copies(pairwise_sq_dists(honest), honest, v, f)
        np.testing.assert_array_equal(got, pairwise_sq_dists(candidate))

    def test_wide_rows(self):
        rng = np.random.default_rng(14)
        honest = rng.normal(size=(30, 50_890))
        v = honest.mean(axis=0) - 1.5 * honest.std(axis=0)
        candidate = np.vstack([honest, np.tile(v, (3, 1))])
        got = pairwise_sq_dists_with_copies(pairwise_sq_dists(honest), honest, v, 3)
        np.testing.assert_array_equal(got, pairwise_sq_dists(candidate))

    def test_copies_block_is_zero(self, x3):
        got = pairwise_sq_dists_with_copies(pairwise_sq_dists(x3), x3, np.array([0.0, 1.0, 2.0]), 2)
        np.testing.assert_array_equal(got[3:, 3:], np.zeros((2, 2)))
        np.testing.assert_array_equal(got[:3, 3], [3.0, 48.0, 147.0])


class TestCoordOrderStats:
    def test_no_drop_is_mean(self, x3):
        np.testing.assert_array_equal(coord_order_stats(x3, 0, 0), [4.0, 5.0, 6.0])

    def test_symmetric_trim(self):
        np.testing.assert_array_equal(coord_order_stats([[1.0], [4.0], [7.0], [-4.0]], 1, 1), [2.5])

    def test_one_sided_trim(self):
        np.testing.assert_array_equal(coord_order_stats([[1.0], [2.0]], 0, 1), [1.0])

    def test_rejects_overdrop(self, x3):
        with pytest.raises(ValueError, match="cannot drop"):
            coord_order_stats(x3, 2, 1)

    @settings(deadline=None, max_examples=60)
    @given(matrices)
    def test_no_drop_matches_mean(self, xs):
        np.testing.assert_allclose(coord_order_stats(xs, 0, 0), xs.mean(axis=0), rtol=1e-12, atol=1e-12)


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

    def test_zeroed_rows_are_ignored(self):
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [1e6, -1e6]])
        weights = np.array([1.0, 1.0, 0.0])
        lam, _ = top_eigenpair(xs, weights)
        assert lam == pytest.approx(covariance_top_eigenvalue(xs[:2]), rel=1e-8)

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
