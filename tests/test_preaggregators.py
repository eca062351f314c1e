import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfl import numerics, preaggregators
from robustfl.aggregators import AggregatorSpec, Rule
from robustfl.numerics import OverCopies, pairwise_sq_dists
from robustfl.preaggregators import (
    DEFAULT_BUCKET_SIZE,
    PRE_AGGREGATOR_NAMES,
    ConfiguredPreAggregator,
    Pipeline,
    PreAggregatorSpec,
    arc,
    bucketing,
    build_pipeline,
    nnm,
    static_clipping,
)
from robustfl.seeding import derive_rng

from conftest import (
    gram_cases,
    in_blocks,
    in_tiles,
    multi_row_matrices,
    random_vector_set,
    scaled_matrices,
    single_block,
)
from oracles import naive_nnm


class CountingNumpy:
    """numpy, counting ``np.add`` calls: each begins one in-place NNM row sum."""

    def __init__(self):
        self.sums = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        self.sums += 1
        return np.add(*args, **kwargs)


class FixedPermutation:
    """Stand-in rng whose permutation is chosen by the test."""

    def __init__(self, order):
        self.order = np.asarray(order)

    def permutation(self, n):
        assert n == len(self.order)
        return self.order.copy()


class TestNnm:
    def test_x3_golden(self, x3):
        # Neighbor sets with f=1: {0,1}, {1,0} (tie toward lower index), {2,1}.
        expected = [[2.5, 3.5, 4.5], [2.5, 3.5, 4.5], [5.5, 6.5, 7.5]]
        np.testing.assert_allclose(nnm(x3, 1), expected, atol=1e-12)

    def test_identical_rows_unchanged(self):
        xs = np.tile([2.0, -1.0], (4, 1))
        np.testing.assert_array_equal(nnm(xs, 1), xs)

    def test_f_zero_gives_global_mean_rows(self, x3):
        out = nnm(x3, 0)
        for row in out:
            np.testing.assert_allclose(row, x3.mean(axis=0), atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xs = random_vector_set(rng)
            f = int(rng.integers(0, len(xs)))
            np.testing.assert_allclose(nnm(xs, f), naive_nnm(xs, f), rtol=1e-12)

    def test_preserves_shape(self):
        rng = np.random.default_rng(8)
        xs = random_vector_set(rng, n=6, d=4)
        assert nnm(xs, 2).shape == (6, 4)

    def test_rows_stay_in_coordinate_hull(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            xs = random_vector_set(rng)
            out = nnm(xs, int(rng.integers(0, len(xs))))
            lo, hi = xs.min(axis=0), xs.max(axis=0)
            assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, st.data())
    def test_blocks_equal_single_block(self, xs, data):
        n, d = xs.shape
        f = data.draw(st.integers(0, n - 1), label="f")
        rows = data.draw(st.integers(1, n - 1), label="rows per block")
        expected = single_block(nnm, xs, f)
        np.testing.assert_array_equal(in_blocks(nnm, rows, (n - f) * d, xs, f), expected)

    @pytest.mark.parametrize("kept", [1, 2])
    def test_one_or_two_neighbours_in_blocks_equal_single_block(self, kept):
        # n - f = 1 copies the nearest row; n - f = 2 only adds the first pair.
        rng = np.random.default_rng(13)
        for n in range(2, 8):
            for d in (1, 3):
                xs = random_vector_set(rng, n=n, d=d)
                xs[-1] = xs[0]
                f = n - kept
                expected = single_block(nnm, xs, f)
                np.testing.assert_array_equal(in_blocks(nnm, 1, kept * d, xs, f), expected)

    @staticmethod
    def search_case():
        """Five fixed rows and two copies of the far row 0 after them:
        rows 1-4 have fixed-only neighbour lists, rows 0, 5 and 6 do not."""
        xs = random_vector_set(np.random.default_rng(14), n=7, d=4)
        xs[0] += 500.0
        xs[5:] = xs[0]
        f, fixed = 2, 5
        near = np.argsort(pairwise_sq_dists(xs), axis=1, kind="stable")[:, : len(xs) - f]
        assert [bool(row.max() < fixed) for row in near] == [False, True, True, True, True, False, False]
        return xs, f, fixed, near

    def test_shared_means_never_serve_a_list_holding_a_row_past_the_fixed_rows(self):
        xs, f, fixed, near = self.search_case()
        shared = {"means": {near[i].tobytes(): np.full(xs.shape[1], 7.0) for i in (0, 5, 6)}}
        out = in_blocks(nnm, 1, (len(xs) - f) * xs.shape[1] - 1, OverCopies(xs, fixed, shared), f)
        assert out.tobytes() == single_block(nnm, xs, f).tobytes()

    def test_shared_dict_stores_and_serves_fixed_only_lists(self):
        xs, f, fixed, near = self.search_case()
        budget, shared = (len(xs) - f) * xs.shape[1] - 1, {}
        expected = single_block(nnm, xs, f)
        assert in_blocks(nnm, 1, budget, OverCopies(xs, fixed, shared), f).tobytes() == expected.tobytes()
        means = shared["means"]
        assert sorted(means) == sorted(near[i].tobytes() for i in range(1, 5))
        for i in range(1, 5):
            np.testing.assert_array_equal(means[near[i].tobytes()], expected[i])
            means[near[i].tobytes()] = np.full(xs.shape[1], float(i))
        out = in_blocks(nnm, 1, budget, OverCopies(xs, fixed, shared), f)
        np.testing.assert_array_equal(out[1:5], np.repeat([[1.0], [2.0], [3.0], [4.0]], xs.shape[1], axis=1))
        np.testing.assert_array_equal(out[[0, 5, 6]], expected[[0, 5, 6]])

    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, st.data())
    def test_duplicate_rows_in_blocks_equal_single_block(self, xs, data):
        # Repeated rows share a neighbour list, whose sum the in-place path
        # reuses. Values, not bytes: where every neighbour holds -0.0 the
        # in-place sum keeps -0.0 and the gather's mean gives +0.0.
        copies = data.draw(st.lists(st.integers(0, len(xs) - 1), min_size=1, max_size=4), label="copied rows")
        xs = np.vstack([xs, xs[copies]])
        n, d = xs.shape
        f = data.draw(st.integers(0, n - 1), label="f")
        np.testing.assert_array_equal(in_blocks(nnm, 1, (n - f) * d - 1, xs, f), single_block(nnm, xs, f))

    def test_each_distinct_neighbour_list_is_summed_once_per_call(self, monkeypatch):
        xs, f, fixed, near = self.search_case()
        budget, shared = (len(xs) - f) * xs.shape[1] - 1, {}
        spy = CountingNumpy()
        monkeypatch.setattr(preaggregators, "np", spy)
        first = in_blocks(nnm, 1, budget, OverCopies(xs, fixed, shared), f)
        # Rows 0, 5 and 6 are equal, so seven rows have five lists.
        assert spy.sums == len({row.tobytes() for row in near}) == 5
        spy.sums = 0
        again = in_blocks(nnm, 1, budget, OverCopies(xs, fixed, shared), f)
        # The dict serves rows 1-4; the one list of rows 0, 5 and 6 is summed once.
        assert spy.sums == 1
        assert first.tobytes() == again.tobytes() == single_block(nnm, xs, f).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(multi_row_matrices, st.data())
    def test_over_copies_input_changes_nothing(self, xs, data):
        # Each call of a search repeats the fixed rows over copies of a new vector.
        shared = {}
        for _ in range(2):
            copies = data.draw(st.integers(1, 3), label="copies")
            row = data.draw(st.integers(0, len(xs) - 1), label="row")
            vector = xs[row] * data.draw(st.sampled_from([-1.0, 0.5, 2.0]), label="factor")
            candidate = np.vstack([xs, np.tile(vector, (copies, 1))])
            f = data.draw(st.integers(0, len(candidate) - 1), label="f")
            out = nnm(OverCopies(candidate, len(xs), shared), f)
            assert np.asarray(out).tobytes() == nnm(candidate, f).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(multi_row_matrices, st.booleans(), st.data())
    def test_merged_output_stacks_to_the_dense_output(self, xs, in_place, data):
        # On the in-place path the output is an OverCopies whenever every
        # fixed row's list stays inside the fixed rows.
        copies = data.draw(st.integers(1, 3), label="copies")
        f = data.draw(st.integers(0, len(xs) + copies - 1), label="f")
        n, d = len(xs) + copies, xs.shape[1]
        budget, shared = (n - f) * d - 1 if in_place else 1 << 40, {}
        for factor in (-1.0, 0.5, 40.0):
            candidate = np.vstack([xs, np.tile(xs[0] * factor + factor, (copies, 1))])
            got = in_blocks(nnm, 1, budget, OverCopies(candidate, len(xs), shared), f)
            assert np.asarray(got).tobytes() == in_blocks(nnm, 1, budget, candidate, f).tobytes()

    def test_merged_rows_are_shared_and_only_the_copies_are_summed(self, monkeypatch):
        xs = random_vector_set(np.random.default_rng(15), n=6, d=4)
        f, shared = 2, {}
        budget = len(xs) * xs.shape[1] - 1
        spy = CountingNumpy()
        monkeypatch.setattr(preaggregators, "np", spy)
        outs = []
        for far in (500.0, -700.0):
            candidate = np.vstack([xs, np.full((f, 4), far)])
            dense = in_blocks(nnm, 1, budget, candidate, f)
            spy.sums = 0
            out = in_blocks(nnm, 1, budget, OverCopies(candidate, 6, shared), f)
            assert isinstance(out, OverCopies) and out.fixed == 6
            assert np.asarray(out).tobytes() == dense.tobytes()
            outs.append(out)
        assert outs[0].shared is outs[1].shared
        assert all(a is b for a, b in zip(outs[0].rows[:6], outs[1].rows[:6]))
        assert spy.sums == 1  # the second call sums the copies' row alone
        # One gather serves a small input whole.
        assert not isinstance(single_block(nnm, OverCopies(candidate, 6, shared), f), OverCopies)

    def test_nnm_behind_nnm_reads_the_merged_rows_as_their_stack(self):
        xs = random_vector_set(np.random.default_rng(16), n=6, d=4)
        f, shared, merged = 2, {}, 0
        budget = len(xs) * xs.shape[1] - 1
        for far in (500.0, -700.0, 0.5, 900.0):
            candidate = np.vstack([xs, np.full((f, 4), far)])
            first = in_blocks(nnm, 1, budget, OverCopies(candidate, len(xs), shared), f)
            merged += isinstance(first, OverCopies) and isinstance(first.rows, list)
            expected = in_blocks(nnm, 1, budget, in_blocks(nnm, 1, budget, candidate, f), f)
            assert np.asarray(in_blocks(nnm, 1, budget, first, f)).tobytes() == expected.tobytes()
        assert merged >= 1

    def test_a_list_reaching_the_copies_keeps_the_dense_path(self):
        xs, f, fixed, near = self.search_case()
        shared = {}
        out = in_blocks(nnm, 1, (len(xs) - f) * xs.shape[1] - 1, OverCopies(xs, fixed, shared), f)
        assert isinstance(out, np.ndarray)
        assert "merged" not in shared

    def test_fixed_mean_that_overflows_is_rejected(self):
        xs = np.array([[1.7e308, 1.0], [1.7e308, 2.0], [0.0, 3.0], [0.0, 3.0]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="matrix contains NaN or Inf"):
            in_blocks(nnm, 1, 1, OverCopies(xs, 3, {}), 2)

    def test_infeasible_f(self, x3):
        with pytest.raises(ValueError, match=r"NNM requires n > f \(got n=3, f=3\)"):
            nnm(x3, 3)
        with pytest.raises(ValueError, match="f >= 0"):
            nnm(x3, -1)


def nnm_on_exact_order(xs, f, budget):
    """``nnm`` with a block budget of ``budget``, its neighbours in the stable
    argsort of the exact kernel's distances, as before it ranked them from the
    Gram form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_ELEMENTS", budget)
        mp.setattr(preaggregators, "pairwise_sq_dists",
                   lambda xs: (numerics.trusted_pairwise_sq_dists(xs), np.zeros((len(xs), len(xs)))))
        return nnm(xs, f)


def assert_gram_order_keeps_the_bytes(xs, f, candidates):
    """Past the block budget NNM ranks from the Gram form; on ``xs`` and on each
    ``(fixed, candidate)`` search input, read dense and as ``OverCopies``, its
    output keeps the bytes of the exact order: ``single_block``'s on the gather
    path, and the in-place path's own on the exact kernel."""
    n, d = xs.shape
    with np.errstate(all="ignore"):
        expected = single_block(nnm, xs, f)
        in_place = nnm_on_exact_order(xs, f, 1)
        np.testing.assert_array_equal(in_place, expected)  # values: the gather drops -0.0
        for budget in (1, 1 << 40):
            assert in_tiles(nnm, budget, xs, f).tobytes() == in_place.tobytes()
        if f:  # a budget that fits the gather but not the one-piece distance block
            assert in_blocks(nnm, n, (n - f) * d, xs, f).tobytes() == expected.tobytes()
        for fixed, candidate in candidates:
            m = len(candidate)
            expected = single_block(nnm, candidate, f)
            in_place = nnm_on_exact_order(candidate, f, 1)
            assert np.asarray(in_tiles(nnm, 1, OverCopies(candidate, fixed, {}), f)).tobytes() == in_place.tobytes()
            assert np.asarray(single_block(nnm, OverCopies(candidate, fixed, {}), f)).tobytes() == expected.tobytes()
            if f:
                got = in_blocks(nnm, m, (m - f) * d, OverCopies(candidate, fixed, {}), f)
                assert np.asarray(got).tobytes() == expected.tobytes()


def over_copies(xs, copies, w):
    """(len(xs), xs stacked over ``copies`` copies of w)."""
    return len(xs), np.vstack([xs, np.tile(w, (copies, 1))])


class TestNnmGramOrder:
    """Past the block budget NNM orders neighbours from Gram-form distances, and
    a search's candidates from the fixed rows' block and one product per copy
    row; outputs keep their bytes."""

    @pytest.mark.parametrize("f", [0, 1, 3])
    @pytest.mark.parametrize("case", list(gram_cases()))
    def test_named_cases_keep_the_bytes(self, case, f):
        xs = gram_cases()[case]
        # The copies tie an honest row exactly, lie one ulp off it, or far out.
        w = [xs[2], np.nextafter(xs[2], np.inf), xs.mean(axis=0), 3.0 * xs[0]]
        assert_gram_order_keeps_the_bytes(xs, f, [over_copies(xs, 3, v) for v in w])

    def test_duplicates_with_their_copies_keep_the_bytes(self):
        # Rows 4-6 of the duplicates case are 3 copies of row 3.
        xs = gram_cases()["duplicates"]
        assert_gram_order_keeps_the_bytes(xs, 3, [(4, xs), (6, xs)])

    @settings(deadline=None, max_examples=100)
    @given(scaled_matrices, st.data())
    def test_random_sets_keep_the_bytes(self, xs, data):
        f = data.draw(st.integers(0, len(xs) - 1), label="f")
        copies = data.draw(st.integers(1, 3), label="copies")
        row = data.draw(st.integers(0, len(xs) - 1), label="row")
        w = xs[row] * data.draw(st.sampled_from([1.0, -1.0, 0.5, 2.0, -0.0]), label="factor")
        assert_gram_order_keeps_the_bytes(xs, f, [over_copies(xs, copies, w)])

    def test_search_input_measures_no_exact_entry(self, monkeypatch, exact_rows):
        # The honest rows and ALittleIsEnough copies of the mnist_* shape.
        rng = np.random.default_rng(0)
        honest = rng.normal(size=50_890) * 0.01 + rng.normal(size=(30, 50_890)) * 0.01
        fixed, candidate = over_copies(honest, 3, honest.mean(axis=0) - 1.5 * honest.std(axis=0))
        shared = {}
        got = [np.asarray(nnm(OverCopies(candidate, fixed, shared), 3)) for _ in range(2)]
        assert exact_rows == []
        monkeypatch.undo()
        expected = nnm_on_exact_order(candidate, 3, numerics.BLOCK_ELEMENTS)
        assert got[0].tobytes() == got[1].tobytes() == expected.tobytes()

    def test_rows_in_doubt_are_measured_row_by_row(self, monkeypatch, exact_rows):
        # Read dense, row 0 and its two copies tie in the Gram keys of each
        # row: with 12 neighbours, fewer than half the rows hold them in doubt.
        xs = random_vector_set(np.random.default_rng(113), n=20, d=5)
        xs = np.vstack([xs, xs[:1], xs[:1]])
        measured, sq_dists_to = [], numerics.sq_dists_to
        monkeypatch.setattr(numerics, "sq_dists_to", lambda v, xs: measured.append(len(xs)) or sq_dists_to(v, xs))
        got = in_tiles(nnm, 1 << 40, xs, 10)
        assert len(exact_rows) == 1 and {0, 20, 21} <= set(exact_rows[0]) and 2 * len(exact_rows[0]) <= len(xs)
        assert measured == [len(xs)] * len(exact_rows[0])
        monkeypatch.undo()
        assert got.tobytes() == nnm_on_exact_order(xs, 10, 1).tobytes()

    @pytest.mark.parametrize("over", [False, True])
    def test_more_than_half_the_entries_in_doubt_take_one_exact_matrix(self, over, monkeypatch, exact_rows):
        # Rows 1e8 from the origin keep no correct digit in the Gram form.
        xs = gram_cases()["offset"]
        fixed, candidate = over_copies(xs, 2, xs[0] + 0.5)
        with np.errstate(all="ignore"):
            got = in_tiles(nnm, 1 << 40, OverCopies(candidate, fixed, {}) if over else candidate, 2)
        assert len(exact_rows) == 1 and 2 * len(exact_rows[0]) > (fixed + 1 if over else len(candidate))
        monkeypatch.undo()
        assert np.asarray(got).tobytes() == nnm_on_exact_order(candidate, 2, 1).tobytes()


class TestBucketing:
    def test_x3_fixed_shuffle_golden(self, x3):
        # Shuffle (2, 0, 1) with s=2 makes buckets {x2, x0} and {x1}.
        out = bucketing(x3, s=2, rng=FixedPermutation([2, 0, 1]))
        np.testing.assert_allclose(out, [[4.0, 5.0, 6.0], [4.0, 5.0, 6.0]], atol=1e-12)

    def test_bucket_count(self):
        rng = np.random.default_rng(10)
        for n, s in [(7, 2), (6, 3), (5, 5), (4, 9), (8, 1)]:
            xs = random_vector_set(np.random.default_rng(n * 10 + s), n=n, d=3)
            out = bucketing(xs, s=s, rng=rng)
            assert out.shape == (math.ceil(n / s), 3)

    def test_s_at_least_n_gives_mean(self, x3):
        out = bucketing(x3, s=3, rng=derive_rng(0, "bucketing"))
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out[0], x3.mean(axis=0), atol=1e-12)

    def test_s_one_is_a_permutation(self):
        xs = random_vector_set(np.random.default_rng(11), n=6, d=2)
        out = bucketing(xs, s=1, rng=derive_rng(3, "bucketing"))
        order = np.lexsort(xs.T)
        np.testing.assert_array_equal(out[np.lexsort(out.T)], xs[order])

    def test_grand_mean_preserved_when_s_divides_n(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            xs = random_vector_set(rng, n=8, d=3)
            out = bucketing(xs, s=2, rng=rng)
            np.testing.assert_allclose(out.mean(axis=0), xs.mean(axis=0), atol=1e-12)

    def test_seeded_stream_is_deterministic(self):
        xs = random_vector_set(np.random.default_rng(13), n=9, d=4)
        a = bucketing(xs, s=2, rng=derive_rng(5, "bucketing"))
        b = bucketing(xs, s=2, rng=derive_rng(5, "bucketing"))
        np.testing.assert_array_equal(a, b)

    def test_repeated_calls_advance_the_stream(self):
        xs = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        stream = derive_rng(6, "bucketing")
        draws = {bucketing(xs, s=3, rng=stream).tobytes() for _ in range(20)}
        assert len(draws) > 1

    @staticmethod
    def each_bucket_alone(xs: np.ndarray, s: int, perm: np.ndarray) -> np.ndarray:
        """Every bucket's rows averaged by a mean of their own, in shuffled order."""
        return np.stack([xs[perm[b * s : (b + 1) * s]].mean(axis=0) for b in range(math.ceil(len(xs) / s))])

    @pytest.mark.parametrize("n, s, d", [(1, 1, 1), (6, 3, 1), (6, 1, 33), (4, 9, 2), (7, 2, 3), (39, 13, 33),
                                         (38, 13, 1)])
    def test_full_buckets_in_one_reshape_equal_each_bucket_alone(self, n, s, d):
        rng = np.random.default_rng(n * 100 + s)
        xs = rng.normal(size=(n, d))
        xs[:, 0] = -0.0  # a column of negative zeros keeps its sign
        perm = rng.permutation(n)
        got = bucketing(xs, s=s, rng=FixedPermutation(perm))
        np.testing.assert_array_equal(got, self.each_bucket_alone(xs, s, perm))
        assert got.tobytes() == self.each_bucket_alone(xs, s, perm).tobytes()

    def test_random_shapes_and_magnitudes_equal_each_bucket_alone(self):
        # n up to 39, s up to 13, d in {1, 2, 3, 33}, values of both signs spanning e^-20 to e^20.
        rng = np.random.default_rng(15)
        for _ in range(7000):
            n, s, d = int(rng.integers(1, 40)), int(rng.integers(1, 14)), int(rng.choice([1, 2, 3, 33]))
            xs = np.exp(rng.uniform(-20.0, 20.0, size=(n, d))) * rng.choice([-1.0, 1.0], size=(n, d))
            perm = rng.permutation(n)
            got = bucketing(xs, s=s, rng=FixedPermutation(perm))
            np.testing.assert_array_equal(got, self.each_bucket_alone(xs, s, perm))
            assert got.tobytes() == self.each_bucket_alone(xs, s, perm).tobytes(), (n, s, d)

    def test_rejects_bad_arguments(self, x3):
        with pytest.raises(ValueError, match="bucket size"):
            bucketing(x3, s=0, rng=derive_rng(0, "bucketing"))
        with pytest.raises(ValueError, match="seeded numpy Generator"):
            bucketing(x3, s=2, rng=None)


class TestStaticClipping:
    def test_scales_long_row(self):
        np.testing.assert_allclose(static_clipping([[3.0, 4.0]], 2.0), [[1.2, 1.6]], atol=1e-12)

    def test_short_rows_pass_through_exactly(self):
        xs = np.array([[0.5, 0.5], [-1.0, 0.0]])
        np.testing.assert_array_equal(static_clipping(xs, 2.0), xs)

    def test_zero_row_unchanged(self):
        np.testing.assert_array_equal(static_clipping([[0.0, 0.0]], 0.5), [[0.0, 0.0]])

    def test_norms_capped_and_directions_kept(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            xs = random_vector_set(rng)
            c = float(rng.uniform(0.1, 5.0))
            out = static_clipping(xs, c)
            assert out.shape == xs.shape
            norms = np.linalg.norm(out, axis=1)
            assert (norms <= c + 1e-12).all()
            for before, after in zip(xs, out):
                denom = np.linalg.norm(before) * np.linalg.norm(after)
                if denom > 0:
                    assert np.dot(before, after) / denom == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_radius(self, x3):
        with pytest.raises(ValueError, match="clipping radius must be positive"):
            static_clipping(x3, 0.0)
        with pytest.raises(ValueError, match="clipping radius must be positive"):
            static_clipping(x3, -1.0)
        with pytest.raises(ValueError, match="clipping radius must be positive, got nan"):
            static_clipping(x3, float("nan"))


class TestArc:
    def test_x3_golden(self, x3):
        # k = floor(2*1*2/3) = 1, so only the largest-norm row is pulled in.
        expected = x3.copy()
        expected[2] = x3[2] * math.sqrt(77.0 / 194.0)
        np.testing.assert_allclose(arc(x3, 1), expected, rtol=1e-12)

    def test_f_zero_unchanged(self, x3):
        np.testing.assert_array_equal(arc(x3, 0), x3)

    def test_identical_rows_unchanged(self):
        xs = np.tile([3.0, 4.0], (5, 1))
        np.testing.assert_allclose(arc(xs, 2), xs, rtol=1e-12)

    def test_norm_cap_direction_and_order(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            xs = random_vector_set(rng, n=int(rng.integers(3, 9)))
            n = len(xs)
            f = int(rng.integers(1, n))
            k = (2 * f * (n - f)) // n
            out = arc(xs, f)
            assert out.shape == xs.shape
            if k == 0:
                np.testing.assert_array_equal(out, xs)
                continue
            cutoff = np.sort(np.linalg.norm(xs, axis=1))[::-1][k]
            assert (np.linalg.norm(out, axis=1) <= cutoff + 1e-12).all()
            for before, after in zip(xs, out):
                denom = np.linalg.norm(before) * np.linalg.norm(after)
                if denom > 0:
                    assert np.dot(before, after) / denom == pytest.approx(1.0, abs=1e-12)

    def test_untouched_rows_are_bitwise_equal(self):
        xs = np.array([[10.0, 0.0], [0.1, 0.2], [-0.3, 0.4], [5.0, 5.0]])
        out = arc(xs, 1)
        k = (2 * 1 * 3) // 4
        assert k == 1
        np.testing.assert_array_equal(out[1:3], xs[1:3])
        np.testing.assert_array_equal(out[3], xs[3])

    def test_infeasible_f(self, x3):
        with pytest.raises(ValueError, match=r"ARC requires n > f \(got n=3, f=4\)"):
            arc(x3, 4)
        with pytest.raises(ValueError, match="f >= 0"):
            arc(x3, -2)

    def test_does_not_mutate_input(self, x3):
        snapshot = x3.copy()
        arc(x3, 1)
        np.testing.assert_array_equal(x3, snapshot)


class TestPreAggregatorSpec:
    def test_unknown_name_lists_valid_transforms(self):
        with pytest.raises(ValueError) as err:
            PreAggregatorSpec("Trimming")
        for name in PRE_AGGREGATOR_NAMES:
            assert name in str(err.value)

    def test_negative_f(self):
        with pytest.raises(ValueError, match="f must be nonnegative"):
            PreAggregatorSpec("NNM", f=-1)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not accept parameters"):
            PreAggregatorSpec("NNM", f=1, parameters={"c": 2.0})

    def test_clipping_requires_positive_c(self):
        with pytest.raises(ValueError, match="Clipping requires parameter c"):
            PreAggregatorSpec("Clipping")
        with pytest.raises(ValueError, match="Clipping parameter c must be positive, got 0.0"):
            PreAggregatorSpec("Clipping", parameters={"c": 0.0})

    def test_bucketing_size_validation(self):
        with pytest.raises(ValueError, match="Bucketing parameter s must be >= 1, got 0"):
            PreAggregatorSpec("Bucketing", parameters={"s": 0.0})
        assert PreAggregatorSpec("Bucketing", parameters={"s": 3.0}).parameters["s"] == 3.0


class TestConfiguredPreAggregator:
    def test_bucketing_needs_rng(self):
        with pytest.raises(ValueError, match="seeded numpy Generator"):
            ConfiguredPreAggregator(PreAggregatorSpec("Bucketing"))

    def test_dispatch_matches_functions(self, x3):
        cases = [
            (PreAggregatorSpec("NNM", f=1), nnm(x3, 1)),
            (PreAggregatorSpec("Clipping", parameters={"c": 5.0}), static_clipping(x3, 5.0)),
            (PreAggregatorSpec("ARC", f=1), arc(x3, 1)),
        ]
        for spec, expected in cases:
            np.testing.assert_array_equal(ConfiguredPreAggregator(spec)(x3), expected)

    def test_bucketing_dispatch_uses_default_size(self, x3):
        configured = ConfiguredPreAggregator(PreAggregatorSpec("Bucketing"), rng=derive_rng(1, "bucketing"))
        expected = bucketing(x3, s=DEFAULT_BUCKET_SIZE, rng=derive_rng(1, "bucketing"))
        np.testing.assert_array_equal(configured(x3), expected)


class TestPipeline:
    def test_nnm_multikrum_golden(self, x3):
        pipeline = build_pipeline(AggregatorSpec("MultiKrum", f=1), [PreAggregatorSpec("NNM", f=1)])
        np.testing.assert_allclose(pipeline(x3), [2.5, 3.5, 4.5], atol=1e-9)

    def test_no_pre_aggregators(self, x3):
        pipeline = build_pipeline(AggregatorSpec("Average"))
        np.testing.assert_allclose(pipeline(x3), [4.0, 5.0, 6.0], atol=1e-12)

    def test_inactive_clipping_then_median(self, x3):
        pipeline = build_pipeline(
            AggregatorSpec("Median"), [PreAggregatorSpec("Clipping", parameters={"c": 1e9})]
        )
        np.testing.assert_allclose(pipeline(x3), [4.0, 5.0, 6.0], atol=1e-12)

    def test_transforms_fold_left_to_right(self, x3):
        specs = [PreAggregatorSpec("NNM", f=1), PreAggregatorSpec("Clipping", parameters={"c": 7.0})]
        pipeline = build_pipeline(AggregatorSpec("Average"), specs)
        expected = static_clipping(nnm(x3, 1), 7.0).mean(axis=0)
        np.testing.assert_allclose(pipeline(x3), expected, atol=1e-12)
        reordered = build_pipeline(AggregatorSpec("Average"), specs[::-1])
        assert not np.allclose(reordered(x3), expected)

    def test_clone_copies_clip_memory(self):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", parameters={"tau": 1.0, "iters": 1.0}))
        first = np.array([[4.0, 0.0]])
        second = np.array([[10.0, 2.0]])
        pipeline(first)
        twin = pipeline.clone()
        assert twin.aggregator is not pipeline.aggregator
        np.testing.assert_array_equal(pipeline(second), twin(second))

    def test_clone_is_independent(self):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", parameters={"tau": 1.0, "iters": 1.0}))
        pipeline(np.array([[4.0, 0.0]]))
        twin = pipeline.clone()
        twin(np.array([[100.0, 100.0]]))
        twin(np.array([[-50.0, 3.0]]))
        fresh = pipeline.clone()
        np.testing.assert_array_equal(pipeline(np.array([[2.0, 2.0]])), fresh(np.array([[2.0, 2.0]])))

    def test_clone_copies_shuffle_stream(self, x3):
        pipeline = build_pipeline(
            AggregatorSpec("Average"),
            [PreAggregatorSpec("Bucketing", parameters={"s": 2.0})],
            rng=derive_rng(9, "bucketing"),
        )
        twin = pipeline.clone()
        for _ in range(5):
            np.testing.assert_array_equal(pipeline(x3), twin(x3))

    def test_fixed_distances_reach_only_the_first_stage(self, x3, monkeypatch):
        computed = []

        def counting(xs):
            computed.append(xs.copy())
            return numerics.gram_sq_dists(xs)

        monkeypatch.setattr(preaggregators, "pairwise_sq_dists", counting)
        pipeline = build_pipeline(AggregatorSpec("Average"), [PreAggregatorSpec("NNM", f=1)] * 2)
        xs = np.vstack([x3, [[0.0, 1.0, 2.0]]])
        expected = pipeline(xs)
        assert len(computed) == 2
        computed.clear()
        np.testing.assert_array_equal(pipeline(OverCopies(xs, 3, {})), expected)
        # The first NNM measures the fixed rows; the second sees the first
        # one's output and measures it itself.
        assert len(computed) == 2
        np.testing.assert_array_equal(computed[0], x3)
        np.testing.assert_array_equal(computed[1], nnm(xs, 1))

    def test_only_the_first_stage_gets_the_over_copies_input(self, x3, monkeypatch):
        given = []

        def recording(xs, f):
            given.append(xs)
            return nnm(xs, f)

        monkeypatch.setitem(preaggregators.PRE_AGGREGATORS, "NNM", Rule(recording, needs_f=True))
        pipeline = build_pipeline(AggregatorSpec("Average"), [PreAggregatorSpec("NNM", f=1)] * 2)
        candidate = OverCopies(x3, 2, {})
        pipeline(candidate)
        assert given[0] is candidate and type(given[1]) is np.ndarray

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pre", [[], [PreAggregatorSpec("NNM", f=1)], [PreAggregatorSpec("Clipping", {"c": 1.0})]])
    def test_non_finite_input_is_rejected(self, x3, pre, bad):
        rows = x3.tolist()
        rows[1][2] = bad
        pipeline = build_pipeline(AggregatorSpec("TrMean", f=1), pre)
        with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
            pipeline(rows)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("rule", ["Average", "TrMean"])
    def test_stage_output_that_overflows_is_rejected_by_the_next_stage(self, rule, d):
        # Each row is finite; NNM's sums of them overflow to inf.
        xs = np.full((3, d), 1.7e308)
        xs[0] = -1.7e308
        pipeline = build_pipeline(AggregatorSpec(rule, f=1), [PreAggregatorSpec("NNM", f=1)])
        for budget in (1 << 40, 1):
            with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
                mp.setattr(numerics, "BLOCK_ELEMENTS", budget)
                assert not np.isfinite(nnm(xs, 1)).all()
                with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
                    pipeline(xs)

    def test_other_stages_read_over_copies_as_its_matrix(self, x3):
        nnm_spec = PreAggregatorSpec("NNM", f=1)
        clip_spec = PreAggregatorSpec("Clipping", parameters={"c": 1.0})
        for pres in ([], [clip_spec, nnm_spec], [PreAggregatorSpec("ARC", f=1), nnm_spec]):
            pipeline = build_pipeline(AggregatorSpec("Average"), pres)
            shared = {}
            np.testing.assert_array_equal(pipeline(OverCopies(x3, 2, shared)), pipeline(x3))
            assert shared == {}

    def test_rng_handed_only_to_bucketing(self):
        rng = derive_rng(2, "bucketing")
        pipeline = build_pipeline(
            AggregatorSpec("Average"), [PreAggregatorSpec("NNM", f=1), PreAggregatorSpec("Bucketing")], rng=rng
        )
        assert pipeline.pre_aggregators[0].carried == {}
        assert pipeline.pre_aggregators[1].carried == {"rng": rng}

    def test_pipeline_validates_input(self):
        pipeline = build_pipeline(AggregatorSpec("Average"))
        with pytest.raises(ValueError, match="matrix of row vectors"):
            pipeline([1.0, 2.0])
