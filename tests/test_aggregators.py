import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustfl import aggregators, numerics
from robustfl.aggregators import (
    AGGREGATOR_NAMES,
    AGGREGATORS,
    AggregatorSpec,
    CenteredClipState,
    average,
    caf,
    centered_clipping,
    geometric_median,
    make_aggregator,
    mda,
    meamed,
    median,
    monna,
    multi_krum,
    smea,
    trmean,
)

from robustfl.numerics import OverCopies, as_vector_set, sorted_slice_means
from robustfl.preaggregators import nnm

from conftest import (
    column_matrices,
    gram_cases,
    in_blocks,
    in_tiles,
    merge_cases,
    multi_row_matrices,
    random_vector_set,
    scaled_matrices,
    single_block,
    tile_budgets,
)
from test_numerics import BUFFERED_D
from test_scripts import load_script
from oracles import (
    brute_mda,
    brute_smea,
    geometric_median_objective,
    loop_multi_krum,
    naive_caf,
    naive_geometric_median,
    naive_meamed,
    naive_multi_krum,
    naive_trmean,
)

GOLDEN = [2.5, 3.5, 4.5]


def parent_monna(xs: np.ndarray, f: int, pivot: int) -> np.ndarray:
    """MoNNA as it ranked rows before it read the distance kernel: one einsum
    over the rows' differences to the pivot."""
    d2 = np.einsum("ij,ij->i", xs - xs[pivot], xs - xs[pivot])
    return xs[np.argsort(d2, kind="stable")[: len(xs) - f]].mean(axis=0)


def parent_trmean(xs: np.ndarray, f: int) -> np.ndarray:
    """The whole-matrix expression the tiled TrMean reproduces bit for bit."""
    return np.sort(xs, axis=0)[f : len(xs) - f].mean(axis=0)


def parent_meamed(xs: np.ndarray, f: int) -> np.ndarray:
    """The whole-matrix expression the tiled MeaMed reproduces bit for bit."""
    order = np.argsort(np.abs(xs - np.median(xs, axis=0)), axis=0, kind="stable")
    return np.take_along_axis(xs, order[: len(xs) - f], axis=0).mean(axis=0)


class TestAverage:
    def test_x3(self, x3):
        np.testing.assert_array_equal(average(x3), [4.0, 5.0, 6.0])

    def test_single_row_identity(self):
        np.testing.assert_array_equal(average([[3.0, -1.0]]), [3.0, -1.0])

    def test_with_flipped_row(self, x4):
        np.testing.assert_allclose(average(x4), [2.0, 2.5, 3.0], rtol=1e-12)


class TestMedian:
    def test_x3(self, x3):
        np.testing.assert_array_equal(median(x3), [4.0, 5.0, 6.0])

    def test_even_count_midpoint(self):
        np.testing.assert_array_equal(median([[1.0], [3.0]]), [2.0])

    def test_outlier_row_shifts_to_midpoint(self, x3):
        xs = np.vstack([x3, [1000.0, 1000.0, 1000.0]])
        np.testing.assert_allclose(median(xs), [5.5, 6.5, 7.5], rtol=1e-12)


class TestTrMean:
    def test_golden_with_flipped_row(self, x4):
        np.testing.assert_allclose(trmean(x4, 1), GOLDEN, rtol=1e-12)

    def test_identical_rows_fixed_point(self):
        xs = np.tile([2.0, -3.0], (5, 1))
        np.testing.assert_array_equal(trmean(xs, 2), [2.0, -3.0])

    def test_f_zero_is_average(self, x3):
        np.testing.assert_array_equal(trmean(x3, 0), average(x3))

    def test_infeasible_reports_inequality(self, x3):
        with pytest.raises(ValueError, match=r"TrMean requires n > 2f \(got n=3, f=2\)"):
            trmean(x3, 2)

    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, st.data())
    def test_equals_sorted_slice_mean_bit_for_bit(self, xs, data):
        f = data.draw(st.integers(0, (len(xs) - 1) // 2), label="f")
        assert trmean(xs, f).tobytes() == np.sort(xs, axis=0)[f : len(xs) - f].mean(axis=0).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_list_is_rejected(self, bad):
        with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
            trmean([[1.0, 2.0], [3.0, bad], [5.0, 6.0]], 1)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            xs = random_vector_set(rng, n=int(rng.integers(3, 9)))
            f = int(rng.integers(0, (xs.shape[0] - 1) // 2 + 1))
            np.testing.assert_allclose(trmean(xs, f), naive_trmean(xs, f), rtol=1e-12, atol=1e-12)


class TestGeometricMedian:
    def test_collinear_equally_spaced(self, x3):
        np.testing.assert_allclose(geometric_median(x3), [4.0, 5.0, 6.0], atol=1e-6)

    def test_identical_rows(self):
        xs = np.tile([1.5, -2.5], (4, 1))
        np.testing.assert_allclose(geometric_median(xs), [1.5, -2.5], atol=1e-12)

    def test_square_symmetry_center(self):
        xs = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(geometric_median(xs), [1.0, 1.0], atol=1e-6)

    def test_objective_no_worse_than_any_input(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            xs = random_vector_set(rng)
            out = geometric_median(xs)
            best_input = min(geometric_median_objective(row, xs) for row in xs)
            assert geometric_median_objective(out, xs) <= best_input + 1e-6


def numpy_row_norms(xs, v=None):
    """The row norms GeometricMedian took before it reduced rows through one
    buffer: ``np.linalg.norm`` of a fresh (n, d) difference."""
    return np.linalg.norm(xs if v is None else xs - v, axis=1)


class TestRowNorms:
    @settings(deadline=None, max_examples=80)
    @given(column_matrices, tile_budgets, st.data())
    def test_equal_numpy_norms_bit_for_bit(self, xs, budget, data):
        v = data.draw(st.sampled_from([None, xs[0], xs.mean(axis=0), -xs[-1]]), label="v")
        np.testing.assert_array_equal(in_tiles(aggregators._row_norms, budget, xs, v), numpy_row_norms(xs, v))

    @pytest.mark.parametrize("n", [1, 2, 33])
    def test_wide_rows_equal_numpy_norms_bit_for_bit(self, n):
        xs = np.random.default_rng(n).normal(size=(n, 50_890)) * 0.01
        for v in (None, xs.mean(axis=0)):
            np.testing.assert_array_equal(aggregators._row_norms(xs, v), numpy_row_norms(xs, v))

    @settings(deadline=None, max_examples=40)
    @given(scaled_matrices)
    def test_geometric_median_keeps_its_bits(self, xs):
        with np.errstate(all="ignore"):
            got = geometric_median(xs)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(aggregators, "_row_norms", numpy_row_norms)
                np.testing.assert_array_equal(got, geometric_median(xs))


def assert_matches_geometric_median_oracle(xs):
    got, expected = geometric_median(xs), naive_geometric_median(xs)
    reference = geometric_median_objective(expected, xs)
    assert geometric_median_objective(got, xs) <= reference * (1.0 + 1e-12)
    spread = float(np.median(np.linalg.norm(xs - expected, axis=1)))
    assert np.linalg.norm(got - expected) <= 1e-8 * spread


class TestGeometricMedianOracle:
    def test_random_sets(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            xs = random_vector_set(rng, n=int(rng.integers(3, 12)), d=int(rng.integers(2, 6)))
            assert_matches_geometric_median_oracle(xs)

    def test_identical_byzantine_rows(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            honest = random_vector_set(rng, n=int(rng.integers(5, 12)), d=int(rng.integers(2, 6)))
            f = int(rng.integers(1, (len(honest) + 1) // 2))
            attack = honest.mean(axis=0) + rng.normal(size=honest.shape[1]) * 30.0
            xs = np.vstack([honest, np.tile(attack, (f, 1))])
            assert_matches_geometric_median_oracle(xs[rng.permutation(len(xs))])

    def test_optimum_on_an_input_row(self):
        # Opposite pairs around a centre row: their unit pulls cancel, so the
        # centre is the minimiser and Weiszfeld only creeps toward it.
        rng = np.random.default_rng(97)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            centre = rng.normal(size=d) * 10.0
            directions = rng.normal(size=(int(rng.integers(1, 5)), d))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = rng.uniform(0.5, 5.0, size=(len(directions), 2))
            xs = np.vstack([centre, centre + directions * radii[:, :1], centre - directions * radii[:, 1:]])
            assert_matches_geometric_median_oracle(xs[rng.permutation(len(xs))])
            np.testing.assert_allclose(geometric_median(xs), centre, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("radius", [1e3, 1e6, 1e9])
    def test_far_identical_rows(self, radius):
        # A squared norm of 1e18 swamps honest distances of order 1 in the raw
        # inner products x_i . x_j, and leaves the far entries of the squared
        # distance matrix with errors of order 1e2; the rule must still stay
        # with the oracle. At radius 1e9 a few percent of these sets catch an
        # iteration run on the squared distances alone.
        rng = np.random.default_rng(101)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            honest = rng.normal(size=(int(rng.integers(7, 16)), d))
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            xs = np.vstack([honest, np.tile(direction * radius, (3, 1))])
            assert_matches_geometric_median_oracle(xs[rng.permutation(len(xs))])


class TestMultiKrum:
    def test_x3_golden(self, x3):
        np.testing.assert_allclose(multi_krum(x3, 1), GOLDEN, rtol=1e-12)

    def test_identical_rows(self):
        xs = np.tile([4.0, 4.0], (6, 1))
        np.testing.assert_array_equal(multi_krum(xs, 2), [4.0, 4.0])

    def test_infeasible(self):
        with pytest.raises(ValueError, match=r"MultiKrum requires n >= f \+ 2"):
            multi_krum([[1.0], [2.0]], 1)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            xs = random_vector_set(rng, n=int(rng.integers(4, 9)))
            f = int(rng.integers(0, xs.shape[0] - 1))
            np.testing.assert_allclose(multi_krum(xs, f), naive_multi_krum(xs, f), rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=80)
    @given(multi_row_matrices, st.data())
    def test_matches_row_loop_bit_for_bit(self, xs, data):
        f = data.draw(st.integers(0, len(xs) - 2), label="f")
        np.testing.assert_array_equal(multi_krum(xs, f), loop_multi_krum(xs, f))

    @settings(deadline=None, max_examples=80)
    @given(column_matrices, st.data())
    def test_mean_equals_the_gathered_mean_bit_for_bit(self, xs, data):
        f = data.draw(st.integers(0, len(xs) - 2), label="f")
        picked = []

        def first_by_key(*args):
            picked.append(aggregators._first_by_key.__wrapped__(*args))
            return picked[-1]

        first_by_key.__wrapped__ = aggregators._first_by_key
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aggregators, "_first_by_key", first_by_key)
            got = multi_krum(xs, f)
        expected = xs[picked[0]].mean(axis=0)
        np.testing.assert_array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()  # signed zeros too

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_columns_of_negative_zeros_average_to_positive_zero(self, d):
        xs = np.full((5, d), -0.0)
        xs[:, 1:] = np.arange(5.0)[:, None]
        got = multi_krum(xs, 1)
        np.testing.assert_array_equal(np.signbit(got), np.zeros(d, dtype=bool))
        assert got.tobytes() == loop_multi_krum(xs, 1).tobytes()

    def test_wide_rows_match_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(103)
        xs = rng.normal(size=(33, 50_890)) * 0.01
        xs[30:] = xs[:30].mean(axis=0) - 1.5 * xs[:30].std(axis=0)
        np.testing.assert_array_equal(multi_krum(xs, 3), loop_multi_krum(xs, 3))


GRAM_RULES = {"MultiKrum": multi_krum, "GeometricMedian": lambda xs, f: geometric_median(xs)}


def on_exact_kernel(rule, xs, f):
    """``rule`` taking the stable argsort of its keys on the exact kernel's
    distances, as it did before it ranked rows from the Gram form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aggregators, "pairwise_sq_dists",
                   lambda xs: (numerics.trusted_pairwise_sq_dists(xs), np.zeros((len(xs), len(xs)))))
        mp.setattr(aggregators, "stable_head", lambda keys, bounds, exact, need: np.argsort(keys, kind="stable")[:need])
        return rule(xs, f)


class TestGramOrder:
    """Past the block budget MultiKrum and GeometricMedian order rows from
    Gram-form distances; their output equals the stable order of the exact
    kernel's keys bit for bit, past the budget and below it."""

    @pytest.mark.parametrize("f", [1, 3])
    @pytest.mark.parametrize("case", list(gram_cases()))
    @pytest.mark.parametrize("name", list(GRAM_RULES))
    def test_named_cases_equal_exact_path(self, name, case, f):
        xs, rule = gram_cases()[case], GRAM_RULES[name]
        with np.errstate(all="ignore"):
            expected = on_exact_kernel(rule, xs, f)
            np.testing.assert_array_equal(single_block(rule, xs, f), expected)
            for budget in (1, 1 << 40):
                np.testing.assert_array_equal(in_tiles(rule, budget, xs, f), expected)

    @settings(deadline=None, max_examples=120)
    @given(scaled_matrices, tile_budgets, st.sampled_from(list(GRAM_RULES)), st.data())
    def test_equal_exact_path(self, xs, budget, name, data):
        f = data.draw(st.integers(0, len(xs) - 2), label="f")
        rule = GRAM_RULES[name]
        with np.errstate(all="ignore"):
            expected = on_exact_kernel(rule, xs, f)
            np.testing.assert_array_equal(single_block(rule, xs, f), expected)
            np.testing.assert_array_equal(in_tiles(rule, budget, xs, f), expected)

    @pytest.mark.parametrize("name", list(GRAM_RULES))
    def test_attacked_input_recomputes_at_most_f_rows(self, name, monkeypatch, exact_rows):
        bench = load_script("microbench_rules", monkeypatch)
        n, d, f = bench.SHAPES[-1]
        xs = bench.attacked_rows(n, d, f, np.random.default_rng(bench.SEED))
        exact_rows.clear()
        got = GRAM_RULES[name](xs, f)
        assert sum(map(len, exact_rows)) <= f
        monkeypatch.undo()
        np.testing.assert_array_equal(got, on_exact_kernel(GRAM_RULES[name], xs, f))

    @pytest.mark.parametrize("name", list(GRAM_RULES))
    def test_non_finite_entries_send_their_rows_to_the_fallback(self, name, monkeypatch, exact_rows):
        overflow = gram_cases()["overflow"]
        with np.errstate(all="ignore"):
            in_tiles(GRAM_RULES[name], 1 << 40, overflow, 2)
        assert sorted(np.concatenate(exact_rows)) == list(range(len(overflow)))
        # One far row: every row's entry to it is not finite in the Gram form.
        xs = np.vstack([random_vector_set(np.random.default_rng(109), n=6, d=4), np.full(4, 1e200)])
        exact_rows.clear()
        with np.errstate(all="ignore"):
            _, err = in_tiles(numerics.gram_sq_dists, 1 << 40, xs)
            got = in_tiles(GRAM_RULES[name], 1 << 40, xs, 2)
        assert np.isinf(err[:, -1][:-1]).all()
        assert sorted(np.concatenate(exact_rows)) == list(range(len(xs)))
        monkeypatch.undo()
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(got, on_exact_kernel(GRAM_RULES[name], xs, 2))

    @pytest.mark.parametrize("name", list(GRAM_RULES))
    def test_more_than_half_the_rows_come_from_one_exact_matrix(self, name, monkeypatch, exact_rows):
        measured, sq_dists_to = [], numerics.sq_dists_to
        monkeypatch.setattr(numerics, "sq_dists_to", lambda v, xs: measured.append(len(xs)) or sq_dists_to(v, xs))
        xs = gram_cases()["overflow"]
        with np.errstate(all="ignore"):
            got = in_tiles(GRAM_RULES[name], 1 << 40, xs, 2)
        # One call past half the rows: the kernel mirrors the upper triangle.
        assert len(exact_rows) == 1 and 2 * len(exact_rows[0]) > len(xs)
        assert measured == list(range(len(xs), 1, -1))
        monkeypatch.undo()
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(got, on_exact_kernel(GRAM_RULES[name], xs, 2))


class TestMeaMed:
    def test_x3_golden(self, x3):
        np.testing.assert_allclose(meamed(x3, 1), GOLDEN, rtol=1e-12)

    def test_f_zero_is_average(self, x3):
        np.testing.assert_allclose(meamed(x3, 0), average(x3), rtol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            xs = random_vector_set(rng, n=int(rng.integers(2, 9)))
            f = int(rng.integers(0, xs.shape[0]))
            np.testing.assert_allclose(meamed(xs, f), naive_meamed(xs, f), rtol=1e-12, atol=1e-12)


class TestCoordinateTiles:
    @settings(deadline=None, max_examples=120)
    @given(column_matrices, tile_budgets, st.data())
    def test_trmean_and_meamed_equal_parent_expressions(self, xs, budget, data):
        n = len(xs)
        f = data.draw(st.integers(0, (n - 1) // 2), label="TrMean f")
        assert in_tiles(trmean, budget, xs, f).tobytes() == parent_trmean(xs, f).tobytes()
        f = data.draw(st.integers(0, n - 1), label="MeaMed f")
        assert in_tiles(meamed, budget, xs, f).tobytes() == parent_meamed(xs, f).tobytes()

    @settings(deadline=None, max_examples=120)
    @given(column_matrices, tile_budgets)
    def test_median_equals_numpy(self, xs, budget):
        assert in_tiles(median, budget, xs).tobytes() == np.median(xs, axis=0).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 13])
    def test_median_of_signed_zeros_equals_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            xs = rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, 7), p=[0.4, 0.4, 0.1, 0.1])
            for budget in (1, 5, 1 << 40):
                assert in_tiles(median, budget, xs).tobytes() == np.median(xs, axis=0).tobytes()

    # Eleven or more kept values per column: a sum along a transposed view
    # would reduce them pairwise, not in row order. The first columns pair
    # every value with its mirror across the median 0, so deviations tie
    # between different values, which an unstable ranking may swap.
    @pytest.mark.parametrize("n", [20, 21, 40])
    @pytest.mark.parametrize("budget", [1, 7 * 21, 1 << 40])
    def test_long_columns_with_ties_equal_parent_expressions(self, n, budget):
        rng = np.random.default_rng(48)
        xs = rng.normal(size=(n, 37))
        xs[3] = xs[5]
        deltas = rng.uniform(0.1, 1.0, size=n // 2)
        mirrored = np.concatenate([deltas, -deltas, [0.0] * (n % 2)])
        for column in range(6):
            xs[:, column] = rng.permutation(mirrored)
        for f in (0, 1, 2, 4):
            assert in_tiles(trmean, budget, xs, f).tobytes() == parent_trmean(xs, f).tobytes()
            assert in_tiles(meamed, budget, xs, f).tobytes() == parent_meamed(xs, f).tobytes()
        assert in_tiles(median, budget, xs).tobytes() == np.median(xs, axis=0).tobytes()

    def test_wide_rows_equal_parent_expressions(self):
        xs = np.random.default_rng(49).normal(size=(33, 50_890)) * 0.01
        assert trmean(xs, 3).tobytes() == parent_trmean(xs, 3).tobytes()
        assert meamed(xs, 3).tobytes() == parent_meamed(xs, 3).tobytes()
        assert median(xs).tobytes() == np.median(xs, axis=0).tobytes()


class TestOverCopies:
    """A sorted-slice rule given fixed rows over copies of one row equals the
    rule on the stacked rows bit for bit, zeros included."""

    @settings(deadline=None, max_examples=150)
    @given(merge_cases(), st.sampled_from(["Median", "TrMean"]), tile_budgets, st.booleans(), st.data())
    def test_equals_rule_on_stacked_rows(self, case, name, budget, as_list, data):
        fixed, copies, w = case
        stacked = np.vstack([fixed, np.tile(w, (copies, 1))])
        f = data.draw(st.integers(0, len(stacked) // 2), label="f")
        lo, hi = AGGREGATORS[name].window(len(stacked), f)
        assume(copies <= lo < hi <= len(fixed))
        rule, shared = make_aggregator(AggregatorSpec(name, f=f)), {}
        given_rows = OverCopies(list(stacked) if as_list else stacked, len(fixed), shared)
        assert in_tiles(rule, budget, given_rows).tobytes() == in_tiles(rule, budget, stacked).tobytes()
        assert list(shared) == [("sorted", copies, lo, hi)]

    def test_merges_only_a_slice_past_the_copies_inside_the_fixed_rows(self):
        def merged(name, f, n, fixed, d=2):
            rows = np.random.default_rng(n).normal(size=(n, d))
            rows[fixed:] = rows[fixed]
            shared, rule = {}, make_aggregator(AggregatorSpec(name, f=f))
            assert rule(OverCopies(rows, fixed, shared)).tobytes() == rule(rows).tobytes()
            return [key[2:] for key in shared]

        assert merged("TrMean", 2, 9, 7) == [(2, 7)]
        assert merged("TrMean", 2, 9, 6) == []  # three copies: the slice would start among them
        assert merged("Median", 0, 8, 6) == [(3, 5)]
        assert merged("Median", 0, 8, 6, d=1) == []  # numpy sums a lone column pairwise
        assert merged("MeaMed", 1, 8, 6) == []
        with pytest.raises(ValueError, match=r"TrMean requires n > 2f"):
            merged("TrMean", 2, 4, 3)
        # No row of the table has a slice that fits the fixed rows but starts
        # among the copies; a window that does is served densely.
        rows = np.random.default_rng(3).normal(size=(6, 3))
        rows[4:] = rows[4]
        shared = {}
        given = OverCopies(rows, 4, shared).slice_means(1, 3, lambda xs: sorted_slice_means(as_vector_set(xs), 1, 3))
        assert given.tobytes() == sorted_slice_means(rows, 1, 3).tobytes() and shared == {}

    def test_non_finite_copied_row_is_rejected(self, x3):
        rows = x3.copy()
        rows[2] = np.inf
        with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
            OverCopies(rows, 2, {})


@pytest.mark.parametrize("rule", [lambda xs: multi_krum(xs, 1), geometric_median, lambda xs: mda(xs, 1),
                                  lambda xs: nnm(xs, 1), lambda xs: caf(xs, 1), lambda xs: smea(xs, 1)],
                         ids=["MultiKrum", "GeometricMedian", "MDA", "NNM", "CAF", "SMEA"])
def test_distance_rules_check_their_input_once(rule, x4, monkeypatch):
    expected = rule(x4)

    def second_check(xs):
        raise AssertionError("the checked matrix was checked again")

    monkeypatch.setattr(numerics, "as_vector_set", second_check)
    for budget in (1, 1 << 40):
        np.testing.assert_array_equal(in_tiles(rule, budget, x4), expected)


class TestMda:
    def test_x3_tie_breaks_lexicographically(self, x3):
        np.testing.assert_allclose(mda(x3, 1), GOLDEN, rtol=1e-12)

    def test_f_zero_is_average(self, x3):
        np.testing.assert_array_equal(mda(x3, 0), average(x3))

    def test_size_guard(self):
        xs = np.zeros((26, 2))
        with pytest.raises(ValueError, match="n <= 25"):
            mda(xs, 1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            xs = random_vector_set(rng, n=int(rng.integers(3, 9)))
            f = int(rng.integers(0, 3))
            np.testing.assert_allclose(mda(xs, f), brute_mda(xs, f), rtol=1e-12, atol=1e-12)


class TestCenteredClipping:
    def test_inactive_radius_gives_mean(self, x3):
        np.testing.assert_allclose(centered_clipping(x3, tau=1e6, iters=1), [4.0, 5.0, 6.0], rtol=1e-12)

    def test_identical_rows_within_radius(self):
        xs = np.tile([3.0, 4.0], (4, 1))
        np.testing.assert_array_equal(centered_clipping(xs, tau=5.0, iters=1), [3.0, 4.0])

    def test_clip_engages(self):
        np.testing.assert_array_equal(centered_clipping([[2.0]], tau=1.0, iters=1), [1.0])

    def test_state_carries_between_calls(self):
        state = CenteredClipState()
        first = centered_clipping([[2.0]], state, tau=1.0, iters=1)
        np.testing.assert_array_equal(first, [1.0])
        second = centered_clipping([[2.0]], state, tau=1.0, iters=1)
        np.testing.assert_array_equal(second, [2.0])  # starts at 1, unclipped step of 1

    def test_dimension_mismatch_rejected(self):
        state = CenteredClipState(prev=np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            centered_clipping([[1.0, 2.0]], state)

    def test_parameter_validation(self, x3):
        for tau in (0.0, float("nan")):
            with pytest.raises(ValueError, match=f"CenteredClipping tau must be positive, got {tau}"):
                centered_clipping(x3, tau=tau)
        with pytest.raises(ValueError, match="CenteredClipping iters must be >= 1, got 0"):
            centered_clipping(x3, iters=0)

    def test_more_iterations_converge_on_identical_rows(self):
        xs = np.tile([30.0, 40.0], (3, 1))  # norm 50, radius 5: needs many passes
        out = centered_clipping(xs, tau=5.0, iters=40)
        np.testing.assert_allclose(out, [30.0, 40.0], atol=1e-6)


class TestMonna:
    def test_default_pivot_golden(self, x3):
        np.testing.assert_allclose(monna(x3, 1), GOLDEN, rtol=1e-12)

    def test_far_pivot(self, x3):
        np.testing.assert_allclose(monna(x3, 1, pivot=2), [5.5, 6.5, 7.5], rtol=1e-12)

    def test_pivot_bounds(self, x3):
        with pytest.raises(ValueError, match="pivot"):
            monna(x3, 1, pivot=3)

    @settings(deadline=None, max_examples=80)
    @given(scaled_matrices, st.sampled_from([1, 1 << 40]), st.data())
    def test_every_pivot_equals_parent_ranking(self, xs, budget, data):
        f = data.draw(st.integers(0, len(xs) - 1), label="f")
        for pivot in range(len(xs)):
            with np.errstate(all="ignore"):
                got = in_blocks(monna, 1, budget, xs, f, pivot)
                assert got.tobytes() == parent_monna(xs, f, pivot).tobytes()

    @pytest.mark.parametrize("d", [1, 8_191, 8_192, 8_193, BUFFERED_D])
    def test_every_pivot_equals_parent_ranking_on_wide_rows(self, d):
        xs = np.random.default_rng(d).normal(size=(5, d))
        xs[3] = xs[1]
        for pivot in range(len(xs)):
            for budget in (1, 1 << 40):
                assert in_blocks(monna, 1, budget, xs, 2, pivot).tobytes() == parent_monna(xs, 2, pivot).tobytes()


class TestSmea:
    def test_x3_tie_breaks_lexicographically(self, x3):
        np.testing.assert_allclose(smea(x3, 1), GOLDEN, rtol=1e-12)

    def test_identical_rows(self):
        xs = np.tile([1.0, 1.0], (4, 1))
        np.testing.assert_array_equal(smea(xs, 1), [1.0, 1.0])

    def test_f_zero_is_average(self, x3):
        np.testing.assert_allclose(smea(x3, 0), average(x3), rtol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 25"):
            smea(np.zeros((26, 2)), 1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            xs = random_vector_set(rng, n=int(rng.integers(3, 9)))
            f = int(rng.integers(0, 3))
            np.testing.assert_allclose(smea(xs, f), brute_smea(xs, f), rtol=1e-9, atol=1e-9)


class TestCaf:
    def test_identical_rows(self):
        xs = np.tile([2.0, 7.0], (5, 1))
        np.testing.assert_array_equal(caf(xs, 2), [2.0, 7.0])

    def test_x3_filters_symmetric_extremes(self, x3):
        np.testing.assert_allclose(caf(x3, 1), [4.0, 5.0, 6.0], atol=1e-9)

    def test_single_outlier_removed(self):
        xs = np.array([[0.0], [0.0], [0.0], [100.0]])
        np.testing.assert_allclose(caf(xs, 1), [0.0], atol=1e-6)

    def test_matches_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            xs = random_vector_set(rng, n=int(rng.integers(3, 12)), d=int(rng.integers(2, 8)))
            f = int(rng.integers(1, len(xs)))
            np.testing.assert_allclose(caf(xs, f), naive_caf(xs, f), rtol=1e-9, atol=1e-12)

    def test_wide_rows_match_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(109)
        honest = rng.normal(size=(20, 300)) + rng.normal(size=300)
        xs = np.vstack([honest, np.tile(honest.mean(axis=0) - 1.5 * honest.std(axis=0), (4, 1))])
        np.testing.assert_allclose(caf(xs, 4), naive_caf(xs, 4), rtol=1e-9, atol=1e-12)

    def test_output_finite_on_random_inputs(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            xs = random_vector_set(rng, n=int(rng.integers(3, 9)))
            f = int(rng.integers(0, xs.shape[0]))
            assert np.all(np.isfinite(caf(xs, f)))


# ---------------------------------------------------------------------------
# Cross-rule structural properties. The acceptance suite re-runs these at the
# mandated instance counts; these loops guard day-to-day edits cheaply.
# ---------------------------------------------------------------------------

TRANSLATION_RULES = ("Average", "Median", "TrMean", "GeometricMedian", "MultiKrum", "MeaMed", "MDA", "MoNNA", "SMEA")
PERMUTATION_RULES = tuple(n for n in AGGREGATOR_NAMES if n not in ("MoNNA", "CenteredClipping"))


def apply_rule(name: str, xs: np.ndarray, f: int) -> np.ndarray:
    return make_aggregator(AggregatorSpec(name, f=f))(xs)


@pytest.mark.parametrize("name", AGGREGATOR_NAMES)
def test_fixed_point_on_identical_rows(name):
    rng = np.random.default_rng(67)
    for _ in range(10):
        x = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 7)))
        xs = np.tile(x, (7, 1))
        np.testing.assert_allclose(apply_rule(name, xs, 2), x, atol=1e-9)


@pytest.mark.parametrize("name", TRANSLATION_RULES)
def test_translation_equivariance(name):
    rng = np.random.default_rng(71)
    for _ in range(10):
        xs = random_vector_set(rng, n=7)
        t = rng.normal(size=xs.shape[1]) * 5.0
        np.testing.assert_allclose(apply_rule(name, xs + t, 2), apply_rule(name, xs, 2) + t, atol=1e-8)


@pytest.mark.parametrize("name", PERMUTATION_RULES)
def test_permutation_invariance_general_position(name):
    rng = np.random.default_rng(73)
    for _ in range(10):
        xs = random_vector_set(rng, n=7)
        perm = rng.permutation(7)
        np.testing.assert_allclose(apply_rule(name, xs[perm], 2), apply_rule(name, xs, 2), atol=1e-9)


def test_breakdown_boundedness_and_average_blowup():
    robust = ("Median", "TrMean", "MeaMed", "MDA", "MultiKrum", "GeometricMedian", "MoNNA", "SMEA", "CAF")
    rng = np.random.default_rng(79)
    n, f, d = 7, 2, 4
    for radius in (1e3, 1e6, 1e9):
        honest = rng.normal(size=(n - f, d))
        honest /= max(1.0, float(np.linalg.norm(honest, axis=1).max()))
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        xs = np.vstack([honest, np.tile(direction * radius, (f, 1))])
        for name in robust:
            assert np.linalg.norm(apply_rule(name, xs, f)) <= 25.0, name
        assert np.linalg.norm(apply_rule("Average", xs, f)) >= 0.1 * radius


# ---------------------------------------------------------------------------
# Spec construction and dispatch
# ---------------------------------------------------------------------------


class TestAggregatorSpec:
    def test_unknown_name_lists_rules(self):
        with pytest.raises(ValueError, match="Average"):
            AggregatorSpec("Krum")

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AggregatorSpec("Median", f=-1)

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            AggregatorSpec("Median", parameters={"tau": 1.0})

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"tau": 0}, "CenteredClipping parameter tau must be positive, got 0.0"),
            ({"tau": float("nan")}, "CenteredClipping parameter tau must be positive, got nan"),
            ({"iters": 0}, "CenteredClipping parameter iters must be >= 1, got 0"),
        ],
        ids=["tau-0", "tau-nan", "iters-0"],
    )
    def test_bounds_name_rule_parameter_and_value(self, params, message):
        with pytest.raises(ValueError, match=message):
            AggregatorSpec("CenteredClipping", parameters=params)

    def test_each_configured_rule_carries_its_own_state(self):
        spec = AggregatorSpec("CenteredClipping", parameters={"tau": 1.0})
        first, second = make_aggregator(spec), make_aggregator(spec)
        first(np.array([[4.0, 0.0]]))
        np.testing.assert_array_equal(first.carried["state"].prev, [1.0, 0.0])
        assert second.carried["state"].prev is None
        assert make_aggregator(AggregatorSpec("Median")).carried == {}

    def test_clipping_params_accepted(self, x3):
        agg = make_aggregator(AggregatorSpec("CenteredClipping", parameters={"tau": 1e6, "iters": 1}))
        np.testing.assert_allclose(agg(x3), [4.0, 5.0, 6.0], rtol=1e-12)

    def test_monna_pivot_param(self, x3):
        agg = make_aggregator(AggregatorSpec("MoNNA", f=1, parameters={"pivot": 2}))
        np.testing.assert_allclose(agg(x3), [5.5, 6.5, 7.5], rtol=1e-12)

    def test_int_parameter_too_large_for_a_float_is_read_exactly(self, x3):
        spec = AggregatorSpec("MoNNA", f=1, parameters={"pivot": 10**400})
        assert spec.parameters["pivot"] == 10**400
        with pytest.raises(ValueError, match=r"pivot must lie in \[0, 3\)"):
            make_aggregator(spec)(x3)

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    def test_float_parameter_too_large_for_a_float_is_a_value_error(self, sign):
        with pytest.raises(ValueError, match="CenteredClipping parameter tau must be"):
            AggregatorSpec("CenteredClipping", parameters={"tau": sign * 10**400})

    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_dispatch_matches_direct_call(self, name, x3):
        configured = make_aggregator(AggregatorSpec(name, f=1))(x3)
        direct = {
            "Average": lambda: average(x3),
            "Median": lambda: median(x3),
            "TrMean": lambda: trmean(x3, 1),
            "GeometricMedian": lambda: geometric_median(x3),
            "MultiKrum": lambda: multi_krum(x3, 1),
            "MeaMed": lambda: meamed(x3, 1),
            "MDA": lambda: mda(x3, 1),
            "CenteredClipping": lambda: centered_clipping(x3),
            "MoNNA": lambda: monna(x3, 1),
            "SMEA": lambda: smea(x3, 1),
            "CAF": lambda: caf(x3, 1),
        }[name]()
        np.testing.assert_array_equal(configured, direct)
