import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustfl import attacks, numerics, preaggregators
from robustfl.aggregators import AGGREGATOR_NAMES, AggregatorSpec, ConfiguredAggregator
from robustfl.attacks import (
    AFFINE_BASES,
    ATTACK_NAMES,
    ATTACKS,
    DEFAULT_ALIE_SCALE,
    DEFAULT_IPM_SCALE,
    DEFAULT_SCALE_GRID,
    AttackContext,
    AttackSpec,
    a_little_is_enough,
    crafted,
    inner_product_manipulation,
    optimize_attack_scale,
    sign_flipping,
)
from robustfl.numerics import OverCopies, SortedColumns
from robustfl.preaggregators import Pipeline, PreAggregatorSpec, build_pipeline
from robustfl.seeding import derive_rng

from conftest import column_matrices, finite_elements, in_blocks, in_tiles, random_vector_set, tile_budgets
from oracles import rescore_attack_grid


def average_pipeline():
    return build_pipeline(AggregatorSpec("Average"))


# Pipelines the scale search must score exactly as clone-per-candidate does,
# built for an adversary of multiplicity f.
SCORED_PIPELINES = {
    "NNM>TrMean": lambda f: build_pipeline(AggregatorSpec("TrMean", f=f), [PreAggregatorSpec("NNM", f=f)]),
    "NNM>Median": lambda f: build_pipeline(AggregatorSpec("Median"), [PreAggregatorSpec("NNM", f=f)]),
    "NNM>MultiKrum": lambda f: build_pipeline(AggregatorSpec("MultiKrum", f=f), [PreAggregatorSpec("NNM", f=f)]),
    # The second NNM may get the first one's merged output.
    "NNM>NNM>TrMean": lambda f: build_pipeline(AggregatorSpec("TrMean", f=f), [PreAggregatorSpec("NNM", f=f)] * 2),
    # Stateful, and NNM is second: it must compute its own distances.
    "Bucketing>NNM>CenteredClipping": lambda f: build_pipeline(
        AggregatorSpec("CenteredClipping", parameters={"tau": 5.0, "iters": 2.0}),
        [PreAggregatorSpec("Bucketing", parameters={"s": 2.0}), PreAggregatorSpec("NNM", f=1)],
        rng=derive_rng(f, "bucketing"),
    ),
    "Clipping>NNM>Average": lambda f: build_pipeline(
        AggregatorSpec("Average"), [PreAggregatorSpec("Clipping", {"c": 15.0}), PreAggregatorSpec("NNM", f=f)]
    ),
    "MultiKrum": lambda f: build_pipeline(AggregatorSpec("MultiKrum", f=f)),
}


def rows_about_an_integer_centre(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n >= 3 integer rows whose mean is exactly row 0 and whose row 2 is 0,
    so ALIE and IPM at scale 0 both equal an honest row."""
    centre = rng.integers(1, 6, size=d).astype(float)
    rows = [centre, 2 * centre, 0 * centre]
    while len(rows) + 2 <= n:
        offset = rng.integers(-5, 6, size=d)
        rows += [centre + offset, centre - offset]
    if len(rows) < n:
        rows.append(centre)
    return np.array(rows)


class TestSignFlipping:
    def test_x3_golden(self, x3):
        np.testing.assert_array_equal(sign_flipping(x3), [-4.0, -5.0, -6.0])

    def test_single_row_negated(self):
        np.testing.assert_array_equal(sign_flipping([[2.0, -3.0]]), [-2.0, 3.0])

    def test_zero_sum_rows(self):
        xs = np.array([[1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(sign_flipping(xs), [0.0, 0.0])

    def test_power_of_two_scale_equivariance_is_exact(self):
        rng = np.random.default_rng(21)
        for c in (2.0, 0.5, -4.0, 8.0):
            xs = random_vector_set(rng)
            np.testing.assert_array_equal(sign_flipping(c * xs), c * sign_flipping(xs))

    def test_general_scale_equivariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            xs = random_vector_set(rng)
            c = float(rng.uniform(-3.0, 3.0))
            np.testing.assert_allclose(sign_flipping(c * xs), c * sign_flipping(xs), rtol=1e-12, atol=1e-12)


class TestInnerProductManipulation:
    def test_x3_half(self, x3):
        np.testing.assert_allclose(inner_product_manipulation(x3, 0.5), [-2.0, -2.5, -3.0], atol=1e-12)

    def test_unit_scale_equals_sign_flipping(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            xs = random_vector_set(rng)
            np.testing.assert_array_equal(inner_product_manipulation(xs, 1.0), sign_flipping(xs))

    def test_zero_scale(self, x3):
        np.testing.assert_array_equal(inner_product_manipulation(x3, 0.0), [0.0, 0.0, 0.0])


class TestALittleIsEnough:
    def test_x3_unit_scale(self, x3):
        expected = np.array([4.0, 5.0, 6.0]) - math.sqrt(6.0)
        np.testing.assert_allclose(a_little_is_enough(x3, 1.0), expected, atol=1e-12)

    def test_zero_scale_is_mean(self, x3):
        np.testing.assert_array_equal(a_little_is_enough(x3, 0.0), [4.0, 5.0, 6.0])

    def test_identical_rows_ignore_scale(self):
        xs = np.tile([3.0, -1.0], (4, 1))
        for scale in (0.0, 1.5, 100.0):
            np.testing.assert_array_equal(a_little_is_enough(xs, scale), [3.0, -1.0])

    def test_single_row_is_itself(self):
        np.testing.assert_array_equal(a_little_is_enough([[7.0, 7.0]], 5.0), [7.0, 7.0])


# Rows of a few distinct values with zeros of both signs, so means and stds
# come out as signed zeros.
signed_zero_rows = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda d: arrays(np.float64, (n, d), elements=st.one_of(finite_elements, st.sampled_from([0.0, -0.0, 2.0])))
    )
)
scales = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-50.0, 50.0))


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


class TestClosedFormsAgainstOneLineExpressions:
    """The closed forms compute through ``AFFINE_BASES`` and must equal the
    one-line expressions they replaced, down to the sign of a zero."""

    @settings(deadline=None, max_examples=200)
    @given(signed_zero_rows, scales)
    def test_ipm(self, xs, tau):
        assert_same_bits(inner_product_manipulation(xs, tau), -tau * xs.mean(axis=0))

    @settings(deadline=None, max_examples=200)
    @given(signed_zero_rows, scales)
    def test_alie(self, xs, tau):
        assert_same_bits(a_little_is_enough(xs, tau), xs.mean(axis=0) - tau * xs.std(axis=0))

    @settings(deadline=None, max_examples=120)
    @given(column_matrices, tile_budgets)
    def test_alie_parts_in_tiles(self, xs, budget):
        mean, std = in_tiles(AFFINE_BASES[a_little_is_enough].parts, budget, xs)
        assert_same_bits(mean, xs.mean(axis=0))
        assert_same_bits(std, xs.std(axis=0))

    @pytest.mark.parametrize("budget", [1, 7 * 20, 1 << 40])
    def test_alie_parts_of_long_columns_in_tiles(self, budget):
        # Twenty rows: a sum along a transposed view would reduce them pairwise.
        xs = np.random.default_rng(50).normal(size=(20, 37))
        mean, std = in_tiles(AFFINE_BASES[a_little_is_enough].parts, budget, xs)
        assert_same_bits(mean, xs.mean(axis=0))
        assert_same_bits(std, xs.std(axis=0))

    def test_zero_scale_on_signed_zero_rows(self):
        xs = np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, -0.0, -1.0, 0.0]])
        for tau in (0.0, -0.0):
            assert_same_bits(inner_product_manipulation(xs, tau), -tau * xs.mean(axis=0))
            assert_same_bits(a_little_is_enough(xs, tau), xs.mean(axis=0) - tau * xs.std(axis=0))


class TestVectorAttacksGeneral:
    def test_dimension_and_finiteness(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            xs = random_vector_set(rng)
            ctx = AttackContext(honest=xs, f=2, pipeline=average_pipeline())
            for name in (name for name, rule in ATTACKS.items() if rule.fn is not None):
                out = crafted(AttackSpec(name), ctx)
                out = out.vector if name.startswith("Optimal_") else out
                assert out.shape == (xs.shape[1],)
                assert np.isfinite(out).all()


class TestOptimizeAttackScale:
    def test_alie_on_average_picks_grid_max(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        result = optimize_attack_scale(ctx, a_little_is_enough, DEFAULT_SCALE_GRID)
        assert result.scale == 10.0
        np.testing.assert_array_equal(result.vector, a_little_is_enough(x3, 10.0))

    def test_single_point_grid_still_scores(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        result = optimize_attack_scale(ctx, inner_product_manipulation, grid=(0.0,))
        assert result.scale == 0.0
        # A zero attack vector still drags the mean of 4 rows: score = |mu| / 4.
        assert result.score == pytest.approx(math.sqrt(77.0) / 4.0, rel=1e-12)

    def test_identical_honest_rows_tie_to_smallest_scale(self):
        xs = np.tile([2.0, 5.0], (3, 1))
        ctx = AttackContext(honest=xs, f=1, pipeline=average_pipeline())
        result = optimize_attack_scale(ctx, a_little_is_enough, grid=(0.5, 0.25, 2.0))
        assert result.scale == 0.25

    def test_score_beats_exhaustive_rescoring(self):
        rng = np.random.default_rng(25)
        factories = [
            average_pipeline,
            lambda: build_pipeline(AggregatorSpec("TrMean", f=1)),
            lambda: build_pipeline(AggregatorSpec("Median"), [PreAggregatorSpec("NNM", f=1)]),
        ]
        for trial in range(20):
            xs = random_vector_set(rng, n=int(rng.integers(4, 8)))
            f = int(rng.integers(1, 3))
            factory = factories[trial % len(factories)]
            base = a_little_is_enough if trial % 2 else inner_product_manipulation
            ctx = AttackContext(honest=xs, f=f, pipeline=factory())
            result = optimize_attack_scale(ctx, base, DEFAULT_SCALE_GRID)
            oracle_scale, oracle_score = rescore_attack_grid(factory, xs, f, base, DEFAULT_SCALE_GRID)
            assert result.score == pytest.approx(oracle_score, abs=1e-12)
            assert result.scale == oracle_scale

    @pytest.mark.parametrize("base", [a_little_is_enough, inner_product_manipulation])
    @pytest.mark.parametrize("pipeline_name", list(SCORED_PIPELINES))
    def test_equals_clone_per_candidate_rescoring(self, pipeline_name, base):
        rng = np.random.default_rng(26)
        for trial in range(8):
            n, f = int(rng.integers(3, 8)), int(rng.integers(1, 3))
            xs = random_vector_set(rng, n=n)
            if trial % 2:
                xs[n - 1] = xs[1] = xs[0]
            live = SCORED_PIPELINES[pipeline_name](f)
            # Move clip memory and shuffle streams off their initial state.
            live(rng.normal(size=(n + f, xs.shape[1])) * 10.0)
            result = optimize_attack_scale(AttackContext(honest=xs, f=f, pipeline=live), base, DEFAULT_SCALE_GRID)
            oracle_scale, oracle_score = rescore_attack_grid(live.clone, xs, f, base, DEFAULT_SCALE_GRID)
            assert (result.scale, result.score) == (oracle_scale, oracle_score)
            np.testing.assert_array_equal(result.vector, base(xs, oracle_scale))

    @pytest.mark.parametrize("base", [a_little_is_enough, inner_product_manipulation])
    @pytest.mark.parametrize("pipeline_name", ["NNM>TrMean", "NNM>Median", "NNM>MultiKrum", "NNM>NNM>TrMean"])
    def test_rows_past_the_block_budget_equal_clone_per_candidate_rescoring(self, pipeline_name, base):
        # The budget is below one row's neighbour block, so NNM sums every output
        # row in place and the search serves honest-only neighbour means from
        # its memo, while the oracle recomputes every candidate in full.
        rng = np.random.default_rng(28)
        for trial in range(9):
            n, f, d = int(rng.integers(4, 9)), int(rng.integers(1, 3)), int(rng.integers(2, 6))
            xs = random_vector_set(rng, n=n, d=d)
            if trial % 3 == 1:
                xs[n - 1] = xs[1] = xs[0]
            elif trial % 3 == 2:
                xs = rows_about_an_integer_centre(rng, n, d)
            live = SCORED_PIPELINES[pipeline_name](f)

            def search_and_oracle():
                ctx = AttackContext(honest=xs, f=f, pipeline=live)
                return (
                    optimize_attack_scale(ctx, base, DEFAULT_SCALE_GRID),
                    rescore_attack_grid(live.clone, xs, f, base, DEFAULT_SCALE_GRID),
                )

            result, (oracle_scale, oracle_score) = in_blocks(search_and_oracle, 1, n * d - 1)
            assert (result.scale, result.score) == (oracle_scale, oracle_score)
            np.testing.assert_array_equal(result.vector, base(xs, oracle_scale))

    @settings(deadline=None, max_examples=60)
    @given(column_matrices, st.sampled_from(["TrMean", "Median"]), st.booleans(), st.booleans(),
           st.sampled_from([a_little_is_enough, inner_product_manipulation]), st.data())
    def test_sorted_slice_rules_equal_exhaustive_rescoring(self, xs, name, behind_nnm, in_place, base, data):
        # Signed zeros, duplicates, and IPM at scale 0 (-0.0 rows): the merged
        # candidates must score exactly as the dense oracle does.
        n, d = xs.shape
        f = data.draw(st.integers(1, max(1, n - 1)), label="f")
        spec = AggregatorSpec(name, f=data.draw(st.integers(0, (n + f - 1) // 2), label="rule f"))
        pres = [PreAggregatorSpec("NNM", f=data.draw(st.integers(0, n + f - 1), label="NNM f"))] if behind_nnm else []
        budget = 1 if in_place else 1 << 40

        def search_and_oracle():
            live = build_pipeline(spec, pres)
            return (
                optimize_attack_scale(AttackContext(honest=xs, f=f, pipeline=live), base, DEFAULT_SCALE_GRID),
                rescore_attack_grid(live.clone, xs, f, base, DEFAULT_SCALE_GRID),
            )

        result, (oracle_scale, oracle_score) = in_blocks(search_and_oracle, 1, budget)
        assert (result.scale, result.score) == (oracle_scale, oracle_score)
        np.testing.assert_array_equal(result.vector, base(xs, oracle_scale))

    @pytest.mark.parametrize("pres", [[], [PreAggregatorSpec("NNM", f=2)]], ids=["TrMean", "NNM>TrMean"])
    def test_candidates_reach_the_rule_merged(self, monkeypatch, pres):
        # Far attack rows keep every honest neighbour list honest, so each
        # candidate reaches TrMean as fixed rows over its copies, and the
        # fixed rows are sorted once (behind NNM, on its in-place path, which
        # the block budget forces).
        xs = random_vector_set(np.random.default_rng(31), n=6, d=4)
        given, built = [], []
        call = ConfiguredAggregator.__call__

        def recording(self, rows):
            given.append(rows)
            return call(self, rows)

        class Counted(SortedColumns):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(ConfiguredAggregator, "__call__", recording)
        monkeypatch.setattr(numerics, "SortedColumns", Counted)
        ctx = AttackContext(honest=xs, f=2, pipeline=build_pipeline(AggregatorSpec("TrMean", f=2), pres))
        in_blocks(optimize_attack_scale, 1, 1, ctx, inner_product_manipulation, (50.0, 60.0, 70.0))
        assert len(given) == 3 and all(isinstance(rows, OverCopies) for rows in given)
        assert len({id(rows.shared) for rows in given}) == 1
        assert len(built) == 1

    def test_neighbour_mean_that_overflows_is_rejected(self):
        # Honest rows of alternating sign near the largest float: on NNM's
        # in-place path an honest neighbour mean overflows, which the search
        # must reject as the dense pipeline does.
        xs = np.array([[(-1.0) ** k * 1e308, k] for k in range(1, 7)])
        factory = SCORED_PIPELINES["NNM>TrMean"]
        for search in (
            lambda: optimize_attack_scale(AttackContext(xs, 2, factory(2)), inner_product_manipulation, (1.0, 2.0)),
            lambda: rescore_attack_grid(lambda: factory(2), xs, 2, inner_product_manipulation, (1.0, 2.0)),
        ):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
                in_blocks(search, 1, 1)

    def test_honest_distances_computed_once_per_search(self, monkeypatch):
        computed = []

        def counting(xs):
            computed.append(xs.copy())
            return numerics.gram_sq_dists(xs)

        monkeypatch.setattr(preaggregators, "pairwise_sq_dists", counting)
        xs = random_vector_set(np.random.default_rng(27), n=6)
        ctx = AttackContext(honest=xs, f=2, pipeline=SCORED_PIPELINES["NNM>TrMean"](2))
        optimize_attack_scale(ctx, a_little_is_enough, DEFAULT_SCALE_GRID)
        assert not hasattr(attacks, "pairwise_sq_dists")
        assert len(computed) == 1
        assert computed[0].tobytes() == xs.tobytes()

    def test_grid_search_leaves_live_pipeline_untouched(self, x3):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", parameters={"tau": 1.0, "iters": 1.0}))
        pipeline(np.array([[5.0, 5.0, 5.0]]))
        before = pipeline.aggregator.carried["state"].prev.copy()
        ctx = AttackContext(honest=x3, f=1, pipeline=pipeline)
        optimize_attack_scale(ctx, inner_product_manipulation, DEFAULT_SCALE_GRID)
        np.testing.assert_array_equal(pipeline.aggregator.carried["state"].prev, before)

    @staticmethod
    def recorded_search(monkeypatch, pipeline, xs, f, base):
        """Run a search, recording each matrix the pipeline clones were given
        and a copy of its rows at that moment."""
        given_to, rows = [], []
        call = Pipeline.__call__

        def recording(self, matrix):
            given_to.append(matrix)
            rows.append(np.array(matrix))
            return call(self, matrix)

        monkeypatch.setattr(Pipeline, "__call__", recording)
        result = optimize_attack_scale(AttackContext(honest=xs, f=f, pipeline=pipeline), base, DEFAULT_SCALE_GRID)
        monkeypatch.undo()
        return result, given_to, rows

    @pytest.mark.parametrize("base", [a_little_is_enough, inner_product_manipulation])
    def test_each_candidate_is_the_closed_form_over_the_honest_rows(self, monkeypatch, base):
        rng = np.random.default_rng(29)
        xs = random_vector_set(rng, n=6, d=4)
        xs[:, 1] = 0.0
        xs[:, 2] = -0.0
        f = 2
        _, given_to, rows = self.recorded_search(monkeypatch, SCORED_PIPELINES["NNM>TrMean"](f), xs, f, base)
        assert len(rows) == len(DEFAULT_SCALE_GRID)
        assert all(isinstance(matrix, OverCopies) and matrix.fixed == len(xs) for matrix in given_to)
        for scale, candidate in zip(DEFAULT_SCALE_GRID, rows):
            expected = np.vstack([xs, np.tile(base(xs, scale), (f, 1))])
            assert candidate.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("base", [a_little_is_enough, inner_product_manipulation])
    def test_candidate_buffer_leaks_nowhere(self, monkeypatch, base):
        rng = np.random.default_rng(30)
        f, xs = 2, random_vector_set(rng, n=6, d=4)
        before = xs.tobytes()
        live = SCORED_PIPELINES["Bucketing>NNM>CenteredClipping"](f)
        live(rng.normal(size=(len(xs) + f, xs.shape[1])) * 10.0)
        centre = live.aggregator.carried["state"].prev.tobytes()
        stream = live.pre_aggregators[0].carried["rng"].bit_generator.state
        result, given_to, _ = self.recorded_search(monkeypatch, live, xs, f, base)
        assert len({id(matrix.rows) for matrix in given_to}) == len({id(matrix.shared) for matrix in given_to}) == 1
        assert not np.shares_memory(result.vector, given_to[0].rows)
        assert xs.tobytes() == before
        assert live.aggregator.carried["state"].prev.tobytes() == centre
        assert live.pre_aggregators[0].carried["rng"].bit_generator.state == stream

    def test_base_without_affine_row_is_rejected(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        with pytest.raises(ValueError, match="no row in AFFINE_BASES"):
            optimize_attack_scale(ctx, sign_flipping)

    def test_non_finite_candidate_is_rejected(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=SCORED_PIPELINES["NNM>TrMean"](1))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            optimize_attack_scale(ctx, inner_product_manipulation, grid=(1e308,))

    def test_rejects_empty_grid_and_passive_adversary(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        with pytest.raises(ValueError, match="grid must be non-empty"):
            optimize_attack_scale(ctx, inner_product_manipulation, grid=())
        with pytest.raises(ValueError, match="f >= 1"):
            optimize_attack_scale(
                AttackContext(honest=x3, f=0, pipeline=average_pipeline()), inner_product_manipulation
            )


# Every pre-aggregator, alone or none, in front of each rule of the reuse tests.
PRE_STAGES = {
    "none": [],
    "NNM": [PreAggregatorSpec("NNM", f=2)],
    "Bucketing": [PreAggregatorSpec("Bucketing", parameters={"s": 2.0})],
    "Clipping": [PreAggregatorSpec("Clipping", {"c": 15.0})],
    "ARC": [PreAggregatorSpec("ARC", f=2)],
}


def pipeline_state(pipeline: Pipeline) -> tuple:
    """What a pipeline carries across calls: CenteredClipping's centre bytes and each Bucketing stream."""
    centre = getattr(pipeline.aggregator.carried.get("state"), "prev", None)
    streams = [pre.carried["rng"].bit_generator.state for pre in pipeline.pre_aggregators if "rng" in pre.carried]
    return None if centre is None else centre.tobytes(), streams


class TestSearchWinner:
    """The search hands back its winner's aggregate and pipeline clone: what the
    live pipeline gives, and is left in, on the dense rows of that winner."""

    @pytest.mark.parametrize("base", [a_little_is_enough, inner_product_manipulation])
    @pytest.mark.parametrize("pres", list(PRE_STAGES))
    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_winner_equals_live_clone_on_the_dense_rows(self, name, pres, base):
        rng = np.random.default_rng(43)
        f, xs = 2, random_vector_set(rng, n=7, d=5)
        xs[:, 1] = 0.0
        xs[::2, 2] = -0.0
        live = build_pipeline(AggregatorSpec(name, f=f), PRE_STAGES[pres], rng=derive_rng(5, "bucketing"))
        live(rng.normal(size=(len(xs) + f, xs.shape[1])) * 10.0)  # off the initial state
        before = pipeline_state(live)
        result = optimize_attack_scale(AttackContext(honest=xs, f=f, pipeline=live), base, DEFAULT_SCALE_GRID)
        twin = live.clone()
        expected = twin(np.vstack([xs, np.tile(result.vector, (f, 1))]))
        assert result.aggregate.tobytes() == expected.tobytes()
        assert pipeline_state(result.pipeline) == pipeline_state(twin)
        assert pipeline_state(live) == before and result.pipeline is not live

    @pytest.mark.parametrize("name", ["Median", "TrMean", "Average"])
    def test_signed_zero_columns_keep_their_bytes(self, name):
        # Columns of zeros of one sign or both, under copies of +0.0 or -0.0.
        xs = np.array([[-0.0, 0.0, -0.0, 1.0], [-0.0, -0.0, 0.0, 2.0], [-0.0, 0.0, 0.0, 4.0]])
        live = build_pipeline(AggregatorSpec(name, f=1))
        for scale in (0.0, -0.0):
            ctx = AttackContext(honest=xs, f=2, pipeline=live)
            result = optimize_attack_scale(ctx, inner_product_manipulation, (scale,))
            expected = live.clone()(np.vstack([xs, np.tile(result.vector, (2, 1))]))
            assert result.aggregate.tobytes() == expected.tobytes()

    def test_winner_aggregate_is_its_own_copy(self, monkeypatch):
        # A rule that returns a view of its input must not leave the winner on the search's buffer.
        xs = random_vector_set(np.random.default_rng(44), n=5, d=3)
        pipeline = build_pipeline(AggregatorSpec("Average"))
        monkeypatch.setattr(Pipeline, "__call__", lambda self, rows: np.asarray(rows)[-1])
        result = optimize_attack_scale(AttackContext(xs, 1, pipeline), inner_product_manipulation, (3.0, 1.0, 2.0))
        assert result.scale == 3.0
        np.testing.assert_array_equal(result.aggregate, inner_product_manipulation(xs, 3.0))


def refusing_large_copies(self, rows) -> np.ndarray:
    """A pipeline call that refuses copies of -scale * (1, 1, 1) past scale 0.6, naming the scale."""
    copy = np.asarray(rows)[-1]
    if -copy[0] > 0.6:
        raise ValueError(f"refused scale {float(-copy[0])!r}")
    return copy


class TestSplitSearch:
    """A search dealt to ``cores`` chunks, all but the first scored in forked
    children, is the serial search: winner, failure and all."""

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("base", [a_little_is_enough, inner_product_manipulation])
    @pytest.mark.parametrize("pres", list(PRE_STAGES))
    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_equals_the_serial_search(self, name, pres, base, cores):
        rng = np.random.default_rng(43)
        f, xs = 2, random_vector_set(rng, n=7, d=5)
        xs[:, 1] = 0.0
        xs[::2, 2] = -0.0
        live = build_pipeline(AggregatorSpec(name, f=f), PRE_STAGES[pres], rng=derive_rng(5, "bucketing"))
        live(rng.normal(size=(len(xs) + f, xs.shape[1])) * 10.0)  # off the initial state
        before = pipeline_state(live)
        serial = optimize_attack_scale(AttackContext(xs, f, live), base)
        split = optimize_attack_scale(AttackContext(xs, f, live, cores), base)
        assert (split.scale, split.score) == (serial.scale, serial.score)
        assert split.vector.tobytes() == serial.vector.tobytes()
        assert split.aggregate.tobytes() == serial.aggregate.tobytes()
        assert pipeline_state(split.pipeline) == pipeline_state(serial.pipeline)
        assert pipeline_state(live) == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("pres", list(PRE_STAGES))
    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_every_child_sends_its_winner(self, monkeypatch, name, pres, cores):
        # A winner that does not pickle never reaches the parent, which then
        # scores that child's chunk again: more clones than chunk 0 holds.
        rng = np.random.default_rng(47)
        f, xs = 2, random_vector_set(rng, n=7, d=5)
        live = build_pipeline(AggregatorSpec(name, f=f), PRE_STAGES[pres], rng=derive_rng(5, "bucketing"))
        parent, clone, clones = os.getpid(), Pipeline.clone, []
        monkeypatch.setattr(Pipeline, "clone", lambda self: clones.append(os.getpid()) or clone(self))
        result = optimize_attack_scale(AttackContext(xs, f, live, cores), a_little_is_enough)
        assert clones.count(parent) == len(range(0, len(DEFAULT_SCALE_GRID), cores))
        for pipeline in (pickle.loads(pickle.dumps(clone(live))), result.pipeline):
            for stage in [*pipeline.pre_aggregators, pipeline.aggregator]:
                assert all(stage.keywords[key] is value for key, value in stage.carried.items())

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_winner_from_a_child_ties_to_the_smallest_scale(self, monkeypatch, cores):
        # Every candidate scores the same, so the smallest scale wins, whichever chunk scored it.
        xs = np.ones((3, 3))
        monkeypatch.setattr(Pipeline, "__call__", lambda self, rows: np.zeros(3))
        grid = (3.0, 2.0, 1.0, 4.0, 1.0, 0.5, 0.5)
        result = optimize_attack_scale(AttackContext(xs, 1, average_pipeline(), cores), inner_product_manipulation, grid)
        assert (result.scale, result.score) == (0.5, math.sqrt(3.0))
        # 0.0 and -0.0 tie as scales too, so the first in grid order wins.
        for grid in ((0.0, -0.0, 1.0), (-0.0, 0.0, 1.0)):
            result = optimize_attack_scale(AttackContext(xs, 1, average_pipeline(), cores), inner_product_manipulation,
                                           grid)
            assert math.copysign(1.0, result.scale) == math.copysign(1.0, grid[0])

    @pytest.mark.parametrize("cores", [2, 3])
    def test_earliest_failing_candidate_raises_the_serial_error(self, monkeypatch, cores):
        # Scales 0.8, 0.7, 0.9 and 1.0 fail; 0.8, the first in grid order, is in a child's chunk.
        xs = np.ones((3, 3))
        monkeypatch.setattr(Pipeline, "__call__", refusing_large_copies)
        grid = (0.0, 0.8, 0.7, 0.1, 0.9, 1.0)
        with pytest.raises(ValueError) as serial:
            optimize_attack_scale(AttackContext(xs, 1, average_pipeline()), inner_product_manipulation, grid)
        assert str(serial.value) == "refused scale 0.8"
        with pytest.raises(ValueError, match="^refused scale 0.8$"):
            optimize_attack_scale(AttackContext(xs, 1, average_pipeline(), cores), inner_product_manipulation, grid)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_child_that_exits_without_a_result_is_scored_here(self, monkeypatch, cores):
        rng = np.random.default_rng(45)
        xs, pipeline = random_vector_set(rng, n=9, d=6), SCORED_PIPELINES["NNM>TrMean"](2)
        serial = optimize_attack_scale(AttackContext(xs, 2, pipeline), a_little_is_enough)
        parent, clone = os.getpid(), Pipeline.clone
        monkeypatch.setattr(Pipeline, "clone", lambda self: os._exit(3) if os.getpid() != parent else clone(self))
        split = optimize_attack_scale(AttackContext(xs, 2, pipeline, cores), a_little_is_enough)
        assert (split.scale, split.score) == (serial.scale, serial.score)
        assert split.aggregate.tobytes() == serial.aggregate.tobytes()
        assert multiprocessing.active_children() == []

    def test_without_fork_the_search_stays_in_this_process(self, monkeypatch):
        xs = random_vector_set(np.random.default_rng(46), n=5, d=3)
        serial = optimize_attack_scale(AttackContext(xs, 1, average_pipeline()), a_little_is_enough)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", lambda *args: pytest.fail("asked for a process"))
        result = optimize_attack_scale(AttackContext(xs, 1, average_pipeline(), 2), a_little_is_enough)
        assert (result.scale, result.score) == (serial.scale, serial.score)

    def test_rejects_fewer_than_one_core(self, x3):
        with pytest.raises(ValueError, match="cores must be >= 1"):
            optimize_attack_scale(AttackContext(x3, 1, average_pipeline(), 0), a_little_is_enough)


class TestAttackSpec:
    def test_unknown_name_lists_attacks(self):
        with pytest.raises(ValueError) as err:
            AttackSpec("GradientAscent")
        for name in ATTACK_NAMES:
            assert name in str(err.value)

    def test_tau_parameter_is_cast_to_float(self):
        params = AttackSpec("InnerProductManipulation", parameters={"tau": 3}).parameters
        assert params == {"tau": 3.0} and type(params["tau"]) is float


class TestAttackVectorDispatch:
    def test_fixed_attacks_match_functions(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        np.testing.assert_array_equal(crafted(AttackSpec("SignFlipping"), ctx), sign_flipping(x3))
        np.testing.assert_array_equal(
            crafted(AttackSpec("InnerProductManipulation"), ctx),
            inner_product_manipulation(x3, DEFAULT_IPM_SCALE),
        )
        np.testing.assert_array_equal(
            crafted(AttackSpec("ALittleIsEnough"), ctx),
            a_little_is_enough(x3, DEFAULT_ALIE_SCALE),
        )

    def test_scale_override(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        np.testing.assert_array_equal(
            crafted(AttackSpec("InnerProductManipulation", parameters={"tau": 0.5}), ctx),
            inner_product_manipulation(x3, 0.5),
        )

    def test_optimized_variants_use_default_grid(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        out = crafted(AttackSpec("Optimal_ALittleIsEnough"), ctx).vector
        np.testing.assert_array_equal(out, a_little_is_enough(x3, 10.0))

    def test_label_flipping_has_no_gradient_form(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        with pytest.raises(ValueError, match="acts on client data"):
            crafted(AttackSpec("LabelFlipping"), ctx)
