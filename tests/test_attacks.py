import math

import numpy as np
import pytest

from robustfl import attacks, preaggregators
from robustfl.aggregators import AggregatorSpec
from robustfl.attacks import (
    ATTACK_NAMES,
    DEFAULT_ALIE_SCALE,
    DEFAULT_IPM_SCALE,
    DEFAULT_SCALE_GRID,
    VECTOR_ATTACK_NAMES,
    AttackContext,
    AttackSpec,
    a_little_is_enough,
    attack_vector,
    inner_product_manipulation,
    optimize_attack_scale,
    sign_flipping,
)
from robustfl.numerics import pairwise_sq_dists
from robustfl.preaggregators import PreAggregatorSpec, build_pipeline
from robustfl.seeding import derive_rng

from conftest import random_vector_set
from oracles import rescore_attack_grid


def average_pipeline():
    return build_pipeline(AggregatorSpec("Average"))


# Pipelines the scale search must score exactly as clone-per-candidate does,
# built for an adversary of multiplicity f.
SCORED_PIPELINES = {
    "NNM>TrMean": lambda f: build_pipeline(AggregatorSpec("TrMean", f=f), [PreAggregatorSpec("NNM", f=f)]),
    "NNM>Median": lambda f: build_pipeline(AggregatorSpec("Median"), [PreAggregatorSpec("NNM", f=f)]),
    # Stateful, and NNM is second: it must compute its own distances.
    "Bucketing>NNM>CenteredClipping": lambda f: build_pipeline(
        AggregatorSpec("CenteredClipping", params={"tau": 5.0, "iters": 2.0}),
        [PreAggregatorSpec("Bucketing", params={"s": 2.0}), PreAggregatorSpec("NNM", f=1)],
        rng=derive_rng(f, "bucketing"),
    ),
    "Clipping>NNM>Average": lambda f: build_pipeline(
        AggregatorSpec("Average"), [PreAggregatorSpec("Clipping", params={"c": 15.0}), PreAggregatorSpec("NNM", f=f)]
    ),
    "MultiKrum": lambda f: build_pipeline(AggregatorSpec("MultiKrum", f=f)),
}


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


class TestVectorAttacksGeneral:
    def test_dimension_and_finiteness(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            xs = random_vector_set(rng)
            ctx = AttackContext(honest=xs, f=2, pipeline=average_pipeline())
            for name in VECTOR_ATTACK_NAMES:
                out = attack_vector(AttackSpec(name), ctx)
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

    def test_honest_distances_computed_once_per_search(self, monkeypatch):
        calls = {"attacks": 0, "preaggregators": 0}
        for module in (attacks, preaggregators):
            def counting(xs, name=module.__name__.rsplit(".", 1)[1]):
                calls[name] += 1
                return pairwise_sq_dists(xs)

            monkeypatch.setattr(module, "pairwise_sq_dists", counting)
        xs = random_vector_set(np.random.default_rng(27), n=6)
        ctx = AttackContext(honest=xs, f=2, pipeline=SCORED_PIPELINES["NNM>TrMean"](2))
        optimize_attack_scale(ctx, a_little_is_enough, DEFAULT_SCALE_GRID)
        assert calls == {"attacks": 1, "preaggregators": 0}

    def test_grid_search_leaves_live_pipeline_untouched(self, x3):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", params={"tau": 1.0, "iters": 1.0}))
        pipeline(np.array([[5.0, 5.0, 5.0]]))
        before = pipeline.aggregator.clip_state.prev.copy()
        ctx = AttackContext(honest=x3, f=1, pipeline=pipeline)
        optimize_attack_scale(ctx, inner_product_manipulation, DEFAULT_SCALE_GRID)
        np.testing.assert_array_equal(pipeline.aggregator.clip_state.prev, before)

    def test_rejects_empty_grid_and_passive_adversary(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        with pytest.raises(ValueError, match="grid must be non-empty"):
            optimize_attack_scale(ctx, inner_product_manipulation, grid=())
        with pytest.raises(ValueError, match="f >= 1"):
            optimize_attack_scale(
                AttackContext(honest=x3, f=0, pipeline=average_pipeline()), inner_product_manipulation
            )


class TestAttackSpec:
    def test_unknown_name_lists_attacks(self):
        with pytest.raises(ValueError) as err:
            AttackSpec("GradientAscent")
        for name in ATTACK_NAMES:
            assert name in str(err.value)

    def test_tau_parameter_maps_to_scale(self):
        assert AttackSpec("InnerProductManipulation", params={"tau": 0.3}).scale == 0.3

    def test_explicit_scale_wins_over_params(self):
        spec = AttackSpec("ALittleIsEnough", scale=2.0, params={"tau": 9.0})
        assert spec.scale == 2.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must be non-empty"):
            AttackSpec("Optimal_ALittleIsEnough", grid=())


class TestAttackVectorDispatch:
    def test_fixed_attacks_match_functions(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        np.testing.assert_array_equal(attack_vector(AttackSpec("SignFlipping"), ctx), sign_flipping(x3))
        np.testing.assert_array_equal(
            attack_vector(AttackSpec("InnerProductManipulation"), ctx),
            inner_product_manipulation(x3, DEFAULT_IPM_SCALE),
        )
        np.testing.assert_array_equal(
            attack_vector(AttackSpec("ALittleIsEnough"), ctx),
            a_little_is_enough(x3, DEFAULT_ALIE_SCALE),
        )

    def test_scale_override(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        np.testing.assert_array_equal(
            attack_vector(AttackSpec("InnerProductManipulation", scale=0.5), ctx),
            inner_product_manipulation(x3, 0.5),
        )

    def test_optimized_variants_honor_custom_grid(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        out = attack_vector(AttackSpec("Optimal_ALittleIsEnough", grid=(0.0, 3.0)), ctx)
        np.testing.assert_array_equal(out, a_little_is_enough(x3, 3.0))
        out = attack_vector(AttackSpec("Optimal_InnerProductManipulation", grid=(0.0, 2.0)), ctx)
        np.testing.assert_array_equal(out, inner_product_manipulation(x3, 2.0))

    def test_optimized_variants_use_default_grid(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        out = attack_vector(AttackSpec("Optimal_ALittleIsEnough"), ctx)
        np.testing.assert_array_equal(out, a_little_is_enough(x3, 10.0))

    def test_label_flipping_has_no_gradient_form(self, x3):
        ctx = AttackContext(honest=x3, f=1, pipeline=average_pipeline())
        with pytest.raises(ValueError, match="acts on client data"):
            attack_vector(AttackSpec("LabelFlipping"), ctx)
