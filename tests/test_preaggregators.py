import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfl import preaggregators
from robustfl.aggregators import AggregatorSpec, make_aggregator
from robustfl.numerics import pairwise_sq_dists
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

from conftest import in_blocks, multi_row_matrices, random_vector_set, single_block
from oracles import naive_nnm


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

    @settings(deadline=None, max_examples=40)
    @given(multi_row_matrices, st.data())
    def test_precomputed_distances_change_nothing(self, xs, data):
        f = data.draw(st.integers(0, len(xs) - 1), label="f")
        np.testing.assert_array_equal(nnm(xs, f, pairwise_sq_dists(xs)), nnm(xs, f))

    def test_rejects_misshapen_distances(self, x3):
        with pytest.raises(ValueError, match=r"sq_dists must have shape \(3, 3\)"):
            nnm(x3, 1, np.zeros((4, 4)))

    def test_infeasible_f(self, x3):
        with pytest.raises(ValueError, match=r"NNM requires n > f \(got n=3, f=3\)"):
            nnm(x3, 3)
        with pytest.raises(ValueError, match="f >= 0"):
            nnm(x3, -1)


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
            PreAggregatorSpec("NNM", f=1, params={"c": 2.0})

    def test_clipping_requires_positive_c(self):
        with pytest.raises(ValueError, match="Clipping requires parameter c"):
            PreAggregatorSpec("Clipping")
        with pytest.raises(ValueError, match="c > 0"):
            PreAggregatorSpec("Clipping", params={"c": 0.0})

    def test_bucketing_size_validation(self):
        with pytest.raises(ValueError, match="s >= 1"):
            PreAggregatorSpec("Bucketing", params={"s": 0.0})
        assert PreAggregatorSpec("Bucketing", params={"s": 3.0}).params["s"] == 3.0


class TestConfiguredPreAggregator:
    def test_bucketing_needs_rng(self):
        with pytest.raises(ValueError, match="seeded numpy Generator"):
            ConfiguredPreAggregator(PreAggregatorSpec("Bucketing"))

    def test_dispatch_matches_functions(self, x3):
        cases = [
            (PreAggregatorSpec("NNM", f=1), nnm(x3, 1)),
            (PreAggregatorSpec("Clipping", params={"c": 5.0}), static_clipping(x3, 5.0)),
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
            AggregatorSpec("Median"), [PreAggregatorSpec("Clipping", params={"c": 1e9})]
        )
        np.testing.assert_allclose(pipeline(x3), [4.0, 5.0, 6.0], atol=1e-12)

    def test_transforms_fold_left_to_right(self, x3):
        specs = [PreAggregatorSpec("NNM", f=1), PreAggregatorSpec("Clipping", params={"c": 7.0})]
        pipeline = build_pipeline(AggregatorSpec("Average"), specs)
        expected = static_clipping(nnm(x3, 1), 7.0).mean(axis=0)
        np.testing.assert_allclose(pipeline(x3), expected, atol=1e-12)
        reordered = build_pipeline(AggregatorSpec("Average"), specs[::-1])
        assert not np.allclose(reordered(x3), expected)

    def test_clone_copies_clip_memory(self):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", params={"tau": 1.0, "iters": 1.0}))
        first = np.array([[4.0, 0.0]])
        second = np.array([[10.0, 2.0]])
        pipeline(first)
        twin = pipeline.clone()
        assert twin.aggregator is not pipeline.aggregator
        np.testing.assert_array_equal(pipeline(second), twin(second))

    def test_clone_is_independent(self):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", params={"tau": 1.0, "iters": 1.0}))
        pipeline(np.array([[4.0, 0.0]]))
        twin = pipeline.clone()
        twin(np.array([[100.0, 100.0]]))
        twin(np.array([[-50.0, 3.0]]))
        fresh = pipeline.clone()
        np.testing.assert_array_equal(pipeline(np.array([[2.0, 2.0]])), fresh(np.array([[2.0, 2.0]])))

    def test_clone_copies_shuffle_stream(self, x3):
        pipeline = build_pipeline(
            AggregatorSpec("Average"),
            [PreAggregatorSpec("Bucketing", params={"s": 2.0})],
            rng=derive_rng(9, "bucketing"),
        )
        twin = pipeline.clone()
        for _ in range(5):
            np.testing.assert_array_equal(pipeline(x3), twin(x3))

    def test_reset_clears_clip_memory(self):
        pipeline = build_pipeline(AggregatorSpec("CenteredClipping", params={"tau": 1.0, "iters": 1.0}))
        xs = np.array([[6.0, -6.0]])
        baseline = pipeline(xs)
        pipeline(np.array([[9.0, 9.0]]))
        pipeline.reset()
        np.testing.assert_array_equal(pipeline(xs), baseline)

    def test_distances_reach_only_the_first_stage(self, x3, monkeypatch):
        computed = []

        def counting(xs):
            computed.append(xs.copy())
            return pairwise_sq_dists(xs)

        monkeypatch.setattr(preaggregators, "pairwise_sq_dists", counting)
        pipeline = build_pipeline(AggregatorSpec("Average"), [PreAggregatorSpec("NNM", f=1)] * 2)
        assert pipeline.takes_sq_dists
        expected = pipeline(x3)
        assert len(computed) == 2
        computed.clear()
        np.testing.assert_array_equal(pipeline(x3, pairwise_sq_dists(x3)), expected)
        # The second NNM sees the first one's output and measures it itself.
        assert len(computed) == 1
        np.testing.assert_array_equal(computed[0], nnm(x3, 1))

    def test_takes_sq_dists_only_when_nnm_leads(self):
        nnm_spec, clip_spec = PreAggregatorSpec("NNM", f=1), PreAggregatorSpec("Clipping", params={"c": 1.0})
        assert not build_pipeline(AggregatorSpec("MultiKrum", f=1)).takes_sq_dists
        assert not build_pipeline(AggregatorSpec("Average"), [clip_spec, nnm_spec]).takes_sq_dists
        assert build_pipeline(AggregatorSpec("Average"), [nnm_spec, clip_spec]).takes_sq_dists

    def test_rng_handed_only_to_bucketing(self):
        pipeline = build_pipeline(
            AggregatorSpec("Average"),
            [PreAggregatorSpec("NNM", f=1), PreAggregatorSpec("Bucketing")],
            rng=derive_rng(2, "bucketing"),
        )
        assert pipeline.pre_aggregators[0].rng is None
        assert pipeline.pre_aggregators[1].rng is not None

    def test_pipeline_validates_input(self):
        pipeline = build_pipeline(AggregatorSpec("Average"))
        with pytest.raises(ValueError, match="matrix of row vectors"):
            pipeline([1.0, 2.0])
