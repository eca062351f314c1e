import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfl.datadist import (
    DISTRIBUTION_NAMES,
    ClientPartition,
    LabeledDataset,
    dirichlet_split,
    gamma_split,
    iid_split,
    make_partition,
)
from robustfl.seeding import derive_rng

from oracles import label_histogram_l1_spread


def balanced_dataset(m: int, n_classes: int) -> LabeledDataset:
    # Features carry the sample index so partitions can be traced back.
    features = np.arange(m, dtype=np.float64)[:, None]
    return LabeledDataset(features, np.arange(m) % n_classes, n_classes)


def assert_covers_everything(partition: ClientPartition, m: int) -> None:
    merged = np.sort(np.concatenate(partition.assignments))
    np.testing.assert_array_equal(merged, np.arange(m))


def reference_gamma_split(dataset: LabeledDataset, n_clients: int, similarity: float, rng) -> list[np.ndarray]:
    """The gamma split as it was before empty clients were repaired, some
    clients possibly empty."""
    m = len(dataset)
    perm = rng.permutation(m)
    k = math.floor(similarity * m)
    iid_blocks = np.array_split(perm[:k], n_clients)
    rest = perm[k:]
    rest = rest[np.argsort(dataset.labels[rest], kind="stable")]
    label_blocks = np.array_split(rest, n_clients)
    return [np.concatenate([iid_blocks[i], label_blocks[i]]) for i in range(n_clients)]


class TestLabeledDataset:
    def test_rejects_non_matrix_features(self):
        with pytest.raises(ValueError, match="non-empty"):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="one per sample"):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            LabeledDataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 1)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)

    def test_len(self):
        assert len(balanced_dataset(10, 2)) == 10


class TestClientPartition:
    def test_rejects_empty_client(self):
        with pytest.raises(ValueError, match="client 1 received no samples"):
            ClientPartition([np.array([0, 1]), np.array([], dtype=np.int64)])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            ClientPartition([np.array([0, 1]), np.array([1, 2])])

    def test_label_histograms(self):
        part = ClientPartition([np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])])
        assert part.n_clients == 2


class TestIidSplit:
    def test_even_sizes(self):
        part = iid_split(balanced_dataset(4, 2), 2, np.random.default_rng(0))
        assert [len(a) for a in part.assignments] == [2, 2]
        assert_covers_everything(part, 4)

    def test_remainder_goes_to_leading_clients(self):
        part = iid_split(balanced_dataset(5, 2), 2, np.random.default_rng(0))
        assert [len(a) for a in part.assignments] == [3, 2]
        assert_covers_everything(part, 5)

    def test_single_client_takes_all(self):
        part = iid_split(balanced_dataset(7, 2), 1, np.random.default_rng(0))
        assert [len(a) for a in part.assignments] == [7]
        assert_covers_everything(part, 7)

    def test_deterministic_under_seed(self):
        ds = balanced_dataset(50, 5)
        a = iid_split(ds, 4, derive_rng(3, "datadist"))
        b = iid_split(ds, 4, derive_rng(3, "datadist"))
        for left, right in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(left, right)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="at least one client"):
            iid_split(balanced_dataset(4, 2), 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot split 2 samples across 3 clients"):
            iid_split(balanced_dataset(2, 2), 3, np.random.default_rng(0))


class TestDirichletSplit:
    def test_huge_alpha_is_nearly_uniform(self):
        ds = balanced_dataset(400, 2)
        part = dirichlet_split(ds, 2, 1e9, np.random.default_rng(1))
        sizes = [len(a) for a in part.assignments]
        assert all(abs(size - 200) <= 2 for size in sizes)
        counts = np.stack([np.bincount(ds.labels[idx], minlength=2) for idx in part.assignments])
        assert np.abs(counts - 100).max() <= 2
        assert_covers_everything(part, 400)

    def test_single_client_takes_all(self):
        part = dirichlet_split(balanced_dataset(9, 3), 1, 0.5, np.random.default_rng(2))
        assert len(part.assignments[0]) == 9

    def test_single_populated_class(self):
        ds = LabeledDataset(np.zeros((10, 1)), np.zeros(10, dtype=int), 2)
        part = dirichlet_split(ds, 2, 1e9, np.random.default_rng(3))
        assert_covers_everything(part, 10)

    def test_coverage_and_disjointness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(20, 60))
            n = int(rng.integers(2, 6))
            ds = balanced_dataset(m, int(rng.integers(2, 5)))
            alpha = float(rng.uniform(0.1, 10.0))
            part = dirichlet_split(ds, n, alpha, rng)
            assert_covers_everything(part, m)

    def test_empty_client_repair_is_logged(self, caplog):
        ds = balanced_dataset(12, 2)
        with caplog.at_level(logging.INFO, logger="robustfl.datadist"):
            part = dirichlet_split(ds, 4, 0.05, np.random.default_rng(2))
        assert "empty client" in caplog.text
        assert [len(a) for a in part.assignments] == [1, 9, 1, 1]
        assert_covers_everything(part, 12)

    def test_deterministic_under_seed(self):
        ds = balanced_dataset(100, 4)
        a = dirichlet_split(ds, 5, 0.3, derive_rng(7, "datadist"))
        b = dirichlet_split(ds, 5, 0.3, derive_rng(7, "datadist"))
        for left, right in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(left, right)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            dirichlet_split(balanced_dataset(10, 2), 2, 0.0, np.random.default_rng(0))


class TestGammaSplit:
    def test_full_similarity_equals_iid_split(self):
        ds = balanced_dataset(31, 3)
        via_gamma = gamma_split(ds, 4, 1.0, np.random.default_rng(6))
        via_iid = iid_split(ds, 4, np.random.default_rng(6))
        for left, right in zip(via_gamma.assignments, via_iid.assignments):
            np.testing.assert_array_equal(left, right)

    def test_zero_similarity_aligns_classes(self):
        ds = balanced_dataset(40, 2)
        part = gamma_split(ds, 2, 0.0, np.random.default_rng(7))
        assert set(ds.labels[part.assignments[0]]) == {0}
        assert set(ds.labels[part.assignments[1]]) == {1}
        assert_covers_everything(part, 40)

    def test_zero_similarity_single_client(self):
        part = gamma_split(balanced_dataset(9, 3), 1, 0.0, np.random.default_rng(8))
        assert len(part.assignments[0]) == 9

    def test_coverage_for_intermediate_similarity(self):
        rng = np.random.default_rng(9)
        for similarity in (0.25, 0.33, 0.66, 0.9):
            ds = balanced_dataset(57, 3)
            part = gamma_split(ds, 5, similarity, rng)
            assert_covers_everything(part, 57)

    def test_deterministic_under_seed(self):
        ds = balanced_dataset(64, 4)
        a = gamma_split(ds, 4, 0.5, derive_rng(11, "datadist"))
        b = gamma_split(ds, 4, 0.5, derive_rng(11, "datadist"))
        for left, right in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(left, right)

    def test_empty_client_takes_a_sample_from_the_largest(self, caplog):
        # 8 rows over 6 clients at 0.5: the 4 IID rows and the 4 label-sorted
        # rows both go to clients 0-3, so clients 4 and 5 start empty.
        ds = balanced_dataset(8, 3)
        assert [len(a) for a in reference_gamma_split(ds, 6, 0.5, np.random.default_rng(4))] == [2, 2, 2, 2, 0, 0]
        with caplog.at_level(logging.INFO, logger="robustfl.datadist"):
            part = make_partition(ds, "gamma_similarity_niid", 0.5, 6, np.random.default_rng(4))
        assert "gamma split left 2 empty client(s)" in caplog.text
        assert [len(a) for a in part.assignments] == [1, 1, 2, 2, 1, 1]
        assert_covers_everything(part, 8)

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 40))),
        st.floats(0.0, 1.0),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_every_client_filled_and_nonempty_splits_unchanged(self, n_and_m, similarity, n_classes, seed):
        n, m = n_and_m
        ds = balanced_dataset(m, n_classes)
        part = gamma_split(ds, n, similarity, np.random.default_rng(seed))
        assert part.n_clients == n and all(a.size for a in part.assignments)
        assert_covers_everything(part, m)
        reference = reference_gamma_split(ds, n, similarity, np.random.default_rng(seed))
        if all(a.size for a in reference):
            assert all(np.array_equal(a, b) for a, b in zip(part.assignments, reference))

    def test_rejects_out_of_range_similarity(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"similarity must lie in \[0, 1\]"):
                gamma_split(balanced_dataset(10, 2), 2, bad, np.random.default_rng(0))


class TestMakePartition:
    def test_dispatch(self):
        ds = balanced_dataset(30, 3)
        by_name = make_partition(ds, "iid", 0.0, 3, np.random.default_rng(5))
        direct = iid_split(ds, 3, np.random.default_rng(5))
        for left, right in zip(by_name.assignments, direct.assignments):
            np.testing.assert_array_equal(left, right)

    def test_unknown_name_lists_distributions(self):
        with pytest.raises(ValueError) as err:
            make_partition(balanced_dataset(10, 2), "pathological", 0.0, 2, np.random.default_rng(0))
        for name in DISTRIBUTION_NAMES:
            assert name in str(err.value)


class TestHeterogeneityOrdering:
    """Scaled-down version of the statistical monotonicity check; the full
    100-trial form at m=10000 runs in the acceptance suite."""

    def test_dirichlet_alpha_orders_label_skew(self):
        ds = balanced_dataset(2000, 10)
        wins = 0
        for trial in range(30):
            skewed = dirichlet_split(ds, 10, 0.1, derive_rng(trial, "datadist"))
            uniform = dirichlet_split(ds, 10, 100.0, derive_rng(trial + 1000, "datadist"))
            lo = label_histogram_l1_spread(uniform.assignments, ds.labels, 10)
            hi = label_histogram_l1_spread(skewed.assignments, ds.labels, 10)
            wins += hi > lo
        assert wins >= 28

    def test_gamma_similarity_orders_label_skew(self):
        ds = balanced_dataset(2000, 10)
        wins = 0
        for trial in range(30):
            skewed = gamma_split(ds, 10, 0.0, derive_rng(trial, "datadist"))
            uniform = gamma_split(ds, 10, 1.0, derive_rng(trial + 1000, "datadist"))
            lo = label_histogram_l1_spread(uniform.assignments, ds.labels, 10)
            hi = label_histogram_l1_spread(skewed.assignments, ds.labels, 10)
            wins += hi > lo
        assert wins >= 28
