import gzip
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfl.datadist import LabeledDataset
from robustfl.models import (
    GROUP_ROWS,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LinearArch,
    LrSchedule,
    MlpArch,
    _log_softmax,
    evaluate_accuracy,
    forward_loss,
    groups_snapshots,
    init_params,
    load_idx,
    logits,
    loss_and_gradient,
    make_blobs,
    param_count,
    snapshot_scores,
)
from robustfl.numerics import BLOCK_ELEMENTS
from robustfl.seeding import derive_rng

from oracles import fd_gradient


class TestArchitectures:
    def test_param_counts(self):
        assert param_count(LinearArch(4, 3)) == 15
        assert param_count(MlpArch(4, 5, 3)) == 43

    def test_validation(self):
        with pytest.raises(ValueError, match="in_dim >= 1"):
            LinearArch(0, 2)
        with pytest.raises(ValueError, match="n_classes >= 2"):
            LinearArch(3, 1)
        with pytest.raises(ValueError, match="hidden >= 1"):
            MlpArch(3, 0, 2)

    def test_init_shapes_bounds_and_zero_biases(self):
        arch = MlpArch(6, 4, 3)
        flat = init_params(arch, derive_rng(0, "init"))
        assert flat.shape == (param_count(arch),)
        w1_end, b1_end = 24, 28
        w2_end = b1_end + 12
        np.testing.assert_array_equal(flat[w1_end:b1_end], 0.0)
        np.testing.assert_array_equal(flat[w2_end:], 0.0)
        assert np.abs(flat[:w1_end]).max() <= 1.0 / math.sqrt(6)
        assert np.abs(flat[b1_end:w2_end]).max() <= 1.0 / math.sqrt(4)

    def test_init_is_deterministic(self):
        arch = LinearArch(5, 4)
        a = init_params(arch, derive_rng(3, "init"))
        b = init_params(arch, derive_rng(3, "init"))
        np.testing.assert_array_equal(a, b)

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError, match="expected 15 parameters"):
            logits(LinearArch(4, 3), np.zeros(14), np.zeros((1, 4)))


def loss_of(arch, flat, feats, labels) -> float:
    """One snapshot's mean cross-entropy over every row, as a group of one."""
    return forward_loss(arch, [flat], feats, labels, [np.arange(len(labels))])[0][0]


class TestForwardLoss:
    def test_zero_params_give_log_n_classes(self):
        feats = np.random.default_rng(1).normal(size=(7, 4))
        labels = np.arange(7) % 3
        assert loss_of(LinearArch(4, 3), np.zeros(15), feats, labels) == pytest.approx(math.log(3), abs=1e-12)
        assert loss_of(MlpArch(4, 5, 3), np.zeros(43), feats, labels) == pytest.approx(math.log(3), abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        flat = np.array([1000.0, -1000.0, 0.0, 0.0])
        loss = loss_of(LinearArch(1, 2), flat, np.array([[1.0]]), np.array([0]))
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
        assert evaluate_accuracy(LinearArch(1, 2), [flat], LabeledDataset(np.array([[1.0]]), np.array([0]), 2)) == [1.0]

    def test_accuracy_counts_argmax_hits(self):
        flat = np.array([1.0, -1.0, 0.0, 0.0])
        dataset = LabeledDataset(np.array([[1.0], [-1.0], [2.0]]), np.array([0, 1, 1]), 2)
        assert evaluate_accuracy(LinearArch(1, 2), [flat], dataset) == [2 / 3]

    @pytest.mark.parametrize("arch", [LinearArch(4, 3), MlpArch(4, 5, 3)], ids=["linear", "mlp"])
    def test_subsets_take_their_rows_from_one_pass(self, arch):
        rng = np.random.default_rng(13)
        feats, labels = rng.normal(size=(60, 4)), rng.integers(0, 3, 60)
        flat = rng.normal(size=param_count(arch))
        union = rng.permutation(60)
        parts = [union[:25], union[25:]]
        [[union_loss, *part_losses]] = forward_loss(arch, [flat], feats, labels, [union, *parts])
        # The run's training loss: every row, in the clients' order, as the
        # loss of the gathered rows.
        assert union_loss == loss_of(arch, flat, feats[union], labels[union])
        for loss, rows in zip(part_losses, parts):
            assert loss == pytest.approx(loss_of(arch, flat, feats[rows], labels[rows]), rel=1e-12)


@st.composite
def snapshot_groups(draw):
    """(arch, (k, d) group, features, labels): first-layer widths that are and
    are not multiples of 8 (1 among them), products on both sides of
    BLOCK_ELEMENTS, 1,023-2,049 rows (one block, or two with a row to spare)
    or 3,071-3,073, groups of 1-20, linear and MLP models."""
    rows = draw(st.one_of(st.integers(1023, 2049), st.integers(3071, 3073), st.integers(2, 40)), label="rows")
    width = draw(st.sampled_from([1, 2, 3, 8, 10, 16, 24, 33, 64]), label="width")
    n_in = draw(st.sampled_from([1, 3, 40, 64, 130]), label="inputs")
    classes = draw(st.integers(2, 10), label="classes")
    arch = MlpArch(n_in, width, classes) if draw(st.booleans(), label="mlp") else LinearArch(n_in, max(2, width))
    k = draw(st.integers(1, 20), label="snapshots")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    group = np.stack([init_params(arch, rng) for _ in range(k)]) * rng.uniform(0.5, 4.0)
    labels = rng.integers(0, arch.layers[-1][0][0], rows)
    return arch, group, rng.normal(size=(rows, n_in)), labels


def gathered_loss(arch, flat, features, labels, rows):
    """The loss of ``rows`` as one snapshot's scores gave it before groups: the
    log-softmax of the gathered scores, at each row's label."""
    picked = _log_softmax(logits(arch, flat, features)[rows])[np.arange(len(rows)), labels[rows]]
    return float(-picked.mean())


def check_group(arch, group, features, labels):
    """Grouped scores, accuracies and losses equal each snapshot's own, and the
    losses equal those of the gathered scores, with ``assert_array_equal``."""
    m = len(labels)
    for j, rows, scores in snapshot_scores(arch, group, features):
        np.testing.assert_array_equal(scores, logits(arch, group[j], features)[rows])
    dataset = LabeledDataset(features, labels, arch.layers[-1][0][0])
    accuracies = evaluate_accuracy(arch, group, dataset)
    np.testing.assert_array_equal(accuracies, [evaluate_accuracy(arch, [flat], dataset)[0] for flat in group])
    np.testing.assert_array_equal(accuracies, [float((logits(arch, flat, features).argmax(axis=1) == labels).mean())
                                               for flat in group])
    subsets = [np.arange(m), np.random.default_rng(m).permutation(m), np.arange(m // 2, m), np.arange(0, m, 3)[::-1]]
    losses = forward_loss(arch, group, features, labels, subsets)
    singles = [forward_loss(arch, [flat], features, labels, subsets)[0] for flat in group]
    np.testing.assert_array_equal(losses, singles)
    np.testing.assert_array_equal(
        losses, [[gathered_loss(arch, flat, features, labels, rows) for rows in subsets] for flat in group]
    )


class TestSnapshotGroups:
    @settings(max_examples=60, deadline=None)
    @given(snapshot_groups())
    def test_a_group_gives_each_snapshots_values_bit_for_bit(self, case):
        check_group(*case)

    @pytest.mark.parametrize("arch, rows, k", [
        (MlpArch(64, 16, 3), 1100, 13),  # one block
        (MlpArch(130, 64, 2), 2049, 20),  # two blocks
        (MlpArch(130, 24, 10), 3073, 11),  # three blocks
        (LinearArch(300, 8), 1500, 2),  # one block of a linear model
    ])
    def test_grouping_shapes_give_each_snapshots_values_bit_for_bit(self, arch, rows, k):
        assert groups_snapshots(arch, rows)
        rng = np.random.default_rng(rows)
        group = np.stack([init_params(arch, rng) for _ in range(k)])
        check_group(arch, group, rng.normal(size=(rows, arch.in_dim)), rng.integers(0, arch.layers[-1][0][0], rows))

    def test_groups_form_only_where_the_rule_allows(self):
        assert groups_snapshots(MlpArch(784, 64, 10), 6000)  # the MNIST-scale workloads
        assert not groups_snapshots(LinearArch(10, 3), 6000)  # the blob workloads: width 3
        assert not groups_snapshots(MlpArch(784, 10, 10), 6000)  # width 10
        assert not groups_snapshots(MlpArch(784, 1, 10), 6000)  # width 1: a matrix-vector product
        assert not groups_snapshots(MlpArch(64, 16, 3), 1024)  # 1,048,576 multiply-adds: not above the budget
        assert groups_snapshots(MlpArch(64, 16, 3), 1025)
        assert 1024 * 64 * 16 == BLOCK_ELEMENTS

    @pytest.mark.parametrize("rows, blocks", [(1000, 1), (2047, 1), (2048, 2), (6000, 5)])
    def test_rows_are_cut_into_equal_blocks_of_at_least_group_rows(self, rows, blocks):
        arch = MlpArch(80, 16, 3)  # 20 snapshots: 262,144 // 320 = 819 rows, so the floor binds
        group = np.stack([init_params(arch, np.random.default_rng(j)) for j in range(20)])
        seen = [(j, (block.start, block.stop)) for j, block, _ in snapshot_scores(arch, group, np.ones((rows, 80)))]
        cuts = [block for j, block in seen if j == 0]
        assert seen == [(j, block) for block in cuts for j in range(20)]
        assert [lo for lo, _ in cuts] == [0] + [hi for _, hi in cuts[:-1]] and cuts[-1][1] == rows
        assert len(cuts) == blocks
        assert blocks == 1 or min(hi - lo for lo, hi in cuts) >= GROUP_ROWS

    def test_wrong_parameter_count_rejected_for_a_group(self):
        with pytest.raises(ValueError, match="expected 1091 parameters"):
            forward_loss(MlpArch(64, 16, 3), np.zeros((2, 1090)), np.zeros((2000, 64)), np.zeros(2000, dtype=int),
                         [np.arange(2000)])


class TestGradient:
    def test_linear_zero_params_golden(self):
        # softmax is uniform, so the gradient is (p - onehot) through x = 1.
        grad = loss_and_gradient(LinearArch(1, 2), np.zeros(4), np.array([[1.0]]), np.array([0]))[1]
        np.testing.assert_allclose(grad, [-0.5, 0.5, -0.5, 0.5], atol=1e-15)

    def test_zero_features_touch_only_biases(self):
        arch = LinearArch(3, 2)
        grad = loss_and_gradient(arch, np.zeros(8), np.zeros((4, 3)), np.array([0, 0, 1, 0]))[1]
        np.testing.assert_array_equal(grad[:6], 0.0)
        np.testing.assert_allclose(grad[6:], [0.5 - 0.75, 0.5 - 0.25], atol=1e-15)

    @pytest.mark.parametrize("arch", [LinearArch(4, 3), MlpArch(4, 6, 3)], ids=["linear", "mlp"])
    def test_matches_finite_differences(self, arch):
        rng = np.random.default_rng(123)
        for _ in range(20):
            flat = rng.normal(size=param_count(arch))
            feats = rng.normal(size=(8, 4))
            labels = rng.integers(0, 3, 8)
            loss, grad = loss_and_gradient(arch, flat, feats, labels)
            fd = fd_gradient(lambda p: loss_of(arch, p, feats, labels), flat)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5
            assert loss == loss_of(arch, flat, feats, labels)


def reference_unpack(arch, flat):
    """Weight matrices and bias vectors of the two hand-written layouts."""
    if isinstance(arch, LinearArch):
        split = arch.n_classes * arch.in_dim
        return flat[:split].reshape(arch.n_classes, arch.in_dim), flat[split:]
    d, h, c = arch.in_dim, arch.hidden, arch.n_classes
    o1, o2, o3 = h * d, h * d + h, h * d + h + c * h
    return flat[:o1].reshape(h, d), flat[o1:o2], flat[o2:o3].reshape(c, h), flat[o3:]


def reference_init_params(arch, rng):
    if isinstance(arch, LinearArch):
        bound = 1.0 / np.sqrt(arch.in_dim)
        w = rng.uniform(-bound, bound, arch.n_classes * arch.in_dim)
        return np.concatenate([w, np.zeros(arch.n_classes)])
    b1 = 1.0 / np.sqrt(arch.in_dim)
    w1 = rng.uniform(-b1, b1, arch.hidden * arch.in_dim)
    b2 = 1.0 / np.sqrt(arch.hidden)
    w2 = rng.uniform(-b2, b2, arch.n_classes * arch.hidden)
    return np.concatenate([w1, np.zeros(arch.hidden), w2, np.zeros(arch.n_classes)])


def reference_logits(arch, flat, features):
    if isinstance(arch, LinearArch):
        w, b = reference_unpack(arch, flat)
        return features @ w.T + b
    w1, b1, w2, b2 = reference_unpack(arch, flat)
    hidden = np.maximum(features @ w1.T + b1, 0.0)
    return hidden @ w2.T + b2


def reference_log_softmax(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_loss_and_gradient(arch, flat, features, labels):
    """The explicit two-branch forward/backward pass, ReLU subgradient 0 at 0."""
    batch = len(labels)
    rows = np.arange(batch)
    if isinstance(arch, LinearArch):
        w, b = reference_unpack(arch, flat)
        logp = reference_log_softmax(features @ w.T + b)
        dscores = np.exp(logp)
        dscores[rows, labels] -= 1.0
        dscores /= batch
        grad = np.concatenate([(dscores.T @ features).ravel(), dscores.sum(axis=0)])
        return float(-logp[rows, labels].mean()), grad
    w1, b1, w2, b2 = reference_unpack(arch, flat)
    pre = features @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    logp = reference_log_softmax(hidden @ w2.T + b2)
    dscores = np.exp(logp)
    dscores[rows, labels] -= 1.0
    dscores /= batch
    dhidden = (dscores @ w2) * (pre > 0.0)
    grad = np.concatenate(
        [(dhidden.T @ features).ravel(), dhidden.sum(axis=0), (dscores.T @ hidden).ravel(), dscores.sum(axis=0)]
    )
    return float(-logp[rows, labels].mean()), grad


class TestLayerStackMatchesTwoBranchReference:
    ARCHS = [LinearArch(5, 3), MlpArch(5, 4, 3)]

    @pytest.mark.parametrize("arch", ARCHS, ids=["linear", "mlp"])
    def test_init_logits_and_gradient_are_bit_identical(self, arch):
        rng = np.random.default_rng(11)
        np.testing.assert_array_equal(
            init_params(arch, derive_rng(2, "init")), reference_init_params(arch, derive_rng(2, "init"))
        )
        for _ in range(20):
            flat = rng.normal(size=param_count(arch))
            feats = rng.normal(size=(9, 5))
            labels = rng.integers(0, 3, 9)
            assert np.array_equal(logits(arch, flat, feats), reference_logits(arch, flat, feats))
            loss, grad = loss_and_gradient(arch, flat, feats, labels)
            ref_loss, ref_grad = reference_loss_and_gradient(arch, flat, feats, labels)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)

    def test_exactly_zero_hidden_preactivations_pass_no_gradient(self):
        arch = MlpArch(4, 5, 3)
        rng = np.random.default_rng(12)
        flat = rng.normal(size=param_count(arch))
        w1, b1, _, _ = reference_unpack(arch, flat)
        w1[0], b1[0] = 0.0, 0.0  # unit 0 is exactly zero on every row
        b1[1] = 0.0
        feats = rng.normal(size=(6, 4))
        feats[2] = 0.0  # and unit 1 on row 2
        labels = np.array([0, 1, 2, 0, 1, 2])
        pre = feats @ w1.T + b1
        assert (pre == 0.0).sum() == 7
        loss, grad = loss_and_gradient(arch, flat, feats, labels)
        ref_loss, ref_grad = reference_loss_and_gradient(arch, flat, feats, labels)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        np.testing.assert_array_equal(grad[:4], 0.0)  # unit 0's weights
        assert grad[20] == 0.0  # unit 0's bias


class TestLrSchedule:
    def test_two_milestone_decay(self):
        schedule = LrSchedule(0.1, 0.5, (200, 400))
        assert schedule.lr_at(250) == pytest.approx(0.05)
        assert schedule.lr_at(199) == pytest.approx(0.1)
        assert schedule.lr_at(200) == pytest.approx(0.05)
        assert schedule.lr_at(400) == pytest.approx(0.025)
        assert schedule.lr_at(10_000) == pytest.approx(0.025)

    def test_no_decay_is_constant(self):
        schedule = LrSchedule(0.3)
        assert schedule.lr_at(0) == schedule.lr_at(999) == 0.3

    def test_milestones_are_sorted(self):
        assert LrSchedule(0.1, 0.9, (400, 200)).milestones == (200, 400)

    def test_validation(self):
        with pytest.raises(ValueError, match="base_lr must be positive"):
            LrSchedule(0.0)
        with pytest.raises(ValueError, match="base_lr must be positive, got nan"):
            LrSchedule(float("nan"))
        with pytest.raises(ValueError, match=r"decay must lie in \(0, 1\]"):
            LrSchedule(0.1, 0.0)
        with pytest.raises(ValueError, match=r"decay must lie in \(0, 1\]"):
            LrSchedule(0.1, 1.5)


class TestMakeBlobs:
    def test_balanced_counts(self):
        ds = make_blobs(3, 100, 5, 1.0, np.random.default_rng(0))
        assert len(ds) == 300
        np.testing.assert_array_equal(np.bincount(ds.labels), [100, 100, 100])
        assert ds.features.shape == (300, 5)

    def test_per_class_sequence(self):
        ds = make_blobs(3, [5, 7, 9], 2, 1.0, np.random.default_rng(1))
        np.testing.assert_array_equal(np.bincount(ds.labels), [5, 7, 9])

    def test_zero_spread_pins_samples_to_centers(self):
        rng = np.random.default_rng(2)
        ds = make_blobs(2, 4, 3, 0.0, rng)
        for cls in range(2):
            rows = ds.features[ds.labels == cls]
            np.testing.assert_array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_tight_clusters_are_linearly_separable(self):
        ds = make_blobs(3, 100, 5, 0.01, np.random.default_rng(0))
        arch = LinearArch(5, 3)
        flat = np.zeros(param_count(arch))
        for _ in range(500):
            flat -= 1.0 * loss_and_gradient(arch, flat, ds.features, ds.labels)[1]
        assert evaluate_accuracy(arch, [flat], ds) == [1.0]
        assert loss_of(arch, flat, ds.features, ds.labels) < 0.01

    def test_fixed_seed_is_bitwise_stable(self):
        a = make_blobs(4, 25, 6, 1.0, derive_rng(9, "dataset"))
        b = make_blobs(4, 25, 6, 1.0, derive_rng(9, "dataset"))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_center_reuse_shares_geometry(self):
        rng = np.random.default_rng(3)
        centers = rng.standard_normal((2, 4))
        ds = make_blobs(2, 50, 4, 0.05, rng, centers=centers)
        for cls in range(2):
            mean = ds.features[ds.labels == cls].mean(axis=0)
            assert np.linalg.norm(mean - centers[cls]) < 0.1

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least 2 classes"):
            make_blobs(1, 10, 2, 1.0, rng)
        with pytest.raises(ValueError, match="spread must be nonnegative"):
            make_blobs(2, 10, 2, -1.0, rng)
        with pytest.raises(ValueError, match="spread must be nonnegative, got nan"):
            make_blobs(2, 10, 2, float("nan"), rng)
        with pytest.raises(ValueError, match="one positive count per class"):
            make_blobs(3, [10, 10], 2, 1.0, rng)
        with pytest.raises(ValueError, match="one positive count per class"):
            make_blobs(2, 0, 2, 1.0, rng)
        with pytest.raises(ValueError, match=r"centers must have shape \(2, 3\)"):
            make_blobs(2, 10, 3, 1.0, rng, centers=np.zeros((3, 3)))


def write_idx_pair(tmp_path, pixels: bytes, labels: bytes, count: int, rows: int = 2, cols: int = 2):
    images = tmp_path / "images-idx3-ubyte"
    labels_file = tmp_path / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols) + pixels)
    labels_file.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + labels)
    return images, labels_file


class TestLoadIdx:
    PIXELS = bytes([0, 51, 102, 153, 204, 255, 10, 20])

    def test_round_trip(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        ds = load_idx(images, labels)
        assert ds.features.shape == (2, 4)
        np.testing.assert_allclose(ds.features.ravel(), np.frombuffer(self.PIXELS, dtype=np.uint8) / 255.0)
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.n_classes == 2

    def test_gzip_detected_by_content(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        for path in (images, labels):
            path.write_bytes(gzip.compress(path.read_bytes()))
        ds = load_idx(images, labels)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_all_zero_labels_still_two_classes(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([0, 0]), count=2)
        assert load_idx(images, labels).n_classes == 2

    def test_bad_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        # A labels magic in an image-shaped header must be called out.
        images.write_bytes(struct.pack(">IIII", IDX_LABELS_MAGIC, 2, 2, 2) + self.PIXELS)
        with pytest.raises(ValueError, match="bad magic 0x00000801"):
            load_idx(images, labels)
        images, _ = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        labels.write_bytes(struct.pack(">II", IDX_IMAGES_MAGIC, 2) + bytes([1, 0]))
        with pytest.raises(ValueError, match="bad magic 0x00000803"):
            load_idx(images, labels)

    def test_truncated_image_payload(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS[:-1], bytes([1, 0]), count=2)
        with pytest.raises(ValueError, match="truncated image payload"):
            load_idx(images, labels)

    def test_truncated_header(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        images.write_bytes(images.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated IDX header"):
            load_idx(images, labels)

    def test_truncated_label_header(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        labels.write_bytes(labels.read_bytes()[:6])
        with pytest.raises(ValueError, match=re.escape(f"{labels}: truncated IDX header")):
            load_idx(images, labels)

    def test_truncated_label_payload(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0]), count=2)
        labels.write_bytes(labels.read_bytes()[:-1])
        with pytest.raises(ValueError, match=re.escape(f"{labels}: truncated label payload")):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, self.PIXELS, bytes([1, 0, 1]), count=2)
        with pytest.raises(ValueError, match="count mismatch: 2 images vs 3 labels"):
            load_idx(images, labels)
