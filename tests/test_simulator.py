import math

import numpy as np
import pytest

from robustfl.aggregators import AggregatorSpec
from robustfl.attacks import AttackSpec, sign_flipping
from robustfl.datadist import LabeledDataset
from robustfl.models import LinearArch, LrSchedule, init_params, loss_and_gradient, param_count
from robustfl.preaggregators import build_pipeline
from robustfl.seeding import derive_rng
from robustfl.simulator import (
    ByzantineClientGroup,
    HonestClient,
    ServerState,
    dsgd_step,
    evaluate_accuracy,
    fedavg_round,
)


def toy_dataset(m: int = 12, d: int = 3, n_classes: int = 2, seed: int = 0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(m, d)), np.arange(m) % n_classes, n_classes)


def full_batch_client(dataset, indices, client_id=0, momentum=0.0, weight_decay=0.0, flip=False, seed=0):
    """Client whose batch is always its whole partition (batch content is
    then independent of the shuffle)."""
    return HonestClient(
        client_id,
        dataset,
        np.asarray(indices),
        batch_size=len(indices),
        momentum=momentum,
        weight_decay=weight_decay,
        rng=derive_rng(seed, f"client.{client_id}"),
        flip_labels=flip,
    )


def make_server(arch, flat, rule="Average", f=0, lr=0.1):
    return ServerState(
        arch=arch,
        flat=np.asarray(flat, dtype=np.float64),
        pipeline=build_pipeline(AggregatorSpec(rule, f=f)),
        schedule=LrSchedule(lr),
    )


class TestHonestClient:
    def test_rejects_bad_construction(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            HonestClient(0, ds, np.arange(4), 0, 0.0, 0.0, derive_rng(0, "client.0"))
        with pytest.raises(ValueError, match="client 3 has no samples"):
            HonestClient(3, ds, np.array([], dtype=np.int64), 2, 0.0, 0.0, derive_rng(0, "client.3"))

    def test_batches_stay_inside_partition(self):
        ds = toy_dataset(m=10)
        client = HonestClient(0, ds, np.array([1, 3, 5, 7, 9]), 2, 0.0, 0.0, derive_rng(1, "client.0"))
        for _ in range(10):
            feats, labels = client._next_batch()
            assert feats.shape == (2, 3)
            for row in feats:
                assert any(np.array_equal(row, ds.features[j]) for j in (1, 3, 5, 7, 9))

    def test_momentum_buffer_accumulates(self):
        ds = toy_dataset(m=4)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        client = full_batch_client(ds, np.arange(4), momentum=0.9, weight_decay=0.01)
        g = loss_and_gradient(arch, flat, ds.features, ds.labels)[1] + 0.01 * flat
        u1 = client.compute_update(arch, flat)
        np.testing.assert_allclose(u1, g, atol=1e-12)
        u2 = client.compute_update(arch, flat)
        np.testing.assert_allclose(u2, 0.9 * g + g, atol=1e-12)

    def test_flipped_labels_match_manual_relabeling(self):
        ds = toy_dataset(m=9, n_classes=3, seed=5)
        relabeled = LabeledDataset(ds.features, (ds.n_classes - 1) - ds.labels, ds.n_classes)
        arch = LinearArch(3, 3)
        flat = init_params(arch, derive_rng(2, "init"))
        flipped = full_batch_client(ds, np.arange(9), flip=True)
        manual = full_batch_client(relabeled, np.arange(9))
        np.testing.assert_array_equal(flipped.compute_update(arch, flat), manual.compute_update(arch, flat))

    def test_flip_negates_gradient_at_zero_params_binary(self):
        ds = toy_dataset(m=6, n_classes=2, seed=7)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        honest = full_batch_client(ds, np.arange(6))
        flipped = full_batch_client(ds, np.arange(6), flip=True)
        g_honest = honest.compute_update(arch, flat)
        g_flipped = flipped.compute_update(arch, flat)
        # Uniform softmax makes the flipped per-sample residue the exact
        # negation, so the bias block (and for C=2 the whole vector) negates.
        np.testing.assert_allclose(g_flipped[6:], -g_honest[6:], atol=1e-15)
        np.testing.assert_allclose(g_flipped, -g_honest, atol=1e-15)

    def test_local_delta_matches_sequential_steps(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat = init_params(arch, derive_rng(3, "init"))
        client = full_batch_client(ds, np.array([0]), momentum=0.5, weight_decay=0.1)
        delta = client.local_delta(arch, flat, lr=0.2, local_steps=5)
        local = flat.copy()
        buf = np.zeros_like(flat)
        for _ in range(5):
            g = loss_and_gradient(arch, local, ds.features, ds.labels)[1] + 0.1 * local
            buf = 0.5 * buf + g
            local = local - 0.2 * buf
        np.testing.assert_array_equal(delta, local - flat)

    def test_partition_loss_uses_whole_partition(self):
        ds = toy_dataset(m=8)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        client = full_batch_client(ds, np.arange(8))
        assert client.partition_loss(arch, flat) == pytest.approx(math.log(2), abs=1e-12)


class TestByzantineClientGroup:
    def test_validation(self):
        with pytest.raises(ValueError, match="f must be nonnegative"):
            ByzantineClientGroup(-1, None)
        with pytest.raises(ValueError, match="attack descriptor is required"):
            ByzantineClientGroup(2, None)
        with pytest.raises(ValueError, match=r"one flip client per Byzantine seat \(2\)"):
            ByzantineClientGroup(2, AttackSpec("LabelFlipping"), flip_clients=[])

    def test_no_adversary_emits_nothing(self, x3):
        group = ByzantineClientGroup(0, None)
        pipeline = build_pipeline(AggregatorSpec("Average"))
        assert group.gradient_rows(x3, pipeline, LinearArch(1, 2), np.zeros(4)).shape == (0, 3)

    def test_gradient_rows_tile_the_attack_vector(self, x3):
        group = ByzantineClientGroup(3, AttackSpec("SignFlipping"))
        pipeline = build_pipeline(AggregatorSpec("Average"))
        rows = group.gradient_rows(x3, pipeline, LinearArch(1, 2), np.zeros(4))
        np.testing.assert_array_equal(rows, np.tile(sign_flipping(x3), (3, 1)))

    def test_label_flip_rows_come_from_flip_clients(self):
        ds = toy_dataset(m=6)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        flips = [full_batch_client(ds, np.arange(6), client_id=i, flip=True, seed=i) for i in range(2)]
        group = ByzantineClientGroup(2, AttackSpec("LabelFlipping"), flip_clients=flips)
        rows = group.gradient_rows(np.zeros((3, param_count(arch))), None, arch, flat)
        twin = [full_batch_client(ds, np.arange(6), client_id=i, flip=True, seed=i) for i in range(2)]
        expected = np.stack([c.compute_update(arch, flat) for c in twin])
        np.testing.assert_array_equal(rows, expected)
        fresh = ByzantineClientGroup(
            2,
            AttackSpec("LabelFlipping"),
            flip_clients=[full_batch_client(ds, np.arange(6), client_id=i, flip=True, seed=i) for i in range(2)],
        )
        np.testing.assert_array_equal(fresh.gradient_rows(np.zeros((3, param_count(arch))), None, arch, flat), rows)


class TestDsgdStep:
    def test_single_client_average_is_centralized_sgd(self):
        ds = toy_dataset(m=8)
        arch = LinearArch(3, 2)
        flat0 = init_params(arch, derive_rng(4, "init"))
        client = HonestClient(0, ds, np.arange(8), 2, 0.9, 0.01, derive_rng(4, "client.0"))
        server = make_server(arch, flat0.copy(), lr=0.05)
        batch_source = HonestClient(0, ds, np.arange(8), 2, 0.9, 0.01, derive_rng(4, "client.0"))
        manual = flat0.copy()
        buf = np.zeros_like(manual)
        for _ in range(100):
            dsgd_step(server, [client], ByzantineClientGroup(0, None))
            feats, labels = batch_source._next_batch()
            _, g = loss_and_gradient(arch, manual, feats, labels)
            buf = 0.9 * buf + (g + 0.01 * manual)
            manual = manual - 0.05 * buf
            np.testing.assert_allclose(server.flat, manual, atol=1e-9)
        assert server.step == 100

    def test_sign_flipping_against_average_shrinks_the_step(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = np.full(param_count(arch), 0.25)
        clients = [full_batch_client(ds, np.array([0]), client_id=i, seed=i) for i in range(3)]
        g = loss_and_gradient(arch, flat0, ds.features[:1], ds.labels[:1])[1]
        server = make_server(arch, flat0.copy(), rule="Average", lr=0.1)
        dsgd_step(server, clients, ByzantineClientGroup(1, AttackSpec("SignFlipping")))
        np.testing.assert_allclose(server.flat, flat0 - 0.1 * 0.5 * g, atol=1e-12)

    def test_sign_flipping_against_trmean_is_neutralized(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = np.full(param_count(arch), 0.25)
        clients = [full_batch_client(ds, np.array([0]), client_id=i, seed=i) for i in range(3)]
        g = loss_and_gradient(arch, flat0, ds.features[:1], ds.labels[:1])[1]
        server = make_server(arch, flat0.copy(), rule="TrMean", f=1, lr=0.1)
        dsgd_step(server, clients, ByzantineClientGroup(1, AttackSpec("SignFlipping")))
        np.testing.assert_allclose(server.flat, flat0 - 0.1 * g, atol=1e-12)

    def test_attack_does_not_touch_honest_state(self):
        ds = toy_dataset(m=8)
        arch = LinearArch(3, 2)
        flat0 = init_params(arch, derive_rng(6, "init"))

        def one_step(f):
            clients = [HonestClient(0, ds, np.arange(8), 4, 0.9, 0.0, derive_rng(6, "client.0"))]
            byz = ByzantineClientGroup(f, AttackSpec("SignFlipping") if f else None)
            server = make_server(arch, flat0.copy(), f=f)
            dsgd_step(server, clients, byz)
            return clients[0].momentum_buf

        np.testing.assert_array_equal(one_step(0), one_step(2))

    def test_infeasible_pipeline_propagates(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        clients = [full_batch_client(ds, np.array([0]))]
        server = make_server(arch, np.zeros(param_count(arch)), rule="MultiKrum", f=1)
        with pytest.raises(ValueError, match="MultiKrum requires n >= f \\+ 2"):
            dsgd_step(server, clients, ByzantineClientGroup(1, AttackSpec("SignFlipping")))


class TestFedavgRound:
    def test_reduces_to_dsgd_step(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = init_params(arch, derive_rng(8, "init"))
        via_fedavg = make_server(arch, flat0.copy(), lr=0.1)
        fedavg_round(
            via_fedavg,
            [full_batch_client(ds, np.array([0]))],
            ByzantineClientGroup(0, None),
            1.0,
            1,
            derive_rng(8, "sampling"),
        )
        via_dsgd = make_server(arch, flat0.copy(), lr=0.1)
        dsgd_step(via_dsgd, [full_batch_client(ds, np.array([0]))], ByzantineClientGroup(0, None))
        np.testing.assert_array_equal(via_fedavg.flat, via_dsgd.flat)
        assert via_fedavg.step == 1

    def test_samples_ceil_of_proportion(self):
        ds = toy_dataset(m=20)
        arch = LinearArch(3, 2)
        clients = [full_batch_client(ds, np.array([i, i + 10]), client_id=i, seed=i) for i in range(10)]
        server = make_server(arch, np.zeros(param_count(arch)))
        fedavg_round(server, clients, ByzantineClientGroup(0, None), 0.6, 2, derive_rng(0, "sampling"))
        participated = [not math.isnan(c.last_loss) for c in clients]
        assert sum(participated) == 6

    def test_sampling_is_seeded(self):
        ds = toy_dataset(m=20)
        arch = LinearArch(3, 2)

        def run(seed):
            clients = [full_batch_client(ds, np.array([i, i + 10]), client_id=i, seed=i) for i in range(10)]
            server = make_server(arch, np.zeros(param_count(arch)))
            fedavg_round(server, clients, ByzantineClientGroup(0, None), 0.3, 1, derive_rng(seed, "sampling"))
            return [math.isnan(c.last_loss) for c in clients]

        assert run(5) == run(5)

    def test_byzantine_deltas_join_aggregation(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = np.full(param_count(arch), 0.5)
        clients = [full_batch_client(ds, np.array([0]), client_id=i, seed=i) for i in range(3)]
        server = make_server(arch, flat0.copy(), lr=0.1)
        fedavg_round(
            server,
            clients,
            ByzantineClientGroup(1, AttackSpec("SignFlipping")),
            1.0,
            1,
            derive_rng(1, "sampling"),
        )
        delta = -0.1 * loss_and_gradient(arch, flat0, ds.features[:1], ds.labels[:1])[1]
        np.testing.assert_allclose(server.flat, flat0 + 0.5 * delta, atol=1e-12)


class TestEvaluateAccuracy:
    def test_zero_params_predict_lowest_class(self):
        ds = toy_dataset(m=10, n_classes=2)
        expected = float((ds.labels == 0).mean())
        assert evaluate_accuracy(LinearArch(3, 2), np.zeros(8), ds) == expected

    def test_perfect_separator(self):
        features = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        ds = LabeledDataset(features, np.array([0, 0, 1, 1]), 2)
        flat = np.array([-1.0, 1.0, 0.0, 0.0])
        assert evaluate_accuracy(LinearArch(1, 2), flat, ds) == 1.0

    def test_random_model_near_chance(self):
        rng = np.random.default_rng(9)
        ds = LabeledDataset(rng.normal(size=(1000, 4)), rng.integers(0, 10, 1000), 10)
        arch = LinearArch(4, 10)
        assert abs(evaluate_accuracy(arch, init_params(arch, rng), ds) - 0.1) < 0.03
