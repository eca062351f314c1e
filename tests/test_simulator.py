import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from config_fixtures import tiny_config_text
from robustfl import numerics, simulator
from robustfl.aggregators import AggregatorSpec
from robustfl.attacks import DEFAULT_SCALE_GRID, AttackSpec, OptimizedAttack, sign_flipping
from robustfl.benchmark import ARCHS, DATASETS, expand_grid, parse_config, run_cohort, run_single
from robustfl.datadist import LabeledDataset, make_partition
from robustfl.models import (
    LinearArch,
    LrSchedule,
    MlpArch,
    evaluate_accuracy,
    forward_loss,
    init_params,
    loss_and_gradient,
    param_count,
)
from robustfl.preaggregators import Pipeline, build_pipeline
from robustfl.seeding import derive_rng
from robustfl.simulator import (
    ByzantineClientGroup,
    HonestClient,
    ServerState,
    dsgd_step,
    fedavg_round,
    sampled_count,
)

from conftest import tile_budgets


def toy_dataset(m: int = 12, d: int = 3, n_classes: int = 2, seed: int = 0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(m, d)), np.arange(m) % n_classes, n_classes)


def bank(dataset, partitions, batch_size, momentum=0.0, weight_decay=0.0, seats=0, seed=0, stream="client"):
    """A bank with one honest row per partition and ``seats`` LabelFlipping
    rows, streams seeded as ``run_single`` seeds them."""
    rngs = [derive_rng(seed, f"{stream}.{i}") for i in range(len(partitions))]
    rngs += [derive_rng(seed, f"byz.{j}") for j in range(seats)]
    return HonestClient(dataset, partitions, batch_size, momentum, weight_decay, rngs, seats)


def full_batch_bank(dataset, partitions, momentum=0.0, weight_decay=0.0, seats=0, seed=0):
    """Bank whose every batch is its row's whole partition (batch content is
    then independent of the shuffle); all partitions have one size."""
    partitions = [np.asarray(p) for p in partitions]
    return bank(dataset, partitions, len(partitions[0]), momentum, weight_decay, seats, seed)


def next_batch(clients, i):
    """Row i's next mini-batch of sample indices, drawn alone."""
    ((_, take),) = clients._batches(np.array([i]))
    return take[0]


def make_server(flat, rule="Average", f=0):
    return ServerState(flat=np.asarray(flat, dtype=np.float64), pipeline=build_pipeline(AggregatorSpec(rule, f=f)))


class Run:
    """One run as ``run_cohort`` holds it: its server and Byzantine group, and
    its (m + f, d) step rows, whose first m + seats (``head``) the bank trains;
    m is every honest client under DSGD, the sampled ones under FedAvg."""

    def __init__(self, server, byz, clients, proportion=None):
        n = len(clients)
        m = n if proportion is None else sampled_count(proportion, n)
        self.server, self.byz = server, byz
        self.rows = np.zeros((m + byz.f, server.flat.size))
        self.head = self.rows[: m + byz.seats]


def step(clients, arch, runs, sampling=None, proportion=1.0, local_steps=1, lr=0.1):
    """One step of ``runs`` of model ``arch`` on their shared bank at learning
    rate ``lr``, as ``run_cohort`` takes it: one bank pass trains every run's
    head at its parameters, then each run's attack, pipeline and update run in
    turn. A DSGD step, or with a ``sampling`` Generator a federated averaging
    round; returns the runs' rows."""
    flats, heads = [run.server.flat for run in runs], [run.head for run in runs]
    if sampling is None:
        clients.compute_update(arch, flats, heads)
    else:
        n = len(clients)
        chosen = np.sort(sampling.choice(n, size=sampled_count(proportion, n), replace=False))
        clients.local_delta(arch, flats, lr, local_steps, chosen, heads)
    for run in runs:
        if sampling is None:
            dsgd_step(run.server, run.rows, run.byz, lr)
        else:
            fedavg_round(run.server, run.rows, run.byz)
    return [run.rows for run in runs]


def momentum_rows(clients, arch, flat, seats=0):
    """A lone run's momentum rows (honest, then ``seats``) after one more bank step at ``flat``."""
    head = np.zeros((len(clients) + seats, param_count(arch)))
    clients.compute_update(arch, [flat], [head])
    return head


# --------------------------------------------------------------------------- #
# Reference: the per-client loop the bank replaced, one object per client
# --------------------------------------------------------------------------- #


class LoopClient:
    """One client drawing its own batches and calling ``loss_and_gradient``
    on them alone, as the simulator did before clients became bank rows."""

    def __init__(self, dataset, indices, batch_size, momentum, weight_decay, rng, flip_labels=False):
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)
        self.batch_size = batch_size
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.flip_labels = flip_labels
        self._rng = rng
        self._order = rng.permutation(self.indices)
        self._cursor = 0
        self.momentum_buf = None

    def _next_indices(self):
        if self._cursor + self.batch_size > len(self._order):
            self._order = self._rng.permutation(self.indices)
            self._cursor = 0
        take = min(self.batch_size, len(self._order))
        batch = self._order[self._cursor : self._cursor + take]
        self._cursor += take
        return batch

    def _next_batch(self):
        batch = self._next_indices()
        y = self.dataset.labels[batch]
        return self.dataset.features[batch], (self.dataset.n_classes - 1) - y if self.flip_labels else y

    def _momentum_step(self, arch, params, buf):
        features, labels = self._next_batch()
        _, grad = loss_and_gradient(arch, params, features, labels)
        return self.momentum * buf + (grad + self.weight_decay * params)

    def compute_update(self, arch, flat):
        buf = np.zeros_like(flat) if self.momentum_buf is None else self.momentum_buf
        self.momentum_buf = self._momentum_step(arch, flat, buf)
        return self.momentum_buf.copy()

    def local_delta(self, arch, flat, lr, local_steps):
        local = flat.copy()
        buf = np.zeros_like(flat)
        for _ in range(local_steps):
            buf = self._momentum_step(arch, local, buf)
            local = local - lr * buf
        return local - flat


@dataclass
class LoopServer:
    """The per-client loop's server, which keeps its own learning-rate
    schedule and step counter."""

    arch: object
    flat: np.ndarray
    pipeline: Pipeline
    schedule: LrSchedule
    step: int = 0


def loop_server(arch, flat, lr):
    return LoopServer(arch, np.asarray(flat, dtype=np.float64), build_pipeline(AggregatorSpec("Average")),
                      LrSchedule(lr))


def loop_clients(dataset, partitions, batch_size, momentum=0.0, weight_decay=0.0, flip=False, seed=0, stream="client"):
    return [
        LoopClient(dataset, p, batch_size, momentum, weight_decay, derive_rng(seed, f"{stream}.{i}"), flip)
        for i, p in enumerate(partitions)
    ]


def loop_round(server, honest, byzantine, scale):
    """Aggregate and apply the stacked rows; returns them."""
    stacked = np.vstack([honest, *byzantine])
    server.flat = server.flat + scale * server.pipeline(stacked)
    server.step += 1
    return stacked


def loop_dsgd_step(server, clients, flips):
    honest = np.stack([c.compute_update(server.arch, server.flat) for c in clients])
    byzantine = [c.compute_update(server.arch, server.flat) for c in flips]
    return loop_round(server, honest, byzantine, -server.schedule.lr_at(server.step))


def loop_fedavg_round(server, clients, flips, proportion, local_steps, sampling_rng):
    n = len(clients)
    chosen = np.sort(sampling_rng.choice(n, size=math.ceil(proportion * n), replace=False))
    lr = server.schedule.lr_at(server.step)
    deltas = np.stack([clients[i].local_delta(server.arch, server.flat, lr, local_steps) for i in chosen])
    byzantine = [c.local_delta(server.arch, server.flat, lr, local_steps) for c in flips]
    return loop_round(server, deltas, byzantine, 1.0)


# --------------------------------------------------------------------------- #
# The bank against the per-client loop, bit for bit
# --------------------------------------------------------------------------- #


@st.composite
def bank_setups(draw):
    """A seeded dataset and partition, a model and the client settings; the
    batch size may exceed some partitions, so batch lengths can differ."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n_classes = draw(st.integers(2, 4))
    in_dim = draw(st.integers(1, 6))
    m = draw(st.integers(12, 40))
    n = draw(st.integers(1, 6))
    dataset = LabeledDataset(rng.normal(size=(m, in_dim)), rng.integers(0, n_classes, m), n_classes)
    name, parameter = draw(st.sampled_from([("iid", 0.0), ("dirichlet_niid", 0.3), ("gamma_similarity_niid", 0.5)]))
    partitions = make_partition(dataset, name, parameter, n, rng).assignments
    batch_size = draw(st.integers(1, max(len(p) for p in partitions) + 2))
    arch = draw(st.sampled_from([LinearArch(in_dim, n_classes), MlpArch(in_dim, 3, n_classes)]))
    momentum = draw(st.sampled_from([0.0, 0.9]))
    weight_decay = draw(st.sampled_from([0.0, 0.01]))
    flat = init_params(arch, derive_rng(seed, "init"))
    return dataset, partitions, batch_size, arch, momentum, weight_decay, flat, seed


def twin_runs(setup, fs, proportion=None):
    """A cohort and its per-client loops: one bank with the most LabelFlipping
    seats of ``fs``, and a run for each f of ``fs`` at parameters of its own;
    and for each run the loop side (clients, flip clients, server)."""
    dataset, partitions, batch_size, arch, momentum, weight_decay, flat, seed = setup
    settings_ = (batch_size, momentum, weight_decay)
    clients = bank(dataset, partitions, *settings_, seats=max(fs), seed=seed)
    runs, loops = [], []
    for j, f in enumerate(fs):
        start = flat if j == 0 else init_params(arch, derive_rng(seed + j, "init"))
        byz = ByzantineClientGroup(f, AttackSpec("LabelFlipping") if f else None)
        runs.append(Run(make_server(start.copy()), byz, clients, proportion))
        flip_parts = [partitions[i % len(partitions)] for i in range(f)]
        loops.append((loop_clients(dataset, partitions, *settings_, seed=seed),
                      loop_clients(dataset, flip_parts, *settings_, flip=True, seed=seed, stream="byz"),
                      loop_server(arch, start.copy(), lr=0.05)))
    return clients, runs, loops


class TestBankMatchesPerClientLoop:
    """A cohort of runs on one bank, each with its own parameters and f
    label-flipping seats, against each run's per-client loop, bit for bit. The
    bank's momentum step runs in column tiles; ``tile_budgets`` cuts the
    parameters here into several of them, or fits them in one."""

    @settings(deadline=None, max_examples=60)
    @given(bank_setups(), st.lists(st.integers(0, 2), min_size=1, max_size=3), st.integers(1, 8), tile_budgets)
    def test_dsgd_steps(self, setup, fs, steps, budget):
        """Several steps (crossing reshuffles), with f label-flipping seats,
        whose momentum rows sit directly under the honest rows."""
        clients, runs, loops = twin_runs(setup, fs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "TILE_ELEMENTS", budget)
            for _ in range(steps):
                all_rows = step(clients, setup[3], runs, lr=0.05)
                for run, rows, (ref_clients, ref_flips, ref) in zip(runs, all_rows, loops):
                    assert np.array_equal(rows, loop_dsgd_step(ref, ref_clients, ref_flips))
                    assert np.array_equal(run.server.flat, ref.flat)

    @settings(deadline=None, max_examples=60)
    @given(bank_setups(), st.lists(st.integers(0, 2), min_size=1, max_size=3), st.sampled_from([0.3, 0.6, 1.0]),
           st.integers(1, 4), st.integers(1, 3), tile_budgets)
    def test_fedavg_rounds(self, setup, fs, proportion, local_steps, rounds, budget):
        clients, runs, loops = twin_runs(setup, fs, proportion)
        seed = setup[-1]
        sampling = derive_rng(seed, "sampling")
        ref_samplings = [derive_rng(seed, "sampling") for _ in fs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "TILE_ELEMENTS", budget)
            for _ in range(rounds):
                step(clients, setup[3], runs, sampling, proportion, local_steps, lr=0.05)
                for run, (ref_clients, ref_flips, ref), ref_sampling in zip(runs, loops, ref_samplings):
                    loop_fedavg_round(ref, ref_clients, ref_flips, proportion, local_steps, ref_sampling)
                    assert np.array_equal(run.server.flat, ref.flat)

    @pytest.mark.parametrize("arch", [LinearArch(3, 3), MlpArch(3, 4, 3)], ids=["linear", "mlp"])
    def test_partitions_shorter_than_the_batch_form_their_own_groups(self, arch):
        ds = toy_dataset(m=24, n_classes=3, seed=4)
        partitions = [np.arange(0, 9), np.arange(9, 11), np.arange(11, 21), np.arange(21, 22), np.arange(22, 24)]
        flats = [init_params(arch, derive_rng(seed, "init")) for seed in (4, 5)]
        clients = bank(ds, partitions, 4, momentum=0.9, weight_decay=0.01, seed=4)
        refs = [loop_clients(ds, partitions, 4, momentum=0.9, weight_decay=0.01, seed=4) for _ in flats]
        heads = [np.zeros((5, param_count(arch))) for _ in flats]
        for _ in range(5):
            clients.compute_update(arch, flats, heads)
            for j, (head, ref_clients) in enumerate(zip(heads, refs)):
                assert np.array_equal(head, np.stack([c.compute_update(arch, flats[j]) for c in ref_clients]))
                flats[j] = flats[j] - 0.1 * head.mean(axis=0)
        chosen = np.array([1, 2, 3])
        deltas = [np.empty((3, param_count(arch))) for _ in flats]
        clients.local_delta(arch, flats, 0.1, 3, chosen, deltas)
        for flat, delta, ref_clients in zip(flats, deltas, refs):
            assert np.array_equal(delta, np.stack([ref_clients[i].local_delta(arch, flat, 0.1, 3) for i in chosen]))

    # Partitions of 9, 2, 10, 1 and 2 samples under batches of 4. The seats
    # train on the first three, seat 1 on one shorter than a batch, so the
    # rows draw batches of 4, 2 and 1. Seat 0 runs out of full batches after
    # two draws: its third comes from a new permutation, mid-round under
    # three local steps. A sibling run trains only the first seat.
    @pytest.mark.parametrize("arch", [LinearArch(3, 3), MlpArch(3, 4, 3)], ids=["linear", "mlp"])
    @pytest.mark.parametrize("algorithm", ["DSGD", "FedAvg"])
    def test_seats_with_short_partitions_mixed_lengths_and_a_wrap_mid_round(self, arch, algorithm):
        ds = toy_dataset(m=24, n_classes=3, seed=4)
        partitions = [np.arange(0, 9), np.arange(9, 11), np.arange(11, 21), np.arange(21, 22), np.arange(22, 24)]
        setup = (ds, partitions, 4, arch, 0.9, 0.01, init_params(arch, derive_rng(4, "init")), 4)
        proportion = None if algorithm == "DSGD" else 0.6
        clients, runs, loops = twin_runs(setup, [3, 1], proportion)
        sampling, ref_samplings = derive_rng(4, "sampling"), [derive_rng(4, "sampling") for _ in runs]
        for round_ in range(3):
            if algorithm == "DSGD":
                for rows, (ref_clients, ref_flips, ref) in zip(step(clients, arch, runs, lr=0.05), loops):
                    np.testing.assert_array_equal(rows, loop_dsgd_step(ref, ref_clients, ref_flips))
            else:
                all_rows = step(clients, arch, runs, sampling, 0.6, 3, lr=0.05)
                for rows, (ref_clients, ref_flips, ref), ref_sampling in zip(all_rows, loops, ref_samplings):
                    np.testing.assert_array_equal(rows, loop_fedavg_round(ref, ref_clients, ref_flips, 0.6, 3,
                                                                          ref_sampling))
                assert round_ > 0 or clients._cursors[len(partitions)] == 4  # seat 0 wrapped in round 1
            for run, (_, _, ref) in zip(runs, loops):
                np.testing.assert_array_equal(run.server.flat, ref.flat)


def replay_run(cfg, key):
    """``run_single``'s test accuracies and training losses for a key, with
    the per-client loop in place of the bank (``loop_dsgd_step`` under DSGD,
    ``loop_fedavg_round`` under FedAvg, drawing from the ``sampling`` stream)
    and the LabelFlipping seats as flip clients on partitions j % n and
    streams ``byz.j``."""
    train, test = DATASETS[cfg.model.dataset_name].load(cfg.model, key.seed)
    n, hc = cfg.nb_honest_clients, cfg.honest_clients
    partitions = make_partition(train, key.distribution_name, key.distribution_parameter, n,
                                derive_rng(key.seed, "datadist")).assignments
    arch = ARCHS[cfg.model.name](cfg.model, train.features.shape[1], train.n_classes)
    settings_ = (hc.batch_size, hc.momentum, hc.weight_decay)
    clients = loop_clients(train, partitions, *settings_, seed=key.seed)
    flips = loop_clients(train, [partitions[j % n] for j in range(key.f)], *settings_, flip=True, seed=key.seed,
                         stream="byz")
    schedule = LrSchedule(cfg.model.learning_rate, cfg.model.learning_rate_decay, tuple(cfg.model.milestones))
    pipeline = build_pipeline(key.aggregator, key.pre_aggregators, rng=derive_rng(key.seed, "bucketing"))
    server = LoopServer(arch, init_params(arch, derive_rng(key.seed, "init")), pipeline, schedule)
    fedavg = cfg.training_algorithm.parameters if cfg.training_algorithm.name == "FedAvg" else None
    sampling, union = derive_rng(key.seed, "sampling"), np.concatenate(partitions)
    accuracy, losses = [], []
    for step in range(cfg.nb_steps + 1):
        if step and fedavg is None:
            loop_dsgd_step(server, clients, flips)
        elif step:
            loop_fedavg_round(server, clients, flips, fedavg["proportion_selected_clients"],
                              fedavg["local_steps_per_client"], sampling)
        if step % cfg.evaluation.evaluation_delta == 0 or step == cfg.nb_steps:
            accuracy.append(evaluate_accuracy(arch, [server.flat], test)[0])
            losses.append(forward_loss(arch, [server.flat], train.features, train.labels, [union])[0][0])
    return accuracy, losses


def test_dsgd_label_flipping_grid_equals_the_per_client_loop(tmp_path):
    """A DSGD grid under LabelFlipping, a case no benchmark workload runs: f
    in {1, 2} seats on skewed partitions, some shorter than a batch, over
    several epochs. Every run's series equals the per-client loop's."""
    cfg = parse_config(tiny_config_text(
        tmp_path, attack=[{"name": "LabelFlipping", "parameters": {}}],
        **{"benchmark_config.nb_steps": 9, "benchmark_config.nb_honest_clients": 4, "benchmark_config.f": [1, 2],
           "benchmark_config.data_distribution": [{"name": "dirichlet_niid", "distribution_parameter": [0.5]}],
           "honest_clients.batch_size": 12},
    ))
    keys = expand_grid(cfg)
    assert [key.f for key in keys] == [1, 2]
    for key in keys:
        result = run_single(cfg, key)
        assert (result.test_accuracy, result.train_loss) == replay_run(cfg, key)


@pytest.mark.parametrize("algorithm", ["DSGD", "FedAvg"])
def test_a_cohort_crossing_learning_rate_milestones_equals_the_per_client_loop(tmp_path, algorithm):
    """Four runs of one cohort (Average and Median, f in {1, 2} LabelFlipping
    seats) under a schedule that halves the learning rate at steps 3 and 6 of
    9: the loop hands every run each step's rate, and each run's series equals
    its per-client replay, whose server counts its own steps."""
    tweaks = {"attack": [{"name": "LabelFlipping", "parameters": {}}],
              "aggregator": [{"name": "Average", "parameters": {}}, {"name": "Median", "parameters": {}}],
              "model.learning_rate": 0.2, "model.learning_rate_decay": 0.5, "model.milestones": [3, 6],
              "benchmark_config.nb_steps": 9, "benchmark_config.nb_honest_clients": 4, "benchmark_config.f": [1, 2],
              "evaluation_and_results.evaluation_delta": 1}
    if algorithm == "FedAvg":
        tweaks["benchmark_config.training_algorithm"] = {
            "name": "FedAvg", "parameters": {"proportion_selected_clients": 0.5, "local_steps_per_client": 2}}
    cfg = parse_config(tiny_config_text(tmp_path, **tweaks))
    schedule = LrSchedule(cfg.model.learning_rate, cfg.model.learning_rate_decay, tuple(cfg.model.milestones))
    assert [schedule.lr_at(step) for step in range(cfg.nb_steps)] == [0.2] * 3 + [0.1] * 3 + [0.05] * 3
    keys = expand_grid(cfg)
    assert len(keys) == 4 and len({(key.seed, key.distribution_parameter) for key in keys}) == 1
    for key, result in zip(keys, run_cohort(cfg, keys)):
        assert (result.test_accuracy, result.train_loss) == replay_run(cfg, key)


class TestHonestClient:
    def test_rejects_bad_construction(self):
        ds = toy_dataset()
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            bank(ds, [np.arange(4)], 0)
        with pytest.raises(ValueError, match="client 1 has no samples"):
            bank(ds, [np.arange(4), np.array([], dtype=np.int64)], 2)
        with pytest.raises(ValueError, match=r"need one Generator per row \(1 \+ 2\), got 2"):
            HonestClient(ds, [np.arange(4)], 2, 0.0, 0.0, [derive_rng(0, "client.0"), derive_rng(0, "byz.0")], 2)

    def test_batches_stay_inside_partition(self):
        ds = toy_dataset(m=10)
        clients = bank(ds, [np.array([1, 3, 5, 7, 9]), np.array([0, 2])], 2, seed=1)
        for _ in range(10):
            assert set(next_batch(clients, 0)) <= {1, 3, 5, 7, 9}
            assert sorted(next_batch(clients, 1)) == [0, 2]

    def test_cursor_draws_reproduce_the_per_row_draws(self):
        """Rows drawn in random subsets, seats included, under partitions
        longer and shorter than a batch, get the batches a lone client's
        per-row draw gives, in order."""
        ds = toy_dataset(m=30, n_classes=3)
        partitions = [np.arange(0, 9), np.arange(9, 11), np.arange(11, 21), np.arange(21, 22), np.arange(22, 30)]
        clients = bank(ds, partitions, 4, seats=2, seed=3)
        refs = loop_clients(ds, partitions, 4, seed=3) + loop_clients(ds, partitions[:2], 4, seed=3, stream="byz")
        rng = np.random.default_rng(0)
        for _ in range(60):
            rows = np.sort(rng.choice(len(refs), size=rng.integers(1, len(refs) + 1), replace=False))
            drawn = {}
            for group, take in clients._batches(rows):
                drawn.update(zip(rows[group], take))
            assert sorted(drawn) == list(rows)
            for row in rows:
                np.testing.assert_array_equal(drawn[row], refs[row]._next_indices())

    def test_momentum_buffer_accumulates(self):
        ds = toy_dataset(m=4)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        clients = full_batch_bank(ds, [np.arange(4)], momentum=0.9, weight_decay=0.01)
        g = loss_and_gradient(arch, flat, ds.features, ds.labels)[1] + 0.01 * flat
        head = np.zeros((1, param_count(arch)))
        clients.compute_update(arch, [flat], [head])
        np.testing.assert_allclose(head, [g], atol=1e-12)
        clients.compute_update(arch, [flat], [head])
        np.testing.assert_allclose(head, [0.9 * g + g], atol=1e-12)

    def test_flipped_labels_match_manual_relabeling(self):
        ds = toy_dataset(m=9, n_classes=3, seed=5)
        relabeled = LabeledDataset(ds.features, (ds.n_classes - 1) - ds.labels, ds.n_classes)
        arch = LinearArch(3, 3)
        flat = init_params(arch, derive_rng(2, "init"))
        flipped = full_batch_bank(ds, [np.arange(9)], seats=1)
        manual = bank(relabeled, [np.arange(9)], 9, stream="byz")  # the seat's stream, so the same batch order
        seat_row = momentum_rows(flipped, arch, flat, seats=1)[1:]
        np.testing.assert_array_equal(seat_row, momentum_rows(manual, arch, flat))

    def test_flip_negates_gradient_at_zero_params_binary(self):
        ds = toy_dataset(m=6, n_classes=2, seed=7)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        clients = full_batch_bank(ds, [np.arange(6)], seats=1)
        g_honest, g_flipped = momentum_rows(clients, arch, flat, seats=1)
        # Uniform softmax makes the flipped per-sample residue the exact
        # negation, so the bias block (and for C=2 the whole vector) negates.
        np.testing.assert_allclose(g_flipped[6:], -g_honest[6:], atol=1e-15)
        np.testing.assert_allclose(g_flipped, -g_honest, atol=1e-15)

    def test_local_delta_matches_sequential_steps(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat = init_params(arch, derive_rng(3, "init"))
        clients = full_batch_bank(ds, [np.array([0])], momentum=0.5, weight_decay=0.1)
        delta = np.empty((1, param_count(arch)))
        clients.local_delta(arch, [flat], lr=0.2, local_steps=5, rows=[0], outs=[delta])
        local = flat.copy()
        buf = np.zeros_like(flat)
        for _ in range(5):
            g = loss_and_gradient(arch, local, ds.features, ds.labels)[1] + 0.1 * local
            buf = 0.5 * buf + g
            local = local - 0.2 * buf
        np.testing.assert_array_equal(delta, [local - flat])


class TestByzantineClientGroup:
    def test_validation(self):
        with pytest.raises(ValueError, match="f must be nonnegative"):
            ByzantineClientGroup(-1, None)
        with pytest.raises(ValueError, match="attack descriptor is required"):
            ByzantineClientGroup(2, None)

    def test_only_label_flipping_takes_seats(self):
        assert ByzantineClientGroup(2, AttackSpec("LabelFlipping")).seats == 2
        assert ByzantineClientGroup(0, AttackSpec("LabelFlipping")).seats == 0
        assert ByzantineClientGroup(2, AttackSpec("SignFlipping")).seats == 0

    def test_no_adversary_emits_nothing(self, x3):
        group = ByzantineClientGroup(0, None)
        pipeline = build_pipeline(AggregatorSpec("Average"))
        rows = x3.copy()
        assert group.gradient_rows(rows, pipeline) is None
        assert rows.tobytes() == x3.tobytes()

    def test_gradient_rows_tile_the_attack_vector(self, x3):
        # f copies of the vector are written as the last rows, and the honest rows keep their bytes.
        group = ByzantineClientGroup(3, AttackSpec("SignFlipping"))
        pipeline = build_pipeline(AggregatorSpec("Average"))
        rows = np.vstack([x3, np.full((3, 3), np.nan)])  # the attack reads x3 alone
        assert group.gradient_rows(rows, pipeline) is None
        assert rows[:3].tobytes() == x3.tobytes()
        assert rows[3:].tobytes() == np.tile(sign_flipping(x3), (3, 1)).tobytes()

    def test_label_flip_rows_are_the_bank_seat_rows(self):
        # The seats' rows are already the step's last f: neither name writes a byte of the step's rows.
        ds = toy_dataset(m=6)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        clients = full_batch_bank(ds, [np.arange(6)], seats=2)
        group = ByzantineClientGroup(2, AttackSpec("LabelFlipping"))
        ref_flips = loop_clients(ds, [np.arange(6)] * 2, 6, flip=True, stream="byz")
        step_rows = momentum_rows(clients, arch, flat, seats=2)
        trained = step_rows.copy()
        assert group.gradient_rows(step_rows, None) is None
        assert step_rows.tobytes() == trained.tobytes()
        np.testing.assert_array_equal(step_rows[1:], np.stack([c.compute_update(arch, flat) for c in ref_flips]))
        clients.local_delta(arch, [flat], 0.1, 2, [0], [step_rows])
        trained = step_rows.copy()
        assert group.delta_rows(step_rows, None) is None
        assert step_rows.tobytes() == trained.tobytes()
        np.testing.assert_array_equal(step_rows[1:], np.stack([c.local_delta(arch, flat, 0.1, 2) for c in ref_flips]))


class TestDsgdStep:
    def test_single_client_average_is_centralized_sgd(self):
        ds = toy_dataset(m=8)
        arch = LinearArch(3, 2)
        flat0 = init_params(arch, derive_rng(4, "init"))
        clients = bank(ds, [np.arange(8)], 2, 0.9, 0.01, seed=4)
        run = Run(make_server(flat0.copy()), ByzantineClientGroup(0, None), clients)
        batch_source = bank(ds, [np.arange(8)], 2, 0.9, 0.01, seed=4)
        manual = flat0.copy()
        buf = np.zeros_like(manual)
        for _ in range(100):
            step(clients, arch, [run], lr=0.05)
            batch = next_batch(batch_source, 0)
            _, g = loss_and_gradient(arch, manual, ds.features[batch], ds.labels[batch])
            buf = 0.9 * buf + (g + 0.01 * manual)
            manual = manual - 0.05 * buf
            np.testing.assert_allclose(run.server.flat, manual, atol=1e-9)

    def test_sign_flipping_against_average_shrinks_the_step(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = np.full(param_count(arch), 0.25)
        clients = full_batch_bank(ds, [np.array([0])] * 3)
        g = loss_and_gradient(arch, flat0, ds.features[:1], ds.labels[:1])[1]
        server = make_server(flat0.copy(), rule="Average")
        step(clients, arch, [Run(server, ByzantineClientGroup(1, AttackSpec("SignFlipping")), clients)])
        np.testing.assert_allclose(server.flat, flat0 - 0.1 * 0.5 * g, atol=1e-12)

    def test_sign_flipping_against_trmean_is_neutralized(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = np.full(param_count(arch), 0.25)
        clients = full_batch_bank(ds, [np.array([0])] * 3)
        g = loss_and_gradient(arch, flat0, ds.features[:1], ds.labels[:1])[1]
        server = make_server(flat0.copy(), rule="TrMean", f=1)
        step(clients, arch, [Run(server, ByzantineClientGroup(1, AttackSpec("SignFlipping")), clients)])
        np.testing.assert_allclose(server.flat, flat0 - 0.1 * g, atol=1e-12)

    def test_attack_does_not_touch_honest_state(self):
        ds = toy_dataset(m=8)
        arch = LinearArch(3, 2)
        flat0 = init_params(arch, derive_rng(6, "init"))

        def one_step(f):
            clients = bank(ds, [np.arange(8)], 4, 0.9, 0.0, seed=6)
            byz = ByzantineClientGroup(f, AttackSpec("SignFlipping") if f else None)
            run = Run(make_server(flat0.copy(), f=f), byz, clients)
            step(clients, arch, [run])
            return run.head

        np.testing.assert_array_equal(one_step(0), one_step(2))

    def test_step_rows_are_the_momentum_rows_over_the_attack_rows(self, monkeypatch):
        # No copy of the honest rows: the pipeline reads the run's momentum
        # rows in place, with the attack rows written below them.
        ds = toy_dataset(m=8)
        arch = LinearArch(3, 2)
        clients = bank(ds, [np.arange(4), np.arange(4, 8)], 4, 0.9, 0.0, seed=6)
        run = Run(make_server(init_params(arch, derive_rng(6, "init")), f=1),
                  ByzantineClientGroup(1, AttackSpec("SignFlipping")), clients)
        given = []

        def recording(pipeline, rows):
            given.append(rows.copy())
            assert rows is run.rows
            return np.zeros(rows.shape[1])

        monkeypatch.setattr(Pipeline, "__call__", recording)
        for _ in range(2):
            step(clients, arch, [run])
        np.testing.assert_array_equal(given[1][:2], run.head)
        np.testing.assert_array_equal(given[1][2], sign_flipping(run.head))

    def test_spare_rows_do_not_touch_the_momentum(self):
        # Two runs of one cohort at the same parameters: one with two crafted
        # rows under its momentum rows, one with none, keep the same momentum.
        ds = toy_dataset(m=4)
        arch = LinearArch(3, 2)
        flat = np.zeros(param_count(arch))
        clients = full_batch_bank(ds, [np.arange(4)], momentum=0.9)
        spare, bare = np.zeros((3, param_count(arch))), np.zeros((1, param_count(arch)))
        for _ in range(2):
            spare[1:] = np.nan
            clients.compute_update(arch, [flat, flat], [spare[:1], bare])
        np.testing.assert_array_equal(spare[:1], bare)

    def test_infeasible_pipeline_propagates(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        clients = full_batch_bank(ds, [np.array([0])])
        server = make_server(np.zeros(param_count(arch)), rule="MultiKrum", f=1)
        with pytest.raises(ValueError, match="MultiKrum requires n >= f \\+ 2"):
            step(clients, arch, [Run(server, ByzantineClientGroup(1, AttackSpec("SignFlipping")), clients)])


class TestFedavgRound:
    def test_reduces_to_dsgd_step(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = init_params(arch, derive_rng(8, "init"))
        via_fedavg = make_server(flat0.copy())
        clients = full_batch_bank(ds, [np.array([0])])
        step(clients, arch, [Run(via_fedavg, ByzantineClientGroup(0, None), clients, 1.0)], derive_rng(8, "sampling"))
        via_dsgd = make_server(flat0.copy())
        clients = full_batch_bank(ds, [np.array([0])])
        step(clients, arch, [Run(via_dsgd, ByzantineClientGroup(0, None), clients)])
        np.testing.assert_array_equal(via_fedavg.flat, via_dsgd.flat)

    @staticmethod
    def participants(proportion, seed, local_steps=1, n=10):
        """Which of n full-batch rows drew a batch in one round."""
        ds = toy_dataset(m=2 * n)
        arch = LinearArch(3, 2)
        clients = full_batch_bank(ds, [np.array([i, i + n]) for i in range(n)])
        run = Run(make_server(np.zeros(param_count(arch))), ByzantineClientGroup(0, None), clients, proportion)
        step(clients, arch, [run], derive_rng(seed, "sampling"), proportion, local_steps)
        return [cursor > 0 for cursor in clients._cursors]

    def test_samples_ceil_of_proportion(self):
        assert sum(self.participants(0.6, 0, local_steps=2)) == 6

    @pytest.mark.parametrize("proportion, n, expected",
                             [(0.55, 100, 55), (0.07, 100, 7), (0.28, 25, 7), (0.68, 75, 51)])
    def test_samples_ceil_of_the_decimal_proportion(self, proportion, n, expected):
        # Each float product lies just above an integer: 0.55 * 100 is 55.00000000000001.
        assert proportion * n > expected
        assert sampled_count(proportion, n) == expected
        assert sum(self.participants(proportion, 0, n=n)) == expected

    def test_sampling_is_seeded(self):
        assert self.participants(0.3, 5) == self.participants(0.3, 5)

    def test_byzantine_deltas_join_aggregation(self):
        ds = toy_dataset(m=1)
        arch = LinearArch(3, 2)
        flat0 = np.full(param_count(arch), 0.5)
        clients = full_batch_bank(ds, [np.array([0])] * 3)
        server = make_server(flat0.copy())
        step(clients, arch, [Run(server, ByzantineClientGroup(1, AttackSpec("SignFlipping")), clients, 1.0)],
             derive_rng(1, "sampling"))
        delta = -0.1 * loss_and_gradient(arch, flat0, ds.features[:1], ds.labels[:1])[1]
        np.testing.assert_allclose(server.flat, flat0 + 0.5 * delta, atol=1e-12)


# Stateful and shape-using stages, so a reused pass must carry clip memory,
# the shuffle stream and NNM's merged output into the next step.
SEARCHED_SERVERS = {
    "NNM>TrMean": {"aggregator": [{"name": "TrMean", "parameters": {}}],
                   "pre_aggregators": [{"name": "NNM", "parameters": {}}]},
    "Bucketing>CenteredClipping": {
        "aggregator": [{"name": "CenteredClipping", "parameters": {"tau": 0.5, "iters": 2}}],
        "pre_aggregators": [{"name": "Bucketing", "parameters": {"s": 2}}],
    },
}
FEDAVG = {"name": "FedAvg", "parameters": {"proportion_selected_clients": 0.6, "local_steps_per_client": 2}}


class TestSearchReuse:
    """A step whose Byzantine rows came from a search adds the search's winning
    aggregate and installs its pipeline clone instead of running the pipeline
    again: every series equals that of a run that runs it again."""

    @pytest.mark.parametrize("server", list(SEARCHED_SERVERS))
    @pytest.mark.parametrize("algorithm", ["DSGD", "FedAvg"])
    @pytest.mark.parametrize("attack", ["Optimal_InnerProductManipulation", "Optimal_ALittleIsEnough"])
    def test_series_equal_a_run_without_the_reuse(self, tmp_path, monkeypatch, attack, algorithm, server):
        tweaks = {"attack": [{"name": attack, "parameters": {}}], "benchmark_config.nb_honest_clients": 5,
                  "benchmark_config.f": [2], "benchmark_config.nb_steps": 3,
                  "evaluation_and_results.evaluation_delta": 1,
                  "evaluation_and_results.store_per_client_metrics": True, **SEARCHED_SERVERS[server]}
        if algorithm == "FedAvg":
            tweaks["benchmark_config.training_algorithm"] = FEDAVG
        cfg = parse_config(tiny_config_text(tmp_path / "results", **tweaks))
        key = expand_grid(cfg)[0]
        calls = []
        call = Pipeline.__call__
        monkeypatch.setattr(Pipeline, "__call__", lambda self, xs: calls.append(1) or call(self, xs))
        reused = run_single(cfg, key)
        assert len(calls) == 3 * len(DEFAULT_SCALE_GRID)
        apply = simulator._aggregate_and_apply
        monkeypatch.setattr(simulator, "_aggregate_and_apply",
                            lambda server, rows, search, scale: apply(server, rows, None, scale))
        calls.clear()
        again = run_single(cfg, key)
        assert len(calls) == 3 * (len(DEFAULT_SCALE_GRID) + 1)
        assert (reused.test_accuracy, reused.train_loss, reused.client_losses) == (
            again.test_accuracy, again.train_loss, again.client_losses)

    def test_only_a_search_is_reused(self, x3):
        # Only an Optimal_* attack returns its search, whose vector it wrote below the honest rows.
        pipeline = build_pipeline(AggregatorSpec("Average"))
        rows = x3.copy()
        search = ByzantineClientGroup(1, AttackSpec("Optimal_ALittleIsEnough")).gradient_rows(rows, pipeline)
        assert isinstance(search, OptimizedAttack)
        assert rows[:2].tobytes() == x3[:2].tobytes() and rows[2:].tobytes() == search.vector[None].tobytes()
        for other in (ByzantineClientGroup(1, AttackSpec("ALittleIsEnough")), ByzantineClientGroup(0, None),
                      ByzantineClientGroup(1, AttackSpec("LabelFlipping"))):
            assert other.gradient_rows(x3.copy(), pipeline) is None


class TestReadOnlyParameters:
    """Each step binds a new parameter vector and none is written in place, so
    a run may keep earlier vectors and evaluate them later."""

    @pytest.mark.parametrize("algorithm", ["DSGD", "FedAvg"])
    def test_installed_vectors_refuse_writes_and_training_runs(self, algorithm):
        ds, arch = toy_dataset(m=24, n_classes=3, seed=5), MlpArch(3, 4, 3)
        flat = init_params(arch, derive_rng(5, "init"))
        server = make_server(flat, rule="TrMean", f=1)
        clients = bank(ds, np.array_split(np.arange(24), 4), 3, momentum=0.9)
        byz, sampling = ByzantineClientGroup(1, AttackSpec("SignFlipping")), derive_rng(5, "sampling")
        run = Run(server, byz, clients, None if algorithm == "DSGD" else 0.5)
        kept = [server.flat]
        for _ in range(3):
            if algorithm == "DSGD":
                step(clients, arch, [run])
            else:
                step(clients, arch, [run], sampling, 0.5, 2)
            kept.append(server.flat)
        assert len({id(v) for v in kept}) == 4 and not any(v.flags.writeable for v in kept)
        for vector in kept:
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                vector += 1.0
        np.testing.assert_array_equal(kept[0], flat)
        assert flat.flags.writeable  # the caller's vector is left as it was
        assert np.isfinite(kept[-1]).all() and not np.array_equal(kept[-1], flat)


class TestEvaluateAccuracy:
    def test_zero_params_predict_lowest_class(self):
        ds = toy_dataset(m=10, n_classes=2)
        expected = float((ds.labels == 0).mean())
        assert evaluate_accuracy(LinearArch(3, 2), [np.zeros(8)], ds) == [expected]

    def test_perfect_separator(self):
        features = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        ds = LabeledDataset(features, np.array([0, 0, 1, 1]), 2)
        flat = np.array([-1.0, 1.0, 0.0, 0.0])
        assert evaluate_accuracy(LinearArch(1, 2), [flat], ds) == [1.0]

    def test_random_model_near_chance(self):
        rng = np.random.default_rng(9)
        ds = LabeledDataset(rng.normal(size=(1000, 4)), rng.integers(0, 10, 1000), 10)
        arch = LinearArch(4, 10)
        assert abs(evaluate_accuracy(arch, [init_params(arch, rng)], ds)[0] - 0.1) < 0.03
