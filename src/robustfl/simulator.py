"""Federated training loop with honest clients and a Byzantine group.

Two algorithms are supported. Distributed SGD: every honest client submits a
momentum gradient each step and the server descends along the robust
aggregate. Federated averaging: a sampled subset of clients runs several
local SGD steps and submits its model delta, and the server adds the robust
aggregate of the deltas. In both cases the aggregation input stacks honest
rows first (ordered by client id) followed by f Byzantine rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackContext, AttackSpec, attack_vector
from .datadist import LabeledDataset
from .models import Arch, LrSchedule, logits, loss_and_gradient, forward_loss
from .preaggregators import Pipeline


class HonestClient:
    """One honest participant: local data, momentum buffer, batch stream.

    The index list is reshuffled once per full pass using the client's own
    Generator. ``flip_labels`` swaps every label y for (n_classes - 1) - y,
    which is how the data-poisoning Byzantine clients reuse this class.
    """

    def __init__(
        self,
        client_id: int,
        dataset: LabeledDataset,
        indices: np.ndarray,
        batch_size: int,
        momentum: float,
        weight_decay: float,
        rng: np.random.Generator,
        flip_labels: bool = False,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.client_id = client_id
        self.dataset = dataset
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indices.size == 0:
            raise ValueError(f"client {client_id} has no samples")
        self.batch_size = batch_size
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.flip_labels = flip_labels
        self._rng = rng
        self._order = rng.permutation(self.indices)
        self._cursor = 0
        self.momentum_buf: np.ndarray | None = None
        self.last_loss = math.nan

    def _next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cursor + self.batch_size > len(self._order):
            self._order = self._rng.permutation(self.indices)
            self._cursor = 0
        take = min(self.batch_size, len(self._order))
        batch = self._order[self._cursor : self._cursor + take]
        self._cursor += take
        return self.dataset.features[batch], self._labels(batch)

    def _labels(self, batch: np.ndarray) -> np.ndarray:
        y = self.dataset.labels[batch]
        return (self.dataset.n_classes - 1) - y if self.flip_labels else y

    def compute_update(self, arch: Arch, flat: np.ndarray) -> np.ndarray:
        """Momentum gradient on the next mini-batch (the DSGD submission)."""
        features, labels = self._next_batch()
        loss, grad = loss_and_gradient(arch, flat, features, labels)
        self.last_loss = loss
        effective = grad + self.weight_decay * flat
        if self.momentum_buf is None:
            self.momentum_buf = np.zeros_like(flat)
        self.momentum_buf = self.momentum * self.momentum_buf + effective
        return self.momentum_buf.copy()

    def local_delta(self, arch: Arch, flat: np.ndarray, lr: float, local_steps: int) -> np.ndarray:
        """Model delta after local SGD steps from the broadcast parameters.

        The local momentum buffer starts fresh each round, so one local step
        with zero momentum reproduces a plain gradient descent step.
        """
        local = flat.copy()
        buf = np.zeros_like(flat)
        for _ in range(local_steps):
            features, labels = self._next_batch()
            loss, grad = loss_and_gradient(arch, local, features, labels)
            self.last_loss = loss
            buf = self.momentum * buf + (grad + self.weight_decay * local)
            local = local - lr * buf
        return local - flat

    def partition_loss(self, arch: Arch, flat: np.ndarray) -> float:
        """Mean loss over this client's entire partition."""
        features = self.dataset.features[self.indices]
        labels = self._labels(self.indices)
        loss, _ = forward_loss(arch, flat, features, labels)
        return loss


class ByzantineClientGroup:
    """f adversarial participants driven by one attack descriptor.

    Gradient-space attacks are computed from the observed honest matrix and
    emitted as f identical rows. Label flipping instead runs honest-procedure
    clients (built by the caller, one per Byzantine seat) on label-flipped
    partitions, under either training algorithm.
    """

    def __init__(self, f: int, attack: AttackSpec | None, flip_clients: list[HonestClient] | None = None):
        if f < 0:
            raise ValueError(f"f must be nonnegative, got {f}")
        if f > 0 and attack is None:
            raise ValueError("an attack descriptor is required when f > 0")
        if attack is not None and attack.name == "LabelFlipping":
            if f > 0 and (flip_clients is None or len(flip_clients) != f):
                raise ValueError(f"LabelFlipping needs one flip client per Byzantine seat ({f})")
        self.f = f
        self.attack = attack
        self.flip_clients = flip_clients or []

    def gradient_rows(self, honest: np.ndarray, pipeline: Pipeline, arch: Arch, flat: np.ndarray) -> np.ndarray:
        """(f, d) Byzantine submissions for one DSGD step."""
        if self.f == 0:
            return np.zeros((0, honest.shape[1]))
        if self.attack.name == "LabelFlipping":
            return np.stack([c.compute_update(arch, flat) for c in self.flip_clients])
        vector = attack_vector(self.attack, AttackContext(honest, self.f, pipeline))
        return np.tile(vector, (self.f, 1))

    def delta_rows(
        self,
        honest_deltas: np.ndarray,
        pipeline: Pipeline,
        arch: Arch,
        flat: np.ndarray,
        lr: float,
        local_steps: int,
    ) -> np.ndarray:
        """(f, d) Byzantine submissions for one federated averaging round."""
        if self.f == 0:
            return np.zeros((0, honest_deltas.shape[1]))
        if self.attack.name == "LabelFlipping":
            return np.stack([c.local_delta(arch, flat, lr, local_steps) for c in self.flip_clients])
        vector = attack_vector(self.attack, AttackContext(honest_deltas, self.f, pipeline))
        return np.tile(vector, (self.f, 1))


@dataclass
class ServerState:
    """Everything the server owns: model, pipeline, schedule, step counter."""

    arch: Arch
    flat: np.ndarray
    pipeline: Pipeline
    schedule: LrSchedule
    step: int = 0


@dataclass
class FedAvgParams:
    """Client sampling fraction and local steps per sampled client."""

    proportion: float
    local_steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.proportion <= 1.0:
            raise ValueError(f"proportion must lie in (0, 1], got {self.proportion}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")


def dsgd_step(server: ServerState, clients: list[HonestClient], byz: ByzantineClientGroup) -> None:
    """One synchronous distributed-SGD step; mutates the server in place."""
    honest = np.stack([c.compute_update(server.arch, server.flat) for c in clients])
    byz_rows = byz.gradient_rows(honest, server.pipeline, server.arch, server.flat)
    stacked = np.vstack([honest, byz_rows]) if len(byz_rows) else honest
    aggregate = server.pipeline(stacked)
    server.flat = server.flat - server.schedule.lr_at(server.step) * aggregate
    server.step += 1


def fedavg_round(
    server: ServerState,
    clients: list[HonestClient],
    byz: ByzantineClientGroup,
    params: FedAvgParams,
    sampling_rng: np.random.Generator,
) -> None:
    """One federated averaging round; mutates the server in place.

    ceil(proportion * n) honest clients are sampled without replacement and
    their deltas aggregated together with the Byzantine rows; the aggregate
    delta is added to the model.
    """
    n = len(clients)
    k = math.ceil(params.proportion * n)
    chosen = np.sort(sampling_rng.choice(n, size=k, replace=False))
    lr = server.schedule.lr_at(server.step)
    deltas = np.stack([clients[i].local_delta(server.arch, server.flat, lr, params.local_steps) for i in chosen])
    byz_rows = byz.delta_rows(deltas, server.pipeline, server.arch, server.flat, lr, params.local_steps)
    stacked = np.vstack([deltas, byz_rows]) if len(byz_rows) else deltas
    aggregate = server.pipeline(stacked)
    server.flat = server.flat + aggregate
    server.step += 1


def evaluate_accuracy(arch: Arch, flat: np.ndarray, dataset: LabeledDataset) -> float:
    """Fraction of samples whose argmax logit matches the label (argmax ties
    go to the lowest class id)."""
    predictions = logits(arch, flat, dataset.features).argmax(axis=1)
    return float((predictions == dataset.labels).mean())
