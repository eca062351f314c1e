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
from dataclasses import dataclass
from typing import Callable

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

    def _momentum_step(self, arch: Arch, params: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """``buf`` advanced by the weight-decayed gradient at ``params`` on the next mini-batch."""
        features, labels = self._next_batch()
        self.last_loss, grad = loss_and_gradient(arch, params, features, labels)
        return self.momentum * buf + (grad + self.weight_decay * params)

    def compute_update(self, arch: Arch, flat: np.ndarray) -> np.ndarray:
        """Momentum gradient on the next mini-batch (the DSGD submission)."""
        buf = np.zeros_like(flat) if self.momentum_buf is None else self.momentum_buf
        self.momentum_buf = self._momentum_step(arch, flat, buf)
        return self.momentum_buf.copy()

    def local_delta(self, arch: Arch, flat: np.ndarray, lr: float, local_steps: int) -> np.ndarray:
        """Model delta after local SGD steps from the broadcast parameters.

        The local momentum buffer starts fresh each round, so one local step
        with zero momentum reproduces a plain gradient descent step.
        """
        local = flat.copy()
        buf = np.zeros_like(flat)
        for _ in range(local_steps):
            buf = self._momentum_step(arch, local, buf)
            local = local - lr * buf
        return local - flat

    def partition_loss(self, arch: Arch, flat: np.ndarray) -> float:
        """Mean loss over this client's entire partition."""
        return forward_loss(arch, flat, self.dataset.features[self.indices], self._labels(self.indices))[0]


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
        if f > 0 and attack.name == "LabelFlipping" and len(flip_clients or []) != f:
            raise ValueError(f"LabelFlipping needs one flip client per Byzantine seat ({f})")
        self.f = f
        self.attack = attack
        self.flip_clients = flip_clients or []

    def _rows(self, honest: np.ndarray, pipeline: Pipeline, submit: Callable[[HonestClient], np.ndarray]) -> np.ndarray:
        """(f, d) Byzantine rows: each flip client's ``submit``, or f copies of the attack vector."""
        if self.f == 0:
            return np.zeros((0, honest.shape[1]))
        if self.attack.name == "LabelFlipping":
            return np.stack([submit(c) for c in self.flip_clients])
        return np.tile(attack_vector(self.attack, AttackContext(honest, self.f, pipeline)), (self.f, 1))

    def gradient_rows(self, honest: np.ndarray, pipeline: Pipeline, arch: Arch, flat: np.ndarray) -> np.ndarray:
        """(f, d) Byzantine submissions for one DSGD step."""
        return self._rows(honest, pipeline, lambda c: c.compute_update(arch, flat))

    def delta_rows(
        self, honest_deltas: np.ndarray, pipeline: Pipeline, arch: Arch, flat: np.ndarray, lr: float, local_steps: int
    ) -> np.ndarray:
        """(f, d) Byzantine submissions for one federated averaging round."""
        return self._rows(honest_deltas, pipeline, lambda c: c.local_delta(arch, flat, lr, local_steps))


@dataclass
class ServerState:
    """Everything the server owns: model, pipeline, schedule, step counter."""

    arch: Arch
    flat: np.ndarray
    pipeline: Pipeline
    schedule: LrSchedule
    step: int = 0


def _aggregate_and_apply(server: ServerState, honest: np.ndarray, byz_rows: np.ndarray, scale: float) -> None:
    """Add ``scale`` times the aggregate of the honest then the Byzantine rows to the model."""
    stacked = np.vstack([honest, byz_rows]) if len(byz_rows) else honest
    server.flat = server.flat + scale * server.pipeline(stacked)
    server.step += 1


def dsgd_step(server: ServerState, clients: list[HonestClient], byz: ByzantineClientGroup) -> None:
    """One synchronous distributed-SGD step; mutates the server in place."""
    honest = np.stack([c.compute_update(server.arch, server.flat) for c in clients])
    byz_rows = byz.gradient_rows(honest, server.pipeline, server.arch, server.flat)
    _aggregate_and_apply(server, honest, byz_rows, -server.schedule.lr_at(server.step))


def fedavg_round(
    server: ServerState,
    clients: list[HonestClient],
    byz: ByzantineClientGroup,
    proportion_selected_clients: float,
    local_steps_per_client: int,
    sampling_rng: np.random.Generator,
) -> None:
    """One federated averaging round; mutates the server in place.

    ceil(proportion_selected_clients * n) honest clients are sampled without
    replacement, each runs local_steps_per_client local SGD steps, and the
    aggregate of their deltas and the Byzantine rows is added to the model.
    """
    n = len(clients)
    chosen = np.sort(sampling_rng.choice(n, size=math.ceil(proportion_selected_clients * n), replace=False))
    lr = server.schedule.lr_at(server.step)
    deltas = np.stack([clients[i].local_delta(server.arch, server.flat, lr, local_steps_per_client) for i in chosen])
    byz_rows = byz.delta_rows(deltas, server.pipeline, server.arch, server.flat, lr, local_steps_per_client)
    _aggregate_and_apply(server, deltas, byz_rows, 1.0)


def evaluate_accuracy(arch: Arch, flat: np.ndarray, dataset: LabeledDataset) -> float:
    """Fraction of samples whose argmax logit matches the label (argmax ties
    go to the lowest class id)."""
    predictions = logits(arch, flat, dataset.features).argmax(axis=1)
    return float((predictions == dataset.labels).mean())
