"""Federated training loop with honest clients and a Byzantine group.

Two algorithms are supported. Distributed SGD: every honest client submits a
momentum gradient each step and the server descends along the robust
aggregate. Federated averaging: a sampled subset of clients runs several
local SGD steps and submits its model delta, and the server adds the robust
aggregate of the deltas. In both cases the aggregation input stacks honest
rows first (ordered by client id) followed by f Byzantine rows, in one buffer
whose first rows the honest clients fill in place. No attack and no stage of
the pipeline writes to its input, which is what makes that safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

import numpy as np

from .attacks import AttackContext, AttackSpec, attack_vector
from .config import NONNEGATIVE, at_least
from .datadist import LabeledDataset
from .models import Arch, LrSchedule, logits, loss_and_gradient
from .numerics import tiles
from .preaggregators import Pipeline


class HonestClient:
    """A run's honest clients as the rows of one bank: partitions, one batch
    stream per row and an (n, d) momentum matrix.

    Row i keeps its own Generator, shuffled order and cursor, so it draws
    exactly the batches a lone client would. A step stacks the rows' batches
    into one block per batch length (a partition shorter than ``batch_size``
    gives shorter batches) and takes their gradients in one pass. The
    momentum rows are the first n rows of the (n + spare, d) ``step_buf``.
    ``flip_labels`` swaps every label y for (n_classes - 1) - y, which is how
    the data-poisoning Byzantine clients reuse this class.
    """

    def __init__(
        self,
        dataset: LabeledDataset,
        partitions: list[np.ndarray],
        batch_size: int,
        momentum: float,
        weight_decay: float,
        rngs: list[np.random.Generator],
        flip_labels: bool = False,
    ):
        at_least(1).check(batch_size, "batch_size")
        self.indices = [np.asarray(rows, dtype=np.int64) for rows in partitions]
        for i, rows in enumerate(self.indices):
            if rows.size == 0:
                raise ValueError(f"client {i} has no samples")
        self.features = dataset.features
        self.labels = (dataset.n_classes - 1) - dataset.labels if flip_labels else dataset.labels
        self.batch_size = batch_size
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._rngs = rngs
        self._orders = [rng.permutation(rows) for rng, rows in zip(rngs, self.indices)]
        self._cursors = [0] * len(self.indices)
        self.step_buf: np.ndarray | None = None
        self.momentum_buf: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.indices)

    def _next_batch(self, i: int) -> np.ndarray:
        """Row i's next mini-batch of sample indices."""
        order, cursor = self._orders[i], self._cursors[i]
        if cursor + self.batch_size > len(order):
            order = self._orders[i] = self._rngs[i].permutation(self.indices[i])
            cursor = 0
        self._cursors[i] = cursor + min(self.batch_size, len(order))
        return order[cursor : self._cursors[i]]

    def _gradients(self, arch: Arch, params: np.ndarray, rows) -> np.ndarray:
        """(len(rows), d) gradients on the rows' next mini-batches at ``params``,
        one vector or one row per client."""
        batches = [self._next_batch(i) for i in rows]
        lengths = np.array([len(batch) for batch in batches])
        if (lengths == lengths[0]).all():
            return self._stacked_gradient(arch, params, batches)
        grads = np.empty((len(batches), params.shape[-1]))
        for length in np.unique(lengths):
            group = np.flatnonzero(lengths == length)
            part = params if params.ndim == 1 else params[group]
            grads[group] = self._stacked_gradient(arch, part, [batches[j] for j in group])
        return grads

    def _stacked_gradient(self, arch: Arch, params: np.ndarray, batches: list[np.ndarray]) -> np.ndarray:
        take = np.stack(batches)
        return loss_and_gradient(arch, params, self.features[take], self.labels[take])[1]

    def _momentum_step(self, arch: Arch, params: np.ndarray, buf: np.ndarray, rows) -> None:
        """Advance ``buf`` in place by the weight-decayed gradients at ``params``
        on the rows' next mini-batches, one cache-sized column tile at a time."""
        grads = self._gradients(arch, params, rows)
        for run in tiles(grads.shape[1], len(grads)):
            tile = grads[:, run]
            tile += self.weight_decay * params[..., run]
            tile_buf = buf[:, run]
            tile_buf *= self.momentum
            tile_buf += tile

    def compute_update(self, arch: Arch, flat: np.ndarray, spare: int = 0) -> np.ndarray:
        """(n, d) momentum gradients on every row's next mini-batch (the DSGD submissions).

        They are the momentum rows themselves, not a copy: the next call
        updates them in place, and no caller may write to them. They head a
        (n + spare, d) ``step_buf`` whose last ``spare`` rows are free for the
        caller (a new ``spare`` moves the momentum rows to a new buffer).
        """
        n = len(self)
        if self.step_buf is None or len(self.step_buf) != n + spare:
            step_buf = np.zeros((n + spare, flat.size))
            if self.momentum_buf is not None:
                step_buf[:n] = self.momentum_buf
            self.step_buf, self.momentum_buf = step_buf, step_buf[:n]
        self._momentum_step(arch, flat, self.momentum_buf, range(n))
        return self.momentum_buf

    def local_delta(self, arch: Arch, flat: np.ndarray, lr: float, local_steps: int, rows,
                    out: np.ndarray | None = None) -> np.ndarray:
        """(len(rows), d) model deltas after local SGD steps from the broadcast
        parameters, computed in ``out`` when given.

        The local momentum buffers start fresh each round, so one local step
        with zero momentum reproduces a plain gradient descent step.
        """
        local = np.empty((len(rows), flat.size)) if out is None else out
        local[:] = flat
        buf = np.zeros_like(local)
        for _ in range(local_steps):
            self._momentum_step(arch, local, buf, rows)
            local -= lr * buf
        local -= flat
        return local


class ByzantineClientGroup:
    """f adversarial participants driven by one attack descriptor.

    Gradient-space attacks are computed from the observed honest matrix and
    emitted as f identical rows. Label flipping instead runs a bank of
    honest-procedure clients (built by the caller, one row per Byzantine
    seat) on label-flipped partitions, under either training algorithm.
    """

    def __init__(self, f: int, attack: AttackSpec | None, flip_clients: HonestClient | None = None):
        NONNEGATIVE.check(f, "f")
        if f > 0 and attack is None:
            raise ValueError("an attack descriptor is required when f > 0")
        if f > 0 and attack.name == "LabelFlipping" and len(flip_clients or []) != f:
            raise ValueError(f"LabelFlipping needs one flip client per Byzantine seat ({f})")
        self.f = f
        self.attack = attack
        self.flip_clients = flip_clients

    def _rows(self, honest: np.ndarray, pipeline: Pipeline, flipped: Callable[[], np.ndarray]) -> np.ndarray:
        """(f, d) Byzantine rows: the flip bank's ``flipped`` rows, or f copies of the attack vector."""
        if self.f == 0:
            return np.zeros((0, honest.shape[1]))
        if self.attack.name == "LabelFlipping":
            return flipped()
        return np.tile(attack_vector(self.attack, AttackContext(honest, self.f, pipeline)), (self.f, 1))

    def gradient_rows(self, honest: np.ndarray, pipeline: Pipeline, arch: Arch, flat: np.ndarray) -> np.ndarray:
        """(f, d) Byzantine submissions for one DSGD step."""
        return self._rows(honest, pipeline, lambda: self.flip_clients.compute_update(arch, flat))

    def delta_rows(
        self, honest_deltas: np.ndarray, pipeline: Pipeline, arch: Arch, flat: np.ndarray, lr: float, local_steps: int
    ) -> np.ndarray:
        """(f, d) Byzantine submissions for one federated averaging round."""
        return self._rows(honest_deltas, pipeline,
                          lambda: self.flip_clients.local_delta(arch, flat, lr, local_steps, range(self.f)))


@dataclass
class ServerState:
    """Everything the server owns: model, pipeline, schedule, step counter."""

    arch: Arch
    flat: np.ndarray
    pipeline: Pipeline
    schedule: LrSchedule
    step: int = 0


def _aggregate_and_apply(server: ServerState, rows: np.ndarray, byz_rows: np.ndarray, scale: float) -> None:
    """Write ``byz_rows`` as the last rows of ``rows``, under the honest rows,
    and add ``scale`` times the aggregate of all of them to the model."""
    rows[len(rows) - len(byz_rows) :] = byz_rows
    server.flat = server.flat + scale * server.pipeline(rows)
    server.step += 1


def dsgd_step(server: ServerState, clients: HonestClient, byz: ByzantineClientGroup) -> None:
    """One synchronous distributed-SGD step; mutates the server in place."""
    honest = clients.compute_update(server.arch, server.flat, byz.f)
    byz_rows = byz.gradient_rows(honest, server.pipeline, server.arch, server.flat)
    _aggregate_and_apply(server, clients.step_buf, byz_rows, -server.schedule.lr_at(server.step))


def sampled_count(proportion_selected_clients: float, n: int) -> int:
    """How many of n honest clients a federated averaging round samples."""
    return math.ceil(Decimal(repr(proportion_selected_clients)) * n)


def fedavg_round(
    server: ServerState,
    clients: HonestClient,
    byz: ByzantineClientGroup,
    proportion_selected_clients: float,
    local_steps_per_client: int,
    sampling_rng: np.random.Generator,
) -> None:
    """One federated averaging round; mutates the server in place.

    ceil(proportion_selected_clients * n) honest clients are sampled without
    replacement, each runs local_steps_per_client local SGD steps, and the
    aggregate of their deltas and the Byzantine rows is added to the model.
    The product is taken on the proportion's shortest decimal spelling, so
    0.55 of 100 clients is 55 (in floats it is 55.00000000000001).
    """
    n = len(clients)
    chosen = np.sort(sampling_rng.choice(n, size=sampled_count(proportion_selected_clients, n), replace=False))
    lr = server.schedule.lr_at(server.step)
    rows = np.empty((len(chosen) + byz.f, server.flat.size))
    deltas = clients.local_delta(server.arch, server.flat, lr, local_steps_per_client, chosen, rows[: len(chosen)])
    byz_rows = byz.delta_rows(deltas, server.pipeline, server.arch, server.flat, lr, local_steps_per_client)
    _aggregate_and_apply(server, rows, byz_rows, 1.0)


def evaluate_accuracy(arch: Arch, flat: np.ndarray, dataset: LabeledDataset) -> float:
    """Fraction of samples whose argmax logit matches the label (argmax ties
    go to the lowest class id)."""
    predictions = logits(arch, flat, dataset.features).argmax(axis=1)
    return float((predictions == dataset.labels).mean())
