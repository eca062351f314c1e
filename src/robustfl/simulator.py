"""Federated training loop with honest clients and a Byzantine group.

Two algorithms are supported. Distributed SGD: every honest client submits a
momentum gradient each step and the server descends along the robust
aggregate. Federated averaging: a sampled subset of clients runs several
local SGD steps and submits its model delta, and the server adds the robust
aggregate of the deltas. In both cases the aggregation input stacks honest
rows first (ordered by client id) followed by f Byzantine rows, in one buffer
whose honest rows (and LabelFlipping's seat rows) the clients fill in place.
No attack or pipeline stage writes to its input, which makes that safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .attacks import AttackContext, AttackSpec, OptimizedAttack, crafted
from .config import NONNEGATIVE, at_least
from .datadist import LabeledDataset
from .models import Arch, LrSchedule, backward
from .numerics import tile_width, tiles
from .preaggregators import Pipeline


class HonestClient:
    """A run's training clients as the rows of one bank: partitions, one batch
    stream (``rngs``) per row and a momentum matrix. The first n = ``len(bank)``
    rows are the honest clients; the last ``seats`` are LabelFlipping's, seat j
    training on partition j % n with each label y swapped for (n_classes - 1) - y.

    Row i draws the batches a lone client would: its shuffled order is row i of
    a padded index matrix read from its cursor, and only a row whose epoch ran
    out draws a new permutation. A step takes the rows' batches with one fancy
    index per batch length (a partition shorter than ``batch_size`` gives
    shorter ones) and their gradients in one pass. The momentum rows, seats
    under the honest rows, head ``step_buf``.
    """

    def __init__(
        self,
        dataset: LabeledDataset,
        partitions: list[np.ndarray],
        batch_size: int,
        momentum: float,
        weight_decay: float,
        rngs: list[np.random.Generator],
        seats: int = 0,
    ):
        at_least(1).check(batch_size, "batch_size")
        if len(rngs) != len(partitions) + seats:
            raise ValueError(f"need one Generator per row ({len(partitions)} + {seats}), got {len(rngs)}")
        self.indices = [np.asarray(rows, dtype=np.int64) for rows in partitions]
        for i, rows in enumerate(self.indices):
            if rows.size == 0:
                raise ValueError(f"client {i} has no samples")
        self.indices += [self.indices[j % len(partitions)] for j in range(seats)]
        self.seats = seats
        self.features = dataset.features
        self._labels = np.stack([dataset.labels, (dataset.n_classes - 1) - dataset.labels])  # by _flipped[row]
        self._flipped = (np.arange(len(rngs)) >= len(partitions)).astype(np.intp)
        self.batch_size = batch_size
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._rngs = rngs
        self._sizes = np.array([len(rows) for rows in self.indices])
        self._last = self._sizes - batch_size  # the last cursor a full batch starts from
        self._full = self._last.min() >= 0  # every row draws batch_size samples
        self._orders = np.zeros((len(rngs), self._sizes.max()), dtype=np.int64)
        for i, (rng, rows) in enumerate(zip(rngs, self.indices)):
            self._orders[i, : len(rows)] = rng.permutation(rows)
        self._cursors = np.zeros(len(rngs), dtype=np.int64)
        self.step_buf: np.ndarray | None = None
        self.momentum_buf: np.ndarray | None = None
        self.seat_rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.indices) - self.seats

    def _batches(self, rows: np.ndarray) -> list[tuple[np.ndarray | slice, np.ndarray]]:
        """The rows' next mini-batches, as (positions in ``rows``, (k, length)
        sample indices) per batch length. A row whose cursor is past its last
        full batch (a short row's always is) first draws a new permutation."""
        cursors = self._cursors[rows]
        spent = cursors > self._last[rows]
        for i in rows[spent]:
            self._orders[i, : self._sizes[i]] = self._rngs[i].permutation(self.indices[i])
        cursors[spent] = 0
        self._cursors[rows] = cursors + self.batch_size
        lengths = np.minimum(self._sizes[rows], self.batch_size)
        groups = [slice(None)] if self._full else [np.flatnonzero(lengths == n) for n in np.unique(lengths)]
        return [(g, self._orders[rows[g, None], cursors[g, None] + np.arange(lengths[g][0])]) for g in groups]

    def _momentum_step(self, arch: Arch, params: np.ndarray, buf: np.ndarray, rows: np.ndarray) -> None:
        """Advance ``buf`` in place by the weight-decayed gradients at ``params``
        (one vector, or one row per client) on the rows' next mini-batches, one
        cache-sized column tile at a time (the whole rows when they fit in one)."""
        flipped, batches = self._flipped[rows], self._batches(rows)
        grads = None if len(batches) == 1 else np.empty((len(rows), params.shape[-1]))
        for group, take in batches:
            part = params if params.ndim == 1 else params[group]
            grad = backward(arch, part, self.features[take], self._labels[flipped[group, None], take])[1]
            if grads is None:
                grads = grad
            else:
                grads[group] = grad
        k, d = grads.shape
        for run in [slice(None)] if tile_width(k) >= d else tiles(d, k):
            tile = grads[:, run]
            tile += self.weight_decay * params[..., run]
            tile_buf = buf[:, run]
            tile_buf *= self.momentum
            tile_buf += tile

    def compute_update(self, arch: Arch, flat: np.ndarray, spare: int = 0) -> np.ndarray:
        """(n, d) momentum gradients on every honest row's next mini-batch (the
        DSGD submissions), with the seats' rows, ``seat_rows``, right under them.

        They are the momentum rows themselves, not a copy: the next call
        updates them in place, and no caller may write to them. They head a
        (n + spare, d) ``step_buf`` whose rows past the seats' are free for the
        caller (a new ``spare``, at least ``seats``, moves them to a new buffer).
        """
        n, rows, spare = len(self), len(self._rngs), max(spare, self.seats)
        if self.step_buf is None or len(self.step_buf) != n + spare:
            step_buf = np.zeros((n + spare, flat.size))
            if self.momentum_buf is not None:
                step_buf[:rows] = self.momentum_buf
            self.step_buf, self.momentum_buf = step_buf, step_buf[:rows]
        self._momentum_step(arch, flat, self.momentum_buf, np.arange(rows))
        self.seat_rows = self.momentum_buf[n:]
        return self.momentum_buf[:n]

    def local_delta(self, arch: Arch, flat: np.ndarray, lr: float, local_steps: int, rows,
                    out: np.ndarray | None = None) -> np.ndarray:
        """(len(rows), d) model deltas of the honest ``rows`` after local SGD
        steps from the broadcast parameters, in ``out`` when given, followed by
        the seats' deltas, ``seat_rows``, trained in the same steps.

        The local momentum buffers start fresh each round, so one local step
        with zero momentum reproduces a plain gradient descent step.
        """
        train = np.concatenate([np.asarray(rows, dtype=np.intp), np.arange(len(self), len(self._rngs))])
        local = np.empty((len(train), flat.size)) if out is None else out
        local[:] = flat
        buf = np.zeros_like(local)
        for _ in range(local_steps):
            self._momentum_step(arch, local, buf, train)
            local -= lr * buf
        local -= flat
        self.seat_rows = local[len(rows):]
        return local[: len(rows)]


class ByzantineClientGroup:
    """f adversarial participants driven by one attack descriptor.

    Gradient-space attacks are computed from the observed honest matrix and
    emitted as f identical rows. LabelFlipping's f clients are instead the
    ``seats`` of the ``bank``, trained with its honest rows under either
    training algorithm, and their rows are its ``seat_rows``. An Optimal_* attack searches on ``cores`` cores;
    ``search`` is the ``OptimizedAttack`` behind its last rows, else None.
    """

    def __init__(self, f: int, attack: AttackSpec | None, bank: HonestClient | None = None, cores: int = 1):
        NONNEGATIVE.check(f, "f")
        if f > 0 and attack is None:
            raise ValueError("an attack descriptor is required when f > 0")
        if f > 0 and attack.name == "LabelFlipping" and getattr(bank, "seats", 0) != f:
            raise ValueError(f"LabelFlipping needs a bank with one seat per Byzantine client ({f})")
        self.f = f
        self.attack = attack
        self.bank = bank
        self.cores = cores
        self.search: OptimizedAttack | None = None

    def gradient_rows(self, honest: np.ndarray, pipeline: Pipeline) -> np.ndarray:
        """(f, d) Byzantine submissions for one DSGD step or federated averaging
        round: the bank's ``seat_rows``, or f copies of the attack vector."""
        if self.f == 0:
            return np.zeros((0, honest.shape[1]))
        if self.attack.name == "LabelFlipping":
            return self.bank.seat_rows
        found = crafted(self.attack, AttackContext(honest, self.f, pipeline, self.cores))
        self.search = found if isinstance(found, OptimizedAttack) else None
        return np.tile(found.vector if self.search else found, (self.f, 1))

    delta_rows = gradient_rows  # one name per training algorithm, each timed by perfbench's tracer


@dataclass
class ServerState:
    """Everything the server owns: model, pipeline, schedule, step counter."""

    arch: Arch
    flat: np.ndarray
    pipeline: Pipeline
    schedule: LrSchedule
    step: int = 0

    def __post_init__(self) -> None:
        self.flat = _read_only(self.flat)


def _read_only(flat) -> np.ndarray:
    """A read-only view of ``flat``: each step binds a new parameter vector
    and none is written in place, so an evaluation may hold on to it."""
    view = np.asarray(flat, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def _aggregate_and_apply(server: ServerState, rows: np.ndarray, byz_rows: np.ndarray, search, scale: float) -> None:
    """Write ``byz_rows`` as the last rows of ``rows`` (numpy skips seat rows, already there), and add
    ``scale`` times the aggregate of all of them to the model: that of ``search``, which ran the pipeline
    on them, when they came from one (its pipeline clone, left as the live one would be, goes live)."""
    rows[len(rows) - len(byz_rows) :] = byz_rows
    if search is None:
        aggregate = server.pipeline(rows)
    else:
        aggregate, server.pipeline = search.aggregate, search.pipeline
    server.flat = _read_only(server.flat + scale * aggregate)
    server.step += 1


def dsgd_step(server: ServerState, clients: HonestClient, byz: ByzantineClientGroup) -> None:
    """One synchronous distributed-SGD step; mutates the server in place."""
    honest = clients.compute_update(server.arch, server.flat, byz.f)
    byz_rows = byz.gradient_rows(honest, server.pipeline)
    _aggregate_and_apply(server, clients.step_buf, byz_rows, byz.search, -server.schedule.lr_at(server.step))


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
    deltas = clients.local_delta(server.arch, server.flat, lr, local_steps_per_client, chosen,
                                 rows[: len(chosen) + clients.seats])
    byz_rows = byz.delta_rows(deltas, server.pipeline)
    _aggregate_and_apply(server, rows, byz_rows, byz.search, 1.0)
