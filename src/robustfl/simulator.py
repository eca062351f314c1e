"""Federated training loop with honest clients and a Byzantine group.

Two algorithms are supported. Distributed SGD: every honest client submits a
momentum gradient each step and the server descends along the robust
aggregate. Federated averaging: a sampled subset of clients runs several
local SGD steps and submits its model delta, and the server adds the robust
aggregate of the deltas. In both cases the aggregation input stacks honest
rows first (ordered by client id) followed by f Byzantine rows, in one buffer
per run whose honest rows (and LabelFlipping's seat rows) the clients fill in
place, and the attack the rest. No attack or pipeline stage writes to its
input, which makes that safe. One bank of clients trains every run of a cohort
(the runs that share a seed and data split) at once, each at its own parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .attacks import AttackContext, AttackSpec, OptimizedAttack, crafted
from .config import NONNEGATIVE, at_least
from .datadist import LabeledDataset
from .models import Arch, backward
from .numerics import tile_width, tiles
from .preaggregators import Pipeline


class HonestClient:
    """A cohort's training clients as the rows of one bank: partitions, one batch
    stream (``rngs``) per row, drawn once a step for every run of the cohort.
    The first n = ``len(bank)`` rows are the honest clients; the last ``seats``
    are LabelFlipping's, seat j training on partition j % n with each label y
    swapped for (n_classes - 1) - y, and a run with f such seats trains the first f.

    Row i draws the batches a lone client would: its shuffled order is row i of
    a padded index matrix read from its cursor, and only a row whose epoch ran
    out draws a new permutation. A step takes the batches of every (run, row)
    pair with one fancy index per batch length (a partition shorter than
    ``batch_size`` gives shorter ones) and their gradients, each at its run's
    parameters, in one pass; a pair's rows are bit for bit those of its run alone.
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

    def __len__(self) -> int:
        return len(self.indices) - self.seats

    def _batches(self, rows: np.ndarray, picks=slice(None)) -> list[tuple[np.ndarray | slice, np.ndarray]]:
        """The rows' next mini-batches, each row drawn once, as (positions in ``picks``, (k, length) sample
        indices) per batch length, where ``picks`` are positions in ``rows`` and may repeat. A row whose cursor
        is past its last full batch (a short row's always is) first draws a new permutation."""
        cursors = self._cursors[rows]
        spent = cursors > self._last[rows]
        for i in rows[spent]:
            self._orders[i, : self._sizes[i]] = self._rngs[i].permutation(self.indices[i])
        cursors[spent] = 0
        self._cursors[rows] = cursors + self.batch_size
        rows, cursors = rows[picks], cursors[picks]
        lengths = np.minimum(self._sizes[rows], self.batch_size)
        groups = [slice(None)] if self._full else [np.flatnonzero(lengths == n) for n in np.unique(lengths)]
        return [(g, self._orders[rows[g, None], cursors[g, None] + np.arange(lengths[g][0])]) for g in groups]

    def _momentum_step(self, arch: Arch, params: np.ndarray, bufs: list[np.ndarray], rows: np.ndarray,
                       picks: np.ndarray) -> None:
        """Advance the momentum rows ``bufs`` (a matrix per run, stacked in ``picks`` order) in place by the
        weight-decayed gradients at ``params`` (a row per pick) on the picked rows' next mini-batches, one
        cache-sized column tile at a time (the whole rows when they fit in one)."""
        flipped, batches = self._flipped[rows[picks]], self._batches(rows, picks)
        grads = None if len(batches) == 1 else np.empty((len(flipped), params.shape[1]))
        for group, take in batches:
            part = params if len(params) == 1 else params[group]
            grad = backward(arch, part, self.features[take], self._labels[flipped[group, None], take])[1]
            if grads is None:
                grads = grad
            else:
                grads[group] = grad
        (k, d), starts = grads.shape, np.cumsum([0] + [len(buf) for buf in bufs])
        for run in [slice(None)] if tile_width(k) >= d else tiles(d, k):
            tile = grads[:, run]
            tile += self.weight_decay * params[:, run]
            for buf, lo in zip(bufs, starts):
                tile_buf = buf[:, run]
                tile_buf *= self.momentum
                tile_buf += tile[lo : lo + len(buf)]

    def compute_update(self, arch: Arch, flats: list[np.ndarray], heads: list[np.ndarray]) -> None:
        """Advance in place each run's momentum rows ``heads[r]`` (the DSGD submissions), its n honest rows then
        its first len(heads[r]) - n seats, by the gradients at its ``flats[r]`` on every bank row's next batch."""
        picks = np.concatenate([np.arange(len(head)) for head in heads])
        self._momentum_step(arch, _rows_at(flats, heads), heads, np.arange(len(self._rngs)), picks)

    def local_delta(self, arch: Arch, flats: list[np.ndarray], lr: float, local_steps: int, rows,
                    outs: list[np.ndarray]) -> None:
        """Write into each run's ``outs[r]`` the model deltas of the honest ``rows``, then of its first
        len(outs[r]) - len(rows) seats, after local SGD steps from its parameters ``flats[r]``. The local momentum
        buffers start fresh each round, so one local step with zero momentum is a plain gradient descent step."""
        train = np.concatenate([np.asarray(rows, dtype=np.intp), np.arange(len(self), len(self._rngs))])
        picks = np.concatenate([np.arange(len(out)) for out in outs])
        local = outs[0] if len(outs) == 1 else np.empty((len(picks), flats[0].size))
        local[:] = _rows_at(flats, outs)
        buf = np.zeros_like(local)
        for _ in range(local_steps):
            self._momentum_step(arch, local, [buf], train, picks)
            local -= lr * buf
        for flat, out, lo in zip(flats, outs, np.cumsum([0] + [len(out) for out in outs])):
            np.subtract(local[lo : lo + len(out)], flat, out=out)


def _rows_at(flats: list[np.ndarray], blocks: list[np.ndarray]) -> np.ndarray:
    """``flats[r]`` for each row of ``blocks[r]``: a lone run's vector as one (1, d) row, broadcast, else copies."""
    if len(flats) == 1:
        return flats[0][None]
    return np.repeat(np.stack(flats), [len(block) for block in blocks], axis=0)


class ByzantineClientGroup:
    """f adversarial participants driven by one attack descriptor.

    Gradient-space attacks are computed from the observed honest rows and
    written as f identical rows. LabelFlipping's f clients are instead the
    bank's first f ``seats``, trained with the honest rows under either
    training algorithm, so that their rows are already the step's last f.
    An Optimal_* attack searches on ``cores`` cores.
    """

    def __init__(self, f: int, attack: AttackSpec | None, cores: int = 1):
        NONNEGATIVE.check(f, "f")
        if f > 0 and attack is None:
            raise ValueError("an attack descriptor is required when f > 0")
        self.f = f
        self.attack = attack
        self.seats = f if f > 0 and attack.name == "LabelFlipping" else 0
        self.cores = cores

    def gradient_rows(self, rows: np.ndarray, pipeline: Pipeline) -> OptimizedAttack | None:
        """Write the f Byzantine submissions of one DSGD step or federated averaging round as the last f of its
        (m + f, d) ``rows``, which start with the m honest ones: f copies of the attack vector, or nothing for
        the seats, whose rows are there already. Returns the ``OptimizedAttack`` behind the copies, else None."""
        if self.f == self.seats:
            return None
        found = crafted(self.attack, AttackContext(rows[: len(rows) - self.f], self.f, pipeline, self.cores))
        search = found if isinstance(found, OptimizedAttack) else None
        rows[len(rows) - self.f :] = found.vector if search else found
        return search

    delta_rows = gradient_rows  # one name per training algorithm, each timed by perfbench's tracer


@dataclass
class ServerState:
    """What a run's server owns: its model parameters and its pipeline."""

    flat: np.ndarray
    pipeline: Pipeline

    def __post_init__(self) -> None:
        self.flat = _read_only(self.flat)


def _read_only(flat) -> np.ndarray:
    """A read-only view of ``flat``: each step binds a new parameter vector
    and none is written in place, so an evaluation may hold on to it."""
    view = np.asarray(flat, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def _aggregate_and_apply(server: ServerState, rows: np.ndarray, search, scale: float) -> None:
    """Add ``scale`` times the aggregate of ``rows`` to the model: that of ``search``, which ran the pipeline on
    them, when their attack rows came from one (its pipeline clone, left as the live one would be, goes live)."""
    if search is None:
        aggregate = server.pipeline(rows)
    else:
        aggregate, server.pipeline = search.aggregate, search.pipeline
    server.flat = _read_only(server.flat + scale * aggregate)


def dsgd_step(server: ServerState, rows: np.ndarray, byz: ByzantineClientGroup, lr: float) -> None:
    """One synchronous distributed-SGD step at learning rate ``lr`` on its (n + f, d) ``rows``, the n honest
    momentum gradients first (then the seats'); mutates the server in place."""
    _aggregate_and_apply(server, rows, byz.gradient_rows(rows, server.pipeline), -lr)


def sampled_count(proportion_selected_clients: float, n: int) -> int:
    """How many of n honest clients a federated averaging round samples: ceil(proportion * n), the product
    taken on the proportion's shortest decimal spelling, so 0.55 of 100 clients is 55 (in floats it is
    55.00000000000001)."""
    return math.ceil(Decimal(repr(proportion_selected_clients)) * n)


def fedavg_round(server: ServerState, rows: np.ndarray, byz: ByzantineClientGroup) -> None:
    """One federated averaging round on its (m + f, d) ``rows``, the model deltas of the m sampled honest
    clients first (then the seats'); mutates the server in place by adding the rows' aggregate."""
    _aggregate_and_apply(server, rows, byz.delta_rows(rows, server.pipeline), 1.0)
