"""Federated training loop with honest clients and a Byzantine group.

Two algorithms are supported. Distributed SGD: every honest client submits a
momentum gradient each step and the server descends along the robust
aggregate. Federated averaging: a sampled subset of clients runs several
local SGD steps and submits its model delta, and the server adds the robust
aggregate of the deltas. In both cases the aggregation input stacks honest
rows first (ordered by client id) followed by f Byzantine rows, in one buffer
per run whose honest rows (and LabelFlipping's seat rows) the clients fill in
place, and the attack the rest. No attack or pipeline stage writes to its
input, which makes that safe. A cohort (the runs that share a seed and data
split) trains on one bank of clients, and the runs of several cohorts step
their servers in one planned pass (``ServerPass``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .attacks import AttackContext, AttackSpec, OptimizedAttack, crafted
from .config import NONNEGATIVE, at_least
from .datadist import LabeledDataset
from .models import Arch, backward
from .numerics import tiles
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
            grad = backward(arch, part, self.features.take(take, axis=0), self._labels[flipped[group, None], take])[1]
            if grads is None:
                grads = grad
            else:
                grads[group] = grad
        (k, d), starts = grads.shape, np.cumsum([0] + [len(buf) for buf in bufs])
        for run in tiles(d, k):
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
    An Optimal_* attack (``searches``) searches on ``cores`` cores, and its
    rows come with the aggregate the server takes.
    """

    def __init__(self, f: int, attack: AttackSpec | None, cores: int = 1):
        NONNEGATIVE.check(f, "f")
        if f > 0 and attack is None:
            raise ValueError("an attack descriptor is required when f > 0")
        self.f = f
        self.attack = attack
        self.seats = f if f > 0 and attack.name == "LabelFlipping" else 0
        self.searches = f > self.seats and attack.table[attack.name].needs_f
        self.cores = cores

    def gradient_rows(self, honest: np.ndarray, pipeline: Pipeline) -> np.ndarray | OptimizedAttack:
        """The vector one step sends f times for its (m, d) ``honest`` rows, or the ``OptimizedAttack`` behind
        it; a closed-form attack gives one per matrix of an (r, m, d) stack, whatever each run's f."""
        return crafted(self.attack, AttackContext(honest, self.f, pipeline, self.cores))

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


class ServerPass:
    """One server step for every run of ``runs`` (records with a ``server``, a ``byz`` and (m + f, d) ``rows``, the
    m honest first), planned once for as long as the same runs step.

    The plan sorts the runs by row shape, then by the spec keys of their pipeline stages, then by attack, and
    moves the rows of each shape into one C-contiguous stack (a lone run's rows stay), whose views become the
    runs' ``rows``, so the bank writes into it. A stage runs once per group of runs whose keys agree up to it, on
    a slice of the stack or of the last stage's stacked output, at most ``Rule.most_stacked`` runs; a closed-form
    attack runs once per group with equal spec and honest shape, whatever f, on a stacked copy of those rows. A
    search (``ByzantineClientGroup.searches``), a group of one, a stage that carries state or cannot stack, and
    each run of a stacked call that raises go alone through the rest of their stages. Each run gets its lone
    step's bytes: ``scale`` times its aggregate (a search's, whose pipeline clone goes live) added."""

    def __init__(self, runs):
        runs = list(runs)

        def key(i: int) -> tuple:
            """Row shape, stage keys, (attack key, honest rows); a search's, and an unstacking rule's, name the run."""
            run, stages = runs[i], (*runs[i].server.pipeline.pre_aggregators, runs[i].server.pipeline.aggregator)
            keyed = lambda spec: (spec.key, i) if run.byz.searches or not spec.table[spec.name].stacks else (spec.key,)
            attack = (keyed(run.byz.attack), len(run.rows) - run.byz.f) if run.byz.f > run.byz.seats else ()
            return run.rows.shape, tuple(keyed(stage.spec) for stage in stages), attack

        keys = [key(i) for i in range(len(runs))]
        order = sorted(range(len(runs)), key=keys.__getitem__)
        self.rank = sorted(range(len(runs)), key=order.__getitem__)  # each run's position in the plan
        self.runs, keys = [runs[i] for i in order], [keys[i] for i in order]  # in plan order
        self.flats = np.array([run.server.flat for run in self.runs])
        stages = [[*run.server.pipeline.pre_aggregators, run.server.pipeline.aggregator] for run in self.runs]
        stacked = []  # each position's rows on, in its shape's stack
        for shape, same in itertools.groupby(range(len(runs)), key=lambda pos: keys[pos][0]):
            same = list(same)
            stack = np.empty((len(same), *shape)) if len(same) > 1 else self.runs[same[0]].rows[None]
            for j, pos in enumerate(same):
                if len(same) > 1:
                    stack[j], self.runs[pos].rows = self.runs[pos].rows, stack[j]
                stacked.append(stack[j:])

        def groups(positions, key_of, spec_of, shape_of) -> list[list[int]]:
            """``positions`` cut where ``key_of`` changes, then into at most ``most_stacked`` of the piece's rule."""
            out = []
            for _, same in itertools.groupby(positions, key=key_of):
                same = list(same)
                spec = spec_of(same[0])
                most = spec.table[spec.name].most_stacked(*shape_of(same[0]))
                out += [same[k : k + most] for k in range(0, len(same), most)]
            return out

        def plan(positions: list[int], depth: int) -> list[tuple]:
            """(stage, or None where each run goes alone, positions, depth, next groups) per group at ``depth``."""
            return [(stages[same[0]][depth] if len(same) > 1 else None, same, depth,
                     plan(same, depth + 1) if len(same) > 1 and depth + 1 < len(stages[same[0]]) else [])
                    for same in groups(positions, lambda pos: (keys[pos][0], keys[pos][1][depth]),
                                       lambda pos: stages[pos][depth].spec, lambda pos: keys[pos][0])]

        self.groups = [(group, stacked[group[1][0]][: len(group[1])] if group[0] else [self.runs[group[1][0]].rows])
                       for group in plan(list(range(len(runs))), 0)]
        self.honest = [run.rows[: len(run.rows) - run.byz.f] for run in self.runs]  # and below, the attack rows
        self.crafted = [run.rows[len(run.rows) - run.byz.f :] for run in self.runs]
        self.attacks = groups(sorted((pos for pos in range(len(runs)) if keys[pos][2]), key=lambda pos: keys[pos][2]),
                              lambda pos: keys[pos][2], lambda pos: self.runs[pos].byz.attack,
                              lambda pos: (keys[pos][2][1], self.flats.shape[1]))

    def _descend(self, group: tuple, xs, errors: list, searches: dict, parts: list) -> None:
        """``group``'s stage on ``xs``, its runs' inputs, then each next group on its slice of the output; the
        aggregates go to ``parts`` in plan order, a stack per stacked call, a row per run that went alone."""
        stage, positions, depth, children = group
        try:
            out = stage(xs) if stage else None
        except Exception:  # noqa: BLE001 - the stack's check names no run: each goes alone
            out = None
        if out is None:
            for pos, x in zip(positions, xs):
                pipeline = self.runs[pos].server.pipeline  # a search's is its clone of the last step
                try:
                    if pos in searches:
                        x = searches[pos].aggregate
                    elif errors[pos] is None:
                        for stage in [*pipeline.pre_aggregators, pipeline.aggregator][depth:]:
                            x = stage(x)
                except Exception as exc:  # noqa: BLE001 - it ends the step of the run it was called for
                    errors[pos] = exc
                parts.append(x[None] if errors[pos] is None else np.zeros((1, self.flats.shape[1])))
        elif children:
            for child in children:
                self._descend(child, out[child[1][0] - positions[0] :][: len(child[1])], errors, searches, parts)
        else:
            parts.append(out)

    def __call__(self, scale: float, attack: str) -> list[Exception | None]:
        """One step with f attack rows from ``byz.<attack>``; returns per run None or what ended its step."""
        errors: list[Exception | None] = [None] * len(self.runs)
        searches: dict[int, OptimizedAttack] = {}
        for same in self.attacks:
            first, vectors = self.runs[same[0]], [None] * len(same)
            try:
                if len(same) > 1:
                    vectors = getattr(first.byz, attack)(np.array([self.honest[pos] for pos in same]),
                                                         first.server.pipeline)
            except Exception:  # noqa: BLE001 - the stack's check names no run: each goes alone
                pass
            for pos, vector in zip(same, vectors):
                run = self.runs[pos]
                try:
                    if vector is None:
                        vector = getattr(run.byz, attack)(self.honest[pos], run.server.pipeline)
                except Exception as exc:  # noqa: BLE001 - it ends the step of the run it was called for
                    errors[pos] = exc
                    continue
                if isinstance(vector, OptimizedAttack):
                    searches[pos], vector = vector, vector.vector
                self.crafted[pos][...] = vector
        parts: list[np.ndarray] = []
        for group, xs in self.groups:
            self._descend(group, xs, errors, searches, parts)
        flats = self.flats + scale * (np.concatenate(parts) if len(parts) > 1 else parts[0])
        flats.flags.writeable = False  # each run's row of it is its read-only parameter vector
        for pos, flat in enumerate(flats):
            if errors[pos] is None:
                self.runs[pos].server.flat = flat
                if pos in searches:
                    self.runs[pos].server.pipeline = searches[pos].pipeline
        self.flats = flats
        return [errors[pos] for pos in self.rank]


def dsgd_step(runs, lr: float) -> list[Exception | None]:
    """One synchronous distributed-SGD step at learning rate ``lr`` per run of ``runs`` (see ``ServerPass``),
    whose rows hold the n honest momentum gradients first (then the seats')."""
    return (runs if isinstance(runs, ServerPass) else ServerPass(runs))(-lr, "gradient_rows")


def sampled_count(proportion_selected_clients: float, n: int) -> int:
    """How many of n honest clients a federated averaging round samples: ceil(proportion * n), the product
    taken on the proportion's shortest decimal spelling, so 0.55 of 100 clients is 55 (in floats it is
    55.00000000000001)."""
    return math.ceil(Decimal(repr(proportion_selected_clients)) * n)


def fedavg_round(runs) -> list[Exception | None]:
    """One federated averaging round per run of ``runs`` (see ``ServerPass``), whose rows hold the model deltas
    of the m sampled honest clients first (then the seats')."""
    return (runs if isinstance(runs, ServerPass) else ServerPass(runs))(1.0, "delta_rows")
