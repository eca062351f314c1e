"""Pre-aggregation transforms applied to client vectors before a robust rule.

Each transform maps an (n, d) matrix to a new matrix (possibly with fewer
rows) and never mutates its input. A ``Pipeline`` folds an ordered list of
transforms and finishes with one aggregation rule.
"""

from __future__ import annotations

import copy
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .aggregators import AGGREGATORS, AggregatorSpec, ConfiguredAggregator, Param, Rule, StageSpec, make_aggregator
from .datadist import POSITIVE, at_least
from .numerics import OverCopies, SortedColumns, as_vector_set, block_rows, check_f, pairwise_sq_dists_with_copies
# NNM passes the matrix it has checked; perfbench's tracer patches the kernel under this name.
from .numerics import trusted_pairwise_sq_dists as pairwise_sq_dists

DEFAULT_BUCKET_SIZE = 2


@dataclass
class NeighbourMeans:
    """What the pipeline calls of one attack search share. Every input of the
    search holds the same first ``fixed`` rows (the honest rows every
    candidate repeats, checked by the search) over copies of one vector.

    ``block`` is the distance matrix of the fixed rows, computed on the first
    call; ``sq_dists`` extends it to each input in O(n d). ``rows`` maps the
    bytes of a neighbour list whose indices are all below ``fixed`` to its
    mean; ``nnm`` serves and fills it only for such lists, so a mean
    involving another row is never reused.

    ``window`` is set by the pipeline on each call (``window_for``): the sorted
    slice its last stage keeps, when that stage is a sorted-slice rule fed by
    at most one stage, else None. With a window, an input whose fixed rows
    reach the last stage as one fixed block (there is no other stage, or
    every fixed row's NNM list stays inside the fixed rows) reaches it as
    ``OverCopies``: that block sorted once (``sorted_block`` keeps the one
    for the last set of lists) over the copies' one row."""

    fixed: int
    block: np.ndarray | None = None
    rows: dict[bytes, np.ndarray] = field(default_factory=dict)
    window: tuple[int, int] | None = None
    sorted_block: tuple[tuple, SortedColumns] | None = None

    def sq_dists(self, xs: np.ndarray) -> np.ndarray:
        """``pairwise_sq_dists(xs)``, bit for bit, for a checked input of the search."""
        honest = xs[: self.fixed]
        if self.block is None:
            self.block = pairwise_sq_dists(honest)
        return pairwise_sq_dists_with_copies(self.block, honest, xs[self.fixed], len(xs) - self.fixed)

    def window_for(self, rule: ConfiguredAggregator, xs: np.ndarray) -> tuple[int, int] | None:
        """The sorted positions ``rule`` keeps of the rows of ``xs``, when it is
        a sorted-slice rule whose slice lies past the copies and inside the
        fixed rows, and rows have two coordinates or more (numpy sums a lone
        column pairwise, ``SortedColumns`` in order)."""
        window = AGGREGATORS[rule.spec.name].window
        lo, hi = window(len(xs), rule.spec.f) if window and xs.shape[1] > 1 else (0, 0)
        return (lo, hi) if len(xs) - self.fixed <= lo < hi <= self.fixed else None

    def checked(self, xs: np.ndarray) -> np.ndarray:
        """``xs`` once ``as_vector_set`` passes its rows past the fixed ones."""
        as_vector_set(xs[self.fixed :])
        return xs

    def mean(self, xs: np.ndarray, near: np.ndarray) -> np.ndarray:
        """The mean of the fixed rows ``near`` of ``xs``, summed on first use."""
        key = near.tobytes()
        if key not in self.rows:
            self.rows[key] = _neighbour_mean(xs, near, np.empty(xs.shape[1]))
        return self.rows[key]

    def merges(self, neighbours: np.ndarray) -> bool:
        """Whether NNM output with these neighbour lists goes on as ``OverCopies``."""
        fixed = self.fixed
        return (self.window is not None and neighbours[:fixed].max() < fixed
                and bool((neighbours[fixed:] == neighbours[fixed]).all()))

    def over_copies(self, key: bytes, rows: Callable[[], Sequence[np.ndarray]], w: np.ndarray, copies: int):
        """``rows()``, the fixed block for ``key``, over ``copies`` copies of ``w``."""
        key = (key, copies, self.window)
        if self.sorted_block is None or self.sorted_block[0] != key:
            self.sorted_block = None  # free the old block first
            self.sorted_block = (key, SortedColumns(rows(), copies, *self.window))
        return OverCopies(self.sorted_block[1], w)


def _neighbour_mean(xs: np.ndarray, near: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The mean of the rows ``near`` of ``xs`` in ``out``: the first two added,
    the others added in order, then divided by their count (a lone row copied)."""
    if len(near) == 1:
        out[:] = xs[near[0]]
        return out
    np.add(xs[near[0]], xs[near[1]], out=out)
    for j in near[2:]:
        out += xs[j]
    out /= len(near)
    return out


def nnm(xs, f: int, memo: NeighbourMeans | None = None) -> np.ndarray:
    """Replace each row by the mean of its n - f nearest rows (itself included).

    Distance ties are broken toward lower row indices. ``memo``, shared by
    the calls of one search, supplies the distances and serves repeated
    neighbour means.

    When the whole (n, n - f, d) neighbour gather fits in
    ``numerics.BLOCK_ELEMENTS`` entries, or rows have one coordinate, the
    means come from that one gather. Otherwise each output row is summed in
    place (``_neighbour_mean``), the sequential reduction the gather's
    ``mean`` does, with O(d) extra memory per row. The result equals the
    gather's bit for bit except on signed zeros: where every neighbour holds
    -0.0 in a coordinate, the in-place sum keeps -0.0 and the gather gives
    +0.0. Rows with one neighbour list (the f identical attack rows of a
    search always have one) share one sum, and lists within ``memo``'s fixed
    rows are served from it and stored into it. On that in-place path, when
    ``memo.merges`` the lists, the output is ``OverCopies`` (see
    ``NeighbourMeans``) and only the copies' row is summed. Extra memory is
    O(n^2 + n d + BLOCK_ELEMENTS), plus the memo's O(n d).
    """
    xs = as_vector_set(xs) if memo is None else memo.checked(xs)
    n, d = xs.shape
    check_f("NNM", n, f, f + 1, "n > f")
    sq_dists = pairwise_sq_dists(xs) if memo is None else memo.sq_dists(xs)
    neighbours = np.argsort(sq_dists, axis=1, kind="stable")[:, : n - f]
    # numpy reduces a gather of one-coordinate rows pairwise, not in order.
    if d == 1 or block_rows((n - f) * d) >= n:
        return xs[neighbours].mean(axis=1)
    if memo is not None and memo.merges(neighbours):
        lists, w = neighbours[: memo.fixed], _neighbour_mean(xs, neighbours[memo.fixed], np.empty(d))
        return memo.over_copies(lists.tobytes(), lambda: [memo.mean(xs, near) for near in lists], w, n - memo.fixed)
    out = np.empty_like(xs)
    summed: dict[bytes, np.ndarray] = {}
    for row, near in zip(out, neighbours):
        key = near.tobytes()
        if key in summed:
            row[:] = summed[key]
        elif memo is not None and near.max() < memo.fixed:
            row[:] = memo.mean(xs, near)
        else:
            _neighbour_mean(xs, near, row)
        summed.setdefault(key, row)
    return out


def bucketing(xs, s: int = DEFAULT_BUCKET_SIZE, rng: np.random.Generator | None = None) -> np.ndarray:
    """Shuffle rows and average them in consecutive buckets of size s.

    Produces ceil(n / s) rows; the last bucket may be smaller. The shuffle is
    drawn from ``rng``, so repeated calls on the same instance see fresh
    permutations of the same seeded stream.
    """
    xs = as_vector_set(xs)
    n = len(xs)
    at_least(1).check(s, "bucket size")
    if rng is None:
        raise ValueError("bucketing requires a seeded numpy Generator")
    perm = rng.permutation(n)
    buckets = math.ceil(n / s)
    return np.stack([xs[perm[b * s : (b + 1) * s]].mean(axis=0) for b in range(buckets)])


def static_clipping(xs, c: float) -> np.ndarray:
    """Rescale every row with norm above c onto the radius-c sphere.

    Rows already inside the ball (including exact zeros) pass through
    unchanged, so directions are always preserved.
    """
    xs = as_vector_set(xs)
    POSITIVE.check(c, "clipping radius")
    norms = np.linalg.norm(xs, axis=1)
    scale = np.where(norms > c, c / np.where(norms > 0, norms, 1.0), 1.0)
    return xs * scale[:, None]


def arc(xs, f: int) -> np.ndarray:
    """Adaptive clipping: pull the k largest-norm rows down to the (k+1)-th
    largest norm, with k = floor(2 f (n - f) / n).

    Row order is preserved and k = 0 leaves the input unchanged. Norm ties are
    broken toward lower row indices when ranking.
    """
    xs = as_vector_set(xs)
    n = len(xs)
    check_f("ARC", n, f, f + 1, "n > f")
    k = (2 * f * (n - f)) // n
    out = xs.copy()
    if k == 0:
        return out
    norms = np.linalg.norm(xs, axis=1)
    order = np.argsort(-norms, kind="stable")
    cutoff = norms[order[k]]
    heads = order[:k]
    head_norms = norms[heads]
    ratio = np.where(head_norms > 0, cutoff / np.where(head_norms > 0, head_norms, 1.0), 1.0)
    out[heads] = xs[heads] * np.minimum(1.0, ratio)[:, None]
    return out


# --------------------------------------------------------------------------- #
# Config-driven construction
# --------------------------------------------------------------------------- #

PRE_AGGREGATORS: dict[str, Rule] = {
    "NNM": Rule(nnm, needs_f=True),
    "Bucketing": Rule(bucketing, {"s": Param(int, at_least(1))}, carried={"rng": lambda rng: rng}),
    "Clipping": Rule(static_clipping, {"c": Param(float, POSITIVE)}),
    "ARC": Rule(arc, needs_f=True),
}
PRE_AGGREGATOR_NAMES = tuple(PRE_AGGREGATORS)


class PreAggregatorSpec(StageSpec):
    """A pre-aggregation transform, a row of ``PRE_AGGREGATORS``."""

    table = PRE_AGGREGATORS
    family = "pre-aggregator"


class ConfiguredPreAggregator:
    """Callable transform bound to its parameters and to what its row carries
    across calls (Bucketing's shuffle stream, which is ``rng``)."""

    def __init__(self, spec: PreAggregatorSpec, rng: np.random.Generator | None = None):
        rule = PRE_AGGREGATORS[spec.name]
        self.spec = spec
        self.carried = rule.carry(spec.name, rng)
        self.takes_memo = "memo" in inspect.signature(rule.fn).parameters

    def __call__(self, xs, memo: NeighbourMeans | None = None) -> np.ndarray:
        """Apply the transform; ``memo`` reaches only a function that takes one (see ``nnm``)."""
        extra = {"memo": memo} if self.takes_memo else {}
        return PRE_AGGREGATORS[self.spec.name].apply(xs, self.spec.f, self.spec.parameters, **extra, **self.carried)


class Pipeline:
    """Ordered pre-aggregation transforms followed by one aggregation rule.
    ``clone`` deep-copies it (clip memory and shuffle streams included), so
    candidates can be scored without disturbing live state."""

    def __init__(self, pre_aggregators: Sequence[ConfiguredPreAggregator], aggregator: ConfiguredAggregator):
        self.pre_aggregators = list(pre_aggregators)
        self.aggregator = aggregator

    def __call__(self, xs, memo: NeighbourMeans | None = None) -> np.ndarray:
        """Fold the transforms over ``xs`` and aggregate.

        Each stage checks its own input, so the pipeline does not, and a stage
        output that overflows is rejected by the next stage. ``memo`` must
        only be shared by calls whose inputs are its fixed rows, already
        checked, over copies of one vector; only the first stage receives it,
        and checks only the copies, and the pipeline sets its ``window``. With
        no transform and a window, the pipeline checks the copies and hands
        the last stage ``OverCopies``. Memory is that of the stages, each
        bounded by ``numerics.BLOCK_ELEMENTS`` on top of its O(n^2 + n d)
        input and output, plus the memo's O(n d).
        """
        if memo is not None:
            memo.window = memo.window_for(self.aggregator, xs) if len(self.pre_aggregators) < 2 else None
            if memo.window and not self.pre_aggregators:
                fixed, w = xs[: memo.fixed], memo.checked(xs)[memo.fixed]
                xs = memo.over_copies(b"", lambda: fixed, w, len(xs) - memo.fixed)
        for pre in self.pre_aggregators:
            xs = pre(xs, memo)
            memo = None
        return self.aggregator(xs)

    def clone(self) -> "Pipeline":
        return copy.deepcopy(self)


def build_pipeline(
    aggregator_spec: AggregatorSpec,
    pre_specs: Sequence[PreAggregatorSpec] = (),
    rng: np.random.Generator | None = None,
) -> Pipeline:
    """Instantiate a pipeline from declarative specs.

    ``rng`` backs the shuffle stream of any Bucketing stages and is only
    required when one is present.
    """
    pres = [ConfiguredPreAggregator(spec, rng) for spec in pre_specs]
    return Pipeline(pres, make_aggregator(aggregator_spec))
