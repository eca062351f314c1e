"""Pre-aggregation transforms applied to client vectors before a robust rule.

Each transform maps an (n, d) matrix to a new matrix (possibly with fewer
rows) and never mutates its input. A ``Pipeline`` folds an ordered list of
transforms and finishes with one aggregation rule. A transform reads a
``numerics.OverCopies`` input as the matrix it stands for; NNM uses its shape
as well, and may return one (see ``nnm``).
"""

from __future__ import annotations

import copy
import functools
from typing import Sequence

import numpy as np

from .aggregators import AggregatorSpec, ConfiguredAggregator, Rule, StageSpec, make_aggregator
from .config import POSITIVE, Param, at_least
from .numerics import OverCopies, as_vector_set, block_rows, check_f, gram_sq_dists_with_copy, sq_dists_at
from .numerics import stable_head
# NNM passes the matrix it has checked; perfbench's tracer patches the kernel under this name.
from .numerics import gram_sq_dists as pairwise_sq_dists

DEFAULT_BUCKET_SIZE = 2


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


def _spelled_out(heads: np.ndarray, m: int, copies: int, need: int) -> np.ndarray:
    """``heads``, lists over m rows and one copy m of a row (row m standing for each copy), read over the m
    rows and ``copies`` copies: each m spelled out as m, ..., m + copies - 1, each list cut to ``need``."""
    counts = np.where(heads == m, copies, 1).ravel()
    ends = np.cumsum(counts)
    flat = np.repeat(heads.ravel(), counts) + np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    starts = np.concatenate([[0], ends.reshape(len(heads), -1)[:-1, -1]])
    return flat[starts[:, None] + np.arange(need)][np.minimum(np.arange(m + copies), m)]


def nnm(xs, f: int) -> np.ndarray | OverCopies:
    """Replace each row by the mean of its n - f nearest rows (itself included),
    distance ties going to lower row indices: neighbours come in the stable
    order of the exact kernel's distances.

    The means come from one (n, n - f, d) gather when it fits in
    ``numerics.BLOCK_ELEMENTS`` or rows have one coordinate; otherwise each row
    is summed in place in the gather's order, which gives its bytes but where
    every neighbour holds -0.0 in a coordinate (the in-place sum keeps -0.0, the
    gather gives +0.0). Extra memory is O(n^2 + n d + BLOCK_ELEMENTS).

    An ``OverCopies`` input is not checked again and gives the output of its
    stacked rows; its ``shared`` dict keeps what the fixed rows alone decide. On
    the in-place path, when every fixed row's list stays inside the fixed rows,
    the output is an ``OverCopies`` too.
    """
    over = isinstance(xs, OverCopies)
    m, shared = (xs.fixed, xs.shared) if over else (0, {})
    xs = np.asarray(xs) if over else as_vector_set(xs)
    n, d = xs.shape
    check_f("NNM", n, f, f + 1, "n > f")
    if over:
        if "gram" not in shared:
            shared["gram"] = (*pairwise_sq_dists(xs[:m]), np.einsum("ij,ij->i", xs[:m], xs[:m]))
        exact = functools.partial(sq_dists_at, xs[: m + 1])
        heads = stable_head(*gram_sq_dists_with_copy(shared["gram"], xs[:m], xs[m]), exact, min(m + 1, n - f))
        neighbours = _spelled_out(heads, m, n - m, n - f)
    else:
        neighbours = stable_head(*pairwise_sq_dists(xs), functools.partial(sq_dists_at, xs), n - f)
    # numpy reduces a gather of one-coordinate rows pairwise, not in order.
    if d == 1 or block_rows((n - f) * d) >= n:
        return xs[neighbours].mean(axis=1)
    means = shared.setdefault("means", {})

    def fixed_mean(near: np.ndarray) -> np.ndarray:
        """The mean of the fixed rows ``near``, summed and checked once per dict."""
        key = near.tobytes()
        if key not in means:
            means[key] = as_vector_set(_neighbour_mean(xs, near, np.empty(d))[None])[0]
        return means[key]

    # The copies' distance rows are equal, so they share one neighbour list.
    if over and neighbours[:m].max() < m:
        lists = neighbours[:m].tobytes()
        if shared.get("merged", (None,))[0] != lists:
            shared["merged"] = (lists, {})  # frees the last lists' sorted block before a new one is built
        w = _neighbour_mean(xs, neighbours[m], np.empty(d))
        return OverCopies([fixed_mean(near) for near in neighbours[:m]] + [w] * (n - m), m, shared["merged"][1])
    out = np.empty_like(xs)
    summed: dict[bytes, np.ndarray] = {}
    for row, near in zip(out, neighbours):
        key = near.tobytes()
        if key in summed:
            row[:] = summed[key]
        elif near.max() < m:
            row[:] = fixed_mean(near)
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
    # Each full bucket's rows are summed in order, as its own (s, d) mean would sum them.
    full = n // s * s
    means = xs[perm[:full]].reshape(-1, s, xs.shape[1]).mean(axis=1)
    return np.vstack([means, xs[perm[full:]].mean(axis=0)]) if full < n else means


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
    """Callable transform bound to its keyword arguments and to what its row
    carries across calls (Bucketing's shuffle stream, which is ``rng``)."""

    def __init__(self, spec: PreAggregatorSpec, rng: np.random.Generator | None = None):
        self.spec = spec
        self.carried, self.keywords = PRE_AGGREGATORS[spec.name].keywords(spec, rng)

    def __call__(self, xs) -> np.ndarray:
        """Apply the transform."""
        return PRE_AGGREGATORS[self.spec.name].fn(xs, **self.keywords)


class Pipeline:
    """Ordered pre-aggregation transforms followed by one aggregation rule.
    ``clone`` deep-copies it (clip memory and shuffle streams included), so
    candidates can be scored without disturbing live state."""

    def __init__(self, pre_aggregators: Sequence[ConfiguredPreAggregator], aggregator: ConfiguredAggregator):
        self.pre_aggregators = list(pre_aggregators)
        self.aggregator = aggregator

    def __call__(self, xs) -> np.ndarray:
        """Fold the transforms over ``xs`` and aggregate.

        Each stage checks its own input, so the pipeline does not, and a stage
        output that overflows is rejected by the next stage. Memory is that of
        the stages, each bounded by ``numerics.BLOCK_ELEMENTS`` on top of its
        O(n^2 + n d) input and output.
        """
        for pre in self.pre_aggregators:
            xs = pre(xs)
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
