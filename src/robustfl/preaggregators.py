"""Pre-aggregation transforms applied to client vectors before a robust rule.

Each transform maps an (n, d) matrix to a new matrix (possibly with fewer
rows) and never mutates its input. A ``Pipeline`` folds an ordered list of
transforms and finishes with one aggregation rule.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .aggregators import AggregatorSpec, ConfiguredAggregator, make_aggregator
from .numerics import as_vector_set, block_rows, pairwise_sq_dists

PRE_AGGREGATOR_NAMES = ("NNM", "Bucketing", "Clipping", "ARC")

DEFAULT_BUCKET_SIZE = 2


def nnm(xs, f: int, sq_dists: np.ndarray | None = None) -> np.ndarray:
    """Replace each row by the mean of its n - f nearest rows (itself included).

    Distance ties are broken toward lower row indices. ``sq_dists``, when
    given, must equal ``pairwise_sq_dists(xs)`` and saves recomputing it.
    Neighbour rows are gathered in row blocks of at most
    ``numerics.BLOCK_ELEMENTS`` entries (or one row when a row alone is
    larger) rather than one (n, n - f, d) tensor, so the extra memory is
    O(n^2 + n d + max(BLOCK_ELEMENTS, (n - f) d)).
    """
    xs = as_vector_set(xs)
    n, d = xs.shape
    if f < 0:
        raise ValueError(f"NNM requires f >= 0, got f={f}")
    if n <= f:
        raise ValueError(f"NNM requires n > f (got n={n}, f={f})")
    if sq_dists is None:
        sq_dists = pairwise_sq_dists(xs)
    elif sq_dists.shape != (n, n):
        raise ValueError(f"sq_dists must have shape ({n}, {n}), got {sq_dists.shape}")
    neighbours = np.argsort(sq_dists, axis=1, kind="stable")[:, : n - f]
    out = np.empty_like(xs)
    step = block_rows((n - f) * d)
    for lo in range(0, n, step):
        out[lo : lo + step] = xs[neighbours[lo : lo + step]].mean(axis=1)
    return out


def bucketing(xs, s: int = DEFAULT_BUCKET_SIZE, rng: np.random.Generator | None = None) -> np.ndarray:
    """Shuffle rows and average them in consecutive buckets of size s.

    Produces ceil(n / s) rows; the last bucket may be smaller. The shuffle is
    drawn from ``rng``, so repeated calls on the same instance see fresh
    permutations of the same seeded stream.
    """
    xs = as_vector_set(xs)
    n = len(xs)
    if s < 1:
        raise ValueError(f"bucket size must be >= 1, got {s}")
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
    if c <= 0:
        raise ValueError(f"clipping radius must be positive, got {c}")
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
    if f < 0:
        raise ValueError(f"ARC requires f >= 0, got f={f}")
    if n <= f:
        raise ValueError(f"ARC requires n > f (got n={n}, f={f})")
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

_PRE_PARAMS: dict[str, frozenset[str]] = {
    "NNM": frozenset(),
    "Bucketing": frozenset({"s"}),
    "Clipping": frozenset({"c"}),
    "ARC": frozenset(),
}


@dataclass
class PreAggregatorSpec:
    """Declarative description of one pre-aggregation transform."""

    name: str
    f: int = 0
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in PRE_AGGREGATOR_NAMES:
            raise ValueError(
                f"unknown pre-aggregator {self.name!r}; valid transforms: {', '.join(PRE_AGGREGATOR_NAMES)}"
            )
        if self.f < 0:
            raise ValueError(f"f must be nonnegative, got {self.f}")
        unknown = set(self.params) - _PRE_PARAMS[self.name]
        if unknown:
            raise ValueError(f"{self.name} does not accept parameters {sorted(unknown)}")
        if self.name == "Clipping":
            if "c" not in self.params:
                raise ValueError("Clipping requires parameter c")
            if self.params["c"] <= 0:
                raise ValueError(f"Clipping requires c > 0, got {self.params['c']}")
        if self.name == "Bucketing" and self.params.get("s", DEFAULT_BUCKET_SIZE) < 1:
            raise ValueError(f"Bucketing requires s >= 1, got {self.params['s']}")


class ConfiguredPreAggregator:
    """Callable transform bound to its parameters (and shuffle stream)."""

    def __init__(self, spec: PreAggregatorSpec, rng: np.random.Generator | None = None):
        self.spec = spec
        if spec.name == "Bucketing" and rng is None:
            raise ValueError("Bucketing requires a seeded numpy Generator")
        self.rng = rng

    def __call__(self, xs, sq_dists: np.ndarray | None = None) -> np.ndarray:
        """Apply the transform; only NNM reads ``sq_dists`` (see ``nnm``)."""
        name, f, p = self.spec.name, self.spec.f, self.spec.params
        if name == "NNM":
            return nnm(xs, f, sq_dists)
        if name == "Bucketing":
            return bucketing(xs, s=int(p.get("s", DEFAULT_BUCKET_SIZE)), rng=self.rng)
        if name == "Clipping":
            return static_clipping(xs, c=float(p["c"]))
        return arc(xs, f)


class Pipeline:
    """Ordered pre-aggregation transforms followed by one aggregation rule.

    Calling the pipeline folds the transforms left to right and aggregates the
    result. ``clone`` deep-copies the whole pipeline (clip memory and shuffle
    streams included) so candidates can be scored without disturbing live
    state.
    """

    def __init__(self, pre_aggregators: Sequence[ConfiguredPreAggregator], aggregator: ConfiguredAggregator):
        self.pre_aggregators = list(pre_aggregators)
        self.aggregator = aggregator

    def __call__(self, xs, sq_dists: np.ndarray | None = None) -> np.ndarray:
        """Fold the transforms over ``xs`` and aggregate.

        ``sq_dists``, when given, must equal ``pairwise_sq_dists(xs)``. Only
        the first stage receives it (see ``takes_sq_dists``): every later
        stage sees transformed rows and computes its own distances. Memory is
        that of the stages, each bounded by ``numerics.BLOCK_ELEMENTS`` on top
        of its O(n^2 + n d) input and output.
        """
        xs = as_vector_set(xs)
        for pre in self.pre_aggregators:
            xs = pre(xs, sq_dists)
            sq_dists = None
        return self.aggregator(xs)

    @property
    def takes_sq_dists(self) -> bool:
        """Whether the first stage reads a precomputed distance matrix."""
        return bool(self.pre_aggregators) and self.pre_aggregators[0].spec.name == "NNM"

    def clone(self) -> "Pipeline":
        return copy.deepcopy(self)

    def reset(self) -> None:
        self.aggregator.reset()


def build_pipeline(
    aggregator_spec: AggregatorSpec,
    pre_specs: Sequence[PreAggregatorSpec] = (),
    rng: np.random.Generator | None = None,
) -> Pipeline:
    """Instantiate a pipeline from declarative specs.

    ``rng`` backs the shuffle stream of any Bucketing stages and is only
    required when one is present.
    """
    pres = [ConfiguredPreAggregator(spec, rng if spec.name == "Bucketing" else None) for spec in pre_specs]
    return Pipeline(pres, make_aggregator(aggregator_spec))
