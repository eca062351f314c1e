"""Robust aggregation rules mapping a set of client vectors to one vector.

Every rule takes an (n, d) matrix with one client update per row and returns a
length-d vector. ``f`` is the number of faulty rows the rule is asked to
withstand; each rule raises ``ValueError`` naming the violated inequality when
(n, f) is infeasible. Ties are always broken toward lower row indices (or the
lexicographically smallest index subset) so results are reproducible.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping

import numpy as np

from .config import NONNEGATIVE, POSITIVE, Param, at_least
from .numerics import OverCopies, as_vector_set, check_f, columnwise, slice_means, sorted_slice_means
from .numerics import stable_head, tiles, trusted_pairwise_sq_dists
# The rules pass the matrix they have checked; perfbench's tracer patches the kernels under these names.
from .numerics import gram_sq_dists as pairwise_sq_dists
from .numerics import trusted_top_eigenpair as top_eigenpair

# Exhaustive subset rules (MDA, SMEA) enumerate C(n, n - f) candidates and
# refuse inputs beyond this many rows.
SUBSET_ENUMERATION_LIMIT = 25

WEISZFELD_MAX_STEPS = 100
WEISZFELD_STEP_RTOL = 1e-8
WEISZFELD_EPS = 1e-12

SPECTRAL_FILTER_MAX_STEPS = 50
SPECTRAL_FILTER_EIGENVALUE_FLOOR = 1e-12

DEFAULT_CLIP_RADIUS = 100.0
DEFAULT_CLIP_STEPS = 1


def average(xs) -> np.ndarray:
    """Coordinate-wise mean of all rows."""
    return as_vector_set(xs).mean(axis=0)


def _median_window(n: int, f: int = 0) -> tuple[int, int]:
    """Sorted positions of the one or two central values of n."""
    return (n - 1) // 2, n // 2 + 1


def median(xs) -> np.ndarray:
    """Coordinate-wise median (midpoint of the two central values for even n),
    ``np.median(xs, axis=0)`` bit for bit: where the mean of the central
    values is zero, its sign rests on the sort, and ``np.median`` decides it."""
    xs = as_vector_set(xs)
    out = sorted_slice_means(xs, *_median_window(len(xs)))
    zero = np.flatnonzero(out == 0)
    if zero.size:
        out[zero] = np.median(xs[:, zero], axis=0)
    return out


def trmean(xs, f: int) -> np.ndarray:
    """Trimmed mean: drop the f smallest and f largest values per coordinate,
    ``np.sort(xs, axis=0)[f : n - f].mean(axis=0)`` bit for bit."""
    xs = as_vector_set(xs)
    n = len(xs)
    check_f("TrMean", n, f, 2 * f + 1, "n > 2f")
    return sorted_slice_means(xs, f, n - f)


def geometric_median(xs) -> np.ndarray:
    """Smoothed Weiszfeld iteration for the point minimising summed distances.

    Starts from the coordinate-wise mean and reweights by inverse distance,
    flooring each distance at ``WEISZFELD_EPS`` so the iteration survives
    landing exactly on an input row. Stops after ``WEISZFELD_MAX_STEPS`` or
    once the step is below ``WEISZFELD_STEP_RTOL`` times the farthest input's
    distance, a scale that does not move under translation. Convergence is
    sublinear when the optimum sits on an input row, so the iterate is
    replaced by the best input row whenever one attains a strictly smaller
    summed distance.

    Every iterate is a convex combination v = a @ xs, so the iteration runs on
    the n coefficients ``a``. The best input row r (the first least sum of the
    square roots of a ``trusted_pairwise_sq_dists`` row) anchors the n x n matrix
    G = Y Y^T of the rows centred at it (Y = xs - r, built once in d-space):
    ||x_i - v||^2 = G_ii - 2 (G a)_i + a.G a, and a step delta in ``a`` has
    length^2 = delta.G delta. Centred at r, an entry's rounding scales with
    the two rows' distances to r, so a far-out row cannot swamp the distances
    among the rest. It would through the raw inner products x_i.x_j, and
    through the squared distances to that row, whose rounding at the scale
    of its squared distance is multiplied by its small weight into every
    other row's distance. v is formed in d-space once, and the choice
    between v and r compares their summed distances computed directly.
    """
    xs = as_vector_set(xs)
    n = len(xs)
    d2, err = pairwise_sq_dists(xs)
    with np.errstate(divide="ignore", invalid="ignore"):  # |sqrt(a) - sqrt(b)| <= min(sqrt(e), e / sqrt(a - e))
        spread = np.fmin(np.sqrt(err), err / np.sqrt(d2 - err)).sum(axis=1)
    best_row = xs[_first_by_key(xs, d2, spread, n, 1, lambda d2, rows: np.sqrt(d2).sum(axis=1))[0]]
    centered = xs - best_row
    gram = centered @ centered.T
    best_objective = float(_row_norms(centered).sum())
    del centered  # free n * d floats before xs - v takes as many
    a = np.full(n, 1.0 / n)
    for _ in range(WEISZFELD_MAX_STEPS):
        gram_a = gram @ a
        dists = np.sqrt(np.maximum(np.diag(gram) - 2.0 * gram_a + a @ gram_a, 0.0))
        inv = 1.0 / np.maximum(dists, WEISZFELD_EPS)
        a_new = inv / inv.sum()
        delta = a_new - a
        step = np.sqrt(max(delta @ gram @ delta, 0.0))
        a = a_new
        if step <= WEISZFELD_STEP_RTOL * float(dists.max()):
            break
    v = a @ xs
    if best_objective < float(_row_norms(xs, v).sum()):
        return best_row.copy()
    return v


def _row_norms(xs: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """``np.linalg.norm(xs - v, axis=1)`` (of ``xs`` when ``v`` is None), bit for
    bit, one row tile at a time through one buffer: each row is reduced alone."""
    runs = tiles(len(xs), xs.shape[1])
    buf = np.empty((max(run.stop - run.start for run in runs), xs.shape[1]))
    out = np.empty(len(xs))
    for run in runs:
        part = np.subtract(xs[run], v, out=buf[: run.stop - run.start]) if v is not None else xs[run]
        part = np.multiply(part, part, out=buf[: run.stop - run.start])
        np.add.reduce(part, axis=1, out=out[run])
    return np.sqrt(out, out=out)


def multi_krum(xs, f: int) -> np.ndarray:
    """Mean of the n - f rows with the smallest sums of squared distances to
    their n - f - 1 nearest other rows, in the stable order of those exact sums."""
    xs = as_vector_set(xs)
    n = len(xs)
    check_f("MultiKrum", n, f, f + 2, "n >= f + 2")
    k = n - f - 1

    def scores(d2, rows):  # each row's sum of its k smallest distances to other rows
        d2[np.arange(len(rows)), rows] = np.inf
        return np.sort(d2, axis=1)[:, :k].sum(axis=1)

    d2, err = pairwise_sq_dists(xs)
    chosen = _first_by_key(xs, d2, k * err.max(axis=1), k, n - f, scores)
    if xs.shape[1] == 1:  # numpy sums a one-column gather pairwise
        return xs[chosen].mean(axis=0)
    total = np.zeros(xs.shape[1])  # numpy's axis-0 sum also starts from +0.0 and adds the rows in order
    for row in chosen:
        total += xs[row]
    total /= len(chosen)
    return total


def _first_by_key(xs, d2, spread, terms: int, need: int, key_of) -> np.ndarray:
    """The first ``need`` positions of the stable argsort of ``key_of(d2, rows)``,
    a sum of ``terms`` entries, on exact distance rows, given ``pairwise_sq_dists``'s
    ``d2`` and ``spread``, a bound on the error of each row's terms in all (0: exact)."""

    def exact_keys(_, rows):  # the key row's positions are rows of xs
        return key_of(trusted_pairwise_sq_dists(xs, rows), rows)

    keys = key_of(d2, np.arange(len(xs)))
    rounding = 2.0 * (terms + 1) * np.finfo(np.float64).eps * (np.abs(keys) + spread)  # of both sums
    bound = np.where(spread > 0, spread + rounding, 0.0)
    return stable_head(keys, bound, exact_keys, need)


def meamed(xs, f: int) -> np.ndarray:
    """Per coordinate, mean of the n - f values closest to that coordinate's
    median, deviation ties going to the lower row index.

    Each column tile is transposed into rows once; the median is the
    ``slice_means`` of a sorted copy, and the deviations are ranked along the
    rows. The kept values go back into a C-contiguous (n - f, W) block, so
    each column is summed in the order of
    ``np.take_along_axis(xs, order, axis=0).mean(axis=0)`` with ``order`` the
    stable argsort of the deviations along axis 0.

    The ranking is numpy's default argsort, about half the cost of the
    stable one, which may order tied deviations differently. Tied equal
    values give the same kept values in the same order whichever comes
    first (a sum that starts at +0.0 cannot tell -0.0 from +0.0), so only a
    column where two different values tie is ranked again, stably.
    """
    xs = as_vector_set(xs)
    n = len(xs)
    check_f("MeaMed", n, f, f + 1, "n > f")
    middle = _median_window(n)

    def tile_meamed(tile: np.ndarray) -> np.ndarray:
        rows = tile.T.copy()
        deviations = np.abs(rows - slice_means(np.sort(rows, axis=1), *middle)[:, None])
        flat_order = np.argsort(deviations, axis=1) + np.arange(0, rows.size, n)[:, None]
        ranked, ranked_deviations = rows.take(flat_order), deviations.take(flat_order)
        redo = ((ranked_deviations[:, 1:] == ranked_deviations[:, :-1]) & (ranked[:, 1:] != ranked[:, :-1])).any(axis=1)
        ranked[redo] = np.take_along_axis(rows[redo], np.argsort(deviations[redo], axis=1, kind="stable"), axis=1)
        return slice_means(ranked, 0, n - f)

    return columnwise(tile_meamed, xs)


def _best_subset_mean(name: str, xs, f: int, scorer) -> np.ndarray:
    """Mean of the size-(n - f) row subset that ``scorer(xs)`` scores lowest,
    ties going to the lexicographically smallest index set. Enumerates all
    subsets, so n is capped at SUBSET_ENUMERATION_LIMIT."""
    xs = as_vector_set(xs)
    n = len(xs)
    check_f(name, n, f, f + 1, "n > f")
    if n > SUBSET_ENUMERATION_LIMIT:
        raise ValueError(f"{name} enumerates subsets and requires n <= {SUBSET_ENUMERATION_LIMIT}, got n={n}")
    return xs[list(min(itertools.combinations(range(n), n - f), key=scorer(xs)))].mean(axis=0)


def mda(xs, f: int) -> np.ndarray:
    """Mean over the size-(n - f) subset of rows with minimum diameter.

    Diameter ties are refined by the whole sorted pairwise-distance profile
    (two subsets sharing their farthest pair often tie on diameter alone, and
    the profile depends only on the point set, keeping the rule independent of
    row order); identical profiles fall back to the smallest index set.
    """

    def profile(xs: np.ndarray):
        d2, upper = trusted_pairwise_sq_dists(xs), np.triu_indices(len(xs) - f, k=1)
        return lambda subset: tuple(np.sort(d2[np.ix_(subset, subset)][upper])[::-1])

    return _best_subset_mean("MDA", xs, f, profile)


@dataclass
class CenteredClipState:
    """Carry-over center for CenteredClipping; ``prev`` is the last output."""

    prev: np.ndarray | None = None


def centered_clipping(
    xs,
    state: CenteredClipState | None = None,
    tau: float = DEFAULT_CLIP_RADIUS,
    iters: int = DEFAULT_CLIP_STEPS,
) -> np.ndarray:
    """Iteratively re-center on the mean of updates clipped to radius tau.

    Each pass sets v <- v + mean_i clip(x_i - v, tau) where clip rescales to
    norm tau (vectors already inside the ball, and exact zeros, pass through
    unchanged). The starting center is ``state.prev`` when present, else the
    origin, and the final center is written back to ``state``.
    """
    xs = as_vector_set(xs)
    n, d = xs.shape
    POSITIVE.check(tau, "CenteredClipping tau")
    at_least(1).check(iters, "CenteredClipping iters")
    if state is not None and state.prev is not None:
        v = np.asarray(state.prev, dtype=np.float64)
        if v.shape != (d,):
            raise ValueError(f"carried center has dimension {v.shape}, expected ({d},)")
    else:
        v = np.zeros(d)
    for _ in range(iters):
        deltas = xs - v
        norms = np.linalg.norm(deltas, axis=1)
        scale = np.where(norms > tau, tau / np.where(norms > 0, norms, 1.0), 1.0)
        v = v + (deltas * scale[:, None]).mean(axis=0)
    if state is not None:
        state.prev = v.copy()
    return v


def monna(xs, f: int, pivot: int = 0) -> np.ndarray:
    """Mean of the n - f rows nearest to the pivot row (itself included)."""
    xs = as_vector_set(xs)
    n = len(xs)
    check_f("MoNNA", n, f, f + 1, "n > f")
    if not 0 <= pivot < n:
        raise ValueError(f"pivot must lie in [0, {n}), got {pivot}")
    order = np.argsort(trusted_pairwise_sq_dists(xs, [pivot])[0], kind="stable")
    return xs[order[: n - f]].mean(axis=0)


def smea(xs, f: int) -> np.ndarray:
    """Mean over the size-(n - f) subset whose empirical covariance has the
    smallest top eigenvalue (see ``_best_subset_mean``)."""
    return _best_subset_mean("SMEA", xs, f, lambda xs: lambda subset: top_eigenpair(xs[list(subset)])[0])


def caf(xs, f: int) -> np.ndarray:
    """Covariance-agnostic filter: soft-downweight rows along the top
    principal direction until f units of weight mass are removed.

    Starting from unit weights, each pass computes the weighted mean, the top
    eigenpair of the weighted covariance, squared projections tau_i of the
    rows onto the eigenvector, and rescales w_i by (1 - tau_i / max_j tau_j).
    The row with maximal projection is zeroed exactly, so at most one pass per
    row is needed. Stops when the removed mass reaches f, when one weighted
    row remains, or when the residual spread is numerically zero.
    """
    xs = as_vector_set(xs)
    n = len(xs)
    check_f("CAF", n, f, f + 1, "n > f")
    w = np.ones(n)
    mu = xs.mean(axis=0)
    for _ in range(SPECTRAL_FILTER_MAX_STEPS):
        total = w.sum()
        if total <= 0.0:
            return mu
        mu = (w @ xs) / total
        if n - total >= f or np.count_nonzero(w) <= 1:
            return mu
        lam, direction = top_eigenpair(xs, w)
        if lam <= SPECTRAL_FILTER_EIGENVALUE_FLOOR:
            return mu
        tau = np.square((xs - mu) @ direction)
        w = w * (1.0 - tau / tau.max())
    total = w.sum()
    return (w @ xs) / total if total > 0 else mu


# --------------------------------------------------------------------------- #
# Config-driven construction
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Rule:
    """One row of a rule table: a rule function and how a config calls it.

    ``params`` maps each parameter a config may set, which is passed under
    the same keyword to ``fn``, to its ``Param``; an omitted one takes the
    function's default, and one the function gives no default is required.
    ``needs_f`` says whether the rule reads the number f of faulty rows.
    ``carried`` maps a keyword of ``fn`` to a factory of what one configured
    rule keeps across its calls; the factory gets the generator the rule was
    built with and returns None when it needs one and got none. ``fn`` is
    None for an attack that has no vector form. A sorted-slice rule's
    ``window`` maps (n, f) to the sorted positions (lo, hi) it averages.
    """

    fn: Callable[..., np.ndarray] | None
    params: Mapping[str, Param] = field(default_factory=dict)
    needs_f: bool = False
    carried: Mapping[str, Callable[[np.random.Generator | None], object]] = field(default_factory=dict)
    window: Callable[[int, int], tuple[int, int]] | None = None

    def cast(self, name: str, params: Mapping) -> dict:
        """Config ``params`` checked against the row and read by its ``Param``s.

        Unknown keys and missing required ones raise ``ValueError``, as does
        a value its ``Param`` rejects.
        """
        unknown = set(params) - set(self.params)
        if unknown:
            raise ValueError(f"{name} does not accept parameters {sorted(unknown)}")
        for key in self.params:
            if key not in params and inspect.signature(self.fn).parameters[key].default is inspect.Parameter.empty:
                raise ValueError(f"{name} requires parameter {key}")
        return {key: self.params[key](value, f"{name} parameter {key}") for key, value in params.items()}

    def carry(self, name: str, rng: np.random.Generator | None) -> dict:
        """Fresh ``carried`` keyword arguments for one configured rule."""
        carried = {key: make(rng) for key, make in self.carried.items()}
        if any(value is None for value in carried.values()):
            raise ValueError(f"{name} requires a seeded numpy Generator")
        return carried

    def apply(self, xs, f: int, params: Mapping, **extra) -> np.ndarray:
        """Call ``fn`` on ``xs`` with ``params``, ``f`` when it reads f, and ``extra``."""
        if self.needs_f:
            extra["f"] = f
        return self.fn(xs, **params, **extra)


AGGREGATORS: dict[str, Rule] = {
    "Average": Rule(average),
    "Median": Rule(median, window=_median_window),
    "TrMean": Rule(trmean, needs_f=True, window=lambda n, f: (f, n - f)),
    "GeometricMedian": Rule(geometric_median),
    "MultiKrum": Rule(multi_krum, needs_f=True),
    "MeaMed": Rule(meamed, needs_f=True),
    "MDA": Rule(mda, needs_f=True),
    "CenteredClipping": Rule(centered_clipping, {"tau": Param(float, POSITIVE), "iters": Param(int, at_least(1))},
                             carried={"state": lambda rng: CenteredClipState()}),
    "MoNNA": Rule(monna, {"pivot": Param(int, at_least(0))}, needs_f=True),
    "SMEA": Rule(smea, needs_f=True),
    "CAF": Rule(caf, needs_f=True),
}
AGGREGATOR_NAMES = tuple(AGGREGATORS)


@dataclass
class RuleSpec:
    """Declarative description of one rule of a family, a row of its
    ``table``; ``parameters`` are cast to the types of that row."""

    name: str
    parameters: dict[str, float] = field(default_factory=dict)

    table: ClassVar[dict[str, Rule]]
    family: ClassVar[str]

    def __post_init__(self) -> None:
        if self.name not in self.table:
            raise ValueError(f"unknown {self.family} {self.name!r}; valid {self.family}s: {', '.join(self.table)}")
        self.parameters = self.table[self.name].cast(self.name, self.parameters)


@dataclass
class StageSpec(RuleSpec):
    """A rule of the server's pipeline, asked to withstand ``f`` faulty rows."""

    f: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        NONNEGATIVE.check(self.f, "f")


class AggregatorSpec(StageSpec):
    """An aggregation rule, a row of ``AGGREGATORS``."""

    table = AGGREGATORS
    family = "aggregator"


class ConfiguredAggregator:
    """Callable aggregation rule bound to its parameters and to what its row
    carries across calls (CenteredClipping's centre)."""

    def __init__(self, spec: AggregatorSpec):
        self.spec = spec
        self.carried = AGGREGATORS[spec.name].carry(spec.name, None)

    def __call__(self, xs) -> np.ndarray:
        """The rule on an (n, d) matrix; a sorted-slice rule asks an ``OverCopies`` for its slice means."""
        rule = AGGREGATORS[self.spec.name]
        dense = functools.partial(rule.apply, f=self.spec.f, params=self.spec.parameters, **self.carried)
        if rule.window and isinstance(xs, OverCopies):
            return xs.slice_means(*rule.window(len(xs), self.spec.f), dense)
        return dense(xs)


make_aggregator = ConfiguredAggregator  # the callable rule described by a spec
