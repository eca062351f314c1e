"""Partitioning a labeled dataset across honest clients, ``Param`` (the one
reader of config values and rule parameters) and ``Bound`` (the range check).

Three schemes with one heterogeneity knob each: plain IID, per-class
Dirichlet proportions (smaller alpha = more skew), and a similarity split
where a fraction of the data is IID and the rest is handed out in
label-sorted blocks (similarity 1 = IID, 0 = fully label-partitioned).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class LabeledDataset:
    """Feature matrix plus integer labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) < 1:
            raise ValueError(f"features must be a non-empty (m, d) matrix, got shape {self.features.shape}")
        if self.labels.shape != (len(self.features),):
            raise ValueError(
                f"labels must be one per sample, got {self.labels.shape} for {len(self.features)} samples"
            )
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(f"labels must lie in [0, {self.n_classes})")

    def __len__(self) -> int:
        return len(self.features)


class Bound(NamedTuple):
    """A range a number must lie in: the test, and the words that name it."""

    holds: Callable[[float], bool]
    text: str

    def check(self, value, where: str):
        if not self.holds(value):
            raise ValueError(f"{where} must {self.text}, got {value}")
        return value


def read_as(kind: type, value):
    """``kind(value)``, but an int too large for a float reads as a float +-inf."""
    try:
        return kind(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def at_least(low: int) -> Bound:
    """The numbers that are ``low`` or more."""
    return Bound(lambda v: v >= low, f"be >= {low}")


POSITIVE = Bound(lambda v: v > 0, "be positive")
NONNEGATIVE = Bound(lambda v: v >= 0, "be nonnegative")
FRACTION = Bound(lambda v: 0 < v <= 1, "lie in (0, 1]")
UNIT_INTERVAL = Bound(lambda v: 0 <= v <= 1, "lie in [0, 1]")

_NOUNS = {int: "an integer", float: "a number", bool: "a boolean", str: "a non-empty string", dict: "an object"}


class Param(NamedTuple):
    """Reader of a value from outside the program, a config key or a rule
    parameter: its kind and, where restricted, the ``Bound`` it must lie in.
    A number is any real but a bool, a float is finite, an int may be written
    as an integral float (3.0 reads as 3), and a string is not empty."""

    kind: type
    bound: Bound | None = None

    def __call__(self, value, where: str):
        kind, bound = self
        if (not isinstance(value, numbers.Real if kind in (int, float) else kind)
                or isinstance(value, bool) != (kind is bool) or value == ""
                or kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer()):
            raise ValueError(f"{where} must be {_NOUNS[kind]}, got {value!r}")
        typed = read_as(kind, value) if bound is None else bound.check(read_as(kind, value), where)
        if kind is float and not math.isfinite(typed):
            raise ValueError(f"{where} must be finite, got {value!r}")
        return typed


@dataclass
class ClientPartition:
    """Per-client sample index lists; disjoint and each non-empty."""

    assignments: list[np.ndarray]

    def __post_init__(self) -> None:
        self.assignments = [np.asarray(a, dtype=np.int64) for a in self.assignments]
        for i, idx in enumerate(self.assignments):
            if idx.size == 0:
                raise ValueError(f"client {i} received no samples")
        merged = np.concatenate(self.assignments)
        if len(np.unique(merged)) != len(merged):
            raise ValueError("client index lists overlap")

    @property
    def n_clients(self) -> int:
        return len(self.assignments)


def _chunks(indices: np.ndarray, n_clients: int) -> list[np.ndarray]:
    """Split into n contiguous blocks; the remainder goes one-each to the
    first len(indices) mod n clients."""
    base, rem = divmod(len(indices), n_clients)
    sizes = [base + 1 if i < rem else base for i in range(n_clients)]
    bounds = np.cumsum([0] + sizes)
    return [indices[bounds[i] : bounds[i + 1]] for i in range(n_clients)]


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round proportions * total to integers summing to total, assigning the
    leftover units by largest fractional part (ties to lower index)."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    leftover = total - int(counts.sum())
    if leftover > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:leftover]] += 1
    return counts


def _fill_empty(merged: list[np.ndarray], scheme: str) -> ClientPartition:
    """``merged`` as a partition; each empty client, in order, takes a sample from the then-largest."""
    empty = [i for i, idx in enumerate(merged) if idx.size == 0]
    for needy in empty:
        donor = max(range(len(merged)), key=lambda i: merged[i].size)
        merged[needy], merged[donor] = merged[donor][-1:], merged[donor][:-1]
    if empty:
        log.info("%s split left %d empty client(s); moved one sample each from the largest", scheme, len(empty))
    return ClientPartition(merged)


def iid_split(dataset: LabeledDataset, n_clients: int, rng: np.random.Generator) -> ClientPartition:
    """Shuffle globally and hand out contiguous equal-size blocks."""
    if n_clients < 1:
        raise ValueError(f"need at least one client, got {n_clients}")
    if len(dataset) < n_clients:
        raise ValueError(f"cannot split {len(dataset)} samples across {n_clients} clients")
    return ClientPartition(_chunks(rng.permutation(len(dataset)), n_clients))


def dirichlet_split(
    dataset: LabeledDataset, n_clients: int, alpha: float, rng: np.random.Generator
) -> ClientPartition:
    """Give each client a Dirichlet(alpha)-distributed share of every class.

    Per class, client proportions are drawn as normalised unit-scale Gamma
    variates, rounded with the largest-remainder rule, and realised as
    consecutive blocks of that class's shuffled indices. A client left with
    nothing overall takes one sample from the then-largest client.
    """
    if n_clients < 1:
        raise ValueError(f"need at least one client, got {n_clients}")
    POSITIVE.check(alpha, "alpha")
    if len(dataset) < n_clients:
        raise ValueError(f"cannot split {len(dataset)} samples across {n_clients} clients")
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for cls in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == cls)
        if members.size == 0:
            continue
        members = rng.permutation(members)
        draws = rng.gamma(alpha, 1.0, n_clients)
        total = draws.sum()
        shares = draws / total if total > 0 else np.full(n_clients, 1.0 / n_clients)
        counts = _largest_remainder(shares, members.size)
        bounds = np.cumsum(np.concatenate([[0], counts]))
        for i in range(n_clients):
            buckets[i].append(members[bounds[i] : bounds[i + 1]])
    merged = [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64) for parts in buckets]
    return _fill_empty(merged, "dirichlet")


def gamma_split(
    dataset: LabeledDataset, n_clients: int, similarity: float, rng: np.random.Generator
) -> ClientPartition:
    """Split a floor(similarity * m) random subset IID and the rest by label.

    The non-IID remainder is stably sorted by label and appended to clients as
    contiguous blocks, so similarity 1.0 reduces to ``iid_split`` and 0.0
    gives every client a few (often single-label) blocks. An empty client
    takes one sample from the then-largest client, as in Dirichlet.
    """
    if n_clients < 1:
        raise ValueError(f"need at least one client, got {n_clients}")
    UNIT_INTERVAL.check(similarity, "similarity")
    m = len(dataset)
    if m < n_clients:
        raise ValueError(f"cannot split {m} samples across {n_clients} clients")
    perm = rng.permutation(m)
    k = math.floor(similarity * m)
    iid_blocks = _chunks(perm[:k], n_clients)
    rest = perm[k:]
    rest = rest[np.argsort(dataset.labels[rest], kind="stable")]
    label_blocks = _chunks(rest, n_clients)
    return _fill_empty([np.concatenate([iid_blocks[i], label_blocks[i]]) for i in range(n_clients)], "gamma")


class Distribution(NamedTuple):
    """One row of ``DISTRIBUTIONS``: the splitter, its spelling in run ids,
    and the range of the config's distribution parameter (the splitter's
    third argument), None when the splitter takes no parameter."""

    split: Callable[..., ClientPartition]
    token: str
    parameter: Bound | None


DISTRIBUTIONS = {
    "iid": Distribution(iid_split, "iid", None),
    "dirichlet_niid": Distribution(dirichlet_split, "dirichlet", POSITIVE),
    "gamma_similarity_niid": Distribution(gamma_split, "gamma", UNIT_INTERVAL),
}
DISTRIBUTION_NAMES = tuple(DISTRIBUTIONS)


def make_partition(
    dataset: LabeledDataset,
    name: str,
    parameter: float,
    n_clients: int,
    rng: np.random.Generator,
) -> ClientPartition:
    """Dispatch on a distribution name from a benchmark config."""
    if name not in DISTRIBUTIONS:
        raise ValueError(f"unknown data distribution {name!r}; valid names: {', '.join(DISTRIBUTION_NAMES)}")
    dist = DISTRIBUTIONS[name]
    if dist.parameter is None:
        return dist.split(dataset, n_clients, rng)
    return dist.split(dataset, n_clients, parameter, rng)
