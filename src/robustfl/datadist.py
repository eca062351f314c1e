"""Partitioning a labeled dataset across honest clients.

Three schemes with one heterogeneity knob each: plain IID, per-class
Dirichlet proportions (smaller alpha = more skew), and a similarity split
where a fraction of the data is IID and the rest is handed out in
label-sorted blocks (similarity 1 = IID, 0 = fully label-partitioned).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import POSITIVE, UNIT_INTERVAL, Bound

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
    return ClientPartition(np.array_split(rng.permutation(len(dataset)), n_clients))


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
    iid_blocks = np.array_split(perm[:k], n_clients)
    rest = perm[k:]
    rest = rest[np.argsort(dataset.labels[rest], kind="stable")]
    label_blocks = np.array_split(rest, n_clients)
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
