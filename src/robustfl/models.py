"""Small classification models with closed-form gradients, the scorers that
evaluate groups of their snapshots, their learning-rate schedule, and the
dataset providers they train on.

Parameters live in one flat float64 vector so client updates can flow
straight into the aggregation stack. Each architecture (multinomial logistic
regression, one ReLU hidden layer) is a stack of dense layers given by its
widths, trained with the mean cross-entropy loss from stable log-softmax.
"""

from __future__ import annotations

import gzip
import itertools
import math
import struct
from bisect import bisect_right
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import FRACTION, NONNEGATIVE, POSITIVE
from .datadist import LabeledDataset
from .numerics import BLOCK_ELEMENTS

DEFAULT_HIDDEN_UNITS = 64

# Evaluation snapshots share one first-layer product per row block only where
# BLAS gives every entry the bits of the one-snapshot product: a first layer
# whose width is a multiple of GROUP_WIDTH, a one-snapshot product of more than
# BLOCK_ELEMENTS multiply-adds, and blocks of at least GROUP_ROWS rows. A sweep
# of random shapes against per-snapshot ``logits`` (OpenBLAS 0.3.31, AVX-512)
# found no differing entry under this rule, and found some for width 1 or 33,
# for smaller products and for 256-row blocks; tests/test_models.py re-checks it.
GROUP_WIDTH = 8
GROUP_ROWS = 1024

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class _LayerStack:
    """Base of the architecture records: frozen dataclasses whose fields, in
    order, are the layer widths from the input to the classes."""

    def __post_init__(self) -> None:
        *names, classes = (f.name for f in fields(self))
        *inner, n_classes = widths = astuple(self)
        if min(inner) < 1 or n_classes < 2:
            raise ValueError(f"need {' >= 1, '.join(names)} >= 1 and {classes} >= 2, got {widths}")

    @cached_property
    def layers(self) -> tuple[tuple[tuple[int, int], slice, slice], ...]:
        """(weight shape (n_out, n_in), weight slice, bias slice) of every
        dense layer in the flat parameter vector, input side first."""
        layers, start = [], 0
        for n_in, n_out in itertools.pairwise(astuple(self)):
            end = start + n_out * n_in
            layers.append(((n_out, n_in), slice(start, end), slice(end, end + n_out)))
            start = end + n_out
        return tuple(layers)


@dataclass(frozen=True)
class LinearArch(_LayerStack):
    """Logistic regression: a (n_classes, in_dim) weight matrix plus biases."""

    in_dim: int
    n_classes: int


@dataclass(frozen=True)
class MlpArch(_LayerStack):
    """One ReLU hidden layer between input and the class logits."""

    in_dim: int
    hidden: int
    n_classes: int


Arch = LinearArch | MlpArch


def param_count(arch: Arch) -> int:
    return arch.layers[-1][2].stop  # where the last layer's biases end


def init_params(arch: Arch, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    parts = []
    for (n_out, n_in), _, _ in arch.layers:
        bound = 1.0 / np.sqrt(n_in)
        parts += [rng.uniform(-bound, bound, n_out * n_in), np.zeros(n_out)]
    return np.concatenate(parts)


def _checked(arch: Arch, flat) -> np.ndarray:
    """``flat`` as float64, whose last axis must hold ``arch``'s parameters."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape[-1:] != (param_count(arch),):
        raise ValueError(f"expected {param_count(arch)} parameters for {arch}, got shape {flat.shape}")
    return flat


def _forward(arch: Arch, flat: np.ndarray, features: np.ndarray):
    """Every layer's weights (views of ``flat``, checked against ``arch``: one
    matrix, or one per client when ``flat`` is (k, d)), every layer's input
    (ReLU applied after the first) and the scores."""
    flat = _checked(arch, flat)
    weights, inputs, out = [], [], features
    for shape, w, b in arch.layers:
        weights.append(flat[..., w].reshape(*flat.shape[:-1], *shape))
        inputs.append(np.maximum(out, 0.0) if inputs else out)
        out = inputs[-1] @ weights[-1].mT + flat[..., None, b]
    return weights, inputs, out


def logits(arch: Arch, flat: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(batch, n_classes) scores; hidden activations use ReLU."""
    return _forward(arch, flat, features)[2]


def groups_snapshots(arch: Arch, rows: int) -> bool:
    """Whether snapshots of ``arch`` evaluated on ``rows`` feature rows share first-layer products."""
    (width, n_in), _, _ = arch.layers[0]
    return width % GROUP_WIDTH == 0 and rows * n_in * width > BLOCK_ELEMENTS


def snapshot_scores(arch: Arch, flats: np.ndarray, features: np.ndarray):
    """Yield (j, rows, scores) until every snapshot j of the (k, d) group ``flats``
    has its ``logits`` on every row, bit for bit: one product per snapshot, or,
    where ``groups_snapshots``, one first-layer product of each row block with
    every snapshot's weights, of about BLOCK_ELEMENTS / 4 entries (rows cut into
    equal blocks of at least GROUP_ROWS rows, or one block when there are fewer)."""
    flats = _checked(arch, flats)
    (width, n_in), w, b = arch.layers[0]
    k, m = len(flats), len(features)
    if k == 1 or not groups_snapshots(arch, m):
        for j, flat in enumerate(flats):
            yield j, slice(None), logits(arch, flat, features)
        return
    stacked = flats[:, w].reshape(k * width, n_in).T
    blocks = max(1, m // max(GROUP_ROWS, BLOCK_ELEMENTS // 4 // (k * width)))
    for lo, hi in itertools.pairwise(m * i // blocks for i in range(blocks + 1)):
        rows = slice(lo, hi)
        first = features[rows] @ stacked
        for j, flat in enumerate(flats):
            out = first[:, j * width : (j + 1) * width] + flat[None, b]
            for shape, w_next, b_next in arch.layers[1:]:
                out = np.maximum(out, 0.0) @ flat[w_next].reshape(shape).T + flat[None, b_next]
            yield j, rows, out


def _log_softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax over the class axis, in ``out`` (may be ``scores``); the max is an exact ``np.maximum`` chain."""
    top = np.maximum(scores[..., 0], scores[..., 1])
    for c in range(2, scores.shape[-1]):
        np.maximum(top, scores[..., c], out=top)
    shifted = np.subtract(scores, top[..., None], out=out)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def evaluate_accuracy(arch: Arch, flats: np.ndarray, dataset: LabeledDataset) -> list[float]:
    """For each snapshot of the (k, d) group ``flats``, the fraction of ``dataset``'s rows whose argmax
    score is the label (argmax ties go to the lowest class id)."""
    hits = np.empty((len(flats), len(dataset.labels)), dtype=bool)
    for j, rows, scores in snapshot_scores(arch, flats, dataset.features):
        hits[j, rows] = scores.argmax(axis=1) == dataset.labels[rows]
    return [float(row.mean()) for row in hits]


def forward_loss(
    arch: Arch, flats: np.ndarray, features: np.ndarray, labels: np.ndarray, subsets: list[np.ndarray]
) -> list[list[float]]:
    """For each snapshot of the (k, d) group ``flats``, the mean cross-entropy of each subset (an array of
    row indices) over its rows in the order given, from one pass of the scores over every row."""
    loglik = np.empty((len(flats), len(labels)))
    for j, rows, scores in snapshot_scores(arch, flats, features):
        at = labels[rows]
        loglik[j, rows] = _log_softmax(scores)[np.arange(len(at)), at]
    return [[float(-p[rows].mean()) for rows in subsets] for p in loglik]


def backward(arch: Arch, flat: np.ndarray, features: np.ndarray, labels: np.ndarray, with_loss: bool = False) -> tuple:
    """``loss_and_gradient``'s pass, its losses None unless ``with_loss``: without, the clients' training
    pass. The scores' label entries are addressed by flat (row, label) positions."""
    weights, inputs, scores = _forward(arch, flat, features)
    at = np.arange(0, labels.size * scores.shape[-1], scores.shape[-1]) + labels.reshape(-1)
    delta = _log_softmax(scores, out=scores)
    losses = -delta.reshape(-1)[at].reshape(labels.shape).mean(axis=-1) if with_loss else None
    np.exp(delta, out=delta)
    delta.reshape(-1)[at] -= 1.0
    delta /= labels.shape[-1]
    lead = labels.shape[:-1]
    grad = np.empty((*lead, param_count(arch)))
    for (shape, w, b), weight, inp in zip(reversed(arch.layers), reversed(weights), reversed(inputs)):
        np.matmul(delta.mT, inp, out=grad[..., w].reshape(*lead, *shape))
        delta.sum(axis=-2, out=grad[..., b])
        if inp is not features:
            delta = (delta @ weight) * (inp > 0.0)
    return losses, grad


def loss_and_gradient(
    arch: Arch, flat: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """One fused forward/backward pass.

    Backprop uses the standard softmax-cross-entropy identity
    d(loss)/d(logits) = (softmax - onehot) / batch, and the ReLU subgradient
    at exactly zero is taken as zero.

    With a leading client axis on ``features`` and ``labels`` (and optionally
    a (k, d) ``flat``), it returns k losses and a (k, d) gradient matrix whose
    row i is bit for bit the call on client i alone: numpy runs one BLAS call
    per slice, and each weight-gradient block is written in place.
    """
    return backward(arch, flat, features, labels, with_loss=True)


# --------------------------------------------------------------------------- #
# Learning-rate schedule
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LrSchedule:
    """Step decay: lr(t) = base_lr * decay ** (number of milestones <= t)."""

    base_lr: float
    decay: float = 1.0
    milestones: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        POSITIVE.check(self.base_lr, "base_lr")
        FRACTION.check(self.decay, "decay")
        object.__setattr__(self, "milestones", tuple(sorted(int(m) for m in self.milestones)))

    def lr_at(self, step: int) -> float:
        return self.base_lr * self.decay ** bisect_right(self.milestones, step)


# --------------------------------------------------------------------------- #
# Dataset providers
# --------------------------------------------------------------------------- #


def make_blobs(
    n_classes: int,
    per_class,
    dim: int,
    spread: float,
    rng: np.random.Generator,
    centers: np.ndarray | None = None,
) -> LabeledDataset:
    """Isotropic Gaussian clusters around seeded random centers.

    ``per_class`` is either one count for every class or a per-class sequence.
    Passing ``centers`` reuses cluster locations (e.g. to draw a matching test
    set); otherwise they are standard-normal draws from ``rng``. Rows are
    shuffled so the label order carries no structure.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    NONNEGATIVE.check(spread, "spread")
    counts = [int(per_class)] * n_classes if np.isscalar(per_class) else [int(c) for c in per_class]
    if len(counts) != n_classes or any(c < 1 for c in counts):
        raise ValueError(f"need one positive count per class, got {counts}")
    if centers is None:
        centers = rng.standard_normal((n_classes, dim))
    elif centers.shape != (n_classes, dim):
        raise ValueError(f"centers must have shape ({n_classes}, {dim}), got {centers.shape}")
    features = np.vstack(
        [centers[c] + spread * rng.standard_normal((counts[c], dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), counts)
    order = rng.permutation(len(labels))
    return LabeledDataset(features[order], labels[order], n_classes)


def _read_idx(path: Path, magic: int, what: str) -> tuple[list[int], bytes]:
    """Dimensions and payload bytes of one IDX file that must carry ``magic``,
    whose low byte gives the number of dimensions and so the header length."""
    header_len = 4 * (1 + (magic & 0xFF))
    with open(path, "rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"
    with (gzip.open if gzipped else open)(path, "rb") as fh:
        header = fh.read(header_len)
        if len(header) < header_len:
            raise ValueError(f"{path}: truncated IDX header")
        found, *dims = struct.unpack(f">{header_len // 4}I", header)
        if found != magic:
            raise ValueError(f"{path}: bad magic {found:#010x}, expected {magic:#010x}")
        size = math.prod(dims)
        payload = fh.read(size)
        if len(payload) < size:
            raise ValueError(f"{path}: truncated {what} payload")
    return dims, payload


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read an image/label pair in the big-endian IDX binary format.

    Pixel bytes are scaled to [0, 1] and flattened to one row per image.
    Raises ``ValueError`` on a wrong magic number, truncated payload, or an
    image/label count mismatch. Gzip-compressed files are detected and
    decompressed transparently.
    """
    (count, rows, cols), pixels = _read_idx(Path(images_path), IDX_IMAGES_MAGIC, "image")
    (label_count,), raw_labels = _read_idx(Path(labels_path), IDX_LABELS_MAGIC, "label")
    if count != label_count:
        raise ValueError(f"image/label count mismatch: {count} images vs {label_count} labels")
    features = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    n_classes = max(int(labels.max()) + 1, 2)
    return LabeledDataset(features, labels, n_classes)
