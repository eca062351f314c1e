"""Small classification models with closed-form gradients, their learning-rate
schedule, and the dataset providers they train on.

Parameters live in one flat float64 vector so client updates can flow
straight into the aggregation stack. Two architectures: multinomial logistic
regression and a one-hidden-layer ReLU network, both trained with the mean
cross-entropy loss computed from stable log-softmax.
"""

from __future__ import annotations

import gzip
import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datadist import LabeledDataset

DEFAULT_HIDDEN_UNITS = 64

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LinearArch:
    """Logistic regression: a (n_classes, in_dim) weight matrix plus biases."""

    in_dim: int
    n_classes: int

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.n_classes < 2:
            raise ValueError(f"need in_dim >= 1 and n_classes >= 2, got ({self.in_dim}, {self.n_classes})")


@dataclass(frozen=True)
class MlpArch:
    """One ReLU hidden layer between input and the class logits."""

    in_dim: int
    hidden: int
    n_classes: int

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.hidden < 1 or self.n_classes < 2:
            raise ValueError(
                f"need in_dim, hidden >= 1 and n_classes >= 2, got ({self.in_dim}, {self.hidden}, {self.n_classes})"
            )


Arch = LinearArch | MlpArch


def param_count(arch: Arch) -> int:
    if isinstance(arch, LinearArch):
        return arch.n_classes * arch.in_dim + arch.n_classes
    return arch.hidden * arch.in_dim + arch.hidden + arch.n_classes * arch.hidden + arch.n_classes


def init_params(arch: Arch, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    if isinstance(arch, LinearArch):
        bound = 1.0 / np.sqrt(arch.in_dim)
        w = rng.uniform(-bound, bound, arch.n_classes * arch.in_dim)
        return np.concatenate([w, np.zeros(arch.n_classes)])
    b1 = 1.0 / np.sqrt(arch.in_dim)
    w1 = rng.uniform(-b1, b1, arch.hidden * arch.in_dim)
    b2 = 1.0 / np.sqrt(arch.hidden)
    w2 = rng.uniform(-b2, b2, arch.n_classes * arch.hidden)
    return np.concatenate([w1, np.zeros(arch.hidden), w2, np.zeros(arch.n_classes)])


def _unpack_linear(arch: LinearArch, flat: np.ndarray):
    split = arch.n_classes * arch.in_dim
    return flat[:split].reshape(arch.n_classes, arch.in_dim), flat[split:]


def _unpack_mlp(arch: MlpArch, flat: np.ndarray):
    d, h, c = arch.in_dim, arch.hidden, arch.n_classes
    o1, o2, o3 = h * d, h * d + h, h * d + h + c * h
    return flat[:o1].reshape(h, d), flat[o1:o2], flat[o2:o3].reshape(c, h), flat[o3:]


def _check_flat(arch: Arch, flat: np.ndarray) -> np.ndarray:
    flat = np.asarray(flat, dtype=np.float64)
    expected = param_count(arch)
    if flat.shape != (expected,):
        raise ValueError(f"expected {expected} parameters for {arch}, got shape {flat.shape}")
    return flat


def logits(arch: Arch, flat: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(batch, n_classes) scores; hidden activations use ReLU."""
    flat = _check_flat(arch, flat)
    if isinstance(arch, LinearArch):
        w, b = _unpack_linear(arch, flat)
        return features @ w.T + b
    w1, b1, w2, b2 = _unpack_mlp(arch, flat)
    hidden = np.maximum(features @ w1.T + b1, 0.0)
    return hidden @ w2.T + b2


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_loss(arch: Arch, flat: np.ndarray, features: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Mean cross-entropy over the batch plus the count of correct argmax
    predictions (argmax ties go to the lowest class id)."""
    scores = logits(arch, flat, features)
    logp = _log_softmax(scores)
    batch = len(labels)
    loss = float(-logp[np.arange(batch), labels].mean())
    correct = int((scores.argmax(axis=1) == labels).sum())
    return loss, correct


def loss_and_gradient(
    arch: Arch, flat: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """One fused forward/backward pass.

    Backprop uses the standard softmax-cross-entropy identity
    d(loss)/d(logits) = (softmax - onehot) / batch, and the ReLU subgradient
    at exactly zero is taken as zero.
    """
    flat = _check_flat(arch, flat)
    batch = len(labels)
    rows = np.arange(batch)
    if isinstance(arch, LinearArch):
        w, b = _unpack_linear(arch, flat)
        scores = features @ w.T + b
        logp = _log_softmax(scores)
        dscores = np.exp(logp)
        dscores[rows, labels] -= 1.0
        dscores /= batch
        grad = np.concatenate([(dscores.T @ features).ravel(), dscores.sum(axis=0)])
        loss = float(-logp[rows, labels].mean())
        return loss, grad
    w1, b1, w2, b2 = _unpack_mlp(arch, flat)
    pre = features @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    scores = hidden @ w2.T + b2
    logp = _log_softmax(scores)
    dscores = np.exp(logp)
    dscores[rows, labels] -= 1.0
    dscores /= batch
    dhidden = (dscores @ w2) * (pre > 0.0)
    grad = np.concatenate(
        [
            (dhidden.T @ features).ravel(),
            dhidden.sum(axis=0),
            (dscores.T @ hidden).ravel(),
            dscores.sum(axis=0),
        ]
    )
    loss = float(-logp[rows, labels].mean())
    return loss, grad


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
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must lie in (0, 1], got {self.decay}")
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
    if spread < 0:
        raise ValueError(f"spread must be nonnegative, got {spread}")
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


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read an image/label pair in the big-endian IDX binary format.

    Pixel bytes are scaled to [0, 1] and flattened to one row per image.
    Raises ``ValueError`` on a wrong magic number, truncated payload, or an
    image/label count mismatch. Gzip-compressed files are detected and
    decompressed transparently.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with _open_maybe_gzip(images_path) as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"{images_path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"{images_path}: bad magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}")
        payload = fh.read(count * rows * cols)
        if len(payload) < count * rows * cols:
            raise ValueError(f"{images_path}: truncated image payload")
    with _open_maybe_gzip(labels_path) as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"{labels_path}: truncated IDX header")
        magic, label_count = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"{labels_path}: bad magic {magic:#010x}, expected {IDX_LABELS_MAGIC:#010x}")
        raw_labels = fh.read(label_count)
        if len(raw_labels) < label_count:
            raise ValueError(f"{labels_path}: truncated label payload")
    if count != label_count:
        raise ValueError(f"image/label count mismatch: {count} images vs {label_count} labels")
    features = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    n_classes = max(int(labels.max()) + 1, 2)
    return LabeledDataset(features, labels, n_classes)
