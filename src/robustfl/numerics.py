"""Dense float64 kernels shared by the aggregation rules.

Client updates are plain 1-D float64 arrays and a round's worth of updates is
an (n, d) matrix with one row per client. The kernels validate shape and
finiteness on entry so the rules built on top can assume clean input; only
``pairwise_sq_dists_with_copies``, which extends an already validated block,
trusts its arguments. Kernels that would build an (n, n, d)-sized temporary
work in row blocks of at most ``BLOCK_ELEMENTS`` entries instead.
"""

from __future__ import annotations

import math

import numpy as np

POWER_ITERATION_MAX_STEPS = 1000
POWER_ITERATION_RTOL = 1e-10

# Most float64 elements a row-blocked kernel holds in one temporary (8 MiB).
BLOCK_ELEMENTS = 1 << 20


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array of length >= 1."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


def as_vector_set(xs) -> np.ndarray:
    """Coerce to a finite (n, d) float64 matrix with n, d >= 1.

    Ragged nested lists are rejected with a shape error rather than being
    silently promoted to an object array.
    """
    try:
        arr = np.asarray(xs, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("rows must all share one dimension") from exc
    if arr.ndim == 1:
        raise ValueError("expected a matrix of row vectors, got a single 1-D array")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected an (n, d) matrix with n, d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains NaN or Inf")
    return arr


def block_rows(row_elements: int) -> int:
    """Rows per block so that a block of ``row_elements``-sized rows stays
    within ``BLOCK_ELEMENTS`` (always at least one row)."""
    return max(1, BLOCK_ELEMENTS // max(1, row_elements))


def pairwise_sq_dists(xs) -> np.ndarray:
    """Matrix of squared Euclidean distances between all row pairs.

    Computed from explicit row differences (not the Gram-matrix identity), so
    the result is exactly symmetric with an exactly zero diagonal. Rows are
    processed in blocks whose (rows, n, d) difference tensor holds at most
    ``BLOCK_ELEMENTS`` entries, or one row when a row alone is larger, so the
    extra memory is O(n^2 + max(BLOCK_ELEMENTS, n d)). Every entry is the same
    per-pair reduction whatever the block size.
    """
    xs = as_vector_set(xs)
    n, d = xs.shape
    out = np.empty((n, n))
    step = block_rows(n * d)
    for lo in range(0, n, step):
        diffs = xs[lo : lo + step, None, :] - xs[None, :, :]
        out[lo : lo + step] = np.einsum("ijk,ijk->ij", diffs, diffs)
    return out


def pairwise_sq_dists_with_copies(honest_sq_dists: np.ndarray, honest: np.ndarray, v: np.ndarray, f: int):
    """``pairwise_sq_dists`` of ``honest`` stacked over f copies of ``v``,
    built from the already computed honest block in O(n d) time and memory.

    The result equals ``pairwise_sq_dists(np.vstack([honest, np.tile(v, (f, 1))]))``
    bit for bit: each honest-to-v entry is the same reduction over the same
    row difference (negating it is exact), and the copies are exactly 0 apart.
    The inputs are trusted: the caller has validated ``honest``.
    """
    n = len(honest)
    diffs = honest[:, None, :] - v
    column = np.einsum("ijk,ijk->ij", diffs, diffs)
    out = np.zeros((n + f, n + f))
    out[:n, :n] = honest_sq_dists
    out[:n, n:] = column
    out[n:, :n] = column.T
    return out


def coord_order_stats(xs, drop_low: int, drop_high: int) -> np.ndarray:
    """Sort each coordinate, drop extremes, and average what remains.

    Args:
        xs: (n, d) matrix of row vectors.
        drop_low: number of smallest values discarded per coordinate.
        drop_high: number of largest values discarded per coordinate.

    Returns:
        Length-d vector of per-coordinate means over the surviving values.
    """
    xs = as_vector_set(xs)
    n = xs.shape[0]
    if drop_low < 0 or drop_high < 0:
        raise ValueError(f"drop counts must be nonnegative, got ({drop_low}, {drop_high})")
    if drop_low + drop_high >= n:
        raise ValueError(f"cannot drop {drop_low} + {drop_high} values out of n={n}")
    ordered = np.sort(xs, axis=0)
    return ordered[drop_low : n - drop_high].mean(axis=0)


def top_eigenpair(
    xs,
    weights=None,
    *,
    rtol: float = POWER_ITERATION_RTOL,
    max_steps: int = POWER_ITERATION_MAX_STEPS,
) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of the weighted covariance of the rows, matrix-free.

    The operator is v -> sum_i w_i (x_i - mu)(x_i - mu)^T v / sum_i w_i with mu
    the weighted row mean; it is never materialised as a d x d matrix. Power
    iteration starts from the normalised all-ones vector (falling back to
    canonical basis vectors when that start lies in the null space) and stops
    once successive Rayleigh quotients agree to ``rtol``.

    Returns:
        (eigenvalue, unit eigenvector). Rows with no spread around their
        weighted mean yield ``(0.0, e_1)``. The eigenvector sign is arbitrary.
    """
    xs = as_vector_set(xs)
    n, d = xs.shape
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")

    mu = (w @ xs) / total
    centered = xs - mu
    scaled = centered * (w / total)[:, None]

    def apply(v: np.ndarray) -> np.ndarray:
        return scaled.T @ (centered @ v)

    e1 = np.zeros(d)
    e1[0] = 1.0
    if float(np.einsum("ij,ij->", scaled, centered)) == 0.0:
        return 0.0, e1

    v = np.full(d, 1.0 / math.sqrt(d))
    image = apply(v)
    if np.linalg.norm(image) == 0.0:
        for k in range(d):
            basis = np.zeros(d)
            basis[k] = 1.0
            image = apply(basis)
            if np.linalg.norm(image) > 0.0:
                v = basis
                break
        else:
            return 0.0, e1

    lam = 0.0
    for _ in range(max_steps):
        image = apply(v)
        norm = np.linalg.norm(image)
        if norm == 0.0:
            return 0.0, v
        lam_new = float(v @ image)
        v = image / norm
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), abs(lam), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return max(lam, 0.0), v
