"""Dense float64 kernels shared by the aggregation rules.

Client updates are plain 1-D float64 arrays and a round's worth of updates is
an (n, d) matrix with one row per client. The public kernels validate shape
and finiteness on entry (``as_vector_set``); only
``pairwise_sq_dists_with_copies``, which extends an already validated block,
trusts its arguments. Kernels that would build an (n, n, d)-sized temporary
work in row blocks of at most ``BLOCK_ELEMENTS`` entries instead.

Every rule works on n rows with n much smaller than d, so the n x n matrices
of pairwise distances or of centred inner products carry what a rule needs:
``top_eigenpair`` solves the n x n problem and maps the answer back to d-space.
"""

from __future__ import annotations

import numpy as np

# Most float64 elements a row-blocked kernel holds in one temporary (8 MiB).
BLOCK_ELEMENTS = 1 << 20


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


def check_f(name: str, n: int, f: int, minimum: int, inequality: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless f >= 0 and n >= ``minimum`` (the ``inequality``)."""
    if f < 0:
        raise ValueError(f"{name} requires f >= 0, got f={f}")
    if n < minimum:
        raise ValueError(f"{name} requires {inequality} (got n={n}, f={f})")


def block_rows(row_elements: int) -> int:
    """Rows per block so that a block of ``row_elements``-sized rows stays
    within ``BLOCK_ELEMENTS`` (always at least one row)."""
    return max(1, BLOCK_ELEMENTS // max(1, row_elements))


def pairwise_sq_dists(xs) -> np.ndarray:
    """Matrix of squared Euclidean distances between all row pairs.

    Computed from explicit row differences (not the Gram-matrix identity), so
    the result is exactly symmetric with an exactly zero diagonal. When the
    whole (n, n, d) difference tensor fits in ``BLOCK_ELEMENTS`` entries it is
    built in one piece. Otherwise rows go in blocks sized for that budget (one
    row when a row alone is larger), each block computes only the columns from
    its own first row on into one reused buffer, and the upper triangle is
    mirrored into the lower: half the work, extra memory
    O(n^2 + max(BLOCK_ELEMENTS, n d)). Every entry is the same per-pair
    reduction whatever the block size (negating a difference is exact), so
    the result is bit-identical either way.
    """
    xs = as_vector_set(xs)
    n, d = xs.shape
    step = block_rows(n * d)
    if step >= n:
        diffs = xs[:, None, :] - xs[None, :, :]
        return np.einsum("ijk,ijk->ij", diffs, diffs)
    out = np.empty((n, n))
    buffer = np.empty(step * n * d)
    for lo in range(0, n, step):
        block = xs[lo : lo + step]
        diffs = buffer[: len(block) * (n - lo) * d].reshape(len(block), n - lo, d)
        np.subtract(block[:, None, :], xs[None, lo:, :], out=diffs)
        out[lo : lo + step, lo:] = np.einsum("ijk,ijk->ij", diffs, diffs)
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
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


def top_eigenpair(xs, weights=None) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of the weighted covariance of the rows.

    The covariance is sum_i w_i (x_i - mu)(x_i - mu)^T / sum_i w_i with mu the
    weighted row mean. With B the rows of positive weight, centred at mu in
    d-space and scaled by sqrt(w_i / sum_j w_j), the covariance is B^T B; it
    shares its nonzero spectrum with the small Gram matrix B B^T, whose dense
    ``eigh`` gives the eigenvalue and, through B^T u, the eigenvector. The
    d x d matrix is never formed. Zero-weight rows are dropped before the
    product, so a huge row with weight 0 cannot leak into the result.

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

    keep = w > 0
    if not keep.all():
        xs, w = xs[keep], w[keep]
    scaled = xs - (w @ xs) / total
    scaled *= np.sqrt(w / total)[:, None]
    eigenvalues, eigenvectors = np.linalg.eigh(scaled @ scaled.T)
    v = scaled.T @ eigenvectors[:, -1]
    norm = np.linalg.norm(v)
    if eigenvalues[-1] <= 0.0 or norm == 0.0:
        e1 = np.zeros(d)
        e1[0] = 1.0
        return 0.0, e1
    return float(eigenvalues[-1]), v / norm
