"""Dense float64 kernels shared by the aggregation rules.

Client updates are plain 1-D float64 arrays and a round's worth of updates is
an (n, d) matrix with one row per client. The public kernels validate shape
and finiteness on entry (``as_vector_set``). The rest trust their arguments:
the rules call ``trusted_pairwise_sq_dists``, ``gram_sq_dists``,
``trusted_top_eigenpair`` and ``sorted_slice_means`` on the matrix they have
checked, and ``gram_sq_dists_with_copy`` extends a validated block.
``sorted_slice_means``, ``columnwise`` and, within one block,
``trusted_pairwise_sq_dists`` also take an (r, n, d) stack of such matrices.

Two budgets bound the temporaries. ``BLOCK_ELEMENTS`` (8 MiB) decides whether
a kernel builds an (n, n, d)- or (n, n - f, d)-sized temporary in one piece.
``TILE_ELEMENTS`` (512 KiB, a quarter of a core's L2 cache) sizes the tiles
that every other pass over an (n, d) matrix, bar one streaming read, works
in: ``tiles`` cuts a range into runs of about that many elements, and
``columnwise`` runs a per-column reduction over column tiles of the matrix.
A tile never holds fewer than two items, because numpy reduces a lone pair,
or a lone column, in another order; every tiled result is bit-identical to
its whole-matrix form.

The coordinate-wise rules (Median, TrMean, MeaMed's median) take per column
the mean of a slice of the sorted values: ``sorted_slice_means`` for a whole
matrix. An attack search's candidates share all rows but f copies of one
row, and reach the pipeline as ``OverCopies``, which carries that shape and
the dict its inputs share: its ``slice_means`` sorts the fixed rows once
(``SortedColumns``) and merges each candidate's row in.

Every rule works on n rows with n much smaller than d, so the n x n matrices
of pairwise distances or of centred inner products carry what a rule needs:
``top_eigenpair`` solves the n x n problem and maps the answer back to d-space,
and ``gram_sq_dists`` with ``stable_head`` rank rows by distance from one n x n product.
Every exact squared distance comes from ``trusted_pairwise_sq_dists``: any rows
of the exact matrix, with the same bytes whichever path builds them.
"""

from __future__ import annotations

import numpy as np

# Most float64 elements a kernel holds in one temporary built in one piece (8 MiB).
BLOCK_ELEMENTS = 1 << 20
# Most float64 elements a cache-sized tile holds (512 KiB): a quarter of a
# core's 2 MiB L2, so a tiled pass's few tile-sized temporaries stay in it.
TILE_ELEMENTS = 1 << 16


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


def tile_width(item_elements: int) -> int:
    """Items of ``item_elements`` entries each in one tile: as many as fit in
    ``TILE_ELEMENTS``, and at least two."""
    return max(2, TILE_ELEMENTS // max(1, item_elements))


def tiles(items: int, item_elements: int) -> list[slice]:
    """Consecutive runs covering ``range(items)``, each of
    ``tile_width(item_elements)`` items but the last, which takes a lone
    trailing item in with the run before it (so a run may hold one item more).
    A run has one item only when the range has one."""
    bounds = list(range(0, items, tile_width(item_elements)))
    if len(bounds) > 1 and items - bounds[-1] == 1:
        bounds.pop()
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:] + [items])]


def columnwise(fn, xs: np.ndarray) -> np.ndarray:
    """``fn(xs)`` for a ``fn`` that reduces each column of an (n, d) matrix (or
    stack) to one value, run on the column tiles ``xs[..., run]`` of ``tiles``.

    A tile is a view, so ``fn`` reducing it along axis -2 sums each column in
    the order the whole matrix would; ``fn`` must not mutate it.
    """
    d = xs.shape[-1]
    if xs.size <= TILE_ELEMENTS:  # one tile: the whole matrix
        return fn(xs)
    out = np.empty(xs.shape[:-2] + (d,))
    for run in tiles(d, xs.size // d):
        out[..., run] = fn(xs[..., run])
    return out


def slice_means(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row of a (W, n) matrix (or stack) whose rows are sorted, the mean of ``rows[..., lo:hi]``.

    The slice goes back into a C-contiguous (hi - lo, W, ...) block summed along
    axis 0, so each value joins its row's sum in index order (numpy would sum a
    transposed view pairwise). A lone row (W = 1) is summed pairwise, stacked or not.
    """
    if rows.shape[-2] == 1:
        return rows[..., lo:hi].mean(axis=-1)
    return rows[..., lo:hi].T.copy().mean(axis=0).T


def sorted_slice_means(xs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per column of a checked (n, d) matrix (or stack), the mean of its sorted values at
    positions lo to hi - 1: ``np.sort(xs, axis=0)[lo:hi].mean(axis=0)``, bit for bit.

    Each column tile is sorted as the rows of its C-contiguous transpose.
    """

    def tile_means(tile: np.ndarray) -> np.ndarray:
        rows = np.swapaxes(tile, -1, -2).copy()
        rows.sort(axis=-1)
        return slice_means(rows, lo, hi)

    return columnwise(tile_means, xs)


class OverCopies:
    """A stage input of m + copies rows: m fixed rows over ``copies`` copies
    of one row w, as an attack search's candidates and NNM's output for them
    are. ``rows`` holds them all in order (an (m + copies, d) matrix, or a
    list of rows whose last ``copies`` entries are w). ``shared`` is the dict
    of the inputs that hold the same fixed rows: a stage keeps there what it
    computes from the fixed rows alone, and reuses it for every such input.

    Its rows are finite: w is checked here, and the maker of the fixed rows
    has checked them. A stage that does not use the shape reads the stacked
    rows through ``__array__`` inside its own ``as_vector_set``; a matrix
    ``rows`` is read as is, without a copy.
    """

    def __init__(self, rows, fixed: int, shared: dict):
        as_vector_set(rows[fixed][None])
        self.rows, self.fixed, self.shared = rows, fixed, shared

    def __len__(self) -> int:
        return len(self.rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.rows, dtype=dtype, copy=copy)

    def slice_means(self, lo: int, hi: int, dense) -> np.ndarray:
        """``dense``, a rule that averages the sorted positions lo to hi - 1 of
        each column, on the stacked rows, bit for bit.

        When that slice lies past the copies and inside the fixed rows, and
        rows have two coordinates or more (numpy sums a lone column pairwise,
        ``SortedColumns`` in order), the fixed rows are sorted once per
        ``shared`` dict and w is merged in. Where that mean is zero (the sort
        may have changed its sign), ``dense`` runs on the stacked rows of
        those columns; two columns at least, for the same reason.
        """
        m, w = self.fixed, self.rows[self.fixed]
        copies = len(self) - m
        if not copies <= lo < hi <= m or len(w) < 2:
            return dense(self)
        key = ("sorted", copies, lo, hi)
        if key not in self.shared:
            self.shared[key] = SortedColumns(self.rows[:m], copies, lo, hi)
        block = self.shared[key]
        out = block.means(w)
        zero = np.flatnonzero(out == 0)
        if zero.size:
            out[zero] = dense(block.stacked(w, np.resize(zero, max(2, zero.size))))[: zero.size]
        return out


class SortedColumns:
    """The merge entry of ``sorted_slice_means``: fixed (m, d) ``rows``, each
    column sorted once, stacked over ``copies`` copies of a row w that
    changes from call to call, for the sorted positions lo to hi - 1.

    ``means(w)`` equals ``sorted_slice_means(self.stacked(w, all columns),
    lo, hi)`` wherever that is not zero, when copies <= lo < hi <= m and
    d >= 2. With s a column's sorted fixed values, its merged value at
    position k is s[k - copies] if w <= s[k - copies], s[k] if s[k] <= w, and
    w otherwise. So a column whose fixed values all lie at or above w (or at
    or below it) keeps one slice of them whatever w is: those two slice means
    are computed once, and only the other columns are merged and summed, in
    order. A sum over sorted values depends only on the values kept, but for
    the sign of a zero sum: an unstable sort may keep -0.0 where the dense
    one kept +0.0. Memory is that of ``rows`` plus (m + 2) d.
    """

    def __init__(self, rows, copies: int, lo: int, hi: int):
        self.rows, self.copies, self.lo, self.hi = rows, copies, lo, hi
        m, d = len(rows), len(rows[0])
        # Row k holds each column's k-th smallest fixed value.
        self.sorted = np.empty((m, d))
        for run in tiles(d, m):
            tile = np.array([row[run] for row in rows]).T.copy()
            tile.sort(axis=1)
            self.sorted[:, run] = tile.T
        self.below_means = self.sorted[lo - copies : hi - copies].mean(axis=0)
        self.above_means = self.sorted[lo:hi].mean(axis=0)

    def stacked(self, w: np.ndarray, columns) -> np.ndarray:
        """``columns`` of the fixed rows stacked over the copies of ``w``, rows in their order."""
        return np.vstack([np.array([row[columns] for row in self.rows]), np.tile(w[columns], (self.copies, 1))])

    def means(self, w: np.ndarray) -> np.ndarray:
        """Per column, the mean of the merged sorted values at lo to hi - 1."""
        s, c, lo, hi = self.sorted, self.copies, self.lo, self.hi
        below = w <= s[0]
        out = np.where(below, self.below_means, self.above_means)
        inside = np.flatnonzero(~below & (w < s[-1]))
        if inside.size:
            fixed, v = s[:, inside], w[inside]
            total = np.maximum(fixed[lo - c], np.minimum(v, fixed[lo]))
            for k in range(lo + 1, hi):
                total += np.maximum(fixed[k - c], np.minimum(v, fixed[k]))
            out[inside] = total / (hi - lo)
        return out


def pairwise_sq_dists(xs) -> np.ndarray:
    """Matrix of squared Euclidean distances between all row pairs: ``xs``
    checked by ``as_vector_set``, then measured by ``trusted_pairwise_sq_dists``."""
    return trusted_pairwise_sq_dists(as_vector_set(xs))


def trusted_pairwise_sq_dists(xs: np.ndarray, rows=None) -> np.ndarray:
    """Squared distances from the rows ``rows`` (indices in any order, repeats allowed; None: all n) of an (n, d)
    float64 matrix (or one-block stack) the caller has validated to each of its rows: ``pairwise_sq_dists(xs)[rows]``.

    Entries come from explicit row differences, one per-pair reduction each, so they have the same bytes
    whichever rows are asked for: the matrix is exactly symmetric with an exactly zero diagonal. Temporaries
    hold at most ``BLOCK_ELEMENTS`` elements, or O(n^2 + TILE_ELEMENTS + d) past that budget, where up to half
    the rows are measured one by one and more rows come from one mirrored upper triangle (half their work).
    """
    n, d = xs.shape[-2:]
    count, rows = (n, slice(None)) if rows is None else (len(rows), np.asarray(rows, dtype=np.intp))
    if count * xs.size <= BLOCK_ELEMENTS:  # each asked row repeated n times, less the n rows: one flat subtraction
        diffs = np.repeat(xs[..., rows, :], n, axis=-2).reshape(*xs.shape[:-2], count, n * d)
        diffs -= xs.reshape(*xs.shape[:-2], 1, n * d)
        diffs = diffs.reshape(*xs.shape[:-2], count, n, d)
        return np.einsum("...ijk,...ijk->...ij", diffs, diffs)
    if 2 * count <= n:  # count < n, so rows were given as indices
        return np.array([sq_dists_to(xs[i], xs) for i in rows])
    out = np.zeros((n, n))
    for i in range(n - 1):
        out[i, i:] = sq_dists_to(xs[i], xs[i:])
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
    return out[rows]


def sq_dists_at(xs: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``trusted_pairwise_sq_dists(xs)[rows, columns]``, from the exact rows the entries lie in."""
    unique, at = np.unique(rows, return_inverse=True)
    return trusted_pairwise_sq_dists(xs, unique)[at, columns]


def sq_dists_to(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distance of each of two or more trusted ``rows`` to ``v``, each run of ``tiles(len(rows), d)``
    reduced as one (1, run, d) einsum tile."""
    m, d = rows.shape
    buffer = np.empty(min(m, tile_width(d) + 1) * d)
    out = np.empty(m)
    for run in tiles(m, d):
        diffs = buffer[: (run.stop - run.start) * d].reshape(1, -1, d)
        np.subtract(rows[run], v, out=diffs[0])
        out[run] = np.einsum("ijk,ijk->ij", diffs, diffs)[0]
    return out


def gram_sq_dists(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances D and a bound E on their error: ``trusted_pairwise_sq_dists(xs)`` and E = 0
    while its one-piece block fits in ``BLOCK_ELEMENTS``; past it, the Gram form s_i + s_j - 2 G_ij
    of G = xs xs^T, s = diag(G), with E >= |D - exact| where both are finite and E = inf wherever the
    exact kernel may overflow. With Higham's gamma_m ~ m u, u = 2^-53 (ch. 3), the entries of G in
    D_ij err by 2 gamma_d (s_i + s_j) in all, forming D_ij by 4 u (s_i + s_j) and the exact kernel by
    gamma_(d+2) D_ij <= 2 gamma_(d+2) (s_i + s_j); E is four times that, 16 (d + 2) u (s_i + s_j),
    plus 8 (d + 1) smallest normals for products that underflow."""
    n, d = xs.shape
    if block_rows(n * d) >= n:
        return trusted_pairwise_sq_dists(xs), np.zeros((n, n))
    with np.errstate(over="ignore"):
        gram = xs @ xs.T
    d2, err = _gram_form(gram, gram.diagonal()[:, None], gram.diagonal()[None, :], d)
    d2[np.diag_indices(n)] = err[np.diag_indices(n)] = 0.0
    return d2, err


def _gram_form(gram, rows_sq, cols_sq, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``gram_sq_dists``'s entries s_i + s_j - 2 G_ij and bound from inner products ``gram`` and
    squared norms ``rows_sq`` and ``cols_sq`` (broadcast against it) of d-long rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = rows_sq + cols_sq
        d2 = np.maximum(scale - 2.0 * gram, 0.0)
        err = 8.0 * scale * ((d + 2) * np.finfo(np.float64).eps) + 8 * (d + 1) * np.finfo(np.float64).tiny
    err[~np.isfinite(d2)] = np.inf  # inf too where 8 (s_i + s_j) overflows
    return d2, err


def gram_sq_dists_with_copy(block: tuple, honest: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and bounds as ``gram_sq_dists`` gives them, of trusted ``honest`` stacked over one row ``v``:
    ``block`` (``gram_sq_dists(honest)`` and the rows' squared norms) as is, and v's column in the Gram form
    past the block budget, from one product honest @ v in O(n d) time."""
    d2, err, sq_norms = block
    with np.errstate(over="ignore"):
        column, column_err = _gram_form(honest @ v, sq_norms, v @ v, honest.shape[1])
    return np.block([[d2, column[:, None]], [column, 0.0]]), np.block([[err, column_err[:, None]], [column_err, 0.0]])


def stable_head(keys: np.ndarray, bounds: np.ndarray, exact, need: int) -> np.ndarray:
    """Per row of ``keys`` (one row, or an (r, n) block), the first ``need`` positions of the stable argsort
    of exact keys, each within ``bounds`` of ``keys`` (zero: exact; a key or bound not finite, or within a
    factor 4 of overflow: anywhere). Sorted by lower end, intervals that overlap before ``need`` form
    clusters, each ordered by exact keys, which ``exact(rows, positions)`` gives at the block's entries
    (rows[k], positions[k]) for the members with non-zero bounds; with no such bound, none is asked for."""
    if not bounds.any():
        return np.argsort(keys, axis=-1, kind="stable")[..., :need]
    shape, (keys, bounds) = keys.shape, np.atleast_2d(keys, bounds)
    r, n = keys.shape
    with np.errstate(over="ignore", invalid="ignore"):
        unknown = ~np.isfinite(4.0 * (np.abs(keys) + bounds))
        lo = np.where(unknown, -np.inf, keys - bounds)
        hi = np.where(unknown, np.inf, keys + bounds)
    order = np.argsort(lo, axis=1, kind="stable")
    lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
    gaps = np.maximum.accumulate(hi, axis=1)[:, :-1] < lo[:, 1:]
    if gaps[:, :need].all():  # each of the first need intervals is a cluster of its own
        return order[:, :need].reshape(*shape[:-1], need)
    cluster = np.zeros((r, n), dtype=np.intp)
    np.cumsum(gaps, axis=1, out=cluster[:, 1:])
    size = np.bincount((cluster + n * np.arange(r)[:, None]).ravel(), minlength=r * n).reshape(r, n)
    redo = (cluster <= cluster[:, need - 1 : need]) & (np.take_along_axis(size, cluster, 1) > 1)
    redo &= np.take_along_axis(bounds, order, 1) != 0
    known = np.take_along_axis(keys, order, 1)
    if redo.any():
        known[redo] = exact(np.nonzero(redo)[0], order[redo])
    head = np.lexsort((order, known, cluster), axis=1)[:, :need]
    return np.take_along_axis(order, head, 1).reshape(*shape[:-1], need)


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
    return trusted_top_eigenpair(as_vector_set(xs), weights)


def trusted_top_eigenpair(xs: np.ndarray, weights=None) -> tuple[float, np.ndarray]:
    """``top_eigenpair`` of an (n, d) float64 matrix the caller has validated;
    ``weights`` are still checked."""
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
