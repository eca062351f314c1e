"""Independent reference implementations used as test oracles.

Everything here is written directly from the contracts, favoring the most
literal (and slow) formulation available: explicit loops, full covariance
matrices, exhaustive enumeration. None of it shares code with the package
under test beyond calling the public API where the oracle's job is to
re-check an output (finite differences, re-scoring) or to replay a
superseded loop over the package's own distance matrix, which a vectorised
rule must then match bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from robustfl.numerics import pairwise_sq_dists


def naive_pairwise_sq_dists(xs: np.ndarray) -> np.ndarray:
    n = xs.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum((xs[i, k] - xs[j, k]) ** 2 for k in range(xs.shape[1]))
    return out


def covariance_eigh(xs: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of the weighted
    population covariance, via a dense eigensolver on the explicit d x d
    matrix."""
    w = np.ones(xs.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    total = w.sum()
    mu = (w @ xs) / total
    centered = xs - mu
    cov = (centered * w[:, None]).T @ centered / total
    return np.linalg.eigh(cov)


def covariance_top_eigenvalue(xs: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Largest eigenvalue of the weighted population covariance."""
    return float(covariance_eigh(xs, weights)[0][-1])


def naive_caf(xs: np.ndarray, f: int, max_steps: int = 50, floor: float = 1e-12) -> np.ndarray:
    """CAF with each pass's top principal direction taken from the dense
    eigendecomposition of the explicit d x d weighted covariance."""
    n = xs.shape[0]
    w = np.ones(n)
    mu = xs.mean(axis=0)
    for _ in range(max_steps):
        total = w.sum()
        if total <= 0.0:
            return mu
        mu = (w @ xs) / total
        if n - total >= f or np.count_nonzero(w) <= 1:
            return mu
        eigenvalues, eigenvectors = covariance_eigh(xs, w)
        if eigenvalues[-1] <= floor:
            return mu
        tau = ((xs - mu) @ eigenvectors[:, -1]) ** 2
        w = w * (1.0 - tau / tau.max())
    total = w.sum()
    return (w @ xs) / total if total > 0 else mu


def brute_mda(xs: np.ndarray, f: int) -> np.ndarray:
    """Smallest-diameter subset mean, ordering diameter ties by the full
    descending profile of pairwise squared distances and then by index set."""
    n = xs.shape[0]
    best_subset = None
    best_profile = None
    for subset in itertools.combinations(range(n), n - f):
        profile = sorted(
            (float(np.sum((xs[i] - xs[j]) ** 2)) for i, j in itertools.combinations(subset, 2)),
            reverse=True,
        ) or [0.0]
        if best_profile is None or profile < best_profile:
            best_profile = profile
            best_subset = subset
    return xs[list(best_subset)].mean(axis=0)


def brute_smea(xs: np.ndarray, f: int) -> np.ndarray:
    n = xs.shape[0]
    best_subset = None
    best_eig = math.inf
    for subset in itertools.combinations(range(n), n - f):
        eig = covariance_top_eigenvalue(xs[list(subset)])
        if eig < best_eig:
            best_eig = eig
            best_subset = subset
    return xs[list(best_subset)].mean(axis=0)


def naive_multi_krum(xs: np.ndarray, f: int) -> np.ndarray:
    n = xs.shape[0]
    scores = []
    for i in range(n):
        dists = sorted(
            (float(np.sum((xs[i] - xs[j]) ** 2)), j) for j in range(n) if j != i
        )
        scores.append(sum(d for d, _ in dists[: n - f - 1]))
    chosen = sorted(range(n), key=lambda i: (scores[i], i))[: n - f]
    return xs[chosen].mean(axis=0)


def loop_multi_krum(xs: np.ndarray, f: int) -> np.ndarray:
    """MultiKrum scored row by row: drop the row's own entry from its distance
    row, sort the rest and add up the n - f - 1 smallest. Same arithmetic as
    the package's one-sort version, so the two must agree bit for bit."""
    n = xs.shape[0]
    d2 = pairwise_sq_dists(xs)
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(d2[i], i)
        order = np.argsort(others, kind="stable")
        scores[i] = others[order[: n - f - 1]].sum()
    chosen = np.argsort(scores, kind="stable")[: n - f]
    return xs[chosen].mean(axis=0)


def naive_meamed(xs: np.ndarray, f: int) -> np.ndarray:
    n, d = xs.shape
    out = np.empty(d)
    for k in range(d):
        column = xs[:, k]
        med = float(np.median(column))
        order = sorted(range(n), key=lambda i: (abs(column[i] - med), i))
        out[k] = column[order[: n - f]].mean()
    return out


def naive_trmean(xs: np.ndarray, f: int) -> np.ndarray:
    d = xs.shape[1]
    out = np.empty(d)
    for k in range(d):
        kept = sorted(xs[:, k].tolist())
        kept = kept[f : len(kept) - f] if f else kept
        out[k] = sum(kept) / len(kept)
    return out


def naive_nnm(xs: np.ndarray, f: int) -> np.ndarray:
    n = xs.shape[0]
    out = np.empty_like(xs)
    for i in range(n):
        order = sorted(range(n), key=lambda j: (float(np.sum((xs[i] - xs[j]) ** 2)), j))
        out[i] = xs[order[: n - f]].mean(axis=0)
    return out


def naive_geometric_median(xs: np.ndarray, max_steps: int = 100, rtol: float = 1e-8, eps: float = 1e-12) -> np.ndarray:
    """Smoothed Weiszfeld iteration carried out on d-dimensional points:
    distances measured directly to the iterate, stopping once the step falls
    below ``rtol`` times the farthest distance, then replaced by the best
    input row if one has a strictly smaller summed distance."""
    v = xs.mean(axis=0)
    for _ in range(max_steps):
        dists = np.linalg.norm(xs - v, axis=1)
        inv = 1.0 / np.maximum(dists, eps)
        v_new = (inv[:, None] * xs).sum(axis=0) / inv.sum()
        step = float(np.linalg.norm(v_new - v))
        v = v_new
        if step <= rtol * float(dists.max()):
            break
    best_row = min(range(len(xs)), key=lambda i: geometric_median_objective(xs[i], xs))
    if geometric_median_objective(xs[best_row], xs) < geometric_median_objective(v, xs):
        return xs[best_row].copy()
    return v


def geometric_median_objective(v: np.ndarray, xs: np.ndarray) -> float:
    return float(sum(np.linalg.norm(v - row) for row in xs))


def fd_gradient(loss_fn, flat: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of the flat params."""
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        hi = loss_fn(bumped)
        bumped[i] -= 2 * step
        lo = loss_fn(bumped)
        grad[i] = (hi - lo) / (2 * step)
    return grad


def rescore_attack_grid(pipeline_factory, honest: np.ndarray, f: int, base_fn, grid) -> tuple[float, float]:
    """Exhaustive grid re-scoring: returns (best_factor, best_score) with
    ties resolved toward the smallest factor. ``pipeline_factory`` builds a
    fresh pipeline per candidate so stateful rules cannot leak between
    evaluations."""
    honest_mean = honest.mean(axis=0)
    best_factor, best_score = None, -math.inf
    for factor in grid:
        rows = np.vstack([honest] + [base_fn(honest, factor)] * f)
        score = float(np.linalg.norm(pipeline_factory()(rows) - honest_mean))
        if score > best_score:
            best_factor, best_score = factor, score
    return best_factor, best_score


def label_histogram_l1_spread(assignments, labels: np.ndarray, n_classes: int) -> float:
    """Mean over clients of the L1 gap between client and global label mix."""
    global_hist = np.bincount(labels, minlength=n_classes) / labels.size
    gaps = []
    for idx in assignments:
        client = labels[idx]
        hist = np.bincount(client, minlength=n_classes) / client.size
        gaps.append(float(np.abs(hist - global_hist).sum()))
    return sum(gaps) / len(gaps)
