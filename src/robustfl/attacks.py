"""Gradient-space attacks emitted by an omniscient Byzantine adversary.

Every attack sees the full matrix of honest updates and produces a single
vector; the simulator submits f identical copies of it. The two optimised
variants additionally see the server's aggregation pipeline and grid-search
the factor that displaces the aggregate the most.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import as_vector_set, pairwise_sq_dists, pairwise_sq_dists_with_copies
from .preaggregators import Pipeline

ATTACK_NAMES = (
    "SignFlipping",
    "InnerProductManipulation",
    "ALittleIsEnough",
    "Optimal_InnerProductManipulation",
    "Optimal_ALittleIsEnough",
    "LabelFlipping",
)

# Attacks computable from honest vectors alone (LabelFlipping instead acts on
# client data inside the simulator).
VECTOR_ATTACK_NAMES = ATTACK_NAMES[:5]

DEFAULT_IPM_SCALE = 0.9
DEFAULT_ALIE_SCALE = 1.5
DEFAULT_SCALE_GRID = tuple(0.25 * i for i in range(41))


def sign_flipping(honest) -> np.ndarray:
    """Negated mean of the honest updates."""
    return -as_vector_set(honest).mean(axis=0)


def inner_product_manipulation(honest, scale: float = DEFAULT_IPM_SCALE) -> np.ndarray:
    """Mean of the honest updates scaled by -scale."""
    return -scale * as_vector_set(honest).mean(axis=0)


def a_little_is_enough(honest, scale: float = DEFAULT_ALIE_SCALE) -> np.ndarray:
    """Honest mean shifted down by scale times the per-coordinate std.

    The std is the population one (divide by n), so a single honest client
    yields the mean itself.
    """
    honest = as_vector_set(honest)
    return honest.mean(axis=0) - scale * honest.std(axis=0)


@dataclass
class AttackContext:
    """What the adversary can see: honest updates, its own multiplicity, and
    the server's aggregation pipeline."""

    honest: np.ndarray
    f: int
    pipeline: Pipeline


class OptimizedAttack(NamedTuple):
    scale: float
    vector: np.ndarray
    score: float


def optimize_attack_scale(
    ctx: AttackContext,
    base: Callable[[np.ndarray, float], np.ndarray],
    grid: Sequence[float] = DEFAULT_SCALE_GRID,
) -> OptimizedAttack:
    """Pick the grid point whose attack displaces the aggregate the most.

    For each candidate scale the honest matrix is extended with f copies of
    ``base(honest, scale)`` and pushed through a clone of the pipeline; the
    score is the Euclidean distance between the aggregate and the honest mean.
    Cloning keeps stateful stages (clip memory, bucket shuffles) identical
    across candidates, so scoring is reproducible. Score ties resolve to the
    smallest scale.

    When the pipeline's first stage reads distances (NNM), the honest n x n
    block is computed once per call and each candidate's (n + f)^2 matrix is
    extended from it in O(n d) (``pairwise_sq_dists_with_copies``), bit for
    bit equal to ``pairwise_sq_dists(candidate)``; only that first stage gets
    it. Memory stays O((n + f) d + (n + f)^2) plus the kernels' block budget
    ``numerics.BLOCK_ELEMENTS``.
    """
    if len(grid) == 0:
        raise ValueError("scale grid must be non-empty")
    honest = as_vector_set(ctx.honest)
    if ctx.f < 1:
        raise ValueError(f"optimizing an attack needs f >= 1, got f={ctx.f}")
    honest_mean = honest.mean(axis=0)
    honest_sq_dists = pairwise_sq_dists(honest) if ctx.pipeline.takes_sq_dists else None
    best_scale = None
    best_score = -np.inf
    for scale in grid:
        v = base(honest, scale)
        candidate = np.vstack([honest, np.tile(v, (ctx.f, 1))])
        sq_dists = None if honest_sq_dists is None else pairwise_sq_dists_with_copies(honest_sq_dists, honest, v, ctx.f)
        aggregate = ctx.pipeline.clone()(candidate, sq_dists)
        score = float(np.linalg.norm(aggregate - honest_mean))
        if score > best_score or (score == best_score and scale < best_scale):
            best_score = score
            best_scale = scale
    return OptimizedAttack(best_scale, base(honest, best_scale), best_score)


@dataclass
class AttackSpec:
    """Declarative description of one attack."""

    name: str
    scale: float | None = None
    grid: tuple[float, ...] | None = None
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in ATTACK_NAMES:
            raise ValueError(f"unknown attack {self.name!r}; valid attacks: {', '.join(ATTACK_NAMES)}")
        if self.scale is None and "tau" in self.params:
            self.scale = float(self.params["tau"])
        if self.grid is not None and len(self.grid) == 0:
            raise ValueError("attack scale grid must be non-empty")


def attack_vector(spec: AttackSpec, ctx: AttackContext) -> np.ndarray:
    """Single Byzantine vector for a gradient-space attack.

    The caller tiles the result f times. LabelFlipping has no gradient-space
    form and is rejected here.
    """
    name = spec.name
    if name == "SignFlipping":
        return sign_flipping(ctx.honest)
    if name == "InnerProductManipulation":
        scale = DEFAULT_IPM_SCALE if spec.scale is None else spec.scale
        return inner_product_manipulation(ctx.honest, scale)
    if name == "ALittleIsEnough":
        scale = DEFAULT_ALIE_SCALE if spec.scale is None else spec.scale
        return a_little_is_enough(ctx.honest, scale)
    if name == "Optimal_InnerProductManipulation":
        grid = spec.grid if spec.grid is not None else DEFAULT_SCALE_GRID
        return optimize_attack_scale(ctx, inner_product_manipulation, grid).vector
    if name == "Optimal_ALittleIsEnough":
        grid = spec.grid if spec.grid is not None else DEFAULT_SCALE_GRID
        return optimize_attack_scale(ctx, a_little_is_enough, grid).vector
    raise ValueError(f"{name} acts on client data, not on gradients")
