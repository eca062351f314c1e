"""Gradient-space attacks emitted by an omniscient Byzantine adversary.

Every attack sees the full matrix of honest updates and produces a single
vector; the simulator submits f identical copies of it. The two optimised
variants additionally see the server's aggregation pipeline and grid-search
the factor that displaces the aggregate the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .aggregators import Rule, RuleSpec
from .config import Param
from .numerics import as_vector_set, columnwise
from .preaggregators import NeighbourMeans, Pipeline

DEFAULT_IPM_SCALE = 0.9
DEFAULT_ALIE_SCALE = 1.5
DEFAULT_SCALE_GRID = tuple(0.25 * i for i in range(41))


def sign_flipping(honest) -> np.ndarray:
    """Negated mean of the honest updates."""
    return -as_vector_set(honest).mean(axis=0)


class AffineBase(NamedTuple):
    """A scaled attack as ``parts(honest)``, computed once per search, and
    ``at(tau, *parts)``, its own arithmetic (m + tau * u can flip a zero's sign)."""

    parts: Callable[[np.ndarray], tuple]
    at: Callable[..., np.ndarray]


# A mean is one streaming pass; the std's temporaries stay in cache in column tiles.
_IPM = AffineBase(lambda honest: (honest.mean(axis=0),), lambda tau, mean: -tau * mean)
_ALIE = AffineBase(lambda honest: (honest.mean(axis=0), columnwise(lambda tile: tile.std(axis=0), honest)),
                   lambda tau, mean, std: mean - tau * std)


def inner_product_manipulation(honest, tau: float = DEFAULT_IPM_SCALE) -> np.ndarray:
    """Mean of the honest updates scaled by -tau."""
    return _IPM.at(tau, *_IPM.parts(as_vector_set(honest)))


def a_little_is_enough(honest, tau: float = DEFAULT_ALIE_SCALE) -> np.ndarray:
    """Honest mean shifted down by tau times the per-coordinate std.

    The std is the population one (divide by n), so a single honest client
    yields the mean itself.
    """
    return _ALIE.at(tau, *_ALIE.parts(as_vector_set(honest)))


# The bases an Optimal_* attack can search over; a new one adds its row here.
AFFINE_BASES = {inner_product_manipulation: _IPM, a_little_is_enough: _ALIE}


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

    Each candidate scale's f copies of ``base(honest, scale)`` go under the
    honest rows and through a clone of the pipeline (so stateful stages start
    alike); the score is the aggregate's distance to the honest mean, and ties
    go to the smallest scale. The honest rows are checked, and ``base``'s
    ``AFFINE_BASES`` parts computed, once per search; each candidate writes
    its f rows into one reused (n + f, d) buffer, and the pipeline's first
    stage checks those rows. The candidates share one ``NeighbourMeans`` memo:
    an NNM first stage computes the honest distance block once, extends it in
    O(n d) per candidate, and reuses honest-only neighbour means. When the
    last stage is a sorted-slice rule (Median, TrMean) fed by NNM or by
    nothing, the rows that reach it are the same fixed block over copies of
    one row for every candidate whose honest neighbour lists stay honest:
    that block is sorted once, and each such candidate merges its one row in.
    Buffer and memo die with the call; the returned vector is computed
    afresh. Memory is O((n + f) (d + n)) plus ``numerics.BLOCK_ELEMENTS`` and
    the memo's O(n d).
    """
    if len(grid) == 0:
        raise ValueError("scale grid must be non-empty")
    honest = as_vector_set(ctx.honest)
    if ctx.f < 1:
        raise ValueError(f"optimizing an attack needs f >= 1, got f={ctx.f}")
    if base not in AFFINE_BASES:
        raise ValueError(f"{base!r} has no row in AFFINE_BASES")
    parts, at = AFFINE_BASES[base].parts(honest), AFFINE_BASES[base].at
    honest_mean = honest.mean(axis=0)
    n = len(honest)
    candidate = np.vstack([honest, np.empty((ctx.f, honest.shape[1]))])
    memo = NeighbourMeans(n)
    best_scale = None
    best_score = -np.inf
    for scale in grid:
        candidate[n:] = at(scale, *parts)
        aggregate = ctx.pipeline.clone()(candidate, memo)
        score = float(np.linalg.norm(aggregate - honest_mean))
        if score > best_score or (score == best_score and scale < best_scale):
            best_score = score
            best_scale = scale
    return OptimizedAttack(best_scale, at(best_scale, *parts), best_score)


def _optimal(base: Callable[[np.ndarray, float], np.ndarray]) -> Callable[..., np.ndarray]:
    """The Optimal_* variant of ``base``: its vector at the best scale of the default grid."""
    return lambda ctx: optimize_attack_scale(ctx, base).vector


# A closed-form row takes the honest rows; a row that needs f takes the whole
# AttackContext (f and the server pipeline); LabelFlipping acts on client data
# inside the simulator and has no function here.
ATTACKS: dict[str, Rule] = {
    "SignFlipping": Rule(sign_flipping),
    "InnerProductManipulation": Rule(inner_product_manipulation, {"tau": Param(float)}),
    "ALittleIsEnough": Rule(a_little_is_enough, {"tau": Param(float)}),
    "Optimal_InnerProductManipulation": Rule(_optimal(inner_product_manipulation), needs_f=True),
    "Optimal_ALittleIsEnough": Rule(_optimal(a_little_is_enough), needs_f=True),
    "LabelFlipping": Rule(None),
}
ATTACK_NAMES = tuple(ATTACKS)


class AttackSpec(RuleSpec):
    """An attack, a row of ``ATTACKS``."""

    table = ATTACKS
    family = "attack"


def attack_vector(spec: AttackSpec, ctx: AttackContext) -> np.ndarray:
    """Single Byzantine vector for a gradient-space attack.

    The caller tiles the result f times. LabelFlipping has no gradient-space
    form and is rejected here.
    """
    rule = ATTACKS[spec.name]
    if rule.fn is None:
        raise ValueError(f"{spec.name} acts on client data, not on gradients")
    if rule.needs_f:
        return rule.fn(ctx)
    return rule.fn(ctx.honest, **spec.parameters)
