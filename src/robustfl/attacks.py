"""Gradient-space attacks emitted by an omniscient Byzantine adversary.

Every attack sees the full matrix of honest updates and produces a single
vector; the simulator submits f identical copies of it (a closed-form attack
maps an (r, m, d) stack to one per matrix). The two optimised variants
additionally see the server's aggregation pipeline and grid-search the factor
that displaces the aggregate the most.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .aggregators import Rule, RuleSpec, as_stack
from .config import Param, at_least
from .numerics import OverCopies, as_vector_set, columnwise
from .preaggregators import Pipeline

DEFAULT_IPM_SCALE = 0.9
DEFAULT_ALIE_SCALE = 1.5
DEFAULT_SCALE_GRID = tuple(0.25 * i for i in range(41))


def sign_flipping(honest) -> np.ndarray:
    """Negated mean of the honest updates."""
    return -as_stack(honest).mean(axis=-2)


class AffineBase(NamedTuple):
    """A scaled attack as ``parts(honest)``, computed once per search, and
    ``at(tau, *parts)``, its own arithmetic (m + tau * u can flip a zero's sign)."""

    parts: Callable[[np.ndarray], tuple]
    at: Callable[..., np.ndarray]


# A mean is one streaming pass; the std's temporaries stay in cache in column tiles.
_IPM = AffineBase(lambda honest: (honest.mean(axis=-2),), lambda tau, mean: -tau * mean)
_ALIE = AffineBase(lambda honest: (honest.mean(axis=-2), columnwise(lambda tile: tile.std(axis=-2), honest)),
                   lambda tau, mean, std: mean - tau * std)


def inner_product_manipulation(honest, tau: float = DEFAULT_IPM_SCALE) -> np.ndarray:
    """Mean of the honest updates scaled by -tau."""
    return _IPM.at(tau, *_IPM.parts(as_stack(honest)))


def a_little_is_enough(honest, tau: float = DEFAULT_ALIE_SCALE) -> np.ndarray:
    """Honest mean shifted down by tau times the per-coordinate std.

    The std is the population one (divide by n), so a single honest client
    yields the mean itself.
    """
    return _ALIE.at(tau, *_ALIE.parts(as_stack(honest)))


# The bases an Optimal_* attack can search over; a new one adds its row here.
AFFINE_BASES = {inner_product_manipulation: _IPM, a_little_is_enough: _ALIE}


@dataclass
class AttackContext:
    """What the adversary can see: honest updates, its own multiplicity, and
    the server's aggregation pipeline; ``cores`` is how many processes a search may use."""

    honest: np.ndarray
    f: int
    pipeline: Pipeline
    cores: int = 1


class OptimizedAttack(NamedTuple):
    """A search's winner: scale, vector, score, and the aggregate and pipeline clone of its candidate."""

    scale: float
    vector: np.ndarray
    score: float
    aggregate: np.ndarray
    pipeline: Pipeline


def optimize_attack_scale(
    ctx: AttackContext,
    base: Callable[[np.ndarray, float], np.ndarray],
    grid: Sequence[float] = DEFAULT_SCALE_GRID,
) -> OptimizedAttack:
    """Pick the grid point whose attack displaces the aggregate the most.

    Each candidate scale's f copies of ``base(honest, scale)`` go under the
    honest rows and through a clone of the pipeline (so stateful stages start
    alike); the score is the aggregate's distance to the honest mean, and ties
    go to the smallest scale. ``base`` needs a row in ``AFFINE_BASES``. Scale i
    goes to chunk i mod ``ctx.cores``: chunk 0 is scored here, each other one in
    a forked child (none where the platform cannot fork) that sends back its
    winner, or here if the child dies first. A chunk's candidates reach the
    pipeline as ``numerics.OverCopies`` sharing one dict. Winner and error (the
    earliest failing candidate's) are the serial search's. The returned vector
    is computed afresh; the returned aggregate and clone are, bit for bit and
    state for state, what the live pipeline gives for the honest rows over f
    copies of that vector and is left in. Nothing the caller passed is changed.
    Memory per process is O((n + f) (d + n)) plus ``BLOCK_ELEMENTS`` and the dict's O(n d).
    """
    if len(grid) == 0:
        raise ValueError("scale grid must be non-empty")
    honest = as_vector_set(ctx.honest)
    if ctx.f < 1:
        raise ValueError(f"optimizing an attack needs f >= 1, got f={ctx.f}")
    at_least(1).check(ctx.cores, "cores")
    if base not in AFFINE_BASES:
        raise ValueError(f"{base!r} has no row in AFFINE_BASES")
    parts, at = AFFINE_BASES[base].parts(honest), AFFINE_BASES[base].at
    honest_mean = honest.mean(axis=0)
    n = len(honest)

    def beats(found: tuple, best: tuple) -> bool:  # of two (score, index, ...), ``found`` met later in the grid
        return found[0] > best[0] or (found[0] == best[0] and grid[found[1]] < grid[best[1]])

    def score(chunk: range) -> tuple:
        """``chunk``'s first failure (index, exception) or None, and its winner (score, index, aggregate, clone)."""
        candidate = np.vstack([honest, np.empty((ctx.f, honest.shape[1]))])
        shared, best = {}, (-np.inf, None, None, None)
        for i in chunk:
            try:
                candidate[n:] = at(grid[i], *parts)
                pipeline = ctx.pipeline.clone()
                aggregate = pipeline(OverCopies(candidate, n, shared))
                found = (float(np.linalg.norm(aggregate - honest_mean)), i)
            except Exception as exc:  # noqa: BLE001 - raised below if no earlier candidate failed
                return (i, exc), best
            if beats(found, best):
                best = (*found, np.array(aggregate), pipeline)
        return None, best

    fork = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
    cores = min(ctx.cores, len(grid)) if fork else 1
    chunks, children = [range(k, len(grid), cores) for k in range(cores)], []
    try:
        for chunk in chunks[1:]:
            read, write = fork.Pipe(duplex=False)
            child = fork.Process(target=lambda c=chunk, w=write: w.send(score(c)))
            child.start()
            write.close()
            children.append((child, read, chunk))
        results = [score(chunks[0])]
        for _, read, chunk in children:
            try:
                results.append(read.recv())
            except Exception:  # noqa: BLE001 - the child died or its result did not arrive whole
                results.append(score(chunk))
    finally:
        for child, read, _ in children:
            read.close()
            child.terminate()
            child.join()
    failures = [failure for failure, _ in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    best = (-np.inf, None, None, None)
    for found in sorted((found for _, found in results if found[1] is not None), key=lambda found: found[1]):
        best = found if beats(found, best) else best
    best_score, index, aggregate, pipeline = best
    return OptimizedAttack(grid[index], at(grid[index], *parts), best_score, aggregate, pipeline)


def _optimal(base: Callable[[np.ndarray, float], np.ndarray]) -> Callable[[AttackContext], OptimizedAttack]:
    """The Optimal_* variant of ``base``: its search over the default grid."""
    return lambda ctx: optimize_attack_scale(ctx, base)


# A closed-form row takes the honest rows; a row that needs f takes the whole
# AttackContext (f and the server pipeline); LabelFlipping acts on client data
# inside the simulator and has no function here.
ATTACKS: dict[str, Rule] = {
    "SignFlipping": Rule(sign_flipping, footprint=np.multiply),
    "InnerProductManipulation": Rule(inner_product_manipulation, {"tau": Param(float)}, footprint=np.multiply),
    "ALittleIsEnough": Rule(a_little_is_enough, {"tau": Param(float)}, footprint=np.multiply),
    "Optimal_InnerProductManipulation": Rule(_optimal(inner_product_manipulation), needs_f=True),
    "Optimal_ALittleIsEnough": Rule(_optimal(a_little_is_enough), needs_f=True),
    "LabelFlipping": Rule(None),
}
ATTACK_NAMES = tuple(ATTACKS)


class AttackSpec(RuleSpec):
    """An attack, a row of ``ATTACKS``."""

    table = ATTACKS
    family = "attack"


def crafted(spec: AttackSpec, ctx: AttackContext) -> np.ndarray | OptimizedAttack:
    """Single Byzantine vector for a gradient-space attack (one per matrix of a
    stack), or, for an Optimal_* attack, the ``OptimizedAttack`` whose ``vector`` it is.

    The caller tiles the vector f times. LabelFlipping has no gradient-space
    form and is rejected here.
    """
    rule = ATTACKS[spec.name]
    if rule.fn is None:
        raise ValueError(f"{spec.name} acts on client data, not on gradients")
    if rule.needs_f:
        return rule.fn(ctx)
    return rule.fn(ctx.honest, **spec.parameters)
