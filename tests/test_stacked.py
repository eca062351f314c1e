"""Every stage the server pass runs once for a group of runs gives, for
each matrix of an (r, n, d) stack, the bytes of its lone call.

The stacks cover one coordinate (numpy reduces a one-coordinate gather
pairwise), duplicate rows and tied distances, Median columns whose central
mean is a signed zero, f = 0, and attack groups whose runs differ in f. A
stack a stage cannot read as it is (NaN or Inf, another dtype or memory order,
an empty axis) is rejected, as ``as_vector_set`` rejects such a matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfl import numerics
from robustfl.aggregators import AGGREGATORS, AggregatorSpec, make_aggregator
from robustfl.attacks import ATTACKS, AttackContext, AttackSpec, crafted
from robustfl.numerics import pairwise_sq_dists
from robustfl.preaggregators import PRE_AGGREGATORS, ConfiguredPreAggregator, PreAggregatorSpec


def stacking(table, n: int, d: int) -> list[str]:
    """The names of ``table`` whose rule stacks (n, d) matrices."""
    return [name for name, rule in table.items() if rule.most_stacked(n, d) > 1]


@st.composite
def stacks(draw):
    """A C-contiguous (r, n, d) stack: scaled normal rows, rows repeated, integers, or -1, -0.0, 0.0 and 1 only."""
    r, n = draw(st.integers(1, 5), label="r"), draw(st.integers(1, 9), label="n")
    d = draw(st.sampled_from([1, 2, 3, 7, 33]), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    xs = rng.standard_normal((r, n, d)) * 10.0 ** rng.integers(-3, 4, size=(r, n, 1))
    kind = draw(st.sampled_from(["scaled", "repeated", "integers", "signed zeros"]), label="kind")
    if kind == "repeated":
        xs = xs[:, rng.integers(0, n, size=n)]
    elif kind == "integers":
        xs = np.round(xs)
    elif kind == "signed zeros":
        xs = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=(r, n, d))
    return np.ascontiguousarray(xs)  # as the server pass stacks rows


def assert_each_is_lone(stacked: np.ndarray, lone) -> None:
    """Row k of ``stacked`` has the values and the bytes (signed zeros too) of ``lone(k)``."""
    for k, row in enumerate(stacked):
        alone = lone(k)
        np.testing.assert_array_equal(row, alone)
        assert row.tobytes() == np.asarray(alone).tobytes()


def test_the_sample_grid_stages_stack():
    assert stacking(ATTACKS, 10, 33) == ["SignFlipping", "InnerProductManipulation", "ALittleIsEnough"]
    assert stacking(AGGREGATORS, 12, 33) == ["Average", "Median", "TrMean"]
    assert stacking(PRE_AGGREGATORS, 12, 33) == ["NNM"]


@settings(deadline=None, max_examples=150)
@given(stacks(), st.data())
def test_a_stacked_aggregator_gives_each_matrix_its_lone_bytes(xs, data):
    r, n, d = xs.shape
    for name in stacking(AGGREGATORS, n, d):
        f = data.draw(st.integers(0, (n - 1) // 2), label=f"{name} f")
        stage = make_aggregator(AggregatorSpec(name, f=f))
        assert_each_is_lone(stage(xs), lambda k: stage(xs[k].copy()))


@settings(deadline=None, max_examples=150)
@given(stacks(), st.data())
def test_a_stacked_nnm_gives_each_matrix_its_lone_bytes(xs, data):
    r, n, d = xs.shape
    f = data.draw(st.integers(0, n - 1), label="f")
    stage = ConfiguredPreAggregator(PreAggregatorSpec("NNM", f=f))
    out = stage(xs)
    assert out.shape == xs.shape
    assert_each_is_lone(out.reshape(r, -1), lambda k: stage(xs[k].copy()).ravel())


@settings(deadline=None, max_examples=150)
@given(stacks(), st.data())
def test_a_stacked_attack_gives_each_run_its_lone_vector_whatever_its_f(xs, data):
    r, m, d = xs.shape
    fs = data.draw(st.lists(st.integers(1, 4), min_size=r, max_size=r), label="f per run")
    for name in stacking(ATTACKS, m, d):
        spec = AttackSpec(name, {"tau": data.draw(st.sampled_from([0.5, 1.5, 3.0]))} if ATTACKS[name].params else {})
        stacked = crafted(spec, AttackContext(xs, fs[0], None))
        assert_each_is_lone(stacked, lambda k: crafted(spec, AttackContext(xs[k].copy(), fs[k], None)))


@settings(deadline=None, max_examples=150)
@given(stacks(), st.data())
def test_nnm_gives_each_row_the_mean_of_its_gathered_neighbours(xs, data):
    # Each row's neighbours gathered and averaged along their axis, signed zeros included, stacked or not.
    r, n, d = xs.shape
    f = data.draw(st.integers(0, n - 1), label="f")
    stage = ConfiguredPreAggregator(PreAggregatorSpec("NNM", f=f))
    out = stage(xs)
    for k, x in enumerate(xs):
        near = np.argsort(pairwise_sq_dists(x), axis=1, kind="stable")[:, : n - f]
        assert out[k].tobytes() == x[near].mean(axis=1).tobytes()


@settings(deadline=None, max_examples=100)
@given(st.integers(9, 16), st.integers(0, 2**32 - 1), st.data())
def test_nnm_on_one_coordinate_keeps_the_gathers_pairwise_means(n, seed, data):
    # numpy sums a one-coordinate gather's neighbours pairwise; NNM keeps those bytes, stacked or not.
    f = data.draw(st.integers(0, n - 9), label="f")
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, 1)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    near = np.argsort(pairwise_sq_dists(xs), axis=1, kind="stable")[:, : n - f]
    expected = xs[near].mean(axis=1)
    stage = ConfiguredPreAggregator(PreAggregatorSpec("NNM", f=f))
    assert stage(xs).tobytes() == expected.tobytes()
    assert stage(np.stack([xs, xs[::-1]]))[0].tobytes() == expected.tobytes()


def test_nnm_on_a_stack_past_the_block_budget_gives_each_matrix_its_lone_bytes(monkeypatch):
    xs = np.random.default_rng(11).standard_normal((3, 7, 5))
    stage = ConfiguredPreAggregator(PreAggregatorSpec("NNM", f=2))
    alone = [stage(x.copy()) for x in xs]
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 7 * 7 * 5)  # one matrix's differences, not the stack's
    assert_each_is_lone(stage(xs), lambda k: alone[k])


def unreadable_stacks() -> dict[str, tuple[np.ndarray, str]]:
    """Named 3-D inputs no stage reads as a stack, each with the message it is rejected with."""
    xs = np.random.default_rng(5).standard_normal((3, 6, 4))
    nan, inf = xs.copy(), xs.copy()
    nan[1, 2, 3], inf[2, 0, 0] = np.nan, -np.inf
    layout = "C-contiguous float64 \\(r, n, d\\) stack"
    return {"nan": (nan, "NaN or Inf"), "inf": (inf, "NaN or Inf"), "float32": (xs.astype(np.float32), layout),
            "integers": (np.round(xs).astype(np.int64), layout), "fortran order": (np.asfortranarray(xs), layout),
            "strided": (xs[:, ::2], layout), "no rows": (xs[:, :0], layout)}


@pytest.mark.parametrize("case", list(unreadable_stacks()))
def test_every_stacked_stage_rejects_a_stack_it_cannot_read(case):
    xs, message = unreadable_stacks()[case]
    stages = [make_aggregator(AggregatorSpec(name, f=1)) for name in stacking(AGGREGATORS, 6, 4)]
    stages.append(ConfiguredPreAggregator(PreAggregatorSpec("NNM", f=1)))
    for name in stacking(ATTACKS, 6, 4):
        stages.append(lambda xs, spec=AttackSpec(name): crafted(spec, AttackContext(xs, 1, None)))
    for stage in stages:
        with pytest.raises(ValueError, match=message):
            stage(xs)
