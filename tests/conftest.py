import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustfl import aggregators, numerics, preaggregators

finite_elements = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
# Few distinct values, so rows repeat and distances tie.
tied_elements = st.one_of(finite_elements, st.sampled_from([0.0, 1.0, -2.5]))
multi_row_matrices = st.integers(2, 9).flatmap(
    lambda n: st.integers(1, 7).flatmap(lambda d: arrays(np.float64, (n, d), elements=tied_elements))
)
# Small integers and signed zeros, so columns hold duplicates, values tied
# across their median and -0.0 beside +0.0.
signed_elements = st.one_of(finite_elements, st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0]))
column_matrices = st.integers(2, 12).flatmap(
    lambda n: st.integers(1, 9).flatmap(lambda d: arrays(np.float64, (n, d), elements=signed_elements))
)
# Tile budgets: 1 gives two-item tiles, the middle ones cut the inputs here
# into uneven tiles, the last fits any of them in one.
tile_budgets = st.sampled_from([1, 5, 12, 1 << 40])


def gram_cases() -> dict[str, np.ndarray]:
    """Named (7, 5) inputs on which the Gram-form distances are hard to order:
    duplicate rows and f = 3 copies of one row, rows one ulp apart beside
    signed zeros, rows whose Gram entries overflow or whose products
    underflow, one row 1e8 times farther out than the rest, and rows 1e8
    from the origin, whose Gram-form distances keep no correct digit."""
    base = np.random.default_rng(107).normal(size=(7, 5))
    duplicates = base.copy()
    duplicates[1] = duplicates[0]
    duplicates[4:] = duplicates[3]
    ulps = np.tile(base[0], (7, 1))
    ulps[1::2] = np.nextafter(ulps[1::2], np.inf)
    ulps[2] = np.nextafter(ulps[2], -np.inf)
    ulps[:, 0] = [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0]
    far = base.copy()
    far[2] *= 1e8
    return {"duplicates": duplicates, "ulps": ulps, "overflow": np.sign(base) * 1e200,
            "underflow": np.sign(base) * 1e-160, "far": far, "offset": base + 1e8}


# Random tied matrices scaled to normal size, to where Gram entries underflow
# or overflow, and some shifted far from the origin.
scaled_matrices = st.tuples(
    multi_row_matrices, st.sampled_from([1.0, 1e-160, 1e200]), st.sampled_from([0.0, 0.0, 1e8])
).map(lambda case: case[0] * case[1] + case[2])


@st.composite
def merge_cases(draw):
    """(fixed, copies, w): fixed rows with d >= 2 and a row w to stack under
    them ``copies`` times. Per column, w lies below, above, at, between or
    on a signed zero beside the fixed values; column 0 is constant and
    column 1 holds zeros of both signs."""
    fixed = draw(column_matrices.filter(lambda xs: xs.shape[1] >= 2)).copy()
    m, d = fixed.shape
    fixed[:, 0] = fixed[0, 0]
    fixed[:, 1] = np.where(np.arange(m) % 2, 0.0, -0.0)
    w = np.empty(d)
    for j, column in enumerate(fixed.T):
        values = np.unique(column)
        w[j] = draw(st.sampled_from([
            column.min() - 1.5, column.max() + 2.0, column[draw(st.integers(0, m - 1), label="at")],
            (values[0] + values[-1]) / 2, 0.0, -0.0,
        ]), label=f"w[{j}]")
    return fixed, draw(st.integers(1, m - 1), label="copies"), w


@pytest.fixture
def exact_rows(monkeypatch) -> list:
    """The rows each ``numerics.trusted_pairwise_sq_dists`` call is asked for,
    one index array per call (all n rows when it is given none)."""
    calls, kernel = [], numerics.trusted_pairwise_sq_dists

    def recorded(xs, rows=None):
        calls.append(np.arange(len(xs)) if rows is None else np.asarray(rows))
        return kernel(xs, rows)

    monkeypatch.setattr(numerics, "trusted_pairwise_sq_dists", recorded)
    monkeypatch.setattr(aggregators, "trusted_pairwise_sq_dists", recorded)
    monkeypatch.setattr(preaggregators, "trusted_pairwise_sq_dists", recorded)
    return calls


@pytest.fixture
def x3() -> np.ndarray:
    return np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])


@pytest.fixture
def x4(x3) -> np.ndarray:
    # x3 plus its negated mean, the four-row set used by the trimming goldens.
    return np.vstack([x3, -x3.mean(axis=0)])


def random_vector_set(rng: np.random.Generator, n: int | None = None, d: int | None = None) -> np.ndarray:
    n = int(rng.integers(2, 9)) if n is None else n
    d = int(rng.integers(1, 6)) if d is None else d
    return rng.normal(size=(n, d)) * 10.0


def single_block(kernel, *args):
    """``kernel(*args)`` with a block budget no input here can exceed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_ELEMENTS", 1 << 40)
        return kernel(*args)


def in_blocks(kernel, rows: int, row_elements: int, *args):
    """``kernel(*args)`` with a budget of ``rows`` rows of ``row_elements``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_ELEMENTS", rows * row_elements)
        return kernel(*args)


def in_tiles(kernel, budget: int, *args):
    """``kernel(*args)`` with a tile budget of ``budget`` elements and a block
    budget no (n, n, d) tensor fits, so distance kernels take their tiled path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_ELEMENTS", 1)
        mp.setattr(numerics, "TILE_ELEMENTS", budget)
        return kernel(*args)
