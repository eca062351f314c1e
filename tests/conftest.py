import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustfl import numerics

finite_elements = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
# Few distinct values, so rows repeat and distances tie.
tied_elements = st.one_of(finite_elements, st.sampled_from([0.0, 1.0, -2.5]))
multi_row_matrices = st.integers(2, 9).flatmap(
    lambda n: st.integers(1, 7).flatmap(lambda d: arrays(np.float64, (n, d), elements=tied_elements))
)


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
