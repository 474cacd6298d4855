import numpy as np
import pytest

from relucells.arrangement import enumerate_cells
from relucells.model import Dataset
from relucells.verify import random_generic_dataset  # noqa: F401  (tests import it from here)


def seeded_start(seed: int):
    """A stand-in for solver._initial: a standard Gaussian start drawn from
    the seed, so that a test can solve one program from two points."""
    def initial(program):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x501E]))
        return rng.standard_normal(program.A.shape[1])
    return initial


def same_bits(a, b) -> bool:
    """Equal values and equal sign bits, so -0.0 differs from 0.0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.fixture
def ds3():
    """Fixed generic d=1 dataset with three points."""
    return Dataset(np.array([[-1.0], [0.2], [1.1]]), np.array([0.5, -0.4, 0.8]))


@pytest.fixture
def ds2():
    return Dataset(np.array([[-0.6], [0.9]]), np.array([0.7, -0.3]))


@pytest.fixture
def dec3(ds3):
    return enumerate_cells(ds3)
