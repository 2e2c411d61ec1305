import numpy as np
import pytest

from latgauss import Basis
from latgauss.verify import random_basis  # noqa: F401  (re-exported for the tests)


@pytest.fixture
def z1():
    return Basis([[1]])


@pytest.fixture
def z2():
    return Basis([[1, 0], [0, 1]])


@pytest.fixture
def z3():
    return Basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture
def z4():
    return Basis([[int(i == j) for j in range(4)] for i in range(4)])


def make_rng(seed):
    return np.random.default_rng(seed)
