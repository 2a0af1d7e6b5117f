import numpy as np
import pytest

from wienerchaos import chaos2, chaos3


def make_unit_alphas(rng, m=None):
    m = int(m if m is not None else rng.integers(1, 7))
    a = rng.standard_normal(m)
    while np.all(a == 0.0):
        a = rng.standard_normal(m)
    return chaos2.DiagonalSecondChaos(a, normalize=True)


def make_unit_tensor(rng, n=None):
    n = int(n if n is not None else rng.integers(3, 7))
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                if rng.random() < 0.7:
                    entries[(i, j, k)] = float(rng.standard_normal())
    if not entries:
        entries[(1, 2, 3)] = 1.0
    return chaos3.SymThreeTensor(n, entries, normalize=True)


@pytest.fixture
def unit_alphas_factory():
    return make_unit_alphas


@pytest.fixture
def unit_tensor_factory():
    return make_unit_tensor
