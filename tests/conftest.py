import pytest

from oracles import make_unit_alphas, make_unit_tensor


@pytest.fixture
def unit_alphas_factory():
    return make_unit_alphas


@pytest.fixture
def unit_tensor_factory():
    return make_unit_tensor
