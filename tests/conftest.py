import pytest

from selberg3.arithmetic_group import EISENSTEIN_GROUP, PICARD, build_group_data
from selberg3.transform import resolvent_pair


@pytest.fixture(scope="session")
def picard_data():
    return build_group_data(PICARD, height=6, norm_bound=14.0)


@pytest.fixture(scope="session")
def eisenstein_data():
    return build_group_data(EISENSTEIN_GROUP, height=6, norm_bound=14.0)


@pytest.fixture(scope="session")
def triple():
    return resolvent_pair(2.0, 3.0)
