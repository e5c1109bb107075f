import math

import numpy as np
import pytest

from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD,
                                       build_group_data, from_ints,
                                       stabilizer_data)
from selberg3.representation import congruence_table_rep
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


@pytest.fixture(scope="session")
def s3_table_rep():
    """The real 2-dimensional representation of PSL(2, Z[i]/(1+i)) = S3,
    by reflections on R and on J = [[0, -1], [1, 0]]."""
    th = 2 * math.pi / 3
    refl_a = np.array([[1, 0], [0, -1]], dtype=complex)
    refl_b = np.array([[math.cos(th), math.sin(th)],
                       [math.sin(th), -math.cos(th)]], dtype=complex)
    sigma = from_ints(PICARD.ring, (((0, 0), (-1, 0)), ((1, 0), (0, 0))))
    return congruence_table_rep(PICARD, (1, 1), [
        (stabilizer_data(PICARD).R, refl_a), (sigma, refl_b)])
