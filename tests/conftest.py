import pytest

from bskit.embedding import enumerate_ball
from bskit.presentation import make_bs, make_matrix_group

# Data for the differential tests beyond one ascending datum: n = 1 with
# lambda = 2/3, -1 and -1 (det B < 0), the non-ascending Z^2 datum with
# det B = -2, and a non-commuting n = 3 datum with det A = -3, det B = 7.
GENERAL_DATA = {
    "bs23": make_bs(2, 3),
    "bs2m2": make_bs(2, -2),
    "bs1m1": make_bs(1, -1),
    "z2_nonasc": make_matrix_group([[2, 1], [0, 2]], [[1, 1], [1, -1]]),
    "z3": make_matrix_group([[1, 1, 0], [0, 1, 1], [1, 0, -4]],
                            [[2, 0, 1], [1, 1, 0], [0, 1, 3]]),
}

# GENERAL_DATA plus lambda = 1/2, 3/5, -2/3 and 3/2 (both determinants
# negative), with small balls: where the per-vertex affine map is checked
# against the per-element fold.
IMAGE_DATA = {**GENERAL_DATA, "bs12": make_bs(1, 2), "bs35": make_bs(3, 5),
              "bsm23": make_bs(-2, 3), "bsm3m2": make_bs(-3, -2)}

# The ascending HNN of Z^2: A = [[2,1],[0,2]], B = identity.
ASC2 = make_matrix_group([[2, 1], [0, 2]], [[1, 0], [0, 1]])


class CountingPairs(dict):
    """lam_int that counts its lookups: one per step along a tree edge."""

    lookups = 0

    def __getitem__(self, eps):
        self.lookups += 1
        return super().__getitem__(eps)


def counting_spec(spec):
    fresh = make_matrix_group(spec.A, spec.B)
    fresh.lam_int = CountingPairs(fresh.lam_int)
    return fresh


@pytest.fixture(scope="session")
def image_balls():
    return {name: (spec, enumerate_ball(6 if spec.n == 1 else 3, spec))
            for name, spec in IMAGE_DATA.items()}


@pytest.fixture(scope="session")
def bs23():
    return make_bs(2, 3)


@pytest.fixture(scope="session")
def bs12():
    return make_bs(1, 2)


@pytest.fixture(scope="session")
def bs52():
    return make_bs(5, 2)


@pytest.fixture(scope="session")
def asc2():
    return ASC2


@pytest.fixture(scope="session")
def bs23_ball6(bs23):
    return enumerate_ball(6, bs23)


@pytest.fixture(scope="session")
def bs23_ball10(bs23):
    return enumerate_ball(10, bs23)


@pytest.fixture(scope="session")
def bs12_ball10(bs12):
    return enumerate_ball(10, bs12)


@pytest.fixture(scope="session")
def asc2_ball5(asc2):
    return enumerate_ball(5, asc2)
