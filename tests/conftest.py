from fractions import Fraction

import pytest

from mlerisk.error_models import normal_error, skew_normal_error, student_t_error
from mlerisk.eta import build_eta_table


@pytest.fixture(scope="session")
def normal_table():
    return build_eta_table(normal_error())


@pytest.fixture(scope="session")
def t3_table():
    return build_eta_table(student_t_error(3))


@pytest.fixture(scope="session")
def sn3_table():
    return build_eta_table(skew_normal_error(3.0), tol=1e-11)


@pytest.fixture(scope="session")
def t21_5_table():
    return build_eta_table(student_t_error(Fraction(21, 5)))


@pytest.fixture(scope="session")
def t4_2_table():
    return build_eta_table(student_t_error(4.2))
