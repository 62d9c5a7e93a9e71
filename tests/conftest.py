import pytest

from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction


@pytest.fixture(scope="session")
def unram3():
    return standard_extensions(3)[0]


@pytest.fixture(scope="session")
def ram3():
    return standard_extensions(3)[1]


@pytest.fixture(scope="session")
def xi_unram3_c1(unram3):
    return enumerate_xi(unram3, 1, eta_restriction(unram3), regular_only=True)[0]


@pytest.fixture(scope="session")
def xi_ram3_c2(ram3):
    return enumerate_xi(ram3, 2, eta_restriction(ram3), regular_only=True)[0]

