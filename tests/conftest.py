import pytest

from vfdielectric.constants import load_constants


@pytest.fixture(scope="session")
def constants():
    return load_constants()
