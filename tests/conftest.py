import pytest
from hypothesis import settings

from vfdielectric.constants import load_constants

# every property runs the same examples on each run, with no time limit per example
settings.register_profile("vfdielectric", derandomize=True, deadline=None)
settings.load_profile("vfdielectric")


@pytest.fixture(scope="session")
def constants():
    return load_constants()
