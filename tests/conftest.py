"""Fixtures and settings shared by the test modules."""
import pytest
from hypothesis import settings

from submaj.acceptance import run_acceptance

# Every property draws the same examples on every run (seeded from the test
# function), so whether a change is caught does not depend on the run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def seed0_battery():
    """The acceptance battery at seed 0, run once for the whole session."""
    return run_acceptance(seed=0)
