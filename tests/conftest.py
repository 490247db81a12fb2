"""Fixtures shared by the test modules."""
import pytest

from submaj.acceptance import run_acceptance


@pytest.fixture(scope="session")
def seed0_battery():
    """The acceptance battery at seed 0, run once for the whole session."""
    return run_acceptance(seed=0)
