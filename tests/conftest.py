import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from trackbounds import Spec, WdTable, read_wd_table, timing

EXAMPLE_WD_PATH = os.path.join(os.path.dirname(__file__), "data", "example_wd_table.csv")


@pytest.fixture(autouse=True)
def fresh_unit_times():
    """Empty the crossing-time cache, so a test that patches the solver runs it."""
    timing._unit_times.cache_clear()


@pytest.fixture(scope="session")
def example_wd_path() -> str:
    return EXAMPLE_WD_PATH


@pytest.fixture(scope="session")
def example_wd_table() -> WdTable:
    """Ten (zeta, omega_n) pairs recovered from the worked example's family."""
    return read_wd_table(EXAMPLE_WD_PATH)


@pytest.fixture(scope="session")
def example_spec() -> Spec:
    """The worked example: 15% overshoot, 5 s rise, 30 s settle at 3%, wi=5."""
    return Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)
