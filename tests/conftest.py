import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from trackbounds import Spec, WdTable, build_wd, make_grid, read_wd_table, timing

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


@pytest.fixture(scope="session", params=[
    (None, None, 5, 0.01, 100.0, 200),  # the worked example
    (0.25, 0.01, 10, 0.01, 100.0, 200),  # 60 pairs
    (None, None, 50, 0.01, 100.0, 1500),
    (None, None, 5, 1e-4, 1e4, 400),
    (0.25, 0.01, 7, 0.01, 100.0, 1500),  # 60 pairs, one multiplier a block
], ids=["example", "step-0.01-wi-10", "wi-50-points-1500", "wide-grid", "multiplier-blocks"])
def checked_family(request, example_wd_table):
    """(table, wi, grid) of the families the closed forms are checked on.

    The first and the wide grid fit one member block; the others span
    several, of one or more multipliers each.
    """
    mp, zeta_step, wi, w_min, w_max, points = request.param
    table = (example_wd_table if mp is None
             else build_wd(Spec(mp=mp, tr=5.0, ts=30.0, dev=0.03, wi=wi), zeta_step))
    assert mp is None or len(table) == 60
    return table, wi, make_grid(w_min, w_max, points)
