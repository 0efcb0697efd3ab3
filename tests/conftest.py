"""Fixtures shared by every test module."""

import mpmath
import pytest

from powcert import quad


def clear_tables():
    """Empty the process's factor and corner table caches."""
    quad._trig_cache.clear()
    quad._corner_table.cache_clear()


@pytest.fixture(autouse=True)
def fresh_tables():
    # tables are cached per process: every test builds its own, and a test
    # that poisons a function making tables leaves no poisoned table behind
    clear_tables()
    yield
    clear_tables()


@pytest.fixture(autouse=True)
def mpmath_precision_kept():
    # a test that changes mpmath's working precision must restore it, or
    # the oracles of the tests after it run at the wrong precision
    dps = mpmath.mp.dps
    yield
    assert mpmath.mp.dps == dps, f"the test left mpmath.mp.dps at {mpmath.mp.dps}, not {dps}"
