"""Fixtures shared by every test module."""

import pytest

from powcert import interval, quad


def clear_tables():
    """Empty the process's factor table, corner table and residue caches."""
    for cache in (quad._trig_table, quad._corner_table, interval.sin_cos_pi):
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_tables():
    # tables are cached per process: every test builds its own, and a test
    # that poisons a function making tables leaves no poisoned table behind
    clear_tables()
    yield
    clear_tables()
