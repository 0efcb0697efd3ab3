"""Fixtures shared by every test module."""

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
