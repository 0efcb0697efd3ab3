"""Every name a powcert module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import powcert

MODULES = ["powcert"] + [f"powcert.{m.name}" for m in pkgutil.iter_modules(powcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
