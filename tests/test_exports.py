"""Every name a module exports resolves, so deleting code cannot leave a
stale entry in an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import entpost

MODULES = ["entpost"] + [f"entpost.{info.name}" for info in pkgutil.iter_modules(entpost.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
