"""Every rfsearch module's public surface: each name in ``__all__`` resolves,
and ``from module import *`` succeeds."""

import importlib
import pkgutil

import pytest

import rfsearch

MODULES = ["rfsearch", *(f"rfsearch.{m.name}" for m in pkgutil.iter_modules(rfsearch.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})
