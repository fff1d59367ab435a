"""The public surface: every name that a module's __all__ lists is defined there."""

import importlib
import pkgutil

import pytest

import defect_forge

MODULES = ["defect_forge"] + [f"defect_forge.{m.name}" for m in pkgutil.iter_modules(defect_forge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), "a name is listed twice"
    assert [n for n in listed if not hasattr(module, n)] == []
