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


# (owner, name) of each helper that went with the eigenvalue (delta-KS) path: no command reached them
RETIRED = [("manifest", "parse_eigenvalues"), ("thermo", "delta_ks"), ("optics", "relative_shift"),
           ("lattice", "frac_to_cart"), ("lattice", "cart_to_frac"), ("dose.DoseCurve", "interpolate")]


@pytest.mark.parametrize("owner, name", RETIRED)
def test_retired_name_is_gone(owner, name):
    module, _, cls = owner.partition(".")
    scope = importlib.import_module(f"defect_forge.{module}")
    assert name not in dir(getattr(scope, cls) if cls else scope)
    assert name not in dir(defect_forge)
    with pytest.raises(ImportError):
        exec(f"from defect_forge import {name}", {})
