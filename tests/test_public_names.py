"""The public surface: every name that a module's __all__ lists is defined there, retired
names stay gone, and a record's ValidationError is located in its file in one place."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import defect_forge

MODULES = ["defect_forge"] + [f"defect_forge.{m.name}" for m in pkgutil.iter_modules(defect_forge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), "a name is listed twice"
    assert [n for n in listed if not hasattr(module, n)] == []


# (owner, name) of each retired helper: those of the eigenvalue (delta-KS) path, which no command
# reached, and the second classifier that `classify` replaced
RETIRED = [("manifest", "parse_eigenvalues"), ("thermo", "delta_ks"), ("optics", "relative_shift"),
           ("lattice", "frac_to_cart"), ("lattice", "cart_to_frac"), ("dose.DoseCurve", "interpolate"),
           ("dose", "classify_with_segment")]


@pytest.mark.parametrize("owner, name", RETIRED)
def test_retired_name_is_gone(owner, name):
    module, _, cls = owner.partition(".")
    scope = importlib.import_module(f"defect_forge.{module}")
    assert name not in dir(getattr(scope, cls) if cls else scope)
    assert name not in dir(defect_forge)
    with pytest.raises(ImportError):
        exec(f"from defect_forge import {name}", {})


def _str_exc_parse_errors(node, function=None):
    """The enclosing function of each `raise ParseError(str(...), ...)` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
            func, args = child.exc.func, child.exc.args
            if (getattr(func, "id", getattr(func, "attr", None)) == "ParseError" and args
                    and isinstance(args[0], ast.Call) and getattr(args[0].func, "id", None) == "str"):
                yield function
        yield from _str_exc_parse_errors(child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_only_at_turns_a_validation_error_into_a_parse_error():
    """io_formats._at is the one place where a caught error's text is re-raised with a file:line."""
    found = {(path.stem, function)
             for path in sorted(Path(defect_forge.__file__).parent.glob("*.py"))
             for function in _str_exc_parse_errors(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("io_formats", "_at")}
