"""Every advertised name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import trigpoly

MODULES = sorted(info.name for info in pkgutil.iter_modules(trigpoly.__path__))


def test_every_module_is_covered():
    assert {"approx", "bench", "cli", "coeffs", "intervals", "precision", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    # a star import raises AttributeError for any stale __all__ entry
    exec(f"from trigpoly.{name} import *", {})


def test_package_imports_exist():
    tree = ast.parse(Path(trigpoly.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"trigpoly.{module}"), name), (module, name)
        assert hasattr(trigpoly, name), name
