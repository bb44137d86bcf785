"""Every exported name resolves, so a stale export left by a move fails."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tauclass

MODULES = sorted(info.name for info in pkgutil.iter_modules(tauclass.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"tauclass.{name}")
    assert module.__all__, f"tauclass.{name} exports nothing"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(tauclass.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module(f"tauclass.{node.module}")
        for alias in node.names:
            if not hasattr(module, alias.name) or not hasattr(tauclass, alias.name):
                missing.append(f"{node.module}.{alias.name}")
    assert missing == []
