"""Exports: every name a module lists in ``__all__`` exists, and every name
the package re-exports is exported by the module it comes from."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gassoc

MODULES = sorted(m.name for m in pkgutil.iter_modules(gassoc.__path__))


def _star_exports(module) -> set[str]:
    """The names ``from module import *`` binds."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"gassoc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(gassoc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gassoc.{node.module}")
        names = {alias.name for alias in node.names}
        assert names <= _star_exports(module), node.module
