"""Exports: every name a module lists in ``__all__`` exists, and the
package's public names are exactly its modules' star exports."""

import importlib
import pkgutil
import types

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
    # the package republishes these modules' star exports, and nothing else
    republished = ["errors", "graph", "elimtree", "flipgraph", "polymatroid", "reductions"]
    exported = set().union(
        *(_star_exports(importlib.import_module(f"gassoc.{m}")) for m in republished)
    )
    public = {
        name
        for name, value in vars(gassoc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported
