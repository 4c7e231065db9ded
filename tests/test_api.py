"""The public names of every ``bctsim`` module resolve, and the package re-exports what its modules define."""

import ast
import importlib
from pathlib import Path

import pytest

import bctsim

MODULES = ("analysis", "cli", "geometry", "harness", "protocol", "qm")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bctsim.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"bctsim.{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", ("bctsim", *(f"bctsim.{m}" for m in MODULES)))
def test_star_import_succeeds(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def _reexports():
    """``(module, name)`` for every ``from .module import name`` in the package's ``__init__``."""
    tree = ast.parse(Path(bctsim.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_reexports_public_names():
    pairs = _reexports()
    assert {m for m, _ in pairs} == set(MODULES) - {"cli"}
    for module_name, name in pairs:
        module = importlib.import_module(f"bctsim.{module_name}")
        assert name in module.__all__, f"bctsim re-exports {name}, which bctsim.{module_name} does not list"
        assert getattr(bctsim, name) is getattr(module, name)
