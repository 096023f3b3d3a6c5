"""Every name the package and its modules export resolves, and the package
exports exactly its modules' `__all__`s."""

import ast
import importlib
import pkgutil

import pytest

import bixsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(bixsim.__path__, "bixsim."))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bixsim import *", namespace)
    assert set(bixsim.__all__) <= set(namespace)
    assert len(set(bixsim.__all__)) == len(bixsim.__all__)


def test_package_exports_its_star_imported_modules_all():
    # each public name is declared once, in its module's __all__; the package
    # exports __version__ and those lists, in the order it star-imports them
    with open(bixsim.__file__) as fh:
        tree = ast.parse(fh.read())
    starred = [f"bixsim.{node.module}" for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"]
    assert starred
    expected = ["__version__"]
    for name in starred:
        expected += importlib.import_module(name).__all__
    assert bixsim.__all__ == expected


@pytest.mark.parametrize("name", ["bixsim"] + MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
