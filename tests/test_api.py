"""Every name the package and its modules export resolves."""

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


@pytest.mark.parametrize("name", ["bixsim"] + MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
