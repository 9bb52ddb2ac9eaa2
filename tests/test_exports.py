"""Every name in a qf2 module's __all__ exists."""

import importlib
import pkgutil

import pytest

import qf2

MODULES = ["qf2"] + [f"qf2.{m.name}" for m in pkgutil.iter_modules(qf2.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
