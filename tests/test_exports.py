"""Every name that a sympb module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import sympb

MODULES = ["sympb"] + [f"sympb.{m.name}" for m in pkgutil.iter_modules(sympb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    # a stale entry would break the star import
    exec(f"from {name} import *", {})

