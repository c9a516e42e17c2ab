"""Every name that a sympb module lists in ``__all__`` exists in it, and the
package publishes exactly those names of its library modules, plus its
submodules."""

import importlib
import pkgutil
import sys

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


# modules whose public names stay in the module: the array kernels and the CLI
NOT_REEXPORTED = {"sympb.kernels", "sympb.cli", "sympb.__main__"}


REEXPORTED = [m for m in MODULES[1:] if m not in NOT_REEXPORTED]


def test_package_publishes_exactly_its_modules_all():
    # a module without __all__ would leak its imports and helpers through the
    # star import; a name in two lists would be shadowed by the later module
    listed = {}
    for name in REEXPORTED:
        mod = importlib.import_module(name)
        for n in getattr(mod, "__all__", ()):
            assert n not in listed, f"{n} is listed by two modules"
            listed[n] = getattr(mod, n)
    submodules = {m.name for m in pkgutil.iter_modules(sympb.__path__)}
    public = {n for n in vars(sympb) if not n.startswith("_")} - submodules
    assert sorted(public) == sorted(listed)
    assert [n for n, obj in listed.items() if getattr(sympb, n) is not obj] == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_module_names_are_reexported(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if getattr(sympb, n, None) is not getattr(mod, n)] == []


def test_package_names_are_listed_by_their_module():
    # the reverse: a re-exported name stays in its module's __all__, where it has one
    stale = []
    for n, obj in vars(sympb).items():
        mod = sys.modules.get(getattr(obj, "__module__", None))
        if not n.startswith("_") and n not in getattr(mod, "__all__", [n]):
            stale.append(n)
    assert stale == []
