"""Every name that a sympb module lists in ``__all__`` exists in it, the
package publishes exactly those names of its library modules, plus its
submodules, its lazy namespace names every library module, every private
module-level function has a caller, every private module-level constant is
read only in its own module, the Monte-Carlo volume has one counting path,
and every finiteness check of a number is ``errors._finite``."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

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
    # dir() fills the lazy namespace, which vars() would read half empty
    public = {n for n in dir(sympb) if not n.startswith("_")} - submodules
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
    for n in dir(sympb):
        obj = getattr(sympb, n)
        mod = sys.modules.get(getattr(obj, "__module__", None))
        if not n.startswith("_") and n not in getattr(mod, "__all__", [n]):
            stale.append(n)
    assert stale == []


def test_the_lazy_namespace_names_every_library_module():
    # a library module left out of the tuple would drop out of the namespace
    assert sorted(f"sympb.{name}" for name in sympb._LIBRARY) == sorted(REEXPORTED)


def test_every_private_function_has_a_caller():
    # a private module-level function that no code of the package names is
    # dead; a name read inside the function's own body (recursion) or an
    # import of it is no caller, and nested closures are not checked
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(sympb.__file__).parent.glob("*.py"))}
    private, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            own = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and own.startswith("_") and not own.endswith("__")):
                private.append((module, own))
            read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    assert private
    assert [(module, name) for module, name in private if name not in read] == []


def test_private_constants_are_read_only_in_their_module():
    # a private module-level constant (an _UPPER name) is its module's own
    # decision; another module that reads it, as an attribute or by import,
    # splits that decision between two owners
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(sympb.__file__).parent.glob("*.py"))}
    owner = {}
    for module, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            owner.update({n.id: module for target in targets for n in ast.walk(target)
                          if isinstance(n, ast.Name) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", n.id)})
    assert owner
    foreign = []
    for module, tree in trees.items():
        for n in ast.walk(tree):
            names = ([n.attr] if isinstance(n, ast.Attribute)
                     else [a.name for a in n.names] if isinstance(n, ast.ImportFrom) else [])
            foreign += [(module, name) for name in names
                        if name in owner and owner[name] != module]
    assert foreign == []


# the wordings of errors._finite and errors._integer, and the ones they replaced
SCALAR_WORDINGS = ("must be a finite number", "must be a number", "must be an integer",
                   "must be a positive integer", "must be a non-negative integer")
# the wording of errors._elements, and the one of bottleneck's energy check
LIST_WORDINGS = ("must be one value or a 1-d list", "expected one energy or a 1-d array")


def test_scalar_checks_are_worded_only_in_errors():
    # errors.py is the one owner of what counts as a number; an inline check
    # elsewhere would spell one of these.  cli._env_seed words the parse of
    # the SYMPB_SEED text, which is not a number yet.
    found = []
    for path in sorted(Path(sympb.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.parse(path.read_text()).body:
            found += [(path.stem, getattr(node, "name", None), wording)
                      for n in ast.walk(node)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)
                      for wording in SCALAR_WORDINGS + LIST_WORDINGS if wording in n.value]
    assert found == [("cli", "_env_seed", "must be an integer")]


def test_only_the_owner_names_list_elements():
    # errors._elements names the lowest refused element of a list as
    # what[i]; a _finite or _integer call elsewhere whose name is an
    # f-string with a bracket is a list loop of its own
    found = []
    for path in sorted(Path(sympb.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id in ("_finite", "_integer")):
                continue
            what = n.args[1] if len(n.args) > 1 else next(
                (kw.value for kw in n.keywords if kw.arg == "what"), None)
            if isinstance(what, ast.JoinedStr) and any(
                    isinstance(part, ast.Constant) and "[" in part.value for part in what.values):
                found.append((path.stem, n.lineno))
    assert found == []


def test_derived_numbers_are_checked_by_the_owner():
    # a number derived from the arguments (a box volume, an energy window,
    # pi r^2, a step count) goes to errors._finite with a name saying what it
    # is; a math.isfinite elsewhere is a check worded of its own.  Array
    # scans with np.isfinite are not numbers and stay where they are.
    found = []
    for path in sorted(Path(sympb.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        found += [(path.stem, n.lineno) for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, ast.Attribute) and n.attr == "isfinite"
                  and isinstance(n.value, ast.Name) and n.value.id == "math"
                  or isinstance(n, ast.ImportFrom) and n.module == "math"
                  and any(alias.name == "isfinite" for alias in n.names)]
    assert found == []


def test_the_monte_carlo_volume_has_one_counting_path():
    # action_volume_mc and energy_scan count on one thread pool: the chunk
    # counter has one call site and the package builds one pool
    calls = []
    for path in sorted(Path(sympb.__file__).parent.glob("*.py")):
        calls += [n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                  for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))]
    assert calls.count("_chunk_hits") == 1
    assert calls.count("ThreadPoolExecutor") == 1
