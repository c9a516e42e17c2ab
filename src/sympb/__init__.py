"""Symplectic diagnostics of reaction bottlenecks near index-1 saddles.

Core pieces: Williamson spectra and ellipsoid capacities, normal-form width
and flux scales on the dividing surface, linear evolution of mixed balls with
saddle-plane shadow areas, finite-time transmission ensembles, and symplectic
integration of the Eckart-Morse(-Morse) Hamiltonian.

Each library module's ``__all__`` is its public surface, and the package
re-exports exactly those names; ``kernels`` and ``cli`` keep theirs.  The
namespace is filled on first use (PEP 562): ``import sympb`` loads no library
module, and the first lookup of a package-level name (``sympb.X``,
``from sympb import X``, ``from sympb import *``, ``dir(sympb)``) imports
the modules of ``_LIBRARY`` in order and binds each one's ``__all__``.  A
lookup of a submodule name imports only that submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the library modules whose __all__ the package re-exports, in binding order
_LIBRARY = ("errors", "linalg", "models", "bottleneck", "evolution", "ensembles",
            "integrators", "matio", "tables")


def _load() -> None:
    namespace = globals()
    for name in _LIBRARY:
        module = _import_module(f"{__name__}.{name}")
        namespace.update({n: getattr(module, n) for n in module.__all__})


def __getattr__(name: str):
    # ``from . import kernels`` inside a library module asks here first, so a
    # submodule must not load the library, whose modules may be half-imported
    if name.isidentifier():
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _load()
    return sorted(globals())
