"""Symplectic diagnostics of reaction bottlenecks near index-1 saddles.

Core pieces: Williamson spectra and ellipsoid capacities, normal-form width
and flux scales on the dividing surface, linear evolution of mixed balls with
saddle-plane shadow areas, finite-time transmission ensembles, and symplectic
integration of the Eckart-Morse(-Morse) Hamiltonian.

Each library module's ``__all__`` is its public surface, and the package
re-exports exactly those names; ``kernels`` and ``cli`` keep theirs.
"""

from .errors import *
from .linalg import *
from .models import *
from .bottleneck import *
from .evolution import *
from .ensembles import *
from .integrators import *
from .matio import *
from .tables import *

__version__ = "0.1.0"
