"""Symplectic diagnostics of reaction bottlenecks near index-1 saddles.

Core pieces: Williamson spectra and ellipsoid capacities, normal-form width
and flux scales on the dividing surface, linear evolution of mixed balls with
saddle-plane shadow areas, finite-time transmission ensembles, and symplectic
integration of the Eckart-Morse(-Morse) Hamiltonian.
"""

from .errors import (
    BelowSaddleError,
    ConvergenceError,
    DefinitenessError,
    DimensionError,
    DivergenceError,
    LyapunovSignError,
    PreconditionError,
    RootBracketError,
    SamplingError,
    SpectrumError,
    SymmetryError,
    SympbError,
)
from .linalg import (
    ellipsoid_capacity,
    is_symplectic,
    random_symplectic,
    standard_j,
    symmetric_sqrt,
    symplectic_spectrum,
    symplectic_spectrum_blockdiag,
    symplecticity_defect,
)
from .models import (
    CnfModel,
    EckartMorseParams,
    barrier_x,
    builtin_cnf,
    cnf_from_obj,
    default_params,
    eckart_potential,
    effective_lyapunov,
    eval_cnf,
    eval_k0,
    eval_dk_di,
    full_hamiltonian,
    grad_potential,
    kinetic_energy,
    load_cnf_model,
    load_params,
    morse_potential,
    potential,
    velocities,
)
from .bottleneck import (
    FluxReport,
    WidthReport,
    action_volume_mc,
    candidate_width,
    energy_scan,
    j_max_cnf,
)
from .evolution import (
    ProjectionAreaCurve,
    default_tau_grid,
    evolved_shape_matrix,
    min_projection_area,
    radius_scan_curves,
    stm,
)
from .ensembles import (
    Ensemble,
    EnsembleSpec,
    TransmissionResult,
    default_delta_e,
    default_t_max,
    sample_ensemble,
    scan_report,
    transmission_fraction,
    transmission_scan,
    transmit,
)
from .integrators import (
    IntegratorConfig,
    TrajectoryRecord,
    ds_crossing_times,
    integrate,
    verlet_step,
)
from .matio import load_matrix, save_matrix
from .tables import ExperimentReport

__version__ = "0.1.0"
