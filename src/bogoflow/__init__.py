"""Shell-elimination flow solver and exact oracle for the three-modes
pair-interaction condensate Hamiltonian.

The ground-state energy is the unique root of a one-dimensional
fixed-point function produced by eliminating occupation shells one at a
time; an independent tridiagonal eigensolver on the symmetric pair
sector certifies every number the flow produces.
"""

__version__ = "0.1.0"

from .flow import FlowDomainError, FlowTable, f_of_z, g_check, g_truncated
from .groundstate import (
    GroundStateVector,
    expand_ground_state,
    gamma_truncation_experiment,
    tail_series,
)
from .model import (
    AssumptionReport,
    CoefficientSet,
    ModelParams,
    SpectralWindow,
    bogoliubov_energy,
    check_assumptions,
    coefficient_set,
    inverse_n_coefficient,
    spectral_window,
)
from .oracle import (
    EigenPair,
    TridiagonalHamiltonian,
    build_sector_hamiltonian,
    eigen_residual,
    low_spectrum,
    lowest_eigenpair,
    schur_complement,
)
from .sequences import (
    accessori_identity_check,
    x_sequence,
    xtilde_sequence,
    y_closed_form,
    y_star_sequence,
)
from .spectrum import (
    BracketError,
    GroundEnergyResult,
    energy_cap,
    gap_floor,
    solve_fixed_point,
)

__all__ = [
    "AssumptionReport",
    "BracketError",
    "CoefficientSet",
    "EigenPair",
    "FlowDomainError",
    "FlowTable",
    "GroundEnergyResult",
    "GroundStateVector",
    "ModelParams",
    "SpectralWindow",
    "TridiagonalHamiltonian",
    "accessori_identity_check",
    "bogoliubov_energy",
    "build_sector_hamiltonian",
    "check_assumptions",
    "coefficient_set",
    "eigen_residual",
    "energy_cap",
    "expand_ground_state",
    "f_of_z",
    "g_check",
    "g_truncated",
    "gamma_truncation_experiment",
    "gap_floor",
    "inverse_n_coefficient",
    "low_spectrum",
    "lowest_eigenpair",
    "schur_complement",
    "solve_fixed_point",
    "spectral_window",
    "tail_series",
    "x_sequence",
    "xtilde_sequence",
    "y_closed_form",
    "y_star_sequence",
]
