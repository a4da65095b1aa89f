"""Shell-elimination flow solver and exact oracle for the three-modes
pair-interaction condensate Hamiltonian.

The ground-state energy is the unique root of a one-dimensional
fixed-point function produced by eliminating occupation shells one at a
time; an independent tridiagonal eigensolver on the symmetric pair
sector certifies every number the flow produces.
"""

__version__ = "0.1.0"

from .flow import FlowDomainError, FlowTable, f_of_z, g_check, g_truncated, w_product
from .groundstate import (
    GroundStateVector,
    TruncationBounds,
    eigen_residual,
    expand_ground_state,
    gamma_truncation_experiment,
    kz_truncation_bounds,
    tail_series,
)
from .model import (
    AssumptionReport,
    CoefficientSet,
    FlowConfig,
    ModelParams,
    SpectralWindow,
    bogoliubov_energy,
    check_assumptions,
    coefficient_set,
    spectral_window,
)
from .oracle import (
    EigenPair,
    TridiagonalHamiltonian,
    build_sector_hamiltonian,
    dense_crosscheck,
    low_spectrum,
    lowest_eigenpair,
    schur_complement,
)
from .sequences import (
    BoundSequences,
    StreamedSequenceSummary,
    accessori_identity_check,
    bound_sequences,
    x_sequence,
    x_sequence_terminal,
    xtilde_sequence,
    y_closed_form,
    y_star_sequence,
)
from .spectrum import (
    BracketError,
    ErrorBudget,
    GapReport,
    GroundEnergyResult,
    energy_error_diagnostic,
    gap_bound_check,
    solve_fixed_point,
)

__all__ = [
    "AssumptionReport",
    "BoundSequences",
    "BracketError",
    "CoefficientSet",
    "EigenPair",
    "ErrorBudget",
    "FlowConfig",
    "FlowDomainError",
    "FlowTable",
    "GapReport",
    "GroundEnergyResult",
    "GroundStateVector",
    "ModelParams",
    "SpectralWindow",
    "StreamedSequenceSummary",
    "TridiagonalHamiltonian",
    "TruncationBounds",
    "accessori_identity_check",
    "bogoliubov_energy",
    "bound_sequences",
    "build_sector_hamiltonian",
    "check_assumptions",
    "coefficient_set",
    "dense_crosscheck",
    "eigen_residual",
    "energy_error_diagnostic",
    "expand_ground_state",
    "f_of_z",
    "g_check",
    "g_truncated",
    "gamma_truncation_experiment",
    "gap_bound_check",
    "kz_truncation_bounds",
    "low_spectrum",
    "lowest_eigenpair",
    "schur_complement",
    "solve_fixed_point",
    "spectral_window",
    "tail_series",
    "w_product",
    "x_sequence",
    "x_sequence_terminal",
    "xtilde_sequence",
    "y_closed_form",
    "y_star_sequence",
]
