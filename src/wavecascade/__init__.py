"""Numerical laboratory for 2-coupled cascade wave systems on (0, 1).

The package represents scalar fields in the Dirichlet sine eigenbasis and
provides, on top of an exactly reversible cascade solver: observability
Gramians and their spectra, the closed-form constant chain of the two-level
energy argument with an inequality-by-inequality audit, exact control
synthesis by duality (one dense solve of the control Gramian on adjoint
data), and the construction and verification of insensitizing controls for
the scalar wave equation.
"""

from .errors import RefusalError, ValidationError
from .spectral import (
    CoefficientFunction,
    IndicatorFunction,
    ModalCoefficients,
    PlateauBump,
    SpectralSpace,
    apply_fractional_power,
    assemble_multiplication_matrix,
    project,
    sobolev_norm,
)
from .dynamics import (
    CascadeState,
    CascadeTrajectory,
    ComponentState,
    CouplingOperator,
    Observer,
    TimeGrid,
    evolve_cascade,
    evolve_cascade_backward,
    evolve_forced_scalar,
)
from .observability import (
    AuditRow,
    ObservabilityConstants,
    admissibility_constant,
    empirical_horizon,
    empirical_ratios,
    estimate_uniform_constants,
    gcc_min_time,
    gramian_matrix,
    inequality_chain_audit,
    min_eigenvalue,
)
from .hum import (
    HUMProblem,
    HUMSolution,
    TimeSampledControl,
    apply_hum_gramian,
    assemble_rhs,
    controlled_forward,
    dense_hum_matrix,
    solve_hum,
    verify_transposition,
)
from .insensitize import (
    InsensitizeCertificate,
    InsensitizeProblem,
    insensitize,
    phi_functional,
    verify_converse,
)

__version__ = "0.1.0"
