"""Spin-1/2 evolution in a slowly varying magnetic field.

Closed-form second-order adiabatic solutions for spinor and classical spin,
the associated phase corrections (dynamical, first- and second-order
geometric, and the exact non-adiabatic geometric phase), and a verification
harness that checks everything against exact integration and analytic
oracles.
"""

from .adiabatic_engine import (
    AdiabaticParams,
    QuasiStationary,
    SolutionConstants,
    classical_solution,
    quasi_stationary,
    spinor_solution,
    tracked_eigenvector,
)
from .errors import (
    ArcTooLong,
    BranchJump,
    ConfigError,
    DegenerateField,
    DomainError,
    GridTooCoarse,
    IoError,
    LoopNotClosed,
    NormalizationError,
    OverlapLoss,
    PerturbativeRegimeViolation,
    PoleSingularity,
    SpinPhaseError,
    StepSizeUnderflow,
)
from .exact_dynamics import (
    IntegratorConfig,
    Trajectory,
    bloch_series,
    bloch_to_spinor,
    exponential_midpoint_schrodinger,
    extract_total_phase,
    integrate_bloch,
    integrate_schrodinger,
    magnus4_schrodinger,
    spinor_to_bloch,
)
from .field_profiles import (
    FieldProfile,
    FieldSample,
    cone_3d,
    constant,
    is_in_plane,
    polynomial_angle,
    profile_from_dict,
    profile_to_dict,
    sample,
    sinusoidal_angle,
    uniform_rotation,
    user_tabulated,
)
from .geometric_phases import (
    MLoop,
    PhaseDecomposition,
    aa_geometric_phase_coordinate,
    aa_geometric_phase_solid_angle,
    berry_phi1,
    generalized_line_integral,
    loop_from_profile,
    phase_decomposition,
    phase_series,
    phi0,
    phi2,
    phi_dyn_expect,
    stokes_surface_integral,
)
from .verification import (
    ConvergenceReport,
    PhaseBudget,
    StokesRow,
    TimescaleDemo,
    check_horizon,
    run_convergence,
    run_phase_budget,
    run_stokes_check,
    run_timescale_demo,
    sinusoidal_family,
)

__version__ = "0.1.0"
