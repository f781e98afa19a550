"""Pseudospectral solver for the vorticity dynamics around the two-jet zonal
flow on the unit sphere, with the reduced degree-2 system and rotating-frame
equivalence.  The independent references (Cartesian frames, the frame map)
and the integral-identity oracle suites live in sphkol.oracles, which no
solver module imports."""

from .harmonics import QuadratureGrid, build_grid, gauss_legendre, legendre_table, recurrence_table
from .operators import (
    KillingParams,
    convection,
    inverse_laplacian,
    laplacian,
    laplacian_power,
    linear_part,
)
from .oracles import frame_map, killing_advect, killing_identity_residual, killing_pairing_residuals
from .pde_solver import (
    IntegrationError,
    SolverConfig,
    TrajectoryRecord,
    default_dt,
    run,
    run_with_coupling,
    write_trajectory_csv,
)
from .reduced_ode import (
    MODE2_ORDER,
    ReducedSystem,
    build_system,
    equilibrium_closed_form,
    equilibrium_solve,
    extract_coupling,
    killing_degree2_matrix,
    propagate_exact,
    propagate_forced,
    rotating_equilibrium,
    rotating_frame_params,
)
from .sht import (
    GridField,
    MeanModeError,
    SpectralField,
    analyze,
    random_real_field,
    synthesize,
)

__version__ = "0.1.0"
