"""Linear-stability workbench for the sheared two-fluid MHD interface.

The package builds the closed-form linearized normal modes of a planar
vortex sheet between two ideal incompressible MHD fluids carrying
transverse magnetic fields, solves the associated two-phase interface
pressure problems, integrates the linearized evolution and evaluates
the growth functionals and stability criteria that quantify how the
streamwise instability survives a transverse field.
"""

from khlab.core import (
    PerturbationState,
    ShearParams,
    SpectralMode,
    TwoPhaseGridField,
    VerticalProfile,
    WaveVector,
)
from khlab.stability import (
    StabilityVerdict,
    check_syrovatskij,
    sen_gamma_squared,
    stability_map,
)
from khlab.eigenmodes import (
    ResidualReport,
    build_harmonic_potentials,
    build_linearized_mode,
    build_wall_bounded_profiles,
    verify_mode,
)
from khlab.pressure import (
    pressure_decomposition,
    solve_mode_interface_flux,
    solve_two_phase_poisson_fd,
)
from khlab.evolution import (
    BoundaryModeState,
    apply_A,
    boundary_dispersion,
    evolve_boundary_mode,
    evolve_state,
)
from khlab.functionals import (
    FunctionalReport,
    check_growth_corollary,
    check_proposition2,
    compute_functionals,
    decompose_perturbation,
    perturbed_initial_data,
)

__version__ = "0.1.0"

__all__ = [
    "PerturbationState", "ShearParams", "SpectralMode", "TwoPhaseGridField",
    "VerticalProfile", "WaveVector",
    "StabilityVerdict", "check_syrovatskij", "sen_gamma_squared", "stability_map",
    "ResidualReport", "build_harmonic_potentials", "build_linearized_mode",
    "build_wall_bounded_profiles", "verify_mode",
    "pressure_decomposition", "solve_mode_interface_flux", "solve_two_phase_poisson_fd",
    "BoundaryModeState", "apply_A", "boundary_dispersion", "evolve_boundary_mode",
    "evolve_state",
    "FunctionalReport", "check_growth_corollary", "check_proposition2",
    "compute_functionals", "decompose_perturbation", "perturbed_initial_data",
]
