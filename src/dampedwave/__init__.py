"""Numerical laboratory for the 1D damped wave equation with potential:

    u_tt - u_xx + V(x) u + a(x) u_t = f(u)

with a short-range positive potential V and damping a active only
outside a compact core |x| <= L. The package builds the admissible
coefficient families, estimates the Poincare-type constant controlling
the admissible potential height, marches the linear and semilinear
Cauchy problems with an energy-faithful leapfrog scheme, evaluates the
multiplier functionals the decay proofs use, and fits the observed
decay rates against the claimed (1+t)^-1 energy law and the semilinear
(1+t)^-1/2 regime above the critical power p*(beta) = 5 + 2 beta.
"""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    check_gagliardo_nirenberg,
    check_lemma31,
    fit_decay,
    p_star,
    semilinear_sweep,
)
from .coefficients import (
    CoefficientProfile,
    DataNorms,
    Grid,
    InitialData,
    ValidationReport,
    build_damping_plateau,
    build_potential_example1,
    build_potential_gaussian,
    compute_data_norms,
    free_space_profile,
    gaussian_bump,
    make_initial_data,
    make_profile,
    polynomial_bump,
    validate_hypotheses,
)
from .diagnostics import (
    EnergyRecord,
    MultiplierConfig,
    Recorder,
    check_energy_identity,
    check_lemma21,
    check_lemma25,
    derive_multiplier_config,
    energy,
    g_k,
)
from .runner import LabRun, execute
from .solver import (
    RunConfig,
    RunResult,
    Termination,
    WaveState,
    cfl_timestep,
    run,
)
from .spectral import (
    PoincareEstimate,
    PoincareProblem,
    c_star_continuum,
    estimate_c_star,
    poincare_problem,
    verify_poincare_on_samples,
)

__all__ = [name for name in dir() if not name.startswith("_")]
