"""End-to-end orchestration: spec -> profile/data -> constants -> run.

The flow mirrors how the theory is assembled: validate the coefficient
hypotheses, estimate the Poincare-type constant C* on the run grid,
check the smallness condition V(0) < 1/(4 C*), derive the multiplier
constants, then march with the full diagnostics recorder attached.
Runs whose coefficients fail the hypotheses (free waves, oversized
potentials) still execute; the constants they cannot define are left
unset and the dependent diagnostics carry NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config as cfg
from . import solver
from .coefficients import (
    CoefficientProfile,
    DataNorms,
    Grid,
    InitialData,
    ValidationReport,
    compute_data_norms,
    validate_hypotheses,
)
from .diagnostics import MultiplierConfig, Recorder, derive_multiplier_config
from .spectral import PoincareEstimate, estimate_c_star, poincare_problem


@dataclass
class LabRun:
    """Everything one simulation produced, constants included."""

    grid: Grid
    profile: CoefficientProfile
    data: InitialData
    validation: ValidationReport
    c_star_estimate: PoincareEstimate | None
    mc: MultiplierConfig | None
    norms: DataNorms | None
    result: solver.RunResult
    run_config: solver.RunConfig

    @property
    def c_star(self) -> float | None:
        return None if self.c_star_estimate is None else self.c_star_estimate.c_star

    @property
    def records(self):
        return self.result.records

    @property
    def termination(self) -> solver.Termination:
        return self.result.termination


def prepare_constants(
    profile: CoefficientProfile, data: InitialData
) -> tuple[ValidationReport, PoincareEstimate | None, MultiplierConfig | None,
           DataNorms | None]:
    """Estimate C* and derive the multiplier constants where the
    hypotheses allow it; never raises on a hypothesis failure."""
    report = validate_hypotheses(profile)
    coeff_names = (
        "A1_damping_bounded_nonnegative", "A2_damping_floor",
        "V1_potential_positive", "V2_potential_monotone",
    )
    coeffs_ok = all(report.check(n).passed for n in coeff_names)

    estimate = None
    mc = None
    if coeffs_ok:
        estimate = estimate_c_star(poincare_problem(profile.grid, profile.L))
        report = validate_hypotheses(profile, estimate.c_star)
        if report.passed:
            mc = derive_multiplier_config(profile, estimate.c_star)

    norms = None
    if bool(np.all(profile.V > 0.0)):
        norms = compute_data_norms(data, profile)
    return report, estimate, mc, norms


def execute(
    spec: cfg.RunSpec | None = None,
    *,
    profile: CoefficientProfile | None = None,
    data: InitialData | None = None,
    run_config: solver.RunConfig | None = None,
) -> LabRun:
    """Run a simulation from a parsed spec, or from prebuilt components
    (profile + data [+ run_config]) when driving the lab from code."""
    if spec is not None:
        grid, profile, data = cfg.build_problem(spec)
        run_config = cfg.run_config_from_spec(spec, profile, data)
    else:
        if profile is None or data is None:
            raise ValueError("execute needs either a spec or profile + data")
        grid = profile.grid
        if run_config is None:
            run_config = solver.RunConfig(profile=profile, data=data, t_end=50.0)

    validation, estimate, mc, norms = prepare_constants(profile, data)
    recorder = Recorder(profile, mc, data, norms)
    result = solver.run(run_config, recorder)
    return LabRun(
        grid=grid, profile=profile, data=data, validation=validation,
        c_star_estimate=estimate, mc=mc, norms=norms, result=result, run_config=run_config,
    )
