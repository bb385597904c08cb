"""End-to-end orchestration: constants and diagnostics around one march.

A spec reaches a run by one route: config.build_problem() gives its
profile and data, config.run_config_from_spec() the RunConfig, and
execute() runs that RunConfig. Code that builds coefficients by hand
builds a solver.RunConfig and calls execute() the same way.

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

from . import solver
from .coefficients import (
    CoefficientProfile,
    DataNorms,
    InitialData,
    ValidationReport,
    compute_data_norms,
    validate_hypotheses,
)
from .diagnostics import MultiplierConfig, Recorder, derive_multiplier_config
from .spectral import PoincareEstimate, estimate_c_star, poincare_problem


@dataclass
class LabRun:
    """Everything one simulation produced, constants included; the
    profile and data are run_config's."""

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
    estimate = None
    mc = None
    if not report.failures:  # without C* only the coefficient checks can fail
        estimate = estimate_c_star(poincare_problem(profile.grid, profile.L))
        report = validate_hypotheses(profile, estimate.c_star)
        if report.passed:
            mc = derive_multiplier_config(profile, estimate.c_star)

    norms = None
    if bool(np.all(profile.V > 0.0)):
        norms = compute_data_norms(data, profile)
    return report, estimate, mc, norms


def execute(run_config: solver.RunConfig) -> LabRun:
    """March run_config with the constants and the full Recorder."""
    profile, data = run_config.profile, run_config.data
    validation, estimate, mc, norms = prepare_constants(profile, data)
    result = solver.run(run_config, Recorder(profile, mc, data, norms))
    return LabRun(validation=validation, c_star_estimate=estimate, mc=mc, norms=norms,
                  result=result, run_config=run_config)
