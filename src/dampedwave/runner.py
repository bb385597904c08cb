"""End-to-end orchestration: constants and diagnostics around one march.

A spec reaches a run by one route: config.build_problem() gives its
profile and data, config.run_config_from_spec() the RunConfig, and
execute() runs that RunConfig. Code that builds coefficients by hand
builds a solver.RunConfig and calls execute() the same way.

The RunConfig holds the checked data and their norms I0 (solver,
Validity); execute() adds the constants of the coefficients, as the
theory is assembled: validate the coefficient hypotheses, estimate the
Poincare-type constant C* on the run grid, check the smallness
condition V(0) < 1/(4 C*), derive the multiplier constants, then march
with the full diagnostics recorder attached. The LabRun it returns holds
each value once, in the object that made it.
Runs whose coefficients fail the hypotheses (free waves, oversized
potentials) still execute; the constants they cannot define are left
unset and the dependent diagnostics carry NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import solver
from .coefficients import CoefficientProfile, ValidationReport, validate_hypotheses
from .diagnostics import MultiplierConfig, Recorder, derive_multiplier_config
from .spectral import PoincareEstimate, estimate_c_star, poincare_problem


@dataclass
class LabRun:
    """Everything one simulation produced, constants included: the
    profile, data and norms are run_config's, the records and termination
    result's, C* c_star_estimate's (None where the hypotheses fail)."""

    validation: ValidationReport
    c_star_estimate: PoincareEstimate | None
    mc: MultiplierConfig | None
    result: solver.RunResult
    run_config: solver.RunConfig


def prepare_constants(
    profile: CoefficientProfile,
) -> tuple[ValidationReport, PoincareEstimate | None, MultiplierConfig | None]:
    """The hypothesis report, C* and the multiplier constants of a
    profile, the last two where the hypotheses allow them; never raises
    on a failed hypothesis check."""
    report = validate_hypotheses(profile)
    estimate = None
    mc = None
    if not report.failures:  # without C* only the coefficient checks can fail
        estimate = estimate_c_star(poincare_problem(profile.grid, profile.L))
        report = validate_hypotheses(profile, estimate.c_star)
        if report.passed:
            mc = derive_multiplier_config(profile, estimate.c_star)
    return report, estimate, mc


def execute(run_config: solver.RunConfig) -> LabRun:
    """March run_config with the constants and the full Recorder."""
    profile = run_config.profile
    validation, estimate, mc = prepare_constants(profile)
    result = solver.run(run_config, Recorder(profile, mc, run_config.data, run_config.norms))
    return LabRun(validation=validation, c_star_estimate=estimate, mc=mc, result=result,
                  run_config=run_config)
