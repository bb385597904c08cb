"""Acceptance gate: one test per criterion, at the stated tolerances.

The reference linear setup is the example-1 potential (V0 = 0.01,
beta = 2, L = 1) with a unit sharp damping plateau on [-60, 60] and a
gaussian displacement bump (amplitude 1e-3, width 1.5), velocity zero.
Each test prints a [criterion NN] PASS line on success.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import analysis, runner, solver
from dampedwave.coefficients import free_space_profile
from dampedwave.diagnostics import CSV_COLUMNS

from helpers import (
    LINEAR_DEMO_CFG,
    dense_c_star,
    example1_profile,
    lemma21_holds,
    max_identity_residual,
    reference_data,
    reference_run_config,
)
from theory import check_lemma31, verify_poincare_on_samples


def _announce(n, text):
    print(f"[criterion {n:02d}] {text}: PASS")


def reference_lab(n_cells, t_end):
    profile = example1_profile(dw.Grid(-60.0, 60.0, n_cells))
    data = reference_data(profile.grid)
    return runner.execute(reference_run_config(profile, data, t_end))


@pytest.fixture(scope="session")
def ref_50():
    t0 = time.perf_counter()
    lab = reference_lab(6000, 50.0)
    return lab, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ref_50_fine():
    return reference_lab(12000, 50.0)


@pytest.fixture(scope="session")
def ref_200():
    return reference_lab(6000, 200.0)


@pytest.fixture(scope="session")
def ref_400():
    return reference_lab(6000, 400.0)


def semilinear_lab(t_end):
    radius = 0.75 * np.sqrt(2.0 * np.log(1e14))
    grid = solver.domain_for_radius(radius, t_end, 0.02, 3.0)
    profile = example1_profile(grid)
    data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1.0, 0.75),
                                np.zeros(grid.n_nodes))
    data = analysis.scale_data_to_i0(data, profile, 9e-4)
    config = solver.RunConfig(profile=profile, data=data, t_end=t_end,
                              cfl=0.9, p=11.0, record_every=10)
    return runner.execute(config)


@pytest.fixture(scope="session")
def semi_100():
    t0 = time.perf_counter()
    lab = semilinear_lab(100.0)
    return lab, time.perf_counter() - t0


@pytest.fixture(scope="session")
def semi_200():
    return semilinear_lab(200.0)


@pytest.fixture(scope="session")
def hypothesis_passing_labs(ref_50, ref_50_fine, ref_200, ref_400, semi_100, semi_200):
    return {
        "ref_50": ref_50[0], "ref_50_fine": ref_50_fine, "ref_200": ref_200,
        "ref_400": ref_400, "semi_100": semi_100[0], "semi_200": semi_200,
    }


def test_criterion_01_energy_identity_residual_and_refinement(ref_50, ref_50_fine):
    lab, wall = ref_50
    residual = max_identity_residual(lab.records)
    assert residual < 1e-4, f"identity residual {residual:.3e} exceeds 1e-4"
    fine = max_identity_residual(ref_50_fine.records)
    ratio = residual / fine
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio:.3f} outside [3.5, 4.5]"
    assert wall < 30.0, f"reference run took {wall:.1f} s"
    _announce(1, f"identity residual {residual:.2e}, refinement ratio {ratio:.2f}, "
                 f"{wall:.1f} s")


def test_criterion_02_energy_decay_rate(ref_200, ref_400):
    def scaled_sup(lab, t_hi):
        t = np.array([r.t for r in lab.records])
        e = np.array([r.E_u for r in lab.records])
        sel = (t >= 10.0) & (t <= t_hi)
        return float(np.max(e[sel] * (1.0 + t[sel]))) / lab.norms.I0**2

    sup_200 = scaled_sup(ref_200, 200.0)
    sup_400 = scaled_sup(ref_400, 400.0)
    assert np.isfinite(sup_200) and sup_200 > 0
    change = abs(sup_400 - sup_200) / sup_200
    assert change < 0.10, f"scaled energy sup moved {change:.1%} under doubling"
    fit = dw.fit_decay(ref_200.records, "E_u", (10.0, 200.0))
    assert fit.exponent <= -0.9, f"energy exponent {fit.exponent:.3f} shallower than -0.9"
    _announce(2, f"sup E(1+t)/I0^2 = {sup_200:.3e} (doubling change {change:.2%}), "
                 f"exponent {fit.exponent:.2f}")


def test_criterion_03_l2_bound_stability(ref_200, ref_400):
    m200 = max(r.l2_u for r in ref_200.records) / ref_200.norms.I0
    m400 = max(r.l2_u for r in ref_400.records) / ref_400.norms.I0
    change = abs(m400 - m200) / m200
    assert change < 0.10, f"max ||u||/I0 moved {change:.1%} under doubling"
    _announce(3, f"max ||u||/I0 = {m200:.4f}, doubling change {change:.2%}")


def test_criterion_04_free_wave_growth():
    radius = 1.0 * np.sqrt(2.0 * np.log(1e-3 / 1e-14))
    grid = solver.domain_for_radius(radius, 100.0, 0.02, 3.0)
    profile = free_space_profile(grid)
    data = dw.make_initial_data(grid, np.zeros(grid.n_nodes),
                                dw.gaussian_bump(grid, 1e-3, 1.0))
    lab = runner.execute(reference_run_config(profile, data, 100.0))
    fit = dw.fit_decay(lab.records, "l2_u_sq", (10.0, 100.0))
    assert 0.9 <= fit.exponent <= 1.1, f"free-wave ||u||^2 exponent {fit.exponent:.3f}"
    _announce(4, f"free-wave ||u||^2 exponent {fit.exponent:.3f}")


def test_criterion_05_multiplier_functional_nonnegative(ref_200):
    gk = np.array([r.G_k for r in ref_200.records])
    floor = -1e-10 * gk[0]
    assert gk.min() >= floor, f"min G_k = {gk.min():.3e} below {floor:.3e}"
    _announce(5, f"min G_k / G_k(0) = {gk.min() / gk[0]:.3e} >= -1e-10")


def test_criterion_06_localized_norm_bound_all_runs(hypothesis_passing_labs):
    checked = 0
    for name, lab in hypothesis_passing_labs.items():
        assert lab.mc is not None, f"{name} unexpectedly failed hypotheses"
        for rec in lab.records:
            assert lemma21_holds(rec, lab.mc), f"violation in {name} at t={rec.t}"
            checked += 1
    _announce(6, f"local L2 bound held at all {checked} records of "
                 f"{len(hypothesis_passing_labs)} runs")


def test_criterion_07_poincare_constant_oracle_and_samples():
    problem = dw.poincare_problem(dw.Grid(-40.0, 40.0, 512), 1.0)
    estimate = dw.estimate_c_star(problem)
    dense = dense_c_star(problem)
    rel = abs(estimate.c_star - dense) / dense
    assert rel < 1e-6, f"closed-form vs dense C* differ by {rel:.2e}"
    report = verify_poincare_on_samples(estimate, 1000, seed=42)
    assert report.threshold == estimate.c_star * (1.0 + 1e-8)
    assert report.violations == 0, f"{report.violations} sample violations"
    _announce(7, f"C* = {estimate.c_star:.9f} (oracle agreement {rel:.1e}), "
                 f"1000 samples max ratio {report.max_ratio:.4f}")


def test_criterion_08_accumulated_field_identity(ref_50, ref_200, ref_400):
    residual = max(r.lemma25_residual for r in ref_50[0].records)
    assert residual < 1e-3, f"accumulated-field residual {residual:.2e}"
    r200 = np.nanmax([r.lemma25_ratio for r in ref_200.records])
    r400 = np.nanmax([r.lemma25_ratio for r in ref_400.records])
    # the proof constant is 2; a divergent ratio would roughly double when
    # t_end doubles, so a 50% drift cap separates convergence from growth
    assert r200 <= 2.0 and r400 <= 2.0
    drift = abs(r400 - r200) / r200
    assert drift < 0.50, f"bound ratio drifted {drift:.1%} under doubling"
    _announce(8, f"identity residual {residual:.2e}, bound ratio {r200:.3f} -> "
                 f"{r400:.3f} (both below 2)")


def test_criterion_09_convolution_inequality():
    good = check_lemma31(1.5, t_max=1000.0)
    assert abs(good.rel_change) < 0.01, f"theta=1.5 sup moved {good.rel_change:.2%}"
    bad = check_lemma31(1.0, t_max=1000.0)
    assert bad.rel_change > 0.05, f"theta=1.0 sup moved only {bad.rel_change:.2%}"
    _announce(9, f"theta=1.5 sup {good.sup_value:.6f} (change {good.rel_change:.3%}); "
                 f"theta=1.0 grows {bad.rel_change:.1%}")


def test_criterion_10_semilinear_global_regime(semi_100, semi_200):
    lab, wall = semi_100
    assert lab.termination.kind == solver.COMPLETED
    assert lab.norms.I0 <= 1e-3
    assert wall < 60.0, f"semilinear run took {wall:.1f} s"
    fit = dw.fit_decay(lab.records, "energy_norm", (10.0, 100.0))
    assert fit.exponent <= -0.4, f"energy-norm exponent {fit.exponent:.3f}"
    m100 = max(r.l2_u for r in lab.records) / lab.norms.I0
    m200 = max(r.l2_u for r in semi_200.records) / semi_200.norms.I0
    change = abs(m200 - m100) / m100
    assert change < 0.10
    assert semi_200.termination.kind == solver.COMPLETED
    _announce(10, f"p=11 global, energy-norm exponent {fit.exponent:.2f}, "
                  f"||u||/I0 doubling change {change:.2%}, {wall:.1f} s")


def test_criterion_11_critical_exponent_values():
    assert dw.p_star(2.0) == 9.0
    assert dw.p_star(0.0) == 5.0
    _announce(11, "p*(2) = 9 and p*(0) = 5 exactly")


def test_criterion_12_solver_convergence_against_dalembert():
    def error(n_cells):
        grid = dw.Grid(-12.0, 12.0, n_cells)
        profile = free_space_profile(grid)
        u0 = lambda x: 1e-3 * np.exp(-(x**2) / (2 * 0.5**2))
        data = dw.make_initial_data(grid, u0(grid.x), np.zeros(grid.n_nodes))
        result = solver.run(solver.RunConfig(profile=profile, data=data,
                                             t_end=5.0, cfl=0.9, record_every=1))
        exact = 0.5 * (u0(grid.x - 5.0) + u0(grid.x + 5.0))
        return np.sqrt(grid.integrate((result.final_state.u - exact) ** 2))

    e1, e2, e3 = error(600), error(1200), error(2400)
    r1, r2 = e1 / e2, e2 / e3
    assert 3.5 <= r1 <= 4.5, f"first refinement ratio {r1:.3f}"
    assert 3.5 <= r2 <= 4.5, f"second refinement ratio {r2:.3f}"
    _announce(12, f"d'Alembert error ratios {r1:.2f}, {r2:.2f}")


def test_criterion_13_determinism_byte_identical_csv(tmp_path):
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(LINEAR_DEMO_CFG)
    for out in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "dampedwave.cli", "run", str(config_path),
             "--out", str(tmp_path / out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    csv_a = (tmp_path / "a" / "demo.csv").read_bytes()
    csv_b = (tmp_path / "b" / "demo.csv").read_bytes()
    assert csv_a == csv_b
    header = csv_a.decode().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    _announce(13, f"two invocations byte-identical ({len(csv_a)} bytes)")
