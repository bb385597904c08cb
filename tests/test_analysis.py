import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave import analysis
from dampedwave.analysis import (
    SweepBase, _run_sweep_cell, _sweep_cell, interpolation_ratio, scale_data_to_i0,
)
from dampedwave.diagnostics import EnergyRecord
from dampedwave.errors import ConfigError, FitError, HypothesisError

from helpers import example1_profile


def synthetic_records(func, t_values):
    """Minimal records carrying only the fields the fitter reads."""
    out = []
    for t in t_values:
        q = func(t)
        out.append(EnergyRecord(
            t=t, E_u=q, energy_norm=math.sqrt(q), l2_u=math.sqrt(q), l2_local=0.0,
            dissipation_cum=0.0, G_k=0.0, identity_residual=0.0, lemma25_lhs=0.0,
            lemma25_rhs=0.0, lemma25_residual=0.0, lemma25_ratio=0.0, au2=0.0,
            au2_cum=0.0))
    return out


class TestFitDecay:
    def test_exact_power_law(self):
        records = synthetic_records(lambda t: (1.0 + t) ** -1.0, np.linspace(0, 100, 200))
        fit = dw.fit_decay(records, "E_u", (0.0, 100.0), claimed_rate=1.0)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
        assert fit.r_squared > 1.0 - 1e-9
        assert fit.sup_scaled == pytest.approx(1.0, rel=1e-12)

    def test_growth_sign_convention(self):
        records = synthetic_records(lambda t: (1.0 + t) ** 0.5, np.linspace(0, 100, 150))
        fit = dw.fit_decay(records, "E_u", (0.0, 100.0))
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)

    def test_derived_square_quantity(self):
        # records carry l2_u = sqrt(E_u), so the derived square decays like E_u
        records = synthetic_records(lambda t: (1.0 + t) ** -1.0, np.linspace(0, 50, 120))
        fit = dw.fit_decay(records, "l2_u_sq", (0.0, 50.0))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)

    def test_short_window_rejected(self):
        records = synthetic_records(lambda t: 1.0 / (1.0 + t), np.linspace(0, 100, 50))
        with pytest.raises(FitError):
            dw.fit_decay(records, "E_u", (99.0, 100.0))
        with pytest.raises(FitError):
            dw.fit_decay(records, "no_such_field", (0.0, 100.0))

    def test_no_finite_values_rejected(self):
        # G_k of a hypothesis-failing run (e.g. a free wave) is all NaN
        records = synthetic_records(lambda t: 1.0 / (1.0 + t), np.linspace(0, 100, 50))
        records = [dataclasses.replace(r, G_k=float("nan")) for r in records]
        with pytest.raises(FitError):
            dw.fit_decay(records, "G_k", (10.0, 100.0))

    def test_negative_value_rejected(self):
        # one negative sample used to be clipped to the floor and fitted
        records = synthetic_records(lambda t: 1.0 / (1.0 + t), np.linspace(0, 100, 50))
        records[30] = dataclasses.replace(records[30], E_u=-1e-3)
        with pytest.raises(FitError, match="E_u"):
            dw.fit_decay(records, "E_u", (10.0, 100.0))

    def test_exact_zero_keeps_floor(self):
        records = synthetic_records(lambda t: 1.0 / (1.0 + t), np.linspace(0, 100, 50))
        records[30] = dataclasses.replace(records[30], E_u=0.0)
        fit = dw.fit_decay(records, "E_u", (10.0, 100.0))
        assert np.isfinite(fit.exponent) and fit.exponent < -1.0


class TestPStar:
    def test_paper_values(self):
        assert dw.p_star(2.0) == 9.0
        assert dw.p_star(0.0) == 5.0
        assert dw.p_star(3.0) == 11.0

    @settings(max_examples=50, derandomize=True)
    @given(beta=st.floats(0.0, 50.0))
    def test_affine_with_slope_two(self, beta):
        assert dw.p_star(beta + 1.0) - dw.p_star(beta) == pytest.approx(2.0, abs=1e-12)


class TestLemma31:
    def test_quadrature_against_closed_form(self):
        # theta = 3/2 integrates in closed form: the scaled integral is
        # exactly 2t / (t + 2), increasing to the constant 2
        report = dw.check_lemma31(1.5, t_max=1000.0)
        assert report.sup_value == pytest.approx(2.0 * 1000.0 / 1002.0, rel=1e-6)
        assert report.sup_doubled == pytest.approx(2.0 * 2000.0 / 2002.0, rel=1e-6)

    def test_supercritical_theta_is_stable(self):
        report = dw.check_lemma31(1.5, t_max=1000.0)
        assert report.hypothesis_satisfied
        assert abs(report.rel_change) < 0.01

    def test_critical_theta_keeps_growing(self):
        report = dw.check_lemma31(1.0, t_max=1000.0)
        assert not report.hypothesis_satisfied
        assert report.rel_change > 0.05

    def test_sup_monotone_in_theta(self):
        sups = [dw.check_lemma31(th, t_max=200.0).sup_value for th in (1.2, 1.5, 2.0)]
        assert sups[0] > sups[1] > sups[2]

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(HypothesisError):
            dw.check_lemma31(0.0)


class TestGagliardoNirenberg:
    def test_theta_formula(self):
        report = dw.check_gagliardo_nirenberg(3.0, n_samples=10)
        assert report.theta == pytest.approx(1.0 / 3.0)

    def test_ratio_scale_invariant(self):
        grid = dw.Grid(-20.0, 20.0, 1024)
        u = dw.gaussian_bump(grid, 1.0, 1.0) * np.cos(grid.x)
        r1 = interpolation_ratio(grid, u, 3.0)
        r2 = interpolation_ratio(grid, 137.0 * u, 3.0)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_bounded_and_stable_in_sample_count(self):
        small = dw.check_gagliardo_nirenberg(3.0, n_samples=300, seed=7)
        large = dw.check_gagliardo_nirenberg(3.0, n_samples=600, seed=7)
        assert small.max_ratio < 2.0
        # doubling the sample count extends the same stream, so the max can
        # only creep up, and for a bounded ratio it barely moves
        assert large.max_ratio >= small.max_ratio
        assert (large.max_ratio - small.max_ratio) / small.max_ratio < 0.10

    def test_invalid_exponent(self):
        with pytest.raises(HypothesisError):
            dw.check_gagliardo_nirenberg(1.0, n_samples=5)


class TestDataScaling:
    def test_hits_target_i0(self):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 1500))
        grid = profile.grid
        data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1.0, 0.75),
                                    np.zeros(grid.n_nodes))
        scaled = scale_data_to_i0(data, profile, 9e-4)
        assert dw.compute_data_norms(scaled, profile).I0 == pytest.approx(9e-4, rel=1e-12)

    def test_zero_target(self):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 600))
        grid = profile.grid
        data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1.0, 0.75),
                                    np.zeros(grid.n_nodes))
        z = scale_data_to_i0(data, profile, 0.0)
        assert np.all(z.u0 == 0.0) and np.all(z.u1 == 0.0)

    def test_zero_data_cannot_reach_positive_target(self):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 600))
        grid = profile.grid
        data = dw.make_initial_data(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
        with pytest.raises(HypothesisError):
            scale_data_to_i0(data, profile, 1e-3)


class TestSemilinearSweep:
    def test_outcome_matrix_structure(self):
        base = SweepBase(t_end=20.0, dx=0.1)
        sweep = dw.semilinear_sweep(2.0, [2.0, 11.0], [0.0, 1e-4, 20.0], base=base)
        assert sweep.p_critical == 9.0
        assert len(sweep.outcomes) == 2
        assert len(sweep.outcomes[0]) == 3
        # supercritical power with tiny data: global and decaying
        assert sweep.outcomes[1][1] in ("decayed_at_rate", "bounded")
        # zero data: trivially bounded
        assert sweep.outcomes[1][0] == "bounded"
        # subcritical power with sizable data: blowup with a tagged time
        assert sweep.outcomes[0][2].startswith("blowup(t=")

    def test_worker_pool_matches_serial(self):
        base = SweepBase(t_end=10.0, dx=0.1)
        serial = dw.semilinear_sweep(2.0, [11.0], [1e-4, 10.0], base=base, workers=1)
        pooled = dw.semilinear_sweep(2.0, [11.0], [1e-4, 10.0], base=base, workers=2)
        assert serial.outcomes == pooled.outcomes

    def test_single_cell_supercritical_decays(self):
        outcome = _run_sweep_cell(11.0, 1e-4, SweepBase(t_end=30.0, dx=0.05))
        assert outcome == "decayed_at_rate"

    def test_invalid_cell_becomes_error_token(self):
        base = SweepBase(t_end=2.0, dx=0.1)
        assert _sweep_cell((0, 1, 0.5, 1e-3, base)) == (0, 1, "error(ConfigError)")
        assert _sweep_cell((1, 0, 3.0, -1.0, base)) == (1, 0, "error(HypothesisError)")

    def test_mixed_sweep_keeps_valid_cells(self):
        sweep = dw.semilinear_sweep(2.0, [0.5, 11.0], [1e-4], base=SweepBase(t_end=5.0, dx=0.1))
        assert sweep.outcomes[0] == ("error(ConfigError)",)
        assert sweep.outcomes[1][0] in ("decayed_at_rate", "bounded")

    @pytest.mark.parametrize("base", [SweepBase(L=10.0, t_end=5.0), SweepBase(dx=0.0, t_end=5.0)])
    def test_base_invalid_for_every_cell_raises_before_marching(self, base, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a cell was dispatched")
        monkeypatch.setattr(analysis.solver, "run", never)
        monkeypatch.setattr(analysis, "ProcessPoolExecutor", never)
        with pytest.raises(ConfigError):
            dw.semilinear_sweep(2.0, [11.0], [1e-3], base=base, workers=2)
