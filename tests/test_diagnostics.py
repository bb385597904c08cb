import math
from dataclasses import fields, replace

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import runner, solver
from dampedwave.coefficients import inner_cell_weights
from dampedwave.coefficients import free_space_profile
from dampedwave.diagnostics import CSV_COLUMNS
from dampedwave.errors import ConfigError

from helpers import (HISTORY_COLUMNS, NORM_COLUMNS, cumulative_energy, example1_profile,
                     lemma21_holds, max_identity_residual, reference_data,
                     reference_run_config)


@pytest.fixture(scope="module")
def medium_lab():
    """Reference coefficients at reference resolution, short horizon."""
    profile = example1_profile(dw.Grid(-60.0, 60.0, 6000))
    data = reference_data(profile.grid)
    return runner.execute(reference_run_config(profile, data, 30.0))


@pytest.fixture(scope="module")
def coarse_profile():
    return example1_profile(dw.Grid(-40.0, 40.0, 2000))


@pytest.fixture(scope="module")
def coarse_mc(coarse_profile):
    c_star = dw.estimate_c_star(
        dw.poincare_problem(coarse_profile.grid, coarse_profile.L)).c_star
    return dw.derive_multiplier_config(coarse_profile, c_star)


def make_state(grid, u, u_t, v=None, t=0.0, dissipation_cum=0.0, au2_cum=0.0):
    return solver.WaveState(t=t, u=u, u_t=u_t, v=v if v is not None else np.zeros_like(u),
                            dissipation_cum=dissipation_cum, au2_cum=au2_cum)


def record(profile, state, mc=None):
    """A fresh Recorder's record of a state, with the state's fields as the data."""
    return dw.Recorder(profile, mc, dw.InitialData(state.u, state.u_t, None), None)(state)


class TestMultiplierConfig:
    def test_explicit_parameter_choice(self, coarse_mc):
        # for eps1 = 1 the construction picks alpha = 1/4 and eps2 = 1/8
        assert coarse_mc.alpha == 0.25
        assert coarse_mc.eps2 == 0.125
        assert coarse_mc.eps == 0.5

    def test_all_constants_positive(self, coarse_mc):
        assert coarse_mc.gamma0 > 0
        assert coarse_mc.P0 > 0
        assert coarse_mc.eta0 > 0
        assert coarse_mc.k >= 2.0

    def test_k_dominates_positivity_condition(self, coarse_mc):
        mc = coarse_mc
        assert mc.k > mc.alpha / mc.eps + mc.alpha * mc.eps / mc.V_L + 1.0 * 1.0
        assert mc.gamma0 - 4.0 * 1.0 * 1.0 * 1.0 / mc.k > 0.0

    def test_vanishing_potential_limit(self):
        # gamma0 -> 2 eps2 = eps1 / 4 as V(0) -> 0
        grid = dw.Grid(-40.0, 40.0, 2000)
        V = dw.build_potential_gaussian(1e-12, 1.0, grid)
        a = dw.build_damping_plateau(1.0, 1.0, "sharp", grid)
        profile = dw.make_profile(grid, V, a, 1.0, 1.0)
        c_star = dw.estimate_c_star(dw.poincare_problem(grid, 1.0)).c_star
        mc = dw.derive_multiplier_config(profile, c_star)
        assert mc.gamma0 == pytest.approx(0.25, rel=1e-6)

    def test_smallness_violation_names_inequality(self):
        grid = dw.Grid(-40.0, 40.0, 2000)
        c_star = dw.estimate_c_star(dw.poincare_problem(grid, 1.0)).c_star
        V = dw.build_potential_gaussian(1.0 / (2.0 * c_star), 1.0, grid)
        a = dw.build_damping_plateau(1.0, 1.0, "sharp", grid)
        profile = dw.make_profile(grid, V, a, 1.0, 1.0)
        with pytest.raises(ConfigError, match="smallness"):
            dw.derive_multiplier_config(profile, c_star)


class TestEnergy:
    def test_zero_state(self, coarse_profile):
        z = np.zeros(coarse_profile.grid.n_nodes)
        state = make_state(coarse_profile.grid, z, z)
        assert record(coarse_profile, state).E_u == 0.0

    def test_velocity_only_state(self, coarse_profile):
        grid = coarse_profile.grid
        g = dw.gaussian_bump(grid, 1.0, 0.5)
        state = make_state(grid, np.zeros(grid.n_nodes), g)
        expected = 0.5 * grid.integrate(g**2)
        energy = record(coarse_profile, state).E_u
        assert energy == pytest.approx(expected, rel=1e-14)

    def test_standing_bump_matches_closed_form(self):
        # E = ||u0'||^2 / 2 for V = a = 0, u_t = 0; gaussian closed form
        grid = dw.Grid(-10.0, 10.0, 4000)
        profile = free_space_profile(grid)
        sigma = 0.5
        u0 = dw.gaussian_bump(grid, 1.0, sigma)
        state = make_state(grid, u0, np.zeros_like(u0))
        exact = 0.5 * np.sqrt(np.pi) / (2.0 * sigma)
        assert record(profile, state).E_u == pytest.approx(exact, rel=2e-4)


class TestGk:
    def test_zero_state(self, coarse_profile, coarse_mc):
        z = np.zeros(coarse_profile.grid.n_nodes)
        state = make_state(coarse_profile.grid, z, z)
        assert record(coarse_profile, state, coarse_mc).G_k == 0.0

    def test_velocity_only_state_reduces_to_k_energy(self, coarse_profile, coarse_mc):
        grid = coarse_profile.grid
        g = dw.gaussian_bump(grid, 1.0, 0.5)
        state = make_state(grid, np.zeros(grid.n_nodes), g)
        expected = coarse_mc.k * 0.5 * grid.integrate(g**2)
        value = record(coarse_profile, state, coarse_mc).G_k
        assert value == pytest.approx(expected, rel=1e-14)
        assert value >= 0.0

    def test_nonnegative_along_reference_run(self, medium_lab):
        gk = np.array([r.G_k for r in medium_lab.records])
        assert gk.min() >= -1e-10 * gk[0]


class TestEnergyIdentity:
    def test_zero_data_residual_zero(self, coarse_profile):
        grid = coarse_profile.grid
        data = dw.make_initial_data(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
        lab = runner.execute(reference_run_config(coarse_profile, data, 2.0))
        assert max_identity_residual(lab.records) == 0.0

    def test_undamped_drift_refines_second_order(self):
        residuals = {}
        for n in (1500, 3000):
            grid = dw.Grid(-60.0, 60.0, n)
            profile = dw.make_profile(
                grid, dw.build_potential_example1(0.01, 2.0, 1.0, grid),
                np.zeros(grid.n_nodes), 1.0, 0.0, beta=2.0, V0=0.01)
            data = reference_data(grid)
            lab = runner.execute(reference_run_config(profile, data, 20.0))
            residuals[n] = max_identity_residual(lab.records)
        assert residuals[1500] < 5e-3
        assert residuals[1500] / residuals[3000] == pytest.approx(4.0, rel=0.3)

    def test_damped_residual_refines_second_order(self):
        residuals = {}
        for n in (1500, 3000):
            profile = example1_profile(dw.Grid(-60.0, 60.0, n))
            data = reference_data(profile.grid)
            lab = runner.execute(reference_run_config(profile, data, 20.0))
            residuals[n] = max_identity_residual(lab.records)
        assert residuals[1500] / residuals[3000] == pytest.approx(4.0, rel=0.3)

    def test_energy_monotone_at_reference_resolution(self, medium_lab):
        e = np.array([r.E_u for r in medium_lab.records])
        assert np.max(np.diff(e)) <= 1e-10 * e[0]

    def test_dissipation_bounded_by_initial_energy(self, medium_lab):
        d = np.array([r.dissipation_cum for r in medium_lab.records])
        e0 = medium_lab.records[0].E_u
        assert np.all(np.diff(d) >= 0.0)
        assert d[-1] <= e0


class TestLemma25:
    def test_initial_time_reduces_to_half_u0_norm(self, coarse_profile):
        grid = coarse_profile.grid
        u0 = dw.gaussian_bump(grid, 1e-3, 1.0)
        data = dw.make_initial_data(grid, u0, np.zeros(grid.n_nodes))
        state = make_state(grid, u0.copy(), np.zeros(grid.n_nodes))
        # v = 0 and au2_cum = 0: both sides are ||u0||^2 / 2
        rec = dw.Recorder(coarse_profile, None, data, None)(state)
        assert rec.l2_u**2 == pytest.approx(grid.integrate(u0**2), rel=1e-12)
        assert rec.lemma25_residual < 1e-12

    def test_residual_small_on_reference_run(self, medium_lab):
        res = np.array([r.lemma25_residual for r in medium_lab.records])
        assert res.max() < 1e-3

    def test_bound_ratio_below_proof_constant(self, medium_lab):
        ratio = np.array([r.lemma25_ratio for r in medium_lab.records])
        assert np.nanmax(ratio) <= 2.0


class TestHistory:
    """The totals a state carries are the ones the records report."""

    def test_final_state_carries_the_last_records_totals(self, medium_lab):
        final, last = medium_lab.result.final_state, medium_lab.records[-1]
        assert final.t == last.t
        assert (final.dissipation_cum, final.au2_cum) == (last.dissipation_cum, last.au2_cum)

    def test_march_without_a_hook_gives_the_same_totals(self, medium_lab):
        final, last = solver.run(medium_lab.run_config).final_state, medium_lab.records[-1]
        assert (final.dissipation_cum, final.au2_cum) == (last.dissipation_cum, last.au2_cum)

    def test_state_without_history_records_nan(self):
        # a history = False march keeps no v: a Recorder reports the Lemma 2.5
        # pair as NaN
        grid = solver.domain_for_radius(2.0, 1.0, 0.05, 1.0)
        profile = example1_profile(grid)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.5, 2.0),
                                    np.zeros(grid.n_nodes))
        recorder = dw.Recorder(profile, None, data, dw.compute_data_norms(data, profile))
        result = solver.run(solver.RunConfig(profile=profile, data=data, t_end=1.0, p=3.0,
                                             history=False), recorder)
        final = result.final_state
        assert final.v is None
        rec = recorder(final)
        assert math.isnan(rec.lemma25_residual) and math.isnan(rec.lemma25_ratio)
        assert rec.E_u > 0.0


class TestLemma21:
    def test_zero_record_passes(self, coarse_profile, coarse_mc):
        grid = coarse_profile.grid
        z = np.zeros(grid.n_nodes)
        recorder = dw.Recorder(coarse_profile, coarse_mc,
                               dw.make_initial_data(grid, z, z), None)
        rec = recorder(make_state(grid, z, z))
        assert lemma21_holds(rec, coarse_mc)

    def test_concentrated_bump_strictly_below_bound(self, coarse_profile, coarse_mc):
        # energy is gradient-dominated for concentrated bumps (the smallness
        # condition caps V(0) L^2), so the localized ratio stays strictly
        # under V_L / V(0), which itself is the loosest the bound can get
        grid = coarse_profile.grid
        u = dw.gaussian_bump(grid, 1.0, 0.15)
        recorder = dw.Recorder(coarse_profile, coarse_mc,
                               dw.make_initial_data(grid, u.copy(), np.zeros_like(u)), None)
        rec = recorder(make_state(grid, u, np.zeros_like(u)))
        assert lemma21_holds(rec, coarse_mc)
        ratio = rec.l2_local / ((2.0 / coarse_mc.V_L) * rec.E_u)
        assert 0.0 < ratio < coarse_mc.V_L / coarse_profile.v_at_origin

    def test_every_record_of_reference_run(self, medium_lab):
        assert all(lemma21_holds(r, medium_lab.mc) for r in medium_lab.records)


class TestRunLevelBounds:
    def test_record_invariants(self, medium_lab):
        for r in medium_lab.records:
            assert r.E_u >= 0.0
            assert r.l2_local <= r.l2_u**2 + 1e-15

    def test_gronwall_surrogate_stable(self):
        stats = {}
        for t_end in (15.0, 30.0):
            profile = example1_profile(dw.Grid(-60.0, 60.0, 2000))
            data = reference_data(profile.grid)
            lab = runner.execute(reference_run_config(profile, data, t_end))
            cum = cumulative_energy(lab.records)
            stats[t_end] = cum[-1] / lab.norms.I0**2
        assert stats[30.0] <= stats[15.0] * 1.10

    def test_lemma23_constant_bounded_and_stable(self):
        cs = {}
        for t_end in (15.0, 30.0):
            profile = example1_profile(dw.Grid(-60.0, 60.0, 2000))
            data = reference_data(profile.grid)
            lab = runner.execute(reference_run_config(profile, data, t_end))
            cum = cumulative_energy(lab.records)
            gk = np.array([r.G_k for r in lab.records])
            lhs = gk + lab.mc.eta0 * cum
            rhs = (lab.norms.h1_norm_u0**2 + lab.norms.l2_norm_u1**2
                   + np.array([r.au2_cum for r in lab.records]))
            cs[t_end] = float(np.max(lhs / rhs))
        assert np.isfinite(cs[30.0])
        assert cs[30.0] <= cs[15.0] * 1.10


class TestRecorder:
    def test_free_wave_records_carry_nan_where_undefined(self):
        grid = solver.domain_for_radius(7.2, 5.0, 0.05, 2.0)
        profile = free_space_profile(grid)
        data = dw.make_initial_data(grid, np.zeros(grid.n_nodes),
                                    dw.gaussian_bump(grid, 1e-3, 1.0))
        lab = runner.execute(reference_run_config(profile, data, 5.0))
        assert lab.mc is None and lab.norms is None
        rec = lab.records[-1]
        assert np.isnan(rec.G_k)
        assert np.isnan(rec.lemma25_ratio)
        assert np.isfinite(rec.E_u)

    def test_negative_potential_gives_nan_energy_norm(self):
        # a hand-built V < 0 makes int V u^2 negative: no real root, no error
        grid = dw.Grid(-10.0, 10.0, 200)
        profile = dw.make_profile(grid, np.full(grid.n_nodes, -0.01),
                                  np.zeros(grid.n_nodes), 1.0, 0.0)
        u = dw.gaussian_bump(grid, 1e-3, 1.0)
        rec = dw.Recorder(profile, None, dw.make_initial_data(grid, u, 0.0 * u), None)(
            solver.WaveState(t=0.0, u=u, u_t=0.0 * u))
        assert math.isnan(rec.energy_norm) and rec.l2_u > 0.0

    def test_csv_column_contract(self, medium_lab):
        assert CSV_COLUMNS == (
            "t", "E_u", "l2_u", "l2_local", "dissipation_cum", "G_k",
            "identity_residual", "lemma25_residual", "lemma25_ratio", "au2_cum",
        )
        rec = medium_lab.records[0]
        values = rec.csv_values()
        assert len(values) == 10
        assert values[0] == rec.t and values[-1] == rec.au2_cum

    def test_records_without_history_match_on_the_norm_columns(self):
        # a sweep cell's march: the columns that read only u and u_t equal a
        # history march's bit for bit; the ones that read the history are NaN
        grid = solver.domain_for_radius(2.0, 5.0, 0.05, 2.0)
        profile = example1_profile(grid)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.5, 2.0),
                                    np.zeros(grid.n_nodes))
        norms = dw.compute_data_norms(data, profile)
        config = solver.RunConfig(profile=profile, data=data, t_end=5.0, p=3.0, record_every=5)
        full = solver.run(config, dw.Recorder(profile, None, data, norms)).records
        lean = solver.run(replace(config, history=False),
                          dw.Recorder(profile, None, data, norms)).records
        assert len(full) == len(lean) > 10
        for ref, rec in zip(full, lean):
            for name in NORM_COLUMNS:
                assert getattr(rec, name) == getattr(ref, name), name
            for name in HISTORY_COLUMNS:
                assert math.isnan(getattr(rec, name)), name
                assert math.isfinite(getattr(ref, name)), name


def full_grid_record(profile, mc, data, norms, state, e0):
    """The Recorder's fields by whole-grid formulas: np.gradient for u_x
    and v_x, Grid.integrate for every integral."""
    grid, V, a = profile.grid, profile.V, profile.a
    integrate = grid.integrate
    u, u_t, v = state.u, state.u_t, state.v
    dissipation_cum, au2_cum = state.dissipation_cum, state.au2_cum
    ux = np.gradient(u, grid.dx, edge_order=2)
    vx = np.gradient(v, grid.dx, edge_order=2)
    kinetic, gradient, potential = integrate(u_t**2), integrate(ux**2), integrate(V * u**2)
    e_u = 0.5 * (kinetic + gradient + potential)
    mass = integrate(u**2)
    u0_sq = integrate(data.u0**2)
    lhs = 0.5 * mass + 0.5 * integrate(vx**2) + 0.5 * integrate(V * v**2) + au2_cum
    rhs = 0.5 * u0_sq + integrate((data.u1 + a * data.u0) * v)
    gk = (integrate(u_t * profile.phi * grid.x * ux) + mc.alpha * integrate(u_t * u)
          + 0.5 * mc.alpha * integrate(a * u**2) + mc.k * e_u)
    return dict(
        t=state.t, E_u=e_u,
        energy_norm=np.sqrt(kinetic) + np.sqrt(gradient) + np.sqrt(potential),
        l2_u=np.sqrt(mass), l2_local=inner_cell_weights(grid, profile.L) @ u**2,
        dissipation_cum=dissipation_cum, G_k=gk,
        identity_residual=e_u + dissipation_cum - (e_u if e0 is None else e0),
        lemma25_residual=abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
        lemma25_ratio=(mass + au2_cum) / (u0_sq + norms.weighted_norm**2),
        au2_cum=au2_cum,
    )


def assert_recorder_matches_full_grid(profile, data, states):
    """A fresh Recorder over the states agrees with full_grid_record: 1e-13 relative, the two residuals 1e-13
    absolute (identity_residual in units of E_u(0))."""
    c_star = dw.estimate_c_star(dw.poincare_problem(profile.grid, profile.L)).c_star
    mc = dw.derive_multiplier_config(profile, c_star)
    norms = dw.compute_data_norms(data, profile)
    recorder = dw.Recorder(profile, mc, data, norms)
    e0 = None
    for state in states:
        got = recorder(state)
        want = full_grid_record(profile, mc, data, norms, state, e0)
        e0 = want["E_u"] if e0 is None else e0
        for name, value in want.items():
            if name == "identity_residual":
                assert abs(got.identity_residual - value) <= 1e-13 * e0, name
            elif name == "lemma25_residual":
                assert abs(got.lemma25_residual - value) <= 1e-13, name
            else:
                assert getattr(got, name) == pytest.approx(value, rel=1e-13, abs=0.0), name


class TestRecorderOracle:
    """The windowed Recorder against whole-grid formulas."""

    def test_states_of_a_run_with_interior_support(self):
        grid = solver.domain_for_radius(2.0, 3.0, 0.05, 1.0)
        profile = example1_profile(grid)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.5, 2.0),
                                    dw.polynomial_bump(grid, 0.25, 1.5))
        states = []
        solver.run(solver.RunConfig(profile=profile, data=data, t_end=3.0, p=3.0,
                                    record_every=3), states.append)
        lo, hi = states[-1].support
        assert 0 < lo and hi < grid.n_nodes
        assert_recorder_matches_full_grid(profile, data, states)

    def test_states_of_a_run_with_support_on_both_ends(self):
        grid = dw.Grid(-5.0, 5.0, 200)
        profile = example1_profile(grid)
        data = dw.InitialData(np.exp(-((grid.x + 4.0) ** 2)),
                              np.exp(-((grid.x - 4.0) ** 2)), 10.0)
        states = []
        solver.run(solver.RunConfig(profile=profile, data=data, t_end=1.0, record_every=2),
                   states.append)
        assert states[0].support == (0, grid.n_nodes)
        assert_recorder_matches_full_grid(profile, data, states)

    @pytest.mark.parametrize("support", [None, (0, 0), (0, 101), (1, 100), (2, 99),
                                         (3, 98), (40, 41), (40, 60), (97, 101)])
    def test_hand_built_states(self, support):
        # fields vanish outside support (the whole grid for None); the
        # supports reach the ends directly, within the one-sided stencil
        # (lo <= 2, hi >= n - 2) and not at all
        grid = dw.Grid(-5.0, 5.0, 100)
        profile = example1_profile(grid)
        rng = np.random.default_rng(7)
        n = grid.n_nodes
        lo, hi = (0, n) if support is None else support
        fields = rng.uniform(0.5, 1.0, (3, n))
        fields[:, :lo] = fields[:, hi:] = 0.0
        u, u_t, v = fields
        data = dw.InitialData(rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n), None)
        state = solver.WaveState(t=0.5, u=u, u_t=u_t, v=v, dissipation_cum=0.3, au2_cum=0.2,
                                 support=support)
        first = make_state(grid, data.u0.copy(), data.u1.copy())
        assert_recorder_matches_full_grid(profile, data, [first, state])

    def test_half_line_sums_match_whole_grid_sums(self):
        # an even run's states are summed over x >= 0 with doubled weights
        grid = solver.domain_for_radius(2.0, 3.0, 0.05, 1.0)
        profile = example1_profile(grid)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.5, 2.0),
                                    dw.polynomial_bump(grid, 0.25, 1.5))
        states = []
        result = solver.run(solver.RunConfig(profile=profile, data=data, t_end=3.0, p=3.0,
                                             record_every=3), states.append)
        assert result.mirrored and all(state.mirrored for state in states)
        c_star = dw.estimate_c_star(dw.poincare_problem(grid, profile.L)).c_star
        mc = dw.derive_multiplier_config(profile, c_star)
        # one Recorder, refolding its weights at every switch of evenness
        recorder = dw.Recorder(profile, mc, data, dw.compute_data_norms(data, profile))
        e0 = recorder(states[0]).E_u
        for state in states:
            half, whole = recorder(state), recorder(replace(state, mirrored=False))
            for name in (f.name for f in fields(half)):
                a, b = getattr(half, name), getattr(whole, name)
                # the residuals are differences: absolute, in their units
                scale = {"identity_residual": e0, "lemma25_residual": 1.0}.get(
                    name, max(abs(a), abs(b)))
                assert abs(a - b) <= 1e-13 * scale, (name, state.t)

    def test_hand_built_state_integrates_the_whole_grid(self):
        grid = dw.Grid(-5.0, 5.0, 100)
        profile = example1_profile(grid)
        left, right = (dw.polynomial_bump(grid, 1.0, 1.0, c) for c in (-2.5, 2.5))
        lopsided = 2.0 * left + right
        state = solver.WaveState(t=0.0, u=lopsided, u_t=lopsided)
        assert state.mirrored is False

        def whole_grid_energy(u):
            ux = np.gradient(u, grid.dx, edge_order=2)
            return 0.5 * grid.integrate(u**2 + ux**2 + profile.V * u**2)
        assert record(profile, state).E_u == pytest.approx(whole_grid_energy(lopsided),
                                                           rel=1e-13)
        # flagged even, the same fields count their right half twice
        assert record(profile, replace(state, mirrored=True)).E_u == pytest.approx(
            whole_grid_energy(left + right), rel=1e-13)
