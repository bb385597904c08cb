import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

import dampedwave as dw
from dampedwave import analysis, runner, solver
from dampedwave import config as cfg
from dampedwave.coefficients import free_space_profile
from dampedwave.errors import ConfigError

from helpers import (CONFIGS, HISTORY_COLUMNS, NORM_COLUMNS, abs_power, centred_specs,
                     example1_profile, first_step, leapfrog_step, reference_data,
                     reference_run_config, sweep_spec)


def dalembert_error(n_cells, t_end=5.0, sigma=0.5):
    grid = dw.Grid(-12.0, 12.0, n_cells)
    profile = free_space_profile(grid)
    u0 = lambda x: 1e-3 * np.exp(-(x**2) / (2 * sigma**2))
    data = dw.make_initial_data(grid, u0(grid.x), np.zeros(grid.n_nodes))
    result = solver.run(solver.RunConfig(profile=profile, data=data,
                                         t_end=t_end, cfl=0.9, record_every=1))
    exact = 0.5 * (u0(grid.x - t_end) + u0(grid.x + t_end))
    return np.sqrt(grid.integrate((result.final_state.u - exact) ** 2))


class TestScheme:
    def test_dalembert_second_order(self):
        e1, e2 = dalembert_error(400), dalembert_error(800)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_zero_data_stays_zero(self):
        grid = dw.Grid(-10.0, 10.0, 400)
        profile = example1_profile(grid)
        data = dw.make_initial_data(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
        result = solver.run(solver.RunConfig(profile=profile, data=data, t_end=5.0))
        assert np.all(result.final_state.u == 0.0)
        assert np.all(result.final_state.v == 0.0)

    def test_uniform_damped_ode_oracle(self):
        # spatially uniform data reduce the scheme to the scalar equation
        # u'' + a u' = 0 with solution c + g (1 - e^{-at})/a, on the nodes
        # the Dirichlet ends cannot reach in n steps (one node per step)
        grid = dw.Grid(-5.0, 5.0, 1000)
        a0, c, g, dt, n = 0.5, 0.7, 1.3, 0.005, 400
        profile = dw.make_profile(grid, np.zeros(grid.n_nodes),
                                  np.full(grid.n_nodes, a0), 0.5, a0)
        u_prev = np.full(grid.n_nodes, c)
        u = first_step(u_prev, np.full(grid.n_nodes, g), profile, dt)
        for _ in range(n - 1):
            u, u_prev = leapfrog_step(u, u_prev, profile, dt), u
        exact = c + g * (1 - np.exp(-a0 * n * dt)) / a0
        inside = u[n + 1:-(n + 1)]
        assert inside.size > 100
        assert np.max(np.abs(inside - exact)) < 5e-6

    def test_time_reversibility_undamped(self):
        grid = dw.Grid(-5.0, 5.0, 400)
        profile = dw.make_profile(
            grid, dw.build_potential_example1(0.01, 2.0, 1.0, grid),
            np.zeros(grid.n_nodes), 1.0, 0.0)
        u0 = dw.polynomial_bump(grid, 1.0, 1.0)
        dt, n = 0.9 * grid.dx, 150
        hist = [u0, first_step(u0, np.zeros_like(u0), profile, dt)]
        for _ in range(n - 1):
            hist.append(leapfrog_step(hist[-1], hist[-2], profile, dt))
        back = [hist[-1], hist[-2]]
        for _ in range(n - 1):
            back.append(leapfrog_step(back[-1], back[-2], profile, dt))
        assert np.max(np.abs(back[-1] - u0)) < 1e-12

    def test_finite_propagation_speed(self):
        grid = dw.Grid(-5.0, 5.0, 400)
        profile = example1_profile(grid, eps1=0.5)
        u_prev = dw.polynomial_bump(grid, 1.0, 1.0)
        live0 = np.nonzero(u_prev)[0]
        u = first_step(u_prev, np.zeros_like(u_prev), profile, 0.9 * grid.dx)
        for n in range(1, 60):
            live = np.nonzero(u)[0]
            assert live[0] >= live0[0] - n and live[-1] <= live0[-1] + n
            u, u_prev = leapfrog_step(u, u_prev, profile, 0.9 * grid.dx), u

    def test_implicit_damping_well_posed(self):
        grid = dw.Grid(-5.0, 5.0, 200)
        profile = dw.make_profile(grid, np.zeros(grid.n_nodes),
                                  np.full(grid.n_nodes, 1e6), 1.0, 1e6)
        u0 = dw.polynomial_bump(grid, 1.0, 1.0)
        out = leapfrog_step(u0, u0, profile, 0.9 * grid.dx)
        assert np.all(np.isfinite(out))
        # denominator 1 + a dt/2 >= 1 keeps the update bounded by its inputs
        assert np.max(np.abs(out)) <= 1.0 + 1e-12


class TestDomain:
    def test_domain_for_radius_formula(self):
        domain = solver.domain_for_radius(2.0, t_end=50.0, dx=0.05, padding=3.0)
        assert domain.x_max == pytest.approx(55.0)
        assert domain.x_min == pytest.approx(-55.0)
        half = solver.domain_for_radius(2.0, t_end=25.0, dx=0.05, padding=3.0)
        assert half.x_max == pytest.approx(30.0)

    def test_cell_count_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="finite 2X/dx"):
            solver.domain_for_radius(2.0, t_end=50.0, dx=1e-320, padding=3.0)

    def test_boundary_stays_silent(self):
        # with X = R + t_end + padding nothing reaches the edge before t_end
        grid = solver.domain_for_radius(1.0, 5.0, 0.05, 2.0)
        profile = example1_profile(grid)
        data = reference_data(grid, width=0.25)
        result = solver.run(reference_run_config(profile, data, 5.0))
        u = result.final_state.u
        assert np.max(np.abs(u[:5])) < 1e-12
        assert np.max(np.abs(u[-5:])) < 1e-12


class TestRunControl:
    def test_cfl_formula_and_bounds(self):
        grid = dw.Grid(-10.0, 10.0, 200)
        profile = example1_profile(grid)
        dt = solver.cfl_timestep(profile, 0.9)
        vmax = float(np.max(profile.V))
        assert dt == pytest.approx(0.9 * grid.dx / np.sqrt(1 + vmax * grid.dx**2 / 4))
        with pytest.raises(ConfigError):
            solver.cfl_timestep(profile, 1.2)
        with pytest.raises(ConfigError):
            solver.cfl_timestep(profile, 0.0)

    def test_records_uniform_cadence(self):
        grid = dw.Grid(-15.0, 15.0, 300)
        profile = example1_profile(grid)
        data = reference_data(grid, width=0.5)
        result = solver.run(
            solver.RunConfig(profile=profile, data=data, t_end=3.0, record_every=7),
            diagnostics_hook=lambda state: state.t,
        )
        times = np.array(result.records)
        assert result.n_steps % 7 == 0
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(3.0)
        assert np.allclose(np.diff(times), 7 * result.dt)

    def test_semilinear_needs_support_beyond_core(self):
        grid = dw.Grid(-15.0, 15.0, 300)
        profile = example1_profile(grid)  # L = 1
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.1, 0.5),
                                    np.zeros(grid.n_nodes))
        with pytest.raises(ConfigError):
            solver.RunConfig(profile=profile, data=data, t_end=1.0, p=2.0)
        with pytest.raises(ConfigError):
            solver.RunConfig(profile=profile, data=data, t_end=1.0, p=0.5)

    @pytest.mark.parametrize("p", [1.0, float("nan"), float("inf")])
    def test_power_must_exceed_one(self, p):
        grid = dw.Grid(-15.0, 15.0, 300)
        profile = example1_profile(grid)  # L = 1
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.1, 2.0),
                                    np.zeros(grid.n_nodes))
        with pytest.raises(ConfigError, match="p > 1"):
            solver.RunConfig(profile=profile, data=data, t_end=1.0, p=p)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_t_end_must_be_positive_and_finite(self, t_end):
        grid = dw.Grid(-10.0, 10.0, 200)
        with pytest.raises(ConfigError, match="t_end must be positive and finite"):
            solver.RunConfig(profile=example1_profile(grid),
                             data=reference_data(grid, width=0.5), t_end=t_end)

    def test_step_count_and_symmetry_are_derived_when_built(self, monkeypatch):
        # run() reads dt, n_steps and mirrored from the config; replace()
        # derives them again for the new fields
        grid = dw.Grid(-15.0, 15.0, 300)
        config = solver.RunConfig(profile=example1_profile(grid),
                                  data=reference_data(grid, width=0.5), t_end=3.0,
                                  record_every=7)
        steps = math.ceil(3.0 / solver.cfl_timestep(config.profile, config.cfl))
        assert config.n_steps == 7 * math.ceil(steps / 7)
        assert config.dt == 3.0 / config.n_steps and config.mirrored

        def recomputed(*args):
            raise AssertionError("run() derived what the config holds")
        with monkeypatch.context() as patch:
            patch.setattr(solver, "cfl_timestep", recomputed)
            patch.setattr(solver, "_is_even", recomputed)
            result = solver.run(config)
        assert (result.dt, result.n_steps, result.mirrored) == (config.dt, config.n_steps, True)
        longer = dataclasses.replace(config, t_end=6.0, record_every=1)
        assert longer.n_steps == math.ceil(6.0 / solver.cfl_timestep(config.profile, 0.9))
        assert longer.dt == 6.0 / longer.n_steps
        off_centre = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1e-3, 0.5, 0.5),
                                          np.zeros(grid.n_nodes))
        assert not dataclasses.replace(config, data=off_centre).mirrored

    @pytest.mark.parametrize("t_end", [1e-170, 1e-150])
    def test_t_end_far_below_the_cfl_step_rejected(self, t_end):
        # (2 dt)^2 underflows at 1e-170; at 1e-150 E_u is u's rounding over dt;
        # the config refuses it when built, and when replace() rebuilds it
        grid = dw.Grid(-10.0, 10.0, 200)
        profile = example1_profile(grid)
        data = reference_data(grid, width=0.5)
        with pytest.raises(ConfigError, match="below 1e-08 of the CFL step"):
            solver.RunConfig(profile=profile, data=data, t_end=t_end)
        dt0 = solver.cfl_timestep(profile, 0.9)
        config = solver.RunConfig(profile=profile, data=data, t_end=2e-8 * dt0)
        with pytest.raises(ConfigError, match="below 1e-08 of the CFL step"):
            dataclasses.replace(config, t_end=t_end)
        assert solver.run(config).termination.kind == solver.COMPLETED

    def test_non_finite_coefficients_rejected(self):
        # the light-cone skip relies on V u = a u = 0 wherever u = 0
        grid = dw.Grid(-10.0, 10.0, 200)
        data = reference_data(grid, width=0.5)
        for field in ("V", "a"):
            profile = example1_profile(grid)
            values = getattr(profile, field).copy()
            values[0] = np.inf
            profile = dataclasses.replace(profile, **{field: values})
            with pytest.raises(ConfigError):
                solver.RunConfig(profile=profile, data=data, t_end=1.0)

    def test_a_built_config_cannot_be_edited_invalid(self):
        # the problem's arrays are read-only copies: writing inf into V after
        # the checks fails at the write, and the config still runs
        grid = dw.Grid(-10.0, 10.0, 200)
        V = dw.build_potential_example1(0.01, 2.0, 1.0, grid)
        profile = dw.make_profile(grid, V, dw.build_damping_plateau(1.0, 1.0, "sharp", grid),
                                  1.0, 1.0)
        config = solver.RunConfig(profile=profile, data=reference_data(grid, width=0.5),
                                  t_end=1.0)
        V[0] = np.inf  # the caller's array, not the profile's
        for array in (profile.V, profile.a, profile.phi, config.data.u0, config.data.u1,
                      grid.x, grid.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.inf
        assert np.all(np.isfinite(profile.V))
        assert solver.run(config).termination.kind == solver.COMPLETED

    def test_blowup_signal_for_subcritical_power(self):
        grid = solver.domain_for_radius(2.0, 20.0, 0.05, 2.0)
        profile = example1_profile(grid)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 4.0, 2.0),
                                    np.zeros(grid.n_nodes))
        result = solver.run(solver.RunConfig(profile=profile, data=data,
                                             t_end=20.0, p=2.0))
        assert result.termination.kind == solver.BLOWUP
        assert 0.0 < result.termination.time < 20.0
        assert np.all(np.isfinite(result.final_state.u))

    def test_overflowing_power_is_blowup_not_an_error(self):
        # 4^1000 overflows to inf in the first step; the march reports it
        # as blowup under any error state, and hooks see the caller's state
        grid = solver.domain_for_radius(2.0, 5.0, 0.05, 2.0)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 4.0, 2.0),
                                    np.zeros(grid.n_nodes))
        config = solver.RunConfig(profile=example1_profile(grid), data=data,
                                  t_end=5.0, p=1000.0)
        seen = []
        with np.errstate(all="raise"):
            result = solver.run(config, lambda state: seen.append(np.geterr()))
            assert np.geterr()["over"] == "raise"
        assert result.termination.kind == solver.BLOWUP
        assert result.termination.time == result.dt
        assert seen and all(err["over"] == "raise" for err in seen)

    def test_instability_signal_for_bad_linear_field(self):
        grid = dw.Grid(-10.0, 10.0, 200)
        profile = example1_profile(grid)
        bad = np.zeros(grid.n_nodes)
        bad[50] = np.nan
        data = dw.InitialData(bad, np.zeros(grid.n_nodes), 5.0)
        result = solver.run(solver.RunConfig(profile=profile, data=data, t_end=1.0))
        assert result.termination.kind == solver.INSTABILITY
        assert result.termination.time is not None


def oracle_levels(config, dt, n_levels, mirrored=False):
    """u^0 .. u^n_levels by a plain first_step + leapfrog_step loop on the
    whole grid. With mirrored (the oracle of an even run), every level
    after u^0 gets its left half overwritten by the mirrored right half."""
    prof, data, p = config.profile, config.data, config.p
    half = prof.grid.n_nodes // 2

    def level(u):
        if mirrored:
            u[:half] = u[:half:-1]
        return u
    levels = [data.u0, level(first_step(data.u0, data.u1, prof, dt, p))]
    while len(levels) <= n_levels:
        levels.append(level(leapfrog_step(levels[-1], levels[-2], prof, dt, p)))
    return levels


def oracle_u_t(levels, level, dt, u1, final=False):
    """u_t at a level, reconstructed the way run() documents."""
    if level == 0:
        return u1
    if final:
        return (3.0 * levels[level] - 4.0 * levels[level - 1] + levels[level - 2]) / (2.0 * dt)
    return (levels[level + 1] - levels[level - 1]) / (2.0 * dt)


def oracle_fields(levels, level, dt, u1, final=False):
    """(u, u_t, v) at a level, reconstructed the way run() documents."""
    v = np.zeros_like(levels[0])
    for k in range(1, level + 1):
        v = v + 0.5 * dt * (levels[k - 1] + levels[k])
    return levels[level], oracle_u_t(levels, level, dt, u1, final), v


def oracle_totals(config, levels, dt, level, final=False):
    """(dissipation_cum, au2_cum) at a level: the trapezoid in time of the
    whole-grid sums of a w u_t^2 and a w u^2 over levels 0 .. level."""
    a_w = config.profile.a * config.profile.grid.weights
    u1 = config.data.u1
    kinetic = [a_w @ oracle_u_t(levels, j, dt, u1, final and j == level) ** 2
               for j in range(level + 1)]
    mass = [a_w @ levels[j] ** 2 for j in range(level + 1)]
    return tuple(sum(0.5 * dt * (f[j - 1] + f[j]) for j in range(1, level + 1))
                 for f in (kinetic, mass))


def light_cone(data, level):
    """Level `level`'s window: the live range of u0 and u1 widened by one
    node per level, clipped to the grid (solver module docstring)."""
    live = np.flatnonzero((data.u0 != 0.0) | (data.u1 != 0.0))
    if not live.size:
        return 0, 0
    return max(int(live[0]) - level, 0), min(int(live[-1]) + 1 + level, data.u0.size)


def assert_state_matches(state, levels, dt, config, final=False, window_level=None,
                         mirrored=False):
    """The state's fields equal the oracle's and its history totals the
    oracle's to round-off, and its support is the documented window:
    window_level's, by default the next level's for a record state
    (level 0 reads only u1: its own) and the last one's for the final
    state; symmetric, (n - hi, hi), in an even run."""
    data = config.data
    level = round(state.t / dt)
    if window_level is None:
        window_level = level if final or level == 0 else level + 1
    lo, hi = state.support
    assert (lo, hi) == light_cone(data, window_level), f"window at level {level}"
    if mirrored:
        assert lo == data.u0.size - hi
    for name in ("u", "u_t", "v"):
        f = getattr(state, name)
        assert f is None or not (f[:lo].any() or f[hi:].any()), f"{name} outside support"
    u, u_t, v = oracle_fields(levels, level, dt, data.u1, final)
    assert np.array_equal(state.u, u), f"u differs at level {level}"
    assert np.array_equal(state.u_t, u_t), f"u_t differs at level {level}"
    assert np.array_equal(state.v, v), f"v differs at level {level}"
    totals = oracle_totals(config, levels, dt, level, final)
    assert (state.dissipation_cum, state.au2_cum) == pytest.approx(totals, rel=1e-12), \
        f"history differs at level {level}"


# an off-centre bump makes a run that is not even: it marches the whole line
OFF_CENTRE = 0.3


def bump_config(p, amplitude, t_end=3.0, record_every=5, center=0.0):
    # support radius 2 (+ center) > L = 1, and X = 6 leaves the light cone
    # inside the grid
    grid = solver.domain_for_radius(2.0, t_end, 0.05, 1.0)
    profile = example1_profile(grid)
    data = dw.make_initial_data(grid, dw.polynomial_bump(grid, amplitude, 2.0, center),
                                dw.polynomial_bump(grid, 0.5 * amplitude, 1.5, center))
    return solver.RunConfig(profile=profile, data=data, t_end=t_end, p=p,
                            record_every=record_every)


def blowup_config(record_every, center=0.0):
    grid = solver.domain_for_radius(2.0, 20.0, 0.05, 2.0)
    data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 4.0, 2.0, center),
                                np.zeros(grid.n_nodes))
    return solver.RunConfig(profile=example1_profile(grid), data=data,
                            t_end=20.0, p=2.0, record_every=record_every)


def check_final_state(config, mirrored):
    result = solver.run(config)
    assert result.termination.kind == solver.COMPLETED
    assert result.mirrored is mirrored
    levels = oracle_levels(config, result.dt, result.n_steps, mirrored)
    assert_state_matches(result.final_state, levels, result.dt, config, final=True,
                         mirrored=mirrored)
    # the window never reached the ends, so the skipped nodes were live zeros
    assert np.all(result.final_state.u[:5] == 0.0) and np.all(result.final_state.u[-5:] == 0.0)


def check_blowup_state(config, mirrored):
    result = solver.run(config)
    assert result.termination.kind == solver.BLOWUP
    assert result.mirrored is mirrored
    k = round(result.termination.time / result.dt)
    state = result.final_state
    assert round(state.t / result.dt) == k - 2
    levels = oracle_levels(config, result.dt, k - 1, mirrored)
    assert_state_matches(state, levels, result.dt, config, window_level=k - 1,
                         mirrored=mirrored)


def check_blowup_record_levels(config, mirrored):
    # with a hook at every level, level k-2's u_t was already divided
    # by 2 dt for its record before the blowup state rebuilds it
    kept = []
    result = solver.run(config, lambda state: kept.append(state))
    assert result.mirrored is mirrored
    k = round(result.termination.time / result.dt)
    assert round(kept[-1].t / result.dt) == round(result.final_state.t / result.dt) == k - 2
    levels = oracle_levels(config, result.dt, k - 1, mirrored)
    for state in kept:
        assert_state_matches(state, levels, result.dt, config, mirrored=mirrored)
    assert_state_matches(result.final_state, levels, result.dt, config,
                         window_level=k - 1, mirrored=mirrored)


def check_kept_states(config, mirrored, march=solver.run):
    kept = []
    result = march(config, lambda state: kept.append(state))
    assert len(kept) == result.n_steps + 1
    assert result.mirrored is mirrored
    levels = oracle_levels(config, result.dt, result.n_steps, mirrored)
    for state in kept[:-1]:
        assert_state_matches(state, levels, result.dt, config, mirrored=mirrored)
    assert_state_matches(kept[-1], levels, result.dt, config, final=True,
                         mirrored=mirrored)
    return result


WINDOW_CASES = pytest.mark.parametrize("p, amplitude", [(None, 1e-3), (3.0, 0.5), (2.5, 0.5)])


class TestWindowedMarch:
    # centred data make even runs (mirrored oracle); off-centre data march
    # the whole line (plain oracle)
    @WINDOW_CASES
    def test_final_state_equals_full_grid_oracle(self, p, amplitude):
        check_final_state(bump_config(p, amplitude), mirrored=True)

    @WINDOW_CASES
    def test_off_centre_final_state_equals_plain_oracle(self, p, amplitude):
        check_final_state(bump_config(p, amplitude, center=OFF_CENTRE), mirrored=False)

    def test_plain_march_of_even_data_is_not_bitwise_even(self):
        # the stencil adds its terms left to right, so a mirrored node sums
        # them in the other order: the even run needs the mirrored oracle
        config = bump_config(3.0, 0.5)
        dt = solver.cfl_timestep(config.profile, config.cfl)
        plain, mirrored = (oracle_levels(config, dt, 30, m)[-1] for m in (False, True))
        assert not np.array_equal(plain, plain[::-1])
        assert not np.array_equal(plain, mirrored)
        assert np.max(np.abs(plain - mirrored)) < 1e-12 * np.max(np.abs(plain))

    def test_forcing_is_above_roundoff(self):
        # guards the p = 3 oracle case above against a forcing lost in rounding
        linear = solver.run(bump_config(None, 0.5)).final_state.u
        forced = solver.run(bump_config(3.0, 0.5)).final_state.u
        assert np.max(np.abs(forced - linear)) > 1e-3 * np.max(np.abs(linear))

    def test_blowup_final_state_is_level_k_minus_2(self):
        check_blowup_state(blowup_config(record_every=10), mirrored=True)

    def test_off_centre_blowup_final_state_is_level_k_minus_2(self):
        check_blowup_state(blowup_config(record_every=10, center=OFF_CENTRE), mirrored=False)

    def test_blowup_state_of_a_record_level(self):
        check_blowup_record_levels(blowup_config(record_every=1), mirrored=True)

    def test_off_centre_blowup_state_of_a_record_level(self):
        check_blowup_record_levels(blowup_config(record_every=1, center=OFF_CENTRE),
                                   mirrored=False)

    def test_states_kept_by_a_hook_are_not_overwritten(self):
        check_kept_states(bump_config(3.0, 0.5, record_every=1), mirrored=True)

    def test_off_centre_states_kept_by_a_hook_are_not_overwritten(self):
        check_kept_states(bump_config(3.0, 0.5, record_every=1, center=OFF_CENTRE),
                          mirrored=False)

    @pytest.mark.parametrize("center, mirrored", [(0.0, True), (OFF_CENTRE, False)])
    def test_window_crossing_block_edges_to_both_ends(self, center, mirrored, monkeypatch):
        # run() rebuilds its views each solver.BLOCK nodes of window growth:
        # here five times, the last with the window on both end nodes
        blocks = set()
        views = solver._StepKernel.views

        def recorded(self, out, u, u_prev, nodes):
            blocks.add((nodes.start, nodes.stop))
            return views(self, out, u, u_prev, nodes)

        def spied_run(config, hook):  # the oracle's kernel calls stay unrecorded
            with monkeypatch.context() as patch:
                patch.setattr(solver._StepKernel, "views", recorded)
                return solver.run(config, hook)
        grid = dw.Grid(-7.0, 7.0, 420)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 0.5, 2.0, center),
                                    dw.polynomial_bump(grid, 0.25, 1.5, center))
        config = solver.RunConfig(profile=example1_profile(grid), data=data, t_end=5.0,
                                  p=3.0, record_every=1)
        result = check_kept_states(config, mirrored, spied_run)
        n = grid.n_nodes
        assert result.final_state.support == (0, n)
        assert len(blocks) >= 5 and max(stop for _start, stop in blocks) == n - 1
        assert min(start for start, _stop in blocks) == (n // 2 if mirrored else 1)

    def test_zero_data(self):
        grid = dw.Grid(-10.0, 10.0, 400)
        zeros = np.zeros(grid.n_nodes)
        data = dw.make_initial_data(grid, zeros, zeros)
        kept = []
        result = solver.run(solver.RunConfig(profile=example1_profile(grid), data=data,
                                             t_end=2.0, p=3.0, record_every=4),
                            lambda state: kept.append((state.u.any(), state.dissipation_cum,
                                                       state.au2_cum)))
        assert len(kept) == result.n_steps // 4 + 1
        assert all(record == (False, 0.0, 0.0) for record in kept)
        final = result.final_state
        assert not (final.u.any() or final.u_t.any() or final.v.any())

    def test_support_touching_boundary_nodes(self):
        # u0 is nonzero on the left end node and u1 on the right one; the
        # march holds both at zero but v and u_t at level 1 remember u0
        grid = dw.Grid(-5.0, 5.0, 200)
        profile = example1_profile(grid)
        u0 = np.exp(-((grid.x + 5.0) ** 2))
        u1 = np.exp(-((grid.x - 5.0) ** 2))
        data = dw.InitialData(u0, u1, 10.0)
        config = solver.RunConfig(profile=profile, data=data, t_end=1.0, record_every=1)
        kept = []
        result = solver.run(config, lambda state: kept.append(state))
        levels = oracle_levels(config, result.dt, result.n_steps)
        assert u0[0] != 0.0 and kept[1].v[0] != 0.0
        for state in kept[:-1]:
            assert_state_matches(state, levels, result.dt, config)
        assert_state_matches(result.final_state, levels, result.dt, config, final=True)


def unfused_step(u, u_prev, profile, dt, p):
    """The kernel's formula before folding the coefficients, interior nodes:
    (((2u - u-) + dt^2 (((u[i-1] - 2u) + u[i+1])/dx^2 - V u + f)) + (a dt/2) u-) / d."""
    um, uc, up, w = u[:-2], u[1:-1], u[2:], u_prev[1:-1]
    V, a = profile.V[1:-1], profile.a[1:-1]
    f = 0.0 if p is None else np.abs(uc) ** p
    lap = ((um - 2.0 * uc) + up) / profile.grid.dx**2
    num = ((2.0 * uc - w) + dt * dt * ((lap - V * uc) + f)) + (a * dt / 2.0) * w
    return num / (1.0 + a * dt / 2.0)


class TestFusedKernel:
    @pytest.mark.parametrize("p, amplitude", [(None, 1e-3), (2.5, 0.5), (3.0, 0.5),
                                              (11.0, 0.9)])
    def test_step_matches_unfused_formula_to_round_off(self, p, amplitude):
        # folded coefficients change the rounding, not the scheme: each
        # step stays within a few unit roundoffs of its inputs' scale
        config = bump_config(p, amplitude, t_end=2.0)
        profile = dataclasses.replace(config.profile,
                                      V=config.profile.V + 0.3)  # a sizeable V u term
        dt = solver.cfl_timestep(profile, 0.9)
        eps = np.finfo(float).eps
        u_prev = config.data.u0
        u = first_step(u_prev, config.data.u1, profile, dt, p)
        worst = 0.0
        for _ in range(40):
            got = leapfrog_step(u, u_prev, profile, dt, p)
            ref = unfused_step(u, u_prev, profile, dt, p)
            uc = np.abs(u[1:-1])
            scale = (np.abs(u[:-2]) + uc + np.abs(u[2:]) + np.abs(u_prev[1:-1])
                     + (0.0 if p is None else dt * dt * uc**p))
            err = np.abs(got[1:-1] - ref)
            assert np.all(err <= 8.0 * eps * scale)
            worst = max(worst, float(np.max(err / np.maximum(scale, 1e-300))))
            assert got[0] == got[-1] == 0.0
            u, u_prev = got, u
        assert 0.0 < worst  # the forms differ in rounding, so the test bites


# values on which a rewritten ufunc sequence could round or propagate
# differently: signed zeros, subnormals, infinities and NaNs of both signs
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.inf, -np.inf,
                    np.nan, -np.nan, 1e300, -1e-200, 1.0, -3.5, 0.7])


def keyword_abs_power(u, p, e, out, work):
    """_abs_power as written with np.<name> and out= keywords."""
    if e is None:
        return np.power(np.abs(u, out=work), p, out=out)
    np.abs(u, out=out)
    while not e & 1:
        np.multiply(out, out, out=out)
        e >>= 1
    square = out
    while e := e >> 1:
        square = np.multiply(square, square, out=work)
        if e & 1:
            np.multiply(out, work, out=out)
    return out


def keyword_step(kernel, out, um, uc, up, u_prev, cn, cu, cp, cf, t, work):
    """_StepKernel.step as written with 2.0 * u and out= keywords."""
    np.multiply(uc, 2.0, out=t)
    np.subtract(um, t, out=t)
    np.add(t, up, out=t)
    np.multiply(t, cn, out=t)
    np.multiply(cu, uc, out=out)
    np.add(out, t, out=out)
    np.multiply(cp, u_prev, out=work)
    np.subtract(out, work, out=out)
    if cf is not None:
        f = keyword_abs_power(uc, kernel.p, kernel.exponent, work, t)
        np.multiply(f, cf, out=f)
        np.add(out, f, out=out)


def keyword_first(kernel, out, um, uc, up, u1, s):
    """_StepKernel.first as written with 2.0 * u and out= keywords."""
    acc, work = np.empty_like(uc), np.empty_like(uc)
    np.multiply(uc, 2.0, out=work)
    np.subtract(um, work, out=acc)
    np.add(acc, up, out=acc)
    np.divide(acc, kernel.dx2, out=acc)
    np.multiply(kernel.V[s], uc, out=work)
    np.subtract(acc, work, out=acc)
    np.multiply(kernel.a[s], u1, out=work)
    np.subtract(acc, work, out=acc)
    if kernel.p is not None:
        np.add(acc, keyword_abs_power(uc, kernel.p, kernel.exponent, out, work), out=acc)
    np.multiply(acc, kernel.half_dt2, out=acc)
    np.multiply(u1, kernel.dt, out=out)
    np.add(uc, out, out=out)
    np.add(out, acc, out=out)


class TestKernelBits:
    """The kernel's ufunc calls give the bits of the plain keyword-out
    formulas, on every double, special values included."""

    @staticmethod
    def fields(seed):
        rng = np.random.default_rng(seed)
        n = 4 * SPECIAL.size
        return [np.concatenate([rng.permutation(SPECIAL), rng.normal(size=n - SPECIAL.size)])
                for _ in range(3)]

    @staticmethod
    def assert_same_bits(got, ref):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("p", [None, 1.5, 2.0, 11.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_and_first(self, p, seed):
        u, u_prev, u1 = self.fields(seed)
        n = u.size
        profile = example1_profile(dw.Grid(-5.0, 5.0, n - 1))
        kernel = solver._StepKernel(profile, 0.9 * profile.grid.dx, p)
        s = slice(1, n - 1)
        with np.errstate(**solver._QUIET):
            for forced in (True, False):
                got, ref = np.zeros(n), np.zeros(n)
                args, ref_args = (kernel.views(out, u, u_prev, s) for out in (got, ref))
                if not forced:  # the linear path, as run() takes it
                    args, ref_args = ((*a[:8], None, *a[9:]) for a in (args, ref_args))
                kernel.step(*args)
                keyword_step(kernel, *ref_args)
                self.assert_same_bits(got, ref)
            got, ref = np.zeros(n), np.zeros(n)
            kernel.first(got[s], *solver._stencil(u, 1, n - 1), u1[s], s)
            keyword_first(kernel, ref[s], *solver._stencil(u, 1, n - 1), u1[s], s)
        self.assert_same_bits(got, ref)
        assert np.isnan(got).any() and (got == 0.0).any()  # the special values reach out

    @pytest.mark.parametrize("p", [1.5, 2.0, 11.0])
    def test_abs_power(self, p):
        u = np.concatenate([SPECIAL, -SPECIAL, np.linspace(-2.0, 2.0, 41)])
        e = solver._exponent(p)
        with np.errstate(**solver._QUIET):
            got = solver._abs_power(u, p, e, np.empty_like(u), np.empty_like(u))
            ref = keyword_abs_power(u, p, e, np.empty_like(u), np.empty_like(u))
        self.assert_same_bits(got, ref)


class RecordingRecorder(dw.Recorder):
    """A Recorder that also keeps what it was called with."""

    def __init__(self, config):
        super().__init__(config.profile, None, config.data, None)
        self.calls = []

    def __call__(self, state):
        self.calls.append(state)
        return super().__call__(state)


def without_history(config):
    return dataclasses.replace(config, history=False)


class TestNoHistory:
    @pytest.mark.parametrize("config", [
        bump_config(3.0, 0.5, t_end=3.0, record_every=7),
        bump_config(None, 1e-3, t_end=2.0, record_every=3),
        blowup_config(record_every=10),
        blowup_config(record_every=1),
        bump_config(3.0, 0.5, t_end=3.0, record_every=7, center=OFF_CENTRE),
        blowup_config(record_every=1, center=OFF_CENTRE),
    ], ids=["completed-p3", "completed-linear", "blowup", "blowup-every-level",
            "completed-p3-off-centre", "blowup-every-level-off-centre"])
    def test_march_without_history_matches_history_march(self, config):
        lean = RecordingRecorder(config)
        result = solver.run(without_history(config), lean)
        full = RecordingRecorder(config)
        ref = solver.run(config, full)

        assert result.termination == ref.termination
        assert result.mirrored == ref.mirrored
        assert len(result.records) == len(ref.records) == len(lean.calls) == len(full.calls)
        for rec, ref_rec in zip(result.records, ref.records):
            for name in NORM_COLUMNS:
                assert getattr(rec, name) == getattr(ref_rec, name), name
            for name in HISTORY_COLUMNS:
                assert math.isnan(getattr(rec, name)), name
            assert math.isfinite(ref_rec.dissipation_cum) and math.isfinite(ref_rec.au2_cum)
        for state, ref_state in zip(lean.calls + [result.final_state],
                                    full.calls + [ref.final_state]):
            assert state.v is None and ref_state.v is not None
            assert math.isnan(state.dissipation_cum) and math.isnan(state.au2_cum)
            assert math.isfinite(ref_state.dissipation_cum) and math.isfinite(ref_state.au2_cum)
            assert state.t == ref_state.t and state.support == ref_state.support
            for name in ("u", "u_t"):
                assert np.array_equal(getattr(state, name), getattr(ref_state, name)), name

    def test_wrapped_recorder_marches_without_history(self):
        # the switch is the run's, so a plain function around a Recorder
        # cannot turn the history back on
        config = bump_config(3.0, 0.5, record_every=7)
        recorder, seen = RecordingRecorder(config), []

        def wrapper(state):
            seen.append(state)
            return recorder(state)
        result = solver.run(without_history(config), wrapper)
        assert len(seen) > 1 and result.records
        for state in seen + [result.final_state]:
            assert state.v is None
            assert math.isnan(state.dissipation_cum) and math.isnan(state.au2_cum)


class TestHistory:
    """Every state run() hands out carries the march's history up to its
    level (v and the two cumulative integrals), or NaN without one."""

    @pytest.mark.parametrize("center", [0.0, OFF_CENTRE], ids=["even", "off-centre"])
    def test_blowup_final_state_carries_the_totals_of_its_record(self, center):
        kept = []
        result = solver.run(blowup_config(record_every=1, center=center), kept.append)
        assert result.termination.kind == solver.BLOWUP
        final, seen = result.final_state, kept[-1]
        assert final.t == seen.t
        assert (final.dissipation_cum, final.au2_cum) == (seen.dissipation_cum, seen.au2_cum)
        assert seen.dissipation_cum > 0.0 and seen.au2_cum > 0.0

    @pytest.mark.parametrize("config", [bump_config(3.0, 0.5, record_every=7),
                                        blowup_config(record_every=10)],
                             ids=["completed", "blowup"])
    def test_states_without_history_carry_nan(self, config):
        lean = RecordingRecorder(config)
        result = solver.run(without_history(config), lean)
        assert len(lean.calls) > 1
        for state in lean.calls + [result.final_state]:
            assert state.v is None
            assert math.isnan(state.dissipation_cum) and math.isnan(state.au2_cum)


class TestDrawnSpecs:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spec=centred_specs())
    def test_every_centred_spec_builds_and_marches(self, spec):
        # the test strategy draws only specs the march accepts; the
        # rejection of R <= L itself is test_semilinear_needs_support_beyond_core
        profile, data = cfg.build_problem(spec)
        result = solver.run(cfg.run_config_from_spec(spec, profile, data))
        assert result.termination.kind in (solver.COMPLETED, solver.BLOWUP)
        final = result.final_state
        assert math.isfinite(final.dissipation_cum) and math.isfinite(final.au2_cum)


def window_bad(u):
    """solver._window_bad with the dot product run() passes it."""
    return solver._window_bad(u, float(np.dot(u, u)))


class TestWindowBad:
    def test_non_finite_values_are_bad(self):
        for bad in (np.nan, np.inf, -np.inf):
            u = np.zeros(50)
            u[17] = bad
            assert window_bad(u)

    def test_threshold_is_inclusive(self):
        T = solver.BLOWUP_THRESHOLD
        assert not window_bad(np.array([0.0, T, -T]))
        assert window_bad(np.array([0.0, np.nextafter(T, np.inf)]))
        assert window_bad(np.array([-np.nextafter(T, np.inf), 0.0]))

    def test_bounded_window_failing_the_screen_is_not_bad(self):
        # 10,000 nodes of 1e7 square-sum to 1e18, beyond the dot-product
        # screen, so the exact max/min test decides
        u = np.full(10_000, 1e7)
        assert float(u @ u) > solver._SCREEN
        assert not window_bad(u)

    def test_empty_window_is_not_bad(self):
        assert not window_bad(np.zeros(0))


SEMILINEAR_DEMO = next(path for path in CONFIGS if path.stem == "semilinear_demo")


def semilinear_demo_config(t_end=None, amplitude=None):
    """semilinear_demo.cfg's RunConfig, with t_end or u0's amplitude replaced."""
    spec, _raw = cfg.load_config(str(SEMILINEAR_DEMO))
    if t_end is not None:
        spec = dataclasses.replace(spec, time=dataclasses.replace(spec.time, t_end=t_end))
    if amplitude is not None:
        u0 = dataclasses.replace(spec.data.u0, amplitude=amplitude)
        spec = dataclasses.replace(spec, data=dataclasses.replace(spec.data, u0=u0))
    return cfg.run_config_from_spec(spec, *cfg.build_problem(spec))


def sweep_cell_config(p, i0, record_every=10):
    """The benchmark sweep's (p, I0) cell (dx 0.02, t_end 40), with history."""
    spec = dataclasses.replace(sweep_spec(dx=0.02, t_end=40.0),
                               nonlinearity=cfg.NonlinearitySpec("power", p))
    profile, data = cfg.build_problem(spec)
    data = analysis.scale_data_to_i0(data, profile, i0)
    config = cfg.run_config_from_spec(spec, profile, data)
    return dataclasses.replace(config, record_every=record_every)


def recorded_run(config):
    """solver.run under the Recorder `dampedwave run` attaches."""
    _report, _estimate, mc, norms = runner.prepare_constants(config.profile, config.data)
    return solver.run(config, dw.Recorder(config.profile, mc, config.data, norms))


def run_bits(result):
    """Every record and the final state, bit for bit (repr round-trips a float)."""
    final = result.final_state
    return ([repr(dataclasses.astuple(record)) for record in result.records],
            [field.tobytes() for field in (final.u, final.u_t, final.v)],
            repr((final.t, final.dissipation_cum, final.au2_cum, final.support)),
            result.termination)


FORCING_CASES = {
    "semilinear_demo-t20": lambda: semilinear_demo_config(t_end=20.0),
    "semilinear_demo-amplitude-0.12": lambda: semilinear_demo_config(amplitude=0.12),
    "sweep-p2-I0-1e-8-every-level": lambda: sweep_cell_config(2.0, 1e-8, record_every=1),
    # dot(u, u) never proves the floor here; the exact max|u| does
    "sweep-p7-I0-0.1-exact-max": lambda: sweep_cell_config(7.0, 0.1),
}


class TestNegligibleForcing:
    """A level whose forcing is below FORCING_FLOOR |u| makes the next step
    linear (solver module docstring, Negligible forcing)."""

    @pytest.mark.parametrize("case", FORCING_CASES)
    def test_skipping_the_forcing_changes_no_bit(self, case, monkeypatch):
        config = FORCING_CASES[case]()
        lean = recorded_run(config)
        monkeypatch.setattr(solver, "FORCING_FLOOR", 0.0)
        full = recorded_run(config)
        assert full.forcing_skipped_steps == 0
        assert run_bits(lean) == run_bits(full)
        assert lean.termination.kind == solver.COMPLETED
        skipped = lean.forcing_skipped_steps
        if case.startswith("semilinear_demo-t20"):  # all but first()
            assert skipped == lean.n_steps - 1
        elif case.startswith("semilinear_demo-amplitude"):  # forced, then linear
            assert 0 < skipped < lean.n_steps - 1
        elif case.endswith("exact-max"):
            assert skipped > 0

    @pytest.mark.parametrize("p, i0", [(1.5, 1.0), (13.0, 30.0)])
    def test_blowup_cells_skip_nothing(self, p, i0):
        result = solver.run(sweep_cell_config(p, i0))
        assert result.termination.kind == solver.BLOWUP
        assert result.forcing_skipped_steps == 0

    def test_linear_runs_report_no_count(self):
        grid = dw.Grid(-10.0, 10.0, 200)
        config = solver.RunConfig(profile=example1_profile(grid),
                                  data=reference_data(grid, width=0.5), t_end=1.0)
        assert solver.run(config).forcing_skipped_steps is None

    def test_power_near_one_on_a_fine_grid_marches(self):
        # the bound's float power overflows here; the march skips every step
        # after the first, since cf |u|^(p-1) is below the floor everywhere
        grid = dw.Grid(-2e-6, 2e-6, 4000)  # dx = 1e-9
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 1e-3, 1e-6),
                                    np.zeros(grid.n_nodes))
        config = solver.RunConfig(profile=example1_profile(grid, L=5e-7), data=data,
                                  t_end=2e-8, p=1.0 + 1e-12)
        result = solver.run(config)
        assert result.termination.kind == solver.COMPLETED
        assert result.forcing_skipped_steps == result.n_steps - 1

    @pytest.mark.parametrize("cf_max, p", [
        (3.2e-4, 11.0), (3.2e-4, 2.0), (1e-3, 1.5), (4.4e-19, 1.0 + 1e-12),
        (1.0, 1.0 + 1e-12), (2.0**-60 / 108.0, 1.0001), (5e-324, 50.0), (0.0, 3.0)])
    def test_threshold_proves_the_floor(self, cf_max, p):
        # m is the largest max|u| a level with dot(u, u) at the threshold can
        # hold; its forcing factor is at most the floor, and |u|^p is finite
        sq = solver._negligible_forcing_sq(cf_max, p)
        assert 0.0 <= sq < math.inf
        m = math.sqrt(sq * (1.0 + 1e-6))
        assert cf_max * m ** (p - 1.0) <= solver.FORCING_FLOOR * (1.0 + 1e-12)
        assert m ** p < math.inf


class TestAbsPower:
    @pytest.mark.parametrize("p", range(2, 14))
    def test_integer_power_within_rounding_bound_of_np_power(self, p):
        # each of the chain's multiplies rounds once: (p - 1) unit roundoffs,
        # plus one ulp for np.power's own rounding
        x = np.random.default_rng(p).uniform(-2.0, 2.0, 20000)
        ref = np.power(np.abs(x), float(p))
        got = abs_power(x, p)
        bound = (p - 1) * 2.0**-53 * ref + np.spacing(ref)
        assert np.all(np.abs(got - ref) <= bound)
        assert np.array_equal(got, abs_power(x, float(p)))

    def test_small_powers_within_4_ulp(self):
        x = np.random.default_rng(0).uniform(-2.0, 2.0, 20000)
        for p in range(2, 8):
            ref = np.power(np.abs(x), float(p))
            assert np.all(np.abs(abs_power(x, p) - ref) <= 4 * np.spacing(ref))

    def test_inf_and_nan_pass_through(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -2.0])
        for p in (2.0, 11.0, 2.5):
            got = abs_power(x, p)
            assert np.array_equal(got, np.power(np.abs(x), p), equal_nan=True)

    def test_overflow_is_silent(self):
        x = np.array([1e200, -1e200, 2.0])
        with np.errstate(all="raise"):
            for p in (2, 3, 4, 11, 2.5):
                assert np.array_equal(abs_power(x, p),
                                      [np.inf, np.inf, 2.0**p])

    def test_bit_identical_to_plain_square_and_multiply(self):
        # reference: the squares of |x| multiplied in, lowest bit first
        x = np.random.default_rng(2).uniform(-2.0, 2.0, 1000)
        for p in (1, 2, 3, 8, 11, 12, 13, 64):
            ref, square, e = None, np.abs(x), p
            while e:
                if e & 1:
                    ref = square.copy() if ref is None else ref * square
                e >>= 1
                if e:
                    square = square * square
            out = np.empty_like(x)
            assert abs_power(x, p, out=out) is out
            assert np.array_equal(out, ref)

    def test_non_integer_power_is_np_power(self):
        x = np.random.default_rng(1).uniform(-2.0, 2.0, 1000)
        for p in (1.5, 2.5, 0.5):
            assert np.array_equal(abs_power(x, p), np.power(np.abs(x), p))
