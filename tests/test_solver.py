import numpy as np
import pytest

import dampedwave as dw
from dampedwave import solver
from dampedwave.errors import ConfigError

from helpers import example1_profile, reference_data, reference_run_config


def dalembert_error(n_cells, t_end=5.0, sigma=0.5):
    grid = dw.Grid(-12.0, 12.0, n_cells)
    profile = dw.free_space_profile(grid)
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

    def test_uniform_damped_ode_oracle_periodic(self):
        # spatially uniform data on a periodic ring reduce the scheme to the
        # scalar equation u'' + a u' = 0 with solution c + g (1 - e^{-at})/a
        grid = dw.Grid(-1.0, 1.0, 64)
        a0, c, g, dt, n = 0.5, 0.7, 1.3, 0.005, 400
        profile = dw.make_profile(grid, np.zeros(grid.n_nodes),
                                  np.full(grid.n_nodes, a0), 0.5, a0)
        u_prev = np.full(grid.n_nodes, c)
        u = solver.first_step(u_prev, np.full(grid.n_nodes, g), profile, dt, bc="periodic")
        for _ in range(n - 1):
            u, u_prev = solver.leapfrog_step(u, u_prev, profile, dt, bc="periodic"), u
        exact = c + g * (1 - np.exp(-a0 * n * dt)) / a0
        assert np.max(np.abs(u - exact)) < 5e-6

    def test_time_reversibility_undamped(self):
        grid = dw.Grid(-5.0, 5.0, 400)
        profile = dw.make_profile(
            grid, dw.build_potential_example1(0.01, 2.0, 1.0, grid),
            np.zeros(grid.n_nodes), 1.0, 0.0)
        u0 = dw.polynomial_bump(grid, 1.0, 1.0)
        dt, n = 0.9 * grid.dx, 150
        hist = [u0, solver.first_step(u0, np.zeros_like(u0), profile, dt)]
        for _ in range(n - 1):
            hist.append(solver.leapfrog_step(hist[-1], hist[-2], profile, dt))
        back = [hist[-1], hist[-2]]
        for _ in range(n - 1):
            back.append(solver.leapfrog_step(back[-1], back[-2], profile, dt))
        assert np.max(np.abs(back[-1] - u0)) < 1e-12

    def test_finite_propagation_speed(self):
        grid = dw.Grid(-5.0, 5.0, 400)
        profile = example1_profile(grid, eps1=0.5)
        u_prev = dw.polynomial_bump(grid, 1.0, 1.0)
        live0 = np.nonzero(u_prev)[0]
        u = solver.first_step(u_prev, np.zeros_like(u_prev), profile, 0.9 * grid.dx)
        for n in range(1, 60):
            live = np.nonzero(u)[0]
            assert live[0] >= live0[0] - n and live[-1] <= live0[-1] + n
            u, u_prev = solver.leapfrog_step(u, u_prev, profile, 0.9 * grid.dx), u

    def test_implicit_damping_well_posed(self):
        grid = dw.Grid(-5.0, 5.0, 200)
        profile = dw.make_profile(grid, np.zeros(grid.n_nodes),
                                  np.full(grid.n_nodes, 1e6), 1.0, 1e6)
        u0 = dw.polynomial_bump(grid, 1.0, 1.0)
        out = solver.leapfrog_step(u0, u0, profile, 0.9 * grid.dx)
        assert np.all(np.isfinite(out))
        # denominator 1 + a dt/2 >= 1 keeps the update bounded by its inputs
        assert np.max(np.abs(out)) <= 1.0 + 1e-12


class TestDomain:
    def test_make_domain_formula(self):
        grid = dw.Grid(-10.0, 10.0, 100)
        data = dw.make_initial_data(grid, np.zeros(101), np.zeros(101), support_radius=2.0)
        domain = solver.make_domain(data, t_end=50.0, dx=0.05, padding=3.0)
        assert domain.x_max == pytest.approx(55.0)
        assert domain.x_min == pytest.approx(-55.0)
        half = solver.make_domain(data, t_end=25.0, dx=0.05, padding=3.0)
        assert half.x_max == pytest.approx(30.0)

    def test_unbounded_data_requires_radius(self):
        grid = dw.Grid(-10.0, 10.0, 100)
        data = dw.make_initial_data(grid, np.ones(101), np.zeros(101),
                                    support_radius=np.inf)
        with pytest.raises(ConfigError):
            solver.make_domain(data, 10.0, 0.05)

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
            diagnostics_hook=lambda state, d, a2: state.t,
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
            solver.run(solver.RunConfig(profile=profile, data=data, t_end=1.0, p=2.0))
        with pytest.raises(ConfigError):
            solver.run(solver.RunConfig(profile=profile, data=data, t_end=1.0, p=0.5))

    def test_non_finite_coefficients_rejected(self):
        # the light-cone skip relies on V u = a u = 0 wherever u = 0
        grid = dw.Grid(-10.0, 10.0, 200)
        data = reference_data(grid, width=0.5)
        for field in ("V", "a"):
            profile = example1_profile(grid)
            getattr(profile, field)[0] = np.inf
            with pytest.raises(ConfigError):
                solver.run(solver.RunConfig(profile=profile, data=data, t_end=1.0))

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
            result = solver.run(config, lambda state, d, a2: seen.append(np.geterr()))
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


def oracle_levels(config, dt, n_levels):
    """u^0 .. u^n_levels by a plain first_step + leapfrog_step loop on the
    whole grid."""
    prof, data, p = config.profile, config.data, config.p
    levels = [data.u0, solver.first_step(data.u0, data.u1, prof, dt, p)]
    while len(levels) <= n_levels:
        levels.append(solver.leapfrog_step(levels[-1], levels[-2], prof, dt, p))
    return levels


def oracle_fields(levels, level, dt, u1, final=False):
    """(u, u_t, v) at a level, reconstructed the way run() documents."""
    v = np.zeros_like(levels[0])
    for k in range(1, level + 1):
        v = v + 0.5 * dt * (levels[k - 1] + levels[k])
    if level == 0:
        u_t = u1
    elif final:
        u_t = (3.0 * levels[level] - 4.0 * levels[level - 1] + levels[level - 2]) / (2.0 * dt)
    else:
        u_t = (levels[level + 1] - levels[level - 1]) / (2.0 * dt)
    return levels[level], u_t, v


def assert_state_matches(state, levels, dt, u1, final=False):
    level = round(state.t / dt)
    u, u_t, v = oracle_fields(levels, level, dt, u1, final)
    assert np.array_equal(state.u, u), f"u differs at level {level}"
    assert np.array_equal(state.u_t, u_t), f"u_t differs at level {level}"
    assert np.array_equal(state.v, v), f"v differs at level {level}"
    if level > 0:
        assert np.array_equal(state.u_prev, levels[level - 1])
    else:
        assert state.u_prev is None


def bump_config(p, amplitude, t_end=3.0, record_every=5):
    # support radius 2 > L = 1, and X = 6 leaves the light cone inside the grid
    grid = solver.domain_for_radius(2.0, t_end, 0.05, 1.0)
    profile = example1_profile(grid)
    data = dw.make_initial_data(grid, dw.polynomial_bump(grid, amplitude, 2.0),
                                dw.polynomial_bump(grid, 0.5 * amplitude, 1.5))
    return solver.RunConfig(profile=profile, data=data, t_end=t_end, p=p,
                            record_every=record_every)


class TestWindowedMarch:
    @pytest.mark.parametrize("p, amplitude", [(None, 1e-3), (3.0, 0.5), (2.5, 0.5)])
    def test_final_state_equals_full_grid_oracle(self, p, amplitude):
        config = bump_config(p, amplitude)
        result = solver.run(config)
        assert result.termination.kind == solver.COMPLETED
        levels = oracle_levels(config, result.dt, result.n_steps)
        assert_state_matches(result.final_state, levels, result.dt, config.data.u1, final=True)
        # the window never reached the ends, so the skipped nodes were live zeros
        assert np.all(result.final_state.u[:5] == 0.0) and np.all(result.final_state.u[-5:] == 0.0)

    def test_forcing_is_above_roundoff(self):
        # guards the p = 3 oracle case above against a forcing lost in rounding
        linear = solver.run(bump_config(None, 0.5)).final_state.u
        forced = solver.run(bump_config(3.0, 0.5)).final_state.u
        assert np.max(np.abs(forced - linear)) > 1e-3 * np.max(np.abs(linear))

    def test_blowup_final_state_is_level_k_minus_2(self):
        grid = solver.domain_for_radius(2.0, 20.0, 0.05, 2.0)
        data = dw.make_initial_data(grid, dw.polynomial_bump(grid, 4.0, 2.0),
                                    np.zeros(grid.n_nodes))
        config = solver.RunConfig(profile=example1_profile(grid), data=data,
                                  t_end=20.0, p=2.0)
        result = solver.run(config)
        assert result.termination.kind == solver.BLOWUP
        k = round(result.termination.time / result.dt)
        state = result.final_state
        assert round(state.t / result.dt) == k - 2
        levels = oracle_levels(config, result.dt, k - 1)
        assert_state_matches(state, levels, result.dt, data.u1)

    def test_states_kept_by_a_hook_are_not_overwritten(self):
        config = bump_config(3.0, 0.5, record_every=1)
        kept = []
        result = solver.run(config, lambda state, d, a2: kept.append(state))
        assert len(kept) == result.n_steps + 1
        levels = oracle_levels(config, result.dt, result.n_steps)
        for state in kept[:-1]:
            assert_state_matches(state, levels, result.dt, config.data.u1)
        assert_state_matches(kept[-1], levels, result.dt, config.data.u1, final=True)

    def test_zero_data(self):
        grid = dw.Grid(-10.0, 10.0, 400)
        zeros = np.zeros(grid.n_nodes)
        data = dw.make_initial_data(grid, zeros, zeros)
        kept = []
        result = solver.run(solver.RunConfig(profile=example1_profile(grid), data=data,
                                             t_end=2.0, p=3.0, record_every=4),
                            lambda state, d, a2: kept.append((state.u.any(), d, a2)))
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
        result = solver.run(config, lambda state, d, a2: kept.append(state))
        levels = oracle_levels(config, result.dt, result.n_steps)
        assert u0[0] != 0.0 and kept[1].v[0] != 0.0
        for state in kept[:-1]:
            assert_state_matches(state, levels, result.dt, u1)
        assert_state_matches(result.final_state, levels, result.dt, u1, final=True)


class TestAbsPower:
    @pytest.mark.parametrize("p", range(2, 14))
    def test_integer_power_within_rounding_bound_of_np_power(self, p):
        # each of the chain's multiplies rounds once: (p - 1) unit roundoffs,
        # plus one ulp for np.power's own rounding
        x = np.random.default_rng(p).uniform(-2.0, 2.0, 20000)
        ref = np.power(np.abs(x), float(p))
        got = solver.abs_power(x, p)
        bound = (p - 1) * 2.0**-53 * ref + np.spacing(ref)
        assert np.all(np.abs(got - ref) <= bound)
        assert np.array_equal(got, solver.abs_power(x, float(p)))

    def test_small_powers_within_4_ulp(self):
        x = np.random.default_rng(0).uniform(-2.0, 2.0, 20000)
        for p in range(2, 8):
            ref = np.power(np.abs(x), float(p))
            assert np.all(np.abs(solver.abs_power(x, p) - ref) <= 4 * np.spacing(ref))

    def test_inf_and_nan_pass_through(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -2.0])
        for p in (2.0, 11.0, 2.5):
            got = solver.abs_power(x, p)
            assert np.array_equal(got, np.power(np.abs(x), p), equal_nan=True)

    def test_overflow_is_silent(self):
        x = np.array([1e200, -1e200, 2.0])
        with np.errstate(all="raise"):
            for p in (2, 3, 4, 11, 2.5):
                assert np.array_equal(solver.abs_power(x, p),
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
            assert solver.abs_power(x, p, out=out) is out
            assert np.array_equal(out, ref)

    def test_non_integer_power_is_np_power(self):
        x = np.random.default_rng(1).uniform(-2.0, 2.0, 1000)
        for p in (1.5, 2.5, 0.5):
            assert np.array_equal(solver.abs_power(x, p), np.power(np.abs(x), p))
