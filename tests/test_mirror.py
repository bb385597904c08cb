"""Even problems march only x >= 0: which problems qualify, and what they
hand out (solver module docstring, Mirror symmetry)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

import dampedwave as dw
from dampedwave import analysis, solver
from dampedwave import config as cfg
from dampedwave.coefficients import free_space_profile

from helpers import CONFIGS, centred_specs, example1_profile, reference_spec, sweep_spec


def is_palindrome(f):
    return np.array_equal(f, f[::-1])


def assert_even_problem(grid, profile, data):
    x = grid.x
    assert grid.n_nodes % 2 == 1 and x[grid.n_nodes // 2] == 0.0
    assert np.array_equal(x, -x[::-1])
    for name, f in (("V", profile.V), ("a", profile.a), ("phi", profile.phi),
                    ("u0", data.u0), ("u1", data.u1)):
        assert is_palindrome(f), name


def march(spec, t_end):
    """solver.run of a spec with t_end cut short, states kept by the hook."""
    spec = dataclasses.replace(spec, time=dataclasses.replace(spec.time, t_end=t_end))
    profile, data = cfg.build_problem(spec)
    states = []
    result = solver.run(cfg.run_config_from_spec(spec, profile, data),
                        lambda state: states.append(state))
    return (profile.grid, profile, data), result, states + [result.final_state]


class TestWhichRunsMirror:
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_committed_configs_march_mirrored(self, path):
        spec, _raw = cfg.load_config(str(path))
        problem, result, _states = march(spec, t_end=2.0)
        assert_even_problem(*problem)
        assert result.final_state.mirrored

    def test_benchmark_sweep_base_marches_mirrored(self):
        # the grid and data of `dampedwave sweep --dx 0.02 --t-end 40`,
        # marched for a short while
        base = sweep_spec(dx=0.02, t_end=40.0)
        profile, data = cfg.build_problem(base)
        data = analysis.scale_data_to_i0(data, dw.compute_data_norms(data, profile), 1.0)
        assert_even_problem(profile.grid, profile, data)
        config = solver.RunConfig(profile=profile, data=data, t_end=0.5, p=11.0,
                                  record_every=base.time.record_every, history=False)
        result = solver.run(config, dw.Recorder(profile, None, data, None))
        assert result.final_state.mirrored and result.termination.kind == solver.COMPLETED

    @pytest.mark.parametrize("center, mirrored", [(0.0, True), (0.5, False)])
    def test_even_runs_step_only_the_right_half(self, center, mirrored, monkeypatch):
        # the first node each kernel call writes (its output view's offset
        # in the level buffer); an even run's start at the centre node
        starts = []
        for name in ("step", "first"):
            kernel_update = getattr(solver._StepKernel, name)

            def recorded(self, out, *args, _update=kernel_update):
                offset = out.ctypes.data - out.base.ctypes.data
                starts.append(offset // out.itemsize)
                return _update(self, out, *args)
            monkeypatch.setattr(solver._StepKernel, name, recorded)
        grid = dw.Grid(-20.0, 20.0, 800)
        data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1e-3, 1.0, center),
                                    np.zeros(grid.n_nodes))
        result = solver.run(solver.RunConfig(profile=example1_profile(grid), data=data,
                                             t_end=2.0))
        assert result.final_state.mirrored is mirrored
        assert len(starts) == result.n_steps
        assert (min(starts) == grid.n_nodes // 2) is mirrored

    def test_off_centre_data_march_the_whole_line(self):
        spec = reference_spec(n_cells=600)
        u0 = dataclasses.replace(spec.data.u0, center=0.5)
        spec = dataclasses.replace(spec, data=dataclasses.replace(spec.data, u0=u0))
        _problem, result, _states = march(spec, t_end=1.0)
        assert not result.final_state.mirrored

    def test_odd_velocity_marches_the_whole_line(self):
        grid = dw.Grid(-20.0, 20.0, 800)
        bump = dw.gaussian_bump(grid, 1e-3, 1.0)
        data = dw.make_initial_data(grid, bump, bump * grid.x)
        result = solver.run(solver.RunConfig(profile=example1_profile(grid), data=data,
                                             t_end=1.0))
        assert not result.final_state.mirrored

    def test_palindromes_off_a_mirror_grid_march_the_whole_line(self):
        # V = a = 0 and data symmetric about the middle node x = 5 are
        # palindromes, but the core |x| <= L the diagnostics weigh is not
        grid = dw.Grid(-50.0, 60.0, 1100)
        bump = dw.polynomial_bump(grid, 1e-3, 2.0, 3.0)
        data = dw.make_initial_data(grid, bump + bump[::-1], np.zeros(grid.n_nodes))
        assert grid.n_nodes % 2 == 1 and is_palindrome(data.u0) and data.u0.any()
        result = solver.run(solver.RunConfig(profile=free_space_profile(grid), data=data,
                                             t_end=1.0))
        assert not result.final_state.mirrored

    @pytest.mark.parametrize("x_min, x_max, n_cells", [(-50.0, 60.0, 1100),
                                                       (-60.0, 60.0, 1201)],
                             ids=["asymmetric", "odd-cell-count"])
    def test_other_explicit_grids_march_the_whole_line(self, x_min, x_max, n_cells):
        spec = reference_spec(n_cells=n_cells)
        spec = dataclasses.replace(spec, grid=dataclasses.replace(
            spec.grid, x_min=x_min, x_max=x_max))
        _problem, result, _states = march(spec, t_end=1.0)
        assert not result.final_state.mirrored


class TestMirrorProperty:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(spec=centred_specs())
    def test_centred_specs_sample_and_march_bitwise_even(self, spec):
        (grid, profile, data), result, states = march(spec, spec.time.t_end)
        assert_even_problem(grid, profile, data)
        assert result.final_state.mirrored
        n = grid.n_nodes
        for state in states:
            lo, hi = state.support
            assert lo == n - hi or lo == hi == 0
            for name in ("u", "u_t", "v"):
                f = getattr(state, name)
                assert f is None or is_palindrome(f), name
