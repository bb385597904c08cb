import dataclasses
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave import analysis, solver
from dampedwave import config as cfg
from dampedwave.analysis import _sweep_cell, scale_data_to_i0
from dampedwave.diagnostics import EnergyRecord
from dampedwave.errors import ConfigError, FitError, HypothesisError

import theory
from helpers import example1_profile, sweep_spec


def power(spec, p):
    """spec with the nonlinearity |u|^p, as a sweep cell carries it."""
    return dataclasses.replace(spec, nonlinearity=cfg.NonlinearitySpec("power", p))


def synthetic_records(func, t_values):
    """Minimal records carrying only the fields the fitter reads."""
    out = []
    for t in t_values:
        q = func(t)
        out.append(EnergyRecord(
            t=t, E_u=q, energy_norm=math.sqrt(q), l2_u=math.sqrt(q), l2_local=0.0,
            dissipation_cum=0.0, G_k=0.0, identity_residual=0.0, lemma25_residual=0.0,
            lemma25_ratio=0.0, au2_cum=0.0))
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

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_claimed_rate_rejected(self, rate):
        # a NaN rate would make sup_scaled NaN, not a named error
        records = synthetic_records(lambda t: 1.0 / (1.0 + t), np.linspace(0, 100, 50))
        with pytest.raises(FitError, match="claimed rate must be finite"):
            dw.fit_decay(records, "E_u", (10.0, 100.0), claimed_rate=rate)

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
        report = theory.check_lemma31(1.5, t_max=1000.0)
        assert report.sup_value == pytest.approx(2.0 * 1000.0 / 1002.0, rel=1e-6)
        assert report.sup_doubled == pytest.approx(2.0 * 2000.0 / 2002.0, rel=1e-6)

    @pytest.mark.parametrize("theta, sup_value, sup_doubled", [
        (1.0, 8.2282360362685534, 8.9410062050894030),
        (1.5, 1.9960079828914732, 1.9980019962363977),
    ])
    def test_pinned_to_round_off(self, theta, sup_value, sup_doubled):
        # the values scipy.integrate.simpson gave on the same meshes
        report = theory.check_lemma31(theta, t_max=1000.0)
        assert report.sup_value == pytest.approx(sup_value, rel=1e-15, abs=0.0)
        assert report.sup_doubled == pytest.approx(sup_doubled, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t", [0.01, 1.0, 37.0, 2000.0])
    def test_simpson_exact_on_quadratics(self, t):
        s = theory._convolution_nodes(t, 2001)
        assert len(s) % 2 == 1
        for f, exact in ((np.ones_like(s), t), (s, t**2 / 2.0), (s**2, t**3 / 3.0)):
            assert theory._simpson(f, s) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_supercritical_theta_is_stable(self):
        report = theory.check_lemma31(1.5, t_max=1000.0)
        assert report.hypothesis_satisfied
        assert abs(report.rel_change) < 0.01

    def test_critical_theta_keeps_growing(self):
        report = theory.check_lemma31(1.0, t_max=1000.0)
        assert not report.hypothesis_satisfied
        assert report.rel_change > 0.05

    def test_sup_monotone_in_theta(self):
        sups = [theory.check_lemma31(th, t_max=200.0).sup_value for th in (1.2, 1.5, 2.0)]
        assert sups[0] > sups[1] > sups[2]

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(HypothesisError):
            theory.check_lemma31(0.0)


class TestGagliardoNirenberg:
    def test_theta_formula(self):
        report = theory.check_gagliardo_nirenberg(3.0, n_samples=10)
        assert report.theta == pytest.approx(1.0 / 3.0)

    def test_ratio_scale_invariant(self):
        grid = dw.Grid(-20.0, 20.0, 1024)
        u = dw.gaussian_bump(grid, 1.0, 1.0) * np.cos(grid.x)
        r1 = theory.interpolation_ratio(grid, u, 3.0)
        r2 = theory.interpolation_ratio(grid, 137.0 * u, 3.0)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_bounded_and_stable_in_sample_count(self):
        small = theory.check_gagliardo_nirenberg(3.0, n_samples=300, seed=7)
        large = theory.check_gagliardo_nirenberg(3.0, n_samples=600, seed=7)
        assert small.max_ratio < 2.0
        # doubling the sample count extends the same stream, so the max can
        # only creep up, and for a bounded ratio it barely moves
        assert large.max_ratio >= small.max_ratio
        assert (large.max_ratio - small.max_ratio) / small.max_ratio < 0.10

    def test_invalid_exponent(self):
        with pytest.raises(HypothesisError):
            theory.check_gagliardo_nirenberg(1.0, n_samples=5)


class TestDataScaling:
    def test_hits_target_i0(self):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 1500))
        grid = profile.grid
        data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1.0, 0.75),
                                    np.zeros(grid.n_nodes))
        scaled = scale_data_to_i0(data, dw.compute_data_norms(data, profile), 9e-4)
        assert dw.compute_data_norms(scaled, profile).I0 == pytest.approx(9e-4, rel=1e-12)

    def test_zero_target(self):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 600))
        grid = profile.grid
        data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1.0, 0.75),
                                    np.zeros(grid.n_nodes))
        z = scale_data_to_i0(data, dw.compute_data_norms(data, profile), 0.0)
        assert np.all(z.u0 == 0.0) and np.all(z.u1 == 0.0)

    def test_zero_data_cannot_reach_positive_target(self):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 600))
        grid = profile.grid
        data = dw.make_initial_data(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
        with pytest.raises(HypothesisError):
            scale_data_to_i0(data, dw.compute_data_norms(data, profile), 1e-3)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, target):
        profile = example1_profile(dw.Grid(-30.0, 30.0, 600))
        grid = profile.grid
        data = dw.make_initial_data(grid, dw.gaussian_bump(grid, 1.0, 0.75),
                                    np.zeros(grid.n_nodes))
        with pytest.raises(HypothesisError):
            scale_data_to_i0(data, dw.compute_data_norms(data, profile), target)


class CellFailed(Exception):
    """A cell's own exception type, raised by a stand-in cell."""


def cell_fails():
    raise CellFailed("cell failed")


def stand_in_cells(monkeypatch, log, fail=None, everywhere=False, caller_ends_last=0):
    """Replace the sweep's cell by a stand-in that appends "<pid> <p>:<I0>"
    to the log file, then calls fail() in a forked process (in every
    process with everywhere) and returns "<p>:<I0>". With
    caller_ends_last = n, a forked process's cell goes on only once the
    calling process has logged a cell, and a cell of the calling process
    returns only once the log holds n cells (each wait 10 s at most): the
    caller marches one cell, which ends last. Returns the caller's pid."""
    caller = os.getpid()

    def cell_token(cell):
        token = f"{cell[0].nonlinearity.p}:{cell[1]}"
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {token}\n")
        mine = os.getpid() == caller
        deadline = time.monotonic() + 10.0
        while caller_ends_last and time.monotonic() < deadline:
            pids = [pid for pid, _token in marched(log)]
            if (len(pids) >= caller_ends_last) if mine else (caller in pids):
                break
            time.sleep(0.01)
        if fail is not None and (everywhere or not mine):
            fail()
        return token

    monkeypatch.setattr(analysis, "_sweep_cell", cell_token)
    return caller


def marched(log):
    """The (pid, token) pairs a stand-in cell logged."""
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return [(int(pid), token) for pid, token in (line.split() for line in fh)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestClassifyOutcome:
    T = np.linspace(0.0, 40.0, 81)

    @pytest.mark.parametrize("result, token", [
        (solver.RunResult(termination=solver.Termination(solver.BLOWUP, 2.5)), "blowup(t=2.5)"),
        (solver.RunResult(termination=solver.Termination(solver.INSTABILITY, 2.5)), "unstable"),
        (solver.RunResult(), "growing"),
        (solver.RunResult(synthetic_records(lambda t: (1.0 + t) ** 2, T)), "growing"),
        (solver.RunResult(synthetic_records(lambda t: 1.0, T)), "bounded"),
        (solver.RunResult(synthetic_records(lambda t: (1.0 + t) ** -2, T)), "decayed_at_rate"),
    ], ids=["blowup", "unstable", "no_records", "growing", "bounded", "decayed"])
    def test_token_of_a_synthetic_result(self, result, token):
        assert analysis.classify_outcome(result, 40.0) == token


class TestSweep:
    def test_outcome_matrix_structure(self):
        base = sweep_spec(t_end=20.0, dx=0.1)
        outcomes = dw.semilinear_sweep(base, [2.0, 11.0], [0.0, 1e-4, 20.0])
        assert dw.p_star(base.potential.beta) == 9.0
        assert len(outcomes) == 2
        assert len(outcomes[0]) == 3
        # supercritical power with tiny data: global and decaying
        assert outcomes[1][1] in ("decayed_at_rate", "bounded")
        # zero data: trivially bounded
        assert outcomes[1][0] == "bounded"
        # subcritical power with sizable data: blowup with a tagged time
        assert outcomes[0][2].startswith("blowup(t=")

    def test_worker_pool_matches_serial(self):
        base = sweep_spec(t_end=10.0, dx=0.1)
        serial = dw.semilinear_sweep(base, [11.0], [1e-4, 10.0], workers=1)
        pooled = dw.semilinear_sweep(base, [11.0], [1e-4, 10.0], workers=2)
        assert serial == pooled

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_raise(self, workers, monkeypatch):
        monkeypatch.setattr(analysis.solver, "run", lambda *a, **k: pytest.fail("marched"))
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            dw.semilinear_sweep(sweep_spec(t_end=5.0), [11.0], [1e-3], workers=workers)

    def test_pool_of_two_and_the_caller_match_serial(self):
        base = sweep_spec(t_end=10.0, dx=0.1)
        p_values, i0_values = [3.0, 11.0], [1e-4, 10.0]
        serial = dw.semilinear_sweep(base, p_values, i0_values, workers=1)
        assert dw.semilinear_sweep(base, p_values, i0_values, workers=3) == serial

    @pytest.mark.parametrize("workers, pool_size", [(8, 2), (2, 1)])
    def test_pool_is_capped_at_the_cell_count(self, workers, pool_size, monkeypatch):
        # the caller marches cells too: it forks one process fewer
        fork, forked = os.fork, []

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        outcomes = dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [11.0],
                                       [0.0, 1e-4, 1e-3], workers=workers)
        assert len(forked) == pool_size
        assert all(o in ("decayed_at_rate", "bounded") for o in outcomes[0])
        assert_no_child_left()

    @pytest.mark.parametrize("ends_last", [0, 2, 6])
    def test_tokens_come_back_in_cell_order(self, ends_last, tmp_path, monkeypatch):
        # on 3 processes, a cell of the caller returns only once ends_last
        # cells are logged (0: no wait; 6: the caller's one cell ends last);
        # each cell is marched once, whichever process ends first
        log = tmp_path / "cells.log"
        caller = stand_in_cells(monkeypatch, log, caller_ends_last=ends_last)
        base = sweep_spec(t_end=2.0, dx=0.1)
        outcomes = dw.semilinear_sweep(base, [3.0, 11.0], [1e-4, 1e-3, 1e-2], workers=3)
        tokens = (("3.0:0.0001", "3.0:0.001", "3.0:0.01"),
                  ("11.0:0.0001", "11.0:0.001", "11.0:0.01"))
        assert outcomes == tokens
        cells = marched(log)
        assert sorted(token for _pid, token in cells) == sorted(tokens[0] + tokens[1])
        pids = [pid for pid, _token in cells]
        assert len(set(pids)) <= 3
        if ends_last:
            assert caller in pids and len(set(pids)) >= 2
        if ends_last == 6:
            assert pids.count(caller) == 1
        assert_no_child_left()

    def test_each_cell_of_a_shared_ticket_is_marched_once(self, tmp_path, monkeypatch):
        # 1,030 cells on 3 processes (more than the 2 cores of the lab's
        # host): beyond TICKETS cells a ticket covers 3; the last, 1
        log = tmp_path / "cells.log"
        stand_in_cells(monkeypatch, log)
        i0_values = [i * 1e-6 for i in range(1, 1031)]
        outcomes = dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [3.0], i0_values,
                                       workers=3)
        tokens = tuple(f"3.0:{i0}" for i0 in i0_values)
        assert outcomes == (tokens,)
        assert sorted(token for _pid, token in marched(log)) == sorted(tokens)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_raising_cell_cancels_the_cells_not_started(self, workers, tmp_path,
                                                          monkeypatch):
        # every cell raises: each process marches at most one, and the
        # cell's own exception type reaches the caller
        log = tmp_path / "cells.log"
        stand_in_cells(monkeypatch, log, fail=cell_fails, everywhere=True)
        with pytest.raises(CellFailed):
            dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [3.0, 11.0],
                                [1e-4, 1e-3, 1e-2], workers=workers)
        assert 1 <= len(marched(log)) <= workers
        assert_no_child_left()

    def test_a_cell_raising_in_a_forked_process_reaches_the_caller(self, tmp_path,
                                                                   monkeypatch, capsys):
        # with its own type: a MemoryError is still "cannot allocate", exit 1
        from dampedwave import cli

        def out_of_memory():
            raise MemoryError("Unable to allocate 1.57 TiB for an array")

        log = tmp_path / "cells.log"
        caller = stand_in_cells(monkeypatch, log, fail=out_of_memory, caller_ends_last=2)
        argv = ["sweep", "--p", "3", "--i0", "1e-4,1e-3", "--dx", "0.1", "--t-end", "2",
                "--workers", "2", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "cannot allocate: Unable to allocate 1.57 TiB for an array\n")
        assert not (tmp_path / "sweep.csv").exists()
        assert sorted(pid == caller for pid, _token in marched(log)) == [False, True]
        assert_no_child_left()

    def test_a_forked_cell_exception_carries_its_traceback(self, tmp_path, monkeypatch):
        # the caller re-raises the cell's KeyError chained from the text of
        # the forked process's traceback, which names the raising line
        def key_missing():
            raise KeyError("only in a forked process")

        stand_in_cells(monkeypatch, tmp_path / "cells.log", fail=key_missing,
                       caller_ends_last=2)
        with pytest.raises(KeyError, match="only in a forked process") as raised:
            dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [3.0], [1e-4, 1e-3], workers=2)
        cause = raised.value.__cause__
        assert type(cause) is analysis._RemoteTraceback
        assert ', in key_missing\n    raise KeyError("only in a forked process")\n' in str(cause)
        assert str(cause).endswith("KeyError: 'only in a forked process'\n")
        assert_no_child_left()

    def test_a_forked_process_ending_without_tokens_raises(self, tmp_path, monkeypatch):
        stand_in_cells(monkeypatch, tmp_path / "cells.log", fail=lambda: os._exit(3),
                       caller_ends_last=2)
        with pytest.raises(RuntimeError, match=r"^sweep process \d+ ended with exit status 3 "
                                               r"and no tokens$"):
            dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [3.0], [1e-4, 1e-3], workers=2)
        assert_no_child_left()

    def test_one_cell_runs_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        outcomes = dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [11.0], [1e-4], workers=4)
        assert len(outcomes[0]) == 1

    def test_empty_i0_list_gives_empty_rows(self, monkeypatch):
        monkeypatch.setattr(analysis.solver, "run", lambda *a, **k: pytest.fail("marched"))
        assert dw.semilinear_sweep(sweep_spec(t_end=2.0, dx=0.1), [3.0, 11.0], [],
                                   workers=2) == ((), ())

    def test_single_cell_supercritical_decays(self):
        outcome = _sweep_cell((power(sweep_spec(t_end=30.0, dx=0.05), 11.0), 1e-4))
        assert outcome == "decayed_at_rate"

    def test_invalid_cell_becomes_error_token(self):
        base = sweep_spec(t_end=2.0, dx=0.1)
        assert _sweep_cell((power(base, 0.5), 1e-3)) == "error(ConfigError)"
        assert _sweep_cell((power(base, 3.0), -1.0)) == "error(HypothesisError)"
        assert _sweep_cell((power(base, math.nan), 1e-3)) == "error(ConfigError)"
        assert _sweep_cell((power(base, 3.0), math.inf)) == "error(HypothesisError)"
        assert _sweep_cell((power(base, 3.0), 1e300)) == "error(HypothesisError)"

    def test_mixed_sweep_keeps_valid_cells(self):
        outcomes = dw.semilinear_sweep(sweep_spec(t_end=5.0, dx=0.1), [0.5, 11.0], [1e-4])
        assert outcomes[0] == ("error(ConfigError)",)
        assert outcomes[1][0] in ("decayed_at_rate", "bounded")

    @pytest.mark.parametrize("base", [
        sweep_spec(L=10.0, t_end=5.0), sweep_spec(dx=0.0, t_end=5.0),
        sweep_spec(dx=math.nan), sweep_spec(t_end=math.inf), sweep_spec(L=math.nan),
        sweep_spec(V0=math.nan), sweep_spec(eps1=math.nan), sweep_spec(data_width=math.inf),
        sweep_spec(cfl=math.nan), sweep_spec(padding=math.inf),
    ])
    def test_base_invalid_for_every_cell_raises_before_marching(self, base, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a cell was dispatched")
        monkeypatch.setattr(analysis.solver, "run", never)
        monkeypatch.setattr(os, "fork", never)
        with pytest.raises(ConfigError):
            dw.semilinear_sweep(base, [11.0], [1e-3], workers=2)

    @pytest.mark.parametrize("potential", [
        cfg.PotentialSpec("gaussian", V0=0.01, beta=None, nu=1.0, L=None),
        cfg.PotentialSpec("none", V0=None, beta=None, nu=None, L=None),
    ], ids=["gaussian", "none"])
    def test_potential_without_beta_raises_before_marching(self, potential, monkeypatch):
        monkeypatch.setattr(analysis.solver, "run", lambda *a, **k: pytest.fail("marched"))
        base = dataclasses.replace(sweep_spec(t_end=5.0), potential=potential)
        with pytest.raises(ConfigError, match="needs a potential with beta"):
            dw.semilinear_sweep(base, [11.0], [1e-3])

    def test_each_cell_is_built_from_the_base_with_its_power(self, monkeypatch):
        # one problem and one RunConfig per process, from the base without
        # its power; each cell replaces its data and power in that config,
        # which checks itself once per cell
        built, configured, checked, marched = [], [], [], []
        build, configure = analysis.cfg.build_problem, analysis.cfg.run_config_from_spec
        check, march = analysis.solver.RunConfig.__post_init__, analysis.solver.run
        monkeypatch.setattr(analysis.cfg, "build_problem",
                            lambda spec: built.append(spec) or build(spec))
        monkeypatch.setattr(analysis.cfg, "run_config_from_spec",
                            lambda spec, *args: configured.append(spec) or configure(spec, *args))
        monkeypatch.setattr(analysis.solver.RunConfig, "__post_init__",
                            lambda self: checked.append(self.p) or check(self))
        monkeypatch.setattr(analysis.solver, "run",
                            lambda config, hook: marched.append(config) or march(config, hook))
        analysis.base_run.cache_clear()
        base = sweep_spec(t_end=2.0, dx=0.1)
        dw.semilinear_sweep(power(base, 5.0), [3.0, 11.0], [1e-4, 1e-3], workers=1)
        assert built == [base] and configured == [base]
        assert checked == [None, None, 3.0, 3.0, 11.0, 11.0]
        profile = analysis.base_run(base).profile
        assert all(config.profile is profile and not config.history for config in marched)
        assert [config.p for config in marched] == [3.0, 3.0, 11.0, 11.0]
        peaks = [config.data.u0.max() for config in marched]
        assert peaks[0] == pytest.approx(0.1 * peaks[1], rel=1e-12) and peaks[2:] == peaks[:2]

    def test_data_norm_undefined_fails_only_the_scaled_cells(self):
        # V underflows to 0 away from the core: I0 cannot be rescaled, but
        # zero data still marches
        base = sweep_spec(V0=5e-324, t_end=2.0, dx=0.1)
        assert dw.semilinear_sweep(base, [3.0], [0.0, 1e-3]) == (
            ("bounded", "error(HypothesisError)"),)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_raises_before_marching(self, beta, monkeypatch):
        monkeypatch.setattr(analysis.solver, "run", lambda *a, **k: pytest.fail("marched"))
        with pytest.raises(ConfigError, match="beta must be finite"):
            dw.semilinear_sweep(sweep_spec(beta=beta, t_end=5.0), [11.0], [1e-3], workers=1)
