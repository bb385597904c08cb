import numpy as np
import pytest

import dampedwave as dw
from dampedwave.errors import ConvergenceError, GridDomainError
from dampedwave.spectral import _ldl_factor, _ldl_solve, _pencil, quadratic_forms, rayleigh_ratio

from helpers import dense_c_star


def coarse_problem():
    return dw.poincare_problem(dw.Grid(-40.0, 40.0, 512), 1.0)


class TestEstimate:
    def test_matches_dense_oracle_on_coarse_grid(self):
        problem = coarse_problem()
        estimate = dw.estimate_c_star(problem)
        dense = dense_c_star(problem)
        assert abs(estimate.c_star - dense) / dense < 1e-6
        assert estimate.c_star * estimate.lambda_min == pytest.approx(1.0, rel=1e-12)
        assert estimate.lambda_min > 0.0
        assert estimate.residual <= 1e-6

    @pytest.mark.parametrize("n_cells, L", [(400, 1.0), (1000, 2.5), (4000, 3.0)])
    def test_matches_dense_oracle_to_round_off(self, n_cells, L):
        problem = dw.poincare_problem(dw.Grid(-20.0, 20.0, n_cells), L)
        dense = dense_c_star(problem)
        assert dw.estimate_c_star(problem).c_star == pytest.approx(dense, rel=1e-12)

    def test_variational_upper_bound(self):
        # any test function bounds lambda_min from above; use the plateau-hat
        # that is 1 on [-L, L] and decays linearly to 0 over one unit outside
        problem = coarse_problem()
        x = problem.grid.x
        w = np.clip(2.0 - np.abs(x), 0.0, 1.0)
        w[0] = w[-1] = 0.0
        q_grad, q_in, q_out = quadratic_forms(problem, w)
        quotient = (q_grad + q_out) / q_in
        estimate = dw.estimate_c_star(problem)
        assert estimate.lambda_min <= quotient + 1e-12

    def test_doubling_core_radius_at_least_doubles_c_star(self):
        grid = dw.Grid(-40.0, 40.0, 8192)
        c1 = dw.estimate_c_star(dw.poincare_problem(grid, 1.0)).c_star
        c2 = dw.estimate_c_star(dw.poincare_problem(grid, 2.0)).c_star
        assert c2 > c1
        assert c2 > 2.0 * c1

    def test_minimizer_is_extremal(self):
        problem = coarse_problem()
        estimate = dw.estimate_c_star(problem)
        ratio = rayleigh_ratio(problem, estimate.minimizer)
        assert ratio == pytest.approx(estimate.c_star, rel=1e-9)
        assert estimate.edge_tail < 1e-10

    def test_refinement_monotone_second_order(self):
        # aligned seams: L = 1 lands on a node for every n here
        values = [
            dw.estimate_c_star(dw.poincare_problem(dw.Grid(-32.0, 32.0, n), 1.0)).c_star
            for n in (256, 512, 1024, 2048)
        ]
        diffs = np.diff(values)
        assert np.all(diffs > -1e-12)  # nondecreasing toward the limit
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.25)
        assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.25)

    def test_translation_invariance_with_aligned_seams(self):
        c_a = dw.estimate_c_star(dw.poincare_problem(dw.Grid(-40.0, 40.0, 8000), 1.0)).c_star
        c_b = dw.estimate_c_star(dw.poincare_problem(dw.Grid(-40.5, 39.5, 8000), 1.0)).c_star
        assert abs(c_a - c_b) / c_a < 1e-10

    def test_empty_core_is_setup_error(self):
        grid = dw.Grid(-40.005, 39.995, 8000)  # nodes at +-0.005 offsets
        with pytest.raises(GridDomainError):
            dw.poincare_problem(grid, 1e-4)

    def test_iteration_cap_raises_with_residual(self):
        problem = coarse_problem()
        with pytest.raises(ConvergenceError) as err:
            dw.estimate_c_star(problem, tol=1e-15, max_iter=2)
        assert err.value.residual is not None


class TestTridiagonalSolve:
    @pytest.mark.parametrize("grid, L, split", [
        (dw.Grid(-32.0, 32.0, 256), 1.0, False),  # +-L on a node
        (dw.Grid(-12.0, 12.0, 400), 1.0, True),  # +-L inside a cell
    ])
    def test_ldl_solve_matches_dense_solve(self, grid, L, split):
        problem = dw.poincare_problem(grid, L)
        assert (abs(L / grid.dx - round(L / grid.dx)) > 0.1) == split
        diag, off, _ = _pencil(problem)
        A = np.diag(diag) + off * (np.eye(diag.size, k=1) + np.eye(diag.size, k=-1))
        b = np.random.default_rng(3).standard_normal(diag.size)
        y = _ldl_solve(*_ldl_factor(diag, off), b)
        want = np.linalg.solve(A, b)
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)


class TestInequality:
    def test_outer_supported_function_has_zero_ratio(self):
        problem = coarse_problem()
        x = problem.grid.x
        w = np.where(np.abs(x) >= 5.0, np.exp(-((np.abs(x) - 10.0) ** 2)), 0.0)
        w[0] = w[-1] = 0.0
        assert rayleigh_ratio(problem, w) == 0.0

    def test_random_samples_never_violate(self):
        estimate = dw.estimate_c_star(coarse_problem())
        report = dw.verify_poincare_on_samples(estimate, 200, seed=42)
        assert report.passed
        assert report.violations == 0
        assert 0.0 < report.max_ratio <= report.threshold
