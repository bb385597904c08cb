import numpy as np
import pytest

import dampedwave as dw
from dampedwave.errors import GridDomainError
from dampedwave.spectral import quadratic_forms, rayleigh_ratio

from helpers import dense_c_star


def coarse_problem():
    return dw.poincare_problem(dw.Grid(-40.0, 40.0, 512), 1.0)


class TestEstimate:
    def test_matches_dense_oracle_on_coarse_grid(self):
        problem = coarse_problem()
        estimate = dw.estimate_c_star(problem)
        dense = dense_c_star(problem)
        assert abs(estimate.c_star - dense) / dense < 1e-12
        assert estimate.c_star * estimate.lambda_min == pytest.approx(1.0, rel=1e-12)
        assert estimate.lambda_min > 0.0
        assert estimate.residual <= 1e-10

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("X", [1e155, 1e200])
    def test_dx_squared_beyond_float_range_is_setup_error(self, X):
        # dx^2 overflows: the eigenresidual reads NaN
        problem = dw.poincare_problem(dw.Grid(-X, X, 10), 1.0)
        with pytest.raises(GridDomainError, match="C\\* is out of float range"):
            dw.estimate_c_star(problem)

    def test_precision_loss_is_reported_not_rejected(self):
        estimate = dw.estimate_c_star(dw.poincare_problem(dw.Grid(-1e20, 1e20, 10), 1.0))
        assert 0.0 < estimate.lambda_min < np.inf and np.isfinite(estimate.residual)


class TestClosedForm:
    """The runs the shot crosses in closed form: exterior (no inner mass),
    core (cell inside [-L, L]) and the split nodes between them."""

    @pytest.mark.parametrize("grid, L", [
        (dw.Grid(-20.0, 20.0, 400), 1.0),  # +-L on a node
        (dw.Grid(-12.0, 12.0, 400), 1.0),  # +-L inside a cell
        (dw.Grid(-40.5, 39.5, 800), 1.0),  # asymmetric
        (dw.Grid(-1.0, 1.0, 100), 1.0),  # no exterior: the ends are +-L
        (dw.Grid(-2.005, 1.995, 400), 0.005),  # no cell wholly in the core
        (dw.Grid(-2.0, 2.0, 400), 1.9),  # the core reaches near the ends
        (dw.Grid(-1.0, 9.0, 3), 1.0),  # one inner interior node, 2.33 from the origin
    ], ids=["on-node", "mid-cell", "asymmetric", "no-exterior", "no-core-cell", "wide-core",
            "coarse"])
    def test_matches_dense_oracle_on_edge_grids(self, grid, L):
        problem = dw.poincare_problem(grid, L)
        estimate = dw.estimate_c_star(problem)
        assert estimate.c_star == pytest.approx(dense_c_star(problem), rel=1e-12)
        assert estimate.residual <= 1e-10
        assert np.max(np.abs(estimate.minimizer)) == 1.0
        assert estimate.minimizer[0] == estimate.minimizer[-1] == 0.0

    def test_long_exterior_stays_finite(self):
        # sinh(j mu) overflows near j mu = 710; here the exterior spans 3,000
        far = dw.estimate_c_star(dw.poincare_problem(dw.Grid(-3000.0, 3000.0, 300_000), 1.0))
        near = dw.estimate_c_star(dw.poincare_problem(dw.Grid(-60.0, 60.0, 6000), 1.0))
        assert np.all(np.isfinite(far.minimizer))
        assert far.c_star == pytest.approx(near.c_star, rel=1e-12)
        assert far.residual <= 1e-10

    def test_bisection_runs_to_adjacent_floats(self):
        estimate = dw.estimate_c_star(coarse_problem())
        assert 45 <= estimate.iterations <= 64


class TestContinuum:
    def test_unit_core_radius(self):
        assert dw.c_star_continuum(1.0) == pytest.approx(1.3510339, abs=5e-8)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.5, 3.0])
    def test_root_of_k_tan_kL(self, L):
        k = 1.0 / np.sqrt(dw.c_star_continuum(L))
        assert 0.0 < k * L < np.pi / 2
        assert k * np.tan(k * L) == pytest.approx(1.0, abs=1e-14)

    def test_discrete_converges_at_second_order(self):
        # +-1 on a node at dx = 0.1, 0.05 and 0.025
        continuum = dw.c_star_continuum(1.0)
        errors = [continuum - dw.estimate_c_star(
            dw.poincare_problem(dw.Grid(-40.0, 40.0, n), 1.0)).c_star for n in (800, 1600, 3200)]
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)


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
