import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave.coefficients import (
    core_sets,
    free_space_profile,
    inner_cell_weights,
    partition_cell_weights,
    potential_bounds_at_core,
)
from dampedwave.errors import GridDomainError, HypothesisError

from helpers import check, example1_profile


class TestGrid:
    def test_basic_invariants(self):
        g = dw.Grid(-3.0, 5.0, 16)
        assert g.dx == pytest.approx(0.5)
        assert g.n_nodes == 17
        assert g.x[0] == -3.0 and g.x[-1] == 5.0
        # uniform spacing by construction
        assert np.max(np.abs(np.diff(g.x) - g.dx)) < 1e-15

    def test_must_contain_origin(self):
        with pytest.raises(GridDomainError):
            dw.Grid(1.0, 5.0, 10)
        with pytest.raises(GridDomainError):
            dw.Grid(-5.0, -1.0, 10)

    def test_width_beyond_float_range(self):
        with pytest.raises(GridDomainError, match="wider than a float"):
            dw.Grid(-1e308, 1e308, 10)

    @pytest.mark.parametrize("n_cells", [np.iinfo(np.intp).max // 8, 10**20, 10**302])
    def test_node_count_numpy_cannot_address(self, n_cells):
        with pytest.raises(GridDomainError, match="more nodes than numpy can address"):
            dw.Grid(-10.0, 10.0, n_cells)

    @settings(max_examples=50, derandomize=True)
    @given(
        x_min=st.floats(-100.0, -0.5),
        x_max=st.floats(0.5, 100.0),
        n_cells=st.integers(2, 2000),
    )
    def test_origin_within_one_cell(self, x_min, x_max, n_cells):
        g = dw.Grid(x_min, x_max, n_cells)
        assert g.dx > 0
        assert np.min(np.abs(g.x)) <= g.dx

    @settings(max_examples=50, derandomize=True)
    @given(X=st.floats(0.5, 100.0), half_cells=st.integers(1, 1000))
    def test_mirror_grid_is_bitwise_antisymmetric(self, X, half_cells):
        g = dw.Grid(-X, X, 2 * half_cells)
        c = g.n_nodes // 2
        assert g.x[c] == 0.0 and np.array_equal(g.x, -g.x[::-1])
        # the right half is the linspace's, and spacing stays uniform
        assert np.array_equal(g.x[c + 1:], np.linspace(-X, X, g.n_nodes)[c + 1:])
        assert np.max(np.abs(np.diff(g.x) - g.dx)) <= 1e-15 * max(1.0, X)

    @pytest.mark.parametrize("x_min, x_max, n_cells", [(-3.0, 5.0, 16), (-60.0, 60.0, 1201)])
    def test_other_grids_keep_plain_linspace(self, x_min, x_max, n_cells):
        g = dw.Grid(x_min, x_max, n_cells)
        assert np.array_equal(g.x, np.linspace(x_min, x_max, n_cells + 1))

    def test_trapezoid_weights(self):
        g = dw.Grid(-1.0, 1.0, 8)
        assert g.integrate(np.ones(g.n_nodes)) == pytest.approx(2.0)

    def test_region_weights_partition(self):
        g = dw.Grid(-4.0, 4.0, 64)  # L on a node
        w_in, w_out = partition_cell_weights(g, 1.0)
        assert np.allclose(w_in + w_out, g.weights)
        assert w_in.sum() == pytest.approx(2.0)
        # conservative inner weights never exceed the partition weights
        assert np.all(inner_cell_weights(g, 1.0) <= w_in + 1e-15)


class TestPotentialExample1:
    def test_paper_values(self):
        g = dw.Grid(-50.0, 50.0, 4000)
        V = dw.build_potential_example1(0.01, 2.0, 1.0, g)
        assert V[g.index_near(0.0)] == pytest.approx(0.02)
        assert V[g.index_near(1.0)] == pytest.approx(0.01)
        assert V[g.index_near(-1.0)] == pytest.approx(0.01)
        assert V[g.index_near(2.0)] == pytest.approx(0.0025)

    def test_branches_agree_at_seam(self):
        V0, beta, L = 0.037, 1.7, 2.5
        inner = 2 * V0 / L**beta - (V0 / L ** (2 * beta)) * L**beta
        outer = V0 * L**-beta
        assert inner == pytest.approx(outer, rel=1e-14)
        # slope match too: the family is C1 across the seam
        d_inner = -(V0 / L ** (2 * beta)) * beta * L ** (beta - 1)
        d_outer = -beta * V0 * L ** (-beta - 1)
        assert d_inner == pytest.approx(d_outer, rel=1e-14)

    def test_monotonicity_validator_full_grid(self):
        g = dw.Grid(-50.0, 50.0, 4096)
        profile = example1_profile(g)
        report = dw.validate_hypotheses(profile)
        assert check(report, "V2_potential_monotone").passed
        assert check(report, "V1_potential_positive").passed

    @settings(max_examples=40, derandomize=True)
    @given(
        V0=st.floats(1e-4, 1.0),
        beta=st.floats(1.01, 4.0),
        L=st.floats(0.5, 5.0),
    )
    def test_matches_closed_form_at_every_node(self, V0, beta, L):
        g = dw.Grid(-20.0, 20.0, 801)
        V = dw.build_potential_example1(V0, beta, L, g)
        for i in (0, 137, 400, 600, 800):
            r = abs(g.x[i])
            if r <= L:
                expected = 2.0 * V0 / L**beta - V0 / L ** (2 * beta) * r**beta
            else:
                expected = V0 * r**-beta
            assert V[i] == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_rejects_bad_parameters(self):
        g = dw.Grid(-10.0, 10.0, 100)
        with pytest.raises(HypothesisError):
            dw.build_potential_example1(0.01, 1.0, 1.0, g)
        with pytest.raises(HypothesisError):
            dw.build_potential_example1(0.01, 0.5, 1.0, g)
        with pytest.raises(HypothesisError):
            dw.build_potential_example1(-0.01, 2.0, 1.0, g)
        with pytest.raises(GridDomainError):
            dw.build_potential_example1(0.01, 2.0, 15.0, g)
        # L^(2 beta) underflows to 0 or overflows float range
        for beta, L in ((2.0, 1e-100), (1000.0, 2.0)):
            with pytest.raises(HypothesisError, match="float range"):
                dw.build_potential_example1(0.01, beta, L, g)


class TestPotentialGaussian:
    def test_peak_and_decay(self):
        g = dw.Grid(-30.0, 30.0, 3000)
        V = dw.build_potential_gaussian(0.01, 1.0, g)
        assert V[g.index_near(0.0)] == pytest.approx(0.01)
        V2 = dw.build_potential_gaussian(0.01, 0.5, g)
        assert V2[g.index_near(2.0)] == pytest.approx(0.0013533528323661271, rel=1e-12)

    def test_satisfies_hypotheses_exactly(self):
        g = dw.Grid(-30.0, 30.0, 1024)
        profile = dw.make_profile(
            g, dw.build_potential_gaussian(0.01, 1.0, g),
            dw.build_damping_plateau(1.0, 1.0, "sharp", g), 1.0, 1.0)
        report = dw.validate_hypotheses(profile)
        # V'(x) x = -2 nu x^2 V <= 0 everywhere, so the monotone scan passes
        assert check(report, "V1_potential_positive").passed
        assert check(report, "V2_potential_monotone").passed

    def test_rejects_nonpositive_parameters(self):
        g = dw.Grid(-10.0, 10.0, 100)
        with pytest.raises(HypothesisError):
            dw.build_potential_gaussian(0.0, 1.0, g)
        with pytest.raises(HypothesisError):
            dw.build_potential_gaussian(0.01, -1.0, g)


class TestDamping:
    def test_sharp_plateau_values(self):
        g = dw.Grid(-10.0, 10.0, 2000)
        a = dw.build_damping_plateau(1.0, 1.0, "sharp", g)
        assert a[g.index_near(0.0)] == 0.0
        assert a[g.index_near(1.5)] == 1.0
        assert np.max(a) == 1.0

    def test_floor_holds_on_full_grid(self):
        g = dw.Grid(-10.0, 10.0, 1777)  # L not grid aligned
        for ramp in ("sharp", "smooth"):
            a = dw.build_damping_plateau(0.7, 1.0, ramp, g)
            outside = np.abs(g.x) >= 1.0
            assert np.min(a[outside]) >= 0.7 - 1e-15
            assert np.max(a) == pytest.approx(0.7)

    def test_smooth_ramp_monotone(self):
        g = dw.Grid(-4.0, 4.0, 800)
        a = dw.build_damping_plateau(1.0, 1.0, "smooth", g)
        right = a[g.x >= 0]
        assert np.all(np.diff(right) >= -1e-15)
        assert a[g.index_near(0.0)] == 0.0

    def test_unknown_ramp(self):
        g = dw.Grid(-4.0, 4.0, 100)
        with pytest.raises(HypothesisError):
            dw.build_damping_plateau(1.0, 1.0, "bumpy", g)


class TestMultiplierWeight:
    def test_shape_and_seam(self):
        g = dw.Grid(-20.0, 20.0, 4000)
        profile = example1_profile(g)
        phi = profile.phi
        inside = np.abs(g.x) <= 1.0
        assert np.allclose(phi[inside], 1.0)
        i = g.index_near(4.0)
        assert phi[i] == pytest.approx(1.0 / 4.0)

    def test_lipschitz_bound(self):
        # |phi(x+dx) - phi(x)| <= (eps1/L) dx: exact inside, by convexity
        # of L eps1/|x| outside, and eps1 (x1 - L)/x1 <= eps1 dx / L at the seam
        g = dw.Grid(-20.0, 20.0, 3111)
        eps1, L = 0.8, 1.3
        phi = dw.coefficients.multiplier_weight(eps1, L, g)
        bound = (eps1 / L) * g.dx * (1 + 1e-12)
        assert np.max(np.abs(np.diff(phi))) <= bound


class TestValidation:
    def test_example1_passes_with_margin(self):
        g = dw.Grid(-40.0, 40.0, 2000)
        profile = example1_profile(g)
        c_star = dw.estimate_c_star(dw.poincare_problem(g, 1.0)).c_star
        report = dw.validate_hypotheses(profile, c_star)
        assert report.passed
        assert check(report, "smallness_V0").margin > 0.0
        # a NumPy scalar C* still gives a bool, which the manifest's JSON needs
        numpy_report = dw.validate_hypotheses(profile, np.float64(c_star))
        assert check(numpy_report, "smallness_V0").passed is True and numpy_report.passed

    def test_increasing_interior_fails_v2(self):
        g = dw.Grid(-10.0, 10.0, 1000)
        r = np.abs(g.x)
        V = np.where(r <= 1.0, 0.005 + 0.005 * r, 0.01 * np.maximum(r, 1.0) ** -0.5)
        a = dw.build_damping_plateau(1.0, 1.0, "sharp", g)
        profile = dw.make_profile(g, V, a, 1.0, 1.0)
        report = dw.validate_hypotheses(profile)
        assert not check(report, "V2_potential_monotone").passed
        assert not report.passed

    def test_oversized_potential_fails_smallness(self):
        g = dw.Grid(-40.0, 40.0, 2000)
        c_star = dw.estimate_c_star(dw.poincare_problem(g, 1.0)).c_star
        V = dw.build_potential_gaussian(1.0 / (2.0 * c_star), 1.0, g)
        a = dw.build_damping_plateau(1.0, 1.0, "sharp", g)
        profile = dw.make_profile(g, V, a, 1.0, 1.0)
        report = dw.validate_hypotheses(profile, c_star)
        smallness = check(report, "smallness_V0")
        assert not smallness.passed
        assert smallness.margin < 0.0

    def test_free_wave_fails_but_reports(self):
        g = dw.Grid(-10.0, 10.0, 200)
        report = dw.validate_hypotheses(free_space_profile(g))
        assert not report.passed
        assert not check(report, "V1_potential_positive").passed
        assert not check(report, "A2_damping_floor").passed

    def test_skipped_smallness_without_cstar(self):
        g = dw.Grid(-10.0, 10.0, 500)
        report = dw.validate_hypotheses(example1_profile(g))
        assert check(report, "smallness_V0").passed is None
        assert not report.passed  # unevaluated check blocks a clean pass

    def test_v_bounds_attained_at_core_edge(self):
        g = dw.Grid(-40.0, 40.0, 4000)
        profile = example1_profile(g)
        v_l, v_l_prime = potential_bounds_at_core(profile)
        # monotonicity puts both extremes within one cell of |x| = L
        assert v_l == pytest.approx(0.01, rel=1e-12)
        assert v_l_prime == pytest.approx(0.01, rel=1e-12)
        inner = np.abs(g.x) <= 1.0
        i_min = np.argmin(np.where(inner, profile.V, np.inf))
        assert abs(abs(g.x[i_min]) - 1.0) <= g.dx + 1e-12


class TestCoreSets:
    """inner_cell_weights, potential_bounds_at_core, the A2 check and
    poincare_problem read one node set for |x| <= L and one for |x| >= L."""

    @pytest.mark.parametrize("L", [1.0, 1.005], ids=["on_node", "off_node"])
    def test_core_readers_share_the_nodes(self, L):
        grid = dw.Grid(-5.0, 5.0, 1000)  # dx = 0.01: +-1 are nodes, +-1.005 mid-cell
        inner, outer = core_sets(grid, L)
        on_edge = inner & outer
        assert on_edge.sum() == (2 if L == 1.0 else 0)
        assert np.all(inner | outer)
        assert np.array_equal(inner_cell_weights(grid, L) > 0.0, inner)
        # V decreasing outward: the core minimum sits on the outermost
        # inner node and the exterior maximum on the innermost outer node
        V = 2.0 - np.abs(grid.x) / 10.0
        profile = dw.make_profile(grid, V, np.where(outer, 1.0, 0.0), L, 1.0)
        assert potential_bounds_at_core(profile) == (V[inner].min(), V[outer].max())
        # the damping floor is checked on exactly the outer nodes
        a = np.where(outer, 1.0, 0.0)
        a[np.flatnonzero(outer)[np.argmin(np.abs(grid.x[outer]))]] = 0.5
        report = dw.validate_hypotheses(dw.make_profile(grid, V, a, L, 1.0))
        assert check(report, "A2_damping_floor").margin == -0.5
        dw.poincare_problem(grid, L)

    @pytest.mark.parametrize("L, has_node", [(0.005, True), (0.005 - 2e-12, False),
                                             (1e-4, False)])
    def test_poincare_problem_needs_a_core_node(self, L, has_node):
        grid = dw.Grid(-40.005, 39.995, 8000)  # nodes at +-0.005, none at 0
        assert core_sets(grid, L)[0].any() == has_node
        if has_node:
            assert dw.poincare_problem(grid, L).w_in.sum() > 0.0
        else:
            with pytest.raises(GridDomainError, match="no grid mass"):
                dw.poincare_problem(grid, L)

    def test_poincare_problem_needs_inner_mass_off_the_ends(self):
        # nodes -1, 3, 7: only the end node -1 meets the core, and the
        # pencil's unknowns are the interior nodes
        grid = dw.Grid(-1.0, 7.0, 2)
        assert core_sets(grid, 1.0)[0].any()
        with pytest.raises(GridDomainError, match="no grid mass"):
            dw.poincare_problem(grid, 1.0)


class TestInitialData:
    def test_truncation_and_support(self):
        g = dw.Grid(-30.0, 30.0, 3000)
        u0 = dw.gaussian_bump(g, 1e-3, 1.0)
        data = dw.make_initial_data(g, u0, np.zeros(g.n_nodes))
        R = data.support_radius
        assert R is not None and 5.0 < R < 10.0
        assert np.all(data.u0[np.abs(g.x) > R] == 0.0)

    @pytest.mark.parametrize("width", [1e300, 1e-300])
    def test_gaussian_width_beyond_float_range(self, width):
        # 2 width^2 overflows or underflows: no OverflowError, no NaN centre
        with pytest.raises(HypothesisError, match="float range"):
            dw.gaussian_bump(dw.Grid(-10.0, 10.0, 100), 1.0, width)

    def test_explicit_radius_enforced(self):
        g = dw.Grid(-10.0, 10.0, 1000)
        u0 = np.ones(g.n_nodes)
        data = dw.make_initial_data(g, u0, u0, support_radius=2.0)
        assert np.all(data.u0[np.abs(g.x) > 2.0] == 0.0)
        assert np.all(data.u1[np.abs(g.x) > 2.0] == 0.0)

    def test_unbounded_marker(self):
        g = dw.Grid(-10.0, 10.0, 100)
        data = dw.make_initial_data(g, np.ones(g.n_nodes), np.zeros(g.n_nodes),
                                    support_radius=np.inf)
        assert data.support_radius is None

    def test_zero_data(self):
        g = dw.Grid(-10.0, 10.0, 100)
        data = dw.make_initial_data(g, np.zeros(g.n_nodes), np.zeros(g.n_nodes))
        assert data.support_radius == 0.0


class TestDataNorms:
    def test_zero_data_gives_zero_i0(self):
        g = dw.Grid(-10.0, 10.0, 500)
        profile = example1_profile(g)
        data = dw.make_initial_data(g, np.zeros(g.n_nodes), np.zeros(g.n_nodes))
        norms = dw.compute_data_norms(data, profile)
        assert norms.I0 == 0.0

    def test_weighted_term_on_indicator_window(self):
        # u0 = 0 and u1 = sqrt(V) on [-b, b] makes the weighted integrand the
        # window indicator, so the weighted norm is sqrt(2 b) up to quadrature
        g = dw.Grid(-20.0, 20.0, 8000)
        profile = example1_profile(g)
        b = 3.0
        u1 = np.where(np.abs(g.x) <= b, np.sqrt(profile.V), 0.0)
        data = dw.InitialData(np.zeros(g.n_nodes), u1, b)
        norms = dw.compute_data_norms(data, profile)
        assert norms.weighted_norm**2 == pytest.approx(2 * b, rel=2e-3)
        assert norms.h1_norm_u0 == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u0, u1, name", [
        (1e300, 0.0, "h1_norm_u0"), (0.0, 1e300, "l2_norm_u1"), (0.0, 1e153, "weighted_norm")])
    def test_square_beyond_float_range_is_named(self, u0, u1, name):
        # V <= 0.02 here, so u1 = 1e153 keeps its L2 square finite and
        # overflows only the weighted one
        g = dw.Grid(-20.0, 20.0, 800)
        profile = example1_profile(g)
        data = dw.InitialData(np.full(g.n_nodes, u0), np.full(g.n_nodes, u1), 20.0)
        with pytest.raises(HypothesisError,
                           match=f"initial data's {name} needs its square in float range"):
            dw.compute_data_norms(data, profile)

    def test_division_guard(self):
        g = dw.Grid(-10.0, 10.0, 100)
        profile = free_space_profile(g)
        data = dw.make_initial_data(g, np.zeros(g.n_nodes), np.ones(g.n_nodes),
                                    support_radius=5.0)
        with pytest.raises(HypothesisError):
            dw.compute_data_norms(data, profile)

    def test_second_order_under_refinement(self):
        # Richardson-style oracle: treat the 8x grid as truth and require the
        # error to shrink by about 4 per refinement. The smooth damping ramp
        # keeps every integrand C1; a sharp ramp would cost an O(dx) seam term
        # in the weighted norm.
        norms = {}
        for n in (500, 1000, 2000, 8000):
            g = dw.Grid(-25.0, 25.0, n)
            profile = example1_profile(g, ramp="smooth")
            u0 = dw.gaussian_bump(g, 1.0, 1.0)
            data = dw.make_initial_data(g, u0, np.zeros(g.n_nodes))
            norms[n] = dw.compute_data_norms(data, profile)
        truth = norms[8000].I0
        e1 = abs(norms[500].I0 - truth)
        e2 = abs(norms[1000].I0 - truth)
        e3 = abs(norms[2000].I0 - truth)
        assert e1 / e2 == pytest.approx(4.0, rel=0.4)
        assert e2 / e3 == pytest.approx(4.0, rel=0.6)


GRID = dw.Grid(-10.0, 10.0, 100)
OTHER_GRID = dw.Grid(-10.0, 10.0, 50)


@pytest.mark.parametrize("build, error, message", [
    (lambda: dw.build_damping_plateau(0.0, 1.0, "sharp", GRID), HypothesisError,
     "damping requires eps1 > 0 and L > 0"),
    (lambda: dw.build_damping_plateau(1.0, -1.0, "smooth", GRID), HypothesisError,
     "damping requires eps1 > 0 and L > 0"),
    (lambda: dw.build_damping_plateau(1.0, 1.0, "steep", GRID), HypothesisError,
     "unknown damping ramp 'steep'"),
    (lambda: dw.coefficients.multiplier_weight(1.0, 0.0, GRID), GridDomainError,
     "multiplier weight needs L > 0"),
    (lambda: dw.polynomial_bump(GRID, 1.0, 0.0), HypothesisError,
     "polynomial bump needs radius > 0"),
    (lambda: dw.make_initial_data(GRID, np.zeros(OTHER_GRID.n_nodes), np.zeros(GRID.n_nodes)),
     GridDomainError, "initial data arrays must conform to the grid"),
    (lambda: dw.compute_data_norms(dw.make_initial_data(
        OTHER_GRID, np.zeros(OTHER_GRID.n_nodes), np.zeros(OTHER_GRID.n_nodes)),
        example1_profile(GRID)), GridDomainError,
     "initial data does not conform to the profile grid"),
], ids=["damping_eps1", "damping_L", "damping_ramp", "multiplier_L", "bump_radius",
        "data_shape", "norms_grid"])
def test_builder_refusal_is_named(build, error, message):
    with pytest.raises(error, match=f"^{message}"):
        build()
