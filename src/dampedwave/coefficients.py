"""Grids, coefficient families, and initial data for the damped wave lab.

The model is u_tt - u_xx + V(x) u + a(x) u_t = f(u) on the real line,
truncated to a uniform grid over [x_min, x_max]. This module owns

* the uniform Grid and its trapezoidal quadrature,
* the short-range polynomial potential (flat-topped inside radius L,
  V0 |x|^-beta outside) and the Gaussian potential V0 exp(-nu x^2),
* plateau damping profiles: zero on an inner core, at least the floor
  eps1 everywhere outside radius L,
* the Lipschitz multiplier weight phi (eps1 inside L, L*eps1/|x| outside),
* hypothesis validation and initial-data norms.

Everything here is pure over immutable inputs and safe to call from
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridDomainError, HypothesisError

# Absolute slack absorbing float rounding in the discrete monotonicity scan.
MONOTONICITY_SLACK = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform node grid on [x_min, x_max] with n_cells cells.

    Nodes sit at x_i = x_min + i*dx, i = 0..n_cells, so there are
    n_cells + 1 nodes. The origin must lie strictly inside the domain.

    A mirror grid (x_min == -x_max, n_cells even; every auto-sized grid
    is one) has x[i] == -x[n-1-i] bitwise and the origin on its centre
    node: the left half is the negated right half of the linspace. Every
    sampling function here reads |x|, x^2 or x - 0.0, so on a mirror grid
    even coefficients and centred data sample to bitwise palindromes,
    which lets solver.run march only x >= 0.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not (self.x_min < 0.0 < self.x_max):
            raise GridDomainError(
                f"grid [{self.x_min}, {self.x_max}] must contain 0 in its interior"
            )
        if self.n_cells < 2:
            raise GridDomainError("grid needs at least 2 cells")
        if not self.x_max - self.x_min < np.inf:
            raise GridDomainError(f"grid [{self.x_min}, {self.x_max}] is wider than a float")
        if self.n_cells >= (limit := np.iinfo(np.intp).max // 8):
            raise GridDomainError(f"grid has more nodes than numpy can address ({limit} cells)")
        # stored as Python floats, so dx and all built on it (C*) are too
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def x(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n_cells + 1)
        if self.x_min == -self.x_max and self.n_cells % 2 == 0:
            c = self.n_cells // 2
            x[c] = 0.0
            x[:c] = -x[:c:-1]
        x.flags.writeable = False
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights (half cells at the ends)."""
        w = np.full(self.n_nodes, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        w.flags.writeable = False
        return w

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoidal integral of nodal values over the domain."""
        return float(self.weights @ values)

    def index_near(self, x0: float) -> int:
        i = int(round((x0 - self.x_min) / self.dx))
        return min(max(i, 0), self.n_cells)


def _read_only(values) -> np.ndarray:
    """values as a float array nobody can write: itself if it is one (read
    only, owning its memory), else a read-only copy."""
    if isinstance(values, np.ndarray) and values.dtype == float and (
            values.flags.owndata and not values.flags.writeable):
        return values
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def inner_cell_weights(grid: Grid, L: float) -> np.ndarray:
    """Quadrature weights for integrals over |x| <= L.

    Each node with |x_i| <= L gets the length of its trapezoid cell
    intersected with [-L, L], the inner part of partition_cell_weights;
    nodes outside get zero. Slivers of [-L, L] not covered by inner-node
    cells are dropped, so the weighted sum is a lower bound for the exact
    integral of a nonnegative integrand. That one-sidedness is what makes
    the discrete localized-norm bound (local L2 vs energy through min V on
    the core) hold exactly.
    """
    w_in, _w_out = partition_cell_weights(grid, L)
    return np.where(core_sets(grid, L)[0], w_in, 0.0)


def core_sets(grid: Grid, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Node masks of the closed core |x| <= L and the closed exterior
    |x| >= L, each widened by MONOTONICITY_SLACK max(1, L) so a node at
    +-L up to rounding belongs to both."""
    r = np.abs(grid.x)
    tol = MONOTONICITY_SLACK * max(1.0, L)
    return r <= L + tol, r >= L - tol


def partition_cell_weights(grid: Grid, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the trapezoid weights into an inner part (cell mass inside
    [-L, L]) and the outer remainder. The two parts sum to the full
    trapezoid weights exactly; a node whose cell straddles +-L carries
    mass on both sides (half cells when +-L are grid-aligned)."""
    if L <= 0:
        raise GridDomainError("inner radius L must be positive")
    x, h = grid.x, grid.dx / 2
    lo = np.maximum(np.maximum(x - h, -L), grid.x_min)
    hi = np.minimum(np.minimum(x + h, L), grid.x_max)
    w_in = np.clip(hi - lo, 0.0, None)
    w_out = grid.weights - w_in
    return w_in, w_out


# ---------------------------------------------------------------------------
# coefficient profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientProfile:
    """Sampled potential V, damping a, and multiplier weight phi on a grid.

    L is the radius where the damping plateau starts; eps1 the damping
    floor outside L. V, a and phi are read-only copies of the arrays
    given; the family parameters that sampled V stay with its spec."""

    grid: Grid
    V: np.ndarray
    a: np.ndarray
    phi: np.ndarray
    L: float
    eps1: float

    def __post_init__(self):
        for name in ("V", "a", "phi"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def v_at_origin(self) -> float:
        return float(self.V[self.grid.index_near(0.0)])

    @property
    def a_max(self) -> float:
        return float(np.max(self.a))


def _power_or_inf(x: float, y: float) -> float:
    """x ** y, inf where it overflows a float."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def build_potential_example1(V0: float, beta: float, L: float, grid: Grid) -> np.ndarray:
    """Short-range potential, flat-topped inside |x| <= L.

    V(x) = 2 V0 / L^beta - (V0 / L^(2 beta)) |x|^beta   for |x| <= L,
    V(x) = V0 |x|^-beta                                 for |x| >= L.

    The two branches agree in value and slope at |x| = L, the peak is
    V(0) = 2 V0 / L^beta, and V is strictly positive and monotone
    toward the origin on each half line.
    """
    if beta <= 1:
        raise HypothesisError(f"potential decay power beta must exceed 1, got {beta}")
    if V0 <= 0 or L <= 0:
        raise HypothesisError("potential requires V0 > 0 and L > 0")
    L_2beta = _power_or_inf(L, 2.0 * beta)
    if not 0.0 < L_2beta < math.inf:
        raise HypothesisError(f"potential needs L^(2 beta) in float range, got L={L}, beta={beta}")
    if grid.x_min > -L or grid.x_max < L:
        raise GridDomainError(
            f"grid [{grid.x_min}, {grid.x_max}] does not cover the core radius +-{L}"
        )
    r = np.abs(grid.x)  # each branch sampled on its own side of L, so neither overflows
    inner = 2.0 * V0 / L**beta - (V0 / L_2beta) * np.minimum(r, L) ** beta
    outer = V0 * np.maximum(r, L) ** (-beta)
    return np.where(r <= L, inner, outer)


# Relative floor keeping the sampled Gaussian tail strictly positive where
# exp(-nu x^2) would underflow to zero on wide domains. The floor preserves
# the monotonicity hypothesis and keeps 1/V finite for the weighted norms;
# compactly supported data never see it.
GAUSSIAN_TAIL_FLOOR = 1e-290


def build_potential_gaussian(V0: float, nu: float, grid: Grid) -> np.ndarray:
    """Gaussian potential V(x) = V0 exp(-nu x^2); peak V(0) = V0."""
    if V0 <= 0 or nu <= 0:
        raise HypothesisError("gaussian potential requires V0 > 0 and nu > 0")
    return V0 * np.maximum(np.exp(-nu * grid.x**2), GAUSSIAN_TAIL_FLOOR)


def build_damping_plateau(
    eps1: float,
    L: float,
    ramp: str,
    grid: Grid,
) -> np.ndarray:
    """Localized damping: zero on an inner core, exactly eps1 outside L.

    ramp="sharp" jumps from 0 to eps1 at |x| = L (core is all of |x| < L,
    the hardest case the theory allows). ramp="smooth" blends with a cubic
    smoothstep between L/2 and L, staying monotone and C1. Either way a is
    bounded by eps1 and meets the floor on |x| >= L.
    """
    if eps1 <= 0 or L <= 0:
        raise HypothesisError("damping requires eps1 > 0 and L > 0")
    r = np.abs(grid.x)
    if ramp == "sharp":
        return np.where(r >= L, eps1, 0.0)
    if ramp == "smooth":
        s = np.clip((r - L / 2) / (L / 2), 0.0, 1.0)  # L - L/2 == L/2 exactly
        return eps1 * s * s * (3.0 - 2.0 * s)
    raise HypothesisError(f"unknown damping ramp {ramp!r} (use 'sharp' or 'smooth')")


def multiplier_weight(eps1: float, L: float, grid: Grid) -> np.ndarray:
    """Lipschitz multiplier weight: eps1 inside |x| <= L, L*eps1/|x| outside."""
    if L <= 0:
        raise GridDomainError("multiplier weight needs L > 0")
    r = np.abs(grid.x)
    return np.where(r <= L, eps1, L * eps1 / np.maximum(r, L))


def make_profile(grid: Grid, V: np.ndarray, a: np.ndarray, L: float,
                 eps1: float) -> CoefficientProfile:
    phi = multiplier_weight(eps1, L, grid) if eps1 > 0 else np.zeros(grid.n_nodes)
    return CoefficientProfile(grid=grid, V=V, a=a, phi=phi, L=L, eps1=eps1)


def free_space_profile(grid: Grid) -> CoefficientProfile:
    """V = a = 0 everywhere, core radius L = 1: the free-wave sanity
    regime. Deliberately fails the hypotheses; diagnostics that need them
    are reported as NaN."""
    return make_profile(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes), 1.0, 0.0)


def potential_bounds_at_core(profile: CoefficientProfile) -> tuple[float, float]:
    """(V_L, V_L_prime): min of V over nodes with |x| <= L and max of V over
    nodes with |x| >= L. By the monotonicity hypothesis both are attained
    within one cell of +-L, matching min/max of {V(L), V(-L)}."""
    inner, outer = core_sets(profile.grid, profile.L)
    v_l = float(np.min(profile.V[inner]))
    v_l_prime = float(np.max(profile.V[outer]))
    return v_l, v_l_prime


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool | None  # None means not evaluated (missing input)
    detail: str
    margin: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed is True for c in self.checks)

    @property
    def failures(self) -> tuple[HypothesisCheck, ...]:
        return tuple(c for c in self.checks if c.passed is False)


def validate_hypotheses(
    profile: CoefficientProfile, c_star: float | None = None
) -> ValidationReport:
    """Check the coefficient hypotheses and, when c_star is supplied, the
    smallness condition V(0) < 1/(4 C*). Failures are report entries,
    never exceptions."""
    x = profile.grid.x
    V, a = profile.V, profile.a
    tol = MONOTONICITY_SLACK
    checks = []

    finite = bool(np.all(np.isfinite(a)))
    nonneg = bool(np.min(a) >= 0.0)
    checks.append(HypothesisCheck(
        "A1_damping_bounded_nonnegative", finite and nonneg,
        f"min a = {np.min(a):.3g}, max a = {np.max(a):.3g}",
        margin=float(np.min(a))))

    _inner, outer = core_sets(profile.grid, profile.L)
    floor_margin = float(np.min(a[outer]) - profile.eps1) if outer.any() else -profile.eps1
    checks.append(HypothesisCheck(
        "A2_damping_floor",
        profile.eps1 > 0 and floor_margin >= -tol * max(1.0, profile.eps1),
        f"eps1 = {profile.eps1:.3g}, min a on |x|>=L minus eps1 = {floor_margin:.3g}",
        margin=floor_margin))

    vmin = float(np.min(V))
    checks.append(HypothesisCheck(
        "V1_potential_positive", vmin > 0.0,
        f"min V = {vmin:.3g}", margin=vmin))

    right = x >= -tol
    left = x <= tol
    viol_r = float(np.max(np.diff(V[right]), initial=-np.inf))
    viol_l = float(np.max(-np.diff(V[left]), initial=-np.inf))
    worst = max(viol_r, viol_l)
    checks.append(HypothesisCheck(
        "V2_potential_monotone", worst <= MONOTONICITY_SLACK,
        f"largest uphill step away from origin = {worst:.3g}",
        margin=-worst))

    if c_star is None:
        checks.append(HypothesisCheck(
            "smallness_V0", None, "C* not supplied; smallness not evaluated"))
    else:
        bound = 1.0 / (4.0 * c_star)
        margin = float(bound - profile.v_at_origin)  # a NumPy C* gives a NumPy bool
        checks.append(HypothesisCheck(
            "smallness_V0", margin > 0.0,
            f"V(0) = {profile.v_at_origin:.6g} vs 1/(4C*) = {bound:.6g}",
            margin=margin))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

# Absolute floor below which data tails are truncated to zero when the
# support radius is inferred rather than supplied.
TRUNCATION_FLOOR = 1e-14


@dataclass(frozen=True)
class InitialData:
    """Displacement/velocity samples plus the support radius (None means
    unbounded, which blocks automatic domain sizing). u0 and u1 are
    read-only copies of the arrays given."""

    u0: np.ndarray
    u1: np.ndarray
    support_radius: float | None

    def __post_init__(self):
        object.__setattr__(self, "u0", _read_only(self.u0))
        object.__setattr__(self, "u1", _read_only(self.u1))

    def conforms_to(self, grid: Grid) -> bool:
        return self.u0.shape == (grid.n_nodes,) and self.u1.shape == (grid.n_nodes,)


def gaussian_bump(grid: Grid, amplitude: float, width: float, center: float = 0.0) -> np.ndarray:
    two_width_sq = 2.0 * _power_or_inf(width, 2)
    if not (width > 0 and 0.0 < two_width_sq < math.inf):
        raise HypothesisError(f"gaussian bump needs width > 0 and 2 width^2 in float range, "
                              f"got width = {width}")
    return amplitude * np.exp(-((grid.x - center) ** 2) / two_width_sq)


def polynomial_bump(
    grid: Grid, amplitude: float, radius: float, center: float = 0.0
) -> np.ndarray:
    """Compact C^3 bump: amplitude * (1 - ((x-c)/R)^2)^4 inside."""
    if radius <= 0:
        raise HypothesisError("polynomial bump needs radius > 0")
    m = np.minimum(np.abs((grid.x - center) / radius), 1.0)  # 1 - m^2 = 0 off the support
    return amplitude * (1.0 - m * m) ** 4


def make_initial_data(
    grid: Grid,
    u0: np.ndarray,
    u1: np.ndarray,
    support_radius: float | None = None,
) -> InitialData:
    """Bundle data arrays, inferring and enforcing a compact support.

    With support_radius=None the radius is inferred as the largest |x_i|
    where either field reaches TRUNCATION_FLOOR in magnitude; both fields
    are then zeroed outside it. An explicit radius is enforced the same
    way. Pass support_radius=np.inf to declare genuinely unbounded data.
    """
    u0 = np.array(u0, dtype=float)
    u1 = np.array(u1, dtype=float)
    if u0.shape != (grid.n_nodes,) or u1.shape != (grid.n_nodes,):
        raise GridDomainError("initial data arrays must conform to the grid")
    if support_radius is None:
        live = (np.abs(u0) >= TRUNCATION_FLOOR) | (np.abs(u1) >= TRUNCATION_FLOOR)
        support_radius = float(np.max(np.abs(grid.x[live]))) if live.any() else 0.0
    if np.isinf(support_radius):
        support_radius = None
    else:
        outside = np.abs(grid.x) > support_radius
        u0[outside] = 0.0
        u1[outside] = 0.0
        support_radius = float(support_radius)
    u0.flags.writeable = u1.flags.writeable = False  # InitialData keeps them uncopied
    return InitialData(u0, u1, support_radius)


@dataclass(frozen=True)
class DataNorms:
    """H1 norm of u0, L2 norm of u1, the weighted norm ||(u1 + a u0)/sqrt(V)||,
    and their sum I0 (mu = 1 convention)."""

    h1_norm_u0: float
    l2_norm_u1: float
    weighted_norm: float

    @property
    def I0(self) -> float:
        return self.h1_norm_u0 + self.l2_norm_u1 + self.weighted_norm


def compute_data_norms(data: InitialData, profile: CoefficientProfile) -> DataNorms:
    grid = profile.grid
    if not data.conforms_to(grid):
        raise GridDomainError("initial data does not conform to the profile grid")
    if np.any(profile.V <= 0.0):
        raise HypothesisError(
            "potential vanishes somewhere on the grid; weighted data norm undefined"
        )
    # data near float range overflow these squares: quiet, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        du0 = np.gradient(data.u0, grid.dx, edge_order=2)
        forcing = data.u1 + profile.a * data.u0
        squares = {
            "h1_norm_u0": grid.integrate(data.u0**2) + grid.integrate(du0**2),
            "l2_norm_u1": grid.integrate(data.u1**2),
            "weighted_norm": grid.integrate(forcing**2 / profile.V),
        }
    for name, sq in squares.items():
        if not math.isfinite(sq):
            raise HypothesisError(f"initial data's {name} needs its square in float range, "
                                  f"got {sq}")
    return DataNorms(**{name: float(np.sqrt(sq)) for name, sq in squares.items()})
