"""Sharp discrete Poincare-type constant for the localized inequality

    int_{|x|<=L} w^2  <=  C* ( int w_x^2 + int_{|x|>=L} w^2 ),   w in H^1.

C* is defined here as the reciprocal of the minimal Rayleigh value

    lambda_min = min_w ( Q_grad(w) + Q_out(w) ) / Q_in(w)

over nonzero grid functions vanishing at the (artificial, homogeneous
Dirichlet) domain ends. Q_grad uses cellwise forward differences and the
mass forms use trapezoid weights split at +-L by cell intersection, so
the inequality with the computed C* holds for every discrete function by
construction. The minimizer decays exponentially away from the core, so
a domain a few tens of units wider than L makes truncation irrelevant;
the estimate records the relative tail size at the edge for checking.

The pencil A w = lambda B w (A = stiffness + outer mass, B = inner mass,
interior nodes) is the recurrence w_{i+1} = c_i w_i - w_{i-1} with
c_i = 2 + dx (w_out_i - lambda w_in_i): 2 cosh mu = 2 + dx^2 on exterior
nodes (no inner mass), 2 cos theta = 2 - lambda dx^2 on core nodes (cell
in [-L, L]) and its own value on the at most two split nodes a side. The
solution shot from w_0 = 0, w_1 = 1 gives the leading minors of
dx (A - lambda B), so by Sturm lambda >= lambda_min exactly when it is
<= 0 at some node. estimate_c_star bisects on that down to adjacent
floats, crossing each exterior as the sinh from its Dirichlet end, the
core as a cos(j theta - alpha) phase and the split nodes one step each,
and builds the minimizer the same way. Its residual |A w - lambda B w| /
|A w|, from the nodal values, checks the closed form; the second
difference's rounding puts its floor near eps / (lambda dx^2). A dense
oracle (tests/helpers.py) checks C* on coarse grids. c_star_continuum is
the paper's whole-line constant, bisected the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import Grid, core_sets, partition_cell_weights
from .errors import GridDomainError


@dataclass(frozen=True)
class PoincareProblem:
    """Grid, core radius, and the mass weights of the two regions; the
    weight vectors split each trapezoid cell between them exactly."""

    grid: Grid
    L: float
    w_in: np.ndarray
    w_out: np.ndarray


def poincare_problem(grid: Grid, L: float) -> PoincareProblem:
    """The pencil's regions; GridDomainError unless the grid covers the
    core, has a node in it (coefficients.core_sets) and an interior node
    with inner mass."""
    if grid.x_min > -L or grid.x_max < L:
        raise GridDomainError("grid must cover the core |x| <= L")
    w_in, w_out = partition_cell_weights(grid, L)
    if not core_sets(grid, L)[0].any() or not w_in[1:-1].any():
        raise GridDomainError("inner region contains no grid mass; refine the grid")
    return PoincareProblem(grid, L, w_in, w_out)


@dataclass(frozen=True)
class PoincareEstimate:
    """C* = 1 / lambda_min, the minimizer (max |w| = 1), its relative
    eigenresidual, the bisection's steps and max |w| next to the ends."""

    problem: PoincareProblem
    c_star: float
    lambda_min: float
    minimizer: np.ndarray
    residual: float
    iterations: int
    edge_tail: float


def quadratic_forms(problem: PoincareProblem, w: np.ndarray) -> tuple[float, float, float]:
    """(Q_grad, Q_in, Q_out) for a nodal function w (ends should vanish)."""
    d = np.diff(w)
    q_grad = float(d @ d) / problem.grid.dx
    q_in = float(problem.w_in @ (w * w))
    q_out = float(problem.w_out @ (w * w))
    return q_grad, q_in, q_out


def rayleigh_ratio(problem: PoincareProblem, w: np.ndarray) -> float:
    """Q_in / (Q_grad + Q_out); the inequality says this never exceeds C*."""
    q_grad, q_in, q_out = quadratic_forms(problem, w)
    denom = q_grad + q_out
    if denom == 0.0:
        return 0.0 if q_in == 0.0 else np.inf
    return q_in / denom


def _bisect(crosses, lo: float, hi: float) -> tuple[float, int]:
    """Bisect a predicate that is False at lo, True at hi and monotone in
    between down to adjacent floats; (the last lo, the step count)."""
    steps = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if crosses(mid):
            hi = mid
        else:
            lo = mid
        steps += 1
    return lo, steps


def _sinh_ratio(j, k: int, mu: float):
    """sinh(j mu) / sinh(k mu) for 0 <= j <= k, k >= 1, free of overflow."""
    return np.exp((j - k) * mu) * np.expm1(-2.0 * j * mu) / np.expm1(-2.0 * k * mu)


@np.errstate(over="ignore", invalid="ignore")
def estimate_c_star(problem: PoincareProblem) -> PoincareEstimate:
    """lambda_min bisected on the Sturm predicate from 0 to a plateau-hat's
    Rayleigh quotient, and the minimizer at that root; GridDomainError if
    lambda_min is not finite and positive or the residual is not finite
    (a grid whose dx^2 is out of float range)."""
    grid, L, w_in, w_out = problem.grid, problem.L, problem.w_in, problem.w_out
    dx, n = grid.dx, grid.n_cells
    inner = np.flatnonzero(w_in[1:-1]) + 1  # the nodes whose cell meets the core
    first, last = int(inner[0]), int(inner[-1])
    runs = list(range(first, last + 1))  # split nodes, the core as one range
    core = np.flatnonzero(np.abs(grid.x[first:last + 1]) + dx / 2 <= L)
    if core.size:
        runs[core[0]:core[-1] + 1] = [range(first + core[0], first + core[-1] + 1)]
    mu = 2.0 * math.asinh(dx / 2.0)
    q_left = float(_sinh_ratio(first - 1, first, mu))
    q_right = float(_sinh_ratio(n - 1 - last, n - last, mu))

    def crosses(lam: float, w: np.ndarray | None = None) -> bool:
        """lam >= lambda_min; with w given, write the shot solution into it."""
        prev, cur = q_left, 1.0
        if w is not None:
            w[:first + 1] = _sinh_ratio(np.arange(first + 1), first, mu)
        for run in runs:
            if isinstance(run, int):
                prev, cur = cur, (2.0 + dx * (w_out[run] - lam * w_in[run])) * cur - prev
                if cur <= 0.0:
                    return True
                if w is not None:
                    w[run + 1] = cur
                continue
            s = dx * math.sqrt(lam) / 2.0  # sin(theta / 2)
            if s >= 1.0:
                return True
            theta, m = 2.0 * math.asin(s), len(run)
            alpha = math.atan2((1.0 - 2.0 * s * s) * cur - prev, math.sin(theta) * cur)
            if m * theta - alpha >= math.pi / 2.0:
                return True
            scale = cur / math.cos(alpha)
            if w is not None:
                w[run.start + 1:run.stop + 1] = scale * np.cos(np.arange(1, m + 1) * theta - alpha)
            prev, cur = (scale * math.cos((m - 1) * theta - alpha),
                         scale * math.cos(m * theta - alpha))
        if w is not None:
            w[last + 1:-1] = cur * _sinh_ratio(np.arange(n - last - 1, 0, -1), n - last - 1, mu)
            w[-1] = 0.0
        return prev * q_right >= cur

    # at least a cell wide, so that every node whose cell meets the core carries it
    hat = np.clip(L + max(1.0, dx) - np.abs(grid.x), 0.0, 1.0)
    hat[0] = hat[-1] = 0.0
    lam, steps = _bisect(crosses, 0.0, 1.0 / rayleigh_ratio(problem, hat))
    w = np.zeros(grid.n_nodes)
    crosses(lam, w)
    w /= np.max(np.abs(w))
    a_w = -np.diff(w, 2) / dx + w_out[1:-1] * w[1:-1]
    residual = float(np.linalg.norm(a_w - lam * w_in[1:-1] * w[1:-1]) / np.linalg.norm(a_w))
    if not (0.0 < lam < math.inf and residual < math.inf):
        raise GridDomainError(f"C* is out of float range on this grid (lambda_min = {lam:.6g}, "
                              f"residual = {residual:.6g})")
    return PoincareEstimate(problem=problem, c_star=1.0 / lam, lambda_min=lam, minimizer=w,
                            residual=residual, iterations=steps,
                            edge_tail=float(max(abs(w[1]), abs(w[-2]))))


def c_star_continuum(L: float) -> float:
    """The paper's C* on the whole line, 1/k^2 with k tan(kL) = 1 and
    k in (0, pi/2L): the limit of estimate_c_star as dx -> 0 and X -> inf."""
    k, _ = _bisect(lambda k: k * math.tan(k * L) >= 1.0, 0.0, math.pi / (2.0 * L))
    return 1.0 / (k * k)


@dataclass(frozen=True)
class ViolationReport:
    n_samples: int
    max_ratio: float
    c_star: float
    threshold: float
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def smoothed_noise(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Random H1-like sample: one draw of white nodal noise smoothed by a
    Gaussian kernel of standard deviation 0.25, cut at +-0.5."""
    half_width = max(2, int(round(0.5 / grid.dx)))
    s = np.arange(-half_width, half_width + 1) * grid.dx
    kernel = np.exp(-(s**2) / (2 * 0.25**2))
    kernel /= kernel.sum()
    return np.convolve(rng.standard_normal(grid.n_nodes), kernel, mode="same")


def _smoothed_noise(problem: PoincareProblem, rng: np.random.Generator) -> np.ndarray:
    """smoothed_noise localized around the core (where the extremizers
    live) and pinned to zero at the domain ends."""
    grid = problem.grid
    w = smoothed_noise(grid, rng)
    envelope_width = max(2.0 * problem.L, 2.0)
    w *= np.exp(-(grid.x**2) / (2.0 * envelope_width**2))
    w[0] = w[-1] = 0.0
    return w


def verify_poincare_on_samples(
    estimate: PoincareEstimate, n_samples: int, seed: int, relative_slack: float = 1e-8
) -> ViolationReport:
    """Property-test the inequality: no random sample's Rayleigh ratio may
    exceed C* (1 + relative_slack). A violation signals an estimator bug."""
    problem = estimate.problem
    rng = np.random.default_rng(seed)
    threshold = estimate.c_star * (1.0 + relative_slack)
    max_ratio = 0.0
    violations = 0
    for _ in range(n_samples):
        w = _smoothed_noise(problem, rng)
        ratio = rayleigh_ratio(problem, w)
        max_ratio = max(max_ratio, ratio)
        if ratio > threshold:
            violations += 1
    return ViolationReport(
        n_samples=n_samples,
        max_ratio=max_ratio,
        c_star=estimate.c_star,
        threshold=threshold,
        violations=violations,
    )
