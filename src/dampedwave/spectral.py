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

The iterative path is power iteration on A^-1 B (inverse iteration for
the pencil A w = lambda B w with A = stiffness + outer mass, B = inner
mass). A is symmetric positive definite and tridiagonal (weakly
diagonally dominant), so it is factored once as L D L^T without pivoting,
which is backward stable for such a matrix, and each iteration solves
with one forward and one back substitution. The tests check it against
a dense oracle on coarse grids (tests/helpers.py): a Cholesky reduction
of the reversed pencil and a full symmetric eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Grid, core_sets, partition_cell_weights
from .errors import ConvergenceError, GridDomainError


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
    core and has a node in it (coefficients.core_sets)."""
    if grid.x_min > -L or grid.x_max < L:
        raise GridDomainError("grid must cover the core |x| <= L")
    w_in, w_out = partition_cell_weights(grid, L)
    if not core_sets(grid, L)[0].any() or w_in.sum() == 0.0:
        raise GridDomainError("inner region contains no grid mass; refine the grid")
    return PoincareProblem(grid, L, w_in, w_out)


@dataclass(frozen=True)
class PoincareEstimate:
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


def _pencil(problem: PoincareProblem) -> tuple[np.ndarray, float, np.ndarray]:
    """Interior-node matrices: A = stiffness + outer mass as its diagonal
    and its constant off-diagonal, B = inner mass diagonal."""
    dx = problem.grid.dx
    diag = 2.0 / dx + problem.w_out[1:-1]
    b_diag = problem.w_in[1:-1].copy()
    return diag, -1.0 / dx, b_diag


def _tridiag_matvec(diag: np.ndarray, off: float, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _ldl_factor(diag: np.ndarray, off: float) -> tuple[list[float], list[float]]:
    """Pivot-free L D L^T of the SPD tridiagonal matrix (diag, off):
    multipliers l (l[i] = L[i, i-1], l[0] unused) and pivots d."""
    d = diag.tolist()
    l = [0.0] * len(d)
    for i in range(1, len(d)):
        l[i] = off / d[i - 1]
        d[i] -= l[i] * off
    return l, d


def _ldl_solve(l: list[float], d: list[float], b: np.ndarray) -> np.ndarray:
    """Solve L D L^T y = b by forward and back substitution."""
    y = b.tolist()
    n = len(y)
    for i in range(1, n):
        y[i] -= l[i] * y[i - 1]
    y[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        y[i] = y[i] / d[i] - l[i + 1] * y[i + 1]
    return np.array(y)


def estimate_c_star(
    problem: PoincareProblem, tol: float = 1e-12, max_iter: int = 10_000
) -> PoincareEstimate:
    """Inverse-power iteration for the smallest Rayleigh value of the pencil.

    Converged when the eigenvalue increment is below tol * lambda and the
    relative eigenresidual is below sqrt(tol); the eigenvalue error then
    scales like residual^2 / gap, i.e. like tol.
    """
    diag, off, b_diag = _pencil(problem)
    l, d = _ldl_factor(diag, off)
    res_tol = np.sqrt(tol)

    # deterministic even start concentrated on the core, where the
    # minimizer lives
    xi = problem.grid.x[1:-1]
    v = np.exp(-((xi / max(problem.L, 1.0)) ** 2))
    v /= np.linalg.norm(v)

    lam_prev = np.inf
    lam = np.inf
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = _ldl_solve(l, d, b_diag * v)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise ConvergenceError("iteration collapsed to zero; inner mass degenerate")
        v = y / ny
        av = _tridiag_matvec(diag, off, v)
        bv = b_diag * v
        lam = float(v @ av) / float(v @ bv)
        residual = float(np.linalg.norm(av - lam * bv) / np.linalg.norm(av))
        if abs(lam - lam_prev) <= tol * abs(lam) and residual <= res_tol:
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations", residual=residual
        )
    minimizer = np.zeros(problem.grid.n_nodes)
    minimizer[1:-1] = v / np.max(np.abs(v))
    edge_tail = float(max(abs(minimizer[1]), abs(minimizer[-2])))
    return PoincareEstimate(
        problem=problem,
        c_star=1.0 / lam,
        lambda_min=lam,
        minimizer=minimizer,
        residual=residual,
        iterations=iterations,
        edge_tail=edge_tail,
    )


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
