"""The paper's auxiliary inequalities, checked apart from any run.

Lemma 3.1's convolution bound

    int_0^t (1+t-s)^-1/2 (1+s)^-theta ds <= C_theta (1+t)^-1/2

holds exactly for theta > 1 (for theta <= 1 the scaled sup keeps growing,
which the report exposes instead of raising). The interpolation
inequality ||u||_2p <= C ||u||^(1-theta) ||u_x||^theta with
theta = (p-1)/(2p) and the sampled Poincare inequality with the computed
C* are probed on random smoothed samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from dampedwave import Grid
from dampedwave.errors import HypothesisError
from dampedwave.spectral import rayleigh_ratio

SAMPLE_SLACK = 1e-8  # relative rounding slack of verify_poincare_on_samples


@dataclass(frozen=True)
class Lemma31Report:
    sup_value: float
    sup_doubled: float
    rel_change: float
    hypothesis_satisfied: bool


def _convolution_nodes(t: float, n: int) -> np.ndarray:
    """Composite mesh on [0, t] log-graded toward both ends, where the
    integrand factors (1+s)^-theta and (1+t-s)^-1/2 have their curvature."""
    half = max(n // 2, 8) | 1
    left = np.expm1(np.linspace(0.0, math.log1p(t / 2.0), half))
    right = t - left[::-1]
    return np.concatenate((left, right[1:]))


def _simpson(f: np.ndarray, s: np.ndarray) -> float:
    """Composite Simpson rule over consecutive node pairs of a non-uniform
    mesh s with an odd point count: exact for quadratics on each pair."""
    h = np.diff(s)
    h0, h1 = h[0::2], h[1::2]
    hsum, ratio = h0 + h1, h0 / h1
    return float(np.sum(hsum / 6.0 * (f[:-2:2] * (2.0 - 1.0 / ratio)
                                      + f[1::2] * (hsum * (hsum / (h0 * h1)))
                                      + f[2::2] * (2.0 - ratio))))


def _scaled_convolution_sup(theta: float, t_max: float, n_quadrature: int) -> float:
    t_values = np.concatenate(([0.0], np.geomspace(1e-2, t_max, 160)))
    t_values[-1] = t_max
    sup = 0.0
    for t in t_values:
        if t == 0.0:
            continue
        s = _convolution_nodes(t, n_quadrature)
        integrand = (1.0 + t - s) ** -0.5 * (1.0 + s) ** -theta
        val = _simpson(integrand, s) * math.sqrt(1.0 + t)
        sup = max(sup, val)
    return sup


def check_lemma31(theta: float, t_max: float = 1000.0) -> Lemma31Report:
    """Numeric sup over [0, t_max] of (1+t)^1/2 int_0^t (1+t-s)^-1/2 (1+s)^-theta ds,
    and the same sup on the doubled horizon. For theta > 1 the sup is finite
    and barely moves under doubling; for theta <= 1 it keeps growing, which
    rel_change exposes."""
    if theta <= 0:
        raise HypothesisError(f"theta must be positive, got {theta}")
    n = 2001  # quadrature points per integral; Simpson pairs need an odd count
    sup1 = _scaled_convolution_sup(theta, t_max, n)
    sup2 = _scaled_convolution_sup(theta, 2.0 * t_max, n)
    return Lemma31Report(
        sup_value=sup1, sup_doubled=sup2,
        rel_change=(sup2 - sup1) / sup1 if sup1 > 0 else float("nan"),
        hypothesis_satisfied=theta > 1.0,
    )


def smoothed_noise(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Random H1-like sample: one draw of white nodal noise smoothed by a
    Gaussian kernel of standard deviation 0.25, cut at +-0.5."""
    half_width = max(2, int(round(0.5 / grid.dx)))
    s = np.arange(-half_width, half_width + 1) * grid.dx
    kernel = np.exp(-(s**2) / (2 * 0.25**2))
    kernel /= kernel.sum()
    return np.convolve(rng.standard_normal(grid.n_nodes), kernel, mode="same")


@dataclass(frozen=True)
class InterpolationReport:
    theta: float
    max_ratio: float


def check_gagliardo_nirenberg(p: float, n_samples: int = 1000, seed: int = 7
                              ) -> InterpolationReport:
    """Empirical constant in ||u||_2p <= C ||u||^(1-theta) ||u_x||^theta,
    theta = (p-1)/(2p), over random smoothed samples on [-20, 20] (2,048
    cells) tapered to zero at the ends. The ratio is scale invariant, so
    sample amplitude is irrelevant; the report carries its max (the
    empirical constant)."""
    if p <= 1:
        raise HypothesisError(f"interpolation exponent needs p > 1, got {p}")
    grid = Grid(-20.0, 20.0, 2048)
    rng = np.random.default_rng(seed)
    taper = np.sin(np.linspace(0.0, math.pi, grid.n_nodes)) ** 2
    ratios = [interpolation_ratio(grid, smoothed_noise(grid, rng) * taper, p)
              for _ in range(n_samples)]
    return InterpolationReport(theta=(p - 1.0) / (2.0 * p), max_ratio=float(max(ratios)))


def interpolation_ratio(grid: Grid, u: np.ndarray, p: float) -> float:
    """||u||_2p / (||u||^(1-theta) ||u_x||^theta), theta = (p-1)/(2p), for one sample."""
    theta = (p - 1.0) / (2.0 * p)
    l2 = math.sqrt(grid.integrate(u**2))
    ux = np.gradient(u, grid.dx, edge_order=2)
    h1 = math.sqrt(grid.integrate(ux**2))
    l2p = grid.integrate(np.abs(u) ** (2.0 * p)) ** (1.0 / (2.0 * p))
    return l2p / (l2 ** (1.0 - theta) * h1**theta)


@dataclass(frozen=True)
class ViolationReport:
    max_ratio: float
    threshold: float
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _smoothed_noise(problem, rng: np.random.Generator) -> np.ndarray:
    """smoothed_noise localized around the core (where the extremizers
    live) and pinned to zero at the domain ends."""
    grid = problem.grid
    w = smoothed_noise(grid, rng)
    envelope_width = max(2.0 * problem.L, 2.0)
    w *= np.exp(-(grid.x**2) / (2.0 * envelope_width**2))
    w[0] = w[-1] = 0.0
    return w


def verify_poincare_on_samples(estimate, n_samples: int, seed: int) -> ViolationReport:
    """Property-test the inequality: no random sample's Rayleigh ratio may
    exceed C* (1 + SAMPLE_SLACK). A violation signals an estimator bug."""
    rng = np.random.default_rng(seed)
    threshold = estimate.c_star * (1.0 + SAMPLE_SLACK)
    ratios = [rayleigh_ratio(estimate.problem, _smoothed_noise(estimate.problem, rng))
              for _ in range(n_samples)]
    return ViolationReport(max_ratio=max(ratios, default=0.0), threshold=threshold,
                           violations=sum(r > threshold for r in ratios))
