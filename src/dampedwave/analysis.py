"""Decay-rate fitting, theorem-level checks, and semilinear sweeps.

The linear theory claims E_u(t) <= C I0^2 (1+t)^-1 and ||u(t)|| <= C I0;
the semilinear theory claims, for potentials V0 |x|^-beta with beta > 1,
global existence with rate (1+t)^-1/2 in the energy norm once the power
exceeds the critical exponent p*(beta) = 5 + 2 beta and the data are
small. Rates are measured as least-squares slopes of log(quantity)
against log(1+t) over a window (transients are skipped by starting
windows at t = 10). Two auxiliary inequalities from the semilinear proof
are verified numerically: the convolution bound

    int_0^t (1+t-s)^-1/2 (1+s)^-theta ds <= C_theta (1+t)^-1/2,

valid exactly for theta > 1 (for theta <= 1 the scaled sup keeps growing,
which the report exposes instead of raising), and the interpolation
inequality ||u||_2p <= C ||u||^(1-theta) ||u_x||^theta with
theta = (p-1)/(2p), probed on random smoothed samples.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .coefficients import (
    CoefficientProfile,
    Grid,
    InitialData,
    build_damping_plateau,
    build_potential_example1,
    compute_data_norms,
    gaussian_bump,
    make_initial_data,
    make_profile,
)
from .diagnostics import EnergyRecord, Recorder
from .errors import ConfigError, FitError, HypothesisError

QUANTITY_FLOOR = 1e-300
MIN_FIT_RECORDS = 10


@dataclass(frozen=True)
class FitResult:
    quantity: str
    window: tuple[float, float]
    exponent: float
    r_squared: float
    sup_scaled: float
    claimed_rate: float


def series_quantity(records: list[EnergyRecord], name: str) -> tuple[np.ndarray, np.ndarray]:
    """Extract (t, values) for a record field; 'l2_u_sq' derives ||u||^2."""
    t = np.array([r.t for r in records])
    if name == "l2_u_sq":
        q = np.array([r.l2_u**2 for r in records])
    else:
        try:
            q = np.array([getattr(r, name) for r in records])
        except AttributeError as exc:
            raise FitError(f"unknown record quantity {name!r}") from exc
    return t, q


def fit_decay(
    records: list[EnergyRecord],
    quantity: str,
    window: tuple[float, float],
    claimed_rate: float = 1.0,
) -> FitResult:
    """Least-squares slope of log(quantity) vs log(1+t) on the window,
    plus the sup of quantity * (1+t)^claimed_rate over the same window."""
    t, q = series_quantity(records, quantity)
    return fit_series(t, q, quantity, window, claimed_rate)


def fit_series(
    t: np.ndarray,
    q: np.ndarray,
    quantity: str,
    window: tuple[float, float],
    claimed_rate: float = 1.0,
) -> FitResult:
    """fit_decay on a bare (t, values) series, e.g. a CSV column."""
    t_lo, t_hi = window
    sel = (t >= t_lo) & (t <= t_hi)
    if sel.sum() < MIN_FIT_RECORDS:
        raise FitError(
            f"window [{t_lo}, {t_hi}] holds {int(sel.sum())} records; need {MIN_FIT_RECORDS}"
        )
    if not np.all(np.isfinite(q[sel])):
        raise FitError(f"{quantity} is not finite throughout the window [{t_lo}, {t_hi}]")
    if np.any(q[sel] < 0.0):
        raise FitError(f"{quantity} is negative in the window [{t_lo}, {t_hi}]")
    ts, qs = t[sel], np.clip(q[sel], QUANTITY_FLOOR, None)
    x = np.log1p(ts)
    y = np.log(qs)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    sup_scaled = float(np.max(q[sel] * (1.0 + ts) ** claimed_rate))
    return FitResult(
        quantity=quantity, window=(t_lo, t_hi), exponent=float(slope),
        r_squared=r2, sup_scaled=sup_scaled, claimed_rate=claimed_rate,
    )


def p_star(beta: float) -> float:
    """Critical power for small-data global existence: 5 + 2 beta.
    Formal values (beta <= 1) are allowed for reporting."""
    return 5.0 + 2.0 * beta


# ---------------------------------------------------------------------------
# convolution inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma31Report:
    theta: float
    t_max: float
    n_quadrature: int
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


def _scaled_convolution_sup(theta: float, t_max: float, n_quadrature: int) -> float:
    # deferred: scipy.integrate costs every process ~0.45 s and 270 modules,
    # and no CLI command reaches this check
    from scipy.integrate import simpson

    t_values = np.concatenate(([0.0], np.geomspace(1e-2, t_max, 160)))
    t_values[-1] = t_max
    sup = 0.0
    for t in t_values:
        if t == 0.0:
            continue
        s = _convolution_nodes(t, n_quadrature)
        integrand = (1.0 + t - s) ** -0.5 * (1.0 + s) ** -theta
        val = float(simpson(integrand, x=s)) * math.sqrt(1.0 + t)
        sup = max(sup, val)
    return sup


def check_lemma31(theta: float, t_max: float = 1000.0, n_quadrature: int = 2001) -> Lemma31Report:
    """Numeric sup over [0, t_max] of (1+t)^1/2 int_0^t (1+t-s)^-1/2 (1+s)^-theta ds,
    and the same sup on the doubled horizon. For theta > 1 the sup is finite
    and barely moves under doubling; for theta <= 1 it keeps growing, which
    rel_change exposes."""
    if theta <= 0:
        raise HypothesisError(f"theta must be positive, got {theta}")
    n = n_quadrature | 1  # simpson wants an odd point count
    sup1 = _scaled_convolution_sup(theta, t_max, n)
    sup2 = _scaled_convolution_sup(theta, 2.0 * t_max, n)
    return Lemma31Report(
        theta=theta, t_max=t_max, n_quadrature=n,
        sup_value=sup1, sup_doubled=sup2,
        rel_change=(sup2 - sup1) / sup1 if sup1 > 0 else float("nan"),
        hypothesis_satisfied=theta > 1.0,
    )


# ---------------------------------------------------------------------------
# interpolation inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationReport:
    p: float
    theta: float
    n_samples: int
    max_ratio: float
    mean_ratio: float


def check_gagliardo_nirenberg(
    p: float, n_samples: int = 1000, seed: int = 7, grid: Grid | None = None
) -> InterpolationReport:
    """Empirical constant in ||u||_2p <= C ||u||^(1-theta) ||u_x||^theta,
    theta = (p-1)/(2p), over random smoothed samples tapered to zero at
    the domain ends. The ratio is scale invariant, so sample amplitude is
    irrelevant; the report carries its max (the empirical constant)."""
    if p <= 1:
        raise HypothesisError(f"interpolation exponent needs p > 1, got {p}")
    theta = (p - 1.0) / (2.0 * p)
    if grid is None:
        grid = Grid(-20.0, 20.0, 2048)
    rng = np.random.default_rng(seed)
    taper = np.sin(np.linspace(0.0, math.pi, grid.n_nodes)) ** 2
    kernel_halfwidth = max(2, int(round(0.5 / grid.dx)))
    s = np.arange(-kernel_halfwidth, kernel_halfwidth + 1) * grid.dx
    kernel = np.exp(-(s**2) / (2 * 0.25**2))
    kernel /= kernel.sum()

    ratios = np.empty(n_samples)
    for i in range(n_samples):
        u = np.convolve(rng.standard_normal(grid.n_nodes), kernel, mode="same") * taper
        ratios[i] = interpolation_ratio(grid, u, p)
    return InterpolationReport(
        p=p, theta=theta, n_samples=n_samples,
        max_ratio=float(ratios.max()), mean_ratio=float(ratios.mean()),
    )


def interpolation_ratio(grid: Grid, u: np.ndarray, p: float) -> float:
    """||u||_2p / (||u||^(1-theta) ||u_x||^theta), theta = (p-1)/(2p), for one sample."""
    theta = (p - 1.0) / (2.0 * p)
    l2 = math.sqrt(grid.integrate(u**2))
    ux = np.gradient(u, grid.dx, edge_order=2)
    h1 = math.sqrt(grid.integrate(ux**2))
    l2p = grid.integrate(np.abs(u) ** (2.0 * p)) ** (1.0 / (2.0 * p))
    return l2p / (l2 ** (1.0 - theta) * h1**theta)


# ---------------------------------------------------------------------------
# semilinear sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepBase:
    """Shared setup for one sweep: the potential family parameters, the
    data shape (unit-amplitude gaussian bump), and run controls."""

    beta: float = 2.0
    V0: float = 0.01
    L: float = 1.0
    eps1: float = 1.0
    ramp: str = "sharp"
    data_width: float = 0.75
    dx: float = 0.05
    t_end: float = 40.0
    cfl: float = 0.9
    record_every: int = 10
    padding: float = 3.0


@dataclass(frozen=True)
class SemilinearSweep:
    beta: float
    p_values: tuple[float, ...]
    I0_values: tuple[float, ...]
    outcomes: tuple[tuple[str, ...], ...]  # rows: p, columns: I0
    p_critical: float


BOUNDED_GROWTH_FACTOR = 1.10
DECAY_EXPONENT_GATE = -0.4


def scale_data_to_i0(
    data: InitialData, profile: CoefficientProfile, target_i0: float
) -> InitialData:
    """Rescale both data fields so the combined norm I0 hits the target
    (I0 is 1-homogeneous in the data)."""
    if target_i0 < 0:
        raise HypothesisError("target I0 must be nonnegative")
    if target_i0 == 0.0:
        zeros = np.zeros_like(data.u0)
        return InitialData(zeros, zeros.copy(), data.support_radius)
    unit = compute_data_norms(data, profile).I0
    if unit == 0.0:
        raise HypothesisError("cannot rescale identically zero data to a positive I0")
    s = target_i0 / unit
    return InitialData(data.u0 * s, data.u1 * s, data.support_radius)


def _bounded(records: list[EnergyRecord]) -> bool:
    """Sweep notion of boundedness: the last-quartile max of ||u|| does not
    exceed the first-quartile max by more than 10% (plus an absolute floor
    so the zero solution passes)."""
    t = np.array([r.t for r in records])
    l2 = np.array([r.l2_u for r in records])
    span = t[-1] - t[0]
    first = float(np.max(l2[t <= t[0] + 0.25 * span], initial=0.0))
    last = float(np.max(l2[t >= t[-1] - 0.25 * span], initial=0.0))
    return last <= BOUNDED_GROWTH_FACTOR * first + 1e-30


def classify_outcome(result: solver.RunResult, t_end: float) -> str:
    if result.termination.kind == solver.BLOWUP:
        return f"blowup(t={result.termination.time:.6g})"
    if result.termination.kind == solver.INSTABILITY:
        return "unstable"
    records = result.records
    if not records or not _bounded(records):
        return "growing"
    try:
        fit = fit_decay(records, "energy_norm", (10.0, t_end))
    except FitError:
        return "bounded"
    if np.max([r.energy_norm for r in records]) == 0.0:
        return "bounded"
    return "decayed_at_rate" if fit.exponent <= DECAY_EXPONENT_GATE else "bounded"


def _sweep_cell(args) -> tuple[int, int, str]:
    (i, j, p, i0, base) = args
    try:
        outcome = _run_sweep_cell(p, i0, base)
    except (ConfigError, HypothesisError) as exc:
        outcome = f"error({type(exc).__name__})"
    return i, j, outcome


def _sweep_problem(base: SweepBase) -> tuple[CoefficientProfile, InitialData]:
    """The profile and unit-amplitude data every cell of a sweep shares.
    Raises ConfigError/HypothesisError when they are invalid for every cell."""
    # truncation radius of the unit gaussian bump at the data floor
    radius = base.data_width * math.sqrt(2.0 * math.log(1e14))
    grid = solver.domain_for_radius(radius, base.t_end, base.dx, base.padding)
    V = build_potential_example1(base.V0, base.beta, base.L, grid)
    a = build_damping_plateau(base.eps1, base.L, base.ramp, grid)
    profile = make_profile(grid, V, a, base.L, base.eps1, beta=base.beta, V0=base.V0)
    data = make_initial_data(
        grid, gaussian_bump(grid, 1.0, base.data_width), np.zeros(grid.n_nodes)
    )
    solver.check_semilinear_support(data, profile)
    return profile, data


def _run_sweep_cell(p: float, i0: float, base: SweepBase) -> str:
    profile, data = _sweep_problem(base)
    data = scale_data_to_i0(data, profile, i0)
    recorder = Recorder(profile, None, data, None)
    config = solver.RunConfig(
        profile=profile, data=data, t_end=base.t_end, cfl=base.cfl,
        p=p, record_every=base.record_every,
    )
    result = solver.run(config, recorder)
    return classify_outcome(result, base.t_end)


def semilinear_sweep(
    beta: float,
    p_values: list[float],
    I0_values: list[float],
    base: SweepBase | None = None,
    workers: int = 1,
) -> SemilinearSweep:
    """Outcome matrix over (p, I0). A base that is invalid for every cell
    raises ConfigError/HypothesisError before any cell runs; a cell that
    fails on its own becomes an error(<exception name>) outcome token and
    never aborts the sweep. workers > 1 dispatches cells to a process
    pool; aggregation order is deterministic either way."""
    base = replace(base or SweepBase(), beta=beta)
    _sweep_problem(base)
    cells = [
        (i, j, p, i0, base)
        for i, p in enumerate(p_values)
        for j, i0 in enumerate(I0_values)
    ]
    grid_out = [["" for _ in I0_values] for _ in p_values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, j, outcome in pool.map(_sweep_cell, cells):
                grid_out[i][j] = outcome
    else:
        for cell in cells:
            i, j, outcome = _sweep_cell(cell)
            grid_out[i][j] = outcome
    return SemilinearSweep(
        beta=beta,
        p_values=tuple(p_values),
        I0_values=tuple(I0_values),
        outcomes=tuple(tuple(row) for row in grid_out),
        p_critical=p_star(beta),
    )
