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

A semilinear sweep is a base RunSpec and a cell is a (spec, I0) pair:
the base with |u|^p, built by config.build_problem as for `dampedwave
run`, its data rescaled to I0. The cells are mapped in order, p-major,
and the sweep returns their outcome tokens as a matrix, one row per p.
A cell's outcome reads only ||u|| and the energy norm, so it marches
without history (solver.RunConfig.history = False) under the Recorder
`dampedwave run` uses; the columns that need history are NaN.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

import numpy as np

from . import config as cfg
from . import solver
from .coefficients import CoefficientProfile, Grid, InitialData, compute_data_norms
from .diagnostics import EnergyRecord, Recorder
from .errors import ConfigError, FitError, HypothesisError
from .spectral import smoothed_noise

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


def record_columns(records: list[EnergyRecord]) -> dict[str, np.ndarray]:
    """The fields of a run's records as named columns."""
    names = [f.name for f in fields(records[0])] if records else []
    return {name: np.array([getattr(r, name) for r in records]) for name in names}


def fit_decay(
    records: list[EnergyRecord],
    quantity: str,
    window: tuple[float, float],
    claimed_rate: float = 1.0,
) -> FitResult:
    """Least-squares slope of log(quantity) vs log(1+t) on the window,
    plus the sup of quantity * (1+t)^claimed_rate over the same window."""
    return fit_columns(record_columns(records), quantity, window, claimed_rate)


def fit_columns(
    columns: Mapping[str, np.ndarray],
    quantity: str,
    window: tuple[float, float],
    claimed_rate: float = 1.0,
) -> FitResult:
    """fit_decay on a run's named columns (a CSV's, or record_columns).
    'l2_u_sq' derives ||u||^2 from l2_u; a missing column or a claimed rate
    that is not finite raises FitError."""
    if not math.isfinite(claimed_rate):
        raise FitError(f"claimed rate must be finite, got {claimed_rate}")
    source = "l2_u" if quantity == "l2_u_sq" else quantity
    for column in ("t", source):
        if column not in columns:
            raise FitError(f"no column {column!r} for quantity {quantity!r}; "
                           f"columns: {', '.join(columns)}")
    t, q = columns["t"], columns[source]
    if quantity == "l2_u_sq":
        q = q**2
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


def check_gagliardo_nirenberg(p: float, n_samples: int = 1000, seed: int = 7
                              ) -> InterpolationReport:
    """Empirical constant in ||u||_2p <= C ||u||^(1-theta) ||u_x||^theta,
    theta = (p-1)/(2p), over random smoothed samples on [-20, 20] (2,048
    cells) tapered to zero at the ends. The ratio is scale invariant, so
    sample amplitude is irrelevant; the report carries its max (the
    empirical constant)."""
    if p <= 1:
        raise HypothesisError(f"interpolation exponent needs p > 1, got {p}")
    theta = (p - 1.0) / (2.0 * p)
    grid = Grid(-20.0, 20.0, 2048)
    rng = np.random.default_rng(seed)
    taper = np.sin(np.linspace(0.0, math.pi, grid.n_nodes)) ** 2
    ratios = np.empty(n_samples)
    for i in range(n_samples):
        u = smoothed_noise(grid, rng) * taper
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

BOUNDED_GROWTH_FACTOR = 1.10
DECAY_EXPONENT_GATE = -0.4


def scale_data_to_i0(
    data: InitialData, profile: CoefficientProfile, target_i0: float
) -> InitialData:
    """Rescale both data fields so the combined norm I0 hits the target
    (I0 is 1-homogeneous in the data)."""
    if not 0.0 <= target_i0 < math.inf:
        raise HypothesisError(f"target I0 must be finite and nonnegative, got {target_i0}")
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
    return "decayed_at_rate" if fit.exponent <= DECAY_EXPONENT_GATE else "bounded"


def _sweep_cell(cell: tuple[cfg.RunSpec, float]) -> str:
    """The outcome token of one (spec, I0) cell, its spec carrying its power;
    a cell that fails its checks becomes error(<exception name>)."""
    spec, i0 = cell
    try:
        profile, data = cfg.build_problem(spec)
        data = scale_data_to_i0(data, profile, i0)
        run_config = replace(cfg.run_config_from_spec(spec, profile, data), history=False)
        return classify_outcome(solver.run(run_config, Recorder(profile, None, data, None)),
                                spec.time.t_end)
    except (ConfigError, HypothesisError) as exc:
        return f"error({type(exc).__name__})"


def semilinear_sweep(
    spec: cfg.RunSpec,
    p_values: list[float],
    I0_values: list[float],
    workers: int = 1,
) -> tuple[tuple[str, ...], ...]:
    """Outcome matrix over (p, I0) for a base spec with a potential beta:
    one row of tokens per p, one column per I0. A base that is invalid for
    every cell raises ConfigError/HypothesisError before any cell runs; a
    cell that fails on its own becomes an error(<exception name>) token
    and never aborts the sweep. workers must be >= 1 (ConfigError
    otherwise); more than one maps the cells in order over a process pool
    of at most one worker per cell, one maps them in process."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if spec.potential.beta is None:
        raise ConfigError(f"a sweep needs a potential with beta, got {spec.potential.family!r}")
    profile, data = cfg.build_problem(spec)
    solver.check_semilinear_support(data, profile)
    cells = [(replace(spec, nonlinearity=cfg.NonlinearitySpec("power", p)), i0)
             for p in p_values for i0 in I0_values]
    workers = min(workers, len(cells))
    if workers > 1:
        # deferred: concurrent.futures loads multiprocessing, which only
        # a pooled sweep uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_sweep_cell, cells))
    else:
        flat = list(map(_sweep_cell, cells))
    m = len(I0_values)
    return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(len(p_values)))
