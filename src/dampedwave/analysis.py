"""Decay-rate fitting and semilinear sweeps.

The linear theory claims E_u(t) <= C I0^2 (1+t)^-1 and ||u(t)|| <= C I0;
the semilinear theory claims, for potentials V0 |x|^-beta with beta > 1,
global existence with rate (1+t)^-1/2 in the energy norm once the power
exceeds the critical exponent p*(beta) = 5 + 2 beta and the data are
small. Rates are measured as least-squares slopes of log(quantity)
against log(1+t) over a window (transients are skipped by starting
windows at t = 10).

A semilinear sweep is a base RunSpec and a cell is a (spec, I0) pair:
the base with |u|^p, built by config.build_problem as for `dampedwave
run`, its data rescaled to I0. The power does not enter the problem, so
each process builds the base's profile and data, and the data's I0,
once. The cells are mapped in order, p-major, and the sweep returns
their outcome tokens as a matrix, one row per p. With N workers, a pool
of N - 1 processes takes cells from the front while the calling process
marches, from the back, every cell no pool process has started. A
cell's outcome reads only ||u|| and the energy norm, so it marches
without history (solver.RunConfig.history = False) under the Recorder
`dampedwave run` uses; the columns that need history are NaN.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import config as cfg
from . import solver
from .coefficients import CoefficientProfile, InitialData, compute_data_norms
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


BOUNDED_GROWTH_FACTOR = 1.10
DECAY_EXPONENT_GATE = -0.4


def scale_data_to_i0(
    data: InitialData, profile: CoefficientProfile, target_i0: float,
    unit_i0: float | None = None,
) -> InitialData:
    """Rescale both data fields so the combined norm I0 hits the target
    (I0 is 1-homogeneous in the data); unit_i0 is the data's own I0 when
    the caller has it."""
    if not 0.0 <= target_i0 < math.inf:
        raise HypothesisError(f"target I0 must be finite and nonnegative, got {target_i0}")
    if target_i0 == 0.0:
        zeros = np.zeros_like(data.u0)
        return InitialData(zeros, zeros, data.support_radius)
    unit = compute_data_norms(data, profile).I0 if unit_i0 is None else unit_i0
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


def _linear(spec: cfg.RunSpec) -> cfg.RunSpec:
    return replace(spec, nonlinearity=cfg.NonlinearitySpec())


@lru_cache(maxsize=1)
def _unit_problem(
    linear: cfg.RunSpec,
) -> tuple[CoefficientProfile, InitialData, float | None]:
    """The profile, data and data I0 of a spec without its power, which
    every cell of a sweep shares (the arrays are read-only). I0 is None
    where V vanishes on the grid: a cell with I0 > 0 then raises."""
    profile, data = cfg.build_problem(linear)
    try:
        unit = compute_data_norms(data, profile).I0
    except HypothesisError:
        unit = None
    return profile, data, unit


def _sweep_cell(cell: tuple[cfg.RunSpec, float]) -> str:
    """The outcome token of one (spec, I0) cell, its spec carrying its power;
    a cell that fails its checks becomes error(<exception name>)."""
    spec, i0 = cell
    try:
        profile, data, unit = _unit_problem(_linear(spec))
        data = scale_data_to_i0(data, profile, i0, unit)
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
    one row of tokens per p, one column per I0. A base invalid for every
    cell (data inside the core, or no linear RunConfig, which is valid by
    construction) raises ConfigError/HypothesisError before any cell runs;
    a cell's own fault (p <= 1, a bad I0) becomes an error(<exception
    name>) token and never aborts the sweep. workers must be >= 1
    (ConfigError otherwise) and counts the processes that march cells,
    this one included, at most one per cell. With more than one, a pool
    of workers - 1 processes takes the cells from the front and this
    process takes from the back every cell no pool process has started;
    a cell that raises first cancels every cell not started. With one,
    the cells are mapped in process."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if spec.potential.beta is None:
        raise ConfigError(f"a sweep needs a potential with beta, got {spec.potential.family!r}")
    linear = _linear(spec)
    # built here, before the pool forks, so a pool process inherits it
    profile, data, _ = _unit_problem(linear)
    solver.check_semilinear_support(data, profile)
    cfg.run_config_from_spec(linear, profile, data)
    cells = [(replace(spec, nonlinearity=cfg.NonlinearitySpec("power", p)), i0)
             for p in p_values for i0 in I0_values]
    workers = min(workers, len(cells))
    if workers > 1:
        # deferred: concurrent.futures loads multiprocessing, which only
        # a pooled sweep uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(_sweep_cell, cell) for cell in cells]
            try:  # from the back, every cell no pool process has started
                mine = {i: _sweep_cell(cells[i])
                        for i in reversed(range(len(cells))) if futures[i].cancel()}
                flat = [mine[i] if i in mine else f.result() for i, f in enumerate(futures)]
            finally:  # as Executor.map: a raising cell cancels the cells not started
                for f in futures:
                    f.cancel()
    else:
        flat = list(map(_sweep_cell, cells))
    m = len(I0_values)
    return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(len(p_values)))
