"""Decay-rate fitting and semilinear sweeps.

The linear theory claims E_u(t) <= C I0^2 (1+t)^-1 and ||u(t)|| <= C I0;
the semilinear theory claims, for potentials V0 |x|^-beta with beta > 1,
global existence with rate (1+t)^-1/2 in the energy norm once the power
exceeds the critical exponent p*(beta) = 5 + 2 beta and the data are
small. Rates are measured as least-squares slopes of log(quantity)
against log(1+t) over a window (transients are skipped by starting
windows at t = 10).

A semilinear sweep is a base RunSpec and a cell is a (spec, I0) pair:
the base with |u|^p, its data rescaled to I0. The power does not enter
the problem, so each process builds the base's linear RunConfig once, as
`dampedwave run` does, and a cell replaces its power and its data,
scaled by the base's norms. The cells are ordered p-major, and the sweep
returns their outcome tokens as a matrix, one row per p. With N workers,
the calling process forks N - 1 processes after building its base, and
all N take cells from one pipe of tickets, each ticket a 4-byte index of
a block of consecutive cells (one cell per ticket up to TICKETS cells);
the kernel's pipe lock hands a ticket to one reader only. A forked
process sends back its tokens, or the exception a cell raised and its
traceback's text, pickled through a pipe of its own. A cell's outcome
reads only ||u|| and the energy norm, so it marches without history
(solver.RunConfig.history = False) under the Recorder `dampedwave run`
uses; the columns that need history are NaN.
"""

from __future__ import annotations

import math
import os
import pickle
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import config as cfg
from . import solver
from .coefficients import DataNorms, InitialData
from .diagnostics import EnergyRecord, Recorder
from .errors import ConfigError, FitError, HypothesisError

QUANTITY_FLOOR = 1e-300
MIN_FIT_RECORDS = 10
# at most this many 4-byte sweep tickets: 2 KiB, written to the ticket pipe
# at once, is within PIPE_BUF (4 KiB on Linux), so the write never blocks
TICKETS = 512


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
    data: InitialData, norms: DataNorms | None, target_i0: float
) -> InitialData:
    """Rescale both data fields so the combined norm I0 hits the target
    (I0 is 1-homogeneous in the data), given the data's own norms
    (solver.RunConfig.norms); HypothesisError where target > 0 and I0 is
    zero or undefined (norms None), and where target^2 leaves float range
    (the scaled data's squared norms, and so E_u, would too)."""
    if not (0.0 <= target_i0 and target_i0 * target_i0 < math.inf):
        raise HypothesisError(f"target I0 must be nonnegative with its square in float range, "
                              f"got {target_i0}")
    if target_i0 > 0.0 and (norms is None or norms.I0 == 0.0):
        raise HypothesisError("cannot rescale data whose I0 is zero or undefined (V vanishes "
                              "somewhere on the grid) to a positive I0")
    s = target_i0 / norms.I0 if target_i0 > 0.0 else 0.0
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


@lru_cache(maxsize=1)
def base_run(linear: cfg.RunSpec) -> solver.RunConfig:
    """A sweep's base: the RunConfig, without history, of its spec without
    the power; each cell is this config with its own data and power.
    Cached, so a caller that checks the base first does not build it twice."""
    profile, data = cfg.build_problem(linear)
    solver.check_semilinear_support(data, profile)
    return replace(cfg.run_config_from_spec(linear, profile, data), history=False)


def _sweep_cell(cell: tuple[cfg.RunSpec, float]) -> str:
    """The outcome token of one (spec, I0) cell, its spec carrying its power;
    a cell that fails its checks becomes error(<exception name>)."""
    spec, i0 = cell
    try:
        base = base_run(replace(spec, nonlinearity=cfg.NonlinearitySpec()))
        data = scale_data_to_i0(base.data, base.norms, i0)
        run_config = replace(base, data=data, p=spec.nonlinearity.p)
        return classify_outcome(solver.run(run_config, Recorder(base.profile, None, data, None)),
                                spec.time.t_end)
    except (ConfigError, HypothesisError) as exc:
        return f"error({type(exc).__name__})"


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a forked process, as text."""


def _forked_map(fn, cells: list, workers: int) -> list:
    """[fn(cell) for cell in cells] on this process and workers - 1 forked
    ones, which share one pipe of tickets (module docstring). A cell that
    raises drains the pipe, so no process starts another cell, and its
    exception reaches the caller; from a forked process it is chained
    from a _RemoteTraceback holding that process's traceback. A forked
    process that ends without its tokens, or with a nonzero status,
    raises RuntimeError. Every forked process is waited for before this
    returns or raises."""
    block = -(-len(cells) // TICKETS)  # cells per ticket
    tickets, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(-(-len(cells) // block))))
    os.close(feed)

    def march() -> dict[int, str]:
        done = {}
        while ticket := os.read(tickets, 4):
            start = int.from_bytes(ticket, "little") * block
            for i in range(start, min(start + block, len(cells))):
                done[i] = fn(cells[i])
        return done

    def drain() -> None:  # no process starts another cell
        while os.read(tickets, 4096):
            pass

    children = []  # (pid, its result pipe's read end as a file)
    try:
        for _ in range(workers - 1):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:  # never returns: no stdio flush, no caller's stack
                status = 1
                try:
                    os.close(reader)
                    for _pid, other in children:
                        other.close()
                    try:
                        payload = march()
                    except BaseException as exc:
                        drain()
                        import traceback  # only a failing process needs it
                        payload = exc, "".join(traceback.format_exception(exc))
                    with os.fdopen(writer, "wb") as out:
                        out.write(pickle.dumps(payload))
                    status = 0
                finally:
                    os._exit(status)
            os.close(writer)
            children.append((pid, os.fdopen(reader, "rb")))
        done = march()
        payloads = [results.read() for _pid, results in children]
    finally:
        drain()
        os.close(tickets)
        codes = []
        for pid, results in children:
            results.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _results), payload, code in zip(children, payloads, codes):
        if code or not payload:
            end = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"sweep process {pid} ended with {end}"
                               + ("" if payload else " and no tokens"))
        payload = pickle.loads(payload)
        if isinstance(payload, tuple):  # (exception, its traceback's text)
            raise payload[0] from _RemoteTraceback(payload[1])
        done.update(payload)
    return [done[i] for i in range(len(cells))]


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
    this one included, at most one per cell. With more than one, this
    process forks workers - 1 processes and all take the cells from one
    pipe of tickets (module docstring); a cell that raises in any process
    cancels every cell not started, and its exception reaches the caller.
    With one, or on a platform without os.fork, the cells are mapped in
    process."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if spec.potential.beta is None:
        raise ConfigError(f"a sweep needs a potential with beta, got {spec.potential.family!r}")
    # built here, before the fork, so a forked process inherits it
    base_run(replace(spec, nonlinearity=cfg.NonlinearitySpec()))
    cells = [(replace(spec, nonlinearity=cfg.NonlinearitySpec("power", p)), i0)
             for p in p_values for i0 in I0_values]
    workers = min(workers, len(cells))
    if workers > 1 and hasattr(os, "fork"):
        flat = _forked_map(_sweep_cell, cells, workers)
    else:
        flat = list(map(_sweep_cell, cells))
    m = len(I0_values)
    return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(len(p_values)))
