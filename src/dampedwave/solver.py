"""Leapfrog time stepping for the damped wave equation on a truncated line.

Scheme: standard 3-point second differences in space, leapfrog in time
with the damping term time-centered and solved pointwise (a is diagonal):

    (u+ - 2u + u-)/dt^2 = D2 u - V u - a (u+ - u-)/(2 dt) + f(u),
    u+ = [2u - u- + dt^2 (D2 u - V u + f) + (a dt/2) u-] / (1 + a dt/2).

The pointwise solve is unconditionally well posed (denominator >= 1) and
keeps the scheme second order. The first step is a second-order Taylor
expansion. Explicit forcing f = |u|^p at the current level covers the
semilinear runs (they target small data).

Stability: dt <= cfl * dx / sqrt(1 + max(V) dx^2 / 4), the leapfrog bound
adjusted for the zeroth-order term.

Domains are sized so no signal reaches the boundary before t_end
(unit propagation speed), making homogeneous Dirichlet truncation exact
to machine precision for compactly supported data.

The cumulative time integrals needed by the energy bookkeeping (the
dissipation int a u_t^2, the damped mass int a u^2, and the accumulated
field v = int_0^t u ds) are updated with a per-step trapezoid so their
accuracy matches the scheme's order regardless of the record cadence.
u_t at a level is reconstructed from the neighboring levels: exact u1 at
t = 0, centered in the interior, one-sided second order at the end.

Light-cone window. The 3-point stencil moves information one node per
step, the discrete form of unit propagation speed. The coefficients are
finite and f(0) = 0 (linear runs, or |u|^p with p > 1), so a node whose
stencil reads only zeros is updated to exactly 0.0. Hence if u0 and u1
vanish outside the index range [lo, hi), level k vanishes outside
[lo - k, hi + k), clipped to the grid. run() works only on that window:
the kernel, the blowup check, the v update, the u_t reconstruction and
the two per-level integrals. The skip is exact, not a truncation: every
node outside the window holds the 0.0 a full-grid update would write,
and the per-node arithmetic is the one leapfrog_step/first_step use, so
u, u_t and v are bit-identical to a full-grid march. Only the two
cumulative integrals sum in a different order (dot products with a
times the trapezoid weights), which moves them by round-off.

Buffers. run() allocates its full-length arrays once: a ring of four u
levels (a blowup at level k returns level k-2 with its predecessor k-3),
two v levels, one u_t, and the kernel's scratch. Steps write into them in
place and allocate no full-length array. Integer p evaluates |u|^p by
repeated squaring (abs_power); other p use np.power.

Array contract. The WaveState a diagnostics hook receives, and
RunResult.final_state, hold copies that no later step writes to; a hook
may keep them. Full states are built only at record levels, at blowup
and at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import CoefficientProfile, Grid, InitialData
from .errors import ConfigError

BLOWUP_THRESHOLD = 1e8

COMPLETED = "completed"
BLOWUP = "blowup"
INSTABILITY = "instability"


@dataclass
class WaveState:
    """Fields at one time level; v(0, x) = 0 by construction."""

    t: float
    u: np.ndarray
    u_prev: np.ndarray | None
    u_t: np.ndarray
    v: np.ndarray
    dt: float


@dataclass(frozen=True)
class RunConfig:
    profile: CoefficientProfile
    data: InitialData
    t_end: float
    cfl: float = 0.9
    p: float | None = None  # power nonlinearity |u|^p; None = linear
    record_every: int = 10


@dataclass(frozen=True)
class Termination:
    kind: str  # completed | blowup | instability
    time: float | None = None


@dataclass
class RunResult:
    records: list = field(default_factory=list)
    final_state: WaveState | None = None
    termination: Termination = Termination(COMPLETED)
    dt: float = 0.0
    n_steps: int = 0


def domain_for_radius(support_radius: float, t_end: float, dx: float,
                      padding: float = 3.0) -> Grid:
    """Symmetric grid [-X, X] with X = support_radius + t_end + padding, so
    unit-speed signals never reach the boundary before t_end."""
    if dx <= 0 or t_end <= 0 or padding < 0:
        raise ConfigError("domain sizing needs dx > 0, t_end > 0, padding >= 0")
    X = support_radius + t_end + padding
    n_cells = int(math.ceil(2.0 * X / dx))
    n_cells += n_cells % 2  # keep 0 on a node
    return Grid(-X, X, n_cells)


def make_domain(data: InitialData, t_end: float, dx: float, padding: float = 3.0) -> Grid:
    if data.support_radius is None:
        raise ConfigError("unbounded initial data: supply an explicit truncation radius")
    return domain_for_radius(data.support_radius, t_end, dx, padding)


def cfl_timestep(profile: CoefficientProfile, cfl: float) -> float:
    if not 0.0 < cfl < 1.0:
        raise ConfigError(f"Courant factor must lie in (0, 1), got {cfl}")
    dx = profile.grid.dx
    vmax = float(np.max(profile.V))
    return cfl * dx / math.sqrt(1.0 + vmax * dx * dx / 4.0)


# Floating-point errors the march lets pass: |u|^p may overflow to inf,
# which the blowup check then reports.
_QUIET = dict(over="ignore", invalid="ignore", under="ignore")


def abs_power(u: np.ndarray, p: float, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """|u|^p elementwise into out (work is scratch of u's shape).

    Integer p >= 1 uses repeated squaring (|u|^11 is five multiplies);
    each multiply rounds once, so the result is within (p - 1) unit
    roundoffs of the exact power, against np.power's one. Any other p
    uses np.power. inf and nan pass through, without a warning.
    """
    out = np.empty_like(u) if out is None else out
    work = np.empty_like(u) if work is None else work
    with np.errstate(**_QUIET):
        return _abs_power(u, p, out, work)


def _abs_power(u, p, out, work):
    """abs_power under the caller's floating-point error state."""
    if not (float(p).is_integer() and p >= 1):
        return np.power(np.abs(u, out=work), p, out=out)
    e = int(p)
    np.abs(u, out=out)
    while not e & 1:  # out becomes the lowest set bit's factor
        np.multiply(out, out, out=out)
        e >>= 1
    square = out
    while e := e >> 1:
        square = np.multiply(square, square, out=work)
        if e & 1:
            np.multiply(out, work, out=out)
    return out


def _stencil(u: np.ndarray, lo: int, hi: int):
    """Left, centre and right neighbour views of the nodes [lo, hi)."""
    return u[lo - 1:hi - 1], u[lo:hi], u[lo + 1:hi + 1]


class _StepKernel:
    """Pointwise-implicit leapfrog update, in place on a range of nodes.

    step() and first() take the output view, the stencil's neighbour
    views of the current level, the other level's view and the slice of
    the coefficient arrays; they write only the output view. The
    operation order per node is fixed (it is what makes the windowed
    march bit-identical to a full-grid one):
        lap = ((u[i-1] - 2u[i]) + u[i+1]) / dx^2
        u+  = (((2u - u-) + dt^2 ((lap - V u) + f)) + (a dt/2) u-) * inv_denom
    with inv_denom = 1 / (1 + a dt/2). Callers enter np.errstate(**_QUIET)
    once around their updates; the kernel does not enter it per step.
    """

    def __init__(self, profile: CoefficientProfile, dt: float, p: float | None):
        dx = profile.grid.dx
        self.dx2 = dx * dx
        self.dt = dt
        self.dt2 = dt * dt
        self.half_dt2 = 0.5 * self.dt2
        self.p = p
        self.V = profile.V
        self.a = profile.a
        self.a_half_dt = profile.a * (dt / 2.0)
        self.inv_denom = 1.0 / (1.0 + self.a_half_dt)
        n = profile.grid.n_nodes
        self._scratch = (np.empty(n), np.empty(n), np.empty(n))

    def _lap_minus_vu(self, um, uc, up, s: slice):
        """Scratch views holding 2u and (D2 u - V u), plus a free one."""
        m = uc.shape[0]
        two_u, acc, work = (b[:m] for b in self._scratch)
        np.multiply(uc, 2.0, out=two_u)
        np.subtract(um, two_u, out=acc)
        np.add(acc, up, out=acc)
        np.divide(acc, self.dx2, out=acc)
        np.multiply(self.V[s], uc, out=work)
        np.subtract(acc, work, out=acc)
        return two_u, acc, work

    def _add_forcing(self, acc, uc, work, tmp) -> None:
        if self.p is not None:
            np.add(acc, _abs_power(uc, self.p, tmp, work), out=acc)

    def step(self, out, um, uc, up, u_prev, s: slice) -> None:
        """u^(n+1) into out from u^n (neighbour views) and u^(n-1)."""
        two_u, acc, work = self._lap_minus_vu(um, uc, up, s)
        self._add_forcing(acc, uc, work, out)
        np.multiply(acc, self.dt2, out=acc)
        np.subtract(two_u, u_prev, out=two_u)
        np.add(two_u, acc, out=two_u)
        np.multiply(self.a_half_dt[s], u_prev, out=out)
        np.add(two_u, out, out=two_u)
        np.multiply(two_u, self.inv_denom[s], out=out)

    def first(self, out, um, uc, up, u1, s: slice) -> None:
        """Taylor start u^1 = u0 + dt u1 + dt^2/2 ((lap - V u0) - a u1 + f)."""
        _, acc, work = self._lap_minus_vu(um, uc, up, s)
        np.multiply(self.a[s], u1, out=work)
        np.subtract(acc, work, out=acc)
        self._add_forcing(acc, uc, work, out)
        np.multiply(acc, self.half_dt2, out=acc)
        np.multiply(u1, self.dt, out=out)
        np.add(uc, out, out=out)
        np.add(out, acc, out=out)


def _whole_grid(update, u, w, bc: str) -> np.ndarray:
    """One kernel update over every interior node (and, for bc="periodic",
    the wrapped end node; any other bc holds the ends at zero)."""
    u, w = np.asarray(u, float), np.asarray(w, float)
    n = u.shape[0]
    out = np.zeros_like(u)
    with np.errstate(**_QUIET):
        update(out[1:n - 1], *_stencil(u, 1, n - 1), w[1:n - 1], slice(1, n - 1))
        if bc == "periodic":
            update(out[:1], u[-2:-1], u[:1], u[1:2], w[:1], slice(0, 1))
            out[-1] = out[0]
    return out


def leapfrog_step(u, u_prev, profile, dt, p=None, bc="dirichlet"):
    """One update u^(n+1) from (u^n, u^(n-1)) through the kernel run()
    uses, on the whole grid; handy for oracle and reversibility tests."""
    return _whole_grid(_StepKernel(profile, dt, p).step, u, u_prev, bc)


def first_step(u0, u1, profile, dt, p=None, bc="dirichlet"):
    """Second-order Taylor start u^1 from (u^0, u_t^0)."""
    return _whole_grid(_StepKernel(profile, dt, p).first, u0, u1, bc)


def _validate(config: RunConfig) -> None:
    if not config.data.conforms_to(config.profile.grid):
        raise ConfigError("initial data does not conform to the profile grid")
    if not (np.all(np.isfinite(config.profile.V)) and np.all(np.isfinite(config.profile.a))):
        raise ConfigError("potential and damping must be finite on the grid")
    if config.t_end <= 0:
        raise ConfigError("t_end must be positive")
    if config.record_every < 1:
        raise ConfigError("record_every must be >= 1")
    if config.p is not None:
        if config.p <= 1:
            raise ConfigError(f"power nonlinearity needs p > 1, got {config.p}")
        check_semilinear_support(config.data, config.profile)


def check_semilinear_support(data: InitialData, profile: CoefficientProfile) -> None:
    """Semilinear runs need compactly supported data reaching beyond the
    core: support radius R > L (or zero data)."""
    R = data.support_radius
    if R is None:
        raise ConfigError("semilinear runs require compactly supported data")
    if R > 0 and R <= profile.L:
        raise ConfigError(
            f"semilinear runs require support radius R > L (R={R}, L={profile.L})"
        )


def _window_bad(u: np.ndarray) -> bool:
    """A non-finite value, or one beyond BLOWUP_THRESHOLD in magnitude."""
    if u.size == 0:
        return False
    return not (u.max() <= BLOWUP_THRESHOLD and u.min() >= -BLOWUP_THRESHOLD)


def run(config: RunConfig, diagnostics_hook: Callable | None = None) -> RunResult:
    """March the Cauchy problem to t_end.

    diagnostics_hook(state, dissipation_cum, au2_cum) is called at every
    record level (level 0 included); whatever it returns is appended to
    RunResult.records. Blowup (the expected outcome for subcritical
    semilinear data) and instability terminate the march with a tagged
    time instead of raising; final_state is then level k-2 for a bad
    level k.
    """
    _validate(config)
    profile, data = config.profile, config.data
    n = profile.grid.n_nodes

    dt0 = cfl_timestep(profile, config.cfl)
    n_steps = int(math.ceil(config.t_end / dt0))
    rem = n_steps % config.record_every
    if rem:
        n_steps += config.record_every - rem  # uniform record cadence
    dt = config.t_end / n_steps
    half_dt, two_dt = 0.5 * dt, 2.0 * dt

    kernel = _StepKernel(profile, dt, config.p)
    a_weights = profile.a * profile.grid.weights
    result = RunResult(dt=dt, n_steps=n_steps)

    # level k lives in us[k % 4] and vs[k % 2]; u_t holds the newest
    # finalized level's u_t
    us = [data.u0.copy()] + [np.zeros(n) for _ in range(3)]
    vs = [np.zeros(n), np.zeros(n)]
    u_t = data.u1.copy()
    squares = np.empty(n)

    dissipation_cum = 0.0
    au2_cum = 0.0
    i_prev = 0.0
    j_prev = 0.0
    caller_errstate = np.geterr()

    def snapshot(level: int) -> WaveState:
        u_prev = us[(level - 1) % 4].copy() if level > 0 else None
        return WaveState(t=level * dt, u=us[level % 4].copy(), u_prev=u_prev,
                         u_t=u_t.copy(), v=vs[level % 2].copy(), dt=dt)

    def finalize(level: int, w: slice) -> WaveState | None:
        # a level is finalized once its u_t reconstruction exists; the
        # cumulative integrals advance one trapezoid panel per level
        nonlocal dissipation_cum, au2_cum, i_prev, j_prev
        i_now = float(np.dot(a_weights[w], np.square(u_t[w], out=squares[w])))
        j_now = float(np.dot(a_weights[w], np.square(us[level % 4][w], out=squares[w])))
        if level > 0:
            dissipation_cum += 0.5 * dt * (i_prev + i_now)
            au2_cum += 0.5 * dt * (j_prev + j_now)
        i_prev, j_prev = i_now, j_now
        if diagnostics_hook is None or level % config.record_every:
            return None
        state = snapshot(level)
        with np.errstate(**caller_errstate):
            rec = diagnostics_hook(state, dissipation_cum, au2_cum)
        if rec is not None:
            result.records.append(rec)
        return state

    live = np.flatnonzero((data.u0 != 0.0) | (data.u1 != 0.0))
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
    finalize(0, slice(lo, hi))

    # one error state for the whole march; hooks run under the caller's
    with np.errstate(**_QUIET):
        for k in range(1, n_steps + 1):
            if hi > lo:
                lo, hi = max(lo - 1, 0), min(hi + 1, n)
            u_new, u_c, u_p = us[k % 4], us[(k - 1) % 4], us[(k - 2) % 4]
            first, last = max(lo, 1), min(hi, n - 1)
            if last > first:
                nodes = slice(first, last)
                views = (u_new[nodes], *_stencil(u_c, first, last))
                if k == 1:
                    kernel.first(*views, data.u1[nodes], nodes)
                else:
                    kernel.step(*views, u_p[nodes], nodes)
            u_new[0] = u_new[-1] = 0.0  # the buffer may have held u0
            w = slice(lo, hi)
            if _window_bad(u_new[w]):
                kind = BLOWUP if config.p is not None else INSTABILITY
                result.termination = Termination(kind, time=k * dt)
                result.final_state = snapshot(max(k - 2, 0))
                return result
            v_new = vs[k % 2][w]
            np.add(u_c[w], u_new[w], out=v_new)
            np.multiply(v_new, half_dt, out=v_new)
            np.add(vs[(k - 1) % 2][w], v_new, out=v_new)
            if k >= 2:
                np.subtract(u_new[w], u_p[w], out=u_t[w])
                np.divide(u_t[w], two_dt, out=u_t[w])
                finalize(k - 1, w)

    u_c, u_p = us[n_steps % 4], us[(n_steps - 1) % 4]
    if n_steps >= 2:
        u_t[:] = (3.0 * u_c - 4.0 * u_p + us[(n_steps - 2) % 4]) / (2.0 * dt)
    else:  # a single-step run cannot do one-sided second order
        u_t[:] = (u_c - data.u0) / dt
    result.final_state = finalize(n_steps, slice(lo, hi)) or snapshot(n_steps)
    result.termination = Termination(COMPLETED)
    return result
