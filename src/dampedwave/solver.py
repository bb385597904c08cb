"""Leapfrog time stepping for the damped wave equation on a truncated line.

Scheme: standard 3-point second differences in space, leapfrog in time
with the damping term time-centered and solved pointwise (a is diagonal):

    (u+ - 2u + u-)/dt^2 = D2 u - V u - a (u+ - u-)/(2 dt) + f(u),
    u+ = [2u - u- + dt^2 (D2 u - V u + f) + (a dt/2) u-] / (1 + a dt/2).

The pointwise solve is unconditionally well posed (denominator >= 1) and
keeps the scheme second order. The first step is a second-order Taylor
expansion. Explicit forcing f = |u|^p at the current level covers the
semilinear runs (they target small data).

Kernel. With d = 1 + a dt/2 the update is folded into four coefficient
arrays set once per march, cn = (dt^2/dx^2)/d, cu = (2 - dt^2 V)/d,
cp = (1 - a dt/2)/d and cf = dt^2/d, and each step computes, in this order,
    t  = ((u[i-1] - 2u[i]) + u[i+1]) * cn,
    u+ = ((cu u + t) - cp u-) + cf |u|^p,
eight array operations. The forcing adds the power (np.abs and five
multiplies for p = 11) and two more, 16 in all for p = 11, on every
step whose forcing is not negligible (Negligible forcing). The second
difference is formed first, as in the unfolded formula, so its
cancellation is unchanged: folding the -2u into cu instead moved the
final lemma25_residual of a 5,560-step p = 11 run by 6.2e-9 relative,
this order by 2.5e-10. Per step the two forms agree within a few unit
roundoffs of the stencil's values.

Stability: dt <= cfl * dx / sqrt(1 + max(V) dx^2 / 4), the leapfrog bound
adjusted for the zeroth-order term.

Domains are sized so no signal reaches the boundary before t_end
(unit propagation speed), making homogeneous Dirichlet truncation exact
to machine precision for compactly supported data.

Validity. A RunConfig is valid by construction: building one raises
ConfigError on any input run() could not march, so run() checks nothing.
Building it also derives the march's dt and n_steps and whether it is
even (Mirror symmetry), which run() reads.

History. The accumulated field v = int_0^t u ds and the cumulative
integrals int_0^t int a u_t^2 (dissipation_cum) and int_0^t int a u^2
(au2_cum) are the march's history. A per-step trapezoid updates them,
so their accuracy matches the scheme's order whatever the record
cadence, and every state run() hands out carries them. The run decides:
RunConfig.history (default True) keeps it; with history = False (a
sweep cell, which classifies only norms) run() allocates no v, skips the
v update and the two per-level integrals, and its states carry v = None
and NaN for both integrals. u and u_t, and so every column a hook builds
from them alone, are bit-identical either way.

Light-cone window. The 3-point stencil moves information one node per
step, the discrete form of unit propagation speed. The coefficients are
finite and f(0) = 0 (linear runs, or |u|^p with p > 1), so a node whose
stencil reads only zeros is updated to exactly +0.0. Hence if u0 and u1
vanish outside the index range [lo, hi), level k vanishes outside
[lo - k, hi + k), clipped to the grid. run() works only on a block
holding that window, up to BLOCK nodes wider each side (Buffers). The
skip is exact, not a truncation: each node outside the window holds the
+0.0 a full-grid update would write, and each node's arithmetic is the
one _StepKernel does on the whole grid (leapfrog_step and first_step in
tests/helpers.py), so u, u_t and v are bit-identical to a full-grid
march. The two integrals' dot products take the exact window (their
bits depend on its length), in another order than a full-grid sum,
which moves them by round-off.

Mirror symmetry. A run is even when its grid is a mirror grid
(coefficients.Grid: x == -x[::-1], odd node count) and V, a, u0 and u1
are bitwise palindromes (f == f[::-1]; NaN fails), as the package's even
coefficients and centred data are: every committed config and sweep
cell is even. The solution of an even run is even, so run() marches
only the nodes x >= 0, about half the window: the window's left end is
clamped at the centre c = n // 2, and after each kernel step the ghost
u[c-1] is set to u[c+1], which the stencil at c reads. The two
per-level integrals are taken over [c, hi) with a w doubled off the
centre (doubling is exact). Its states are whole, the left half the
mirror of the right, and carry WaveState.mirrored, so the diagnostics
sum them over x >= 0 alone; RunResult.mirrored tells which march ran.
A whole-grid march is not bitwise even (the stencil adds terms left to
right, so a mirrored node sums in the other order); an even run's u,
u_t and v are bit-identical to the whole-grid march that overwrites the
left half by the mirrored right half after every level, and any other
run's to the plain whole-grid march.

Blowup screen. A level is bad when the window holds a non-finite value
or one beyond BLOWUP_THRESHOLD in magnitude. run() first computes
sq = dot(u, u) over the block, which bounds max|u|^2 by sq (1 + 1e-6)
(the margin covers the dot product's rounding): sq <= 1e16 (1 - 1e-6)
proves max|u| <= 1e8, and nan or inf fail it. Only a block that fails
the screen gets the exact max/min test.

Negligible forcing. The same sq decides whether the next step needs its
forcing. With M = max|u^k| and cf_max the largest cf, the forcing at
node i is at most cf_max M^(p-1) |u^k_i|. When sq proves that factor at
most FORCING_FLOOR = 2^-60 (a threshold sq_floor on M^2 set once per
march, so a step pays one comparison), step k+1 runs step()'s linear
path, cf = None; first() always keeps the forcing. sq bounds M^2 loosely
when u is spread: sq <= m M^2 over the block's m nodes. So a level with
sq_floor < sq <= m sq_floor (1 + 1e-6), where M^2 may still be at most
sq_floor, computes M exactly as max(max u, -min u) and skips the next
step's forcing when M^2 <= sq_floor; above that band the exact test
cannot pass, so it is not run. The dropped term is below half
an ulp of u^(k+1)_i (at least 2^-54 |u^(k+1)_i|) unless |u^(k+1)_i| <
|u^k_i| / 64, so the march is bit-identical to the forced one except at
nodes that shrink 64x in one step, which it moves by at most one
rounding (and a -0.0 in the data may keep its sign). The threshold also
keeps M^p below e^700, where the forced step could have overflowed to
the inf the screen reports. RunResult.forcing_skipped_steps counts the
linear steps. Small data, the paper's global-existence regime, skip
from step 2 on: semilinear_demo.cfg skips 5,559 of its 5,560 steps.

u_t. One rule gives the u_t of every state run() hands out, from the u
ring: u1 at level 0, (u^(k+1) - u^(k-1)) / (2 dt) in between, and at
the last level n the one-sided (3u^n - 4u^(n-1) + u^(n-2)) / (2 dt), or
(u^1 - u^0) / dt for a one-step run. The dissipation panel of a level
between uses (sum a w d^2) / (2 dt)^2, d = u^(k+1) - u^(k-1) formed in
a scratch array each step.

Buffers. run() allocates its full-length arrays once: a ring of four u
levels (the blowup state at level k-2 reads levels k-1 and k-3), and
with history two v levels and one scratch, plus the kernel's
coefficients and scratch. Steps write into them in place and allocate
no full-length array. A view costs about a small array operation, so a
step's ~25 views are built per ring phase k % 4, only when the window
outgrows its block. Integer p evaluates |u|^p by repeated squaring
(_abs_power); other p use np.power.

Array contract. The WaveState a diagnostics hook receives, and
RunResult.final_state, hold copies that no later step writes to; a hook
may keep them. One builder in run() makes them, only at record levels,
at blowup and at the end; an even run builds them whole by mirroring
its marched half. Their support field is a window [lo, hi) outside
which u, u_t and v vanish, and the diagnostics integrate only over it:
the window of the next level for a record level (its u_t reads that
level), of level k-1 for the blowup state, and the last window for the
final state. An even run's window is symmetric, (n - hi, hi). A
hand-built WaveState leaves support as None, the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
# the march's numpy calls, bound once and given out positionally: on a
# narrow window call overhead is most of a step, and np.<name> and out=
# add to it on every call
from numpy import absolute, add, divide, dot, multiply, power, square, subtract

from .coefficients import CoefficientProfile, Grid, InitialData
from .errors import ConfigError

BLOWUP_THRESHOLD = 1e8
FORCING_FLOOR = 2.0**-60  # a step whose forcing is below this times |u| skips it
BLOCK = 32  # window growth per side between rebuilds of run()'s views
MIN_T_END_CFL_FRACTION = 1e-8  # below it, (2 dt)^2 underflows or u_t is rounding / dt

COMPLETED = "completed"
BLOWUP = "blowup"
INSTABILITY = "instability"


@dataclass
class WaveState:
    """One time level and the march's history up to it (v(0, x) = 0);
    without history v is None and the two integrals are NaN."""

    t: float
    u: np.ndarray
    u_t: np.ndarray
    v: np.ndarray | None = None  # int_0^t u ds
    dissipation_cum: float = math.nan  # int_0^t int a u_t^2
    au2_cum: float = math.nan  # int_0^t int a u^2
    # [lo, hi) outside which u, u_t and v vanish; None: the whole grid
    support: tuple[int, int] | None = None
    mirrored: bool = False  # even fields of an even run (Mirror symmetry)


@dataclass(frozen=True)
class RunConfig:
    profile: CoefficientProfile
    data: InitialData
    t_end: float
    cfl: float = 0.9
    p: float | None = None  # power nonlinearity |u|^p; None = linear
    record_every: int = 10
    history: bool = True  # keep v and the cumulative integrals (History)
    # derived once by __post_init__: the march's step and length, and
    # whether it marches only x >= 0 (Mirror symmetry)
    dt: float = field(init=False)
    n_steps: int = field(init=False)
    mirrored: bool = field(init=False)

    def __post_init__(self):
        # conformity and finiteness first: a NaN V never reaches cfl_timestep
        if not self.data.conforms_to(self.profile.grid):
            raise ConfigError("initial data does not conform to the profile grid")
        if not (np.all(np.isfinite(self.profile.V)) and np.all(np.isfinite(self.profile.a))):
            raise ConfigError("potential and damping must be finite on the grid")
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError("t_end must be positive and finite")
        dt0 = cfl_timestep(self.profile, self.cfl)
        if self.t_end < MIN_T_END_CFL_FRACTION * dt0:
            raise ConfigError(f"t_end = {self.t_end:.6g} is below {MIN_T_END_CFL_FRACTION:g} "
                              f"of the CFL step {dt0:.6g}: u_t would be rounding over dt")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.p is not None:
            if not 1 < self.p < math.inf:  # NaN fails too
                raise ConfigError(f"power nonlinearity needs p > 1 and finite, got {self.p}")
            check_semilinear_support(self.data, self.profile)
        n_steps = int(math.ceil(self.t_end / dt0))
        n_steps += -n_steps % self.record_every  # uniform record cadence
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "dt", self.t_end / n_steps)
        object.__setattr__(self, "mirrored", _is_even(self))


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
    mirrored: bool = False  # marched only x >= 0 (see Mirror symmetry)
    # step() calls that left out the forcing (Negligible forcing); None: linear
    forcing_skipped_steps: int | None = None


def domain_for_radius(support_radius: float, t_end: float, dx: float,
                      padding: float) -> Grid:
    """Symmetric grid [-X, X] with X = support_radius + t_end + padding, so
    unit-speed signals never reach the boundary before t_end."""
    X = support_radius + t_end + padding
    if dx <= 0 or t_end <= 0 or padding < 0 or 2.0 * X / dx == math.inf:
        raise ConfigError("domain sizing needs dx > 0, t_end > 0, padding >= 0, finite 2X/dx")
    n_cells = int(math.ceil(2.0 * X / dx))
    n_cells += n_cells % 2  # keep 0 on a node
    return Grid(-X, X, n_cells)


def cfl_timestep(profile: CoefficientProfile, cfl: float) -> float:
    if not 0.0 < cfl < 1.0:
        raise ConfigError(f"Courant factor must lie in (0, 1), got {cfl}")
    dx = profile.grid.dx
    vmax = float(np.max(profile.V))
    return cfl * dx / math.sqrt(1.0 + vmax * dx * dx / 4.0)


# Floating-point errors the march lets pass: |u|^p may overflow to inf,
# which the blowup check then reports.
_QUIET = dict(over="ignore", invalid="ignore", under="ignore")


def _exponent(p: float) -> int | None:
    """int(p) where _abs_power squares repeatedly (integer p >= 1), else None."""
    return int(p) if float(p).is_integer() and p >= 1 else None


def _abs_power(u, p, e, out, work):
    """|u|^p elementwise into out (work is scratch of u's shape), with
    e = _exponent(p), under the caller's error state.

    Integer p >= 1 uses repeated squaring (|u|^11 is five multiplies);
    each multiply rounds once, so the result is within (p - 1) unit
    roundoffs of the exact power, against np.power's one. Any other p
    uses np.power. inf and nan pass through.
    """
    if e is None:
        return power(absolute(u, work), p, out)
    absolute(u, out)
    while not e & 1:  # out becomes the lowest set bit's factor
        multiply(out, out, out)
        e >>= 1
    squared = out
    while e := e >> 1:
        squared = multiply(squared, squared, work)
        if e & 1:
            multiply(out, work, out)
    return out


def _stencil(u: np.ndarray, lo: int, hi: int):
    """Left, centre and right neighbour views of the nodes [lo, hi)."""
    return u[lo - 1:hi - 1], u[lo:hi], u[lo + 1:hi + 1]


class _StepKernel:
    """Pointwise-implicit leapfrog update, in place on a range of nodes.

    step() takes what views() gives for a node range: the output view, the
    stencil's neighbour views of the current level, the other level's,
    the coefficients' and two scratch views. first() takes the output,
    stencil and u1 views and the range. Both write only the output. The
    operation order per node is fixed (it is what makes the windowed
    march bit-identical to a full-grid one): step() is the folded form of
    the module docstring's Kernel paragraph, and first(), which runs once
    per march, keeps the unfolded Taylor formula. Callers enter
    np.errstate(**_QUIET) once around their updates.
    """

    def __init__(self, profile: CoefficientProfile, dt: float, p: float | None):
        dx = profile.grid.dx
        dt2 = dt * dt
        self.dx2 = dx * dx
        self.dt = dt
        self.half_dt2 = 0.5 * dt2
        self.p = p
        self.exponent = None if p is None else _exponent(p)
        self.V = profile.V
        self.a = profile.a
        half_a_dt = profile.a * (dt / 2.0)
        d = 1.0 + half_a_dt
        self.cn = (dt2 / self.dx2) / d
        self.cu = (2.0 - dt2 * profile.V) / d
        self.cp = (1.0 - half_a_dt) / d
        self.cf = None if p is None else dt2 / d
        n = profile.grid.n_nodes
        self._scratch = (np.empty(n), np.empty(n))

    def views(self, out, u, u_prev, s: slice) -> tuple:
        """step()'s arguments for u^(n+1) into out on the nodes s."""
        t, work = (b[:s.stop - s.start] for b in self._scratch)
        cf = None if self.cf is None else self.cf[s]
        return (out[s], *_stencil(u, s.start, s.stop), u_prev[s],
                self.cn[s], self.cu[s], self.cp[s], cf, t, work)

    def step(self, out, um, uc, up, u_prev, cn, cu, cp, cf, t, work) -> None:
        """u^(n+1) into out from u^n (neighbour views) and u^(n-1)."""
        add(uc, uc, t)  # 2u, exactly as 2.0 * u
        subtract(um, t, t)
        add(t, up, t)
        multiply(t, cn, t)
        multiply(cu, uc, out)
        add(out, t, out)
        multiply(cp, u_prev, work)
        subtract(out, work, out)
        if cf is not None:
            f = _abs_power(uc, self.p, self.exponent, work, t)
            multiply(f, cf, f)
            add(out, f, out)

    def first(self, out, um, uc, up, u1, s: slice) -> None:
        """Taylor start u^1 = u0 + dt u1 + dt^2/2 ((lap - V u0) - a u1 + f),
        lap = ((u[i-1] - 2u[i]) + u[i+1]) / dx^2."""
        m = uc.shape[0]
        acc, work = (b[:m] for b in self._scratch)
        add(uc, uc, work)
        subtract(um, work, acc)
        add(acc, up, acc)
        divide(acc, self.dx2, acc)
        multiply(self.V[s], uc, work)
        subtract(acc, work, acc)
        multiply(self.a[s], u1, work)
        subtract(acc, work, acc)
        if self.p is not None:
            add(acc, _abs_power(uc, self.p, self.exponent, out, work), acc)
        multiply(acc, self.half_dt2, acc)
        multiply(u1, self.dt, out)
        add(uc, out, out)
        add(out, acc, out)


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


# sq = dot(u, u) bounds max|u|^2 by sq (1 + _DOT_MARGIN): a dot product of
# n squares lies within about n unit roundoffs of the exact sum, which the
# margin covers on any grid below a billion nodes. So sq <= _SCREEN proves
# max|u| <= BLOWUP_THRESHOLD.
_DOT_MARGIN = 1e-6
_SCREEN = BLOWUP_THRESHOLD**2 * (1.0 - _DOT_MARGIN)


def _window_bad(u: np.ndarray, sq: float) -> bool:
    """A non-finite value, or one beyond BLOWUP_THRESHOLD in magnitude;
    sq = dot(u, u).

    The dot product clears a bounded window; nan and inf fail it, and only
    then do the exact max/min tests run."""
    if sq <= _SCREEN:
        return False
    return not (u.max() <= BLOWUP_THRESHOLD and u.min() >= -BLOWUP_THRESHOLD)


def _negligible_forcing_sq(cf_max: float, p: float) -> float:
    """The dot(u, u) up to which a level's forcing is negligible: it proves
    cf_max max|u|^(p-1) <= FORCING_FLOOR and max|u|^p < e^700 (module
    docstring, Negligible forcing). Never raises: an overflow is inf."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = float((np.float64(FORCING_FLOOR) / cf_max) ** (2.0 / (p - 1.0)))
    finite = math.exp(1400.0 / max(p, 2.0))  # max|u|^2 below it keeps |u|^p finite
    return min(bound, finite) / (1.0 + _DOT_MARGIN)


def _is_even(config: RunConfig) -> bool:
    """A mirror grid (n odd), V, a, u0, u1 bitwise palindromes (NaN fails)."""
    x = config.profile.grid.x
    fields = (config.profile.V, config.profile.a, config.data.u0, config.data.u1)
    return x.size % 2 == 1 and np.array_equal(x, -x[::-1]) and all(
        np.array_equal(f, f[::-1]) for f in fields)


def run(config: RunConfig, diagnostics_hook: Callable | None = None) -> RunResult:
    """March the Cauchy problem to t_end.

    diagnostics_hook(state) is called at every record level (level 0
    included) with that level's WaveState; whatever it returns is
    appended to RunResult.records. Blowup (the expected outcome for
    subcritical semilinear data) and instability terminate the march with
    a tagged time instead of raising; final_state is then level k-2 for a
    bad level k. Every state carries the history up to its level, or
    v = None and NaN integrals without config.history (module docstring,
    History). An even run marches only x >= 0 and hands out whole states
    (Mirror symmetry).
    """
    profile, data = config.profile, config.data
    n = profile.grid.n_nodes

    record_every, dt, n_steps, mirrored = (
        config.record_every, config.dt, config.n_steps, config.mirrored)
    half_dt, two_dt = 0.5 * dt, 2.0 * dt

    kernel = _StepKernel(profile, dt, config.p)
    result = RunResult(dt=dt, n_steps=n_steps, mirrored=mirrored)
    # a level with dot(u, u) <= sq_floor, or with max|u|^2 <= sq_floor where
    # dot(u, u) <= sq_gate, makes the next step linear (Negligible forcing);
    # a linear run has no forcing to skip
    sq_floor = sq_gate = -math.inf
    negligible = False
    if config.p is not None:
        sq_floor = _negligible_forcing_sq(float(np.max(kernel.cf)), config.p)
        result.forcing_skipped_steps = 0
    history = config.history
    # the march writes nodes >= half; an even run's centre c = half reads
    # the ghost u[c - 1] = u[c + 1], and its states mirror x >= 0 onto x < 0
    half = n // 2 if mirrored else 0

    def part(lo: int, hi: int) -> slice:
        return slice(max(lo, half), hi)

    def mirror(f: np.ndarray) -> np.ndarray:
        if mirrored:
            f[:half] = f[:half:-1]
        return f

    # level k lives in us[k % 4] and vs[k % 2]. Four u levels, because the
    # blowup state at level k-2 takes its u_t from levels k-1 and k-3.
    us = [data.u0.copy()] + [np.zeros(n) for _ in range(3)]
    if history:
        vs = [np.zeros(n), np.zeros(n)]
        a_weights = profile.a * profile.grid.weights
        if mirrored:  # a node at x > 0 stands for both halves
            a_weights[half + 1:] *= 2.0
        scratch = np.empty(n)  # d = u^(k+1) - u^(k-1), then squares

    dissipation_cum = au2_cum = 0.0 if history else math.nan
    caller_errstate = np.geterr()

    def a_norm2(x: np.ndarray, w: slice) -> float:
        return float(dot(a_weights[w], square(x[w], scratch[w])))

    def advance(i_now: float, j_now: float) -> None:
        # one trapezoid panel per level; sum a w u_t^2 and sum a w u^2 at it
        nonlocal dissipation_cum, au2_cum, i_prev, j_prev
        dissipation_cum += 0.5 * dt * (i_prev + i_now)
        au2_cum += 0.5 * dt * (j_prev + j_now)
        i_prev, j_prev = i_now, j_now

    def u_t_at(level: int, w: slice) -> np.ndarray:
        """A handed-out level's u_t by the one rule (module docstring, u_t)."""
        if level == 0:
            return data.u1.copy()
        u_t, back = np.zeros(n), us[(level - 1) % 4][w]
        if level < n_steps:
            divide(subtract(us[(level + 1) % 4][w], back, u_t[w]), two_dt, u_t[w])
        elif n_steps >= 2:
            u_t[w] = (3.0 * us[level % 4][w] - 4.0 * back + us[(level - 2) % 4][w]) / two_dt
        else:  # a single-step run cannot do one-sided second order
            u_t[w] = (us[1][w] - back) / dt
        return u_t

    def state_at(level: int, lo: int, hi: int) -> WaveState:
        """The one builder of the states run() hands out: level's fields,
        copied and whole, and the history up to it."""
        v = mirror(vs[level % 2].copy()) if history else None
        return WaveState(t=level * dt, u=mirror(us[level % 4].copy()),
                         u_t=mirror(u_t_at(level, part(lo, hi))), v=v,
                         dissipation_cum=dissipation_cum, au2_cum=au2_cum, support=(lo, hi),
                         mirrored=mirrored)

    def record(state: WaveState) -> None:
        with np.errstate(**caller_errstate):
            rec = diagnostics_hook(state)
        if rec is not None:
            result.records.append(rec)

    live = np.flatnonzero((data.u0 != 0.0) | (data.u1 != 0.0))
    lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
    if history:
        i_prev, j_prev = a_norm2(data.u1, part(lo, hi)), a_norm2(data.u0, part(lo, hi))
    if diagnostics_hook is not None:
        record(state_at(0, lo, hi))

    blo, bhi = n, 0  # the block of the views; empty, so step 1 builds it
    # one error state for the whole march; hooks run under the caller's
    with np.errstate(**_QUIET):
        for k in range(1, n_steps + 1):
            prev_lo, prev_hi = lo, hi  # level k-1's window
            if hi > lo:
                lo, hi = max(lo - 1, 0), min(hi + 1, n)
            if lo < blo or hi > bhi:  # a new block: build its views (Buffers)
                blo, bhi = max(lo - BLOCK, 0), min(hi + BLOCK, n)
                nodes, e = slice(max(blo, half, 1), min(bhi, n - 1)), slice(max(blo, half), bhi)
                # dot(u, u) over the block's m nodes is at most m max|u|^2;
                # m >= 1 keeps a linear run's gate at -inf when e is empty
                sq_gate = max(e.stop - e.start, 1) * sq_floor * (1.0 + _DOT_MARGIN)
                # by k % 4: step()'s with and without the forcing, u^k,
                # u^(k-1), u^(k-2), v^k, v^(k-1), d
                phases = []
                for ph in range(4):
                    u3 = us[ph], us[(ph - 1) % 4], us[(ph - 2) % 4]
                    steps = kernel.views(*u3, nodes) if nodes.stop > nodes.start else None
                    linear = steps and (*steps[:8], None, *steps[9:])  # cf's slot
                    h = (vs[ph % 2][e], vs[(ph - 1) % 2][e], scratch[e]) if history else ()
                    phases.append((steps, linear, *(u[e] for u in u3), h))
            steps, linear, u_new, u_c, u_p, h = phases[k % 4]
            if steps and k == 1:
                kernel.first(*steps[:4], data.u1[nodes], nodes)
            elif steps and negligible:  # level k-1's forcing is negligible
                kernel.step(*linear)
                result.forcing_skipped_steps += 1
            elif steps:
                kernel.step(*steps)
            if k == 4:  # level 4 overwrites u0, whose end nodes the kernel never writes
                us[0][0] = us[0][-1] = 0.0
            if mirrored:
                us[k % 4][half - 1] = us[k % 4][half + 1]
            sq = float(dot(u_new, u_new))
            if _window_bad(u_new, sq):
                kind = BLOWUP if config.p is not None else INSTABILITY
                result.termination = Termination(kind, time=k * dt)
                result.final_state = state_at(max(k - 2, 0), prev_lo, prev_hi)
                return result
            negligible = sq <= sq_gate and (
                sq <= sq_floor or max(u_new.max(), -u_new.min()) ** 2 <= sq_floor)
            if history:
                v_new, v_prev, d = h
                multiply(add(u_c, u_new, v_new), half_dt, v_new)
                add(v_prev, v_new, v_new)
                if k >= 2:
                    w = part(lo, hi)
                    square(subtract(u_new, u_p, d), d)
                    i_now = float(dot(a_weights[w], scratch[w])) / (two_dt * two_dt)
                    square(u_c, d)
                    advance(i_now, float(dot(a_weights[w], scratch[w])))
            if k >= 2 and diagnostics_hook is not None and (k - 1) % record_every == 0:
                record(state_at(k - 1, lo, hi))

    w = part(lo, hi)
    if history:
        advance(a_norm2(u_t_at(n_steps, w), w), a_norm2(us[n_steps % 4], w))
    result.final_state = state_at(n_steps, lo, hi)
    if diagnostics_hook is not None:
        record(result.final_state)
    result.termination = Termination(COMPLETED)
    return result
