"""Energy functionals, multiplier constants, and identity residuals.

Everything the decay proofs manipulate is computed here on solver
snapshots:

* the total energy E_u = (||u_t||^2 + ||u_x||^2 + ||sqrt(V) u||^2) / 2,
* the multiplier functional
      G_k = int u_t phi x u_x + alpha (u_t, u) + (alpha/2) int a u^2 + k E_u,
* the derived proof constants alpha = eps1/4, eps2 = eps1/8,
      gamma0 = 2 (eps2 - C* eps1 V(0) / 2),
      P0 = gamma0 - 4 L eps1 ||a||_inf / k,
      eta0 = min(eps1/4, P0, 2 alpha),
  with k the smallest weight satisfying k >= 2,
      k > alpha/eps + alpha eps / V_L + L eps1   (eps = eps1/2 by default),
      k > 4 L eps1 ||a||_inf / gamma0,
  times a 1.05 safety factor,
* the dissipation identity E_u(t) + int_0^t int a u_s^2 = E_u(0),
* the accumulated-field identity at time t (v = int_0^t u ds, v_t = u):
      ||u||^2/2 + ||v_x||^2/2 + int V v^2 / 2 + int_0^t int a u^2
        = ||u0||^2/2 + (u1 + a u0, v),
  together with the L2-bound ratio
      (||u||^2 + int_0^t int a u^2) / (||u0||^2 + ||(u1 + a u0)/sqrt(V)||^2),
  which the theory keeps below 2,
* the localized-norm bound int_{|x|<=L} u^2 <= (2 / V_L) E_u.

Spatial derivatives use centered differences (second-order one-sided at
the domain ends); all space integrals are trapezoidal, taken over the
state's support (solver.WaveState.support) widened to the gradient
stencil, by one formula per functional (_Quadrature) that the Recorder,
energy, g_k and check_lemma25 share. Diagnostics are pure over immutable
snapshots. Runs whose coefficients fail the hypotheses (e.g. free waves)
still get records, with the functionals that need the multiplier
constants or a positive potential set to NaN; so do marches without
history (solver.RunConfig.history) for the columns that read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import (
    CoefficientProfile,
    DataNorms,
    InitialData,
    compute_data_norms,
    inner_cell_weights,
    potential_bounds_at_core,
    validate_hypotheses,
)
from .errors import ConfigError
from .solver import WaveState

#: CSV projection of a record, in the documented column order.
CSV_COLUMNS = (
    "t", "E_u", "l2_u", "l2_local", "dissipation_cum", "G_k",
    "identity_residual", "lemma25_residual", "lemma25_ratio", "au2_cum",
)


@dataclass(frozen=True)
class MultiplierConfig:
    alpha: float
    eps2: float
    eps: float
    k: float
    gamma0: float
    P0: float
    eta0: float
    V_L: float
    V_L_prime: float
    c_star: float


def derive_multiplier_config(profile: CoefficientProfile, c_star: float) -> MultiplierConfig:
    """Derive the proof constants for a hypothesis-satisfying profile.

    eps, the free parameter in the positivity condition for G_k, must lie
    in (0, eps1); it is the midpoint eps1/2.
    """
    report = validate_hypotheses(profile, c_star)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        raise ConfigError(f"multiplier constants undefined; failing hypotheses: {names}")

    eps1, L = profile.eps1, profile.L
    alpha = eps1 / 4.0
    eps2 = eps1 / 8.0
    eps = eps1 / 2.0

    v0 = profile.v_at_origin
    gamma0 = 2.0 * (eps2 - c_star * eps1 * v0 / 2.0)
    if gamma0 <= 0.0:
        raise ConfigError(
            f"smallness inequality eps2 > C* eps1 V(0)/2 fails "
            f"({eps2:.3g} vs {c_star * eps1 * v0 / 2.0:.3g})"
        )

    v_l, v_l_prime = potential_bounds_at_core(profile)
    a_max = profile.a_max
    k_positivity = alpha / eps + alpha * eps / v_l + L * eps1
    k_damping = 4.0 * L * eps1 * a_max / gamma0
    k = 1.05 * max(2.0, k_positivity, k_damping)

    P0 = gamma0 - 4.0 * L * eps1 * a_max / k
    eta0 = min(eps1 / 4.0, P0, 2.0 * alpha)
    return MultiplierConfig(
        alpha=alpha, eps2=eps2, eps=eps, k=k, gamma0=gamma0, P0=P0, eta0=eta0,
        V_L=v_l, V_L_prime=v_l_prime, c_star=c_star,
    )


def _stencil_window(support: tuple[int, int] | None, n: int) -> slice:
    """The nodes where a field vanishing outside support [lo, hi), or its
    np.gradient, can be nonzero: support widened by one node, or to the
    grid end where the end's one-sided formula reaches it."""
    lo, hi = (0, n) if support is None else support
    return slice(lo - 1 if lo > 2 else 0, hi + 1 if hi < n - 2 else n)


class _Sums:
    """The trapezoid integrals of one state that the functionals read."""

    __slots__ = ("kinetic", "gradient", "potential", "mass", "local_mass",
                 "damped_mass", "cross", "pairing", "vx_sq", "vv_sq", "forcing_v")

    @property
    def energy(self) -> float:
        """E_u = (||u_t||^2 + ||u_x||^2 + ||sqrt(V) u||^2) / 2."""
        return 0.5 * (self.kinetic + self.gradient + self.potential)

    @property
    def energy_norm(self) -> float:
        """||u_t|| + ||u_x|| + ||sqrt(V) u||, the semilinear bootstrap norm."""
        root_v = math.sqrt(self.potential) if self.potential >= 0.0 else math.nan  # V < 0
        return math.sqrt(self.kinetic) + math.sqrt(self.gradient) + root_v

    def g_k(self, mc: MultiplierConfig) -> float:
        """G_k = int u_t phi x u_x + alpha (u_t, u) + (alpha/2) int a u^2 + k E_u."""
        return (self.cross + mc.alpha * self.pairing + 0.5 * mc.alpha * self.damped_mass
                + mc.k * self.energy)

    def lemma25(self, u0_sq: float, au2_cum: float,
                bound_denom: float | None) -> tuple[float, float, float, float]:
        """(lhs, rhs, relative residual) of the accumulated-field identity
        and the L2-bound ratio (||u||^2 + au2_cum) / bound_denom, where
        bound_denom = ||u0||^2 + ||(u1 + a u0)/sqrt(V)||^2; without a
        positive bound_denom the ratio is 0 for a zero numerator, else NaN."""
        lhs = 0.5 * self.mass + 0.5 * self.vx_sq + 0.5 * self.vv_sq + au2_cum
        rhs = 0.5 * u0_sq + self.forcing_v
        residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        if bound_denom and bound_denom > 0:
            ratio = (self.mass + au2_cum) / bound_denom
        else:
            ratio = 0.0 if self.mass == 0.0 and au2_cum == 0.0 else float("nan")
        return lhs, rhs, residual, ratio


class _Quadrature:
    """Trapezoid integrals of a state's fields over its support.

    The weights are folded with the coefficients for the state at hand. A
    mirrored state (solver.WaveState.mirrored) is even: it is summed over
    x >= 0 with weights doubled off the centre, where u_x = 0. Per state,
    each product of fields is formed once in a preallocated buffer and
    feeds dot products over the support widened to the gradient stencil
    (_stencil_window); everything outside vanishes. u_x and v_x use
    np.gradient's formulas (central differences, second-order one-sided
    at the grid ends), so they are bit-identical to it on the window.
    """

    def __init__(self, profile: CoefficientProfile, data: InitialData | None = None):
        grid = profile.grid
        self.profile, self.data = profile, data
        self.n = grid.n_nodes
        self.centre = self.n // 2
        self.two_dx = 2.0 * grid.dx
        self.left = (-1.5 / grid.dx, 2.0 / grid.dx, -0.5 / grid.dx)
        self.right = (0.5 / grid.dx, -2.0 / grid.dx, 1.5 / grid.dx)
        self._fold: tuple[bool, bool] | None = None  # _refold's arguments
        self._grad, self._u_sq, self._prod = np.empty((3, self.n))

    def _refold(self, mirrored: bool, lemma25: bool) -> None:
        """Fold the weights for a state: w, w V, w a, w on the core, w phi x
        and, once lemma25 asks, w (u1 + a u0)."""
        if self._fold in ((mirrored, True), (mirrored, lemma25)):
            return
        p, w, data = self.profile, self.profile.grid.weights, self.data
        folded = [w.copy() if mirrored else w, w * p.V, w * p.a, inner_cell_weights(p.grid, p.L),
                  w * p.phi * p.grid.x, w * (data.u1 + p.a * data.u0) if lemma25 else None]
        if mirrored:  # a node at x > 0 stands for both halves; doubling is exact
            for f in folded[:5 + lemma25]:
                f[self.centre + 1:] *= 2.0
        self.w, self.w_V, self.w_a, self.w_inner, self.w_phi_x, self.w_forcing = folded
        self._fold = mirrored, lemma25

    def _gradient(self, f: np.ndarray, s: slice) -> np.ndarray:
        """np.gradient(f, dx, edge_order=2) on the nodes s."""
        out, n = self._grad, self.n
        i0, i1 = max(s.start, 1), min(s.stop, n - 1)
        np.subtract(f[i0 + 1:i1 + 1], f[i0 - 1:i1 - 1], out=out[i0:i1])
        np.divide(out[i0:i1], self.two_dx, out=out[i0:i1])
        if s.start == 0:
            a, b, c = self.left
            out[0] = a * f[0] + b * f[1] + c * f[2]
        if s.stop == n:
            a, b, c = self.right
            out[-1] = a * f[-3] + b * f[-2] + c * f[-1]
        return out[s]

    def sums(self, state: WaveState, multiplier: bool = False,
             lemma25: bool = False) -> _Sums:
        """The energy integrals, plus G_k's (multiplier) and the
        accumulated-field identity's (lemma25, needs data and state.v)
        when asked."""
        s = _stencil_window(state.support, self.n)
        if state.mirrored:
            s = slice(max(s.start, self.centre), s.stop)
        self._refold(state.mirrored, lemma25)
        w, prod = self.w[s], self._prod[s]
        u, u_t = state.u[s], state.u_t[s]
        ux = self._gradient(state.u, s)
        u_sq = np.multiply(u, u, out=self._u_sq[s])
        out = _Sums()
        out.kinetic = float(w @ np.multiply(u_t, u_t, out=prod))
        out.gradient = float(w @ np.multiply(ux, ux, out=prod))
        out.potential = float(self.w_V[s] @ u_sq)
        out.mass = float(w @ u_sq)
        out.local_mass = float(self.w_inner[s] @ u_sq)
        if multiplier:
            out.damped_mass = float(self.w_a[s] @ u_sq)
            out.cross = float(self.w_phi_x[s] @ np.multiply(u_t, ux, out=prod))
            out.pairing = float(w @ np.multiply(u, u_t, out=prod))
        if lemma25:
            v = state.v[s]
            vx = self._gradient(state.v, s)
            out.vx_sq = float(w @ np.multiply(vx, vx, out=prod))
            out.vv_sq = float(self.w_V[s] @ np.multiply(v, v, out=prod))
            out.forcing_v = float(self.w_forcing[s] @ v)
        return out


def energy(state: WaveState, profile: CoefficientProfile) -> float:
    """Total energy E_u(t) = (||u_t||^2 + ||u_x||^2 + ||sqrt(V) u||^2) / 2."""
    return _Quadrature(profile).sums(state).energy


def g_k(state: WaveState, profile: CoefficientProfile, mc: MultiplierConfig) -> float:
    """The multiplier functional G_k of a state."""
    return _Quadrature(profile).sums(state, multiplier=True).g_k(mc)


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    E_u: float
    energy_norm: float
    l2_u: float
    l2_local: float
    dissipation_cum: float
    G_k: float
    identity_residual: float
    lemma25_residual: float
    lemma25_ratio: float
    au2_cum: float

    def csv_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


@dataclass(frozen=True)
class Lemma25Report:
    lhs: float
    rhs: float
    residual: float
    bound_ratio: float


def check_lemma25(state: WaveState, profile: CoefficientProfile,
                  data: InitialData) -> Lemma25Report:
    """Residual of the accumulated-field identity and the L2-bound ratio
    of a state with history, by the evaluation a Recorder with the data
    norms makes (NaN throughout where V is not positive everywhere). It
    reads state.au2_cum = int_0^t int a |v_s|^2 = int_0^t int a |u|^2
    (v_t = u); a state without history (v None) raises ConfigError,
    where a Recorder reports NaN."""
    if state.v is None:
        raise ConfigError("the Lemma 2.5 sums need a state with history (v)")
    norms = compute_data_norms(data, profile) if np.all(profile.V > 0.0) else None
    recorder = Recorder(profile, None, data, norms)
    sums = recorder._quad.sums(state, lemma25=recorder._v_positive)
    return Lemma25Report(*recorder._lemma25(sums, state))


def check_lemma21(record: EnergyRecord, mc: MultiplierConfig) -> bool:
    """Localized-norm bound: l2_local <= (2 / V_L) E_u, up to a relative
    rounding slack of 1e-10."""
    return record.l2_local <= (2.0 / mc.V_L) * record.E_u * (1.0 + 1e-10)


class Recorder:
    """Stateful diagnostics hook for solver.run: builds one EnergyRecord
    per record level from the state and the history it carries. mc and
    norms may be None (hypothesis-failing runs). A column the state or
    the constants cannot give is NaN: G_k without mc, the Lemma 2.5 pair
    without a positive V or without history (v None, as in a
    RunConfig.history = False march, whose dissipation_cum, au2_cum and
    identity_residual are NaN too). The pair's ||u0||^2 and weights are
    computed on the first state with history."""

    def __init__(
        self,
        profile: CoefficientProfile,
        mc: MultiplierConfig | None,
        data: InitialData,
        norms: DataNorms | None,
    ):
        self.profile = profile
        self.mc = mc
        self.data = data
        self.norms = norms
        self._quad = _Quadrature(profile, data)
        self._v_positive = bool(np.all(profile.V > 0.0))
        self._e0: float | None = None

    def _lemma25(self, sums: _Sums, state: WaveState) -> tuple[float, float, float, float]:
        """_Sums.lemma25 where V > 0 everywhere and the state has history,
        else NaN throughout."""
        if not self._v_positive or state.v is None:
            return (float("nan"),) * 4
        u0_sq = self._u0_sq
        bound_denom = None if self.norms is None else u0_sq + self.norms.weighted_norm**2
        return sums.lemma25(u0_sq, state.au2_cum, bound_denom)

    @cached_property
    def _u0_sq(self) -> float:
        return self.profile.grid.integrate(self.data.u0**2)

    def __call__(self, state: WaveState) -> EnergyRecord:
        mc, dissipation_cum, au2_cum = self.mc, state.dissipation_cum, state.au2_cum
        sums = self._quad.sums(state, multiplier=mc is not None,
                               lemma25=self._v_positive and state.v is not None)
        e_u = sums.energy
        if self._e0 is None:
            self._e0 = e_u
        _lhs, _rhs, residual, ratio = self._lemma25(sums, state)
        return EnergyRecord(
            t=state.t,
            E_u=e_u,
            energy_norm=sums.energy_norm,
            l2_u=math.sqrt(sums.mass),
            l2_local=sums.local_mass,
            dissipation_cum=dissipation_cum,
            G_k=sums.g_k(mc) if mc is not None else float("nan"),
            identity_residual=e_u + dissipation_cum - self._e0,
            lemma25_residual=residual,
            lemma25_ratio=ratio,
            au2_cum=au2_cum,
        )


@dataclass(frozen=True)
class EnergyIdentityReport:
    max_relative_residual: float
    t_at_max: float
    e0: float


def check_energy_identity(records: list[EnergyRecord]) -> EnergyIdentityReport:
    """Largest |E_u(t) + dissipation_cum(t) - E_u(0)| / E_u(0) over a run
    (absolute where E_u(0) = 0)."""
    if not records:
        raise ConfigError("no records to check")
    e0 = records[0].E_u
    worst = max(records, key=lambda r: abs(r.identity_residual))
    return EnergyIdentityReport(
        max_relative_residual=abs(worst.identity_residual) / (e0 if e0 != 0.0 else 1.0),
        t_at_max=worst.t,
        e0=e0,
    )


def cumulative_energy(records: list[EnergyRecord]) -> np.ndarray:
    """Trapezoid of E_u over record times: int_0^t E_u(s) ds at each record."""
    t = np.array([r.t for r in records])
    e = np.array([r.E_u for r in records])
    out = np.zeros_like(e)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (e[:-1] + e[1:]))
    return out
