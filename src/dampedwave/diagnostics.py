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
the domain ends); all space integrals are trapezoidal. Diagnostics are
pure over immutable snapshots. Runs whose coefficients fail the
hypotheses (e.g. free waves) still get records, with the functionals
that need the multiplier constants or a positive potential set to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CoefficientProfile,
    DataNorms,
    InitialData,
    inner_cell_weights,
    potential_bounds_at_core,
    trapezoid,
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


def derive_multiplier_config(
    profile: CoefficientProfile, c_star: float, eps: float | None = None
) -> MultiplierConfig:
    """Derive the proof constants for a hypothesis-satisfying profile.

    eps is the free parameter in the positivity condition for G_k; it must
    lie in (0, eps1) and defaults to the midpoint eps1/2.
    """
    report = validate_hypotheses(profile, c_star)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        raise ConfigError(f"multiplier constants undefined; failing hypotheses: {names}")

    eps1, L = profile.eps1, profile.L
    alpha = eps1 / 4.0
    eps2 = eps1 / 8.0
    if eps is None:
        eps = eps1 / 2.0
    if not 0.0 < eps < eps1:
        raise ConfigError(f"eps must lie in (0, eps1) = (0, {eps1}), got {eps}")

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


def _energy_parts(state: WaveState, profile: CoefficientProfile):
    """(u_x, E_u, energy norm) from one set of the three energy integrals
    ||u_t||^2, ||u_x||^2, ||sqrt(V) u||^2; u_x by centered differences,
    trapezoid in space."""
    grid = profile.grid
    ux = np.gradient(state.u, grid.dx, edge_order=2)
    kinetic = grid.integrate(state.u_t**2)
    gradient = grid.integrate(ux**2)
    potential = grid.integrate(profile.V * state.u**2)
    e_u = 0.5 * (kinetic + gradient + potential)
    return ux, e_u, np.sqrt(kinetic) + np.sqrt(gradient) + np.sqrt(potential)


def energy(state: WaveState, profile: CoefficientProfile) -> float:
    """Total energy E_u(t) = (||u_t||^2 + ||u_x||^2 + ||sqrt(V) u||^2) / 2."""
    return _energy_parts(state, profile)[1]


def energy_norm(state: WaveState, profile: CoefficientProfile) -> float:
    """||u_t|| + ||u_x|| + ||sqrt(V) u||, the semilinear bootstrap norm."""
    return _energy_parts(state, profile)[2]


def _g_k(state: WaveState, profile: CoefficientProfile, mc: MultiplierConfig,
         ux: np.ndarray, e_u: float) -> float:
    grid = profile.grid
    cross = grid.integrate(state.u_t * profile.phi * grid.x * ux)
    pairing = grid.integrate(state.u_t * state.u)
    damped_mass = grid.integrate(profile.a * state.u**2)
    return cross + mc.alpha * pairing + 0.5 * mc.alpha * damped_mass + mc.k * e_u


def g_k(state: WaveState, profile: CoefficientProfile, mc: MultiplierConfig) -> float:
    ux, e_u, _ = _energy_parts(state, profile)
    return _g_k(state, profile, mc, ux, e_u)


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
    lemma25_lhs: float
    lemma25_rhs: float
    lemma25_residual: float
    lemma25_ratio: float
    au2: float
    au2_cum: float

    def csv_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


@dataclass(frozen=True)
class Lemma25Report:
    lhs: float
    rhs: float
    residual: float
    bound_ratio: float


def check_lemma25(
    state: WaveState,
    profile: CoefficientProfile,
    data: InitialData,
    dissipation_v_cum: float,
) -> Lemma25Report:
    """Residual of the accumulated-field identity and the L2-bound ratio.

    dissipation_v_cum is int_0^t int a |v_s|^2 = int_0^t int a |u|^2
    (v_t = u), accumulated by the solver.
    """
    grid = profile.grid
    vx = np.gradient(state.v, grid.dx, edge_order=2)
    lhs = (0.5 * grid.integrate(state.u**2)
           + 0.5 * grid.integrate(vx**2)
           + 0.5 * grid.integrate(profile.V * state.v**2)
           + dissipation_v_cum)
    forcing = data.u1 + profile.a * data.u0
    u0_sq = grid.integrate(data.u0**2)
    rhs = 0.5 * u0_sq + grid.integrate(forcing * state.v)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    residual = abs(lhs - rhs) / scale

    numer = grid.integrate(state.u**2) + dissipation_v_cum
    if np.all(profile.V > 0.0):
        denom = u0_sq + grid.integrate(forcing**2 / profile.V)
        bound_ratio = numer / denom if denom > 0 else (0.0 if numer == 0.0 else float("nan"))
    else:
        bound_ratio = float("nan")
    return Lemma25Report(lhs=lhs, rhs=rhs, residual=residual, bound_ratio=bound_ratio)


def check_lemma21(record: EnergyRecord, mc: MultiplierConfig,
                  relative_slack: float = 1e-10) -> bool:
    """Localized-norm bound: l2_local <= (2 / V_L) E_u, up to rounding slack."""
    return record.l2_local <= (2.0 / mc.V_L) * record.E_u * (1.0 + relative_slack)


class Recorder:
    """Stateful diagnostics hook for solver.run: builds one EnergyRecord
    per record level. mc and norms may be None (hypothesis-failing runs);
    the dependent columns then carry NaN."""

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
        grid = profile.grid
        self._w_inner = inner_cell_weights(grid, profile.L)
        self._u0_sq = grid.integrate(data.u0**2)
        self._forcing = data.u1 + profile.a * data.u0
        self._v_positive = bool(np.all(profile.V > 0.0))
        if norms is not None:
            self._bound_denom = self._u0_sq + norms.weighted_norm**2
        else:
            self._bound_denom = None
        self._e0: float | None = None

    def __call__(self, state: WaveState, dissipation_cum: float, au2_cum: float) -> EnergyRecord:
        profile, grid = self.profile, self.profile.grid
        ux, e_u, e_norm = _energy_parts(state, profile)
        if self._e0 is None:
            self._e0 = e_u
        l2_u = float(np.sqrt(grid.integrate(state.u**2)))
        l2_local = float(self._w_inner @ (state.u * state.u))
        gk = _g_k(state, profile, self.mc, ux, e_u) if self.mc is not None else float("nan")

        if self._v_positive:
            vx = np.gradient(state.v, grid.dx, edge_order=2)
            lhs = (0.5 * grid.integrate(state.u**2)
                   + 0.5 * grid.integrate(vx**2)
                   + 0.5 * grid.integrate(profile.V * state.v**2)
                   + au2_cum)
            rhs = 0.5 * self._u0_sq + grid.integrate(self._forcing * state.v)
            residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            if self._bound_denom and self._bound_denom > 0:
                ratio = (l2_u**2 + au2_cum) / self._bound_denom
            else:
                ratio = 0.0 if l2_u == 0.0 and au2_cum == 0.0 else float("nan")
        else:
            lhs = rhs = residual = ratio = float("nan")

        return EnergyRecord(
            t=state.t,
            E_u=e_u,
            energy_norm=float(e_norm),
            l2_u=l2_u,
            l2_local=l2_local,
            dissipation_cum=dissipation_cum,
            G_k=gk,
            identity_residual=e_u + dissipation_cum - self._e0,
            lemma25_lhs=lhs,
            lemma25_rhs=rhs,
            lemma25_residual=residual,
            lemma25_ratio=ratio,
            au2=trapezoid(profile.a * state.u**2, grid.dx),
            au2_cum=au2_cum,
        )


@dataclass(frozen=True)
class EnergyIdentityReport:
    max_relative_residual: float
    t_at_max: float
    e0: float


def check_energy_identity(records: list[EnergyRecord]) -> EnergyIdentityReport:
    """Largest |E_u(t) + dissipation_cum(t) - E_u(0)| / E_u(0) over a run."""
    if not records:
        raise ConfigError("no records to check")
    e0 = records[0].E_u
    if e0 == 0.0:
        worst = max(abs(r.identity_residual) for r in records)
        t_at = max(records, key=lambda r: abs(r.identity_residual)).t
        return EnergyIdentityReport(worst, t_at, 0.0)
    worst_rec = max(records, key=lambda r: abs(r.identity_residual))
    return EnergyIdentityReport(
        max_relative_residual=abs(worst_rec.identity_residual) / e0,
        t_at_max=worst_rec.t,
        e0=e0,
    )


def cumulative_energy(records: list[EnergyRecord]) -> np.ndarray:
    """Trapezoid of E_u over record times: int_0^t E_u(s) ds at each record."""
    t = np.array([r.t for r in records])
    e = np.array([r.E_u for r in records])
    out = np.zeros_like(e)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (e[:-1] + e[1:]))
    return out
