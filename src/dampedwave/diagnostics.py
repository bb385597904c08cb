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
      k > alpha/eps + alpha eps / V_L + L eps1   (eps = eps1/2),
      k > 4 L eps1 ||a||_inf / gamma0,
  times a 1.05 safety factor,
* the dissipation identity E_u(t) + int_0^t int a u_s^2 = E_u(0),
* the accumulated-field identity at time t (v = int_0^t u ds, v_t = u):
      ||u||^2/2 + ||v_x||^2/2 + int V v^2 / 2 + int_0^t int a u^2
        = ||u0||^2/2 + (u1 + a u0, v),
  together with the L2-bound ratio
      (||u||^2 + int_0^t int a u^2) / (||u0||^2 + ||(u1 + a u0)/sqrt(V)||^2),
  which the theory keeps below 2,
* the localized norm int_{|x|<=L} u^2, which Lemma 2.1 bounds by (2 / V_L) E_u.

Spatial derivatives use centered differences (second-order one-sided at
the domain ends); all space integrals are trapezoidal, taken over the
state's support (solver.WaveState.support) widened to the gradient
stencil, by one formula per functional, all in the Recorder.
Diagnostics are pure over immutable snapshots. Runs whose
coefficients fail the hypotheses (e.g. free waves) still get records,
with the functionals that need the multiplier constants or a positive
potential set to NaN; so do marches without history
(solver.RunConfig.history) for the columns that read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy import divide, dot, multiply, subtract  # bound once, as in solver

from .coefficients import (
    CoefficientProfile,
    DataNorms,
    InitialData,
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
        V_L=v_l, V_L_prime=v_l_prime,
    )


def _stencil_window(support: tuple[int, int] | None, n: int) -> slice:
    """The nodes where a field vanishing outside support [lo, hi), or its
    np.gradient, can be nonzero: support widened by one node, or to the
    grid end where the end's one-sided formula reaches it."""
    lo, hi = (0, n) if support is None else support
    return slice(lo - 1 if lo > 2 else 0, hi + 1 if hi < n - 2 else n)


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


class Recorder:
    """Stateful diagnostics hook for solver.run: builds one EnergyRecord
    per record level from the state and the history it carries. mc and
    norms may be None (hypothesis-failing runs). A column the state or
    the constants cannot give is NaN: G_k without mc, the Lemma 2.5 pair
    without a positive V or without history (v None, as in a
    RunConfig.history = False march, whose dissipation_cum, au2_cum and
    identity_residual are NaN too).

    The integrals are trapezoid sums over the state's support, with the
    weights folded with the coefficients once per evenness. A mirrored
    state (solver.WaveState.mirrored) is even: it is summed over x >= 0
    with weights doubled off the centre, where u_x = 0. Per state, each
    product of fields is formed once in a preallocated buffer and feeds
    dot products over the support widened to the gradient stencil
    (_stencil_window); everything outside vanishes. u_x and v_x use
    np.gradient's formulas (central differences, second-order one-sided
    at the grid ends), so they are bit-identical to it on the window.
    """

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
        self.n = grid.n_nodes
        self.centre = self.n // 2
        self.two_dx = 2.0 * grid.dx
        self.left = (-1.5 / grid.dx, 2.0 / grid.dx, -0.5 / grid.dx)
        self.right = (0.5 / grid.dx, -2.0 / grid.dx, 1.5 / grid.dx)
        self._grad, self._u_sq, self._prod = np.empty((3, self.n))
        self._v_positive = bool(np.all(profile.V > 0.0))
        self._mirrored: bool | None = None  # the evenness the weights are folded for
        self._e0: float | None = None

    def _fold(self, mirrored: bool) -> None:
        """Fold the weights for a state: w, w V, w a, w on the core, w phi x
        and, where V > 0, w (u1 + a u0)."""
        p, w, data = self.profile, self.profile.grid.weights, self.data
        folded = [w.copy() if mirrored else w, w * p.V, w * p.a, inner_cell_weights(p.grid, p.L),
                  w * p.phi * p.grid.x]
        if self._v_positive:
            folded.append(w * (data.u1 + p.a * data.u0))
        if mirrored:  # a node at x > 0 stands for both halves; doubling is exact
            for f in folded:
                f[self.centre + 1:] *= 2.0
        self.w, self.w_V, self.w_a, self.w_inner, self.w_phi_x = folded[:5]
        self.w_forcing = folded[5] if self._v_positive else None
        self._mirrored = mirrored

    def _gradient(self, f: np.ndarray, s: slice) -> np.ndarray:
        """np.gradient(f, dx, edge_order=2) on the nodes s."""
        out, n = self._grad, self.n
        i0, i1 = max(s.start, 1), min(s.stop, n - 1)
        subtract(f[i0 + 1:i1 + 1], f[i0 - 1:i1 - 1], out[i0:i1])
        divide(out[i0:i1], self.two_dx, out[i0:i1])
        if s.start == 0:
            a, b, c = self.left
            out[0] = a * f[0] + b * f[1] + c * f[2]
        if s.stop == n:
            a, b, c = self.right
            out[-1] = a * f[-3] + b * f[-2] + c * f[-1]
        return out[s]

    @cached_property
    def _u0_sq(self) -> float:
        return self.profile.grid.integrate(self.data.u0**2)

    def __call__(self, state: WaveState) -> EnergyRecord:
        mc, nan = self.mc, float("nan")
        s = _stencil_window(state.support, self.n)
        if state.mirrored:
            s = slice(max(s.start, self.centre), s.stop)
        if state.mirrored != self._mirrored:
            self._fold(state.mirrored)
        w, prod = self.w[s], self._prod[s]
        u, u_t = state.u[s], state.u_t[s]
        ux = self._gradient(state.u, s)
        u_sq = multiply(u, u, self._u_sq[s])
        kinetic = float(dot(w, multiply(u_t, u_t, prod)))
        gradient = float(dot(w, multiply(ux, ux, prod)))
        potential = float(dot(self.w_V[s], u_sq))
        mass = float(dot(w, u_sq))
        e_u = 0.5 * (kinetic + gradient + potential)
        if self._e0 is None:
            self._e0 = e_u
        root_v = math.sqrt(potential) if potential >= 0.0 else nan  # V < 0

        g_k = nan
        if mc is not None:
            damped_mass = float(dot(self.w_a[s], u_sq))
            cross = float(dot(self.w_phi_x[s], multiply(u_t, ux, prod)))
            pairing = float(dot(w, multiply(u, u_t, prod)))
            g_k = cross + mc.alpha * pairing + 0.5 * mc.alpha * damped_mass + mc.k * e_u

        # the accumulated-field identity's relative residual and the L2-bound
        # ratio (||u||^2 + au2_cum) / (||u0||^2 + ||(u1 + a u0)/sqrt(V)||^2);
        # without a positive denominator the ratio is 0 for a zero numerator
        residual = ratio = nan
        au2_cum = state.au2_cum
        if self._v_positive and state.v is not None:
            v = state.v[s]
            vx = self._gradient(state.v, s)
            vx_sq = float(dot(w, multiply(vx, vx, prod)))
            vv_sq = float(dot(self.w_V[s], multiply(v, v, prod)))
            forcing_v = float(dot(self.w_forcing[s], v))
            u0_sq = self._u0_sq
            lhs = 0.5 * mass + 0.5 * vx_sq + 0.5 * vv_sq + au2_cum
            rhs = 0.5 * u0_sq + forcing_v
            residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            bound_denom = None if self.norms is None else u0_sq + self.norms.weighted_norm**2
            if bound_denom and bound_denom > 0:
                ratio = (mass + au2_cum) / bound_denom
            else:
                ratio = 0.0 if mass == 0.0 and au2_cum == 0.0 else nan

        return EnergyRecord(
            t=state.t,
            E_u=e_u,
            energy_norm=math.sqrt(kinetic) + math.sqrt(gradient) + root_v,
            l2_u=math.sqrt(mass),
            l2_local=float(dot(self.w_inner[s], u_sq)),
            dissipation_cum=state.dissipation_cum,
            G_k=g_k,
            identity_residual=e_u + state.dissipation_cum - self._e0,
            lemma25_residual=residual,
            lemma25_ratio=ratio,
            au2_cum=au2_cum,
        )
