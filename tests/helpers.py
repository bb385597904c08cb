"""Shared builders for the test suite."""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import dampedwave as dw
from dampedwave import config as cfg
from dampedwave import solver
from dampedwave.errors import GridDomainError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
DENSE_ORACLE_MAX_NODES = 4097
# record columns that read only u and u_t, and those that read the history
NORM_COLUMNS = ("t", "E_u", "energy_norm", "l2_u", "l2_local")
HISTORY_COLUMNS = ("dissipation_cum", "identity_residual", "lemma25_residual",
                   "lemma25_ratio", "au2_cum")


def example1_profile(grid, V0=0.01, beta=2.0, L=1.0, eps1=1.0, ramp="sharp"):
    V = dw.build_potential_example1(V0, beta, L, grid)
    a = dw.build_damping_plateau(eps1, L, ramp, grid)
    return dw.make_profile(grid, V, a, L, eps1)


def dense_c_star(problem):
    """Dense oracle for spectral.estimate_c_star, independent of its
    closed-form bisection: C* is the largest mu of the reversed pencil
    B v = mu A v (mu = 1/lambda), reduced by the Cholesky factor A = L L^T
    to the symmetric L^-1 B L^-T = X X^T with X = L^-1 B^1/2, then solved
    in full. Only for coarse grids."""
    n = problem.grid.n_nodes - 2
    if n + 2 > DENSE_ORACLE_MAX_NODES:
        raise GridDomainError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_NODES} nodes, got {n + 2}"
        )
    dx = problem.grid.dx
    off = np.full(n - 1, -1.0 / dx)
    A = np.diag(2.0 / dx + problem.w_out[1:-1]) + np.diag(off, 1) + np.diag(off, -1)
    X = np.linalg.solve(np.linalg.cholesky(A), np.diag(np.sqrt(problem.w_in[1:-1])))
    return float(np.linalg.eigvalsh(X @ X.T)[-1])


def reference_data(grid, amplitude=1e-3, width=1.5):
    u0 = dw.gaussian_bump(grid, amplitude, width)
    return dw.make_initial_data(grid, u0, np.zeros(grid.n_nodes))


def reference_run_config(profile, data, t_end, record_every=10):
    return solver.RunConfig(profile=profile, data=data, t_end=t_end,
                            cfl=0.9, record_every=record_every)


def leapfrog_step(u, u_prev, profile, dt, p=None):
    """One update u^(n+1) from (u^n, u^(n-1)) through the kernel run()
    uses, on the whole grid; for oracle and reversibility tests."""
    u, u_prev = np.asarray(u, float), np.asarray(u_prev, float)
    kernel, out = solver._StepKernel(profile, dt, p), np.zeros_like(u)
    with np.errstate(**solver._QUIET):
        kernel.step(*kernel.views(out, u, u_prev, slice(1, u.size - 1)))
    return out


def first_step(u0, u1, profile, dt, p=None):
    """Second-order Taylor start u^1 from (u^0, u_t^0), by the same kernel."""
    u0, u1 = np.asarray(u0, float), np.asarray(u1, float)
    kernel, out, s = solver._StepKernel(profile, dt, p), np.zeros_like(u0), slice(1, u0.size - 1)
    with np.errstate(**solver._QUIET):
        kernel.first(out[s], *solver._stencil(u0, 1, s.stop), u1[s], s)
    return out


def abs_power(u, p, out=None):
    """|u|^p by the kernel's solver._abs_power into out, without a warning."""
    out = np.empty_like(u) if out is None else out
    with np.errstate(**solver._QUIET):
        return solver._abs_power(u, p, solver._exponent(p), out, np.empty_like(u))


def check(report, name):
    """The HypothesisCheck of a ValidationReport with the given name."""
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


def max_identity_residual(records):
    """Largest |identity_residual| over a run's records relative to E_u(0)
    (absolute where E_u(0) = 0)."""
    e0 = records[0].E_u
    return max(abs(r.identity_residual) for r in records) / (e0 if e0 != 0.0 else 1.0)


def lemma21_holds(record, mc):
    """Lemma 2.1's localized-norm bound on a record, l2_local <= (2 / V_L) E_u,
    up to a relative rounding slack of 1e-10."""
    return record.l2_local <= (2.0 / mc.V_L) * record.E_u * (1.0 + 1e-10)


def cumulative_energy(records):
    """int_0^t E_u(s) ds at each record, by the trapezoid over record times."""
    t, e = (np.array([getattr(r, name) for r in records]) for name in ("t", "E_u"))
    return np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (e[:-1] + e[1:]))))


def reference_spec(n_cells=6000, t_end=50.0, record_every=10):
    return cfg.RunSpec(
        grid=cfg.GridSpec(mode="explicit", x_min=-60.0, x_max=60.0, n_cells=n_cells),
        potential=cfg.PotentialSpec(family="example1", V0=0.01, beta=2.0, L=1.0),
        damping=cfg.DampingSpec(family="plateau", eps1=1.0, L=1.0, ramp="sharp"),
        data=cfg.DataSpec(
            u0=cfg.FieldSpec(kind="gaussian", amplitude=1e-3, width=1.5, center=0.0),
            u1=cfg.FieldSpec(kind="zero"),
        ),
        time=cfg.TimeSpec(t_end=t_end, cfl=0.9, record_every=record_every),
        nonlinearity=cfg.NonlinearitySpec(kind="none"),
    )


def sweep_spec(beta=2.0, V0=0.01, L=1.0, eps1=1.0, data_width=0.75, dx=0.05,
               t_end=40.0, cfl=0.9, padding=3.0):
    """The base spec `dampedwave sweep` builds (its defaults here), one
    keyword per number, L shared by the potential and the damping."""
    return cfg.RunSpec(
        grid=cfg.GridSpec(mode="auto", dx=dx, padding=padding),
        potential=cfg.PotentialSpec("example1", V0=V0, beta=beta, L=L),
        damping=cfg.DampingSpec("plateau", eps1=eps1, L=L),
        data=cfg.DataSpec(u0=cfg.FieldSpec("gaussian", amplitude=1.0, width=data_width)),
        time=cfg.TimeSpec(t_end=t_end, cfl=cfl),
    )


@st.composite
def centred_specs(draw):
    """Specs of even problems that check_spec and solver.run accept: centred
    data on an explicit mirror grid or an auto grid, every potential and
    damping family, with and without p. A p run gets an explicit support
    radius R > L, as the semilinear theory needs: an inferred R can fall
    to L or below on a coarse grid, or when u1 is drawn as zero. (The
    profile's L is the drawn L, or 1.0 when neither coefficient names one.)"""
    L = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        X = draw(st.floats(3.0, 20.0))
        grid = cfg.GridSpec(mode="explicit", x_min=-X, x_max=X,
                            n_cells=2 * draw(st.integers(40, 300)))
    else:
        grid = cfg.GridSpec(mode="auto", dx=draw(st.floats(0.05, 0.2)),
                            padding=draw(st.floats(0.5, 3.0)))
    family = draw(st.sampled_from(["example1", "gaussian", "none"]))
    V0 = draw(st.floats(1e-3, 0.1))
    beta = draw(st.floats(1.1, 4.0))
    p = draw(st.sampled_from([None, 3.0, 11.0]))
    amplitude = draw(st.floats(1e-3, 1.0))
    return cfg.RunSpec(
        grid=grid,
        potential={"example1": cfg.PotentialSpec("example1", V0, beta, None, L),
                   "gaussian": cfg.PotentialSpec("gaussian", V0, None, beta / 2.0, None),
                   "none": cfg.PotentialSpec("none")}[family],
        damping=(cfg.DampingSpec("plateau", draw(st.floats(0.1, 2.0)), L,
                                 draw(st.sampled_from(["sharp", "smooth"])))
                 if draw(st.booleans()) else cfg.DampingSpec("none")),
        data=cfg.DataSpec(
            u0=cfg.FieldSpec("gaussian", amplitude, draw(st.floats(0.3, 2.0))),
            u1=cfg.FieldSpec("bump", amplitude * draw(st.floats(-1.0, 1.0)),
                             draw(st.floats(L + 0.1, L + 3.0))),
            support_radius=draw(st.none() | st.floats(1.0, 8.0) if p is None
                                else st.floats(max(L, 1.0) + 0.1, L + 6.0))),
        time=cfg.TimeSpec(t_end=draw(st.floats(0.2, 1.0)), cfl=draw(st.floats(0.5, 0.95)),
                          record_every=draw(st.integers(1, 4))),
        nonlinearity=(cfg.NonlinearitySpec() if p is None
                      else cfg.NonlinearitySpec("power", p)),
    )


LINEAR_DEMO_CFG = """\
[grid]
mode = explicit
x_min = -60.0
x_max = 60.0
n_cells = 3000

[potential]
family = example1
V0 = 0.01
beta = 2.0
L = 1.0

[damping]
family = plateau
eps1 = 1.0
L = 1.0
ramp = sharp

[data]
u0_kind = gaussian
u0_amplitude = 0.001
u0_width = 1.5
u1_kind = zero

[time]
t_end = 30.0
cfl = 0.9
record_every = 10

[nonlinearity]
kind = none
"""
