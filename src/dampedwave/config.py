"""Run-configuration files: flat sectioned key = value text.

Sections and keys (emit_config() writes each one a spec sets):

    [grid]          mode = explicit | auto
                    explicit: x_min, x_max, n_cells
                    auto:     dx, padding  (domain sized from data support)
    [potential]     family = example1 | gaussian | none
                    example1: V0, beta, L    gaussian: V0, nu
    [damping]       family = plateau | none
                    plateau: eps1, L, ramp (sharp | smooth)
    [data]          u0 / u1 = gaussian | bump | zero with amplitude,
                    width (gaussian sigma or bump radius), center;
                    optional support_radius override
    [time]          t_end, cfl, record_every
    [nonlinearity]  kind = none | power; power: p

Parsing is strict: unknown keys, missing sections, and non-finite numbers
are configuration errors that name the offending section and key.
emit_config() writes a canonical form whose parse round-trips exactly.

build_problem() is the one route from a spec to grid, profile and data
(runs and sweep cells); it names a hand-built spec's non-finite numbers too.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import solver
from .coefficients import (
    CoefficientProfile,
    Grid,
    InitialData,
    build_damping_plateau,
    build_potential_example1,
    build_potential_gaussian,
    free_space_profile,
    gaussian_bump,
    make_initial_data,
    make_profile,
    polynomial_bump,
)
from .errors import ConfigError

_DATA_KINDS = ("gaussian", "bump", "zero")


@dataclass(frozen=True)
class GridSpec:
    mode: str = "explicit"
    x_min: float | None = None
    x_max: float | None = None
    n_cells: int | None = None
    dx: float | None = None
    padding: float = 3.0


@dataclass(frozen=True)
class PotentialSpec:
    family: str = "example1"
    V0: float | None = 0.01
    beta: float | None = 2.0
    nu: float | None = None
    L: float | None = 1.0


@dataclass(frozen=True)
class DampingSpec:
    family: str = "plateau"
    eps1: float | None = 1.0
    L: float | None = 1.0
    ramp: str = "sharp"


@dataclass(frozen=True)
class FieldSpec:
    kind: str = "zero"
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0


@dataclass(frozen=True)
class DataSpec:
    u0: FieldSpec = field(default_factory=FieldSpec)
    u1: FieldSpec = field(default_factory=FieldSpec)
    support_radius: float | None = None


@dataclass(frozen=True)
class TimeSpec:
    t_end: float = 50.0
    cfl: float = 0.9
    record_every: int = 10


@dataclass(frozen=True)
class NonlinearitySpec:
    kind: str = "none"
    p: float | None = None


@dataclass(frozen=True)
class RunSpec:
    grid: GridSpec
    potential: PotentialSpec
    damping: DampingSpec
    data: DataSpec
    time: TimeSpec
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)


class _Section:
    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = dict(raw)
        self.seen: set[str] = set()

    def get(self, key: str, default=None, required: bool = False) -> str | None:
        self.seen.add(key)
        if key in self.raw:
            return self.raw[key]
        if required:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return default

    def get_float(self, key: str, default=None, required: bool = False) -> float | None:
        raw = self.get(key, None, required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} must be finite, got {raw!r}")
        return value

    def get_int(self, key: str, default=None, required: bool = False) -> int | None:
        raw = self.get(key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not an integer") from exc

    def finish(self) -> None:
        unknown = set(self.raw) - self.seen
        if unknown:
            raise ConfigError(
                f"[{self.name}] has unknown keys: {', '.join(sorted(unknown))}"
            )


def _field_spec(section: _Section, prefix: str) -> FieldSpec:
    kind = section.get(f"{prefix}_kind", "zero")
    if kind not in _DATA_KINDS:
        raise ConfigError(
            f"[data] {prefix}_kind must be one of {_DATA_KINDS}, got {kind!r}"
        )
    amplitude = section.get_float(f"{prefix}_amplitude", 0.0)
    width = section.get_float(f"{prefix}_width", 1.0)
    center = section.get_float(f"{prefix}_center", 0.0)
    if kind != "zero" and width <= 0:
        raise ConfigError(f"[data] {prefix}_width must be positive for kind {kind!r}")
    return FieldSpec(kind=kind, amplitude=amplitude, width=width, center=center)


def parse_config(text: str) -> RunSpec:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (V0, L, ...)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}") from exc

    sections = {name: _Section(name, dict(parser[name])) for name in parser.sections()}
    for required in ("grid", "potential", "damping", "data", "time"):
        if required not in sections:
            raise ConfigError(f"missing [{required}] section")
    known = {"grid", "potential", "damping", "data", "time", "nonlinearity"}
    stray = set(sections) - known
    if stray:
        raise ConfigError(f"unknown sections: {', '.join(sorted(stray))}")

    g = sections["grid"]
    mode = g.get("mode", "explicit")
    if mode == "explicit":
        grid = GridSpec(
            mode="explicit",
            x_min=g.get_float("x_min", required=True),
            x_max=g.get_float("x_max", required=True),
            n_cells=g.get_int("n_cells", required=True),
        )
    elif mode == "auto":
        grid = GridSpec(
            mode="auto",
            dx=g.get_float("dx", required=True),
            padding=g.get_float("padding", 3.0),
        )
    else:
        raise ConfigError(f"[grid] mode must be 'explicit' or 'auto', got {mode!r}")
    g.finish()

    p = sections["potential"]
    family = p.get("family", "example1")
    if family == "example1":
        potential = PotentialSpec(
            family=family,
            V0=p.get_float("V0", required=True),
            beta=p.get_float("beta", required=True),
            L=p.get_float("L", required=True),
            nu=None,
        )
    elif family == "gaussian":
        potential = PotentialSpec(
            family=family,
            V0=p.get_float("V0", required=True),
            nu=p.get_float("nu", required=True),
            beta=None, L=None,
        )
    elif family == "none":
        potential = PotentialSpec(family=family, V0=None, beta=None, nu=None, L=None)
    else:
        raise ConfigError(
            f"[potential] family must be example1 | gaussian | none, got {family!r}"
        )
    p.finish()

    d = sections["damping"]
    dfamily = d.get("family", "plateau")
    if dfamily == "plateau":
        ramp = d.get("ramp", "sharp")
        if ramp not in ("sharp", "smooth"):
            raise ConfigError(f"[damping] ramp must be sharp | smooth, got {ramp!r}")
        damping = DampingSpec(
            family=dfamily,
            eps1=d.get_float("eps1", required=True),
            L=d.get_float("L", required=True),
            ramp=ramp,
        )
    elif dfamily == "none":
        damping = DampingSpec(family=dfamily, eps1=None, L=None, ramp="sharp")
    else:
        raise ConfigError(f"[damping] family must be plateau | none, got {dfamily!r}")
    d.finish()

    ds = sections["data"]
    data = DataSpec(
        u0=_field_spec(ds, "u0"),
        u1=_field_spec(ds, "u1"),
        support_radius=ds.get_float("support_radius", None),
    )
    ds.finish()

    ts = sections["time"]
    time_spec = TimeSpec(
        t_end=ts.get_float("t_end", required=True),
        cfl=ts.get_float("cfl", 0.9),
        record_every=ts.get_int("record_every", 10),
    )
    if time_spec.t_end <= 0:
        raise ConfigError("[time] t_end must be positive")
    if not 0.0 < time_spec.cfl < 1.0:
        raise ConfigError("[time] cfl must lie in (0, 1)")
    if time_spec.record_every < 1:
        raise ConfigError("[time] record_every must be >= 1")
    ts.finish()

    if "nonlinearity" in sections:
        ns = sections["nonlinearity"]
        kind = ns.get("kind", "none")
        if kind == "power":
            nonlinearity = NonlinearitySpec(kind="power", p=ns.get_float("p", required=True))
        elif kind == "none":
            nonlinearity = NonlinearitySpec()
        else:
            raise ConfigError(f"[nonlinearity] kind must be none | power, got {kind!r}")
        ns.finish()
    else:
        nonlinearity = NonlinearitySpec()

    return RunSpec(grid=grid, potential=potential, damping=damping,
                   data=data, time=time_spec, nonlinearity=nonlinearity)


def load_config(path: str) -> tuple[RunSpec, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_config(raw.decode("utf-8")), raw


def emit_config(spec: RunSpec) -> str:
    """Canonical text form; parse_config(emit_config(s)) == s."""
    lines: list[str] = []

    def sec(name: str, *pairs):
        lines.append(f"[{name}]")
        for key, value in pairs:
            if value is not None:
                lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")

    if spec.grid.mode == "explicit":
        sec("grid", ("mode", "explicit"), ("x_min", spec.grid.x_min),
            ("x_max", spec.grid.x_max), ("n_cells", spec.grid.n_cells))
    else:
        sec("grid", ("mode", "auto"), ("dx", spec.grid.dx), ("padding", spec.grid.padding))

    pot = spec.potential
    if pot.family == "example1":
        sec("potential", ("family", pot.family), ("V0", pot.V0),
            ("beta", pot.beta), ("L", pot.L))
    elif pot.family == "gaussian":
        sec("potential", ("family", pot.family), ("V0", pot.V0), ("nu", pot.nu))
    else:
        sec("potential", ("family", "none"))

    dmp = spec.damping
    if dmp.family == "plateau":
        sec("damping", ("family", dmp.family), ("eps1", dmp.eps1),
            ("L", dmp.L), ("ramp", dmp.ramp))
    else:
        sec("damping", ("family", "none"))

    d = spec.data
    sec("data",
        ("u0_kind", d.u0.kind), ("u0_amplitude", d.u0.amplitude),
        ("u0_width", d.u0.width), ("u0_center", d.u0.center),
        ("u1_kind", d.u1.kind), ("u1_amplitude", d.u1.amplitude),
        ("u1_width", d.u1.width), ("u1_center", d.u1.center),
        ("support_radius", d.support_radius))

    sec("time", ("t_end", spec.time.t_end), ("cfl", spec.time.cfl),
        ("record_every", spec.time.record_every))

    if spec.nonlinearity.kind == "power":
        sec("nonlinearity", ("kind", "power"), ("p", spec.nonlinearity.p))
    else:
        sec("nonlinearity", ("kind", "none"))

    return "\n".join(lines)


# ---------------------------------------------------------------------------
# building runnable objects from a spec
# ---------------------------------------------------------------------------

def _field_radius(f: FieldSpec) -> float:
    """Truncation radius of one data field at the package data floor."""
    if f.kind == "zero" or f.amplitude == 0.0:
        return 0.0
    if f.kind == "bump":
        return abs(f.center) + f.width
    # gaussian: amplitude exp(-r^2 / 2 width^2) falls below 1e-14
    decades = math.log(abs(f.amplitude) / 1e-14) if abs(f.amplitude) > 1e-14 else 0.0
    return abs(f.center) + f.width * math.sqrt(2.0 * max(decades, 0.0))


def _sample_field(grid: Grid, f: FieldSpec) -> np.ndarray:
    if f.kind == "zero" or f.amplitude == 0.0:
        return np.zeros(grid.n_nodes)
    if f.kind == "gaussian":
        return gaussian_bump(grid, f.amplitude, f.width, f.center)
    return polynomial_bump(grid, f.amplitude, f.width, f.center)


def build_grid(spec: RunSpec) -> Grid:
    g = spec.grid
    if g.mode == "explicit":
        return Grid(g.x_min, g.x_max, g.n_cells)
    radius = spec.data.support_radius
    if radius is None:
        radius = max(_field_radius(spec.data.u0), _field_radius(spec.data.u1))
    return solver.domain_for_radius(radius, spec.time.t_end, g.dx, g.padding)


def build_profile_from_spec(spec: RunSpec, grid: Grid) -> CoefficientProfile:
    pot, dmp = spec.potential, spec.damping
    if pot.family == "example1":
        V = build_potential_example1(pot.V0, pot.beta, pot.L, grid)
    elif pot.family == "gaussian":
        V = build_potential_gaussian(pot.V0, pot.nu, grid)
    else:
        V = np.zeros(grid.n_nodes)

    if dmp.family == "plateau":
        a = build_damping_plateau(dmp.eps1, dmp.L, dmp.ramp, grid)
        L, eps1 = dmp.L, dmp.eps1
        if pot.family == "example1" and pot.L is not None and pot.L != dmp.L:
            raise ConfigError(
                f"[potential] L = {pot.L} and [damping] L = {dmp.L} must agree"
            )
    else:
        a = np.zeros(grid.n_nodes)
        L, eps1 = (pot.L if pot.L is not None else 1.0), 0.0

    if pot.family == "none" and dmp.family == "none":
        return free_space_profile(grid, L=1.0)
    return make_profile(grid, V, a, L, eps1, beta=pot.beta,
                        V0=pot.V0 if pot.family == "example1" else None)


def _require_finite(node, section: str, prefix: str = "") -> None:
    """ConfigError naming [section] key for a non-finite number in one spec
    section; a nested field's key is prefixed as in the text (u0_width)."""
    for f in fields(node):
        value = getattr(node, f.name)
        if is_dataclass(value):
            _require_finite(value, section, f"{prefix}{f.name}_")
        elif isinstance(value, (int, float)) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {prefix}{f.name} must be finite, got {value}")


def build_problem(spec: RunSpec) -> tuple[Grid, CoefficientProfile, InitialData]:
    """Grid, coefficient profile and initial data of a spec."""
    for f in fields(spec):
        _require_finite(getattr(spec, f.name), f.name)
    grid = build_grid(spec)
    profile = build_profile_from_spec(spec, grid)
    u0, u1 = (_sample_field(grid, f) for f in (spec.data.u0, spec.data.u1))
    return grid, profile, make_initial_data(grid, u0, u1, spec.data.support_radius)


def run_config_from_spec(
    spec: RunSpec, profile: CoefficientProfile, data: InitialData
) -> solver.RunConfig:
    p = spec.nonlinearity.p if spec.nonlinearity.kind == "power" else None
    return solver.RunConfig(
        profile=profile, data=data, t_end=spec.time.t_end, cfl=spec.time.cfl,
        p=p, record_every=spec.time.record_every,
    )
