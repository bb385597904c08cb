"""Run-configuration files: flat sectioned key = value text.

A RunSpec is one section per field: [grid], [potential], [damping],
[data], [time] and the optional [nonlinearity]. Its schema is one table,
_VARIANTS: per section the tag key (grid mode, potential and damping
family, nonlinearity kind; [time] has none) and, under each tag value,
the keys that variant carries, in the order emit_config() writes them.
A carried key whose dataclass default is None is required; a key outside
the variant keeps its default. [data] is the one special case: two
prefixed fields u0_* and u1_* (kind, amplitude, width = gaussian sigma
or bump radius, center) and an optional support_radius override. An
auto grid sizes its domain from the data support.

check_spec() is the one validator of a spec's values. It names the
section and key of an unknown variant or ramp, a missing required key, a
key set outside its variant, a non-finite number, a non-integer count,
a value out of range and core radii that disagree. parse_config() checks
only the text (parseable, known sections and keys, values that convert)
and returns check_spec() of what it read; emit_config() writes a
canonical form that parses back to an equal spec.

A spec reaches a run by one route: build_problem() gives its profile
and data (the grid is profile.grid), run_config_from_spec() adds the
time stepping, and runner.execute() marches that RunConfig (sweep cells
call solver.run on it directly). build_problem() calls check_spec()
first, so a hand-built spec is held to the same rules as config text,
and the RunConfig is valid by construction (solver, Validity).
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import solver
from .coefficients import (
    TRUNCATION_FLOOR,
    CoefficientProfile,
    Grid,
    InitialData,
    build_damping_plateau,
    build_potential_example1,
    build_potential_gaussian,
    gaussian_bump,
    make_initial_data,
    make_profile,
    polynomial_bump,
)
from .errors import ConfigError


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
    V0: float | None = None
    beta: float | None = None
    nu: float | None = None
    L: float | None = None


@dataclass(frozen=True)
class DampingSpec:
    family: str = "plateau"
    eps1: float | None = None
    L: float | None = None
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
    t_end: float | None = None
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


# The schema. Per spec class: its tag key (None: one variant only) and,
# under each tag value, the keys that variant carries in emit order.
_VARIANTS = {
    GridSpec: ("mode", {"explicit": ("x_min", "x_max", "n_cells"),
                        "auto": ("dx", "padding")}),
    PotentialSpec: ("family", {"example1": ("V0", "beta", "L"),
                               "gaussian": ("V0", "nu"), "none": ()}),
    DampingSpec: ("family", {"plateau": ("eps1", "L", "ramp"), "none": ()}),
    FieldSpec: ("kind", dict.fromkeys(("gaussian", "bump", "zero"),
                                      ("amplitude", "width", "center"))),
    TimeSpec: (None, {None: ("t_end", "cfl", "record_every")}),
    NonlinearitySpec: ("kind", {"none": (), "power": ("p",)}),
}
_SECTIONS = {"grid": GridSpec, "potential": PotentialSpec, "damping": DampingSpec,
             "data": DataSpec, "time": TimeSpec, "nonlinearity": NonlinearitySpec}
_CHOICES = {"ramp": ("sharp", "smooth")}
_INTEGERS = ("n_cells", "record_every")


def _keys(node) -> tuple[str, ...]:
    """Keys a spec node's variant carries, tag first (only the tag for an
    unknown variant)."""
    tag, variants = _VARIANTS[type(node)]
    if tag is None:
        return variants[None]
    return (tag,) + variants.get(getattr(node, tag), ())


def _nodes(spec: RunSpec, section: str) -> tuple[tuple[str, object], ...]:
    """(text key prefix, node) of the tagged nodes of one spec section."""
    node = getattr(spec, section)
    if section == "data":
        return (("u0_", node.u0), ("u1_", node.u1))
    return (("", node),)


def _one_of(section: str, key: str, value, choices) -> None:
    if value not in choices:
        raise ConfigError(
            f"[{section}] {key} must be one of {' | '.join(choices)}, got {value!r}"
        )


def _number(section: str, key: str, value, integer: bool = False) -> None:
    if not isinstance(value, numbers.Integral if integer else numbers.Real):
        noun = "an integer" if integer else "a number"
        raise ConfigError(f"[{section}] {key} must be {noun}, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {value}")


def check_spec(spec: RunSpec) -> RunSpec:
    """The one validator of a spec's values; returns the spec unchanged.

    ConfigError names [section] key for an unknown variant or ramp, a
    carried key that is None, a key outside its variant set away from its
    default, a non-finite number, a non-integer n_cells or record_every,
    a width <= 0 of non-zero data, support_radius < 0, an example1
    potential and a plateau damping whose core radii L differ, t_end <= 0,
    cfl outside (0, 1) and record_every < 1.
    """
    for section in _SECTIONS:
        for prefix, node in _nodes(spec, section):
            tag, variants = _VARIANTS[type(node)]
            if tag is not None:
                _one_of(section, prefix + tag, getattr(node, tag), variants)
            where = f" for {tag} = {getattr(node, tag)}" if tag else ""
            carried = _keys(node)
            for f in fields(node):
                key, value = prefix + f.name, getattr(node, f.name)
                if f.name not in carried:
                    if value != f.default:
                        raise ConfigError(f"[{section}] {key} is not a key{where}")
                elif f.name == tag:
                    continue
                elif value is None:
                    raise ConfigError(f"[{section}] {key} is required{where}")
                elif f.name in _CHOICES:
                    _one_of(section, key, value, _CHOICES[f.name])
                else:
                    _number(section, key, value, f.name in _INTEGERS)
            if type(node) is FieldSpec and node.kind != "zero" and node.width <= 0:
                raise ConfigError(
                    f"[data] {prefix}width must be positive for kind {node.kind!r}"
                )
    radius = spec.data.support_radius
    if radius is not None:
        _number("data", "support_radius", radius)
        if radius < 0:
            raise ConfigError("[data] support_radius must be >= 0")
    pot, dmp = spec.potential, spec.damping
    if pot.family == "example1" and dmp.family == "plateau" and pot.L != dmp.L:
        raise ConfigError(f"[potential] L = {pot.L} and [damping] L = {dmp.L} must agree")
    if spec.time.t_end <= 0:
        raise ConfigError("[time] t_end must be positive")
    if not 0.0 < spec.time.cfl < 1.0:
        raise ConfigError("[time] cfl must lie in (0, 1)")
    if spec.time.record_every < 1:
        raise ConfigError("[time] record_every must be >= 1")
    return spec


def _convert(section: str, prefix: str, key: str, text: str):
    """Text of key as its field's type: str for a choice, int for a count,
    float otherwise; ConfigError for text that does not convert."""
    if key in _CHOICES:
        return text
    kind = int if key in _INTEGERS else float
    try:
        return kind(text)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {prefix}{key} = {text!r} is not {noun}") from exc


def _read(cls, section: str, raw: dict[str, str], prefix: str = ""):
    """A spec node from one section's text; pops the keys it reads from raw."""
    if cls is DataSpec:
        radius = raw.pop("support_radius", None)
        return DataSpec(
            _read(FieldSpec, section, raw, "u0_"), _read(FieldSpec, section, raw, "u1_"),
            None if radius is None
            else _convert(section, "", "support_radius", radius),
        )
    tag = _VARIANTS[cls][0]
    values = {tag: raw.pop(prefix + tag)} if tag and prefix + tag in raw else {}
    node = cls(**values)
    return replace(node, **{key: _convert(section, prefix, key, raw.pop(prefix + key))
                            for key in _keys(node) if key != tag and prefix + key in raw})


def parse_config(text: str) -> RunSpec:
    """The spec of config text; text faults are named here, values by check_spec."""
    parser =configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (V0, L, ...)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}") from exc

    raw = {name: dict(parser[name]) for name in parser.sections()}
    for name in _SECTIONS:
        if name not in raw and name != "nonlinearity":
            raise ConfigError(f"missing [{name}] section")
    stray = set(raw) - set(_SECTIONS)
    if stray:
        raise ConfigError(f"unknown sections: {', '.join(sorted(stray))}")

    spec = check_spec(RunSpec(**{name: _read(cls, name, raw.setdefault(name, {}))
                                 for name, cls in _SECTIONS.items()}))
    for name, rest in raw.items():
        if rest:
            raise ConfigError(f"[{name}] has unknown keys: {', '.join(sorted(rest))}")
    return spec


def load_config(path: str) -> tuple[RunSpec, bytes]:
    """The spec and raw bytes of a config file; ConfigError if the bytes
    are not UTF-8 text, OSError if the file cannot be read."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_config(text), raw


def emit_config(spec: RunSpec) -> str:
    """Canonical text form; parse_config(emit_config(s)) == s for every
    spec check_spec accepts."""
    check_spec(spec)
    pairs = {name: [(prefix + key, getattr(node, key))
                    for prefix, node in _nodes(spec, name) for key in _keys(node)]
             for name in _SECTIONS}
    pairs["data"].append(("support_radius", spec.data.support_radius))
    lines: list[str] = []
    for name, items in pairs.items():
        lines.append(f"[{name}]")
        for key, value in items:
            if value is not None:
                lines.append(f"{key} = {float(value)!r}" if isinstance(value, float)
                             else f"{key} = {value}")
        lines.append("")
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
    # gaussian: amplitude exp(-r^2 / 2 width^2) falls below the floor
    floor = TRUNCATION_FLOOR
    decades = math.log(abs(f.amplitude) / floor) if abs(f.amplitude) > floor else 0.0
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
    else:
        a = np.zeros(grid.n_nodes)
        L, eps1 = (pot.L if pot.L is not None else 1.0), 0.0

    return make_profile(grid, V, a, L, eps1)


def build_problem(spec: RunSpec) -> tuple[CoefficientProfile, InitialData]:
    """Coefficient profile and initial data of a spec (the grid is
    profile.grid); check_spec first."""
    check_spec(spec)
    grid = build_grid(spec)
    profile = build_profile_from_spec(spec, grid)
    u0, u1 = (_sample_field(grid, f) for f in (spec.data.u0, spec.data.u1))
    return profile, make_initial_data(grid, u0, u1, spec.data.support_radius)


def run_config_from_spec(
    spec: RunSpec, profile: CoefficientProfile, data: InitialData
) -> solver.RunConfig:
    p = spec.nonlinearity.p if spec.nonlinearity.kind == "power" else None
    return solver.RunConfig(
        profile=profile, data=data, t_end=spec.time.t_end, cfl=spec.time.cfl,
        p=p, record_every=spec.time.record_every,
    )
