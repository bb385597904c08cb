"""Command-line interface: validate, run, sweep, fit, poincare.

Exit-status contract (stable for harnesses):
    0  success (including completed runs that end in a tagged blowup,
       which is an expected semilinear outcome)
    1  general error (missing or unreadable files, a CSV or manifest
       that is not a run's, empty series, stdout closed by the reader,
       a grid too large to allocate)
    2  validation failure (hypothesis or configuration problems, a
       config that is not UTF-8 text, a grid wider than a float or with
       more nodes than numpy can address, a C* solve out of float range,
       a t_end below 1e-8 of the CFL step); validate and sweep refuse
       every config that run refuses
    3  runtime instability

Every run emits one CSV time series (17 significant digits, columns
t, E_u, l2_u, l2_local, dissipation_cum, G_k, identity_residual,
lemma25_residual, lemma25_ratio, au2_cum) plus one JSON manifest holding
the config hash, derived constants (C* with the bisection steps,
eigenresidual and edge tail of its solve, and c_star_continuum, the
whole-line continuum C* for the same L), termination, time.mirrored
(whether the run marched only x >= 0) and time.forcing_skipped_steps
(the steps that left out a negligible |u|^p; null for a linear run).
Outputs are deterministic functions of the config bytes. The default
output directory may be set with the DAMPEDWAVE_OUT environment variable.

A sweep is a base RunSpec built from its flags, each (p, I0) cell built as
`run` builds a config; its manifest holds the base as config text
(base_config), so the manifest alone reruns it. --workers N has N
processes march the cells, this one included: a pool of N - 1 and this
process, which takes the cells no pool process has started.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, config as cfg, runner, solver
from .coefficients import DataNorms, Grid
from .diagnostics import CSV_COLUMNS
from .errors import ConfigError, FitError, GridDomainError, HypothesisError
from .spectral import c_star_continuum, estimate_c_star, poincare_problem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3

_VALIDATION_ERRORS = (ConfigError, HypothesisError, GridDomainError)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _out_dir(arg: str | None) -> Path:
    out = arg or os.environ.get("DAMPEDWAVE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_hash(raw: bytes) -> str:
    # deferred: hashlib loads OpenSSL's libcrypto, which only a run's
    # manifest needs
    import hashlib

    return hashlib.sha256(raw).hexdigest()


def write_csv(path: Path, records) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.csv_values()))
    path.write_text("\n".join(lines) + "\n")


def _json_safe(x):
    if x is None or isinstance(x, (str, int, bool)):
        return x
    x = float(x)
    return x if math.isfinite(x) else str(x)  # "nan", "inf", "-inf"


def _checks_json(report) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail,
             "margin": _json_safe(c.margin)} for c in report.checks]


def build_manifest(lab: runner.LabRun, raw_config: bytes, csv_name: str) -> dict:
    run, estimate = lab.run_config, lab.c_star_estimate
    profile = run.profile
    derived = {
        "c_star": lab.c_star,
        "c_star_continuum": c_star_continuum(profile.L) if estimate else None,
        "smallness_bound": (1.0 / (4.0 * lab.c_star)) if lab.c_star else None,
        "c_star_iterations": estimate.iterations if estimate else None,
        "c_star_residual": estimate.residual if estimate else None,
        "c_star_edge_tail": estimate.edge_tail if estimate else None,
        "V_at_origin": profile.v_at_origin,
        "I0": lab.norms.I0 if lab.norms else None,
        **(asdict(lab.norms) if lab.norms else dict.fromkeys(f.name for f in fields(DataNorms))),
    }
    if lab.mc is not None:
        derived.update(asdict(lab.mc))  # its c_star is lab.c_star
    grid = profile.grid
    return {
        "artifact_version": __version__,
        "config_hash": _config_hash(raw_config),
        "files": {"csv": csv_name},
        "termination": {"kind": lab.termination.kind,
                        "time": _json_safe(lab.termination.time)},
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max,
                 "n_cells": grid.n_cells, "dx": grid.dx},
        "time": {"dt": lab.result.dt, "n_steps": lab.result.n_steps,
                 "t_end": run.t_end,
                 "record_every": run.record_every,
                 "mirrored": lab.result.mirrored,
                 "forcing_skipped_steps": lab.result.forcing_skipped_steps},
        "coefficients": {
            "L": profile.L, "eps1": profile.eps1,
            "beta": _json_safe(profile.beta), "V0": _json_safe(profile.V0),
            "free_wave": bool(profile.a_max == 0.0 and float(np.max(profile.V)) == 0.0),
        },
        "data": {"support_radius": _json_safe(run.data.support_radius)},
        "nonlinearity": {"p": _json_safe(run.p)},
        "hypotheses": _checks_json(lab.validation),
        "derived_constants": {k: _json_safe(v) for k, v in derived.items()},
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        spec, _raw = cfg.load_config(args.config)
        run = cfg.run_config_from_spec(spec, *cfg.build_problem(spec))
        report, estimate, _mc, _norms = runner.prepare_constants(run.profile, run.data)
    except _VALIDATION_ERRORS as exc:
        print(f"INVALID: {exc}")
        return EXIT_VALIDATION

    for check in report.checks:
        status = {True: "pass", False: "FAIL", None: "skipped"}[check.passed]
        margin = "" if check.margin is None else f" (margin {check.margin:.6g})"
        print(f"{check.name:35s} {status:7s} {check.detail}{margin}")
    c_star = continuum = None
    if estimate is not None:
        c_star, continuum = estimate.c_star, c_star_continuum(run.profile.L)
        print(f"{'C*':35s} {c_star:.12g}")
        print(f"{'C*_continuum':35s} {continuum:.12g}")
        print(f"{'1/(4C*)':35s} {1.0 / (4.0 * c_star):.12g}")
    if args.json:
        payload = {
            "passed": report.passed,
            "c_star": _json_safe(c_star),
            "c_star_continuum": _json_safe(continuum),
            "checks": _checks_json(report),
        }
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_run(args) -> int:
    try:
        spec, raw = cfg.load_config(args.config)
        lab = runner.execute(cfg.run_config_from_spec(spec, *cfg.build_problem(spec)))
    except _VALIDATION_ERRORS as exc:
        print(f"invalid run configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out = _out_dir(args.out)
    name = args.name or Path(args.config).stem
    csv_path = out / f"{name}.csv"
    write_csv(csv_path, lab.records)
    manifest = build_manifest(lab, raw, csv_path.name)
    manifest_path = out / f"{name}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} ({len(lab.records)} records) and {manifest_path}")
    print(f"termination: {lab.termination.kind}"
          + (f" at t = {lab.termination.time:.6g}" if lab.termination.time else ""))
    return EXIT_INSTABILITY if lab.termination.kind == solver.INSTABILITY else EXIT_OK


def cmd_poincare(args) -> int:
    problems = [f"{name} must be finite" for name, value in
                (("--L", args.L), ("--domain", args.domain)) if not math.isfinite(value)]
    if problems:
        print(f"invalid poincare input: {'; '.join(problems)}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        grid = Grid(-args.domain, args.domain, args.nodes)
        estimate = estimate_c_star(poincare_problem(grid, args.L))
    except _VALIDATION_ERRORS as exc:
        print(f"invalid poincare input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("L,c_star,lambda_min,residual")
    print(f"{_fmt(args.L)},{_fmt(estimate.c_star)},"
          f"{_fmt(estimate.lambda_min)},{_fmt(estimate.residual)}")
    return EXIT_OK


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.size == 0:
        return {name: np.array([]) for name in header}
    if rows.shape[1] != len(header):
        raise ValueError(f"{path}: the header names {len(header)} columns, "
                         f"the rows have {rows.shape[1]}")
    return {name: rows[:, i] for i, name in enumerate(header)}


def _manifest_csv(path: Path) -> Path:
    """The path of the CSV a run manifest names; ValueError if the file is
    not JSON or names no files.csv."""
    manifest = json.loads(path.read_text())
    try:
        return path.parent / manifest["files"]["csv"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a run manifest: no files.csv") from exc


def cmd_fit(args) -> int:
    path = Path(args.series)
    try:
        if path.suffix == ".json":
            path = _manifest_csv(path)
        columns = _read_csv(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read series: {exc}", file=sys.stderr)
        return EXIT_ERROR
    name = args.quantity
    try:
        fit = analysis.fit_columns(columns, name, tuple(args.window), args.claimed_rate)
    except FitError as exc:
        print(f"cannot fit: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("quantity,t_lo,t_hi,exponent,r_squared,sup_scaled,claimed_rate")
    print(f"{name},{_fmt(fit.window[0])},{_fmt(fit.window[1])},{_fmt(fit.exponent)},"
          f"{_fmt(fit.r_squared)},{_fmt(fit.sup_scaled)},{_fmt(fit.claimed_rate)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        p_values = [float(v) for v in args.p.split(",")]
        i0_values = [float(v) for v in args.i0.split(",")]
        options = {"--p": p_values, "--i0": i0_values}
        infinite = [name for name, values in options.items()
                    if not all(map(math.isfinite, values))]
        if infinite:
            raise ValueError(f"{', '.join(infinite)} must be finite")
    except ValueError as exc:
        print(f"invalid sweep configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    spec = cfg.RunSpec(
        grid=cfg.GridSpec(mode="auto", dx=args.dx),
        potential=cfg.PotentialSpec("example1", V0=args.V0, beta=args.beta, L=args.L),
        damping=cfg.DampingSpec("plateau", eps1=args.eps1, L=args.L),
        data=cfg.DataSpec(u0=cfg.FieldSpec("gaussian", amplitude=1.0, width=0.75)),
        time=cfg.TimeSpec(t_end=args.t_end),
    )
    try:
        outcomes = analysis.semilinear_sweep(spec, p_values, i0_values, workers=args.workers)
    except _VALIDATION_ERRORS as exc:
        print(f"invalid sweep configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = _out_dir(args.out)
    path = out / f"{args.name}.csv"
    header = "p\\I0," + ",".join(_fmt(v) for v in i0_values)
    lines = [header]
    for p, row in zip(p_values, outcomes):
        lines.append(",".join([_fmt(p)] + list(row)))
    path.write_text("\n".join(lines) + "\n")
    p_critical = analysis.p_star(args.beta)
    manifest = {
        "artifact_version": __version__,
        "kind": "sweep",
        "beta": args.beta,
        "p_critical": p_critical,
        "p_values": p_values,
        "I0_values": i0_values,
        "base_config": cfg.emit_config(spec),
        "files": {"csv": path.name},
    }
    (out / f"{args.name}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}; critical exponent p*({args.beta:g}) = {p_critical:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedwave",
        description="numerical laboratory for the damped wave equation with potential",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check coefficient hypotheses and smallness, "
                       "and that `run` would accept the config")
    v.add_argument("config")
    v.add_argument("--json", action="store_true", help="also print a JSON report")
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("run", help="run a simulation and emit CSV + manifest")
    r.add_argument("config")
    r.add_argument("--out", default=None, help="output directory (or $DAMPEDWAVE_OUT)")
    r.add_argument("--name", default=None, help="basename for outputs")
    r.set_defaults(func=cmd_run)

    p = sub.add_parser("poincare", help="estimate the Poincare-type constant C*")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--domain", type=float, required=True, help="half width X of [-X, X]")
    p.add_argument("--nodes", type=int, required=True, help="cell count")
    p.set_defaults(func=cmd_poincare)

    f = sub.add_parser("fit", help="fit a decay exponent from a run CSV or manifest")
    f.add_argument("series", help="CSV or manifest path")
    f.add_argument("--quantity", default="E_u",
                   help="CSV column or l2_u_sq (default E_u)")
    f.add_argument("--window", type=float, nargs=2, default=(10.0, 200.0),
                   metavar=("T_LO", "T_HI"))
    f.add_argument("--claimed-rate", type=float, default=1.0)
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("sweep", help="semilinear (p, I0) outcome matrix")
    s.add_argument("--beta", type=float, default=2.0)
    s.add_argument("--p", required=True, help="comma-separated powers")
    s.add_argument("--i0", required=True, help="comma-separated data sizes")
    s.add_argument("--V0", type=float, default=0.01)
    s.add_argument("--L", type=float, default=1.0)
    s.add_argument("--eps1", type=float, default=1.0)
    s.add_argument("--t-end", type=float, default=40.0)
    s.add_argument("--dx", type=float, default=0.05)
    s.add_argument("--workers", type=int, default=2,
                   help="processes that march cells, this one included (default 2)")
    s.add_argument("--out", default=None)
    s.add_argument("--name", default="sweep")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left (`| head`): nothing to say, and no flush of the
        # dead pipe at interpreter shutdown
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except OSError as exc:
        print(f"cannot access {exc.filename or 'a file'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"cannot allocate: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
