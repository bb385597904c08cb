"""Traced half of the benchmark: drives the dampedwave CLI entry point
inside one interpreter and times calls to the package's public functions.

    python3 bench/inproc.py trace <workload> [--smoke]
    python3 bench/inproc.py reference <workload> [--smoke]
    python3 bench/inproc.py env

`trace` runs the command once with spans around the public calls of
each layer (the package itself is not instrumented: the wrappers are
swapped into the module namespaces for the duration of the call), then
replays the recorded marches without tracing, without the Recorder and
under tracemalloc. The sweep is traced with one worker so that every
span lands in this process, then timed once more with its pool.

`reference` summarises the workload's outputs for reference.json, and
`env` reports the numerical stack (numpy, scipy, BLAS and its threads).

Each prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import common

sys.path.insert(0, str(common.ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dampedwave  # noqa: E402
from dampedwave import (  # noqa: E402
    analysis, cli, coefficients, config, diagnostics, runner, solver, spectral,
)

PACKAGE_MODULES = (analysis, cli, coefficients, config, diagnostics, runner, solver, spectral)

# Public calls wrapped in spans, as (module, attribute, span name). The
# coefficient builders are the entry points of problem construction that
# config, runner and analysis share; everything they call stays inside
# their span.
TRACED_CALLS = (
    (cli, "main", "cli.main"),
    (cli, "write_csv", "cli.write_csv"),
    (cli, "build_manifest", "cli.build_manifest"),
    (config, "load_config", "config.load_config"),
    (config, "build_problem", "config.build_problem"),
    (config, "run_config_from_spec", "config.run_config_from_spec"),
    (runner, "execute", "runner.execute"),
    (runner, "prepare_constants", "runner.prepare_constants"),
    (spectral, "estimate_c_star", "spectral.estimate_c_star"),
    (analysis, "semilinear_sweep", "analysis.semilinear_sweep"),
    (analysis, "classify_outcome", "analysis.classify_outcome"),
    (analysis, "scale_data_to_i0", "analysis.scale_data_to_i0"),
    (coefficients, "make_profile", "coefficients.make_profile"),
    (coefficients, "free_space_profile", "coefficients.free_space_profile"),
    (coefficients, "build_potential_example1", "coefficients.build_potential_example1"),
    (coefficients, "build_potential_gaussian", "coefficients.build_potential_gaussian"),
    (coefficients, "build_damping_plateau", "coefficients.build_damping_plateau"),
    (coefficients, "make_initial_data", "coefficients.make_initial_data"),
    (coefficients, "validate_hypotheses", "coefficients.validate_hypotheses"),
    (coefficients, "compute_data_norms", "coefficients.compute_data_norms"),
)

LAYERS = ("cli", "config", "coefficients", "runner", "spectral", "solver",
          "diagnostics", "analysis")


class Patches:
    """Replaces a function under every name the package modules bind it
    to (``from x import f`` copies the binding), and puts them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, replacement) -> None:
        for module in PACKAGE_MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement)

    def restore(self) -> None:
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
        return traced

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[3] - s[2]
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            layer = s[0].split(".")[0]
            if layer in out:
                out[layer] += (s[3] - s[2]) - child[i]
        return out


class March:
    """One solver.run call seen by the wrapper."""

    def __init__(self, run_config, hook, result):
        self.run_config = run_config
        self.hook = hook
        self.result = result

    @property
    def n_nodes(self) -> int:
        return self.run_config.profile.grid.n_nodes

    @property
    def node_steps(self) -> int:
        return self.n_nodes * steps_taken(self.result)


def steps_taken(result) -> int:
    if result.termination.kind == solver.COMPLETED:
        return result.n_steps
    return round(result.termination.time / result.dt)


def fresh_recorder(hook):
    """An untraced copy of the Recorder a march was given."""
    return diagnostics.Recorder(hook.profile, hook.mc, hook.data, hook.norms)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line.lower() and "/" in line:
                paths.add(line.split(None, 5)[-1].strip())
    out = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dampedwave": dampedwave.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (default)"),
    }


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def traced_hook(tracer: Tracer, hook, n_nodes: int, live: list[float]):
    """hook inside a span, preceded by a count of the nonzero nodes."""
    record = tracer.wrap("diagnostics.record", hook)

    def count_live(state):
        live.append(np.count_nonzero(state.u) / n_nodes)
    counted = tracer.wrap("trace.live_count", count_live)

    def wrapped(state, *args):
        counted(state)
        return record(state, *args)
    return wrapped


def traced_command(workload: str, smoke: bool, out_dir: Path):
    """Run the workload's command once (sweeps with one worker) with a span
    around every call in TRACED_CALLS and around each solver.run and
    Recorder call. Returns the tracer, the marches, the C* estimates and
    the live fraction at each record level."""
    tracer = Tracer()
    marches: list[March] = []
    estimates: list = []
    live: list[float] = []
    patches = Patches()

    original_run = solver.run
    traced_run = tracer.wrap("solver.run", original_run)

    def run_wrapper(run_config, diagnostics_hook=None):
        hook = diagnostics_hook
        if hook is not None:
            hook = traced_hook(tracer, hook, run_config.profile.grid.n_nodes, live)
        result = traced_run(run_config, hook)
        marches.append(March(run_config, diagnostics_hook, result))
        return result

    original_c_star = spectral.estimate_c_star
    traced_c_star = tracer.wrap("spectral.estimate_c_star", original_c_star)

    def c_star_wrapper(*args, **kwargs):
        estimate = traced_c_star(*args, **kwargs)
        estimates.append(estimate)
        return estimate

    try:
        for module, attr, span in TRACED_CALLS:
            fn = getattr(module, attr)
            if fn is original_c_star:
                patches.replace(fn, c_star_wrapper)
            else:
                patches.replace(fn, tracer.wrap(span, fn))
        patches.replace(original_run, run_wrapper)
        code = cli.main(common.command_args(workload, smoke, out_dir, "trace", workers=1))
    finally:
        patches.restore()
    return code, tracer, marches, estimates, live


def timed_call(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def trace(workload: str, smoke: bool, out_dir: Path) -> dict:
    ref = common.load_reference(workload, smoke)
    sweep = common.is_sweep(workload)
    errors: list[str] = []
    code, tracer, marches, estimates, live = traced_command(workload, smoke, out_dir)
    if code != 0 or not marches:
        errors.append(f"traced command returned {code} after {len(marches)} marches")
        return {"attempted": 1, "errors": errors, "env": environment()}
    attempted, _, errs = common.check_outputs(workload, ref, out_dir, "trace")
    errors += errs
    csv_path = out_dir / "trace.csv"

    # replays of the same marches, all warm: with the Recorder untraced and
    # traced (their difference is the tracing overhead), without any hook,
    # and the largest one under tracemalloc
    recorder_s = sum(timed_call(solver.run, m.run_config, fresh_recorder(m.hook))[0]
                     for m in marches)
    scratch = Tracer()
    traced_s = sum(timed_call(solver.run, m.run_config, traced_hook(
        scratch, fresh_recorder(m.hook), m.n_nodes, []))[0] for m in marches)
    nohook_s = sum(timed_call(solver.run, m.run_config, None)[0] for m in marches)
    biggest = max(marches, key=lambda m: m.node_steps)
    tracemalloc.start()
    try:
        solver.run(biggest.run_config, None)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    node_steps = sum(m.node_steps for m in marches)
    records = sum(len(m.result.records) for m in marches)
    hook_s = sum(tracer.durations("diagnostics.record"))
    counted_s = sum(tracer.durations("trace.live_count"))
    self_times = tracer.self_times()
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    first_run = next(s for s in tracer.spans if s[0] == "solver.run")

    metrics = {
        "setup.pre_march_s": (first_run[2] - main_span[2], "s"),
        "cli.self_s": (self_times["cli"], "s"),
        "cli.csv_bytes": (csv_path.stat().st_size, "bytes"),
        "coefficients.self_s": (self_times["coefficients"], "s"),
        "solver.run_nohook_s": (nohook_s, "s"),
        "solver.run_recorder_s": (recorder_s, "s"),
        "solver.self_s": (self_times["solver"], "s"),
        "solver.ns_per_node_step": (self_times["solver"] / node_steps * 1e9, "ns"),
        "solver.nohook_ns_per_node_step": (nohook_s / node_steps * 1e9, "ns"),
        "solver.node_steps": (node_steps, "count"),
        "solver.live_frac": (statistics.fmean(live) if live else 0.0, "ratio"),
        "solver.alloc_peak_bytes_per_node": (alloc_peak / biggest.n_nodes, "B/node"),
        "diagnostics.recorder_s": (hook_s, "s"),
        "diagnostics.records": (records, "count"),
        "diagnostics.us_per_record": (hook_s / records * 1e6 if records else 0.0, "us"),
        "spectral.iterations": (sum(e.iterations for e in estimates), "count"),
        "analysis.blowup_cells": (0, "count"),
        "trace.overhead_s": (traced_s - recorder_s, "s"),
    }
    # per-layer self times of the traced command, every layer
    report = {f"{layer}.self_s": (t, "s") for layer, t in self_times.items()}
    report["trace.live_count_s"] = (counted_s, "s")
    report["solver.run_traced_s"] = (sum(tracer.durations("solver.run")), "s")

    if sweep:
        _, rows = common.read_sweep_csv(csv_path)
        metrics["analysis.blowup_cells"] = (
            sum(common.blowup_time(t) is not None for row in rows for t in row[1:]),
            "count")
        serial_s = sum(tracer.durations("analysis.semilinear_sweep"))
        pooled = pooled_sweep_wall(workload, smoke, out_dir)
        report["analysis.sweep_serial_s"] = (serial_s, "s")
        report["analysis.sweep_pooled_s"] = (pooled, "s")
        report["analysis.pool_efficiency"] = (
            serial_s / (common.SWEEP_WORKERS * pooled), "ratio")
    else:
        report["config.build_s"] = (sum(
            sum(tracer.durations(f"config.{n}"))
            for n in ("load_config", "build_problem", "run_config_from_spec")), "s")
        report["runner.prepare_constants_s"] = (
            tracer.durations("runner.prepare_constants")[0], "s")
        report["spectral.c_star_first_s"] = (
            tracer.durations("spectral.estimate_c_star")[0], "s")
        problem = spectral.poincare_problem(biggest.run_config.profile.grid,
                                            biggest.run_config.profile.L)
        warm = [timed_call(spectral.estimate_c_star, problem)[0] for _ in range(5)]
        report["spectral.c_star_warm_s"] = (statistics.median(warm), "s")
        report["cli.write_csv_s"] = (sum(tracer.durations("cli.write_csv")), "s")
        report["cli.manifest_s"] = (sum(tracer.durations("cli.build_manifest")), "s")

    return {
        "metrics": metrics,
        "report": report,
        "exact_counts": {k: metrics[k][0] for k in (
            "solver.node_steps", "solver.live_frac", "spectral.iterations",
            "diagnostics.records", "cli.csv_bytes", "analysis.blowup_cells")},
        "spans": tracer.spans,
        "attempted": attempted,
        "errors": errors[:20],
        "env": environment(),
    }


def pooled_sweep_wall(workload: str, smoke: bool, out_dir: Path) -> float:
    walls: list[float] = []
    patches = Patches()
    patches.replace(analysis.semilinear_sweep,
                    common.stopwatch(analysis.semilinear_sweep, walls))
    try:
        cli.main(common.command_args(workload, smoke, out_dir, "pooled"))
    finally:
        patches.restore()
    return walls[0]


def reference(workload: str, smoke: bool, out_dir: Path) -> dict:
    """Summary of the workload's outputs at this commit, for reference.json.
    Sweeps run with one worker so the grid of a cell can be read off."""
    marches = []
    original = solver.run

    def recording(run_config, diagnostics_hook=None):
        result = original(run_config, diagnostics_hook)
        marches.append((run_config, result))
        return result

    patches = Patches()
    patches.replace(original, recording)
    try:
        code = cli.main(common.command_args(workload, smoke, out_dir, "ref", workers=1))
    finally:
        patches.restore()
    if code != 0:
        raise RuntimeError(f"{workload}: command returned {code}")
    csv_path = out_dir / "ref.csv"
    if not common.is_sweep(workload):
        return common.summarize_run(csv_path, out_dir / "ref.manifest.json")
    header, rows = common.read_sweep_csv(csv_path)
    run_config, result = marches[0]
    return {"header": header, "rows": rows, "cells": len(rows) * (len(header) - 1),
            "n_nodes": run_config.profile.grid.n_nodes, "dt": result.dt,
            "n_steps": result.n_steps}


MODES = {"trace": trace, "reference": reference}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES) + ["env"])
    parser.add_argument("workload", nargs="?", choices=sorted(common.WORKLOADS))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="scratch directory for outputs")
    args = parser.parse_args(argv)
    if args.mode == "env":
        result = environment()
    else:
        if args.workload is None or args.out is None:
            parser.error(f"{args.mode} needs a workload and --out")
        with tempfile.TemporaryDirectory(dir=args.out) as tmp:
            result = MODES[args.mode](args.workload, args.smoke, Path(tmp))
    print(json.dumps(result, default=_json_default))
    return 0


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    raise TypeError(f"cannot serialise {type(x).__name__}")


if __name__ == "__main__":
    sys.exit(main())
