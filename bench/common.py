"""Workload definitions, output summaries and correctness checks.

Shared by the orchestrator (run.py), the timed console script
(timed_cli.py) and the traced probe (inproc.py). Standard library only,
so the orchestrator never imports numpy and a broken package cannot
take the orchestrator down with it.
"""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: What the installed ``dampedwave`` console script runs.
ENTRY = "import sys; from dampedwave.cli import main; sys.exit(main())"

SWEEP_WORKERS = 2

# Each workload is either one config marched by ``dampedwave run`` or one
# ``dampedwave sweep`` command line. The ``smoke_*`` entries give the tiny
# variant the benchmark's own smoke check uses: the same layers on a short
# horizon (the config copy gets this t_end) and a 2 x 2 sweep.
WORKLOADS = {
    "semilinear_p11": {
        "config": "configs/semilinear_demo.cfg",
        "smoke_t_end": 5.0,
    },
    "sweep_pxI0": {
        "sweep": ["--p", "1.5,2,3,5,7,9,11,13", "--i0", "0.1,1,3,10,30",
                  "--dx", "0.02", "--t-end", "40"],
        "smoke_sweep": ["--p", "3,11", "--i0", "1,30", "--dx", "0.05",
                        "--t-end", "5"],
    },
}

CSV_REL_TOL = 1e-9
C_STAR_REL_TOL = 1e-12
# `validate` prints C* with 12 significant digits.
C_STAR_PRINTED_REL_TOL = 1e-11


def stopwatch(fn, walls: list):
    """fn, appending the wall time of each call to walls."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            walls.append(time.perf_counter() - t0)
    return timed


def is_sweep(workload: str) -> bool:
    return "sweep" in WORKLOADS[workload]


def reference_key(workload: str, smoke: bool) -> str:
    return f"{workload}.smoke" if smoke else workload


def load_reference(workload: str, smoke: bool) -> dict:
    refs = json.loads(REFERENCE_PATH.read_text())
    return refs[reference_key(workload, smoke)]


def smoke_config(workload: str, out_dir: Path) -> Path:
    """Copy of the workload config with t_end cut to the smoke horizon."""
    w = WORKLOADS[workload]
    text = (ROOT / w["config"]).read_text()
    text, n = re.subn(r"(?m)^t_end\s*=.*$", f"t_end = {w['smoke_t_end']}", text)
    if n != 1:
        raise ValueError(f"{w['config']}: expected one t_end line, found {n}")
    path = out_dir / f"{workload}.smoke.cfg"
    path.write_text(text)
    return path


def config_path(workload: str, smoke: bool, out_dir: Path) -> Path:
    if smoke:
        return smoke_config(workload, out_dir)
    return ROOT / WORKLOADS[workload]["config"]


def sweep_args(workload: str, smoke: bool) -> list[str]:
    w = WORKLOADS[workload]
    return list(w["smoke_sweep"] if smoke else w["sweep"])


def command_args(workload: str, smoke: bool, out_dir: Path, name: str,
                 workers: int = SWEEP_WORKERS) -> list[str]:
    """dampedwave arguments of the workload command, writing out_dir/name.*"""
    out = ["--out", str(out_dir), "--name", name]
    if is_sweep(workload):
        return ["sweep", *sweep_args(workload, smoke), "--workers", str(workers), *out]
    return ["run", str(config_path(workload, smoke, out_dir)), *out]


# ---------------------------------------------------------------------------
# summaries of what the CLI writes
# ---------------------------------------------------------------------------

def read_run_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    # float() also reads the "nan" the CLI writes for undefined columns
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return header, rows


def summarize_run(csv_path: Path, manifest_path: Path) -> dict:
    """Reference summary of one `dampedwave run`: the fields the checks use."""
    header, rows = read_run_csv(csv_path)
    manifest = json.loads(manifest_path.read_text())
    return {
        "records": len(rows),
        "termination": manifest["termination"]["kind"],
        "final": dict(zip(header, rows[-1])),
        "c_star": manifest["derived_constants"]["c_star"],
        "n_nodes": manifest["grid"]["n_cells"] + 1,
        "n_steps": manifest["time"]["n_steps"],
    }


def read_sweep_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in path.read_text().splitlines() if line]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


_BLOWUP = re.compile(r"^blowup\(t=([^)]+)\)$")


def blowup_time(token: str) -> float | None:
    m = _BLOWUP.match(token)
    return float(m.group(1)) if m else None


def sweep_node_steps(rows: list[list[str]], ref: dict) -> int:
    """Nominal node-steps a sweep marched: nodes x steps taken per cell.
    A cell that blows up at t = k dt marched k steps."""
    total_steps = 0
    for row in rows:
        for token in row[1:]:
            t = blowup_time(token)
            total_steps += ref["n_steps"] if t is None else round(t / ref["dt"])
    return ref["n_nodes"] * total_steps


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages (empty = pass)
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def check_run_summary(got: dict, ref: dict) -> list[str]:
    errors = []
    if got["records"] != ref["records"]:
        errors.append(f"records {got['records']} != {ref['records']}")
    if got["termination"] != ref["termination"]:
        errors.append(f"termination {got['termination']} != {ref['termination']}")
    for name, want in ref["final"].items():
        have = got["final"].get(name)
        if have is None or not _close(have, want, CSV_REL_TOL):
            errors.append(f"final {name} = {have!r}, reference {want!r}")
    if "c_star" in got and not _close(got["c_star"], ref["c_star"], C_STAR_REL_TOL):
        errors.append(f"c_star {got['c_star']!r} != {ref['c_star']!r}")
    return errors


def check_sweep_cells(header: list[str], rows: list[list[str]], ref: dict) -> list[str]:
    """One message per cell whose outcome differs from the reference.
    Blowup times may differ by one time step (plus the 6-digit rounding
    of the printed time)."""
    errors = []
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        return [f"sweep matrix shape/header differs: {header} vs {ref['header']}"] \
            * ref["cells"]
    for row, want_row in zip(rows, ref["rows"]):
        if len(row) != len(want_row) or row[0] != want_row[0]:
            errors.extend([f"sweep row {row[0]} malformed"] * (len(want_row) - 1))
            continue
        for have, want in zip(row[1:], want_row[1:]):
            th, tw = blowup_time(have), blowup_time(want)
            if th is not None and tw is not None:
                slack = ref["dt"] * 1.001 + 5e-6 * max(th, tw)
                if abs(th - tw) <= slack:
                    continue
            elif have == want:
                continue
            errors.append(f"sweep cell p={row[0]}: {have} != {want}")
    return errors


def check_validate_output(stdout: str, ref: dict) -> list[str]:
    m = re.search(r"(?m)^C\*\s+(\S+)$", stdout)
    if m is None:
        return ["validate printed no C* line"]
    c_star = float(m.group(1))
    if not _close(c_star, ref["c_star"], C_STAR_PRINTED_REL_TOL):
        return [f"validate C* {c_star!r} != {ref['c_star']!r}"]
    return []


def check_version_output(stdout: str) -> list[str]:
    if re.fullmatch(r"\d+\.\d+\.\d+\S*\n?", stdout) is None:
        return [f"--version printed {stdout!r}"]
    return []


def check_outputs(workload: str, ref: dict, out_dir: Path, name: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) for the files one command
    wrote. A run is one attempt; a sweep is one attempt per cell."""
    csv_path = out_dir / f"{name}.csv"
    if is_sweep(workload):
        header, rows = read_sweep_csv(csv_path)
        errors = check_sweep_cells(header, rows, ref)
        return ref["cells"], len(errors), errors
    got = summarize_run(csv_path, out_dir / f"{name}.manifest.json")
    errors = check_run_summary(got, ref)
    return 1, int(bool(errors)), errors
