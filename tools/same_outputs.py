"""Check that two checkouts write the same run and sweep outputs.

    python3 tools/same_outputs.py --parent DIR --change DIR

From each checkout, with its own src/ on PYTHONPATH and
OPENBLAS_NUM_THREADS=1, runs `dampedwave run` and `dampedwave validate
--json` on every configs/*.cfg of that checkout and on the DERIVED
copies of its configs (validate's stdout is saved as <config
stem>.validate.txt):
- linear_offcentre.cfg, linear_demo.cfg with u0_center = 0.5, marches
  the whole line where every committed config marches the half line;
- semilinear_toggle.cfg, semilinear_demo.cfg with u0_amplitude = 0.12,
  keeps |u|^p until t ~ 25 and skips it as negligible after that.
Then it runs the sweep_pxI0 command line of the change's bench/common.py
three times: with --workers 2 (the calling process and one it forks,
sharing the ticket pipe of cells; outputs named sweep_pxI0), with
--workers 3 (the calling process and two forked ones,
sweep_pxI0_workers3) and with --workers 1 (the in-process map,
sweep_pxI0_workers1). Last it runs ERROR_SWEEP, a small
sweep whose cells end in error tokens (outputs named sweep_errors): its
p = 0.5 row fails the power check, and its V0 = 5e-324 leaves V zero
off the core, so no data there can be scaled to a positive I0. Then,
for each REFUSED copy of linear_demo.cfg, it runs validate and run
--out into a directory not made yet, and writes <copy stem>.refused.txt:
the exit statuses, the last line each command printed to stdout and to
stderr, whether run left that directory behind, and the distinct
warnings both printed (category and message, without file or line).
It prints one line per output file: "identical" when the bytes agree;
for a CSV that differs, the column with the largest relative difference
and the number of cells that differ; for a JSON file (and the JSON
report that ends a validate output), the key with the largest relative
difference, the number of values that differ and the keys written on
one side only; for other text, the lines written on one side only. A
file written on one side only, or a command whose exit status differs,
counts as a difference. Exits 1 on any difference, else 0. Outputs go
to a temporary directory. Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SWEEP_WORKLOAD = "sweep_pxI0"
# the benchmark sweep's --workers values and output names: the calling
# process with one and with two forked processes, and the in-process map
SWEEPS = {"2": SWEEP_WORKLOAD, "3": f"{SWEEP_WORKLOAD}_workers3",
          "1": f"{SWEEP_WORKLOAD}_workers1"}
# dampedwave sweep options whose cells give error(ConfigError),
# error(HypothesisError) and bounded tokens, and the outputs' name
ERROR_SWEEP = (["--p", "0.5,3", "--i0", "0,1e-3", "--V0", "5e-324", "--dx", "0.1",
                "--t-end", "2", "--workers", "2"], "sweep_errors")
# copies of a committed config with lines changed, by file name: the
# config and, by key, the new text after "key = " (a newline in it adds
# lines after the key's)
DERIVED = {
    "linear_offcentre.cfg": ("linear_demo.cfg", {"u0_center": "0.5"}),
    "semilinear_toggle.cfg": ("semilinear_demo.cfg", {"u0_amplitude": "0.12"}),
}
# copies that validate and run must refuse (exit 2) without making --out:
# u1 beyond the blowup threshold, a weighted data norm beyond float range
# (V ~ 1e-300), and a grid whose CFL step rounds to 0
REFUSED = {
    "refused_u1.cfg": ("linear_demo.cfg",
                       {"u1_kind": "gaussian\nu1_amplitude = 1e12\nu1_width = 1.5"}),
    "refused_weighted_norm.cfg": ("linear_demo.cfg", {"V0": "1e-300", "u0_amplitude": "1e5"}),
    "refused_cfl.cfg": ("linear_demo.cfg", {"x_min": "-1e160", "x_max": "1e160",
                                            "n_cells": "4"}),
}


# a warning as Python prints it: "<file>:<line>: <category>: <message>"
WARNING_LINE = re.compile(r"^.+:\d+: (\w*Warning): (.*)$", re.MULTILINE)


def sweep_args(checkout: Path) -> list[str]:
    """The benchmark sweep's dampedwave options, from bench/common.py."""
    spec = importlib.util.spec_from_file_location("bench_common", checkout / "bench" / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    return list(common.WORKLOADS[SWEEP_WORKLOAD]["sweep"])


def derived_configs(checkout: Path, directory: Path, table: dict = DERIVED) -> list[Path]:
    """Write the copies in table (DERIVED or REFUSED) of the checkout's
    configs into directory; returns their paths in the table's order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, (source, edits) in table.items():
        text = (checkout / "configs" / source).read_text()
        for key, value in edits.items():
            text, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
            if count != 1:
                raise ValueError(f"{checkout}: {source} has {count} {key} lines, not one")
        path = directory / name
        path.write_text(text)
        paths.append(path)
    return paths


def commands(checkout: Path, out_dir: Path, sweep: list[str],
             derived: list[Path]) -> list[list[str]]:
    """dampedwave argument lists: one run per config and derived config,
    one validate --json per config and derived config, one sweep per
    SWEEPS entry, then ERROR_SWEEP."""
    out = ["--out", str(out_dir)]
    configs = sorted((checkout / "configs").glob("*.cfg")) + derived
    runs = [["run", str(path), *out] for path in configs]
    validates = [["validate", str(path), "--json"] for path in configs]
    sweeps = [["sweep", *sweep, "--workers", workers, *out, "--name", name]
              for workers, name in SWEEPS.items()]
    options, name = ERROR_SWEEP
    return runs + validates + sweeps + [["sweep", *options, *out, "--name", name]]


def dampedwave(checkout: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """`dampedwave <argv>` from checkout, with its src/ and one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "DAMPEDWAVE_OUT"}
    env.update(PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "dampedwave.cli", *argv], cwd=checkout,
                          env=env, capture_output=True, text=True)


def probe_refusals(checkout: Path, out_dir: Path) -> dict[str, int]:
    """Run validate, and run with an --out that does not exist yet, on each
    REFUSED copy; exit status by command. Writes <copy stem>.refused.txt
    into out_dir: per command its exit status and the last lines of its
    stdout and stderr, then whether run left its --out directory, then
    the distinct warnings of both commands in the order first printed."""
    configs = derived_configs(checkout, out_dir.with_name(f"{out_dir.name}-configs"), REFUSED)
    codes = {}
    for path in configs:
        fresh = out_dir.with_name(f"{out_dir.name}-refused") / path.stem
        lines, warned = [], {}
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(fresh)]):
            proc = dampedwave(checkout, argv)
            codes[f"{argv[0]} {path.name}"] = proc.returncode
            last = [(text.strip().splitlines() or [""])[-1] for text in (proc.stdout, proc.stderr)]
            lines.append(f"{argv[0]}: exit {proc.returncode}; stdout {last[0]!r}; "
                         f"stderr {last[1]!r}")
            warned.update(dict.fromkeys(warning_messages(proc.stderr)))
        lines.append(f"run --out left: {'yes' if fresh.exists() else 'no'}")
        lines.append(f"warnings: {'; '.join(warned) or 'none'}")
        (out_dir / f"{path.stem}.refused.txt").write_text("\n".join(lines) + "\n")
    return codes


def warning_messages(stderr: str) -> list[str]:
    """The distinct "<category>: <message>" of the warnings in stderr, in
    the order first printed."""
    return list(dict.fromkeys(f"{m[1]}: {m[2]}" for m in WARNING_LINE.finditer(stderr)))


def write_outputs(checkout: Path, out_dir: Path, sweep: list[str]) -> dict[str, int]:
    """Run every command from checkout into out_dir; exit status by command."""
    out_dir.mkdir(parents=True, exist_ok=True)
    derived = derived_configs(checkout, out_dir.with_name(f"{out_dir.name}-configs"))
    codes = {}
    for argv in commands(checkout, out_dir, sweep, derived):
        proc = dampedwave(checkout, argv)
        label = f"{argv[0]} {argv[-1] if argv[0] == 'sweep' else Path(argv[1]).name}"
        codes[label] = proc.returncode
        if argv[0] == "validate":  # exits 2 where a hypothesis fails
            (out_dir / f"{Path(argv[1]).stem}.validate.txt").write_text(proc.stdout)
        elif proc.returncode not in (0, 3):
            sys.stderr.write(f"{checkout}: dampedwave {label} exited {proc.returncode}\n"
                             f"{proc.stderr}")
    return codes


def _cell(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _relative(x, y) -> float:
    """|x - y| / max(|x|, |y|) for two finite numbers; inf for anything
    else (text, NaN, a number against text)."""
    if all(type(v) in (int, float) and math.isfinite(v) for v in (x, y)):
        return abs(x - y) / max(abs(x), abs(y))
    return math.inf


def csv_difference(a: str, b: str) -> str:
    """Where two CSV texts differ: header, row count, or the column with
    the largest relative difference |x - y| / max(|x|, |y|) and the count
    of differing cells (a text cell such as a sweep outcome differs
    whole, relative difference inf)."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return "headers differ"
    if len(rows_a) != len(rows_b) or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
        return f"shapes differ ({len(rows_a) - 1} vs {len(rows_b) - 1} rows)"
    header = rows_a[0]
    worst = {name: 0.0 for name in header}
    cells = 0
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(header, row_a, row_b):
            if x == y:
                continue
            cells += 1
            worst[name] = max(worst[name], _relative(_cell(x), _cell(y)))
    name = max(header, key=lambda n: worst[n])
    return f"largest relative difference {worst[name]:.3g} in column {name} ({cells} cells differ)"


def _leaves(value, key: str = "") -> dict:
    """The leaves of a JSON value by dotted key; list items by index."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        out = {}
        for k, v in items:
            out.update(_leaves(v, f"{key}.{k}" if key else str(k)))
        return out
    return {key: value}


def json_difference(a: str, b: str) -> str:
    """Where two JSON texts differ: the key with the largest relative
    difference and the count of values that differ, then the keys
    written on one side only."""
    leaves = _leaves(json.loads(a)), _leaves(json.loads(b))
    differ = {key: _relative(leaves[0][key], leaves[1][key])
              for key in sorted(leaves[0].keys() & leaves[1].keys())
              if leaves[0][key] != leaves[1][key]}
    parts = []
    if differ:
        key = max(differ, key=differ.get)
        parts.append(f"largest relative difference {differ[key]:.3g} in key {key} "
                     f"({len(differ)} values differ)")
    for side, mine, other in zip(SIDES, leaves, reversed(leaves)):
        if only := sorted(mine.keys() - other.keys()):
            parts.append(f"keys only in the {side}: {', '.join(only)}")
    return "; ".join(parts) or "same values, other formatting"


def text_difference(a: str, b: str) -> str:
    """Where two texts differ: the lines written on one side only, the first
    of each quoted; a last line holding JSON on both sides (validate
    --json's report) is compared by json_difference."""
    lines = a.splitlines(), b.splitlines()
    report = []
    if all(side and side[-1].startswith("{") for side in lines):
        reports = [side.pop() for side in lines]
        if reports[0] != reports[1]:
            report.append(f"JSON line: {json_difference(*reports)}")
    only = ([], [])
    matcher = difflib.SequenceMatcher(None, *lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            only[0].extend(lines[0][i1:i2])
            only[1].extend(lines[1][j1:j2])
    parts = [f"{len(mine)} lines only in the {side}, the first {' '.join(mine[0].split())!r}"
             for side, mine in zip(SIDES, only) if mine]
    return "; ".join(parts + report) or "same lines, other line ends"


def compare_dirs(parent: Path, change: Path) -> list[tuple[str, str | None]]:
    """(file name, None if byte-identical else what differs) for every
    file either directory holds, sorted by name."""
    names = sorted({p.name for d in (parent, change) for p in d.iterdir() if p.is_file()})
    out = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            out.append((name, f"written by the {'change' if b.exists() else 'parent'} only"))
            continue
        raw_a, raw_b = a.read_bytes(), b.read_bytes()
        if raw_a == raw_b:
            out.append((name, None))
            continue
        text_a, text_b = raw_a.decode(errors="replace"), raw_b.decode(errors="replace")
        diff = {".csv": csv_difference, ".json": json_difference}.get(a.suffix, text_difference)
        out.append((name, diff(text_a, text_b)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sweep = sweep_args(checkouts["change"])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        codes = {side: write_outputs(checkouts[side], root / side, sweep)
                 | probe_refusals(checkouts[side], root / side) for side in SIDES}
        results = compare_dirs(root / "parent", root / "change")
    failed = False
    for command in sorted(set(codes["parent"]) | set(codes["change"])):
        a, b = codes["parent"].get(command), codes["change"].get(command)
        if a != b:
            failed = True
            print(f"{command}: exit status {a} vs {b}")
    for name, diff in results:
        failed |= diff is not None
        print(f"{name}: {'identical' if diff is None else diff}")
    print("outputs differ" if failed else "all outputs byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
