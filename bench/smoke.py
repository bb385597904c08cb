"""Smoke check of the benchmark itself, so the harness cannot rot.

    python3 bench/smoke.py

Runs every workload in both modes with --smoke (tiny horizons, a 2 x 2
sweep, about a minute in all) and checks that each run is correct and
prints exactly the metrics BENCHMARK.json names, with their units. Then
checks that the benchmark refuses, with a non-zero exit and no result
line, to run in a directory that holds only BENCHMARK.json and bench/.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common

RUN = str(common.BENCH_DIR / "run.py")


def check_run(workload: str, trace: int, spec: dict) -> None:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "1",
            "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=common.ROOT, timeout=300)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: not correct: {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{label}: metrics {got} != {wanted}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit(f"{label}: {name} = {value!r}")
        if not trace and value <= 0:
            raise SystemExit(f"{label}: end-to-end metric {name} = {value!r}")
    print(f"ok  {label}")


def check_refuses_bare_directory() -> None:
    out_root = common.ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        bare = Path(tmp)
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "semilinear_p11",
                               "--seed", "1", "--seconds", "2", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  refuses a directory without the package")


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_refuses_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
