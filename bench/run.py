"""Benchmark of the dampedwave command-line lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-reference

Workloads (see common.WORKLOADS and BENCHMARK.json for why each exists):
semilinear_p11 runs `dampedwave run` on the semilinear demo config;
sweep_pxI0 runs an 8 x 5 `dampedwave sweep` on a pool of 2 workers. Every
input is a fixed file or command line, so --seed only labels the run:
the same seed (and every other) gives the same inputs.

Every command runs with OPENBLAS_NUM_THREADS=1 (BLAS_THREADS): with
the default of one BLAS thread per core, the 10,813-node Recorder dot
products and the sweep's two pool workers each run more threads than
the host has cores, which times the scheduler more than the program.

Untraced (--trace 0): for S seconds, rounds of two fresh interpreters:
the set-up command (`dampedwave validate <cfg>`, or `dampedwave
--version` for the sweep, which has no config and no C*), then the
workload command through timed_cli.py, which is the console script plus
a stopwatch on the marching call. The first round is an untimed
warm-up. Medians over the timed rounds:
  run_s             wall time of the workload command
  setup_s           wall time of the set-up command
  node_steps_per_s  nodes x steps marched per second of the marching call
                    (`solver.run`, after set-up; the pooled sweep call)
  cells_per_s       cells per second of the same call; a run is one cell
  peak_rss_mb       summed peak RSS of the command and its pool workers
Every output is checked against reference.json; a failed command or
check counts in `failed` (per cell for the sweep) and makes `correct`
false. All repeats of a workload must write byte-identical CSVs.

Traced (--trace 1): the import time of a fresh `import dampedwave.cli`
(median of 3), then two traced passes in fresh interpreters
(inproc.py trace). Per-layer metrics are the means of the two passes;
the exact counts must agree between them. Metrics that exist only on
some workloads (C* timings, output writing, pool efficiency) are printed
in the report lines and saved in the result file.

Results, samples, spans and the environment go to
.bench_out/<workload>-seed<N>-trace<T>.json. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
with their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import common

PYTHON = sys.executable
OUT_ROOT = common.ROOT / ".bench_out"
INPROC = str(common.BENCH_DIR / "inproc.py")
TIMED_CLI = str(common.BENCH_DIR / "timed_cli.py")

# A whole run never legitimately takes this long; a command still running
# past it is killed with its process group and the run fails.
RUN_LIMIT_S = 170.0
_STARTED = time.perf_counter()
# Peak-RSS polling period: pool workers live for the whole sweep, so a
# coarse poll still sees their peak, and it steals little CPU from them.
POLL_S = 0.05
BLAS_THREADS = "1"
IMPORT_SAMPLES = 3
TRACE_PASSES = 2

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "node_steps_per_s": "node-steps/s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MiB",
}


class CommandFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    src = str(common.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _tree(pid: int) -> list[int]:
    """pid and its descendants, from /proc/<pid>/task/*/children."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def _peak_rss_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Measured(NamedTuple):
    returncode: int
    wall: float
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_command(argv: list[str], work_dir: Path) -> Measured:
    """Run argv in a new session; return its wall time, output and the sum
    over the process tree of each process's peak RSS (VmHWM, which only
    grows, polled every POLL_S; the main process's own figure comes from
    wait4 when it had no children). The process group is killed on
    timeout or error."""
    timeout = RUN_LIMIT_S - (time.perf_counter() - _STARTED)
    out_path, err_path = work_dir / "cmd.stdout", work_dir / "cmd.stderr"
    hwm: dict[int, int] = {}
    stop = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=common.ROOT,
                                env=child_env(), start_new_session=True)

        def poll() -> None:
            while not stop.is_set():
                for p in _tree(proc.pid):
                    kb = _peak_rss_kb(p)
                    if kb is not None:
                        hwm[p] = max(hwm.get(p, 0), kb)
                if time.perf_counter() - t0 > timeout:
                    _kill_group(proc.pid)
                stop.wait(POLL_S)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            stop.set()
            poller.join()
            if proc.returncode is None:
                _kill_group(proc.pid)
                proc.wait()
            _kill_group(proc.pid)  # stray pool workers of a crashed command
    main_kb = hwm.get(proc.pid, 0)
    if len(hwm) <= 1:
        main_kb = max(main_kb, usage.ru_maxrss)
    total_kb = main_kb + sum(kb for p, kb in hwm.items() if p != proc.pid)
    return Measured(proc.returncode, wall, out_path.read_text(), err_path.read_text(),
                    total_kb / 1024.0)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_json(argv: list[str], work_dir: Path) -> dict:
    """Run a helper that prints JSON on its last line; raise on failure."""
    m = run_command(argv, work_dir)
    lines = m.stdout.strip().splitlines()
    if m.returncode != 0 or not lines:
        raise CommandFailed(f"{' '.join(argv[1:4])} exited {m.returncode}: "
                            f"{m.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cli_argv(*args: str) -> list[str]:
    return [PYTHON, "-c", common.ENTRY, *args]


# ---------------------------------------------------------------------------
# untraced run
# ---------------------------------------------------------------------------

def setup_command(workload: str, smoke: bool, work_dir: Path) -> list[str]:
    if common.is_sweep(workload):
        return cli_argv("--version")
    return cli_argv("validate", str(common.config_path(workload, smoke, work_dir)))


def workload_command(workload: str, smoke: bool, work_dir: Path) -> list[str]:
    """The workload's dampedwave command, through timed_cli.py."""
    return [PYTHON, TIMED_CLI, str(work_dir / "timing.json"),
            *common.command_args(workload, smoke, work_dir, "fresh")]


def work_done(workload: str, ref: dict, work_dir: Path) -> tuple[int, int]:
    """(node-steps, cells) of the command that just wrote work_dir/fresh.*"""
    if common.is_sweep(workload):
        _, rows = common.read_sweep_csv(work_dir / "fresh.csv")
        return common.sweep_node_steps(rows, ref), ref["cells"]
    manifest = json.loads((work_dir / "fresh.manifest.json").read_text())
    return (manifest["grid"]["n_cells"] + 1) * manifest["time"]["n_steps"], 1


def untraced(workload: str, seconds: float, smoke: bool, work_dir: Path) -> dict:
    ref = common.load_reference(workload, smoke)
    attempted, failed, errors = 0, 0, []
    samples = {name: [] for name in END_TO_END_UNITS}
    digests = set()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        rounds += 1
        got = {}
        m = run_command(setup_command(workload, smoke, work_dir), work_dir)
        attempted += 1
        if m.returncode != 0:
            errs = [f"set-up command exited {m.returncode}: {m.stderr.strip()[-500:]}"]
        elif common.is_sweep(workload):
            errs = common.check_version_output(m.stdout)
        else:
            errs = common.check_validate_output(m.stdout, ref)
        failed += bool(errs)
        errors += errs
        got["setup_s"] = m.wall

        m = run_command(workload_command(workload, smoke, work_dir), work_dir)
        if m.returncode != 0:
            n = ref.get("cells", 1)
            attempted += n
            failed += n
            errors.append(f"workload command exited {m.returncode}: {m.stderr.strip()[-500:]}")
        else:
            n, bad, errs = common.check_outputs(workload, ref, work_dir, "fresh")
            attempted += n
            failed += bad
            errors += errs
            digests.add(hashlib.sha256((work_dir / "fresh.csv").read_bytes()).hexdigest())
            (march_s,) = json.loads((work_dir / "timing.json").read_text())["march_s"]
            node_steps, cells = work_done(workload, ref, work_dir)
            got["node_steps_per_s"] = node_steps / march_s
            got["cells_per_s"] = cells / march_s
        got["run_s"] = m.wall
        got["peak_rss_mb"] = m.peak_rss_mb
        # the first round is a warm-up (page cache, CPU caches and clock
        # after the previous run): checked like the others but not timed
        if rounds > 1:
            for name, value in got.items():
                samples[name].append(value)

    if len(digests) > 1:
        failed += 1
        errors.append(f"repeats wrote {len(digests)} different CSVs")
    if not samples["node_steps_per_s"]:
        raise CommandFailed(f"no run of {workload} succeeded: {errors[:3]}")
    return {
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": {k: (statistics.median(v), END_TO_END_UNITS[k]) for k, v in samples.items()},
        "samples": samples,
        "env": run_json([PYTHON, INPROC, "env"], work_dir),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import dampedwave.cli; "
                "print(time.perf_counter() - t)")


def traced(workload: str, smoke: bool, work_dir: Path) -> dict:
    imports = []
    for _ in range(IMPORT_SAMPLES):
        m = run_command([PYTHON, "-c", IMPORT_PROBE], work_dir)
        if m.returncode != 0:
            raise CommandFailed(f"import dampedwave.cli failed: {m.stderr.strip()[-2000:]}")
        imports.append(float(m.stdout.strip().splitlines()[-1]))

    argv = [PYTHON, INPROC, "trace", workload, "--out", str(work_dir)]
    passes = [run_json(argv + (["--smoke"] if smoke else []), work_dir)
              for _ in range(TRACE_PASSES)]
    attempted = sum(p["attempted"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    counts = [p.get("exact_counts") for p in passes]
    if any(c != counts[0] for c in counts[1:]):
        errors.append(f"exact counts differ between traced passes: {counts}")
    if errors or any("metrics" not in p for p in passes):
        return {"attempted": attempted, "failed": max(len(errors), 1), "errors": errors,
                "metrics": {}, "passes": passes, "env": passes[0]["env"]}

    def mean_over_passes(key: str) -> dict:
        # counts agree between passes (checked above), so their mean is exact
        out = {}
        for name, (value, unit) in passes[0][key].items():
            if name not in passes[0]["exact_counts"]:
                value = statistics.fmean(p[key][name][0] for p in passes)
            out[name] = (value, unit)
        return out

    metrics = {"import.dampedwave_s": (statistics.median(imports), "s")}
    metrics.update(mean_over_passes("metrics"))
    return {
        "attempted": attempted, "failed": 0, "errors": [],
        "metrics": metrics,
        "report": mean_over_passes("report"),
        "samples": {"import.dampedwave_s": imports},
        "passes": passes,
        "env": passes[0]["env"],
    }


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def host_environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((common.ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(common.ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _git_commit() -> str | None:
    if shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def missing_files() -> list[str]:
    needed = ("src/dampedwave/cli.py", "bench/reference.json",
              *(w["config"] for w in common.WORKLOADS.values() if "config" in w))
    return [p for p in needed if not (common.ROOT / p).is_file()]


def write_reference() -> int:
    refs = {}
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        for workload in common.WORKLOADS:
            for smoke in (False, True):
                argv = [PYTHON, INPROC, "reference", workload, "--out", tmp]
                refs[common.reference_key(workload, smoke)] = run_json(
                    argv + (["--smoke"] if smoke else []), Path(tmp))
    common.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so run_command's cleanup kills the
    # command's process group (it runs in a session of its own)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="dampedwave benchmark")
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons and a 2 x 2 sweep, for the smoke check")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from this tree's outputs")
    args = parser.parse_args(argv)

    missing = missing_files()
    if missing and not (args.write_reference and missing == ["bench/reference.json"]):
        print(f"benchmark: not a dampedwave checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        if args.trace:
            result = traced(args.workload, args.smoke, work_dir)
        else:
            result = untraced(args.workload, args.seconds, args.smoke, work_dir)
    except CommandFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result["env"] = {**host_environment(), **result["env"]}
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke)
    record = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}" \
                        f"{'-smoke' if args.smoke else ''}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")

    for name, (value, unit) in {**result["metrics"], **result.get("report", {})}.items():
        print(f"{name:36s} {value:.6g} {unit}")
    for err in result["errors"][:20]:
        print(f"FAILED: {err}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    correct = result["failed"] == 0 and not result["errors"] and bool(result["metrics"])
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
