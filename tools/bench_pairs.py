"""Paired benchmark runs of two checkouts, and the summary a speed claim needs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME[,NAME...] \
        [--pairs 10] [--seconds 50] [--seed 101] [--json FILE]

Runs `python3 bench/run.py --workload NAME --seed N --seconds S` in each
checkout (each benchmarks its own src/), once per side for every pair,
and alternates which side goes first so that host drift hits both alike.
Pair i uses seed N + i on both sides. The workloads of a comma-separated
list run one after the other, each with the same seeds. Then, for every
workload, it prints a table: for every end-to-end metric BENCHMARK.json
names, each side's median and quartiles, the change's win count (the
direction is the metric's "better"), the median gap against the parent's
interquartile range and the claim verdict: the change wins at least nine
pairs in ten and its median beats the parent's by more than that range.
A median worse than the parent's by more than the metric's bound is
flagged, and then the exit status is 1. --json saves
{workload: {pairs, summary}}. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize_metric(parent: list[float], change: list[float], better: str,
                     bound: float | None = None) -> dict:
    """The paired comparison of one metric; parent[i] and change[i] are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of samples on both sides")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (c_med - p_med)  # > 0: the change is better
    iqr = p_q3 - p_q1
    worse_share = -gap / abs(p_med) if p_med else 0.0
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "ratio": c_med / p_med if p_med else math.nan,
        "pairs": len(parent),
        "wins": wins,
        "gap": gap,
        "parent_iqr": iqr,
        "claim_met": wins >= math.ceil(WIN_SHARE * len(parent)) and gap > iqr,
        "beyond_bound": bound is not None and worse_share > bound,
    }


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per-metric summaries of pairs [{"parent": metrics, "change": metrics}],
    each metrics dict as bench/run.py's result line has it."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        samples = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        out[name] = summarize_metric(samples["parent"], samples["change"],
                                     metric["better"], metric.get("bound"))
    return out


def format_summary(summary: dict) -> list[str]:
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio",
             "wins", "gap / parent IQR", "verdict")]
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        verdict = "claim met" if s["claim_met"] else "no claim"
        if s["beyond_bound"]:
            verdict += "; WORSE BEYOND BOUND"
        rows.append((name, f"{p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]",
                     f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]",
                     f"{s['ratio']:.4f}", f"{s['wins']}/{s['pairs']}",
                     f"{s['gap']:.4g} / {s['parent_iqr']:.4g}", verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def run_pairs(n: int, run_one: Callable[[str, int], dict], seed: int) -> list[dict]:
    """n pairs of run_one(side, seed); even pairs run the parent first."""
    pairs = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({side: run_one(side, seed + i) for side in order})
    return pairs


def bench_runner(checkouts: dict[str, Path], workload: str, seconds: float):
    def run_one(side: str, seed: int) -> dict:
        argv = [sys.executable, "bench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(argv, cwd=checkouts[side], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{side} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{side} seed {seed}: not correct: {result}")
        print(f"  {side:6s} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        return result["metrics"]
    return run_one


def main(argv=None, runner=bench_runner) -> int:
    """runner(checkouts, workload, seconds) gives the run_one of a workload."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, help="comma-separated names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--json", type=Path, default=None, help="save samples and summary")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {}
    for workload in args.workload.split(","):
        pairs = run_pairs(args.pairs, runner(checkouts, workload, args.seconds), args.seed)
        results[workload] = {"pairs": pairs, "summary": summarize(pairs, spec)}
    for workload, result in results.items():
        print(f"{workload}: {args.pairs} alternating pairs, --seconds {args.seconds:g}")
        print("\n".join(format_summary(result["summary"])))
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    worse = any(s["beyond_bound"] for r in results.values() for s in r["summary"].values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
