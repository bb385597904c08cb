import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "speed", "better": "higher", "bound": 0.25},
                       {"name": "time", "better": "lower", "bound": 0.25}]}


def fabricated_pairs(parent, change, name="speed"):
    return [{"parent": {name: {"value": p}}, "change": {name: {"value": c}}}
            for p, c in zip(parent, change)]


class TestSummary:
    def test_quartiles_interpolate_linearly(self):
        assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
        assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_clear_gain_meets_the_claim(self):
        parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
        change = [p * 1.5 for p in parent]
        s = bench_pairs.summarize_metric(parent, change, "higher")
        assert s["wins"] == 10 and s["claim_met"]
        assert s["parent"]["median"] == 100.0 and s["change"]["median"] == 150.0
        assert s["gap"] == 50.0 and s["parent_iqr"] == pytest.approx(2.0)
        assert s["ratio"] == 1.5 and not s["beyond_bound"]

    def test_nine_of_ten_is_enough_and_eight_is_not(self):
        parent = [100.0 + i for i in range(10)]
        change = [p + 20.0 for p in parent]
        change[0] = 90.0
        assert bench_pairs.summarize_metric(parent, change, "higher")["claim_met"]
        change[1] = 90.0
        s = bench_pairs.summarize_metric(parent, change, "higher")
        assert s["wins"] == 8 and not s["claim_met"]

    def test_gap_inside_the_parent_iqr_is_no_claim(self):
        parent = [90.0, 110.0] * 5  # IQR 20
        change = [p + 10.0 for p in parent]
        s = bench_pairs.summarize_metric(parent, change, "higher")
        assert s["wins"] == 10 and s["gap"] == 10.0 and s["parent_iqr"] == 20.0
        assert not s["claim_met"]

    def test_lower_is_better_direction(self):
        parent = [2.0 + 0.01 * i for i in range(10)]
        faster = [p - 0.5 for p in parent]
        s = bench_pairs.summarize(fabricated_pairs(parent, faster, "time"),
                                  {"end_to_end": [SPEC["end_to_end"][1]]})["time"]
        assert s["wins"] == 10 and s["claim_met"] and s["gap"] > 0
        slower = [p * 1.3 for p in parent]
        s = bench_pairs.summarize_metric(parent, slower, "lower", bound=0.25)
        assert s["wins"] == 0 and not s["claim_met"] and s["beyond_bound"]
        s = bench_pairs.summarize_metric(parent, [p * 1.2 for p in parent], "lower", 0.25)
        assert not s["beyond_bound"]

    def test_every_metric_of_the_spec_is_summarized_and_formatted(self):
        pairs = [{side: {"speed": {"value": v}, "time": {"value": 1.0 / v}}
                  for side, v in (("parent", 10.0 + 0.1 * i), ("change", 15.0 + 0.1 * i))}
                 for i in range(10)]
        summary = bench_pairs.summarize(pairs, SPEC)
        assert set(summary) == {"speed", "time"}
        assert summary["speed"]["claim_met"] and summary["time"]["claim_met"]
        lines = bench_pairs.format_summary(summary)
        assert len(lines) == 3 and all("claim met" in line for line in lines[1:])

    def test_mismatched_samples_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.summarize_metric([1.0, 2.0], [1.0], "higher")


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run_one(side, seed):
        calls.append((side, seed))
        return {"speed": {"value": float(seed)}}
    pairs = bench_pairs.run_pairs(4, run_one, seed=100)
    assert calls == [("parent", 100), ("change", 100), ("change", 101), ("parent", 101),
                     ("parent", 102), ("change", 102), ("change", 103), ("parent", 103)]
    assert [p["parent"]["speed"]["value"] for p in pairs] == [100.0, 101.0, 102.0, 103.0]


def test_several_workloads_give_one_table_each_and_fail_on_a_bound(tmp_path, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(SPEC))
    # "steady" gains on both metrics; "slower" takes 1.3x the parent's time
    factors = {"steady": (1.5, 0.9), "slower": (1.0, 1.3)}
    seen = []

    def runner(checkouts, workload, seconds):
        assert set(checkouts) == {"parent", "change"} and seconds == 2.0

        def run_one(side, seed):
            seen.append((workload, side, seed))
            speed, time = factors[workload] if side == "change" else (1.0, 1.0)
            return {"speed": {"value": speed * (10.0 + seed)},
                    "time": {"value": time * (1.0 + 0.01 * seed)}}
        return run_one

    def main(workloads, out):
        return bench_pairs.main(["--parent", str(tmp_path), "--change", str(change),
                                 "--workload", workloads, "--pairs", "3", "--seconds", "2",
                                 "--seed", "7", "--json", str(out)], runner=runner)

    assert main("steady,slower", tmp_path / "both.json") == 1
    assert [s for w, _, s in seen if w == "steady"] == [s for w, _, s in seen if w == "slower"]
    assert [w for w, _, _ in seen] == ["steady"] * 6 + ["slower"] * 6
    lines = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(lines) if "alternating pairs" in line]
    assert [lines[i].split(":")[0] for i in heads] == ["steady", "slower"]
    assert heads[1] - heads[0] == 4  # a heading, a header row and one row per metric
    assert "WORSE BEYOND BOUND" not in "".join(lines[:heads[1]])
    assert "WORSE BEYOND BOUND" in lines[-1] and lines[-1].startswith("time")
    saved = json.loads((tmp_path / "both.json").read_text())
    assert list(saved) == ["steady", "slower"]
    for result in saved.values():
        assert set(result) == {"pairs", "summary"} and len(result["pairs"]) == 3
        assert set(result["summary"]) == {"speed", "time"}
    assert saved["steady"]["summary"]["speed"]["claim_met"]
    assert saved["slower"]["summary"]["time"]["beyond_bound"]

    assert main("steady", tmp_path / "steady.json") == 0
    assert list(json.loads((tmp_path / "steady.json").read_text())) == ["steady"]
