"""`tools/bench_pairs.py` with a stubbed runner: run order alternates by seed,
the BENCH file keeps the earlier layout, and the summary counts the pairs the
change won in each metric's better direction.  No benchmark runs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _stub(calls, fail_at=None):
    """A runner whose change side is 10 % faster on every seed but seed 3."""
    def run(checkout, workload, seed, seconds):
        side = Path(checkout).name
        calls.append((side, workload, seed, seconds))
        if (side, seed) == fail_at:
            raise bench_pairs.RunFailed(f"{side} seed {seed}")
        speed = 1.1 if side == "change" and seed != 3 else 1.0
        metrics = {"tasks_per_s": {"value": 40.0 * speed + seed, "unit": "tasks/ref_s"},
                   "task_p50_s": {"value": 0.012 / speed, "unit": "ref_s"},
                   "solved_frac": {"value": 1.0, "unit": "ratio"}}
        return {"correct": True, "attempted": 56, "failed": 0, "metrics": metrics}
    return run


def _run(tmp_path, calls, seeds, fail_at=None):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir(exist_ok=True)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "cli-session", "--seeds", seeds,
                             "--out", str(out)],
                            run=_stub(calls, fail_at))
    return code, json.loads(out.read_text())


def test_pairs_alternate_and_keep_the_bench_layout(tmp_path):
    calls = []
    code, doc = _run(tmp_path, calls, "1-4")
    assert code == 0
    assert [(side, seed) for side, _, seed, _ in calls] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert {(w, s) for _, w, _, s in calls} == {("cli-session", 40)}
    assert set(doc) == {"description", "parent_commit", "change_commit", "host", "runs",
                        "summary"}
    # The commit fields name the sides; the writer replaces them by commits.
    assert (doc["parent_commit"], doc["change_commit"]) == ("parent", "change")
    assert {"python", "numpy", "blas_threads", "nproc"} <= set(doc["host"])
    assert [(r["side"], r["seed"]) for r in doc["runs"]] == [c[::2] for c in calls]
    run = doc["runs"][0]
    assert set(run) == {"set", "side", "commit", "workload", "seed", "trace", "last_line"}
    assert run["last_line"]["metrics"]["tasks_per_s"]["value"] == 41.0


def test_summary_counts_wins_in_each_metrics_direction(tmp_path):
    _, doc = _run(tmp_path, [], "1-4")
    tasks, p50, solved = (doc["summary"][m] for m in ("tasks_per_s", "task_p50_s",
                                                      "solved_frac"))
    # Higher is better for throughput, lower for latency; seed 3 is a tie.
    assert (tasks["change_better"], tasks["pairs"]) == (3, 4)
    assert (p50["change_better"], p50["pairs"]) == (3, 4)
    assert solved["change_better"] == 0
    assert tasks["parent"] == {"median": 42.5, "q1": 41.75, "q3": 43.25}
    assert tasks["change"]["median"] == pytest.approx(45.5)
    assert (tasks["unit"], tasks["better"], p50["better"]) == ("tasks/ref_s", "higher", "lower")
    # Metrics the runs did not report (setup_s, here) have no row.
    assert "setup_s" not in doc["summary"]
    assert "change better in 3 of 4" in doc["description"]


def test_a_failed_run_stops_after_writing_the_finished_pairs(tmp_path):
    calls = []
    code, doc = _run(tmp_path, calls, "1-3", fail_at=("parent", 2))
    assert code == 2
    assert [(r["side"], r["seed"]) for r in doc["runs"]] == [("parent", 1), ("change", 1)]
    assert calls[-1][:3:2] == ("parent", 2)


@pytest.mark.parametrize("text, seeds", [("301-303", [301, 302, 303]), ("7", [7])])
def test_seed_ranges(text, seeds):
    assert bench_pairs.seed_range(text) == seeds


def test_an_empty_seed_range_is_rejected():
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        bench_pairs.seed_range("5-4")
