"""Self time under nested spans, and traced runs that change no output.

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from matorder import cones, order_norms  # noqa: E402
from matorder.errors import NotSelfAdjoint  # noqa: E402


class TickClock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_children():
    # outer [0, 10] holds middle [1, 6] and inner2 [7, 9]; middle holds inner [2, 4].
    cols = {
        "start": np.array([0.0, 1.0, 2.0, 7.0]),
        "end": np.array([10.0, 6.0, 4.0, 9.0]),
        "parent": np.array([-1, 0, 1, 0]),
        "name": np.array([0, 1, 2, 2]),
        "task": np.array([0, 0, 0, 0]),
    }
    assert tracing.self_times(cols).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = tracing.Tracer(TickClock())
    inner = tracer.wrap(lambda: None, "algebra.inner", "algebra")
    middle = tracer.wrap(lambda: inner(), "cones.middle", "cones")
    outer = tracer.wrap(lambda: (middle(), inner()), "cli.outer", "cli")
    tracer.task_id = 0
    outer()
    cols = tracer.columns()
    assert cols["parent"].tolist() == [-1, 0, 1, 0]
    selfs = tracing.self_times(cols)
    dur = cols["end"] - cols["start"]
    # Self times partition the outermost span exactly.
    assert selfs.sum() == pytest.approx(dur[0])
    assert (selfs > 0).all()


def test_group_time_counts_nested_calls_once():
    names = ["cones.audit_matrix_ordered", "cones.audit_star_admissible", "cones.X.member"]
    cols = {
        "start": np.array([0.0, 1.0, 2.0, 20.0]),
        "end": np.array([10.0, 8.0, 3.0, 25.0]),
        "parent": np.array([-1, 0, 1, -1]),
        "name": np.array([0, 1, 2, 1]),
        "task": np.array([0, 0, 0, 0]),
    }
    got = tracing.group_stats(names, cols, cols["task"] >= 0)
    assert got["cones.audit"] == (3, 15.0)
    assert got["cones.member"] == (1, 1.0)


def test_typed_errors_count_once_where_they_leave_a_layer():
    tracer = tracing.Tracer(TickClock())

    def fail():
        raise NotSelfAdjoint("x")

    inner = tracer.wrap(fail, "order_norms.inner", "order_norms")
    outer = tracer.wrap(lambda: inner(), "order_norms.outer", "order_norms")
    caller = tracer.wrap(lambda: outer(), "cli.run", "cli")
    tracer.task_id = 0
    with pytest.raises(NotSelfAdjoint):
        caller()
    assert tracer.counts["order_norms.errors"] == 1
    assert tracer.counts["cli.errors"] == 1


def test_install_wraps_and_uninstall_restores():
    member = cones.StandardCone.member
    seminorm = order_norms.order_unit_seminorm
    eigvalsh = np.linalg.eigvalsh
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cones.StandardCone.member is not member
        assert order_norms.order_unit_seminorm is not seminorm
        assert np.linalg.eigvalsh is not eigvalsh
    assert cones.StandardCone.member is member
    assert order_norms.order_unit_seminorm is seminorm
    assert np.linalg.eigvalsh is eigvalsh


# A few tasks of each workload, cheap enough for a unit test.
SMALL = {"order-norms": 5, "similarity-recovery": 3, "cli-session": 6}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_changes_no_output(workload, tmp_path):
    def first_tasks():
        rounds = workloads.build(workload, 7, 1.0, str(tmp_path))
        tasks = rounds[0]
        if workload == "cli-session":
            # Skip the two heaviest commands.
            tasks = [t for t in tasks if t.kind not in ("kadison-demo", "check-cones-similarity")]
        return tasks[:SMALL[workload]]

    plain = [workloads.run_task(t, speed.plain_timer(time.perf_counter)) for t in first_tasks()]
    tracer = tracing.Tracer()
    with tracer.installed():
        tasks = first_tasks()
        tracer.task_id = 0
        traced = [workloads.run_task(t, speed.plain_timer(time.perf_counter)) for t in tasks]
    assert len(tracer.start) > 0
    for task, a, b in zip(tasks, plain, traced):
        assert workloads.same_output(a, b), task.task_id
    metrics = tracer.layer_metrics()
    assert metrics["linalg.eigensolves"][0] > 0
    if workload == "similarity-recovery":
        assert metrics["cones.member_calls"][0] == 0
        assert metrics["order_norms.norms"][0] == 0
    if workload == "order-norms":
        assert metrics["similarity.minimize_condition_s"][0] == 0.0
        assert metrics["order_norms.norms"][0] > 0
