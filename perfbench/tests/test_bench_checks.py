"""Reference checks of cli reports, and the host-speed probe.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402


def involution_report(passed_levels):
    comparisons = [{"level": n, "max_residual": 1e-12 if ok else 0.3, "passed": ok}
                   for n, ok in passed_levels]
    return json.dumps({"result": {"level": 1, "images": [], "bound_2K": 2.0,
                                  "entrywise_comparisons": comparisons}}).encode()


def test_involution_report_fails_on_one_failed_comparison():
    good = involution_report([(2, True), (3, True)])
    bad = involution_report([(2, True), (3, False)])
    assert workloads.check_report(0, good, False) == "ok"
    assert workloads.check_report(0, bad, False) == "report has passed != true"


def test_report_checks_exit_code_error_and_required_passed():
    ok = json.dumps({"result": {"passed": True}}).encode()
    assert workloads.check_report(0, ok, True) == "ok"
    assert workloads.check_report(1, ok, True) == "exit code 1, expected 0"
    missing = json.dumps({"result": {"dim": 3}}).encode()
    assert workloads.check_report(0, missing, True) == "report has no passed field"
    assert workloads.check_report(0, missing, False) == "ok"
    error = json.dumps({"error": "SchemaError"}).encode()
    assert workloads.check_report(0, error, True).startswith("error")


def test_speed_probe_samples_during_a_call_and_takes_its_own_time_out():
    probe = speed.SpeedProbe(time.perf_counter)
    handler = signal.getsignal(signal.SIGALRM)

    def spin():
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
        return "done"

    t0 = time.perf_counter()
    result, busy, factor = probe.time(spin)
    elapsed = time.perf_counter() - t0
    assert result == "done"
    # Before, after, and about every PERIOD_S in between.
    assert len(probe.samples) >= 4
    assert busy < elapsed - sum(probe.samples[1:-1]) + 1e-3
    assert factor > 0.0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_plain_timer_reports_wall_time_with_factor_one():
    result, seconds, factor = speed.plain_timer(time.perf_counter)(lambda: 7)
    assert (result, factor) == (7, 1.0)
    assert seconds >= 0.0
