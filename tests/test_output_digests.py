"""The float-free and number-free digests of `tools/output_digests.py`:
last-bit float changes share the first, moved numerals inside detail strings
the second; a changed verdict, flag, count or exit code shares neither."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from conftest import load_workloads
from matorder.serialization import canonical_json

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def _cli_output(passed=True, value=0.1 + 0.2, code=0, verdict="pass", detail="e in C_1"):
    report = {"result": {"passed": passed, "r4": value,
                         "checks": [{"name": "pointedness-level-2", "verdict": verdict,
                                     "detail": detail}]}}
    return ("exit", code, json.dumps(report).encode())


def test_float_changes_share_the_float_free_digest():
    a, b = _cli_output(value=0.30000000000000004), _cli_output(value=0.3)
    full_a, free_a, _ = output_digests.digests(a)
    full_b, free_b, _ = output_digests.digests(b)
    assert full_a != full_b
    assert free_a == free_b
    # Task tuples carry floats outside any report too.
    assert (output_digests.digests(("seminorm", 1.0, 0, 3))[1]
            == output_digests.digests(("seminorm", 1.0000000000000002, 0, 3))[1])


def test_a_report_float_moving_off_zero_keeps_the_float_free_digest():
    # The report writer writes 0.0 as "0.0", not as the integer "0".
    a, b = (("exit", 0, canonical_json({"r": {"x": x}}).encode()) for x in (0.0, -1e-17))
    assert output_digests.digests(a)[0] != output_digests.digests(b)[0]
    assert output_digests.digests(a)[1] == output_digests.digests(b)[1]


def test_flags_verdicts_counts_and_exit_codes_stay_in_the_float_free_digest():
    free = output_digests.digests(_cli_output())[1]
    for other in (_cli_output(passed=False), _cli_output(verdict="fail"),
                  _cli_output(code=2), ("seminorm", 1.0, 0, 3)):
        assert output_digests.digests(other)[1] != free
    assert (output_digests.digests(("seminorm", 1.0, 0, 3))[1]
            != output_digests.digests(("seminorm", 1.0, 1, 3))[1])
    # Bytes that are not JSON are digested as they are.
    assert (output_digests.digests(("exit", 0, b"\xff"))[1]
            != output_digests.digests(("exit", 0, b"\xfe"))[1])


def test_moved_numerals_in_details_share_the_number_free_digest():
    a = _cli_output(value=1.02, detail="empirical r4 = 1.0213 at level 2 (n=8, 1e-08)")
    b = _cli_output(value=1.3, detail="empirical r4 = 1.37 at level 2 (n=12, 3.5e-09)")
    assert output_digests.digests(a)[1] != output_digests.digests(b)[1]
    assert output_digests.digests(a)[2] == output_digests.digests(b)[2]
    assert output_digests._masked("empirical r4 = -1.5e+02 at pointedness-level-3", True) \
        == "empirical r4 = # at pointedness-level-3"
    # Reports of older commits wrote integral floats as integers: inside a
    # report every number counts, whether written 1 or 1.0, and a witness
    # matrix of any size is one numeral.
    one = b'{"K": {"level": 1, "value": 1, "witness": {"dim": 1, "entries": [[[0, 0]]]}}}'
    two = (b'{"K": {"level": 2, "value": 1.1, "witness": {"dim": 2, '
           b'"entries": [[[0.5, 0], [1, 0]], [[0, 0], [2.5, -1]]]}}}')
    none = b'{"K": {"level": 1, "value": 1, "witness": null}}'
    one, two, none = (output_digests.digests(("exit", 0, r)) for r in (one, two, none))
    assert one[1] != two[1]
    assert one[2] == two[2]
    assert none[2] != one[2]


def test_verdicts_flags_counts_and_exit_codes_stay_in_the_number_free_digest():
    number_free = output_digests.digests(_cli_output())[2]
    for other in (_cli_output(passed=False), _cli_output(verdict="fail"),
                  _cli_output(code=2), _cli_output(detail="e not in C_1")):
        assert output_digests.digests(other)[2] != number_free
    assert (output_digests.digests(("seminorm", 1.0, 0, 3))[2]
            != output_digests.digests(("seminorm", 1.0, 1, 3))[2])


def _line(workload, task, full, free, number_free, floats="[]", seed=5):
    return f"{workload} {seed} {task} {full} {free} {number_free} {floats}"


def _digests_only(line):
    return " ".join(line.split()[:6])


BEFORE = [_line("order-norms", "r0.t0", "a", "f", "n", "[1.0,2.0]"),
          _line("order-norms", "r0.t1", "b", "f", "n", "[3.0]"),
          _line("cli-session", "r0.t0", "c", "g", "m", "[0.5]"),
          _line("cli-session", "r0.t1", "d", "h", "m")]
AFTER = [_line("order-norms", "r0.t0", "a2", "f", "n", "[1.0,2.000000000003]"),
         _line("order-norms", "r0.t1", "b", "f", "n", "[3.0]"),
         _line("cli-session", "r0.t0", "c2", "g2", "m", "[9.5]"),
         _line("cli-session", "r0.t1", "d2", "h2", "m2"),
         _line("cli-session", "r0.t2", "e", "i", "o", "[1.0]")]


def test_difference_counts_are_per_workload():
    counts = output_digests.difference_counts(BEFORE, AFTER)
    assert list(counts) == ["order-norms", "cli-session"]
    # [tasks, full, float-free, number-free]; a task before lacks differs in all three.
    assert counts == {"order-norms": [2, 1, 0, 0], "cli-session": [3, 3, 3, 2]}
    assert output_digests.difference_counts(BEFORE, BEFORE) == {
        "order-norms": [2, 0, 0, 0], "cli-session": [2, 0, 0, 0]}
    # A task the change lost differs in all three too, in its own workload.
    lost = ["w 1 r0.a A B C", "w 1 r0.b D E F", "v 1 r0.c G H I"]
    assert output_digests.difference_counts(lost, lost[:1]) == {"w": [2, 1, 1, 1],
                                                                 "v": [1, 1, 1, 1]}
    assert output_digests.difference_counts(lost, lost[:1], by_kind=True) == {
        ("w", "a"): [1, 0, 0, 0], ("w", "b"): [1, 1, 1, 1], ("v", "c"): [1, 1, 1, 1]}


def test_against_prints_each_workloads_counts_and_the_total(monkeypatch, capsys):
    class _Run:
        def __init__(self, lines):
            self.returncode, self.stdout = 0, "\n".join(lines) + "\n"

    runs = iter([_Run(BEFORE), _Run(AFTER)])
    monkeypatch.setattr(output_digests.subprocess, "run", lambda *a, **k: next(runs))
    assert output_digests.main(["--against", "parent", "--root", "change"]) == 1
    out, err = (text.splitlines() for text in capsys.readouterr())
    assert err == [
        "order-norms: 2 tasks, 1 full, 0 float-free and 0 number-free digests differ",
        "cli-session: 3 tasks, 3 full, 3 float-free and 2 number-free digests differ",
        "5 tasks, 4 full, 3 float-free and 2 number-free digests differ",
        "order-norms: floats moved by at most 1.5e-12 relative over the 2 tasks whose "
        "float-free digests match",
        "cli-session: floats moved by at most 0 relative over the 0 tasks whose "
        "float-free digests match",
    ]
    # The diff shows the digests alone, not the float lists.
    body = [line for line in out if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    before, after = ([_digests_only(line) for line in lines] for lines in (BEFORE, AFTER))
    assert body == ["-" + before[0], "+" + after[0], "-" + before[2], "-" + before[3],
                    "+" + after[2], "+" + after[3], "+" + after[4]]
    runs = iter([_Run(BEFORE), _Run(BEFORE)])
    assert output_digests.main(["--against", "parent", "--root", "change"]) == 0


def test_float_moves_name_the_task_index_and_values_of_each_largest_change():
    moves = output_digests.float_moves(BEFORE, AFTER)
    assert moves["order-norms"] == [2, output_digests.relative_change(2.0, 2.000000000003),
                                    ("5", "r0.t0", 1, 2.0, 2.000000000003)]
    assert moves["cli-session"] == [0, 0.0, None]
    # A tripled 1e-16 residual outranks a moved bound; the first of equal changes is kept.
    before = [_line("cli-session", "r0.k", "a", "f", "n", "[1e-16,7.5,2.0]", seed=71),
              _line("cli-session", "r1.k", "b", "g", "n", "[1e-16]", seed=71)]
    after = [_line("cli-session", "r0.k", "a2", "f", "n", "[3e-16,7.500001,2.0]", seed=71),
             _line("cli-session", "r1.k", "b2", "g", "n", "[3e-16]", seed=71)]
    (tasks, largest, where), = output_digests.float_moves(before, after).values()
    assert (tasks, where) == (2, ("71", "r0.k", 0, 1e-16, 3e-16))
    assert largest == output_digests.relative_change(1e-16, 3e-16)
    assert output_digests.float_changes(before, after) == {"cli-session": [2, largest]}


def test_against_prints_where_each_workloads_largest_float_change_is(monkeypatch, capsys):
    class _Run:
        def __init__(self, lines):
            self.returncode, self.stdout = 0, "\n".join(lines) + "\n"

    runs = iter([_Run(BEFORE), _Run(AFTER)])
    monkeypatch.setattr(output_digests.subprocess, "run", lambda *a, **k: next(runs))
    assert output_digests.main(["--against", "parent", "--root", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    # cli-session has no task whose float-free digest matches: no line for it.
    assert [line for line in out if "largest float change" in line] == [
        "order-norms: largest float change 1.5e-12 relative in seed 5 r0.t0, float 1: "
        "2.0 -> 2.000000000003"]


def test_floats_are_listed_in_digest_order_from_reports_and_tuples():
    assert output_digests.floats(_cli_output(value=0.30000000000000004)) == [0.30000000000000004]
    assert output_digests.floats(("seminorm", 1.5, 0, 3)) == [1.5]
    # Nested reports in key order; integers, strings and non-JSON bytes hold none.
    report = b'{"a": {"x": 1.25, "n": 2, "y": [0.5, 7]}, "b": -1e-300, "s": "1.0"}'
    assert output_digests.floats(("exit", 0, report)) == [1.25, 0.5, -1e-300]
    assert output_digests.floats(("exit", 0, b"\xff")) == []
    assert output_digests.floats(np.float64(2.5)) == [2.5]


def test_relative_change_is_scaled_by_the_larger_value():
    rel = output_digests.relative_change
    assert rel(2.0, 2.0) == 0.0 and rel(0.0, -0.0) == 0.0
    assert rel(1.0, 1.0 + 2.0 ** -52) == 2.0 ** -52 / (1.0 + 2.0 ** -52)
    assert rel(-4.0, 4.0) == 2.0
    assert rel(0.0, 1e-300) == 1.0
    assert rel(math.nan, math.nan) == 0.0
    assert rel(math.inf, 1.0) == math.inf and rel(1.0, math.nan) == math.inf


def test_float_changes_skip_tasks_whose_float_free_digest_differs():
    changes = output_digests.float_changes(BEFORE, AFTER)
    assert list(changes) == ["order-norms", "cli-session"]
    assert changes["order-norms"][0] == 2
    assert changes["order-norms"][1] == output_digests.relative_change(2.0, 2.000000000003)
    # cli-session's r0.t0 moved 0.5 -> 9.5, but its float-free digest differs too.
    assert changes["cli-session"] == [0, 0.0]
    assert output_digests.float_changes(BEFORE, BEFORE) == {
        "order-norms": [2, 0.0], "cli-session": [2, 0.0]}


def test_each_line_ends_in_its_outputs_floats(monkeypatch, capsys):
    # main puts the checkout's src/ and perfbench/ on sys.path and pins BLAS threads.
    monkeypatch.setattr(output_digests.sys, "path", list(output_digests.sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert output_digests.main(["--seconds", "1", "--order-norms", "5",
                                "--cli-session", "", "--similarity-recovery", ""]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for fields in map(str.split, lines):
        # The floats, then the task's status: every order-norms task meets its reference.
        assert len(fields) == 8 and fields[:2] == ["order-norms", "5"] and fields[7] == "ok"
        values = json.loads(fields[6])
        assert values and all(isinstance(x, float) for x in values)


def test_against_prints_one_line_per_task_kind_that_moved(monkeypatch, capsys):
    # Two rounds of three cli-session kinds: kadison-demo moves in both rounds
    # (its detail strings only), check-cones in one, close-algebra in neither.
    kinds = ("close-algebra", "check-cones-standard", "kadison-demo")
    before = [_line("cli-session", f"r{r}.{kind}", "a", "f", "n")
              for r in range(2) for kind in kinds]
    after = list(before)
    after[2] = _line("cli-session", "r0.kadison-demo", "a2", "f2", "n")
    after[5] = _line("cli-session", "r1.kadison-demo", "a3", "f3", "n")
    after[4] = _line("cli-session", "r1.check-cones-standard", "a4", "f4", "n4")

    class _Run:
        def __init__(self, lines):
            self.returncode, self.stdout = 0, "\n".join(lines) + "\n"

    runs = iter([_Run(before), _Run(after)])
    monkeypatch.setattr(output_digests.subprocess, "run", lambda *a, **k: next(runs))
    assert output_digests.main(["--against", "parent", "--root", "change"]) == 1
    out, err = (text.splitlines() for text in capsys.readouterr())
    assert [line for line in out if line.startswith("cli-session ")] == [
        "cli-session check-cones-standard: 1 of 2 full, 1 float-free and 1 number-free "
        "digests differ",
        "cli-session kadison-demo: 2 of 2 full, 2 float-free and 0 number-free digests differ",
    ]
    assert err[0] == "cli-session: 6 tasks, 3 full, 3 float-free and 1 number-free digests differ"
    assert output_digests.difference_counts(before, after, by_kind=True) == {
        ("cli-session", kind): row for kind, row in zip(kinds, ([2, 0, 0, 0], [2, 1, 1, 1],
                                                                [2, 2, 2, 0]))}


def test_each_lines_status_is_the_benchmarks_classification(monkeypatch, capsys):
    workloads = load_workloads(monkeypatch)
    seen = []
    monkeypatch.setattr(workloads, "classify",
                        lambda task, outcome: seen.append(task.task_id) or ("miss", "detail"))
    monkeypatch.setattr(output_digests.sys, "path", list(output_digests.sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert output_digests.main(["--seconds", "1", "--order-norms", "5",
                                "--cli-session", "", "--similarity-recovery", ""]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [fields[2] for fields in lines] == seen
    assert {fields[7] for fields in lines} == {"miss"}


def test_ok_counts_read_the_status_after_the_floats():
    lines = [_line("similarity-recovery", "r0.t0", "a", "f", "n", "[1.0]") + " ok",
             _line("similarity-recovery", "r0.t1", "b", "f", "n") + " miss",
             _line("order-norms", "r0.t0", "c", "g", "m") + " ok",
             _line("similarity-recovery", "r0.t2", "d", "h", "o") + " ok",
             # A line written before statuses were recorded counts as a task only.
             _line("order-norms", "r0.t1", "e", "i", "p")]
    assert output_digests.ok_counts(lines) == {"similarity-recovery": [2, 3],
                                               "order-norms": [1, 2]}
    lines[3] = lines[3].replace(" 5 ", " 6 ", 1)
    assert output_digests.ok_counts(lines, by_seed=True) == {
        "similarity-recovery/5": [1, 2], "order-norms/5": [1, 2], "similarity-recovery/6": [1, 1]}
    # The digest and float readers still see the fields they read.
    assert output_digests.difference_counts(lines, lines)["similarity-recovery"] == [3, 0, 0, 0]
    assert output_digests.float_changes(lines, lines)["similarity-recovery"] == [3, 0.0]


def test_against_prints_each_sides_ok_count(monkeypatch, capsys):
    before = [_line("similarity-recovery", "r0.t0", "a", "f", "n") + " ok",
              _line("similarity-recovery", "r0.t1", "b", "f", "n") + " miss",
              _line("cli-session", "r0.t0", "c", "g", "m") + " ok"]
    after = [_line("similarity-recovery", "r0.t0", "a", "f", "n") + " ok",
             _line("similarity-recovery", "r0.t1", "b2", "f2", "n2") + " ok",
             _line("cli-session", "r0.t0", "c", "g", "m") + " ok",
             _line("cli-session", "r0.t1", "d", "h", "m") + " wrong"]

    class _Run:
        def __init__(self, lines):
            self.returncode, self.stdout = 0, "\n".join(lines) + "\n"

    runs = iter([_Run(before), _Run(after)])
    monkeypatch.setattr(output_digests.subprocess, "run", lambda *a, **k: next(runs))
    assert output_digests.main(["--against", "parent", "--root", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if ": ok " in line] == [
        "similarity-recovery: ok 1 -> 2 of 2", "cli-session: ok 1 of 1 -> 1 of 2",
        "similarity-recovery/5: ok 1 -> 2 of 2", "cli-session/5: ok 1 of 1 -> 1 of 2"]
    # The diff shows the digests alone, not the statuses.
    assert "+" + _digests_only(after[1]) in out and "+" + _digests_only(after[3]) in out
