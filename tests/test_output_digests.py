"""The float-free digest of `tools/output_digests.py`: last-bit float changes
share it, a changed verdict, flag, count or exit code does not."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def _cli_output(passed=True, value=0.1 + 0.2, code=0, verdict="pass"):
    report = {"result": {"passed": passed, "r4": value,
                         "checks": [{"verdict": verdict, "detail": "e in C_1"}]}}
    return ("exit", code, json.dumps(report).encode())


def test_float_changes_share_the_float_free_digest():
    a, b = _cli_output(value=0.30000000000000004), _cli_output(value=0.3)
    full_a, free_a = output_digests.digests(a)
    full_b, free_b = output_digests.digests(b)
    assert full_a != full_b
    assert free_a == free_b
    # Task tuples carry floats outside any report too.
    assert (output_digests.digests(("seminorm", 1.0, 0, 3))[1]
            == output_digests.digests(("seminorm", 1.0000000000000002, 0, 3))[1])


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
