"""`tools/line_reach.py` on a toy module: the tracer reports the one line that
a branch never taken leaves unreached, and no other."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_reach.py"
_spec = importlib.util.spec_from_file_location("line_reach", TOOL)
line_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_reach)

TOY = '''"""A module whose negative branch no call takes."""


def sign(x):
    if x < 0:
        return -1
    return 1


SIGNS = [sign(x) for x in (1, 2)]
'''


def test_only_the_branch_never_taken_is_reported(tmp_path, capsys):
    path = str(tmp_path / "toy.py")
    Path(path).write_text(TOY)
    lines = line_reach.executable_lines(path)
    assert {4, 5, 6, 7, 10} <= lines
    with line_reach.recording([path]) as reached:
        spec = importlib.util.spec_from_file_location("toy", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert line_reach.report({path: lines}, reached, str(tmp_path)) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"toy.py: 1 of {len(lines)} lines unreached: 6",
        f"total: 1 of {len(lines)} executable lines unreached"]


def test_ranges_join_consecutive_lines():
    assert line_reach.ranges([12, 3, 8, 7, 9]) == "3, 7-9, 12"
