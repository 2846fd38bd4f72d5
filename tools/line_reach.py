"""List the lines of `src/matorder` that no test, or no benchmark task, runs.

    python tools/line_reach.py [--root DIR] [--tests] [--bench]

Takes each module's executable lines from `co_lines()` of its compiled code,
walking every nested code object through `co_consts`, and records the lines
that run with `sys.settrace` and `threading.settrace`, the standard library's
hooks, so no coverage package is needed.  `--tests` runs the tier-1 suite
(`DIR/tests`) in this interpreter through `pytest.main`; `--bench` runs
`tools/output_digests.py`'s default task lists (the benchmark's own inputs,
through `perfbench/workloads.py`) in this interpreter, its digest lines
discarded.  With both, a line counts as reached when either runs it; with
neither, `--tests` is assumed.  `--root` selects the checkout whose `src/`,
`tests/` and `perfbench/` are imported (default: this one), so one copy of
this script can measure any commit exported with `git archive`.

Prints, per module, its unreached lines as ranges, then the totals, and exits
1 if any line of `src/matorder` is unreached, 0 if none is, and 2 if the test
suite fails.  Nothing is written in the checkout: no bytecode is written, the
pytest cache is off, and the runs take a temporary directory as their working
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import threading


def executable_lines(path: str) -> set:
    """The line numbers `co_lines()` gives for the module at path and for
    every code object nested in it (functions, classes, comprehensions)."""
    with open(path, encoding="utf-8") as f:
        stack, lines = [compile(f.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@contextlib.contextmanager
def recording(paths):
    """Yield {path: set of reached lines} for the given source files, filled
    while the block runs in this thread and in threads it starts; the trace
    functions set before are restored after it."""
    reached = {os.path.realpath(p): set() for p in paths}
    by_name = {}  # co_filename -> its set in reached, or None for other files

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = reached.get(os.path.realpath(name))
        hit = by_name[name]
        if hit is None:
            return None  # no line events for code outside the listed files

        def local(frame, event, arg):
            hit.add(frame.f_lineno)
            return local

        hit.add(frame.f_lineno)
        return local

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        yield reached
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def ranges(lines) -> str:
    """"3, 7-9, 12" for the sorted lines."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(executable: dict, reached: dict, root: str) -> int:
    """Print each module's unreached lines and the totals; return how many
    lines are unreached."""
    total = missed = 0
    for path, lines in executable.items():
        unreached = lines - reached[os.path.realpath(path)]
        total, missed = total + len(lines), missed + len(unreached)
        if unreached:
            print(f"{os.path.relpath(path, root)}: {len(unreached)} of {len(lines)} lines "
                  f"unreached: {ranges(unreached)}")
    print(f"total: {missed} of {total} executable lines unreached")
    return missed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout to import src/, tests/ and perfbench/ from")
    p.add_argument("--tests", action="store_true", help="run the tier-1 test suite")
    p.add_argument("--bench", action="store_true",
                   help="run tools/output_digests.py's default benchmark task lists")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    package = os.path.join(root, "src", "matorder")
    paths = sorted(os.path.join(package, name) for name in os.listdir(package)
                   if name.endswith(".py"))
    executable = {path: executable_lines(path) for path in paths}

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))
    failed, cwd = False, os.getcwd()
    with tempfile.TemporaryDirectory() as workdir, recording(paths) as reached:
        os.chdir(workdir)
        try:
            if args.bench:
                tool = os.path.join(root, "tools", "output_digests.py")
                spec = importlib.util.spec_from_file_location("output_digests", tool)
                digests = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(digests)
                with contextlib.redirect_stdout(io.StringIO()):
                    digests.main(["--root", root])
            if args.tests or not args.bench:
                import pytest
                failed = pytest.main([os.path.join(root, "tests"), "-q",
                                      "-p", "no:cacheprovider"]) != 0
        finally:
            os.chdir(cwd)
    missed = report(executable, reached, root)
    if failed:
        print("the test suite failed", file=sys.stderr)
        return 2
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
