"""Print a digest of every benchmark task's output, to compare two commits.

    python tools/output_digests.py [--root DIR] [--against DIR] [--seconds T]
        [--order-norms 51,52,...] [--cli-session 5,71,...] [--similarity-recovery 11,...]

Builds the `order-norms`, `cli-session` and `similarity-recovery` tasks for
each seed through `perfbench/workloads.build` (the same inputs the benchmark
runs), runs them in this interpreter with one BLAS thread, and prints one
line per task:

    <workload> <seed> <task_id> <sha256 of repr(output)> <float-free sha256>
        <number-free sha256> <floats> <status>

The float-free digest is taken over the output with every float replaced by
its type name, CLI report bytes decoded as JSON first: exit codes, `passed`
flags, verdicts, detail strings and witness kinds stay in it, so two commits
whose numbers differ only in their last bits share it.  The number-free
digest also replaces every numeral inside a string by "#" ("empirical r4 =
1.02" reads "empirical r4 = #"), every number inside a CLI report (integers
too, so that reports written before every float kept its decimal point,
which wrote 0.0 as "0", still compare) and every array of numbers, so
a witness matrix reads "#" whatever its size.  Two commits whose sampled
values move (a sampled maximum found at another level, say) but whose
verdicts, flags, witness kinds, exit codes and task-level integer counts
stay share it.  <floats> lists the output's floats as one JSON list, in
the order the digests visit them: two outputs that share a float-free
digest hold their floats in the same places.  <status> is the task's
verdict from `workloads.classify`: ok, miss, wrong or crashed.  A typed
matorder error is the task's output.  `--root`
selects the checkout whose `src/` and `perfbench/` are imported (default:
this one), so one copy of this script can digest any commit exported with
`git archive`.  Two
commits give the same numerical results exactly when their outputs diff
empty.  `--against DIR` makes that comparison: it digests both checkouts
(each in its own interpreter), prints the lines that differ, cut to their
digests, as a unified diff from DIR to --root, then how many tasks differ in
each of the three digests per workload and in total, then on stdout one
line per task kind with a differing digest (the kind is the task id after
its round, "kadison-demo" in "r3.kadison-demo"), so "only these kinds moved"
reads off those lines, then per workload the largest relative change of any
float over the tasks whose float-free digests match (so "moved only in its
last bits" is one number) and on stdout where that change is (seed, task id,
float index) with both values, so a tripled 1e-16 residual does not hide
whether a bound moved, then on stdout each side's count of ok tasks per
workload and per workload and seed ("similarity-recovery/12: ok 74 -> 75 of
75"), and exits 1
if any line differs, 0 if none does, and 2 if either checkout fails to
digest.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile


def _seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


# A number written in a string, not part of a name ("r4", "level-1").
_NUMERAL = re.compile(r"(?<![\w.-])[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def _masked(obj, numerals: bool):
    """obj with every float replaced by its type name or, with numerals, by
    "#", as is every numeral inside a string and every array of numbers (a
    witness matrix reads "#" whatever its size); bytes that decode as JSON (a
    CLI report) are decoded first."""
    if isinstance(obj, float):
        return "#" if numerals else type(obj).__name__
    if isinstance(obj, str):
        return _NUMERAL.sub("#", obj) if numerals else obj
    if isinstance(obj, bytes):
        try:
            # Reports written before every float kept its decimal point hold
            # integral floats as integers ("0", "1"): with numerals every
            # number counts, so digests still compare against those commits.
            obj = json.loads(obj, parse_int=float if numerals else None)
        except ValueError:
            return obj
        return _masked(obj, numerals)
    if isinstance(obj, (list, tuple)):
        out = type(obj)(_masked(x, numerals) for x in obj)
        if numerals and out and all(isinstance(x, str) and x == "#" for x in out):
            return "#"
        return out
    if isinstance(obj, dict):
        return {key: _masked(value, numerals) for key, value in obj.items()}
    return obj


def floats(obj) -> list:
    """Every float of obj in the order `_masked` visits it, CLI report bytes
    decoded as JSON first."""
    if isinstance(obj, float):
        return [float(obj)]
    if isinstance(obj, bytes):
        try:
            return floats(json.loads(obj))
        except ValueError:
            return []
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in floats(item)]
    return []


def relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values, NaN and NaN included, and
    inf for a change to or from an infinity or a NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def digests(output) -> tuple[str, str, str]:
    """sha256 of repr(output), of its float-free form and of its number-free form."""
    return tuple(hashlib.sha256(repr(x).encode()).hexdigest()
                 for x in (output, _masked(output, False), _masked(output, True)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   help="checkout to import src/ and perfbench/ from")
    p.add_argument("--against", default=None,
                   help="second checkout: print the digest lines that differ, exit 1 if any")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="run length the task lists are sized for (as perfbench/run.py)")
    p.add_argument("--order-norms", type=_seeds, default=[51, 52, 53, 54, 55])
    p.add_argument("--cli-session", type=_seeds, default=[5, 71, 72, 73])
    p.add_argument("--similarity-recovery", type=_seeds, default=[11])
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    if args.against is not None:
        return _compare(os.path.abspath(args.against), root, args)
    # Pin one BLAS thread before numpy loads: threaded reductions may sum in
    # another order and change the last bits.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads  # noqa: E402 - resolved from --root

    for workload, seeds in (("order-norms", args.order_norms),
                            ("cli-session", args.cli_session),
                            ("similarity-recovery", args.similarity_recovery)):
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                rounds = workloads.build(workload, seed, args.seconds, workdir)
                for task in (t for tasks in rounds for t in tasks):
                    outcome = workloads.run_task(task, lambda f: (f(), 0.0, 1.0))
                    output = outcome.output if outcome.error is None else outcome.error
                    print(workload, seed, task.task_id, *digests(output),
                          json.dumps(floats(output), separators=(",", ":")),
                          workloads.classify(task, outcome)[0], flush=True)
    return 0


def difference_counts(before_lines: list, after_lines: list, by_kind: bool = False) -> dict:
    """Per workload (by_kind: per (workload, task kind)), in order of first
    appearance in after, then in before: [tasks, full, float-free,
    number-free], the number of tasks either side holds and of those whose
    digest differs between them (all three, for a task one side lacks)."""
    before, after = ({tuple(fields[:3]): fields[3:6] for fields in map(str.split, lines)}
                     for lines in (before_lines, after_lines))
    counts = {}
    for task in after | before:
        old, new = (side.get(task, [None] * 3) for side in (before, after))
        key = (task[0], task[2].split(".", 1)[-1]) if by_kind else task[0]
        row = counts.setdefault(key, [0, 0, 0, 0])
        row[0] += 1
        for k in range(3):
            row[1 + k] += old[k] != new[k]
    return counts


def float_moves(before_lines: list, after_lines: list) -> dict:
    """Per workload, in order of first appearance: [tasks, largest relative
    change of a float, where], over after's tasks whose float-free digest
    equals before's, read from the lines' float lists; where is (seed, task
    id, float index, before's value, after's value) of the first float to
    reach that change, None while no float has moved."""
    before = {tuple(fields[:3]): fields[3:] for fields in map(str.split, before_lines)}
    changes = {}
    for fields in map(str.split, after_lines):
        row = changes.setdefault(fields[0], [0, 0.0, None])
        old, new = before.get(tuple(fields[:3])), fields[3:]
        if old is not None and old[1] == new[1]:
            row[0] += 1
            for index, (a, b) in enumerate(zip(json.loads(old[3]), json.loads(new[3]))):
                change = relative_change(a, b)
                if change > row[1]:
                    row[1:] = change, (fields[1], fields[2], index, a, b)
    return changes


def float_changes(before_lines: list, after_lines: list) -> dict:
    """Per workload, in order of first appearance: [tasks, largest relative
    change of a float], as `float_moves` reads them."""
    return {workload: row[:2] for workload, row in float_moves(before_lines,
                                                              after_lines).items()}


def ok_counts(lines: list, by_seed: bool = False) -> dict:
    """Per workload (by_seed: per "<workload>/<seed>"), in order of first appearance: [ok tasks,
    tasks], the status read from the field after the floats (a line without one is not ok)."""
    counts = {}
    for fields in map(str.split, lines):
        row = counts.setdefault("/".join(fields[:2 if by_seed else 1]), [0, 0])
        row[0] += fields[7:8] == ["ok"]
        row[1] += 1
    return counts


def _compare(before: str, after: str, args) -> int:
    """Digest two checkouts in child interpreters; print their differing lines."""
    same = ["--seconds", repr(args.seconds),
            "--order-norms", ",".join(map(str, args.order_norms)),
            "--cli-session", ",".join(map(str, args.cli_session)),
            "--similarity-recovery", ",".join(map(str, args.similarity_recovery))]
    runs = [subprocess.run([sys.executable, os.path.abspath(__file__), "--root", root, *same],
                           stdout=subprocess.PIPE, text=True) for root in (before, after)]
    for root, run in zip((before, after), runs):
        if run.returncode:
            print(f"digesting {root} failed (exit {run.returncode})", file=sys.stderr)
            return 2
    with_floats = [run.stdout.splitlines() for run in runs]
    # The diff and the counts read the digests alone.
    before_lines, after_lines = ([" ".join(line.split()[:6]) for line in lines]
                                 for lines in with_floats)
    diff = list(difflib.unified_diff(before_lines, after_lines, before, after,
                                     lineterm="", n=0))
    for line in diff:
        print(line)
    sys.stdout.flush()
    counts = difference_counts(before_lines, after_lines)
    for workload, (tasks, full, free, number_free) in counts.items():
        print(f"{workload}: {tasks} tasks, {full} full, {free} float-free and "
              f"{number_free} number-free digests differ", file=sys.stderr)
    tasks, full, free, number_free = (sum(row[k] for row in counts.values()) for k in range(4))
    print(f"{tasks} tasks, {full} full, {free} float-free and {number_free} number-free "
          f"digests differ", file=sys.stderr)
    for (workload, kind), (tasks, *differ) in difference_counts(
            before_lines, after_lines, by_kind=True).items():
        if any(differ):
            print(f"{workload} {kind}: {differ[0]} of {tasks} full, {differ[1]} float-free and "
                  f"{differ[2]} number-free digests differ", flush=True)
    for workload, (tasks, largest, where) in float_moves(*with_floats).items():
        print(f"{workload}: floats moved by at most {largest:.2g} relative over the "
              f"{tasks} tasks whose float-free digests match", file=sys.stderr)
        if where is not None:
            seed, task, index, a, b = where
            print(f"{workload}: largest float change {largest:.2g} relative in seed {seed} "
                  f"{task}, float {index}: {a!r} -> {b!r}", flush=True)
    for by_seed in (False, True):
        old, new = (ok_counts(lines, by_seed) for lines in with_floats)
        for key in new | old:
            (was, had), (ok, tasks) = (side.get(key, (0, 0)) for side in (old, new))
            print(f"{key}: ok {was} -> {ok} of {tasks}" if had == tasks else
                  f"{key}: ok {was} of {had} -> {ok} of {tasks}", flush=True)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
