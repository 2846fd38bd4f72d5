"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W
        --seeds A-B --out BENCH_x.json

For each seed from A to B, runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each checkout (the current
directory of the run is the checkout), the parent first on odd seeds and the
change first on even seeds, so run order moves neither side on average.  T
is `run_seconds` of this checkout's BENCHMARK.json.  Both sides run with
identical benchmark settings; each checkout runs its own `perfbench/`.

The output has the layout of the earlier BENCH files: `description`,
`parent_commit`, `change_commit`, `host` and `runs`, one entry per run in the
order they ran, with `set`, `side`, `commit`, `workload`, `seed`, `trace` and
`last_line`, the JSON object the run printed last.  The commit fields hold the
side names, "parent" and "change": a checkout passed as a directory need not
be a commit, so whoever keeps the file writes the commits in.  It adds
`summary`: per end-to-end metric, its unit and better direction (from
BENCHMARK.json), each side's median and quartiles (inclusive method) and
`change_better`, the number of pairs in which the change read strictly
better, of `pairs`.  The file is rewritten after every pair, so an
interrupted session keeps the pairs it finished.  A run that fails or prints
no JSON last line stops the session with exit status 2, after the pairs
before it are written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    pass


def seed_range(text: str) -> list[int]:
    """"A-B" as the seeds A..B inclusive; "A" as [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_bench(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py` run in checkout; the JSON object it printed last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunFailed(f"{checkout}: exit {proc.returncode} for seed {seed}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise RunFailed(f"{checkout}: last line is not JSON for seed {seed}") from exc


def host_info() -> dict:
    """Interpreter, numpy, scipy and BLAS versions and the CPU, as earlier BENCH
    files record them (blas_threads is the one thread perfbench pins)."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = next((line.split(":", 1)[1].strip() for line in _cpuinfo()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": "1", "nproc": os.cpu_count(), "cpu_model": cpu}


def _cpuinfo() -> list:
    try:
        with open("/proc/cpuinfo") as f:
            return f.read().splitlines()
    except OSError:
        return []


def summary(runs: list, metrics: list) -> dict:
    """Per end-to-end metric (dicts with name, unit, better): each side's median
    and quartiles over its runs, and in how many seeds the change read better."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        by_seed = {}
        for run in runs:
            if (m := run["last_line"]["metrics"].get(name)) is not None:
                by_seed.setdefault(run["seed"], {})[run["side"]] = m["value"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if not pairs:
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        row = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            values = [p[side] for p in pairs]
            q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
            row[side] = {"median": q2, "q1": q1, "q3": q3}
        row["change_better"] = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
        row["pairs"] = len(pairs)
        out[name] = row
    return out


def describe(workload: str, seeds: list, seconds: int, rows: dict) -> str:
    text = (f"perfbench pairs written by tools/bench_pairs.py. Each entry is one "
            f"`python3 perfbench/run.py --workload {workload} --seed S --seconds {seconds} "
            f"--trace 0` run from a clean copy of its tree; `last_line` is the JSON object "
            f"the run printed as its last line. Runs are listed in the order they ran, the "
            f"two sides of one seed back to back: parent first for odd seeds, change first "
            f"for even seeds. Seeds {seeds[0]}-{seeds[-1]}.")
    for name, row in rows.items():
        p, c = row["parent"], row["change"]
        text += (f" {name}: {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                 f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], change better in "
                 f"{row['change_better']} of {row['pairs']}.")
    return text


def main(argv=None, run=run_bench) -> int:
    """`run` is the one-run function (checkout, workload, seed, seconds) -> last line."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True, help="a perfbench/run.py workload")
    p.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    p.add_argument("--out", required=True, help="BENCH file to write")
    args = p.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seconds = bench["run_seconds"]
    doc = {"description": "", "parent_commit": "parent", "change_commit": "change",
           "host": host_info(), "runs": [], "summary": {}}
    for seed in args.seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        try:
            pair = [{"set": 1, "side": side, "commit": side, "workload": args.workload,
                     "seed": seed, "trace": 0,
                     "last_line": run(dirs[side], args.workload, seed, seconds)}
                    for side in order]
        except RunFailed as exc:
            sys.stderr.write(f"benchmark run failed: {exc}\n")
            return 2
        doc["runs"] += pair
        doc["summary"] = summary(doc["runs"], bench["end_to_end"])
        doc["description"] = describe(args.workload, args.seeds, seconds, doc["summary"])
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        for entry in pair:
            print(seed, entry["side"], *(f"{name}={m['value']:.6g}" for name, m in
                                         entry["last_line"]["metrics"].items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
