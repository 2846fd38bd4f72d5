"""matorder benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter (worker.py) with BLAS pinned to one thread, so set-up time
includes `import matorder` and peak memory is the workload's own.

--trace 0 prints the end-to-end metrics.  Timings are in reference
seconds (speed.py): wall time corrected for the host's speed, measured by a
calibration kernel next to the work.  `setup_s` is the median over five
fresh interpreters (two that only set up, the measuring worker, then two
more), each timed from just before its start until its inputs are ready.

--trace 1 prints the per-layer metrics of a traced replay of the run's
tasks, next to the untraced wall time of the same tasks.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the
full record, including the environment.  Records and spans are also
written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# As in workloads.WORKLOADS; repeated so this process never imports matorder.
WORKLOADS = ("order-norms", "similarity-recovery", "cli-session")
SETUP_PROBES_EACH_SIDE = 2

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "tasks/ref_s",
    "task_p50_s": "ref_s",
    "task_tail_s": "ref_s",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def deadline_s(seconds: int, trace: int) -> float:
    """Time allowed for a whole run: the timed phase (twice over, traced
    and untraced, in a traced run) and its set-ups, with room to spare.
    At the configured 40-second runs this is 170 s either way."""
    return max(170.0, 30.0 + (3.5 if trace else 2.5) * seconds)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion; returns the JSON object it prints last."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv]
    env = worker_env()
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=str(ROOT),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker exceeded the run's deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matorder" / "__init__.py").is_file():
        sys.stderr.write(f"matorder sources not found under {SRC}\n")
        return 2
    deadline = time.monotonic() + deadline_s(args.seconds, args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    def setup_probe(k):
        probe = run_worker(common + ["--mode", "setup",
                                     "--workdir", f"{workdir}-probe{k}"], deadline)
        return probe["setup_s"]

    try:
        if args.trace:
            spans = RESULTS / f"spans-{tag}.npz"
            record = run_worker(common + ["--mode", "trace", "--workdir", str(workdir),
                                          "--spans", str(spans)], deadline)
            metrics = record["layer_metrics"]
        else:
            setups = [setup_probe(k) for k in range(SETUP_PROBES_EACH_SIDE)]
            record = run_worker(common + ["--mode", "run", "--workdir", str(workdir)],
                                deadline)
            setups.append(record["setup_s"])
            setups += [setup_probe(k) for k in range(SETUP_PROBES_EACH_SIDE,
                                                     2 * SETUP_PROBES_EACH_SIDE)]
            record["setup_samples_s"] = setups
            record["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": record[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    except (WorkerFailed, json.JSONDecodeError, IndexError, KeyError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    finally:
        for d in RESULTS.glob(f"work-{tag}-{os.getpid()}*"):
            shutil.rmtree(d, ignore_errors=True)

    outcomes = record["outcomes"]
    failed = outcomes["wrong"] + outcomes["crashed"]
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
