"""One workload in a fresh interpreter; started by run.py.

    worker.py --workload W --seed S --seconds T --mode setup|run|trace --workdir D

Every mode imports matorder and builds the run's inputs (about T seconds of
tasks).  Its set-up time runs from PERFBENCH_T0, the `time.monotonic()`
reading run.py takes just before starting this interpreter (the clock is
system-wide), until the inputs are ready; `setup_s` is that time in
reference seconds (speed.py), `setup_wall_s` in wall seconds.  `setup`
stops there.  `run` then
drives the closed loop over the tasks, timing each in reference seconds
(speed.py).  `trace` drives the same loop with plain wall-clock timing,
then rebuilds the inputs and replays the same tasks with every layer
wrapped.  Each mode prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import speed

CLOCK = time.perf_counter

# Set-up is timed in reference seconds too: the probe samples the host's
# speed from here on, while scipy, matorder and the inputs load.
PROBE = speed.SpeedProbe(CLOCK)
PROBE.start()

import scipy  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def timed_loop(rounds, timer, tracer=None):
    """Closed loop with one client: each task starts when the previous one
    returns.  Returns the (task, outcome) pairs and the wall time."""
    done = []
    t0 = CLOCK()
    for task in (t for tasks in rounds for t in tasks):
        if tracer is not None:
            tracer.task_id = len(done)
        done.append((task, workloads.run_task(task, timer)))
    wall = CLOCK() - t0
    if tracer is not None:
        tracer.task_id = -1
    return done, wall


def rerun_check(done, statuses):
    """cli-session: re-run the first task of each command kind, untimed; a
    report that is not byte-identical marks the timed task wrong."""
    seen = set()
    for i, (task, outcome) in enumerate(done):
        if task.kind in seen:
            continue
        seen.add(task.kind)
        again = workloads.run_task(task, speed.plain_timer(CLOCK))
        if not workloads.same_output(outcome, again):
            statuses[i] = ("wrong", "report not byte-identical on re-run")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def latency_figures(lat: list[float], bad: list[bool]) -> dict:
    """Throughput and percentiles of one list of latencies.  The busy time
    (their sum) is the censoring time of the failed tasks."""
    busy = sum(lat)
    tail, pct, beyond = stats.tail(lat, bad, busy)
    return {
        "busy_s": busy,
        "tasks_per_s": (len(lat) - sum(bad)) / busy,
        "task_p50_s": stats.median(lat, bad, busy),
        "task_tail_s": tail,
        "task_tail_percentile": pct,
        "task_tail_beyond": beyond,
    }


def summary(done, statuses, wall: float) -> dict:
    """End-to-end figures in reference seconds, plus the same figures in
    wall-clock seconds under "wall"."""
    bad = [s != "ok" for s, _ in statuses]
    n = len(done)
    count = {k: sum(s == k for s, _ in statuses)
             for k in ("ok", "miss", "wrong", "crashed")}
    out = {"attempted": n, "outcomes": count, "wall_s": wall}
    out.update(latency_figures([o.ref_latency_s for _, o in done], bad))
    out["wall"] = latency_figures([o.latency_s for _, o in done], bad)
    out.update({
        "failed_frac": (n - count["ok"]) / n,
        "solved_frac": count["ok"] / n,
        "not_ok": [[t.task_id, s, d, t.params] for (t, _), (s, d) in zip(done, statuses)
                   if s != "ok"],
        "tasks": [[t.task_id, t.kind, s, o.latency_s, o.speed]
                  for (t, o), (s, _) in zip(done, statuses)],
    })
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    rounds = workloads.build(args.workload, args.seed, args.seconds, args.workdir)
    _, factor = PROBE.stop()
    setup_wall_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    setup = {"setup_s": (setup_wall_s - PROBE.spent) * factor, "setup_wall_s": setup_wall_s}
    if args.mode == "setup":
        print(json.dumps(setup), flush=True)
        return 0

    timer = PROBE.time if args.mode == "run" else speed.plain_timer(CLOCK)
    done, wall = timed_loop(rounds, timer)
    statuses = [workloads.classify(task, outcome) for task, outcome in done]
    if args.workload == "cli-session":
        rerun_check(done, statuses)
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "rounds": len(rounds), "env": environment(), **setup}
    result.update(summary(done, statuses, wall))
    result["kernel_samples"] = len(PROBE.samples)
    result["kernel_median_s"] = statistics.median(PROBE.samples)

    if args.mode == "trace":
        import tracing  # only the traced run loads the wrappers

        tracer = tracing.Tracer(CLOCK)
        with tracer.installed():
            replay = workloads.build(args.workload, args.seed, args.seconds, args.workdir)
            traced, traced_wall = timed_loop(replay, timer, tracer)
        changed = [t.task_id for (t, a), (_, b) in zip(done, traced)
                   if not workloads.same_output(a, b)]
        metrics = tracer.layer_metrics()
        metrics["trace.untraced_wall_s"] = (wall, "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "ratio")
        metrics["trace.spans"] = (len(tracer.start), "count")
        result["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["traced_output_changed"] = changed
        if args.spans:
            tracer.save(args.spans, [t.task_id for t, _ in traced])
            result["spans_file"] = args.spans
        if changed:
            result["outcomes"]["wrong"] += len(changed)

    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
