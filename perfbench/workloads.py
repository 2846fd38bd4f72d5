"""The three benchmark workloads: inputs from a seed, tasks, reference checks.

`build(name, seed, seconds, workdir)` generates every input from the seed
(this is the set-up that `setup_s` times) and returns the run's rounds, each
a list of `Task`s.  A round is one stratified draw of the workload's task
mix: every round has the same shapes, only the random matrices differ.  A
run is a fixed number of rounds, sized from `--seconds` by the round's
nominal duration, so both sides of a comparison run the same tasks and the
percentiles always cover the same mix.

Every call into matorder goes through a module attribute (`cones.X`, not a
name imported from it), so the traced run's wrappers see every call.

Task outputs are plain tuples of Python scalars, strings and bytes; the
traced and untraced runs compare their repr, so any changed bit shows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import block_diag

from matorder import algebra, cli, cones, order_norms, serialization, similarity
from matorder.errors import MatOrderError

WORKLOADS = ("order-norms", "similarity-recovery", "cli-session")

# Duration of one round, measured on the reference machine (2-core Xeon,
# one BLAS thread).  A run of T seconds is ceil(T / nominal) rounds, and at
# least MIN_ROUNDS.  similarity-recovery needs five rounds: its misses past
# the tested conditioning range (about three a round) must then outnumber
# the ten tasks beyond the tail percentile, so the tail does not flip
# between a success and a miss from seed to seed.
NOMINAL_ROUND_S = {"order-norms": 7.0, "similarity-recovery": 8.0, "cli-session": 5.0}
MIN_ROUNDS = {"similarity-recovery": 5}

NORM_TOL = 1e-7            # criterion 1: |value - spectral value| <= tol (1 + value)
RESIDUAL_TOL = 1e-7        # criterion 4: residual_star
COND_EXCESS_TOL = 1e-6     # criterion 4: cond(Q) <= planted cond (1 + tol)
CB_LEVEL = 2
CLI_SAMPLES = 10


@dataclass
class Task:
    """One unit of closed-loop work.

    `run()` returns the task's output; `check(output)` returns "ok" or a
    reason it missed its reference.  `miss_is_measured` marks tasks whose
    misses are what the workload measures (planted similarity recovery,
    with its conditioning cliff) rather than signs of a broken run.
    """

    task_id: str
    kind: str
    run: Callable[[], tuple]
    check: Callable[[tuple], str]
    miss_is_measured: bool = False
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Random star-closed algebras (the families of the test suite, with the
# shape fixed by the caller so that every seed draws the same task mix)
# ---------------------------------------------------------------------------

FAMILIES = ("full", "commutative", "blocks")
BLOCK_PARTS = {2: (1, 1), 3: (2, 1), 4: (2, 2), 5: (3, 2), 6: (3, 2, 1)}


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def star_algebra(rng: np.random.Generator, family: str, n: int):
    """Random star-closed subalgebra of M_n of the given family.

    full: M_n itself.  commutative: the span of the spectral projections of
    a normal matrix with n // 2 + 1 distinct eigenvalues.  blocks: a unitary
    conjugate of a block-diagonal sum with the parts in BLOCK_PARTS.
    """
    if family == "full":
        return algebra.generate_algebra([random_complex(rng, (n, n))],
                                        include_adjoints=True)
    u = random_unitary(rng, n)
    if family == "commutative":
        k = n // 2 + 1
        evals = rng.permutation(np.arange(n) % k).astype(float)
        return algebra.generate_algebra([u @ np.diag(evals) @ u.conj().T],
                                        include_adjoints=True)
    parts = BLOCK_PARTS[n]
    gens = [u @ block_diag(*[random_complex(rng, (p, p)) for p in parts]) @ u.conj().T
            for _ in range(2)]
    return algebra.generate_algebra(gens, include_adjoints=True)


def random_similarity(rng: np.random.Generator, n: int, log10_cond: float) -> np.ndarray:
    """Random S with cond(S) = 10**log10_cond (geometric singular values)."""
    sig = np.geomspace(1.0, 10.0 ** -log10_cond, n)
    return random_unitary(rng, n) @ np.diag(sig) @ random_unitary(rng, n).conj().T


def block_element(rng: np.random.Generator, alg, level: int) -> np.ndarray:
    """Random level-n element: an n x n block matrix with entries in alg."""
    n = alg.ambient_dim
    out = np.zeros((level * n, level * n), dtype=complex)
    for i in range(level):
        for j in range(level):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = alg.synthesize(
                rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    return out


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= NORM_TOL * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# order-norms
# ---------------------------------------------------------------------------

# One round: (family, N, cone variant, level, with pre-C* norm).  Most tasks
# run at levels 1-2; a minority at level 8, two of them on full M_6, whose
# amplified basis is 2,304 matrices of size 48 x 48.  Latencies cluster by
# shape, so the counts keep the percentiles inside a cluster: an odd number
# of shapes puts the median of R rounds mid-cluster, and with two M_6 tasks
# a round the ten tasks beyond the tail percentile lie among the M_6 tasks
# once R >= 6.  The M_6 tasks are memory-bound, the steadiest latencies.
ORDER_NORM_ROUND = (
    ("full", 2, "standard", 1, True),
    ("commutative", 4, "similarity", 1, True),
    ("blocks", 5, "standard", 1, True),
    ("full", 6, "similarity", 1, True),
    ("commutative", 6, "standard", 1, True),
    ("blocks", 3, "similarity", 1, True),
    ("full", 3, "standard", 2, True),
    ("blocks", 6, "similarity", 2, True),
    ("full", 6, "standard", 8, False),
    ("commutative", 5, "standard", 2, True),
    ("full", 4, "similarity", 2, True),
    ("full", 5, "standard", 2, True),
    ("blocks", 4, "standard", 4, True),
    ("full", 3, "similarity", 4, True),
    ("commutative", 3, "standard", 8, True),
    ("blocks", 2, "similarity", 8, True),
    ("full", 6, "standard", 8, False),
)


def _norm_task(rng, task_id, alg, family, n, variant, level, with_pre):
    s = None
    b = alg
    if variant == "similarity":
        s = random_similarity(rng, n, rng.uniform(0.0, 1.0))
        b = algebra.conjugate_algebra(alg, np.linalg.inv(s))
    # Elements are drawn in the straightened frame (blocks over the
    # star-closed alg) and carried to the cone's frame by (I_n kron S)^-1.
    a_straight = block_element(rng, alg, level)
    a_straight = 0.5 * (a_straight + a_straight.conj().T)
    # The seminorm's bisection tests r e + a before r e - a and skips the
    # second test when the first fails.  With a positive dominant eigenvalue
    # every step near the answer runs both tests; with a negative one a step
    # runs one test or two depending on the side of the answer it lands on,
    # so the task's work varies by up to 30% with the draw.  Fixing the sign
    # keeps the work of a task shape the same from run to run.
    ev = np.linalg.eigvalsh(a_straight)
    if ev[-1] < -ev[0]:
        a_straight = -a_straight
    x_straight = block_element(rng, alg, level)
    if s is not None:
        big_s = np.kron(np.eye(level), s)
        big_s_inv = np.linalg.inv(big_s)
        a, x = big_s_inv @ a_straight @ big_s, big_s_inv @ x_straight @ big_s
    else:
        a, x = a_straight, x_straight

    def run():
        cone = (cones.SimilarityCone(b, s) if s is not None
                else cones.StandardCone(alg))
        semi = order_norms.order_unit_seminorm(cone, level, a)
        out = ("seminorm", semi.value, semi.iterations, semi.oracle_calls)
        if with_pre:
            pre = order_norms.pre_cstar_norm(cone, None, level, x)
            out += ("pre_cstar", pre.value, pre.iterations, pre.oracle_calls)
        return out

    def check(out):
        ref = float(np.max(np.abs(np.linalg.eigvalsh(a_straight))))
        if not _close(out[1], ref):
            return f"seminorm {out[1]!r} vs spectral radius {ref!r}"
        if with_pre:
            ref = float(np.linalg.norm(x_straight, 2))
            if not _close(out[5], ref):
                return f"pre-C* norm {out[5]!r} vs top singular value {ref!r}"
        return "ok"

    kind = f"L{level}-{variant}"
    params = {"family": family, "N": n, "variant": variant, "level": level,
              "dim": alg.dim, "pre_cstar": with_pre}
    return Task(task_id, kind, run, check, params=params)


def build_order_norms(rng: np.random.Generator, rounds: int, workdir: str) -> list:
    """One algebra per shape, shared by the rounds (no task mutates it, and
    each task builds its own cone); elements and S are drawn per task."""
    algs = [star_algebra(rng, family, n) for family, n, *_ in ORDER_NORM_ROUND]
    return [[_norm_task(rng, f"r{r}.t{k}", alg, *shape)
             for k, (alg, shape) in enumerate(zip(algs, ORDER_NORM_ROUND))]
            for r in range(rounds)]


# ---------------------------------------------------------------------------
# similarity-recovery
# ---------------------------------------------------------------------------

# One round covers every (family, N) pair once and splits log10 cond(S) in
# [0, 4] into one stratum per task, so cond(S) is log-uniform on [1, 1e4]
# and the cliff band cond(S) >= 1e3 holds a fixed share of every round.
SIM_SHAPES = tuple((family, n) for n in (2, 3, 4, 5, 6) for family in FAMILIES)
SIM_STRATA = len(SIM_SHAPES)
# Stratum of shape k in round r: a fixed stride through the strata, shifted
# by one each round, so every shape meets every conditioning level.
SIM_STRIDE = 4


def _similarity_task(rng, task_id, family, n, stratum):
    alg = star_algebra(rng, family, n)
    log10_cond = 4.0 * (stratum + rng.uniform()) / SIM_STRATA
    s = random_similarity(rng, n, log10_cond)
    planted = float(np.linalg.cond(s.conj().T @ s))
    seed = int(rng.integers(0, 2 ** 31))

    def run():
        b = algebra.conjugate_algebra(alg, np.linalg.inv(s))
        cone = cones.SimilarityCone(b, s)
        res = similarity.reconstruct_similarity(b, cone, seed=seed, cb_level=CB_LEVEL)
        cert = res.certificate
        return ("certificate", res.q_space_dim, cert.cond, cert.residual_star,
                res.cb_lower, res.cb_upper, res.sandwich_ok)

    def check(out):
        _, _, cond, residual, _, _, sandwich_ok = out
        if not residual <= RESIDUAL_TOL:
            return f"residual_star {residual!r} > {RESIDUAL_TOL}"
        if not cond <= planted * (1.0 + COND_EXCESS_TOL):
            return f"cond(Q) {cond!r} above planted {planted!r}"
        if not sandwich_ok:
            return "cb sandwich violated"
        return "ok"

    params = {"family": family, "N": n, "dim": alg.dim,
              "log10_cond_S": round(log10_cond, 4)}
    return Task(task_id, f"{family}-N{n}", run, check,
                miss_is_measured=True, params=params)


def build_similarity_recovery(rng: np.random.Generator, rounds: int, workdir: str) -> list:
    return [[_similarity_task(rng, f"r{r}.t{k}", family, n,
                              (SIM_STRIDE * k + r) % SIM_STRATA)
             for k, (family, n) in enumerate(SIM_SHAPES)]
            for r in range(rounds)]


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli_task(workdir, task_id, kind, argv, expect_passed):
    out_path = os.path.join(workdir, f"{task_id}.report.json")
    argv = argv + ["--out", out_path]

    def run():
        code = cli.run(argv)
        with open(out_path, "rb") as fh:
            data = fh.read()
        return ("exit", code, data)

    def check(out):
        return check_report(*out[1:], expect_passed)

    return Task(task_id, kind, run, check, params={"argv": argv})


def _passed_flags(obj):
    """Every value of a "passed" key anywhere in a decoded report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "passed":
                yield value
            else:
                yield from _passed_flags(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _passed_flags(value)


def check_report(code: int, data: bytes, expect_passed: bool) -> str:
    """Exit code 0, no error, and `passed: true` wherever the report has
    that field (at the top for the commands that must carry one, and in
    nested entries such as involution's entrywise comparisons)."""
    if code != 0:
        return f"exit code {code}, expected 0"
    report = json.loads(data)
    if "error" in report:
        return f"error {report['error']!r}"
    result = report["result"]
    if expect_passed and "passed" not in result:
        return "report has no passed field"
    if not all(flag is True for flag in _passed_flags(result)):
        return "report has passed != true"
    return "ok"


def build_cli_session(rng: np.random.Generator, rounds: int, workdir: str) -> list:
    """Seven commands per round on fresh JSON inputs over M_3.

    close-algebra runs twice (with and without adjoints), so the median of
    the 7 R latencies falls inside a command's cluster, not between two."""
    out = []
    n = 3
    for r in range(rounds):
        seed = str(int(rng.integers(0, 2 ** 31)))
        pre = os.path.join(workdir, f"r{r}")
        g = random_complex(rng, (n, n))
        _write_json(pre + ".gens.json", [serialization.matrix_to_obj(g)])
        alg = algebra.generate_algebra([g], include_adjoints=True)
        _write_json(pre + ".algebra.json", serialization.algebra_to_obj(alg))
        s = random_similarity(rng, n, rng.uniform(0.0, 0.5))
        _write_json(pre + ".S.json", serialization.matrix_to_obj(s))
        b = algebra.conjugate_algebra(alg, np.linalg.inv(s))
        _write_json(pre + ".std.json", {"variant": "standard",
                                        "algebra": os.path.basename(pre + ".algebra.json"),
                                        "tol_psd": 1e-9})
        _write_json(pre + ".sim.json", {"variant": "similarity",
                                        "algebra": serialization.algebra_to_obj(b),
                                        "S": serialization.matrix_to_obj(s),
                                        "tol_psd": 1e-9})
        common = ["--seed", seed, "--samples", str(CLI_SAMPLES)]
        specs = (
            ("close-algebra", ["close-algebra", "--generators", pre + ".gens.json",
                               "--include-adjoints"], False),
            ("close-algebra-plain", ["close-algebra", "--generators", pre + ".gens.json"],
             False),
            ("check-cones-standard", ["check-cones", "--cone", pre + ".std.json",
                                      "--levels", "1,2,4"], True),
            ("check-cones-similarity", ["check-cones", "--cone", pre + ".sim.json",
                                        "--levels", "1,2,4"], True),
            ("involution", ["involution", "--cone", pre + ".sim.json", "--level", "1",
                            "--levels", "1,2,3"], False),
            ("kadison-demo", ["kadison-demo", "--algebra", pre + ".algebra.json",
                              "--similarity", pre + ".S.json"], True),
            ("c1-example", ["c1-example", "--grid-size", "64",
                            "--frequencies", "4,8,16,32"], True),
        )
        out.append([_cli_task(workdir, f"r{r}.{kind}", kind, argv + common, passed)
                    for kind, argv, passed in specs])
    return out


BUILDERS = {
    "order-norms": build_order_norms,
    "similarity-recovery": build_similarity_recovery,
    "cli-session": build_cli_session,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS.get(workload, 1), math.ceil(seconds / NOMINAL_ROUND_S[workload]))


def build(workload: str, seed: int, seconds: float, workdir: str) -> list:
    """Every input of the run, generated from the seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](rng, rounds_for(workload, seconds), workdir)


# ---------------------------------------------------------------------------
# Running one task
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    latency_s: float        # wall seconds
    speed: float            # factor from wall to reference seconds
    output: tuple | None
    error: str | None

    @property
    def ref_latency_s(self) -> float:
        return self.latency_s * self.speed


def run_task(task: Task, timer) -> Outcome:
    """Time one task with `timer` (see speed.py).  Typed matorder errors
    are outcomes; anything else is recorded as an unexpected error with
    its type."""
    def call():
        try:
            return task.run(), None
        except MatOrderError as exc:
            return None, type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - a crash is a result to report
            return None, f"unexpected {type(exc).__name__}: {exc}"

    (output, error), latency, speed = timer(call)
    return Outcome(latency, speed, output, error)


def classify(task: Task, outcome: Outcome) -> tuple[str, str]:
    """(status, detail) with status one of
    ok      - the output matched the reference;
    miss    - a typed matorder error or a missed reference on a task whose
              misses the workload measures (similarity-recovery);
    wrong   - a typed error or a missed reference anywhere else;
    crashed - an exception that is not a matorder error."""
    if outcome.error is None:
        detail = task.check(outcome.output)
        status = "ok" if detail == "ok" else "wrong"
    elif outcome.error.startswith("unexpected "):
        return "crashed", outcome.error
    else:
        status, detail = "wrong", outcome.error
    if status == "wrong" and task.miss_is_measured:
        status = "miss"
    return status, "" if status == "ok" else detail


def same_output(a: Outcome, b: Outcome) -> bool:
    """Bit-for-bit equality of two runs of one task.  repr of a Python float
    round-trips exactly, and tells -0.0 from 0.0 where == does not."""
    return a.error == b.error and repr(a.output) == repr(b.output)
