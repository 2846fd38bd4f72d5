"""Span tracing for the benchmark's traced run.

`Tracer.installed()` wraps, for the duration of a `with` block, every public
function and method of each matorder module (the layers below), a few
private helpers that carry counts, and the `numpy.linalg` entry points.
The wrappers live here, in the benchmark; matorder itself is untouched and
runs unwrapped in the untimed runs.

Each wrapped call records a span (name, start, end, parent span, task) in
memory.  Counts that need the call's arguments or result (kernel flops,
projected bytes, NormReport work counters, report sizes) are recorded at the
same boundary.  `layer_metrics()` turns spans and counts into the per-layer
metrics; `save()` writes the spans out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import Counter

import numpy as np

import matorder
from matorder import (_linalg, algebra, case_studies, cli, cones, involution,
                      order_norms, serialization, similarity)
from matorder.errors import MatOrderError

# Layer names key the metrics.  matorder._linalg is reported as "linalg":
# metric names start with a letter or digit.
LAYERS = {
    "linalg": _linalg,
    "algebra": algebra,
    "cones": cones,
    "order_norms": order_norms,
    "involution": involution,
    "similarity": similarity,
    "case_studies": case_studies,
    "serialization": serialization,
    "cli": cli,
}

# Private helpers wrapped for the counts they carry: the shift bisections of
# the audits and the lineality check.
PRIVATE = {"cones": ("_inf_shift", "_sup_shift_down", "_lineality_check")}

EIGENSOLVERS = ("eigvalsh", "eigh", "eig", "eigvals")
SVD_KERNELS = ("svd", "cond", "pinv", "matrix_rank")
OTHER_KERNELS = ("lstsq", "inv", "solve", "qr", "det", "slogdet")


def kernel_flops(kernel: str, args: tuple, kwargs: dict) -> float:
    """Textbook flop count of one numpy.linalg call, from the operand shape.

    Real-arithmetic counts from Golub & Van Loan, times 4 for complex
    operands, times the batch size for stacked operands.  This is a
    computed figure, not a measured one.
    """
    a = np.asarray(args[0])
    if a.ndim < 2:
        return 0.0
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    if kernel == "eigvalsh":
        f = 4.0 / 3.0 * n ** 3
    elif kernel == "eigh":
        f = 9.0 * n ** 3
    elif kernel == "eigvals":
        f = 10.0 * n ** 3
    elif kernel == "eig":
        f = 25.0 * n ** 3
    elif kernel == "svd" and kwargs.get("compute_uv", True) or kernel == "pinv":
        f = 14.0 * big * k ** 2 + 8.0 * k ** 3
    elif kernel in ("svd", "cond", "matrix_rank", "norm"):
        f = 4.0 * big * k ** 2 - 4.0 / 3.0 * k ** 3
    elif kernel == "lstsq":
        f = 4.0 * big * k ** 2
    elif kernel == "inv":
        f = 2.0 * n ** 3
    elif kernel == "solve":
        rhs = np.asarray(args[1]) if len(args) > 1 else np.zeros((n, 1))
        f = 2.0 / 3.0 * n ** 3 + 2.0 * n ** 2 * (rhs.shape[-1] if rhs.ndim > 1 else 1)
    elif kernel == "qr":
        f = 2.0 * big * k ** 2 - 2.0 / 3.0 * k ** 3
    else:  # det, slogdet
        f = 2.0 / 3.0 * n ** 3
    if np.iscomplexobj(a):
        f *= 4.0
    return f * math.prod(a.shape[:-2])


def _is_svd_norm(args: tuple, kwargs: dict) -> bool:
    """numpy.linalg.norm runs an SVD only for the 2 / -2 / nuclear matrix norms."""
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return np.ndim(args[0]) == 2 and order in (2, -2, "nuc")


class Tracer:
    """In-memory span recorder plus boundary counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.active: list[int] = []
        # Span columns.
        self.start: list[float] = []
        self.end: list[float] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.task: list[int] = []
        self.stack: list[int] = []
        # Index of the running task; -1 while inputs are being built.
        self.task_id = -1
        # Counts of the task phase only.
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.active.append(0)
        return self._ids[name]

    def _is_active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.active[nid] > 0

    def wrap(self, fn, name: str, layer: str, on_call=None, on_return=None):
        """A wrapper that records one span per call of fn.

        on_call(args, kwargs) runs before the call; on_return(result,
        boundary) after it, where boundary says the caller is outside the
        layer.  A typed matorder error that leaves the layer is counted as
        `<layer>.errors`.
        """
        nid = self.name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            boundary = parent < 0 or tracer.layer_of[tracer.name[parent]] != layer
            if on_call is not None and tracer.task_id >= 0:
                on_call(args, kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.task.append(tracer.task_id)
            tracer.end.append(math.nan)
            stack.append(idx)
            tracer.active[nid] += 1
            tracer.start.append(tracer.clock())
            try:
                result = fn(*args, **kwargs)
            except MatOrderError:
                if boundary and tracer.task_id >= 0:
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer.end[idx] = tracer.clock()
                tracer.active[nid] -= 1
                stack.pop()
            if on_return is not None and tracer.task_id >= 0:
                on_return(result, boundary)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _kernel_hook(self, kernel: str):
        def on_call(args, kwargs):
            c = self.counts
            if kernel in EIGENSOLVERS:
                c["linalg.eigensolves"] += 1
                if self._is_active("similarity.minimize_condition"):
                    c["similarity.minimize_condition_eigensolves"] += 1
            elif kernel in SVD_KERNELS or kernel == "norm":
                c["linalg.svds"] += 1
                if self._is_active("similarity.cb_lower_bound"):
                    c["similarity.cb_lower_bound_svds"] += 1
            elif kernel == "lstsq":
                c["linalg.lstsq_calls"] += 1
            c["linalg.flop_computed"] += kernel_flops(kernel, args, kwargs)
        return on_call

    def _wrap_kernel(self, kernel: str):
        fn = getattr(np.linalg, kernel)
        hook = self._kernel_hook(kernel)
        traced = self.wrap(fn, f"linalg.numpy.{kernel}", "linalg", on_call=hook)
        tracer = self

        @functools.wraps(fn)
        def kernel_entry(*args, **kwargs):
            # Only calls made from inside matorder are kernels of the
            # program; vector and Frobenius norms are not kernels at all.
            if not tracer.stack or (kernel == "norm" and not _is_svd_norm(args, kwargs)):
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return kernel_entry

    def _hooks(self, name: str) -> dict:
        if name == "algebra.OperatorAlgebra.coords_of":
            def on_call(args, kwargs):
                self.counts["algebra.project_bytes_computed"] += (
                    args[0].basis.nbytes + np.asarray(args[1]).nbytes)
            return {"on_call": on_call}
        if name == "algebra.amplify":
            def on_return(result, boundary):
                c = self.counts
                c["algebra.amplified_basis_mb_max"] = max(
                    c["algebra.amplified_basis_mb_max"], result.basis.nbytes / 2 ** 20)
            return {"on_return": on_return}
        if name.startswith("cones.") and name.endswith(".member"):
            def on_call(args, kwargs):
                if (self._is_active("cones._inf_shift")
                        or self._is_active("cones._sup_shift_down")):
                    self.counts["cones.member_in_shift"] += 1
            return {"on_call": on_call}
        if name in ("order_norms.order_unit_seminorm", "order_norms.pre_cstar_norm"):
            def on_return(result, boundary):
                if boundary and isinstance(result, order_norms.NormReport):
                    c = self.counts
                    c["order_norms.norms"] += 1
                    c["order_norms.bisect_iterations"] += result.iterations
                    c["order_norms.oracle_calls"] += result.oracle_calls
            return {"on_return": on_return}
        if name == "serialization.canonical_json":
            def on_return(result, boundary):
                if boundary:
                    self.counts["serialization.report_bytes"] += len(result.encode())
            return {"on_return": on_return}
        return {}

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, function, span name, layer) for every wrapped
        function and method, in a fixed order."""
        for layer, mod in LAYERS.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not attr.startswith("_") or attr in PRIVATE.get(layer, ()):
                        yield mod, attr, obj, f"{layer}.{attr}", layer
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            yield obj, meth, fn, f"{layer}.{attr}.{meth}", layer

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for owner, attr, fn, name, layer in list(self._targets()):
            wrapper = self.wrap(fn, name, layer, **self._hooks(name))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                replaced[id(fn)] = (fn, wrapper)
        # A function imported by name into other modules is replaced there too.
        for mod in (matorder, *LAYERS.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for kernel in (*EIGENSOLVERS, *SVD_KERNELS, *OTHER_KERNELS, "norm"):
            self._patch(np.linalg, kernel, self._wrap_kernel(kernel))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def columns(self) -> dict:
        return {
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "task": np.asarray(self.task, dtype=np.int64),
        }

    def save(self, path: str, task_ids: list[str]) -> None:
        np.savez_compressed(path, names=np.asarray(self.names),
                            task_ids=np.asarray(task_ids), **self.columns())

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the task phase, plus set-up generate counts."""
        return layer_metrics(self.names, self.layer_of, self.columns(), self.counts)


# ---------------------------------------------------------------------------
# Turning spans into metrics
# ---------------------------------------------------------------------------

def self_times(cols: dict) -> np.ndarray:
    """Each span's duration minus the part covered by its child spans.

    Children of one span never overlap (the program is single-threaded),
    so the covered part is the sum of their durations."""
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    has_parent = cols["parent"] >= 0
    np.add.at(child, cols["parent"][has_parent], dur[has_parent])
    return dur - child


def _groups(names: list[str]) -> dict:
    """Metric prefix -> predicate on span names."""
    def ends(layer, *suffixes):
        return lambda s: s.startswith(layer + ".") and s.endswith(suffixes)

    def one_of(*full):
        return lambda s: s in full

    return {
        "algebra.amplify": one_of("algebra.amplify"),
        "algebra.project": one_of("algebra.OperatorAlgebra.coords_of"),
        "algebra.generate": one_of("algebra.generate_algebra"),
        "cones.member": ends("cones", ".member"),
        "cones.shift": one_of("cones._inf_shift", "cones._sup_shift_down"),
        "cones.sample": ends("cones", ".sample", ".sample_span"),
        "cones.span_basis": ends("cones", ".span_basis"),
        "cones.lineality": lambda s: s in ("cones._lineality_check",)
        or (s.startswith("cones.") and s.endswith(".lineality_basis")),
        "cones.audit": one_of("cones.audit_algebraically_admissible",
                              "cones.audit_matrix_ordered",
                              "cones.audit_star_admissible"),
        "involution.recover": one_of("involution.recover_involution"),
        "involution.span": one_of("involution.real_cone_span"),
        "involution.decompose": one_of("involution.decompose"),
        "similarity.solve_Q": one_of("similarity.solve_Q"),
        "similarity.find_pd": one_of("similarity.find_pd"),
        "similarity.minimize_condition": one_of("similarity.minimize_condition"),
        "similarity.build_star_rep": one_of("similarity.build_star_rep"),
        "similarity.cb_lower_bound": one_of("similarity.cb_lower_bound"),
        "case_studies.kadison": one_of("case_studies.kadison_pipeline"),
        "case_studies.c1": lambda s: s.startswith("case_studies.") and (
            ".c1_" in s or ".FunctionPullbackCone." in s or ".C1Sample." in s),
        "serialization.load": lambda s: s.startswith("serialization.") and (
            "from_obj" in s or "load" in s),
        "serialization.dump": lambda s: s.startswith("serialization.") and (
            "to_obj" in s or "canonical" in s),
    }


def group_stats(names: list[str], cols: dict, phase) -> dict:
    """Per group: (calls, seconds), where seconds sums the spans of the
    group that have no ancestor in the same group, so nested calls are not
    counted twice."""
    groups = _groups(names)
    bit = {g: 1 << k for k, g in enumerate(groups)}
    name_bits = [sum(b for g, b in bit.items() if groups[g](nm)) for nm in names]
    name_col = cols["name"].tolist()
    parent_col = cols["parent"].tolist()
    above = [0] * len(name_col)
    for i, p in enumerate(parent_col):
        if p >= 0:
            above[i] = above[p] | name_bits[name_col[p]]
    span_bits = np.asarray([name_bits[n] for n in name_col], dtype=np.int64)
    above = np.asarray(above, dtype=np.int64)
    dur = cols["end"] - cols["start"]
    out = {}
    for g, b in bit.items():
        member = ((span_bits & b) != 0) & phase
        outer = member & ((above & b) == 0)
        out[g] = (int(member.sum()), float(dur[outer].sum()))
    return out


def layer_metrics(names, layer_of, cols, counts) -> dict:
    """name -> (value, unit) for every per-layer metric of the traced run."""
    phase = cols["task"] >= 0
    g = group_stats(names, cols, phase)
    g_setup = group_stats(names, cols, ~phase)
    selfs = self_times(cols)
    span_layer = np.asarray(layer_of + [""])[cols["name"]]

    def self_s(layer):
        return float(selfs[phase & (span_layer == layer)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "linalg.eigensolves": (counts["linalg.eigensolves"], "count"),
        "linalg.svds": (counts["linalg.svds"], "count"),
        "linalg.lstsq_calls": (counts["linalg.lstsq_calls"], "count"),
        "linalg.self_s": (self_s("linalg"), "s"),
        "linalg.flop_computed": (float(counts["linalg.flop_computed"]), "flop"),
        "algebra.amplify_calls": (g["algebra.amplify"][0], "count"),
        "algebra.amplify_s": (g["algebra.amplify"][1], "s"),
        "algebra.amplified_basis_mb_max": (
            float(counts["algebra.amplified_basis_mb_max"]), "MB"),
        "algebra.project_calls": (g["algebra.project"][0], "count"),
        "algebra.project_s": (g["algebra.project"][1], "s"),
        "algebra.project_bytes_computed": (
            counts["algebra.project_bytes_computed"], "bytes"),
        "algebra.generate_calls": (g["algebra.generate"][0], "count"),
        "algebra.generate_s": (g["algebra.generate"][1], "s"),
        "algebra.generate_setup_calls": (g_setup["algebra.generate"][0], "count"),
        "algebra.generate_setup_s": (g_setup["algebra.generate"][1], "s"),
        "cones.member_calls": (g["cones.member"][0], "count"),
        "cones.member_s": (g["cones.member"][1], "s"),
        "cones.shift_searches": (g["cones.shift"][0], "count"),
        "cones.oracle_calls_per_shift": (
            ratio(counts["cones.member_in_shift"], g["cones.shift"][0]), "calls/search"),
        "cones.sample_calls": (g["cones.sample"][0], "count"),
        "cones.sample_s": (g["cones.sample"][1], "s"),
        "cones.span_basis_calls": (g["cones.span_basis"][0], "count"),
        "cones.span_basis_s": (g["cones.span_basis"][1], "s"),
        "cones.lineality_s": (g["cones.lineality"][1], "s"),
        "cones.audit_s": (g["cones.audit"][1], "s"),
        "order_norms.norms": (counts["order_norms.norms"], "count"),
        "order_norms.self_s": (self_s("order_norms"), "s"),
        "order_norms.bisect_iterations": (counts["order_norms.bisect_iterations"], "count"),
        "order_norms.oracle_calls_per_norm": (
            ratio(counts["order_norms.oracle_calls"], counts["order_norms.norms"]),
            "calls/norm"),
        "involution.recover_calls": (g["involution.recover"][0], "count"),
        "involution.recover_s": (g["involution.recover"][1], "s"),
        "involution.span_s": (g["involution.span"][1], "s"),
        "involution.decompose_calls": (g["involution.decompose"][0], "count"),
        "involution.decompose_s": (g["involution.decompose"][1], "s"),
        "similarity.solve_Q_s": (g["similarity.solve_Q"][1], "s"),
        "similarity.find_pd_s": (g["similarity.find_pd"][1], "s"),
        "similarity.minimize_condition_s": (g["similarity.minimize_condition"][1], "s"),
        "similarity.minimize_condition_eigensolves": (
            counts["similarity.minimize_condition_eigensolves"], "count"),
        "similarity.build_star_rep_s": (g["similarity.build_star_rep"][1], "s"),
        "similarity.cb_lower_bound_s": (g["similarity.cb_lower_bound"][1], "s"),
        "similarity.cb_lower_bound_svds": (counts["similarity.cb_lower_bound_svds"], "count"),
        "case_studies.kadison_s": (g["case_studies.kadison"][1], "s"),
        "case_studies.c1_s": (g["case_studies.c1"][1], "s"),
        "serialization.load_s": (g["serialization.load"][1], "s"),
        "serialization.dump_s": (g["serialization.dump"][1], "s"),
        "serialization.report_bytes": (counts["serialization.report_bytes"], "bytes"),
        "cli.self_s": (self_s("cli"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (counts[f"{layer}.errors"], "count")
    return m
