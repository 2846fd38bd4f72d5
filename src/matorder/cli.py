"""Command-line entry point.

Every command reads JSON inputs, runs the corresponding operation, and
writes a single canonical JSON report (stdout or --out).  A cone file is a
`standard` or `similarity` cone; `c1-example` reads none, and computes its
function cone's constants on value and derivative samples of the grid.  Exit
codes: 0 success, 2 audit failure (report carries witnesses), 3 typed
numerical errors, 4 I/O or schema errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import case_studies, cones, involution, order_norms, similarity
from .algebra import DEFAULT_MAX_DIM, DEFAULT_STRUCTURE_TOL, generate_algebra
from .errors import MatOrderError, SchemaError
from .serialization import (
    _expect,
    _number,
    algebra_from_obj,
    algebra_to_obj,
    audit_to_obj,
    canonical_json,
    cone_from_obj,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
)

EXIT_OK = 0
EXIT_AUDIT_FAIL = 2
EXIT_TYPED_ERROR = 3
EXIT_SCHEMA_ERROR = 4
MAX_LEVEL = 8  # the highest level that --levels and involution --level accept
MAX_GRID = 4096  # the most points a c1-example grid may have: --grid-size and 4k
MAX_SAMPLES = 1024  # the most --samples: c1-example draws ~136 B a sample per grid point


def _certificate_obj(cert: similarity.SimilarityCertificate) -> dict:
    return {
        "Q": matrix_to_obj(cert.q),
        "S": matrix_to_obj(cert.s),
        "cond": cert.cond,
        "gap": cert.gap,
        "residual_star": cert.residual_star,
        "residual_cone": cert.residual_cone,
    }


def _load_cone(path: str, structure_tol: float):
    # The cone's tol_psd is its file's (DEFAULT_TOL_PSD where the file has none).
    return cone_from_obj(load_json(path), base_dir=os.path.dirname(path) or ".",
                         tol=structure_tol)


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, result_object)
# ---------------------------------------------------------------------------

def _cmd_close_algebra(args):
    if args.max_dim < 1:
        raise SchemaError("/max-dim", "must be >= 1")
    obj = load_json(args.generators)
    if not isinstance(obj, list) or not obj:
        raise SchemaError("", "generators file must hold a nonempty list of matrices")
    gens = [matrix_from_obj(g, f"/{k}") for k, g in enumerate(obj)]
    for k, gen in enumerate(gens):
        _expect(len(gen) == len(gens[0]), f"/{k}/dim", "must equal the first generator's size")
    algebra = generate_algebra(gens, include_adjoints=args.include_adjoints,
                               tol=args.structure_tol, max_dim=args.max_dim)
    return EXIT_OK, {
        "algebra": algebra_to_obj(algebra),
        "dim": algebra.dim,
        "star_closed": algebra.star_closed,
    }


def _cmd_check_cones(args):
    cone = _load_cone(args.cone, args.structure_tol)
    sampling = {"samples": args.samples, "seed": args.seed}
    reports = [cones.audit_algebraically_admissible(cone, n=1, **sampling),
               cones.audit_matrix_ordered(cone, levels=args.levels, **sampling),
               cones.audit_star_admissible(cone, levels=args.levels, **sampling)]
    r1, alpha = cones.estimate_main_constants(cone, levels=args.levels, **sampling)
    ok = all(r.passed for r in reports)
    return (EXIT_OK if ok else EXIT_AUDIT_FAIL), {
        "cone": cone.describe(), "constants": {"r1": r1.value, "alpha": alpha.value},
        "audits": [audit_to_obj(r) for r in reports], "passed": ok}


def _cmd_order_norm(args):
    cone = _load_cone(args.cone, args.structure_tol)
    x = matrix_from_obj(load_json(args.element))
    # The level is the element's: a size that N does not divide fails in the norm.
    level = max(1, len(x) // cone.algebra.ambient_dim)
    if args.kind == "seminorm":
        rep = order_norms.order_unit_seminorm(cone, level, x,
                                              bisect_tol=args.bisect_tol)
    else:
        rep = order_norms.pre_cstar_norm(cone, None, level, x,
                                         bisect_tol=args.bisect_tol)
    return EXIT_OK, {"kind": args.kind, "level": level, "report": rep}


def _cmd_involution(args):
    if args.level > MAX_LEVEL:
        raise SchemaError("/level", f"must lie in 1..{MAX_LEVEL}")
    cone = _load_cone(args.cone, args.structure_tol)
    inv = involution.recover_involution(cone, seed=args.seed)
    samples = max(4, args.samples // 4)
    # The --level certificate draws a superset of the comparison samples at
    # its level (one stream), so it also stands as that comparison.
    cert = (involution.certify_level(cone, args.level, inv, args.seed, samples)
            if args.level > 1 else None)
    comparisons = []
    for n in args.levels:
        if n == 1:
            continue
        cmp_rep = cert if n == args.level else involution.verify_matrix_involution(
            cone, n, samples=samples, seed=args.seed, involution1=inv)
        comparisons.append({"level": n, "max_residual": cmp_rep.max_residual,
                            "rank": cmp_rep.rank, "need": cmp_rep.need,
                            "passed": cmp_rep.passed, "provenance": cmp_rep.provenance})
    return EXIT_OK, {
        "level": args.level,
        "images": [matrix_to_obj(m) for m in inv.images],
        "bound_2K": inv.norm_bound(args.seed),
        "entrywise_comparisons": comparisons,
    }


def _cmd_similarity(args):
    cone = _load_cone(args.cone, args.structure_tol)
    if args.algebra:
        algebra = algebra_from_obj(load_json(args.algebra), tol=args.structure_tol)
    else:
        algebra = cone.algebra
    res = similarity.reconstruct_similarity(
        algebra, cone, seed=args.seed, cert_tol=args.cert_tol,
        levels=args.levels, samples=args.samples)
    return (EXIT_OK if res.sandwich_ok else EXIT_AUDIT_FAIL), {
        "q_space_dim": res.q_space_dim,
        "certificate": _certificate_obj(res.certificate),
        "cb_lower": res.cb_lower,
        "cb_upper": res.cb_upper,
        "cb_level": res.cb_level,
        "sandwich_ok": res.sandwich_ok,
    }


def _cmd_cb_norm(args):
    algebra = algebra_from_obj(load_json(args.algebra), tol=args.structure_tol)
    obj = load_json(args.images)
    if not isinstance(obj, list) or len(obj) != algebra.dim:
        raise SchemaError("", f"images file must list {algebra.dim} matrices")
    images = [matrix_from_obj(m, f"/{k}") for k, m in enumerate(obj)]
    for k, image in enumerate(images):
        _expect(len(image) == len(images[0]), f"/{k}/dim", "must equal the first image's size")
    level = len(images[0]) if args.level is None else args.level
    _expect(level <= len(images[0]), "/level",  # Smith's lemma: ||phi^(R)|| is ||phi||_cb
            f"must be <= the images' size {len(images[0])}, where the cb norm is attained")
    value = similarity.cb_lower_bound(images, algebra, k=level, seed=args.seed)
    return EXIT_OK, {"cb_lower_bound": value, "level": level}


def _cmd_kadison_demo(args):
    algebra = algebra_from_obj(load_json(args.algebra), tol=args.structure_tol)
    s = matrix_from_obj(load_json(args.similarity))
    _expect(s.shape == (algebra.ambient_dim,) * 2, "/dim",
            "must match the algebra ambient dimension")
    report = case_studies.kadison_pipeline(
        algebra, s, levels=args.levels, samples=args.samples,
        seed=args.seed, cert_tol=args.cert_tol)
    result = {
        "j_symmetry_residual": report.rep.symmetry_residual,
        "norm_identity_deviation": report.norm_identity.max_deviation,
        "audit": audit_to_obj(report.audit),
        "certificate": _certificate_obj(report.reconstruction.certificate),
        "cb_lower": report.reconstruction.cb_lower,
        "cb_upper": report.reconstruction.cb_upper,
        "cb_level": report.reconstruction.cb_level,
        "star_rep_residual": report.star_rep_residual,
        "passed": report.passed,
    }
    return (EXIT_OK if report.passed else EXIT_AUDIT_FAIL), result


def _cmd_c1_example(args):
    if not 1 <= args.grid_size <= MAX_GRID:
        raise SchemaError("/grid-size", f"must lie in 1..{MAX_GRID}")
    if min(args.frequencies) < 1:
        raise SchemaError("/frequencies", "every frequency must be >= 1")
    if 4 * max(args.frequencies) > MAX_GRID:
        raise SchemaError("/frequencies", f"every frequency k needs 4k <= {MAX_GRID} grid points")
    grid = np.linspace(0.0, 1.0, args.grid_size)
    ineq = case_studies.c1_inequality_check(samples=args.samples,
                                            seed=args.seed,
                                            grid_size=args.grid_size)
    by_grid = {}  # one decay call per grid size max(grid_size, 4k)
    for k in dict.fromkeys(args.frequencies):
        by_grid.setdefault(max(args.grid_size, 4 * k), []).append(k)
    decay = {str(k): ratio for m, ks in by_grid.items() for k, ratio in
             zip(ks, case_studies.c1_condition1_decay(ks, np.linspace(0.0, 1.0, m)))}
    golden = case_studies.c1_norm(case_studies.C1Sample(
        np.array([1.0]), np.array([1.0 + 0j]), np.array([1.0 + 0j])))
    r1, alpha = case_studies.c1_main_constants(grid, args.samples, args.seed)
    result = {
        "grid_size": args.grid_size,
        "inequalities": {"samples": ineq.samples, "violations": ineq.violations,
                         "worst_margin": ineq.worst_margin},
        "condition1_decay": decay,
        "golden_ratio_norm": golden,
        "pullback_constants": {"r1": r1, "alpha": alpha},
        "passed": ineq.passed,
    }
    return (EXIT_OK if ineq.passed else EXIT_AUDIT_FAIL), result


# Each tuning flag: its type and default, the library's constants ("levels" is parsed by
# _config, so that a malformed list exits 4 with a report).
_FLAGS = {
    "seed": (int, 0),
    "samples": (int, 50),
    "levels": (str, "1,2"),
    "bisect_tol": (float, order_norms.DEFAULT_BISECT_TOL),
    "cert_tol": (float, similarity.DEFAULT_CERT_TOL),
    "structure_tol": (float, DEFAULT_STRUCTURE_TOL),
}

# Each command: its handler and the tuning flags it reads, which its parser takes and its
# report's config lists (a cone's tol_psd is its file's: no command takes one).
_COMMANDS = {
    # seed and samples go unread: the benchmark's cli-session passes them to every command.
    "close-algebra": (_cmd_close_algebra, ("seed", "samples", "structure_tol")),
    "check-cones": (_cmd_check_cones, ("seed", "samples", "levels", "structure_tol")),
    "order-norm": (_cmd_order_norm, ("bisect_tol", "structure_tol")),
    "involution": (_cmd_involution, ("seed", "samples", "levels", "structure_tol")),
    "similarity": (_cmd_similarity, ("seed", "samples", "levels", "cert_tol", "structure_tol")),
    "cb-norm": (_cmd_cb_norm, ("seed", "structure_tol")),
    "kadison-demo": (_cmd_kadison_demo,
                     ("seed", "samples", "levels", "cert_tol", "structure_tol")),
    "c1-example": (_cmd_c1_example, ("seed", "samples")),
}


@functools.cache  # built on a process's first `run`; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matorder",
        description="Numerical workbench for matrix-ordered operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        for flag in _COMMANDS[name][1]:
            kind, default = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), type=kind, default=default)
        p.add_argument("--out", type=str, default=None)
        return p

    p = command("close-algebra", "unital closure of generators")
    p.add_argument("--generators", required=True)
    p.add_argument("--include-adjoints", action="store_true")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)

    p = command("check-cones", "run the cone axiom audits")
    p.add_argument("--cone", required=True)

    p = command("order-norm", "order-unit seminorm or pre-C*-norm")
    p.add_argument("--cone", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--kind", choices=["seminorm", "precstar"], default="seminorm")

    p = command("involution", "recover the cone-induced involution")
    p.add_argument("--cone", required=True)
    p.add_argument("--level", type=int, default=1)

    p = command("similarity", "reconstruct the similarity certificate")
    p.add_argument("--cone", required=True)
    p.add_argument("--algebra", default=None)

    p = command("cb-norm", "completely bounded norm lower bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--level", type=int, default=None)

    p = command("kadison-demo", "doubled-representation pipeline")
    p.add_argument("--algebra", required=True)
    p.add_argument("--similarity", required=True)

    p = command("c1-example", "function-embedding case study")
    p.add_argument("--grid-size", type=int, default=64)
    p.add_argument("--frequencies", type=lambda s: [int(v) for v in s.split(",")],
                   default=[4, 8, 16, 32])

    return parser


def _config(args) -> dict:
    """The command's tuning flags, checked, with --levels parsed onto args: its report's config."""
    config = {flag: getattr(args, flag) for flag in _COMMANDS[args.command][1]}
    if "levels" in config:
        try:
            args.levels = config["levels"] = tuple(int(v) for v in args.levels.split(","))
        except ValueError:
            raise SchemaError("/config/levels", "must be a comma-separated list of integers")
    if not 1 <= config.get("samples", 1) <= MAX_SAMPLES:
        raise SchemaError("/config/samples", f"must lie in 1..{MAX_SAMPLES}")
    levels = config.get("levels", (1,))
    if not levels or any(l < 1 or l > MAX_LEVEL for l in levels):
        raise SchemaError("/config/levels", f"levels must lie in 1..{MAX_LEVEL}")
    for flag, value in config.items():
        pointer = "/config/" + flag.replace("_", "-")
        if _FLAGS[flag][0] is float and _number(value, pointer) <= 0:
            raise SchemaError(pointer, "must be positive")
    # A relative width; the order-norm searches square it (1e200 ** 2 overflows).
    if config.get("bisect_tol", 0.0) >= 1:
        raise SchemaError("/config/bisect-tol", "must be < 1")
    if not 0 <= config.get("seed", 0) < 2 ** 64:
        raise SchemaError("/config/seed", "must fit in 64 bits")
    return config


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; that code is reserved for audit
        # failures, so usage errors map to the schema-error code.
        return EXIT_SCHEMA_ERROR if exc.code not in (0, None) else 0

    report = {"command": args.command}
    try:
        # An invalid config (a NaN flag, say) is not embedded: the report stays JSON.
        report["config"] = _config(args)
        if getattr(args, "level", None) is not None and args.level < 1:
            raise SchemaError("/level", "must be >= 1")
        code, result = _COMMANDS[args.command][0](args)
        report["result"] = result
    except SchemaError as exc:
        report["error"] = {"type": "SchemaError", "pointer": exc.pointer,
                           "message": exc.reason}
        code = EXIT_SCHEMA_ERROR
    except MatOrderError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = EXIT_TYPED_ERROR

    # The output path is not part of the computation: identical inputs and seeds
    # give byte-identical reports wherever they land.
    text = canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"cannot write {args.out}: {exc}\n")
            return EXIT_SCHEMA_ERROR
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
