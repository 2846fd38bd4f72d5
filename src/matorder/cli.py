"""Command-line entry point.

Every command reads JSON inputs, runs the corresponding operation, and
writes a single canonical JSON report (stdout or --out).  Exit codes:
0 success, 2 audit failure (report carries witnesses), 3 typed numerical
errors, 4 I/O or schema errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass

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


@dataclass
class RunConfig:
    seed: int = 0
    samples: int = 50
    levels: tuple = (1, 2)
    tol_psd: float = cones.DEFAULT_TOL_PSD
    bisect_tol: float = order_norms.DEFAULT_BISECT_TOL
    cert_tol: float = similarity.DEFAULT_CERT_TOL
    structure_tol: float = DEFAULT_STRUCTURE_TOL
    out: str | None = None

    def validate(self) -> None:
        if self.samples < 1:
            raise SchemaError("/config/samples", "must be >= 1")
        if not self.levels or any(l < 1 or l > MAX_LEVEL for l in self.levels):
            raise SchemaError("/config/levels", f"levels must lie in 1..{MAX_LEVEL}")
        for name in ("tol_psd", "bisect_tol", "cert_tol", "structure_tol"):
            pointer = f"/config/{name.replace('_', '-')}"
            if _number(getattr(self, name), pointer) <= 0:
                raise SchemaError(pointer, "must be positive")
        # A relative width; the order-norm searches square it (1e200 ** 2 overflows).
        if self.bisect_tol >= 1:
            raise SchemaError("/config/bisect-tol", "must be < 1")
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise SchemaError("/config/seed", "must fit in 64 bits")

    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["levels"] = list(self.levels)
        # The output path is not part of the computation: identical inputs
        # and seeds must give byte-identical reports wherever they land.
        obj.pop("out")
        return obj


def _certificate_obj(cert: similarity.SimilarityCertificate) -> dict:
    return {
        "Q": matrix_to_obj(cert.q),
        "S": matrix_to_obj(cert.s),
        "cond": cert.cond,
        "gap": cert.gap,
        "residual_star": cert.residual_star,
        "residual_cone": cert.residual_cone,
    }


def _load_cone(path: str, config: RunConfig):
    obj = load_json(path)
    if isinstance(obj, dict) and "tol_psd" not in obj:
        obj = dict(obj)
        obj["tol_psd"] = config.tol_psd
    return cone_from_obj(obj, base_dir=os.path.dirname(path) or ".", tol=config.structure_tol)


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, result_object)
# ---------------------------------------------------------------------------

def _cmd_close_algebra(args, config: RunConfig):
    obj = load_json(args.generators)
    if not isinstance(obj, list) or not obj:
        raise SchemaError("", "generators file must hold a nonempty list of matrices")
    gens = [matrix_from_obj(g, f"/{k}") for k, g in enumerate(obj)]
    algebra = generate_algebra(gens, include_adjoints=args.include_adjoints,
                               tol=config.structure_tol, max_dim=args.max_dim)
    return EXIT_OK, {
        "algebra": algebra_to_obj(algebra),
        "dim": algebra.dim,
        "star_closed": algebra.star_closed,
    }


def _cmd_check_cones(args, config: RunConfig):
    cone = _load_cone(args.cone, config)
    sampling = {"samples": config.samples, "seed": config.seed}
    # A pullback cone (level 1 only) reports its constants and their level, and runs no audit.
    pullback = cone.variant == "pullback"
    levels = (1,) if pullback else config.levels
    reports = [] if pullback else [cones.audit_algebraically_admissible(cone, n=1, **sampling),
                                   cones.audit_matrix_ordered(cone, levels=levels, **sampling),
                                   cones.audit_star_admissible(cone, levels=levels, **sampling)]
    r1, alpha = cones.estimate_main_constants(cone, levels=levels, **sampling)
    result = {"cone": cone.describe(), "constants": {"r1": r1.value, "alpha": alpha.value}}
    if pullback:
        return EXIT_OK, dict(result, levels=list(levels))
    ok = all(r.passed for r in reports)
    result.update(audits=[audit_to_obj(r) for r in reports], passed=ok)
    return (EXIT_OK if ok else EXIT_AUDIT_FAIL), result


def _cmd_order_norm(args, config: RunConfig):
    cone = _load_cone(args.cone, config)
    x = matrix_from_obj(load_json(args.element))
    level = args.level
    if args.kind == "seminorm":
        rep = order_norms.order_unit_seminorm(cone, level, x,
                                              bisect_tol=config.bisect_tol)
    else:
        rep = order_norms.pre_cstar_norm(cone, None, level, x,
                                         bisect_tol=config.bisect_tol)
    return EXIT_OK, {"kind": args.kind, "level": level, "report": rep}


def _cmd_involution(args, config: RunConfig):
    if args.level > MAX_LEVEL:
        raise SchemaError("/level", f"must lie in 1..{MAX_LEVEL}")
    cone = _load_cone(args.cone, config)
    inv = involution.recover_involution(cone, seed=config.seed)
    samples = max(4, config.samples // 4)
    # The --level certificate draws a superset of the comparison samples at
    # its level (one stream), so it also stands as that comparison.
    cert = (involution.certify_level(cone, args.level, inv, config.seed, samples)
            if args.level > 1 else None)
    comparisons = []
    for n in config.levels:
        if n == 1:
            continue
        cmp_rep = cert if n == args.level else involution.verify_matrix_involution(
            cone, n, samples=samples, seed=config.seed, involution1=inv)
        comparisons.append({"level": n, "max_residual": cmp_rep.max_residual,
                            "rank": cmp_rep.rank, "need": cmp_rep.need,
                            "passed": cmp_rep.passed, "provenance": cmp_rep.provenance})
    return EXIT_OK, {
        "level": args.level,
        "images": [matrix_to_obj(m) for m in inv.images],
        "bound_2K": inv.norm_bound(config.seed),
        "entrywise_comparisons": comparisons,
    }


def _cmd_similarity(args, config: RunConfig):
    cone = _load_cone(args.cone, config)
    if args.algebra:
        algebra = algebra_from_obj(load_json(args.algebra), tol=config.structure_tol)
    else:
        algebra = cone.algebra
    res = similarity.reconstruct_similarity(
        algebra, cone, seed=config.seed, cert_tol=config.cert_tol,
        levels=config.levels, samples=config.samples)
    return EXIT_OK, {
        "q_space_dim": res.q_space_dim,
        "certificate": _certificate_obj(res.certificate),
        "cb_lower": res.cb_lower,
        "cb_upper": res.cb_upper,
        "cb_level": res.cb_level,
        "sandwich_ok": res.sandwich_ok,
    }


def _cmd_cb_norm(args, config: RunConfig):
    algebra = algebra_from_obj(load_json(args.algebra), tol=config.structure_tol)
    obj = load_json(args.images)
    if not isinstance(obj, list) or len(obj) != algebra.dim:
        raise SchemaError("", f"images file must list {algebra.dim} matrices")
    images = [matrix_from_obj(m, f"/{k}") for k, m in enumerate(obj)]
    for k, image in enumerate(images):
        _expect(len(image) == len(images[0]), f"/{k}/dim", "must equal the first image's size")
    level = len(images[0]) if args.level is None else args.level
    _expect(level <= len(images[0]), "/level",  # Smith's lemma: ||phi^(R)|| is ||phi||_cb
            f"must be <= the images' size {len(images[0])}, where the cb norm is attained")
    value = similarity.cb_lower_bound(images, algebra, k=level, seed=config.seed)
    return EXIT_OK, {"cb_lower_bound": value, "level": level}


def _cmd_kadison_demo(args, config: RunConfig):
    algebra = algebra_from_obj(load_json(args.algebra), tol=config.structure_tol)
    s = matrix_from_obj(load_json(args.similarity))
    report = case_studies.kadison_pipeline(
        algebra, s, levels=config.levels, samples=config.samples,
        seed=config.seed, cert_tol=config.cert_tol)
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


def _cmd_c1_example(args, config: RunConfig):
    if args.grid_size < 1:
        raise SchemaError("/grid-size", "must be >= 1")
    if min(args.frequencies) < 1:
        raise SchemaError("/frequencies", "every frequency must be >= 1")
    grid = np.linspace(0.0, 1.0, args.grid_size)
    ineq = case_studies.c1_inequality_check(samples=config.samples,
                                            seed=config.seed,
                                            grid_size=args.grid_size)
    decay = {str(k): case_studies.c1_condition1_decay(
        k, np.linspace(0.0, 1.0, max(args.grid_size, 4 * k))) for k in args.frequencies}
    golden = case_studies.c1_norm(case_studies.C1Sample(
        np.array([1.0]), np.array([1.0 + 0j]), np.array([1.0 + 0j])))
    cone = case_studies.FunctionPullbackCone(grid, config.tol_psd)
    r1, alpha = cones.estimate_main_constants(cone, levels=(1,),
                                              samples=config.samples,
                                              seed=config.seed)
    result = {
        "grid_size": args.grid_size,
        "inequalities": {"samples": ineq.samples, "violations": ineq.violations,
                         "worst_margin": ineq.worst_margin},
        "condition1_decay": decay,
        "golden_ratio_norm": golden,
        "pullback_constants": {"r1": r1.value, "alpha": alpha.value},
        "passed": ineq.passed,
    }
    return (EXIT_OK if ineq.passed else EXIT_AUDIT_FAIL), result


_HANDLERS = {
    "close-algebra": _cmd_close_algebra,
    "check-cones": _cmd_check_cones,
    "order-norm": _cmd_order_norm,
    "involution": _cmd_involution,
    "similarity": _cmd_similarity,
    "cb-norm": _cmd_cb_norm,
    "kadison-demo": _cmd_kadison_demo,
    "c1-example": _cmd_c1_example,
}


@functools.cache  # built on a process's first `run`; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matorder",
        description="Numerical workbench for matrix-ordered operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=RunConfig.seed)
        p.add_argument("--samples", type=int, default=RunConfig.samples)
        p.add_argument("--levels", type=str, default=",".join(map(str, RunConfig.levels)))
        for name in ("tol_psd", "bisect_tol", "cert_tol", "structure_tol"):
            p.add_argument("--" + name.replace("_", "-"), type=float,
                           default=getattr(RunConfig, name))
        p.add_argument("--out", type=str, default=RunConfig.out)

    p = sub.add_parser("close-algebra", help="unital closure of generators")
    p.add_argument("--generators", required=True)
    p.add_argument("--include-adjoints", action="store_true")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    common(p)

    p = sub.add_parser("check-cones", help="run the cone axiom audits")
    p.add_argument("--cone", required=True)
    common(p)

    p = sub.add_parser("order-norm", help="order-unit seminorm or pre-C*-norm")
    p.add_argument("--cone", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--kind", choices=["seminorm", "precstar"], default="seminorm")
    common(p)

    p = sub.add_parser("involution", help="recover the cone-induced involution")
    p.add_argument("--cone", required=True)
    p.add_argument("--level", type=int, default=1)
    common(p)

    p = sub.add_parser("similarity", help="reconstruct the similarity certificate")
    p.add_argument("--cone", required=True)
    p.add_argument("--algebra", default=None)
    common(p)

    p = sub.add_parser("cb-norm", help="completely bounded norm lower bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--level", type=int, default=None)
    common(p)

    p = sub.add_parser("kadison-demo", help="doubled-representation pipeline")
    p.add_argument("--algebra", required=True)
    p.add_argument("--similarity", required=True)
    common(p)

    p = sub.add_parser("c1-example", help="function-embedding case study")
    p.add_argument("--grid-size", type=int, default=64)
    p.add_argument("--frequencies", type=lambda s: [int(v) for v in s.split(",")],
                   default=[4, 8, 16, 32])
    common(p)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; that code is reserved for audit
        # failures, so usage errors map to the schema-error code.
        return EXIT_SCHEMA_ERROR if exc.code not in (0, None) else 0

    config = RunConfig(
        seed=args.seed, samples=args.samples, tol_psd=args.tol_psd,
        bisect_tol=args.bisect_tol, cert_tol=args.cert_tol,
        structure_tol=args.structure_tol, out=args.out,
    )
    report = {"command": args.command}
    try:
        try:
            config.levels = tuple(int(v) for v in args.levels.split(","))
        except ValueError:
            raise SchemaError("/config/levels", "must be a comma-separated list of integers")
        # An invalid config (a NaN flag, say) is not embedded: the report stays JSON.
        config.validate()
        report["config"] = config.to_obj()
        if getattr(args, "level", None) is not None and args.level < 1:
            raise SchemaError("/level", "must be >= 1")
        code, result = _HANDLERS[args.command](args, config)
        report["result"] = result
    except SchemaError as exc:
        report["error"] = {"type": "SchemaError", "pointer": exc.pointer,
                           "message": exc.reason}
        code = EXIT_SCHEMA_ERROR
    except MatOrderError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = EXIT_TYPED_ERROR

    text = canonical_json(report)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"cannot write {config.out}: {exc}\n")
            return EXIT_SCHEMA_ERROR
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
