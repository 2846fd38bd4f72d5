"""Canonical JSON wire formats.

Complex entries are [re, im] pairs.  Every report goes out through one
`json.dumps` call with sorted keys, and every float is written as Python's
`repr` writes it: the shortest text that reads back as the same double, with
a decimal point or an exponent, so an integral float stays a float and -0.0
keeps its sign.  Identical inputs and seeds produce byte-identical reports.
Loaders raise SchemaError with a JSON-pointer path on malformed input, on an
algebra whose `star_closed` its basis contradicts, and at any unknown key.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .algebra import DEFAULT_STRUCTURE_TOL, OperatorAlgebra
from .case_studies import C1Sample, FunctionPullbackCone
from .cones import (DEFAULT_TOL_PSD, AxiomCheck, ConeAuditReport, ConeOracle, ConstantEstimate,
                    SimilarityCone, StandardCone, Witness)
from .errors import SchemaError
from .order_norms import NormReport


# ---------------------------------------------------------------------------
# Canonical writer
# ---------------------------------------------------------------------------

# Report dataclasses, written by their fields.
_REPORT_TYPES = (Witness, AxiomCheck, ConstantEstimate, C1Sample, NormReport)


def _encode(obj):
    """What `json.dumps` cannot write itself, as objects it can: a report
    dataclass by its fields, a 2-D array as a matrix object, any other array
    as nested lists (complex entries as [re, im]), a numpy scalar as its
    Python value."""
    if isinstance(obj, _REPORT_TYPES):
        return vars(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_obj(obj)
        return (np.stack([obj.real, obj.imag], -1) if np.iscomplexobj(obj) else obj).tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """obj as one line of JSON; a NaN or an infinity raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_encode) + "\n"


# ---------------------------------------------------------------------------
# Matrices and algebras
# ---------------------------------------------------------------------------

def matrix_to_obj(x: np.ndarray) -> dict:
    x = np.asarray(x, dtype=complex)
    return {"dim": int(x.shape[0]), "entries": np.stack([x.real, x.imag], -1).tolist()}


def _expect(cond: bool, pointer: str, msg: str) -> None:
    if not cond:
        raise SchemaError(pointer, msg)


def _fields(obj: dict, pointer: str, fields: tuple, what: str) -> None:
    """SchemaError at the first key of obj that is not one of fields."""
    for key in obj:
        _expect(key in fields, f"{pointer}/{key.replace('~', '~0').replace('/', '~1')}",
                f"is not a field of {what}")


def _number(value, pointer: str):
    """value as a finite JSON number (booleans are not numbers), else
    SchemaError at pointer."""
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)), pointer,
            "must be a finite number")
    return value


def matrix_from_obj(obj, pointer: str = "") -> np.ndarray:
    _expect(isinstance(obj, dict), pointer, "expected a matrix object")
    _expect("dim" in obj, pointer + "/dim", "missing")
    n = _number(obj["dim"], pointer + "/dim")
    _expect(isinstance(n, int) and n >= 1, pointer + "/dim", "must be a positive integer")
    entries = obj.get("entries")
    _expect(isinstance(entries, list) and len(entries) == n,
            pointer + "/entries", f"expected {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entries):
        _expect(isinstance(row, list) and len(row) == n,
                f"{pointer}/entries/{i}", f"expected {n} columns")
        for j, pair in enumerate(row):
            _expect(isinstance(pair, list) and len(pair) == 2,
                    f"{pointer}/entries/{i}/{j}", "expected an [re, im] pair")
            out[i, j] = complex(*(_number(v, f"{pointer}/entries/{i}/{j}/{k}")
                                  for k, v in enumerate(pair)))
    return out


def algebra_to_obj(algebra: OperatorAlgebra) -> dict:
    return {
        "ambient_dim": algebra.ambient_dim,
        "basis": [matrix_to_obj(b) for b in algebra.basis],
        "star_closed": bool(algebra.star_closed),
    }


def algebra_from_obj(obj, pointer: str = "",
                     tol: float = DEFAULT_STRUCTURE_TOL) -> OperatorAlgebra:
    _expect(isinstance(obj, dict), pointer, "expected an algebra object")
    n = _number(obj.get("ambient_dim"), pointer + "/ambient_dim")
    _expect(isinstance(n, int), pointer + "/ambient_dim", "must be an integer")
    basis_obj = obj.get("basis")
    _expect(isinstance(basis_obj, list) and basis_obj, pointer + "/basis",
            "must be a nonempty list")
    basis = []
    for k, b in enumerate(basis_obj):
        mat = matrix_from_obj(b, f"{pointer}/basis/{k}")
        _expect(mat.shape == (n, n), f"{pointer}/basis/{k}/dim",
                f"must equal ambient_dim {n}")
        basis.append(mat)
    _expect(isinstance(obj.get("star_closed"), bool), pointer + "/star_closed",
            "must be a boolean")
    _fields(obj, pointer, ("ambient_dim", "basis", "star_closed"), "an algebra")
    algebra = OperatorAlgebra(np.stack(basis), tol)
    algebra.validate()
    _expect(obj["star_closed"] == algebra.star_closed, pointer + "/star_closed",
            f"contradicts the basis, which decides star_closed = {algebra.star_closed}")
    return algebra


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

def cone_to_obj(cone: ConeOracle) -> dict:
    out = {"variant": cone.variant, "tol_psd": cone.tol_psd}
    if isinstance(cone, SimilarityCone):  # variant "standard" when S = None
        out["algebra"] = algebra_to_obj(cone.algebra)
        if cone.s is not None:
            out["S"] = matrix_to_obj(cone.s)
    else:  # pullback
        out["grid"] = [float(q) for q in cone.grid]
    return out


def cone_from_obj(obj, base_dir: str = ".",
                  tol: float = DEFAULT_STRUCTURE_TOL) -> ConeOracle:
    _expect(isinstance(obj, dict), "", "expected a cone object")
    variant = obj.get("variant")
    _expect(variant in ("standard", "similarity", "pullback"),
            "/variant", "must be standard, similarity or pullback")
    tol_psd = _number(obj.get("tol_psd", DEFAULT_TOL_PSD), "/tol_psd")
    _expect(tol_psd > 0, "/tol_psd", "must be a positive number")

    def own(*fields):  # after the variant's own fields parse
        _fields(obj, "", ("variant", "tol_psd") + fields, f"a {variant} cone")

    if variant == "pullback":
        grid = obj.get("grid")
        _expect(isinstance(grid, list) and len(grid) >= 2, "/grid",
                "must be a list of at least two points")
        grid = [_number(q, f"/grid/{k}") for k, q in enumerate(grid)]
        own("grid")
        return FunctionPullbackCone(np.asarray(grid, dtype=float), float(tol_psd))

    alg_obj = obj.get("algebra")
    if isinstance(alg_obj, str):
        alg_obj = load_json(os.path.join(base_dir, alg_obj))
    algebra = algebra_from_obj(alg_obj, "/algebra", tol)
    if variant == "standard":
        own("algebra")
        return StandardCone(algebra, float(tol_psd))
    s = matrix_from_obj(obj.get("S"), "/S")
    _expect(s.shape == (algebra.ambient_dim,) * 2, "/S/dim",
            "must match the algebra ambient dimension")
    own("algebra", "S")
    return SimilarityCone(algebra, s, float(tol_psd))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def audit_to_obj(report: ConeAuditReport) -> dict:
    return dict(vars(report), passed=report.passed)
