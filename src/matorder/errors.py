"""Typed errors shared across the package."""

from __future__ import annotations


class MatOrderError(Exception):
    """Base class for all package errors (CLI exit code 3)."""


class DimensionMismatch(MatOrderError):
    pass


class DimensionCapExceeded(MatOrderError):
    pass


class MembershipError(MatOrderError):
    """An element does not lie in the claimed span; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (projection residual {residual:.6g})")
        self.residual = float(residual)


class NotSelfAdjoint(MatOrderError):
    pass


class UnboundedAbove(MatOrderError):
    """Bisection predicate never became true; signals a non-order-unit."""


class NumericalStall(MatOrderError):
    """An iterative solve stopped short of its tolerance (budget spent or no
    progress); it gives no verdict."""


class SpanUnstable(MatOrderError):
    pass


class DecompositionInfeasible(MatOrderError):
    """Real span plus i times the span does not cover the algebra level."""


class DecompositionNotUnique(MatOrderError):
    """Real span meets i times the span nontrivially."""


class NoPositiveSolution(MatOrderError):
    """No positive definite element in a Hermitian solution space; carries
    the dual certificate W >= 0, tr W = 1, with tr(W Q_j) ~ 0 for every
    basis element Q_j."""

    def __init__(self, message: str, best_lambda_min: float, dual):
        super().__init__(f"{message} (best lambda_min {best_lambda_min:.6g})")
        self.best_lambda_min = float(best_lambda_min)
        self.dual = dual


class CertificationFailed(MatOrderError):
    pass


class SourceNotStarClosed(MatOrderError):
    pass


class GridTooCoarse(MatOrderError):
    pass


class SchemaError(MatOrderError):
    """Malformed input file (CLI exit code 4); carries a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.reason = message
