"""Cone-induced order-unit seminorms and the induced pre-C*-norm.

The seminorm of a self-adjoint element is inf{r : r e +- a in C}, computed
exactly as max(min_shift(a), min_shift(-a), 0) with a bracket certified by
the membership oracle; opaque cones and uncertified values fall back to
bisection.  The pre-C*-norm is the square root of the seminorm of x^sharp x,
cross-checked against the direct search for inf{r : r^2 e +- x^sharp x in C}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import as_matrix
from .cones import ConeAuditReport, ConeOracle, Witness, _Bisection, _verdict
from .errors import CertificationFailed, NotSelfAdjoint, UnboundedAbove

DEFAULT_BISECT_TOL = 1e-10
DEFAULT_NULL_TOL = 1e-6


@dataclass(frozen=True)
class NormReport:
    """Value with its oracle-certified bracket and work counters: iterations
    is 0 on the exact path, else the number of fallback bisection steps;
    oracle_calls counts evaluations of the (two-sided) shift predicate."""

    value: float
    bracket: tuple
    iterations: int
    oracle_calls: int


def _sharp_fn(cone: ConeOracle, involution, n: int):
    """An involution callable at level n: the cone's reference map, an
    InvolutionMap (extended entrywise to the right level), or a callable."""
    if involution is None:
        return lambda x: cone.sharp(n, x)
    if hasattr(involution, "apply"):
        blocks = cone.level_dim(n) // involution.algebra.ambient_dim
        return lambda x: involution.apply(x, level=blocks)
    return involution


def _norm_search(cone: ConeOracle, n: int, z: np.ndarray, bisect_tol: float,
                 squared: bool = False, sqrt_refine: bool = False) -> NormReport:
    """inf{r >= 0 : t e_n + z and t e_n - z in C_n}, t = r (r^2 if squared).

    The exact shift is tried first (the binding sign is tested first, so
    the certificate's failing test at lo costs one membership test); the
    fallback bisection starts from [0, 2 ||straighten(z)|| + 1]
    (square-rooted if squared).
    """
    e = cone.unit(n)
    up, down = cone.min_shift(n, z), cone.min_shift(n, -z)
    exact = None if up is None or down is None else max(up, down, 0.0)
    first, second = (z, -z) if exact is None or up >= down else (-z, z)
    t = (lambda r: r * r) if squared else (lambda r: r)
    bis = _Bisection(lambda r: cone.member(n, t(r) * e + first)
                     and cone.member(n, t(r) * e + second))

    def width(r):
        # sqrt_refine: sqrt(bracket) has width ~ bisect_tol, as accurate as a
        # direct search in r (and never looser, since 2 sqrt(r) <= 1 + r).
        if sqrt_refine:
            return max(2.0 * np.sqrt(r) * bisect_tol, bisect_tol ** 2)
        return bisect_tol * (1.0 + r)

    if exact is not None and squared:
        exact = float(np.sqrt(exact))
    lo, hi = bis.search(
        exact, width(exact or 0.0),
        lambda: (np.sqrt if squared else float)(2.0 * la.opnorm(cone.straighten(n, z)) + 1.0),
        lambda l, h: bisect_tol * (1.0 + 0.5 * (l + h)))
    if sqrt_refine and hi > 0.0:  # a no-op on a certified bracket
        target = width(max(lo, 0.0))
        lo, hi = bis.refine(lo, hi, lambda l, h: target)
    return NormReport(0.5 * (lo + hi), (lo, hi), bis.iterations, bis.calls)


def order_unit_seminorm(cone: ConeOracle, n: int, a, involution=None,
                        bisect_tol: float = DEFAULT_BISECT_TOL,
                        _sqrt_refine: bool = False) -> NormReport:
    """inf{r > 0 : r e_n + a in C_n and r e_n - a in C_n}.

    Requires a to be sharp-self-adjoint at level n.  The value is the exact
    shift with a certified bracket of width bisect_tol (1 + value), or the
    bisection fallback's midpoint (see `_norm_search`).
    """
    a = as_matrix(a)
    sharp = _sharp_fn(cone, involution, n)
    if la.frob(sharp(a) - a) > 1e-8 * (1.0 + la.frob(a)):
        raise NotSelfAdjoint("order-unit seminorm needs a sharp-self-adjoint element")
    return _norm_search(cone, n, a, bisect_tol, sqrt_refine=_sqrt_refine)


def pre_cstar_norm(cone: ConeOracle, involution, n: int, x,
                   bisect_tol: float = DEFAULT_BISECT_TOL) -> NormReport:
    """sqrt of the seminorm of x^sharp x, cross-checked against the direct
    search for inf{r : r^2 e +- x^sharp x in C}; the two must agree to
    2 * bisect_tol (relative)."""
    x = as_matrix(x)
    sharp = _sharp_fn(cone, involution, n)
    z = sharp(x) @ x

    via_sqrt = order_unit_seminorm(cone, n, z, involution=involution,
                                   bisect_tol=bisect_tol, _sqrt_refine=True)
    value_sqrt = float(np.sqrt(via_sqrt.value))
    direct = _norm_search(cone, n, z, bisect_tol, squared=True)
    value_direct = direct.value

    if abs(value_sqrt - value_direct) > 2.0 * bisect_tol * (1.0 + value_direct):
        raise CertificationFailed(
            f"pre-C*-norm formulas disagree: sqrt path {value_sqrt:.17g}, "
            f"direct path {value_direct:.17g}"
        )
    bracket = tuple(float(np.sqrt(max(b, 0.0))) for b in via_sqrt.bracket)
    return NormReport(value_sqrt, bracket,
                      via_sqrt.iterations + direct.iterations,
                      via_sqrt.oracle_calls + direct.oracle_calls)


def null_space(cone: ConeOracle, involution, n: int,
               null_tol: float = DEFAULT_NULL_TOL,
               bisect_tol: float = DEFAULT_BISECT_TOL) -> np.ndarray:
    """Basis of {x : |x| <= null_tol} for the pre-C*-norm.

    Thresholds the norm on the orthonormal algebra basis, then verifies the
    span of small-norm directions on random combinations and drops it if a
    combination escapes.  Returns a (k, D, D) stack, possibly empty.
    """
    def norm(x):
        return pre_cstar_norm(cone, involution, n, x, bisect_tol=bisect_tol).value

    small = [b for b in cone.level_algebra(n).basis if norm(b) <= null_tol]
    rng = np.random.default_rng(0)
    for _ in range(3 if small else 0):
        coeffs = la.random_complex(rng, len(small))
        coeffs /= np.linalg.norm(coeffs)
        if norm(np.tensordot(coeffs, np.stack(small), axes=(0, 0))) > null_tol:
            # Span is not closed under combination: keep only directions
            # re-verified individually at a tightened threshold.
            small = [b for b in small if norm(b) <= null_tol / 10]
            break
    if not small:
        dim = cone.level_dim(n)
        return np.zeros((0, dim, dim), dtype=complex)
    return np.stack(small)


def check_order_unit_archimedean(cone: ConeOracle, n: int = 1, samples: int = 20,
                                 seed: int = 0) -> ConeAuditReport:
    """Order-unit and Archimedean verdicts for random sharp-self-adjoint
    elements: r e + a enters the cone at r = seminorm(a) + tol, and
    membership at shifts r down to 1e-8 implies membership at the
    boundary within tol_psd."""
    rng = np.random.default_rng(seed)
    e = cone.unit(n)
    checks = []

    bad = None
    for _ in range(samples):
        a = cone.sample_span(n, rng)
        try:
            rep = order_unit_seminorm(cone, n, a)
        except UnboundedAbove:
            bad = Witness("order-unit", n, (), a, "seminorm unbounded: no bracket found")
            break
        shifted = (rep.value + 1e-8 * (1.0 + rep.value)) * e + a
        if not cone.member(n, shifted):
            bad = Witness("order-unit", n, (), shifted,
                          "r e + a outside C at r = seminorm + tol")
            break
    checks.append(_verdict("order-unit", "r e + a in C at r = seminorm(a) + tol", bad))

    bad = None
    for _ in range(samples):
        a = cone.sample_span(n, rng)
        try:
            rep = order_unit_seminorm(cone, n, a)
        except UnboundedAbove:
            continue
        boundary = rep.value * e + a
        scale = 1.0 + cone.norm(n, boundary)
        shifts_ok = all(cone.member(n, r * scale * e + boundary)
                        for r in (1e-2, 1e-4, 1e-6, 1e-8))
        near = boundary + cone.tol_psd * scale * e
        if shifts_ok and not cone.member(n, near):
            bad = Witness("archimedean", n, (), near,
                          "shift memberships do not survive the r -> 0 limit")
            break
    checks.append(_verdict("archimedean", "membership closed along r -> 0 at the boundary", bad))

    return ConeAuditReport("order-unit-archimedean", (n,), samples, seed, checks)
