"""Cone-induced order-unit seminorms and the induced pre-C*-norm.

The seminorm of a self-adjoint element is inf{r : r e +- a in C}, computed
exactly as max(min_shift(a), min_shift(-a), 0) with a bracket certified by
`member_many`, one call per sign; opaque cones and uncertified values fall
back to bisection.  The pre-C*-norm is the square root of the seminorm of
x^sharp x, cross-checked against the search for inf{r : r^2 e +- x^sharp x in C}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import as_matrix, block_synth
from .cones import (ConeAuditReport, ConeOracle, Witness, _first_escape, _shift_bisection,
                    _streams, _verdict)
from .errors import CertificationFailed, NotSelfAdjoint, UnboundedAbove

DEFAULT_BISECT_TOL = 1e-10
# null_space keeps the algebra basis directions whose pre-C*-norm is at most this.
NULL_TOL = 1e-6


@dataclass(frozen=True)
class NormReport:
    """Value with its oracle-certified bracket and work counters: iterations
    is 0 on the exact path, else the number of fallback bisection steps;
    oracle_calls counts the shifts r at which the two-sided test is asked."""

    value: float
    bracket: tuple
    iterations: int
    oracle_calls: int


def _sharp_fn(cone: ConeOracle, involution, n: int):
    """An involution callable at level n: the cone's reference map, else the
    given callable (an InvolutionMap extends entrywise to any level)."""
    if involution is None:
        return lambda x: cone.sharp(n, x)
    return involution


def _norm_search(cone: ConeOracle, n: int, z: np.ndarray, bisect_tol: float,
                 squared: bool = False, sqrt_refine: bool = False,
                 shifts: tuple | None = None) -> NormReport:
    """inf{r >= 0 : t e_n + z and t e_n - z in C_n}, t = r (r^2 if squared).

    One `cones._shift_bisection` over (z, -z), binding sign first: an exact
    shift's certificate asks five matrices in two `member_many` calls, and a
    bisection step asks the other sign only where the binding one is inside.
    The fallback starts from [0, 2 ||straighten(z)|| + 1] (square-rooted if
    squared); shifts, when given, is (min_shift(n, z), min_shift(n, -z)).
    """
    up, down = shifts or (cone.min_shift(n, z), cone.min_shift(n, -z))
    exact = None if up is None or down is None else max(up, down, 0.0)
    bis = _shift_bisection(cone, n, (z, -z) if exact is None or up >= down else (-z, z))
    if squared:
        ask = bis.many
        bis.many = lambda rs: ask([r * r for r in rs])
        exact = None if exact is None else float(np.sqrt(exact))

    def width(r):
        # sqrt_refine: sqrt(bracket) has width ~ bisect_tol, as accurate as a
        # direct search in r (and never looser, since 2 sqrt(r) <= 1 + r).
        if sqrt_refine:
            return max(2.0 * np.sqrt(r) * bisect_tol, bisect_tol ** 2)
        return bisect_tol * (1.0 + r)

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
                        _sqrt_refine: bool = False, _shifts: tuple | None = None) -> NormReport:
    """inf{r > 0 : r e_n + a in C_n and r e_n - a in C_n}.

    Requires a to be sharp-self-adjoint at level n.  The value is the exact
    shift with a certified bracket of width bisect_tol (1 + value), or the
    bisection fallback's midpoint (see `_norm_search`).
    """
    a = as_matrix(a)
    sharp = _sharp_fn(cone, involution, n)
    if la.frob(sharp(a) - a) > 1e-8 * (1.0 + la.frob(a)):
        raise NotSelfAdjoint("order-unit seminorm needs a sharp-self-adjoint element")
    return _norm_search(cone, n, a, bisect_tol, sqrt_refine=_sqrt_refine, shifts=_shifts)


def pre_cstar_norm(cone: ConeOracle, involution, n: int, x,
                   bisect_tol: float = DEFAULT_BISECT_TOL) -> NormReport:
    """sqrt of the seminorm of x^sharp x, cross-checked against the direct
    search for inf{r : r^2 e +- x^sharp x in C}; the two must agree to
    2 * bisect_tol (relative)."""
    x = as_matrix(x)
    sharp = _sharp_fn(cone, involution, n)
    z = sharp(x) @ x
    # Both paths start from the same pair of exact shifts.
    shifts = (cone.min_shift(n, z), cone.min_shift(n, -z))

    via_sqrt = order_unit_seminorm(cone, n, z, involution=involution,
                                   bisect_tol=bisect_tol, _sqrt_refine=True,
                                   _shifts=shifts)
    value_sqrt = float(np.sqrt(via_sqrt.value))
    direct = _norm_search(cone, n, z, bisect_tol, squared=True, shifts=shifts)
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
               bisect_tol: float = DEFAULT_BISECT_TOL) -> np.ndarray:
    """Basis of {x : |x| <= NULL_TOL} for the pre-C*-norm.

    Thresholds the norm on the basis kron(E_ij, b_k) of M_n(A), built from unit
    block coordinates, then verifies the span of small-norm directions on random
    combinations and drops it if one escapes.  Returns a possibly empty (k, D, D) stack.
    """
    def norm(x):
        return pre_cstar_norm(cone, involution, n, x, bisect_tol=bisect_tol).value

    dim = cone.level_dim(n)  # LevelUnsupported for a cone without matrix levels
    d = cone.algebra.dim
    basis = (block_synth(np.eye(1, n * n * d, k).reshape(n, n, d), cone.algebra.basis)
             for k in range(n * n * d))
    small = [b for b in basis if norm(b) <= NULL_TOL]
    rng = np.random.default_rng(0)
    for _ in range(3 if small else 0):
        coeffs = la.random_complex(rng, len(small))
        coeffs /= np.linalg.norm(coeffs)
        if norm(np.tensordot(coeffs, np.stack(small), axes=(0, 0))) > NULL_TOL:
            # Span is not closed under combination: keep only directions
            # re-verified individually at a tightened threshold.
            small = [b for b in small if norm(b) <= NULL_TOL / 10]
            break
    if not small:
        return np.zeros((0, dim, dim), dtype=complex)
    return np.stack(small)


def check_order_unit_archimedean(cone: ConeOracle, n: int = 1, samples: int = 20,
                                 seed: int = 0) -> ConeAuditReport:
    """Order-unit and Archimedean verdicts for random sharp-self-adjoint
    elements: r e + a enters the cone at r = seminorm(a) + tol, and
    membership at shifts r down to 1e-8 implies membership at the
    boundary within tol_psd.  Both checks run through `cones._first_escape`,
    each on its own child stream of `seed`."""
    unit_rng, arch_rng = _streams(seed, 2)
    e = cone.unit(n)

    def shifted():
        for _ in range(samples):
            a = cone.sample_span(n, unit_rng)
            try:
                rep = order_unit_seminorm(cone, n, a)
            except UnboundedAbove:
                # The failed search tested r = 0: a or -a lies outside C.
                yield Witness("order-unit", n, (), a, "seminorm unbounded: no bracket found")
                yield Witness("order-unit", n, (), -a, "seminorm unbounded: no bracket found")
                continue
            yield Witness("order-unit", n, (), (rep.value + 1e-8 * (1.0 + rep.value)) * e + a,
                          "r e + a outside C at r = seminorm + tol")

    def boundaries():
        for _ in range(samples):
            a = cone.sample_span(n, arch_rng)
            try:
                boundary = order_unit_seminorm(cone, n, a).value * e + a
            except UnboundedAbove:
                continue
            scale = 1.0 + cone.norm(n, boundary)
            if all(_shift_bisection(cone, n, (boundary,), scale).many((1e-2, 1e-4, 1e-6, 1e-8))):
                yield Witness("archimedean", n, (), boundary + cone.tol_psd * scale * e,
                              "shift memberships do not survive the r -> 0 limit")

    return ConeAuditReport("order-unit-archimedean", (n,), samples, seed, [
        _verdict("order-unit", "r e + a in C at r = seminorm(a) + tol",
                 _first_escape(cone, shifted())),
        _verdict("archimedean", "membership closed along r -> 0 at the boundary",
                 _first_escape(cone, boundaries())),
    ])
