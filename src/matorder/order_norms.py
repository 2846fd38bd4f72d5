"""Cone-induced order-unit seminorms and the induced pre-C*-norm.

The seminorm of a self-adjoint element is inf{r : r e +- a in C}, computed exactly as
max(r(a), r(-a), 0) in one pass over a (`_shifts`): on a PSD-frame cone's own oracle a is
straightened once, into y, its sharp read off y, its one ||a||_F taken by `algebra._outside`
for the sharp check and the enclosure bound, and both shifts read off one eigensolve.  One
`cones._certify` certifies the bracket, asking such an oracle nothing; only a bracket it leaves
open (an opaque cone, an overridden `min_shift_pair`, an uncertified value) builds a
`cones._Bisection`.  A NaN or inf entry raises MatOrderError before any sharp or eigensolve,
and NotSelfAdjoint comes before the structure bound's MembershipError.
The pre-C*-norm is the square root of the seminorm of x^sharp x, cross-checked against the
search for inf{r : r^2 e +- x^sharp x in C}; both formulas share the pass and the certificate.
The sharp is the cone's own `sharp_block`, or the `InvolutionMap` handed to `pre_cstar_norm`.
The order-unit and Archimedean checks are `cones.check_order_unit_archimedean`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import _outside, block_synth
from .cones import SimilarityCone, _Bisection, _certify, _frame_oracle, _shift_pass, _stack
from .errors import CertificationFailed, MatOrderError, MembershipError, NotSelfAdjoint

DEFAULT_BISECT_TOL = 1e-10
# ||a^sharp - a||_F bound, relative to 1 + ||a||_F: far above the rounding of a computed sharp.
SHARP_TOL = 1e-8
# null_space keeps the algebra basis directions whose pre-C*-norm is at most this.
NULL_TOL = 1e-6


@dataclass(frozen=True)
class NormReport:
    """Value with its oracle-certified bracket and work counters: iterations
    is 0 on the exact path, else the number of fallback bisection steps;
    oracle_calls counts the shifts r at which the two-sided test is asked.
    oracle_calls 0 with iterations 0: the frame's PSD rule decided the bracket."""

    value: float
    bracket: tuple
    iterations: int
    oracle_calls: int


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():  # before any sharp or eigensolve sees a NaN or inf
        raise MatOrderError("element is not finite")
    return x


def _check_self_adjoint(miss: float, size: float) -> None:  # ||a^sharp - a||_F, ||a||_F
    if miss > SHARP_TOL * (1.0 + size):
        raise NotSelfAdjoint("order-unit seminorm needs a sharp-self-adjoint element")


def _shifts(cone: SimilarityCone, n: int, z: np.ndarray, sharp) -> tuple:
    """z's sharp check, then `cones._exact_shifts`(z), in one pass on a `_frame_oracle` cone: one
    straightening y, the sharp (None: the cone's own) read off y as unstraighten(y*), and
    `_outside`'s ||z||_F; any other cone is asked its sharp and `min_shift_pair` (bound None)."""
    if not _frame_oracle(cone, "min_shift_pair", "unit"):
        _check_self_adjoint(la.frob((cone.sharp_block if sharp is None else sharp)(z) - z),
                            la.frob(z))
        return (*cone.min_shift_pair(n, z), None)
    y = cone.frame.straighten(z[None])
    miss = la.frob((cone.frame.unstraighten(la.dagger(y)) if sharp is None else sharp(z)) - z)
    try:
        size, = _outside(cone.algebra, z[None]).tolist()
    except MembershipError:  # NotSelfAdjoint speaks first
        _check_self_adjoint(miss, la.frob(z))
        raise
    _check_self_adjoint(miss, size)
    (up,), (down,), (defect,) = _shift_pass(cone, y)
    return up, down, (defect, size)


def _norm_searches(cone: SimilarityCone, n: int, z: np.ndarray, sharp, bisect_tol: float,
                   paths: tuple) -> list:
    """Per (squared, sqrt_refine) of paths, the bracket of
    inf{r >= 0 : t e_n + z and t e_n - z in C_n}, t = r (r^2 if squared).

    Both signs' exact shifts and their enclosure bound (z and -z share it, as negation
    is exact) come from one `_shifts`, which checks z's sharp first, and every path's
    certificate from one `cones._certify` call, binding sign first.  Only a path it leaves
    open builds a `_Bisection`, from [0, 2 ||straighten(z)|| + 1] (square-rooted if squared),
    asking the other sign only where the binding one is inside.
    """
    up, down, bound = _shifts(cone, n, z, sharp)
    exact = None if up is None or down is None else max(up, down, 0.0)
    cs = (z, -z) if exact is None or up >= down else (-z, z)

    def width(r, sqrt_refine):
        # sqrt_refine: sqrt(bracket) has width ~ bisect_tol, as accurate as a
        # direct search in r (and never looser, since 2 sqrt(r) <= 1 + r).
        # A certified bracket is already this narrow.
        if sqrt_refine:
            return max(2.0 * np.sqrt(r) * bisect_tol, bisect_tol ** 2)
        return bisect_tol * (1.0 + r)

    ts = [(lambda r: r * r) if squared else (lambda r: r) for squared, _ in paths]
    asks = []
    for (squared, sqrt_refine), t in zip(paths, ts):
        r = None if exact is None else float(np.sqrt(exact)) if squared else exact
        asks.append((cs, r, None if r is None else width(r, sqrt_refine), 0.0, t, bound))
    reports = []
    for (squared, sqrt_refine), t, (found, asked) in zip(paths, ts, _certify(cone, n, asks)):
        iterations = calls = 0
        if found is None:
            bis = _Bisection(cone, n, cs, t)
            found = bis.search(
                lambda: (np.sqrt if squared else float)(
                    2.0 * la.opnorm(cone.straighten(n, z)) + 1.0),
                lambda l, h: bisect_tol * (1.0 + 0.5 * (l + h)))
            if sqrt_refine and found[1] > 0.0:
                target = width(max(found[0], 0.0), True)
                found = bis.refine(*found, lambda l, h: target)
            iterations, calls = bis.iterations, bis.calls
        lo, hi = found
        reports.append(NormReport(0.5 * (lo + hi), (lo, hi), iterations, asked + calls))
    return reports


def order_unit_seminorm(cone: SimilarityCone, n: int, a,
                        bisect_tol: float = DEFAULT_BISECT_TOL) -> NormReport:
    """inf{r > 0 : r e_n + a in C_n and r e_n - a in C_n}.

    Requires a to be a sharp-self-adjoint level-n matrix, checked by `cones._stack`
    before the cone's own sharp is applied.  The value is the exact
    shift with a certified bracket of width bisect_tol (1 + value), or the
    bisection fallback's midpoint (see `_norm_searches`).
    """
    a = _finite(_stack(cone, n, [a])[0])
    return _norm_searches(cone, n, a, None, bisect_tol, ((False, False),))[0]


def pre_cstar_norm(cone: SimilarityCone, involution, n: int, x,
                   bisect_tol: float = DEFAULT_BISECT_TOL) -> NormReport:
    """sqrt of the seminorm of x^sharp x, cross-checked against the direct
    search for inf{r : r^2 e +- x^sharp x in C}; the two must agree to
    2 * bisect_tol (relative).  Both come from one `_norm_searches`, so from
    one pair of exact shifts and one certificate call.  The sharp is the `InvolutionMap`
    given (it extends entrywise to any level), or the cone's own `sharp_block` for None."""
    x = _finite(_stack(cone, n, [x])[0])
    z = (cone.sharp_block if involution is None else involution)(x) @ x
    via_sqrt, direct = _norm_searches(cone, n, z, involution, bisect_tol,
                                      ((False, True), (True, False)))
    value_sqrt = float(np.sqrt(via_sqrt.value))
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


def null_space(cone: SimilarityCone, n: int) -> np.ndarray:
    """Basis of {x : |x| <= NULL_TOL} for the pre-C*-norm under the cone's own `sharp_block`.

    Thresholds the norm on the basis kron(E_ij, b_k) of M_n(A), built from unit
    block coordinates, then verifies the span of small-norm directions on random
    combinations and drops it if one escapes.  Returns a possibly empty (k, D, D) stack.
    """
    def norm(x):
        return pre_cstar_norm(cone, None, n, x).value

    dim = cone.level_dim(n)
    d = cone.algebra.dim
    basis = (block_synth(np.eye(1, n * n * d, k).reshape(n, n, d), cone.algebra.basis)
             for k in range(n * n * d))
    small = [b for b in basis if norm(b) <= NULL_TOL]
    rng = np.random.default_rng(0)
    for _ in range(3 if small else 0):
        coeffs = la.random_complex_many(rng, 1, len(small))[0]
        coeffs /= np.linalg.norm(coeffs)
        if norm(np.tensordot(coeffs, np.stack(small), axes=(0, 0))) > NULL_TOL:
            # Span is not closed under combination: keep only directions
            # re-verified individually at a tightened threshold.
            small = [b for b in small if norm(b) <= NULL_TOL / 10]
            break
    if not small:
        return np.zeros((0, dim, dim), dtype=complex)
    return np.stack(small)
