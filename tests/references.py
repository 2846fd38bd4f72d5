"""Reference implementations the tests compare the library against.

`amplify` materialises a basis of M_n(A), which the library never builds;
`spans_equal` and `compress_via_conjugations` are independent
re-derivations of an algebra span test and of `cones.compress`;
`generate_algebra_mgs` is the earlier algebra closure (products of the fresh
basis with the whole basis, one candidate at a time by modified
Gram-Schmidt), which `generate_algebra` must match in dimension, span and
star-closedness.  `norm_search_two_calls` and `pre_cstar_norm_two_calls` are
the earlier order norms: two `min_shift` eigensolves per element and a
two-sided certificate asked one sign per `member_many` call, which the
library must match in value, bracket and work counters.
"""

import numpy as np

from matorder import _linalg as la
from matorder.algebra import (DEFAULT_MAX_DIM, DEFAULT_STRUCTURE_TOL, OperatorAlgebra,
                              as_matrix, membership_residual)
from matorder.cones import ConeOracle, _shift_bisection
from matorder.errors import CertificationFailed, DimensionCapExceeded, DimensionMismatch
from matorder.order_norms import DEFAULT_BISECT_TOL, NormReport, _check_self_adjoint, _sharp_fn

# Acceptance threshold for a new basis direction, relative to the largest
# candidate norm in the current closure pass.  Keeps rank decisions stable
# at ambient dimensions up to ~32.
NEW_DIRECTION_FACTOR = 1e-8


def amplify(algebra: OperatorAlgebra, n: int) -> OperatorAlgebra:
    """Concrete M_n over the algebra: span of kron(E_ij, basis[k]).

    Entries live in the block (i, j) of an (n*N) x (n*N) matrix, so block
    matrices over the algebra are represented directly.  The unit is the
    identity of the amplified space.
    """
    d = algebra.dim
    if n == 1:
        return algebra
    # Basis order: block (i, j) row-major, then k; E_ij is row i n + j of I_{n^2}.
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    unit = np.zeros((n, n, d), dtype=complex)
    unit[range(n), range(n)] = algebra.unit_coords
    return OperatorAlgebra(
        ambient_dim=n * algebra.ambient_dim,
        basis=np.stack([np.kron(eij, b) for eij in units for b in algebra.basis]),
        unit_coords=unit.ravel(),
        star_closed=algebra.star_closed,
        structure_tol=algebra.structure_tol,
    )


def spans_equal(a: OperatorAlgebra, b: OperatorAlgebra, tol: float) -> bool:
    """Mutual projection test for equality of two algebra spans."""
    if a.ambient_dim != b.ambient_dim:
        return False
    return all(membership_residual(b, x) <= tol for x in a.basis) and all(
        membership_residual(a, x) <= tol for x in b.basis
    )


def compress_via_conjugations(x: np.ndarray, n: int, m: int,
                              ambient_dim: int | None = None) -> np.ndarray:
    """`cones.compress` written as the sum of V^k P conjugations."""
    x = as_matrix(x)
    size = x.shape[0]
    chunk = 2 ** (m - n)
    if ambient_dim is None:
        ambient_dim = size // (2 ** m)
    block = (2 ** n) * ambient_dim
    if block * chunk != size:
        raise DimensionMismatch(f"size {size} incompatible with (n={n}, m={m})")
    p = np.zeros((size, size), dtype=complex)
    p[:block, :block] = np.eye(block)
    v = np.zeros((size, size), dtype=complex)
    for k in range(1, chunk):
        v[k * block:(k + 1) * block, (k - 1) * block:k * block] = np.eye(block)
    out = np.zeros_like(x)
    vk = np.eye(size, dtype=complex)
    for _ in range(chunk):
        w = vk @ p
        out += w @ x @ la.dagger(w)
        vk = v @ vk
    return out


def _mgs_residual(stack: np.ndarray | None, cand: np.ndarray) -> np.ndarray:
    """Gram-Schmidt residual against an orthonormal stack, re-orthogonalized."""
    r = cand
    if stack is None or stack.shape[0] == 0:
        return r
    for _ in range(2):
        coeffs = np.tensordot(stack.conj(), r, axes=([1, 2], [0, 1]))
        r = r - np.tensordot(coeffs, stack, axes=(0, 0))
    return r


def generate_algebra_mgs(
    generators: list[np.ndarray],
    include_adjoints: bool = False,
    tol: float = DEFAULT_STRUCTURE_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> OperatorAlgebra:
    """Smallest unital algebra containing the generators.

    Builds an orthonormal basis by iterated products with modified
    Gram-Schmidt re-orthonormalization; closure passes repeat until the
    dimension stabilizes.  star_closed is decided by testing adjoint
    membership of every basis element at tolerance `tol`.
    """
    if not generators:
        raise DimensionMismatch("need at least one generator")
    mats = [np.asarray(g, dtype=complex) for g in generators]
    n = mats[0].shape[0]
    for g in mats:
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatch(f"generators must be square, got shape {g.shape}")
        if g.shape[0] != n:
            raise DimensionMismatch("generators have mixed dimensions")
    if max_dim < 1:
        raise DimensionCapExceeded("max_dim must be at least 1")

    seeds = [np.eye(n, dtype=complex)] + mats
    if include_adjoints:
        seeds += [la.dagger(g) for g in mats]

    basis: list[np.ndarray] = []
    stack: np.ndarray | None = None

    def absorb(batch: list[np.ndarray]) -> int:
        nonlocal stack
        if not batch:
            return 0
        rank_tol = NEW_DIRECTION_FACTOR * max(la.frob(c) for c in batch)
        added = 0
        for cand in batch:
            r = _mgs_residual(stack, cand)
            nrm = la.frob(r)
            if nrm > rank_tol:
                if len(basis) + 1 > max_dim:
                    raise DimensionCapExceeded(
                        f"span dimension exceeds max_dim={max_dim} "
                        f"(rank-decision tolerance {rank_tol:.3g})"
                    )
                basis.append(r / nrm)
                stack = np.stack(basis)
                added += 1
        return added

    absorb(seeds)
    fresh_from = 0
    while True:
        d = len(basis)
        old = stack[:fresh_from] if fresh_from else None
        fresh = stack[fresh_from:]
        products = list(np.einsum("iab,jbc->ijac", fresh, stack).reshape(-1, n, n))
        if old is not None and old.shape[0]:
            products += list(np.einsum("iab,jbc->ijac", old, fresh).reshape(-1, n, n))
        fresh_from = d
        if absorb(products) == 0:
            break

    return OperatorAlgebra.from_basis(np.stack(basis), tol)


def norm_search_two_calls(cone: ConeOracle, n: int, z: np.ndarray, bisect_tol: float,
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
        if sqrt_refine:
            return max(2.0 * np.sqrt(r) * bisect_tol, bisect_tol ** 2)
        return bisect_tol * (1.0 + r)

    lo, hi = bis.search(
        bis.certify(exact, width(exact or 0.0)),
        lambda: (np.sqrt if squared else float)(2.0 * la.opnorm(cone.straighten(n, z)) + 1.0),
        lambda l, h: bisect_tol * (1.0 + 0.5 * (l + h)))
    if sqrt_refine and hi > 0.0:
        target = width(max(lo, 0.0))
        lo, hi = bis.refine(lo, hi, lambda l, h: target)
    return NormReport(0.5 * (lo + hi), (lo, hi), bis.iterations, bis.calls)


def pre_cstar_norm_two_calls(cone: ConeOracle, involution, n: int, x,
                             bisect_tol: float = DEFAULT_BISECT_TOL) -> NormReport:
    """sqrt of the seminorm of x^sharp x, cross-checked against the direct
    search for inf{r : r^2 e +- x^sharp x in C}, each path certified on its own."""
    x = as_matrix(x)
    sharp = _sharp_fn(cone, involution, n)
    z = sharp(x) @ x
    _check_self_adjoint(sharp, z)
    shifts = (cone.min_shift(n, z), cone.min_shift(n, -z))

    via_sqrt = norm_search_two_calls(cone, n, z, bisect_tol, sqrt_refine=True, shifts=shifts)
    value_sqrt = float(np.sqrt(via_sqrt.value))
    direct = norm_search_two_calls(cone, n, z, bisect_tol, squared=True, shifts=shifts)
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
