"""Reference implementations the tests compare the library against.

`amplify` materialises a basis of M_n(A), which the library never builds;
`spans_equal` and `compress_via_conjugations` are independent
re-derivations of an algebra span test and of `cones.compress`;
`generate_algebra_mgs` is the earlier algebra closure (products of the fresh
basis with the whole basis, one candidate at a time by modified
Gram-Schmidt), which `generate_algebra` must match in dimension, span and
star-closedness.
"""

import numpy as np

from matorder import _linalg as la
from matorder.algebra import (DEFAULT_MAX_DIM, DEFAULT_STRUCTURE_TOL, OperatorAlgebra,
                              as_matrix, membership_residual)
from matorder.errors import DimensionCapExceeded, DimensionMismatch

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
