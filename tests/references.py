"""Reference implementations the tests compare the library against.

`amplify` materialises a basis of M_n(A), which the library never builds;
`spans_equal` and `compress_via_conjugations` are independent
re-derivations of an algebra span test and of `cones.compress`.
"""

import numpy as np

from matorder import _linalg as la
from matorder.algebra import OperatorAlgebra, as_matrix, membership_residual
from matorder.errors import DimensionMismatch


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
