"""Small dense linear-algebra helpers shared across modules.

Every numerical rank in matorder is decided by one rule, `_rank`: count the
singular values above RANK_RTOL * s[0], or above RANK_RTOL * max(s[0], scale)
when the caller knows the scale of the matrix entries (an all-noise matrix
then has rank 0, where a purely relative cutoff would call it full rank).
`rank`, `orthonormalize_rows`, `nullspace` and `real_kernel` apply it (the middle two
at that scale; the last two keep a known kernel dimension instead); no other module
calls an SVD to decide a rank, and the algebra closure finds its new directions
through `orthonormalize_rows` (Golub & Van Loan, Matrix Computations, 5.4).  `opnorm` stays
the values-only SVD, as certificates pin its last bits: by the Gram eigensolve of
`top_singular_values` the transpose's cb lower bound read 2.0000000000000004, not 2.0.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def frob(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def frob_each(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack: numpy's row `norm`, bit for bit, unwrapped."""
    flat = x.reshape(len(x), x.size // max(len(x), 1))  # an empty stack too
    return np.sqrt(np.add.reduce((flat.conj() * flat).real, axis=1))


def opnorm(x: np.ndarray):
    """Operator norm: the top singular value, as `norm(x, 2)` without its wrapper;
    of a (k, m, n) stack, the array of each matrix's, from one values-only SVD."""
    top = np.linalg.svd(x, compute_uv=False)[..., 0]
    return top if x.ndim == 3 else float(top)


def top_singular_values(x: np.ndarray) -> np.ndarray:
    """Top singular value of each matrix of a (k, m, n) stack: sqrt(lambda_max) 2^e by one stacked
    `eigvalsh` of y* y, y = 2^-e x with max |y_ij| in [1/2, 1) (0.0 for a zero matrix); within
    about (m + 4) eps / 2 of the SVD's, relative, by the Gram product's rounding (Higham, ch. 3)."""
    e = np.maximum(np.frexp(np.abs(x).max(axis=(-2, -1)))[1], -1021)  # 2^-e stays finite.
    y = x * np.ldexp(1.0, -e)[:, None, None]
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(dagger(y) @ y)[:, -1]), e)


def principal_sqrt(q: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive definite matrix, exactly
    Hermitian: V sqrt(L) V* symmetrized once, so its diagonal is real."""
    evals, vecs = np.linalg.eigh(0.5 * (q + q.conj().T))
    if evals[0] <= 0.0:
        raise np.linalg.LinAlgError(
            f"matrix not positive definite (lambda_min {evals[0]:.3g})"
        )
    s = (vecs * np.sqrt(evals)) @ vecs.conj().T
    return 0.5 * (s + s.conj().T)


def real_vec(x: np.ndarray) -> np.ndarray:
    """Flatten a complex matrix into a real vector (re parts then im parts)."""
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


def real_rows(mats: np.ndarray) -> np.ndarray:
    """real_vec of every matrix of a (k, n, m) stack, as the rows of a (k, 2nm) array."""
    flat = mats.reshape(len(mats), int(np.prod(mats.shape[1:])))
    return np.concatenate([flat.real, flat.imag], axis=1)


def orthonormal_stack(mats: np.ndarray) -> np.ndarray:
    """Real-orthonormal basis, as a stack of matrices, of the real span of a
    (k, n, m) stack of complex matrices (`orthonormalize_rows` decides the rank)."""
    rows = orthonormalize_rows(real_rows(mats))
    half = rows.shape[1] // 2
    return (rows[:, :half] + 1j * rows[:, half:]).reshape((-1,) + mats.shape[1:])


def random_complex_many(rng: np.random.Generator, k: int, shape) -> np.ndarray:
    """k standard complex Gaussian arrays (unit total variance per entry) as one
    (k, *shape) array; each draw takes its real parts, then its imaginary parts,
    from the stream."""
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    z = rng.standard_normal((k, 2, *shape))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _rank(s: np.ndarray, scale: float | None = None) -> int:
    """The one rank rule: the number of singular values (descending) above
    RANK_RTOL * s[0], or RANK_RTOL * max(s[0], scale) given the entry scale."""
    return int(np.sum(s > RANK_RTOL * (s[0] if scale is None else max(s[0], scale))))


def rank(mat: np.ndarray) -> int:
    """Numerical rank of a matrix under the one rule."""
    return _rank(np.linalg.svd(mat, compute_uv=False)) if mat.size else 0


def orthonormalize_rows(rows: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span, rank by the one rule
    (scale: the known size of the entries)."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[:_rank(s, scale)]


def nullspace(mat: np.ndarray, scale: float | None = None, dim: int | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a real or complex matrix: the dim smallest
    right singular vectors, or rank by the one rule (scale: the known size of the entries)."""
    # Right singular vectors are complete whenever rows >= cols.
    _, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vt[_rank(s, scale) if dim is None else len(vt) - dim:].conj().T


def real_kernel(basis: np.ndarray, cols: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Real-orthonormal stack spanning {sum_k c_k basis[k] : cols @ c = 0, c real},
    the kernel decided by `nullspace` (of dimension dim when known)."""
    null = nullspace(cols, dim=dim)
    if null.shape[1] == 0:
        return np.zeros((0,) + basis.shape[1:], dtype=complex)
    return orthonormal_stack(np.stack([np.tensordot(null[:, k], basis, axes=(0, 0))
                                       for k in range(null.shape[1])]))


def project_residual(basis_rows: np.ndarray, v: np.ndarray) -> float:
    if basis_rows.shape[0] == 0:
        return float(np.linalg.norm(v))
    coeffs = basis_rows @ v
    return float(np.linalg.norm(v - basis_rows.T @ coeffs))


def hermitian_matrix_basis(n: int) -> np.ndarray:
    """Real-orthonormal basis of Hermitian n x n matrices (n^2 elements): the
    diagonal units, then (E_kl + E_lk)/sqrt2 and i (E_kl - E_lk)/sqrt2 for
    each k < l in row-major order."""
    out = np.zeros((n * n, n, n), dtype=complex)
    out[range(n), range(n), range(n)] = 1.0
    k, l = np.triu_indices(n, 1)
    pair = n + 2 * np.arange(len(k))
    out[pair, k, l] = out[pair, l, k] = 1.0 / np.sqrt(2.0)
    out[pair + 1, k, l], out[pair + 1, l, k] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
    return out
