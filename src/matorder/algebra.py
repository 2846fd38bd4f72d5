"""Finite-dimensional unital matrix algebras under the trace inner product.

An algebra is stored as an orthonormal basis (Frobenius/trace pairing) of
complex N x N matrices together with the coordinates of the identity.  All
values are immutable after construction and every operation is a pure
function, so everything here is safe to use from concurrent code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import DimensionCapExceeded, DimensionMismatch, MembershipError

DEFAULT_STRUCTURE_TOL = 1e-9
DEFAULT_MAX_DIM = 256

# Acceptance threshold for a new basis direction, relative to the largest
# candidate norm in the current closure pass.  Keeps rank decisions stable
# at ambient dimensions up to ~32.
NEW_DIRECTION_FACTOR = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OperatorAlgebra:
    """Unital subalgebra of M_N(C) given by a trace-orthonormal basis.

    Attributes
    ----------
    ambient_dim : size N of the ambient matrix space
    basis : array of shape (d, N, N), orthonormal under the trace pairing
    unit_coords : coordinates of the identity matrix in this basis
    star_closed : whether every basis adjoint lies back in the span
    structure_tol : tolerance backing the structural invariants
    """

    ambient_dim: int
    basis: np.ndarray
    unit_coords: np.ndarray
    star_closed: bool
    structure_tol: float = DEFAULT_STRUCTURE_TOL

    def __post_init__(self):
        object.__setattr__(self, "basis", _freeze(np.asarray(self.basis, dtype=complex)))
        object.__setattr__(
            self, "unit_coords", _freeze(np.asarray(self.unit_coords, dtype=complex))
        )

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def synthesize(self, coords: np.ndarray) -> np.ndarray:
        """Matrix sum coords[..., k] * basis[k] (a stack for stacked coords)."""
        return np.tensordot(np.asarray(coords, dtype=complex), self.basis, axes=(-1, 0))

    def coords_of(self, x: np.ndarray) -> np.ndarray:
        """Trace-pairing coordinates of x, or of each matrix of a stack
        (no membership check)."""
        x = np.asarray(x, dtype=complex)
        flat = self.basis.reshape(self.dim, -1)
        return np.conj(np.conj(x).reshape(x.shape[:-2] + (-1,)) @ flat.T)

    def unit_matrix(self) -> np.ndarray:
        return self.synthesize(self.unit_coords)

    def element(self, coords: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(coords, dtype=complex))

    def validate(self) -> None:
        """Re-check the structural invariants; raises MembershipError on failure."""
        d = self.dim
        gram = np.tensordot(self.basis, self.basis.conj(), axes=([1, 2], [1, 2]))
        gram_defect = float(np.max(np.abs(gram - np.eye(d)))) if d else 0.0
        if gram_defect > 10 * self.structure_tol:
            raise MembershipError("basis not orthonormal", gram_defect)
        unit_defect = la.frob(self.unit_matrix() - np.eye(self.ambient_dim))
        if unit_defect > self.structure_tol * (1.0 + np.sqrt(self.ambient_dim)):
            raise MembershipError("unit does not reconstruct the identity", unit_defect)
        for i in range(d):
            for j in range(d):
                project(self, self.basis[i] @ self.basis[j])
        if self.star_closed:
            for b in self.basis:
                project(self, la.dagger(b))


@dataclass(frozen=True)
class AlgebraElement:
    """An algebra member: coordinate vector plus its cached matrix."""

    algebra: OperatorAlgebra
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(np.asarray(self.coords, dtype=complex)))

    @property
    def matrix(self) -> np.ndarray:
        return self.algebra.synthesize(self.coords)


def as_matrix(x) -> np.ndarray:
    """Accept either an AlgebraElement or a plain complex matrix."""
    if isinstance(x, AlgebraElement):
        return x.matrix
    return np.asarray(x, dtype=complex)


def project(algebra: OperatorAlgebra, x: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Coordinates of x in the algebra, or MembershipError with the residual.

    The residual test is relative: accepted when
    ||x - synth(coords)||_F <= tol * (1 + ||x||_F).
    """
    x = as_matrix(x)
    if x.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise DimensionMismatch(
            f"expected {algebra.ambient_dim}x{algebra.ambient_dim}, got {x.shape}"
        )
    tol = algebra.structure_tol if tol is None else tol
    coords = algebra.coords_of(x)
    residual = la.frob(x - algebra.synthesize(coords))
    if residual > tol * (1.0 + la.frob(x)):
        raise MembershipError("element outside the algebra span", residual)
    return coords


def membership_residual(algebra: OperatorAlgebra, x: np.ndarray) -> float:
    x = as_matrix(x)
    return la.frob(x - algebra.synthesize(algebra.coords_of(x)))


def level_residual(algebra: OperatorAlgebra, n: int, x: np.ndarray) -> float:
    """Distance of an (nN) x (nN) matrix from M_n(A), block by block.

    The amplified basis kron(E_ij, b_k) is orthonormal, so this equals
    membership_residual(amplify(algebra, n), x): the Frobenius norm of the
    n^2 block residuals against the algebra's own basis.
    """
    big_n = algebra.ambient_dim
    blocks = as_matrix(x).reshape(n, big_n, n, big_n).swapaxes(1, 2)
    return la.frob(blocks - algebra.synthesize(algebra.coords_of(blocks)))


def _mgs_residual(stack: np.ndarray | None, cand: np.ndarray) -> np.ndarray:
    """Gram-Schmidt residual against an orthonormal stack, re-orthogonalized."""
    r = cand
    if stack is None or stack.shape[0] == 0:
        return r
    for _ in range(2):
        coeffs = np.tensordot(stack.conj(), r, axes=([1, 2], [0, 1]))
        r = r - np.tensordot(coeffs, stack, axes=(0, 0))
    return r


def generate_algebra(
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

    stacked = np.stack(basis)
    unit_coords = np.tensordot(stacked.conj(), np.eye(n, dtype=complex), axes=([1, 2], [0, 1]))
    star_closed = True
    for b in basis:
        adj = la.dagger(b)
        coords = np.tensordot(stacked.conj(), adj, axes=([1, 2], [0, 1]))
        if la.frob(adj - np.tensordot(coords, stacked, axes=(0, 0))) > tol * (1.0 + la.frob(adj)):
            star_closed = False
            break

    return OperatorAlgebra(
        ambient_dim=n,
        basis=stacked,
        unit_coords=unit_coords,
        star_closed=star_closed,
        structure_tol=tol,
    )


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def amplify(algebra: OperatorAlgebra, n: int, max_dim: int = 4096) -> OperatorAlgebra:
    """Concrete M_n over the algebra: span of kron(E_ij, basis[k]).

    Entries live in the block (i, j) of an (n*N) x (n*N) matrix, so block
    matrices over the algebra are represented directly.  The unit is the
    identity of the amplified space.  The materialised basis is the source
    of exact span bases and the reference for the blockwise membership
    test (`level_residual`); cone membership never builds it.
    """
    if n < 1:
        raise DimensionMismatch(f"amplification level must be >= 1, got {n}")
    d = algebra.dim
    if d * n * n > max_dim:
        raise DimensionCapExceeded(
            f"amplified dimension {d * n * n} exceeds max_dim={max_dim}"
        )
    if n == 1:
        return algebra
    big = []
    unit = np.zeros(d * n * n, dtype=complex)
    idx = 0
    for i in range(n):
        for j in range(n):
            eij = matrix_unit(n, i, j)
            for k in range(d):
                big.append(np.kron(eij, algebra.basis[k]))
                if i == j:
                    unit[idx] = algebra.unit_coords[k]
                idx += 1
    return OperatorAlgebra(
        ambient_dim=n * algebra.ambient_dim,
        basis=np.stack(big),
        unit_coords=unit,
        star_closed=algebra.star_closed,
        structure_tol=algebra.structure_tol,
    )


def doubling_embed(x: np.ndarray) -> np.ndarray:
    """Block-diagonal diag(X, X); norm- and Hermiticity-preserving."""
    x = as_matrix(x)
    return np.kron(np.eye(2, dtype=complex), x)


def random_element(algebra: OperatorAlgebra, rng: np.random.Generator, scale: float = 1.0,
                   level: int = 1) -> np.ndarray:
    """Random member of M_level(A) with complex Gaussian coordinates.

    Draws the coordinates in the order of amplify(algebra, level)'s basis
    (block (i, j) row-major, then k), block by block without amplifying.
    """
    blocks = algebra.synthesize(scale * la.random_complex(rng, (level, level, algebra.dim)))
    return blocks.swapaxes(1, 2).reshape(level * algebra.ambient_dim, -1)


def hermitian_part_basis(algebra: OperatorAlgebra) -> np.ndarray:
    """Real-orthonormal basis (as matrices) of {x in A : x = x*}.

    Computed exactly as the kernel of x -> x - x* on the algebra viewed as
    a real vector space; for a star-closed algebra the real dimension
    equals the complex dimension of the algebra.
    """
    n = algebra.ambient_dim
    real_basis = []
    for b in algebra.basis:
        real_basis.append(b)
        real_basis.append(1j * b)
    cols = np.stack([la.real_vec(v - la.dagger(v)) for v in real_basis], axis=1)
    null = la.nullspace(cols, atol=1e-12)
    if null.shape[1] == 0:
        return np.zeros((0, n, n), dtype=complex)
    stacked = np.stack(real_basis)
    mats = [np.tensordot(null[:, k], stacked, axes=(0, 0)) for k in range(null.shape[1])]
    rows = la.orthonormalize_rows(np.stack([la.real_vec(m) for m in mats]))
    return np.stack([la.real_unvec(r, (n, n)) for r in rows])


def conjugate_algebra(algebra: OperatorAlgebra, s: np.ndarray) -> OperatorAlgebra:
    """The algebra S A S^-1 with a freshly orthonormalized basis."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise DimensionMismatch(
            f"similarity must be {algebra.ambient_dim}x{algebra.ambient_dim}, got {s.shape}"
        )
    s_inv = np.linalg.inv(s)
    conj = [s @ b @ s_inv for b in algebra.basis]
    rows = np.stack([c.ravel() for c in conj])
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    if rank != algebra.dim:
        raise DimensionMismatch("conjugation lost rank; similarity is singular")
    n = algebra.ambient_dim
    basis = np.stack([vt[k].reshape(n, n) for k in range(rank)])
    stacked = basis
    unit_coords = np.tensordot(stacked.conj(), np.eye(n, dtype=complex), axes=([1, 2], [0, 1]))
    star_closed = True
    for b in basis:
        adj = la.dagger(b)
        coords = np.tensordot(stacked.conj(), adj, axes=([1, 2], [0, 1]))
        if la.frob(adj - np.tensordot(coords, stacked, axes=(0, 0))) > algebra.structure_tol * 2.0:
            star_closed = False
            break
    return OperatorAlgebra(
        ambient_dim=n,
        basis=basis,
        unit_coords=unit_coords,
        star_closed=star_closed,
        structure_tol=algebra.structure_tol,
    )


def spans_equal(a: OperatorAlgebra, b: OperatorAlgebra, tol: float) -> bool:
    """Mutual projection test for equality of two algebra spans."""
    if a.ambient_dim != b.ambient_dim:
        return False
    return all(membership_residual(b, x) <= tol for x in a.basis) and all(
        membership_residual(a, x) <= tol for x in b.basis
    )
