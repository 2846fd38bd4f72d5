"""Finite-dimensional unital matrix algebras under the trace inner product.

An algebra is an orthonormal basis (Frobenius/trace pairing) of complex N x N
matrices, which decides N, the identity's coordinates and star-closure.  All
values are immutable after construction and every operation is a pure
function, so everything here is safe to use from concurrent code.

An element of M_n(A) is an (nN) x (nN) matrix of N x N blocks in A, its
coordinates ordered block (i, j) row-major, then basis index k.  Only
`block_coords`, `block_synth` and `_Frame` (a similarity's action) know that
layout; every level-n consumer goes through them, and no basis of M_n(A) is
ever materialised: a map given by its basis images acts on a (stack of) block
matrices as `block_synth(block_coords(algebra, x), images)`.  `_frame` checks
and inverts a similarity once, into a `_Frame`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _linalg as la
from .errors import DimensionCapExceeded, DimensionMismatch, MembershipError

DEFAULT_STRUCTURE_TOL = 1e-9
DEFAULT_MAX_DIM = 1024


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OperatorAlgebra:
    """Unital subalgebra of M_N(C) given by a trace-orthonormal basis; the last
    three attributes are derived from the basis on construction, never given.

    Attributes
    ----------
    basis : array of shape (d, N, N), orthonormal under the trace pairing
    structure_tol : tolerance backing the structural invariants
    ambient_dim : size N of the ambient matrix space
    unit_coords : coordinates of the identity matrix in this basis
    star_closed : whether every adjoint b* lies within structure_tol (1 + ||b*||_F) of the span
    """

    basis: np.ndarray
    structure_tol: float = DEFAULT_STRUCTURE_TOL
    ambient_dim: int = field(init=False)
    unit_coords: np.ndarray = field(init=False)
    star_closed: bool = field(init=False)

    def __post_init__(self):
        basis = _freeze(as_matrix(self.basis))
        if basis.ndim != 3 or min(basis.shape) < 1 or basis.shape[1] != basis.shape[2]:
            raise DimensionMismatch(f"basis must be a (d, N, N) stack with d, N >= 1, "
                                    f"got {basis.shape}")
        n = basis.shape[1]
        flat = basis.reshape(len(basis), -1)
        adj = la.dagger(basis).reshape(len(basis), -1)
        residual = np.linalg.norm(adj - (adj @ flat.conj().T) @ flat, axis=1)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "unit_coords", _freeze(flat.conj() @ np.eye(n).ravel()))
        object.__setattr__(self, "star_closed", bool(np.all(
            residual <= self.structure_tol * (1.0 + np.linalg.norm(adj, axis=1)))))

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def synthesize(self, coords: np.ndarray) -> np.ndarray:
        """Matrix sum coords[..., k] * basis[k] (a stack for stacked coords): one GEMM."""
        coords = np.asarray(coords, dtype=complex)
        flat = coords.reshape(-1, self.dim) @ self.basis.reshape(self.dim, -1)
        return flat.reshape(coords.shape[:-1] + self.basis.shape[1:])

    def coords_of(self, x: np.ndarray) -> np.ndarray:
        """Trace-pairing coordinates of x, or of each matrix of a stack
        (no membership check)."""
        x = np.asarray(x, dtype=complex)
        flat = self.basis.reshape(self.dim, -1)
        return np.conj(np.conj(x).reshape(*x.shape[:-2], flat.shape[1]) @ flat.T)

    def unit_matrix(self) -> np.ndarray:
        return self.synthesize(self.unit_coords)

    def validate(self) -> None:
        """MembershipError unless the basis is orthonormal, the unit reconstructs the
        identity and products stay in the span (construction decides star-closure)."""
        d = self.dim
        gram = np.tensordot(self.basis, self.basis.conj(), axes=([1, 2], [1, 2]))
        gram_defect = float(np.max(np.abs(gram - np.eye(d)))) if d else 0.0
        if gram_defect > 10 * self.structure_tol:
            raise MembershipError("basis not orthonormal", gram_defect)
        unit_defect = la.frob(self.unit_matrix() - np.eye(self.ambient_dim))
        if unit_defect > self.structure_tol * (1.0 + np.sqrt(self.ambient_dim)):
            raise MembershipError("unit does not reconstruct the identity", unit_defect)
        # One stacked `_outside` per basis row (d N^2 entries): the first product outside raises.
        for b in self.basis:
            _outside(self, b @ self.basis)


def as_matrix(x) -> np.ndarray:
    """x as a complex matrix."""
    return np.asarray(x, dtype=complex)


@dataclass(frozen=True, eq=False)
class _Frame:
    """A checked S and its one S^-1 (both None: the identity frame); straighten is (I kron S)
    X (I kron S^-1) on the N x N blocks of X or of a stack's matrices; cond(S) on first read."""

    s: np.ndarray | None = None
    s_inv: np.ndarray | None = None

    def straighten(self, x) -> np.ndarray:
        x = as_matrix(x)
        if self.s is None:
            return x
        big_n, cols = self.s.shape[0], x.shape[-1]
        y = (self.s @ x.reshape(-1, big_n, cols)).reshape(-1, cols)
        return (y.reshape(-1, big_n) @ self.s_inv).reshape(x.shape)

    def unstraighten(self, y) -> np.ndarray:
        return _Frame(self.s_inv, self.s).straighten(y)

    @cached_property
    def cond(self) -> float:
        return float(np.linalg.cond(self.s))


def _frame(s, dim: int) -> _Frame:
    """The frame of S (of a frame: itself) from one `np.linalg.inv`: DimensionMismatch unless
    S is dim x dim, "similarity is singular" when LAPACK rejects S or S^-1 is not finite."""
    if isinstance(s, _Frame):
        return s
    s = as_matrix(s)
    if s.shape != (dim, dim):
        raise DimensionMismatch(f"similarity must be {dim}x{dim}, got {s.shape}")
    with contextlib.suppress(np.linalg.LinAlgError):
        s_inv = np.linalg.inv(s)
        if np.isfinite(s_inv).all():
            return _Frame(s, s_inv)
    raise DimensionMismatch("similarity is singular")


def project(algebra: OperatorAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates of x in the algebra, or `_outside`'s MembershipError with the
    residual when ||x - synth(coords)||_F > structure_tol (1 + ||x||_F)."""
    x = as_matrix(x)
    if x.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise DimensionMismatch(
            f"expected {algebra.ambient_dim}x{algebra.ambient_dim}, got {x.shape}"
        )
    _outside(algebra, x)
    return algebra.coords_of(x)


def _block_view(algebra: OperatorAlgebra, x: np.ndarray) -> np.ndarray:
    """The (n, m, N, N) view of the N x N blocks of an (nN) x (mN) matrix,
    or the (k, n, m, N, N) view of a stack of k of them."""
    x = as_matrix(x)
    big_n = algebra.ambient_dim
    if x.ndim not in (2, 3) or x.shape[-2] % big_n or x.shape[-1] % big_n:
        raise DimensionMismatch(f"expected a matrix of {big_n}x{big_n} blocks, got {x.shape}")
    return x.reshape(*x.shape[:-2], x.shape[-2] // big_n, big_n,
                     x.shape[-1] // big_n, big_n).swapaxes(-3, -2)


def block_coords(algebra: OperatorAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates (n, m, d) of the N x N blocks of an (nN) x (mN) matrix, or
    (k, n, m, d) of a stack (no membership check); ravelled, those on the
    basis kron(E_ij, b_k)."""
    return algebra.coords_of(_block_view(algebra, x))


def block_synth(coords: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_ij E_ij kron sum_k coords[i, j, k] mats[k] for coords (n, m, d) and
    mats (d, R, C): an (nR) x (mC) matrix, the sums one GEMM.  A stack of
    coordinates (..., n, m, d) gives the stack (..., nR, mC), still one GEMM."""
    *lead, n, m, d = coords.shape
    _, rows, cols = mats.shape
    blocks = (coords.reshape(-1, d) @ mats.reshape(d, rows * cols)).reshape(
        *lead, n, m, rows, cols)
    return blocks.swapaxes(-3, -2).reshape(*lead, n * rows, m * cols)


def level_residual(algebra: OperatorAlgebra, x: np.ndarray):
    """Distance of a matrix of N x N blocks from M_n(A) on one view of its
    blocks: the basis kron(E_ij, b_k) of M_n(A) is orthonormal, so the
    distance is that of the blocks from A, summed in quadrature.  A stack
    (k, nN, mN) gives its k distances from its one (k, n, m, N, N) view."""
    x = as_matrix(x)
    blocks = _block_view(algebra, x)
    diff = blocks - algebra.synthesize(algebra.coords_of(blocks))
    return np.linalg.norm(diff.reshape(len(x), -1), axis=1) if x.ndim == 3 else la.frob(diff)


def _outside(algebra: OperatorAlgebra, x: np.ndarray) -> None:
    """The one structure bound: MembershipError, with its residual, for x (a matrix
    of N x N blocks) or the first matrix of a stack x whose `level_residual`
    exceeds structure_tol (1 + ||x||_F), the stack decided in one pass."""
    residual = level_residual(algebra, x)
    if x.ndim == 2:
        over = [0] if residual > algebra.structure_tol * (1.0 + la.frob(x)) else []
        residual = [residual]
    else:
        size = np.linalg.norm(x.reshape(len(x), -1), axis=1)
        over = np.flatnonzero(residual > algebra.structure_tol * (1.0 + size))
    if len(over):
        raise MembershipError("element outside M_n(A)", residual[over[0]])


def generate_algebra(
    generators: list[np.ndarray],
    include_adjoints: bool = False,
    tol: float = DEFAULT_STRUCTURE_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> OperatorAlgebra:
    """Smallest unital algebra containing the generators.

    The algebra is spanned by the words in the stack G of generators (and
    their adjoints when include_adjoints), and each word of length k + 1 is
    one of length k times a generator.  So once the basis spans the words of
    length <= k, only the block F_k of directions found last can add new
    ones, through the products F_k G.  The basis starts at I/sqrt(N); each
    batch of candidates (G first, then F_k G in one einsum) loses its
    projection on the basis in two GEMM passes (re-orthogonalising once is
    enough: Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005), and
    `la.orthonormalize_rows` decides its new directions by the one rank rule
    at the scale of the largest candidate; `OperatorAlgebra` decides the
    star-closure of the basis at `tol`.  DimensionMismatch for no, non-square
    or mixed-size generators; DimensionCapExceeded for max_dim < 1 or a larger span.
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

    gens = np.stack(mats + ([la.dagger(g) for g in mats] if include_adjoints else []))
    basis = np.eye(n, dtype=complex).reshape(1, n * n) / np.sqrt(n)
    cands = gens
    while True:
        rows = cands.reshape(-1, n * n)
        scale = float(np.max(np.linalg.norm(rows, axis=1)))
        for _ in range(2):
            rows = rows - (rows @ basis.conj().T) @ basis
        fresh = la.orthonormalize_rows(rows, scale=scale)
        if not len(fresh):
            break
        if len(basis) + len(fresh) > max_dim:
            raise DimensionCapExceeded(f"span dimension exceeds max_dim={max_dim}")
        basis = np.concatenate([basis, fresh])
        cands = np.einsum("iab,jbc->ijac", fresh.reshape(-1, n, n), gens)

    return OperatorAlgebra(basis.reshape(-1, n, n), tol)


def doubling_embed(x: np.ndarray) -> np.ndarray:
    """Block-diagonal diag(X, X); norm- and Hermiticity-preserving."""
    x = as_matrix(x)
    return np.kron(np.eye(2, dtype=complex), x)


def random_element(algebra: OperatorAlgebra, rng: np.random.Generator,
                   level: int = 1) -> np.ndarray:
    """Random member of M_level(A) with complex Gaussian coordinates, drawn
    in the order of `block_coords` (block (i, j) row-major, then k)."""
    return block_synth(la.random_complex(rng, (level, level, algebra.dim)), algebra.basis)


def hermitian_part_basis(algebra: OperatorAlgebra) -> np.ndarray:
    """Real-orthonormal basis (as matrices) of {x in A : x = x*}.

    Computed exactly as the kernel of x -> x - x* on the algebra viewed as
    a real vector space; for a star-closed algebra the real dimension
    equals the complex dimension of the algebra.
    """
    basis = algebra.basis
    real_basis = np.stack([basis, 1j * basis], axis=1).reshape(-1, *basis.shape[1:])
    return la.real_kernel(real_basis, la.real_rows(real_basis - la.dagger(real_basis)).T)


def generic_pair(algebra: OperatorAlgebra) -> np.ndarray:
    """Two random elements of the algebra from a fixed stream, a (2, N, N) stack."""
    return algebra.synthesize(la.random_complex_many(np.random.default_rng(0), 2, algebra.dim))


def commutant(algebra: OperatorAlgebra) -> tuple:
    """(gens, comm): generators of B and an orthonormal stack spanning B' = {X : Xb = bX for b
    in B}, the kernel of X -> [X, g] over the gens, rank by the one rule at their scale (C I
    keeps all of M_N).  gens is the `generic_pair`, or the whole basis when the pair generates
    less than B: its kernel fails the check on every basis element (one stacked product)."""
    n, b = algebra.ambient_dim, algebra.basis[:, None]
    for gens in (generic_pair(algebra), algebra.basis):
        # Row-major vec(X g - g X) = (I kron g^T - g kron I) vec(X).
        ops = np.concatenate([np.kron(np.eye(n), g.T) - np.kron(g, np.eye(n)) for g in gens])
        comm = la.nullspace(ops, la.frob(gens)).T.reshape(-1, n, n)
        if np.abs(comm @ b - b @ comm).max(initial=0.0) <= algebra.structure_tol:
            break
    return gens, comm


def image_algebra(algebra: OperatorAlgebra, images) -> OperatorAlgebra:
    """The span of the basis images under an injective unital homomorphism, an algebra with no
    closure (one `la.orthonormalize_rows`); DimensionMismatch unless it has the algebra's dim."""
    rows = la.orthonormalize_rows(as_matrix(images).reshape(algebra.dim, -1))
    if rows.shape[0] != algebra.dim:
        raise DimensionMismatch(f"the images span {rows.shape[0]} of {algebra.dim} directions")
    return OperatorAlgebra(rows.reshape(-1, *np.shape(images)[1:]), algebra.structure_tol)


def conjugate_algebra(algebra: OperatorAlgebra, s: np.ndarray) -> OperatorAlgebra:
    """The algebra S A S^-1 (s may be a `_Frame`): the `image_algebra` of the straightened basis."""
    return image_algebra(algebra, _frame(s, algebra.ambient_dim).straighten(algebra.basis))
