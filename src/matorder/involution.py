"""Recovery of the involution induced by a cone family.

Every element of the algebra splits uniquely as x = x1 + i x2 with x1, x2 in the real span
of the cone; the assignment x -> x1 - i x2 is then a conjugate-linear anti-multiplicative
involution.  `recover_involution` alone recovers it, at level 1, for every consumer: on a
`_realised` cone (a frame cone over a star-closed A = S B S^-1) from no samples, as C_n =
pi^(n)^-1(M_n(A)^+) makes x^sharp = S^-1 (S x S^-1)* S, `sharp_block` (Choi & Effros 1977);
else over a span sampled in stacks (one `sample_many` call per round).  An `InvolutionMap`
acts on block matrices over its algebra of any size, or on a stack of them, as (x_ij)^sharp =
(x_ji^sharp).  `verify_matrix_involution` certifies the map it is given as
the level-n involution: by the same theorem, drawing nothing, when the cone is `_realised`
and the map is its own `sharp_block`; otherwise from cone samples drawn one `sample_many`
call per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import OperatorAlgebra, _outside, as_matrix, block_coords, block_synth
from .cones import _THEOREM, ConeOracle, _realised, _stack
from .errors import (CertificationFailed, DecompositionInfeasible, DecompositionNotUnique,
                     DimensionMismatch, SpanUnstable)

# Sampling rounds before a still-growing span raises SpanUnstable.
SPAN_ROUNDS = 12
# Cone samples a level-n certificate draws beyond its rank target.
CERT_SAMPLES = 20
# Bytes of cone samples a level-n certificate draws, maps and measures at a
# time: the working set of a chunk then stays in a core's cache.
CERT_CHUNK_BYTES = 2 ** 18


def real_cone_span(cone: ConeOracle, n: int = 1, seed: int = 0) -> np.ndarray:
    """Real-orthonormal basis (as matrices) of span_R(C_n - C_n).

    Grown from cone samples, 2 dim M_n(A) + 8 a round, until the dimension
    is stable across three consecutive rounds; cross-checked against the
    variant's exact span when one is available (its dimension, then every
    exact element's distance from the sampled span, from one projection).
    Raises SpanUnstable when growth does not settle in SPAN_ROUNDS rounds.
    """
    rng = np.random.default_rng(seed)
    cone.level_dim(n)  # LevelUnsupported for a cone without matrix levels
    samples = 2 * n * n * cone.algebra.dim + 8

    drawn: list[np.ndarray] = []
    stable = 0
    last = -1
    for _ in range(SPAN_ROUNDS):
        drawn.append(_stack(cone, n, cone.sample_many(n, samples, rng)))
        basis = la.orthonormal_stack(np.concatenate(drawn))
        if basis.shape[0] == last:
            stable += 1
            if stable >= 2:  # three rounds at the same dimension
                break
        else:
            stable = 0
        last = basis.shape[0]
    else:
        raise SpanUnstable(
            f"cone span still growing after {SPAN_ROUNDS} rounds (dim {last})"
        )

    if basis.shape[0] == 0:
        return basis

    exact = cone.span_basis(n)
    if exact is not None:
        got, want = basis.shape[0], exact.shape[0]
        if got != want:
            raise SpanUnstable(
                f"sampled span dimension {got} != exact span dimension {want}"
            )
        rows, vecs = la.real_rows(basis), la.real_rows(exact)
        size = np.linalg.norm(vecs, axis=1)
        if np.any(np.linalg.norm(vecs - (vecs @ rows.T) @ rows, axis=1) > 1e-7 * (1.0 + size)):
            raise SpanUnstable("sampled span disagrees with the exact span")
    return basis


def _split(cone: ConeOracle, n: int, xs: np.ndarray, span: np.ndarray) -> tuple:
    """Unique splits x = x1 + i x2 of every matrix of the stack xs over the real
    span V: one SVD decides the rank and solves for all right-hand sides.  One
    `_outside` pass raises MembershipError for the first x outside M_n(A), and
    one pass over the splits DecompositionInfeasible for the first that misses
    its x by more than structure_tol (1 + ||x||_F): a V tilted out of M_n(A)
    (a sampled span at large cond(S)) splits no x exactly."""
    v = span.shape[0]
    cone.level_dim(n)  # LevelUnsupported for a cone without matrix levels
    lvl_dim = n * n * cone.algebra.dim
    if v == 0:
        raise DecompositionInfeasible("cone span is trivial")
    rows = la.real_rows(np.concatenate([span, 1j * span]))
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    rank = la._rank(s)
    if rank != 2 * v:
        raise DecompositionNotUnique(
            f"span meets i*span in dimension {2 * v - rank}"
        )
    if rank != 2 * lvl_dim:
        raise DecompositionInfeasible(
            f"span + i*span has real dimension {rank}, the algebra needs {2 * lvl_dim}"
        )
    _outside(cone.algebra, xs)
    # rows.T has full column rank 2v: its least-squares solution is U S^-1 V^T b.
    coeffs = u @ ((vt @ la.real_rows(xs).T) / s[:, None])
    x1 = np.tensordot(coeffs[:v].T, span, axes=(1, 0))
    x2 = np.tensordot(coeffs[v:].T, span, axes=(1, 0))
    size, miss = (np.linalg.norm(y.reshape(len(xs), -1), axis=1) for y in (xs, xs - x1 - 1j * x2))
    over = np.flatnonzero(miss > cone.algebra.structure_tol * (1.0 + size))
    if len(over):
        raise DecompositionInfeasible(
            f"decomposition residual {miss[over[0]]:.3g} outside tolerance")
    return x1, x2


def decompose(cone: ConeOracle, n: int, x, span: np.ndarray) -> tuple:
    """Unique split x = x1 + i x2 with x1, x2 in span, a real basis of span_R(C_n - C_n)."""
    x1, x2 = _split(cone, n, as_matrix(x)[None], span)
    return x1[0], x2[0]


@dataclass(frozen=True)
class InvolutionMap:
    """Conjugate-linear involution of A stored as the images of its basis
    elements, applied entrywise to block matrices over A of any size (or to
    a stack of them)."""

    algebra: OperatorAlgebra
    images: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """x^sharp of a block matrix over the algebra, or of each matrix of a
        stack (its size read from x's shape): block (i, j) maps to block (j, i)."""
        return self.of_coords(block_coords(self.algebra, x))

    def of_coords(self, coords: np.ndarray) -> np.ndarray:
        """x^sharp from the `block_coords` of x (a matrix's or a stack's)."""
        return block_synth(coords.conj().swapaxes(-3, -2), self.images)

    def norm_bound(self, seed: int) -> float:
        """The empirical level-1 bound 2K in ||x^sharp|| <= 2K ||x||: the largest ratio
        over 32 `random_element` draws from default_rng(seed + 1) (their stream) as one
        stack, measured by one values-only SVD per side, and 1 when none is larger."""
        xs = block_synth(la.random_complex_many(np.random.default_rng(seed + 1), 32,
                                              (1, 1, self.algebra.dim)), self.algebra.basis)
        nx = la.opnorm(xs)
        ratios = la.opnorm(self(xs))[nx > 1e-12] / nx[nx > 1e-12]
        return float(np.max(ratios, initial=1.0))


def recover_involution(cone: ConeOracle, *, seed: int = 0) -> InvolutionMap:
    """x -> x1 - i x2 on A: a `_realised` cone's `sharp_block`, drawing nothing, else the split
    over `real_cone_span(cone, 1, seed)`; `certify_level` certifies it at a level n > 1."""
    cone.level_dim(1)  # LevelUnsupported for a cone without matrix levels
    if _realised(cone):
        return InvolutionMap(cone.algebra, cone.sharp_block(1, 1, cone.algebra.basis))
    x1, x2 = _split(cone, 1, cone.algebra.basis, real_cone_span(cone, 1, seed=seed))
    return InvolutionMap(cone.algebra, x1 - 1j * x2)


def certify_level(cone: ConeOracle, n: int, involution1: InvolutionMap, seed: int = 0,
                  samples: int = CERT_SAMPLES) -> "InvolutionComparison":
    """`verify_matrix_involution` at level n with at least CERT_SAMPLES samples;
    CertificationFailed unless it passes."""
    cert = verify_matrix_involution(cone, n, max(samples, CERT_SAMPLES), seed,
                                    involution1=involution1)
    if not cert.passed:
        raise CertificationFailed(f"entrywise level-1 map not certified: {cert}")
    return cert


@dataclass(frozen=True)
class InvolutionComparison:
    """Worst ||x - x^sharp||_F / (1 + ||x||_F) and real rank of the cone samples, or, with
    the realisation theorem as `provenance`, neither: no sample is drawn or measured."""

    level: int
    max_residual: float | None
    samples: int
    rank: int | None
    need: int
    provenance: str = "sampled"

    @property
    def passed(self) -> bool:
        return self.provenance == _THEOREM or (self.max_residual <= 1e-8
                                                and self.rank == self.need)


def verify_matrix_involution(cone: ConeOracle, n: int, samples: int = CERT_SAMPLES,
                             seed: int = 0, *,
                             involution1: InvolutionMap) -> InvolutionComparison:
    """Certify that the entrywise extension of the level-1 map involution1 is the
    level-n involution: need + samples elements of C_n, each fixed
    by the map, whose blocks i <= j have real rank need = n^2 dim A, span all of
    H_n = {x in M_n(A) : x^sharp = x}, so span_R(C_n - C_n) = H_n.  Drawn,
    mapped and measured CERT_CHUNK_BYTES of samples at a time, which bounds the memory.
    On a `_realised` cone whose level-1 map is its own `sharp_block` the realisation
    theorem certifies every level, and nothing is drawn.  DimensionMismatch, before any
    draw, for a map whose images are not shaped as the cone's algebra basis."""
    # LevelUnsupported for a cone without matrix levels
    chunk = max(1, CERT_CHUNK_BYTES // (16 * cone.level_dim(n) ** 2))
    if involution1.images.shape != cone.algebra.basis.shape:
        raise DimensionMismatch(f"involution images of shape {involution1.images.shape}, "
                                f"the cone's algebra has {cone.algebra.basis.shape}")
    need = n * n * cone.algebra.dim
    if _realised(cone) and involution1.algebra is cone.algebra and np.array_equal(
            involution1.images, cone.sharp_block(1, 1, cone.algebra.basis)):
        return InvolutionComparison(n, None, 0, None, need, _THEOREM)
    upper = np.triu_indices(n)
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    rows = np.empty((need + samples, len(upper[0]) * 2 * cone.algebra.dim))
    for start in range(0, len(rows), chunk):
        xs = _stack(cone, n, cone.sample_many(n, min(chunk, len(rows) - start), rng))
        coords = block_coords(cone.algebra, xs)
        size = np.linalg.norm(xs.reshape(len(xs), -1), axis=1)
        residual = np.linalg.norm((xs - involution1.of_coords(coords)).reshape(len(xs), -1),
                                  axis=1)
        worst = max(worst, float(np.max(residual / (1.0 + size))))
        rows[start:start + len(xs)] = la.real_rows(coords[:, upper[0], upper[1]])
    return InvolutionComparison(n, float(worst), samples, la.rank(rows), need)
