"""Recovery of the involution induced by a cone family.

Every element of the algebra splits uniquely as x = x1 + i x2 with x1, x2
in the real span of the cone; the assignment x -> x1 - i x2 is then a
conjugate-linear anti-multiplicative involution.  Recovery works at any
matrix level, and the level-n map can be compared against the entrywise
extension of the level-1 map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import OperatorAlgebra, as_matrix, random_element
from .cones import ConeOracle, _rank_of
from .errors import (
    DecompositionInfeasible,
    DecompositionNotUnique,
    SpanUnstable,
)

_DEF_RESIDUAL_TOL = 1e-9


def real_cone_span(cone: ConeOracle, n: int = 1, samples: int | None = None,
                   seed: int = 0, max_rounds: int = 12) -> np.ndarray:
    """Real-orthonormal basis (as matrices) of span_R(C_n - C_n).

    Grown from cone samples until the dimension is stable across three
    consecutive rounds; cross-checked against the variant's exact span when
    one is available.  Raises SpanUnstable when growth does not settle.
    """
    rng = np.random.default_rng(seed)
    dim = cone.level_dim(n)
    if samples is None:
        samples = 2 * cone.level_algebra(n).dim + 8

    rows: list[np.ndarray] = []
    stable = 0
    last = -1
    for _ in range(max_rounds):
        for _ in range(samples):
            rows.append(la.real_vec(cone.sample(n, rng)))
        basis = la.orthonormalize_rows(np.stack(rows))
        if basis.shape[0] == last:
            stable += 1
            if stable >= 2:  # three rounds at the same dimension
                break
        else:
            stable = 0
        last = basis.shape[0]
    else:
        raise SpanUnstable(
            f"cone span still growing after {max_rounds} rounds (dim {last})"
        )

    if basis.shape[0] == 0:
        return np.zeros((0, dim, dim), dtype=complex)

    exact = cone.span_basis(n)
    if exact is not None:
        got, want = basis.shape[0], exact.shape[0]
        if got != want:
            raise SpanUnstable(
                f"sampled span dimension {got} != exact span dimension {want}"
            )
        for h in exact:
            if la.project_residual(basis, la.real_vec(h)) > 1e-7 * (1.0 + la.frob(h)):
                raise SpanUnstable("sampled span disagrees with the exact span")
    return np.stack([la.real_unvec(r, (dim, dim)) for r in basis])


def _check_span_conditions(cone: ConeOracle, n: int, span: np.ndarray) -> None:
    v = span.shape[0]
    lvl_dim = cone.level_algebra(n).dim
    if v == 0:
        raise DecompositionInfeasible("cone span is trivial")
    rank = _rank_of([la.real_vec(h) for h in span] + [la.real_vec(1j * h) for h in span])
    if rank != 2 * v:
        raise DecompositionNotUnique(
            f"span meets i*span in dimension {2 * v - rank}"
        )
    if rank != 2 * lvl_dim:
        raise DecompositionInfeasible(
            f"span + i*span has real dimension {rank}, the algebra needs {2 * lvl_dim}"
        )


def decompose(cone: ConeOracle, n: int, x, span: np.ndarray | None = None) -> tuple:
    """Unique split x = x1 + i x2 with x1, x2 in span_R(C_n - C_n)."""
    x = as_matrix(x)
    if span is None:
        span = real_cone_span(cone, n)
    _check_span_conditions(cone, n, span)
    cols = np.stack(
        [la.real_vec(h) for h in span] + [la.real_vec(1j * h) for h in span], axis=1
    )
    target = la.real_vec(x)
    coeffs, *_ = np.linalg.lstsq(cols, target, rcond=None)
    v = span.shape[0]
    x1 = np.tensordot(coeffs[:v], span, axes=(0, 0))
    x2 = np.tensordot(coeffs[v:], span, axes=(0, 0))
    residual = la.frob(x - (x1 + 1j * x2))
    if residual > _DEF_RESIDUAL_TOL * (1.0 + la.frob(x)):
        raise DecompositionInfeasible(
            f"decomposition residual {residual:.3g} outside tolerance"
        )
    return x1, x2


@dataclass(frozen=True)
class InvolutionMap:
    """Conjugate-linear involution stored as images of the basis elements.

    `algebra` is the algebra the map was recovered over (a level-n
    amplification when recovered at level n); `bound_2K` records the
    empirical operator bound ||x^sharp|| <= bound_2K * ||x||.
    """

    algebra: OperatorAlgebra
    images: np.ndarray
    bound_2K: float

    def apply(self, x, level: int = 1) -> np.ndarray:
        """x^sharp; at level > 1 the entrywise map with block transpose."""
        x = as_matrix(x)
        if level == 1:
            coords = self.algebra.coords_of(x)
            return np.tensordot(coords.conj(), self.images, axes=(0, 0))
        nn = self.algebra.ambient_dim
        out = np.zeros_like(x)
        for i in range(level):
            for j in range(level):
                blk = x[i * nn:(i + 1) * nn, j * nn:(j + 1) * nn]
                out[j * nn:(j + 1) * nn, i * nn:(i + 1) * nn] = self.apply(blk)
        return out


def sharp(involution: InvolutionMap, x) -> np.ndarray:
    """Apply the recovered involution to a level-1 element."""
    return involution.apply(as_matrix(x))


def recover_involution(cone: ConeOracle, n: int = 1, seed: int = 0,
                       span: np.ndarray | None = None) -> InvolutionMap:
    """Recover x -> x1 - i x2 on the level-n algebra from the cone."""
    if span is None:
        span = real_cone_span(cone, n, seed=seed)
    _check_span_conditions(cone, n, span)
    lvl = cone.level_algebra(n)
    images = []
    for b in lvl.basis:
        x1, x2 = decompose(cone, n, b, span=span)
        images.append(x1 - 1j * x2)
    images = np.stack(images)

    out = InvolutionMap(lvl, images, bound_2K=0.0)
    rng = np.random.default_rng(seed + 1)
    bound = 1.0
    for _ in range(32):
        x = random_element(lvl, rng)
        nx = la.opnorm(x)
        if nx > 1e-12:
            bound = max(bound, la.opnorm(out.apply(x)) / nx)
    return InvolutionMap(lvl, images, bound_2K=float(bound))


@dataclass(frozen=True)
class InvolutionComparison:
    level: int
    max_residual: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= 1e-8


def verify_matrix_involution(cone: ConeOracle, n: int, samples: int = 20,
                             seed: int = 0,
                             involution1: InvolutionMap | None = None) -> InvolutionComparison:
    """Compare the independently recovered level-n involution with the
    entrywise transpose built from the level-1 map, on random elements."""
    if involution1 is None:
        involution1 = recover_involution(cone, 1, seed=seed)
    inv_n = recover_involution(cone, n, seed=seed + 17)
    lvl = cone.level_algebra(n)
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(samples):
        x = random_element(lvl, rng)
        direct = inv_n.apply(x)
        entrywise = involution1.apply(x, level=n)
        worst = max(worst, la.frob(direct - entrywise) / (1.0 + la.frob(x)))
    return InvolutionComparison(level=n, max_residual=float(worst), samples=samples)
