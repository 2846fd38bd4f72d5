"""Executable case studies: the doubled J-symmetric representation pipeline
for similarity problems, and the differentiable-function embedding whose
positivity cone degenerates under refinement.

The doubling a -> pi(a) (+) pi(a*)* turns any bounded representation into a
J-symmetric one (J the coordinate swap), which forces the norm identity
||rho^(n)(a)|| = ||rho^(n)(a*)|| and hence the cone axioms needed for the
reconstruction pipeline.  The function embedding f -> [[f, f'], [0, f]]
realizes an operator algebra whose induced norm mixes f and f'.  Its study
computes on (k, m) stacks of values and derivatives, the product rule spelled
where the constants take products; `C1Sample` is one checked sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .algebra import (
    OperatorAlgebra,
    _frame,
    block_coords,
    block_synth,
    image_algebra,
)
from .cones import ConeAuditReport, SimilarityCone, _samples, audit_star_admissible
from .errors import (
    CertificationFailed,
    DimensionMismatch,
    GridTooCoarse,
    MatOrderError,
    SourceNotStarClosed,
)
from .similarity import DEFAULT_CERT_TOL, ReconstructionResult, reconstruct_similarity


# ---------------------------------------------------------------------------
# J-symmetric doubling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JSymmetricRep:
    """Doubled representation rho(a) = pi(a) (+) pi(a*)* with the swap J; construction
    measures symmetry_residual, the worst relative rho(b*) - J rho(b)* J over the basis."""

    algebra: OperatorAlgebra
    pi_images: np.ndarray
    rho_images: np.ndarray
    j: np.ndarray
    symmetry_residual: float = field(init=False)

    def __post_init__(self):
        lhs = self.rho(la.dagger(self.algebra.basis))
        rhs = self.j @ la.dagger(self.rho(self.algebra.basis)) @ self.j
        residual = max([0.0] + [la.frob(x - y) / (1.0 + la.frob(y)) for x, y in zip(lhs, rhs)])
        object.__setattr__(self, "symmetry_residual", float(residual))

    def rho(self, x) -> np.ndarray:
        """rho of a matrix, of a level-n block matrix (blockwise) or of each matrix of a stack."""
        return block_synth(block_coords(self.algebra, x), self.rho_images)


def j_symmetrize(algebra: OperatorAlgebra, pi_images: np.ndarray) -> JSymmetricRep:
    """Double a representation of a star-closed algebra into a J-symmetric one."""
    if not algebra.star_closed:
        raise SourceNotStarClosed("doubling needs a star-closed source algebra")
    pi_images = np.asarray(pi_images, dtype=complex)
    nn = pi_images.shape[1]
    pi_b, pi_adj = (block_synth(block_coords(algebra, x), pi_images)
                    for x in (algebra.basis, la.dagger(algebra.basis)))
    rho_images = np.zeros((algebra.dim, 2 * nn, 2 * nn), dtype=complex)
    rho_images[:, :nn, :nn], rho_images[:, nn:, nn:] = pi_b, la.dagger(pi_adj)
    j = np.kron([[0, 1], [1, 0]], np.eye(nn, dtype=complex))
    return JSymmetricRep(algebra, pi_images, rho_images, j)


@dataclass(frozen=True)
class NormIdentityReport:
    """Largest deviation of ||phi^(n)(a)|| from ||phi^(n)(a*)|| with witness."""

    max_deviation: float
    witness: np.ndarray | None
    levels: tuple
    samples: int


def jsym_norm_identity(images: np.ndarray, algebra: OperatorAlgebra,
                       levels=(1, 2, 4), samples: int = 50,
                       seed: int = 0) -> NormIdentityReport:
    """Check ||phi^(n)(a)|| = ||phi^(n)(a*)|| on random a at the given levels.

    Holds for J-symmetric maps; fails with a witness for generic non-unitary
    conjugations applied without doubling.
    """
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    for n in levels:
        # `random_element`'s stream as one stack; one values-only SVD per side.
        a = block_synth(la.random_complex_many(rng, samples, (n, n, algebra.dim)), algebra.basis)
        na, nb = (la.opnorm(block_synth(block_coords(algebra, y), images))
                  for y in (a, la.dagger(a)))
        dev = np.abs(na - nb) / (1.0 + na)
        if dev.size and dev.max() > worst:
            i = int(np.argmax(dev))
            worst, witness = dev[i], a[i]
    return NormIdentityReport(float(worst), witness, tuple(levels), samples)


@dataclass(frozen=True)
class KadisonReport:
    """Pipeline record: doubled rep, cone audit, reconstruction, sandwich; the
    composition residual passes at the run's cert_tol."""

    rep: JSymmetricRep
    doubled_similarity: np.ndarray
    audit: ConeAuditReport
    norm_identity: NormIdentityReport
    reconstruction: ReconstructionResult
    star_rep_residual: float
    cert_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.audit.passed
            and self.rep.symmetry_residual <= 1e-10
            and self.norm_identity.max_deviation <= 1e-9
            and self.star_rep_residual <= self.cert_tol
            and self.reconstruction.sandwich_ok
        )


def kadison_pipeline(algebra: OperatorAlgebra, s: np.ndarray, levels=(1, 2),
                     samples: int = 30, seed: int = 0,
                     cert_tol: float = DEFAULT_CERT_TOL) -> KadisonReport:
    """Run the similarity case study for pi = S^-1 (.) S on a star-closed algebra.

    Doubles pi into a J-symmetric rho, forms the image cones on the span of rho's basis images
    (`image_algebra`: rho is a unital homomorphism), audits the five cone conditions (the image
    cone is a PSD frame, so the audit checks its premise, A star-closed, and the spans exactly,
    certifies r4 = 1 at -e_n and samples only for K), recovers the involution, reconstructs
    the star representation, and verifies that the composition of the
    reconstruction with rho is adjoint-preserving (residual_star <= cert_tol).
    The cb lower bound climbs to level 2 at most (`reconstruct_similarity`'s cb_level).
    """
    frame = _frame(s, algebra.ambient_dim)
    rep = j_symmetrize(algebra, frame.unstraighten(algebra.basis))

    zero = np.zeros_like(frame.s)
    doubled_s = np.block([[frame.s, zero], [zero, la.dagger(frame.s_inv)]])

    b_alg = image_algebra(algebra, rep.rho_images)
    cone = SimilarityCone(b_alg, doubled_s)

    audit = audit_star_admissible(cone, levels=levels, samples=samples, seed=seed)
    norm_identity = jsym_norm_identity(rep.rho_images, algebra,
                                       levels=(1,) + tuple(levels),
                                       samples=max(10, samples // 2), seed=seed)

    recon = reconstruct_similarity(b_alg, cone, seed=seed, cb_level=2,
                                   cert_tol=cert_tol, levels=levels)

    # rho followed by the reconstruction must be adjoint-preserving.
    lhs, rhs = (recon.certificate.frame.straighten(rep.rho(xs))
                for xs in (la.dagger(algebra.basis), algebra.basis))
    residual = max([0.0] + [la.frob(x - y) / (1.0 + la.frob(y))
                            for x, y in zip(lhs, la.dagger(rhs))])

    return KadisonReport(
        rep=rep,
        doubled_similarity=doubled_s,
        audit=audit,
        norm_identity=norm_identity,
        reconstruction=recon,
        star_rep_residual=float(residual),
        cert_tol=cert_tol,
    )


# ---------------------------------------------------------------------------
# Differentiable-function embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C1Sample:
    """Function and derivative samples on a strictly increasing grid in [0, 1]: the
    checked record of one sample.  The study computes on (k, m) value and derivative
    stacks, so a sample has no arithmetic."""

    grid: np.ndarray
    f_values: np.ndarray
    f_derivs: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.f_values, dtype=complex)
        ders = np.asarray(self.f_derivs, dtype=complex)
        if grid.ndim != 1 or vals.shape != grid.shape or ders.shape != grid.shape:
            raise MatOrderError("grid, values and derivatives must share a shape")
        # Each test is written to fail on a NaN point, for which every comparison is False.
        if grid.size and not (grid[0] >= -1e-12 and grid[-1] <= 1.0 + 1e-12):
            raise MatOrderError("grid must lie in [0, 1]")
        if not np.all(np.diff(grid) > 0):
            raise MatOrderError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "f_values", vals)
        object.__setattr__(self, "f_derivs", ders)


def _c1_blocks(vals: np.ndarray, ders: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) stack of blocks [[f, f'], [0, f]] of values and derivatives
    of one shape (...): the one definition of the embedding's entries."""
    out = np.zeros(np.shape(vals) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = vals
    out[..., 0, 1] = ders
    return out


def c1_embed(sample: C1Sample) -> np.ndarray:
    """Block-diagonal matrix with blocks [[f(q), f'(q)], [0, f(q)]]."""
    m = sample.grid.size
    out = np.zeros((m, 2, m, 2), dtype=complex)
    out[np.arange(m), :, np.arange(m), :] = _c1_blocks(sample.f_values, sample.f_derivs)
    return out.reshape(2 * m, 2 * m)


def _top_singular_2x2(blocks: np.ndarray) -> np.ndarray:
    """Top singular value s of each complex 2x2 block of a (..., 2, 2) stack: with columns
    b1, b2, p = |b1|^2, q = |b2|^2 and r = |b1* b2|, s^2 = (p + q + sqrt((p - q)^2 + 4 r^2)) / 2,
    all terms nonnegative, so a few eps relative for entries within about 1e-150..1e150; below,
    it underflows within `_c1_norms`'s 1e-10 absolute floor; above, it overflows (rejected)."""
    (a, b), (c, d) = np.moveaxis(blocks, (-2, -1), (0, 1))  # each block [[a, b], [c, d]]
    p, q = np.abs(a) ** 2 + np.abs(c) ** 2, np.abs(b) ** 2 + np.abs(d) ** 2
    r = np.abs(a.conj() * b + c.conj() * d)
    return np.sqrt(0.5 * (p + q + np.hypot(p - q, 2.0 * r)))


def _embedded_norms(vals: np.ndarray, ders: np.ndarray) -> np.ndarray:
    """||c1_embed|| of (k, m) sample stacks, exactly: the blocks' largest `_top_singular_2x2`."""
    return _top_singular_2x2(_c1_blocks(vals, ders)).max(axis=1, initial=0.0)


def _c1_norms(vals: np.ndarray, ders: np.ndarray) -> np.ndarray:
    """`c1_norm` of the samples (vals[i], ders[i]) of (k, m) stacks: the closed form,
    cross-checked by one `_embedded_norms`; MatOrderError for a norm that is not
    finite, as a NaN or inf in a value or derivative makes it."""
    f2, d = np.abs(vals) ** 2, np.abs(ders)
    per_point = 0.5 * (2.0 * f2 + d ** 2 + d * np.sqrt(4.0 * f2 + d ** 2))
    values = np.sqrt(np.max(per_point, axis=1, initial=0.0))
    if not np.isfinite(values).all():
        raise MatOrderError("C1 sample or its norm is not finite")
    direct = _embedded_norms(vals, ders)
    bad = np.flatnonzero(np.abs(values - direct) > 1e-10 * (1.0 + direct))
    if bad.size:
        raise CertificationFailed(f"closed-form norm {values[bad[0]]:.17g} disagrees with the "
                                  f"embedded operator norm {direct[bad[0]]:.17g}")
    return values


def c1_norm(sample: C1Sample) -> float:
    """Induced norm: sup over grid points of the top singular value of the
    2x2 block, in closed form; cross-checked against the embedding's blocks."""
    return float(_c1_norms(sample.f_values[None], sample.f_derivs[None])[0])


def _c1_trig(grid: np.ndarray, max_frequency: int, k: int, rng: np.random.Generator) -> tuple:
    """k random real trig polynomials of degree max_frequency on the grid as (k, m) value and
    derivative stacks, with the stream and bits of k draws (a_0, a_1, b_1, ... normal / (1 + j))
    made one at a time."""
    coeffs = rng.standard_normal((k, 2 * max_frequency + 1))
    vals, ders = np.zeros((2, k, grid.size), dtype=complex)
    for j in range(max_frequency + 1):
        cos, sin = np.cos(2 * np.pi * j * grid), np.sin(2 * np.pi * j * grid)
        a = coeffs[:, max(2 * j - 1, 0), None] / (1 + j)
        vals += a * cos
        ders += -a * 2 * np.pi * j * sin
        if j > 0:
            b = coeffs[:, 2 * j, None] / (1 + j)
            vals += b * sin
            ders += b * 2 * np.pi * j * cos
    return vals, ders


def c1_main_constants(grid, samples: int, seed: int, max_frequency: int = 4) -> tuple:
    """Empirical (r1, alpha) of the positivity cone {f >= 0 on the grid} of the function
    embedding, in its norm, from default_rng(seed): the draws `estimate_main_constants` makes
    at level 1, each sample a `_c1_trig` polynomial g (its square g^2 for a cone element).

    r1 = min ||c + d|| / max(||c||, ||d||) over `samples` pairs of cone elements and over the
    complement pairs (c, r - c) of max(4, samples // 4) more, r = max c on the grid, so that
    d = r - c >= 0 exactly; alpha = min ||(x - iy)(x + iy)|| / (||x - iy|| ||x + iy||) over
    `samples` span pairs (x, y).  A ratio whose denominator is 1e-12 or less is skipped.
    The draws are one `_c1_trig` stack in draw order, and the norms one `_c1_norms` pass over
    [c, d, c + d, x - iy, x + iy, (x - iy)(x + iy)]; both work row by row."""
    _samples(samples)
    grid = C1Sample(grid, np.zeros(np.shape(grid)), np.zeros(np.shape(grid))).grid  # validated
    if not grid.size:
        raise MatOrderError("the C1 constants need a nonempty grid")
    pairs = max(4, samples // 4)
    n, cones = samples + pairs, 2 * samples + pairs
    vals, ders = _c1_trig(grid, max_frequency, cones + 2 * samples, np.random.default_rng(seed))
    v, dv = vals[:cones], ders[:cones]
    (cv, pv), (cd, pd) = (np.split(z, [2 * samples]) for z in (v * v, dv * v + v * dv))
    r = pv.real.max(axis=1, keepdims=True)
    c = np.concatenate([cv[0::2], pv]), np.concatenate([cd[0::2], pd])
    d = np.concatenate([cv[1::2], r - pv]), np.concatenate([cd[1::2], -pd])
    (x, dx), (y, dy) = ((vals[i::2], ders[i::2]) for i in (cones, cones + 1))
    (zm, dzm), (zp, dzp) = (x + (-1j) * y, dx + (-1j) * dy), (x + 1j * y, dx + 1j * dy)
    stack = [c, d, (c[0] + d[0], c[1] + d[1]), (zm, dzm), (zp, dzp),
             (zm * zp, dzm * zp + zm * dzp)]
    nc, nd, ncd, nm, npl, nzz = np.split(_c1_norms(*map(np.concatenate, zip(*stack))),
                                         np.cumsum([n, n, n, samples, samples]))

    def least(nums, denoms):
        kept = denoms > 1e-12
        return float(np.min(nums[kept] / denoms[kept], initial=np.inf))

    return least(ncd, np.maximum(nc, nd)), least(nzz, nm * npl)


@dataclass(frozen=True)
class InequalityReport:
    samples: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def c1_inequality_check(samples: int = 500, seed: int = 0,
                        grid_size: int = 64) -> InequalityReport:
    """Verify ||f|| >= max(||f||_inf, ||f'||_inf) / sqrt(2) >= ||f||_1 / (2 sqrt(2))
    on random complex samples, with ||f||_1 = ||f||_inf + ||f'||_inf."""
    # The stream of `samples` (values, derivatives) pairs of complex Gaussian draws.
    drawn = la.random_complex_many(np.random.default_rng(seed), 2 * samples, (grid_size,))
    vals, ders = drawn[0::2], drawn[1::2]
    norm = _c1_norms(vals, ders)
    sup, dsup = (np.max(np.abs(z), axis=1, initial=0.0) for z in (vals, ders))
    mid = np.maximum(sup, dsup) / np.sqrt(2.0)
    low = (sup + dsup) / (2.0 * np.sqrt(2.0))
    violations = int(np.count_nonzero((norm < mid - 1e-12) | (mid < low - 1e-12)))
    worst = np.min(np.minimum(norm - mid, mid - low), initial=np.inf)
    return InequalityReport(samples, violations, float(worst))


def c1_condition1_decay(frequencies, grid) -> list:
    """Ratio ||c + d|| / ||c|| for c = 1 - cos(2 pi k x) and d = 2 - c, both nonnegative, for
    each frequency k in order, from one `_c1_norms` pass over the grid: it decays like 1/k,
    as c has a large derivative and c + d is constant.  Scaling c and d by any eps != 0
    leaves it unchanged (c1_norm is homogeneous).  The first k below 1, or above a quarter
    of the grid's points, raises its typed error."""
    for k in frequencies:
        if k < 1:
            raise DimensionMismatch(f"frequency must be >= 1, got {k}")
        if np.size(grid) < 4 * k:
            raise GridTooCoarse(f"grid with {np.size(grid)} points cannot resolve frequency {k}")
    grid = C1Sample(grid, np.zeros(np.shape(grid)), np.zeros(np.shape(grid))).grid
    ks = np.asarray(frequencies, dtype=float).reshape(-1, 1)
    phase = 2.0 * np.pi * ks * grid
    c_vals = (1.0 - np.cos(phase)).astype(complex)
    c_ders = (2.0 * np.pi * ks * np.sin(phase)).astype(complex)
    d_vals, d_ders = 2.0 - c_vals, -c_ders
    top, bottom = np.split(_c1_norms(np.concatenate([c_vals + d_vals, c_vals]),
                                     np.concatenate([c_ders + d_ders, c_ders])), 2)
    return (top / bottom).tolist()
