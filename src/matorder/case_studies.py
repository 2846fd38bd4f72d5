"""Executable case studies: the doubled J-symmetric representation pipeline
for similarity problems, and the differentiable-function embedding whose
positivity cone degenerates under refinement.

The doubling a -> pi(a) (+) pi(a*)* turns any bounded representation into a
J-symmetric one (J the coordinate swap), which forces the norm identity
||rho^(n)(a)|| = ||rho^(n)(a*)|| and hence the cone axioms needed for the
reconstruction pipeline.  The function embedding f -> [[f, f'], [0, f]]
realizes an operator algebra whose induced norm mixes f and f'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .algebra import (
    OperatorAlgebra,
    as_matrix,
    block_coords,
    block_synth,
    generate_algebra,
)
from .cones import (ConeAuditReport, ConeOracle, SimilarityCone, _random_complex_many,
                    audit_star_admissible)
from .errors import (
    CertificationFailed,
    DimensionMismatch,
    GridTooCoarse,
    LevelUnsupported,
    MatOrderError,
    SourceNotStarClosed,
)
from .similarity import DEFAULT_CERT_TOL, ReconstructionResult, reconstruct_similarity


# ---------------------------------------------------------------------------
# J-symmetric doubling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JSymmetricRep:
    """Doubled representation rho(a) = pi(a) (+) pi(a*)* with the swap J."""

    algebra: OperatorAlgebra
    pi_images: np.ndarray
    rho_images: np.ndarray
    j: np.ndarray
    symmetry_residual: float

    def rho(self, x) -> np.ndarray:
        coords = self.algebra.coords_of(as_matrix(x))
        return np.tensordot(coords, self.rho_images, axes=(0, 0))


def j_symmetrize(algebra: OperatorAlgebra, pi_images: np.ndarray | None = None) -> JSymmetricRep:
    """Double a representation of a star-closed algebra into a J-symmetric one.

    Verifies rho(a*) = J rho(a)* J on the basis and records the residual.
    """
    if not algebra.star_closed:
        raise SourceNotStarClosed("doubling needs a star-closed source algebra")
    if pi_images is None:
        pi_images = algebra.basis
    pi_images = np.asarray(pi_images, dtype=complex)
    nn = pi_images.shape[1]

    def pi_of(x: np.ndarray) -> np.ndarray:
        return np.tensordot(algebra.coords_of(x), pi_images, axes=(0, 0))

    zero = np.zeros((nn, nn), dtype=complex)
    rho_images = np.stack([np.block([[pi_of(b), zero], [zero, la.dagger(pi_of(la.dagger(b)))]])
                           for b in algebra.basis])
    j = np.block([[zero, np.eye(nn)], [np.eye(nn), zero]])

    rep = JSymmetricRep(algebra, pi_images, rho_images, j, 0.0)
    residual = 0.0
    for b in algebra.basis:
        lhs = rep.rho(la.dagger(b))
        rhs = j @ la.dagger(rep.rho(b)) @ j
        residual = max(residual, la.frob(lhs - rhs) / (1.0 + la.frob(rhs)))
    return JSymmetricRep(algebra, pi_images, rho_images, j, float(residual))


@dataclass(frozen=True)
class NormIdentityReport:
    """Largest deviation of ||phi^(n)(a)|| from ||phi^(n)(a*)|| with witness."""

    max_deviation: float
    witness: np.ndarray | None
    levels: tuple
    samples: int

    def holds(self, tol: float = 1e-9) -> bool:
        return self.max_deviation <= tol


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
        a = block_synth(_random_complex_many(rng, samples, (n, n, algebra.dim)), algebra.basis)
        na, nb = (la.opnorm(block_synth(block_coords(algebra, y), images))
                  for y in (a, la.dagger(a)))
        dev = np.abs(na - nb) / (1.0 + na)
        if dev.size and dev.max() > worst:
            i = int(np.argmax(dev))
            worst, witness = dev[i], a[i]
    return NormIdentityReport(float(worst), witness, tuple(levels), samples)


@dataclass(frozen=True)
class KadisonReport:
    """Pipeline record: doubled rep, cone audit, reconstruction, sandwich."""

    rep: JSymmetricRep
    doubled_similarity: np.ndarray
    audit: ConeAuditReport
    norm_identity: NormIdentityReport
    reconstruction: ReconstructionResult
    star_rep_residual: float

    @property
    def cb_lower(self) -> float:
        return self.reconstruction.cb_lower

    @property
    def cb_upper(self) -> float:
        return self.reconstruction.cb_upper

    @property
    def order_shift_constant_ok(self) -> bool:
        # Spectra transfer through the algebra isomorphism, so the shift
        # r ||c|| e + c enters the cone already at r = 1.
        return self.audit.constants["r4"].value <= 1.0 + 1e-6

    @property
    def passed(self) -> bool:
        return (
            self.audit.passed
            and self.order_shift_constant_ok
            and self.rep.symmetry_residual <= 1e-10
            and self.norm_identity.holds()
            and self.star_rep_residual <= 1e-7
            and self.reconstruction.sandwich_ok
        )


def kadison_pipeline(algebra: OperatorAlgebra, s: np.ndarray, levels=(1, 2),
                     samples: int = 30, seed: int = 0,
                     cb_level: int | None = 2,
                     cert_tol: float = DEFAULT_CERT_TOL) -> KadisonReport:
    """Run the similarity case study for pi = S^-1 (.) S on a star-closed
    algebra.

    Doubles pi into a J-symmetric rho, forms the image cones, audits the
    five cone conditions (the spectral-radius bound makes the order-shift
    constant 1, asserted numerically), recovers the involution, reconstructs
    the star representation, and verifies that the composition of the
    reconstruction with rho is adjoint-preserving (residual_star <= cert_tol).
    """
    s = np.asarray(s, dtype=complex)
    s_inv = np.linalg.inv(s)
    pi_images = np.stack([s_inv @ b @ s for b in algebra.basis])
    rep = j_symmetrize(algebra, pi_images)

    zero = np.zeros_like(s)
    doubled_s = np.block([[s, zero], [zero, np.linalg.inv(la.dagger(s))]])

    b_alg = generate_algebra(list(rep.rho_images), tol=algebra.structure_tol)
    cone = SimilarityCone(b_alg, doubled_s)

    audit = audit_star_admissible(cone, levels=levels, samples=samples, seed=seed)
    norm_identity = jsym_norm_identity(rep.rho_images, algebra,
                                       levels=(1,) + tuple(levels),
                                       samples=max(10, samples // 2), seed=seed)

    recon = reconstruct_similarity(b_alg, cone, seed=seed, cb_level=cb_level,
                                   cert_tol=cert_tol, levels=levels)

    # rho followed by the reconstruction must be adjoint-preserving.
    cert = recon.certificate
    s_half, s_half_inv = cert.s, np.linalg.inv(cert.s)
    residual = 0.0
    for b in algebra.basis:
        lhs = s_half @ rep.rho(la.dagger(b)) @ s_half_inv
        rhs = la.dagger(s_half @ rep.rho(b) @ s_half_inv)
        residual = max(residual, la.frob(lhs - rhs) / (1.0 + la.frob(rhs)))

    return KadisonReport(
        rep=rep,
        doubled_similarity=doubled_s,
        audit=audit,
        norm_identity=norm_identity,
        reconstruction=recon,
        star_rep_residual=float(residual),
    )


# ---------------------------------------------------------------------------
# Differentiable-function embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C1Sample:
    """Function and derivative samples on a grid in [0, 1]."""

    grid: np.ndarray
    f_values: np.ndarray
    f_derivs: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        vals = np.asarray(self.f_values, dtype=complex)
        ders = np.asarray(self.f_derivs, dtype=complex)
        if grid.ndim != 1 or vals.shape != grid.shape or ders.shape != grid.shape:
            raise MatOrderError("grid, values and derivatives must share a shape")
        if grid.size and (grid[0] < -1e-12 or grid[-1] > 1.0 + 1e-12):
            raise MatOrderError("grid must lie in [0, 1]")
        if np.any(np.diff(grid) <= 0):
            raise MatOrderError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "f_values", vals)
        object.__setattr__(self, "f_derivs", ders)

    def __add__(self, other: "C1Sample") -> "C1Sample":
        return C1Sample(self.grid, self.f_values + other.f_values,
                        self.f_derivs + other.f_derivs)

    def __sub__(self, other: "C1Sample") -> "C1Sample":
        return C1Sample(self.grid, self.f_values - other.f_values,
                        self.f_derivs - other.f_derivs)

    def __mul__(self, other):
        if isinstance(other, C1Sample):
            # Product rule on the derivative channel.
            return C1Sample(self.grid, self.f_values * other.f_values,
                            self.f_derivs * other.f_values
                            + self.f_values * other.f_derivs)
        return C1Sample(self.grid, other * self.f_values, other * self.f_derivs)

    __rmul__ = __mul__

    def __neg__(self) -> "C1Sample":
        return (-1.0) * self

    def conj(self) -> "C1Sample":
        return C1Sample(self.grid, self.f_values.conj(), self.f_derivs.conj())

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.f_values))) if self.grid.size else 0.0

    def deriv_sup_norm(self) -> float:
        return float(np.max(np.abs(self.f_derivs))) if self.grid.size else 0.0


def c1_embed(sample: C1Sample) -> np.ndarray:
    """Block-diagonal matrix with blocks [[f(q), f'(q)], [0, f(q)]]."""
    m = sample.grid.size
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    even = 2 * np.arange(m)
    out[even, even] = out[even + 1, even + 1] = sample.f_values
    out[even, even + 1] = sample.f_derivs
    return out


def _embedded_norm(sample: C1Sample) -> float:
    """||c1_embed(sample)||_2, exactly: the top singular value of its diagonal 2x2 blocks
    (one stacked values-only SVD); CertificationFailed unless all else is exactly 0."""
    m = sample.grid.size
    embedded = c1_embed(sample)
    blocks = embedded.reshape(m, 2, m, 2)[np.arange(m), :, np.arange(m), :]
    if np.count_nonzero(embedded) != np.count_nonzero(blocks):
        raise CertificationFailed("embedded matrix has an entry off its diagonal 2x2 blocks")
    return float(la.opnorm(blocks).max()) if m else 0.0


def c1_norm(sample: C1Sample) -> float:
    """Induced norm: sup over grid points of the top singular value of the
    2x2 block, in closed form; cross-checked against the embedded matrix."""
    f2 = np.abs(sample.f_values) ** 2
    d = np.abs(sample.f_derivs)
    per_point = 0.5 * (2.0 * f2 + d ** 2 + d * np.sqrt(4.0 * f2 + d ** 2))
    value = float(np.sqrt(np.max(per_point))) if sample.grid.size else 0.0
    direct = _embedded_norm(sample)
    if abs(value - direct) > 1e-10 * (1.0 + direct):
        raise CertificationFailed(
            f"closed-form norm {value:.17g} disagrees with the embedded "
            f"operator norm {direct:.17g}"
        )
    return value


class FunctionPullbackCone(ConeOracle):
    """Positivity cone {f >= 0 on the grid} of the function embedding.

    Only level 1 exists; the ambient norm is the induced embedding norm, so
    the cone exposes the quantitative degeneration of the closed-image
    conditions under grid refinement.
    """

    variant = "pullback"

    def __init__(self, grid, tol_psd: float = 1e-9, max_frequency: int = 4):
        super().__init__(None, tol_psd)
        self.grid = np.asarray(grid, dtype=float)
        if np.any(np.diff(self.grid) <= 0):
            raise MatOrderError("grid must be strictly increasing")
        self.max_frequency = int(max_frequency)

    def _guard(self, n: int) -> None:
        if n != 1:
            raise LevelUnsupported("pullback cones are defined at level 1 only")

    def member(self, n: int, x) -> bool:
        self._guard(n)
        scale = 1.0 + x.sup_norm() + x.deriv_sup_norm()
        if max(np.max(np.abs(x.f_values.imag)), np.max(np.abs(x.f_derivs.imag))) \
                > self.tol_psd * scale:
            return False
        return bool(np.min(x.f_values.real) >= -self.tol_psd * scale)

    def unit(self, n: int) -> C1Sample:
        self._guard(n)
        return C1Sample(self.grid, np.ones_like(self.grid, dtype=complex),
                        np.zeros_like(self.grid, dtype=complex))

    def norm(self, n: int, x) -> float:
        self._guard(n)
        return c1_norm(x)

    def straighten(self, n: int, x) -> np.ndarray:
        # The faithful matrix picture: block upper-triangular embedding.
        self._guard(n)
        return c1_embed(x)

    def mul(self, n: int, x, y) -> C1Sample:
        self._guard(n)
        return x * y

    def sharp(self, n: int, x) -> C1Sample:
        self._guard(n)
        return x.conj()

    def _trig(self, rng: np.random.Generator) -> C1Sample:
        vals = np.zeros_like(self.grid, dtype=complex)
        ders = np.zeros_like(self.grid, dtype=complex)
        for j in range(self.max_frequency + 1):
            a = rng.standard_normal() / (1 + j)
            vals += a * np.cos(2 * np.pi * j * self.grid)
            ders += -a * 2 * np.pi * j * np.sin(2 * np.pi * j * self.grid)
            if j > 0:
                b = rng.standard_normal() / (1 + j)
                vals += b * np.sin(2 * np.pi * j * self.grid)
                ders += b * 2 * np.pi * j * np.cos(2 * np.pi * j * self.grid)
        return C1Sample(self.grid, vals, ders)

    def sample(self, n: int, rng: np.random.Generator) -> C1Sample:
        self._guard(n)
        g = self._trig(rng)
        return g * g

    def sample_span(self, n: int, rng: np.random.Generator) -> C1Sample:
        self._guard(n)
        return self._trig(rng)


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
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, grid_size)
    violations = 0
    worst = np.inf
    for _ in range(samples):
        f = C1Sample(grid, la.random_complex(rng, grid_size),
                     la.random_complex(rng, grid_size))
        norm = c1_norm(f)
        mid = max(f.sup_norm(), f.deriv_sup_norm()) / np.sqrt(2.0)
        low = (f.sup_norm() + f.deriv_sup_norm()) / (2.0 * np.sqrt(2.0))
        margin = min(norm - mid, mid - low)
        worst = min(worst, margin)
        if norm < mid - 1e-12 or mid < low - 1e-12:
            violations += 1
    return InequalityReport(samples, violations, float(worst))


def c1_condition1_decay(k: int, grid: np.ndarray | None = None) -> float:
    """Ratio ||c + d|| / ||c|| for c = 1 - cos(2 pi k x) and d = 2 - c, both
    nonnegative; decays like 1/k because the derivative of c is large while
    c + d is constant.  Scaling c and d by any eps != 0 leaves the ratio
    unchanged (c1_norm is homogeneous)."""
    if k < 1:
        raise DimensionMismatch(f"frequency must be >= 1, got {k}")
    if grid is None:
        grid = np.linspace(0.0, 1.0, max(64, 4 * k))
    grid = np.asarray(grid, dtype=float)
    if grid.size < 4 * k:
        raise GridTooCoarse(
            f"grid with {grid.size} points cannot resolve frequency {k}"
        )
    phase = 2.0 * np.pi * k * grid
    c = C1Sample(grid, 1.0 - np.cos(phase), 2.0 * np.pi * k * np.sin(phase))
    d = C1Sample(grid, 2.0 - c.f_values, -c.f_derivs)
    return c1_norm(c + d) / c1_norm(c)
