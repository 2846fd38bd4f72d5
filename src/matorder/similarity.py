"""Reconstruction of a similarity carrying an operator algebra onto an
adjoint-closed one.

Requiring (S b S^-1)* = S b^sharp S^-1 for Q = S* S reduces to the linear
system b* Q = Q b^sharp, so the candidate Q's form a real vector space of
Hermitian matrices.  One log-barrier Newton solver for linear matrix inequalities serves
two phases; each Newton step takes one whitening of the stack of LMI blocks, one eigensolve
of the whitened step for an exact line search along it, and one Cholesky and inverse at the
point chosen.  Phase one maximizes lambda_min over Q(c) <= I and either stops at a positive
definite solution (the first centred iterate whose lambda_min is positive and at least its
duality gap, so at least half the maximum) or returns the dual certificate of the bound it
proves on lambda_min; phase two minimizes t subject to I <= Q(c) <= t I (Boyd, El Ghaoui,
Feron & Balakrishnan, LMIs in System and Control Theory, 3.1), and its duality gap certifies
the optimum.  The principal square root of the optimum gives the similarity together with
completely-bounded-norm bounds; `build_star_rep` checks it on stacks of cone samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _linalg as la
from .algebra import (OperatorAlgebra, _Frame, _frame, block_coords, block_synth, commutant,
                      generate_algebra, image_algebra)
from .cones import SimilarityCone, _stack
from .errors import (CertificationFailed, DimensionMismatch, MatOrderError, NoPositiveSolution,
                     NumericalStall)
from .involution import InvolutionMap, recover_involution

DEFAULT_CERT_TOL = 1e-7

# Barrier solve: stop at duality gap <= GAP_RTOL (1 + |objective|); a
# solve that needs more Newton steps raises NumericalStall.
GAP_RTOL = 1e-10
NEWTON_BUDGET = 400
# With lambda_min pinned at 1 and the objective t ~ lambda_max, the blocks'
# entries of size t carry rounding ~ m eps t (m the total block size), so
# no gap below ~ m eps t^2 can be certified: the relative target never
# drops below GAP_FLOOR_FACTOR m t.
GAP_FLOOR_FACTOR = 10.0 * np.finfo(float).eps
# Exact line search: stop at a 1-D Newton decrement phi'^2 / phi'' below this, within about
# half of it of the minimum; a step at lambda >= 1/2 gains at least 1/2 - log(3/2) > 0.09.
LINE_DECREMENT = 1e-6
# cb_lower_bound: its starts (the swap and unit starts, then random ones), and the step
# cap of the polar polish (which stops at a step that does not rise).
CB_RESTARTS = 12
CB_ITERS = 120


@dataclass(frozen=True)
class SimilarityCertificate:
    """Positive definite Q with S = Q^(1/2) and the certified residuals.

    cond is lambda_max(Q) / lambda_min(Q), so ||S|| ||S^-1|| = sqrt(cond).
    gap is the duality gap of minimize_condition's solve: no element of the
    solution space has a condition number below cond - gap.
    build_star_rep fills in residual_star, residual_cone and frame, the checked (S, S^-1).
    """

    q: np.ndarray
    s: np.ndarray
    cond: float
    residual_star: float | None = None
    residual_cone: float | None = None
    gap: float | None = None
    frame: _Frame | None = None


@dataclass(frozen=True)
class StarRepresentation:
    """The conjugation b -> S b S^-1 with its image algebra and certificate."""

    images: np.ndarray
    image_algebra: OperatorAlgebra
    certificate: SimilarityCertificate


def solve_Q(algebra: OperatorAlgebra, involution) -> np.ndarray:
    """Basis of the real space {Q Hermitian : b* Q = Q b^sharp for all b}.

    A (k, N, N) stack of real-orthonormal Hermitian matrices, k = dim_C B' for a sharp-closed B
    (Paulsen 2002, Thm 9.1; `_sharp_closure` closes a subalgebra).  Only the generators
    `commutant` accepts are intertwined, as (ab)* Q = b* Q a^sharp = Q (ab)^sharp;
    `build_star_rep` checks the whole basis.  involution: a callable, such as an InvolutionMap.
    """
    gens, comm = commutant(algebra)
    herm = la.hermitian_matrix_basis(algebra.ambient_dim)
    # Column h of each block is real_vec(b* herm[h] - herm[h] b^sharp).
    rows = [la.real_rows(np.einsum("ab,hbc->hac", la.dagger(b), herm)
                         - np.einsum("hab,bc->hac", herm, involution(b))).T
            for b in gens]
    return la.real_kernel(herm, np.vstack(rows), len(comm))


def _barrier(f0: np.ndarray, fs: np.ndarray, cost: np.ndarray, x: np.ndarray,
             stop=None) -> tuple:
    """Minimize cost @ x subject to F_b(x) = f0[b] + sum_i x_i fs[b, i] > 0
    for every block b of the stacks f0 (B, n, n) and fs (B, k, n, n), from a
    strictly feasible x.

    Barrier method (Boyd & Vandenberghe, ch. 11): Newton steps on tau cost @ x -
    sum_b log det F_b(x), tau raised tenfold once the Newton decrement lambda is below 1/2.
    Along dx the barrier depends on the eigenvalues of the whitened step dG = L^-1 dF L^-*
    alone (Vandenberghe & Boyd, SIAM Review 1996), so `_line_step` minimizes it exactly over
    the feasible steps; one stacked Cholesky at the point chosen checks it, and the step
    halves until the Armijo test holds, a guard against rounding.  At any iterate with
    lambda < 1 the Newton step dF gives duals Z_b = F_b^-1 (I - dF_b F_b^-1) / tau, positive
    definite and meeting sum_b tr(Z_b fs[b, i]) = cost[i] exactly, so gap =
    sum_b tr(Z_b F_b(x)) bounds cost @ x minus the optimum.  Returns (x, gap, Z) once
    gap <= max(GAP_RTOL, GAP_FLOOR_FACTOR B n |cost @ x|) (1 + |cost @ x|), or at the first
    such iterate where stop(x, gap) holds; raises NumericalStall, naming the cause, when the
    Newton budget runs out, the Newton system is singular or the line search accepts no step.
    """
    m = f0.shape[0] * f0.shape[1]
    tau = m / (1.0 + abs(cost @ x))

    def inverse_factors(x):
        # L^-1 with F(x) = L L* on every block, or None when some block is not PD.
        try:
            return np.linalg.inv(np.linalg.cholesky(f0 + np.tensordot(x, fs, axes=(0, 1))))
        except np.linalg.LinAlgError:
            return None

    def neg_logdet(linv):
        return 2.0 * np.sum(np.log(np.abs(np.diagonal(linv, axis1=1, axis2=2))))

    linv, r = inverse_factors(x), None
    base = neg_logdet(linv)
    for _ in range(NEWTON_BUDGET):
        # Whitened data G_bi = L_b^-1 fs[b, i] L_b^-*, kept while only tau rises: the gradient is
        # tau cost - tr G_bi, the Hessian J^T J for J = [vec G_bi] (real over imaginary parts);
        # solving through J's QR factor R keeps the accuracy that J^T J would square away.
        if r is None:
            g = linv[:, None] @ fs @ la.dagger(linv)[:, None]
            flat = g.reshape(g.shape[0], len(x), -1)
            jac = np.concatenate([flat.real, flat.imag], 2).swapaxes(0, 1).reshape(len(x), -1)
            r = np.linalg.qr(jac.T, mode="r")
        grad = tau * cost - np.trace(g, axis1=2, axis2=3).real.sum(axis=0)
        try:
            dx = -np.linalg.solve(r, np.linalg.solve(r.T, grad))
        except np.linalg.LinAlgError as exc:  # dependent basis: no unique Newton step
            raise NumericalStall(f"barrier solve stalled short of its gap tolerance: singular "
                                 f"Newton system (tau {tau:.3g})") from exc
        lam2, dg = float(-grad @ dx), np.tensordot(dx, g, axes=(0, 1))
        if lam2 < 1.0:
            gap = float(m - np.trace(dg, axis1=1, axis2=2).real.sum()) / tau
            obj = abs(cost @ x)
            if (gap <= max(GAP_RTOL, GAP_FLOOR_FACTOR * m * obj) * (1.0 + obj)
                    or (stop is not None and stop(x, gap))):
                return x, gap, la.dagger(linv) @ (np.eye(f0.shape[1]) - dg) @ linv / tau
            if lam2 < 0.25:
                tau *= 10.0
                continue
        step = _line_step(tau * (cost @ dx), np.linalg.eigvalsh(dg))
        while step > 1e-12:
            # Armijo test on the step actually taken: one lost to rounding
            # (x + step dx == x) is no progress.
            xt = x + step * dx
            trial = inverse_factors(xt)
            if trial is not None and (tau * (cost @ (xt - x)) + (ld := neg_logdet(trial)) - base
                                      <= -0.25 * step * lam2):
                break
            step *= 0.5
        else:
            raise NumericalStall(f"barrier solve stalled short of its gap tolerance: no step "
                                 f"accepted by the line search (tau {tau:.3g})")
        x, linv, r, base = xt, trial, None, ld
    raise NumericalStall(f"barrier solve stalled short of its gap tolerance: budget of "
                         f"{NEWTON_BUDGET} Newton steps spent (tau {tau:.3g})")


def _line_step(slope: float, lam: np.ndarray) -> float:
    """The minimizer of phi(a) = slope a - sum log(1 + a lam) over [0, -1 / min lam), to a
    decrement phi'^2 / phi'' <= LINE_DECREMENT: Newton steps on phi' from a = 1 (the Newton
    step's own length), bisecting the bracket [lo, hi] on its root whenever one leaves it."""
    lam, slope = np.ravel(lam).tolist(), float(slope)  # 2N floats: Python beats numpy here
    lo, hi, a = 0.0, -1.0 / min(lam) if min(lam) < 0.0 else np.inf, 1.0
    for _ in range(NEWTON_BUDGET):
        a = a if lo < a < hi else 0.5 * (lo + hi)
        w = [v / (1.0 + a * v) for v in lam]
        d1, d2 = slope - sum(w), sum([v * v for v in w])
        if d1 * d1 <= LINE_DECREMENT * d2:
            break
        lo, hi = (a, hi) if d1 < 0.0 else (lo, a)
        a -= d1 / d2
    return a


def _box_blocks(space: np.ndarray, low: tuple, high: tuple) -> tuple:
    """The LMI low I <= Q(c) <= high I in the variables x = (c, v) as one
    stacked pair (f0, fs) of two blocks; each bound is a pair (constant,
    coefficient of v)."""
    eye = np.eye(space.shape[1], dtype=complex)
    return (np.stack([-low[0] * eye, high[0] * eye]),
            np.stack([np.concatenate([space, [-low[1] * eye]]),
                      np.concatenate([-space, [high[1] * eye]])]))


def _phase_one(space: np.ndarray) -> tuple:
    """(c, s) with s I <= Q(c) <= I, s > 0, from the barrier solve maximizing
    s, started at c = 0, s = -1.  The barrier's iterates are strictly
    feasible, so s > 0 exhibits Q(c) >= s I, positive definite; the solve
    stops at the first centred iterate (lambda < 1) with s >= its gap, so
    s >= s*/2 for the maximum s*.  Otherwise it runs to its gap and
    NoPositiveSolution carries the dual certificate of lambda_min <= s + gap
    over Q(c) <= I."""
    k = space.shape[0]
    x, gap, w = _barrier(*_box_blocks(space, (0.0, 1.0), (1.0, 0.0)),
                         -np.eye(k + 1)[k], -np.eye(k + 1)[k],
                         stop=lambda x, gap: x[k] > 0.0 and x[k] >= gap)
    c, s = x[:k], float(x[k])
    if s <= 0.0:
        raise NoPositiveSolution(
            f"no positive definite solution found: lambda_min <= {s + gap:.3g} over "
            "Q(c) <= I", s, dual=w[0])
    return c, s


def _hermitian_space(space) -> np.ndarray:
    """Hermitian parts of the basis; a dependent basis (some direction d
    with Q(d) = 0 leaves the barrier flat) is replaced by a real-orthonormal
    basis of its span."""
    space = np.asarray(space, dtype=complex)
    space = 0.5 * (space + space.conj().swapaxes(1, 2))
    reduced = la.orthonormal_stack(space)
    return space if len(reduced) == len(space) else reduced


def _certificate_from(q: np.ndarray, gap: float | None = None) -> SimilarityCertificate:
    q = 0.5 * (q + la.dagger(q))
    evals = np.linalg.eigvalsh(q)
    q = q / evals[0]
    return SimilarityCertificate(
        q=q, s=la.principal_sqrt(q), cond=float(evals[-1] / evals[0]), gap=gap
    )


def minimize_condition(space: np.ndarray) -> SimilarityCertificate:
    """Certificate with the condition number minimized over the positive
    definite elements of the solution space.

    Phase two of the barrier solve: once `_phase_one` (which stops at
    s >= s*/2) has found s > 0 (it raises NoPositiveSolution with its dual
    certificate otherwise), minimizes t subject to I <= Q(c) <= t I,
    warm-started from phase one's (c, s) at (2 c / s, 4 / s), until the
    duality gap is at most 1e-10 (1 + t); beyond t ~ 1e5 the target rises
    to the rounding floor 20 N eps t (1 + t).  The gap is recorded on the
    certificate and certifies the optimum: the minimal condition number
    lies in [cond - gap, cond].
    """
    space = _hermitian_space(space)
    c, s = _phase_one(space)
    k = space.shape[0]
    x, gap, _ = _barrier(*_box_blocks(space, (1.0, 0.0), (0.0, 1.0)),
                         np.eye(k + 1)[k], np.append(2.0 * c / s, 4.0 / s))
    return _certificate_from(np.tensordot(x[:k], space, axes=(0, 0)), float(gap))


def build_star_rep(algebra: OperatorAlgebra, cone: SimilarityCone, q,
                   involution: InvolutionMap, cert_tol: float = DEFAULT_CERT_TOL,
                   levels=(1, 2, 4), samples: int = 12, seed: int = 0) -> StarRepresentation:
    """The map tau(b) = Q^(1/2) b Q^(-1/2) with its image algebra, the span of the images
    (`image_algebra`: tau is a unital homomorphism, so nothing is closed again); q: a matrix,
    normalised to lambda_min = 1, or a `SimilarityCertificate`, taken as it is; involution:
    an `InvolutionMap` (MatOrderError otherwise), applied to the basis stack at once.

    Verifies tau(b^sharp) = tau(b)* on the basis (residual_star) and that tau applied blockwise
    sends sampled level-n cone elements to PSD matrices (residual_cone; each level's samples are
    one `sample_many` stack).  Raises CertificationFailed when residual_star exceeds cert_tol.
    """
    if not isinstance(involution, InvolutionMap):
        raise MatOrderError(f"involution must be an InvolutionMap, not {type(involution)}")
    cert = q if isinstance(q, SimilarityCertificate) else _certificate_from(q)
    frame = _frame(cert.s, algebra.ambient_dim)
    images = frame.straighten(algebra.basis)

    sharps = frame.straighten(involution(algebra.basis))
    residual_star = max(la.frob(x - la.dagger(tb)) / (1.0 + la.frob(tb))
                        for x, tb in zip(sharps, images))
    if residual_star > cert_tol:
        raise CertificationFailed(f"tau(b^sharp) != tau(b)* on the basis "
                                  f"(residual {residual_star:.3g})")

    rng = np.random.default_rng(seed)
    residual_cone = 0.0
    for n in levels:
        y = frame.straighten(_stack(cone, n, cone.sample_many(n, samples, rng)))
        y_star = la.dagger(y)
        defect = np.maximum(np.abs(y - y_star).max(axis=(1, 2)),
                            -np.linalg.eigvalsh(0.5 * (y + y_star))[:, 0])
        residual_cone = np.max(defect / (1.0 + la.opnorm(y)),
                               initial=residual_cone)

    cert = replace(cert, residual_star=float(residual_star),
                   residual_cone=float(residual_cone), frame=frame)
    return StarRepresentation(images=images, image_algebra=image_algebra(algebra, images),
                              certificate=cert)


def _top_pair(z: np.ndarray, images: np.ndarray, from_algebra: OperatorAlgebra) -> tuple:
    """||phi^(k)(X)|| / ||X|| at level-k coordinates z, and the coordinates
    grad[i, j, l] = u_i* images[l] w_j of X -> <u, phi^(k)(X) w> for its top
    singular pair (u, w); (0.0, None) at X = 0."""
    nx, y = la.opnorm(block_synth(z, from_algebra.basis)), block_synth(z, images)
    if nx < 1e-14:
        return 0.0, None
    uu, sv, vh = np.linalg.svd(y / nx)
    u2, w2 = uu[:, 0].reshape(len(z), -1), vh[0].conj().reshape(len(z), -1)
    return float(sv[0]), np.einsum("ua,jab,vb->uvj", u2.conj(), images, w2)


def _polar_point(grad: np.ndarray, from_algebra: OperatorAlgebra) -> np.ndarray:
    """The polar part U_r V_r* (r by the one rank rule) of G =
    block_synth(grad.conj(), basis) in M_k(A): it maximizes
    Re tr(G* X) = Re <u, phi^(k)(X) w> over the unit ball of M_k(M_N)."""
    uu, s, vh = np.linalg.svd(block_synth(grad.conj(), from_algebra.basis))
    r = la._rank(s)
    return uu[:, :r] @ vh[:r]


def _polish(images: np.ndarray, from_algebra: OperatorAlgebra, val: float, grad) -> float:
    """Conditional-gradient steps on the operator-norm ball (`_polar_point`, mapped back by
    `block_coords`) from `_top_pair`'s value val and gradient grad at a nonzero X: at most
    CB_ITERS, stopping at the first one that does not raise the value, which is returned."""
    for _ in range(CB_ITERS):
        new, grad = _top_pair(block_coords(from_algebra, _polar_point(grad, from_algebra)),
                              images, from_algebra)
        if not new > val:
            break
        val = new
    return val


def cb_lower_bound(images: np.ndarray, from_algebra: OperatorAlgebra,
                   k: int, seed: int = 0) -> float:
    """Lower bound for the cb norm of the basis-image map phi: the largest
    ||phi^(k)(X)|| / ||X|| found over nonzero X in M_k(A), each a feasible
    point, so the result is always a valid bound.

    Each of CB_RESTARTS starts (the block swap, the unit, then random) is
    polished (`_polish`) until a step stops rising; on a star-closed A the polar
    part lies in M_k(A), so the value cannot fall (elsewhere the projected step is
    a heuristic).  No margin enters a decision, so scaling the images by a power of
    two changes none of them.
    """
    images = np.asarray(images, dtype=complex)
    if k < 1:
        raise DimensionMismatch(f"matrix level must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    d = from_algebra.dim

    starts = []
    eye = np.eye(from_algebra.ambient_dim)[:k]
    swap = np.zeros((k, k, d), dtype=complex)
    swap[:len(eye), :len(eye)] = from_algebra.coords_of(np.einsum("va,ub->uvab", eye, eye))
    if np.linalg.norm(swap) > 1e-9:
        starts.append(swap / np.linalg.norm(swap))
    unitz = np.einsum("uv,j->uvj", np.eye(k), from_algebra.unit_coords)
    starts.append(unitz / np.linalg.norm(unitz))
    while len(starts) < CB_RESTARTS:
        z = la.random_complex_many(rng, 1, (k, k, d))[0]
        starts.append(z / np.linalg.norm(z))
    return max(_polish(images, from_algebra, *_top_pair(z, images, from_algebra))
               for z in starts)


def _frame_witness(s: np.ndarray, images: np.ndarray, from_algebra: OperatorAlgebra) -> float:
    """Level-1 lower bound for phi = S^-1 (.) S on C (images: phi of C's basis): phi(u_i u_j*) =
    (lambda_j / lambda_i) u_i u_j* for S's eigenpairs, so the best of the N^2 u_i u_j* projected
    onto C (one `coords_of`) attains ||S|| ||S^-1|| if that pair lies in C; then `_polish`ed."""
    u = np.linalg.eigh(s)[1]
    z = block_coords(from_algebra, np.einsum("ai,bj->ijab", u, u.conj()).reshape(-1, *s.shape))
    nx, ny = (la.opnorm(block_synth(z, mats)) for mats in (from_algebra.basis, images))
    i = int(np.argmax(np.divide(ny, nx, out=np.zeros_like(ny), where=nx >= 1e-14)))
    return _polish(images, from_algebra, *_top_pair(z[i], images, from_algebra))


@dataclass(frozen=True)
class ReconstructionResult:
    """Full pipeline output: certificate, star representation, cb sandwich
    (the best lower bound over the levels run; cb_level the highest)."""

    involution: InvolutionMap
    q_space_dim: int
    star_rep: StarRepresentation
    cb_lower: float
    cb_upper: float
    cb_level: int

    @property
    def certificate(self) -> SimilarityCertificate:
        return self.star_rep.certificate

    @property
    def sandwich_ok(self) -> bool:
        return self.cb_lower <= self.cb_upper + 1e-6


def _sharp_closure(algebra: OperatorAlgebra, domain: OperatorAlgebra, involution):
    """The algebra C and C^sharp generate in the involution's domain B (C when C = B), whose
    Q-space is C's: b* Q = Q b^sharp gives (b^sharp)* Q = Q b."""
    if algebra.dim == domain.dim:
        return algebra
    sharp = domain.synthesize(domain.coords_of(involution(algebra.basis)))
    return generate_algebra([*algebra.basis, *sharp], tol=algebra.structure_tol)


def reconstruct_similarity(algebra: OperatorAlgebra, cone: SimilarityCone,
                           seed: int = 0, cb_level: int | None = None,
                           cert_tol: float = DEFAULT_CERT_TOL,
                           levels=(1, 2, 4), samples: int = 12) -> ReconstructionResult:
    """Recover the involution, solve for Q, optimize its condition number,
    build the star representation, and report the cb-norm sandwich.

    sqrt(cond(Q)) bounds the cb norm of the certified conjugation in both directions; the lower
    bound starts at `_frame_witness` and, only while upper - lower > cert_tol * upper,
    `cb_lower_bound` calls follow: the inverse direction's, then the forward one's,
    at level 1 and then the ceiling `cb_level` (N when None; below 1 DimensionMismatch before
    any solve), each only while still open.  `samples`: per level, for `build_star_rep`.
    The cone's involution is defined on its own algebra only: a basis not in it raises
    DimensionMismatch for the wrong size, MembershipError for a basis element outside.
    Q is solved on the algebra's `_sharp_closure`.
    """
    ceiling = algebra.ambient_dim if cb_level is None else cb_level
    if ceiling < 1:
        raise DimensionMismatch(f"matrix level must be >= 1, got {ceiling}")
    cone.level_element(1, algebra.basis)
    involution = recover_involution(cone, seed=seed)
    space = solve_Q(_sharp_closure(algebra, cone.algebra, involution), involution)
    star = build_star_rep(algebra, cone, minimize_condition(space), involution=involution,
                          cert_tol=cert_tol, levels=levels, samples=samples, seed=seed)
    inverse_images = star.certificate.frame.unstraighten(star.image_algebra.basis)
    upper = float(np.sqrt(star.certificate.cond))  # ||S|| ||S^-1|| bounds the cb norm
    k, lower = 1, _frame_witness(star.certificate.s, inverse_images, star.image_algebra)
    for k in sorted({1, ceiling}) if upper - lower > cert_tol * upper else ():
        lower = max(lower, cb_lower_bound(inverse_images, star.image_algebra, k, seed))
        if upper - lower > cert_tol * upper:
            lower = max(lower, cb_lower_bound(star.images, algebra, k, seed))
        if upper - lower <= cert_tol * upper:
            break
    return ReconstructionResult(involution, int(space.shape[0]), star, lower, upper, k)
