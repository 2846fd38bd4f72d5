"""Reconstruction of a similarity carrying an operator algebra onto an
adjoint-closed one.

Requiring (S b S^-1)* = S b^sharp S^-1 for Q = S* S reduces to the linear
system b* Q = Q b^sharp, so the candidate Q's form a real vector space of
Hermitian matrices.  A positive definite solution is located by concave
maximization of the bottom eigenvalue, the condition number is then
minimized over the solution space, and the principal square root of the
optimum gives the similarity together with completely-bounded-norm bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from . import _linalg as la
from .algebra import OperatorAlgebra, as_matrix, generate_algebra, random_element
from .cones import ConeOracle
from .errors import CertificationFailed, NoPositiveSolution
from .involution import InvolutionMap, recover_involution

DEFAULT_PD_TOL = 1e-7
DEFAULT_CERT_TOL = 1e-7


@dataclass(frozen=True)
class SimilarityCertificate:
    """Positive definite Q with S = Q^(1/2) and the certified residuals.

    cond is lambda_max(Q) / lambda_min(Q), so ||S|| ||S^-1|| = sqrt(cond).
    residual_star / residual_cone are filled in by build_star_rep.
    """

    q: np.ndarray
    s: np.ndarray
    cond: float
    residual_star: float | None = None
    residual_cone: float | None = None


@dataclass(frozen=True)
class StarRepresentation:
    """The conjugation b -> S b S^-1 with its image algebra and certificate."""

    images: np.ndarray
    image_algebra: OperatorAlgebra
    certificate: SimilarityCertificate


def _sharp_of(involution, b: np.ndarray) -> np.ndarray:
    if isinstance(involution, InvolutionMap):
        return involution.apply(b)
    return involution(b)


def solve_Q(algebra: OperatorAlgebra, involution) -> np.ndarray:
    """Basis of the real space {Q Hermitian : b* Q = Q b^sharp for all b}.

    Returns a (k, N, N) stack of real-orthonormal Hermitian matrices; k may
    be zero.
    """
    n = algebra.ambient_dim
    herm = la.hermitian_matrix_basis(n)
    rows = []
    for b in algebra.basis:
        bs = _sharp_of(involution, b)
        diff = np.einsum("ab,hbc->hac", la.dagger(b), herm) - np.einsum(
            "hab,bc->hac", herm, bs)
        # Column h is real_vec(diff[h]).
        cols = np.concatenate(
            [diff.real.reshape(len(herm), n * n),
             diff.imag.reshape(len(herm), n * n)], axis=1).T
        rows.append(cols)
    mat = np.vstack(rows)
    # Constraint entries are O(1) for unit-norm bases; the absolute floor
    # keeps an all-noise system from reporting a trivial solution space.
    null = la.nullspace(mat, atol=1e-10)
    out = []
    for k in range(null.shape[1]):
        q = np.tensordot(null[:, k], herm, axes=(0, 0))
        out.append(0.5 * (q + la.dagger(q)))
    if not out:
        return np.zeros((0, n, n), dtype=complex)
    rows = la.orthonormalize_rows(np.stack([la.real_vec(q) for q in out]))
    return np.stack([la.real_unvec(r, (n, n)) for r in rows])


def _synth(space: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    return np.tensordot(coeffs, space, axes=(0, 0))


def _lambda_min(space: np.ndarray, coeffs: np.ndarray) -> tuple:
    q = _synth(space, coeffs)
    evals, vecs = np.linalg.eigh(0.5 * (q + la.dagger(q)))
    return float(evals[0]), vecs[:, 0]


def _exchange_refine(space: np.ndarray, coeffs: np.ndarray, rounds: int = 30) -> np.ndarray:
    """Cutting-plane refinement of max lambda_min over the coefficient ball.

    Maintains a finite set of bottom eigenvectors and solves the resulting
    max-min program; the objective is concave so this converges to the
    global maximum.
    """
    k = space.shape[0]
    val, vec = _lambda_min(space, coeffs)
    witnesses = [vec]
    best_c, best_val = coeffs.copy(), val
    for _ in range(rounds):
        qs = np.stack([
            np.real(np.einsum("a,kab,b->k", w.conj(), space, w)) for w in witnesses
        ])

        def neg_t(x):
            return -x[-1]

        cons = [
            {"type": "ineq", "fun": (lambda x, row=row: float(row @ x[:k] - x[-1]))}
            for row in qs
        ]
        cons.append({"type": "ineq", "fun": lambda x: 1.0 - float(x[:k] @ x[:k])})
        x0 = np.concatenate([best_c, [best_val]])
        res = optimize.minimize(neg_t, x0, method="SLSQP", constraints=cons,
                                options={"maxiter": 200, "ftol": 1e-14})
        if not res.success:
            break
        c_new = res.x[:k]
        nrm = np.linalg.norm(c_new)
        if nrm > 1.0:
            c_new = c_new / nrm
        val_new, vec_new = _lambda_min(space, c_new)
        if val_new > best_val:
            best_val, best_c = val_new, c_new.copy()
        witnesses.append(vec_new)
        if res.x[-1] - val_new < 1e-13:
            break
    return best_c


def find_pd(space: np.ndarray, pd_tol: float = DEFAULT_PD_TOL, restarts: int = 20,
            steps: int = 500, seed: int = 0) -> np.ndarray:
    """Positive definite element of the solution space, rescaled to
    lambda_min = 1.

    Maximizes lambda_min over the unit-Frobenius ball by projected
    subgradient ascent with restarts, followed by a cutting-plane
    refinement; raises NoPositiveSolution when the maximum stays below
    pd_tol (the cone family is not realizable by any similarity).
    """
    space = np.asarray(space, dtype=complex)
    k = space.shape[0]
    if k == 0:
        raise NoPositiveSolution("solution space is trivial", float("-inf"))
    rng = np.random.default_rng(seed)

    starts = []
    n = space.shape[1]
    c_eye = np.real(np.einsum("kab,ab->k", space.conj(), np.eye(n, dtype=complex)))
    if np.linalg.norm(c_eye) > 1e-12:
        starts.append(c_eye / np.linalg.norm(c_eye))
    while len(starts) < restarts:
        c = rng.standard_normal(k)
        starts.append(c / np.linalg.norm(c))

    best_c, best_val = starts[0], -np.inf
    for c0 in starts:
        c = c0.copy()
        stale = 0
        for t in range(1, steps + 1):
            val, vec = _lambda_min(space, c)
            if val > best_val + 1e-14:
                best_val, best_c = val, c.copy()
                stale = 0
            else:
                stale += 1
                if stale > 60:
                    break
            g = np.real(np.einsum("a,kab,b->k", vec.conj(), space, vec))
            gn = np.linalg.norm(g)
            if gn < 1e-15:
                break
            c = c + (0.5 / np.sqrt(t)) * g / gn
            nrm = np.linalg.norm(c)
            if nrm > 1.0:
                c = c / nrm

    best_c = _exchange_refine(space, best_c)
    best_val, _ = _lambda_min(space, best_c)
    if best_val <= pd_tol:
        raise NoPositiveSolution("no positive definite solution", best_val)
    q = _synth(space, best_c)
    q = 0.5 * (q + la.dagger(q))
    return q / np.linalg.eigvalsh(q)[0]


def _certificate_from(q: np.ndarray) -> SimilarityCertificate:
    q = 0.5 * (q + la.dagger(q))
    evals = np.linalg.eigvalsh(q)
    q = q / evals[0]
    return SimilarityCertificate(
        q=q, s=la.principal_sqrt(q), cond=float(evals[-1] / evals[0])
    )


def _golden_two_param(space: np.ndarray, c_start: np.ndarray) -> np.ndarray:
    """Golden-section minimization of the condition number over the positive
    definite arc of a two-parameter space."""
    theta0 = float(np.arctan2(c_start[1], c_start[0]))

    def lam_min(theta: float) -> float:
        c = np.array([np.cos(theta), np.sin(theta)])
        return _lambda_min(space, c)[0]

    def edge(sign: float) -> float:
        step = 0.05
        t = theta0
        while lam_min(t + sign * step) > 0.0 and step < np.pi:
            t += sign * step
            step *= 1.6
        lo, hi = t, t + sign * step
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if lam_min(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    lo, hi = edge(-1.0), edge(+1.0)

    def logcond(theta: float) -> float:
        c = np.array([np.cos(theta), np.sin(theta)])
        evals = np.linalg.eigvalsh(_synth(space, c))
        if evals[0] <= 0.0:
            return np.inf
        return float(np.log(evals[-1]) - np.log(evals[0]))

    res = optimize.minimize_scalar(logcond, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-13})
    theta = float(res.x)
    return np.array([np.cos(theta), np.sin(theta)])


def _descent_logcond(space: np.ndarray, c0: np.ndarray, steps: int = 200) -> np.ndarray:
    """Projected subgradient descent on log cond over the coefficient sphere."""
    c = c0 / np.linalg.norm(c0)
    best_c = c.copy()
    best_f = np.inf
    for t in range(1, steps + 1):
        q = _synth(space, c)
        evals, vecs = np.linalg.eigh(0.5 * (q + la.dagger(q)))
        if evals[0] <= 0.0:
            c = best_c.copy() if np.isfinite(best_f) else c
            break
        f = float(np.log(evals[-1] / evals[0]))
        if f < best_f:
            best_f, best_c = f, c.copy()
        u, v = vecs[:, -1], vecs[:, 0]
        g = (np.real(np.einsum("a,kab,b->k", u.conj(), space, u)) / evals[-1]
             - np.real(np.einsum("a,kab,b->k", v.conj(), space, v)) / evals[0])
        g = g - (g @ c) * c
        gn = np.linalg.norm(g)
        if gn < 1e-15:
            break
        c = c - (0.25 / np.sqrt(t)) * g / gn
        c = c / np.linalg.norm(c)
    return best_c


def _dykstra_feasible(space: np.ndarray, q0: np.ndarray, t: float,
                      max_iter: int = 400) -> np.ndarray | None:
    """Point of span(space) with spectrum in [1, t], or None.

    Dykstra alternating projections between the subspace and the spectral
    box {I <= Q <= t I}; both projections are exact.
    """
    def proj_box(q):
        h = 0.5 * (q + la.dagger(q))
        evals, vecs = np.linalg.eigh(h)
        return (vecs * np.clip(evals, 1.0, t)) @ la.dagger(vecs)

    def proj_span(q):
        coeffs = np.real(np.einsum("kab,ab->k", space.conj(), q))
        return _synth(space, coeffs)

    def box_ok(q) -> bool:
        evals = np.linalg.eigvalsh(0.5 * (q + la.dagger(q)))
        # Asymmetric slack: the lower edge sits at 1, so its tolerance must
        # not scale with t or the reported condition drifts above target.
        return evals[0] >= 1.0 - 2e-9 and evals[-1] <= t * (1.0 + 2e-9)

    x = q0.copy()
    p = np.zeros_like(x)
    qinc = np.zeros_like(x)
    for it in range(max_iter):
        y = proj_box(x + p)
        p = x + p - y
        x = proj_span(y + qinc)
        qinc = y + qinc - x
        if it % 50 == 49 and box_ok(x):
            return x
    return x if box_ok(x) else None


def minimize_condition(space: np.ndarray, seed: int = 0,
                       restarts: int = 3) -> SimilarityCertificate:
    """Certificate with the condition number minimized over the positive
    definite elements of the solution space.

    Gradient descent on the log-condition with restarts, golden-section
    refinement on one- and two-parameter spaces, and a bisection over the
    target condition with alternating-projection feasibility as the final
    polish (the sublevel sets are convex, so the polish certifies the
    optimum up to the bisection width).
    """
    space = np.asarray(space, dtype=complex)
    q_pd = find_pd(space, seed=seed)
    k = space.shape[0]
    if k == 1:
        return _certificate_from(q_pd)
    if k == 2:
        coeffs = np.real(np.einsum("kab,ab->k", space.conj(), q_pd))
        c = _golden_two_param(space, coeffs / np.linalg.norm(coeffs))
        return _certificate_from(_synth(space, c))

    rng = np.random.default_rng(seed)
    c_pd = np.real(np.einsum("kab,ab->k", space.conj(), q_pd))
    c_pd /= np.linalg.norm(c_pd)
    c_best = c_pd
    f_best = la.cond_hermitian(_synth(space, c_best))
    for r in range(restarts):
        if r == 0:
            c0 = c_pd
        else:
            # Random PD starting point: blend toward the known PD center.
            mix = rng.standard_normal(k)
            mix /= np.linalg.norm(mix)
            c0 = c_pd + 0.3 * mix
        c = _descent_logcond(space, c0)
        f = la.cond_hermitian(_synth(space, c))
        if f < f_best:
            f_best, c_best = f, c

    best_q = _synth(space, c_best)
    best_q = 0.5 * (best_q + la.dagger(best_q))
    best_q = best_q / np.linalg.eigvalsh(best_q)[0]
    t_hi = la.cond_hermitian(best_q)
    t_lo = 1.0
    calls = 0
    while t_hi - t_lo > 1e-8 * t_hi + 1e-12 and calls < 80:
        calls += 1
        t_mid = float(np.sqrt(max(t_lo, 1.0) * t_hi))
        if not t_lo < t_mid < t_hi:
            break
        found = _dykstra_feasible(space, best_q, t_mid)
        if found is None:
            t_lo = t_mid
            continue
        cnd = la.cond_hermitian(found)
        if cnd >= t_hi - 1e-9 * t_hi:  # tolerance floor reached
            break
        best_q = found / np.linalg.eigvalsh(0.5 * (found + la.dagger(found)))[0]
        t_hi = cnd
    return _certificate_from(best_q)


def apply_blockwise(images: np.ndarray, from_algebra: OperatorAlgebra, x,
                    k: int) -> np.ndarray:
    """Amplified map: apply the basis-image map to each block of a level-k
    element."""
    n_from = from_algebra.ambient_dim
    blocks = as_matrix(x).reshape(k, n_from, k, n_from).swapaxes(1, 2)
    out = np.tensordot(from_algebra.coords_of(blocks), images, axes=(-1, 0))
    return out.swapaxes(1, 2).reshape(k * images.shape[1], -1)


def build_star_rep(algebra: OperatorAlgebra, cone: ConeOracle, q: np.ndarray,
                   involution=None, cert_tol: float = DEFAULT_CERT_TOL,
                   levels=(1, 2, 4), samples: int = 12, seed: int = 0) -> StarRepresentation:
    """The map tau(b) = Q^(1/2) b Q^(-1/2) with its image algebra.

    Verifies tau(b^sharp) = tau(b)* on the basis (residual_star) and that
    amplifications of tau send sampled cone elements to PSD matrices
    (residual_cone).  Raises CertificationFailed when residual_star exceeds
    cert_tol.
    """
    if involution is None:
        involution = recover_involution(cone, 1, seed=seed)
    cert = _certificate_from(q)
    s, s_inv = cert.s, np.linalg.inv(cert.s)
    images = np.stack([s @ b @ s_inv for b in algebra.basis])

    residual_star = 0.0
    for b, tb in zip(algebra.basis, images):
        lhs = s @ _sharp_of(involution, b) @ s_inv
        residual_star = max(
            residual_star, la.frob(lhs - la.dagger(tb)) / (1.0 + la.frob(tb))
        )
    if residual_star > cert_tol:
        raise CertificationFailed(
            f"tau(b^sharp) != tau(b)* on the basis (residual {residual_star:.3g})"
        )

    rng = np.random.default_rng(seed)
    residual_cone = 0.0
    for n in levels:
        eye = np.eye(n, dtype=complex)
        s_n, s_inv_n = np.kron(eye, s), np.kron(eye, s_inv)
        for _ in range(samples):
            c = cone.sample(n, rng)
            y = s_n @ c @ s_inv_n
            defect = max(la.herm_defect(y), -la.min_eig(y))
            residual_cone = max(residual_cone, defect / (1.0 + la.opnorm(y)))

    image_algebra = generate_algebra(list(images), tol=algebra.structure_tol)
    cert = replace(cert, residual_star=float(residual_star),
                   residual_cone=float(residual_cone))
    return StarRepresentation(images=images, image_algebra=image_algebra,
                              certificate=cert)


def cb_upper_bound_from_similarity(cert: SimilarityCertificate) -> float:
    """sqrt(cond(Q)) = ||S|| ||S^-1||, an upper bound for the cb norm of the
    conjugation the certificate implements."""
    return float(np.sqrt(cert.cond))


def _block_synth(coords: np.ndarray, mats: np.ndarray, k: int) -> np.ndarray:
    """Assemble sum_{uv} kron(E_uv, sum_j coords[u,v,j] mats[j])."""
    n = mats.shape[1]
    out = np.zeros((k * n, k * n), dtype=complex)
    blocks = np.tensordot(coords, mats, axes=(2, 0))
    for u in range(k):
        for v in range(k):
            out[u * n:(u + 1) * n, v * n:(v + 1) * n] = blocks[u, v]
    return out


def cb_lower_bound(images: np.ndarray, from_algebra: OperatorAlgebra,
                   k: int | None = None, restarts: int = 12, iters: int = 60,
                   seed: int = 0) -> float:
    """Lower bound for the cb norm of the basis-image map.

    Alternating ascent of ||phi^(k)(X)|| over level-k elements with
    ||X|| <= 1: the top singular pair of the image linearizes the objective,
    and the maximizing direction is renormalized into the unit ball.  Every
    iterate is feasible, so the running maximum is always a valid bound.
    """
    images = np.asarray(images, dtype=complex)
    if k is None:
        k = int(images.shape[1])
    rng = np.random.default_rng(seed)
    d = from_algebra.dim
    n_from = from_algebra.ambient_dim
    n_to = images.shape[1]

    def value_and_coords(z: np.ndarray) -> tuple:
        x = _block_synth(z, from_algebra.basis, k)
        nx = la.opnorm(x)
        if nx < 1e-14:
            return 0.0, None, None
        y = _block_synth(z, images, k) / nx
        uu, sv, vh = np.linalg.svd(y)
        return float(sv[0]), uu[:, 0], vh[0].conj()

    starts = []
    swap = np.zeros((k, k, d), dtype=complex)
    for u in range(min(k, n_from)):
        for v in range(min(k, n_from)):
            eunit = np.zeros((n_from, n_from), dtype=complex)
            eunit[v, u] = 1.0
            swap[u, v] = from_algebra.coords_of(eunit)
    if np.linalg.norm(swap) > 1e-9:
        starts.append(swap / np.linalg.norm(swap))
    unitz = np.zeros((k, k, d), dtype=complex)
    for u in range(k):
        unitz[u, u] = from_algebra.unit_coords
    starts.append(unitz / np.linalg.norm(unitz))
    while len(starts) < restarts:
        z = la.random_complex(rng, (k, k, d))
        starts.append(z / np.linalg.norm(z))

    best = 0.0
    best_z = starts[0]
    for z0 in starts:
        z = z0.copy()
        stale = 0
        for _ in range(iters):
            val, u_vec, w_vec = value_and_coords(z)
            if u_vec is None:
                break
            if val > best + 1e-13:
                best, best_z, stale = val, z.copy(), 0
            else:
                stale += 1
                if stale > 4:
                    break
            u2 = u_vec.reshape(k, n_to)
            w2 = w_vec.reshape(k, n_to)
            grad = np.einsum("ua,jab,vb->uvj", u2.conj(), images, w2)
            z_new = grad.conj()
            nz = np.linalg.norm(z_new)
            if nz < 1e-15:
                break
            z_new = z_new / nz
            cand_vals = []
            for eta in (None, 1.0, 0.5, 0.2, 0.08):
                zc = z_new if eta is None else z + eta * z_new
                zc = zc / np.linalg.norm(zc)
                cand_vals.append((value_and_coords(zc)[0], zc))
            cand_vals.sort(key=lambda p: -p[0])
            if cand_vals[0][0] <= val + 1e-14:
                break
            z = cand_vals[0][1]
            if cand_vals[0][0] > best:
                best, best_z = cand_vals[0][0], z.copy()

    # Stochastic polish: the alternating step plateaus slightly below the
    # supremum because it maximizes over the Frobenius ball; small accepted
    # perturbations recover the last fraction of a percent.
    z = best_z.copy()
    sigma = 0.05
    for _ in range(300):
        zc = z + sigma * la.random_complex(rng, z.shape)
        zc = zc / np.linalg.norm(zc)
        val = value_and_coords(zc)[0]
        if val > best:
            best, z = val, zc
            sigma = min(sigma * 1.5, 0.2)
        else:
            sigma = max(sigma * 0.9, 1e-4)
    return best


@dataclass(frozen=True)
class ReconstructionResult:
    """Full pipeline output: certificate, star representation, cb sandwich."""

    involution: InvolutionMap
    q_space_dim: int
    star_rep: StarRepresentation
    cb_lower: float
    cb_upper: float

    @property
    def certificate(self) -> SimilarityCertificate:
        return self.star_rep.certificate

    @property
    def sandwich_ok(self) -> bool:
        return self.cb_lower <= self.cb_upper + 1e-6


def reconstruct_similarity(algebra: OperatorAlgebra, cone: ConeOracle,
                           seed: int = 0, cb_level: int | None = None,
                           cert_tol: float = DEFAULT_CERT_TOL,
                           levels=(1, 2, 4)) -> ReconstructionResult:
    """Recover the involution, solve for Q, optimize its condition number,
    build the star representation, and report the cb-norm sandwich.

    sqrt(cond(Q)) bounds the cb norm of the certified conjugation in both
    directions; the reported lower bound is the larger of the two ascent
    values (the inverse direction, from the adjoint-closed image back to
    the algebra, is the one that attains it).
    """
    involution = recover_involution(cone, 1, seed=seed)
    space = solve_Q(algebra, involution)
    cert = minimize_condition(space, seed=seed)
    star = build_star_rep(algebra, cone, cert.q, involution=involution,
                          cert_tol=cert_tol, levels=levels, seed=seed)
    s_inv = np.linalg.inv(star.certificate.s)
    inverse_images = np.stack(
        [s_inv @ b @ star.certificate.s for b in star.image_algebra.basis]
    )
    lower = max(
        cb_lower_bound(star.images, algebra, k=cb_level, seed=seed),
        cb_lower_bound(inverse_images, star.image_algebra, k=cb_level, seed=seed),
    )
    upper = cb_upper_bound_from_similarity(star.certificate)
    return ReconstructionResult(
        involution=involution,
        q_space_dim=int(space.shape[0]),
        star_rep=star,
        cb_lower=float(lower),
        cb_upper=float(upper),
    )
