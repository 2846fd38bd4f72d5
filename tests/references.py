"""Reference implementations the tests compare the library against.

`amplify` materialises a basis of M_n(A), which the library never builds;
`herm_defect` and `min_eig` measure one matrix the way the PSD rule's
references do; `spans_equal` and `compress_via_conjugations` are independent
re-derivations of an algebra span test and of `cones.compress`;
`generate_algebra_mgs` is the earlier algebra closure (products of the fresh
basis with the whole basis, one candidate at a time by modified
Gram-Schmidt), which `generate_algebra` must match in dimension, span and
star-closedness.  `norm_search_two_calls` and `pre_cstar_norm_two_calls` are
the earlier order norms: two eigensolves per element (the first sign of
`min_shift_pair` at z and at -z) and a two-sided certificate asked one sign
per `member_many` call, which the library must match in value, bracket and
work counters.  `certificate`,
`certified` and `shift_bisection` are the certificate points, their bracket
and the several-r search as `cones` kept them before `_certify` owned its
points and `_Bisection` asked one r at a time.  `certify`,
`two_sided_verdicts`, `exact_brackets` and `sup_shift_down` are the shift
certificates before `cones._certify` was the only one: a one-element
certificate on a `_Bisection`, the two-sided one of the order norms, the
one-sided one of the audits, and the Archimedean boundary's search, which
asks the exact shift and its certificate again for each element the stacked
certificate left open.  The rest are the involution and similarity layers
before their stacked passes: a barrier solve over a list of LMI blocks whose
line search halves from step 1 and whose phase one runs to its gap, and the
cone span, `norm_bound`, level-n certificate, `build_star_rep` cone residual
and norm identity drawn and measured one element at a time.  `c1_trig`, `c1_main_constants_per_sample`,
`c1_norm_per_sample` and `c1_inequality_check_per_sample` are the function
embedding's draws, main constants and norm one sample at a time, before their
stacked passes; `membership_residual` is the distance from an algebra span.
`hermitian_part_basis_loop` and `conjugate_per_basis` build the Hermitian-part
basis and a similarity's basis images one basis element at a time, as the
library did before its stacked forms; `j_symmetrize_per_element` builds the
doubled images pi(b) (+) pi(b*)* the same way, each pi by its own
`coords_of` and `tensordot`.  `r4_sampled` is the order-bound estimate
over the sampled candidate set, which the library keeps for every cone but a
PSD frame (there it asks -e_n alone).  `sampled_checks` runs the audits' eight
sampled checks on their candidates, as the library still does for every cone but
a PSD frame over a star-closed algebra (there they pass by the realisation
theorem).  `canonical_json_17g` and `audit_to_obj_17g` are the report
writer before it was one `json.dumps` call: a recursive encoder that writes
each float with 17 significant digits (an integral float as an integer) and
per-type converters for audits, checks, witnesses and constants.
`from_basis` is the earlier algebra constructor's derivation of N, the unit's
coordinates and star-closure, which `OperatorAlgebra` must match bit for bit.
`barrier_refactoring` is the stacked barrier solve, exact line search included,
before a raised tau reused the whitened data and its QR factor: it whitens and
factors on every Newton pass, and `similarity._barrier` must match it bit for bit.
`cb_lower_bound_two_stage` is the cb lower bound when a Frobenius-ball ascent
ran before the polar polish, which `similarity.cb_lower_bound` must not fall
below.  `enclosed_per_ask` is the shift certificate's rounding bound when it
straightened each ask's elements again and took their Frobenius norms per ask,
which `cones._enclosed`, reading the exact shift's own pass, must match verdict
for verdict.
"""

import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

from matorder import _linalg as la
from matorder import similarity
from matorder.algebra import (DEFAULT_MAX_DIM, DEFAULT_STRUCTURE_TOL, OperatorAlgebra,
                              as_matrix, block_coords, block_synth, random_element)
from matorder.case_studies import C1Sample, NormIdentityReport, c1_embed
from matorder.cones import (_BOUNDARY_WIDTH_FACTOR, ConstantEstimate, SimilarityCone, Witness,
                            _algebra_conjugations, _Bisection, _first_escape, _inf_shifts,
                            _scalar_conjugations, _stack, _streams, _sup_shifts_down)
from matorder.errors import (CertificationFailed, DimensionCapExceeded, DimensionMismatch,
                             NoPositiveSolution, NumericalStall, SpanUnstable)
from matorder.involution import SPAN_ROUNDS, InvolutionComparison
from matorder.order_norms import DEFAULT_BISECT_TOL, NormReport, _check_self_adjoint

def membership_residual(algebra: OperatorAlgebra, x: np.ndarray) -> float:
    """Frobenius distance of x from the algebra span."""
    x = as_matrix(x)
    return la.frob(x - algebra.synthesize(algebra.coords_of(x)))


def hermitian_part_basis_loop(algebra: OperatorAlgebra) -> np.ndarray:
    real_basis = []
    for b in algebra.basis:
        real_basis.append(b)
        real_basis.append(1j * b)
    cols = np.stack([la.real_vec(v - la.dagger(v)) for v in real_basis], axis=1)
    return la.real_kernel(np.stack(real_basis), cols)


def conjugate_per_basis(left: np.ndarray, basis: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.stack([left @ b @ right for b in basis])


def j_symmetrize_per_element(algebra: OperatorAlgebra, pi_images: np.ndarray) -> np.ndarray:
    """The rho images pi(b) (+) pi(b*)* of `j_symmetrize`, one basis element at a time."""
    def pi_of(x):
        return np.tensordot(algebra.coords_of(x), pi_images, axes=(0, 0))

    zero = np.zeros(pi_images.shape[1:], dtype=complex)
    return np.stack([np.block([[pi_of(b), zero], [zero, la.dagger(pi_of(la.dagger(b)))]])
                     for b in algebra.basis])


def herm_defect(x: np.ndarray) -> float:
    """Largest entry of |x - x*|."""
    return float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0


def min_eig(x: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of x."""
    return float(np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0])


# Acceptance threshold for a new basis direction, relative to the largest
# candidate norm in the current closure pass.  Keeps rank decisions stable
# at ambient dimensions up to ~32.
NEW_DIRECTION_FACTOR = 1e-8


def from_basis(basis, tol: float = DEFAULT_STRUCTURE_TOL) -> tuple:
    """(ambient_dim, unit_coords, star_closed) of a trace-orthonormal basis
    (d, N, N); star_closed is decided by projecting every adjoint b* back onto
    the span at tol (1 + ||b*||_F)."""
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[1]
    flat = basis.reshape(len(basis), -1)
    adj = basis.conj().swapaxes(1, 2).reshape(len(basis), -1)
    residual = np.linalg.norm(adj - (adj @ flat.conj().T) @ flat, axis=1)
    star_closed = bool(np.all(residual <= tol * (1.0 + np.linalg.norm(adj, axis=1))))
    return n, flat.conj() @ np.eye(n).ravel(), star_closed


def amplify(algebra: OperatorAlgebra, n: int) -> OperatorAlgebra:
    """Concrete M_n over the algebra: span of kron(E_ij, basis[k]).

    Entries live in the block (i, j) of an (n*N) x (n*N) matrix, so block
    matrices over the algebra are represented directly; the constructor
    derives the unit's coordinates (those of the identity of the amplified
    space) and star-closure.
    """
    if n == 1:
        return algebra
    # Basis order: block (i, j) row-major, then k; E_ij is row i n + j of I_{n^2}.
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return OperatorAlgebra(np.stack([np.kron(eij, b) for eij in units for b in algebra.basis]),
                           algebra.structure_tol)


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


def _mgs_residual(stack: np.ndarray | None, cand: np.ndarray) -> np.ndarray:
    """Gram-Schmidt residual against an orthonormal stack, re-orthogonalized."""
    r = cand
    if stack is None or stack.shape[0] == 0:
        return r
    for _ in range(2):
        coeffs = np.tensordot(stack.conj(), r, axes=([1, 2], [0, 1]))
        r = r - np.tensordot(coeffs, stack, axes=(0, 0))
    return r


def generate_algebra_mgs(
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

    return OperatorAlgebra(np.stack(basis), tol)


def certificate(r: float, width: float, floor: float) -> tuple:
    """The r the oracle decides to certify an exact boundary r >= floor: (floor,)
    if r <= floor, else (hi, mid, lo), mid = r + width/8, lo = max(r - width/8, floor)."""
    if r <= floor:
        return (floor,)
    lo, mid = max(r - 0.125 * width, floor), r + 0.125 * width
    return (2.0 * mid - lo, mid, lo)


def certified(points: tuple, inside) -> tuple | None:
    """The bracket certified by the answers at `points`: (floor, floor), or [lo, hi]
    with pred true at hi and mid and false at lo; else None."""
    if len(points) == 1:
        return (points[0], points[0]) if inside[0] else None
    (hi, _, lo), (at_hi, at_mid, at_lo) = points, inside
    return (lo, hi) if at_hi and at_mid and not at_lo else None


class ShiftBisection(_Bisection):
    """The library's search with the earlier several-r predicate: `many` decides
    a sequence of r in one call, one `member_many` per c of cs, asking only the r
    (by position) inside for the c before; `search` returns `found`, a
    certified bracket, when there is one."""

    def many(self, rs) -> list:
        ts = [self.t(r) for r in rs]
        inside = range(len(rs))
        for c in self.cs:
            if inside:
                ok = self.cone.member_many(self.n, [ts[k] * self.e + c for k in inside])
                inside = [k for k, yes in zip(inside, ok) if yes]
        return [k in inside for k in range(len(rs))]

    def search(self, found: tuple | None, upper0, stop) -> tuple:
        return found if found is not None else super().search(upper0, stop)


def shift_bisection(cone: SimilarityCone, n: int, cs, scale: float = 1.0,
                    squared: bool = False) -> ShiftBisection:
    """A `ShiftBisection` on t e_n + c in C_n for all c of cs (binding c first),
    t = r * scale (r^2 if squared)."""
    return ShiftBisection(cone, n, cs, (lambda r: r * r) if squared else (lambda r: r * scale))


def certify(bis, r: float | None, width: float, floor: float = 0.0) -> tuple | None:
    """The `certified` bracket of an exact boundary r >= floor, its points asked
    in one `bis.many` call and counted in `bis.calls`; None if r is None or the
    predicate disagrees (the earlier `_Bisection.certify`)."""
    if r is None:
        return None
    points = certificate(r, width, floor)
    bis.calls += len(points)
    return certified(points, bis.many(points))


def two_sided_verdicts(cone: SimilarityCone, n: int, cs: tuple, asks: list) -> list:
    """Per tuple ts of asks (a `certificate`, hi first, or empty), whether
    t e_n + c is in C_n for both c of cs (binding c first), t in ts.  One
    `member_many` asks the binding c at every t and the other c at all but lo;
    a second asks the other c only at each lo where the binding c is inside."""
    e = cone.unit(n)
    binding, other = cs
    xs = []
    for ts in asks:
        xs += [t * e + binding for t in ts] + [t * e + other for t in ts[:2]]
    inside = iter(cone.member_many(n, xs) if xs else ())
    first, second = [], []
    for ts in asks:
        first.append([next(inside) for _ in ts])
        second.append([next(inside) for _ in ts[:2]])
    late = [ts[2] * e + other for ts, ok in zip(asks, first) if len(ts) == 3 and ok[2]]
    at_lo = iter(cone.member_many(n, late) if late else ())
    for ts, ok, also in zip(asks, first, second):
        if len(ts) == 3:
            also.append(ok[2] and next(at_lo))
    return [[a and b for a, b in zip(ok, also)] for ok, also in zip(first, second)]


def exact_brackets(cone: SimilarityCone, n: int, cs, scales, widths, floor: float) -> list:
    """Per c of cs, the `certify` bracket of r(c) / scale for
    r * scale * e_n + c (None: opaque or uncertified), from the first sign of one
    stacked `min_shift_pair` and one `member_many` for every certificate point."""
    exact = cone.min_shift_pair(n, cs)[0] if len(cs) else None
    if exact is None:
        return [None] * len(cs)
    points = [certificate(float(r) / scale, width, floor)
              for r, scale, width in zip(exact, scales, widths)]
    e = cone.unit(n)
    inside = iter(cone.member_many(n, [r * scale * e + c for c, scale, rs in zip(cs, scales, points)
                                       for r in rs]))
    return [certified(rs, [next(inside) for _ in rs]) for rs in points]


def enclosed_per_ask(cone: SimilarityCone, n: int, cs, r: float, t, xs) -> bool:
    """`cones._enclosed` as it was before the exact shift handed on its straightened
    stack: every c of cs stacked and straightened again, and ||c||_F taken per c."""
    ts, ys, tol = [t(x) for x in (r, *xs)], cone.straighten(n, _stack(cone, n, cs)), cone.tol_psd
    delta = (8.0 * len(ys[0]) * np.finfo(float).eps * (1.0 if cone.s is None else cone.frame.cond)
             * (max(map(abs, ts)) + max(map(la.frob, cs))))
    return (tol < 1.0 and np.abs(ys - la.dagger(ys)).max() + 2.0 * delta <= tol  # Hermitian
            and ts[2] - ts[0] > delta and ts[0] - ts[3] > delta + 2 * tol * tol / (1 - tol * tol))


def r4_sampled(cone: SimilarityCone, levels, samples: int, rng: np.random.Generator) -> tuple:
    """`cones._r4_estimate` over the sampled candidates at every level: `samples`
    span draws, the differences of 2 (samples // 2) cone draws, -e_n and four
    negated cone draws, in that order and from rng in that order.  Returns
    (best, first escape or None, [(level, c, certified r or None)] per candidate
    asked)."""
    best, asked = ConstantEstimate("r4", 0.0, levels[0]), []

    def unbounded():
        nonlocal best
        for n in levels:
            cands = list(cone.sample_span_many(n, samples, rng))
            pairs = cone.sample_many(n, 2 * (samples // 2), rng)
            cands += [c - d for c, d in zip(pairs[0::2], pairs[1::2])]
            cands += [-cone.unit(n)] + [-c for c in cone.sample_many(n, 4, rng)]
            shift_tol = 1e-9 * (1.0 + float(np.sqrt(cone.level_dim(n))))
            kept = [(c, nc) for c, nc in zip(cands, cone.norm_many(n, cands)) if nc >= 1e-12]
            cs, ncs = [c for c, _ in kept], [nc for _, nc in kept]
            for c, nc, r in zip(cs, ncs, _inf_shifts(cone, n, cs, ncs, shift_tol)):
                asked.append((n, c, r))
                if r is None:
                    yield Witness("order-bound", n, (), nc * cone.unit(n) * 8.0 + c,
                                  "no finite r with r ||c|| e + c in C")
                elif r > best.value:
                    best = ConstantEstimate("r4", r, n, (c,))

    bad = _first_escape(cone, unbounded())
    return best, bad, asked


def sampled_checks(cone: SimilarityCone, n: int, levels, samples: int, seed: int) -> dict:
    """Per axiom of the eight sampled audit checks, the first escape of its
    candidates (None: none escaped), drawn from the child stream of seed its
    audit gives it: conic combinations, conjugation stability, order unit and
    Archimedean at level n (the last two with max(4, samples // 4) trials) as
    `audit_algebraically_admissible`, the rectangular conjugations over levels
    as `audit_matrix_ordered`, 3i and 3ii over levels as `audit_star_admissible`."""
    combo_rng, conj_rng, unit_rng, arch_rng = _streams(seed, 4)
    scalar_rng, algebra_rng = _streams(seed, 2)
    diff_rng, compress_rng, _, _ = _streams(seed, 4)
    few, e = max(4, samples // 4), cone.unit(n)

    def combinations():
        cs = _stack(cone, n, cone.sample_many(n, 2 * samples, combo_rng))
        coefficients = combo_rng.uniform(0.0, 2.0, size=(samples, 2))
        for c1, c2, (lam, beta) in zip(cs[::2], cs[1::2], coefficients):
            yield Witness("conic-combination", n, (c1, c2), lam * c1 + beta * c2,
                          f"coefficients ({lam:.3f}, {beta:.3f})")

    def unshiftable():
        cands = [c for a in cone.sample_span_many(n, few, unit_rng) for c in (a, -a)]
        shift_tol = 1e-9 * float(np.sqrt(cone.level_dim(n)))
        shifts = _inf_shifts(cone, n, cands, [1.0] * len(cands), shift_tol)
        for k in range(0, len(cands), 2):
            for j, sign in ((k, "+"), (k + 1, "-")):
                if shifts[j] is None:
                    yield Witness("order-unit", n, (), cands[j],
                                  f"no shift r e {sign} a entered the cone")
                    break

    def boundaries():
        width = _BOUNDARY_WIDTH_FACTOR * cone.tol_psd
        cs = cone.sample_many(n, few, arch_rng)
        scales = [1.0 + nc for nc in cone.norm_many(n, cs)]
        brackets = _sup_shifts_down(cone, n, cs, [width * scale for scale in scales])
        bounds = [c - 0.5 * (lo + hi) * e for c, (lo, hi) in zip(cs, brackets)]
        inside = cone.member_many(n, [r * scale * e + boundary for boundary, scale in
                                      zip(bounds, scales) for r in (1e-2, 1e-4, 1e-6, 1e-8)])
        for k, boundary in enumerate(bounds):
            if all(inside[4 * k:4 * k + 4]):
                slack = cone.tol_psd * (1.0 + cone.norm_many(n, [boundary])[0])
                yield Witness("archimedean", n, (), boundary + slack * e,
                              "member at every r > 0 but not at r = 0")

    def differences():
        for m in levels:
            drawn = _stack(cone, m, cone.sample_many(m, 3 * samples, diff_rng))
            c1, c2, c = drawn[0::3], drawn[1::3], drawn[2::3]
            x = c1 - c2
            for k, out in enumerate(x @ c @ x):
                yield Witness("difference-conjugation", m, (c1[k], c2[k], c[k]), out,
                              "(c1 - c2) c (c1 - c2) escaped the cone")

    runs = {
        "cone-combinations": combinations(),
        "conjugation-stability": _algebra_conjugations(cone, (n,), samples, conj_rng),
        "order-unit": unshiftable(),
        "archimedean": boundaries(),
        "scalar-rectangular-conjugation": _scalar_conjugations(cone, levels, samples, scalar_rng),
        "algebra-rectangular-conjugation": _algebra_conjugations(cone, levels, few, algebra_rng),
        "difference-conjugation-3i": differences(),
        "scalar-compression-3ii": _scalar_conjugations(cone, levels, few, compress_rng),
    }
    return {axiom: _first_escape(cone, run) for axiom, run in runs.items()}


def sup_shift_down(cone: SimilarityCone, n: int, c: np.ndarray, abs_tol: float) -> tuple:
    """Bracket of sup{mu >= 0 : c - mu * e_n in C_n} for a cone member c:
    -r(c) certified by the oracle, else bisection in r = -mu (the earlier
    one-element form, which asks the exact shift and its certificate again)."""
    bis = shift_bisection(cone, n, (c,))
    found = certify(bis, cone.min_shift_pair(n, c)[0], abs_tol, floor=-np.inf)
    if found is None or found[1] > 0.0:  # uncertified, or c is not a member
        top = la.opnorm(cone.straighten(n, c)) + 1.0
        if bis(-top):
            return top, top
        found = bis.refine(-top, 0.0, lambda l, h: abs_tol)
    return -found[1], -found[0]


def _two_shifts(cone: SimilarityCone, n: int, z: np.ndarray) -> tuple:
    """(r(z), r(-z)) from two eigensolves: the first sign of `min_shift_pair` at
    z and at -z."""
    return cone.min_shift_pair(n, z)[0], cone.min_shift_pair(n, -z)[0]


def norm_search_two_calls(cone: SimilarityCone, n: int, z: np.ndarray, bisect_tol: float,
                          squared: bool = False, sqrt_refine: bool = False,
                          shifts: tuple | None = None) -> NormReport:
    """inf{r >= 0 : t e_n + z and t e_n - z in C_n}, t = r (r^2 if squared).

    One `shift_bisection` over (z, -z), binding sign first: an exact
    shift's certificate asks five matrices in two `member_many` calls, and a
    bisection step asks the other sign only where the binding one is inside.
    The fallback starts from [0, 2 ||straighten(z)|| + 1] (square-rooted if
    squared); shifts, when given, is (r(z), r(-z)), each the first sign of its
    own `min_shift_pair`.
    """
    up, down = shifts or _two_shifts(cone, n, z)
    exact = None if up is None or down is None else max(up, down, 0.0)
    bis = shift_bisection(cone, n, (z, -z) if exact is None or up >= down else (-z, z),
                          squared=squared)
    if squared:
        exact = None if exact is None else float(np.sqrt(exact))

    def width(r):
        if sqrt_refine:
            return max(2.0 * np.sqrt(r) * bisect_tol, bisect_tol ** 2)
        return bisect_tol * (1.0 + r)

    lo, hi = bis.search(
        certify(bis, exact, width(exact or 0.0)),
        lambda: (np.sqrt if squared else float)(2.0 * la.opnorm(cone.straighten(n, z)) + 1.0),
        lambda l, h: bisect_tol * (1.0 + 0.5 * (l + h)))
    if sqrt_refine and hi > 0.0:
        target = width(max(lo, 0.0))
        lo, hi = bis.refine(lo, hi, lambda l, h: target)
    return NormReport(0.5 * (lo + hi), (lo, hi), bis.iterations, bis.calls)


def pre_cstar_norm_two_calls(cone: SimilarityCone, involution, n: int, x,
                             bisect_tol: float = DEFAULT_BISECT_TOL) -> NormReport:
    """sqrt of the seminorm of x^sharp x, cross-checked against the direct
    search for inf{r : r^2 e +- x^sharp x in C}, each path certified on its own."""
    x = as_matrix(x)
    sharp = cone.sharp_block if involution is None else involution
    z = sharp(x) @ x
    _check_self_adjoint(z, sharp(z))
    shifts = _two_shifts(cone, n, z)

    via_sqrt = norm_search_two_calls(cone, n, z, bisect_tol, sqrt_refine=True, shifts=shifts)
    value_sqrt = float(np.sqrt(via_sqrt.value))
    direct = norm_search_two_calls(cone, n, z, bisect_tol, squared=True, shifts=shifts)
    value_direct = direct.value

    if abs(value_sqrt - value_direct) > 2.0 * bisect_tol * (1.0 + value_direct):
        raise CertificationFailed(
            f"pre-C*-norm formulas disagree: sqrt path {value_sqrt:.17g}, "
            f"direct path {value_direct:.17g}"
        )
    bracket = tuple(float(np.sqrt(max(b, 0.0))) for b in via_sqrt.bracket)
    return NormReport(value_sqrt, bracket,
                      via_sqrt.iterations + direct.iterations,
                      via_sqrt.oracle_calls + direct.oracle_calls)


def barrier_blocks(blocks: list, cost: np.ndarray, x: np.ndarray) -> tuple:
    """The barrier solve over a list of LMI blocks (f0, fs), one Cholesky,
    inverse and whitening per block, its line search halving from step 1, run
    to its gap tolerance."""
    m = sum(f0.shape[0] for f0, _ in blocks)
    tau = m / (1.0 + abs(cost @ x))

    def inverse_factors(x):
        try:
            return [np.linalg.inv(np.linalg.cholesky(f0 + np.tensordot(x, fs, axes=(0, 0))))
                    for f0, fs in blocks]
        except np.linalg.LinAlgError:
            return None

    def neg_logdet(linvs):
        return sum(2.0 * np.sum(np.log(np.abs(np.diagonal(li)))) for li in linvs)

    linvs = inverse_factors(x)
    for _ in range(similarity.NEWTON_BUDGET):
        gs = [(li @ fs @ li.conj().T).reshape(len(x), -1) for li, (_, fs) in zip(linvs, blocks)]
        grad = tau * cost - sum(g[:, ::li.shape[0] + 1].sum(axis=1).real
                                for g, li in zip(gs, linvs))
        r = np.linalg.qr(np.concatenate([np.hstack([g.real, g.imag]) for g in gs], axis=1).T,
                         mode="r")
        try:
            dx = -np.linalg.solve(r, np.linalg.solve(r.T, grad))
        except np.linalg.LinAlgError:
            break
        lam2 = float(-grad @ dx)
        if lam2 < 1.0:
            dgs = [(dx @ g).reshape(li.shape) for g, li in zip(gs, linvs)]
            gap = sum(li.shape[0] - np.trace(dg).real for dg, li in zip(dgs, linvs)) / tau
            obj = abs(cost @ x)
            if gap <= max(similarity.GAP_RTOL, similarity.GAP_FLOOR_FACTOR * m * obj) * (1.0 + obj):
                duals = [li.conj().T @ (np.eye(li.shape[0]) - dg) @ li / tau
                         for dg, li in zip(dgs, linvs)]
                return x, float(gap), duals
            if lam2 < 0.25:
                tau *= 10.0
                continue
        step, base = 1.0, neg_logdet(linvs)
        while step > 1e-12:
            xt = x + step * dx
            trial = inverse_factors(xt)
            if trial is not None and (tau * (cost @ (xt - x)) + neg_logdet(trial) - base
                                      <= -0.25 * step * lam2):
                break
            step *= 0.5
        else:
            break
        x, linvs = xt, trial
    raise NumericalStall("barrier solve stalled short of its gap tolerance")


def barrier_refactoring(f0: np.ndarray, fs: np.ndarray, cost: np.ndarray, x: np.ndarray,
                        stop=None) -> tuple:
    """`similarity._barrier`, whitening and factoring again after every rise of tau."""
    m = f0.shape[0] * f0.shape[1]
    tau = m / (1.0 + abs(cost @ x))

    def inverse_factors(x):
        try:
            return np.linalg.inv(np.linalg.cholesky(f0 + np.tensordot(x, fs, axes=(0, 1))))
        except np.linalg.LinAlgError:
            return None

    def neg_logdet(linv):
        return 2.0 * np.sum(np.log(np.abs(np.diagonal(linv, axis1=1, axis2=2))))

    linv = inverse_factors(x)
    for _ in range(similarity.NEWTON_BUDGET):
        g = linv[:, None] @ fs @ la.dagger(linv)[:, None]
        grad = tau * cost - np.trace(g, axis1=2, axis2=3).real.sum(axis=0)
        flat = g.reshape(g.shape[0], len(x), -1)
        jac = np.concatenate([flat.real, flat.imag], axis=2).swapaxes(0, 1).reshape(len(x), -1)
        r = np.linalg.qr(jac.T, mode="r")
        try:
            dx = -np.linalg.solve(r, np.linalg.solve(r.T, grad))
        except np.linalg.LinAlgError:
            break
        lam2, dg = float(-grad @ dx), np.tensordot(dx, g, axes=(0, 1))
        if lam2 < 1.0:
            gap = float(m - np.trace(dg, axis1=1, axis2=2).real.sum()) / tau
            obj = abs(cost @ x)
            target = max(similarity.GAP_RTOL, similarity.GAP_FLOOR_FACTOR * m * obj)
            if gap <= target * (1.0 + obj) or (stop is not None and stop(x, gap)):
                return x, gap, la.dagger(linv) @ (np.eye(f0.shape[1]) - dg) @ linv / tau
            if lam2 < 0.25:
                tau *= 10.0
                continue
        step = similarity._line_step(tau * (cost @ dx), np.linalg.eigvalsh(dg))
        base = neg_logdet(linv)
        while step > 1e-12:
            xt = x + step * dx
            trial = inverse_factors(xt)
            if trial is not None and (tau * (cost @ (xt - x)) + neg_logdet(trial) - base
                                      <= -0.25 * step * lam2):
                break
            step *= 0.5
        else:
            break
        x, linv = xt, trial
    raise NumericalStall("barrier solve stalled short of its gap tolerance")


def _box_block_list(space: np.ndarray, low: tuple, high: tuple) -> list:
    eye = np.eye(space.shape[1], dtype=complex)
    return [(-low[0] * eye, np.concatenate([space, [-low[1] * eye]])),
            (high[0] * eye, np.concatenate([-space, [high[1] * eye]]))]


def phase_one_to_gap(space: np.ndarray) -> tuple:
    """(c, s, gap) maximizing s subject to s I <= Q(c) <= I, solved to its gap."""
    k = space.shape[0]
    x, gap, (w, _) = barrier_blocks(_box_block_list(space, (0.0, 1.0), (1.0, 0.0)),
                                    -np.eye(k + 1)[k], -np.eye(k + 1)[k])
    if x[k] <= 0.0:
        raise NoPositiveSolution("no positive definite solution found", float(x[k]), dual=w)
    return x[:k], float(x[k]), gap


def minimize_condition_to_gap(space: np.ndarray) -> similarity.SimilarityCertificate:
    """`minimize_condition` over block lists, its phase one run to its gap."""
    space = similarity._hermitian_space(space)
    c, s, _ = phase_one_to_gap(space)
    k = space.shape[0]
    x, gap, _ = barrier_blocks(_box_block_list(space, (1.0, 0.0), (0.0, 1.0)),
                               np.eye(k + 1)[k], np.append(2.0 * c / s, 4.0 / s))
    return similarity._certificate_from(np.tensordot(x[:k], space, axes=(0, 0)), gap)


def _top_pair_scored(z: np.ndarray, images: np.ndarray, from_algebra: OperatorAlgebra,
                     scored: tuple | None = None) -> tuple:
    """`similarity._top_pair`, reusing (||X||, phi^(k)(X)) when scored is given."""
    nx, y = scored or (la.opnorm(block_synth(z, from_algebra.basis)), block_synth(z, images))
    if nx < 1e-14:
        return 0.0, None
    uu, sv, vh = np.linalg.svd(y / nx)
    u2, w2 = uu[:, 0].reshape(len(z), -1), vh[0].conj().reshape(len(z), -1)
    return float(sv[0]), np.einsum("ua,jab,vb->uvj", u2.conj(), images, w2)


def cb_lower_bound_two_stage(images: np.ndarray, from_algebra: OperatorAlgebra,
                             k: int | None = None, seed: int = 0) -> float:
    """`similarity.cb_lower_bound` before the polish was its only ascent: from the
    same starts, a projected-gradient ascent on the Frobenius ball of the
    coordinates (the step and four damped steps scored by one stacked values-only
    SVD each for the X's and their images, a start ending at five evaluations
    without a new best by a relative 1e-13), then `_polish` of the best point."""
    images = np.asarray(images, dtype=complex)
    k = int(images.shape[1]) if k is None else k
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
    while len(starts) < similarity.CB_RESTARTS:
        z = la.random_complex_many(rng, 1, (k, k, d))[0]
        starts.append(z / np.linalg.norm(z))

    etas = np.array([1.0, 0.5, 0.2, 0.08])[:, None, None, None]
    best, best_z, best_scored = 0.0, starts[0], None
    for z in starts:
        stale, scored = 0, None
        for _ in range(similarity.CB_ITERS):
            val, grad = _top_pair_scored(z, images, from_algebra, scored)
            if val > best * (1.0 + 1e-13):
                best, best_z, best_scored, stale = val, z, scored, 0
            else:
                stale += 1
                if stale > 4:
                    break
            nz = np.linalg.norm(grad)
            if nz < 1e-15:
                break
            step = grad.conj() / nz
            cands = np.concatenate([step[None], z + etas * step])
            cands /= np.linalg.norm(cands.reshape(len(cands), -1), axis=1)[:, None, None, None]
            ys = block_synth(cands, images)
            nx, ny = la.opnorm(block_synth(cands, from_algebra.basis)), la.opnorm(ys)
            vals = np.divide(ny, nx, out=np.zeros_like(ny), where=nx >= 1e-14)
            i = int(np.argmax(vals))
            if vals[i] <= val * (1.0 + 1e-14):
                break
            z, scored = cands[i], (nx[i], ys[i])
            if vals[i] > best:
                best, best_z, best_scored = float(vals[i]), z, scored

    return max(best, similarity._polish(
        images, from_algebra, *_top_pair_scored(best_z, images, from_algebra, best_scored)))


def real_cone_span_per_sample(cone: SimilarityCone, n: int = 1, seed: int = 0) -> np.ndarray:
    """`real_cone_span`'s sampled basis, its rounds drawn one element at a time
    (without the exact-span cross-check)."""
    rng = np.random.default_rng(seed)
    samples = 2 * n * n * cone.algebra.dim + 8
    drawn, stable, last = [], 0, -1
    for _ in range(SPAN_ROUNDS):
        drawn += [cone.sample_many(n, 1, rng)[0] for _ in range(samples)]
        basis = la.orthonormal_stack(np.stack(drawn))
        if basis.shape[0] == last:
            stable += 1
            if stable >= 2:
                return basis
        else:
            stable = 0
        last = basis.shape[0]
    raise SpanUnstable(f"cone span still growing after {SPAN_ROUNDS} rounds (dim {last})")


def bound_2k_per_element(algebra: OperatorAlgebra, involution, seed: int = 0) -> float:
    """`InvolutionMap.norm_bound`: 32 `random_element` draws, one
    `la.opnorm` each for x and x^sharp."""
    rng = np.random.default_rng(seed + 1)
    bound = 1.0
    for _ in range(32):
        x = random_element(algebra, rng)
        nx = la.opnorm(x)
        if nx > 1e-12:
            bound = max(bound, la.opnorm(involution(x)) / nx)
    return float(bound)


def verify_matrix_involution_per_sample(cone: SimilarityCone, n: int, samples: int, seed: int,
                                        involution1) -> InvolutionComparison:
    """`verify_matrix_involution`, one draw and one residual per row."""
    need = n * n * cone.algebra.dim
    upper = np.triu_indices(n)
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    rows = np.empty((need + samples, len(upper[0]) * 2 * cone.algebra.dim))
    for row in rows:
        x = cone.sample_many(n, 1, rng)[0]
        worst = max(worst, la.frob(x - involution1(x)) / (1.0 + la.frob(x)))
        row[:] = la.real_vec(block_coords(cone.algebra, x)[upper])
    return InvolutionComparison(n, float(worst), samples, la.rank(rows), need)


def residual_cone_kron(cone: SimilarityCone, s: np.ndarray, levels, samples: int,
                       seed: int = 0) -> float:
    """`build_star_rep`'s residual_cone: each sample conjugated by kron(I_n, S)
    and measured alone."""
    s_inv = np.linalg.inv(s)
    rng = np.random.default_rng(seed)
    residual = 0.0
    for n in levels:
        eye = np.eye(n, dtype=complex)
        s_n, s_inv_n = np.kron(eye, s), np.kron(eye, s_inv)
        for _ in range(samples):
            y = s_n @ cone.sample_many(n, 1, rng)[0] @ s_inv_n
            defect = max(herm_defect(y), -min_eig(y))
            residual = max(residual, defect / (1.0 + la.opnorm(y)))
    return residual


def jsym_norm_identity_per_sample(images: np.ndarray, algebra: OperatorAlgebra, levels,
                                  samples: int, seed: int = 0) -> NormIdentityReport:
    """`jsym_norm_identity`, one `random_element` and two `la.opnorm` per sample."""
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    for n in levels:
        for _ in range(samples):
            a = random_element(algebra, rng, level=n)
            na, nb = (la.opnorm(block_synth(block_coords(algebra, y), images))
                      for y in (a, la.dagger(a)))
            dev = abs(na - nb) / (1.0 + na)
            if dev > worst:
                worst, witness = dev, a
    return NormIdentityReport(float(worst), witness, tuple(levels), samples)


def c1_trig(grid: np.ndarray, max_frequency: int, rng: np.random.Generator) -> C1Sample:
    """One random real trigonometric polynomial on the grid, drawn and accumulated
    one coefficient at a time (the earlier `_trig` of the pullback cone)."""
    vals = np.zeros_like(grid, dtype=complex)
    ders = np.zeros_like(grid, dtype=complex)
    for j in range(max_frequency + 1):
        a = rng.standard_normal() / (1 + j)
        vals += a * np.cos(2 * np.pi * j * grid)
        ders += -a * 2 * np.pi * j * np.sin(2 * np.pi * j * grid)
        if j > 0:
            b = rng.standard_normal() / (1 + j)
            vals += b * np.sin(2 * np.pi * j * grid)
            ders += b * 2 * np.pi * j * np.cos(2 * np.pi * j * grid)
    return C1Sample(grid, vals, ders)


def c1_main_constants_per_sample(grid: np.ndarray, samples: int, seed: int,
                                 max_frequency: int = 4) -> tuple:
    """(r1, alpha, complements) of `c1_main_constants`, one `c1_trig` draw, `C1Sample`
    product and `c1_norm_per_sample` at a time, in the draw order `estimate_main_constants`
    had on the pullback cone; complements are the d = r - c, r = max c, of its
    complement pairs, in order."""
    rng = np.random.default_rng(seed)
    draw = lambda: c1_trig(grid, max_frequency, rng)
    squares = [g * g for g in (draw() for _ in range(2 * samples))]
    pairs, complements = list(zip(squares[0::2], squares[1::2])), []
    for _ in range(max(4, samples // 4)):
        g = draw()
        c = g * g
        d = C1Sample(grid, np.max(c.f_values.real) - c.f_values, -c.f_derivs)
        pairs.append((c, d))
        complements.append(d)
    r1 = alpha = np.inf
    for c, d in pairs:
        denom = max(c1_norm_per_sample(c), c1_norm_per_sample(d))
        if denom > 1e-12:
            r1 = min(r1, c1_norm_per_sample(c + d) / denom)
    spans = [draw() for _ in range(2 * samples)]
    for x, y in zip(spans[0::2], spans[1::2]):
        zm, zp = x + (-1j) * y, x + 1j * y
        denom = c1_norm_per_sample(zm) * c1_norm_per_sample(zp)
        if denom > 1e-12:
            alpha = min(alpha, c1_norm_per_sample(zm * zp) / denom)
    return r1, alpha, complements


def c1_norm_per_sample(sample: C1Sample) -> float:
    """`c1_norm` of one sample: the closed form, cross-checked against the top
    singular value of its embedding's diagonal 2x2 blocks (one SVD per sample)."""
    f2 = np.abs(sample.f_values) ** 2
    d = np.abs(sample.f_derivs)
    per_point = 0.5 * (2.0 * f2 + d ** 2 + d * np.sqrt(4.0 * f2 + d ** 2))
    value = float(np.sqrt(np.max(per_point))) if sample.grid.size else 0.0
    m = sample.grid.size
    embedded = c1_embed(sample)
    blocks = embedded.reshape(m, 2, m, 2)[np.arange(m), :, np.arange(m), :]
    if np.count_nonzero(embedded) != np.count_nonzero(blocks):
        raise CertificationFailed("embedded matrix has an entry off its diagonal 2x2 blocks")
    direct = float(la.opnorm(blocks).max()) if m else 0.0
    if abs(value - direct) > 1e-10 * (1.0 + direct):
        raise CertificationFailed("closed-form norm disagrees with the embedded norm")
    return value


def c1_inequality_check_per_sample(samples: int, seed: int, grid_size: int) -> tuple:
    """(violations, worst margin) of `c1_inequality_check`, one sample and one
    `c1_norm_per_sample` at a time."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, grid_size)
    violations, worst = 0, np.inf
    for _ in range(samples):
        f = C1Sample(grid, la.random_complex_many(rng, 1, grid_size)[0],
                     la.random_complex_many(rng, 1, grid_size)[0])
        norm = c1_norm_per_sample(f)
        sup, dsup = (float(np.max(np.abs(v))) if grid_size else 0.0
                     for v in (f.f_values, f.f_derivs))
        mid = max(sup, dsup) / np.sqrt(2.0)
        low = (sup + dsup) / (2.0 * np.sqrt(2.0))
        worst = min(worst, min(norm - mid, mid - low))
        if norm < mid - 1e-12 or mid < low - 1e-12:
            violations += 1
    return violations, float(worst)


def _fmt_float_17g(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _canonical_17g(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_17g(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float_17g(obj.real)},{_fmt_float_17g(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _canonical_17g(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_17g(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _canonical_17g(v)
                              for k, v in items) + "}"
    if is_dataclass(obj):  # the order-norm command wrote asdict(NormReport)
        return _canonical_17g(asdict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json_17g(obj) -> str:
    return _canonical_17g(obj) + "\n"


def _matrix_to_obj_17g(x: np.ndarray) -> dict:
    x = np.asarray(x, dtype=complex)
    return {
        "dim": int(x.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in x],
    }


def _witness_to_obj_17g(w: Witness) -> dict:
    def enc(x):
        if isinstance(x, np.ndarray):
            return _matrix_to_obj_17g(x)
        if hasattr(x, "f_values"):  # function samples
            return {
                "grid": [float(q) for q in x.grid],
                "f_values": [[float(v.real), float(v.imag)] for v in x.f_values],
                "f_derivs": [[float(v.real), float(v.imag)] for v in x.f_derivs],
            }
        return x

    return {
        "kind": w.kind,
        "level": w.level,
        "members": [enc(m) for m in w.members],
        "outside": None if w.outside is None else enc(w.outside),
        "note": w.note,
    }


def audit_to_obj_17g(report) -> dict:
    def check(c):
        return {"axiom": c.axiom, "verdict": c.verdict, "detail": c.detail,
                "witness": None if c.witness is None else _witness_to_obj_17g(c.witness)}

    def constant(c: ConstantEstimate):
        wrapped = Witness("constant", c.level, tuple(c.witness), None)
        return {"name": c.name, "value": float(c.value), "level": c.level,
                "witness": _witness_to_obj_17g(wrapped)["members"]}

    return {
        "audit": report.audit,
        "levels": list(report.levels),
        "samples": report.samples,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [check(c) for c in report.checks],
        "constants": {k: constant(v) for k, v in report.constants.items()},
    }
