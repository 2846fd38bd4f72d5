"""Cone families over matrix algebras: membership oracles, axiom audits,
constant estimators, and the block-compression map.

The oracle protocol is stacked: `member_many`, `sample_many`, `sample_span_many`,
`norm_many` and `min_shift_pair` (both signs' exact shifts, of an element or a stack)
are the contract, and a one-element question is a stack of one.
`SimilarityCone` (Hermitian PSD after a fixed similarity S; `StandardCone` is
S = I) is the one cone class, each method one stacked pass, and each stacked
question is decided once: `_stack` takes the
elements as one (k, nN, nN) array (DimensionMismatch for any other shape),
`level_element` checks the stack against M_n(A) in one `algebra._outside`
pass, and `_certify`, the one certificate of an exact shift, asks every point in one
`member_many` call, or none where `SimilarityCone`'s own PSD rule encloses the shift by
a bound read off its own straightened stack; `_Bisection` is the one fallback search.
Audit verdicts carry replayable witnesses.  `_sampled` decides each sampled
check: `SimilarityCone`'s own PSD rule over a star-closed A = S B S^-1 passes
by the realisation theorem, C_n = pi^(n)^-1(M_n(A)^+), and draws nothing; any
other cone's candidates go to `_first_escape`.  One PSD rule, `_psd_test`,
decides a matrix or a stack; `min_shift_pair` is one Hermitian eigensolve and
`sharp_block` the one involution.  Level-n spans, 2i/2iii ranks and lineality kernels
come from level 1 by Kronecker identities (Van Loan, J. Comput. Appl. Math. 123, 2000),
V_n = (M_n)_h (x) V_1; A = S B S^-1, the span bases and the level-1 lineality kernel
are built on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from . import _linalg as la
from .algebra import (
    OperatorAlgebra,
    _Frame,
    _frame,
    _freeze,
    _outside,
    as_matrix,
    block_synth,
    conjugate_algebra,
    hermitian_part_basis,
)
from .errors import (
    DimensionMismatch,
    MatOrderError,
    MembershipError,
    NumericalStall,
    SourceNotStarClosed,
    UnboundedAbove,
)

DEFAULT_TOL_PSD = 1e-9
MAX_BISECT_ITER = 200
# Doublings of the initial upper bound before a shift search gives up.
MAX_DOUBLINGS = 3

# Archimedean surrogate: boundary elements are bracketed (exact shift, else
# bisection) to this fraction of tol_psd, so the limit lands inside the slack.
_BOUNDARY_WIDTH_FACTOR = 0.2


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Replayable evidence for a failed axiom check.

    For a membership kind, `members` must evaluate as cone members and
    `outside` (when present) must fail membership for the violation to
    reproduce; `replay_witness` says how the other kinds replay.
    """

    kind: str
    level: int
    members: tuple
    outside: np.ndarray | None = None
    note: str = ""


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    verdict: str  # "pass" | "fail" | "unknown"
    detail: str = ""
    witness: Witness | None = None


def _verdict(axiom: str, detail: str, bad: Witness | None) -> AxiomCheck:
    return AxiomCheck(axiom, "fail" if bad else "pass", detail, bad)


def _sampled(cone: "SimilarityCone", axiom: str, detail: str, candidates) -> AxiomCheck:
    """A `_realised` cone passes every sampled axiom (Choi & Effros 1977); others run
    `_first_escape` on candidates()."""
    if _realised(cone):
        return AxiomCheck(axiom, "pass", _THEOREM)
    return _verdict(axiom, detail, _first_escape(cone, candidates()))


def _first_escape(cone: "SimilarityCone", candidates) -> Witness | None:
    """The sampled-inclusion runner: the first candidate in draw order whose
    `outside` is not in C at its level (as `replay_witness` tests), else None.
    Each maximal same-level run is drawn, then decided by one `member_many`;
    drawing stops after the run holding the first escape."""
    for level, run in groupby(candidates, key=lambda w: w.level):
        run = list(run)
        for w, inside in zip(run, cone.member_many(level, [w.outside for w in run])):
            if not inside:
                return w
    return None


def _levels(levels) -> tuple:
    """levels as a tuple: DimensionMismatch when empty, as for a level < 1."""
    if not (levels := tuple(levels)):
        raise DimensionMismatch("need at least one matrix level")
    return levels


def _samples(samples: int) -> None:
    if samples < 1:  # a sampled check of no samples is vacuous
        raise MatOrderError(f"samples must be >= 1, got {samples!r}")


def _streams(seed: int, k: int) -> list:
    """One child generator of `seed` per sampled check, so that a check's
    early exit leaves every other check's draws unchanged."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


def _unit_check(cone: "SimilarityCone", n: int, axiom: str, detail: str) -> AxiomCheck:
    return _verdict(axiom, detail, _first_escape(cone, [Witness("unit", n, (), cone.unit(n))]))


@dataclass(frozen=True)
class ConstantEstimate:
    """Empirical bound for one of the cone constants, with its witness."""

    name: str
    value: float
    level: int
    witness: tuple = ()


@dataclass
class ConeAuditReport:
    audit: str
    levels: tuple
    samples: int
    seed: int
    checks: list
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c.verdict == "fail"]


def replay_witness(cone: "SimilarityCone", witness: Witness) -> bool:
    """True when the recorded violation reproduces under fresh evaluation.

    Membership kinds re-test the members and the outside in one `member_many`
    call; the span kinds re-run the exact linear algebra (an element outside
    span + i*span, or a nonzero element of span cap i*span); a norm comparison
    re-measures ||a|| and ||a + ib|| of its pair (a, b).
    """
    if witness.kind == "norm-comparison":
        if len(witness.members) != 2:
            return False
        a, b = witness.members
        return _k_fails(*cone.norm_many(witness.level, [a, a + 1j * b]))
    if witness.kind in ("span-deficiency", "span-overlap"):
        span = cone.span_basis(witness.level)
        if span is None:
            return False
        rows, irows = la.real_rows(span), la.real_rows(1j * span)
        if witness.kind == "span-deficiency":
            both = la.orthonormalize_rows(np.concatenate([rows, irows]))
            vec = la.real_vec(witness.outside)
            return la.project_residual(both, vec) > 1e-8 * (1.0 + float(np.linalg.norm(vec)))
        vec = la.real_vec(witness.members[0])
        return float(np.linalg.norm(vec)) > 1e-10 and all(
            la.project_residual(la.orthonormalize_rows(r), vec) <= 1e-8 for r in (rows, irows))
    outside, k = [] if witness.outside is None else [witness.outside], len(witness.members)
    verdicts = cone.member_many(witness.level, [*witness.members, *outside])
    return all(verdicts[:k]) and not any(verdicts[k:])


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

class SimilarityCone:
    """PSD-frame cone: X is a member when (I_n kron S) X (.)^-1 is Hermitian
    PSD, i.e. the cone pi^(n)(M_n(A)^+) for pi = S^-1 (.) S over the
    star-closed A = S B S^-1 (`straight_algebra`) of the algebra B.

    The oracle protocol is its methods, one per question: the stacked `member_many`,
    `sample_many`, `sample_span_many` and `norm_many`, `straighten`, `min_shift_pair`,
    `sharp_block` (the involution that the order norms and conjugation audits apply) and the
    exact `span_basis`; a test double overrides some of them, a span it hides reading None
    (span checks then say "unknown").  S is checked once into `frame` (S, S^-1), which every
    S product reuses; s=None is the identity frame, variant "standard" (`StandardCone`).
    A = S B S^-1, the span bases and the level-1 lineality kernel are built on first use and
    kept read-only.
    """

    @property
    def variant(self) -> str:
        return "standard" if self.s is None else "similarity"

    def __init__(self, algebra: OperatorAlgebra, s: np.ndarray | None,
                 tol_psd: float = DEFAULT_TOL_PSD):
        if not 0.0 < tol_psd < np.inf:  # NaN fails too
            raise MatOrderError(f"tol_psd must be finite and positive, got {tol_psd!r}")
        self.algebra = algebra
        self.tol_psd = float(tol_psd)
        self.frame = _Frame() if s is None else _frame(s, algebra.ambient_dim)
        self._spans: dict[int, np.ndarray] = {}

    # -- structure ---------------------------------------------------------

    @property
    def s(self) -> np.ndarray | None:
        return self.frame.s

    @cached_property
    def straight_algebra(self) -> OperatorAlgebra:
        """A = S B S^-1 (B when s is None), star-closed for honest inputs; a
        similarity that loses rank raises DimensionMismatch here."""
        return self.algebra if self.s is None else conjugate_algebra(self.algebra, self.frame)

    def level_dim(self, n: int) -> int:
        """Size nN of a level-n element: DimensionMismatch for n < 1."""
        if n < 1:
            raise DimensionMismatch(f"matrix level must be >= 1, got {n}")
        return n * self.algebra.ambient_dim

    def unit(self, n: int) -> np.ndarray:
        return np.eye(self.level_dim(n), dtype=complex)

    def norm_many(self, n: int, xs) -> list:
        """Operator norm of each level-n element of xs, from one stacked Gram eigensolve,
        `la.top_singular_values`: within (nN + 4) eps / 2 of the SVD's, relative."""
        return la.top_singular_values(_stack(self, n, xs)).tolist() if len(xs) else []

    def straighten(self, n: int, x) -> np.ndarray:
        """Map a level-n element (or stack) into the frame where the cone is PSD.
        Contract: it acts block by block as I_n (x) T, T its level-1 map."""
        return self.frame.straighten(x)

    def level_element(self, n: int, x) -> np.ndarray:
        """x as given, a matrix or a (k, nN, nN) stack, checked against M_n(A) block by
        block: DimensionMismatch unless it is (nN) x (nN), else `_outside`'s
        MembershipError for the first matrix of the stack (a matrix is asked as a stack
        of one) whose distance from M_n(A) exceeds structure_tol * (1 + ||x||_F)."""
        x = as_matrix(x)
        dim = self.level_dim(n)
        if x.shape[-2:] != (dim, dim) or x.ndim > 3:
            raise DimensionMismatch(f"level-{n} element must be {dim}x{dim}, got {x.shape}")
        _outside(self.algebra, x.reshape(-1, dim, dim))
        return x

    # -- oracle ------------------------------------------------------------

    def member_many(self, n: int, xs) -> list:
        """Per level-n element of the sequence xs, in order, whether it is in C_n: one
        M_n(A) check, one straighten and one `_psd_test` (one LAPACK call per matrix, so
        each verdict is that of the element asked alone)."""
        return (self._psd_test(self.straighten(n, self.level_element(n, _stack(self, n, xs))))
                .tolist() if len(xs) else [])

    def _psd_test(self, y: np.ndarray):
        """The one PSD rule, on a matrix (a bool) or a (k, d, d) stack (k bools):
        herm_defect(y) and -lambda_min(h) within slack = tol_psd (1 + ||h||_2),
        h = (y + y*)/2, from one Hermitian eigensolve ev of h (||h||_2 = max(-ev[0],
        ev[-1]), no SVD).  It agrees with the slack tol_psd (1 + ||y||_2): once the
        defect test passes, ||h|| <= ||y|| <= ||h|| + (nN/2) herm_defect(y), a slack
        change below the rounding of ev[0] (5e-17 relative at nN = 48)."""
        y_star = y.conj().swapaxes(-1, -2)
        ev = np.linalg.eigvalsh(0.5 * (y + y_star))
        slack = self.tol_psd * (1.0 + np.maximum(-ev[..., 0], ev[..., -1]))
        return (np.abs(y - y_star).max(axis=(-2, -1)) <= slack) & (ev[..., 0] >= -slack)

    def min_shift_pair(self, n: int, c) -> tuple:
        """(r(c), r(-c)), where r I +- straighten(c) meets the `_psd_test` slack, from
        one Hermitian eigensolve (stacked for a stack), no SVD: with lambda_1 <= ... <=
        lambda_N the spectrum of h, the Hermitian part of straighten(c), and t = tol_psd,
        r(c) = (-lambda_1 - t (1 + lambda_N)) / (1 + t) and
        r(-c) = (lambda_N - t (1 - lambda_1)) / (1 + t), as spec(-h) = -spec(h)."""
        c = self.level_element(n, c)
        pair = _shift_pass(self, self.straighten(n, c).reshape(-1, *c.shape[-2:]))[:2]
        return tuple(np.array(r) if c.ndim == 3 else r[0] for r in pair)

    def sharp_block(self, a: np.ndarray) -> np.ndarray:
        """Involution of a rectangular block matrix over the algebra, its block shape read
        off `a`: (a_ij)^sharp transposed at block level, one conjugation by the frame (the
        ambient adjoint in the identity frame, whatever `straighten` a subclass sets)."""
        return self.frame.unstraighten(la.dagger(self.frame.straighten(a)))

    # -- sampling ----------------------------------------------------------

    def sample_many(self, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """k random cone elements in draw order, as a (k, nN, nN) stack."""
        return self._draw(n, k, rng, span=False)

    def sample_span_many(self, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """k random elements of span_R(C_n - C_n) in draw order."""
        return self._draw(n, k, rng, span=True)

    def _draw(self, n: int, k: int, rng: np.random.Generator, span: bool) -> np.ndarray:
        """k `random_element` draws g (their stream, one GEMM), then g* g or, for
        span, (g + g*)/2, carried back by one blockwise unstraighten."""
        alg = self.straight_algebra
        g = block_synth(la.random_complex_many(rng, k, (n, n, alg.dim)), alg.basis)
        return self.frame.unstraighten(0.5 * (g + la.dagger(g)) if span else la.dagger(g) @ g)

    def span_basis(self, n: int) -> np.ndarray | None:
        """Exact real-orthonormal basis of span_R(C_n - C_n), by contract
        (M_n)_h (x) span_basis(1), which the 2i/2iii checks use.  Level 1: the
        straightened algebra's Hermitian part carried back by S; level n: its
        Kronecker lift, real-orthonormal as tr(E_a E_b) = delta_ab."""
        if n not in self._spans:
            if n != 1:
                span = _hermitian_kron(n, self.span_basis(1))
            else:
                span = hermitian_part_basis(self.straight_algebra)
                if self.s is not None:
                    span = la.orthonormal_stack(self.frame.unstraighten(span))
            self._spans[n] = _freeze(span)
        return self._spans[n]

    def lineality_basis(self, n: int) -> list | None:
        """Exact basis of C_n cap (-C_n), via the kernel of the PSD frame map;
        None without an exact span.

        Membership has the form X in V_n with straighten(X) PSD, so the
        lineality space lies in the kernel of straighten = I_n (x) T on V_n:
        (M_n)_h (x) K_1, K_1 the kernel of T on V_1 (`_kernel_1`), each
        direction confirmed by `member_many` at +h, then at -h where +h is in
        (an empty kernel asks nothing).
        """
        kernel = self._kernel_1
        if kernel is None:
            return None
        self.level_dim(n)  # DimensionMismatch for n < 1, even with K_1 empty
        if not len(kernel):
            return []
        hs = list(_hermitian_kron(n, kernel))
        hs = [h for h, ok in zip(hs, self.member_many(n, hs)) if ok]
        return [h for h, ok in zip(hs, self.member_many(n, [-h for h in hs])) if ok]

    @cached_property
    def _kernel_1(self) -> np.ndarray | None:
        """K_1, the kernel of straighten on V_1 (one level-1 SVD), built on
        first use and kept read-only; None without an exact span."""
        span = self.span_basis(1)
        if span is None or span.shape[0] == 0:
            return span
        return _freeze(la.real_kernel(span, la.real_rows(self.straighten(1, span)).T))

    @cached_property
    def _span_rank_1(self) -> int:
        """dim_R(V_1 + iV_1), the 2i/2iii rank at every level, built on first use."""
        span = self.span_basis(1)
        return la.rank(la.real_rows(np.concatenate([span, 1j * span])))

    def describe(self) -> dict:
        cond = {} if self.s is None else {"similarity_cond": self.frame.cond}
        return {"variant": self.variant, "tol_psd": self.tol_psd,
                "ambient_dim": self.algebra.ambient_dim, "dim": self.algebra.dim} | cond


class StandardCone(SimilarityCone):
    """C_n = Hermitian PSD elements of M_n(A): the identity frame."""

    def __init__(self, algebra: OperatorAlgebra, tol_psd: float = DEFAULT_TOL_PSD):
        super().__init__(algebra, None, tol_psd)


def _hermitian_kron(n: int, stack: np.ndarray) -> np.ndarray:
    """The stack kron(E_a, m_k), a-major, over the real-orthonormal Hermitian
    basis E_a of M_n: real-orthonormal when the stack m_k is."""
    if n < 1:
        raise DimensionMismatch(f"matrix level must be >= 1, got {n}")
    big_n = stack.shape[-1]
    lifted = np.einsum("aij,kpq->akipjq", la.hermitian_matrix_basis(n), stack)
    return lifted.reshape(-1, n * big_n, n * big_n)


def _shift_pass(cone: SimilarityCone, y: np.ndarray) -> tuple:
    """`min_shift_pair`'s one eigensolve of the straightened (k, nN, nN) stack y: the lists r(c),
    r(-c) (Python floats, numpy's bits) and max|y - y*|, which `_enclosed` reads."""
    t, y_star = cone.tol_psd, la.dagger(y)
    ev = np.linalg.eigvalsh(0.5 * (y + y_star))
    pairs = list(zip(ev[:, 0].tolist(), ev[:, -1].tolist()))  # (lambda_1, lambda_N) per c
    return ([(-low - t * (1.0 + high)) / (1.0 + t) for low, high in pairs],
            [(high - t * (1.0 - low)) / (1.0 + t) for low, high in pairs],
            np.abs(y - y_star).max(axis=(-2, -1)).tolist())


def _exact_shifts(cone: SimilarityCone, n: int, cs) -> tuple:
    """(r(c), r(-c), bound) per c of cs: where `_certify` may enclose (a `_frame_oracle` cone with
    its own `min_shift_pair` and unit), one `_outside` pass (its sizes ||c||_F), one straightening
    y and one `_shift_pass`, bound (max|y - y*|, ||c||_F) per c; else `min_shift_pair`, None."""
    if not _frame_oracle(cone, "min_shift_pair", "unit"):
        return (*cone.min_shift_pair(n, cs), None)
    cs = _stack(cone, n, cs)
    sizes = _outside(cone.algebra, cs).tolist()
    up, down, defects = _shift_pass(cone, cone.frame.straighten(cs))
    return up, down, list(zip(defects, sizes))


def _stack(cone: "SimilarityCone", n: int, xs) -> np.ndarray:
    """Level-n elements (a sequence, or a stack) as one (k, nN, nN) array, k = 0
    too; DimensionMismatch for mixed shapes or any shape but (nN) x (nN)."""
    dim = cone.level_dim(n)
    shapes = {xs.shape[1:]} if isinstance(xs, np.ndarray) and xs.size else set(map(np.shape, xs))
    if shapes - {(dim, dim)}:
        raise DimensionMismatch(f"level-{n} elements must be {dim}x{dim}, got {sorted(shapes)}")
    return as_matrix(xs).reshape(-1, dim, dim)


# ---------------------------------------------------------------------------
# Order-unit shifts: exact with an oracle-certified bracket, bisection fallback
# ---------------------------------------------------------------------------

class _Bisection:
    """The one fallback shift search, on t(r) e_n + c in C_n for every c of cs
    (binding c first), a predicate monotone in r (false below the boundary,
    true above).  Each r asks one `member_many` per c, up to the first c
    outside; `calls` counts the r asked and `iterations` the bisection steps."""

    def __init__(self, cone: SimilarityCone, n: int, cs, t):
        self.cone, self.n, self.cs, self.t = cone, n, cs, t
        self.e, self.calls, self.iterations = cone.unit(n), 0, 0

    def __call__(self, r: float) -> bool:
        self.calls += 1
        x = self.t(r) * self.e
        return all(self.cone.member_many(self.n, [x + c])[0] for c in self.cs)

    def search(self, upper0, stop) -> tuple:
        """Bracket of inf{r >= 0 : pred(r)}: [0, upper0()] doubled at most
        MAX_DOUBLINGS times and bisected to `stop`."""
        if self(0.0):
            return 0.0, 0.0
        hi = max(upper0(), 1e-12)
        attempts = 0
        while not self(hi):
            attempts += 1
            if attempts > MAX_DOUBLINGS:
                raise UnboundedAbove(
                    f"predicate still false at r = {hi:.6g} after {MAX_DOUBLINGS} doublings")
            hi *= 2.0
        return self.refine(0.0, hi, stop)

    def refine(self, lo: float, hi: float, stop) -> tuple:
        while hi - lo > stop(lo, hi):
            if self.iterations >= MAX_BISECT_ITER:
                raise NumericalStall(f"bisection exceeded {MAX_BISECT_ITER} iterations "
                                     f"(bracket [{lo:.6g}, {hi:.6g}])")
            self.iterations += 1
            mid = 0.5 * (lo + hi)
            if self(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi


def _certify(cone: SimilarityCone, n: int, asks) -> list:
    """The one shift certificate, from at most one `member_many` call.  Per ask (cs, r, width,
    floor, t, bound): cs the elements (binding c first), r an exact shift (None: opaque), t the map
    from r to the multiple of e_n asked and bound `_exact_shifts`' bound of cs (None: replay).  If
    r <= floor it asks t(floor) e_n + c for every c, certifying (floor, floor) when all are inside;
    else the binding c at hi, mid and lo and the others at hi and mid (mid = r + width/8, lo =
    max(r - width/8, floor), hi = 2 mid - lo), certifying [lo, hi] when every c is inside at hi and
    mid and the binding c outside at lo (a shift placed high, or the wrong sign named binding, is
    left open).  It asks nothing when every ask has a bound and is `_enclosed`, nor runs
    `level_element` on t e_n + c: the exact shift's own pass checked c, and e_n is in M_n(A) up
    to the unit defect `OperatorAlgebra.validate` bounds.  Returns per ask (the certified bracket
    or None, the number of r asked); nothing to ask makes no call."""
    points = []
    for _, r, width, floor, *_ in asks:
        if r is None or r <= floor:
            points.append(() if r is None else (floor,))
        else:
            lo, mid = max(r - 0.125 * width, floor), r + 0.125 * width
            points.append((2.0 * mid - lo, mid, lo))
    if all(len(xs) == 3 and bound is not None and _enclosed(cone, n, bound, r, t, xs)
           for (_, r, *_, t, bound), xs in zip(asks, points)):
        return [((xs[-1], xs[0]), 0) for xs in points]
    e = cone.unit(n)
    # Per ask and c, the multiples of e_n asked: all for the binding c, all but lo for the others.
    tss = [[tuple(t(x) for x in xs[:2 if k else 3]) for k in range(len(cs))]
           for (cs, *_, t, _), xs in zip(asks, points)]
    inside = iter(cone.member_many(n, [t * e + c for (cs, *_), ts in zip(asks, tss)
                                       for c, tc in zip(cs, ts) for t in tc])
                  if any(points) else ())
    out = []
    for xs, ts in zip(points, tss):
        got = [[next(inside) for _ in tc] for tc in ts]
        certified = bool(xs) and all(all(ok[:2]) for ok in got) and not any(got[0][2:])
        out.append(((xs[-1], xs[0]) if certified else None, len(xs)))
    return out


def _enclosed(cone: SimilarityCone, n: int, bound: tuple, r: float, t, xs) -> bool:
    """Whether `_psd_test`, deciding t e_n + c by t I + straighten(c) = y, must find every c of an
    ask inside at t(hi) and t(mid) and the binding c outside at t(lo), xs = (hi, mid, lo), bound =
    (max|y - y*|, ||c||_F) from the exact shift's own pass.  Unrounded, the slack is met from t(r)
    up, or from at most 2 tol^2 / (1 - tol^2) below when spec(h) spans under 2 tol / (1 - tol),
    tol = tol_psd.  Rounding moves r and each verdict by at most delta = 8 nN eps cond(S) (max|t|
    + ||c||_F), cond(S) = 1 in the identity frame: Weyl's inequality for eigvalsh's backward error
    nN eps ||H||, in `min_shift_pair` and in the replay, plus the rounding of straighten(t e_n +
    c) against t I + straighten(c)."""
    (defect, size), ts, tol = bound, [t(x) for x in (r, *xs)], cone.tol_psd
    delta = (8.0 * cone.level_dim(n) * np.finfo(float).eps
             * (1.0 if cone.s is None else cone.frame.cond) * (max(map(abs, ts)) + size))
    return (tol < 1.0 and defect + 2.0 * delta <= tol  # Hermitian
            and ts[2] - ts[0] > delta and ts[0] - ts[3] > delta + 2 * tol * tol / (1 - tol * tol))


def _exact_brackets(cone: SimilarityCone, n: int, cs, scales, widths, floor: float) -> list:
    """Per c of cs, the `_certify` bracket of r(c) / scale for r * scale * e_n + c
    (None: opaque or uncertified), r(c) the first sign of one stacked
    `_exact_shifts`, and one `_certify`."""
    exact, _, bounds = _exact_shifts(cone, n, cs) if len(cs) else ((), (), ())
    rs = [None] * len(cs) if exact is None else [float(r) / s for r, s in zip(exact, scales)]
    return [bracket for bracket, _ in _certify(cone, n, [
        ((c,), r, width, floor, lambda x, s=scale: x * s, bound)
        for c, r, scale, width, bound in zip(cs, rs, scales, widths, bounds or [None] * len(cs))])]


def _inf_shifts(cone: SimilarityCone, n: int, cs, scales, abs_tol: float) -> list:
    """inf{r >= 0 : r * scale * e_n + c in C_n} to abs_tol per c of cs: the
    midpoint of its `_exact_brackets`, else of a `_Bisection` built for that c
    alone; None where the search finds no bracket."""
    def shift(c, scale, found):
        if found is None:
            try:
                found = _Bisection(cone, n, (c,), lambda r: r * scale).search(
                    lambda: la.opnorm(cone.straighten(n, c)) / scale + 1.0,
                    lambda l, h: abs_tol)
            except UnboundedAbove:
                return None
        return 0.5 * (found[0] + found[1])

    return [shift(*args) for args in zip(cs, scales, _exact_brackets(
        cone, n, cs, scales, [abs_tol] * len(cs), 0.0))]


def _sup_shifts_down(cone: SimilarityCone, n: int, cs, widths) -> list:
    """Per cone member c of cs, a bracket of sup{mu >= 0 : c - mu * e_n in C_n}
    of width w: -r(c) as `_exact_brackets` certifies it, else a
    `_Bisection` in r = -mu from [-top, 0], top = ||straighten(c)|| + 1."""
    def bracket(c, width, found):
        if found is None or found[1] > 0.0:
            bis = _Bisection(cone, n, (c,), lambda r: r)
            top = la.opnorm(cone.straighten(n, c)) + 1.0
            if bis(-top):  # defensive; should not happen for pointed cones
                return top, top
            found = bis.refine(-top, 0.0, lambda l, h: width)
        return -found[1], -found[0]

    return [bracket(*args) for args in zip(cs, widths, _exact_brackets(
        cone, n, cs, [1.0] * len(cs), widths, -np.inf))]


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def _lineality_check(cone: SimilarityCone, n: int) -> AxiomCheck:
    """C_n cap (-C_n) = {0} by the exact lineality basis; without an exact span,
    "fail" when e_n and -e_n are both members and "unknown" otherwise."""
    name, lin = f"pointedness-level-{n}", cone.lineality_basis(n)
    if lin is not None and not lin:
        return AxiomCheck(name, "pass", "C cap (-C) trivial (exact span kernel + PSD test)")
    # Prefer the unit as the reported direction when it lies in the lineality.
    e = cone.unit(n)
    try:
        unit = all(cone.member_many(n, [e, -e]))
    except MembershipError:
        unit = False
    if lin is None and not unit:
        return AxiomCheck(name, "unknown", "no exact span available")
    h = e if unit else lin[0]
    detail = (f"lineality space has dimension {len(lin)}" if lin is not None
              else "e_n and -e_n are both members")
    return AxiomCheck(name, "fail", detail,
                      Witness("lineality", n, (h, -h), None, "both signs are cone members"))


def _scalar_conjugations(cone: SimilarityCone, levels: tuple, trials: int,
                         rng: np.random.Generator):
    """Candidates B* c B in C_m for c in C_n and scalar n x m B, over every
    level pair: `trials` Gaussian B, plus the cyclic permutation (n = m > 1)
    and the row selection (m > n).  Per pair: all B, then one c per B."""
    eye = np.eye(cone.level_dim(1), dtype=complex)
    for n in levels:
        for m in levels:
            scalars = [la.random_complex_many(rng, trials, (n, m))]
            if n == m > 1:
                scalars.append(np.roll(np.eye(n, dtype=complex), 1, axis=1)[None])
            if m > n:
                scalars.append(np.eye(n, m, dtype=complex)[None])
            b = np.concatenate(scalars)
            cs = _stack(cone, n, cone.sample_many(n, len(b), rng))
            blk = block_synth(b[..., None], eye[None])  # B kron I_N
            for c, out in zip(cs, la.dagger(blk) @ cs @ blk):
                yield Witness("scalar-conjugation", m, (c,) if n == m else (), out,
                              f"B* C_{n} B escaped C_{m}")


def _algebra_conjugations(cone: SimilarityCone, levels: tuple, trials: int,
                          rng: np.random.Generator):
    """Candidates a^sharp c a in C_m for c in C_n and a in M_{n,m}(A), over
    every level pair.  At levels (n,) this is conjugation stability
    x c x^sharp, with x = a^sharp.  Per pair: all c, then all a."""
    alg = cone.algebra
    for n in levels:
        for m in levels:
            cs = _stack(cone, n, cone.sample_many(n, trials, rng))
            a = block_synth(la.random_complex_many(rng, trials, (n, m, alg.dim)), alg.basis)
            for c, out in zip(cs, cone.sharp_block(a) @ cs @ a):
                yield Witness("algebra-conjugation", m, (c,) if n == m else (), out,
                              f"A^sharp C_{n} A escaped C_{m}")


def _order_unit_checks(cone: SimilarityCone, n: int, trials: int,
                       unit_rng: np.random.Generator, arch_rng: np.random.Generator) -> list:
    """The "order-unit" and "archimedean" checks at level n, `trials` candidates
    each.  A span sample a fails the first when no shift r e + a, or then
    r e - a, enters C (the failed search tested r = 0: a, or -a, is outside C).
    The boundary c - mu e of a cone sample c fails the second when r e + c - mu e
    is in C for every r down to 1e-8 but c - mu e is not, within tol_psd."""
    e = cone.unit(n)
    shift_tol = 1e-9 * float(np.sqrt(cone.level_dim(n)))

    def unshiftable():
        cands = [c for a in cone.sample_span_many(n, trials, unit_rng) for c in (a, -a)]
        shifts = _inf_shifts(cone, n, cands, [1.0] * len(cands), shift_tol)
        for k in range(0, len(cands), 2):
            for j, sign in ((k, "+"), (k + 1, "-")):
                if shifts[j] is None:
                    yield Witness("order-unit", n, (), cands[j],
                                  f"no shift r e {sign} a entered the cone")
                    break

    def boundaries():
        width = _BOUNDARY_WIDTH_FACTOR * cone.tol_psd
        cs = cone.sample_many(n, trials, arch_rng)
        scales = [1.0 + nc for nc in cone.norm_many(n, cs)]
        brackets = _sup_shifts_down(cone, n, cs, [width * scale for scale in scales])
        bounds = [c - 0.5 * (lo + hi) * e for c, (lo, hi) in zip(cs, brackets)]
        inside = cone.member_many(n, [r * scale * e + boundary for boundary, scale in
                                      zip(bounds, scales) for r in (1e-2, 1e-4, 1e-6, 1e-8)])
        for k, boundary in enumerate(bounds):
            # The conclusion is membership "within tol_psd": one extra slack of
            # tol_psd absorbs the bisection landing on the oracle's fuzzy edge.
            if all(inside[4 * k:4 * k + 4]):
                slack = cone.tol_psd * (1.0 + cone.norm_many(n, [boundary])[0])
                yield Witness("archimedean", n, (), boundary + slack * e,
                              "member at every r > 0 but not at r = 0")

    return [_sampled(cone, "order-unit", "exact or bisected shift r with r e + a in C",
                     unshiftable),
            _sampled(cone, "archimedean", "membership survives the r -> 0 limit at the boundary",
                     boundaries)]


def check_order_unit_archimedean(cone: SimilarityCone, n: int = 1, samples: int = 20,
                                 seed: int = 0) -> ConeAuditReport:
    """The audit's order-unit and Archimedean checks alone, `_sampled` from seed."""
    _samples(samples)
    return ConeAuditReport("order-unit-archimedean", (n,), samples, seed,
                           _order_unit_checks(cone, n, samples, *_streams(seed, 2)))


def audit_algebraically_admissible(cone: SimilarityCone, n: int = 1,
                                   samples: int = 40, seed: int = 0) -> ConeAuditReport:
    """Audit of the single-level cone axioms with order-unit checks.

    Unit membership and pointedness are exact; conic combinations, conjugation
    stability x c x^sharp, order-unit shifts and an Archimedean surrogate
    (boundary elements remain members as r -> 0) are `_sampled`.
    """
    _samples(samples)
    if not cone.straight_algebra.star_closed:
        raise SourceNotStarClosed("classical cone audit needs a star-closed (straightened) algebra")
    combo_rng, conj_rng, unit_rng, arch_rng = _streams(seed, 4)

    def combinations():
        cs = _stack(cone, n, cone.sample_many(n, 2 * samples, combo_rng))
        coefficients = combo_rng.uniform(0.0, 2.0, size=(samples, 2))
        for c1, c2, (lam, beta) in zip(cs[::2], cs[1::2], coefficients):
            yield Witness("conic-combination", n, (c1, c2), lam * c1 + beta * c2,
                          f"coefficients ({lam:.3f}, {beta:.3f})")

    return ConeAuditReport("algebraically-admissible", (n,), samples, seed, [
        _unit_check(cone, n, "unit-membership", "e_n in C_n"),
        _sampled(cone, "cone-combinations", f"{samples} random conic combinations", combinations),
        _lineality_check(cone, n),
        _sampled(cone, "conjugation-stability", "x c x^sharp stays in C",
                 lambda: _algebra_conjugations(cone, (n,), samples, conj_rng)),
        *_order_unit_checks(cone, n, max(4, samples // 4), unit_rng, arch_rng),
    ])


def audit_matrix_ordered(cone: SimilarityCone, levels=(1, 2), samples: int = 30,
                         seed: int = 0) -> ConeAuditReport:
    """Audit of the matrix-order axioms across levels.

    (a) unit membership at level 1, (b) exact pointedness per level,
    (c) conjugation A^sharp C_n A subset C_m for scalar and algebra-valued
    rectangular A, `_sampled` (random A plus a deterministic permutation and
    a row-selection embedding off the theorem).
    """
    _samples(samples)
    scalar_rng, algebra_rng = _streams(seed, 2)
    levels = _levels(levels)
    return ConeAuditReport("matrix-ordered", levels, samples, seed, [
        _unit_check(cone, 1, "unit-in-C1", "e in C_1"),
        *[_lineality_check(cone, n) for n in levels],
        _sampled(cone, "scalar-rectangular-conjugation", "B* C_n B subset C_m for scalar B",
                 lambda: _scalar_conjugations(cone, levels, samples, scalar_rng)),
        _sampled(cone, "algebra-rectangular-conjugation",
                 "A^sharp C_n A subset C_m for algebra-valued A",
                 lambda: _algebra_conjugations(cone, levels, max(4, samples // 4), algebra_rng)),
    ])


def _span_checks(cone: SimilarityCone, n: int) -> list:
    """2i and 2iii at level n by exact ranks of the span V of C_n:
    dim_R(V + iV) = 2 dim_C M_n(A) and V cap iV = 0; "unknown" when the
    cone has no exact span.  Both ranks are n^2 times those of V_1; a failure's
    level-1 witness w lifts to E_11 (x) w, outside V_n + iV_n (or in V_n cap iV_n)."""
    names = (f"span-decomposition-2i-level-{n}", f"real-imag-independence-2iii-level-{n}")
    span = cone.span_basis(1)
    if span is None:
        return [AxiomCheck(name, "unknown", "no exact span available") for name in names]
    need, v = 2 * n * n * cone.algebra.dim, n * n * span.shape[0]
    rows = la.real_rows(np.concatenate([span, 1j * span]))
    rank = n * n * cone._span_rank_1
    lift = lambda w: np.pad(w, (0, (n - 1) * len(w)))  # E_11 (x) w
    wit_2i = wit_2iii = None
    if rank != need:
        # Witness: the algebra basis element farthest from V + iV.
        both = la.orthonormalize_rows(rows)
        far = max(cone.algebra.basis, key=lambda b: la.project_residual(both, la.real_vec(b)))
        wit_2i = Witness("span-deficiency", n, (), lift(far), "outside span + i*span")
    if rank != 2 * v:
        # Witness: a nonzero element of the overlap V cap i V; a null
        # combo (a, b) of [V, iV] gives h = sum a_k v_k = -i sum b_k v_k.
        null = la.nullspace(rows.T)[:len(span)]
        best = max(range(null.shape[1]), key=lambda k: np.linalg.norm(null[:, k]))
        h = np.tensordot(null[:, best], span, axes=(0, 0))
        wit_2iii = Witness("span-overlap", n, (lift(h),),
                           None, "nonzero element of span cap i*span")
    return [_verdict(names[0], f"dim_R(V + iV) = {rank}, need {need}", wit_2i),
            _verdict(names[1], f"dim_R(V cap iV) = {2 * v - rank}", wit_2iii)]


def _frame_oracle(cone: SimilarityCone, *also) -> bool:
    """Whether C_n and its involution are `SimilarityCone`'s own PSD rule and frame adjoint:
    no step of its oracle, nor a method named in `also`, is overridden."""
    own = lambda m: getattr(getattr(cone, m, None), "__func__", None) is getattr(SimilarityCone, m)
    return all(map(own, ("member_many", "level_element", "straighten", "_psd_test",
                         "sharp_block", *also)))


# The provenance of every check that the realisation theorem decides on a `_realised` cone.
_THEOREM = "theorem: C_n = pi^(n)^-1(M_n(A)^+), A = S B S^-1 star-closed"


def _realised(cone: SimilarityCone) -> bool:
    """A `_frame_oracle` cone over a star-closed A = S B S^-1, so C_n = pi^(n)^-1(M_n(A)^+)."""
    return _frame_oracle(cone) and cone.straight_algebra.star_closed


def _r4_estimate(cone: SimilarityCone, levels: tuple, samples: int,
                 rng: np.random.Generator) -> tuple:
    """Condition 4: r4 = sup over candidates of inf{r : r ||c|| e + c in C};
    a candidate no bounded shift brings into C fails with 8 ||c|| e + c.  A
    `_frame_oracle` cone asks -e_n alone: straighten(c) is Hermitian for span c with
    c's spectrum, so r(c) / ||c|| < 1, within t = tol_psd of -e_n's 1 / (1 + t)."""
    best, frame = ConstantEstimate("r4", 0.0, levels[0]), _frame_oracle(cone)

    def unbounded():
        nonlocal best
        for n in levels:
            if frame:
                cands = [-cone.unit(n)]
            else:
                cands = list(cone.sample_span_many(n, samples, rng))
                pairs = cone.sample_many(n, 2 * (samples // 2), rng)
                cands += [c - d for c, d in zip(pairs[0::2], pairs[1::2])]
                cands += [-cone.unit(n)] + [-c for c in cone.sample_many(n, 4, rng)]
            shift_tol = 1e-9 * (1.0 + float(np.sqrt(cone.level_dim(n))))
            kept = [(c, nc) for c, nc in zip(cands, cone.norm_many(n, cands)) if nc >= 1e-12]
            cs, ncs = [c for c, _ in kept], [nc for _, nc in kept]
            for c, nc, r in zip(cs, ncs, _inf_shifts(cone, n, cs, ncs, shift_tol)):
                if r is None:
                    yield Witness("order-bound", n, (), nc * cone.unit(n) * 8.0 + c,
                                  "no finite r with r ||c|| e + c in C")
                elif r > best.value:
                    best = ConstantEstimate("r4", r, n, (c,))

    bad = _first_escape(cone, unbounded())
    return best, bad


def _k_fails(na: float, nz: float) -> bool:
    """Whether ||a + ib|| = nz vanished while ||a|| = na did not."""
    return nz <= 1e-14 * max(na, 1.0) and na > 1e-10


def _k_estimate(cone: SimilarityCone, levels: tuple, samples: int,
                rng: np.random.Generator) -> tuple:
    """K = sup ||a|| / ||a + ib|| over sampled span pairs (a, b); the pair
    (a, 0) pins the estimate at >= 1 exactly.  ||a + ib|| = 0 < ||a|| is the
    failure, a norm fact rather than an inclusion."""
    best = ConstantEstimate("K", 0.0, levels[0])
    for n in levels:
        drawn = _stack(cone, n, cone.sample_span_many(n, 2 * samples + 1, rng))
        firsts, seconds = drawn[0::2], np.concatenate([drawn[1::2], 0.0 * drawn[-1:]])
        norms = cone.norm_many(n, np.concatenate([firsts, firsts + 1j * seconds]))
        for a, b, na, nz in zip(firsts, seconds, *np.reshape(norms, (2, -1)).tolist()):
            if _k_fails(na, nz):
                return best, Witness("norm-comparison", n, (a, b), None,
                                     "||a + ib|| vanished with ||a|| > 0")
            if nz > 1e-14 * max(na, 1.0) and na / nz > best.value:
                best = ConstantEstimate("K", na / nz, n, (a, b))
    return best, None


def audit_star_admissible(cone: SimilarityCone, levels=(1, 2), samples: int = 50,
                          seed: int = 0) -> ConeAuditReport:
    """Audit of the five cone conditions that survive completely bounded
    isomorphism, with empirical constants r4 and K.

    Span conditions are decided by exact linear algebra (ranks of stacked
    real coordinates); conjugation conditions are `_sampled`, 3ii with the
    scalar-conjugation candidates of matrix-ordered (c).  K, and r4 off a PSD
    frame, are empirical bounds over samples and curated candidates; a
    `_frame_oracle` cone's r4 is -e_n's certified shift (`_r4_estimate`).
    """
    _samples(samples)
    diff_rng, scalar_rng, r4_rng, k_rng = _streams(seed, 4)
    levels = _levels(levels)
    checks = [_unit_check(cone, 1, "unit-in-C1", "e in C_1")]
    for n in levels:
        checks += [*_span_checks(cone, n), _lineality_check(cone, n)]

    def differences():
        for n in levels:
            drawn = _stack(cone, n, cone.sample_many(n, 3 * samples, diff_rng))
            c1, c2, c = drawn[0::3], drawn[1::3], drawn[2::3]
            x = c1 - c2
            for k, out in enumerate(x @ c @ x):
                yield Witness("difference-conjugation", n, (c1[k], c2[k], c[k]), out,
                              "(c1 - c2) c (c1 - c2) escaped the cone")

    checks += [_sampled(cone, "difference-conjugation-3i", "(c1 - c2) c (c1 - c2) in C_n",
                        differences),
               _sampled(cone, "scalar-compression-3ii", "B* C_n B subset C_m for scalar B",
                        lambda: _scalar_conjugations(cone, levels, max(4, samples // 4),
                                                     scalar_rng))]
    r4, bad = _r4_estimate(cone, levels, samples, r4_rng)
    checks.append(_verdict("order-bound-r4", f"empirical r4 = {r4.value:.12g}", bad))
    k, bad = _k_estimate(cone, levels, samples, k_rng)
    checks.append(_verdict("norm-comparison-K", f"empirical K = {k.value:.12g}", bad))
    return ConeAuditReport("star-admissible", levels, samples, seed, checks,
                           {"r4": r4, "K": k})


def estimate_main_constants(cone: SimilarityCone, levels=(1, 2), samples: int = 60,
                            seed: int = 0):
    """Empirical (r1, alpha) for the closed-image conditions.

    r1 = inf ||c + d|| / max(||c||, ||d||) over sampled cone pairs;
    alpha = inf ||(x - iy)(x + iy)|| / (||x - iy|| ||x + iy||) over sampled
    span pairs.  Both come with their minimizing witnesses.
    """
    _samples(samples)
    rng, levels = np.random.default_rng(seed), _levels(levels)
    r1, alpha = (ConstantEstimate(name, np.inf, levels[0]) for name in ("r1", "alpha"))

    def least(best, n, pairs, nums, denoms):
        for pair, num, denom in zip(pairs, nums, denoms):
            if denom > 1e-12 and num / denom < best.value:
                best = ConstantEstimate(best.name, num / denom, n, pair)
        return best

    for n in levels:
        drawn = _stack(cone, n, cone.sample_many(n, 2 * samples, rng))
        # Complement pairs (c, r e - c) probe the extremal cancellations
        # that independent draws never hit (c + d collapses to a multiple
        # of the unit while c itself can be large in the ambient norm).
        shift_tol = 1e-9
        comp = _stack(cone, n, cone.sample_many(n, max(4, samples // 4), rng))
        rs = np.array(_inf_shifts(cone, n, (-1.0) * comp, [1.0] * len(comp), shift_tol), float)
        comp, rs = comp[rs > 1e-9], rs[rs > 1e-9, None, None]  # A None shift reads NaN.
        c = np.concatenate([drawn[0::2], comp])
        d = np.concatenate([drawn[1::2], (rs + shift_tol) * cone.unit(n) + (-1.0) * comp])
        drawn = _stack(cone, n, cone.sample_span_many(n, 2 * samples, rng))
        x, y = drawn[0::2], drawn[1::2]
        zm, zp = x + (-1j) * y, x + 1j * y
        norms = cone.norm_many(n, np.concatenate([c, d, c + d, zm, zp, zm @ zp]))
        nc, nd, ncd = np.reshape(norms[:3 * len(c)], (3, -1)).tolist()
        nm, npl, nprod = np.reshape(norms[3 * len(c):], (3, -1)).tolist()
        r1 = least(r1, n, list(zip(c, d)), ncd, map(max, nc, nd))
        alpha = least(alpha, n, list(zip(x, y)), nprod, [a * b for a, b in zip(nm, npl)])
    return r1, alpha


# ---------------------------------------------------------------------------
# Block compression (the psi maps at finite levels)
# ---------------------------------------------------------------------------

def compress(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """psi_{n,m}: replace every diagonal 2^n-block of a level-2^m element
    with its (1,1) block and zero the rest; a linear contraction."""
    x = as_matrix(x)
    if not 0 <= n <= m:
        raise DimensionMismatch(f"need 0 <= n <= m, got n={n}, m={m}")
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"square matrix required, got {x.shape}")
    size = x.shape[0]
    if size % (2 ** m):
        raise DimensionMismatch(f"size {size} not divisible by 2^{m}")
    block = (2 ** n) * (size // 2 ** m)
    return np.kron(np.eye(2 ** (m - n), dtype=complex), x[:block, :block])
