"""Cone families over matrix algebras: membership oracles, axiom audits,
constant estimators, and the block-compression map.

Three oracle variants are provided: the standard positive cone of a
star-closed algebra, its conjugate under a fixed similarity, and (in
`case_studies`) a function-positivity pullback.  Audits report verdicts
with replayable witnesses instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .algebra import (
    OperatorAlgebra,
    amplify,
    as_matrix,
    conjugate_algebra,
    hermitian_part_basis,
    level_residual,
    random_element,
)
from .errors import (
    DimensionMismatch,
    LevelUnsupported,
    MembershipError,
    NumericalStall,
    SourceNotStarClosed,
    UnboundedAbove,
)

DEFAULT_TOL_PSD = 1e-9
MAX_BISECT_ITER = 200

# Archimedean surrogate: boundary elements are bracketed (exact shift, else
# bisection) to this fraction of tol_psd, so the limit lands inside the slack.
_BOUNDARY_WIDTH_FACTOR = 0.2


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Replayable evidence for a failed axiom check.

    `members` must evaluate as cone members and `outside` (when present)
    must fail membership for the violation to reproduce.
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
    """A sampled check: "fail" with its witness when one was found."""
    return AxiomCheck(axiom, "fail" if bad else "pass", detail, bad)


def _unit_check(cone: "ConeOracle", n: int, axiom: str, detail: str) -> AxiomCheck:
    e = cone.unit(n)
    return _verdict(axiom, detail, None if cone.member(n, e) else Witness("unit", n, (), e))


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


def replay_witness(cone: "ConeOracle", witness: Witness) -> bool:
    """True when the recorded violation reproduces under fresh evaluation.

    Membership kinds re-test the oracle; the span kinds re-run the exact
    linear algebra (an element outside span + i*span, or a nonzero element
    of span cap i*span).
    """
    if witness.kind in ("span-deficiency", "span-overlap"):
        span = cone.span_basis(witness.level)
        if span is None:
            return False
        rows = np.stack([la.real_vec(h) for h in span]) if span.shape[0] else \
            np.zeros((0, 2 * cone.level_dim(witness.level) ** 2))
        irows = np.stack([la.real_vec(1j * h) for h in span]) if span.shape[0] else rows
        if witness.kind == "span-deficiency":
            both = la.orthonormalize_rows(np.concatenate([rows, irows])) \
                if rows.shape[0] else rows
            vec = la.real_vec(witness.outside)
            return la.project_residual(both, vec) > 1e-8 * (1.0 + float(np.linalg.norm(vec)))
        h = witness.members[0]
        vec = la.real_vec(h)
        if float(np.linalg.norm(vec)) <= 1e-10:
            return False
        in_v = la.project_residual(la.orthonormalize_rows(rows), vec) <= 1e-8
        in_iv = la.project_residual(la.orthonormalize_rows(irows), vec) <= 1e-8
        return in_v and in_iv
    for m in witness.members:
        if not cone.member(witness.level, m):
            return False
    if witness.outside is None:
        return True
    return not cone.member(witness.level, witness.outside)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

class ConeOracle:
    """Membership oracle for a cone family {C_n}.

    Subclasses provide `member`; the remaining hooks (sampling, exact span
    and lineality bases, the reference involution) have sensible defaults
    for matrix-algebra variants.
    """

    variant = "abstract"

    def __init__(self, algebra: OperatorAlgebra | None,
                 tol_psd: float = DEFAULT_TOL_PSD):
        if tol_psd <= 0:
            raise ValueError("tol_psd must be positive")
        self.algebra = algebra
        self.tol_psd = float(tol_psd)
        self._levels: dict[int, OperatorAlgebra] = {}

    # -- structure ---------------------------------------------------------

    def level_algebra(self, n: int) -> OperatorAlgebra:
        if self.algebra is None:
            raise LevelUnsupported(f"{self.variant} cone has no matrix levels")
        if n not in self._levels:
            self._levels[n] = amplify(self.algebra, n)
        return self._levels[n]

    def level_dim(self, n: int) -> int:
        if self.algebra is None:
            raise LevelUnsupported(f"{self.variant} cone has no matrix levels")
        return n * self.algebra.ambient_dim

    def unit(self, n: int) -> np.ndarray:
        return np.eye(self.level_dim(n), dtype=complex)

    def norm(self, n: int, x) -> float:
        """Ambient norm of a level-n element (operator norm)."""
        return la.opnorm(as_matrix(x))

    def mul(self, n: int, x, y):
        return as_matrix(x) @ as_matrix(y)

    # -- oracle ------------------------------------------------------------

    def member(self, n: int, x) -> bool:
        raise NotImplementedError

    def min_shift(self, n: int, c) -> float | None:
        """inf{r real : r e_n + c in C_n} in closed form; None when the cone
        is opaque and shifts must be found by bisection on `member`."""
        return None

    def straighten(self, n: int, x) -> np.ndarray:
        """Conjugate a level-n element into the frame where the cone is PSD."""
        return as_matrix(x)

    def sharp(self, n: int, x) -> np.ndarray:
        """Reference involution at level n (ambient adjoint, transported)."""
        return la.dagger(as_matrix(x))

    def sharp_block(self, n: int, m: int, a: np.ndarray) -> np.ndarray:
        """Involution of a rectangular block matrix over the algebra."""
        return la.dagger(as_matrix(a))

    def level_element(self, n: int, x) -> np.ndarray:
        """x as a matrix checked against M_n(A) block by block: DimensionMismatch
        unless it is (nN) x (nN), MembershipError when its distance from
        M_n(A) exceeds structure_tol * (1 + ||x||_F)."""
        x = as_matrix(x)
        dim = self.level_dim(n)
        if n < 1 or x.shape != (dim, dim):
            raise DimensionMismatch(f"level-{n} element must be {dim}x{dim}, got {x.shape}")
        residual = level_residual(self.algebra, n, x)
        if residual > self.algebra.structure_tol * (1.0 + la.frob(x)):
            raise MembershipError("element outside the amplified algebra", residual)
        return x

    def _psd_test(self, x: np.ndarray) -> bool:
        slack = self.tol_psd * (1.0 + la.opnorm(x))
        return la.is_hermitian(x, slack) and la.min_eig(x) >= -slack

    def _frame_shift(self, n: int, c) -> float:
        """min_shift of a PSD-frame cone from one eigensolve: the boundary of
        `_psd_test` on r I + straighten(c), slack tol (1 + lambda_max) included."""
        y = self.straighten(n, self.level_element(n, c))
        ev = np.linalg.eigvalsh(0.5 * (y + la.dagger(y)))
        return float((-ev[0] - self.tol_psd * (1.0 + ev[-1])) / (1.0 + self.tol_psd))

    # -- sampling ----------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random cone element (G* G with complex Gaussian G)."""
        raise NotImplementedError

    def sample_span(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Random element of span_R(C_n - C_n)."""
        raise NotImplementedError

    def span_basis(self, n: int) -> np.ndarray | None:
        """Exact real-orthonormal basis of span_R(C_n - C_n), if known."""
        return None

    def lineality_basis(self, n: int) -> list:
        """Exact basis of C_n cap (-C_n), via the kernel of the PSD frame map.

        Membership has the form X in V with straighten(X) PSD, so the
        lineality space is the kernel of `straighten` restricted to V.
        """
        span = self.span_basis(n)
        if span is None or span.shape[0] == 0:
            return []
        cols = np.stack([la.real_vec(self.straighten(n, h)) for h in span], axis=1)
        null = la.nullspace(cols, atol=1e-10)
        out = []
        for k in range(null.shape[1]):
            h = np.tensordot(null[:, k], span, axes=(0, 0))
            if self.member(n, h) and self.member(n, -h):
                out.append(h)
        return out

    def describe(self) -> dict:
        out = {"variant": self.variant, "tol_psd": self.tol_psd}
        if self.algebra is not None:
            out["ambient_dim"] = self.algebra.ambient_dim
            out["dim"] = self.algebra.dim
        return out


class StandardCone(ConeOracle):
    """C_n = Hermitian PSD elements of the amplified algebra."""

    variant = "standard"

    def member(self, n: int, x) -> bool:
        return self._psd_test(self.level_element(n, x))

    min_shift = ConeOracle._frame_shift

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = random_element(self.algebra, rng, level=n)
        return la.dagger(g) @ g

    def sample_span(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = random_element(self.algebra, rng, level=n)
        return 0.5 * (g + la.dagger(g))

    def span_basis(self, n: int) -> np.ndarray:
        return hermitian_part_basis(self.level_algebra(n))


class SimilarityCone(ConeOracle):
    """Conjugated positive cone: X is a member when (I_n kron S) X (.)^-1
    is Hermitian PSD, i.e. the cone pi^(n)(M_n(A)^+) for pi = S^-1 (.) S."""

    variant = "similarity"

    def __init__(self, algebra: OperatorAlgebra, s: np.ndarray,
                 tol_psd: float = DEFAULT_TOL_PSD):
        super().__init__(algebra, tol_psd)
        s = np.asarray(s, dtype=complex)
        if s.shape != (algebra.ambient_dim, algebra.ambient_dim):
            raise DimensionMismatch(
                f"similarity must be {algebra.ambient_dim}x{algebra.ambient_dim}"
            )
        self.s = s
        self.s_inv = np.linalg.inv(s)
        # Straightened algebra A = S B S^-1; star-closed for honest inputs.
        self.straight_algebra = conjugate_algebra(algebra, s)

    def straighten(self, n: int, x) -> np.ndarray:
        return _blockwise(self.s, as_matrix(x), self.s_inv)

    def unstraighten(self, n: int, y) -> np.ndarray:
        return _blockwise(self.s_inv, as_matrix(y), self.s)

    def member(self, n: int, x) -> bool:
        return self._psd_test(self.straighten(n, self.level_element(n, x)))

    min_shift = ConeOracle._frame_shift

    def sharp(self, n: int, x) -> np.ndarray:
        return self.unstraighten(n, la.dagger(self.straighten(n, x)))

    def sharp_block(self, n: int, m: int, a: np.ndarray) -> np.ndarray:
        # (a_ij)^sharp transposed at block level, written as one conjugation.
        return self.unstraighten(m, la.dagger(self.straighten(n, a)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = random_element(self.straight_algebra, rng, level=n)
        return self.unstraighten(n, la.dagger(g) @ g)

    def sample_span(self, n: int, rng: np.random.Generator) -> np.ndarray:
        g = random_element(self.straight_algebra, rng, level=n)
        return self.unstraighten(n, 0.5 * (g + la.dagger(g)))

    def span_basis(self, n: int) -> np.ndarray:
        herm = hermitian_part_basis(amplify(self.straight_algebra, n))
        if herm.shape[0] == 0:
            return herm
        conj = np.stack([self.unstraighten(n, h) for h in herm])
        rows = la.orthonormalize_rows(np.stack([la.real_vec(c) for c in conj]))
        dim = self.level_dim(n)
        return np.stack([la.real_unvec(r, (dim, dim)) for r in rows])

    def describe(self) -> dict:
        out = super().describe()
        out["similarity_cond"] = float(np.linalg.cond(self.s))
        return out


def _blockwise(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(I kron left) x (I kron right), applied to the N x N blocks of x."""
    big_n = left.shape[0]
    rows, cols = x.shape
    y = (left @ x.reshape(rows // big_n, big_n, cols)).reshape(rows, cols)
    return (y.reshape(-1, big_n) @ right).reshape(rows, cols)


# ---------------------------------------------------------------------------
# Order-unit shifts: exact with an oracle-certified bracket, bisection fallback
# ---------------------------------------------------------------------------

class _Bisection:
    """Shift search on a predicate monotone in r (false below the boundary,
    true above), counting predicate calls and bisection steps."""

    def __init__(self, pred):
        self.pred, self.calls, self.iterations = pred, 0, 0

    def __call__(self, r: float) -> bool:
        self.calls += 1
        return self.pred(r)

    def certify(self, r: float | None, width: float, floor: float = 0.0) -> tuple | None:
        """Bracket of an exact boundary r >= floor, checked by the oracle:
        (floor, floor) if r <= floor and pred(floor); else [lo, hi] of width
        <= width/2, pred true at hi and at the midpoint r + width/8, false at
        lo = max(r - width/8, floor).  None if r is None or pred disagrees."""
        if r is None:
            return None
        if r <= floor:
            return (floor, floor) if self(floor) else None
        lo, mid = max(r - 0.125 * width, floor), r + 0.125 * width
        hi = 2.0 * mid - lo
        return (lo, hi) if self(hi) and self(mid) and not self(lo) else None

    def search(self, exact: float | None, width: float, upper0, stop,
               doublings: int = 3) -> tuple:
        """Bracket of inf{r >= 0 : pred(r)}: the certified exact value, else
        [0, upper0()] doubled at most `doublings` times and bisected to `stop`."""
        found = self.certify(exact, width)
        if found is not None:
            return found
        if self(0.0):
            return 0.0, 0.0
        hi = max(upper0(), 1e-12)
        attempts = 0
        while not self(hi):
            attempts += 1
            if attempts > doublings:
                raise UnboundedAbove(
                    f"predicate still false at r = {hi:.6g} after {doublings} doublings")
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


def _inf_shift(cone: ConeOracle, n: int, c: np.ndarray, scale: float,
               abs_tol: float, doublings: int = 3) -> float | None:
    """inf{r >= 0 : r * scale * e_n + c in C_n} to abs_tol: the certified exact
    shift, else bisection; None when bisection finds no bracket."""
    e = cone.unit(n)
    bis = _Bisection(lambda r: cone.member(n, r * scale * e + c))
    exact = cone.min_shift(n, c)
    try:
        lo, hi = bis.search(None if exact is None else exact / scale, abs_tol,
                            lambda: la.opnorm(cone.straighten(n, c)) / scale + 1.0,
                            lambda l, h: abs_tol, doublings)
    except UnboundedAbove:
        return None
    return 0.5 * (lo + hi)


def _sup_shift_down(cone: ConeOracle, n: int, c: np.ndarray, abs_tol: float) -> tuple:
    """Bracket of sup{mu >= 0 : c - mu * e_n in C_n} for a cone member c:
    -min_shift(c) certified by the oracle, else bisection in r = -mu."""
    e = cone.unit(n)
    bis = _Bisection(lambda r: cone.member(n, r * e + c))
    found = bis.certify(cone.min_shift(n, c), abs_tol, floor=-np.inf)
    if found is None or found[1] > 0.0:  # uncertified, or c is not a member
        top = la.opnorm(cone.straighten(n, c)) + 1.0
        if bis(-top):  # defensive; should not happen for pointed cones
            return top, top
        found = bis.refine(-top, 0.0, lambda l, h: abs_tol)
    return -found[1], -found[0]


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

def _lineality_check(cone: ConeOracle, n: int) -> AxiomCheck:
    lin = cone.lineality_basis(n)
    if not lin:
        return AxiomCheck(f"pointedness-level-{n}", "pass",
                          "C cap (-C) trivial (exact span kernel + PSD test)")
    # Prefer the unit as the reported direction when it lies in the lineality.
    e = cone.unit(n)
    h = None
    try:
        if cone.member(n, e) and cone.member(n, -e):
            h = e
    except MembershipError:
        pass
    if h is None:
        h = lin[0]
    return AxiomCheck(
        f"pointedness-level-{n}", "fail",
        f"lineality space has dimension {len(lin)}",
        Witness("lineality", n, (h, -h), None, "both signs are cone members"),
    )


def audit_algebraically_admissible(cone: ConeOracle, n: int = 1,
                                   samples: int = 40, seed: int = 0) -> ConeAuditReport:
    """Audit of the single-level cone axioms with order-unit checks.

    Checks conic combinations, exact pointedness, conjugation stability
    x c x^sharp, existence of order-unit shifts, and an Archimedean
    surrogate (boundary elements remain members in the r -> 0 limit).
    """
    base = getattr(cone, "straight_algebra", cone.algebra)
    if not base.star_closed:
        raise SourceNotStarClosed(
            "classical cone audit needs a star-closed (straightened) algebra"
        )
    rng = np.random.default_rng(seed)
    checks = []
    e = cone.unit(n)

    checks.append(_unit_check(cone, n, "unit-membership", "e_n in C_n"))

    bad = None
    for _ in range(samples):
        c1, c2 = cone.sample(n, rng), cone.sample(n, rng)
        lam, beta = rng.uniform(0.0, 2.0, size=2)
        cand = lam * c1 + beta * c2
        if not cone.member(n, cand):
            bad = Witness("conic-combination", n, (c1, c2), cand,
                          f"coefficients ({lam:.3f}, {beta:.3f})")
            break
    checks.append(_verdict("cone-combinations", f"{samples} random conic combinations", bad))

    checks.append(_lineality_check(cone, n))

    bad = None
    for _ in range(samples):
        x = random_element(cone.algebra, rng, level=n)
        c = cone.sample(n, rng)
        cand = x @ c @ cone.sharp(n, x)
        if not cone.member(n, cand):
            bad = Witness("conjugation", n, (c,), cand, "x c x^sharp escaped the cone")
            break
    checks.append(_verdict("conjugation-stability", "x c x^sharp stays in C", bad))

    bad = None
    shift_tol = 1e-9 * float(np.sqrt(cone.level_dim(n)))
    for _ in range(max(4, samples // 4)):
        a = cone.sample_span(n, rng)
        r = _inf_shift(cone, n, a, 1.0, shift_tol)
        if r is None:
            bad = Witness("order-unit", n, (), a, "no shift r e + a entered the cone")
            break
    checks.append(_verdict("order-unit", "exact or bisected shift r with r e + a in C", bad))

    bad = None
    width = _BOUNDARY_WIDTH_FACTOR * cone.tol_psd
    for _ in range(max(4, samples // 4)):
        c = cone.sample(n, rng)
        scale = 1.0 + cone.norm(n, c)
        lo, hi = _sup_shift_down(cone, n, c, width * scale)
        boundary = c - 0.5 * (lo + hi) * e
        shifts_ok = all(cone.member(n, r * scale * e + boundary)
                        for r in (1e-2, 1e-4, 1e-6, 1e-8))
        # The conclusion is membership "within tol_psd": one extra slack of
        # tol_psd absorbs the bisection landing on the oracle's fuzzy edge.
        near = boundary + cone.tol_psd * (1.0 + cone.norm(n, boundary)) * e
        if shifts_ok and not cone.member(n, near):
            bad = Witness("archimedean", n, (), near,
                          "member at every r > 0 but not at r = 0")
            break
    checks.append(_verdict("archimedean",
                           "membership survives the r -> 0 limit at the boundary", bad))

    return ConeAuditReport("algebraically-admissible", (n,), samples, seed, checks)


def audit_matrix_ordered(cone: ConeOracle, levels=(1, 2), samples: int = 30,
                         seed: int = 0) -> ConeAuditReport:
    """Audit of the matrix-order axioms across levels.

    (a) unit membership at level 1, (b) exact pointedness per level,
    (c) conjugation A^sharp C_n A subset C_m for random scalar and
    algebra-valued rectangular A (plus a deterministic permutation and a
    row-selection embedding).
    """
    rng = np.random.default_rng(seed)
    levels = tuple(levels)
    checks = []

    checks.append(_unit_check(cone, 1, "unit-in-C1", "e in C_1"))

    for n in levels:
        checks.append(_lineality_check(cone, n))

    big_n = cone.algebra.ambient_dim
    bad = None
    for n in levels:
        for m in levels:
            if bad:
                break
            scalars = [la.random_complex(rng, (n, m)) for _ in range(samples)]
            if n == m:
                scalars.append(np.roll(np.eye(n, dtype=complex), 1, axis=1))
            if m > n:
                sel = np.zeros((n, m), dtype=complex)
                sel[:n, :n] = np.eye(n)
                scalars.append(sel)
            for a in scalars:
                c = cone.sample(n, rng)
                blk = np.kron(a, np.eye(big_n, dtype=complex))
                cand = la.dagger(blk) @ c @ blk
                if not cone.member(m, cand):
                    bad = Witness("scalar-conjugation", m, (), cand,
                                  f"B* C_{n} B escaped C_{m}")
                    break
    checks.append(_verdict("scalar-rectangular-conjugation",
                           "B* C_n B subset C_m for scalar B", bad))

    bad = None
    for n in levels:
        for m in levels:
            if bad:
                break
            for _ in range(max(4, samples // 4)):
                c = cone.sample(n, rng)
                blocks = [[random_element(cone.algebra, rng) for _ in range(m)]
                          for _ in range(n)]
                a = np.block(blocks)
                cand = cone.sharp_block(n, m, a) @ c @ a
                if not cone.member(m, cand):
                    bad = Witness("algebra-conjugation", m, (), cand,
                                  f"A^sharp C_{n} A escaped C_{m}")
                    break
    checks.append(_verdict("algebra-rectangular-conjugation",
                           "A^sharp C_n A subset C_m for algebra-valued A", bad))

    return ConeAuditReport("matrix-ordered", levels, samples, seed, checks)


def _rank_of(rows: list) -> int:
    if not rows:
        return 0
    m = np.stack(rows)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > 1e-10 * s[0])) if s.size else 0


def audit_star_admissible(cone: ConeOracle, levels=(1, 2), samples: int = 50,
                          seed: int = 0) -> ConeAuditReport:
    """Audit of the five cone conditions that survive completely bounded
    isomorphism, with empirical constants r4 and K.

    Span conditions are decided by exact linear algebra (ranks of stacked
    real coordinates); conjugation conditions by sampling.  r4 and K are
    reported as empirical bounds over samples plus curated candidates, never
    claimed beyond them.
    """
    rng = np.random.default_rng(seed)
    levels = tuple(levels)
    checks = []
    constants: dict[str, ConstantEstimate] = {}

    checks.append(_unit_check(cone, 1, "unit-in-C1", "e in C_1"))

    for n in levels:
        span = cone.span_basis(n)
        lvl_dim_c = cone.level_algebra(n).dim
        if span is None:
            checks.append(AxiomCheck(f"span-decomposition-2i-level-{n}", "unknown",
                                     "no exact span available"))
            checks.append(AxiomCheck(f"real-imag-independence-2iii-level-{n}", "unknown",
                                     "no exact span available"))
        else:
            v = span.shape[0]
            rows = [la.real_vec(h) for h in span] + [la.real_vec(1j * h) for h in span]
            rank = _rank_of(rows)
            ok_2i = rank == 2 * lvl_dim_c
            wit_2i = None
            if not ok_2i:
                # Witness: the algebra basis element farthest from V + iV.
                both = la.orthonormalize_rows(np.stack(rows))
                lvl = cone.level_algebra(n)
                wit_2i = Witness(
                    "span-deficiency", n, (),
                    max(lvl.basis,
                        key=lambda b: la.project_residual(both, la.real_vec(b))),
                    "outside span + i*span")
            ok_2iii = rank == 2 * v
            wit_2iii = None
            if not ok_2iii:
                # Witness: a nonzero element of the overlap V cap i V; a null
                # combo (a, b) of [V, iV] gives h = sum a_k v_k = -i sum b_k v_k.
                cols = np.stack(rows, axis=1)
                null = la.nullspace(cols, atol=1e-10)
                best = max(range(null.shape[1]),
                           key=lambda k: np.linalg.norm(null[:v, k]))
                h = np.tensordot(null[:v, best], span, axes=(0, 0))
                wit_2iii = Witness("span-overlap", n, (h,), None,
                                   "nonzero element of span cap i*span")
            checks.append(AxiomCheck(
                f"span-decomposition-2i-level-{n}", "pass" if ok_2i else "fail",
                f"dim_R(V + iV) = {rank}, need {2 * lvl_dim_c}", wit_2i))
            checks.append(AxiomCheck(
                f"real-imag-independence-2iii-level-{n}", "pass" if ok_2iii else "fail",
                f"dim_R(V cap iV) = {2 * v - rank}", wit_2iii))
        checks.append(_lineality_check(cone, n))

    bad = None
    for n in levels:
        if bad:
            break
        for _ in range(samples):
            c1, c2, c = (cone.sample(n, rng) for _ in range(3))
            x = c1 - c2
            cand = x @ c @ x
            if not cone.member(n, cand):
                bad = Witness("difference-conjugation", n, (c1, c2, c), cand,
                              "(c1 - c2) c (c1 - c2) escaped the cone")
                break
    checks.append(_verdict("difference-conjugation-3i", "(c1 - c2) c (c1 - c2) in C_n", bad))

    big_n = cone.algebra.ambient_dim
    bad = None
    for n in levels:
        for m in levels:
            if bad:
                break
            for _ in range(max(4, samples // 4)):
                c = cone.sample(n, rng)
                b = la.random_complex(rng, (n, m))
                blk = np.kron(b, np.eye(big_n, dtype=complex))
                cand = la.dagger(blk) @ c @ blk
                if not cone.member(m, cand):
                    bad = Witness("scalar-conjugation", m, (), cand,
                                  f"B* C_{n} B escaped C_{m}")
                    break
    checks.append(_verdict("scalar-compression-3ii", "B* C_n B subset C_m for scalar B", bad))

    # Condition 4: r4 = sup over candidates of inf{r : r ||c|| e + c in C}.
    # Negated cone elements (and -e) attain the supremum for PSD-type cones.
    r4_best, r4_wit, r4_level = 0.0, (), levels[0]
    bad = None
    for n in levels:
        if bad:
            break
        cands = [cone.sample_span(n, rng) for _ in range(samples)]
        cands += [cone.sample(n, rng) - cone.sample(n, rng) for _ in range(samples // 2)]
        cands += [-cone.unit(n)] + [-cone.sample(n, rng) for _ in range(4)]
        for c in cands:
            nc = cone.norm(n, c)
            if nc < 1e-12:
                continue
            shift_tol = 1e-9 * (1.0 + float(np.sqrt(cone.level_dim(n))))
            r = _inf_shift(cone, n, c, nc, shift_tol)
            if r is None:
                bad = Witness("order-bound", n, (), nc * cone.unit(n) * 8.0 + c,
                              "no finite r with r ||c|| e + c in C")
                break
            if r > r4_best:
                r4_best, r4_wit, r4_level = r, (c,), n
    constants["r4"] = ConstantEstimate("r4", r4_best, r4_level, r4_wit)
    checks.append(_verdict("order-bound-r4", f"empirical r4 = {r4_best:.12g}", bad))

    k_best, k_wit, k_level = 0.0, (), levels[0]
    bad = None
    for n in levels:
        if bad:
            break
        pairs = [(cone.sample_span(n, rng), cone.sample_span(n, rng))
                 for _ in range(samples)]
        # b = 0 is an admissible pair and pins the estimate at >= 1 exactly.
        pairs.append((cone.sample_span(n, rng), None))
        for a, b in pairs:
            if b is None:
                b = 0.0 * a
            na = cone.norm(n, a)
            nz = cone.norm(n, a + 1j * b)
            if nz <= 1e-14 * max(na, 1.0):
                if na > 1e-10:
                    bad = Witness("norm-comparison", n, (), None,
                                  "||a + ib|| vanished with ||a|| > 0")
                    break
                continue
            ratio = na / nz
            if ratio > k_best:
                k_best, k_wit, k_level = ratio, (a, b), n
    constants["K"] = ConstantEstimate("K", k_best, k_level, k_wit)
    checks.append(_verdict("norm-comparison-K", f"empirical K = {k_best:.12g}", bad))

    return ConeAuditReport("star-admissible", levels, samples, seed, checks, constants)


def estimate_main_constants(cone: ConeOracle, levels=(1, 2), samples: int = 60,
                            seed: int = 0):
    """Empirical (r1, alpha) for the closed-image conditions.

    r1 = inf ||c + d|| / max(||c||, ||d||) over sampled cone pairs;
    alpha = inf ||(x - iy)(x + iy)|| / (||x - iy|| ||x + iy||) over sampled
    span pairs.  Both come with their minimizing witnesses.
    """
    rng = np.random.default_rng(seed)
    r1_best, r1_wit, r1_level = np.inf, (), levels[0]
    al_best, al_wit, al_level = np.inf, (), levels[0]
    for n in levels:
        pairs = [(cone.sample(n, rng), cone.sample(n, rng))
                 for _ in range(samples)]
        # Complement pairs (c, r e - c) probe the extremal cancellations
        # that independent draws never hit (c + d collapses to a multiple
        # of the unit while c itself can be large in the ambient norm).
        e = cone.unit(n)
        shift_tol = 1e-9
        for _ in range(max(4, samples // 4)):
            c = cone.sample(n, rng)
            r = _inf_shift(cone, n, (-1.0) * c, 1.0, shift_tol)
            if r is not None and r > 1e-9:
                pairs.append((c, (r + shift_tol) * e + (-1.0) * c))
        for c, d in pairs:
            denom = max(cone.norm(n, c), cone.norm(n, d))
            if denom > 1e-12:
                ratio = cone.norm(n, c + d) / denom
                if ratio < r1_best:
                    r1_best, r1_wit, r1_level = ratio, (c, d), n
        for _ in range(samples):
            x, y = cone.sample_span(n, rng), cone.sample_span(n, rng)
            zm = x + (-1j) * y
            zp = x + 1j * y
            denom = cone.norm(n, zm) * cone.norm(n, zp)
            if denom > 1e-12:
                ratio = cone.norm(n, cone.mul(n, zm, zp)) / denom
                if ratio < al_best:
                    al_best, al_wit, al_level = ratio, (x, y), n
    return (
        ConstantEstimate("r1", float(r1_best), r1_level, r1_wit),
        ConstantEstimate("alpha", float(al_best), al_level, al_wit),
    )


# ---------------------------------------------------------------------------
# Block compression (the psi maps at finite levels)
# ---------------------------------------------------------------------------

def compress(x: np.ndarray, n: int, m: int, ambient_dim: int | None = None) -> np.ndarray:
    """psi_{n,m}: replace every diagonal 2^n-block of a level-2^m element
    with its (1,1) block and zero the rest; a linear contraction."""
    x = as_matrix(x)
    if m < n:
        raise DimensionMismatch(f"need m >= n, got n={n}, m={m}")
    size = x.shape[0]
    if x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"square matrix required, got {x.shape}")
    chunk = 2 ** (m - n)
    if ambient_dim is None:
        if size % (2 ** m):
            raise DimensionMismatch(f"size {size} not divisible by 2^{m}")
        ambient_dim = size // (2 ** m)
    block = (2 ** n) * ambient_dim
    if block * chunk != size:
        raise DimensionMismatch(
            f"size {size} != 2^{m - n} blocks of size {block}")
    b11 = x[:block, :block]
    return np.kron(np.eye(chunk, dtype=complex), b11)


def compress_via_conjugations(x: np.ndarray, n: int, m: int,
                              ambient_dim: int | None = None) -> np.ndarray:
    """Same map written as the sum of V^k P conjugations; used as an
    independent cross-check of `compress`."""
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
