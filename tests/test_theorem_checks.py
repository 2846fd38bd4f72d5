"""The audits' eight sampled checks decided by the realisation theorem on a
PSD-frame cone over a star-closed algebra, against the sampled runner they
replace (`references.sampled_checks`): the runner finds no escape wherever the
theorem passes, a frame audit draws only for K, cones whose oracle is
overridden keep their sampled verdicts, values and witnesses, and a sample
count below one is a typed error."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import E12, random_unitary
from doubles import AllHermitianCone, PairedSpanCone, SkewedLevelCone, ZeroCone, ZeroedCornerCone
from matorder import cones
from matorder.algebra import conjugate_algebra, generate_algebra
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
    check_order_unit_archimedean,
    estimate_main_constants,
)
from matorder.errors import MatOrderError, MembershipError
from references import sampled_checks
from test_member_many import _sampled_path
from test_order_bound import _recorded

LEVELS = (1, 2, 4)
THEOREM = "theorem: C_n = pi^(n)^-1(M_n(A)^+), A = S B S^-1 star-closed"
SAMPLED = {"algebraically-admissible": ("cone-combinations", "conjugation-stability",
                                        "order-unit", "archimedean"),
           "matrix-ordered": ("scalar-rectangular-conjugation",
                              "algebra-rectangular-conjugation"),
           "star-admissible": ("difference-conjugation-3i", "scalar-compression-3ii")}


def _algebra(family, n, rng):
    """A star-closed subalgebra of M_n: all of it, the span of the spectral
    projections of a normal matrix with n // 2 + 1 eigenvalues, a unitary
    conjugate of a sum of blocks, or the scalars."""
    g = lambda p: rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    u = random_unitary(rng, n)
    if family == "full":
        gens = [g(n)]
    elif family == "commutative":
        gens = [u @ np.diag((np.arange(n) % (n // 2 + 1)).astype(complex)) @ u.conj().T]
    elif family == "blocks":
        parts = {2: (1, 1), 3: (1, 2), 4: (2, 2)}[n]
        gens = [u @ block_diag(*map(g, parts)) @ u.conj().T for _ in range(2)]
    else:
        gens = [np.eye(n, dtype=complex)]
    return generate_algebra(gens, include_adjoints=True)


def _frame_cone(family, n, cond):
    """StandardCone on A for cond None, else the SimilarityCone of
    B = S^-1 A S with cond(S) = cond."""
    rng = np.random.default_rng([n, ["full", "commutative", "blocks", "scalar"].index(family)])
    alg = _algebra(family, n, rng)
    if cond is None:
        return StandardCone(alg)
    s = (random_unitary(rng, n) @ np.diag(np.geomspace(1.0, cond, n))
         @ random_unitary(rng, n).conj().T)
    return SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s)


def _audits(cone, n, samples, seed, levels=LEVELS):
    return [audit_algebraically_admissible(cone, n, samples=samples, seed=seed),
            audit_matrix_ordered(cone, levels, samples=samples, seed=seed),
            audit_star_admissible(cone, levels, samples=samples, seed=seed)]


def _theorem_checks(reports):
    """The sampled checks of the reports, with each one's verdict and detail."""
    return {c.axiom: (c.verdict, c.detail) for r in reports for c in r.checks
            if c.axiom in SAMPLED[r.audit]}


@pytest.mark.parametrize("cond", [None, 1.0, 10.0, 1e2])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["full", "commutative", "blocks"])
def test_the_sampled_runner_finds_no_escape_where_the_theorem_passes(family, n, cond):
    cone = _frame_cone(family, n, cond)
    assert cones._frame_oracle(cone) and cone.straight_algebra.star_closed
    # The single-level checks run at one level per N, so that the grid covers 1, 2 and 4.
    level = LEVELS[4 - n]
    reports = _audits(cone, level, 6, n)
    assert all(r.passed for r in reports)
    checks = _theorem_checks(reports)
    assert checks == {axiom: ("pass", THEOREM) for axioms in SAMPLED.values() for axiom in axioms}
    assert sampled_checks(cone, level, LEVELS, 6, n) == dict.fromkeys(checks)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["full", "commutative", "blocks", "scalar"])
def test_at_cond_1e3_the_theorem_passes_where_sampling_breaks(family, n, record_property):
    # Recorded, not asserted: the sampled runner may raise MembershipError (a
    # sample leaves M_n(B) by more than structure_tol) or report an escape that
    # only rounding makes, and estimate_main_constants may raise likewise.
    cone = _frame_cone(family, n, 1e3)
    assert all(r.passed for r in _audits(cone, 1, 6, n))
    outcomes = {"sampled": "MembershipError", "constants": "MembershipError"}
    try:
        got = sampled_checks(cone, 1, LEVELS, 6, n)
        outcomes["sampled"] = ",".join(k for k, v in got.items() if v is not None) or "ok"
    except MembershipError:
        pass
    try:
        estimate_main_constants(cone, LEVELS, 6, n)
        outcomes["constants"] = "ok"
    except MembershipError:
        pass
    record_property("cond_1e3", outcomes)


def test_the_runner_is_the_sampled_path_of_an_unframed_cone():
    # An instance `member_many` hides the frame, so the audits sample: their
    # verdicts and witnesses are the runner's, bit for bit.
    full = _frame_cone("full", 3, None).algebra
    for double in (_frame_cone("blocks", 3, 10.0), ZeroedCornerCone(full), SkewedLevelCone(full)):
        sampled = _sampled_path(double)
        assert not cones._frame_oracle(sampled)
        want = sampled_checks(double, 2, (1, 2), 8, 5)
        got = {c.axiom: c for r in _audits(sampled, 2, 8, 5, (1, 2)) for c in r.checks}
        for axiom, bad in want.items():
            assert got[axiom].verdict == ("pass" if bad is None else "fail")
            if bad is not None:
                assert got[axiom].witness.note == bad.note
                assert np.array_equal(got[axiom].witness.outside, bad.outside)


class _LenientLevels(StandardCone):
    """Skips the M_n(A) check of its members: a cone the theorem says nothing about."""

    def level_element(self, n, x):
        return np.asarray(x, dtype=complex)


def test_an_overridden_step_of_the_oracle_keeps_the_sampled_path(std_m2):
    cone = _LenientLevels(std_m2.algebra)
    assert cones._frame_oracle(std_m2) and not cones._frame_oracle(cone)
    checks = _theorem_checks(_audits(cone, 1, 4, 0, (1, 2)))
    assert len(checks) == 8 and all(detail != THEOREM for _, detail in checks.values())


@pytest.mark.parametrize("cond", [None, 1e2])
def test_a_frame_audit_draws_only_for_k(monkeypatch, cond):
    cone = _frame_cone("full", 3, cond)
    k_before = audit_star_admissible(_sampled_path(cone), LEVELS, samples=8, seed=1).constants["K"]
    calls = _recorded(monkeypatch)
    audit_algebraically_admissible(cone, 1, samples=8, seed=1)
    audit_matrix_ordered(cone, LEVELS, samples=8, seed=1)
    check_order_unit_archimedean(cone, 2, samples=8, seed=1)
    assert calls and all(name == "member_many" for name, _, _ in calls)
    calls.clear()
    report = audit_star_admissible(cone, LEVELS, samples=8, seed=1)
    assert [c for c in calls if c[0] != "member_many"] == [
        ("sample_span_many", n, 2 * 8 + 1) for n in LEVELS]
    k = report.constants["K"]
    assert (k.value, k.level) == (k_before.value, k_before.level)
    assert all(np.array_equal(a, b) for a, b in zip(k.witness, k_before.witness, strict=True))


# Per double, per audit (algebraically admissible at level 1, matrix-ordered and
# star-admissible at levels (1, 2), samples 8, seed 3): the verdicts in check
# order (p pass, f fail), each failure's witness (kind, level), and the repr and
# level of r4 and K.
PINNED = {
    ZeroedCornerCone: (("fppffp", "fppff", "fpppppppffp"),
                       [("unit", 1), ("algebra-conjugation", 1), ("order-unit", 1),
                        ("unit", 1), ("scalar-conjugation", 1), ("algebra-conjugation", 1),
                        ("unit", 1), ("scalar-conjugation", 1), ("order-bound", 1)],
                       (("0.9999999993017766", 1), ("1.0", 1))),
    AllHermitianCone: (("ppfppp", "pffpp", "pppfppfpppp"),
                       [("lineality", 1), ("lineality", 1), ("lineality", 2),
                        ("lineality", 1), ("lineality", 2)],
                       (("0.0", 1), ("1.0", 1))),
    ZeroCone: (("fppppp", "fpppp", "fppppppppfp"),
               [("unit", 1), ("unit", 1), ("unit", 1), ("order-bound", 2)],
               (("0.9999999993017766", 1), ("0.0", 1))),
    SkewedLevelCone: (("pppppp", "pppff", "ppppppppffp"),
                      [("scalar-conjugation", 2), ("algebra-conjugation", 2),
                       ("scalar-conjugation", 2), ("order-bound", 2)],
                      (("0.999999999375", 2), ("1.0", 1))),
    # A frame: its conjugation checks pass by the theorem (the sampled order-unit
    # check used to fail on its (a, i a) span draws, which leave the span), and
    # its K estimate still fails on them.
    PairedSpanCone: (("pppppp", "ppppp", "ppppppppppf"), [("norm-comparison", 1)],
                     (("0.999999999375", 2), ("0.0", 1))),
}


@pytest.mark.parametrize("double", list(PINNED), ids=lambda d: d.__name__)
def test_doubles_keep_their_verdicts_values_and_witnesses(double):
    cone = double(generate_algebra([E12], include_adjoints=True))
    reports = _audits(cone, 1, 8, 3, (1, 2))
    verdicts, witnesses, constants = PINNED[double]
    assert tuple("".join(c.verdict[0] for c in r.checks) for r in reports) == verdicts
    assert [(c.witness.kind, c.witness.level) for r in reports for c in r.failures()] == witnesses
    star = reports[2].constants
    assert tuple((repr(star[k].value), star[k].level) for k in ("r4", "K")) == constants
    frame = cones._frame_oracle(cone)
    assert frame == (double is PairedSpanCone)
    if frame:
        return
    # The sampled checks' witnesses are the runner's, bit for bit.
    got = {c.axiom: c.witness for r in reports for c in r.checks}
    want = sampled_checks(cone, 1, (1, 2), 8, 3)
    for axiom, bad in want.items():
        assert (got[axiom] is None) == (bad is None)
        if bad is not None:
            assert np.array_equal(got[axiom].outside, bad.outside)


@pytest.mark.parametrize("run", [
    lambda cone, k: audit_algebraically_admissible(cone, 1, samples=k),
    lambda cone, k: audit_matrix_ordered(cone, (1, 2), samples=k),
    lambda cone, k: audit_star_admissible(cone, (1, 2), samples=k),
    lambda cone, k: check_order_unit_archimedean(cone, 1, samples=k),
    lambda cone, k: estimate_main_constants(cone, (1, 2), samples=k),
], ids=["algebraically-admissible", "matrix-ordered", "star-admissible",
        "order-unit-archimedean", "main-constants"])
def test_fewer_than_one_sample_is_a_typed_error(run, std_m2):
    # Not a vacuous pass, an infinite alpha or numpy's ValueError.
    for k in (0, -1):
        with pytest.raises(MatOrderError, match=f"samples must be >= 1, got {k}"):
            run(std_m2, k)
    run(std_m2, 1)
