"""The sampled-inclusion runner behind every audit check: per-check seeded
streams, the shared conjugation generators, the "unknown" span verdict,
replayable order-unit witnesses, and no algebra built by a passing
star-admissible audit."""

import numpy as np

from conftest import WORKED_S
import pytest

from doubles import (AllHermitianCone, GappedCone, NoSpanCone, SkewedLevelCone, ZeroCone,
                     ZeroedCornerCone)
from matorder import algebra
from matorder.algebra import conjugate_algebra
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    _scalar_conjugations,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
    check_order_unit_archimedean,
    replay_witness,
)


class _RejectsFirstCandidate(StandardCone):
    """Rejects the first non-unit element it is asked about, then answers
    honestly: in the star-admissible audit that fails 3i on its first trial."""

    def __init__(self, alg):
        super().__init__(alg)
        self.rejected = False

    def member_many(self, n, xs):
        got = super().member_many(n, xs)
        for k, x in enumerate(xs):
            if not self.rejected and not np.array_equal(x, self.unit(n)):
                self.rejected = True
                got[k] = False
        return got


class _NoSpanAllHermitianCone(AllHermitianCone):
    """Every Hermitian element is a member, so +-e both are, and no exact span is claimed."""

    def span_basis(self, n):
        return None


# The three audits that check pointedness, each at level 1.
_POINTED_AUDITS = {
    "algebraically-admissible": lambda cone: audit_algebraically_admissible(cone, 1, samples=4),
    "matrix-ordered": lambda cone: audit_matrix_ordered(cone, (1,), samples=4),
    "star-admissible": lambda cone: audit_star_admissible(cone, (1,), samples=4),
}


class _SpanSampledFromCone(ZeroedCornerCone):
    """Span samples are cone samples: PSD with a zero (0, 0) entry, so
    r e + a and r e - a never both lie in C and the seminorm is unbounded."""

    def sample_span_many(self, n, k, rng):
        return self.sample_many(n, k, rng)


def _constants_equal(a, b):
    assert (a.name, a.value, a.level) == (b.name, b.value, b.level)
    assert len(a.witness) == len(b.witness)
    for x, y in zip(a.witness, b.witness):
        assert np.array_equal(x, y)


def test_early_exit_of_one_check_leaves_later_draws_unchanged(m2_full):
    honest = audit_star_admissible(StandardCone(m2_full), levels=(1, 2), samples=10, seed=3)
    cone = _RejectsFirstCandidate(m2_full)
    report = audit_star_admissible(cone, levels=(1, 2), samples=10, seed=3)
    failed = report.failures()
    assert [c.axiom for c in failed] == ["difference-conjugation-3i"]
    assert failed[0].witness.kind == "difference-conjugation"
    assert honest.passed
    for name in ("r4", "K"):
        _constants_equal(report.constants[name], honest.constants[name])


def test_missing_span_basis_gives_unknown_span_verdicts(m2_full):
    report = audit_star_admissible(NoSpanCone(m2_full), levels=(1, 2), samples=4, seed=0)
    verdicts = {c.axiom: c.verdict for c in report.checks}
    for n in (1, 2):
        assert verdicts[f"span-decomposition-2i-level-{n}"] == "unknown"
        assert verdicts[f"real-imag-independence-2iii-level-{n}"] == "unknown"
        assert verdicts[f"pointedness-level-{n}"] == "unknown"
    assert not report.passed
    assert not report.failures()
    assert "K" in report.constants and "r4" in report.constants


@pytest.mark.parametrize("audit", sorted(_POINTED_AUDITS))
def test_pointedness_fails_on_plus_minus_e_without_a_span(m2_full, audit):
    cone = _NoSpanAllHermitianCone(m2_full)
    report = _POINTED_AUDITS[audit](cone)
    check = {c.axiom: c for c in report.checks}["pointedness-level-1"]
    assert check.verdict == "fail" and not report.passed
    assert check.witness.kind == "lineality"
    plus, minus = check.witness.members
    np.testing.assert_array_equal(plus, cone.unit(1))
    np.testing.assert_array_equal(minus, -cone.unit(1))
    assert replay_witness(cone, check.witness)


@pytest.mark.parametrize("audit", sorted(_POINTED_AUDITS))
def test_pointedness_reads_unknown_on_an_honest_cone_without_a_span(m2_full, audit):
    report = _POINTED_AUDITS[audit](NoSpanCone(m2_full))
    check = {c.axiom: c for c in report.checks}["pointedness-level-1"]
    assert (check.verdict, check.detail, check.witness) == (
        "unknown", "no exact span available", None)
    assert not report.passed
    assert not report.failures()


def test_unbounded_seminorm_witness_replays(m2_full):
    cone = _SpanSampledFromCone(m2_full)
    report = check_order_unit_archimedean(cone, 1, samples=4, seed=0)
    check = {c.axiom: c for c in report.checks}["order-unit"]
    assert check.verdict == "fail"
    # The sample itself is a cone member; its negative is the escape.
    assert cone.member_many(1, [-check.witness.outside])[0]
    assert replay_witness(cone, check.witness)


def test_audit_fails_order_unit_with_the_negated_span_sample(m2_full):
    cone = _SpanSampledFromCone(m2_full)
    report = audit_algebraically_admissible(cone, 1, samples=16, seed=0)
    check = {c.axiom: c for c in report.checks}["order-unit"]
    assert check.verdict == "fail"
    # a is a cone sample, so r e + a enters C at r = 0; r e - a never does.
    assert check.witness.note == "no shift r e - a entered the cone"
    assert cone.member_many(1, [-check.witness.outside])[0]
    assert replay_witness(cone, check.witness)


def test_scalar_conjugations_add_permutation_and_row_selection(m2_full):
    cone = StandardCone(m2_full)
    rng = np.random.default_rng(0)
    got = list(_scalar_conjugations(cone, (1, 2), 0, rng))
    # No Gaussian trials: (1, 2) row selection, (2, 2) cyclic permutation;
    # nothing embeds level 2 into level 1, and at (1, 1) the permutation
    # would be the identity (its candidate the sample itself), so none.
    assert [w.level for w in got] == [2, 2]
    assert [len(w.members) for w in got] == [0, 1]
    perm = np.kron(np.roll(np.eye(2), 1, axis=1), np.eye(2))
    c = got[1].members[0]
    np.testing.assert_allclose(got[1].outside, perm.T @ c @ perm, atol=0)
    assert not got[0].outside[2:].any() and not got[0].outside[:, 2:].any()
    for w in got:
        assert cone.member_many(w.level, [w.outside])[0]
        assert not replay_witness(cone, w)  # nothing escaped an honest cone


def test_star_audit_amplifies_no_source_algebra(monkeypatch, m2_full):
    cone = SimilarityCone(conjugate_algebra(m2_full, np.linalg.inv(WORKED_S)), WORKED_S)
    cone.straight_algebra  # the level-1 A = S B S^-1, built on first read
    seen = []
    inner = algebra.OperatorAlgebra.__post_init__

    def counting(self):
        seen.append(self.ambient_dim)
        inner(self)

    monkeypatch.setattr(algebra.OperatorAlgebra, "__post_init__", counting)
    report = audit_star_admissible(cone, levels=(1, 2, 4), samples=4, seed=0)
    assert report.passed
    # Span bases, 2i/2iii ranks and lineality all come from level 1.
    assert not seen


def test_rectangular_conjugation_witnesses_replay(m2_full):
    # Rectangular witnesses carry no member (a Witness has one level);
    # square ones carry c, which must replay as a member at that level.
    cone = ZeroedCornerCone(m2_full)
    rng = np.random.default_rng(1)
    escapes = [w for w in _scalar_conjugations(cone, (1, 2), 3, rng)
               if not cone.member_many(w.level, [w.outside])[0]]
    assert escapes
    for w in escapes:
        assert replay_witness(cone, w)


class _NormCappedCone(StandardCone):
    """PSD elements of operator norm at most 1.5, sampled at norm 1: a sum of
    two samples with coefficients up to 2 can leave it, so the conic
    combination check fails."""

    def member_many(self, n, xs):
        return [ok and np.linalg.norm(x, 2) <= 1.5
                for x, ok in zip(xs, super().member_many(n, xs))]

    def sample_many(self, n, k, rng):
        return [x / np.linalg.norm(x, 2) for x in super().sample_many(n, k, rng)]


def test_conic_combination_witness_replays_from_one_stacked_draw(monkeypatch, m2_full):
    cone = _NormCappedCone(m2_full)
    draws, sample_many = [], cone.sample_many

    def recorded(n, k, rng):
        draws.append((n, k))
        return sample_many(n, k, rng)

    monkeypatch.setattr(cone, "sample_many", recorded)
    for seed in (0, 1, 2):
        draws.clear()
        report = audit_algebraically_admissible(cone, 2, samples=8, seed=seed)
        # The check's first draw is one stack holding both members of every trial.
        assert draws[0] == (2, 16)
        check = {c.axiom: c for c in report.checks}["cone-combinations"]
        assert check.verdict == "fail" and check.witness.kind == "conic-combination"
        (c1, c2), outside = check.witness.members, check.witness.outside
        lam, beta = (float(t) for t in check.witness.note[14:-1].split(", "))
        np.testing.assert_allclose(outside, lam * c1 + beta * c2, atol=2e-3)
        assert replay_witness(cone, check.witness)


_SPAN_KINDS = ("norm-comparison", "span-deficiency", "span-overlap")


@pytest.mark.parametrize("double", [AllHermitianCone, ZeroedCornerCone, ZeroCone,
                                    SkewedLevelCone, GappedCone])
def test_replay_keeps_the_element_by_element_verdict_on_every_double_witness(double, m2_full):
    # One stacked call decides each membership witness as asking its members,
    # then its outside, one element at a time did.
    cone = double(m2_full)
    witnesses = [c.witness for report in (
        audit_algebraically_admissible(cone, n=1, samples=6, seed=3),
        audit_matrix_ordered(cone, levels=(1, 2), samples=6, seed=3),
        audit_star_admissible(cone, levels=(1, 2), samples=6, seed=3),
    ) for c in report.checks if c.witness is not None and c.witness.kind not in _SPAN_KINDS]
    assert witnesses
    for w in witnesses:
        one_at_a_time = (all(cone.member_many(w.level, [m])[0] for m in w.members)
                         and (w.outside is None or not cone.member_many(w.level, [w.outside])[0]))
        assert replay_witness(cone, w) == one_at_a_time
