"""The star-admissible audit's order bound r4 (condition 4).

On a PSD-frame cone, straighten(c) is Hermitian with the spectrum of c for c
in span_R(C_n - C_n), so r4 = 1 and -e_n attains it: the audit asks -e_n
alone and certifies its shift.  The bound test runs the sampled candidate
set (`references.r4_sampled`) beside it; cones whose oracle is overridden
keep that sampled set, pinned here by value and witness."""

import copy

import numpy as np
import pytest

from conftest import E12, random_star_closed_algebra, random_unitary
from doubles import (
    AllHermitianCone,
    PairedSpanCone,
    SkewedLevelCone,
    ZeroCone,
    ZeroedCornerCone,
    instance_oracle,
)
from matorder import cones
from matorder.algebra import conjugate_algebra, generate_algebra
from matorder.cones import SimilarityCone, StandardCone, audit_star_admissible
from matorder.errors import MembershipError
from references import r4_sampled

LEVELS = (1, 2, 4)


def _frame_cone(n, cond, seed, family="full"):
    """StandardCone on A = M_n or a random star-closed A in M_n (family "sub")
    for cond 0, else the SimilarityCone of B = S^-1 A S with cond(S) = cond."""
    rng = np.random.default_rng([seed, n])
    if family == "full":
        alg = generate_algebra([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))],
                               include_adjoints=True)
    else:
        alg = random_star_closed_algebra(rng, n)
    if not cond:
        return StandardCone(alg)
    s = (random_unitary(rng, n) @ np.diag(np.geomspace(1.0, cond, n))
         @ random_unitary(rng, n).conj().T)
    return SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cond", [0, 1.0, 10.0, 1e2, 1e3])
@pytest.mark.parametrize("family", ["full", "sub"])
def test_no_sampled_candidate_beats_minus_e_by_tol_psd(family, cond, n, seed):
    cone = _frame_cone(n, cond, seed, family)
    assert cones._frame_oracle(cone)
    r4, bad = cones._r4_estimate(cone, LEVELS, 10, np.random.default_rng(seed))
    top = -cone.unit(LEVELS[-1])
    assert bad is None and abs(r4.value - 1.0) <= 1e-8
    assert r4.level == LEVELS[-1] and len(r4.witness) == 1
    assert np.array_equal(r4.witness[0], top)
    try:
        ref, ref_bad, asked = r4_sampled(cone, LEVELS, 10, np.random.default_rng(seed))
    except MembershipError:
        # At cond(S) = 1e3 the sampled elements of the scalar algebra leave
        # M_n(B) by more than structure_tol (the conditioning cliff); -e_n does not.
        assert (cond, cone.algebra.dim) == (1e3, 1)
        return
    assert ref_bad is None and len(asked) == 3 * (10 + 10 // 2 + 5)
    assert max(r for _, _, r in asked) <= r4.value + cone.tol_psd
    if ref.level == LEVELS[-1] and np.array_equal(ref.witness[0], top):
        assert ref.value == r4.value
    else:
        # A candidate of norm > 1 near a multiple of -e_n, within tol_psd.
        assert ref.value > r4.value


def _recorded(monkeypatch):
    """Wrap SimilarityCone's member_many, sample_many and sample_span_many to
    record (method, level, elements asked or drawn)."""
    calls = []
    for name in ("member_many", "sample_many", "sample_span_many"):
        method = getattr(SimilarityCone, name)

        def recorded(self, n, *args, name=name, method=method):
            calls.append((name, n, len(args[0]) if name == "member_many" else args[0]))
            return method(self, n, *args)

        monkeypatch.setattr(SimilarityCone, name, recorded)
    return calls


@pytest.mark.parametrize("cond", [0, 1e2])
def test_frame_r4_asks_minus_e_once_per_level_and_draws_nothing(monkeypatch, cond):
    cone = _frame_cone(3, cond, 4)
    calls = _recorded(monkeypatch)
    r4, bad = cones._r4_estimate(cone, LEVELS, 50, np.random.default_rng(0))
    assert bad is None
    # -e_n's shift is enclosed by the PSD rule: no level asks the oracle.
    assert calls == []
    assert r4.level == LEVELS[-1] and np.array_equal(r4.witness[0], -cone.unit(LEVELS[-1]))
    # The r4 bits of the certificate's replay, on an opaque copy, at the top level.
    n, minus_e = LEVELS[-1], r4.witness[0]
    shift_tol = 1e-9 * (1.0 + np.sqrt(cone.level_dim(n)))
    assert cones._inf_shifts(instance_oracle(cone), n, [minus_e], cone.norm_many(n, [minus_e]),
                             shift_tol) == [r4.value]
    assert [(name, k) for name, k, _ in calls] == [("member_many", n)]


def test_frame_r4_falls_back_to_bisection_without_a_certificate():
    cone = copy.copy(_frame_cone(2, 10.0, 5))
    cone.min_shift_pair = lambda n, c: (None, None)
    r4, bad = cones._r4_estimate(cone, LEVELS, 50, np.random.default_rng(0))
    assert bad is None
    # Each level's bisection midpoint lies within its shift_tol of 1 / (1 + t).
    assert abs(r4.value - 1.0 / (1.0 + cone.tol_psd)) <= 1e-8
    assert np.array_equal(r4.witness[0], -cone.unit(r4.level))


def test_instance_overrides_of_the_oracle_keep_the_sampled_set(std_m2):
    counting = copy.copy(std_m2)
    counting.member_many = lambda n, xs: std_m2.member_many(n, xs)
    assert cones._frame_oracle(std_m2) and not cones._frame_oracle(counting)
    # A span-draw double keeps the PSD rule, so it is a frame.
    assert cones._frame_oracle(PairedSpanCone(std_m2.algebra))


# (double, levels): r4 check verdict, repr of the r4 value, its level, and the
# order-bound witness's level (None when the check passes).
PINNED = [
    (ZeroedCornerCone, (1, 2), "fail", "0.9999999993017766", 1, 1),
    (ZeroedCornerCone, (1, 2, 4), "fail", "0.9999999993017766", 1, 1),
    (AllHermitianCone, (1, 2), "pass", "0.0", 1, None),
    (ZeroCone, (1, 2, 4), "fail", "0.9999999993017766", 1, 2),
    (SkewedLevelCone, (1, 2), "fail", "0.9999999993982625", 1, 2),
    (SkewedLevelCone, (1, 2, 4), "fail", "0.9999999993791836", 1, 2),
]


@pytest.mark.parametrize("double, levels, verdict, value, level, bad_level", PINNED,
                         ids=[f"{d.__name__}-{len(lv)}" for d, lv, *_ in PINNED])
def test_overridden_oracles_keep_their_sampled_r4(double, levels, verdict, value, level,
                                                  bad_level):
    cone = double(generate_algebra([E12], include_adjoints=True))
    assert not cones._frame_oracle(cone)
    samples, seed = (8, 8) if len(levels) == 2 else (6, 3)
    report = audit_star_admissible(cone, levels=levels, samples=samples, seed=seed)
    check = next(c for c in report.checks if c.axiom == "order-bound-r4")
    r4 = report.constants["r4"]
    assert (check.verdict, repr(r4.value), r4.level) == (verdict, value, level)
    assert check.detail == f"empirical r4 = {r4.value:.12g}"
    assert (check.witness and check.witness.level) == bad_level
    # The same draws, candidates, value and witnesses as the sampled reference
    # on the r4 child stream of the audit's seed.
    ref, ref_bad, _ = r4_sampled(cone, levels, samples, cones._streams(seed, 4)[2])
    assert (ref.value, ref.level) == (r4.value, r4.level)
    assert all(np.array_equal(a, b) for a, b in zip(ref.witness, r4.witness, strict=True))
    assert (ref_bad is None) == (check.witness is None)
    if ref_bad is not None:
        assert (ref_bad.kind, ref_bad.level) == (check.witness.kind, check.witness.level)
        assert np.array_equal(ref_bad.outside, check.witness.outside)
