"""Exact order-unit shifts against the bisection fallback.

The PSD-frame cones compute inf{r : r e + c in C} from one eigensolve and
certify it with their own membership oracle; `_opaque` hides `min_shift_pair` so
the same cone takes the bisection fallback.
"""

import copy
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_similarity, random_star_closed_algebra
from doubles import AllHermitianCone, ZeroCone, ZeroedCornerCone
from matorder import order_norms
from matorder.algebra import conjugate_algebra, random_element
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    _exact_brackets,
    _inf_shifts,
    _sup_shifts_down,
    audit_algebraically_admissible,
    audit_star_admissible,
    replay_witness,
)
from matorder.errors import UnboundedAbove
from matorder.order_norms import (
    DEFAULT_BISECT_TOL,
    NormReport,
    null_space,
    order_unit_seminorm,
    pre_cstar_norm,
)


def _opaque(cone):
    """The same cone with its closed-form shifts hidden."""
    out = copy.copy(cone)
    out.min_shift_pair = lambda n, c: (None, None)
    return out


def _counting(cone):
    """The same cone with a counter on the elements its membership is asked about."""
    out = copy.copy(cone)
    out.calls = 0
    member_many = cone.member_many

    def counted(n, xs):
        out.calls += len(xs)
        return member_many(n, xs)

    out.member_many = counted
    return out


def _draw_cone(seed, similarity):
    rng = np.random.default_rng(seed)
    alg = random_star_closed_algebra(rng, nmax=4)
    if not similarity:
        return StandardCone(alg), rng
    s = random_similarity(rng, alg.ambient_dim, max_log10_cond=2.0)
    assert np.linalg.cond(s) <= 1e2 * (1 + 1e-9)
    return SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s), rng


def _assert_certified(pred, lo, value, hi):
    """The oracle confirms the bracket: member at hi and at the value,
    non-member at lo (a degenerate bracket [0, 0] needs only pred(0))."""
    assert lo <= value <= hi
    assert pred(hi) and pred(value)
    if hi > 0.0:
        assert not pred(lo)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 4)), st.booleans())
def test_exact_shifts_match_bisection_fallback(seed, n, similarity):
    cone, rng = _draw_cone(seed, similarity)
    slow = _opaque(cone)
    e = cone.unit(n)
    tol = DEFAULT_BISECT_TOL

    a = cone.sample_span_many(n, 1, rng)[0]
    exact, fallback = order_unit_seminorm(cone, n, a), order_unit_seminorm(slow, n, a)
    assert exact.iterations == 0 and fallback.iterations > 0
    assert abs(exact.value - fallback.value) <= tol * (1.0 + fallback.value)
    _assert_certified(lambda r: all(cone.member_many(n, [r * e + a, r * e - a])),
                      exact.bracket[0], exact.value, exact.bracket[1])

    x = random_element(cone.algebra, rng, level=n)
    z = cone.sharp_block(x) @ x
    exact, fallback = pre_cstar_norm(cone, None, n, x), pre_cstar_norm(slow, None, n, x)
    assert exact.iterations == 0 and fallback.iterations > 0
    assert abs(exact.value - fallback.value) <= tol * (1.0 + fallback.value)
    _assert_certified(lambda r: all(cone.member_many(n, [r * r * e + z, r * r * e - z])),
                      exact.bracket[0], exact.value, exact.bracket[1])

    c = -cone.sample_many(n, 1, rng)[0]
    scale = cone.norm_many(n, [c])[0]
    width = 1e-9
    r_exact = _inf_shifts(cone, n, [c], [scale], width)[0]
    assert abs(r_exact - _inf_shifts(slow, n, [c], [scale], width)[0]) <= width
    _assert_certified(lambda r: cone.member_many(n, [r * scale * e + c])[0],
                      r_exact - width, r_exact, r_exact + width)

    c = cone.sample_many(n, 1, rng)[0]
    width = 0.2 * cone.tol_psd * (1.0 + cone.norm_many(n, [c])[0])
    [(lo, hi)], [(flo, fhi)] = (_sup_shifts_down(k, n, [c], [width]) for k in (cone, slow))
    assert hi - lo <= width
    assert abs(0.5 * (lo + hi) - 0.5 * (flo + fhi)) <= width
    # In r = -mu the member side is r = -lo.
    _assert_certified(lambda r: cone.member_many(n, [r * e + c])[0], -hi, -0.5 * (lo + hi), -lo)


@pytest.mark.parametrize("fixture,n", [("std_m2", 1), ("std_m3", 2), ("worked_sim_cone", 4)])
def test_exact_path_work_is_pinned(fixture, n, request):
    cone = _counting(request.getfixturevalue(fixture))
    rng = np.random.default_rng(5)
    a = cone.sample_span_many(n, 1, rng)[0]
    rep = order_unit_seminorm(cone, n, a)
    assert rep.iterations == 0 and rep.oracle_calls <= 3
    rep = pre_cstar_norm(cone, None, n, random_element(cone.algebra, rng, level=n))
    assert rep.iterations == 0 and rep.oracle_calls <= 6
    cone.calls = 0
    assert _inf_shifts(cone, n, [a], [1.0], 1e-9)[0] is not None
    assert cone.calls <= 3


class _HiddenPair(StandardCone):
    """A standard cone that overrides only `min_shift_pair`, the one exact shift."""

    def min_shift_pair(self, n, c):
        return None, None


def test_a_cone_that_hides_its_shift_pair_is_opaque_to_norms_and_audits(std_m3):
    cone, want = _counting(_HiddenPair(std_m3.algebra)), _opaque(std_m3)
    rng = np.random.default_rng(7)
    cs = [cone.sample_span_many(2, 1, rng)[0], -cone.sample_many(2, 1, rng)[0],
          cone.sample_many(2, 1, rng)[0]]
    ones = [1.0] * len(cs)
    # No exact shift to certify, so no bracket and no membership question.
    assert _exact_brackets(cone, 2, cs, ones, [1e-9] * len(cs), 0.0) == [None] * len(cs)
    assert _exact_brackets(cone, 2, cs, ones, [1e-9] * len(cs), -np.inf) == [None] * len(cs)
    assert cone.calls == 0
    assert _inf_shifts(cone, 2, cs, ones, 1e-9) == _inf_shifts(want, 2, cs, ones, 1e-9)
    x = random_element(cone.algebra, rng, level=2)
    for norm in (lambda k: order_unit_seminorm(k, 2, cs[0]), lambda k: pre_cstar_norm(k, None, 2, x)):
        got = norm(cone)
        assert got.iterations > 0 and got == norm(want)


def test_zero_cone_reaches_fallback_and_stays_unbounded(m2_full):
    cone = ZeroCone(m2_full)
    a = np.diag([1.0, 2.0]).astype(complex)
    assert cone.min_shift_pair(1, a)[0] is not None  # inherited, but never certified
    with pytest.raises(UnboundedAbove):
        order_unit_seminorm(cone, 1, a)
    assert _inf_shifts(cone, 1, [a], [1.0], 1e-9)[0] is None


def test_all_hermitian_null_space_stays_full(m2_full):
    cone = AllHermitianCone(m2_full)
    assert null_space(cone, 2).shape[0] == 4 * cone.algebra.dim
    report = audit_algebraically_admissible(cone, 1, samples=8, seed=22)
    opaque = audit_algebraically_admissible(_opaque(cone), 1, samples=8, seed=22)
    assert [c.verdict for c in report.checks] == [c.verdict for c in opaque.checks]


@pytest.mark.parametrize("audit", [audit_algebraically_admissible, audit_star_admissible])
def test_zeroed_corner_audits_fail_with_replayable_witnesses(m2_full, audit):
    cone = ZeroedCornerCone(m2_full)
    report = audit(cone, samples=8, seed=8)
    opaque = audit(_opaque(cone), samples=8, seed=8)
    assert report.failures()
    assert [c.verdict for c in report.checks] == [c.verdict for c in opaque.checks]
    for check in report.failures():
        if check.witness is not None:
            assert replay_witness(cone, check.witness)


def test_null_space_passes_bisect_tol_to_every_norm(monkeypatch, std_m2):
    basis = std_m2.algebra.basis
    seen = []

    # The real norm's own default, which null_space leaves in place.
    default = inspect.signature(pre_cstar_norm).parameters["bisect_tol"].default

    def fake(cone, involution, n, x, bisect_tol=default):
        seen.append(bisect_tol)
        # Basis directions look null, their combination does not: this
        # forces the one-by-one re-verification.
        small = any(np.array_equal(x, b) for b in basis)
        return NormReport(0.0 if small else 1.0, (0.0, 0.0), 0, 0)

    monkeypatch.setattr(order_norms, "pre_cstar_norm", fake)
    out = null_space(std_m2, 1)
    assert len(seen) == 2 * len(basis) + 1
    assert seen == [DEFAULT_BISECT_TOL] * len(seen)
    assert out.shape[0] == len(basis)
