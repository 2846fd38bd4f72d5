"""The batched membership oracle: `member_many` against itself asked one element
at a time, its errors, overriding doubles asked through the stacked form, the
sampled-inclusion runner that asks it one same-level run at a time, and the
shift searches and norms that ask it one sign at a time."""

import copy

import numpy as np
import pytest

from conftest import E11, E12
from doubles import SkewedLevelCone, ZeroedCornerCone
from matorder.algebra import random_element
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    Witness,
    _first_escape,
    _inf_shifts,
    _scalar_conjugations,
    _sup_shifts_down,
    check_order_unit_archimedean,
)
from matorder.errors import DimensionMismatch, MembershipError
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from references import certify, membership_residual, shift_bisection
from test_shifts import _opaque


class _CountingCone(StandardCone):
    """An honest cone that records every element its `member_many` is asked about."""

    def __init__(self, alg):
        super().__init__(alg)
        self.asked = []

    def member_many(self, n, xs):
        self.asked.extend(xs)
        return super().member_many(n, xs)


def _candidates(cone, n, rng):
    return ([cone.sample_many(n, 1, rng)[0] for _ in range(3)] + [-cone.sample_many(n, 1, rng)[0]]
            + [cone.sample_span_many(n, 1, rng)[0] for _ in range(3)]
            + [cone.unit(n), -cone.unit(n)])


@pytest.mark.parametrize("fixture", ["std_m3", "worked_sim_cone", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_member_many_matches_member(fixture, n, request):
    cone = request.getfixturevalue(fixture)
    xs = _candidates(cone, n, np.random.default_rng(n))
    got = cone.member_many(n, xs)
    assert got == [cone.member_many(n, [x])[0] for x in xs]
    assert True in got and False in got
    assert cone.member_many(n, []) == []


@pytest.mark.parametrize("fixture", ["std_m3", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_member_many_matches_member_at_certified_bracket_ends(fixture, n, request):
    # The exact shift r(c) puts lambda_min of r e + c on the PSD slack itself; the
    # bracket ends sit a tenth of tol_psd either side of it.
    cone = request.getfixturevalue(fixture)
    rng = np.random.default_rng(10 + n)
    e = cone.unit(n)
    xs = [e]
    for c in (cone.sample_span_many(n, 1, rng)[0], -cone.sample_many(n, 1, rng)[0],
              cone.sample_many(n, 1, rng)[0]):
        r = cone.min_shift_pair(n, c)[0]
        bis = shift_bisection(cone, n, (c,))
        width = 0.2 * cone.tol_psd * (1.0 + cone.norm_many(n, [c])[0])
        found = certify(bis, r, width, floor=-np.inf)
        assert found is not None
        xs += [t * e + c for t in (found[0], r, found[1])]
    got = cone.member_many(n, xs)
    assert got == [cone.member_many(n, [x])[0] for x in xs]
    assert got[0] and all(got[3::3]) and not any(got[1::3])


def test_member_many_raises_as_member(std_m2, span_i_e11):
    e = np.eye(2, dtype=complex)
    for n, xs in [(1, [np.eye(3)]), (1, [e, np.eye(3)]), (2, [np.eye(2)]), (0, [e])]:
        with pytest.raises(DimensionMismatch):
            std_m2.member_many(n, xs)
    cone = StandardCone(span_i_e11)
    with pytest.raises(MembershipError) as err:
        cone.member_many(1, [E11, E11 + E12, E11])
    assert err.value.residual == pytest.approx(membership_residual(span_i_e11, E12), rel=1e-12)


def test_member_many_asks_an_overriding_double_once_per_element(m2_full):
    cone = _CountingCone(m2_full)
    xs = _candidates(cone, 2, np.random.default_rng(0))
    assert cone.member_many(2, xs) == [StandardCone(m2_full).member_many(2, [x])[0] for x in xs]
    assert len(cone.asked) == len(xs)
    assert all(a is x for a, x in zip(cone.asked, xs))


def test_member_many_falls_back_for_overridden_straighten_and_instance_member(m2_full):
    rng = np.random.default_rng(1)
    skewed = SkewedLevelCone(m2_full)
    xs = ([skewed.sample_many(2, 1, rng)[0] for _ in range(3)]
          + [StandardCone(m2_full).sample_many(2, 1, rng)[0]])
    # The overridden straighten is asked once, with the whole stack.
    shapes, straighten = [], skewed.straighten
    skewed.straighten = lambda n, x: shapes.append(np.shape(x)) or straighten(n, x)
    got = skewed.member_many(2, xs)
    assert shapes == [(len(xs), 4, 4)]
    assert got == [skewed.member_many(2, [x])[0] for x in xs] and False in got
    counted = copy.copy(StandardCone(m2_full))
    asked = []
    counted.member_many = lambda n, xs: asked.extend(xs) or [True] * len(xs)
    assert counted.member_many(1, [-np.eye(2)]) == [True] and len(asked) == 1
    # A one-element question is the same stacked call, asked again.
    assert counted.member_many(1, [-np.eye(2)])[0] is True and len(asked) == 2


def test_first_escape_reports_the_first_escape_of_a_run_in_draw_order(std_m2):
    e1, e2 = std_m2.unit(1), std_m2.unit(2)
    plan = [(1, e1), (2, e2), (2, -e2), (2, e2), (2, -2.0 * e2), (1, -e1), (1, e1)]
    drawn = []

    def candidates():
        for k, (level, x) in enumerate(plan):
            drawn.append(k)
            yield Witness("test", level, (), x, str(k))

    bad = _first_escape(std_m2, candidates())
    assert bad.note == "2" and bad.level == 2
    # The level-2 run is drawn whole; the next candidate shows where it ends,
    # and nothing after it is drawn.
    assert drawn == [0, 1, 2, 3, 4, 5]
    assert _first_escape(std_m2, iter([Witness("test", 2, (), e2)])) is None


def test_first_escape_on_a_double_matches_the_sequential_runner(m2_full):
    cone = ZeroedCornerCone(m2_full)
    runs = [list(_scalar_conjugations(cone, (1, 2), 3, np.random.default_rng(7)))
            for _ in range(2)]
    want = next(w for w in runs[0] if not cone.member_many(w.level, [w.outside])[0])
    got = _first_escape(cone, iter(runs[1]))
    assert (got.level, got.note) == (want.level, want.note)
    np.testing.assert_array_equal(got.outside, want.outside)


class _PerElement(SimilarityCone):
    """The same cone with a `member_many` that asks the inherited stacked form
    one element at a time."""

    def member_many(self, n, xs):
        return [SimilarityCone.member_many(self, n, [x])[0] for x in xs]


class _Recording(SimilarityCone):
    """An honest cone that records every batch handed to `member_many`, with
    its verdicts (the stacked path still decides it)."""

    def __init__(self, alg, s):
        super().__init__(alg, s)
        self.batches = []

    def member_many(self, n, xs):
        got = super().member_many(n, xs)
        self.batches.append((list(xs), got))
        return got


def _audit_digest(report):
    return [(c.axiom, c.verdict, c.detail) + (() if c.witness is None else (
        c.witness.kind, c.witness.level, c.witness.note, c.witness.outside.tobytes()))
        for c in report.checks]


def _sampled_path(cone):
    """The same cone asked through an instance `member_many` (its own stacked
    pass), so that its audits sample instead of passing by the theorem."""
    out = copy.copy(cone)
    out.member_many = lambda n, xs: cone.member_many(n, xs)
    return out


@pytest.mark.parametrize("opaque", [False, True])
@pytest.mark.parametrize("fixture", ["std_m3", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_batched_and_per_element_paths_give_identical_results(fixture, n, opaque, request):
    cone = request.getfixturevalue(fixture)
    pair = [_sampled_path(cone), _PerElement(cone.algebra, cone.s, cone.tol_psd)]
    if opaque:
        pair = [_opaque(k) for k in pair]
    rng = np.random.default_rng(30 + n)
    a, x = cone.sample_span_many(n, 1, rng)[0], random_element(cone.algebra, rng, level=n)
    c, below = cone.sample_many(n, 1, rng)[0], -cone.sample_many(n, 1, rng)[0]
    width = 0.2 * cone.tol_psd * (1.0 + cone.norm_many(n, [c])[0])
    fast, slow = ([order_unit_seminorm(k, n, a), pre_cstar_norm(k, None, n, x),
                   _inf_shifts(k, n, [below], [cone.norm_many(n, [below])[0]], 1e-9)[0],
                   _sup_shifts_down(k, n, [c], [width])[0],
                   _audit_digest(check_order_unit_archimedean(k, n, samples=3, seed=n))]
                  for k in pair)
    assert fast == slow
    assert (fast[0].iterations > 0) == opaque


@pytest.mark.parametrize("fixture", ["std_m3", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_exact_two_sided_certificate_decides_five_matrices_in_two_calls(fixture, n, request):
    base = request.getfixturevalue(fixture)
    cone = _Recording(base.algebra, base.s)
    a = cone.sample_span_many(n, 1, np.random.default_rng(40 + n))[0]
    rep = order_unit_seminorm(cone, n, a)
    assert (rep.iterations, rep.oracle_calls) == (0, 3)
    # One call: hi, mid and lo for the binding sign, which fails at lo, then
    # hi and mid of the other sign, and nothing more.
    [(xs, got)] = cone.batches
    binding, other = xs[:3], xs[3:]
    assert got == [True, True, False, True, True]
    sign = 1.0 if np.allclose(binding[0] - other[0], 2.0 * a) else -1.0
    for k in range(2):
        np.testing.assert_allclose(binding[k] - other[k], sign * 2.0 * a, atol=1e-12)
    np.testing.assert_allclose(binding[0] - binding[1], binding[1] - binding[2], atol=1e-12)
    cone.batches.clear()
    assert _inf_shifts(cone, n, [a], [1.0], 1e-9)[0] is not None
    assert [len(xs) for xs, _ in cone.batches] == [3]


@pytest.mark.parametrize("fixture", ["std_m3", "planted_sim_cone"])
def test_a_refine_step_asks_the_second_sign_only_inside_the_first(fixture, request):
    base = request.getfixturevalue(fixture)
    cone = _opaque(_Recording(base.algebra, base.s))
    n, e = 2, cone.unit(2)
    a = cone.sample_span_many(n, 1, np.random.default_rng(50))[0]
    rep = order_unit_seminorm(cone, n, a)
    assert rep.iterations > 10
    # x = t e + s a: the traceless part a0 of a is orthogonal to e, so the
    # sign s is that of <x, a0> and t comes back from x - s a.
    a0 = a - (np.trace(a) / np.trace(e)) * e
    asked = []
    for xs, got in cone.batches:
        assert len(xs) == 1
        s = np.sign(np.vdot(a0, xs[0]).real)
        asked.append((s, np.trace(xs[0] - s * a).real / np.trace(e).real, got[0]))
    assert rep.oracle_calls == sum(s > 0 for s, _, _ in asked)
    for k, (s, t, inside) in enumerate(asked):
        follows = k + 1 < len(asked) and asked[k + 1][0] < 0
        if s > 0:
            assert follows == inside
        else:
            assert k > 0 and asked[k - 1][0] > 0 and asked[k - 1][2]
            assert t == pytest.approx(asked[k - 1][1], abs=1e-12)
