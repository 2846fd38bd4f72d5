"""The audits' stacked passes against their one-element references: stacked
draws keep the stream, `norm_many` and a stacked `min_shift_pair` keep the bits,
`_exact_brackets` and `_inf_shifts` agree with the per-element certificates
and searches they replace (certified, opaque and corrupted cones), every
double is asked through its stacked overrides, empty batches work, and one
`random_complex_many` draw is the stream of single draws."""

import numpy as np
import pytest

from doubles import AllHermitianCone, SkewedLevelCone, ZeroCone, ZeroedCornerCone
from matorder import _linalg as la
from matorder.algebra import random_element
from matorder.cones import (
    StandardCone,
    _algebra_conjugations,
    _exact_brackets,
    _inf_shifts,
)
from matorder.errors import UnboundedAbove
from references import certify, shift_bisection
from test_shifts import _opaque

CONES = ["std_m3", "worked_sim_cone", "planted_sim_cone"]
DOUBLES = [AllHermitianCone, ZeroedCornerCone, ZeroCone, SkewedLevelCone]


def _reference_inf_shift(cone, n, c, scale, abs_tol):
    """The one-element shift search the stacked form replaced."""
    bis = shift_bisection(cone, n, (c,), scale)
    exact = cone.min_shift_pair(n, c)[0]
    try:
        lo, hi = bis.search(certify(bis, None if exact is None else exact / scale, abs_tol),
                            lambda: la.opnorm(cone.straighten(n, c)) / scale + 1.0,
                            lambda l, h: abs_tol)
    except UnboundedAbove:
        return None
    return 0.5 * (lo + hi)


def _reference_draw(cone, n, rng, span):
    """One cone (or span) draw as made before the stacked form."""
    g = random_element(cone.straight_algebra, rng, level=n)
    return cone.frame.unstraighten(0.5 * (g + la.dagger(g)) if span else la.dagger(g) @ g)


def _candidates(cone, n, rng):
    """Span samples, negated and differenced cone samples, and -e."""
    return ([cone.sample_span_many(n, 1, rng)[0] for _ in range(3)]
            + [-cone.sample_many(n, 1, rng)[0]]
            + [cone.sample_many(n, 1, rng)[0] - cone.sample_many(n, 1, rng)[0], -cone.unit(n)])


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("span", [False, True])
def test_stacked_draws_match_single_draws(fixture, n, span, request):
    cone = request.getfixturevalue(fixture)
    stacked, single, ref = (np.random.default_rng(10 + n) for _ in range(3))
    draw = cone.sample_span_many if span else cone.sample_many
    many = draw(n, 5, stacked)
    one = np.stack([draw(n, 1, single)[0] for _ in range(5)])
    assert many.shape == one.shape == (5, cone.level_dim(n), cone.level_dim(n))
    np.testing.assert_allclose(many, one, rtol=0, atol=1e-13 * np.abs(one).max())
    assert stacked.bit_generator.state == single.bit_generator.state
    # A single draw keeps its bits.
    assert np.array_equal(one, np.stack([_reference_draw(cone, n, ref, span) for _ in range(5)]))


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_norm_many_and_stacked_min_shift_keep_the_bits(fixture, n, request):
    cone = request.getfixturevalue(fixture)
    cands = _candidates(cone, n, np.random.default_rng(20 + n))
    norms = cone.norm_many(n, cands)
    assert norms == [cone.norm_many(n, [c])[0] for c in cands]
    assert all(type(v) is float for v in norms)
    pair = cone.min_shift_pair(n, np.stack(cands))
    assert [shifts.shape for shifts in pair] == [(len(cands),)] * 2
    assert [shifts.tolist() for shifts in pair] == [
        [cone.min_shift_pair(n, c)[sign] for c in cands] for sign in (0, 1)]


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("opaque", [False, True])
def test_inf_shifts_match_the_per_element_search(fixture, n, opaque, request):
    cone = request.getfixturevalue(fixture)
    cone = _opaque(cone) if opaque else cone
    cands = _candidates(cone, n, np.random.default_rng(30 + n))
    # Scale 1 and the ambient norm, as the order-unit check and r4 ask them.
    for scales in ([1.0] * len(cands), [cone.norm_many(n, [c])[0] for c in cands]):
        got = _inf_shifts(cone, n, cands, scales, 1e-9)
        assert got == [_reference_inf_shift(cone, n, c, s, 1e-9)
                       for c, s in zip(cands, scales)]
        assert None not in got


@pytest.mark.parametrize("double", [ZeroedCornerCone, ZeroCone])
def test_inf_shifts_match_the_per_element_search_on_corrupted_cones(double, m2_full):
    # StandardCone's exact shifts, which these doubles inherit, go uncertified
    # where the double's own membership disagrees: ZeroedCornerCone brings
    # only the elements with a zero corner into C, ZeroCone none (None).
    cone = double(m2_full)
    cands = _candidates(StandardCone(m2_full), 1, np.random.default_rng(40))
    cands += [np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, -1.0]).astype(complex)]
    got = _inf_shifts(cone, 1, cands, [1.0] * len(cands), 1e-9)
    assert got == [_reference_inf_shift(cone, 1, c, 1.0, 1e-9) for c in cands]
    assert None in got
    assert all(r is None for r in got) == (double is ZeroCone)


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("opaque", [False, True])
@pytest.mark.parametrize("floor", [0.0, -np.inf])
def test_exact_brackets_match_the_per_element_certificate(fixture, opaque, floor, request):
    # floor -inf is the Archimedean boundary's sup-shift-down bracket.
    cone = request.getfixturevalue(fixture)
    cone = _opaque(cone) if opaque else cone
    cs = _candidates(cone, 2, np.random.default_rng(50))
    cs += list(cone.sample_many(2, 3, np.random.default_rng(51)))
    scales = [1.0 + v for v in cone.norm_many(2, cs)]
    widths = [0.2 * cone.tol_psd * s for s in scales]
    want = []
    for c, s, w in zip(cs, scales, widths):
        exact = cone.min_shift_pair(2, c)[0]
        want.append(certify(shift_bisection(cone, 2, (c,), s),
                            None if exact is None else exact / s, w, floor))
    assert _exact_brackets(cone, 2, cs, scales, widths, floor) == want
    assert (None in want) == opaque


@pytest.mark.parametrize("double", DOUBLES)
def test_doubles_are_asked_one_element_at_a_time(double, m2_full, monkeypatch):
    """Each stacked method a double overrides answers a batched call once, and
    each one-element call, a batch of one, once, whose answers are then the
    double's own."""
    names = ("sample_many", "sample_span_many", "member_many")
    asked = []
    for name in names:
        if name in vars(double):
            def counted(self, *args, _inner=vars(double)[name], _name=name):
                asked.append(_name)
                return _inner(self, *args)
            monkeypatch.setattr(double, name, counted)
    cone = double(m2_full)
    overridden = [name for name in names if name in vars(double)]
    assert overridden
    n, k = 2, 3
    stacked, single = np.random.default_rng(60), np.random.default_rng(60)
    many = cone.sample_many(n, k, stacked)
    spans = cone.sample_span_many(n, k, stacked)
    for got, draw in ((many, cone.sample_many), (spans, cone.sample_span_many)):
        want = [draw(n, 1, single)[0] for _ in range(k)]
        for x, y in zip(got, want, strict=True):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13 * (1.0 + np.abs(y).max()))
    xs = [cone.unit(n), -cone.unit(n), many[0]]
    asked.clear()
    assert cone.member_many(n, xs) == [cone.member_many(n, [x])[0] for x in xs]
    if "member_many" in overridden:
        assert asked.count("member_many") == 1 + len(xs)
    for name, draw in (("sample_many", cone.sample_many),
                       ("sample_span_many", cone.sample_span_many)):
        asked.clear()
        draw(n, k, stacked)
        assert asked.count(name) == (1 if name in overridden else 0)


@pytest.mark.parametrize("fixture", ["std_m3", "planted_sim_cone"])
def test_empty_batches(fixture, request):
    cone = request.getfixturevalue(fixture)
    rng = np.random.default_rng(70)
    state = rng.bit_generator.state
    d = cone.level_dim(2)
    assert cone.sample_many(2, 0, rng).shape == (0, d, d)
    assert cone.sample_span_many(2, 0, rng).shape == (0, d, d)
    assert rng.bit_generator.state == state
    assert cone.norm_many(2, []) == []
    assert _inf_shifts(cone, 2, [], [], 1e-9) == []
    assert _exact_brackets(cone, 2, [], [], [], -np.inf) == []
    assert list(_algebra_conjugations(cone, (1, 2), 0, rng)) == []
    assert ZeroCone(cone.algebra).sample_many(2, 0, rng) == []



@pytest.mark.parametrize("shape", [(5, 4, 4), (3, 6, 2), (0, 3, 3)])
def test_opnorm_of_a_stack_keeps_each_matrix_bits(shape):
    x = la.random_complex_many(np.random.default_rng(80), 1, shape)[0]
    got = la.opnorm(x)
    assert got.shape == shape[:1]
    assert got.tolist() == [la.opnorm(m) for m in x]


@pytest.mark.parametrize("shape", [3, (4,), (2, 3), (2, 2, 5), (0, 3)])
def test_random_complex_many_is_the_stream_of_single_draws(shape):
    # Each draw: its real parts, then its imaginary parts, as a stack of one
    # takes them.
    stacked, single = np.random.default_rng(90), np.random.default_rng(90)
    got = la.random_complex_many(stacked, 4, shape)
    want = np.stack([(single.standard_normal(shape) + 1j * single.standard_normal(shape))
                     / np.sqrt(2.0) for _ in range(4)])
    assert got.shape == want.shape and np.array_equal(got, want)
    assert stacked.bit_generator.state == single.bit_generator.state
    again = np.random.default_rng(90)
    singles = [la.random_complex_many(again, 1, shape)[0] for _ in range(4)]
    assert np.array_equal(np.stack(singles), got)
