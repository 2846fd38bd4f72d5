"""The order norms at one eigensolve and one certificate call per norm, against
the earlier two-call form (`references.norm_search_two_calls`): the same
values, brackets and work counters on honest, opaque and mis-shifted cones,
and on sign-swapped cones a bisected value within the search tolerance of the
reference's certified one; `min_shift_pair` against two `min_shift` calls;
and the matrices each norm hands to `member_many`."""

import numpy as np
import pytest

from doubles import SkewedLevelCone
from matorder import cones, order_norms
from matorder.algebra import random_element
from matorder.cones import ConeOracle, SimilarityCone
from matorder.order_norms import DEFAULT_BISECT_TOL, order_unit_seminorm, pre_cstar_norm
from references import norm_search_two_calls, pre_cstar_norm_two_calls
from test_member_many import _Recording
from test_shifts import _opaque

EPS = np.finfo(float).eps
CONES = ["std_m3", "worked_sim_cone", "planted_sim_cone"]


class _Shifted(_Recording):
    """`min_shift` high by eight certificate widths: the binding sign is inside
    at lo, and so is the other, so no exact value certifies and both norms bisect.
    Its pair is the protocol's default, one `min_shift` per sign."""

    min_shift_pair = ConeOracle.min_shift_pair

    def min_shift(self, n, c):
        r = super().min_shift(n, c)
        return r + 8.0 * DEFAULT_BISECT_TOL * (1.0 + abs(r))


class _Swapped(_Recording):
    """`min_shift` reports the shift of -c: the larger value names the sign that
    is not binding, which is then inside at lo, so no exact value certifies
    and both norms bisect (the reference certifies it with a second call)."""

    min_shift_pair = ConeOracle.min_shift_pair

    def min_shift(self, n, c):
        return super().min_shift(n, -np.asarray(c))


def _cone(kind, fixture, request):
    base = request.getfixturevalue(fixture)
    cone = {"honest": _Recording, "opaque": _Recording, "shifted": _Shifted,
            "swapped": _Swapped}[kind](base.algebra, base.s)
    return _opaque(cone) if kind == "opaque" else cone


def _one(r):
    return r


def _square(r):
    return r * r


def _sharp_x(cone, n, x):
    """x^sharp x under the cone's reference involution."""
    return cone.sharp(n, x) @ x


def _confirms(cone, n, z, t, bracket):
    """The oracle confirms the bracket [lo, hi] of inf{r : t(r) e +- z in C}:
    both signs are inside at hi, and not both at lo unless lo = hi = 0."""
    lo, hi = bracket
    e = cone.unit(n)
    assert all(cone.member_many(n, [t(hi) * e + z, t(hi) * e - z]))
    assert (lo, hi) == (0.0, 0.0) or not all(cone.member_many(n, [t(lo) * e + z,
                                                                   t(lo) * e - z]))


def _agree(got, want):
    assert (got.iterations, got.oracle_calls) == (want.iterations, want.oracle_calls)
    for g, w in zip((got.value, *got.bracket), (want.value, *want.bracket)):
        assert abs(g - w) <= 4.0 * EPS * abs(w)


def _norms(cone, n, a, x):
    """Both norms of the library, then of the reference, with each one's batches."""
    out = []
    for semi, pre in ((lambda: order_unit_seminorm(cone, n, a),
                       lambda: pre_cstar_norm(cone, None, n, x)),
                      (lambda: norm_search_two_calls(cone, n, a, DEFAULT_BISECT_TOL),
                       lambda: pre_cstar_norm_two_calls(cone, None, n, x))):
        cone.batches.clear()
        rep_semi = semi()
        semi_batches = list(cone.batches)
        cone.batches.clear()
        rep_pre = pre()
        out.append((rep_semi, rep_pre, semi_batches, list(cone.batches)))
    return out


@pytest.mark.parametrize("kind,n", [("honest", 8)] + [
    (kind, n) for kind in ("honest", "opaque", "shifted", "swapped") for n in (1, 2, 4)])
@pytest.mark.parametrize("fixture", CONES)
def test_norms_match_the_two_call_reference(kind, fixture, n, request):
    cone = _cone(kind, fixture, request)
    rng = np.random.default_rng(60 + n)
    a, x = cone.sample_span(n, rng), random_element(cone.algebra, rng, level=n)
    (semi, pre, semi_batches, pre_batches), (ref_semi, ref_pre, ref_semi_b, ref_pre_b) = \
        _norms(cone, n, a, x)
    if kind == "swapped":
        for got, want, z, t in ((semi, ref_semi, a, _one), (pre, ref_pre, _sharp_x(cone, n, x),
                                                            _square)):
            assert got.iterations > 0
            assert abs(got.value - want.value) <= 2.0 * DEFAULT_BISECT_TOL * (1.0 + want.value)
            _confirms(cone, n, z, t, got.bracket)
        return
    _agree(semi, ref_semi)
    _agree(pre, ref_pre)
    if kind in ("opaque", "shifted"):
        assert semi.iterations > 0 and pre.iterations > 0
        if kind == "opaque":
            # No certificate: bisection asks what it always asked.
            for got, want in ((semi_batches, ref_semi_b), (pre_batches, ref_pre_b)):
                assert [ok for _, ok in got] == [ok for _, ok in want]
                assert all(np.array_equal(u, v) for (xs, _), (ys, _) in zip(got, want)
                           for u, v in zip(xs, ys))
        return
    assert semi.iterations == pre.iterations == 0
    assert ([len(xs) for xs, _ in semi_batches], [len(xs) for xs, _ in pre_batches]) == (
        [5], [10])
    # The same matrices the reference asked, in fewer calls.
    for got, want in ((semi_batches, ref_semi_b), (pre_batches, ref_pre_b)):
        xs = [x for batch, _ in got for x in batch]
        ys = [y for batch, _ in want for y in batch]
        assert len(xs) == len(ys)
        scale = 1.0 + max(np.abs(y).max() for y in ys)
        assert all(any(np.abs(x - y).max() <= 8.0 * EPS * scale for y in ys) for x in xs)


def test_a_zero_element_certifies_at_zero_in_one_call(std_m3):
    cone = _Recording(std_m3.algebra, None)
    zero = np.zeros((6, 6), dtype=complex)
    for rep_of in (lambda: order_unit_seminorm(cone, 2, zero),
                   lambda: pre_cstar_norm(cone, None, 2, zero)):
        cone.batches.clear()
        rep = rep_of()
        assert (rep.value, rep.bracket, rep.iterations) == (0.0, (0.0, 0.0), 0)
        assert [ok for _, ok in cone.batches] in ([[True, True]], [[True] * 4])
    assert norm_search_two_calls(cone, 2, zero, DEFAULT_BISECT_TOL).oracle_calls == 1
    assert order_unit_seminorm(cone, 2, zero).oracle_calls == 1


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_shift_pair_matches_two_min_shifts(fixture, n, request):
    cone = request.getfixturevalue(fixture)
    rng = np.random.default_rng(70 + n)
    for c in (cone.sample_span(n, rng), -cone.sample(n, rng), cone.sample(n, rng)):
        up, down = cone.min_shift_pair(n, c)
        assert up == cone.min_shift(n, c)
        # spec(-h) = -spec(h) up to the eigensolver's rounding.
        scale = 1.0 + abs(up) + abs(down)
        assert abs(down - cone.min_shift(n, -c)) <= 4.0 * EPS * scale


def test_an_overridden_min_shift_or_straighten_is_asked_once_per_sign(std_m3, monkeypatch):
    rng = np.random.default_rng(80)
    c = std_m3.sample_span(2, rng)
    asked = []
    shifts = SimilarityCone.min_shift_pair

    def counted(self, n, x):
        asked.append(x)
        return shifts(self, n, x)

    monkeypatch.setattr(SimilarityCone, "min_shift_pair", counted)
    std_m3.min_shift_pair(2, c)
    assert len(asked) == 1
    # An overridden straighten is the frame of the one eigensolve: both signs
    # agree with two one-sign calls through it, to the eigensolver's rounding.
    asked.clear()
    skewed = SkewedLevelCone(std_m3.algebra)
    up, down = skewed.min_shift_pair(2, c)
    assert len(asked) == 1 and np.array_equal(asked[0], c)
    assert (up, down) != std_m3.min_shift_pair(2, c)
    assert up == skewed.min_shift(2, c)
    assert abs(down - skewed.min_shift(2, -c)) <= 4.0 * EPS * (1.0 + abs(up) + abs(down))
    # A cone whose pair is the protocol's default asks `min_shift` once per sign,
    # and an overridden pair is what the norms ask, once per norm.
    cone = _Shifted(std_m3.algebra, None)
    asked.clear()
    order_unit_seminorm(cone, 2, c)
    assert len(asked) == 2
    assert np.array_equal(asked[0], c) and np.array_equal(asked[1], -c)
    pairs = []
    pair = cone.min_shift_pair
    cone.min_shift_pair = lambda n, z: pairs.append(z) or pair(n, z)
    rep = order_unit_seminorm(cone, 2, c)
    assert len(pairs) == 1 and rep.iterations > 0


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_a_certified_norm_is_one_eigensolve_and_one_member_many(fixture, n, request,
                                                                monkeypatch):
    base = request.getfixturevalue(fixture)
    cone = _Recording(base.algebra, base.s)
    rng = np.random.default_rng(90 + n)
    a, x = cone.sample_span(n, rng), random_element(cone.algebra, rng, level=n)
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(h, *args, **kwargs):
        solves.append(np.shape(h))
        return eigvalsh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for rep_of, size in ((lambda: order_unit_seminorm(cone, n, a), 5),
                         (lambda: pre_cstar_norm(cone, None, n, x), 10)):
        solves.clear()
        cone.batches.clear()
        assert rep_of().iterations == 0
        dim = cone.level_dim(n)
        # The shift pair's eigensolve, then the certificate's stacked one.
        assert solves == [(dim, dim), (size, dim, dim)]
        assert [len(xs) for xs, _ in cone.batches] == [size]


@pytest.mark.parametrize("kind", ["honest", "opaque", "shifted", "swapped"])
@pytest.mark.parametrize("fixture", ["std_m3", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_every_certificate_is_one_member_many(kind, fixture, n, request, monkeypatch):
    cone = _cone(kind, fixture, request)
    made = []
    certify = cones._certify

    def recorded(c, level, asks):
        before = len(cone.batches)
        out = certify(c, level, asks)
        made.append((len(cone.batches) - before, any(r is not None for _, r, *_ in asks)))
        return out

    monkeypatch.setattr(cones, "_certify", recorded)
    monkeypatch.setattr(order_norms, "_certify", recorded)
    rng = np.random.default_rng(100 + n)
    a, x = cone.sample_span(n, rng), random_element(cone.algebra, rng, level=n)
    members = list(cone.sample_many(n, 2, rng))
    order_unit_seminorm(cone, n, a)
    pre_cstar_norm(cone, None, n, x)
    cones._inf_shifts(cone, n, [a, -a, -members[0]], [1.0] * 3, 1e-9)
    cones._sup_shifts_down(cone, n, members, [0.2 * cone.tol_psd] * 2)
    assert len(made) == 4
    # One call wherever an exact shift is asked (every certificate but an
    # opaque cone's), none where nothing is.
    assert made == [(int(kind != "opaque"), kind != "opaque")] * 4
