"""The one shift certificate, `cones._certify`, and the stacked shifts built on
it, against the per-element certificates they replace (`references`): the same
verdicts and brackets on honest, opaque and corrupted cones, from the same
`member_many` batches (for `_certify`, the first of the two-sided reference's
two: it makes no second call at lo); a certified bracket that builds no
`_Bisection` (an opaque cone builds one per element or per norm path); and an
Archimedean check that asks `min_shift_pair` and the certificate once per stack,
not again for each boundary the stack left uncertified."""

import copy

import numpy as np
import pytest

from doubles import ZeroedCornerCone
from matorder import cones, order_norms
from matorder.algebra import as_matrix, random_element
from matorder.cones import (
    StandardCone,
    _certify,
    _exact_brackets,
    _inf_shifts,
    _sup_shifts_down,
    check_order_unit_archimedean,
)
from references import certificate, certified, exact_brackets, sup_shift_down, two_sided_verdicts
from test_member_many import _audit_digest
from test_shifts import _opaque

CONES = ["std_m3", "planted_sim_cone", "opaque-std_m3", "opaque-planted_sim_cone",
         "zeroed-corner"]


def _recording(cone):
    """The same cone with every `member_many` batch and its verdicts recorded."""
    out = copy.copy(cone)
    out.batches = []
    many = cone.member_many

    def recorded(n, xs):
        got = many(n, xs)
        out.batches.append(([as_matrix(x).copy() for x in xs], list(got)))
        return got

    out.member_many = recorded
    return out


def _cone(name, request):
    if name == "zeroed-corner":
        cone = ZeroedCornerCone(request.getfixturevalue("m2_full"))
    elif name.startswith("opaque-"):
        cone = _opaque(request.getfixturevalue(name.removeprefix("opaque-")))
    else:
        cone = request.getfixturevalue(name)
    return _recording(cone)


def _same_batches(got, want):
    assert [ok for _, ok in got] == [ok for _, ok in want]
    assert [len(xs) for xs, _ in got] == [len(xs) for xs, _ in want]
    assert all(np.array_equal(x, y) for (xs, _), (ys, _) in zip(got, want)
               for x, y in zip(xs, ys))


def _run(cone, fn):
    """fn()'s result with the batches it handed to `member_many`."""
    cone.batches.clear()
    out = fn()
    return out, list(cone.batches)


def _one(r):
    return r


def _square(r):
    return r * r


def _elements(cone, n, rng):
    """Span samples, cone samples, a negated sample, -e and zero."""
    d = cone.level_dim(n)
    return ([cone.sample_span_many(n, 1, rng)[0] for _ in range(2)]
            + list(cone.sample_many(n, 2, rng))
            + [-cone.sample_many(n, 1, rng)[0], -cone.unit(n), np.zeros((d, d), dtype=complex)])


@pytest.mark.parametrize("name", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_certify_matches_the_two_sided_reference(name, n, request):
    cone = _cone(name, request)
    # The exact shifts of an opaque cone are its base's.
    opaque = name.startswith("opaque-")
    exact = request.getfixturevalue(name.removeprefix("opaque-")) if opaque else cone
    rng = np.random.default_rng(100 + n)
    for a in _elements(cone, n, rng)[:3]:
        up, down = exact.min_shift_pair(n, a)
        r = max(up, down, 0.0)
        cs = (a, -a) if up >= down else (-a, a)
        width = 1e-10 * (1.0 + r)
        asks = [(cs, r, width, 0.0, _one),                    # hi, mid, lo
                (cs, np.sqrt(r), width, 0.0, _square),        # squared
                (cs, -1.0, width, 0.0, _one),                 # (floor,)
                (cs, r + 8.0 * width, width, 0.0, _one),      # inside at lo
                (cs, None, width, 0.0, _one)]
        got, got_b = _run(cone, lambda: _certify(cone, n, asks))
        points = [() if x is None else certificate(x, w, floor) for _, x, w, floor, _ in asks]
        want, want_b = _run(cone, lambda: two_sided_verdicts(
            cone, n, cs, [tuple(t(x) for x in xs) for (*_, t), xs in zip(asks, points)]))
        assert got == [(certified(xs, ok) if xs else None, len(xs))
                       for xs, ok in zip(points, want)]
        # One call: the reference's first, without its second call at lo.
        _same_batches(got_b, want_b[:1])
    assert _run(cone, lambda: _certify(cone, n, []))[0] == []
    assert _run(cone, lambda: _certify(cone, n, [((cone.unit(n),), None, 0.0, 0.0, _one)])) == (
        [(None, 0)], [])


@pytest.mark.parametrize("name", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("floor", [0.0, -np.inf])
def test_exact_brackets_match_the_reference_certificate(name, n, floor, request):
    cone = _cone(name, request)
    cs = _elements(cone, n, np.random.default_rng(110 + n))
    for scales in ([1.0] * len(cs), [1.0 + v for v in cone.norm_many(n, cs)]):
        widths = [0.2 * cone.tol_psd * s for s in scales]
        got, got_b = _run(cone, lambda: _exact_brackets(cone, n, cs, scales, widths, floor))
        want, want_b = _run(cone, lambda: exact_brackets(cone, n, cs, scales, widths, floor))
        assert got == want
        _same_batches(got_b, want_b)
        assert len(got_b) == (0 if name.startswith("opaque-") else 1)
    assert _run(cone, lambda: _exact_brackets(cone, n, [], [], [], floor)) == ([], [])


def _reference_sup_shifts_down(cone, n, cs, widths):
    """The parent's Archimedean boundaries: the stacked certificate, then
    `sup_shift_down` alone for each element it left open."""
    found = exact_brackets(cone, n, cs, [1.0] * len(cs), widths, -np.inf)
    return [(-f[1], -f[0]) if f and f[1] <= 0.0 else sup_shift_down(cone, n, c, w)
            for c, w, f in zip(cs, widths, found)]


@pytest.mark.parametrize("name", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_sup_shifts_down_match_the_reference_without_its_second_certificate(name, n,
                                                                            request):
    cone = _cone(name, request)
    cs = list(cone.sample_many(n, 3, np.random.default_rng(120 + n)))
    cs.append(-cs[0])  # not a member: its certified bracket lies above 0
    widths = [0.2 * cone.tol_psd * (1.0 + v) for v in cone.norm_many(n, cs)]
    got, got_b = _run(cone, lambda: _sup_shifts_down(cone, n, cs, widths))
    assert got == _reference_sup_shifts_down(cone, n, cs, widths)
    # The reference's batches, less the certificate it asks again for each
    # element the stacked one left open (none on an opaque cone).
    want_b = _run(cone, lambda: exact_brackets(cone, n, cs, [1.0] * len(cs), widths,
                                               -np.inf))[1]
    found = exact_brackets(cone, n, cs, [1.0] * len(cs), widths, -np.inf)
    for c, w, f in zip(cs, widths, found):
        if not (f and f[1] <= 0.0):
            batches = _run(cone, lambda: sup_shift_down(cone, n, c, w))[1]
            want_b += batches[0 if name.startswith("opaque-") else 1:]
    _same_batches(got_b, want_b)
    assert _run(cone, lambda: _sup_shifts_down(cone, n, [], [])) == ([], [])


@pytest.mark.parametrize("name", ["std_m3", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2])
def test_a_certified_bracket_builds_no_search(name, n, request, monkeypatch):
    built = []

    class Counted(cones._Bisection):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cones, "_Bisection", Counted)
    monkeypatch.setattr(order_norms, "_Bisection", Counted, raising=False)
    base = request.getfixturevalue(name)
    rng = np.random.default_rng(130 + n)
    cs = list(base.sample_span_many(n, 3, rng)) + [-c for c in base.sample_many(n, 2, rng)]
    members = list(base.sample_many(n, 3, rng))
    widths = [0.2 * base.tol_psd * (1.0 + v) for v in base.norm_many(n, members)]
    x = random_element(base.algebra, rng, level=n)
    # The same work on the opaque cone builds one search per element or per path.
    for cone, per in ((base, 0), (_opaque(base), 1)):
        for run, searches in ((lambda: _inf_shifts(cone, n, cs, [1.0] * len(cs), 1e-9), len(cs)),
                              (lambda: _sup_shifts_down(cone, n, members, widths), len(members)),
                              (lambda: order_norms.order_unit_seminorm(cone, n, cs[0]), 1),
                              (lambda: order_norms.pre_cstar_norm(cone, None, n, x), 2)):
            built.clear()
            run()
            assert len(built) == per * searches


class _Stricter(StandardCone):
    """Members are the x with x - 1e-3 e_n in the standard cone: stricter than
    the inherited exact `min_shift_pair`, so that no certificate holds.  Records
    the shape of each `min_shift_pair` argument."""

    def __init__(self, alg):
        super().__init__(alg)
        self.shifts = []

    def member_many(self, n, xs):
        return super().member_many(n, [as_matrix(x) - 1e-3 * self.unit(n) for x in xs])

    def min_shift_pair(self, n, c):
        self.shifts.append(np.shape(c))
        return super().min_shift_pair(n, c)


@pytest.mark.parametrize("n", [1, 2])
def test_archimedean_check_asks_min_shift_once_per_stack(n, m3_full, monkeypatch):
    cone = _Stricter(m3_full)
    samples, d = 4, cone.level_dim(n)
    got = _audit_digest(check_order_unit_archimedean(cone, n, samples=samples, seed=n))
    # One stacked call for the order-unit candidates (a and -a per sample) and
    # one for the Archimedean boundaries; none per uncertified boundary.
    assert cone.shifts == [(2 * samples, d, d), (samples, d, d)]
    monkeypatch.setattr(cones, "_sup_shifts_down", _reference_sup_shifts_down)
    cone.shifts.clear()
    assert _audit_digest(check_order_unit_archimedean(cone, n, samples=samples, seed=n)) == got
    assert cone.shifts[:2] == [(2 * samples, d, d), (samples, d, d)]
    assert cone.shifts[2:] == [(d, d)] * samples
