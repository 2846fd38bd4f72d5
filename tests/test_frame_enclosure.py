"""The shift certificate by the PSD rule: on a cone whose oracle and exact shifts
are `SimilarityCone`'s own, `cones._certify` returns the bracket it would have
certified, asking `member_many` nothing.

Each call on a frame cone is run again on `doubles.instance_oracle(cone)`,
whose `_certify` replays the bracket ends through the oracle: values and
brackets agree bit for bit, the copy's oracle confirms both ends, and only
`oracle_calls` differs.  Where the rounding bound or the premise fails (a
bracket narrower than the bound, an ill-conditioned frame, the zero element, a
threshold the slack moves below lo, an element off Hermitian in the frame, an
overridden `min_shift_pair`) the replay runs as before.  Each margin of the bound is
pinned from both sides: a width either side of 8 delta, a Hermitian defect either side
of tol_psd - 2 delta, and mid either side of r + delta.

The bound is read off the exact shift's own pass: each exact norm and each stacked
`_exact_brackets` straightens its elements once, and every ask's verdict is that of
`references.enclosed_per_ask`, which straightened each ask's elements again.  The
pair (z, -z) shares one bound because negation is exact in the frame."""

import json

import numpy as np
import pytest

from conftest import WORKED_S
from doubles import instance_oracle
from matorder import cones
from matorder import _linalg as la
from matorder import order_norms
from matorder.algebra import _Frame, generate_algebra, random_element
from matorder.cli import run
from matorder.cones import SimilarityCone, StandardCone
from matorder.errors import MatOrderError
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from matorder.serialization import algebra_to_obj, canonical_json, matrix_to_obj
from references import certificate, enclosed_per_ask

CONES = ["std_m2", "std_m3", "worked_sim_cone", "planted_sim_cone"]


@pytest.fixture
def asked(monkeypatch):
    """Every batch handed to `SimilarityCone.member_many`, as its length."""
    sizes = []
    member_many = SimilarityCone.member_many

    def recorded(self, n, xs):
        sizes.append(len(xs))
        return member_many(self, n, xs)

    monkeypatch.setattr(SimilarityCone, "member_many", recorded)
    return sizes


@pytest.fixture
def verdicts(monkeypatch):
    """Per ask with a bound handed to `cones._certify` whose points are three, the pair
    (`cones._enclosed`'s verdict, `references.enclosed_per_ask`'s verdict)."""
    pairs = []
    certify = cones._certify

    def recorded(cone, n, asks):
        for cs, r, width, floor, t, bound in asks:
            xs = () if r is None else certificate(r, width, floor)
            if bound is not None and len(xs) == 3:
                pairs.append((cones._enclosed(cone, n, bound, r, t, xs),
                              enclosed_per_ask(cone, n, cs, r, t, xs)))
        return certify(cone, n, asks)

    monkeypatch.setattr(cones, "_certify", recorded)
    monkeypatch.setattr(order_norms, "_certify", recorded)
    return pairs


def _same_verdicts(verdicts, *expected):
    """Some ask was checked, each verdict is the per-ask reference's, and the verdicts
    seen are `expected`."""
    got = [ok for ok, _ in verdicts]
    assert got and got == [want for _, want in verdicts]
    assert set(got) == set(expected)


@pytest.fixture
def straightened(monkeypatch):
    """The shape of every `_Frame.straighten` argument outside `SimilarityCone.sharp_block`."""
    shapes, in_sharp = [], []
    straighten, sharp_block = _Frame.straighten, SimilarityCone.sharp_block

    def counted(self, x):
        if not in_sharp:
            shapes.append(np.shape(x))
        return straighten(self, x)

    def sharp(self, a):
        in_sharp.append(True)
        try:
            return sharp_block(self, a)
        finally:
            in_sharp.pop()

    monkeypatch.setattr(_Frame, "straighten", counted)
    monkeypatch.setattr(SimilarityCone, "sharp_block", sharp)
    return shapes


@pytest.fixture(scope="module")
def full_m6():
    rng = np.random.default_rng(6)
    return StandardCone(generate_algebra(
        [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))], include_adjoints=True))


def _confirmed(copy, n, cs, t, bracket):
    """The copy's oracle puts every c inside at t(hi) and the binding c outside at t(lo)."""
    lo, hi = bracket
    e = copy.unit(n)
    assert all(copy.member_many(n, [t(hi) * e + c for c in cs]))
    assert not copy.member_many(n, [t(lo) * e + cs[0]])[0]


def _norms_agree(cone, n, rng, asked):
    """Both norms ask the frame cone nothing and keep the replay's bits; the replay
    asks its 5 (seminorm) or 10 (pre-C*-norm) matrices in one batch."""
    a, x = cone.sample_span_many(n, 1, rng)[0], random_element(cone.algebra, rng, level=n)
    copy = instance_oracle(cone)
    for norm, z, t, calls, size in (
            (lambda c: order_unit_seminorm(c, n, a), a, lambda r: r, 3, 5),
            (lambda c: pre_cstar_norm(c, None, n, x), cone.sharp_block(x) @ x,
             lambda r: r * r, 6, 10)):
        asked.clear()
        got = norm(cone)
        assert asked == []
        want = norm(copy)
        assert asked == [size]
        assert (got.value, got.bracket, got.iterations) == (want.value, want.bracket, 0)
        assert (got.oracle_calls, want.oracle_calls) == (0, calls)
        up, down = cone.min_shift_pair(n, z)
        _confirmed(copy, n, (z, -z) if up >= down else (-z, z), t, got.bracket)


def _shifts_agree(cone, n, rng, asked):
    copy = instance_oracle(cone)
    a = cone.sample_span_many(n, 1, rng)[0]
    members = list(cone.sample_many(n, 2, rng))
    ups = [a, -a, -members[0]]
    widths = [0.2 * cone.tol_psd * (1.0 + m) for m in cone.norm_many(n, members)]
    for cs, scales, ws, floor in ((ups, [1.0, 2.0, 1.0], [1e-9] * 3, 0.0),
                                  (members, [1.0] * 2, widths, -np.inf)):
        asked.clear()
        got = cones._exact_brackets(cone, n, cs, scales, ws, floor)
        assert asked == [] and None not in got
        assert got == cones._exact_brackets(copy, n, cs, scales, ws, floor)
        for c, scale, bracket in zip(cs, scales, got):
            _confirmed(copy, n, (c,), lambda r, s=scale: r * s, bracket)
    asked.clear()
    got = (cones._inf_shifts(cone, n, ups, [1.0] * 3, 1e-9),
           cones._sup_shifts_down(cone, n, members, widths))
    assert asked == []
    assert got == (cones._inf_shifts(copy, n, ups, [1.0] * 3, 1e-9),
                   cones._sup_shifts_down(copy, n, members, widths))


@pytest.mark.parametrize("fixture", CONES)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_frame_cone_brackets_match_the_replay_bit_for_bit(fixture, n, request, asked,
                                                          verdicts):
    cone = request.getfixturevalue(fixture)
    assert cones._frame_oracle(cone, "min_shift_pair", "unit")
    rng = np.random.default_rng(470 + n)
    _norms_agree(cone, n, rng, asked)
    _shifts_agree(cone, n, rng, asked)
    _same_verdicts(verdicts, True)


def test_full_m6_level_eight_norms_ask_nothing(full_m6, asked, verdicts):
    _norms_agree(full_m6, 8, np.random.default_rng(478), asked)
    _same_verdicts(verdicts, True)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_each_exact_norm_straightens_its_element_once(planted_sim_cone, n, asked,
                                                      straightened):
    cone = planted_sim_cone
    rng = np.random.default_rng(540 + n)
    a, x = cone.sample_span_many(n, 1, rng)[0], random_element(cone.algebra, rng, level=n)
    dim = cone.level_dim(n)
    for norm in (lambda: order_unit_seminorm(cone, n, a),
                 lambda: pre_cstar_norm(cone, None, n, x)):
        straightened.clear()
        rep = norm()
        assert (rep.iterations, rep.oracle_calls) == (0, 0)
        assert straightened == [(dim, dim)]
    assert asked == []


@pytest.mark.parametrize("n", [1, 2, 4])
def test_exact_brackets_straighten_the_stack_once(planted_sim_cone, n, asked, straightened):
    # Once for the stack of k, where each ask used to straighten its element again.
    cone = planted_sim_cone
    rng = np.random.default_rng(550 + n)
    a = cone.sample_span_many(n, 1, rng)[0]
    cs = [a, -a, -cone.sample_many(n, 1, rng)[0]]
    straightened.clear()
    got = cones._exact_brackets(cone, n, cs, [1.0, 2.0, 1.0], [1e-9] * 3, 0.0)
    assert None not in got
    assert straightened == [(3, cone.level_dim(n), cone.level_dim(n))]
    assert asked == []


@pytest.mark.parametrize("fixture", ["worked_sim_cone", "planted_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_negation_is_exact_in_the_frame(fixture, n, request):
    # The premise that lets (z, -z) share one bound: straighten and frob see -z as -z.
    cone = request.getfixturevalue(fixture)
    rng = np.random.default_rng(560 + n)
    x = random_element(cone.algebra, rng, level=n)
    for z in (x, cone.sharp_block(x) @ x, cone.sample_span_many(n, 1, rng)[0]):
        assert np.array_equal(cone.straighten(n, -z), -cone.straighten(n, z))
        assert la.frob(-z) == la.frob(z)
        assert cones._shift_pass(cone, n, -z)[2] == cones._shift_pass(cone, n, z)[2]


# -- fallbacks: the replay still runs where the bound or the premise fails ----

def _one_replay(cone, n, elem, asked):
    """The seminorm of elem on cone, with its one `member_many` batch and the
    same bits as on the opaque copy."""
    asked.clear()
    got = order_unit_seminorm(cone, n, elem)
    assert len(asked) == 1
    want = order_unit_seminorm(instance_oracle(cone), n, elem)
    assert (got.value, got.bracket, got.iterations, got.oracle_calls) == (
        want.value, want.bracket, want.iterations, want.oracle_calls)
    return got


def test_an_ill_conditioned_frame_replays_the_ends(m2_full, asked, verdicts):
    # On M_2 = S M_2 S^-1 at cond(S) = 1e3, delta exceeds a width of 1e-10.
    cone = SimilarityCone(m2_full, np.diag([1.0, 1e3]).astype(complex) @ WORKED_S)
    h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    a = cone.frame.unstraighten(h)
    assert _one_replay(cone, 1, a, asked).oracle_calls == 3
    assert asked[0] == 5
    _same_verdicts(verdicts, False)


def test_the_zero_element_replays_its_floor(std_m3, asked):
    zero = np.zeros((6, 6), dtype=complex)
    rep = _one_replay(std_m3, 2, zero, asked)
    assert (rep.value, rep.bracket, rep.oracle_calls) == (0.0, (0.0, 0.0), 1)
    assert asked[0] == 2


def test_a_narrow_spectrum_under_a_wide_slack_replays_the_ends(m2_full, asked, verdicts):
    # At tol_psd = 0.1 the slack puts -e's threshold 2 tol^2 / (1 - tol^2) below
    # r = 1 / (1 + tol), under lo: the replay finds -e inside at lo and leaves it open.
    cone = StandardCone(m2_full, tol_psd=0.1)
    args = ([-cone.unit(1)], [1.0], [1e-3], 0.0)
    asked.clear()
    assert cones._exact_brackets(cone, 1, *args) == [None]
    assert asked == [3]
    assert cones._exact_brackets(instance_oracle(cone), 1, *args) == [None]
    _same_verdicts(verdicts, False)


def test_an_element_off_hermitian_in_the_frame_replays_the_ends(std_m2, asked, verdicts):
    # Sharp-self-adjoint within the norms' 1e-8, but its Hermitian defect 1e-8 exceeds
    # the PSD rule's slack until t e + a reaches about 8, far above the exact shift 3.
    a = np.array([[3.0, 5e-9j], [5e-9j, -1.0]])
    asked.clear()
    got = order_unit_seminorm(std_m2, 1, a)
    assert asked[0] == 5 and got.iterations > 0 and got.value > 7.9
    want = order_unit_seminorm(instance_oracle(std_m2), 1, a)
    assert (got.value, got.bracket, got.oracle_calls) == (
        want.value, want.bracket, want.oracle_calls)
    _same_verdicts(verdicts, False)


def test_a_narrow_bisect_tol_replays_the_ends_on_the_cli(tmp_path, m2_full, asked, verdicts):
    (tmp_path / "m2.json").write_text(canonical_json(algebra_to_obj(m2_full)))
    (tmp_path / "cone.json").write_text(canonical_json(
        {"variant": "standard", "algebra": "m2.json", "tol_psd": 1e-9}))
    (tmp_path / "elem.json").write_text(canonical_json(
        matrix_to_obj(np.array([[3.0, 1.0], [1.0, -1.0]], dtype=complex))))
    base = ["order-norm", "--cone", str(tmp_path / "cone.json"),
            "--element", str(tmp_path / "elem.json"), "--out", str(tmp_path / "out.json")]
    reports = []
    for tol in ("1e-15", "1e-10"):
        asked.clear()
        assert run(base + ["--bisect-tol", tol]) == 0
        reports.append((list(asked), json.loads((tmp_path / "out.json").read_text())))
    (narrow_asked, narrow), (wide_asked, wide) = reports
    assert narrow_asked == [5] and narrow["result"]["report"]["oracle_calls"] == 3
    assert wide_asked == [] and wide["result"]["report"]["oracle_calls"] == 0
    _same_verdicts(verdicts, False, True)


# -- the rounding bound, pinned from both sides of each of its margins ----------
# On std_m2, c = diag(-1, 2) has r(c) = 1 - 4e-9 and ||c||_F = sqrt(5), so every ask below
# has delta = 8 * 2 * eps * (max|t| + sqrt(5)) = 1.1497e-14 to four digits.
_DIAG = np.diag([-1.0, 2.0]).astype(complex)
_DELTA = 16.0 * np.finfo(float).eps * (1.0 + np.sqrt(5.0))


@pytest.mark.parametrize("width, replays", [(4e-14, True), (1.6e-13, False)])
def test_a_certificate_narrower_than_eight_deltas_replays_the_ends(std_m2, asked, verdicts,
                                                                   width, replays):
    # lo sits width/8 below r: 5e-15 is between delta/8 and delta, 2e-14 above delta.
    assert _DELTA / 8 < 4e-14 / 8 < _DELTA < 1.6e-13 / 8
    args = ([_DIAG], [1.0], [width], 0.0)
    asked.clear()
    got = cones._exact_brackets(std_m2, 1, *args)
    assert asked == ([3] if replays else [])
    assert got == cones._exact_brackets(instance_oracle(std_m2), 1, *args)
    _same_verdicts(verdicts, not replays)


@pytest.mark.parametrize("defect, replays", [(1e-9 - 1e-14, True), (1e-9 - 4e-14, False)])
def test_a_hermitian_defect_within_two_deltas_of_tol_psd_replays_the_ends(std_m2, asked,
                                                                          verdicts, defect,
                                                                          replays):
    # The defect plus 2 delta must stay within tol_psd = 1e-9: tol - 1e-14 lies between
    # tol - 2 delta and tol, tol - 4e-14 below tol - 2 delta.
    assert 1e-9 - 2 * _DELTA < 1e-9 - 1e-14 and 1e-9 - 4e-14 < 1e-9 - 2 * _DELTA
    c = _DIAG.copy()
    c[1, 0] = defect
    args = ([c], [1.0], [1e-9], 0.0)
    asked.clear()
    got = cones._exact_brackets(std_m2, 1, *args)
    assert asked == ([3] if replays else [])
    assert got == cones._exact_brackets(instance_oracle(std_m2), 1, *args)
    _same_verdicts(verdicts, not replays)


@pytest.mark.parametrize("margin, enclosed", [(0.5, False), (2.0, True)])
def test_mid_must_clear_r_by_delta(std_m2, margin, enclosed):
    # `_certify` puts mid as far above r as lo below, so the lo side binds there; asked
    # directly, mid half a delta above r is not enclosed, and two deltas above r is.
    r, _, bound = cones._shift_pass(std_m2, 1, _DIAG)
    mid, lo = r + margin * _DELTA, r - 1e-6
    assert bound == (0.0, np.sqrt(5.0))
    xs = (2 * mid - lo, mid, lo)
    assert cones._enclosed(std_m2, 1, bound, r, lambda x: x, xs) == enclosed
    assert enclosed_per_ask(std_m2, 1, [_DIAG], r, lambda x: x, xs) == enclosed


class _Shifted(SimilarityCone):
    """Both exact shifts high by eight certificate widths, on the frame's own oracle."""

    def min_shift_pair(self, n, c):
        return tuple(r + 8e-10 * (1.0 + abs(r)) for r in super().min_shift_pair(n, c))


class _Swapped(SimilarityCone):
    """The pair in the wrong order, on the frame's own oracle."""

    def min_shift_pair(self, n, c):
        return super().min_shift_pair(n, c)[::-1]


@pytest.mark.parametrize("kind", [_Shifted, _Swapped])
def test_an_overridden_shift_pair_keeps_bisecting(kind, planted_sim_cone, asked):
    cone = kind(planted_sim_cone.algebra, planted_sim_cone.s)
    assert cones._frame_oracle(cone) and not cones._frame_oracle(cone, "min_shift_pair")
    a = cone.sample_span_many(2, 1, np.random.default_rng(48))[0]
    asked.clear()
    got = order_unit_seminorm(cone, 2, a)
    assert asked[0] == 5 and got.iterations > 0
    want = order_unit_seminorm(instance_oracle(cone), 2, a)
    assert (got.value, got.bracket, got.oracle_calls) == (
        want.value, want.bracket, want.oracle_calls)


# -- non-finite elements ---------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("n", [1, 2])
def test_a_non_finite_element_raises_before_any_eigensolve(std_m2, bad, n, monkeypatch):
    x = np.eye(2 * n, dtype=complex)
    x[0, 1] = bad
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    monkeypatch.setattr(np.linalg, "svd", None)
    for norm in (lambda: order_unit_seminorm(std_m2, n, x),
                 lambda: pre_cstar_norm(std_m2, None, n, x)):
        with pytest.raises(MatOrderError, match="element is not finite"):
            norm()
