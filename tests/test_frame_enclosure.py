"""The shift certificate by the PSD rule: on a cone whose oracle and exact shifts
are `SimilarityCone`'s own, `cones._certify` returns the bracket it would have
certified, asking `member_many` nothing.

Each call on a frame cone is run again on `doubles.instance_oracle(cone)`,
whose `_certify` replays the bracket ends through the oracle: values and
brackets agree bit for bit, the copy's oracle confirms both ends, and only
`oracle_calls` differs.  Where the rounding bound or the premise fails (a
bracket narrower than the bound, an ill-conditioned frame, the zero element, a
threshold the slack moves below lo, an element off Hermitian in the frame, an
overridden `min_shift_pair`) the replay runs as before."""

import json

import numpy as np
import pytest

from conftest import WORKED_S
from doubles import instance_oracle
from matorder import cones
from matorder.algebra import generate_algebra, random_element
from matorder.cli import run
from matorder.cones import SimilarityCone, StandardCone
from matorder.errors import MatOrderError
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from matorder.serialization import algebra_to_obj, canonical_json, matrix_to_obj

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
    a, x = cone.sample_span(n, rng), random_element(cone.algebra, rng, level=n)
    copy = instance_oracle(cone)
    for norm, z, t, calls, size in (
            (lambda c: order_unit_seminorm(c, n, a), a, lambda r: r, 3, 5),
            (lambda c: pre_cstar_norm(c, None, n, x), cone.sharp_block(n, n, x) @ x,
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
    a = cone.sample_span(n, rng)
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
def test_frame_cone_brackets_match_the_replay_bit_for_bit(fixture, n, request, asked):
    cone = request.getfixturevalue(fixture)
    assert cones._frame_oracle(cone, "min_shift_pair", "unit")
    rng = np.random.default_rng(470 + n)
    _norms_agree(cone, n, rng, asked)
    _shifts_agree(cone, n, rng, asked)


def test_full_m6_level_eight_norms_ask_nothing(full_m6, asked):
    _norms_agree(full_m6, 8, np.random.default_rng(478), asked)


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


def test_an_ill_conditioned_frame_replays_the_ends(m2_full, asked):
    # On M_2 = S M_2 S^-1 at cond(S) = 1e3, delta exceeds a width of 1e-10.
    cone = SimilarityCone(m2_full, np.diag([1.0, 1e3]).astype(complex) @ WORKED_S)
    h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    a = cone.unstraighten(1, h)
    assert _one_replay(cone, 1, a, asked).oracle_calls == 3
    assert asked[0] == 5


def test_the_zero_element_replays_its_floor(std_m3, asked):
    zero = np.zeros((6, 6), dtype=complex)
    rep = _one_replay(std_m3, 2, zero, asked)
    assert (rep.value, rep.bracket, rep.oracle_calls) == (0.0, (0.0, 0.0), 1)
    assert asked[0] == 2


def test_a_narrow_spectrum_under_a_wide_slack_replays_the_ends(m2_full, asked):
    # At tol_psd = 0.1 the slack puts -e's threshold 2 tol^2 / (1 - tol^2) below
    # r = 1 / (1 + tol), under lo: the replay finds -e inside at lo and leaves it open.
    cone = StandardCone(m2_full, tol_psd=0.1)
    args = ([-cone.unit(1)], [1.0], [1e-3], 0.0)
    asked.clear()
    assert cones._exact_brackets(cone, 1, *args) == [None]
    assert asked == [3]
    assert cones._exact_brackets(instance_oracle(cone), 1, *args) == [None]


def test_an_element_off_hermitian_in_the_frame_replays_the_ends(std_m2, asked):
    # Sharp-self-adjoint within the norms' 1e-8, but its Hermitian defect 1e-8 exceeds
    # the PSD rule's slack until t e + a reaches about 8, far above the exact shift 3.
    a = np.array([[3.0, 5e-9j], [5e-9j, -1.0]])
    asked.clear()
    got = order_unit_seminorm(std_m2, 1, a)
    assert asked[0] == 5 and got.iterations > 0 and got.value > 7.9
    want = order_unit_seminorm(instance_oracle(std_m2), 1, a)
    assert (got.value, got.bracket, got.oracle_calls) == (
        want.value, want.bracket, want.oracle_calls)


def test_a_narrow_bisect_tol_replays_the_ends_on_the_cli(tmp_path, m2_full, asked):
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
    a = cone.sample_span(2, np.random.default_rng(48))
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
