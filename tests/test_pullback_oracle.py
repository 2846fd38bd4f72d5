"""The function embedding's pullback cone on the stacked oracle protocol,
against its one-sample references in `references.py`: `member_many`
verdicts, `norm_many` bits (and the stacked `c1_norm` behind the inequality
check and the condition-1 decay), the stream and bits of `sample_many` and
`sample_span_many`, certified exact shifts of both signs (the second the
first of -f, bit for bit) that take no bisection step, the
bisection fallback of a non-real element, samples on another grid, and the
typed errors of an empty grid and of an element that is not a sample."""

import numpy as np
import pytest

from matorder.case_studies import (
    C1Sample,
    FunctionPullbackCone,
    c1_condition1_decay,
    c1_embed,
    c1_inequality_check,
    c1_norm,
)
from matorder.cones import _exact_brackets, _inf_shifts, _sup_shifts_down
from matorder.errors import LevelUnsupported, MatOrderError
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from references import (
    c1_inequality_check_per_sample,
    c1_norm_per_sample,
    certificate,
    certified,
    pullback_member,
    pullback_trig,
)
from test_shifts import _opaque

GRID_SIZES = [8, 64]


class _Recording(FunctionPullbackCone):
    """The pullback cone, recording the size of every `member_many` batch."""

    def __init__(self, grid):
        super().__init__(grid)
        self.batches = []

    def member_many(self, n, xs):
        self.batches.append(len(xs))
        return super().member_many(n, xs)


def _cone(m):
    return _Recording(np.linspace(0.0, 1.0, m))


def _real(cone, rng):
    """Cone samples, negated cone samples, span samples and two constants."""
    e = cone.unit(1)
    return (cone.sample_many(1, 3, rng) + [-c for c in cone.sample_many(1, 3, rng)]
            + cone.sample_span_many(1, 3, rng) + [0.5 * e, (-0.5) * e])


def _complex(cone, rng):
    """Span samples with imaginary parts far outside, and well inside, the slack."""
    a, b, c = cone.sample_span_many(1, 3, rng)
    return [a + 1j * b, a + 1e-12j * b, c * c + 1e-12j * b, (-1.0) * c * c + 1e-12j * a]


@pytest.mark.parametrize("m", GRID_SIZES)
def test_member_many_matches_the_per_sample_member(m):
    cone = _cone(m)
    rng = np.random.default_rng(m)
    cs = _real(cone, rng) + _complex(cone, rng)
    # The certificate points of each exact shift, a tenth of tol_psd either side.
    e = cone.unit(1)
    xs = cs + [t * e + c for c, r in zip(cs, cone.min_shift_pair(1, cs)[0])
               for t in certificate(float(r), 0.2 * cone.tol_psd, -np.inf)]
    got = cone.member_many(1, xs)
    assert got == [pullback_member(cone, x) for x in xs]
    assert got == [cone.member_many(1, [x])[0] for x in xs]
    assert True in got and False in got
    assert cone.member_many(1, []) == []


@pytest.mark.parametrize("m", GRID_SIZES)
def test_the_second_shift_is_the_first_of_the_negated_sample(m):
    # r(-f) = (max Re f - t (1 - min Re f + sup|f'|)) / (1 + t) has the bits of
    # the first sign of -f, and both signs certify under the cone's own oracle.
    cone = _cone(m)
    cs = _real(cone, np.random.default_rng(m + 1))
    up, down = cone.min_shift_pair(1, cs)
    assert down.tolist() == [cone.min_shift_pair(1, -c)[0] for c in cs]
    assert up.tolist() == [cone.min_shift_pair(1, c)[0] for c in cs]
    e, width = cone.unit(1), 0.2 * cone.tol_psd
    for elements, rs in ((cs, up), ([-c for c in cs], down)):
        for c, r in zip(elements, rs):
            points = certificate(float(r), width, -np.inf)
            assert certified(points, cone.member_many(1, [t * e + c for t in points]))


@pytest.mark.parametrize("m", GRID_SIZES)
def test_norm_many_keeps_the_per_sample_bits(m):
    cone = _cone(m)
    rng = np.random.default_rng(10 + m)
    xs = _real(cone, rng) + _complex(cone, rng)
    norms = cone.norm_many(1, xs)
    assert norms == [c1_norm_per_sample(x) for x in xs]
    assert norms == [c1_norm(x) for x in xs] == [cone.norm_many(1, [x])[0] for x in xs]
    assert all(type(v) is float for v in norms)
    assert cone.norm_many(1, []) == []
    for seed in (0, 1):
        report = c1_inequality_check(samples=25, seed=seed, grid_size=m)
        assert (report.violations, report.worst_margin) == \
            c1_inequality_check_per_sample(25, seed, m)
    grid = np.linspace(0.0, 1.0, 4 * m)
    for k in (1, m // 2):
        phase = 2.0 * np.pi * k * grid
        c = C1Sample(grid, 1.0 - np.cos(phase), 2.0 * np.pi * k * np.sin(phase))
        d = C1Sample(grid, 2.0 - c.f_values, -c.f_derivs)
        assert c1_condition1_decay(k, grid) == c1_norm_per_sample(c + d) / c1_norm_per_sample(c)


def test_empty_stacks_and_a_one_point_grid_keep_the_per_sample_bits():
    cone = _cone(1)
    xs = _real(cone, np.random.default_rng(1)) + _complex(cone, np.random.default_rng(2))
    assert cone.norm_many(1, xs) == [c1_norm_per_sample(x) for x in xs]
    assert cone.norm_many(1, []) == []
    empty = C1Sample(np.array([]), np.array([]), np.array([]))
    assert c1_norm(empty) == c1_norm_per_sample(empty) == 0.0
    for m in (0, 1):
        for k in (0, 3):
            report = c1_inequality_check(samples=k, seed=k, grid_size=m)
            assert (report.violations, report.worst_margin) == \
                c1_inequality_check_per_sample(k, k, m)
    point = C1Sample(np.array([0.25]), np.array([0.0]), np.array([3.0]))
    assert c1_norm(point) == c1_norm_per_sample(point) == 3.0


@pytest.mark.parametrize("m", GRID_SIZES)
@pytest.mark.parametrize("span", [False, True])
def test_stacked_draws_keep_the_stream_and_bits(m, span):
    cone = _cone(m)
    stacked, single = np.random.default_rng(20 + m), np.random.default_rng(20 + m)
    many = (cone.sample_span_many if span else cone.sample_many)(1, 5, stacked)
    want = [pullback_trig(cone, single) for _ in range(5)]
    want = want if span else [g * g for g in want]
    assert stacked.bit_generator.state == single.bit_generator.state
    for got, ref in zip(many, want, strict=True):
        assert got.grid is cone.grid
        assert np.array_equal(got.f_values, ref.f_values)
        assert np.array_equal(got.f_derivs, ref.f_derivs)
    one = (cone.sample_span_many if span else cone.sample_many)(1, 1, stacked)[0]
    ref = pullback_trig(cone, single)
    ref = ref if span else ref * ref
    assert np.array_equal(one.f_values, ref.f_values)
    state = stacked.bit_generator.state
    assert cone.sample_many(1, 0, stacked) == cone.sample_span_many(1, 0, stacked) == []
    assert stacked.bit_generator.state == state


@pytest.mark.parametrize("m", GRID_SIZES)
def test_every_real_exact_shift_is_certified_without_bisection(m):
    cone = _cone(m)
    cs = _real(cone, np.random.default_rng(30 + m))
    tol = 1e-9
    for scales in ([1.0] * len(cs), cone.norm_many(1, cs)):
        assert None not in _exact_brackets(cone, 1, cs, scales, [tol] * len(cs), 0.0)
        cone.batches.clear()
        got = _inf_shifts(cone, 1, cs, scales, tol)
        # The certificate is the only oracle call: no bisection step.
        assert len(cone.batches) == 1
        slow = _inf_shifts(_opaque(cone), 1, cs, scales, tol)
        assert len(cone.batches) > 2
        assert all(abs(r - s) <= tol for r, s in zip(got, slow))
    members = cone.sample_many(1, 4, np.random.default_rng(40 + m))
    widths = [0.2 * cone.tol_psd * (1.0 + v) for v in cone.norm_many(1, members)]
    cone.batches.clear()
    got = _sup_shifts_down(cone, 1, members, widths)
    assert len(cone.batches) == 1
    for (lo, hi), (flo, fhi), w in zip(got, _sup_shifts_down(_opaque(cone), 1, members, widths),
                                       widths):
        assert hi - lo <= w and abs(0.5 * (lo + hi) - 0.5 * (flo + fhi)) <= w


@pytest.mark.parametrize("m", GRID_SIZES)
def test_a_non_real_element_takes_the_bisection_bracket(m):
    cone = _cone(m)
    a, b = cone.sample_span_many(1, 2, np.random.default_rng(50 + m))
    # A constant imaginary part that only a shift of about 3 brings within the
    # slack, far above the real part's; and one that no shift brings in.
    near, far = 0.1 * a + 5e-9j * cone.unit(1), a + 1j * b
    cs, tol = [near, far], 1e-9
    assert _exact_brackets(cone, 1, cs, [1.0, 1.0], [tol, tol], 0.0) == [None, None]
    cone.batches.clear()
    got = _inf_shifts(cone, 1, cs, [1.0, 1.0], tol)
    exact_calls = len(cone.batches)
    cone.batches.clear()
    assert got == _inf_shifts(_opaque(cone), 1, cs, [1.0, 1.0], tol)
    # The same search plus the one certificate call that failed.
    assert exact_calls == len(cone.batches) + 1
    assert got[0] > 1.0 and got[1] is None
    assert cone.member_many(1, [(got[0] + tol) * cone.unit(1) + near])[0]


def test_an_empty_grid_is_a_typed_error_at_construction():
    with pytest.raises(MatOrderError, match="nonempty grid"):
        FunctionPullbackCone(np.array([]))


@pytest.mark.parametrize("grid, message", [
    ([0.5, 0.2], "strictly increasing"),
    ([0.0, 0.5, 0.5], "strictly increasing"),
    ([0.0, 2.0], r"lie in \[0, 1\]"),
    ([-1e-11, 1.0], r"lie in \[0, 1\]"),
    ([0.0, 1.0 + 1e-11], r"lie in \[0, 1\]"),
], ids=["decreasing", "repeated", "past-one", "below-the-slack", "above-the-slack"])
def test_a_grid_not_increasing_in_the_unit_interval_is_a_typed_error(grid, message):
    with pytest.raises(MatOrderError, match=message):
        FunctionPullbackCone(np.array(grid))


def test_a_grid_is_taken_within_the_slack_of_its_samples():
    # C1Sample's 1e-12 slack at 0 and 1, and nothing more.
    grid = [-1e-13, 0.5, 1.0 + 1e-13]
    assert list(FunctionPullbackCone(np.array(grid)).grid) == grid


def test_a_matrix_is_not_a_pullback_cone_element():
    cone = FunctionPullbackCone(np.linspace(0.0, 1.0, 4))
    x = np.eye(1, dtype=complex)
    for ask in (lambda: cone.member_many(1, [x])[0], lambda: cone.min_shift_pair(1, x),
                lambda: cone.min_shift_pair(1, [x]), lambda: cone.norm_many(1, [x])[0],
                lambda: cone.straighten(1, x)):
        with pytest.raises(MatOrderError, match="C1Sample"):
            ask()


def test_the_cone_has_level_one_only_and_its_involution_conjugates():
    grid = np.linspace(0.0, 1.0, 4)
    cone = FunctionPullbackCone(grid)
    x = C1Sample(grid, grid + 1j * grid ** 2, 1.0 + 2j * grid)
    y = x.conj()
    assert np.array_equal(y.f_values, x.f_values.conj())
    assert np.array_equal(y.f_derivs, x.f_derivs.conj())
    for ask in (lambda: cone.member_many(2, [x])[0], lambda: cone.min_shift_pair(2, [x]),
                lambda: cone.sample_many(2, 1, np.random.default_rng(0))):
        with pytest.raises(LevelUnsupported, match="level 1 only"):
            ask()
    # The order norms, which apply an involution to matrices, ask for matrix levels.
    for ask in (lambda: order_unit_seminorm(cone, 1, x), lambda: pre_cstar_norm(cone, None, 1, x)):
        with pytest.raises(LevelUnsupported, match="no matrix levels"):
            ask()


def test_samples_on_different_grids_do_not_combine():
    zeros = np.zeros(4, dtype=complex)
    a = C1Sample(np.linspace(0.0, 1.0, 4), zeros + 1.0, zeros)
    b = C1Sample(np.linspace(0.0, 0.5, 4), zeros + 2.0, zeros)
    for combine in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a, lambda: a @ b):
        with pytest.raises(MatOrderError):
            combine()
    # The same points as another array combine.
    same = C1Sample(np.linspace(0.0, 1.0, 4), zeros + 2.0, zeros)
    assert np.array_equal((a + same).f_values, zeros + 3.0)
    cone = FunctionPullbackCone(np.linspace(0.0, 1.0, 4))
    for ask in (lambda: cone.member_many(1, [a, b]), lambda: cone.member_many(1, [b])[0],
                lambda: cone.norm_many(1, [b]), lambda: cone.min_shift_pair(1, b),
                lambda: cone.min_shift_pair(1, [a, b])):
        with pytest.raises(MatOrderError):
            ask()
    assert cone.member_many(1, [a, same]) == [True, True]


def test_arithmetic_reuses_the_validated_grid(monkeypatch):
    grid = np.linspace(0.0, 1.0, 5)
    a = C1Sample(grid, np.sin(grid), np.cos(grid))
    b = C1Sample(grid, grid, np.ones(5))
    cone = FunctionPullbackCone(grid)

    def no_validation(self):
        raise AssertionError("grid validated again")

    monkeypatch.setattr(C1Sample, "__post_init__", no_validation)
    for out in (a + b, a - b, a * b, a @ b, 2.0 * a, a * (1 + 1j), -a, a.conj(),
                cone.unit(1), cone.sample_many(1, 1, np.random.default_rng(0))[0],
                cone.sample_span_many(1, 1, np.random.default_rng(0))[0]):
        assert out.grid is a.grid
    np.testing.assert_array_equal((a * b).f_derivs, np.cos(grid) * grid + np.sin(grid))
    # `@`, the product the alpha estimate takes, is the embedding's: the product rule.
    np.testing.assert_allclose(c1_embed(a @ b), c1_embed(a) @ c1_embed(b), rtol=0, atol=1e-15)
    # A sample built from outside, or scaled pointwise by an array, is validated.
    with pytest.raises(AssertionError):
        C1Sample(grid, a.f_values, a.f_derivs)
    with pytest.raises(AssertionError):
        a * np.ones(5)
