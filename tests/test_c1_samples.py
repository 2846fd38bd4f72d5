"""The function embedding's samples and constants against their one-sample
references in `references.py`: `c1_main_constants` (alpha and r1 bits, and
complements d = r - c that are real with grid minimum exactly 0, read at their
offsets in its one norm stack; one draw and one norm pass), the stream and
bits of its stacked draws, `c1_norm` bits (and the stacked norms behind the
inequality check), the condition-1 decay of a list of frequencies against
`c1_condition1_decay_per_frequency` (bits, the first bad frequency's error,
the empty list), the r1 decay under grid refinement, `C1Sample`'s grid
checks, and the typed error of an empty grid.  Inputs are built on the
samples' arrays: a sample has no arithmetic."""

import numpy as np
import pytest

from matorder import case_studies
from matorder.case_studies import (
    C1Sample,
    _c1_trig,
    c1_condition1_decay,
    c1_inequality_check,
    c1_main_constants,
    c1_norm,
)
from matorder.errors import DimensionMismatch, GridTooCoarse, MatOrderError
from references import (
    c1_condition1_decay_per_frequency,
    c1_inequality_check_per_sample,
    c1_main_constants_per_sample,
    c1_norm_per_sample,
    c1_product,
    c1_trig,
)

GRID_SIZES = [8, 64]


def _scaled(a, x):
    return C1Sample(x.grid, a * x.f_values, a * x.f_derivs)


def _sum(x, y):
    return C1Sample(x.grid, x.f_values + y.f_values, x.f_derivs + y.f_derivs)


def _samples(grid, rng):
    """Squares, negated squares and span draws on the grid, two constants, and span draws
    with imaginary parts far outside, and well inside, a 1e-9 slack."""
    g = [c1_trig(grid, 4, rng) for _ in range(9)]
    one = C1Sample(grid, np.ones(grid.size), np.zeros(grid.size))
    squares = [c1_product(x, x) for x in g[:6]]
    return (squares[:3] + [_scaled(-1.0, x) for x in squares[3:]] + g[6:]
            + [_scaled(0.5, one), _scaled(-0.5, one), _sum(g[0], _scaled(1j, g[1])),
               _sum(g[0], _scaled(1e-12j, g[1])), _sum(squares[2], _scaled(1e-12j, g[1])),
               _sum(c1_product(_scaled(-1.0, g[2]), g[2]), _scaled(1e-12j, g[0]))])


@pytest.mark.parametrize("m", GRID_SIZES)
@pytest.mark.parametrize("samples, seed", [(1, 0), (3, 7), (12, 5), (50, 0)])
def test_main_constants_match_the_per_sample_reference(monkeypatch, m, samples, seed):
    grid = np.linspace(0.0, 1.0, m)
    stacks, norms = [], case_studies._c1_norms

    def recorded(vals, ders):
        stacks.append((vals, ders))
        return norms(vals, ders)

    monkeypatch.setattr(case_studies, "_c1_norms", recorded)
    r1, alpha = c1_main_constants(grid, samples, seed)
    want_r1, want_alpha, complements = c1_main_constants_per_sample(grid, samples, seed)
    assert type(r1) is type(alpha) is float
    assert (r1, alpha) == (want_r1, want_alpha)
    # The one norm stack is [c, d, c + d, ...], n = samples + len(complements) rows each;
    # the complements d = r - c end its d rows.
    (vals, ders), = stacks
    n = samples + len(complements)
    vals, ders = vals[2 * n - len(complements):2 * n], ders[2 * n - len(complements):2 * n]
    for got, want in zip(zip(vals, ders), complements, strict=True):
        assert np.array_equal(got[0], want.f_values) and np.array_equal(got[1], want.f_derivs)
    assert not vals.imag.any() and not ders.imag.any()
    assert (vals.real.min(axis=1) == 0.0).all()


@pytest.mark.parametrize("samples", [1, 12, 50])
def test_main_constants_take_one_draw_and_one_norm_pass(monkeypatch, samples):
    calls = {"_c1_trig": [], "_c1_norms": []}
    for name, calls_of in calls.items():
        original = getattr(case_studies, name)
        monkeypatch.setattr(case_studies, name,
                            lambda *a, _f=original, _c=calls_of: _c.append(a) or _f(*a))
    c1_main_constants(np.linspace(0.0, 1.0, 16), samples, 3)
    pairs = max(4, samples // 4)
    assert [a[2] for a in calls["_c1_trig"]] == [2 * samples + pairs + 2 * samples]
    assert [len(a[0]) for a in calls["_c1_norms"]] == [3 * (samples + pairs) + 3 * samples]


def test_r1_decays_with_refinement():
    estimates = [c1_main_constants(np.linspace(0, 1, m), 30, 5, max_frequency=mf)[0]
                 for m, mf in ((32, 4), (128, 16))]
    assert estimates[1] < 0.5 * estimates[0]


def test_main_constants_keep_the_bisection_era_alpha():
    # alpha keeps the bits of the bisection-only estimate on the pullback cone; r1 sits
    # 1.05e-9 above its 0.061485847182760796, whose complements stood the bisection's
    # shift_tol (1e-9) inside the cone, where d = max c - c has grid minimum 0.
    r1, alpha = c1_main_constants(np.linspace(0, 1, 32), 12, 5)
    assert (r1, alpha) == (0.061485848235757985, 0.05162988935373106)


def test_main_constants_keep_their_bounds():
    r1, alpha = c1_main_constants(np.linspace(0, 1, 64), 30, 3)
    assert 0.0 < r1 <= 2.0
    assert 0.0 < alpha <= 1.0 + 1e-9


@pytest.mark.parametrize("grid, samples, error", [
    ([], 5, "nonempty grid"),
    ([0.0, 1.0], 0, "samples must be >= 1"),
    ([0.5, 0.2], 5, "strictly increasing"),
], ids=["empty-grid", "no-samples", "bad-grid"])
def test_main_constants_refuse_an_empty_grid_or_no_samples(grid, samples, error):
    with pytest.raises(MatOrderError, match=error):
        c1_main_constants(np.array(grid), samples, 0)


@pytest.mark.parametrize("m", GRID_SIZES)
def test_c1_norm_keeps_the_per_sample_bits(m):
    grid = np.linspace(0.0, 1.0, m)
    xs = _samples(grid, np.random.default_rng(10 + m))
    norms = [c1_norm(x) for x in xs]
    assert norms == [c1_norm_per_sample(x) for x in xs]
    assert all(type(v) is float for v in norms)
    for seed in (0, 1):
        report = c1_inequality_check(samples=25, seed=seed, grid_size=m)
        assert (report.violations, report.worst_margin) == \
            c1_inequality_check_per_sample(25, seed, m)
    grid = np.linspace(0.0, 1.0, 4 * m)
    for k in (1, m // 2):
        phase = 2.0 * np.pi * k * grid
        c = C1Sample(grid, 1.0 - np.cos(phase), 2.0 * np.pi * k * np.sin(phase))
        d = C1Sample(grid, 2.0 - c.f_values, -c.f_derivs)
        assert c1_condition1_decay([k], grid) == \
            [c1_norm_per_sample(_sum(c, d)) / c1_norm_per_sample(c)]


@pytest.mark.parametrize("m", [8, 64, 100, 256])
def test_condition1_decay_keeps_the_per_frequency_bits(m):
    grid = np.linspace(0.0, 1.0, m)
    every = list(range(1, m // 4 + 1))
    for ks in (every, every[::-1], [m // 4, 1, m // 4, 2, 1] + every[::3], [1], [m // 4]):
        got = c1_condition1_decay(ks, grid)
        assert all(type(v) is float for v in got)
        assert got == [c1_condition1_decay_per_frequency(k, grid) for k in ks]


@pytest.mark.parametrize("ks, error, k", [
    ([4, 0, -3], DimensionMismatch, "got 0"),
    ([4, 17, 0], GridTooCoarse, "frequency 17"),
    ([0, 17], DimensionMismatch, "got 0"),
    ([16, 17, 18], GridTooCoarse, "frequency 17"),
], ids=["below-one", "too-fine-first", "below-one-first", "too-fine"])
def test_condition1_decay_names_the_first_bad_frequency(ks, error, k):
    grid = np.linspace(0.0, 1.0, 64)
    with pytest.raises(error, match=k):
        c1_condition1_decay(ks, grid)
    with pytest.raises(error, match=k):
        [c1_condition1_decay_per_frequency(f, grid) for f in ks]


def test_condition1_decay_of_no_frequency_is_empty():
    assert c1_condition1_decay([], np.linspace(0.0, 1.0, 8)) == []


def test_empty_stacks_and_a_one_point_grid_keep_the_per_sample_bits():
    grid = np.array([0.0])
    xs = _samples(grid, np.random.default_rng(1))
    assert [c1_norm(x) for x in xs] == [c1_norm_per_sample(x) for x in xs]
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
def test_stacked_draws_keep_the_stream_and_bits(m):
    grid = np.linspace(0.0, 1.0, m)
    stacked, single = np.random.default_rng(20 + m), np.random.default_rng(20 + m)
    vals, ders = _c1_trig(grid, 4, 5, stacked)
    want = [c1_trig(grid, 4, single) for _ in range(5)]
    assert stacked.bit_generator.state == single.bit_generator.state
    for v, d, ref in zip(vals, ders, want, strict=True):
        assert np.array_equal(v, ref.f_values) and np.array_equal(d, ref.f_derivs)
    vals, ders = _c1_trig(grid, 4, 0, stacked)
    assert vals.shape == ders.shape == (0, m)
    assert stacked.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("grid, message", [
    ([0.5, 0.2], "strictly increasing"),
    ([0.0, 0.5, 0.5], "strictly increasing"),
    ([0.0, 2.0], r"lie in \[0, 1\]"),
    ([-1e-11, 1.0], r"lie in \[0, 1\]"),
    ([0.0, 1.0 + 1e-11], r"lie in \[0, 1\]"),
    ([np.nan], r"lie in \[0, 1\]"),
    ([0.0, np.nan], r"lie in \[0, 1\]"),
    ([np.nan, 0.5], r"lie in \[0, 1\]"),
    ([0.0, np.nan, 1.0], "strictly increasing"),
], ids=["decreasing", "repeated", "past-one", "below-the-slack", "above-the-slack",
        "nan", "nan-last", "nan-first", "nan-inside"])
def test_a_grid_not_increasing_in_the_unit_interval_is_a_typed_error(grid, message):
    zeros = np.zeros(len(grid))
    with pytest.raises(MatOrderError, match=message):
        C1Sample(np.array(grid), zeros, zeros)


def test_a_grid_is_taken_within_the_slack_of_its_samples():
    # C1Sample's 1e-12 slack at 0 and 1, and nothing more.
    grid = [-1e-13, 0.5, 1.0 + 1e-13]
    assert list(C1Sample(np.array(grid), np.zeros(3), np.zeros(3)).grid) == grid
