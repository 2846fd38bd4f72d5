import numpy as np
import pytest

from conftest import WORKED_S, mat
from matorder import _linalg as la
from matorder import case_studies
from matorder.algebra import generate_algebra, random_element
from matorder.case_studies import (
    C1Sample,
    _embedded_norms,
    FunctionPullbackCone,
    c1_condition1_decay,
    c1_embed,
    c1_inequality_check,
    c1_norm,
    j_symmetrize,
    jsym_norm_identity,
    kadison_pipeline,
)
from matorder.cones import estimate_main_constants
from matorder.errors import (
    CertificationFailed,
    DimensionMismatch,
    GridTooCoarse,
    MatOrderError,
    SourceNotStarClosed,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
ONE_PLUS_SQRT2 = 1.0 + np.sqrt(2.0)


# -- doubling ---------------------------------------------------------------

def test_j_symmetrize_identity_rep(m2_full):
    rep = j_symmetrize(m2_full)
    assert rep.symmetry_residual <= 1e-12
    assert np.allclose(rep.j, rep.j.conj().T)
    np.testing.assert_allclose(rep.j @ rep.j, np.eye(4), atol=1e-12)
    x = mat([[1, 2], [3, 4]])
    np.testing.assert_allclose(rep.rho(x)[:2, :2], x, atol=1e-12)
    np.testing.assert_allclose(rep.rho(x)[2:, 2:], x.conj().T.conj().T, atol=1e-12)


def test_j_symmetrize_planted(span_i_e11):
    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in span_i_e11.basis])
    rep = j_symmetrize(span_i_e11, images)
    assert rep.symmetry_residual <= 1e-10
    # The first summand restricts back to pi.
    x = span_i_e11.synthesize([1.0, 2.0])
    np.testing.assert_allclose(
        rep.rho(x)[:2, :2],
        np.tensordot(span_i_e11.coords_of(x), images, axes=(0, 0)),
        atol=1e-12,
    )


def test_j_symmetrize_requires_star_closed(worked_algebra):
    with pytest.raises(SourceNotStarClosed):
        j_symmetrize(worked_algebra)


def test_norm_identity_exact_for_identity_rep(m2_full):
    rep = j_symmetrize(m2_full)
    report = jsym_norm_identity(rep.rho_images, m2_full, levels=(1, 2),
                                samples=15, seed=3)
    assert report.max_deviation <= 1e-12


def test_norm_identity_holds_for_doubled(m2_full):
    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in m2_full.basis])
    rep = j_symmetrize(m2_full, images)
    report = jsym_norm_identity(rep.rho_images, m2_full, levels=(1, 2, 4),
                                samples=20, seed=0)
    assert report.holds(1e-9)


def test_norm_identity_fails_undoubled(m2_full):
    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in m2_full.basis])
    report = jsym_norm_identity(images, m2_full, levels=(1,), samples=30, seed=0)
    assert report.max_deviation > 1e-3
    assert report.witness is not None
    # The witness reproduces the asymmetry.
    a = report.witness
    ya = np.linalg.inv(WORKED_S) @ a @ WORKED_S
    yb = np.linalg.inv(WORKED_S) @ a.conj().T @ WORKED_S
    assert abs(np.linalg.norm(ya, 2) - np.linalg.norm(yb, 2)) > 1e-4


def test_kadison_pipeline_worked(span_i_e11):
    report = kadison_pipeline(span_i_e11, WORKED_S, samples=20, seed=0)
    assert report.passed
    assert report.audit.passed
    assert report.cb_lower <= report.cb_upper + 1e-6
    assert report.cb_upper == pytest.approx(ONE_PLUS_SQRT2, abs=1e-3)
    assert report.cb_lower >= 2.41
    # Spectral-radius bound: the order-shift constant stays at 1.
    assert report.audit.constants["r4"].value <= 1.0 + 1e-6


def test_kadison_pipeline_unitary(m2_full):
    theta = 0.3
    u = mat([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    report = kadison_pipeline(m2_full, u, samples=15, seed=1)
    assert report.passed
    assert report.reconstruction.certificate.cond == pytest.approx(1.0, abs=1e-6)


def test_kadison_pipeline_diagonal(m2_full):
    report = kadison_pipeline(m2_full, np.diag([1.0, 3.0]).astype(complex),
                              samples=15, seed=2)
    assert report.passed
    assert report.reconstruction.certificate.cond <= 9.0 + 1e-6
    assert report.reconstruction.star_rep.image_algebra.star_closed


# -- function embedding -----------------------------------------------------

def test_c1_embed_shapes():
    s = C1Sample(np.array([0.0, 1.0]), np.array([0.0, 1.0 + 0j]),
                 np.array([1.0 + 0j, 1.0 + 0j]))
    out = c1_embed(s)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(out[:2, :2], mat([[0, 1], [0, 0]]), atol=1e-15)
    np.testing.assert_allclose(out[2:, 2:], mat([[1, 1], [0, 1]]), atol=1e-15)


def test_c1_embed_constant_one_is_identity():
    grid = np.linspace(0, 1, 5)
    s = C1Sample(grid, np.ones(5, dtype=complex), np.zeros(5, dtype=complex))
    np.testing.assert_allclose(c1_embed(s), np.eye(10), atol=1e-15)
    assert c1_norm(s) == pytest.approx(1.0, abs=1e-12)


def test_c1_norm_golden_ratio():
    s = C1Sample(np.array([1.0]), np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    assert c1_norm(s) == pytest.approx(GOLDEN, abs=1e-10)


def test_c1_norm_pure_derivative():
    s = C1Sample(np.array([0.5]), np.array([0.0 + 0j]), np.array([2.0 + 0j]))
    assert c1_norm(s) == pytest.approx(2.0, abs=1e-12)


def test_c1_norm_matches_operator_norm():
    rng = np.random.default_rng(0)
    grid = np.linspace(0, 1, 16)
    for _ in range(50):
        s = C1Sample(grid,
                     rng.standard_normal(16) + 1j * rng.standard_normal(16),
                     rng.standard_normal(16) + 1j * rng.standard_normal(16))
        assert c1_norm(s) == pytest.approx(np.linalg.norm(c1_embed(s), 2),
                                           abs=1e-10)


@pytest.mark.parametrize("m", [64, 128])
def test_c1_embedded_norm_matches_full_svd(m):
    rng = np.random.default_rng(m)
    grid = np.linspace(0.0, 1.0, m)
    for _ in range(5):
        s = C1Sample(grid, la.random_complex(rng, m), la.random_complex(rng, m))
        got = _embedded_norms(s, s.f_values[None], s.f_derivs[None])
        assert got.tolist() == [pytest.approx(la.opnorm(c1_embed(s)), rel=1e-13)]


def test_c1_norm_rejects_an_entry_off_the_diagonal_blocks(monkeypatch):
    grid = np.linspace(0.0, 1.0, 8)
    s = C1Sample(grid, np.ones(8), np.zeros(8))
    honest = c1_embed

    def leaky(sample):
        out = honest(sample)
        out[0, 3] = 1e-300  # far below any tolerance; only exact zeros pass
        return out

    monkeypatch.setattr(case_studies, "c1_embed", leaky)
    with pytest.raises(CertificationFailed):
        c1_norm(s)


def _c1_blocks(f, d) -> np.ndarray:
    out = np.zeros((len(f), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = f
    out[:, 0, 1] = d
    return out


def _kernel_cases() -> dict:
    rng = np.random.default_rng(24)
    cases = {f"random-{s:g}": s * la.random_complex_many(rng, 500, (2, 2))
             for s in (1e-150, 1e-100, 1e-6, 1.0, 1e6, 1e100, 1e150)}
    cases["random-mixed"] = (np.geomspace(1e-150, 1e150, 500)[:, None, None]
                             * la.random_complex_many(rng, 500, (2, 2)))
    unitaries = np.linalg.qr(la.random_complex_many(rng, 200, (2, 2)))[0]
    cases["scalar-unitary"] = la.random_complex(rng, 200)[:, None, None] * unitaries
    cases["rank-one"] = np.einsum("ki,kj->kij", la.random_complex_many(rng, 200, 2),
                                  la.random_complex_many(rng, 200, 2))
    cases["zero"] = np.zeros((3, 2, 2), dtype=complex)
    f = la.random_complex(rng, 200)
    cases["c1-flat"] = _c1_blocks(f, np.zeros(200))
    cases["c1-steep"] = _c1_blocks(f, 1e8 * la.random_complex(rng, 200))
    cases["c1-mixed"] = _c1_blocks(f, np.geomspace(1e-9, 1e9, 200) * la.random_complex(rng, 200))
    return cases


@pytest.mark.parametrize("name,blocks", _kernel_cases().items())
def test_top_singular_2x2_matches_lapack(name, blocks):
    got = case_studies._top_singular_2x2(blocks)
    want = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * eps * want), name


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
def test_c1_norm_rejects_a_perturbed_diagonal_block(monkeypatch, entry):
    # The cross-check measures the embedding's own entries: one 2x2 block entry
    # moved by a relative 1e-6 must break the agreement with the closed form.
    grid = np.linspace(0.0, 1.0, 8)
    s = C1Sample(grid, np.ones(8), np.full(8, 0.5))
    honest = c1_embed

    def skewed(sample):
        out = honest(sample)
        out[entry] *= 1.0 + 1e-6
        return out

    assert c1_norm(s) == pytest.approx(np.linalg.norm(c1_embed(s), 2), rel=1e-14)
    monkeypatch.setattr(case_studies, "c1_embed", skewed)
    with pytest.raises(CertificationFailed):
        c1_norm(s)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("channel", ["f_values", "f_derivs"])
def test_c1_norm_of_a_non_finite_sample_is_a_typed_error(bad, channel):
    grid = np.linspace(0.0, 1.0, 8)
    parts = {"f_values": np.ones(8, dtype=complex), "f_derivs": np.zeros(8, dtype=complex)}
    parts[channel][3] = bad
    s = C1Sample(grid, **parts)
    cone = FunctionPullbackCone(grid)
    for norm in (lambda: c1_norm(s), lambda: cone.norm_many(1, [cone.unit(1), s])):
        with pytest.raises(MatOrderError, match="finite"):
            norm()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_c1_norm_that_overflows_is_a_typed_error():
    s = C1Sample(np.array([0.5]), np.array([1e200 + 0j]), np.array([1e200 + 0j]))
    with pytest.raises(MatOrderError, match="finite"):
        c1_norm(s)


def test_c1_sample_validation():
    with pytest.raises(MatOrderError):
        C1Sample(np.array([0.5, 0.2]), np.zeros(2, dtype=complex),
                 np.zeros(2, dtype=complex))
    with pytest.raises(MatOrderError):
        C1Sample(np.array([0.0, 2.0]), np.zeros(2, dtype=complex),
                 np.zeros(2, dtype=complex))


def test_c1_product_rule():
    grid = np.linspace(0, 1, 9)
    f = C1Sample(grid, np.sin(grid).astype(complex),
                 np.cos(grid).astype(complex))
    g = C1Sample(grid, grid.astype(complex), np.ones(9, dtype=complex))
    prod = f * g
    np.testing.assert_allclose(prod.f_values, np.sin(grid) * grid, atol=1e-12)
    np.testing.assert_allclose(prod.f_derivs,
                               np.cos(grid) * grid + np.sin(grid), atol=1e-12)


def test_c1_inequalities():
    report = c1_inequality_check(samples=200, seed=1)
    assert report.passed
    assert report.violations == 0


def test_c1_decay_bounds_and_monotonicity():
    grid = np.linspace(0, 1, 256)
    ratios = {k: c1_condition1_decay(k, grid) for k in (4, 8, 16, 32)}
    for k, r in ratios.items():
        assert r <= 1.0 / k
    assert ratios[8] < ratios[4]
    assert ratios[16] < ratios[8]
    assert ratios[32] < ratios[16]


def test_c1_decay_pinned_value():
    # c1_norm is homogeneous: the ratio for c and d scaled by any eps != 0.
    assert c1_condition1_decay(4, np.linspace(0, 1, 64)) == 0.07947018639009361


def test_c1_decay_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        c1_condition1_decay(16, np.linspace(0, 1, 17))


@pytest.mark.parametrize("k", [0, -3])
def test_c1_decay_rejects_frequencies_below_one(k):
    with pytest.raises(DimensionMismatch):
        c1_condition1_decay(k)


def test_pullback_cone_membership_and_constants():
    grid = np.linspace(0, 1, 64)
    cone = FunctionPullbackCone(grid)
    rng = np.random.default_rng(2)
    c = cone.sample(1, rng)
    assert cone.member(1, c)
    assert not cone.member(1, (-1.0) * c + (-0.1) * cone.unit(1))
    r1, alpha = estimate_main_constants(cone, levels=(1,), samples=30, seed=3)
    assert 0.0 < r1.value <= 2.0
    assert 0.0 < alpha.value <= 1.0 + 1e-9
