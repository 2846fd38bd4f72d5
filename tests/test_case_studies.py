from dataclasses import replace

import numpy as np
import pytest

import references
from conftest import WORKED_S, level_one_inverse_bound, mat, random_similarity
from matorder import _linalg as la
from matorder import case_studies, similarity
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
from matorder.cones import StandardCone, compress, estimate_main_constants
from matorder.errors import (
    CertificationFailed,
    DimensionMismatch,
    GridTooCoarse,
    MatOrderError,
    SourceNotStarClosed,
)
from matorder.order_norms import null_space
from matorder.serialization import cone_from_obj
from matorder.similarity import DEFAULT_CERT_TOL

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
ONE_PLUS_SQRT2 = 1.0 + np.sqrt(2.0)


# -- doubling ---------------------------------------------------------------

def test_j_symmetrize_identity_rep(m2_full):
    rep = j_symmetrize(m2_full, m2_full.basis)
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


def _planted_rep(algebra, seed=0):
    """j_symmetrize of pi = S^-1 (.) S for a random S of cond(S) <= 10."""
    s = random_similarity(np.random.default_rng(seed), algebra.ambient_dim, 1.0)
    return j_symmetrize(algebra, np.linalg.inv(s) @ algebra.basis @ s)


@pytest.mark.parametrize("k", [1, 3, 4, 5])
def test_rho_of_a_stack_is_rho_of_each_matrix(m2_full, k):
    # k = 4 = dim M_2: a stack as long as the basis once contracted against it.
    rep = _planted_rep(m2_full)
    xs = m2_full.synthesize(la.random_complex_many(np.random.default_rng(k), k, m2_full.dim))
    got = rep.rho(xs)
    assert got.shape == (k, 4, 4)
    for x, y in zip(xs, got):
        np.testing.assert_allclose(y, rep.rho(x), rtol=0, atol=1e-12 * (1.0 + la.frob(y)))


def test_rho_of_a_level_2_block_matrix_is_rho_block_by_block(m2_full):
    rep = _planted_rep(m2_full)
    x = random_element(m2_full, np.random.default_rng(1), level=2)
    got = rep.rho(x)
    assert got.shape == (8, 8)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(got[4 * i:4 * i + 4, 4 * j:4 * j + 4],
                                       rep.rho(x[2 * i:2 * i + 2, 2 * j:2 * j + 2]),
                                       rtol=0, atol=1e-12 * (1.0 + la.frob(got)))


@pytest.mark.parametrize("name", ["m2_full", "m3_full", "span_i_e11"])
def test_stacked_rho_images_match_the_per_element_reference(name, request):
    algebra = request.getfixturevalue(name)
    rep = _planted_rep(algebra, seed=2)
    want = references.j_symmetrize_per_element(algebra, rep.pi_images)
    np.testing.assert_allclose(rep.rho_images, want, rtol=0,
                               atol=1e-13 * (1.0 + la.frob(want)))
    assert rep.symmetry_residual <= 1e-12


def test_j_symmetrize_requires_star_closed(worked_algebra):
    with pytest.raises(SourceNotStarClosed):
        j_symmetrize(worked_algebra, worked_algebra.basis)


def test_norm_identity_exact_for_identity_rep(m2_full):
    rep = j_symmetrize(m2_full, m2_full.basis)
    report = jsym_norm_identity(rep.rho_images, m2_full, levels=(1, 2),
                                samples=15, seed=3)
    assert report.max_deviation <= 1e-12


def test_norm_identity_holds_for_doubled(m2_full):
    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in m2_full.basis])
    rep = j_symmetrize(m2_full, images)
    report = jsym_norm_identity(rep.rho_images, m2_full, levels=(1, 2, 4),
                                samples=20, seed=0)
    assert report.max_deviation <= 1e-9


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
    recon = report.reconstruction
    assert recon.cb_lower <= recon.cb_upper + 1e-6
    assert recon.cb_upper == pytest.approx(ONE_PLUS_SQRT2, abs=1e-3)
    assert recon.cb_lower >= 2.41
    assert recon.cb_upper <= level_one_inverse_bound(recon) ** 2 * (1.0 + 1e-9)
    # Spectral-radius bound: the order-shift constant stays at 1.
    assert report.audit.constants["r4"].value <= 1.0 + 1e-6


def test_kadison_report_gates_the_composition_residual_at_its_cert_tol(span_i_e11):
    report = kadison_pipeline(span_i_e11, WORKED_S, samples=20, seed=0)
    assert report.passed and report.cert_tol == DEFAULT_CERT_TOL == 1e-7
    # Residuals between the run's cert_tol and 1e-7, on both sides of 1e-7.
    for residual, cert_tol in ((1.64e-15, 1.5e-15), (1.64e-15, 1.7e-15), (1e-6, 1e-5),
                               (1e-6, 9e-7)):
        assert replace(report, star_rep_residual=residual, cert_tol=cert_tol).passed == (
            residual <= cert_tol)


def test_kadison_pipeline_unitary(m2_full):
    theta = 0.3
    u = mat([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    report = kadison_pipeline(m2_full, u, samples=15, seed=1)
    assert report.passed
    assert report.reconstruction.certificate.cond == pytest.approx(1.0, abs=1e-6)


# A near-isometric S on M_3 (cond(S) 1.0099): the level-1 and level-2 ascents
# left its doubled sandwich open by 1.3e-3.
NEAR_ISOMETRY = np.array([
    [-0.23134536683176588 - 0.7058291237237394j, 0.5007285032570252 - 0.0521695444324052j,
     0.22586018963613735 - 0.36302478720282294j],
    [-0.39953578984966465 + 0.19399343202869976j, -0.00810411893182427 - 0.1000967918192184j,
     0.8057872412181906 + 0.36544966579650423j],
    [-0.4087333816310731 - 0.27574299866005453j, -0.6175822704498322 + 0.5876665296985258j,
     -0.00733097210400113 - 0.14990990347730193j]])


def test_kadison_pipeline_closes_a_near_isometric_sandwich_without_ascent(monkeypatch, m3_full):
    def no_ascent(*args, **kwargs):
        raise AssertionError("cb_lower_bound asked")

    monkeypatch.setattr(similarity, "cb_lower_bound", no_ascent)
    report = kadison_pipeline(m3_full, NEAR_ISOMETRY, samples=4, seed=0)
    assert np.linalg.cond(NEAR_ISOMETRY) == pytest.approx(1.01, abs=1e-3)
    recon = report.reconstruction
    assert report.passed and recon.cb_level == 1
    assert recon.cb_upper - recon.cb_lower <= DEFAULT_CERT_TOL * recon.cb_upper


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
        got = _embedded_norms(s.f_values[None], s.f_derivs[None])
        assert got.tolist() == [pytest.approx(la.opnorm(c1_embed(s)), rel=1e-13)]


def test_c1_norm_rejects_an_entry_off_the_diagonal_blocks():
    # The embedding is assembled from its block stack, so nothing can lie off the
    # diagonal blocks and no lower-left entry is ever written: both hold exactly.
    for m in (1, 8, 64):
        rng = np.random.default_rng(m)
        s = C1Sample(np.linspace(0.0, 1.0, m), la.random_complex(rng, m),
                     la.random_complex(rng, m))
        blocks = case_studies._c1_blocks(s.f_values, s.f_derivs)
        embedded = c1_embed(s)
        diag = np.arange(m)
        assert np.array_equal(embedded.reshape(m, 2, m, 2)[diag, :, diag, :], blocks)
        assert np.count_nonzero(embedded) == np.count_nonzero(blocks) == 3 * m
        assert np.all(blocks[:, 1, 0] == 0.0)


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
    cases["c1-flat"] = case_studies._c1_blocks(f, np.zeros(200))
    cases["c1-steep"] = case_studies._c1_blocks(f, 1e8 * la.random_complex(rng, 200))
    cases["c1-mixed"] = case_studies._c1_blocks(
        f, np.geomspace(1e-9, 1e9, 200) * la.random_complex(rng, 200))
    return cases


@pytest.mark.parametrize("name,blocks", _kernel_cases().items())
def test_top_singular_2x2_matches_lapack(name, blocks):
    got = case_studies._top_singular_2x2(blocks)
    want = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * eps * want), name


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
def test_c1_norm_rejects_a_perturbed_diagonal_block(monkeypatch, entry):
    # The cross-check measures the embedding's own blocks: one 2x2 block entry
    # moved by a relative 1e-6 must break the agreement with the closed form.
    grid = np.linspace(0.0, 1.0, 8)
    s = C1Sample(grid, np.ones(8), np.full(8, 0.5))
    honest = case_studies._c1_blocks

    def skewed(vals, ders):
        out = honest(vals, ders)
        out[(..., *entry)] *= 1.0 + 1e-6
        return out

    assert c1_norm(s) == pytest.approx(np.linalg.norm(c1_embed(s), 2), rel=1e-14)
    monkeypatch.setattr(case_studies, "_c1_blocks", skewed)
    with pytest.raises(CertificationFailed):
        c1_norm(s)


def test_no_c1_norm_path_builds_the_dense_embedding(monkeypatch):
    calls = []
    monkeypatch.setattr(case_studies, "c1_embed", calls.append)
    grid = np.linspace(0.0, 1.0, 16)
    s = C1Sample(grid, np.ones(16), np.full(16, 0.5))
    cone = FunctionPullbackCone(grid)
    c1_norm(s)
    cone.norm_many(1, [cone.unit(1), s])
    c1_inequality_check(samples=5, seed=0, grid_size=16)
    c1_condition1_decay(4, grid)
    assert calls == []


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
    with pytest.raises(MatOrderError, match="share a shape"):
        C1Sample(np.array([0.0, 1.0]), np.zeros(3, dtype=complex),
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
        c1_condition1_decay(k, np.linspace(0, 1, 64))


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


# -- options with one value in use ------------------------------------------

@pytest.mark.parametrize("call", [
    lambda alg: cone_from_obj({"variant": "standard"}, pointer="/cone"),
    lambda alg: compress(np.eye(4, dtype=complex), 0, 1, ambient_dim=2),
    lambda alg: kadison_pipeline(alg, WORKED_S, cb_level=2),
    lambda alg: null_space(StandardCone(alg), 1, bisect_tol=1e-6),
    lambda alg: j_symmetrize(alg),
    lambda alg: c1_condition1_decay(4),
], ids=["cone_from_obj-pointer", "compress-ambient_dim", "kadison_pipeline-cb_level",
        "null_space-bisect_tol", "j_symmetrize-pi_images", "c1_condition1_decay-grid"])
def test_a_removed_option_raises_type_error(m2_full, call):
    with pytest.raises(TypeError):
        call(m2_full)
