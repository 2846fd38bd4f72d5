"""The PSD-frame membership oracle at one Hermitian eigensolve.

`SimilarityCone._psd_test` sizes its slack tol_psd (1 + ||h||_2) from the
spectrum of h = (x + x*)/2 that decides the verdict.  These tests hold it to
the SVD-sized reference slack tol_psd (1 + ||x||_2) on elements planted at
the threshold, pin the oracle's linear-algebra work, and check the GEMM
synthesis kernels against `np.tensordot`.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_similarity, random_star_closed_algebra
from matorder import _linalg as la
from matorder.algebra import block_synth, conjugate_algebra, random_element
from matorder.cones import SimilarityCone, StandardCone
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from references import herm_defect, min_eig


def _draw_cone(seed, similarity):
    rng = np.random.default_rng(seed)
    alg = random_star_closed_algebra(rng, nmax=4)
    if not similarity:
        return StandardCone(alg), rng
    s = random_similarity(rng, alg.ambient_dim, max_log10_cond=2.0)
    return SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s), rng


def _reference(cone, x):
    """The oracle with its slack sized by an SVD: tol_psd (1 + ||x||_2)."""
    s = cone.tol_psd * (1.0 + la.opnorm(x))
    return herm_defect(x) <= s and min_eig(x) >= -s


def _planted(h, tol, factor, plant):
    """Perturb the Hermitian frame matrix h so that lambda_min ("eig") or
    the Hermitian defect ("defect") sits at factor times the reference slack
    of the result; the other test passes with room to spare."""
    dim = h.shape[0]
    ev0 = float(np.linalg.eigvalsh(h)[0])
    eye = np.eye(dim)
    t = 0.0
    for _ in range(4):  # the slack depends on x only through tol * ||x||
        if plant == "eig":
            x = h - (ev0 + t) * eye
        else:
            x = h - (ev0 - 10.0 * tol * (1.0 + la.opnorm(h))) * eye
            x[0, 1] += 0.5 * t
            x[1, 0] -= 0.5 * t
        t = factor * tol * (1.0 + la.opnorm(x))
    return x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 4)), st.booleans(),
       st.integers(1, 6), st.sampled_from((-1.0, 1.0)), st.sampled_from(("eig", "defect")))
def test_psd_test_matches_svd_slack_at_the_threshold(seed, n, similarity, k, sign, plant):
    cone, rng = _draw_cone(seed, similarity)
    y = cone.straighten(n, cone.sample_many(n, 1, rng)[0])
    h = 0.5 * (y + la.dagger(y))
    x = _planted(h, cone.tol_psd, 1.0 + sign * 10.0 ** -k, plant)
    expected = _reference(cone, x)
    assert cone._psd_test(x) == expected
    if k <= 4:  # the plant lands on its side, far beyond the rounding of ev[0]
        assert expected == (sign < 0)


def _count_linalg(monkeypatch):
    """Counters on every SVD (numpy's norm, cond and rank call it inside
    numpy.linalg) and on every Hermitian or general eigensolve."""
    counts = {"svd": 0, "eigvalsh": 0, "eigensolves": 0}
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 / numpy 1
    svd = impl.svd

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(impl, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            counts["eigensolves"] += 1
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("fixture", ["std_m3", "worked_sim_cone"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_oracle_work_is_one_eigensolve_and_no_svd(fixture, n, request, monkeypatch):
    cone = copy.copy(request.getfixturevalue(fixture))
    rng = np.random.default_rng(11)
    c, a = cone.sample_many(n, 1, rng)[0], cone.sample_span_many(n, 1, rng)[0]
    x = random_element(cone.algebra, rng, level=n)
    counts = _count_linalg(monkeypatch)

    for call in (lambda: cone.member_many(n, [c])[0], lambda: cone.member_many(n, [-c])[0],
                 lambda: cone.member_many(n, [a])[0], lambda: cone.min_shift_pair(n, a),
                 lambda: cone.min_shift_pair(n, -c)):
        counts.update(svd=0, eigvalsh=0, eigensolves=0)
        call()
        assert counts == {"svd": 0, "eigvalsh": 1, "eigensolves": 1}

    # Exact path: one eigensolve for both shifts plus one stacked eigensolve for
    # the certificate's membership tests, five per norm (binding sign at hi, mid,
    # lo; the other at hi, mid).
    member_many = cone.member_many

    def counted_member_many(level, ys):
        counts["member"] += len(ys)
        return member_many(level, ys)

    cone.member_many = counted_member_many
    for rep_of, members in ((lambda: order_unit_seminorm(cone, n, a), 5),
                            (lambda: pre_cstar_norm(cone, None, n, x), 10)):
        counts.update(svd=0, eigvalsh=0, eigensolves=0, member=0)
        assert rep_of().iterations == 0
        assert counts["svd"] == 0 and counts["member"] == members
        assert counts["eigvalsh"] == counts["eigensolves"] == 2


@pytest.mark.parametrize("fixture", ["m2_full", "m3_full", "worked_algebra", "span_i_e11"])
def test_gemm_synthesis_matches_tensordot(fixture, request):
    alg = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    d = alg.dim
    for shape in [(d,), (5, d), (3, 3, d)]:
        coords = la.random_complex_many(rng, 1, shape)[0]
        np.testing.assert_allclose(alg.synthesize(coords),
                                   np.tensordot(coords, alg.basis, axes=(-1, 0)),
                                   rtol=1e-15, atol=0)
    assert alg.synthesize(np.zeros((0, d))).shape == (0, alg.ambient_dim, alg.ambient_dim)
    images = la.random_complex_many(rng, 1, (d, 3, 5))[0]
    for k in (1, 2, 4):
        coords = la.random_complex_many(rng, 1, (k, k, d))[0]
        for mats in (alg.basis, images):
            ref = np.tensordot(coords, mats, axes=(2, 0)).swapaxes(1, 2)
            np.testing.assert_allclose(block_synth(coords, mats),
                                       ref.reshape(k * mats.shape[1], k * mats.shape[2]),
                                       rtol=1e-15, atol=0)
