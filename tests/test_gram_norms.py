"""The Gram kernel behind `SimilarityCone.norm_many`: `la.top_singular_values`
against the values-only SVD on stacks that stress it (Gaussian, rank one,
strictly upper triangular, singular values spread over 1e-12, each also at
1e200 and 1e-200), and the sampled constants' work: one Gram eigensolve per
level for `estimate_main_constants` and `_k_estimate`, and no SVD."""

import numpy as np
import pytest

from matorder import _linalg as la
from matorder.cones import _k_estimate, estimate_main_constants

EPS = np.finfo(float).eps


def _stacks(rng, n, k=4):
    """Named (k, n, n) complex stacks of size n."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = gauss(k, n, n)
    q1, q2 = np.linalg.qr(gauss(k, n, n))[0], np.linalg.qr(gauss(k, n, n))[0]
    return {"gaussian": g, "rank-one": gauss(k, n, 1) @ gauss(k, 1, n),
            "strictly-upper": np.triu(g, 1),
            "spread-1e-12": (q1 * np.logspace(0.0, -12.0, n)) @ q2}


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_top_singular_values_agree_with_the_svd_within_2n_eps(scale):
    rng = np.random.default_rng(56)
    for n in range(1, 49):
        for name, stack in _stacks(rng, n).items():
            x = scale * stack
            want = np.linalg.svd(x, compute_uv=False)[:, 0]
            got = la.top_singular_values(x)
            assert np.isfinite(got).all(), (name, n)
            # A 1 x 1 strictly upper triangular matrix is zero, and so is its norm.
            np.testing.assert_allclose(got, want, rtol=2 * n * EPS, atol=0.0,
                                       err_msg=f"{name}, n = {n}")


def test_a_zero_matrix_reads_exactly_zero_and_no_entry_overflows_or_underflows():
    # Squared without the power-of-two scaling, the largest double overflows and the
    # others underflow to zero.
    tops = [0.0, np.finfo(float).max, 1e-300, np.finfo(float).tiny, 5e-324, 0.0]
    x = np.zeros((len(tops), 4, 4), dtype=complex)
    x[:, 0, 3] = tops
    got = la.top_singular_values(x)
    assert got.tolist() == [pytest.approx(t, rel=2 * EPS, abs=0.0) for t in tops]
    assert got[0] == got[-1] == 0.0 and not np.signbit(got).any()


@pytest.mark.parametrize("fixture", ["std_m2", "worked_sim_cone"])
@pytest.mark.parametrize("levels", [(1,), (1, 2, 3)])
def test_sampled_constants_take_one_gram_eigensolve_per_level_and_no_svd(
        fixture, levels, request, monkeypatch):
    cone = request.getfixturevalue(fixture)
    runs = (lambda: estimate_main_constants(cone, levels, samples=8, seed=3),
            lambda: _k_estimate(cone, levels, 8, np.random.default_rng(3)))
    for run in runs:  # Builds what the cone keeps (A = S B S^-1, spans) first.
        run()
    svds, grams = [], []
    svd, top = np.linalg.svd, la.top_singular_values
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    monkeypatch.setattr(la, "top_singular_values", lambda x: grams.append(len(x)) or top(x))
    for run in runs:
        del grams[:], svds[:]
        run()
        assert (len(grams), svds) == (len(levels), [])
