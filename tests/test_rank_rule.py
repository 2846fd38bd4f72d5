"""The one rank rule of `_linalg`: every rank, span and kernel decision goes
through `_rank`, and its helpers agree with each other at the cutoff."""

import sys

import numpy as np
import pytest

from conftest import WORKED_S, random_unitary
from matorder import _linalg as la
from matorder import cones, involution
from matorder.algebra import conjugate_algebra, generate_algebra, hermitian_part_basis
from matorder.cones import StandardCone
from matorder.similarity import solve_Q


def _sites(m2_full):
    cone = StandardCone(m2_full)
    span = cone.span_basis(1)
    return {
        "generate_algebra": lambda: generate_algebra([WORKED_S], include_adjoints=True),
        "conjugate_algebra": lambda: conjugate_algebra(m2_full, WORKED_S),
        "hermitian_part_basis": lambda: hermitian_part_basis(m2_full),
        "solve_Q": lambda: solve_Q(m2_full, lambda b: b.conj().T),
        "lineality_basis": lambda: cone.lineality_basis(1),
        "_span_checks": lambda: cones._span_checks(cone, 1),
        "_split": lambda: involution.decompose(cone, 1, np.eye(2), span=span),
    }


@pytest.mark.parametrize("site", ["generate_algebra", "conjugate_algebra", "hermitian_part_basis",
                                  "solve_Q", "lineality_basis", "_span_checks", "_split"])
def test_every_rank_site_calls_the_one_rule(monkeypatch, m2_full, site):
    run = _sites(m2_full)[site]
    callers = []
    rule = la._rank

    def counting(s, scale=None):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return rule(s, scale)

    monkeypatch.setattr(la, "_rank", counting)
    run()
    assert any(site in names for names in callers)


def _planted(rng, s, rows, cols, complex_entries):
    """U diag(s) V* with Haar-like U (rows x k) and V (cols x k), plus V."""
    k = len(s)
    if complex_entries:
        u = random_unitary(rng, rows)[:, :k]
        v = random_unitary(rng, cols)
    else:
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :k]
        v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    return (u * s) @ v[:, :k].conj().T, v


@pytest.mark.parametrize("top", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_planted_spectrum_falls_on_the_planted_side(top, complex_entries):
    rng = np.random.default_rng(7)
    cut = la.RANK_RTOL * top
    # Two values just above the cutoff, two just below, one exact zero.
    s = np.array([top, 0.3 * top, cut * (1 + 2e-3), cut * (1 + 1e-3),
                  cut * (1 - 1e-3), cut * (1 - 2e-3), 0.0])
    mat, v = _planted(rng, s, 9, 8, complex_entries)
    planted_rank = 4

    rank = la.rank(mat)
    rows = la.orthonormalize_rows(mat)
    null = la.nullspace(mat)
    assert rank == planted_rank
    assert rows.shape == (planted_rank, 8)
    assert null.shape == (8, 8 - planted_rank)
    # Row basis orthogonal to the kernel, and the kernel near the planted
    # one: rounding of size eps * top turns it by at most ~ eps * top / gap
    # (Davis-Kahan), the gap here being the planted 2e-3 * cut.
    assert np.abs(rows @ null).max() <= 1e-12
    turn = 10 * np.finfo(float).eps * top * np.sqrt(8) / (s[3] - s[4])
    assert np.linalg.norm(v[:, :planted_rank].conj().T @ null) <= turn
    assert np.linalg.norm(rows @ v[:, planted_rank:]) <= turn


def test_noise_floor_needs_the_entry_scale():
    rng = np.random.default_rng(3)
    noise = 1e-16 * rng.standard_normal((10, 6))
    assert la.nullspace(noise, scale=1.0).shape == (6, 6)
    assert la.nullspace(noise).shape[1] < 6
    assert la.orthonormalize_rows(noise, scale=1.0).shape == (0, 6)
    assert la.orthonormalize_rows(noise).shape[0] > 0
    assert la.rank(noise) == 6


def test_real_kernel_is_a_real_orthonormal_stack_in_the_kernel():
    rng = np.random.default_rng(11)
    basis = la.random_complex(rng, (6, 3, 3))
    cols = rng.standard_normal((2, 6))
    out = la.real_kernel(basis, cols)
    assert out.shape == (4, 3, 3) and out.dtype == complex
    gram = la.real_rows(out) @ la.real_rows(out).T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    # Each element is sum_k c_k basis[k] with real c and cols @ c = 0.
    coeffs, *_ = np.linalg.lstsq(la.real_rows(basis).T, la.real_rows(out).T, rcond=None)
    np.testing.assert_allclose(np.tensordot(coeffs.T, basis, axes=(1, 0)), out, atol=1e-12)
    assert np.abs(cols @ coeffs).max() <= 1e-12
    assert la.real_kernel(basis, rng.standard_normal((6, 6))).shape == (0, 3, 3)
