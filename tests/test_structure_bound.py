"""The structure bound on a full algebra: M_n(M_N) = M_nN, so no matrix of N x N blocks
lies outside it, and `_outside` and `validate` decide nothing but the shape there."""

import numpy as np
import pytest

from conftest import E11, E12, mat
from matorder import algebra as algebra_mod
from matorder.algebra import (OperatorAlgebra, _outside, generate_algebra, level_residual,
                              project)
from matorder.cones import StandardCone
from matorder.errors import DimensionMismatch, MembershipError
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm


@pytest.fixture
def work(monkeypatch):
    """Counts of `OperatorAlgebra.coords_of` and `algebra.level_residual` calls."""
    counts = {"coords_of": 0, "level_residual": 0}
    coords_of, residual = OperatorAlgebra.coords_of, algebra_mod.level_residual

    def counted_coords(self, x):
        counts["coords_of"] += 1
        return coords_of(self, x)

    def counted_residual(algebra, x):
        counts["level_residual"] += 1
        return residual(algebra, x)

    monkeypatch.setattr(OperatorAlgebra, "coords_of", counted_coords)
    monkeypatch.setattr(algebra_mod, "level_residual", counted_residual)
    return counts


def _full_m6():
    rng = np.random.default_rng(6)
    return generate_algebra(list(rng.standard_normal((2, 6, 6))))


def _hermitian(rng, size):
    g = rng.standard_normal((size, size))
    return g + g.T


@pytest.mark.parametrize("case", ["standard-m2", "planted-m2", "standard-m6-level-8"])
def test_a_full_algebra_projects_nothing_to_check_membership(request, work, case):
    if case == "standard-m2":
        cone, n = StandardCone(request.getfixturevalue("m2_full")), 2
    elif case == "planted-m2":
        cone, n = request.getfixturevalue("planted_sim_cone"), 2
    else:
        cone, n = StandardCone(_full_m6()), 8
    algebra, size = cone.algebra, n * cone.algebra.ambient_dim
    assert algebra.dim == algebra.ambient_dim ** 2
    rng = np.random.default_rng(0)
    x = _hermitian(rng, size) + 1j * _hermitian(rng, size)
    a = x + cone.sharp_block(x)
    work.update(coords_of=0, level_residual=0)
    cone.member_many(n, np.stack([a, -a, np.eye(size)]))
    cone.min_shift_pair(n, np.stack([a, x @ x.conj().T]))
    order_unit_seminorm(cone, n, a)
    pre_cstar_norm(cone, None, n, x)
    algebra.validate()
    assert work == {"coords_of": 0, "level_residual": 0}
    # `project` computes the coordinates it returns, and checks nothing more.
    project(algebra, x[:algebra.ambient_dim, :algebra.ambient_dim])
    assert work == {"coords_of": 1, "level_residual": 0}


def test_a_proper_subalgebra_projects_once_per_membership_call(span_i_e11, work):
    cone = StandardCone(span_i_e11)
    for n, xs in [(1, [np.eye(2), E11, -E11]),
                  (2, [np.kron(mat([[2, 1], [1, 2]]), np.eye(2)), np.kron(np.eye(2), E11)])]:
        work.update(coords_of=0, level_residual=0)
        cone.member_many(n, xs)
        assert work == {"coords_of": 1, "level_residual": 1}
    with pytest.raises(MembershipError):
        cone.member_many(1, [E12])[0]


def test_the_bound_is_structure_tol_times_one_plus_the_frobenius_norm(span_i_e11):
    # E12 lies wholly outside the diagonal algebra, so x = t E12 has residual t and
    # ||x||_F = t: the bound 1e-9 (1 + t) refuses t = 5e-9 and takes t = 5e-10, as a
    # matrix and as a stack of one.
    assert span_i_e11.structure_tol == 1e-9
    for shape in ((2, 2), (1, 2, 2)):
        with pytest.raises(MembershipError):
            _outside(span_i_e11, (5e-9 * E12).reshape(shape))
        _outside(span_i_e11, (5e-10 * E12).reshape(shape))


@pytest.mark.parametrize("big_n", range(1, 7))
def test_the_skipped_bound_never_fails_on_a_full_algebra(big_n):
    rng = np.random.default_rng(big_n)
    algebra = generate_algebra(list(rng.standard_normal((2, big_n, big_n))))
    assert algebra.dim == big_n ** 2
    scales = 10.0 ** np.arange(-8, 9, 2)
    for n in range(1, 4):
        size = n * big_n
        for scale in scales:
            for shape in [(size, size), (3, size, size)]:
                x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                # The bound `_outside` skips on a full algebra holds on every input.
                norms = np.linalg.norm(x.reshape(-1, size * size), axis=1)
                residual = np.atleast_1d(level_residual(algebra, x))
                assert np.all(residual <= algebra.structure_tol * (1.0 + norms))
                _outside(algebra, x)
    # The shape is still checked: a matrix that is not whole N x N blocks, or no matrix.
    bad = [(big_n + 1, big_n), (2, big_n, 2 * big_n + 1)] if big_n > 1 else []
    for shape in bad + [(big_n,), (1, 1, big_n, big_n)]:
        with pytest.raises(DimensionMismatch):
            _outside(algebra, np.zeros(shape))


def test_validate_on_a_full_algebra_forms_no_products(m3_full, monkeypatch):
    calls = []
    monkeypatch.setattr(algebra_mod, "_outside", lambda *args: calls.append(args))
    m3_full.validate()
    generate_algebra([E11]).validate()
    assert len(calls) == 2
