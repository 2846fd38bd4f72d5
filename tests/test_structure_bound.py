"""The structure bound on a full algebra: M_n(M_N) = M_nN, so no matrix of N x N blocks
lies outside it, and `_outside` and `validate` decide nothing but the shape there.
`_outside` and `level_residual` take (k, nN, mN) stacks only, and `level_element`
asks a bare matrix as a stack of one with the verdict the matrix form gave."""

import numpy as np
import pytest

from conftest import E11, E12, mat
from matorder import _linalg as la
from matorder import algebra as algebra_mod
from matorder.algebra import (OperatorAlgebra, _outside, block_coords, block_synth,
                              generate_algebra, level_residual, random_element)
from matorder.cones import StandardCone
from matorder.errors import DimensionMismatch, MembershipError
from matorder.involution import decompose
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from references import level_residual_matrix_or_stack, outside_matrix_or_stack

# A residual from one stacked norm may differ from the matrix form's `la.frob` in its
# last bits: both sum the same squares, in another order.
RESIDUAL_ULPS = 4


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
    # ||x||_F = t: the bound 1e-9 (1 + t) refuses t = 5e-9 and takes t = 5e-10, each
    # asked as a stack of one.
    assert span_i_e11.structure_tol == 1e-9
    with pytest.raises(MembershipError):
        _outside(span_i_e11, 5e-9 * E12[None])
    _outside(span_i_e11, 5e-10 * E12[None])


@pytest.mark.parametrize("big_n", range(1, 7))
def test_the_skipped_bound_never_fails_on_a_full_algebra(big_n):
    rng = np.random.default_rng(big_n)
    algebra = generate_algebra(list(rng.standard_normal((2, big_n, big_n))))
    assert algebra.dim == big_n ** 2
    scales = 10.0 ** np.arange(-8, 9, 2)
    for n in range(1, 4):
        size = n * big_n
        for scale in scales:
            for shape in [(1, size, size), (3, size, size)]:
                x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                # The bound `_outside` skips on a full algebra holds on every input.
                norms = np.linalg.norm(x.reshape(-1, size * size), axis=1)
                residual = level_residual(algebra, x)
                assert np.all(residual <= algebra.structure_tol * (1.0 + norms))
                _outside(algebra, x)
    # The shape is still checked: a stack whose matrices are not whole N x N blocks, a
    # bare matrix, or no matrix.
    bad = [(1, big_n + 1, big_n), (2, big_n, 2 * big_n + 1)] if big_n > 1 else []
    for shape in bad + [(big_n, big_n), (big_n,), (1, 1, big_n, big_n)]:
        with pytest.raises(DimensionMismatch):
            _outside(algebra, np.zeros(shape))


def test_validate_on_a_full_algebra_forms_no_products(m3_full, monkeypatch):
    calls = []
    monkeypatch.setattr(algebra_mod, "_outside", lambda *args: calls.append(args))
    m3_full.validate()
    generate_algebra([E11]).validate()
    assert len(calls) == 2


def _bound_inputs(case):
    """(algebra, level, matrices) for one family of this file's inputs, each matrix complex:
    the E12 pair either side of the bound, the proper subalgebra's members and its E12,
    members of M_n(span{I, E11}) moved off it by half and by twice the bound, and the
    full algebras' random matrices at every scale."""
    span = generate_algebra([E11])
    if case == "e12-pair":
        return [(span, 1, [5e-9 * E12, 5e-10 * E12])]
    if case == "proper-subalgebra":
        return [(span, 1, [np.eye(2, dtype=complex), E11, -E11, E12]),
                (span, 2, [np.kron(mat([[2, 1], [1, 2]]), np.eye(2)), np.kron(np.eye(2), E11)])]
    rng = np.random.default_rng(len(case))
    if case == "either-side":
        out = []
        for n in range(1, 4):
            size = 2 * n
            # A unit direction orthogonal to M_n(A), block by block.
            noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            noise -= block_synth(block_coords(span, noise), span.basis)
            noise /= np.linalg.norm(noise)
            xs = []
            for factor in (0.5, 2.0):
                m = random_element(span, rng, level=n)
                xs.append(m + factor * span.structure_tol * (1.0 + np.linalg.norm(m)) * noise)
            out.append((span, n, xs))
        return out
    big_n = int(case.removeprefix("full-m"))
    algebra = generate_algebra(list(rng.standard_normal((2, big_n, big_n))))
    return [(algebra, n, [scale * (rng.standard_normal((n * big_n,) * 2)
                                   + 1j * rng.standard_normal((n * big_n,) * 2))
                          for scale in 10.0 ** np.arange(-8, 9, 2)])
            for n in range(1, 4)]


def _reference_verdict(algebra, x):
    """None when the matrix-or-stack bound takes x, else the residual it raises."""
    try:
        outside_matrix_or_stack(algebra, x)
    except MembershipError as err:
        return err.residual
    return None


@pytest.mark.parametrize("case", ["e12-pair", "proper-subalgebra", "either-side"]
                         + [f"full-m{big_n}" for big_n in range(1, 7)])
def test_level_element_decides_a_bare_matrix_as_the_matrix_form_did(case):
    verdicts = []
    for algebra, n, xs in _bound_inputs(case):
        cone = StandardCone(algebra)
        for x in xs + [np.stack(xs)]:
            want = _reference_verdict(algebra, x)
            if want is None:
                assert cone.level_element(n, x) is x  # returned as given, not as a stack
                verdicts.append("taken")
                continue
            with pytest.raises(MembershipError) as got:
                cone.level_element(n, x)
            assert abs(got.value.residual - want) <= RESIDUAL_ULPS * np.spacing(want)
            verdicts.append("refused")
    if case.startswith("full"):
        assert set(verdicts) == {"taken"}
    else:
        assert {"taken", "refused"} <= set(verdicts)


@pytest.mark.parametrize("algebra", ["span_i_e11", "m2_full"])
def test_a_bare_matrix_is_refused_by_the_structure_bound(request, algebra):
    algebra = request.getfixturevalue(algebra)
    for x in (np.eye(2, dtype=complex), E12, np.eye(4, dtype=complex)):
        with pytest.raises(DimensionMismatch, match=r"stack, got \(\d, \d\)$"):
            _outside(algebra, x)
        with pytest.raises(DimensionMismatch, match=r"stack, got \(\d, \d\)$"):
            level_residual(algebra, x)
        # The same matrix as a stack of one is asked.
        level_residual(algebra, x[None])
    # The stack form agrees with the matrix form's residual.
    want = level_residual_matrix_or_stack(algebra, E12)
    np.testing.assert_allclose(level_residual(algebra, E12[None]), [want], rtol=1e-15, atol=1e-15)


def test_frob_each_is_numpys_row_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for shape in [(1, 2, 2), (3, 6, 6), (2, 4, 2, 4, 2)]:
        scales = 10.0 ** rng.integers(-8, 9, shape[0]).reshape(-1, *[1] * (len(shape) - 1))
        real = rng.standard_normal(shape) * scales
        for x in (real, real + 1j * rng.standard_normal(shape),
                  (real + 1j * real).swapaxes(-1, -2)):
            want = np.linalg.norm(x.reshape(len(x), -1), axis=1)
            assert np.array_equal(la.frob_each(x), want)


@pytest.mark.parametrize("fixture", ["span_i_e11", "m2_full"])
def test_outside_returns_the_sizes_it_compares(fixture, request):
    # On a full algebra too, where it compares nothing: the order norms read ||z||_F here.
    algebra = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    x = np.stack([random_element(algebra, rng, level=2) for _ in range(3)])
    assert np.array_equal(_outside(algebra, x), la.frob_each(x))


def test_an_empty_stack_has_empty_sizes(span_i_e11):
    # A (0, nN, nN) stack on a proper subalgebra: reshape(0, -1) cannot infer a row size,
    # so the row norms of the structure bound and of `decompose` give it one.
    cone, empty = StandardCone(span_i_e11), np.zeros((0, 4, 4), dtype=complex)
    for sizes in (la.frob_each(empty), level_residual(span_i_e11, empty),
                  _outside(span_i_e11, empty)):
        assert sizes.shape == (0,)
    assert cone.level_element(2, empty).shape == (0, 4, 4)
    x1, x2 = decompose(cone, 2, empty, cone.span_basis(2))
    assert x1.shape == x2.shape == (0, 4, 4)
