import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (E11, E12, E21, E22, WORKED_B, mat, random_similarity,
                      random_star_closed_algebra, random_unitary)
from matorder import algebra as algebra_mod
from matorder.algebra import (
    DEFAULT_MAX_DIM,
    OperatorAlgebra,
    _frame,
    _Frame,
    _outside,
    block_coords,
    block_synth,
    commutant,
    conjugate_algebra,
    doubling_embed,
    generate_algebra,
    hermitian_part_basis,
    image_algebra,
    level_residual,
    random_element,
)
from matorder.errors import DimensionCapExceeded, DimensionMismatch, MembershipError
from matorder.similarity import solve_Q
from references import (amplify, conjugate_per_basis, from_basis, generate_algebra_mgs,
                        hermitian_part_basis_loop, membership_residual, spans_equal)


def test_generate_e11_span():
    algebra = generate_algebra([E11])
    assert algebra.dim == 2
    assert algebra.star_closed
    algebra.validate()


def test_generate_non_star_closed():
    algebra = generate_algebra([WORKED_B])
    assert algebra.dim == 2
    assert not algebra.star_closed
    # b is idempotent, so the span closes without new directions.
    coords = algebra.coords_of(WORKED_B @ WORKED_B)
    np.testing.assert_allclose(algebra.synthesize(coords), WORKED_B, atol=1e-12)


def test_generate_full_m2_from_nilpotent():
    algebra = generate_algebra([E12], include_adjoints=True)
    assert algebra.dim == 4
    assert algebra.star_closed


def test_generate_include_adjoints_always_star_closed():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        algebra = generate_algebra([g], include_adjoints=True)
        assert algebra.star_closed


def test_generate_dimension_cap():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(DimensionCapExceeded):
        generate_algebra([g], include_adjoints=True, max_dim=5)


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _closure_input(case):
    """(generators, include_adjoints) for one closure case: the star-algebra
    families at N <= 8 ("full-5"), then the non-star-closed and plain cases."""
    kind, _, n = case.partition("-")
    if n:
        n = int(n)
        rng = np.random.default_rng(100 + n)
        u = random_unitary(rng, n)
    if kind == "full":
        return [_gaussian(rng, n)], True
    if kind == "commutative":  # repeated eigenvalues: C^k, k = max(2, N - 2)
        return [u @ np.diag(np.arange(n) % max(2, n - 2)).astype(complex) @ u.conj().T], True
    if kind == "blocks":  # two generic block-diagonal generators, blocks of 1-3
        parts = [3, 2, 1, 2][:1 + (n > 3) + (n > 5) + (n > 6)]
        parts[-1] += n - sum(parts)
        blocks = np.zeros((2, n, n), dtype=complex)
        at = 0
        for p in parts:
            blocks[:, at:at + p, at:at + p] = [_gaussian(rng, p), _gaussian(rng, p)]
            at += p
        return list(u @ blocks @ u.conj().T), True
    if kind == "plain":  # polynomials in one generic matrix: dim N
        return [_gaussian(np.random.default_rng(3), 4)], False
    if kind == "t2":
        return [E11, E12], False
    if kind == "nilpotent":  # span{I, N, N^2}
        return [mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])], False
    if kind == "t3":  # a generic upper-triangular pair: all of T_3
        rng = np.random.default_rng(9)
        return [np.triu(_gaussian(rng, 3)), np.triu(_gaussian(rng, 3))], False
    return [E12], True  # "e12*": E12 with its adjoint, all of M_2


CLOSURE_CASES = ([f"{kind}-{n}" for kind in ("full", "commutative", "blocks")
                  for n in range(2, 9)] + ["plain", "t2", "nilpotent", "t3", "e12*"])


@pytest.mark.parametrize("case", CLOSURE_CASES)
def test_closure_matches_the_mgs_reference(case):
    gens, adjoints = _closure_input(case)
    got = generate_algebra(gens, include_adjoints=adjoints)
    want = generate_algebra_mgs(gens, include_adjoints=adjoints)
    assert got.dim == want.dim
    assert got.star_closed == want.star_closed
    assert spans_equal(got, want, 10 * got.structure_tol)
    got.validate()
    n = got.ambient_dim
    assert np.array_equal(got.basis[0], np.eye(n) / np.sqrt(n))


def test_closure_dimensions_of_the_non_star_closed_cases():
    algs = {case: generate_algebra(*_closure_input(case)) for case in ("t2", "nilpotent", "t3")}
    assert {case: alg.dim for case, alg in algs.items()} == {"t2": 3, "nilpotent": 3, "t3": 6}
    assert not any(alg.star_closed for alg in algs.values())


def test_full_m17_closes_under_the_default_cap():
    g = _gaussian(np.random.default_rng(17), 17)
    algebra = generate_algebra([g], include_adjoints=True)
    assert algebra.dim == 17 * 17 <= DEFAULT_MAX_DIM
    assert algebra.star_closed


def _first_escape_per_product(algebra):
    """The `MembershipError` of the first product b_i b_j outside the span, in
    (i, j) order, each asked of `_outside` as a stack of one; None if every one is in it."""
    for x in (bi @ bj for bi in algebra.basis for bj in algebra.basis):
        try:
            _outside(algebra, x[None])
        except MembershipError as err:
            return err
    return None


@pytest.mark.parametrize("star_closed", [True, False])
def test_validate_fails_as_the_per_product_reference(star_closed):
    # M_2 + M_1 (d = 5) in M_3, or the upper triangular T_3 (d = 6); one basis
    # direction is tilted out of the algebra, orthogonally to the whole basis,
    # so the Gram and unit checks pass and the products leave the span.
    alg = (generate_algebra([mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])], include_adjoints=True)
           if star_closed else generate_algebra(*_closure_input("t3")))
    assert (alg.dim, alg.star_closed) == ((5, True) if star_closed else (6, False))
    alg.validate()
    rng = np.random.default_rng(7)
    flat = alg.basis.reshape(alg.dim, -1)
    w = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    w -= flat.T @ (flat.conj() @ w)
    for tilt in (1e-3, 1e-6):
        basis = alg.basis.copy()
        basis[2] = (basis[2] + tilt * w.reshape(3, 3) / np.linalg.norm(w)) / np.sqrt(1 + tilt ** 2)
        bad = OperatorAlgebra(basis, alg.structure_tol)
        assert not bad.star_closed
        want = _first_escape_per_product(bad)
        assert want is not None
        with pytest.raises(MembershipError) as got:
            bad.validate()
        _same_escape(got.value, want)
    # Closed under products but not under the adjoint: validate passes, and
    # the constructor decides that the span is not star-closed.
    upper = OperatorAlgebra(generate_algebra([E12]).basis)
    assert not upper.star_closed
    assert _first_escape_per_product(upper) is None
    upper.validate()


def _same_escape(got, want):
    """The same message, and the same product: its residual, from the stacked
    pass rather than from the product alone, to 1e-12 relative."""
    assert str(got) == str(want)
    assert got.residual == pytest.approx(want.residual, rel=1e-12)


def test_generate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        generate_algebra([E11, np.eye(3, dtype=complex)])


def test_coords_of_the_unit():
    algebra = generate_algebra([E11])
    coords = algebra.coords_of(np.eye(2, dtype=complex))
    np.testing.assert_allclose(coords, algebra.unit_coords, atol=1e-12)


def test_coords_of_e22_as_unit_minus_e11():
    algebra = generate_algebra([E11])
    coords = algebra.coords_of(E22)
    np.testing.assert_allclose(algebra.synthesize(coords), np.eye(2) - E11, atol=1e-12)


def test_outside_membership_error_carries_residual():
    algebra = generate_algebra([E11])
    with pytest.raises(MembershipError) as err:
        _outside(algebra, E12[None])
    assert err.value.residual == pytest.approx(1.0, abs=1e-12)


def test_amplify_shapes_and_unit():
    algebra = generate_algebra([E11])
    amp = amplify(algebra, 2)
    assert amp.ambient_dim == 4
    assert amp.dim == algebra.dim * 4
    assert amp.star_closed == algebra.star_closed
    np.testing.assert_allclose(amp.synthesize(amp.unit_coords), np.eye(4), atol=1e-12)
    amp.validate()


def test_amplify_level_one_is_identity():
    algebra = generate_algebra([E11])
    assert amplify(algebra, 1) is algebra


def test_amplify_preserves_hermitian_blocks(m2_full):
    amp = amplify(m2_full, 2)
    h = np.kron(E11, mat([[2, 1j], [-1j, 0]]))
    coords = amp.coords_of(h)
    np.testing.assert_allclose(amp.synthesize(coords), h, atol=1e-12)
    assert np.allclose(h, h.conj().T)


def test_amplify_composition_spans(m2_full):
    twice = amplify(amplify(m2_full, 2), 2)
    direct = amplify(m2_full, 4)
    assert spans_equal(twice, direct, 1e-8)


def test_random_element_level_matches_amplified(m3_full):
    # Same Gaussian draws, in the order of the amplified basis.
    for n in (1, 2, 3):
        ref = random_element(amplify(m3_full, n), np.random.default_rng(n))
        got = random_element(m3_full, np.random.default_rng(n), level=n)
        np.testing.assert_allclose(got, ref, atol=1e-12)
        assert level_residual(m3_full, got[None])[0] < 1e-12


def _block_algebra(kind):
    rng = np.random.default_rng(17)
    if kind == "full":
        return generate_algebra([mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])], include_adjoints=True)
    if kind == "blocks":  # M_2 (+) C, dim 5
        g = np.zeros((3, 3), dtype=complex)
        g[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g[2, 2] = 0.5
        return generate_algebra([g], include_adjoints=True)
    return generate_algebra([np.diag([0.0, 1.0, 2.0]).astype(complex)])  # commutative


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["full", "blocks", "commutative"])
def test_block_helpers_match_amplify(kind):
    alg = _block_algebra(kind)
    big_n, d = alg.ambient_dim, alg.dim
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        amp = amplify(alg, n)
        # Any matrix, in M_n(A) or not: both sides are its projection coordinates.
        x = rng.standard_normal((n * big_n,) * 2) + 1j * rng.standard_normal((n * big_n,) * 2)
        coords = block_coords(alg, x)
        assert coords.shape == (n, n, d)
        assert _close(coords.ravel(), amp.coords_of(x))
        assert _close(block_synth(coords, alg.basis), amp.synthesize(coords.ravel()))
    # Rectangular: 2 x 3 blocks, against a block-by-block loop.
    x = rng.standard_normal((2 * big_n, 3 * big_n)) + 0j
    coords = block_coords(alg, x)
    assert coords.shape == (2, 3, d)
    synth = block_synth(coords, alg.basis)
    for i in range(2):
        for j in range(3):
            block = x[i * big_n:(i + 1) * big_n, j * big_n:(j + 1) * big_n]
            assert _close(coords[i, j], alg.coords_of(block))
            assert _close(synth[i * big_n:(i + 1) * big_n, j * big_n:(j + 1) * big_n],
                          alg.synthesize(coords[i, j]))


def test_block_coords_rejects_partial_blocks(m2_full):
    with pytest.raises(DimensionMismatch):
        block_coords(m2_full, np.eye(3))
    with pytest.raises(DimensionMismatch):
        level_residual(m2_full, np.ones(4))


def test_coords_of_stack_matches_single(m3_full):
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((2, 4, 3, 3)) + 1j * rng.standard_normal((2, 4, 3, 3))
    coords = m3_full.coords_of(stack)
    assert coords.shape == (2, 4, m3_full.dim)
    np.testing.assert_allclose(coords[1, 2], m3_full.coords_of(stack[1, 2]), atol=1e-14)
    np.testing.assert_allclose(m3_full.synthesize(coords), stack, atol=1e-12)


def test_generate_idempotent_on_own_basis(m3_full):
    again = generate_algebra(list(m3_full.basis), tol=m3_full.structure_tol)
    assert spans_equal(m3_full, again, 10 * m3_full.structure_tol)


def test_star_closed_adjoint_projects(m2_full):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = m2_full.synthesize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert membership_residual(m2_full, x.conj().T) < 1e-10


def test_doubling_embed_diagonal():
    out = doubling_embed(np.diag([3.0, -1.0]).astype(complex))
    np.testing.assert_allclose(np.diagonal(out).real, [3, -1, 3, -1])
    np.testing.assert_allclose(out, np.diag([3.0, -1.0, 3.0, -1.0]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
       arrays(np.float64, (3, 3), elements=st.floats(-10, 10)))
def test_doubling_embed_norm_and_hermiticity(re, im):
    x = re + 1j * im
    out = doubling_embed(x)
    assert np.linalg.norm(out, 2) == pytest.approx(np.linalg.norm(x, 2), abs=1e-10)
    h = x + x.conj().T
    hh = doubling_embed(h)
    assert np.allclose(hh, hh.conj().T)


def test_doubling_embed_preserves_psd():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = g.conj().T @ g
    out = doubling_embed(p)
    assert np.linalg.eigvalsh(out)[0] >= -1e-12


@pytest.mark.parametrize("seed", range(8))
def test_stacked_passes_keep_the_per_basis_bits(seed):
    # The Hermitian-part basis and a similarity's images, star-closed or not.
    rng = np.random.default_rng(seed)
    alg = random_star_closed_algebra(rng, nmax=5)
    s = random_similarity(rng, alg.ambient_dim, max_log10_cond=3.0)
    s_inv = np.linalg.inv(s)
    for a in (alg, conjugate_algebra(alg, s)):
        np.testing.assert_array_equal(hermitian_part_basis(a), hermitian_part_basis_loop(a))
        np.testing.assert_array_equal(_Frame(s, s_inv).straighten(a.basis),
                                      conjugate_per_basis(s, a.basis, s_inv))
        np.testing.assert_array_equal(_Frame(s, s_inv).unstraighten(a.basis),
                                      conjugate_per_basis(s_inv, a.basis, s))
        np.testing.assert_array_equal(_Frame().straighten(a.basis), a.basis)


def test_hermitian_part_dimension(m2_full, worked_algebra):
    assert hermitian_part_basis(m2_full).shape[0] == 4
    # Non-star-closed span {I, b}: Hermitian part is only the multiples of I.
    assert hermitian_part_basis(worked_algebra).shape[0] == 1


# -- the basis decides the structure ------------------------------------------

@pytest.mark.parametrize("name", ["m2_full", "m3_full", "span_i_e11", "worked_algebra",
                                  "planted", "random"])
def test_derived_fields_match_the_from_basis_reference(name, request):
    if name == "planted":
        algs = [request.getfixturevalue("planted_sim_cone").algebra]
    elif name == "random":
        rng = np.random.default_rng(34)
        algs = [random_star_closed_algebra(rng) for _ in range(6)]
    else:
        algs = [request.getfixturevalue(name)]
    for alg in algs:
        n, unit_coords, star_closed = from_basis(alg.basis, alg.structure_tol)
        assert alg.ambient_dim == n and alg.star_closed is star_closed
        assert alg.unit_coords.dtype == unit_coords.dtype
        assert np.array_equal(alg.unit_coords, unit_coords)


def test_the_constructor_takes_only_a_basis_and_a_tolerance():
    upper = generate_algebra([E12])
    with pytest.raises(TypeError):
        OperatorAlgebra(upper.basis, upper.structure_tol, True)
    with pytest.raises(TypeError):
        OperatorAlgebra(upper.basis, star_closed=True)
    assert not hasattr(OperatorAlgebra, "from_basis")


# -- typed errors no other test reaches ---------------------------------------

@pytest.mark.parametrize("shape", [(0, 2, 2), (1, 2, 3), (2, 2), (1, 0, 0)])
def test_the_constructor_rejects_a_basis_that_is_not_a_stack_of_square_matrices(shape):
    # An empty basis, non-square matrices and a single matrix raised numpy's untyped
    # ValueError; 0 x 0 matrices built an algebra.
    with pytest.raises(DimensionMismatch, match=r"basis must be a \(d, N, N\) stack"):
        OperatorAlgebra(np.zeros(shape, dtype=complex))


def test_validate_rejects_a_basis_without_the_unit():
    # span{E11} is an algebra, but its unit E11 is not the identity.
    with pytest.raises(MembershipError, match="unit does not reconstruct the identity") as err:
        OperatorAlgebra(E11[None]).validate()
    assert err.value.residual == pytest.approx(1.0)


def test_a_similarity_of_the_wrong_shape_is_rejected(m2_full):
    with pytest.raises(DimensionMismatch, match=r"similarity must be 2x2, got \(3, 3\)"):
        _frame(np.eye(3), 2)
    with pytest.raises(DimensionMismatch, match=r"similarity must be 2x2, got \(3, 3\)"):
        conjugate_algebra(m2_full, np.eye(3))


def test_generate_algebra_rejects_bad_generators_and_caps():
    with pytest.raises(DimensionMismatch, match="need at least one generator"):
        generate_algebra([])
    with pytest.raises(DimensionMismatch, match=r"generators must be square, got shape \(2, 3\)"):
        generate_algebra([np.ones((2, 3))])
    with pytest.raises(DimensionCapExceeded, match="max_dim must be at least 1"):
        generate_algebra([E11], max_dim=0)


# -- the commutant ------------------------------------------------------------

def _commutant_per_basis(algebra):
    """dim_C B' from the whole basis, one commutator system per element, rank at scale 1."""
    n = algebra.ambient_dim
    ops = np.concatenate([np.kron(np.eye(n), b.T) - np.kron(b, np.eye(n)) for b in algebra.basis])
    s = np.linalg.svd(ops, compute_uv=False)
    return n * n - int(np.sum(s > 1e-10 * max(s[0], 1.0)))


def _assert_commutant(algebra, comm):
    n = algebra.ambient_dim
    np.testing.assert_allclose(comm.reshape(len(comm), -1).conj() @ comm.reshape(len(comm), -1).T,
                               np.eye(len(comm)), atol=1e-12)
    for x in comm:
        for b in algebra.basis:
            assert np.linalg.norm(x @ b - b @ x) <= 1e-12
    assert comm.shape[1:] == (n, n)


@pytest.mark.parametrize("make, dim", [
    (lambda: OperatorAlgebra(np.stack([np.eye(2) / np.sqrt(2.0), E12])), 2),
    (lambda: generate_algebra([np.eye(3)]), 9),
    (lambda: generate_algebra([np.eye(4)]), 16),
    (lambda: generate_algebra([E12], include_adjoints=True), 1),
    (lambda: generate_algebra([E11]), 2),
    (lambda: generate_algebra([WORKED_B]), 2),
], ids=["T_2", "CI-in-M3", "CI-in-M4", "M2", "span-I-E11", "worked"])
def test_commutant_dimension_on_known_algebras(make, dim):
    algebra = make()
    gens, comm = commutant(algebra)
    assert len(gens) == 2 and len(comm) == dim == _commutant_per_basis(algebra)
    _assert_commutant(algebra, comm)


@pytest.mark.parametrize("seed", range(12))
def test_commutant_matches_the_whole_basis_on_planted_algebras(seed):
    # B = S^-1 A S for a star-closed A: dim_C B' = dim_C A', at cond(S) up to 1e2.
    rng = np.random.default_rng(70 + seed)
    alg = random_star_closed_algebra(rng, nmax=6)
    b = conjugate_algebra(alg, np.linalg.inv(random_similarity(rng, alg.ambient_dim, 2.0)))
    _, got = commutant(b)
    assert len(got) == len(commutant(alg)[1]) == _commutant_per_basis(alg)
    _assert_commutant(b, got)


def test_a_pair_that_generates_less_is_caught_by_the_whole_basis_check(m3_full, monkeypatch):
    # The unit twice generates C I, whose commutant is all of M_3: the check
    # against the basis rejects it and the kernel is taken over the whole basis.
    pairs = []

    def units(algebra):
        pairs.append(1)
        return np.stack([np.eye(algebra.ambient_dim, dtype=complex)] * 2)

    monkeypatch.setattr(algebra_mod, "generic_pair", units)
    gens, comm = commutant(m3_full)
    assert pairs == [1] and gens is m3_full.basis and len(comm) == 1
    _assert_commutant(m3_full, comm)
    # solve_Q constrains the generators the check accepted: on span{I, E11} the whole
    # basis, whose Q-space (under the adjoint) is the diagonal matrices, not any 2 of M_2's 4.
    diagonal = generate_algebra([E11])
    space = solve_Q(diagonal, lambda b: b.conj().T)
    assert len(space) == 2 == len(commutant(diagonal)[1])
    for q in space:
        assert abs(q[0, 1]) <= 1e-12


def test_a_square_zero_pair_falls_back_to_the_basis():
    # span{E13, E14, E23, E24}: every product vanishes, so the pair generates only its own
    # span, whose commutant (dim 6) exceeds B' (dim 5).
    basis = np.zeros((4, 4, 4), dtype=complex)
    for k, (i, j) in enumerate([(0, 2), (0, 3), (1, 2), (1, 3)]):
        basis[k, i, j] = 1.0
    square_zero = OperatorAlgebra(basis)
    gens, comm = commutant(square_zero)
    assert gens is square_zero.basis and len(comm) == 5 == _commutant_per_basis(square_zero)
    _assert_commutant(square_zero, comm)


def test_image_algebra_is_the_span_of_the_images():
    # S T_3 S^-1 spans an algebra of T_3's dimension, closed under products with no closure
    # step and equal to the closure of the images; conjugate_algebra is that span, bit for bit.
    t3 = generate_algebra(*_closure_input("t3"))
    s = random_similarity(np.random.default_rng(5), 3, 1.0)
    images = _frame(s, 3).straighten(t3.basis)
    image = image_algebra(t3, images)
    assert image.dim == t3.dim == 6 and not image.star_closed
    image.validate()
    assert spans_equal(image, generate_algebra(list(images)), 1e-10)
    np.testing.assert_array_equal(image.basis, conjugate_algebra(t3, s).basis)


def test_an_image_that_loses_rank_is_a_dimension_mismatch(m2_full):
    # A repeated image: four images of M_2's basis span three directions.
    images = np.concatenate([m2_full.basis[:3], m2_full.basis[2:3]])
    with pytest.raises(DimensionMismatch, match="the images span 3 of 4 directions"):
        image_algebra(m2_full, images)
    with pytest.raises(DimensionMismatch, match="the images span 1 of 4 directions"):
        image_algebra(m2_full, np.stack([np.eye(2, dtype=complex)] * 4))
