import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import E11, E12, WORKED_B, WORKED_S, mat, random_similarity, random_unitary
from doubles import AllHermitianCone, PairedSpanCone, ZeroCone, ZeroedCornerCone
from matorder import _linalg as la
from matorder import cones as cones_mod
from matorder.algebra import (
    OperatorAlgebra,
    _outside,
    conjugate_algebra,
    doubling_embed,
    generate_algebra,
    level_residual,
)
from matorder.case_studies import FunctionPullbackCone
from matorder.cones import (
    ConeOracle,
    SimilarityCone,
    StandardCone,
    _k_estimate,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
    compress,
    estimate_main_constants,
    replay_witness,
)
from matorder.errors import (DimensionMismatch, MembershipError, NumericalStall,
                             SourceNotStarClosed)
from matorder.involution import _split
from matorder.order_norms import order_unit_seminorm
from references import amplify, compress_via_conjugations, membership_residual
from test_shifts import _opaque


def test_member_unit_and_indefinite(std_m2):
    assert std_m2.member(1, np.eye(2, dtype=complex))
    assert not std_m2.member(1, np.diag([1.0, -1.0]).astype(complex))


def test_member_raises_outside_algebra(span_i_e11):
    cone = StandardCone(span_i_e11)
    with pytest.raises(MembershipError):
        cone.member(1, E12)


def test_similarity_member_worked_instance(worked_sim_cone):
    # S b S^-1 = E_11, which is PSD.
    assert worked_sim_cone.member(1, WORKED_B)
    assert not worked_sim_cone.member(1, -WORKED_B)


def test_similarity_member_matches_straightened(worked_sim_cone):
    rng = np.random.default_rng(0)
    std = StandardCone(worked_sim_cone.straight_algebra)
    for n in (1, 2):
        for _ in range(10):
            c = worked_sim_cone.sample(n, rng)
            assert worked_sim_cone.member(n, c)
            assert std.member(n, worked_sim_cone.straighten(n, c))
            h = worked_sim_cone.sample_span(n, rng)
            assert worked_sim_cone.member(n, h) == std.member(
                n, worked_sim_cone.straighten(n, h))


def _m2_plus_c_cone(variant):
    """A cone over a unitary conjugate of M_2 (+) C inside M_3, a proper
    subalgebra, so random matrices fall outside it."""
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 3)
    gens = [u @ block_diag(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                           rng.standard_normal((1, 1))) @ u.conj().T for _ in range(2)]
    alg = generate_algebra(gens, include_adjoints=True)
    if variant == "standard":
        return StandardCone(alg), np.eye(3, dtype=complex)
    s = random_similarity(rng, 3)
    return SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s), s


@pytest.mark.parametrize("variant", ["standard", "similarity"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_blockwise_oracle_matches_amplified_reference(variant, n):
    cone, s = _m2_plus_c_cone(variant)
    rng = np.random.default_rng(n)
    ref_level = amplify(cone.algebra, n)
    big_s = np.kron(np.eye(n), s)
    dim = cone.level_dim(n)
    cands = [cone.sample(n, rng) for _ in range(3)]
    cands += [-cone.sample(n, rng), cone.sample_span(n, rng), cone.unit(n)]
    cands += [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))]
    verdicts = []
    for x in cands:
        ref = membership_residual(ref_level, x)
        assert level_residual(cone.algebra, x) == pytest.approx(ref, rel=1e-9, abs=1e-12)
        if ref > cone.algebra.structure_tol * (1.0 + np.linalg.norm(x)):
            with pytest.raises(MembershipError):
                cone.member(n, x)
            verdicts.append("outside")
        else:
            expected = cone._psd_test(big_s @ x @ np.linalg.inv(big_s))
            assert cone.member(n, x) == expected
            verdicts.append(expected)
    assert verdicts.count(True) >= 4 and False in verdicts and "outside" in verdicts


@pytest.mark.parametrize("variant", ["standard", "similarity"])
@pytest.mark.parametrize("n", [1, 2])
def test_a_stack_raises_for_its_first_element_outside(variant, n):
    # Two elements of M_n(A), then two outside it, the third nearer than the fourth.
    cone, _ = _m2_plus_c_cone(variant)
    rng = np.random.default_rng(30 + n)
    dim = cone.level_dim(n)
    noise = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
             for _ in range(2)]
    xs = np.stack([cone.unit(n), cone.sample(n, rng), cone.sample_span(n, rng) + 1e-3 * noise[0],
                   noise[1]])
    want = membership_residual(amplify(cone.algebra, n), xs[2])
    assert cone.algebra.structure_tol * (1.0 + np.linalg.norm(xs[2])) < want < membership_residual(
        amplify(cone.algebra, n), xs[3])
    for ask in (lambda: cone.member_many(n, xs), lambda: cone.member_many(n, list(xs)),
                lambda: _split(cone, n, xs, cone.span_basis(n))):
        with pytest.raises(MembershipError) as err:
            ask()
        assert err.value.residual == pytest.approx(want, rel=1e-12)
    # The adjoint stack (b_0*, b_1*, b_2*) of the upper triangular 2 x 2 matrices,
    # which the constructor decides are not star-closed: b_2* = E21 is the first
    # outside, at distance 1.
    basis = np.stack([np.eye(2), E11 - mat([[0, 0], [0, 1]]), np.sqrt(2.0) * E12]) / np.sqrt(2.0)
    upper = OperatorAlgebra(basis)
    assert not upper.star_closed
    np.testing.assert_allclose(upper.unit_coords, [np.sqrt(2.0), 0.0, 0.0], atol=1e-15)
    with pytest.raises(MembershipError) as err:
        _outside(upper, la.dagger(upper.basis))
    assert err.value.residual == pytest.approx(membership_residual(upper, E12.T), rel=1e-12)
    assert membership_residual(upper, E12.T) == pytest.approx(1.0)


def test_a_stack_of_the_wrong_shape_is_named_by_its_own_shape(m2_full):
    # Three 3 x 3 identities on M_2: the stack, not its flattened (9, 3) view.
    with pytest.raises(DimensionMismatch, match=r"got \(3, 3, 3\)$"):
        _outside(m2_full, np.stack([np.eye(3)] * 3))
    # Rows of 3 are no 2 x 2 blocks, though two of them stacked are.
    with pytest.raises(DimensionMismatch, match=r"got \(2, 3, 2\)$"):
        _outside(m2_full, np.zeros((2, 3, 2)))


@pytest.mark.parametrize("variant", ["standard", "similarity"])
def test_member_raises_outside_algebra_at_level_2(variant, span_i_e11, worked_sim_cone):
    cone = StandardCone(span_i_e11) if variant == "standard" else worked_sim_cone
    x = np.kron(mat([[1, 0], [0, 0]]), np.eye(2)) + np.kron(mat([[0, 0], [0, 1]]), E12)
    with pytest.raises(MembershipError) as err:
        cone.member(2, x)
    ref = membership_residual(amplify(cone.algebra, 2), x)
    assert ref > 0.1
    assert err.value.residual == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("fixture", ["std_m2", "worked_sim_cone"])
@pytest.mark.parametrize("n, shape", [(1, (3, 3)), (1, (4, 4)), (2, (4, 2)), (0, (0, 0))])
def test_member_rejects_wrong_shape(fixture, n, shape, request):
    cone = request.getfixturevalue(fixture)
    with pytest.raises(DimensionMismatch):
        cone.member(n, np.zeros(shape, dtype=complex))


def test_blockwise_similarity_maps_match_kron(worked_sim_cone):
    rng = np.random.default_rng(5)
    s, s_inv = WORKED_S, np.linalg.inv(WORKED_S)

    def kron_i(k, t):
        return np.kron(np.eye(k), t)

    for n in (1, 2, 4):
        x = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        np.testing.assert_allclose(worked_sim_cone.straighten(n, x),
                                   kron_i(n, s) @ x @ kron_i(n, s_inv), atol=1e-12)
        np.testing.assert_allclose(worked_sim_cone.unstraighten(n, x),
                                   kron_i(n, s_inv) @ x @ kron_i(n, s), atol=1e-12)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    ref = kron_i(3, s_inv) @ (kron_i(2, s) @ a @ kron_i(3, s_inv)).conj().T @ kron_i(2, s)
    np.testing.assert_allclose(worked_sim_cone.sharp_block(2, 3, a), ref, atol=1e-12)


@pytest.mark.parametrize("fixture", ["std_m2", "std_m3", "worked_sim_cone"])
def test_algebraically_admissible_passes(fixture, request):
    cone = request.getfixturevalue(fixture)
    report = audit_algebraically_admissible(cone, 1, samples=25, seed=1)
    assert report.passed, [c for c in report.checks if c.verdict != "pass"]


def test_algebraically_admissible_needs_star_closed(worked_algebra):
    cone = StandardCone(worked_algebra)
    with pytest.raises(SourceNotStarClosed):
        audit_algebraically_admissible(cone, 1, samples=4, seed=0)


@pytest.mark.parametrize("variant", ["standard", "similarity"])
def test_t2_from_its_basis_is_not_star_closed_and_passes_nothing_by_theorem(variant):
    # span{I, E12}: nothing asserts its star-closure, so the realisation theorem
    # is not applied; the sampled conjugations leave M_n(T_2) and say so.
    t2 = OperatorAlgebra(np.stack([np.eye(2) / np.sqrt(2.0), E12]))
    assert not t2.star_closed
    cone = (StandardCone(t2) if variant == "standard"
            else SimilarityCone(conjugate_algebra(t2, np.linalg.inv(WORKED_S)), WORKED_S))
    assert not cone.straight_algebra.star_closed
    with pytest.raises(SourceNotStarClosed):
        audit_algebraically_admissible(cone, 1, samples=4, seed=0)
    check = cones_mod._sampled(cone, "axiom", "sampled detail", lambda: iter(()))
    assert check.detail == "sampled detail"
    for audit in (audit_matrix_ordered, audit_star_admissible):
        with pytest.raises(MembershipError, match="element outside M_n"):
            audit(cone, samples=4, seed=0)


@pytest.mark.parametrize("fixture", ["std_m2", "std_m3", "worked_sim_cone"])
def test_matrix_ordered_passes(fixture, request):
    cone = request.getfixturevalue(fixture)
    report = audit_matrix_ordered(cone, levels=(1, 2), samples=10, seed=2)
    assert report.passed, [c for c in report.checks if c.verdict != "pass"]


def test_row_selection_embedding(std_m2):
    # B = (I 0) in M_{1x2} embeds C_1 into C_2.
    rng = np.random.default_rng(3)
    sel = np.zeros((2, 4), dtype=complex)
    sel[:2, :2] = np.eye(2)
    for _ in range(5):
        c = std_m2.sample(1, rng)
        embedded = sel.conj().T @ c @ sel
        assert std_m2.member(2, embedded)


@pytest.mark.parametrize("fixture", ["std_m2", "std_m3", "worked_sim_cone"])
def test_star_admissible_passes(fixture, request):
    cone = request.getfixturevalue(fixture)
    report = audit_star_admissible(cone, levels=(1, 2), samples=25, seed=3)
    assert report.passed, [c for c in report.checks if c.verdict != "pass"]
    assert report.constants["r4"].value <= 1.0 + 1e-6
    assert report.constants["K"].value <= 1.0 + 1e-6


def test_standard_r4_tight_witness(std_m2):
    report = audit_star_admissible(std_m2, levels=(1,), samples=40, seed=4)
    assert report.constants["r4"].value == pytest.approx(1.0, abs=1e-6)


def test_similarity_K_finite_and_reasonable(worked_sim_cone):
    report = audit_star_admissible(worked_sim_cone, levels=(1, 2), samples=40, seed=5)
    k = report.constants["K"].value
    assert np.isfinite(k)
    assert k >= 1.0 - 1e-12  # the pair (a, 0) realizes ratio 1
    assert k <= 10.0  # conjugation-bounded; recorded, not pinned


def test_matrix_ordered_three_levels(std_m2):
    report = audit_matrix_ordered(std_m2, levels=(1, 2, 4), samples=6, seed=21)
    assert report.passed


def test_all_hermitian_fails_classical_pointedness(m2_full):
    cone = AllHermitianCone(m2_full)
    report = audit_algebraically_admissible(cone, 1, samples=8, seed=22)
    failed = {c.axiom: c for c in report.failures()}
    check = failed["pointedness-level-1"]
    # The reported lineality direction is the unit itself.
    np.testing.assert_allclose(check.witness.members[0], np.eye(2), atol=1e-12)
    assert replay_witness(cone, check.witness)


def test_main_constants_standard(std_m2):
    r1, alpha = estimate_main_constants(std_m2, levels=(1, 2), samples=40, seed=6)
    # Complement pairs sit on the oracle's fuzzy boundary, so the estimate
    # can dip below the exact bound by the PSD slack.
    assert r1.value >= 1.0 - 1e-7
    assert alpha.value == pytest.approx(1.0, abs=1e-6)
    assert len(r1.witness) == 2 and len(alpha.witness) == 2


def test_pullback_r1_decays_with_refinement():
    from matorder.case_studies import FunctionPullbackCone

    estimates = []
    for m, mf in ((32, 4), (128, 16)):
        cone = FunctionPullbackCone(np.linspace(0, 1, m), max_frequency=mf)
        r1, _ = estimate_main_constants(cone, levels=(1,), samples=30, seed=5)
        estimates.append(r1.value)
    assert estimates[1] < 0.5 * estimates[0]


def test_all_hermitian_cone_fails_pointedness(m2_full):
    cone = AllHermitianCone(m2_full)
    report = audit_star_admissible(cone, levels=(1,), samples=10, seed=7)
    failed = {c.axiom for c in report.failures()}
    assert "pointedness-level-1" in failed
    for check in report.failures():
        if check.witness is not None:
            assert replay_witness(cone, check.witness)


def test_zeroed_corner_cone_fails_conjugation(m2_full):
    cone = ZeroedCornerCone(m2_full)
    report = audit_matrix_ordered(cone, levels=(1, 2), samples=10, seed=8)
    failed = {c.axiom for c in report.failures()}
    assert "scalar-rectangular-conjugation" in failed or \
        "algebra-rectangular-conjugation" in failed
    for check in report.failures():
        if check.witness is not None:
            assert replay_witness(cone, check.witness)


def test_compress_fixed_point_of_embedded():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = doubling_embed(b)
    np.testing.assert_allclose(compress(x, 0, 1), x, atol=1e-12)


def test_compress_picks_first_block():
    x = np.zeros((4, 4), dtype=complex)
    x[:2, :2] = E11
    x[2:, 2:] = mat([[5, 6], [7, 8]])
    x[:2, 2:] = mat([[1, 2], [3, 4]])
    out = compress(x, 0, 1)
    np.testing.assert_allclose(out, np.kron(np.eye(2), E11), atol=1e-12)


def test_compress_reads_the_ambient_dimension_off_the_size():
    # A level-2^m element of size 2^m N has N = size / 2^m.
    x = np.arange(64, dtype=complex).reshape(8, 8)
    np.testing.assert_array_equal(compress(x, 0, 1), np.kron(np.eye(2), x[:4, :4]))  # N = 4
    np.testing.assert_array_equal(compress(x, 1, 2), np.kron(np.eye(2), x[:4, :4]))  # N = 2


def test_compress_requires_compatible_dims():
    with pytest.raises(DimensionMismatch):
        compress(np.eye(6, dtype=complex), 0, 2)
    with pytest.raises(DimensionMismatch):
        compress(np.eye(4, dtype=complex), 1, 0)
    with pytest.raises(DimensionMismatch):
        compress(np.ones(4), 0, 1)  # not a matrix
    with pytest.raises(DimensionMismatch):
        compress(np.ones((4, 4)), -1, 0)  # negative level


def test_compress_matches_conjugation_sum():
    rng = np.random.default_rng(10)
    for (n, m, amb) in [(0, 1, 2), (1, 2, 2), (0, 2, 1)]:
        size = 2 ** m * amb
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        np.testing.assert_allclose(
            compress(x, n, m),
            compress_via_conjugations(x, n, m, ambient_dim=amb),
            atol=1e-12,
        )


def test_compress_contraction_and_cone_stability(std_m2):
    rng = np.random.default_rng(11)
    for _ in range(25):
        c = std_m2.sample(2, rng)
        out = compress(c, 0, 1)
        assert np.linalg.norm(out, 2) <= np.linalg.norm(c, 2) + 1e-10
        assert std_m2.member(2, out)


def test_compress_commutes_with_doubling():
    rng = np.random.default_rng(12)
    for (n, m, amb) in [(0, 1, 2), (1, 2, 2)]:
        size = 2 ** m * amb
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        lhs = compress(doubling_embed(x), n, m + 1)
        rhs = doubling_embed(compress(x, n, m))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_pointedness_exact_for_similarity(planted_sim_cone):
    assert planted_sim_cone.lineality_basis(1) == []
    assert planted_sim_cone.lineality_basis(2) == []


def _counting(cls):
    """cls with every `member_many` batch size recorded in `batches`."""
    class Counting(cls):
        def member_many(self, n, xs):
            self.batches.append(len(xs))
            return super().member_many(n, xs)
    return Counting


def test_pointed_cone_lineality_asks_no_member_many(m2_full, planted_sim_cone):
    for cone in (_counting(StandardCone)(m2_full),
                 _counting(SimilarityCone)(planted_sim_cone.algebra, WORKED_S)):
        cone.batches = []
        for n in (1, 2, 3):
            assert cone.lineality_basis(n) == []
        assert cone.batches == []
    # A kernel to confirm is still asked about, +h then -h.
    flat = _counting(AllHermitianCone)(m2_full)
    flat.batches = []
    assert len(flat.lineality_basis(1)) == 4
    assert flat.batches == [4, 4]


class _ComplexLineCone(StandardCone):
    """Fake oracle whose claimed span is a complex line: both span axioms
    fail, exercising the span-deficiency and span-overlap witnesses."""

    def span_basis(self, n):
        a = np.zeros((2 * n, 2 * n), dtype=complex)
        a[0, 1] = 1.0
        return np.stack([a, 1j * a])

    def member_many(self, n, xs):
        return [True] * len(xs)


def test_span_failures_carry_replayable_witnesses(m2_full):
    cone = _ComplexLineCone(m2_full)
    report = audit_star_admissible(cone, levels=(1,), samples=4, seed=0)
    failed = {c.axiom: c for c in report.failures()}
    dec = failed["span-decomposition-2i-level-1"]
    ind = failed["real-imag-independence-2iii-level-1"]
    assert dec.witness is not None and dec.witness.kind == "span-deficiency"
    assert ind.witness is not None and ind.witness.kind == "span-overlap"
    assert replay_witness(cone, dec.witness)
    assert replay_witness(cone, ind.witness)


def test_level_dim_rejects_levels_below_one(std_m2):
    for n in (0, -1):
        with pytest.raises(DimensionMismatch):
            std_m2.level_dim(n)
        with pytest.raises(DimensionMismatch):
            std_m2.unit(n)


@pytest.mark.parametrize("run", [audit_star_admissible, estimate_main_constants,
                                 audit_matrix_ordered])
def test_empty_levels_raise_dimension_mismatch(run, std_m2):
    # As a level below one does; no check runs vacuously on no level.
    for levels in ((), [], iter(())):
        with pytest.raises(DimensionMismatch, match="at least one matrix level"):
            run(std_m2, levels=levels, samples=4, seed=0)


def test_k_estimate_fails_when_a_plus_ib_vanishes(m2_full):
    _, bad = _k_estimate(PairedSpanCone(m2_full), (1,), 3, np.random.default_rng(0))
    assert bad is not None and bad.kind == "norm-comparison" and bad.level == 1
    report = audit_star_admissible(PairedSpanCone(m2_full), levels=(1,), samples=4)
    assert [c.verdict for c in report.checks if c.axiom == "norm-comparison-K"] == ["fail"]


def test_k_witness_replays_from_its_pair(m2_full):
    _, bad = _k_estimate(PairedSpanCone(m2_full), (1,), 3, np.random.default_rng(0))
    a, b = bad.members
    np.testing.assert_allclose(a + 1j * b, 0.0, atol=1e-12)
    assert np.linalg.norm(a) > 0.1
    assert replay_witness(PairedSpanCone(m2_full), bad)


def test_k_witness_without_a_vanishing_pair_does_not_replay(std_m2):
    # An empty witness carries no evidence; a pair of honest span draws has
    # ||a + ib|| > 0.
    assert not replay_witness(std_m2, cones_mod.Witness("norm-comparison", 1, (), None, ""))
    a, b = std_m2.sample_span_many(1, 2, np.random.default_rng(1))
    assert not replay_witness(std_m2, cones_mod.Witness("norm-comparison", 1, (a, b), None))


def test_a_member_witness_replays_only_while_its_members_are_in(std_m2):
    e = std_m2.unit(1)
    assert replay_witness(std_m2, cones_mod.Witness("unit", 1, (e,), -e))
    # -e is no member, so a witness that claims it is one does not replay.
    assert not replay_witness(std_m2, cones_mod.Witness("unit", 1, (-e,), None))


@pytest.mark.parametrize("kind", ["span-deficiency", "span-overlap"])
def test_a_span_witness_does_not_replay_on_a_cone_without_an_exact_span(kind):
    cone = FunctionPullbackCone(np.linspace(0.0, 1.0, 8))
    assert cone.span_basis(1) is None
    x = np.eye(8, dtype=complex)
    assert not replay_witness(cone, cones_mod.Witness(kind, 1, (x,), x))


class _TrivialCone(ZeroCone):
    """The cone {0} with its exact span, which has no direction."""

    def span_basis(self, n):
        dim = self.level_dim(n)
        return np.zeros((0, dim, dim), dtype=complex)


@pytest.mark.parametrize("n", [1, 2])
def test_an_empty_span_fails_2i_with_a_replayable_witness(m2_full, n):
    cone = _TrivialCone(m2_full)
    dec, ind = cones_mod._span_checks(cone, n)
    # The span has no direction, so every basis element of M_n(A) lies outside it,
    # and span cap i*span = 0.
    assert (dec.verdict, dec.witness.kind, ind.verdict) == ("fail", "span-deficiency", "pass")
    assert any(np.array_equal(dec.witness.outside[:2, :2], b) for b in m2_full.basis)
    assert replay_witness(cone, dec.witness)


def test_pointedness_falls_back_to_a_lineality_direction_when_e_is_outside_the_algebra():
    # span{E11} is not unital: asking whether +-e are members raises MembershipError,
    # so the witness is the kernel direction E11, which both signs contain.
    cone = AllHermitianCone(OperatorAlgebra(E11[None]))
    check = cones_mod._lineality_check(cone, 1)
    assert check.verdict == "fail"
    with pytest.raises(MembershipError):
        cone.member(1, cone.unit(1))
    h, minus_h = check.witness.members
    np.testing.assert_allclose(np.abs(h), E11.real, atol=1e-12)
    np.testing.assert_array_equal(minus_h, -h)
    assert cone.member_many(1, [h, -h]) == [True, True]


def test_the_oracle_protocol_is_declared_abstract():
    # Both concrete cones implement these, one method per question; sharp_block,
    # the involution, is the similarity cone's.
    assert ConeOracle.__abstractmethods__ == {"member_many", "min_shift_pair", "straighten",
                                              "sample_many", "sample_span_many"}
    with pytest.raises(TypeError, match="abstract"):
        ConeOracle(None)
    assert not hasattr(ConeOracle, "sharp_block")


def test_bisection_over_its_step_budget_stalls(monkeypatch, std_m2):
    # An opaque cone bisects; three steps cannot reach the default tolerance.
    monkeypatch.setattr(cones_mod, "MAX_BISECT_ITER", 3)
    with pytest.raises(NumericalStall, match="bisection exceeded 3 iterations"):
        order_unit_seminorm(_opaque(std_m2), 1, np.diag([3.0, -1.0]).astype(complex))
