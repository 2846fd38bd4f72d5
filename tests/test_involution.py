import numpy as np
import pytest

from conftest import (E11, E12, E21, WORKED_B, WORKED_S, random_similarity,
                      random_star_closed_algebra, random_unitary)
from doubles import (AllHermitianCone, GappedCone, GrowingSpanCone, RotatedSampleCone,
                     SkewedLevelCone, ZeroCone, ZeroedCornerCone, instance_oracle)
from matorder import involution as involution_mod
from matorder.algebra import conjugate_algebra, generate_algebra, random_element
from matorder.case_studies import FunctionPullbackCone
from matorder.cones import SimilarityCone, StandardCone, audit_matrix_ordered
from matorder.errors import (CertificationFailed, DecompositionInfeasible, DecompositionNotUnique,
                             DimensionMismatch, LevelUnsupported, SpanUnstable)
from matorder.involution import (
    InvolutionMap,
    _split,
    certify_level,
    decompose,
    real_cone_span,
    recover_involution,
    verify_matrix_involution,
)
from matorder.order_norms import null_space
from references import amplify


def test_real_cone_span_standard(std_m2):
    span = real_cone_span(std_m2, 1)
    assert span.shape[0] == 4  # Hermitian part of M_2


def test_real_cone_span_similarity(worked_sim_cone):
    span = real_cone_span(worked_sim_cone, 1)
    assert span.shape[0] == 2
    # Spanned over R by {I, b}: b itself must project cleanly.
    from matorder import _linalg as la
    rows = np.stack([la.real_vec(h) for h in span])
    assert la.project_residual(rows, la.real_vec(WORKED_B)) < 1e-10


def test_real_cone_span_zero_cone(m2_full):
    span = real_cone_span(ZeroCone(m2_full), 1)
    assert span.shape[0] == 0


def test_decompose_standard_split(std_m2):
    x1, x2 = decompose(std_m2, 1, E12, span=real_cone_span(std_m2, 1))
    np.testing.assert_allclose(x1, 0.5 * (E12 + E21), atol=1e-10)
    np.testing.assert_allclose(x2, (E12 - E21) / 2j, atol=1e-10)


def test_decompose_hermitian_fixed(std_m2):
    h = np.diag([2.0, -5.0]).astype(complex)
    x1, x2 = decompose(std_m2, 1, h, span=real_cone_span(std_m2, 1))
    np.testing.assert_allclose(x1, h, atol=1e-10)
    np.testing.assert_allclose(x2, 0 * h, atol=1e-10)


def test_decompose_similarity_imaginary(worked_sim_cone):
    x1, x2 = decompose(worked_sim_cone, 1, 1j * WORKED_B, span=real_cone_span(worked_sim_cone, 1))
    np.testing.assert_allclose(x1, 0 * WORKED_B, atol=1e-10)
    np.testing.assert_allclose(x2, WORKED_B, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_map_apply_and_call_agree_at_every_level(worked_sim_cone, n):
    inv = recover_involution(worked_sim_cone)
    rng = np.random.default_rng(n)
    x = random_element(worked_sim_cone.algebra, rng, level=n)
    np.testing.assert_allclose(inv(x), worked_sim_cone.sharp_block(n, n, x), atol=1e-9)
    # A rectangular n x (n + 1) block matrix maps to (n + 1) x n blocks.
    a = np.hstack([x, random_element(worked_sim_cone.algebra, rng, level=n + 1)[:2 * n, :2]])
    np.testing.assert_allclose(inv(a), worked_sim_cone.sharp_block(n, n + 1, a), atol=1e-9)


@pytest.mark.parametrize("consumer", [
    lambda cone: recover_involution(cone),
    lambda cone: null_space(cone, 1),
    lambda cone: real_cone_span(cone, 1),
], ids=["recover_involution", "null_space", "real_cone_span"])
def test_level_consumers_reject_cones_without_matrix_levels(consumer):
    with pytest.raises(LevelUnsupported):
        consumer(FunctionPullbackCone(np.linspace(0.0, 1.0, 8)))


def test_sharp_examples(std_m2, worked_sim_cone):
    inv = recover_involution(std_m2)
    np.testing.assert_allclose(inv(E12), E21, atol=1e-10)
    np.testing.assert_allclose(inv(1j * np.eye(2)), -1j * np.eye(2), atol=1e-10)
    inv_sim = recover_involution(worked_sim_cone)
    np.testing.assert_allclose(inv_sim(WORKED_B), WORKED_B, atol=1e-9)


def test_involution_algebraic_laws(worked_sim_cone, worked_algebra):
    inv = recover_involution(worked_sim_cone)
    rng = np.random.default_rng(0)
    e = np.eye(2, dtype=complex)
    np.testing.assert_allclose(inv(e), e, atol=1e-9)
    for _ in range(20):
        x = random_element(worked_algebra, rng)
        y = random_element(worked_algebra, rng)
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        # conjugate-linearity
        np.testing.assert_allclose(inv(lam * x),
                                   np.conj(lam) * inv(x), atol=1e-9)
        # idempotence
        np.testing.assert_allclose(inv(inv(x)), x, atol=1e-9)
        # anti-multiplicativity
        np.testing.assert_allclose(inv(x @ y),
                                   inv(y) @ inv(x), atol=1e-8)


def test_involution_operator_bound(worked_sim_cone, worked_algebra):
    inv = recover_involution(worked_sim_cone)
    bound, rng = inv.norm_bound(0), np.random.default_rng(1)
    for _ in range(30):
        x = random_element(worked_algebra, rng)
        assert np.linalg.norm(inv(x), 2) <= bound * np.linalg.norm(x, 2) * (1.0 + 1e-9)


def test_involution_bounded_by_audited_constant(worked_sim_cone, worked_algebra):
    # ||x^sharp|| <= 2 K ||x||, with K the audited norm-comparison constant
    # (||x1||, ||x2|| <= K ||x|| for the unique decomposition).
    from matorder.cones import audit_star_admissible

    report = audit_star_admissible(worked_sim_cone, levels=(1, 2), samples=150,
                                   seed=7)
    k_const = report.constants["K"].value
    inv = recover_involution(worked_sim_cone)
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = random_element(worked_algebra, rng)
        assert np.linalg.norm(inv(x), 2) <= \
            2.0 * k_const * np.linalg.norm(x, 2) + 1e-9


def test_sharp_fixes_span_and_negates_imaginary(worked_sim_cone):
    inv = recover_involution(worked_sim_cone)
    span = real_cone_span(worked_sim_cone, 1)
    for h in span:
        np.testing.assert_allclose(inv(h), h, atol=1e-9)
        np.testing.assert_allclose(inv(1j * h), -1j * h, atol=1e-9)


def test_standard_sharp_is_adjoint(std_m3, m3_full):
    inv = recover_involution(std_m3)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        x = random_element(m3_full, rng)
        worst = max(worst, np.linalg.norm(inv(x) - x.conj().T))
    assert worst <= 1e-9


def test_sharp_conjugation_preserves_cone(worked_sim_cone, worked_algebra):
    # x^sharp c x stays in the cone, and the 2x2 block identity from the
    # continuity argument reproduces it at the doubled level.
    inv = recover_involution(worked_sim_cone)
    span = real_cone_span(worked_sim_cone, 1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_element(worked_algebra, rng)
        c = worked_sim_cone.sample(1, rng)
        prod = inv(x) @ c @ x
        assert worked_sim_cone.member(1, prod)

        x1, x2 = decompose(worked_sim_cone, 1, x, span=span)
        big = np.block([[-x1, -1j * x2], [1j * x2, x1]])
        middle = big @ np.kron(np.eye(2), c) @ big
        row = np.hstack([np.eye(2), np.eye(2)])
        np.testing.assert_allclose(0.5 * row @ middle @ row.conj().T, prod,
                                   atol=1e-9)


def test_degenerate_span_raises(m2_full):
    cone = ZeroCone(m2_full)
    with pytest.raises(DecompositionInfeasible, match="cone span is trivial"):
        decompose(cone, 1, np.eye(2, dtype=complex), span=real_cone_span(cone, 1))


@pytest.mark.parametrize("fixture", ["std_m2", "worked_sim_cone", "planted_sim_cone"])
@pytest.mark.parametrize("level", [1, 2, 4])
def test_verify_matrix_involution(fixture, level, request):
    # Asked through an instance oracle, the frame involution's certificate samples.
    frame = request.getfixturevalue(fixture)
    cone = instance_oracle(frame)
    cmp_rep = verify_matrix_involution(cone, level, samples=8, seed=4,
                                       involution1=recover_involution(frame, seed=4))
    assert cmp_rep.max_residual <= 1e-8
    assert cmp_rep.rank == cmp_rep.need == level * level * cone.algebra.dim
    assert cmp_rep.passed


def test_verify_matrix_involution_standard_tight(std_m2):
    # Both routes reduce to the matrix adjoint for standard cones.
    cmp_rep = verify_matrix_involution(instance_oracle(std_m2), 2, samples=10, seed=5,
                                       involution1=recover_involution(std_m2, seed=5))
    assert cmp_rep.max_residual <= 1e-10


@pytest.mark.parametrize("fixture", ["std_m2", "worked_sim_cone"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_batched_recovery_matches_per_element_decompose(fixture, level, request):
    # Level 1: the batched split (the sampled one, through an instance oracle) against
    # one split per basis element.  Level n: the certified entrywise map against the
    # split over the level-n span.
    cone = request.getfixturevalue(fixture)
    opaque = instance_oracle(cone)
    inv = recover_involution(opaque)
    if level > 1:
        certify_level(opaque, level, inv)
    basis = amplify(cone.algebra, level).basis
    batched = inv.images if level == 1 else np.stack([inv(b) for b in basis])
    span = real_cone_span(cone, level)
    one_by_one = []
    for b in basis:
        x1, x2 = decompose(cone, level, b, span=span)
        one_by_one.append(x1 - 1j * x2)
    np.testing.assert_allclose(batched, np.stack(one_by_one), rtol=0, atol=1e-12)


def test_recovery_returns_the_level_one_map_at_every_level(worked_sim_cone):
    # Recovery is level 1 only; certifying the map at level 3 leaves it as it was.
    one = recover_involution(worked_sim_cone, seed=3)
    images, bound = one.images.copy(), one.norm_bound(3)
    cert = certify_level(instance_oracle(worked_sim_cone), 3, one, seed=3)
    assert (cert.level, cert.provenance) == (3, "sampled") and cert.passed
    assert one.algebra is worked_sim_cone.algebra
    np.testing.assert_array_equal(one.images, images)
    assert one.norm_bound(3) == bound


def test_a_positional_level_to_recover_involution_raises(std_m2):
    # The seed is keyword-only: a leftover level is refused, not read as a seed.
    with pytest.raises(TypeError, match="positional"):
        recover_involution(std_m2, 1)


def test_a_level_n_certificate_needs_its_map(std_m2):
    with pytest.raises(TypeError, match="involution1"):
        verify_matrix_involution(std_m2, 2)


@pytest.mark.parametrize("other", ["span_i_e11", "m3_full"])
@pytest.mark.parametrize("check", [
    lambda cone, inv: verify_matrix_involution(cone, 2, involution1=inv),
    lambda cone, inv: certify_level(cone, 2, inv),
], ids=["verify", "certify"])
def test_a_map_over_another_algebra_raises_before_any_draw(other, check, m2_full, request,
                                                            monkeypatch):
    # A map over the diagonal algebra (dim 2) or M_3 fits M_2's level-2 samples in no shape.
    foreign = recover_involution(StandardCone(request.getfixturevalue(other)))
    cone = instance_oracle(StandardCone(m2_full))
    calls = _counted_draws(monkeypatch, cone)
    with pytest.raises(DimensionMismatch, match="involution images of shape"):
        check(cone, foreign)
    assert calls == []


def test_skewed_level_cone_fails_the_residual_check(m2_full):
    cone = SkewedLevelCone(m2_full)
    inv = recover_involution(cone, seed=2)
    assert verify_matrix_involution(cone, 1, seed=2, involution1=inv).passed
    cmp_rep = verify_matrix_involution(cone, 2, seed=2, involution1=inv)
    assert cmp_rep.max_residual > 1e-8
    assert not cmp_rep.passed
    with pytest.raises(CertificationFailed, match="max_residual=.*rank=16, need=16"):
        certify_level(cone, 2, inv, seed=2)


def test_zeroed_corner_cone_fails_the_rank_check(m2_full):
    # Its samples are Hermitian, but none has mass in the corner row and column.
    adjoint = recover_involution(StandardCone(m2_full))
    cmp_rep = verify_matrix_involution(ZeroedCornerCone(m2_full), 2, involution1=adjoint)
    assert cmp_rep.max_residual <= 1e-8
    assert cmp_rep.rank < cmp_rep.need == 16
    assert not cmp_rep.passed


def test_level_four_certificate_on_full_m6():
    rng = np.random.default_rng(8)
    alg = generate_algebra([rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))],
                           include_adjoints=True)
    cone = StandardCone(alg)
    cmp_rep = verify_matrix_involution(instance_oracle(cone), 4, seed=1,
                                       involution1=recover_involution(cone, seed=1))
    assert cmp_rep.rank == cmp_rep.need == 16 * 36
    assert cmp_rep.passed


class _WrongLevelCone(StandardCone):
    """Draws its level-n samples at level 2n."""

    def sample_many(self, n, k, rng):
        return super().sample_many(2 * n, k, rng)


def test_wrong_level_samples_raise_dimension_mismatch(m2_full):
    # Three 4 x 4 samples at level 1 used to be read as twelve 2 x 2 ones.
    cone = _WrongLevelCone(m2_full)
    sampled = instance_oracle(cone)  # the audit and the certificate sample
    involution1 = recover_involution(StandardCone(m2_full))
    for run in (lambda: audit_matrix_ordered(sampled, (1,), samples=3),
                lambda: real_cone_span(cone, 1),
                lambda: verify_matrix_involution(sampled, 1, involution1=involution1)):
        with pytest.raises(DimensionMismatch, match="level-1 elements must be 2x2"):
            run()


# -- typed errors of the span and the split ----------------------------------

def test_a_span_still_growing_after_every_round_raises(m3_full):
    with pytest.raises(SpanUnstable, match=r"still growing after 12 rounds \(dim 12\)"):
        real_cone_span(GrowingSpanCone(m3_full), 1)


def test_a_sampled_span_of_the_wrong_dimension_raises(m2_full):
    # Samples with a zero first row and column span only the E22 direction.
    with pytest.raises(SpanUnstable, match="sampled span dimension 1 != exact span dimension 4"):
        real_cone_span(ZeroedCornerCone(m2_full), 1)


def test_a_sampled_span_off_the_exact_one_raises(span_i_e11):
    # u span{E11, E22} u* has the dimension of the diagonal Hermitian part, not its span.
    cone = RotatedSampleCone(span_i_e11, random_unitary(np.random.default_rng(3), 2))
    with pytest.raises(SpanUnstable, match="sampled span disagrees with the exact span"):
        real_cone_span(cone, 1)


def test_a_span_meeting_i_span_is_not_unique(std_m2):
    span = np.stack([np.eye(2), 1j * np.eye(2)]) / np.sqrt(2.0)
    with pytest.raises(DecompositionNotUnique, match="span meets i\\*span in dimension 2"):
        decompose(std_m2, 1, np.eye(2, dtype=complex), span=span)


def test_a_span_too_small_for_the_algebra_is_infeasible(std_m2):
    span = (np.eye(2) / np.sqrt(2.0))[None].astype(complex)
    with pytest.raises(DecompositionInfeasible,
                       match="span \\+ i\\*span has real dimension 2, the algebra needs 8"):
        decompose(std_m2, 1, np.eye(2, dtype=complex), span=span)


def test_a_span_tilted_out_of_the_algebra_misses_its_split(span_i_e11):
    # span{E11, E22 + eps (E12 + E21)}: full rank, so only the split of E22 misses.
    eps = 1e-3
    tilted = (np.diag([0.0, 1.0]) + eps * (E12 + E21) / np.sqrt(2.0)) / np.sqrt(1.0 + eps ** 2)
    span = np.stack([E11, tilted]).astype(complex)
    cone = StandardCone(span_i_e11)
    x1, x2 = decompose(cone, 1, E11, span=span)
    np.testing.assert_allclose(x1 + 1j * x2, E11, atol=1e-12)
    with pytest.raises(DecompositionInfeasible, match="decomposition residual 0.001 outside"):
        decompose(cone, 1, np.diag([0.0, 1.0]).astype(complex), span=span)


# -- frame cones: the involution from the realisation theorem -----------------

def _counted_draws(monkeypatch, cone):
    """The calls of cone.sample_many from now on (an instance attribute, removed
    again on undo, which leaves the oracle, and so `_frame_oracle`, as it is)."""
    calls, draw = [], cone.sample_many
    monkeypatch.setitem(vars(cone), "sample_many", lambda *args: calls.append(args) or draw(*args))
    return calls


@pytest.mark.parametrize("fixture", ["std_m2", "std_m3", "worked_sim_cone", "planted_sim_cone"])
def test_a_frame_cone_takes_its_involution_from_the_frame_and_draws_nothing(
        fixture, request, monkeypatch):
    cone = request.getfixturevalue(fixture)
    calls = _counted_draws(monkeypatch, cone)
    inv = recover_involution(cone, seed=2)
    assert calls == []
    np.testing.assert_array_equal(inv.images, cone.sharp_block(1, 1, cone.algebra.basis))
    assert verify_matrix_involution(instance_oracle(cone), 2, seed=2, involution1=inv).passed


@pytest.mark.parametrize("fixture", ["std_m2", "worked_sim_cone", "planted_sim_cone"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_frame_cone_certifies_every_level_by_the_theorem(fixture, level, request,
                                                           monkeypatch):
    cone = request.getfixturevalue(fixture)
    recover_involution(cone)  # the cone's set-up: A's star-closure is decided once
    calls = _counted_draws(monkeypatch, cone)
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
    cert = verify_matrix_involution(cone, level, seed=2,
                                    involution1=recover_involution(cone, seed=2))
    assert calls == [] and svds == []
    assert (cert.level, cert.samples, cert.max_residual, cert.rank, cert.need) == (
        level, 0, None, None, level * level * cone.algebra.dim)
    assert cert.provenance == "theorem: C_n = pi^(n)^-1(M_n(A)^+), A = S B S^-1 star-closed"
    assert cert.passed


def test_full_m6_recovers_its_level_eight_involution_by_the_theorem(monkeypatch):
    rng = np.random.default_rng(8)
    cone = StandardCone(generate_algebra(
        [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))], include_adjoints=True))
    calls = _counted_draws(monkeypatch, cone)
    certs, verify = [], involution_mod.verify_matrix_involution
    monkeypatch.setattr(involution_mod, "verify_matrix_involution",
                        lambda *a, **k: certs.append(verify(*a, **k)) or certs[-1])
    inv = recover_involution(cone, seed=1)
    certify_level(cone, 8, inv, seed=1)
    assert calls == []
    np.testing.assert_array_equal(inv.images, cone.sharp_block(1, 1, cone.algebra.basis))
    assert [(c.level, c.samples, c.rank, c.need, c.provenance[:8]) for c in certs] == [
        (8, 0, None, 64 * 36, "theorem:")]


def test_a_foreign_level_one_map_on_a_frame_cone_is_sampled_and_fails(planted_sim_cone,
                                                                      monkeypatch):
    # The ambient adjoint is not the involution of a cone behind a non-unitary S.
    cone = planted_sim_cone
    adjoint = InvolutionMap(cone.algebra, np.stack([b.conj().T for b in cone.algebra.basis]))
    calls = _counted_draws(monkeypatch, cone)
    cert = verify_matrix_involution(cone, 2, seed=2, involution1=adjoint)
    assert calls and (cert.samples, cert.provenance) == (20, "sampled")
    assert cert.max_residual > 1e-8 and not cert.passed
    with pytest.raises(CertificationFailed, match="provenance='sampled'"):
        certify_level(cone, 2, adjoint, seed=2)


class _AdjointSharp(SimilarityCone):
    """A frame cone whose `sharp_block` is the ambient adjoint, not its frame's involution."""

    def sharp_block(self, n, m, a):
        return a.conj().swapaxes(-1, -2)


def test_an_overridden_sharp_block_is_sampled_and_fails(planted_sim_cone, monkeypatch):
    # The realisation theorem speaks of the frame's involution, not of an overriding map.
    cone = _AdjointSharp(planted_sim_cone.algebra, WORKED_S)
    adjoint = InvolutionMap(cone.algebra, cone.sharp_block(1, 1, cone.algebra.basis))
    calls = _counted_draws(monkeypatch, cone)
    cert = verify_matrix_involution(cone, 2, seed=2, involution1=adjoint)
    assert calls and (cert.samples, cert.provenance) == (20, "sampled") and not cert.passed
    calls.clear()
    inv = recover_involution(cone, seed=2)
    assert calls and certify_level(cone, 2, inv, seed=2).passed


@pytest.mark.parametrize("make", [
    lambda m2, m3, planted: AllHermitianCone(m2),
    lambda m2, m3, planted: SkewedLevelCone(m2),
    lambda m2, m3, planted: GappedCone(m2),
    lambda m2, m3, planted: instance_oracle(StandardCone(m3)),
    lambda m2, m3, planted: instance_oracle(planted),
], ids=["all-hermitian", "skewed-level", "gapped", "instance-std-m3", "instance-planted"])
def test_opaque_cones_keep_the_sampled_recovery_bit_for_bit(make, m2_full, m3_full,
                                                             planted_sim_cone, monkeypatch):
    cone = make(m2_full, m3_full, planted_sim_cone)
    calls = _counted_draws(monkeypatch, cone)
    got = recover_involution(cone, seed=4)
    assert calls
    x1, x2 = _split(cone, 1, cone.algebra.basis, real_cone_span(cone, 1, seed=4))
    want = InvolutionMap(cone.algebra, x1 - 1j * x2)
    assert got.images.tobytes() == want.images.tobytes() and got.norm_bound(4) == want.norm_bound(4)


def test_an_explicit_span_keeps_the_sampled_split_on_a_frame_cone(worked_sim_cone, monkeypatch):
    # The split over an explicit span draws nothing; the frame cone's instance oracle
    # recovers the same images by sampling that span.
    span = real_cone_span(worked_sim_cone, 1, seed=1)
    calls = _counted_draws(monkeypatch, worked_sim_cone)
    x1, x2 = _split(worked_sim_cone, 1, worked_sim_cone.algebra.basis, span)
    assert calls == []
    inv = recover_involution(instance_oracle(worked_sim_cone), seed=1)
    assert calls
    np.testing.assert_array_equal(inv.images, x1 - 1j * x2)


@pytest.mark.parametrize("seed", range(8))
def test_the_frame_involution_is_the_sampled_one_within_its_residual(seed):
    # Planted frame cones at cond(S) 1 to 1e2: each image differs from the sampled
    # split's by at most ten times the sampled map's level-1 residual, at its size.
    rng = np.random.default_rng(60 + seed)
    alg = random_star_closed_algebra(rng, nmax=5)
    s = random_similarity(rng, alg.ambient_dim, 2.0)
    cone = SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s)
    frame = recover_involution(cone, seed=seed)
    sampled = recover_involution(instance_oracle(cone), seed=seed)
    residual = verify_matrix_involution(cone, 1, seed=seed, involution1=sampled)
    assert residual.passed
    assert verify_matrix_involution(instance_oracle(cone), 1, seed=seed,
                                    involution1=frame).passed
    size = np.linalg.norm(sampled.images, axis=(1, 2))
    diff = np.linalg.norm(frame.images - sampled.images, axis=(1, 2))
    eps = np.finfo(float).eps
    assert np.all(diff <= 10.0 * max(residual.max_residual, eps) * (1.0 + size))
