"""The involution and similarity layers' stacked passes against their
one-element references: the barrier solve on stacked LMI blocks (each cond
within the other side's certified gap, the same dual certificates, no failed
Cholesky and at most its pinned Newton steps), a phase one that stops once
feasible, and the cone span, `norm_bound`, level-n certificate,
`build_star_rep` cone residual and norm identity drawn and measured in
stacks.  Every double of `tests/doubles.py` is drawn one
element at a time and gives the reference's answers."""

import copy

import numpy as np
import pytest

from conftest import WORKED_S, random_similarity, random_star_closed_algebra
from doubles import (AllHermitianCone, SkewedLevelCone, ZeroCone, ZeroedCornerCone,
                     instance_oracle)
from matorder import _linalg as la
from matorder import involution as involution_mod
from matorder import similarity
from matorder.algebra import conjugate_algebra, generate_algebra
from matorder.case_studies import j_symmetrize, jsym_norm_identity
from matorder.cones import SimilarityCone
from matorder.errors import NoPositiveSolution
from matorder.involution import (
    InvolutionMap,
    real_cone_span,
    recover_involution,
    verify_matrix_involution,
)
from matorder.similarity import build_star_rep, minimize_condition, solve_Q
from references import (
    barrier_refactoring,
    bound_2k_per_element,
    jsym_norm_identity_per_sample,
    minimize_condition_to_gap,
    phase_one_to_gap,
    real_cone_span_per_sample,
    residual_cone_kron,
    verify_matrix_involution_per_sample,
)

CONES = ["std_m2", "worked_sim_cone", "planted_sim_cone"]
DOUBLES = [AllHermitianCone, ZeroedCornerCone, ZeroCone, SkewedLevelCone]


def _space(cone, seed=0):
    return solve_Q(cone.algebra, recover_involution(cone, seed=seed))


def _planted_space(seed, n):
    """Q-space of a random star-closed algebra behind a random similarity."""
    rng = np.random.default_rng(seed)
    alg = random_star_closed_algebra(rng, n)
    s = random_similarity(rng, n, 1.0)
    b = conjugate_algebra(alg, np.linalg.inv(s))
    return _space(SimilarityCone(b, s), seed)


def _kadison_space(seed):
    """A `kadison_pipeline` Q-space: M_3 doubled behind S (+) S^-*, 6 x 6."""
    rng = np.random.default_rng(seed)
    m3 = random_star_closed_algebra(rng, 3)
    s = random_similarity(rng, 3, 0.5)
    rep = j_symmetrize(m3, np.stack([np.linalg.inv(s) @ b @ s for b in m3.basis]))
    doubled = np.block([[s, np.zeros_like(s)], [np.zeros_like(s), np.linalg.inv(s.conj().T)]])
    return _space(SimilarityCone(generate_algebra(list(rep.rho_images)), doubled), seed)


def _counting_qr(monkeypatch):
    """A counter of Newton steps: each makes one QR factorization."""
    steps = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        steps.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return steps


def _failing_cholesky(monkeypatch):
    """A record of the Cholesky factorizations that raise LinAlgError."""
    failed = []
    cholesky = np.linalg.cholesky

    def counted(*args, **kwargs):
        try:
            return cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            failed.append(1)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return failed


def _involution(cone, fixture):
    """The recovered involution, or for a double (whose span may not split M_2)
    the adjoint of the standard cone it corrupts."""
    if not isinstance(fixture, type):
        return recover_involution(cone, seed=1)
    return InvolutionMap(cone.algebra, np.stack([b.conj().T for b in cone.algebra.basis]))


def _named_space(name, request):
    if name.startswith("planted-"):
        return _planted_space(int(name[-1]) + 30, int(name[-1]))
    if name.startswith("kadison-"):
        return _kadison_space(int(name[-1]))
    return _space(request.getfixturevalue(name))


@pytest.mark.parametrize("space", ["std_m2", "worked_sim_cone", "planted_sim_cone",
                                   "planted-3", "planted-4", "kadison-1", "kadison-2"])
def test_minimize_condition_within_the_references_certified_gap(space, request):
    space = _named_space(space, request)
    got, want = minimize_condition(space), minimize_condition_to_gap(space)
    # cond >= the optimum >= the other side's cond - gap, for both sides.
    slack = 1e-12 * want.cond
    assert got.cond >= want.cond - want.gap - slack
    assert want.cond >= got.cond - got.gap - slack


# Newton steps of both phases, pinned as ceilings; the search that halved from step 1 took
# 39, 36, 37, 35, 38, 60 and 40, and 60 to 77 of its Cholesky factorizations failed.
@pytest.mark.parametrize("space, ceiling", [
    ("std_m2", 25), ("worked_sim_cone", 27), ("planted_sim_cone", 27), ("planted-3", 28),
    ("planted-4", 29), ("kadison-1", 24), ("kadison-2", 28),
])
def test_the_exact_line_search_fails_no_cholesky(space, ceiling, request, monkeypatch):
    space = _named_space(space, request)
    failed, steps = _failing_cholesky(monkeypatch), _counting_qr(monkeypatch)
    minimize_condition(space)
    assert failed == []
    assert len(steps) <= ceiling


@pytest.mark.parametrize("space", ["worked_sim_cone", "planted-3", "planted-4", "kadison-1"])
def test_a_raised_tau_reuses_the_whitening_and_the_qr_factor(space, request, monkeypatch):
    # Phase two from phase one's point: the same iterates and gap to the bit,
    # with one QR factorization per new iterate instead of one per tau too.
    space = similarity._hermitian_space(_named_space(space, request))
    c, s = similarity._phase_one(space)
    k = space.shape[0]
    args = (*similarity._box_blocks(space, (1.0, 0.0), (0.0, 1.0)), np.eye(k + 1)[k],
            np.append(2.0 * c / s, 4.0 / s))
    steps = _counting_qr(monkeypatch)
    want = barrier_refactoring(*args)
    refactored = len(steps)
    steps.clear()
    got = similarity._barrier(*args)
    assert repr((got[0].tolist(), got[1])) == repr((want[0].tolist(), want[1]))
    assert len(steps) < refactored


@pytest.mark.parametrize("space", [
    [np.diag([1.0, -1.0]) / np.sqrt(2)],
    [np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])],
], ids=["ray", "plane"])
def test_infeasible_phase_one_keeps_the_references_dual(space):
    space = np.stack(space).astype(complex)
    with pytest.raises(NoPositiveSolution) as got:
        similarity._phase_one(space)
    with pytest.raises(NoPositiveSolution) as want:
        phase_one_to_gap(space)
    np.testing.assert_allclose(got.value.dual, want.value.dual, atol=1e-9)


def test_phase_one_stops_once_feasible(worked_sim_cone, monkeypatch):
    space = similarity._hermitian_space(_space(worked_sim_cone))
    _, s_ref, _ = phase_one_to_gap(space)
    steps = _counting_qr(monkeypatch)
    phase_one_to_gap(space)
    to_gap = len(steps)
    steps.clear()
    c, s = similarity._phase_one(space)
    assert len(steps) <= 10 < to_gap
    # s >= s*/2 >= s_ref/2, and Q(c) >= s I exhibits it.
    assert s >= 0.5 * s_ref
    assert np.linalg.eigvalsh(np.tensordot(c, space, axes=(0, 0)))[0] >= s * (1 - 1e-12)


@pytest.mark.parametrize("fixture", CONES + DOUBLES)
@pytest.mark.parametrize("n", [1, 2])
def test_real_cone_span_matches_the_per_sample_rounds(fixture, n, request, m2_full):
    cone = fixture(m2_full) if isinstance(fixture, type) else request.getfixturevalue(fixture)
    cone = copy.copy(cone)
    cone.span_basis = lambda n: None  # the sampled basis alone, as the reference
    got = real_cone_span(cone, n, seed=3)
    want = real_cone_span_per_sample(cone, n, seed=3)
    if isinstance(fixture, type):
        assert np.array_equal(got, want)
        return
    assert got.shape == want.shape
    rows = la.real_rows(got)
    assert max(la.project_residual(rows, la.real_vec(h)) for h in want) <= 1e-9


@pytest.mark.parametrize("fixture", CONES)
def test_bound_2k_and_stacked_involution_match_per_element(fixture, request):
    cone = request.getfixturevalue(fixture)
    inv = recover_involution(cone, seed=4)
    assert inv.norm_bound(4) == pytest.approx(bound_2k_per_element(cone.algebra, inv, seed=4),
                                              rel=1e-12)
    xs = cone.sample_many(2, 5, np.random.default_rng(0))
    one = np.stack([inv(x) for x in xs])
    np.testing.assert_allclose(inv(xs), one, rtol=0, atol=1e-13 * np.abs(one).max())


def _draw_counter(cone):
    """The cone with a record of its stacked draws' sizes."""
    out = copy.copy(cone)
    draws, draw = [], cone._draw

    def counted(n, k, rng, span):
        draws.append(k)
        return draw(n, k, rng, span)

    out._draw = counted
    return out, draws


@pytest.mark.parametrize("fixture", CONES + DOUBLES)
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("chunk", [64, 5])
def test_verify_matrix_involution_matches_the_per_sample_rows(fixture, n, chunk, request,
                                                             m2_full, monkeypatch):
    # need + samples is 4 + 20, 16 + 20 or 64 + 20 on M_2 and 2 + 20, 8 + 20
    # or 32 + 20 on the worked algebra: none is a multiple of 5, and 84 is
    # not one of 64, so the last chunk is a short one.  A frame cone is asked
    # through an instance oracle, so that its frame involution is sampled.
    cone = fixture(m2_full) if isinstance(fixture, type) else request.getfixturevalue(fixture)
    monkeypatch.setattr(involution_mod, "CERT_CHUNK_BYTES", chunk * 16 * cone.level_dim(n) ** 2)
    inv = _involution(cone, fixture)
    cone = cone if isinstance(fixture, type) else instance_oracle(cone)
    got = verify_matrix_involution(cone, n, 20, seed=2, involution1=inv)
    want = verify_matrix_involution_per_sample(cone, n, 20, 2, inv)
    assert (got.level, got.samples, got.rank, got.need, got.passed) == (
        want.level, want.samples, want.rank, want.need, want.passed)
    assert got.max_residual == pytest.approx(want.max_residual, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("fixture", CONES)
def test_similarity_cones_draw_once_per_chunk_and_round(fixture, request, monkeypatch):
    # Asked through an instance oracle, the frame involution's certificate samples.
    frame = request.getfixturevalue(fixture)
    cone, draws = _draw_counter(instance_oracle(frame))
    monkeypatch.setattr(involution_mod, "CERT_CHUNK_BYTES", 16 * 16 * cone.level_dim(2) ** 2)
    rounds = 2 * 4 * cone.algebra.dim + 8
    real_cone_span(cone, 2, seed=0)
    assert len(draws) >= 3 and set(draws) == {rounds}
    inv = recover_involution(frame)
    draws.clear()
    total = 4 * cone.algebra.dim + 20
    verify_matrix_involution(cone, 2, 20, seed=0, involution1=inv)
    assert draws == [16] * (total // 16) + [total % 16]


@pytest.mark.parametrize("fixture", CONES + [SkewedLevelCone, ZeroedCornerCone])
def test_build_star_rep_cone_residual_matches_the_kron_reference(fixture, request, m2_full):
    cone = fixture(m2_full) if isinstance(fixture, type) else request.getfixturevalue(fixture)
    q = np.eye(cone.level_dim(1), dtype=complex)
    if fixture == "worked_sim_cone":
        q = np.array([[1, 1], [1, 2]], dtype=complex)
    elif fixture == "planted_sim_cone":
        q = WORKED_S.conj().T @ WORKED_S
    inv = _involution(cone, fixture)
    star = build_star_rep(cone.algebra, cone, q, involution=inv, levels=(1, 2, 4), samples=6)
    want = residual_cone_kron(cone, star.certificate.s, (1, 2, 4), 6)
    assert star.certificate.residual_cone == pytest.approx(want, rel=1e-9, abs=1e-14)
    assert (want > 1e-3) == (fixture is SkewedLevelCone)


@pytest.mark.parametrize("doubled", [False, True])
def test_norm_identity_matches_the_per_sample_witness(doubled, m2_full):
    images = np.stack([np.linalg.inv(WORKED_S) @ b @ WORKED_S for b in m2_full.basis])
    if doubled:
        images = j_symmetrize(m2_full, images).rho_images
    got = jsym_norm_identity(images, m2_full, levels=(1, 2, 4), samples=12, seed=5)
    want = jsym_norm_identity_per_sample(images, m2_full, (1, 2, 4), 12, seed=5)
    assert got.max_deviation == pytest.approx(want.max_deviation, rel=1e-9, abs=1e-14)
    assert (got.levels, got.samples) == (want.levels, want.samples)
    if doubled:
        assert got.max_deviation <= 1e-12
    else:
        np.testing.assert_allclose(got.witness, want.witness, rtol=0, atol=1e-13)


def test_empty_sample_stacks(std_m2, m2_full):
    report = jsym_norm_identity(m2_full.basis, m2_full, levels=(1, 2), samples=0)
    assert (report.max_deviation, report.witness) == (0.0, None)
    star = build_star_rep(m2_full, std_m2, np.eye(2, dtype=complex), recover_involution(std_m2),
                          samples=0)
    assert star.certificate.residual_cone == 0.0
