import sys

import numpy as np
import pytest
from scipy import optimize

from conftest import (
    E12,
    WORKED_B,
    WORKED_S,
    level_one_inverse_bound,
    load_workloads,
    mat,
    random_similarity,
    random_star_closed_algebra,
    random_unitary,
)
from matorder import _linalg as la
from matorder import case_studies, similarity
from matorder.algebra import (OperatorAlgebra, block_coords, block_synth, commutant,
                              conjugate_algebra, generate_algebra, level_residual, random_element)
from matorder.cones import SimilarityCone, StandardCone
from matorder.errors import (DimensionMismatch, MatOrderError, MembershipError,
                             NoPositiveSolution, NumericalStall)
from matorder.involution import recover_involution
from matorder.similarity import (
    ReconstructionResult,
    _polar_point,
    _top_pair,
    build_star_rep,
    cb_lower_bound,
    minimize_condition,
    reconstruct_similarity,
    solve_Q,
)
from references import cb_lower_bound_two_stage, membership_residual

ONE_PLUS_SQRT2 = 1.0 + np.sqrt(2.0)


def _worked_space(worked_algebra, worked_sim_cone):
    inv = recover_involution(worked_sim_cone)
    return solve_Q(worked_algebra, inv)


def test_solve_Q_worked_space_shape(worked_algebra, worked_sim_cone):
    space = _worked_space(worked_algebra, worked_sim_cone)
    assert space.shape[0] == 2
    # Every solution has the pattern [[p, p], [p, q]] with p, q real.
    for q in space:
        assert q[0, 0] == pytest.approx(q[0, 1], abs=1e-10)
        assert q[0, 1] == pytest.approx(np.conj(q[1, 0]), abs=1e-10)
        assert abs(q[0, 0].imag) < 1e-10 and abs(q[1, 1].imag) < 1e-10


def test_solve_Q_full_matrix_algebra_is_scalars(m2_full, std_m2):
    inv = recover_involution(std_m2)
    space = solve_Q(m2_full, inv)
    assert space.shape[0] == 1
    q = space[0]
    assert q[0, 0] == pytest.approx(q[1, 1], abs=1e-10)
    assert abs(q[0, 1]) < 1e-10


def test_solve_Q_star_closed_contains_identity(m3_full, std_m3):
    inv = recover_involution(std_m3)
    space = solve_Q(m3_full, inv)
    coeffs = np.real(np.einsum("kab,ab->k", space.conj(), np.eye(3, dtype=complex)))
    recon = np.tensordot(coeffs, space, axes=(0, 0))
    np.testing.assert_allclose(recon, np.eye(3), atol=1e-9)


def test_find_pd_worked_space(worked_algebra, worked_sim_cone):
    # Phase one's (c, s): s I <= Q(c) <= I with s > 0, a positive definite solution.
    space = similarity._hermitian_space(_worked_space(worked_algebra, worked_sim_cone))
    c, s = similarity._phase_one(space)
    evals = np.linalg.eigvalsh(np.tensordot(c, space, axes=(0, 0)))
    assert 0.0 < s <= evals[0] and evals[-1] <= 1.0


def test_find_pd_indefinite_ray():
    space = np.stack([np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)])
    with pytest.raises(NoPositiveSolution):
        minimize_condition(space)


def test_positive_definite_ray_is_not_called_infeasible():
    # span{U diag(1, 1e-8, 0.5) U*}: every positive multiple is positive
    # definite with cond 1e8, so phase one ends at s ~ 1e-8 > 0 and the
    # solve goes on to phase two instead of raising NoPositiveSolution.
    u = random_unitary(np.random.default_rng(0), 3)
    q = u @ np.diag([1.0, 1e-8, 0.5]) @ u.conj().T
    space = (q / np.linalg.norm(q))[None]
    hermitian = similarity._hermitian_space(space)
    c, s = similarity._phase_one(hermitian)
    assert 0.0 < s <= np.linalg.eigvalsh(c[0] * hermitian[0])[0]
    cert = minimize_condition(space)
    assert cert.cond == pytest.approx(1e8, rel=1e-6)
    assert cert.cond - cert.gap <= 1e8 * (1.0 + 1e-6)


def test_find_pd_scalar_space():
    space = np.stack([np.eye(2, dtype=complex) / np.sqrt(2)])
    c, s = similarity._phase_one(space)
    q = c[0] * space[0]
    assert 0.0 < s <= np.linalg.eigvalsh(q)[0]
    np.testing.assert_allclose(q / np.linalg.eigvalsh(q)[0], np.eye(2), atol=1e-10)


def test_minimize_condition_worked_value(worked_algebra, worked_sim_cone):
    space = _worked_space(worked_algebra, worked_sim_cone)
    cert = minimize_condition(space)
    assert np.sqrt(cert.cond) == pytest.approx(ONE_PLUS_SQRT2, abs=1e-3)

    # Independent oracle: the solutions are [[1, 1], [1, t]] up to scale;
    # minimize the condition number over t directly.
    def cond_of(t):
        evals = np.linalg.eigvalsh(mat([[1, 1], [1, t]]))
        return evals[-1] / evals[0] if evals[0] > 0 else np.inf

    res = optimize.minimize_scalar(cond_of, bounds=(1.0 + 1e-9, 50.0),
                                   method="bounded",
                                   options={"xatol": 1e-12})
    assert np.sqrt(res.fun) == pytest.approx(ONE_PLUS_SQRT2, abs=1e-9)
    assert res.x == pytest.approx(3.0, abs=1e-5)
    assert cert.cond == pytest.approx(res.fun, abs=1e-6)


def test_minimize_condition_beats_planted(worked_algebra, worked_sim_cone):
    space = _worked_space(worked_algebra, worked_sim_cone)
    cert = minimize_condition(space)
    planted = np.linalg.cond(WORKED_S.conj().T @ WORKED_S)
    assert cert.cond <= planted + 1e-6  # 1+sqrt(2) beats the golden ratio squared


def test_minimize_condition_scalar_space():
    cert = minimize_condition(np.stack([np.eye(3, dtype=complex) / np.sqrt(3)]))
    assert cert.cond == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(cert.s, np.eye(3), atol=1e-10)


def test_build_star_rep_worked(worked_algebra, worked_sim_cone):
    q = mat([[1, 1], [1, 2]])
    star = build_star_rep(worked_algebra, worked_sim_cone, q, recover_involution(worked_sim_cone))
    assert star.certificate.residual_star <= 1e-7
    assert star.certificate.residual_cone <= 1e-7
    assert star.image_algebra.star_closed
    # tau(b) is a unitary conjugate of E_11: spectrum {0, 1}.
    coords = worked_algebra.coords_of(WORKED_B)
    tb = np.tensordot(coords, star.images, axes=(0, 0))
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(tb).real), [0.0, 1.0],
                               atol=1e-9)


def test_build_star_rep_rejects_wrong_q(worked_algebra, worked_sim_cone):
    from matorder.errors import CertificationFailed

    with pytest.raises(CertificationFailed):
        build_star_rep(worked_algebra, worked_sim_cone, np.diag([1.0, 5.0]).astype(complex),
                       recover_involution(worked_sim_cone))


def test_build_star_rep_takes_only_an_involution_map(m2_full, std_m2):
    # A per-matrix callable, which solve_Q takes, would meet the whole basis stack at once.
    with pytest.raises(MatOrderError, match="involution must be an InvolutionMap"):
        build_star_rep(m2_full, std_m2, np.eye(2), lambda b: b.conj().T, samples=2)
    np.testing.assert_allclose(solve_Q(m2_full, lambda b: b.conj().T),
                               solve_Q(m2_full, recover_involution(std_m2)), atol=1e-12)


def test_find_pd_empty_space():
    with pytest.raises(NoPositiveSolution):
        minimize_condition(np.zeros((0, 2, 2), dtype=complex))


def test_build_star_rep_identity_for_star_closed(m2_full, std_m2):
    star = build_star_rep(m2_full, std_m2, np.eye(2, dtype=complex), recover_involution(std_m2))
    np.testing.assert_allclose(star.images, m2_full.basis, atol=1e-10)
    assert star.certificate.cond == pytest.approx(1.0, abs=1e-12)


def test_tau_injective(worked_algebra, worked_sim_cone):
    q = mat([[1, 1], [1, 2]])
    star = build_star_rep(worked_algebra, worked_sim_cone, q, recover_involution(worked_sim_cone))
    flat = star.images.reshape(len(star.images), -1)
    s = np.linalg.svd(flat, compute_uv=False)
    assert s[-1] > 1e-8


def test_amplified_conjugation_identity(worked_algebra, worked_sim_cone):
    # Blockwise application of tau equals the big conjugation by S kron I.
    cert = minimize_condition(_worked_space(worked_algebra, worked_sim_cone))
    star = build_star_rep(worked_algebra, worked_sim_cone, cert.q,
                          recover_involution(worked_sim_cone))
    s, s_inv = cert.s, np.linalg.inv(cert.s)
    rng = np.random.default_rng(0)
    for n in (2, 3):
        big_s = np.kron(np.eye(n), s)
        big_s_inv = np.kron(np.eye(n), s_inv)
        for _ in range(5):
            x = random_element(worked_algebra, rng, level=n)
            direct = block_synth(block_coords(worked_algebra, x), star.images)
            conj = big_s @ x @ big_s_inv
            assert np.linalg.norm(direct - conj) <= 1e-9 * (1 + np.linalg.norm(x))


def test_blockwise_map_matches_block_loop(m3_full):
    # Images of another size (the doubling b -> diag(b, b*)), against the
    # block-by-block loop.
    images = np.stack([np.block([[b, np.zeros((3, 3))], [np.zeros((3, 3)), b.conj().T]])
                       for b in m3_full.basis])
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        x = random_element(m3_full, rng, level=n)
        ref = np.zeros((6 * n, 6 * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                coords = m3_full.coords_of(x[3 * i:3 * i + 3, 3 * j:3 * j + 3])
                ref[6 * i:6 * i + 6, 6 * j:6 * j + 6] = np.tensordot(coords, images, axes=(0, 0))
        np.testing.assert_allclose(block_synth(block_coords(m3_full, x), images), ref,
                                   atol=1e-12)


def test_order_isomorphism_both_ways(worked_algebra, worked_sim_cone):
    cert = minimize_condition(_worked_space(worked_algebra, worked_sim_cone))
    star = build_star_rep(worked_algebra, worked_sim_cone, cert.q,
                          recover_involution(worked_sim_cone))
    image_cone = StandardCone(star.image_algebra)
    s, s_inv = cert.s, np.linalg.inv(cert.s)
    rng = np.random.default_rng(1)
    for n in (1, 2):
        big_s = np.kron(np.eye(n), s)
        big_s_inv = np.kron(np.eye(n), s_inv)
        for _ in range(8):
            c = worked_sim_cone.sample_many(n, 1, rng)[0]
            assert image_cone.member_many(n, [big_s @ c @ big_s_inv])[0]
            p = image_cone.sample_many(n, 1, rng)[0]
            assert worked_sim_cone.member_many(n, [big_s_inv @ p @ big_s])[0]


def test_cb_upper_bound_closed_form():
    # The upper bound sqrt(cond(Q)) = ||S|| ||S^-1||, S = Q^(1/2).
    from matorder.similarity import _certificate_from
    for cert, want in ((minimize_condition(np.stack([np.eye(2, dtype=complex)])), 1.0),
                       (_certificate_from(mat([[1, 1], [1, 3]])), ONE_PLUS_SQRT2)):
        assert np.sqrt(cert.cond) == pytest.approx(want, abs=1e-12)
        assert la.opnorm(cert.s) * la.opnorm(np.linalg.inv(cert.s)) == pytest.approx(
            want, abs=1e-12)


def test_cb_lower_bound_identity(m2_full):
    assert cb_lower_bound(m2_full.basis, m2_full, k=2) == pytest.approx(
        1.0, abs=1e-8)


def test_cb_lower_bound_transpose(m2_full):
    images = np.stack([b.T for b in m2_full.basis])
    # The doubled flip evaluated at the block swap matrix gives exactly 2.
    swap = sum(np.kron(np.eye(2)[:, [u]] @ np.eye(2)[[v], :],
                       np.eye(2)[:, [v]] @ np.eye(2)[[u], :])
               for u in range(2) for v in range(2))
    assert np.linalg.norm(swap, 2) == pytest.approx(1.0, abs=1e-12)
    bound = cb_lower_bound(images, m2_full, k=2)
    assert bound >= 2.0 - 1e-3


def test_cb_lower_bound_planted(span_i_e11):
    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in span_i_e11.basis])
    bound = cb_lower_bound(images, span_i_e11, k=2)
    assert bound >= 2.41


@pytest.mark.parametrize("k", [1, 2])
def test_cb_lower_bound_of_the_zero_map_is_zero(m2_full, k):
    # Every start scores 0 with a zero gradient, and the polish's polar point is X = 0,
    # which `_top_pair` scores (0.0, None).
    assert cb_lower_bound(np.zeros_like(m2_full.basis), m2_full, k=k) == 0.0
    assert _top_pair(np.zeros((k, k, m2_full.dim)), m2_full.basis, m2_full) == (0.0, None)


@pytest.mark.parametrize("k", [0, -1])
def test_cb_lower_bound_below_level_one_is_a_typed_error(m2_full, k):
    # Level 0 would be an empty ascent returning 0.0, a negative level numpy's
    # untyped "negative dimensions" ValueError.
    with pytest.raises(DimensionMismatch, match="level must be >= 1"):
        cb_lower_bound(m2_full.basis, m2_full, k=k)


@pytest.fixture(scope="module")
def cb_cases(m2_full, span_i_e11, worked_algebra, worked_sim_cone):
    """Named (images, domain, level, upper bound on the cb norm) cases of
    `cb_lower_bound`: the identity and the transpose on M_2 (cb norms 1 and
    2), the planted conjugation by WORKED_S^-1 (1 + sqrt(2)) and both
    directions of the worked reconstruction (bounded by its cb_upper)."""
    res = reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=2, levels=(1, 2))
    image, s_inv = res.star_rep.image_algebra, np.linalg.inv(WORKED_S)
    return {
        "identity": (m2_full.basis, m2_full, 2, 1.0),
        "transpose": (np.stack([b.T for b in m2_full.basis]), m2_full, 2, 2.0),
        "planted": (np.stack([s_inv @ b @ WORKED_S for b in span_i_e11.basis]), span_i_e11, 2,
                    ONE_PLUS_SQRT2),
        "worked-inverse": (res.certificate.frame.unstraighten(image.basis), image, 1,
                           res.cb_upper),
        "worked-forward": (res.star_rep.images, worked_algebra, 1, res.cb_upper),
    }


# The full search's values, pinned bit for bit, each within the case's upper bound.
@pytest.mark.parametrize("case, expected", [
    ("identity", "1.0000000000000002"), ("transpose", "2.0"), ("planted", "2.414213562373096"),
    ("worked-inverse", "2.414213562373094"), ("worked-forward", "1.0000000000000002"),
])
def test_cb_lower_bound_without_a_target_keeps_its_values(cb_cases, case, expected):
    images, domain, k, upper = cb_cases[case]
    value = cb_lower_bound(images, domain, k=k)
    assert repr(value) == expected
    assert value <= upper + 1e-6


def _counted(monkeypatch, owner, name):
    """Count the calls of owner.name from now on."""
    count, fn = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


def test_polish_rises_until_a_step_does_not(monkeypatch):
    rng = np.random.default_rng(1)
    algebra = random_star_closed_algebra(rng, nmax=4)
    s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=1.0)
    images = np.stack([np.linalg.inv(s) @ b @ s for b in algebra.basis])
    z = block_coords(algebra, random_element(algebra, rng, level=2))
    start, grad = _top_pair(z, images, algebra)
    scored, top_pair = [(start, grad)], similarity._top_pair
    monkeypatch.setattr(similarity, "_top_pair",
                        lambda *args: scored.append(top_pair(*args)) or scored[-1])
    full = similarity._polish(images, algebra, start, grad)
    # One `_top_pair` per step, each step but the last a rise.
    values = [value for value, _ in scored]
    assert full > start and 10 < len(scored) - 1 <= similarity.CB_ITERS
    assert all(b > a for a, b in zip(values[:-2], values[1:-1])) and full == max(values)
    # Polished again from where it ended, it adds at most one step and stays there.
    end = scored[values.index(full)]
    del scored[:]
    assert similarity._polish(images, algebra, *end) == full and len(scored) <= 1


@pytest.mark.parametrize("cb_level", [0, -1])
def test_reconstruct_rejects_a_cb_level_below_one(worked_algebra, worked_sim_cone, cb_level):
    with pytest.raises(DimensionMismatch, match="level must be >= 1"):
        reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=cb_level,
                               levels=(1,), samples=4)


def test_reconstruct_sandwich(worked_algebra, worked_sim_cone):
    res = reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=2,
                                 levels=(1, 2))
    assert res.cb_lower <= res.cb_upper + 1e-6
    assert res.cb_upper == pytest.approx(ONE_PLUS_SQRT2, abs=1e-3)
    assert res.cb_lower >= 2.41
    # The polar polish reaches the supremum 1 + sqrt(2) that cb_upper certifies.
    assert res.cb_upper - res.cb_lower <= 1e-9
    assert res.cb_upper <= level_one_inverse_bound(res) ** 2 * (1.0 + 1e-9)


@pytest.mark.parametrize("excess, ok", [(5e-7, True), (5e-6, False)])
def test_the_sandwich_allows_cb_lower_above_cb_upper_by_1e_6(excess, ok):
    res = ReconstructionResult(None, 0, None, cb_lower=2.0 + excess, cb_upper=2.0, cb_level=1)
    assert res.sandwich_ok is ok


def _recorded_cb_lower_bound(monkeypatch, weaken_level_one=False):
    """Wrap `similarity._frame_witness` and `similarity.cb_lower_bound` to record
    each call's (source, domain, k, value), source "witness" or "ascent";
    weaken_level_one scales the level-1 values (the witness's among them) by
    1 - 1e-3, which keeps them valid lower bounds but leaves the sandwich open."""
    calls, bound, witness = [], similarity.cb_lower_bound, similarity._frame_witness

    def weakened(value, k):
        return value * (1.0 - 1e-3) if weaken_level_one and k == 1 else value

    def recorded_witness(s, images, from_algebra):
        value = weakened(witness(s, images, from_algebra), 1)
        calls.append(("witness", from_algebra, 1, value))
        return value

    def recorded(images, from_algebra, k=None, seed=0):
        value = weakened(bound(images, from_algebra, k=k, seed=seed), k)
        calls.append(("ascent", from_algebra, k, value))
        return value

    monkeypatch.setattr(similarity, "_frame_witness", recorded_witness)
    monkeypatch.setattr(similarity, "cb_lower_bound", recorded)
    return calls


def _asked(calls, res):
    """The (source, level) of each recorded call, the source "witness" or an
    ascent's direction, after checking that the witness measured the inverse
    direction."""
    image = res.star_rep.image_algebra
    assert all(domain is image for source, domain, *_ in calls if source == "witness")
    return [(source if source == "witness" else "inverse" if domain is image else "forward", k)
            for source, domain, k, _ in calls]


def test_reconstruct_closes_the_worked_sandwich_at_level_one(monkeypatch, worked_algebra,
                                                             worked_sim_cone):
    calls = _recorded_cb_lower_bound(monkeypatch)
    res = reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=2,
                                 levels=(1, 2))
    # The certificate's own witness closes the sandwich, so no ascent is asked.
    assert _asked(calls, res) == [("witness", 1)]
    assert res.cb_level == 1
    assert res.cb_upper - res.cb_lower <= 1e-9


@pytest.mark.parametrize("cert_tol", [1.0, 2.0])
def test_reconstruct_asks_the_inverse_direction_even_with_nothing_to_close(
        monkeypatch, worked_algebra, worked_sim_cone, cert_tol):
    # With cert_tol >= 1 the sandwich counts as closed before any search, but
    # the report still carries the inverse direction's level-1 bound, the witness's.
    calls = _recorded_cb_lower_bound(monkeypatch)
    res = reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=2, levels=(1, 2),
                                 cert_tol=cert_tol)
    assert _asked(calls, res) == [("witness", 1)]
    assert res.cb_level == 1 and res.cb_lower == calls[0][3] > 1.0
    assert res.sandwich_ok


@pytest.mark.parametrize("algebra, cone, cb_level, escalated", [
    ("worked_algebra", "worked_sim_cone", 2, 2),
    ("m3_full", "std_m3", None, 3),
    ("worked_algebra", "worked_sim_cone", 1, None),
])
def test_reconstruct_escalates_only_while_the_sandwich_is_open(
        request, monkeypatch, algebra, cone, cb_level, escalated):
    calls = _recorded_cb_lower_bound(monkeypatch, weaken_level_one=True)
    res = reconstruct_similarity(request.getfixturevalue(algebra),
                                 request.getfixturevalue(cone), cb_level=cb_level,
                                 levels=(1, 2))
    level_one = max(v for _, _, k, v in calls if k == 1)
    assert res.cb_upper - level_one > 1e-7 * res.cb_upper
    asked = _asked(calls, res)
    if escalated is None:
        assert asked == [("witness", 1), ("inverse", 1), ("forward", 1)]
        assert res.cb_level == 1 and res.cb_lower == level_one
    else:
        # The witness, inverse and forward at level 1, then the escalated inverse
        # direction, and the escalated forward one only while the sandwich stays open.
        still_open = res.cb_upper - calls[3][3] > 1e-7 * res.cb_upper
        assert asked == ([("witness", 1), ("inverse", 1), ("forward", 1), ("inverse", escalated)]
                         + [("forward", escalated)] * still_open)
        assert res.cb_level == escalated
        assert res.cb_lower == max(v for _, _, k, v in calls if k == escalated) > level_one


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frame_witness_never_exceeds_the_certified_upper_bound(monkeypatch, seed):
    # The witness scores feasible points only, so on a complete Q-space it can
    # reach cb_upper = ||S|| ||S^-1|| but not pass it beyond rounding.
    calls = _recorded_cb_lower_bound(monkeypatch)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        algebra = random_star_closed_algebra(rng, nmax=4)
        s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=2.0)
        b = conjugate_algebra(algebra, np.linalg.inv(s))
        calls.clear()
        res = reconstruct_similarity(b, SimilarityCone(b, s), cb_level=2, levels=(1,),
                                     samples=4)
        assert calls[0][0] == "witness"
        assert calls[0][3] <= res.cb_upper * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polar_steps_stay_in_the_algebra_and_never_lower_the_value(seed):
    rng = np.random.default_rng(seed)
    algebra = random_star_closed_algebra(rng, nmax=4)
    s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=1.0)
    images = np.stack([np.linalg.inv(s) @ b @ s for b in algebra.basis])
    z = block_coords(algebra, random_element(algebra, rng, level=2))
    val, grad = _top_pair(z, images, algebra)
    for _ in range(20):
        x = _polar_point(grad, algebra)
        assert level_residual(algebra, x) <= algebra.structure_tol
        z = block_coords(algebra, x)
        new, grad = _top_pair(z, images, algebra)
        assert new >= val * (1.0 - 1e-13)
        val = new


def _perturbed(images, rng):
    return images * (1.0 + 4e-16 * rng.standard_normal(images.shape))


def test_cb_lower_bound_is_stable_under_last_bit_changes(m2_full, worked_algebra,
                                                         worked_sim_cone):
    res = reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=2,
                                 levels=(1, 2))
    s_inv = np.linalg.inv(res.certificate.s)
    inverse = np.stack([s_inv @ b @ res.certificate.s for b in res.star_rep.image_algebra.basis])
    cases = [(m2_full.basis, m2_full), (np.stack([b.T for b in m2_full.basis]), m2_full),
             (res.star_rep.images, worked_algebra), (inverse, res.star_rep.image_algebra)]
    rng = np.random.default_rng(5)
    for images, algebra in cases:
        value = cb_lower_bound(images, algebra, k=2)
        for _ in range(3):
            moved = cb_lower_bound(_perturbed(images, rng), algebra, k=2)
            assert abs(moved - value) <= 1e-10 * value


def test_pipeline_identity_for_star_closed(m2_full, std_m2):
    res = reconstruct_similarity(m2_full, std_m2, cb_level=2, levels=(1, 2))
    assert res.certificate.cond == pytest.approx(1.0, abs=1e-9)
    assert res.certificate.residual_star <= 1e-9
    assert res.cb_upper == pytest.approx(1.0, abs=1e-9)


def test_planted_recovery_small_batch():
    rng = np.random.default_rng(99)
    for _ in range(6):
        algebra = random_star_closed_algebra(rng, nmax=4)
        s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=1.5)
        planted_cond = np.linalg.cond(s.conj().T @ s)
        b = conjugate_algebra(algebra, np.linalg.inv(s))
        cone = SimilarityCone(b, s)
        res = reconstruct_similarity(b, cone, cb_level=2, levels=(1, 2))
        assert res.certificate.residual_star <= 1e-7
        assert res.certificate.cond <= planted_cond + 1e-6
        assert res.cb_upper <= level_one_inverse_bound(res) ** 2 * (1.0 + 1e-9)


def _replay_dual(space, exc):
    # The dual certificate of infeasibility, checked without the solver:
    # W >= 0, tr W = 1, and W orthogonal to every element of the space.
    w = exc.dual
    assert np.linalg.eigvalsh(0.5 * (w + w.conj().T))[0] >= -1e-12
    assert abs(np.trace(w).real - 1.0) <= 1e-9
    assert max(abs(np.trace(w @ q)) for q in space) <= 1e-8


def test_find_pd_indefinite_ray_dual_certificate():
    space = np.stack([np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)])
    with pytest.raises(NoPositiveSolution) as info:
        minimize_condition(space)
    _replay_dual(space, info.value)


def test_find_pd_indefinite_plane_dual_certificate():
    space = np.stack([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])]).astype(complex)
    with pytest.raises(NoPositiveSolution) as info:
        similarity._phase_one(space)
    _replay_dual(space, info.value)
    with pytest.raises(NoPositiveSolution) as info:
        minimize_condition(space)
    _replay_dual(space, info.value)


def test_budget_exhaustion_is_a_stall_not_a_verdict(monkeypatch, worked_algebra,
                                                    worked_sim_cone):
    import matorder.similarity as similarity
    from matorder.errors import NumericalStall

    monkeypatch.setattr(similarity, "NEWTON_BUDGET", 3)
    with pytest.raises(NumericalStall):
        minimize_condition(np.stack([np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)]))
    with pytest.raises(NumericalStall):
        minimize_condition(_worked_space(worked_algebra, worked_sim_cone))


_EYE2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("space,cost_scale,budget,cause", [
    (np.stack([_EYE2, _EYE2]), 1.0, None, "no step accepted by the line search"),
    (np.stack([_EYE2, np.diag([1.0, -1.0]).astype(complex)]), np.nan, None,
     "no step accepted by the line search"),
    (np.stack([_EYE2, 0 * _EYE2]), 1.0, None, "singular Newton system"),
    (np.stack([_EYE2, np.diag([1.0, -1.0]).astype(complex)]), 1.0, 3,
     "budget of 3 Newton steps spent"),
], ids=["dependent", "nan-cost", "zero-direction", "budget"])
def test_a_barrier_stall_names_its_cause(monkeypatch, space, cost_scale, budget, cause):
    # Phase one's barrier on I <= Q(c) + v I, Q(c) <= I: a dependent space or a NaN cost
    # leaves the line search no step, a zero direction leaves the Newton system
    # singular, and three Newton steps are too few for a sound space.
    if budget is not None:
        monkeypatch.setattr(similarity, "NEWTON_BUDGET", budget)
    k = len(space)
    with pytest.raises(NumericalStall, match=f"short of its gap tolerance: {cause} "):
        similarity._barrier(*similarity._box_blocks(space, (0.0, 1.0), (1.0, 0.0)),
                            -np.eye(k + 1)[k] * cost_scale, -np.eye(k + 1)[k])


@pytest.mark.parametrize("n,seed", [(4, 401), (4, 402), (5, 501), (5, 502)])
def test_minimize_condition_optimal_on_planted_commutative(n, seed):
    # Commutative algebra with n // 2 + 1 distinct eigenvalues, conjugated by
    # an S with cond(S) = 1e2: the planted S* S lies in the Q-space, and the
    # duality gap certifies that nothing in the space does better than
    # cond - gap.
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    evals = np.arange(n) % (n // 2 + 1)
    algebra = generate_algebra([u @ np.diag(evals).astype(complex) @ u.conj().T],
                               include_adjoints=True)
    s = random_unitary(rng, n) @ np.diag(np.geomspace(1.0, 1e-2, n)) @ random_unitary(rng, n)
    planted = np.linalg.cond(s.conj().T @ s)
    b = conjugate_algebra(algebra, np.linalg.inv(s))
    space = solve_Q(b, recover_involution(SimilarityCone(b, s), seed=seed))
    assert space.shape[0] >= 3
    cert = minimize_condition(space)
    assert cert.gap <= 1e-7 * cert.cond
    assert cert.cond <= planted * (1 + 1e-6)


def test_minimize_condition_two_parameter_scalar_search():
    # Q-space span{A, B} of two positive definite matrices: every element is
    # a multiple of A + t B or of B, so a bounded scalar search over t is an
    # independent oracle for the optimum.
    rng = np.random.default_rng(7)

    def pd(n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return g @ g.conj().T + 0.2 * np.eye(n)

    a, b = pd(3), pd(3)

    def cond_of(t):
        evals = np.linalg.eigvalsh(a + t * b)
        return evals[-1] / evals[0] if evals[0] > 0 else np.inf

    res = optimize.minimize_scalar(cond_of, bounds=(0.0, 100.0), method="bounded",
                                   options={"xatol": 1e-12})
    rows = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in (a, b)])
    basis = np.linalg.qr(rows.T)[0].T
    space = np.stack([(r[:9] + 1j * r[9:]).reshape(3, 3) for r in basis])
    cert = minimize_condition(space)
    assert cert.cond == pytest.approx(res.fun, rel=1e-8)
    assert cert.gap <= 1e-7 * cert.cond


DIAG_A = np.diag([1.0, 2.0, 3.0]).astype(complex)
DIAG_B = np.diag([3.0, 1.0, 2.0]).astype(complex)


@pytest.mark.parametrize("dependent, independent", [
    ([DIAG_A, DIAG_B, DIAG_A + DIAG_B], [DIAG_A, DIAG_B]),
    ([DIAG_A, DIAG_A], [DIAG_A]),
    ([DIAG_A, 0 * DIAG_A], [DIAG_A]),
])
def test_minimize_condition_reduces_a_dependent_basis(dependent, independent):
    want = minimize_condition(np.stack(independent))
    got = minimize_condition(np.stack(dependent))
    assert got.cond == pytest.approx(want.cond, rel=1e-9)
    assert got.gap is not None and 0.0 <= got.gap <= 1e-9 * (1.0 + got.cond)


@pytest.mark.parametrize("size", [2, 5, 8])
def test_similarity_certificate_root_is_exactly_hermitian(size):
    # The report writes S entry by entry: its diagonal must be real, not
    # +-1e-17 imaginary parts that move with the eigensolver's rounding.
    from matorder import _linalg as la
    from matorder.similarity import _certificate_from
    g = la.random_complex_many(np.random.default_rng(size), 1, (size, size))[0]
    q = g.conj().T @ g + np.eye(size)
    cert = _certificate_from(q)
    assert np.array_equal(cert.s, cert.s.conj().T)
    assert not np.diagonal(cert.s).imag.any()
    np.testing.assert_allclose(cert.s @ cert.s, cert.q, rtol=0, atol=1e-12 * np.abs(cert.q).max())


DIAGONAL_S = mat([[1, 0.5, 0], [0, 1, 0.3], [0, 0, 2]])


def _diagonal_cone():
    """The cone over S^-1 D_3 S, D_3 the diagonal algebra of M_3."""
    diagonal = generate_algebra([np.diag([1.0, 2.0, 3.0])])
    return SimilarityCone(conjugate_algebra(diagonal, np.linalg.inv(DIAGONAL_S)), DIAGONAL_S)


def _rotated_commutative_algebra():
    u = random_unitary(np.random.default_rng(34), 3)
    return generate_algebra([u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T], include_adjoints=True)


def test_reconstruct_rejects_an_algebra_outside_the_cones():
    # The cone's involution is defined on S^-1 D_3 S only: a rotated commutative
    # algebra is rejected by its first basis element outside, before a solve
    # on it could end in NoPositiveSolution.
    cone, algebra = _diagonal_cone(), _rotated_commutative_algebra()
    residuals = [membership_residual(cone.algebra, b) for b in algebra.basis]
    first = next(r for r in residuals if r > cone.algebra.structure_tol * 2.0)
    with pytest.raises(MembershipError) as err:
        reconstruct_similarity(algebra, cone)
    assert err.value.residual == pytest.approx(first, rel=1e-12)
    assert first > 0.1


def test_reconstruct_rejects_an_algebra_of_another_size(m2_full, std_m2):
    # diag(b, b) over M_2 is 4 x 4: it lies in M_2(M_2), not in M_2.
    doubled = generate_algebra([np.kron(np.eye(2), b) for b in m2_full.basis])
    with pytest.raises(DimensionMismatch, match="level-1 element must be 2x2, got"):
        reconstruct_similarity(doubled, std_m2)


def test_reconstruct_certifies_a_sharp_closed_subalgebra():
    # span{I, S^-1 E11 S} is a proper subalgebra of the cone's S^-1 M_3 S, closed
    # under its involution, and carried onto a *-algebra by S itself.
    s = np.diag([1.0, 2.0, 3.0]).astype(complex)
    full = generate_algebra([np.diag([1.0, 2.0, 3.0]), np.roll(np.eye(3), 1, axis=0)],
                            include_adjoints=True)
    cone = SimilarityCone(conjugate_algebra(full, np.linalg.inv(s)), s)
    e11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    sub = generate_algebra([np.linalg.inv(s) @ e11 @ s])
    assert sub.dim == 2 < cone.algebra.dim == 9
    res = reconstruct_similarity(sub, cone)
    assert res.cb_upper == pytest.approx(1.0, abs=1e-9)
    assert res.sandwich_ok


def test_reconstruct_certifies_a_subalgebra_that_is_not_sharp_closed():
    # span{I, E12} in the cone over S^-1 M_2 S, S = diag(1, 2): E12^sharp = E21 / 4 leaves
    # it, so its Q-space is that of M_2, {t S*S}, of dimension 1 where dim_C C' = 2.
    s = np.diag([1.0, 2.0]).astype(complex)
    full = generate_algebra([E12], include_adjoints=True)
    cone = SimilarityCone(conjugate_algebra(full, np.linalg.inv(s)), s)
    sub = OperatorAlgebra(np.stack([np.eye(2) / np.sqrt(2.0), E12]).astype(complex))
    inv = recover_involution(cone)
    closure = similarity._sharp_closure(sub, cone.algebra, inv)
    assert len(commutant(sub)[1]) == 2 and closure.dim == 4 and len(commutant(closure)[1]) == 1
    [q] = solve_Q(closure, inv)
    np.testing.assert_allclose(q / q[0, 0], s.conj().T @ s, atol=1e-12)
    res = reconstruct_similarity(sub, cone)
    assert res.q_space_dim == 1
    np.testing.assert_allclose(res.certificate.q, s.conj().T @ s, atol=1e-12)
    assert res.cb_upper == pytest.approx(2.0, rel=1e-12) and res.sandwich_ok


def test_principal_sqrt_rejects_a_matrix_that_is_not_positive_definite():
    with pytest.raises(np.linalg.LinAlgError, match=r"not positive definite \(lambda_min -1\)"):
        la.principal_sqrt(np.diag([4.0, -1.0]).astype(complex))
    np.testing.assert_allclose(la.principal_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))


# -- a complete Q-space: two generators, its dimension dim_C B' ----------------

def test_solve_Q_intertwines_two_generators(worked_algebra, worked_sim_cone, m3_full, std_m3):
    for algebra, cone in ((worked_algebra, worked_sim_cone), (m3_full, std_m3)):
        inv, asked = recover_involution(cone), []
        space = solve_Q(algebra, lambda b: asked.append(b) or inv(b))
        assert len(asked) == 2 and len(space) == len(commutant(algebra)[1])
        # Every basis element is intertwined, not only the pair.
        for q in space:
            for b in algebra.basis:
                assert la.frob(b.conj().T @ q - q @ inv(b)) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_q_space_dim_is_the_commutant_dimension_on_the_planted_corpus(seed):
    rng = np.random.default_rng(80 + seed)
    algebra = random_star_closed_algebra(rng, nmax=5)
    s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=2.0)
    b = conjugate_algebra(algebra, np.linalg.inv(s))
    res = reconstruct_similarity(b, SimilarityCone(b, s), cb_level=1, levels=(1,))
    assert res.q_space_dim == len(commutant(b)[1]) == len(commutant(algebra)[1])
    assert res.star_rep.image_algebra.dim == b.dim
    assert res.certificate.cond <= np.linalg.cond(s.conj().T @ s) * (1.0 + 1e-6)


def test_reconstruct_hands_over_the_minimized_certificate_as_it_is(worked_algebra,
                                                                  worked_sim_cone, monkeypatch):
    # q is normalised once, by `minimize_condition`; the array form still normalises.
    made = []
    certificate_from = similarity._certificate_from
    monkeypatch.setattr(similarity, "_certificate_from",
                        lambda *args: made.append(certificate_from(*args)) or made[-1])
    res = reconstruct_similarity(worked_algebra, worked_sim_cone, cb_level=1, levels=(1,))
    [cert] = made
    assert res.certificate.q is cert.q and res.certificate.gap == cert.gap
    star = build_star_rep(worked_algebra, worked_sim_cone, 3.0 * cert.q,
                          recover_involution(worked_sim_cone), levels=(1,))
    assert np.linalg.eigvalsh(star.certificate.q)[0] == pytest.approx(1.0, rel=1e-12)


def test_similarity_recovery_seed_11_r1_t2_reaches_the_exact_cb_norm(tmp_path, monkeypatch):
    # l-infinity_2 = span{I, P} in M_2 at cond(S) = 10^2.6: a complete Q-space gives
    # sqrt(min cond(Q)) = ||2P - I||, 322.55397102, where a short one gave 337.18.
    got, reconstruct = [], similarity.reconstruct_similarity
    monkeypatch.setattr(similarity, "reconstruct_similarity",
                        lambda b, cone, **kw: got.append((b, reconstruct(b, cone, **kw)))
                        or got[-1][1])
    task = load_workloads(monkeypatch).build("similarity-recovery", 11, 40, str(tmp_path))[1][2]
    assert task.task_id == "r1.t2" and task.params["dim"] == 2
    task.run()
    [(b, res)] = got
    x = b.basis[np.argmin(np.abs(b.unit_coords))]
    low, high = np.linalg.eigvals(x)
    exact = la.opnorm(2.0 * (x - high * np.eye(2)) / (low - high) - np.eye(2))
    cert = res.certificate
    assert res.q_space_dim == 2
    # cond - gap <= min cond(Q) = ||2P - I||^2 <= cond.
    assert cert.cond - cert.gap <= exact ** 2 <= cert.cond * (1.0 + 1e-12)
    within = res.cb_upper - np.sqrt(cert.cond - cert.gap)
    assert abs(res.cb_upper - 322.55397102) <= within


# -- an image of a closed algebra is its span: no second closure ----------------

def _recorded_closures(monkeypatch):
    """The arguments of every `generate_algebra` call, through any matorder module's name."""
    calls, generate = [], generate_algebra
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matorder" and hasattr(module, "generate_algebra"):
            monkeypatch.setattr(module, "generate_algebra",
                                lambda *args, **kw: calls.append(args) or generate(*args, **kw))
    return calls


def test_no_algebra_closed_by_construction_is_closed_again(
        monkeypatch, worked_algebra, worked_sim_cone, planted_sim_cone, m2_full, m3_full,
        span_i_e11):
    rng = np.random.default_rng(8)
    m8 = generate_algebra([la.random_complex_many(rng, 1, (8, 8))[0]], include_adjoints=True)
    s = random_similarity(rng, 8, max_log10_cond=1.0)
    b8 = conjugate_algebra(m8, np.linalg.inv(s))
    cases = [(worked_algebra, worked_sim_cone), (planted_sim_cone.algebra, planted_sim_cone),
             (m2_full, StandardCone(m2_full)), (m3_full, StandardCone(m3_full)),
             (b8, SimilarityCone(b8, s))]
    calls = _recorded_closures(monkeypatch)
    for b, cone in cases:
        res = reconstruct_similarity(b, cone, cb_level=1, levels=(1,))
        assert res.star_rep.image_algebra.dim == b.dim and res.sandwich_ok
    report = case_studies.kadison_pipeline(span_i_e11, WORKED_S, samples=4)
    assert report.passed and report.reconstruction.star_rep.image_algebra.dim == 2
    assert calls == []
    # span{I, E12} is not sharp-closed in the cone over S^-1 M_2 S, S = diag(1, 2): it and
    # its sharp-images generate M_2, which `_sharp_closure` closes, once.
    s = np.diag([1.0, 2.0]).astype(complex)
    cone = SimilarityCone(conjugate_algebra(m2_full, np.linalg.inv(s)), s)
    sub = OperatorAlgebra(np.stack([np.eye(2) / np.sqrt(2.0), E12]).astype(complex))
    reconstruct_similarity(sub, cone, cb_level=1, levels=(1,))
    assert len(calls) == 1 and len(calls[0][0]) == 2 * sub.dim


@pytest.mark.parametrize("seed, task_id, dim", [(12, "r3.t14", 14), (11, "r0.t11", 13)])
def test_similarity_recovery_image_algebra_keeps_the_algebras_dimension(
        tmp_path, monkeypatch, seed, task_id, dim):
    # Block algebras at cond(S) = 10^3.98: closing the images again took in directions made
    # of rounding (dim 14 -> 36 and 13 -> 25), and on 12.r3.t14 cb_lower then passed cb_upper.
    got, reconstruct = [], similarity.reconstruct_similarity
    monkeypatch.setattr(similarity, "reconstruct_similarity",
                        lambda b, cone, **kw: got.append((b, reconstruct(b, cone, **kw)))
                        or got[-1][1])
    rounds = load_workloads(monkeypatch).build("similarity-recovery", seed, 40, str(tmp_path))
    r, t = (int(part[1:]) for part in task_id.split("."))
    task = rounds[r][t]
    assert task.task_id == task_id and task.params["dim"] == dim
    out = task.run()
    [(b, res)] = got
    assert b.dim == res.star_rep.image_algebra.dim == dim
    assert res.sandwich_ok and task.check(out) == "ok"


# -- the cb lower bound takes no target --------------------------------------------

@pytest.mark.parametrize("seed, task_id, floor", [(13, "r2.t7", 1.00347503),
                                                  (11, "r2.t7", 1.15923005)])
def test_similarity_recovery_witness_polishes_until_it_stops_rising(
        tmp_path, monkeypatch, seed, task_id, floor):
    # The witness polishes until a step stops rising: a polish that stopped once
    # cb_upper (1 - cert_tol) looked out of reach ended at 1.0034745732 and 1.1592298368.
    rounds = load_workloads(monkeypatch).build("similarity-recovery", seed, 40, str(tmp_path))
    r, t = (int(part[1:]) for part in task_id.split("."))
    task = rounds[r][t]
    assert task.task_id == task_id
    out = task.run()
    assert floor <= out[4] <= out[5] and task.check(out) == "ok"


def _planted_conjugations(count=12):
    """`count` planted conjugations S⁻¹ B S, N ≤ 5 and cond(S) ≤ 10^3.5, drawn in turn
    from one seeded generator: (algebra, images)."""
    rng, cases = np.random.default_rng(40), []
    for _ in range(count):
        algebra = random_star_closed_algebra(rng, nmax=5)
        s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=3.5)
        cases.append((algebra, np.stack([np.linalg.inv(s) @ b @ s for b in algebra.basis])))
    return cases


@pytest.mark.parametrize("case", range(12))
def test_cb_lower_bound_takes_the_same_steps_at_every_power_of_two_scale(monkeypatch, case):
    # Scaling the images by 2^±12 is exact in floating point and scales every value the
    # ascent compares by the same power; its margins are relative, so no decision moves.
    algebra, images = _planted_conjugations()[case]
    count = _counted(monkeypatch, similarity, "_top_pair")
    runs = set()
    for e in (-12, 0, 12):
        count[0] = 0
        runs.add((cb_lower_bound(images * 2.0 ** e, algebra, k=1) / 2.0 ** e, count[0]))
    assert len(runs) == 1, runs


# -- the cb lower bound has one ascent: the polar polish from every start ----------

def _cb_sweep(count=16, seed=42):
    """`count` maps drawn from `default_rng(seed)`, in turn a planted conjugation S⁻¹ A S on a
    star-closed A, the forward map S b S⁻¹ on B = S⁻¹ A S, the transpose on A, and a random
    linear map on B (N ≤ 4, cond(S) ≤ 10^1.5; B not star-closed): (domain, images, level,
    upper bound on the cb norm or None), the level 1 and 2 in turn every four maps."""
    rng, cases = np.random.default_rng(seed), []
    for i in range(count):
        kind, k = i % 4, 1 + (i // 4) % 2
        while True:
            a = random_star_closed_algebra(rng, nmax=4)
            s = random_similarity(rng, a.ambient_dim, max_log10_cond=1.5)
            s_inv = np.linalg.inv(s)
            b = conjugate_algebra(a, s_inv)
            if kind in (0, 2) or not b.star_closed:
                break
        cond = la.opnorm(s) * la.opnorm(s_inv)
        cases.append([(a, np.stack([s_inv @ x @ s for x in a.basis]), k, cond),
                      (b, np.stack([s @ x @ s_inv for x in b.basis]), k, cond),
                      (a, np.stack([x.T for x in a.basis]), k, float(a.ambient_dim)),
                      (b, la.random_complex_many(rng, 1, b.basis.shape)[0], k, None)][kind])
    return cases


def test_cb_lower_bound_against_the_two_stage_ascent():
    # On a star-closed domain a polar step stays in M_k(A) and cannot lower the value; here
    # the polish from every start ends at the two-stage ascent's value or above it. Off one,
    # the projected polar step is a heuristic that can stop where the Frobenius-ball ascent
    # still rose: here a random map at level 1 and a forward map at level 2 end 1.5e-3 and
    # 3.6e-4 relative below it (ROADMAP item 2 has a wider sweep).
    below = []
    for i, (domain, images, k, upper) in enumerate(_cb_sweep()):
        value = cb_lower_bound(images, domain, k=k)
        reference = cb_lower_bound_two_stage(images, domain, k=k)
        if value < reference * (1.0 - 4 * np.finfo(float).eps):
            below.append(i)
            assert not domain.star_closed and value >= reference * (1.0 - 2e-3)
        assert upper is None or value <= upper + 1e-6
    assert below == [3, 13]


def test_similarity_recovery_seed_11_r2_t7_closes_at_level_one(tmp_path, monkeypatch):
    # A commutative algebra (dim 3) with N = 4 that the frame witness leaves open: the two-stage
    # ascent ended at 1.1592300546 and escalated to level 2, still open by 6.19e-7 relative.
    got, reconstruct = [], similarity.reconstruct_similarity
    monkeypatch.setattr(similarity, "reconstruct_similarity",
                        lambda b, cone, **kw: got.append(reconstruct(b, cone, **kw)) or got[-1])
    task = load_workloads(monkeypatch).build("similarity-recovery", 11, 40, str(tmp_path))[2][7]
    assert task.task_id == "r2.t7"
    assert task.check(task.run()) == "ok"
    [res] = got
    assert res.cb_level == 1 and 1.15923070 <= res.cb_lower <= res.cb_upper
    assert res.cb_upper - res.cb_lower <= 1e-7 * res.cb_upper
