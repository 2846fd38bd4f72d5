"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, not configurable.
"""

import numpy as np
import pytest

from conftest import (
    E11,
    WORKED_B,
    WORKED_S,
    random_similarity,
    random_star_closed_algebra,
)
from doubles import AllHermitianCone, ZeroedCornerCone, instance_oracle
from matorder.algebra import (
    conjugate_algebra,
    doubling_embed,
    generate_algebra,
    random_element,
)
from matorder.case_studies import (
    C1Sample,
    c1_condition1_decay,
    c1_embed,
    c1_inequality_check,
    c1_norm,
    j_symmetrize,
    jsym_norm_identity,
)
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    audit_matrix_ordered,
    audit_star_admissible,
    compress,
    estimate_main_constants,
    replay_witness,
)
from matorder.cones import _inf_shifts
from matorder.involution import recover_involution, verify_matrix_involution
from matorder.order_norms import (DEFAULT_BISECT_TOL, _norm_searches, order_unit_seminorm,
                                  pre_cstar_norm)
from matorder.similarity import (
    build_star_rep,
    cb_lower_bound,
    minimize_condition,
    solve_Q,
)


def _report(num, text, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_order_norm_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst_semi, worst_pre = 0.0, 0.0
    for _ in range(20):
        algebra = random_star_closed_algebra(rng, n=6)
        cone = StandardCone(algebra)
        for _ in range(10):
            a = cone.sample_span(1, rng)
            semi = order_unit_seminorm(cone, 1, a).value
            spectral = float(np.max(np.abs(np.linalg.eigvalsh(a))))
            worst_semi = max(worst_semi, abs(semi - spectral))

            x = random_element(algebra, rng)
            pre = pre_cstar_norm(cone, None, 1, x).value
            top_sv = float(np.linalg.norm(x, 2))
            worst_pre = max(worst_pre, abs(pre - top_sv))
    ok = worst_semi <= 1e-7 and worst_pre <= 1e-7
    _report(1, f"order-norm oracle equivalence over 200 elements of 20 "
               f"subalgebras of M_6 (seminorm err {worst_semi:.2e}, "
               f"pre-C* err {worst_pre:.2e}, tol 1e-7)", ok)


def test_criterion_2_norm_formula_agreement():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(40):
        algebra = random_star_closed_algebra(rng, n=4 + trial % 3)
        cone = StandardCone(algebra)
        x = random_element(algebra, rng)
        x = x / np.linalg.norm(x)
        z = x.conj().T @ x

        via_sqrt = np.sqrt(_norm_searches(cone, 1, z, DEFAULT_BISECT_TOL,
                                          ((False, True),))[0].value)

        # Independent route: bisect r directly on r^2 e +- z membership.
        e = np.eye(algebra.ambient_dim, dtype=complex)

        def pred(r):
            return cone.member(1, r * r * e + z) and cone.member(1, r * r * e - z)

        lo, hi = 0.0, np.sqrt(2.0 * np.linalg.norm(z, 2) + 1.0)
        if pred(0.0):
            lo = hi = 0.0
        while hi - lo > 1e-10 * (1.0 + 0.5 * (lo + hi)):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                hi = mid
            else:
                lo = mid
        direct = 0.5 * (lo + hi)
        worst = max(worst, abs(via_sqrt - direct))
    ok = worst <= 2e-10
    _report(2, f"sqrt-of-seminorm vs direct bisection agree "
               f"(max gap {worst:.2e}, tol 2e-10)", ok)


def test_criterion_3_entrywise_involution(std_m2, planted_sim_cone):
    worst = 0.0
    for cone in (std_m2, planted_sim_cone):  # asked opaquely, so the certificate samples
        for n in (2, 4):
            cmp_rep = verify_matrix_involution(instance_oracle(cone), n, samples=10, seed=103,
                                               involution1=recover_involution(cone, seed=103))
            worst = max(worst, cmp_rep.max_residual)
    ok = worst <= 1e-8
    _report(3, f"level-n involution equals entrywise transpose at n=2,4 "
               f"(max residual {worst:.2e}, tol 1e-8)", ok)


def test_criterion_4_planted_similarity_recovery():
    rng = np.random.default_rng(104)
    worst_resid, worst_excess = 0.0, -np.inf
    for _ in range(50):
        algebra = random_star_closed_algebra(rng, nmax=6)
        s = random_similarity(rng, algebra.ambient_dim, max_log10_cond=2.0)
        planted_cond = float(np.linalg.cond(s.conj().T @ s))
        assert planted_cond <= 1e4 * (1 + 1e-9)
        b = conjugate_algebra(algebra, np.linalg.inv(s))
        cone = SimilarityCone(b, s)

        involution = recover_involution(cone, seed=104)
        space = solve_Q(b, involution)
        cert = minimize_condition(space)
        star = build_star_rep(b, cone, cert.q, involution=involution,
                              levels=(1, 2), samples=6, seed=104)
        worst_resid = max(worst_resid, star.certificate.residual_star)
        worst_excess = max(worst_excess, star.certificate.cond - planted_cond)
    ok = worst_resid <= 1e-7 and worst_excess <= 1e-6
    _report(4, f"50 planted similarities recovered (max residual_star "
               f"{worst_resid:.2e} <= 1e-7, max cond excess {worst_excess:.2e} "
               f"<= 1e-6)", ok)


def test_criterion_5_haagerup_sandwich(worked_algebra, worked_sim_cone,
                                       span_i_e11):
    target = 1.0 + np.sqrt(2.0)
    involution = recover_involution(worked_sim_cone, seed=105)
    space = solve_Q(worked_algebra, involution)
    cert = minimize_condition(space)
    got = float(np.sqrt(cert.cond))

    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in span_i_e11.basis])
    lower = cb_lower_bound(images, span_i_e11, k=2, seed=105)

    ok = abs(got - target) <= 1e-3 and lower >= 2.41
    _report(5, f"worked instance: ||S|| ||S^-1|| = {got:.6f} "
               f"(target {target:.6f} +- 1e-3), cb lower bound at level 2 = "
               f"{lower:.4f} >= 2.41", ok)


def test_criterion_6_standard_cone_constants(std_m2, std_m3):
    rng = np.random.default_rng(106)
    k_est = 0.0
    for _ in range(500):
        a = std_m3.sample_span(1, rng)
        b = std_m3.sample_span(1, rng)
        denom = np.linalg.norm(a + 1j * b, 2)
        if denom > 1e-12:
            k_est = max(k_est, np.linalg.norm(a, 2) / denom)

    _, alpha = estimate_main_constants(std_m3, levels=(1, 2), samples=250,
                                       seed=106)
    report = audit_star_admissible(std_m2, levels=(1,), samples=60, seed=106)
    r4 = report.constants["r4"].value
    witness = np.diag([1.0, -1.0]).astype(complex)
    [r_at_witness] = _inf_shifts(std_m2, 1, [witness], [np.linalg.norm(witness, 2)],
                                 1e-9)
    ok = (k_est <= 1.0 + 1e-6
          and abs(alpha.value - 1.0) <= 1e-6
          and abs(r4 - 1.0) <= 1e-6
          and abs(r_at_witness - 1.0) <= 1e-6)
    _report(6, f"standard-cone constants: K = {k_est:.9f} <= 1+1e-6, "
               f"alpha = {alpha.value:.9f}, r4 = {r4:.9f}, "
               f"shift at diag(1,-1) = {r_at_witness:.9f}", ok)


def test_criterion_7_compression_suite(std_m2):
    rng = np.random.default_rng(107)
    violations = 0
    worst_comm = 0.0
    for (n, m) in ((0, 1), (1, 2)):
        level = 2 ** m
        for _ in range(100):
            c = std_m2.sample(level, rng)
            out = compress(c, n, m)
            if np.linalg.norm(out, 2) > np.linalg.norm(c, 2) + 1e-10:
                violations += 1
            if not std_m2.member(level, out):
                violations += 1
            lhs = compress(doubling_embed(c), n, m + 1)
            rhs = doubling_embed(compress(c, n, m))
            worst_comm = max(worst_comm, float(np.max(np.abs(lhs - rhs))))
    ok = violations == 0 and worst_comm <= 1e-10
    _report(7, f"compression: contraction + cone stability, 0 violations "
               f"over 200 samples; doubling commutation defect "
               f"{worst_comm:.2e} <= 1e-10", ok)


def test_criterion_8_j_symmetric_suite(m2_full):
    s_inv = np.linalg.inv(WORKED_S)
    images = np.stack([s_inv @ b @ WORKED_S for b in m2_full.basis])
    rep = j_symmetrize(m2_full, images)
    identity = jsym_norm_identity(rep.rho_images, m2_full, levels=(1, 2, 4),
                                  samples=50, seed=108)
    ok = rep.symmetry_residual <= 1e-10 and identity.max_deviation <= 1e-9
    _report(8, f"J-symmetric suite: doubling residual "
               f"{rep.symmetry_residual:.2e} <= 1e-10; norm identity "
               f"deviation {identity.max_deviation:.2e} <= 1e-9 at levels "
               f"1,2,4 x 50 samples", ok)


def test_criterion_9_function_embedding():
    rng = np.random.default_rng(109)
    grid = np.linspace(0.0, 1.0, 16)
    worst = 0.0
    for _ in range(100):
        f = C1Sample(grid,
                     rng.standard_normal(16) + 1j * rng.standard_normal(16),
                     rng.standard_normal(16) + 1j * rng.standard_normal(16))
        worst = max(worst, abs(c1_norm(f) - np.linalg.norm(c1_embed(f), 2)))
    golden = c1_norm(C1Sample(np.array([1.0]), np.array([1.0 + 0j]),
                              np.array([1.0 + 0j])))
    golden_ok = abs(golden - (1.0 + np.sqrt(5.0)) / 2.0) <= 1e-10

    ineq = c1_inequality_check(samples=500, seed=109)

    decay_ok = True
    fine = np.linspace(0.0, 1.0, 256)
    for k in (4, 8, 16, 32):
        if c1_condition1_decay(k, fine) > 1.0 / k:
            decay_ok = False
    ok = worst <= 1e-10 and golden_ok and ineq.violations == 0 and decay_ok
    _report(9, f"function embedding: closed form vs operator norm "
               f"(err {worst:.2e} <= 1e-10), golden ratio {golden:.10f}, "
               f"{ineq.violations} inequality violations in 500, decay <= 1/k",
            ok)


def test_criterion_10_audit_soundness(m2_full):
    all_herm = AllHermitianCone(m2_full)
    zeroed = ZeroedCornerCone(m2_full)

    herm_report = audit_star_admissible(all_herm, levels=(1,), samples=10,
                                        seed=110)
    herm_failed = {c.axiom for c in herm_report.failures()}
    herm_hits_pointedness = "pointedness-level-1" in herm_failed

    zero_report = audit_matrix_ordered(zeroed, levels=(1, 2), samples=10,
                                       seed=110)
    zero_failed = {c.axiom for c in zero_report.failures()}
    zero_hits_conjugation = bool(zero_failed & {
        "scalar-rectangular-conjugation", "algebra-rectangular-conjugation"})

    replayed = 0
    reproduced = 0
    for cone, report in ((all_herm, herm_report), (zeroed, zero_report)):
        for check in report.failures():
            if check.witness is not None:
                replayed += 1
                if replay_witness(cone, check.witness):
                    reproduced += 1
    ok = (herm_hits_pointedness and zero_hits_conjugation
          and replayed > 0 and reproduced == replayed)
    _report(10, f"audit soundness: all-Hermitian mutant fails pointedness, "
                f"zeroed-corner mutant fails conjugation; {reproduced}/"
                f"{replayed} failure witnesses replay", ok)
