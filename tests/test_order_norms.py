import numpy as np
import pytest

from conftest import E12, WORKED_B
from doubles import AllHermitianCone, GappedCone, ZeroCone
from matorder.algebra import random_element
from matorder.cones import check_order_unit_archimedean
from matorder.errors import CertificationFailed, NotSelfAdjoint, UnboundedAbove
from matorder.order_norms import (
    null_space,
    order_unit_seminorm,
    pre_cstar_norm,
)


def test_seminorm_matches_spectrum(std_m2):
    rep = order_unit_seminorm(std_m2, 1, np.diag([3.0, -1.0]).astype(complex))
    assert rep.value == pytest.approx(3.0, abs=1e-7)
    lo, hi = rep.bracket
    assert lo <= rep.value <= hi
    assert hi - lo <= 1e-10 * (1.0 + rep.value)
    assert rep.oracle_calls >= rep.iterations


def test_seminorm_zero(std_m2):
    rep = order_unit_seminorm(std_m2, 1, np.zeros((2, 2), dtype=complex))
    assert rep.value == 0.0
    assert rep.iterations == 0


def test_seminorm_worked_similarity(worked_sim_cone):
    # b conjugates to E_11 whose spectrum is {0, 1}.
    rep = order_unit_seminorm(worked_sim_cone, 1, WORKED_B)
    assert rep.value == pytest.approx(1.0, abs=1e-7)


def test_seminorm_rejects_non_self_adjoint(std_m2):
    with pytest.raises(NotSelfAdjoint):
        order_unit_seminorm(std_m2, 1, E12)


def test_seminorm_unbounded_for_zero_cone(m2_full):
    cone = ZeroCone(m2_full)
    with pytest.raises(UnboundedAbove):
        order_unit_seminorm(cone, 1, np.diag([1.0, 2.0]).astype(complex))


def test_pre_cstar_norm_examples(std_m2):
    assert pre_cstar_norm(std_m2, None, 1, E12).value == pytest.approx(1.0, abs=1e-7)
    assert pre_cstar_norm(std_m2, None, 1,
                          np.diag([3.0, -1.0]).astype(complex)).value == \
        pytest.approx(3.0, abs=1e-7)
    assert pre_cstar_norm(std_m2, None, 1, np.zeros((2, 2), dtype=complex)).value == 0.0


def test_pre_cstar_matches_singular_value(std_m2, m2_full):
    rng = np.random.default_rng(0)
    for _ in range(15):
        x = random_element(m2_full, rng)
        rep = pre_cstar_norm(std_m2, None, 1, x)
        assert rep.value == pytest.approx(np.linalg.norm(x, 2), abs=1e-7)


def test_formula_agreement_is_tight(std_m2, m2_full):
    # The sqrt-of-seminorm and direct bisections bracket the same crossing.
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = random_element(m2_full, rng)
        x = x / np.linalg.norm(x)
        rep = pre_cstar_norm(std_m2, None, 1, x)
        direct = np.linalg.norm(x, 2)
        assert rep.value == pytest.approx(direct, abs=1e-7)


def test_seminorm_axioms_on_samples(std_m3):
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = std_m3.sample_span_many(1, 1, rng)[0]
        b = std_m3.sample_span_many(1, 1, rng)[0]
        na = order_unit_seminorm(std_m3, 1, a).value
        nb = order_unit_seminorm(std_m3, 1, b).value
        nab = order_unit_seminorm(std_m3, 1, a + b).value
        assert nab <= na + nb + 1e-8
        lam = rng.uniform(-2.0, 2.0)
        nla = order_unit_seminorm(std_m3, 1, lam * a).value
        assert nla == pytest.approx(abs(lam) * na, abs=1e-7)


def test_cstar_identity_and_monotonicity(std_m2, m2_full):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_element(m2_full, rng)
        z = x.conj().T @ x
        # |x^sharp x| = |x|^2
        assert pre_cstar_norm(std_m2, None, 1, z).value == pytest.approx(
            pre_cstar_norm(std_m2, None, 1, x).value ** 2, rel=1e-6, abs=1e-7)
        # ||a|| <= |a| for self-adjoint a
        a = 0.5 * (x + x.conj().T)
        assert order_unit_seminorm(std_m2, 1, a).value <= \
            pre_cstar_norm(std_m2, None, 1, a).value + 1e-7


def test_pre_cstar_accepts_recovered_involution(worked_sim_cone):
    from matorder.involution import recover_involution

    inv = recover_involution(worked_sim_cone)
    for n in (1, 2):
        e = np.eye(2 * n, dtype=complex)
        rep = pre_cstar_norm(worked_sim_cone, inv, n, e)
        assert rep.value == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("fixture", ["std_m2", "worked_sim_cone"])
def test_null_space_trivial(fixture, request):
    cone = request.getfixturevalue(fixture)
    basis = null_space(cone, 1)
    assert basis.shape[0] == 0


def test_null_space_degenerate_cone(m2_full):
    cone = AllHermitianCone(m2_full)
    basis = null_space(cone, 1)
    assert basis.shape[0] == m2_full.dim


@pytest.mark.parametrize("fixture", ["std_m2", "std_m3", "worked_sim_cone"])
def test_order_unit_archimedean_verdicts(fixture, request):
    cone = request.getfixturevalue(fixture)
    report = check_order_unit_archimedean(cone, 1, samples=8, seed=4)
    assert report.passed, [c for c in report.checks if c.verdict != "pass"]


def test_boundary_witness_accepted(std_m2):
    # 1*e + diag(1,-1) = diag(2,0) sits on the cone boundary.
    a = np.diag([1.0, -1.0]).astype(complex)
    r = order_unit_seminorm(std_m2, 1, a).value
    assert r == pytest.approx(1.0, abs=1e-7)
    assert std_m2.member_many(1, [r * np.eye(2) + a])[0]


def test_pre_cstar_norm_formulas_that_disagree_raise(m2_full):
    # x = I, so x^sharp x = I: the search in r bisects onto t e - I inside for
    # t >= 2.5 (sqrt 1.58...), the search in r^2 onto t in [1.6, 1.8] (r 1.26...).
    with pytest.raises(CertificationFailed,
                       match=r"formulas disagree: sqrt path 1\.58\d*, direct path 1\.26"):
        pre_cstar_norm(GappedCone(m2_full), None, 1, np.eye(2, dtype=complex))
