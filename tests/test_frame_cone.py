"""The one PSD-frame cone class: the identity frame, the per-level span
store, level-1 structure built on first use, and typed errors for cones
without matrix levels and for invalid tolerances or similarities."""

import sys

import numpy as np
import pytest

from conftest import WORKED_S
from doubles import AllHermitianCone
from matorder import _linalg as la
from matorder import algebra, cones
from matorder.algebra import conjugate_algebra, random_element
from matorder.case_studies import FunctionPullbackCone
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
    estimate_main_constants,
)
from matorder.errors import DimensionMismatch, LevelUnsupported, MatOrderError
from matorder.involution import real_cone_span
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from matorder.serialization import cone_from_obj, cone_to_obj

LEVELS = (1, 2, 4)


def _fresh_cone(variant, m2_full):
    if variant == "standard":
        return StandardCone(m2_full)
    return SimilarityCone(conjugate_algebra(m2_full, np.linalg.inv(WORKED_S)), WORKED_S)


@pytest.mark.parametrize("variant", ["standard", "similarity"])
def test_span_basis_built_once_per_level(monkeypatch, m2_full, variant):
    cone = _fresh_cone(variant, m2_full)
    built = []
    inner = cones.hermitian_part_basis

    def counting(algebra):
        built.append(algebra.ambient_dim // m2_full.ambient_dim)
        return inner(algebra)

    monkeypatch.setattr(cones, "hermitian_part_basis", counting)
    for n in LEVELS:
        audit_algebraically_admissible(cone, n, samples=4)
    audit_matrix_ordered(cone, LEVELS, samples=4)
    audit_star_admissible(cone, LEVELS, samples=4)
    for n in LEVELS:
        real_cone_span(cone, n)
    # Only level 1 is computed; every higher level is its Kronecker lift.
    assert built == [1]


@pytest.mark.parametrize("variant", ["standard", "similarity"])
def test_stored_span_basis_is_read_only(m2_full, variant):
    cone = _fresh_cone(variant, m2_full)
    span = cone.span_basis(2)
    assert span.shape == (16, 4, 4)
    assert cone.span_basis(2) is span
    with pytest.raises(ValueError):
        span[0, 0, 0] = 1.0


def test_standard_cone_is_the_identity_frame(m2_full):
    cone = StandardCone(m2_full)
    assert cone.s is None and cone.straight_algebra is m2_full
    x = np.arange(16, dtype=complex).reshape(4, 4)
    assert cone.straighten(2, x) is x
    assert cone.unstraighten(2, x) is x
    assert "similarity_cond" not in cone.describe()


def test_similarity_cond_is_computed_once_from_the_frame(monkeypatch, m2_full):
    cone = _fresh_cone("similarity", m2_full)
    want = float(np.linalg.cond(WORKED_S))
    calls = []
    for name in ("cond", "svd"):
        _count_calls(monkeypatch, np.linalg, name, lambda *args, name=name: calls.append(name))
    assert cone.describe()["similarity_cond"] == want and calls == ["cond"]
    # The frame keeps the value: a second describe() takes no cond and no SVD.
    assert cone.describe()["similarity_cond"] == want and calls == ["cond"]


def test_identity_frame_round_trips_as_the_standard_variant(m2_full):
    cone = SimilarityCone(m2_full, None)
    assert cone.variant == "standard" and cone.describe()["variant"] == "standard"
    obj = cone_to_obj(cone)
    assert obj["variant"] == "standard" and "S" not in obj
    back = cone_from_obj(obj)
    assert isinstance(back, StandardCone) and cone_to_obj(back) == obj
    assert cone_to_obj(SimilarityCone(m2_full, np.eye(2)))["variant"] == "similarity"


def test_identity_frame_involution_is_the_ambient_adjoint(m2_full):
    # A subclass that overrides straighten keeps x^sharp = x*.
    rng = np.random.default_rng(3)
    cone = AllHermitianCone(m2_full)
    x = la.random_complex(rng, (4, 4))
    np.testing.assert_array_equal(cone.sharp(2, x), la.dagger(x))
    np.testing.assert_array_equal(cone.sharp_block(2, 1, x[:, :2]), la.dagger(x[:, :2]))


@pytest.mark.parametrize("audit", [audit_algebraically_admissible, audit_matrix_ordered,
                                   audit_star_admissible])
def test_audits_on_a_pullback_cone_raise_level_unsupported(audit):
    with pytest.raises(LevelUnsupported):
        audit(FunctionPullbackCone(np.linspace(0.0, 1.0, 8)))


def _count_calls(monkeypatch, owner, name, record):
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        record(*args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_order_norms_build_no_straightened_algebra(monkeypatch, m2_full):
    b = conjugate_algebra(m2_full, np.linalg.inv(WORKED_S))
    rng = np.random.default_rng(5)
    big_s = np.kron(np.eye(2), WORKED_S)
    a, x = (random_element(m2_full, rng, level=2) for _ in range(2))
    # Self-adjoint a and any x in the cone's frame: (I_2 (x) S)^-1 y (I_2 (x) S).
    a, x = (np.linalg.solve(big_s, y @ big_s) for y in (a + a.conj().T, x))
    conjugated, built = [], []
    _count_calls(monkeypatch, cones, "conjugate_algebra", lambda *args: conjugated.append(1))
    _count_calls(monkeypatch, algebra.OperatorAlgebra, "__post_init__",
                 lambda alg: built.append(alg.ambient_dim))
    cone = SimilarityCone(b, WORKED_S)
    order_unit_seminorm(cone, 2, a)
    pre_cstar_norm(cone, None, 2, x)
    # Order norms need only S and the PSD test, never A = S B S^-1.
    assert not conjugated and not built


def test_check_cones_builds_level_one_structure_once(monkeypatch, m2_full):
    cone = _fresh_cone("similarity", m2_full)
    conjugated, kernels = [], []
    _count_calls(monkeypatch, cones, "conjugate_algebra", lambda *args: conjugated.append(1))

    def record_kernel(*args):
        frame, names = sys._getframe(2), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        # The span basis V_1 is a kernel too; count the kernel of straighten on it.
        kernels.append("lineality_basis" in names and "hermitian_part_basis" not in names)

    _count_calls(monkeypatch, la, "real_kernel", record_kernel)
    reports = [audit_algebraically_admissible(cone, 1, samples=4),
               audit_matrix_ordered(cone, LEVELS, samples=4),
               audit_star_admissible(cone, LEVELS, samples=4)]
    estimate_main_constants(cone, LEVELS, samples=4)
    assert all(r.passed for r in reports)
    assert len(conjugated) == 1
    assert kernels.count(True) == 1  # one level-1 lineality kernel for 7 checks


@pytest.mark.parametrize("tol_psd", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("make", [
    lambda alg, tol: StandardCone(alg, tol),
    lambda alg, tol: SimilarityCone(alg, WORKED_S, tol),
    lambda alg, tol: FunctionPullbackCone(np.linspace(0.0, 1.0, 3), tol_psd=tol),
], ids=["standard", "similarity", "pullback"])
def test_invalid_tol_psd_is_a_typed_error(m2_full, make, tol_psd):
    with pytest.raises(MatOrderError, match="tol_psd"):
        make(m2_full, tol_psd)


def test_singular_similarity_is_a_dimension_mismatch(m2_full):
    # LAPACK inverts diag(1e-320, 1) without complaint, to an S^-1 holding inf.
    for s in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1e-320, 1.0])):
        with pytest.raises(DimensionMismatch, match="similarity is singular"):
            SimilarityCone(m2_full, s)
    for s in (np.diag([1e-320, 1.0]), [[1, 1], [1, 1]]):
        with pytest.raises(DimensionMismatch, match="similarity is singular"):
            conjugate_algebra(m2_full, s)


def test_conjugation_that_loses_rank_is_a_typed_error(m2_full):
    # S^-1 is finite, but S E_21 S^-1 = 1e-8 E_21 falls below the rank rule.
    with pytest.raises(MatOrderError):
        conjugate_algebra(m2_full, np.diag([1.0, 1e-8]))
