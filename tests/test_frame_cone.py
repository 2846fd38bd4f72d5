"""The one PSD-frame cone class: the identity frame, the per-level span
store, and typed errors for cones without matrix levels."""

import numpy as np
import pytest

from conftest import WORKED_S
from doubles import AllHermitianCone
from matorder import _linalg as la
from matorder import cones
from matorder.algebra import conjugate_algebra
from matorder.case_studies import FunctionPullbackCone
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
)
from matorder.errors import LevelUnsupported
from matorder.involution import real_cone_span
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
