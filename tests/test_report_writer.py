"""The report writer: one `json.dumps` call whose floats read back with their
bits, and whose decoded reports equal those of the 17-digit writer it
replaced (`references.canonical_json_17g`)."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E12
from doubles import AllHermitianCone, PairedSpanCone, ZeroedCornerCone
from matorder.algebra import generate_algebra
from matorder.cones import (audit_algebraically_admissible, audit_matrix_ordered,
                            audit_star_admissible)
from matorder.serialization import audit_to_obj, canonical_json, matrix_to_obj
from references import audit_to_obj_17g, canonical_json_17g

EDGES = [0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 1e16, 5e-324, -5e-324,
         1.7976931348623157e308, -1.7976931348623157e308]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES))
def test_every_finite_float_decodes_with_its_bits(x):
    text = canonical_json({"f": x, "np": np.float64(x), "a": np.array([x]),
                           "m": np.array([[complex(x, -x)]])})
    got = json.loads(text)
    for y in (got["f"], got["np"], got["a"][0], *got["m"]["entries"][0][0]):
        assert type(y) is float
    assert [_bits(y) for y in (got["f"], got["np"], got["a"][0])] == [_bits(x)] * 3
    assert [_bits(y) for y in got["m"]["entries"][0][0]] == [_bits(x), _bits(-x)]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise(x):
    for obj in (x, np.float64(x), np.array([1.0, x]), np.array([[complex(0.0, x)]])):
        with pytest.raises(ValueError):
            canonical_json({"x": obj})


def test_an_object_the_writer_does_not_know_is_a_type_error():
    with pytest.raises(TypeError, match="cannot serialize object"):
        canonical_json({"x": object()})


def test_integral_floats_stay_floats_and_integers_stay_integers():
    assert canonical_json([0.0, -0.0, 1.0, 3, np.int64(4), True, np.bool_(False), None]) \
        == "[0.0,-0.0,1.0,3,4,true,false,null]\n"


def test_matrix_objects_are_complex_pairs_row_by_row():
    x = np.array([[1.0, 2j], [-0.0, 3.0 - 4j]])
    assert matrix_to_obj(x) == {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 2.0]],
                                                      [[-0.0, 0.0], [3.0, -4.0]]]}
    assert json.loads(canonical_json(x)) == matrix_to_obj(x)


def _witness_audits():
    m2 = generate_algebra([E12], include_adjoints=True)
    return [audit_star_admissible(PairedSpanCone(m2), (1, 2), samples=8, seed=3),
            audit_matrix_ordered(ZeroedCornerCone(m2), (1, 2), samples=8, seed=3),
            audit_algebraically_admissible(ZeroedCornerCone(m2), n=1, samples=8, seed=3),
            audit_matrix_ordered(AllHermitianCone(m2), (1, 2), samples=8, seed=3)]


@pytest.mark.parametrize("report", _witness_audits(), ids=["K", "corner", "algebraic", "pointed"])
def test_witness_audits_decode_as_the_17_digit_writers(report):
    assert not report.passed and report.failures()[0].witness is not None
    assert json.loads(canonical_json(audit_to_obj(report))) \
        == json.loads(canonical_json_17g(audit_to_obj_17g(report)))
