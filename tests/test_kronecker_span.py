"""Level-n span structure from level 1: the Kronecker span basis against the
amplified reference, the factored 2i/2iii ranks and lineality kernel, and
audits at level 8 on full M_6 that never build an algebra above level 1."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import random_similarity, random_unitary
from doubles import AllHermitianCone
from matorder import _linalg as la
from matorder import algebra, cones
from matorder.algebra import conjugate_algebra, generate_algebra, hermitian_part_basis
from matorder.cones import (
    SimilarityCone,
    StandardCone,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
    replay_witness,
)
from matorder.errors import DimensionMismatch
from references import amplify

LEVELS = (1, 2, 4)


def _algebra(kind, n=3, seed=0):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    if kind == "full":
        gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    elif kind == "commutative":
        gens = [u @ np.diag([0.0, 1.0] + [2.0] * (n - 2)) @ u.conj().T]
    else:  # blocks M_2 + M_1
        gens = [u @ block_diag(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                               rng.standard_normal((n - 2, n - 2))) @ u.conj().T
                for _ in range(2)]
    return generate_algebra(gens, include_adjoints=True)


def _cone(frame, kind):
    alg = _algebra(kind)
    if frame == "standard":
        return StandardCone(alg)
    s = random_similarity(np.random.default_rng(5), alg.ambient_dim, max_log10_cond=1.0)
    return SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s)


def _reference_span(cone, n):
    """The amplified build: Hermitian part of M_n of the straightened algebra,
    carried back through `frame.unstraighten`."""
    span = hermitian_part_basis(amplify(cone.straight_algebra, n))
    return la.orthonormal_stack(np.stack([cone.frame.unstraighten(h) for h in span]))


def _residuals(basis, others):
    rows = la.real_rows(basis)
    return [la.project_residual(rows, la.real_vec(h)) for h in others]


@pytest.mark.parametrize("kind", ["full", "blocks", "commutative"])
@pytest.mark.parametrize("frame", ["standard", "similarity"])
@pytest.mark.parametrize("n", LEVELS)
def test_kronecker_span_matches_the_amplified_reference(frame, kind, n):
    cone = _cone(frame, kind)
    span, ref = cone.span_basis(n), _reference_span(cone, n)
    assert span.shape == (n * n * len(cone.span_basis(1)), n * 3, n * 3)
    assert len(span) == len(ref)
    rows = la.real_rows(span)
    np.testing.assert_allclose(rows @ rows.T, np.eye(len(span)), rtol=0, atol=1e-12)
    assert max(_residuals(span, ref)) <= 1e-12
    assert max(_residuals(ref, span)) <= 1e-12


@pytest.mark.parametrize("frame", ["standard", "similarity"])
def test_level_below_one_is_a_dimension_mismatch(frame):
    cone = _cone(frame, "full")
    flat = AllHermitianCone(cone.algebra)
    for call in (cone.span_basis, cone.lineality_basis, flat.lineality_basis):
        with pytest.raises(DimensionMismatch):
            call(0)


class _DeficientSpanCone(StandardCone):
    """Claims V_1 without its last direction: V + iV falls short (2i fails)."""

    def span_basis(self, n):
        return super().span_basis(n) if n > 1 else super().span_basis(1)[:-1]


class _OverlapSpanCone(StandardCone):
    """Claims V_1 plus i v_0: V meets iV in the real line of v_0 (2iii fails)."""

    def span_basis(self, n):
        if n > 1:
            return super().span_basis(n)
        v1 = super().span_basis(1)
        return np.concatenate([v1, 1j * v1[:1]])


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("cls, verdicts", [(StandardCone, ("pass", "pass")),
                                           (_DeficientSpanCone, ("fail", "pass")),
                                           (_OverlapSpanCone, ("pass", "fail"))])
def test_factored_span_ranks_match_the_materialised_rows(monkeypatch, cls, verdicts, n):
    cone = cls(_algebra("blocks"))
    span = cone.span_basis(n)
    rank = la.rank(la.real_rows(np.concatenate([span, 1j * span])))
    sizes = []
    inner = la.rank

    def recording(mat):
        sizes.append(mat.shape[1])
        return inner(mat)

    monkeypatch.setattr(la, "rank", recording)
    checks = cones._span_checks(cone, n)
    assert checks[0].detail == f"dim_R(V + iV) = {rank}, need {2 * n * n * cone.algebra.dim}"
    assert checks[1].detail == f"dim_R(V cap iV) = {2 * len(span) - rank}"
    assert tuple(c.verdict for c in checks) == verdicts
    assert sizes == [2 * 3 * 3]  # one rank decision, on the level-1 rows
    for c in checks:
        assert (c.witness is None) == (c.verdict == "pass")
        if c.witness is not None:
            assert c.witness.level == n and replay_witness(cone, c.witness)


@pytest.mark.parametrize("kind", ["full", "blocks", "commutative"])
def test_factored_lineality_from_the_level_one_kernel(monkeypatch, kind):
    alg = _algebra(kind)
    sizes = []
    inner = la.real_kernel

    def recording(basis, cols, scale=None):
        sizes.append(basis.shape[-1])
        return inner(basis, cols, scale)

    monkeypatch.setattr(la, "real_kernel", recording)
    flat = AllHermitianCone(alg)
    for n in LEVELS:
        lin = flat.lineality_basis(n)
        assert len(lin) == n * n * len(flat.span_basis(1))
        rows = la.real_rows(np.stack(lin))
        np.testing.assert_allclose(rows @ rows.T, np.eye(len(lin)), rtol=0, atol=1e-12)
        for honest in (StandardCone(alg), _cone("similarity", kind)):
            assert honest.lineality_basis(n) == []
    assert set(sizes) == {alg.ambient_dim}  # every kernel is taken at level 1


@pytest.mark.parametrize("frame", ["standard", "similarity"])
def test_audits_at_level_eight_on_full_m6_never_amplify(monkeypatch, frame):
    rng = np.random.default_rng(8)
    alg = generate_algebra([rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))],
                           include_adjoints=True)
    assert alg.dim == 36
    if frame == "standard":
        cone = StandardCone(alg)
    else:
        s = random_similarity(rng, 6, max_log10_cond=1.0)
        cone = SimilarityCone(conjugate_algebra(alg, np.linalg.inv(s)), s)
    inner = algebra.OperatorAlgebra.__post_init__

    def raising(self):
        size = self.basis.shape[1]
        if size > 6:
            raise AssertionError(f"built an algebra of {size} x {size}")
        inner(self)

    monkeypatch.setattr(algebra.OperatorAlgebra, "__post_init__", raising)
    report = audit_star_admissible(cone, levels=(1, 2, 8), samples=4, seed=0)
    assert report.passed
    assert audit_matrix_ordered(cone, levels=(1, 8), samples=4, seed=0).passed
    assert audit_algebraically_admissible(cone, 8, samples=4, seed=0).passed
