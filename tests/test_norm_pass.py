"""The order norms in one pass over their element.  On a `_frame_oracle` cone the
element is straightened once, into y, its sharp is read off y, and its one ||z||_F is
`algebra._outside`'s, which the sharp check and the enclosure bound share.  Every report
keeps the earlier pipeline's bits (`references.order_unit_seminorm_sharp_first` and
`references.pre_cstar_norm_sharp_first`, which straightened z again and sized it three
times), `repr` for `repr`: standard and similarity cones over full, commutative and
block-diagonal algebras at levels 1, 2, 4 and 8, with the cone's own sharp or an
`InvolutionMap`, and on oracles that override a step, which are asked their methods
as before.  NotSelfAdjoint still comes before the structure bound's MembershipError."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import E11, E12, E21, random_similarity
from doubles import instance_oracle
from matorder import _linalg as la
from matorder.algebra import _Frame, conjugate_algebra, generate_algebra, random_element
from matorder.cones import SimilarityCone, StandardCone, _frame_oracle
from matorder.errors import MembershipError, NotSelfAdjoint
from matorder.involution import recover_involution
from matorder.order_norms import order_unit_seminorm, pre_cstar_norm
from references import order_unit_seminorm_sharp_first, pre_cstar_norm_sharp_first

LEVELS = [1, 2, 4, 8]


def _algebra(shape):
    """A star-closed subalgebra of M_3: all of it, the diagonal, or C (+) M_2."""
    rng = np.random.default_rng(31)
    if shape == "full":
        return generate_algebra([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))],
                                include_adjoints=True)
    if shape == "commutative":
        return generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)])
    lower = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return generate_algebra([block_diag([[1.0]], lower).astype(complex)], include_adjoints=True)


def _cone(kind, shape, cls=SimilarityCone):
    """The standard cone over the algebra, or the similarity cone of S over S^-1 A S."""
    algebra = _algebra(shape)
    if kind == "standard":
        return cls(algebra, None)
    s = random_similarity(np.random.default_rng(32), 3, max_log10_cond=1.0)
    return cls(conjugate_algebra(algebra, np.linalg.inv(s)), s)


class _Asking(SimilarityCone):
    """Overrides each oracle step a norm may ask by its base, recording (name, shape):
    no step is the frame's own, so every norm replays through these methods."""

    def __init__(self, algebra, s):
        super().__init__(algebra, s)
        self.asked = []

    def _asks(name):
        def method(self, *args):
            self.asked.append((name, np.shape(args[-1])))
            return getattr(SimilarityCone, name)(self, *args)
        return method

    straighten = _asks("straighten")
    level_element = _asks("level_element")
    min_shift_pair = _asks("min_shift_pair")
    sharp_block = _asks("sharp_block")
    del _asks


def _outcome(norm):
    try:
        return repr(norm())
    except Exception as exc:  # a typed error is the outcome both pipelines must share
        return f"{type(exc).__name__}: {exc}"


def _norm_pairs(cone, n, rng):
    """(library, reference) callables for every norm asked of the cone at level n."""
    a = cone.sample_span_many(n, 1, rng)[0]
    c = cone.sample_many(n, 1, rng)[0]
    x = random_element(cone.algebra, rng, level=n)
    sharp = recover_involution(cone)
    pairs = [(lambda e=e: order_unit_seminorm(cone, n, e),
              lambda e=e: order_unit_seminorm_sharp_first(cone, n, e))
             for e in (a, -a, c, np.zeros_like(a))]
    return pairs + [(lambda inv=inv: pre_cstar_norm(cone, inv, n, x),
                     lambda inv=inv: pre_cstar_norm_sharp_first(cone, inv, n, x))
                    for inv in (None, sharp)]


@pytest.mark.parametrize("kind", ["standard", "similarity"])
@pytest.mark.parametrize("shape", ["full", "commutative", "blocks"])
@pytest.mark.parametrize("n", LEVELS)
def test_every_norm_keeps_the_bits_of_the_earlier_pipeline(kind, shape, n):
    cone = _cone(kind, shape)
    assert _frame_oracle(cone, "min_shift_pair", "unit")
    for ours, theirs in _norm_pairs(cone, n, np.random.default_rng(330 + n)):
        got = _outcome(ours)
        assert got.startswith("NormReport(") and got == _outcome(theirs)


@pytest.mark.parametrize("kind", ["standard", "similarity"])
@pytest.mark.parametrize("shape", ["full", "blocks"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_an_overridden_oracle_is_asked_its_methods_as_before(kind, shape, n):
    ours, theirs = _cone(kind, shape, _Asking), _cone(kind, shape, _Asking)
    for (norm, _), (_, reference) in zip(_norm_pairs(ours, n, np.random.default_rng(340 + n)),
                                         _norm_pairs(theirs, n, np.random.default_rng(340 + n))):
        ours.asked.clear()
        theirs.asked.clear()
        assert _outcome(norm) == _outcome(reference)
        assert ours.asked == theirs.asked
    opaque = instance_oracle(_cone(kind, shape))
    for norm, reference in _norm_pairs(opaque, n, np.random.default_rng(345 + n)):
        assert _outcome(norm) == _outcome(reference)
    # The seminorm asks sharp_block, then min_shift_pair, of the matrix itself.
    dim = ours.level_dim(n)
    ours.asked.clear()
    order_unit_seminorm(ours, n, ours.sample_span_many(n, 1, np.random.default_rng(1))[0])
    assert ours.asked[:4] == [("sharp_block", (dim, dim)), ("min_shift_pair", (dim, dim)),
                              ("level_element", (dim, dim)), ("straighten", (dim, dim))]


@pytest.fixture
def sized(monkeypatch):
    """Every `_Frame.straighten` argument, and every Frobenius norm's argument."""
    calls = {"straighten": [], "frob": []}
    straighten, frob, frob_each = _Frame.straighten, la.frob, la.frob_each

    def straightened(self, x):
        calls["straighten"].append(np.asarray(x))
        return straighten(self, x)

    monkeypatch.setattr(_Frame, "straighten", straightened)
    monkeypatch.setattr(la, "frob", lambda x: calls["frob"].append(x) or frob(x))
    monkeypatch.setattr(la, "frob_each", lambda x: calls["frob"].append(x) or frob_each(x))
    return calls


@pytest.mark.parametrize("kind", ["standard", "similarity"])
@pytest.mark.parametrize("shape", ["full", "blocks"])
@pytest.mark.parametrize("n", [1, 2])
def test_the_norm_element_is_straightened_once_and_sized_once(kind, shape, n, sized):
    cone = _cone(kind, shape)
    rng = np.random.default_rng(350 + n)
    a, x = cone.sample_span_many(n, 1, rng)[0], random_element(cone.algebra, rng, level=n)
    z = cone.sharp_block(x) @ x
    for norm, elem in ((lambda: order_unit_seminorm(cone, n, a), a),
                       (lambda: pre_cstar_norm(cone, None, n, x), z)):
        for calls in sized.values():
            calls.clear()
        norm()
        same = lambda y: np.size(y) == elem.size and np.array_equal(np.reshape(y, elem.shape),
                                                                    elem)
        assert len([y for y in sized["straighten"] if same(y)]) == 1
        assert len([y for y in sized["frob"] if same(y)]) == 1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("cls", [StandardCone, _Asking])
def test_an_element_off_sharp_and_outside_the_algebra_is_not_self_adjoint(span_i_e11, n, cls):
    # E_12 is outside the diagonal algebra and not self-adjoint: the sharp check speaks first.
    cone = StandardCone(span_i_e11) if cls is StandardCone else cls(span_i_e11, None)
    eye = np.eye(n)
    with pytest.raises(NotSelfAdjoint):
        order_unit_seminorm(cone, n, np.kron(eye, E12))
    with pytest.raises(MembershipError):
        order_unit_seminorm(cone, n, np.kron(eye, E12 + E21))
    assert order_unit_seminorm(cone, n, np.kron(eye, E11)).value == pytest.approx(1.0)
