"""Corrupted cone oracles used by the audit soundness (mutation) tests and by
the tests that pin the involution and order-norm layers' typed errors, and
`instance_oracle`, an opaque copy of a sound cone.

Each overrides the stacked forms of the oracle protocol (`member_many`,
`sample_many`, `sample_span_many`), a stack-capable `straighten` or the exact
shifts, and decides or draws one element at a time inside them."""

import copy

import numpy as np

from matorder import _linalg as la
from matorder.cones import StandardCone
from references import herm_defect


def instance_oracle(cone):
    """The cone asked through an instance `member_many`: an opaque oracle, on which
    no check takes a frame cone's theorem path, so each one samples."""
    out = copy.copy(cone)
    out.member_many = lambda n, xs: cone.member_many(n, xs)
    return out


class AllHermitianCone(StandardCone):
    """Accepts every Hermitian element: the symmetric part is the whole
    Hermitian span, so pointedness must fail with witness +-e."""

    variant = "all-hermitian"

    def member_many(self, n, xs):
        xs = [self.level_element(n, x) for x in xs]
        return [herm_defect(x) <= self.tol_psd * (1.0 + la.opnorm(x)) for x in xs]

    def straighten(self, n, x):
        # No PSD constraint at all: the frame map is zero.
        return np.zeros_like(np.asarray(x, dtype=complex))


class ZeroedCornerCone(StandardCone):
    """PSD elements with the (0, 0) entry forced to zero: conjugation by a
    permutation moves mass into the corner and escapes the cone."""

    variant = "zeroed-corner"

    def member_many(self, n, xs):
        xs = [np.asarray(x, dtype=complex) for x in xs]
        return [ok and abs(x[0, 0]) <= self.tol_psd * (1.0 + la.opnorm(x))
                for x, ok in zip(xs, super().member_many(n, xs))]

    def sample_many(self, n, k, rng):
        from matorder.algebra import random_element

        out = []
        for _ in range(k):
            g = random_element(self.algebra, rng, level=n)
            g[:, 0] = 0.0
            out.append(la.dagger(g) @ g)
        return out


class NoSpanCone(StandardCone):
    """An honest cone that claims no exact span basis."""

    def span_basis(self, n):
        return None


class ZeroCone(StandardCone):
    """The trivial cone {0}."""

    variant = "zero"

    def member_many(self, n, xs):
        return [la.frob(np.asarray(x, dtype=complex)) <= self.tol_psd for x in xs]

    def sample_many(self, n, k, rng):
        d = self.level_dim(n)
        return [np.zeros((d, d), dtype=complex) for _ in range(k)]

    def sample_span_many(self, n, k, rng):
        return self.sample_many(n, k, rng)


class SkewedLevelCone(StandardCone):
    """Level-n members are D P D^-1 with P PSD in M_n(A) and D = diag(1, ..., n)
    kron I_N, a non-unitary scalar block similarity (the identity at level 1):
    level-n samples are not fixed by the entrywise involution of level 1."""

    variant = "skewed-level"

    def _skew(self, n):
        return np.kron(np.diag(np.arange(1.0, n + 1.0)), np.eye(self.algebra.ambient_dim))

    def straighten(self, n, x):
        # Per matrix of a stack: solve broadcasts d over it.
        d = self._skew(n)
        return np.linalg.solve(d, np.asarray(x, dtype=complex)) @ d

    def sample_many(self, n, k, rng):
        d = self._skew(n)
        out = []
        for _ in range(k):
            out.append(d @ super().sample_many(n, 1, rng)[0] @ np.linalg.inv(d))
        return out


class PairedSpanCone(StandardCone):
    """Span draws come in pairs (a, i a), so ||a + i b|| vanishes with ||a|| > 0:
    the norm-comparison failure of the K estimate."""

    variant = "paired-span"

    def sample_span_many(self, n, k, rng):
        out = []
        for a in super().sample_span_many(n, (k + 1) // 2, rng):
            out += [a, 1j * a]
        return out[:k]


class GrowingSpanCone(StandardCone):
    """The r-th `sample_many` call draws real combinations of the first r real
    directions of the level's matrix units (E_ab, then i E_ab), so the sampled
    span grows by one every round and never settles."""

    variant = "growing-span"

    def __init__(self, algebra):
        super().__init__(algebra)
        self.rounds = 0

    def sample_many(self, n, k, rng):
        size = self.level_dim(n)
        units = np.eye(size * size, dtype=complex).reshape(-1, size, size)
        self.rounds += 1
        dirs = np.concatenate([units, 1j * units])[:self.rounds]
        return [np.tensordot(rng.standard_normal(len(dirs)), dirs, axes=(0, 0))
                for _ in range(k)]


class RotatedSampleCone(StandardCone):
    """Level-1 samples u c u* for a fixed unitary u: their span has the
    dimension of the algebra's Hermitian part but is another subspace."""

    variant = "rotated-sample"

    def __init__(self, algebra, u):
        super().__init__(algebra)
        self.u = u

    def sample_many(self, n, k, rng):
        return [self.u @ c @ la.dagger(self.u) for c in super().sample_many(n, k, rng)]


class GappedCone(StandardCone):
    """Opaque (no exact shifts), and not convex: the PSD elements whose least
    eigenvalue lies in [0.6, 0.8] or is at least 1.5.  So t e - I is inside
    for t in [1.6, 1.8] and for t >= 2.5, and the searches in r and in r^2
    bisect onto different bands."""

    variant = "gapped"

    def min_shift_pair(self, n, c):
        return None, None

    def member_many(self, n, xs):
        xs = [np.asarray(x, dtype=complex) for x in xs]
        low = [np.linalg.eigvalsh(0.5 * (x + la.dagger(x)))[0] for x in xs]
        return [ok and (0.6 <= lam <= 0.8 or lam >= 1.5)
                for ok, lam in zip(super().member_many(n, xs), low)]
