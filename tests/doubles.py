"""Corrupted cone oracles used by the audit soundness (mutation) tests."""

import numpy as np

from matorder import _linalg as la
from matorder.cones import StandardCone
from references import herm_defect


class AllHermitianCone(StandardCone):
    """Accepts every Hermitian element: the symmetric part is the whole
    Hermitian span, so pointedness must fail with witness +-e."""

    variant = "all-hermitian"

    def member(self, n, x):
        x = self.level_element(n, x)
        return herm_defect(x) <= self.tol_psd * (1.0 + la.opnorm(x))

    def straighten(self, n, x):
        # No PSD constraint at all: the frame map is zero.
        return np.zeros_like(np.asarray(x, dtype=complex))


class ZeroedCornerCone(StandardCone):
    """PSD elements with the (0, 0) entry forced to zero: conjugation by a
    permutation moves mass into the corner and escapes the cone."""

    variant = "zeroed-corner"

    def member(self, n, x):
        if not super().member(n, x):
            return False
        x = np.asarray(x, dtype=complex)
        return abs(x[0, 0]) <= self.tol_psd * (1.0 + la.opnorm(x))

    def sample(self, n, rng):
        from matorder.algebra import random_element

        g = random_element(self.algebra, rng, level=n)
        g[:, 0] = 0.0
        return la.dagger(g) @ g


class ZeroCone(StandardCone):
    """The trivial cone {0}."""

    variant = "zero"

    def member(self, n, x):
        return la.frob(np.asarray(x, dtype=complex)) <= self.tol_psd

    def sample(self, n, rng):
        d = self.level_dim(n)
        return np.zeros((d, d), dtype=complex)

    def sample_span(self, n, rng):
        return self.sample(n, rng)


class SkewedLevelCone(StandardCone):
    """Level-n members are D P D^-1 with P PSD in M_n(A) and D = diag(1, ..., n)
    kron I_N, a non-unitary scalar block similarity (the identity at level 1):
    level-n samples are not fixed by the entrywise involution of level 1."""

    variant = "skewed-level"

    def _skew(self, n):
        return np.kron(np.diag(np.arange(1.0, n + 1.0)), np.eye(self.algebra.ambient_dim))

    def straighten(self, n, x):
        d = self._skew(n)
        return np.linalg.solve(d, np.asarray(x, dtype=complex)) @ d

    def sample(self, n, rng):
        d = self._skew(n)
        return d @ super().sample(n, rng) @ np.linalg.inv(d)
