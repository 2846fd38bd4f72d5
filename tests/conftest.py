import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from matorder.algebra import conjugate_algebra, generate_algebra
from matorder.cones import SimilarityCone, StandardCone
from matorder.similarity import cb_lower_bound


def mat(rows):
    return np.array(rows, dtype=complex)


E11 = mat([[1, 0], [0, 0]])
E12 = mat([[0, 1], [0, 0]])
E21 = mat([[0, 0], [1, 0]])
E22 = mat([[0, 0], [0, 1]])
WORKED_B = mat([[1, 1], [0, 0]])
WORKED_S = mat([[1, 1], [0, 1]])


def load_workloads(monkeypatch):
    """The benchmark's `perfbench/workloads.py`, imported from this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def random_unitary(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_star_closed_algebra(rng, n=None, nmax=6):
    """Random star-closed subalgebra of M_n: full, commutative, or a
    unitary conjugate of a block-diagonal sum."""
    if n is None:
        n = int(rng.integers(2, nmax + 1))
    kind = rng.choice(["full", "commutative", "blocks"])
    if kind == "full":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return generate_algebra([g], include_adjoints=True)
    if kind == "commutative":
        k = int(rng.integers(1, n + 1))
        evals = rng.integers(0, k, size=n).astype(float)
        u = random_unitary(rng, n)
        return generate_algebra([u @ np.diag(evals) @ u.conj().T],
                                include_adjoints=True)
    parts = []
    left = n
    while left > 0:
        p = int(rng.integers(1, min(left, 3) + 1))
        parts.append(p)
        left -= p
    u = random_unitary(rng, n)
    gens = []
    for _ in range(2):
        blocks = [rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                  for p in parts]
        gens.append(u @ block_diag(*blocks) @ u.conj().T)
    return generate_algebra(gens, include_adjoints=True)


def level_one_inverse_bound(res, seed=0):
    """The level-1 `cb_lower_bound` of rho = tau^-1, the map from the
    adjoint-closed image back to the algebra, for a `ReconstructionResult`.

    For a nuclear C*-algebra, so for every finite-dimensional one, a bounded
    homomorphism has ||rho||_cb <= ||rho||^2 (Pisier, Similarity Problems and
    Completely Bounded Maps, LNM 1618), and cb_upper is ||rho||_cb at the
    optimal Q.  So cb_upper above this bound squared means either a weak
    ascent or a wrong barrier solve."""
    s = res.certificate.s
    s_inv = np.linalg.inv(s)
    image = res.star_rep.image_algebra
    inverse = np.stack([s_inv @ b @ s for b in image.basis])
    return cb_lower_bound(inverse, image, k=1, seed=seed)


def random_similarity(rng, n, max_log10_cond=2.0):
    """Random invertible S with cond(S* S) <= 10^(2 * max_log10_cond)."""
    target = 10 ** rng.uniform(0.0, max_log10_cond)
    sig = np.geomspace(1.0, 1.0 / target, n)
    return random_unitary(rng, n) @ np.diag(sig) @ random_unitary(rng, n).conj().T


@pytest.fixture(scope="session")
def m2_full():
    return generate_algebra([E12], include_adjoints=True)


@pytest.fixture(scope="session")
def m3_full():
    g = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    return generate_algebra([g], include_adjoints=True)


@pytest.fixture(scope="session")
def span_i_e11():
    return generate_algebra([E11])


@pytest.fixture(scope="session")
def worked_algebra():
    return generate_algebra([WORKED_B])


@pytest.fixture(scope="session")
def std_m2(m2_full):
    return StandardCone(m2_full)


@pytest.fixture(scope="session")
def std_m3(m3_full):
    return StandardCone(m3_full)


@pytest.fixture(scope="session")
def worked_sim_cone(worked_algebra):
    return SimilarityCone(worked_algebra, WORKED_S)


@pytest.fixture(scope="session")
def planted_sim_cone(m2_full):
    b = conjugate_algebra(m2_full, np.linalg.inv(WORKED_S))
    return SimilarityCone(b, WORKED_S)
