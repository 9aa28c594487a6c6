import copy

import numpy as np
import pytest

from actionlab.errors import EigensolverError
from actionlab.hilbert import _canonical_phases
from actionlab.models import RingParameters, qubit_system, ring_system, spin_system

RING_PARAMS = RingParameters(sites=256, circumference=256.0, mass=1.0, flight_time=20.0)
DELETE = object()


def mutated(config: dict, path: str, value) -> dict:
    """Deep copy of a config mapping with the dotted ``path`` set to ``value`` (or DELETEd)."""
    config = copy.deepcopy(config)
    *parents, key = path.split(".")
    node = config
    for name in parents:
        if not isinstance(node.get(name), dict):
            node[name] = {}
        node = node[name]
    if value is DELETE:
        node.pop(key, None)
    else:
        node[key] = value
    return config


@pytest.fixture(scope="session")
def qubit():
    return qubit_system()


@pytest.fixture(scope="session")
def spin20():
    return spin_system(20.0)


@pytest.fixture(scope="session")
def spin50():
    return spin_system(50.0)


@pytest.fixture(scope="session")
def ring256():
    return ring_system(RING_PARAMS)


def haar_basis(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unitary via QR; rows are an orthonormal basis."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T


def jacobi_eigh(H, tol: float = 1e-14, max_sweeps: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi eigensolver, an oracle independent of LAPACK.

    Annihilates one off-diagonal element per rotation; converges in a handful
    of sweeps.  O(d^3) per sweep with Python-loop constants, so use it only
    for small dimensions.  Returns (eigenvalues, vectors) like eigh_hermitian,
    with the same canonical phases but without the canonical ordering of
    degenerate clusters.
    """
    A = np.array(H, dtype=complex)
    A = (A + A.conj().T) / 2.0
    d = A.shape[0]
    V = np.eye(d, dtype=complex)
    scale = max(float(np.max(np.abs(A))), 1e-300)
    for sweep in range(max_sweeps):
        off_max = 0.0
        for p in range(d - 1):
            row = np.abs(A[p, p + 1 :])
            if row.size:
                off_max = max(off_max, float(row.max()))
        if off_max <= tol * scale:
            break
        thresh = max(0.05 * off_max if sweep < 3 else 0.0, tol * scale)
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                m = abs(apq)
                if m <= thresh:
                    continue
                u = apq / m
                tau = (A[q, q].real - A[p, p].real) / (2.0 * m)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cu = np.conj(u)
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp - (cu * s) * colq
                A[:, q] = s * colp + (cu * c) * colq
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - (u * s) * rowq
                A[q, :] = s * rowp + (u * c) * rowq
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - (cu * s) * vq
                V[:, q] = s * vp + (cu * c) * vq
    else:
        raise EigensolverError(f"Jacobi did not converge in {max_sweeps} sweeps")
    w = np.real(np.diag(A))
    order = np.argsort(w, kind="stable")
    return w[order], _canonical_phases(V[:, order])


def loop_unwrap_segment(raw: np.ndarray, two_pi: float, anchor: int = 0) -> np.ndarray:
    """Nearest-multiple chaining one grid point at a time, outward from the anchor.

    Reference for the package's cumulative-turn-count form.
    """
    out = raw.copy()
    for i in range(anchor + 1, len(out)):
        out[i] = raw[i] + two_pi * np.round((out[i - 1] - raw[i]) / two_pi)
    for i in range(anchor - 1, -1, -1):
        out[i] = raw[i] + two_pi * np.round((out[i + 1] - raw[i]) / two_pi)
    return out


def loop_segments_of(valid) -> list[tuple[int, int]]:
    """Contiguous runs [start, stop) of True entries, found by a scan."""
    runs = []
    start = None
    for i, flag in enumerate(valid):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(valid)))
    return runs
