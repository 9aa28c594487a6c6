import copy
from dataclasses import dataclass

import numpy as np
import pytest

from actionlab.action import MAGNITUDE_FLOOR_ABSOLUTE, ActionProfile, StationaryPoint
from actionlab.errors import EigensolverError, NotApplicableError, UndefinedPhaseError
from actionlab.hilbert import (
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    _canonical_phases,
    eigh_hermitian,
    expand,
    inner,
)
from actionlab.measurement import Measurement
from actionlab.models import RingParameters, qubit_system, ring_system, spin_system

RING_PARAMS = RingParameters(sites=256, circumference=256.0, mass=1.0, flight_time=20.0)
UNIT = PhysicalConstants(hbar=1.0)
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
    return ring_system(RING_PARAMS, UNIT)


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


class DegenerateSpectrumError(ValueError):
    """Eigenvalues too close to label a strictly increasing basis grid."""


def hermitian_eigen(H) -> LabeledBasis:
    """LAPACK oracle: diagonalize a Hermitian matrix into a LabeledBasis.

    The eigenvalues become the basis labels, so they must be simple: a
    LabeledBasis requires a strictly increasing grid.  Degenerate spectra
    raise DegenerateSpectrumError.
    """
    w, V = eigh_hermitian(H)
    span = max(float(w[-1] - w[0]), 1.0)
    if np.any(np.diff(w) <= 1e-9 * span):
        raise DegenerateSpectrumError(
            "spectrum has (near-)degenerate eigenvalues; cannot build a "
            "strictly increasing eigenvalue grid"
        )
    return LabeledBasis(V.T, w)


def lapack_spin_bases(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK oracle for the spin x and y bases, as columns.

    Jx is built here as the dense real symmetric tridiagonal matrix and
    diagonalized by numpy's eigh; the x columns get the canonical phases,
    and the y columns are x rotated by exp(-i pi m / 2) with canonical
    phases.  Returns (eigenvalues, x columns, y columns).
    """
    d = int(round(2.0 * j)) + 1
    m = -j + np.arange(d)
    c = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    w, v = np.linalg.eigh(np.diag(c / 2.0, 1) + np.diag(c / 2.0, -1))
    vx = _canonical_phases(v)
    return w, vx, _canonical_phases(vx * np.exp(-0.5j * np.pi * m)[:, np.newaxis])


def curvature_weak_value(a, m, b, delta_x_m: float, constants: PhysicalConstants) -> float:
    """Action curvature predicted from inner products alone.

    At a stationary point the curvature equals
    (2 pi hbar / dx^2) |<b|m><m|a> / <b|a>|^2 with dx the local grid spacing;
    the squared factor is the weak-value magnitude of |m><m|.  The identity
    is semiclassical: it sharpens as the system grows.
    """
    if not (delta_x_m > 0 and np.isfinite(delta_x_m)):
        raise ValueError(f"delta_x_m must be positive, got {delta_x_m}")
    ab = inner(b, a)
    if abs(ab) < MAGNITUDE_FLOOR_ABSOLUTE:
        raise UndefinedPhaseError("<b|a> vanishes; weak value undefined")
    wv = abs(inner(b, m) * inner(m, a) / ab)
    return 2.0 * np.pi * constants.hbar / (delta_x_m * delta_x_m) * wv * wv


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


def dense_nondisturbance_ratio(kernel, profile, points) -> float:
    """max |P''| / (|S''|/(2 pi)) at hbar = 1 from the full d x d second difference.

    Reference for ``nondisturbance_check``, which differences only the
    support columns: every column's |P''| is built with np.diff, the edge
    columns copy their neighbour, and the support is sliced out afterwards.
    """
    x = profile.x_grid
    support = np.isfinite(profile.curvature)
    if points:
        near = np.zeros(profile.dim, dtype=bool)
        for pt in points:
            near |= np.abs(x - pt.x_star) <= pt.delta_x_m
        support &= near
    scurv = np.abs(profile.curvature[support]) / (2.0 * np.pi)
    table = kernel.table
    pcurv = np.empty_like(table)
    pcurv[:, 1:-1] = np.abs(np.diff(table, 2, axis=1)) / (profile.spacing[1:-1] ** 2)
    pcurv[:, 0] = pcurv[:, 1]
    pcurv[:, -1] = pcurv[:, -2]
    with np.errstate(divide="ignore"):
        return float(np.max(pcurv[:, support] / scurv[np.newaxis, :]))


def gaussian_kernel_raw(basis, delta_x_r: float) -> np.ndarray:
    """Gaussian kernel entries before the column renormalization.

    dx_r / (sqrt(2 pi) delta_x_r) * exp(-(x_m - x_r)^2 / (2 delta_x_r^2)) in
    one expression, independent of ``action.gaussian_matrix``; divided by its
    column sums it must equal ``gaussian_kernel``'s table bit for bit.
    """
    x = basis.eigenvalues
    w = basis.spacing_per_state()
    return (
        w[:, np.newaxis]
        / (np.sqrt(2.0 * np.pi) * delta_x_r)
        * np.exp(-((x[np.newaxis, :] - x[:, np.newaxis]) ** 2) / (2.0 * delta_x_r**2))
    )


def dense_overlap_scan(windowed, rates, half: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``experiments._overlap_scan``: the whole n x d phase matrix
    exp(-i t_k w_m) over the uniform t grid, times the windowed amplitudes."""
    t_grid = np.linspace(-half, half, n)
    return t_grid, np.abs(np.exp(-1j * np.outer(t_grid, rates)) @ windowed)


def measurement_amplitude(measurement: Measurement, a: StateVector, b: StateVector) -> np.ndarray:
    """<b|M(r)|a> for every outcome r."""
    basis = measurement.basis
    return measurement.sqrt_table @ (np.conj(expand(b, basis)) * expand(a, basis))


@dataclass(frozen=True)
class OverlapEstimate:
    """Stationary-phase reconstruction of <b|a> next to the exact value."""

    estimate: complex
    exact: complex
    relative_error: float          # on magnitudes; phases compared separately
    phase_difference: float


def stationary_phase_overlap(
    profile: ActionProfile, points: list[StationaryPoint]
) -> OverlapEstimate:
    """Estimate <b|a> from the neighborhoods of the stationary points.

    Each point contributes its local amplitude density |<b|m><m|a>|/dx
    (equal to sqrt(rho_a rho_b) there) times the Gaussian width
    sqrt(2 pi hbar / |S''|), with phase S(x*)/hbar + (pi/4) sign(S'').  The
    action is defined relative to the phase of <b|a>, so the reconstruction
    recovers the magnitude; the exact global phase is reattached for the
    comparison.  hbar is the profile's.
    """
    if not points:
        raise NotApplicableError("no stationary points; nothing to reconstruct")
    hbar = profile.hbar
    total = 0.0 + 0.0j
    for pt in points:
        i = pt.index_star
        weight = profile.magnitude[i] / profile.spacing[i]
        width = np.sqrt(2.0 * np.pi * hbar / abs(pt.curvature_at))
        phase = pt.action_at / hbar + (np.pi / 4.0) * np.sign(pt.curvature_at)
        total += weight * width * np.exp(1j * phase)
    gauge = profile.inner_ab / abs(profile.inner_ab)
    estimate = complex(total * gauge)
    exact = profile.inner_ab
    rel = abs(abs(estimate) - abs(exact)) / abs(exact)
    dphi = float(np.angle(estimate * np.conj(exact)))
    return OverlapEstimate(estimate=estimate, exact=exact,
                           relative_error=float(rel), phase_difference=dphi)


@dataclass(frozen=True)
class GradientRecovery:
    """Action gradients inferred from measured amplitude suppression."""

    r_grid: np.ndarray
    recovered: np.ndarray          # |dS/dx| estimates, NaN where masked
    reference: np.ndarray          # profile gradients at the same outcomes
    suppression: np.ndarray
    near_edge: np.ndarray          # outcomes within 3 delta_x_r of a spectrum end


def action_gradient_recovery(
    amplitudes: np.ndarray,
    measurement: Measurement,
    profile: ActionProfile,
) -> GradientRecovery:
    """Invert the Gaussian suppression factor into |dS/dx| per outcome.

    ``amplitudes`` are measured (or exactly computed) <b|M(r)|a> values on
    the kernel outcome grid.  The magnitude ratio against the unsuppressed
    local amplitude gives exp(-(dxr S'/hbar)^2); outcomes whose ratio exceeds
    one (noise) or underflows are masked.
    """
    delta = measurement.resolution
    if delta <= 0.0:
        raise ValueError("gradient recovery requires a finite-resolution Gaussian kernel")
    r_grid = measurement.r_grid
    n = r_grid.shape[0]
    amp = np.asarray(amplitudes, dtype=complex)
    if amp.shape != (n,):
        raise ValueError(f"need {n} amplitudes, got {amp.shape}")
    hbar = profile.hbar
    w = profile.spacing
    prefactor = (8.0 * np.pi * delta**2 / w**2) ** 0.25
    base = profile.magnitude * prefactor
    recovered = np.full(n, np.nan)
    reference = np.full(n, np.nan)
    ratios = np.full(n, np.nan)
    for i, x_r in enumerate(r_grid):
        if base[i] <= 0.0 or not profile.valid[i]:
            continue
        ratio = abs(amp[i]) / base[i]
        ratios[i] = ratio
        if not (0.0 < ratio <= 1.0):
            continue
        recovered[i] = hbar / delta * np.sqrt(max(-np.log(ratio), 0.0))
        try:
            reference[i] = abs(profile.gradient_at(float(x_r)))
        except ValueError:
            recovered[i] = np.nan
    margin = 3.0 * delta
    near_edge = (r_grid < r_grid[0] + margin) | (r_grid > r_grid[-1] - margin)
    return GradientRecovery(
        r_grid=r_grid,
        recovered=recovered,
        reference=reference,
        suppression=ratios,
        near_edge=near_edge,
    )
