"""Model systems with analytically known classical limits.

Three families, each exposing named labeled bases over a common reference
basis:

* ``qubit_system`` — the hand-checkable two-level system: spin 1/2 under
  its own name, with mutually unbiased x, y, z bases (eigenvalues ±1/2).
* ``spin_system(j)`` — angular momentum j: canonical z basis, real x basis
  from the three-term recurrence of the tridiagonal Jx, y basis rotated from
  x about z (the x rows with two phase vectors).
* ``ring_system(params)`` — free particle on a discrete ring: position basis
  and discrete-Fourier momentum basis with signed, centered momenta.

All three constructors are cached, so a process builds each model once.

Reference-basis convention: index k corresponds to the k-th eigenvalue of
the canonical basis in ascending order (for spin, index 0 is m = -j).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Mapping

import numpy as np

from .errors import EigensolverError
from .hilbert import (
    EIGEN_RESIDUAL_TOLERANCE,
    ORTHONORMALITY_TOLERANCE,
    DiagonalUnitary,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    _lead_index,
    apply_diagonal,
    orthonormality_deviation,
    synthesize,
)

# Column rescaling bound of the Jx recurrence: a column passing RESCALE_ABOVE
# is divided by it, which keeps every entry and every squared norm finite.
RESCALE_ABOVE = 1e150
# Branch filter for the spin's standing-wave intermediate profiles (d > 2), in
# units of the local grid spacing; see action.action_profile for the physics.
SPIN_PROFILE_SMOOTHING_SPACINGS = 2.0
# i^n and (-i)^n by n mod 4, exact.
I_POWERS = np.array([1, 1j, -1, -1j])
MINUS_I_POWERS = np.conj(I_POWERS)


@dataclass(frozen=True)
class ModelSystem:
    """A named model: dimension, labeled bases, classical oracle, and the
    runners' policies, which only the model constructors set.

    ``classical_oracle(x_a, x_b)`` returns the closed-form stationary
    intermediate values of the boundary pair, an empty tuple if it is
    classically forbidden.  ``emergence_pairs`` default an emergence scan
    (empty: the configured a, b pair); ``filter_spacings`` is the branch
    filter's width in grid spacings (0: none).  Only a ring has ``arrival``,
    the flight that carries a final position state back, and
    ``energy_basis()``, the basis a propagation runs in (ValueError if the
    ring is too small).  ``metadata`` is for the ``models`` dump only.
    """

    name: str
    dimension: int
    bases: Mapping[str, LabeledBasis]
    classical_oracle: Callable[[float, float], tuple[float, ...]]
    emergence_pairs: tuple[tuple[float, float], ...] = ()
    filter_spacings: float = 0.0
    arrival: DiagonalUnitary | None = None
    energy_basis: Callable[[], LabeledBasis] | None = None
    metadata: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for bname, basis in self.bases.items():
            if basis.dim != self.dimension:
                raise ValueError(f"basis {bname!r} has dim {basis.dim}, expected {self.dimension}")

    def basis(self, name: str) -> LabeledBasis:
        try:
            return self.bases[name]
        except KeyError:
            raise KeyError(
                f"model {self.name!r} has no basis {name!r}; available: {sorted(self.bases)}"
            ) from None

    def change_of_basis_residual(self) -> float:
        """Max unitarity defect across bases, recomputed from their stored forms."""
        return max(b.orthonormality_deviation() for b in self.bases.values())


@dataclass(frozen=True)
class RingParameters:
    """Discrete free-particle ring: N sites on circumference L, mass M, flight time T."""

    sites: int
    circumference: float
    mass: float
    flight_time: float
    winding: int = 0

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError(f"sites must be >= 2, got {self.sites}")
        for name in ("circumference", "mass", "flight_time"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")


def wrap_displacement(dx: float, circumference: float, winding: int = 0) -> float:
    """Displacement on the covering line with minimal magnitude, plus winding turns."""
    base = (dx + circumference / 2.0) % circumference - circumference / 2.0
    return base + winding * circumference


def spin_cone(j: float, x_a: float, x_b: float) -> tuple[float, ...]:
    """Intermediate values +-sqrt(j(j+1) - x_a^2 - x_b^2) where the three
    angular-momentum cones meet; empty outside the cone."""
    rsq = j * (j + 1.0) - x_a * x_a - x_b * x_b
    if rsq <= 0.0:
        return ()
    root = float(np.sqrt(rsq))
    return (-root, root)


def free_flight(params: RingParameters, x_a: float, x_b: float) -> tuple[float, ...]:
    """The one momentum M dx / T that carries x_a to x_b in the flight time."""
    dx = wrap_displacement(x_b - x_a, params.circumference, params.winding)
    return (params.mass * dx / params.flight_time,)


@lru_cache(maxsize=1)
def qubit_system() -> ModelSystem:
    """The two-level system: spin 1/2 under its own name (cached)."""
    return replace(spin_system(0.5), name="qubit", metadata={})


def angular_momentum_matrices(j: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense Jx and Jy in the ascending-m canonical basis (index 0 is m = -j);
    Jz is diag(m)."""
    d = _dimension_for(j)
    c = _ladder(j, d)
    jx = np.zeros((d, d), dtype=complex)
    jy = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    jx[idx + 1, idx] = c / 2.0
    jx[idx, idx + 1] = c / 2.0
    jy[idx + 1, idx] = -0.5j * c
    jy[idx, idx + 1] = 0.5j * c
    return jx, jy


def _dimension_for(j: float) -> int:
    two_j = 2.0 * j
    if abs(two_j - round(two_j)) > 1e-9 or j < 0.5:
        raise ValueError(f"j must be a half-integer >= 1/2, got {j}")
    return int(round(two_j)) + 1


def _ladder(j: float, d: int) -> np.ndarray:
    """c_m = <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) for m = -j..j-1."""
    m = -j + np.arange(d - 1)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def _jx_eigenvectors(j: float, d: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized eigenvectors of Jx as the columns of a real d x d array,
    and the row index of each column's leading component.

    Column k (eigenvalue k = -j..j) solves the three-term recurrence
    (c_m / 2) v_{m+1} + (c_{m-1} / 2) v_{m-1} = k v_m from v_{-j} = 1, for
    all k at once.  It runs from m = -j, inside the classically forbidden
    zone, inward to the middle, the direction in which it is stable
    (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)); a column is scaled
    down whenever it passes RESCALE_ABOVE.  The other half follows from the
    parity v_{-m} = (-1)^(j-k) v_m.  Columns are normalized and get the sign
    rule of ``hilbert._canonical_phases``: the leading component
    (``_lead_index``) is positive.  These are the columns of the Wigner
    matrix d^j(pi/2), also known as Krawtchouk functions.
    """
    two_k = 2.0 * (-j + np.arange(d))
    half = (d + 1) // 2
    v = np.empty((d, d))
    v[0] = 1.0
    for i in range(half - 1):
        np.multiply(two_k, v[i], out=v[i + 1])
        if i > 0:
            v[i + 1] -= c[i - 1] * v[i - 1]
        v[i + 1] /= c[i]
        big = np.abs(v[i + 1]) > RESCALE_ABOVE
        if big.any():
            v[: i + 2, big] /= RESCALE_ABOVE
    v[:half] /= np.max(np.abs(v[:half]), axis=0)
    np.multiply(v[d - half - 1 :: -1], _jx_parity(d), out=v[half:])
    v /= np.sqrt(np.einsum("mk,mk->k", v, v))
    lead = _lead_index(v)
    v *= np.sign(v[lead, np.arange(d)])
    return v, lead


def _jx_parity(d: int) -> np.ndarray:
    """(-1)^(j-k) per Jx eigenvalue k = -j..j, the sign of v_{-m} / v_m."""
    return np.where(np.arange(d - 1, -1, -1) % 2, -1.0, 1.0)


def _check_jx_gram(v: np.ndarray) -> None:
    """Raise EigensolverError unless the columns of V are orthonormal.

    Columns of opposite parity are orthogonal by the mirror, so the Gram
    matrix is block diagonal, and each parity block folds onto the rows
    above the middle (weighted sqrt 2) plus the middle row of an odd d: two
    real Gram products of a quarter of the full one's work.
    """
    d = v.shape[0]
    fold = np.sqrt(2.0) * v[: d // 2]
    if d % 2:
        fold = np.vstack([fold, v[d // 2]])
    parity = _jx_parity(d)
    dev = max(orthonormality_deviation(fold[:, parity == sign].T) for sign in (1.0, -1.0))
    if dev > ORTHONORMALITY_TOLERANCE:
        raise EigensolverError(f"Jx eigenvectors not orthonormal: max Gram deviation {dev:.3e}")


def _check_jx_residual(v: np.ndarray, c: np.ndarray, k: np.ndarray) -> None:
    """Raise EigensolverError unless ||Jx V - V k||_inf is within tolerance.

    Jx V is two shifted copies of V scaled by c / 2, so the check is O(d^2).
    """
    half_c = (c / 2.0)[:, np.newaxis]
    resid = v * k
    resid[1:] -= half_c * v[:-1]
    resid[:-1] -= half_c * v[1:]
    worst = float(np.max(np.abs(resid)))
    scale = max(float(np.max(half_c, initial=0.0)), 1.0)
    if worst > EIGEN_RESIDUAL_TOLERANCE * scale:
        raise EigensolverError(
            f"Jx eigenpair residual {worst:.3e} exceeds "
            f"{EIGEN_RESIDUAL_TOLERANCE} * scale {scale:.3e}"
        )


@lru_cache(maxsize=16)
def spin_system(j: float) -> ModelSystem:
    """Angular momentum j: z canonical, x from the Jx recurrence, y rotated from x.

    Eigenvalues are exactly -j..+j in unit steps for all three bases.  The
    x basis stores the real recurrence eigenvectors as its rows, gated by
    the O(d^2) Jx residual and a real Gram check.  R_z(pi/2) =
    exp(-i pi Jz / 2) maps Jx to Jy, so y_k[m] = c_k (-i)^(m+j) x_k[m]; c_k
    = i^p with p the reference index of x_k's leading component gives y the
    canonical phases of a diagonalized basis.  Both phase vectors are exact
    powers of i, and y shares x's rows.  Systems are cached.
    """
    j = float(j)
    d = _dimension_for(j)
    c = _ladder(j, d)
    k = -j + np.arange(d)
    v, lead = _jx_eigenvectors(j, d, c)
    _check_jx_residual(v, c, k)
    _check_jx_gram(v)
    # Rows C-contiguous: the products with X run fastest in that layout.
    x = LabeledBasis._orthonormal(np.ascontiguousarray(v.T), k, d)
    y = x.rephased(I_POWERS[lead % 4], MINUS_I_POWERS[np.arange(d) % 4])
    z = LabeledBasis.identity(k)
    # Default pairs at 0.3, 0.4, 0.5 of j keep every stationary point well
    # away from the spectral edge, where the semiclassical structure survives;
    # each is snapped onto the grid, which is half-integer for half-integer j,
    # and kept off 0: at odd integer j, <y_0|x_0> = 0, so (0, 0) has no
    # profile.  Only j = 1 would reach 0; it takes the pair (1, 1).
    offset = j % 1
    vals = sorted({max(round(f * j - offset) + offset, 1.0 - offset) for f in (0.3, 0.4, 0.5)})
    return ModelSystem(f"spin{j:g}", d, {"x": x, "y": y, "z": z},
                       classical_oracle=partial(spin_cone, j),
                       emergence_pairs=tuple((float(va), float(vb)) for va in vals for vb in vals),
                       filter_spacings=SPIN_PROFILE_SMOOTHING_SPACINGS if d > 2 else 0.0,
                       metadata={"j": j})


@lru_cache(maxsize=16)
def ring_system(params: RingParameters, constants: PhysicalConstants) -> ModelSystem:
    """Free particle on a discrete ring.

    Position basis sits at x_n = n L / N.  The momentum basis is the discrete
    Fourier basis with centered indices, eigenvalues p_k = 2 pi hbar k / L,
    so momenta are signed and ordered.  Kinetic energies E_k = p_k^2 / 2M
    give the arrival flight exp(i E_k T / hbar) and the lazy energy basis.
    Position is the identity basis and momentum a unitary DFT, so neither
    needs a Gram check.  Cached, so the O(N^2) momentum rows are built once
    per ring.
    """
    n = params.sites
    length = params.circumference
    hbar = constants.hbar
    x_n = np.arange(n) * (length / n)
    position = LabeledBasis.identity(x_n)
    k = _centered_indices(n)
    p_k = 2.0 * np.pi * hbar * k / length
    # |p_k> amplitudes at site n: exp(i p_k x_n / hbar) / sqrt(N)
    momentum = LabeledBasis.fourier(k, p_k)
    energies = p_k * p_k / (2.0 * params.mass)
    return ModelSystem(
        f"ring{n}",
        n,
        {"position": position, "momentum": momentum},
        classical_oracle=partial(free_flight, params),
        arrival=DiagonalUnitary(momentum, energies * params.flight_time / hbar),
        energy_basis=partial(positive_energy_basis, momentum, energies),
        metadata={
            "sites": float(n),
            "circumference": length,
            "mass": params.mass,
            "flight_time": params.flight_time,
            "hbar": hbar,
            "winding": float(params.winding),
        },
    )


def _centered_indices(n: int) -> np.ndarray:
    if n % 2 == 0:
        return np.arange(-n // 2, n // 2)
    return np.arange(-(n - 1) // 2, (n - 1) // 2 + 1)


def ring_arrival_basis(system: ModelSystem) -> LabeledBasis:
    """Arrival states at every site, labeled by the position grid.

    Row b is the position eigenstate at x_b carried back over the flight
    (``arrival``).  The free flight commutes with translations, so it is
    row 0 shifted by b sites.  The rows are a unitary image of the position
    basis, so there is no Gram check.  Reading final outcomes in this basis
    reads them on arrival: <x_b|U(T)|v> for each b.
    """
    position = system.basis("position")
    n = system.dimension
    first = apply_diagonal(system.arrival, position.state(0)).amplitudes
    rows = np.empty((n, n), dtype=complex)
    for b in range(n):
        rows[b] = np.roll(first, b)
    return LabeledBasis._orthonormal(rows, position.eigenvalues, n)


def positive_energy_basis(momentum: LabeledBasis, energies: np.ndarray) -> LabeledBasis:
    """Energy-labeled sub-basis from the positive-momentum branch of a ring's
    momentum basis, given the kinetic energy of each momentum state.

    The full kinetic spectrum is doubly degenerate in +-p, so it cannot carry
    a strictly increasing label grid; on the positive branch energy is
    monotone in momentum and the labels are valid.  The sub-basis spans only
    half the space: use it for states with negligible negative-momentum
    content (e.g. propagation-time packets).
    """
    keep = momentum.eigenvalues > 0.0
    if int(np.sum(keep)) < 3:
        raise ValueError("ring too small for a positive-momentum energy basis")
    order = np.argsort(energies[keep], kind="stable")
    return momentum.subset(np.flatnonzero(keep)[order], energies[keep][order])


def make_packet(basis: LabeledBasis, center: float, width: float) -> StateVector:
    """Gaussian packet over a labeled basis.

    ``width`` is the standard deviation of the sampled probability profile
    |amplitude|^2 in eigenvalue units.  The amplitudes follow
    exp(-(x - center)^2 / (4 width^2)), normalized; in the width -> 0 limit
    the packet clamps to the nearest basis vector.
    """
    if not (width > 0 and np.isfinite(width)):
        raise ValueError(f"width must be positive, got {width}")
    ev = basis.eigenvalues
    if center < ev[0] or center > ev[-1]:
        raise ValueError(
            f"packet center {center} outside spectrum [{ev[0]}, {ev[-1]}]"
        )
    # Discretization warning uses the spacing where the packet lives; a
    # non-uniform grid may be much coarser far away without consequence.
    nearby = np.abs(ev - center) <= 2.0 * width
    steps = basis.spacing[nearby[:-1] | nearby[1:]]
    local = float(np.max(steps)) if steps.size else float(np.max(basis.spacing))
    if width < 2.0 * local:
        warnings.warn(
            f"packet width {width:g} below 2x the local spacing {local:g}; "
            "the sampled profile will be strongly discretized",
            stacklevel=2,
        )
    # Work relative to the smallest exponent so narrow packets do not
    # underflow to an all-zero vector.
    expo = -((ev - center) ** 2) / (4.0 * width * width)
    amp = np.exp(expo - np.max(expo))
    amp /= np.linalg.norm(amp)
    return StateVector(synthesize(amp.astype(complex), basis))
