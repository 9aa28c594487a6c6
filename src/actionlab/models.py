"""Model systems with analytically known classical limits.

Three families, each exposing named labeled bases over a common reference
basis:

* ``qubit_system`` — hand-checkable two-level system with mutually unbiased
  x, y, z bases (eigenvalues ±1/2).
* ``spin_system(j)`` — angular momentum j: canonical z basis, x basis from
  diagonalizing the standard tridiagonal Jx, y basis rotated from x about z.
* ``ring_system(params)`` — free particle on a discrete ring: position basis
  and discrete-Fourier momentum basis with signed, centered momenta.

All three constructors are cached, so a process builds each model once.

Reference-basis convention: index k corresponds to the k-th eigenvalue of
the canonical basis in ascending order (for spin, index 0 is m = -j).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .hilbert import (
    DEFAULT_CONSTANTS,
    DiagonalUnitary,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    _canonical_phases,
    _check_residual,
    apply_diagonal,
    hermitian_eigen,
    orthonormality_deviation,
    synthesize,
)

@dataclass(frozen=True)
class ClassicalOracle:
    """Closed-form prediction for the least-action intermediate value."""

    kind: str
    parameters: tuple[tuple[str, float], ...]

    def params(self) -> dict[str, float]:
        return dict(self.parameters)

    def predict(self, x_a: float, x_b: float) -> tuple[float, ...]:
        """Predicted stationary intermediate values; empty if forbidden."""
        p = self.params()
        if self.kind == "spin_cone":
            j = p["j"]
            rsq = j * (j + 1.0) - x_a * x_a - x_b * x_b
            if rsq <= 0.0:
                return ()
            root = float(np.sqrt(rsq))
            return (-root, root)
        if self.kind == "free_momentum":
            dx = wrap_displacement(x_b - x_a, p["circumference"], int(p.get("winding", 0)))
            return (p["mass"] * dx / p["flight_time"],)
        raise ValueError(f"unknown oracle kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSystem:
    """A named model: dimension, labeled bases, classical oracle."""

    name: str
    dimension: int
    bases: Mapping[str, LabeledBasis]
    classical_oracle: ClassicalOracle
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
        """Max unitarity defect across bases, recomputed from the stored vectors."""
        return max(orthonormality_deviation(b.vectors) for b in self.bases.values())


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


@lru_cache(maxsize=1)
def qubit_system() -> ModelSystem:
    """Two-level system with hand-built mutually unbiased x, y, z bases (cached)."""
    s = 1.0 / np.sqrt(2.0)
    ev = np.array([-0.5, 0.5])
    z = LabeledBasis.identity(ev)
    x = LabeledBasis(np.array([[s, -s], [s, s]]), ev)
    y = LabeledBasis(np.array([[s, 1j * s], [1j * s, s]]), ev)
    oracle = ClassicalOracle("spin_cone", (("j", 0.5),))
    return ModelSystem("qubit", 2, {"x": x, "y": y, "z": z}, classical_oracle=oracle)


def angular_momentum_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jx, Jy, Jz in the ascending-m canonical basis (index 0 is m = -j)."""
    d = _dimension_for(j)
    m = -j + np.arange(d)
    c = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))  # <m+1|J+|m>
    jx = np.zeros((d, d), dtype=complex)
    jy = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    jx[idx + 1, idx] = c / 2.0
    jx[idx, idx + 1] = c / 2.0
    jy[idx + 1, idx] = -0.5j * c
    jy[idx, idx + 1] = 0.5j * c
    jz = np.diag(m.astype(complex))
    return jx, jy, jz


def _dimension_for(j: float) -> int:
    two_j = 2.0 * j
    if abs(two_j - round(two_j)) > 1e-9 or j < 0.5:
        raise ValueError(f"j must be a half-integer >= 1/2, got {j}")
    return int(round(two_j)) + 1


@lru_cache(maxsize=16)
def spin_system(j: float) -> ModelSystem:
    """Angular momentum j: z canonical, x diagonalized, y rotated from x.

    Eigenvalues run -j..+j in unit steps for all three bases.  Systems are
    cached: construction costs one dense diagonalization, of Jx.  The y basis
    follows from it because R_z(pi/2) = exp(-i pi Jz / 2) maps Jx to Jy, so
    |y_k> is |x_k> times the diagonal phases exp(-i pi m / 2); it gets the
    same canonical phases and residual gate as a diagonalized basis.
    """
    j = float(j)
    d = _dimension_for(j)
    jx, jy, _ = angular_momentum_matrices(j)
    mgrid = -j + np.arange(d)
    z = LabeledBasis.identity(mgrid)
    x = hermitian_eigen(jx)
    vy = _canonical_phases((x.vectors * np.exp(-0.5j * np.pi * mgrid)).T)
    _check_residual(jy, x.eigenvalues, vy)
    y = LabeledBasis(vy.T, x.eigenvalues)
    oracle = ClassicalOracle("spin_cone", (("j", j),))
    return ModelSystem(f"spin{j:g}", d, {"x": x, "y": y, "z": z}, classical_oracle=oracle,
                       metadata={"j": j})


@lru_cache(maxsize=16)
def ring_system(
    params: RingParameters, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> ModelSystem:
    """Free particle on a discrete ring.

    Position basis sits at x_n = n L / N.  The momentum basis is the discrete
    Fourier basis with centered indices, eigenvalues p_k = 2 pi hbar k / L,
    so momenta are signed and ordered.  Kinetic energies E_k = p_k^2 / 2M are
    recorded per momentum state in ``metadata``-adjacent arrays via
    ``ring_energies``.  Position is the identity basis and momentum a unitary
    DFT, so neither needs a Gram check.  Cached, so the O(N^2) momentum rows
    are built once per ring.
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
    oracle = ClassicalOracle(
        "free_momentum",
        (
            ("mass", params.mass),
            ("flight_time", params.flight_time),
            ("circumference", length),
            ("winding", float(params.winding)),
        ),
    )
    return ModelSystem(
        f"ring{n}",
        n,
        {"position": position, "momentum": momentum},
        classical_oracle=oracle,
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


def ring_energies(system: ModelSystem) -> np.ndarray:
    """Kinetic energy per momentum-basis state, aligned with its eigenvalue order."""
    p = system.basis("momentum").eigenvalues
    return p * p / (2.0 * system.metadata["mass"])


def ring_arrival_state(system: ModelSystem, x_b: float) -> StateVector:
    """Measurement state for arrival at x_b after the configured flight time.

    The position eigenstate at x_b is carried back to the reference time with
    the free-Hamiltonian phases (hbar is the one the ring was built with), so
    preparation and measurement states live in a common frame.
    """
    target = system.basis("position").state_at(x_b, label=f"arrival@{x_b:g}")
    phases = ring_energies(system) * system.metadata["flight_time"] / system.metadata["hbar"]
    return apply_diagonal(DiagonalUnitary(system.basis("momentum"), phases), target)


def positive_energy_basis(system: ModelSystem) -> LabeledBasis:
    """Energy-labeled sub-basis from the positive-momentum branch of a ring.

    The full kinetic spectrum is doubly degenerate in +-p, so it cannot carry
    a strictly increasing label grid; on the positive branch energy is
    monotone in momentum and the labels are valid.  The sub-basis spans only
    half the space: use it for states with negligible negative-momentum
    content (e.g. propagation-time packets).
    """
    momentum = system.basis("momentum")
    energies = ring_energies(system)
    keep = momentum.eigenvalues > 0.0
    if int(np.sum(keep)) < 3:
        raise ValueError("ring too small for a positive-momentum energy basis")
    order = np.argsort(energies[keep], kind="stable")
    return momentum.subset(np.flatnonzero(keep)[order], energies[keep][order])


def make_packet(
    basis: LabeledBasis, center: float, width: float, label: str | None = None
) -> StateVector:
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
    return StateVector(synthesize(amp.astype(complex), basis), label=label)
