"""Intermediate measurements of configurable resolution and their back-action.

A measurement of the intermediate observable is specified entirely by the
conditional probabilities P(r|x_m) of obtaining outcome r when the system
sits at x_m.  The minimal-decoherence implementation applies the diagonal
operator with entries sqrt(P(r|x_m)); anything noisier adds decoherence the
statistics do not require.  This module builds resolution kernels, the
operator sets, exact joint outcome statistics, disturbance and factorization
metrics, the slow-kernel (non-disturbance) condition, and the
high-resolution regime where the measurement resolves the action gradient
instead of the intermediate value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .action import ActionProfile, StationaryPoint
from .errors import NotApplicableError
from .hilbert import (
    DEFAULT_CONSTANTS,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    expand,
)

KERNEL_COMPLETENESS_TOLERANCE = 1e-12
POVM_TOLERANCE = 1e-10


class ResolutionKernel:
    """Conditional outcome probabilities P(r|x_m) on an outcome grid.

    ``table[r, m]`` is the probability of outcome r given the intermediate
    value x_m; every column sums to one.  ``resolution`` records the Gaussian
    standard deviation for kernels that have one (0 for projective).
    """

    __slots__ = ("r_grid", "table", "resolution")

    def __init__(self, r_grid, table, resolution: float = 0.0):
        grid = np.asarray(r_grid, dtype=float)
        tab = np.asarray(table, dtype=float)
        if tab.ndim != 2 or tab.shape[0] != grid.shape[0]:
            raise ValueError(f"table shape {tab.shape} does not match {grid.shape[0]} outcomes")
        if np.any(tab < 0.0):
            raise ValueError("kernel entries must be non-negative")
        colsums = tab.sum(axis=0)
        dev = float(np.max(np.abs(colsums - 1.0)))
        if dev > KERNEL_COMPLETENESS_TOLERANCE:
            raise ValueError(
                f"kernel incomplete: max |sum_r P(r|x_m) - 1| = {dev:.3e}"
            )
        tab = tab.copy()
        tab.flags.writeable = False
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "r_grid", grid)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "resolution", float(resolution))

    def __setattr__(self, name, value):
        raise AttributeError("ResolutionKernel is immutable")

    @property
    def n_outcomes(self) -> int:
        return self.r_grid.shape[0]

    @property
    def n_states(self) -> int:
        return self.table.shape[1]

    def to_columns(self) -> dict[str, np.ndarray]:
        r_idx, m_idx = np.meshgrid(
            np.arange(self.n_outcomes), np.arange(self.n_states), indexing="ij"
        )
        return {
            "r_index": r_idx.ravel(),
            "m_index": m_idx.ravel(),
            "x_r": self.r_grid[r_idx.ravel()],
            "P_r_given_m": self.table.ravel(),
        }


def gaussian_kernel(basis: LabeledBasis, delta_x_r: float) -> ResolutionKernel:
    """Gaussian resolution kernel on the basis eigenvalue grid.

    Raw entries are dx_r / (sqrt(2 pi) delta_x_r) * exp(-(x_m - x_r)^2 /
    (2 delta_x_r^2)) with dx_r the local grid weight, i.e. the quadrature
    rule whose continuum limit integrates to one per state; each column is
    then renormalized so completeness holds exactly despite edge truncation.
    """
    raw = gaussian_kernel_raw(basis, delta_x_r)
    table = raw / raw.sum(axis=0, keepdims=True)
    return ResolutionKernel(basis.eigenvalues, table, resolution=delta_x_r)


def gaussian_kernel_raw(basis: LabeledBasis, delta_x_r: float) -> np.ndarray:
    """Pre-renormalization Gaussian kernel entries (edge-truncation visible)."""
    if not (delta_x_r > 0 and np.isfinite(delta_x_r)):
        raise ValueError(f"delta_x_r must be positive, got {delta_x_r}")
    x = basis.eigenvalues
    w = basis.spacing_per_state()
    return (
        w[:, np.newaxis]
        / (np.sqrt(2.0 * np.pi) * delta_x_r)
        * np.exp(-((x[np.newaxis, :] - x[:, np.newaxis]) ** 2) / (2.0 * delta_x_r**2))
    )


def projective_kernel(basis: LabeledBasis) -> ResolutionKernel:
    """Perfect-resolution kernel: outcome r == m with certainty."""
    return ResolutionKernel(basis.eigenvalues, np.eye(basis.n_states), resolution=0.0)


class MeasurementOperatorSet:
    """Minimal-decoherence operators M(r), diagonal in the intermediate basis."""

    __slots__ = ("basis", "kernel", "sqrt_table")

    def __init__(self, basis: LabeledBasis, kernel: ResolutionKernel):
        if kernel.n_states != basis.n_states:
            raise ValueError(
                f"kernel covers {kernel.n_states} states, basis has {basis.n_states}"
            )
        sqrt_table = np.sqrt(kernel.table)
        dev = float(np.max(np.abs((sqrt_table**2).sum(axis=0) - 1.0)))
        if dev > POVM_TOLERANCE:
            raise ValueError(f"operator completeness violated: {dev:.3e}")
        sqrt_table.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "sqrt_table", sqrt_table)

    def __setattr__(self, name, value):
        raise AttributeError("MeasurementOperatorSet is immutable")

    @property
    def n_outcomes(self) -> int:
        return self.kernel.n_outcomes

    def completeness_deviation(self) -> float:
        """Max elementwise deviation of sum_r M(r)^dag M(r) from identity."""
        return float(np.max(np.abs((self.sqrt_table**2).sum(axis=0) - 1.0)))

    def amplitude(self, a: StateVector, b: StateVector) -> np.ndarray:
        """<b|M(r)|a> for every outcome r."""
        amps_a = expand(a, self.basis)
        amps_b = expand(b, self.basis)
        return self.sqrt_table @ (np.conj(amps_b) * amps_a)


def build_measurement(kernel: ResolutionKernel, basis: LabeledBasis) -> MeasurementOperatorSet:
    """Operators with diagonal entries sqrt(P(r|x_m)); completeness guaranteed."""
    return MeasurementOperatorSet(basis, kernel)


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint statistics P(r, b|a) of an intermediate-plus-final sequence.

    ``disturbance_per_b`` holds |sum_r P(r,b|a) - P(b|a)| per final outcome;
    ``total_variation`` is half their sum (the standard distance between the
    r-marginalized final distribution and the undisturbed baseline).
    ``factorization_residual`` measures how far the joint is from
    P(r|a,b) P(b|a), the hallmark of a disturbance-free measurement.
    """

    r_grid: np.ndarray
    b_grid: np.ndarray
    table: np.ndarray              # P(r, b | a)
    baseline: np.ndarray           # P(b | a) without measurement
    marginal_b: np.ndarray         # sum_r P(r, b | a)
    conditional: np.ndarray        # P(r | a, b)
    factorized: np.ndarray         # P(r | a, b) P(b | a)
    disturbance_per_b: np.ndarray
    total_variation: float
    factorization_residual: float

    @property
    def total_probability(self) -> float:
        return float(self.table.sum())

    def conditional_argmax(self, b_index: int) -> float:
        """Outcome x_r maximizing P(r|a,b) for one final outcome."""
        return float(self.r_grid[int(np.argmax(self.conditional[:, b_index]))])

    def to_columns(self) -> dict[str, np.ndarray]:
        r_idx, b_idx = np.meshgrid(
            np.arange(len(self.r_grid)), np.arange(len(self.b_grid)), indexing="ij"
        )
        rr, bb = r_idx.ravel(), b_idx.ravel()
        return {
            "x_r": self.r_grid[rr],
            "x_b": self.b_grid[bb],
            "P_rb": self.table[rr, bb],
            "baseline": self.baseline[bb],
            "factorized": self.factorized[rr, bb],
            "residual": (self.table - self.factorized)[rr, bb],
        }


def joint_distribution(
    a: StateVector, final_basis: LabeledBasis, ops: MeasurementOperatorSet
) -> JointDistribution:
    """P(r,b|a) = |<b|M(r)|a>|^2 over all outcomes and final states."""
    inter = ops.basis
    if a.dim != inter.dim or final_basis.dim != inter.dim:
        raise ValueError("dimension mismatch between state, bases and operators")
    amps_a = expand(a, inter)
    # <b_k|m> = conj(<m|b_k>); rows b, columns m.
    overlaps = final_basis.vectors.conj() @ inter.vectors.T
    amp = (ops.sqrt_table * amps_a[np.newaxis, :]) @ overlaps.T
    table = np.abs(amp) ** 2
    baseline = np.abs(final_basis.vectors.conj() @ a.amplitudes) ** 2
    marginal_b = table.sum(axis=0)
    safe = np.where(marginal_b > 0.0, marginal_b, 1.0)
    conditional = table / safe[np.newaxis, :]
    factorized = conditional * baseline[np.newaxis, :]
    disturbance = np.abs(marginal_b - baseline)
    return JointDistribution(
        r_grid=ops.kernel.r_grid.copy(),
        b_grid=final_basis.eigenvalues.copy(),
        table=table,
        baseline=baseline,
        marginal_b=marginal_b,
        conditional=conditional,
        factorized=factorized,
        disturbance_per_b=disturbance,
        total_variation=0.5 * float(disturbance.sum()),
        factorization_residual=float(np.max(np.abs(table - factorized))),
    )


@dataclass(frozen=True)
class SlowKernelReport:
    """Comparison of kernel curvature against action curvature.

    The intermediate measurement leaves the a -> b causality intact when
    P(r|x_m) curves much less than S''(x_m)/(2 pi hbar) across the stationary
    region.  ``max_ratio`` is the worst |P''| / (S''/(2 pi hbar)) over the
    support (inf where S'' vanishes on it); the check passes when it stays
    under ``threshold``.
    """

    max_ratio: float
    threshold: float
    passed: bool
    n_support: int


def nondisturbance_check(
    kernel: ResolutionKernel,
    profile: ActionProfile,
    points: list[StationaryPoint],
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    threshold: float = 0.1,
) -> SlowKernelReport:
    """Evaluate the slow-kernel condition around the stationary regions.

    Support: grid points within one disturbance-free interval delta_x_m of
    one of the profile's stationary ``points`` (that is where contributions
    survive and the separation argument must hold), intersected with points
    of finite action curvature (all of them when ``points`` is empty).
    Kernel curvature is differenced along x_m for every outcome row.
    """
    x = profile.x_grid
    finite_curv = np.isfinite(profile.curvature)
    if points:
        support = np.zeros(profile.dim, dtype=bool)
        for pt in points:
            support |= np.abs(x - pt.x_star) <= pt.delta_x_m
        support &= finite_curv
    else:
        support = finite_curv
    n_support = int(support.sum())
    if n_support == 0:
        return SlowKernelReport(np.nan, threshold, False, 0)
    scurv = np.abs(profile.curvature[support]) / (2.0 * np.pi * constants.hbar)
    if not np.all(scurv):
        # A flat action (S'' = 0) gives no curvature scale to separate against.
        return SlowKernelReport(np.inf, threshold, False, n_support)
    # Second derivative of each kernel row along the eigenvalue grid.
    table = kernel.table
    pcurv = np.empty_like(table)
    pcurv[:, 1:-1] = np.abs(np.diff(table, 2, axis=1)) / (
        profile.spacing[1:-1] ** 2
    )
    pcurv[:, 0] = pcurv[:, 1]
    pcurv[:, -1] = pcurv[:, -2]
    ratios = pcurv[:, support] / scurv[np.newaxis, :]
    max_ratio = float(np.max(ratios))
    return SlowKernelReport(max_ratio, threshold, bool(max_ratio < threshold), n_support)


class Regime(enum.Enum):
    """Where a measurement outcome sits relative to the action-gradient scale."""

    LEAST_ACTION = "least-action"
    QUANTUM = "quantum"
    BOUNDARY = "boundary"


def regime_classifier(
    kernel: ResolutionKernel,
    profile: ActionProfile,
    r_value: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    guard_band: float = 10.0,
) -> Regime:
    """Classify outcome r by comparing 1/delta_x_r with |dS/dx|/hbar there.

    Quantum regime when the resolution exceeds the gradient scale (the least
    action approximation fails), least-action when it is at least a guard
    band below it, boundary in between.  A projective kernel is always
    quantum.
    """
    if kernel.resolution <= 0.0:
        return Regime.QUANTUM
    grad_scale = abs(profile.gradient_at(r_value)) / constants.hbar
    inv_res = 1.0 / kernel.resolution
    if inv_res > grad_scale:
        return Regime.QUANTUM
    if inv_res < grad_scale / guard_band:
        return Regime.LEAST_ACTION
    return Regime.BOUNDARY


@dataclass(frozen=True)
class HighResolutionAmplitude:
    """Gradient-resolving estimates of <b|M(r)|a> next to the exact value."""

    exact: complex
    fourier: complex               # discrete window transform at the local gradient
    closed_form: complex           # Gaussian-kernel closed form
    gradient: float
    suppression: float             # exp(-(delta_x_r * S' / hbar)^2)
    near_edge: bool                # outcome within 3 delta_x_r of a spectrum end


def high_res_amplitude(
    kernel: ResolutionKernel,
    profile: ActionProfile,
    r_value: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HighResolutionAmplitude:
    """Measurement amplitude in the high-resolution regime.

    The kernel window around x_r is narrow on the scale where the action
    curves, so the amplitude reduces to a Fourier transform of
    sqrt(P(r|x')) at the local action gradient: the measurement resolves the
    gradient, not the intermediate value.  Returns the discrete transform,
    the Gaussian closed form <b|m><m|a> (8 pi dxr^2/dxm^2)^(1/4)
    exp(-(dxr S'/hbar)^2) (local amplitude taken from the profile, which is
    branch-filtered where that matters), and the exact matrix element
    sum_m <b|m><m|a> sqrt(P(r|x_m)).  Outcomes classified least-action raise
    NotApplicableError; the expansion holds from the boundary regime up.
    """
    regime = regime_classifier(kernel, profile, r_value, constants)
    if regime is Regime.LEAST_ACTION:
        raise NotApplicableError(
            "outcome sits in the least-action regime; the gradient expansion "
            "does not apply"
        )
    hbar = constants.hbar
    r_idx = int(np.argmin(np.abs(kernel.r_grid - r_value)))
    x_r = float(kernel.r_grid[r_idx])
    grad = profile.gradient_at(x_r)
    t_local = complex(profile.amp_product[r_idx])
    x = profile.x_grid
    w = profile.spacing
    sqrt_row = np.sqrt(kernel.table[r_idx, :])
    phase = np.exp(1j * grad * (x - x_r) / hbar)
    dx_local = float(w[r_idx])
    fourier = t_local / dx_local * complex(np.sum(sqrt_row * phase * w))
    suppression = float(np.exp(-((kernel.resolution * grad / hbar) ** 2)))
    if kernel.resolution > 0.0:
        prefactor = (8.0 * np.pi * kernel.resolution**2 / dx_local**2) ** 0.25
        closed = t_local * prefactor * suppression
    else:
        closed = complex(np.nan, np.nan)
    exact = complex(np.sum(profile.amp_product_bare * sqrt_row))
    # Truncation distorts the Gaussian picture near the spectrum ends.
    margin = 3.0 * kernel.resolution
    near_edge = bool(x_r < x[0] + margin or x_r > x[-1] - margin)
    return HighResolutionAmplitude(
        exact=exact,
        fourier=complex(fourier),
        closed_form=complex(closed),
        gradient=float(grad),
        suppression=suppression,
        near_edge=near_edge,
    )


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
    kernel: ResolutionKernel,
    profile: ActionProfile,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GradientRecovery:
    """Invert the Gaussian suppression factor into |dS/dx| per outcome.

    ``amplitudes`` are measured (or exactly computed) <b|M(r)|a> values on
    the kernel outcome grid.  The magnitude ratio against the unsuppressed
    local amplitude gives exp(-(dxr S'/hbar)^2); outcomes whose ratio exceeds
    one (noise) or underflows are masked.
    """
    if kernel.resolution <= 0.0:
        raise ValueError("gradient recovery requires a finite-resolution Gaussian kernel")
    amp = np.asarray(amplitudes, dtype=complex)
    if amp.shape != (kernel.n_outcomes,):
        raise ValueError(f"need {kernel.n_outcomes} amplitudes, got {amp.shape}")
    hbar = constants.hbar
    w = profile.spacing
    prefactor = (8.0 * np.pi * kernel.resolution**2 / w**2) ** 0.25
    base = profile.magnitude * prefactor
    recovered = np.full(kernel.n_outcomes, np.nan)
    reference = np.full(kernel.n_outcomes, np.nan)
    ratios = np.full(kernel.n_outcomes, np.nan)
    for i, x_r in enumerate(kernel.r_grid):
        if base[i] <= 0.0 or not profile.valid[i]:
            continue
        ratio = abs(amp[i]) / base[i]
        ratios[i] = ratio
        if not (0.0 < ratio <= 1.0):
            continue
        recovered[i] = hbar / kernel.resolution * np.sqrt(max(-np.log(ratio), 0.0))
        try:
            reference[i] = abs(profile.gradient_at(float(x_r)))
        except ValueError:
            recovered[i] = np.nan
    margin = 3.0 * kernel.resolution
    near_edge = (kernel.r_grid < kernel.r_grid[0] + margin) | (
        kernel.r_grid > kernel.r_grid[-1] - margin
    )
    return GradientRecovery(
        r_grid=kernel.r_grid.copy(),
        recovered=recovered,
        reference=reference,
        suppression=ratios,
        near_edge=near_edge,
    )
