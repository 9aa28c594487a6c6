"""Intermediate measurements of configurable resolution and their back-action.

A measurement of the intermediate observable is specified entirely by the
conditional probabilities P(r|x_m) of obtaining outcome r when the system
sits at x_m.  The minimal-decoherence implementation applies the diagonal
operator with entries sqrt(P(r|x_m)); anything noisier adds decoherence the
statistics do not require.  This module builds one ``Measurement`` per
kernel (its basis, P and sqrt(P) together), exact joint outcome statistics
(one P(r, b|a) table, a real product of sqrt(P) with a transfer matrix that
does not depend on the kernel and is built once per sweep, with the
disturbance and factorization metrics read off it once), the slow-kernel
(non-disturbance) condition, and the high-resolution regime where the
measurement resolves the action gradient instead of the intermediate value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .action import ActionProfile, StationaryPoint, gaussian_matrix
from .errors import NotApplicableError
from .hilbert import LabeledBasis, StateVector, expand, scaled_overlaps

KERNEL_COMPLETENESS_TOLERANCE = 1e-12
POVM_TOLERANCE = 1e-10
# Slow-kernel condition: max |P''| / (S''/(2 pi hbar)) must stay below this.
NONDISTURBANCE_THRESHOLD = 0.1
# Least-action regime: 1/delta_x_r at least this factor below |S'|/hbar.
REGIME_GUARD_BAND = 10.0
# Conditional probabilities within this relative distance of the maximum tie.
ARGMAX_TIE_RELATIVE = 1e-12


@dataclass(frozen=True, eq=False)
class Measurement:
    """One intermediate measurement: P(r|x_m) and its operators M(r) on a basis.

    ``table[r, m]`` is the probability of outcome r given the value x_m of
    ``basis`` (whose eigenvalues are the outcome grid); columns sum to one.
    ``sqrt_table`` holds the operators' diagonals sqrt(P(r|x_m)), and
    ``resolution`` the Gaussian width (0 for projective).  Build one with
    ``build_measurement``, which validates the table.
    """

    basis: LabeledBasis
    table: np.ndarray
    sqrt_table: np.ndarray
    resolution: float
    _deviation: float

    @property
    def r_grid(self) -> np.ndarray:
        return self.basis.eigenvalues

    def completeness_deviation(self) -> float:
        """Max elementwise deviation of sum_r M(r)^dag M(r) from identity."""
        return self._deviation


def build_measurement(
    basis: LabeledBasis, table: np.ndarray, resolution: float = 0.0
) -> Measurement:
    """The measurement with P(r|x_m) = ``table[r, m]`` on ``basis``.

    Checks the shape against the basis, finite non-negative entries, column
    sums and the completeness of the operators sqrt(P).  A float table is
    frozen in place, not copied: the measurement takes it over, and the
    caller must not write to it afterwards.
    """
    tab = np.asarray(table, dtype=float)
    if tab.shape != (basis.n_states, basis.n_states):
        raise ValueError(f"table shape {tab.shape} does not match {basis.n_states} states")
    if not np.all(np.isfinite(tab) & (tab >= 0.0)):
        raise ValueError("kernel entries must be finite and non-negative")
    dev = float(np.max(np.abs(tab.sum(axis=0) - 1.0)))
    if dev > KERNEL_COMPLETENESS_TOLERANCE:
        raise ValueError(f"kernel incomplete: max |sum_r P(r|x_m) - 1| = {dev:.3e}")
    sqrt_table = np.sqrt(tab)
    # sum_r M(r)^2 per state, measured on the operators without a d x d square.
    dev = float(np.max(np.abs(np.einsum("rm,rm->m", sqrt_table, sqrt_table) - 1.0)))
    if dev > POVM_TOLERANCE:
        raise ValueError(f"operator completeness violated: {dev:.3e}")
    tab.flags.writeable = False
    sqrt_table.flags.writeable = False
    return Measurement(basis, tab, sqrt_table, float(resolution), dev)


def gaussian_kernel(basis: LabeledBasis, delta_x_r: float) -> Measurement:
    """Gaussian resolution kernel on the basis eigenvalue grid.

    The branch filter's Gaussian (``action.gaussian_matrix``) read along the
    other axis: row r is weighted by dx_r / (sqrt(2 pi) delta_x_r), with dx_r
    the local grid weight (the quadrature rule whose continuum limit
    integrates to one per state), and each column is divided by its sum so
    completeness holds exactly on the finite grid.
    """
    if not (delta_x_r > 0 and np.isfinite(delta_x_r)):
        raise ValueError(f"delta_x_r must be positive, got {delta_x_r}")
    table = gaussian_matrix(basis.eigenvalues, delta_x_r)
    table *= (basis.spacing_per_state() / (np.sqrt(2.0 * np.pi) * delta_x_r))[:, np.newaxis]
    table /= table.sum(axis=0, keepdims=True)
    return build_measurement(basis, table, delta_x_r)


def projective_kernel(basis: LabeledBasis) -> Measurement:
    """Perfect-resolution kernel: outcome r == m with certainty."""
    return build_measurement(basis, np.eye(basis.n_states))


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint statistics P(r, b|a) of an intermediate-plus-final sequence.

    ``table`` is the one d x d array, |sqrt(P) Y|^2 for the transfer matrix
    Y[m, b] = <m|a><b|m>; the per-b quantities derive from it.
    ``total_variation`` is half the summed |sum_r P(r,b|a) - P(b|a)|, the
    standard distance between the r-marginalized final distribution and the
    undisturbed baseline.  ``factorization_residual`` measures how far the
    joint is from P(r|a,b) P(b|a), the hallmark of a disturbance-free
    measurement.
    """

    r_grid: np.ndarray             # the measurement's read-only outcome grid
    table: np.ndarray              # P(r, b | a)
    baseline: np.ndarray           # P(b | a) without measurement
    total_variation: float
    factorization_residual: float

    @property
    def total_probability(self) -> float:
        return float(self.table.sum())

    def conditional_argmax(self, b_index: int) -> float:
        """Outcome x_r maximizing P(r|a,b) for one final outcome.

        Outcomes within ARGMAX_TIE_RELATIVE of the maximum tie, and the
        largest tied x_r wins.  The +-r symmetry of transverse spin states
        makes exact ties, which a plain argmax would let roundoff break.
        P(r|a,b) is column ``b_index`` of the table over its sum, and that
        positive scale cannot change the ties, so the column is read as is.
        """
        col = self.table[:, b_index]
        tied = np.flatnonzero(col >= (1.0 - ARGMAX_TIE_RELATIVE) * np.max(col))
        return float(self.r_grid[tied[-1]])


def joint_distribution(
    a: StateVector, final_basis: LabeledBasis, measurement: Measurement
) -> JointDistribution:
    """P(r,b|a) = |<b|M(r)|a>|^2 over all outcomes and final states.

    <b|M(r)|a> = sum_m sqrt(P(r|x_m)) Y[m, b] (``_transfer``): one real
    product on Y's interleaved real and imaginary parts.  As P >= 0, the
    factorization residual is max_b (max_r P / P_b) |P(b|a) - P_b|, with P_b
    the column sum; the ratio is at most one, so a tiny P_b cannot overflow.
    """
    inter = measurement.basis
    if a.dim != inter.dim or final_basis.dim != inter.dim:
        raise ValueError("dimension mismatch between state, bases and operators")
    amp = measurement.sqrt_table @ _transfer(a, inter, final_basis).view(float)
    np.square(amp, out=amp)
    table = amp[:, 0::2] + amp[:, 1::2]
    baseline = np.abs(expand(a, final_basis)) ** 2
    marginal_b = table.sum(axis=0)
    safe = np.where(marginal_b > 0.0, marginal_b, 1.0)
    return JointDistribution(
        r_grid=measurement.r_grid,
        table=table,
        baseline=baseline,
        total_variation=0.5 * float(np.abs(marginal_b - baseline).sum()),
        factorization_residual=float(np.max(table.max(axis=0) / safe * np.abs(baseline - safe))),
    )


@lru_cache(maxsize=1)
def _transfer(a: StateVector, inter: LabeledBasis, final: LabeledBasis) -> np.ndarray:
    """Y[m, b] = <m|a><b|m>, read-only and C-contiguous (its float view
    interleaves real and imaginary parts).  Independent of the kernel, so a
    sweep builds it once: the keys are immutable and hash by identity."""
    y = scaled_overlaps(expand(a, inter), inter, final)
    y.flags.writeable = False
    return y


@dataclass(frozen=True)
class SlowKernelReport:
    """Comparison of kernel curvature against action curvature.

    The intermediate measurement leaves the a -> b causality intact when
    P(r|x_m) curves much less than S''(x_m)/(2 pi hbar) across the stationary
    region.  ``max_ratio`` is the worst |P''| / (S''/(2 pi hbar)) over the
    support (inf where S'' vanishes on it); the check passes when it stays
    under NONDISTURBANCE_THRESHOLD.
    """

    max_ratio: float
    passed: bool
    n_support: int


def nondisturbance_check(
    measurement: Measurement,
    profile: ActionProfile,
    points: list[StationaryPoint],
) -> SlowKernelReport:
    """Evaluate the slow-kernel condition around the stationary regions.

    Support: grid points within one disturbance-free interval delta_x_m of
    one of the profile's stationary ``points`` (that is where contributions
    survive and the separation argument must hold), intersected with points
    of finite action curvature (all of them when ``points`` is empty).
    Kernel curvature is differenced along x_m for every outcome row, on the
    support columns only; the edge columns take their neighbour's value.
    The check passes when the ratio stays under NONDISTURBANCE_THRESHOLD.
    hbar is the profile's.
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
        return SlowKernelReport(np.nan, False, 0)
    scurv = np.abs(profile.curvature[support]) / (2.0 * np.pi * profile.hbar)
    if not np.all(scurv):
        # A flat action (S'' = 0) gives no curvature scale to separate against.
        return SlowKernelReport(np.inf, False, n_support)
    # Second difference of each kernel row at the support columns c, with
    # the ufunc sequence of np.diff(table, 2, axis=1); the edge columns are
    # clipped onto their neighbour.
    t = measurement.table
    c = np.clip(np.flatnonzero(support), 1, profile.dim - 2)
    pcurv = np.abs((t[:, c + 1] - t[:, c]) - (t[:, c] - t[:, c - 1])) / (
        profile.spacing[c] ** 2
    )
    max_ratio = float(np.max(pcurv / scurv[np.newaxis, :]))
    passed = bool(max_ratio < NONDISTURBANCE_THRESHOLD)
    return SlowKernelReport(max_ratio, passed, n_support)


class Regime(enum.Enum):
    """Where a measurement outcome sits relative to the action-gradient scale."""

    LEAST_ACTION = "least-action"
    QUANTUM = "quantum"
    BOUNDARY = "boundary"


def regime_classifier(measurement: Measurement, profile: ActionProfile, r_value: float) -> Regime:
    """Classify outcome r by comparing 1/delta_x_r with |dS/dx|/hbar there.

    Quantum regime when the resolution exceeds the gradient scale (the least
    action approximation fails), least-action when it is at least
    REGIME_GUARD_BAND below it, boundary in between.  A projective kernel is always
    quantum.
    """
    if measurement.resolution <= 0.0:
        return Regime.QUANTUM
    grad_scale = abs(profile.gradient_at(r_value)) / profile.hbar
    inv_res = 1.0 / measurement.resolution
    if inv_res > grad_scale:
        return Regime.QUANTUM
    if inv_res < grad_scale / REGIME_GUARD_BAND:
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
    measurement: Measurement, profile: ActionProfile, r_value: float
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
    regime = regime_classifier(measurement, profile, r_value)
    if regime is Regime.LEAST_ACTION:
        raise NotApplicableError(
            "outcome sits in the least-action regime; the gradient expansion "
            "does not apply"
        )
    hbar = profile.hbar
    delta = measurement.resolution
    r_idx = int(np.argmin(np.abs(measurement.r_grid - r_value)))
    x_r = float(measurement.r_grid[r_idx])
    grad = profile.gradient_at(x_r)
    t_local = complex(profile.amp_product[r_idx])
    x = profile.x_grid
    w = profile.spacing
    sqrt_row = measurement.sqrt_table[r_idx]
    phase = np.exp(1j * grad * (x - x_r) / hbar)
    dx_local = float(w[r_idx])
    fourier = t_local / dx_local * complex(np.sum(sqrt_row * phase * w))
    suppression = float(np.exp(-((delta * grad / hbar) ** 2)))
    if delta > 0.0:
        prefactor = (8.0 * np.pi * delta**2 / dx_local**2) ** 0.25
        closed = t_local * prefactor * suppression
    else:
        closed = complex(np.nan, np.nan)
    exact = complex(np.sum(profile.amp_product_bare * sqrt_row))
    # Truncation distorts the Gaussian picture near the spectrum ends.
    margin = 3.0 * delta
    near_edge = bool(x_r < x[0] + margin or x_r > x[-1] - margin)
    return HighResolutionAmplitude(
        exact=exact,
        fourier=complex(fourier),
        closed_form=complex(closed),
        gradient=float(grad),
        suppression=suppression,
        near_edge=near_edge,
    )

