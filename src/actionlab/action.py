"""Action phases of intermediate contributions to a transition amplitude.

For a preparation a, a final outcome b and an intermediate labeled basis
{|m>}, each contribution <b|m><m|a> carries a gauge-invariant phase relative
to the total amplitude <b|a>.  Scaled by hbar this is the action

    S(a, m, b) = hbar * Arg(<b|m><m|a><a|b>),

a principal value in (-pi*hbar, pi*hbar].  Unwrapped over the eigenvalue
grid it behaves like a classical action function: its stationary points are
the classically allowed intermediate values, its gradient is the propagation
time of a narrow-band packet, and its curvature sets the widest intermediate
measurement resolution that leaves the a -> b statistics undisturbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ProfileTooSparseError, UndefinedPhaseError
from .hilbert import (
    DiagonalUnitary,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    expand,
    inner,
)
from .measurement import gaussian_kernel

# A grid point is phase-valid when its contribution magnitude is above this
# fraction of the largest one; Arg is numerically meaningless near nodes.
MAGNITUDE_FLOOR_RELATIVE = 1e-10
# Absolute floor below which no overlap or triple product has a phase.
MAGNITUDE_FLOOR_ABSOLUTE = 1e-150
# Largest action step between neighbouring grid points, in units of hbar,
# that the nearest-multiple unwrapping takes as it is; past it the step is
# alias-suspect and ``action_profile`` masks the derivatives beside it.
ALIAS_LIMIT = 0.8 * np.pi


def action_phase(
    a: StateVector,
    m: StateVector,
    b: StateVector,
    constants: PhysicalConstants,
) -> float:
    """Action of one intermediate contribution, in (-pi*hbar, pi*hbar].

    Refused where one of the three overlaps is the roundoff of an exact
    zero (``_vanishes`` on its reference components): its phase, and so the
    triple's, would change with the global phases of the states.
    """
    triple = 1.0
    for (left, right), name in zip(((b, m), (m, a), (a, b)), ("<b|m>", "<m|a>", "<a|b>")):
        overlap = inner(left, right)
        if _vanishes(overlap, np.conj(left.amplitudes) * right.amplitudes):
            raise UndefinedPhaseError(f"{name} vanishes ({abs(overlap):.3e}); no phase")
        triple *= overlap
    if abs(triple) < MAGNITUDE_FLOOR_ABSOLUTE:
        raise UndefinedPhaseError(
            f"triple-product magnitude {abs(triple):.3e} too small for a phase"
        )
    return constants.hbar * float(np.angle(triple))


def _vanishes(total: complex, terms: np.ndarray) -> bool:
    """True when ``total``, the sum of ``terms``, is the roundoff of an exact
    zero: below d eps times the sum of the magnitudes it adds up (or below
    MAGNITUDE_FLOOR_ABSOLUTE), so its phase is noise."""
    floor = terms.size * np.finfo(float).eps * float(np.sum(np.abs(terms)))
    return abs(total) < max(floor, MAGNITUDE_FLOOR_ABSOLUTE)


@dataclass(frozen=True)
class ActionProfile:
    """Per-grid-point action data between fixed a and b over a labeled basis.

    Arrays are aligned with the basis eigenvalue grid.  ``s_raw`` holds
    principal-value actions where ``valid`` is set; ``s_unwrapped`` is the
    smooth continuation along each contiguous valid segment (segments are
    unwrapped independently and never compared through a node).  Gradient and
    curvature come from three-point finite differences with unequal-spacing
    weights and are NaN wherever the stencil leaves the segment.
    """

    x_grid: np.ndarray
    spacing: np.ndarray            # per-state quadrature weight
    amp_product: np.ndarray        # <b|m><m|a> per m (branch-filtered if smoothed)
    amp_product_bare: np.ndarray   # exact per-point <b|m><m|a>
    inner_ab: complex              # <b|a>
    s_raw: np.ndarray
    s_unwrapped: np.ndarray
    magnitude: np.ndarray
    valid: np.ndarray
    segment_id: np.ndarray         # -1 outside valid support
    gradient: np.ndarray
    curvature: np.ndarray
    rho_a: np.ndarray
    rho_b: np.ndarray
    hbar: float
    smoothing: float = 0.0

    @property
    def dim(self) -> int:
        return self.x_grid.shape[0]

    def gradient_at(self, x: float) -> float:
        """Action gradient at x, from the local shape of the unwrapped action.

        Bare profiles interpolate the finite-difference gradient.  Filtered
        profiles fit a parabola over the filter-matched window instead, which
        averages residual counter-branch leakage out of the slope.
        """
        ok = np.isfinite(self.gradient)
        if not np.any(ok):
            raise ValueError("profile has no finite gradient points")
        xs = self.x_grid[ok]
        if x < xs[0] or x > xs[-1]:
            raise ValueError(
                f"x={x:g} outside gradient support [{xs[0]:g}, {xs[-1]:g}]"
            )
        if self.smoothing > 0.0:
            window = _fit_window(self, int(np.argmin(np.abs(self.x_grid - x))))
            if window is not None:
                return float(np.polyfit(self.x_grid[window] - x, self.s_unwrapped[window], 2)[1])
        return float(np.interp(x, xs, self.gradient[ok]))

    def to_columns(self) -> dict[str, np.ndarray]:
        """Column view used by the CSV/JSON writers."""
        return {
            "index": np.arange(self.dim),
            "x_m": self.x_grid,
            "S_raw": self.s_raw,
            "S_unwrapped": self.s_unwrapped,
            "magnitude": self.magnitude,
            "valid": self.valid.astype(int),
            "gradient": self.gradient,
            "curvature": self.curvature,
            "rho_a": self.rho_a,
            "rho_b": self.rho_b,
        }


@dataclass(frozen=True)
class StationaryPoint:
    """A zero of the action gradient with its resolution limits."""

    x_star: float
    index_star: int
    action_at: float               # unwrapped action at x_star
    curvature_at: float
    delta_x_m: float               # disturbance-free resolution interval
    delta_n: float                 # number of basis states inside delta_x_m
    weak_value_magnitude: float    # |<b|m><m|a> / <b|a>| at the point


def _segments_of(valid: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous runs [start, stop) of True entries."""
    edges = np.flatnonzero(np.diff(np.pad(valid, 1)))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def unwrap_segment(raw: np.ndarray, two_pi: float, anchor: int = 0) -> np.ndarray:
    """Nearest-multiple chaining outward from an anchor index.

    Each step moves by less than half a turn of 2 pi hbar: the turn count
    between neighbours is round((raw[i-1] - raw[i]) / 2 pi hbar), and the
    result is raw plus 2 pi hbar times the cumulative turn count relative to
    the anchor.  When the true point-to-point action difference stays below
    half a turn, the result is independent of the anchor up to the global
    multiple fixed at the anchor itself (the anchor keeps its raw value).
    """
    turns = np.zeros(len(raw), dtype=np.int64)
    np.cumsum(np.round((raw[:-1] - raw[1:]) / two_pi).astype(np.int64), out=turns[1:])
    return raw + two_pi * (turns - turns[anchor])


def _nonuniform_derivatives(x: np.ndarray, f: np.ndarray):
    """Three-point first and second derivatives on a possibly uneven grid."""
    n = len(x)
    grad = np.full(n, np.nan)
    curv = np.full(n, np.nan)
    if n < 3:
        return grad, curv
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    f0, f1, f2 = f[:-2], f[1:-1], f[2:]
    grad[1:-1] = (
        -h2 / (h1 * (h1 + h2)) * f0
        + (h2 - h1) / (h1 * h2) * f1
        + h1 / (h2 * (h1 + h2)) * f2
    )
    curv[1:-1] = 2.0 * (
        f0 / (h1 * (h1 + h2)) - f1 / (h1 * h2) + f2 / (h2 * (h1 + h2))
    )
    return grad, curv


def action_profile(
    a: StateVector | np.ndarray,
    basis: LabeledBasis,
    b: StateVector | np.ndarray,
    constants: PhysicalConstants,
    smoothing: float = 0.0,
) -> ActionProfile:
    """Action, densities and derivatives of the a -> b transition over a basis.

    ``a`` and ``b`` are states, or arrays that already hold their amplitudes
    in ``basis`` (rows of a stacked ``expand``), which are read as they are.

    ``smoothing`` (eigenvalue units) selects the running-wave branch of the
    contribution amplitudes with a normalized Gaussian window before phases
    are taken.  With 0 the phases are those of the bare per-point products.
    A nonzero window is needed whenever a or b is a standing wave in the
    intermediate basis (their components are real up to a global phase, e.g.
    transverse angular-momentum eigenstates in the z basis): the bare
    pointwise phase then alternates between interfering counter-propagating
    branches and no smooth action exists until they are separated.  Choose
    the window wide enough to suppress the counter-branch (a couple of grid
    spacings) and much narrower than the stationary region, so the surviving
    branch is undistorted.
    """
    amps_a = _amplitudes(a, basis)
    amps_b = _amplitudes(b, basis)
    bare_product = np.conj(amps_b) * amps_a
    inner_ab = complex(np.sum(bare_product))
    if _vanishes(inner_ab, bare_product):
        raise UndefinedPhaseError("<b|a> vanishes; action phases are undefined")
    x = basis.eigenvalues
    weights = basis.spacing_per_state()
    if smoothing < 0 or not np.isfinite(smoothing):
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    rho_a_vals = np.abs(amps_a) ** 2 / weights
    rho_b_vals = np.abs(amps_b) ** 2 / weights
    amp_product = bare_product
    if smoothing > 0.0:
        # One real product filters all four real rows; the real kernel is
        # never upcast to complex.
        kernel = _branch_filter(basis, smoothing)
        re, im, rho_a_vals, rho_b_vals = np.stack(
            [bare_product.real, bare_product.imag, rho_a_vals, rho_b_vals]) @ kernel
        amp_product = re + 1j * im
    magnitude = np.abs(amp_product)
    peak = float(np.max(magnitude))
    if peak <= 0.0:
        raise ProfileTooSparseError("all contributions vanish")
    valid = magnitude >= MAGNITUDE_FLOOR_RELATIVE * peak
    # Two contiguous points are enough to relate phases (and are all a qubit
    # has); derivatives additionally need a full three-point stencil.
    segments = [seg for seg in _segments_of(valid) if seg[1] - seg[0] >= 2]
    if not segments:
        raise ProfileTooSparseError(
            "fewer than 2 contiguous phase-valid points; no usable profile"
        )
    hbar = constants.hbar
    two_pi = 2.0 * np.pi * hbar
    s_raw = np.full(basis.n_states, np.nan)
    s_raw[valid] = hbar * np.angle(amp_product[valid] * np.conj(inner_ab))
    s_unwrapped = np.full(basis.n_states, np.nan)
    gradient = np.full(basis.n_states, np.nan)
    curvature = np.full(basis.n_states, np.nan)
    segment_id = np.full(basis.n_states, -1, dtype=int)
    for sid, (lo, hi) in enumerate(segments):
        sl = slice(lo, hi)
        # Canonical anchor: the strongest contribution keeps its raw value,
        # so the result does not depend on where the chaining started.
        anchor = int(np.argmax(magnitude[sl]))
        seg = unwrap_segment(s_raw[sl], two_pi, anchor=anchor)
        s_unwrapped[sl] = seg
        g, c = _nonuniform_derivatives(x[sl], seg)
        # Steps near the half-turn limit are alias-suspect: the nearest-
        # multiple chaining is no longer well posed there, so derivatives
        # across such steps would be sampling artifacts.
        big = np.abs(np.diff(seg)) > ALIAS_LIMIT * hbar
        bad = np.zeros(hi - lo, dtype=bool)
        bad[:-1] |= big
        bad[1:] |= big
        g[bad] = np.nan
        c[bad] = np.nan
        gradient[sl] = g
        curvature[sl] = c
        segment_id[sl] = sid
    return ActionProfile(
        x_grid=x.copy(),
        spacing=weights,
        amp_product=amp_product,
        amp_product_bare=bare_product,
        inner_ab=inner_ab,
        s_raw=s_raw,
        s_unwrapped=s_unwrapped,
        magnitude=magnitude,
        valid=valid,
        segment_id=segment_id,
        gradient=gradient,
        curvature=curvature,
        rho_a=rho_a_vals,
        rho_b=rho_b_vals,
        hbar=hbar,
        smoothing=smoothing,
    )


def _amplitudes(psi: StateVector | np.ndarray, basis: LabeledBasis) -> np.ndarray:
    """``expand(psi, basis)`` of a state; an array is taken as those amplitudes."""
    if isinstance(psi, StateVector):
        return expand(psi, basis)
    if psi.shape != (basis.n_states,):
        raise ValueError(f"need {basis.n_states} amplitudes, got shape {psi.shape}")
    return psi


@lru_cache(maxsize=4)
def _branch_filter(basis: LabeledBasis, smoothing: float) -> np.ndarray:
    """The branch filter: ``gaussian_kernel(basis, smoothing)``'s d x d P,
    whose entry (j, i) = P(j|x_i) weights amplitude j in the average around
    state i (a row vector times P).  Cached per (basis, width), as an
    emergence scan filters every pair over one basis; at most four
    read-only d x d arrays."""
    table = gaussian_kernel(basis, smoothing).at(slice(None), slice(None))
    table.flags.writeable = False
    return table


def _fit_halfwidth(profile: ActionProfile, idx: int) -> int:
    """Half-width of the local quadratic fit, in grid cells.

    One cell (the classic three-point parabola) for bare profiles; for
    branch-filtered profiles the fit widens to ~2x the smoothing window so
    that residual counter-branch leakage averages out of the curvature.
    """
    if profile.smoothing <= 0.0:
        return 1
    cell = float(profile.spacing[idx])
    return max(1, int(np.ceil(2.0 * profile.smoothing / cell)))


def _fit_window(profile: ActionProfile, idx: int) -> slice | None:
    """Grid slice of the local quadratic fit around idx, clipped to its segment;
    None outside the valid support, below three points or on non-finite action."""
    sid = profile.segment_id[idx]
    if sid < 0:
        return None
    in_seg = np.flatnonzero(profile.segment_id == sid)
    w = _fit_halfwidth(profile, idx)
    lo = max(idx - w, int(in_seg[0]))
    hi = min(idx + w, int(in_seg[-1]))
    if hi - lo < 2 or not np.all(np.isfinite(profile.s_unwrapped[lo : hi + 1])):
        return None
    return slice(lo, hi + 1)


def _quadratic_fit(x: np.ndarray, f: np.ndarray, x0: float):
    """Least-squares parabola around x0; returns (vertex_x, vertex_f, curvature)."""
    u = x - x0
    coef = np.polyfit(u, f, 2)
    second = 2.0 * coef[0]
    if second == 0.0:
        return None, None, 0.0
    vx = x0 - coef[1] / second
    vf = float(np.polyval(coef, vx - x0))
    return float(vx), vf, float(second)


def stationary_points(profile: ActionProfile) -> list[StationaryPoint]:
    """All gradient sign changes, refined by a local parabola in the action.

    The location and curvature come from a least-squares quadratic around
    each sign change (three points on bare profiles, a window matched to the
    branch filter on smoothed ones).  Points are sorted by |curvature|
    descending (the first entry dominates the resolution limits).  An empty
    list is legal: it means no classically allowed intermediate value exists
    for this a, b pair.
    """
    x = profile.x_grid
    g0, g1 = profile.gradient[:-1], profile.gradient[1:]
    sids = profile.segment_id
    sign_change = ((sids[:-1] == sids[1:]) & np.isfinite(g0) & np.isfinite(g1)
                   & ((g0 == 0.0) | (g0 * g1 < 0.0)))
    left = np.flatnonzero(sign_change)
    candidates: list[StationaryPoint] = []
    for idx in np.where(np.abs(g0[left]) <= np.abs(g1[left]), left, left + 1).tolist():
        window = _fit_window(profile, idx)
        if window is None:
            continue
        vx, vf, curv = _quadratic_fit(x[window], profile.s_unwrapped[window], float(x[idx]))
        # The guard scales with the unclipped half-width, also at segment edges.
        cell = float(np.max(np.diff(x[window])))
        guard = cell * max(1.0, _fit_halfwidth(profile, idx) / 2.0)
        if vx is None or abs(vx - x[idx]) > guard:
            # Refinement escaping its neighborhood is an extrapolation
            # artifact; fall back to the grid point.
            vx = float(x[idx])
            vf = float(profile.s_unwrapped[idx])
            curv = profile.curvature[idx]
        if not np.isfinite(curv) or curv == 0.0:
            continue
        hbar = profile.hbar
        delta_x = float(np.sqrt(2.0 * np.pi * hbar / abs(curv)))
        dxm = float(profile.spacing[idx])
        wv = float(profile.magnitude[idx] / abs(profile.inner_ab))
        candidates.append(
            StationaryPoint(
                x_star=float(vx),
                index_star=int(idx),
                action_at=float(vf),
                curvature_at=float(curv),
                delta_x_m=delta_x,
                delta_n=delta_x / dxm,
                weak_value_magnitude=wv,
            )
        )
    # Leakage on filtered profiles can split one zero into a close pair;
    # collapse clusters, keeping the dominant-curvature representative.
    candidates.sort(key=lambda p: abs(p.curvature_at), reverse=True)
    kept: list[StationaryPoint] = []
    for pt in candidates:
        cell = float(profile.spacing[pt.index_star])
        if any(abs(pt.x_star - other.x_star) <= 3.0 * cell for other in kept):
            continue
        kept.append(pt)
    return kept


def aligned_unitary(
    a: StateVector, basis: LabeledBasis, b: StateVector
) -> tuple[DiagonalUnitary, float]:
    """Diagonal unitary whose phases cancel every contribution's action.

    With phase -S(a,m,b)/hbar on each valid state all contributions align,
    so |<b|U|a>| reaches the triangle-inequality maximum
    sum_m |<b|m><m|a>|; no diagonal unitary can do better.  Masked nodes get
    phase zero.  Returns the unitary and the achieved magnitude.
    """
    amps_a = expand(a, basis)
    amps_b = expand(b, basis)
    amp_product = np.conj(amps_b) * amps_a
    inner_ab = complex(np.sum(amp_product))
    magnitude = np.abs(amp_product)
    peak = float(np.max(magnitude))
    valid = magnitude >= MAGNITUDE_FLOOR_RELATIVE * peak
    if peak <= 0.0 or not np.any(valid):
        raise UndefinedPhaseError("every contribution is masked; nothing to align")
    gauge = 0.0 if _vanishes(inner_ab, amp_product) else float(np.angle(inner_ab))
    phases = np.zeros(basis.n_states)
    phases[valid] = -(np.angle(amp_product[valid]) - gauge)
    unitary = DiagonalUnitary(basis, phases)
    achieved = float(np.abs(np.sum(amp_product * np.exp(1j * phases))))
    return unitary, achieved

