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

from dataclasses import dataclass, replace

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
from .measurement import Measurement, gaussian_kernel

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

    The stacked core (``_profile_rows``) holds the profiles of a block of
    pairs in one ActionProfile: each per-point array gains a leading row axis
    and ``inner_ab`` holds one overlap per row.
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
        i = np.array([np.argmin(np.abs(self.x_grid - x))])
        if self.smoothing > 0.0 and np.isfinite(self.s_unwrapped[i[0]]):
            (lo,), (hi,), _ = _fit_windows(self.s_unwrapped[np.newaxis], self.spacing,
                                           self.smoothing, np.zeros(1, int), i)
            if hi - lo >= 2:
                window = slice(lo, hi + 1)
                return _quadratic(self.x_grid[window] - x, self.s_unwrapped[window], {})[1]
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


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, start and stop of every run of True in each row of a 2-D mask,
    in row order.  A False column closes each row, so no run crosses one."""
    runs = _segments_of(np.pad(mask, ((0, 0), (0, 1))).ravel())
    start, stop = np.array(runs, dtype=int).reshape(-1, 2).T
    row, col = np.divmod(start, mask.shape[1] + 1)
    return row, col, col + stop - start


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
    """Three-point first and second derivatives on a possibly uneven grid,
    along the last axis of ``f`` (one row per profile of a stack)."""
    grad = np.full(f.shape, np.nan)
    curv = np.full(f.shape, np.nan)
    if len(x) < 3:
        return grad, curv
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    f0, f1, f2 = f[..., :-2], f[..., 1:-1], f[..., 2:]
    # Term by term into the results, summed left to right as in
    #   grad = -h2 / (h1 (h1 + h2)) f0 + (h2 - h1) / (h1 h2) f1 + h1 / (h2 (h1 + h2)) f2
    #   curv = 2 (f0 / (h1 (h1 + h2)) - f1 / (h1 h2) + f2 / (h2 (h1 + h2))),
    # with one buffer of the size of f for the terms.
    g, c = grad[..., 1:-1], curv[..., 1:-1]
    term = np.empty(g.shape)
    np.multiply(-h2 / (h1 * (h1 + h2)), f0, out=g)
    g += np.multiply((h2 - h1) / (h1 * h2), f1, out=term)
    g += np.multiply(h1 / (h2 * (h1 + h2)), f2, out=term)
    np.divide(f0, h1 * (h1 + h2), out=c)
    c -= np.divide(f1, h1 * h2, out=term)
    c += np.divide(f2, h2 * (h1 + h2), out=term)
    c *= 2.0
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
    in ``basis``, which are read as they are.  The profile is the one-row
    case of the stacked core (``_profile_rows``).

    ``smoothing`` (eigenvalue units) selects the running-wave branch of the
    contribution amplitudes with a normalized Gaussian window before phases
    are taken (``gaussian_kernel``, which refuses a negative or non-finite
    width).  With 0 the phases are those of the bare per-point products.
    A nonzero window is needed whenever a or b is a standing wave in the
    intermediate basis (their components are real up to a global phase, e.g.
    transverse angular-momentum eigenstates in the z basis): the bare
    pointwise phase then alternates between interfering counter-propagating
    branches and no smooth action exists until they are separated.  Choose
    the window wide enough to suppress the counter-branch (a couple of grid
    spacings) and much narrower than the stationary region, so the surviving
    branch is undistorted.
    """
    kernel = gaussian_kernel(basis, smoothing) if smoothing else None
    stack, (error,) = _profile_rows(_amplitudes(a, basis)[np.newaxis],
                                    _amplitudes(b, basis)[np.newaxis],
                                    basis, constants.hbar, kernel, columns=True)
    if error is not None:
        raise error
    return replace(stack, inner_ab=complex(stack.inner_ab[0]),
                   **{name: getattr(stack, name)[0] for name in _PER_POINT_ROWS})


# The ActionProfile fields that a stack holds one row of per profile.
_PER_POINT_ROWS = ("amp_product", "amp_product_bare", "s_raw", "s_unwrapped", "magnitude",
                   "valid", "segment_id", "gradient", "curvature", "rho_a", "rho_b")


def _profile_rows(amps_a: np.ndarray, amps_b: np.ndarray, basis: LabeledBasis, hbar: float,
                  kernel: Measurement | None, columns: bool = False):
    """Action profiles of a stack of pairs, filtered by ``kernel`` (None: bare):
    row i of ``amps_a`` and ``amps_b`` holds pair i's amplitudes over ``basis``.

    Returns an ActionProfile whose per-point arrays gain a leading row axis
    (``inner_ab`` holds one overlap per row) and, per row, the error
    ``action_profile`` raises for it or None.  A refused row has no finite
    gradient.  Without ``columns`` only what ``_points_of`` reads is kept:
    the densities, raw phases, products, mask and segment ids are None, so
    a block keeps four rows of d values per pair, not eleven.

    Every value has the bits of its pair's profile run alone: each step,
    the filter (``Measurement.average``) too, is elementwise or works within
    a row, and the unwrapping's turn counts are integers.
    """
    x = basis.eigenvalues
    weights = basis.spacing_per_state()
    bare = np.conj(amps_b) * amps_a
    inner = bare.sum(axis=1).astype(complex)
    errors = [UndefinedPhaseError("<b|a> vanishes; action phases are undefined")
              if _vanishes(complex(total), row) else None for total, row in zip(inner, bare)]
    rho_a = rho_b = None
    if columns or kernel is not None:
        rho_a, rho_b = np.abs(amps_a) ** 2 / weights, np.abs(amps_b) ** 2 / weights
    # Stacks passed as temporaries (an emergence block's) are freed here,
    # before the profile's rows are laid out.
    del amps_a, amps_b
    amp_product = bare
    if kernel is not None:
        # Each pair's four real rows as one [4, d] matrix: the kernel stays real.
        re, im, rho_a, rho_b = np.moveaxis(kernel.average(
            np.stack([bare.real, bare.imag, rho_a, rho_b], axis=1)), 1, 0)
        amp_product = re + 1j * im
    s_raw = hbar * np.angle(amp_product * np.conj(inner)[:, np.newaxis])
    magnitude = np.abs(amp_product)
    if not columns:
        bare = amp_product = None
    peak = magnitude.max(axis=1)
    valid = magnitude >= MAGNITUDE_FLOOR_RELATIVE * peak[:, np.newaxis]
    s_raw[~valid] = np.nan
    # Two contiguous points are enough to relate phases (and are all a qubit
    # has); derivatives additionally need a full three-point stencil.
    row, lo, hi = _runs(valid)
    kept = hi - lo >= 2
    for i, error in enumerate(errors):
        if error is None and (peak[i] <= 0.0 or not np.any(kept[row == i])):
            errors[i] = ProfileTooSparseError("all contributions vanish" if peak[i] <= 0.0 else
                                              "fewer than 2 contiguous phase-valid points; "
                                              "no usable profile")
    # Unwrap along each segment: turn counts between valid neighbours,
    # cumulated along the row and counted from the segment's anchor.  Steps
    # that touch a masked point are NaN and count no turn.
    two_pi = 2.0 * np.pi * hbar
    s = s_raw.copy() if columns else s_raw
    # A lone valid point has a raw phase but no unwrapped one.
    s[row[~kept], lo[~kept]] = np.nan
    turns = np.zeros(s.shape, dtype=np.int64)
    np.cumsum(np.nan_to_num(np.round((s[:, :-1] - s[:, 1:]) / two_pi)).astype(np.int64),
              axis=1, out=turns[:, 1:])
    segment_id = np.full(s.shape, -1, dtype=int) if columns else None
    row, lo, hi = row[kept], lo[kept], hi[kept]
    ordinal = np.arange(len(row)) - np.searchsorted(row, row)
    for i, start, stop, sid in zip(row.tolist(), lo.tolist(), hi.tolist(), ordinal.tolist()):
        # Canonical anchor: the strongest contribution keeps its raw value,
        # so the result does not depend on where the chaining started.
        turns[i, start:stop] -= turns[i, start + int(np.argmax(magnitude[i, start:stop]))]
        if columns:
            segment_id[i, start:stop] = sid
    s += two_pi * turns
    del turns
    # Steps near the half-turn limit are alias-suspect: the nearest-multiple
    # chaining is no longer well posed there, so derivatives across such
    # steps would be sampling artifacts.
    big = np.abs(np.diff(s, axis=1)) > ALIAS_LIMIT * hbar
    gradient, curvature = _nonuniform_derivatives(x, s)
    bad = np.zeros(s.shape, dtype=bool)
    bad[[error is not None for error in errors]] = True
    bad[:, :-1] |= big
    bad[:, 1:] |= big
    gradient[bad] = np.nan
    curvature[bad] = np.nan
    stack = ActionProfile(
        x_grid=x.copy(), spacing=weights, amp_product=amp_product, amp_product_bare=bare,
        inner_ab=inner, s_raw=s_raw if columns else None, s_unwrapped=s, magnitude=magnitude,
        valid=valid if columns else None, segment_id=segment_id, gradient=gradient,
        curvature=curvature, rho_a=rho_a if columns else None, rho_b=rho_b if columns else None,
        hbar=hbar, smoothing=kernel.resolution if kernel is not None else 0.0)
    return stack, errors


def _amplitudes(psi: StateVector | np.ndarray, basis: LabeledBasis) -> np.ndarray:
    """``expand(psi, basis)`` of a state; an array is taken as those amplitudes."""
    if isinstance(psi, StateVector):
        return expand(psi, basis)
    if psi.shape != (basis.n_states,):
        raise ValueError(f"need {basis.n_states} amplitudes, got shape {psi.shape}")
    return psi


def _fit_windows(s_unwrapped: np.ndarray, spacing: np.ndarray, smoothing: float,
                 rows: np.ndarray, idx: np.ndarray):
    """Grid windows [lo, hi] of the local quadratic fits around points
    (rows, idx) of a stack's unwrapped actions, each clipped to its segment
    (a run of finite action), and their unclipped half-widths.

    The half-width is one cell (the classic three-point parabola) on bare
    profiles; on branch-filtered ones the fit widens to ~2x the smoothing
    window, so that residual counter-branch leakage averages out of the
    curvature.  Each point must lie on a segment.
    """
    half = np.maximum(1, np.ceil(2.0 * smoothing / spacing[idx]).astype(int))
    seg_row, seg_lo, seg_hi = _runs(np.isfinite(s_unwrapped))
    width = s_unwrapped.shape[1] + 1
    k = np.searchsorted(seg_row * width + seg_lo, rows * width + idx, side="right") - 1
    return np.maximum(idx - half, seg_lo[k]), np.minimum(idx + half, seg_hi[k] - 1), half


def _quadratic(u: np.ndarray, f: np.ndarray, stencils: dict) -> list[float]:
    """``np.polyfit(u, f, 2)`` bit for bit: polyfit's scaled Vandermonde and
    rcond, built once per distinct stencil ``u`` and kept in ``stencils``, then
    its lstsq per right-hand side (a 2-D right-hand side rounds each column
    differently).  polyfit's rank warning cannot fire: every window has at
    least three distinct points."""
    key = u.tobytes()
    if key not in stencils:
        lhs = np.vander(u, 3)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs /= scale
        stencils[key] = lhs, scale, len(u) * np.finfo(float).eps
    lhs, scale, rcond = stencils[key]
    return (np.linalg.lstsq(lhs, f, rcond)[0] / scale).tolist()


def stationary_points(profile: ActionProfile) -> list[StationaryPoint]:
    """All gradient sign changes, refined by a local parabola in the action.

    The location and curvature come from a least-squares quadratic around
    each sign change (three points on bare profiles, a window matched to the
    branch filter on smoothed ones).  Points are sorted by |curvature|
    descending (the first entry dominates the resolution limits).  An empty
    list is legal: it means no classically allowed intermediate value exists
    for this a, b pair.  This is the one-row case of ``_points_of``.
    """
    return _points_of(profile)[0]


def _points_of(stack: ActionProfile) -> list[list[StationaryPoint]]:
    """``stationary_points`` of each row of a stack (or of one profile)."""
    x, spacing, hbar = stack.x_grid, stack.spacing, stack.hbar
    s, g, curvature, magnitude = (np.atleast_2d(v) for v in (
        stack.s_unwrapped, stack.gradient, stack.curvature, stack.magnitude))
    g0, g1 = g[:, :-1], g[:, 1:]
    # Finite gradients on both sides put both points inside one segment.
    rows, left = np.nonzero(np.isfinite(g0) & np.isfinite(g1) & ((g0 == 0.0) | (g0 * g1 < 0.0)))
    idx = np.where(np.abs(g0[rows, left]) <= np.abs(g1[rows, left]), left, left + 1)
    # Each candidate has a finite gradient, so its window holds >= 3 points.
    lo, hi, half = _fit_windows(s, spacing, stack.smoothing, rows, idx)
    steps, xs, cells = np.diff(x).tolist(), x.tolist(), spacing.tolist()
    # Python's abs of each overlap: np.abs may differ from it in the last bit.
    sizes = [abs(complex(total)) for total in np.atleast_1d(stack.inner_ab)]
    stencils: dict = {}
    found: list[list[StationaryPoint]] = [[] for _ in s]
    for r, i, a, b, w, mag, fallback in zip(
            rows.tolist(), idx.tolist(), lo.tolist(), hi.tolist(), half.tolist(),
            magnitude[rows, idx].tolist(), curvature[rows, idx].tolist()):
        x0 = xs[i]
        c0, c1, c2 = _quadratic(x[a : b + 1] - x0, s[r, a : b + 1], stencils)
        curv = 2.0 * c0
        vx = x0 - c1 / curv if curv != 0.0 else None
        # The guard scales with the unclipped half-width, also at segment edges.
        if vx is None or abs(vx - x0) > max(steps[a:b]) * max(1.0, w / 2.0):
            # Refinement escaping its neighborhood is an extrapolation
            # artifact; fall back to the grid point.
            vx, vf, curv = x0, float(s[r, i]), fallback
        else:
            u = vx - x0
            vf = (c0 * u + c1) * u + c2
        if not np.isfinite(curv) or curv == 0.0:
            continue
        delta_x = float(np.sqrt(2.0 * np.pi * hbar / abs(curv)))
        found[r].append(StationaryPoint(
            x_star=vx, index_star=i, action_at=vf, curvature_at=curv, delta_x_m=delta_x,
            delta_n=delta_x / cells[i], weak_value_magnitude=mag / sizes[r]))
    # Leakage on filtered profiles can split one zero into a close pair;
    # collapse clusters, keeping the dominant-curvature representative.
    for candidates in found:
        candidates.sort(key=lambda p: abs(p.curvature_at), reverse=True)
        kept: list[StationaryPoint] = []
        for pt in candidates:
            cell = cells[pt.index_star]
            if not any(abs(pt.x_star - other.x_star) <= 3.0 * cell for other in kept):
                kept.append(pt)
        candidates[:] = kept
    return found


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

