"""Intermediate measurements of configurable resolution and their back-action.

A measurement of the intermediate observable is specified entirely by the
conditional probabilities P(r|x_m) of obtaining outcome r when the system
sits at x_m.  The minimal-decoherence implementation applies the diagonal
operator with entries sqrt(P(r|x_m)); anything noisier adds decoherence the
statistics do not require.  This module builds one ``Measurement`` per
kernel (its basis with P and sqrt(P), read through one accessor and held
dense or, for a Gaussian on a lattice grid, as one row of exponentials and
the column sums), exact joint outcome statistics (one P(r, b|a) table, a
sum of squared real products of sqrt(P) with the real pieces of a transfer
matrix that does not depend on the kernel and is laid out once per sweep,
folded on the spin mirror where the pieces allow, with the disturbance and
factorization metrics read off it once), the slow-kernel
(non-disturbance) condition, and the high-resolution regime where the
measurement resolves the action gradient instead of the intermediate value.
The Gaussian kernel is also the action layer's branch filter, read along
its other axis (``action._branch_filter``), so this module owns the one
Gaussian of grid differences and imports ``action`` for annotations only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotApplicableError
from .hilbert import LabeledBasis, StateVector, expand, scaled_overlaps

if TYPE_CHECKING:   # annotations only: action imports this module
    from .action import ActionProfile, StationaryPoint

KERNEL_COMPLETENESS_TOLERANCE = 1e-12
POVM_TOLERANCE = 1e-10
# Slow-kernel condition: max |P''| / (S''/(2 pi hbar)) must stay below this.
NONDISTURBANCE_THRESHOLD = 0.1
# Least-action regime: 1/delta_x_r at least this factor below |S'|/hbar.
REGIME_GUARD_BAND = 10.0
# Conditional probabilities within this relative distance of the maximum tie.
ARGMAX_TIE_RELATIVE = 1e-12


class _KernelRow(NamedTuple):
    """A Gaussian kernel on a lattice grid as 1-D arrays (``gaussian_kernel``)."""

    row: np.ndarray          # R: the 2d - 1 weighted exponentials
    col_sums: np.ndarray     # S, mirror-symmetric: P(r|x_m) = R[d - 1 + m - r] / S_m
    sqrt_row: np.ndarray     # sqrt(R)
    sqrt_scale: np.ndarray   # 1 / sqrt(S): sqrt P(r|x_m) = sqrt_row[...] sqrt_scale[m]


@dataclass(frozen=True, eq=False)
class Measurement:
    """One intermediate measurement: P(r|x_m) and its operators M(r) on a basis.

    ``at(r, m)`` reads P(r|x_m), the probability of outcome r given the
    value x_m of ``basis`` (whose eigenvalues are the outcome grid; columns
    sum to one), and ``at(r, m, sqrt=True)`` the operators' diagonals
    sqrt(P(r|x_m)).  ``resolution`` is the Gaussian width (0 for projective).

    Two layouts, which only this class and its constructors read.  A table
    given to ``build_measurement``, which validates it, is held as the dense
    d x d P and sqrt(P).  A Gaussian on a lattice grid (``gaussian_kernel``)
    is held as one row of 2d - 1 weighted exponentials and the d column sums
    (``_KernelRow``), and ``at`` lays out only the entries asked for.  Such
    a kernel is ``mirrored``: P(-r|x_-m) = P(r|x_m) bit for bit.
    """

    basis: LabeledBasis
    resolution: float
    _deviation: float
    _dense: tuple[np.ndarray, np.ndarray] | None = None   # (P, sqrt P)
    _lattice: _KernelRow | None = None

    @property
    def r_grid(self) -> np.ndarray:
        return self.basis.eigenvalues

    @property
    def mirrored(self) -> bool:
        return self._lattice is not None

    def completeness_deviation(self) -> float:
        """Max elementwise deviation of sum_r M(r)^dag M(r) from identity."""
        return self._deviation

    def at(self, r, m, sqrt: bool = False) -> np.ndarray:
        """P(r|x_m), or sqrt(P) with ``sqrt``, at the outcome rows ``r`` and
        the state columns ``m`` (each an index or a slice, or for ``m`` an
        index array).  A dense kernel returns a read-only view wherever
        numpy indexing gives one; a lattice kernel a new array."""
        if self._lattice is None:
            return self._dense[int(sqrt)][r, m]
        kernel = self._lattice
        if sqrt:
            return toeplitz_view(kernel.sqrt_row)[r, m] * kernel.sqrt_scale[m]
        return toeplitz_view(kernel.row)[r, m] / kernel.col_sums[m]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_measurement(
    basis: LabeledBasis, table: np.ndarray, resolution: float = 0.0
) -> Measurement:
    """The measurement with P(r|x_m) = ``table[r, m]`` on ``basis``, held dense.

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
    dev = _operator_deviation(np.einsum("rm,rm->m", sqrt_table, sqrt_table))
    return Measurement(basis, float(resolution), dev, _dense=(_frozen(tab), _frozen(sqrt_table)))


def gaussian_kernel(basis: LabeledBasis, delta_x_r: float) -> Measurement:
    """Gaussian resolution kernel on the basis eigenvalue grid.

    Row r is exp(-(x_r - x_m)^2 / 2 delta_x_r^2) weighted by
    dx_r / (sqrt(2 pi) delta_x_r), dx_r the local grid weight, and each
    column is divided by its sum, so completeness holds exactly on the
    finite grid.  The constant cancels there: P(j|x_i) is also the branch
    filter's weight w_j g(x_j - x_i) / sum_j w_j g(x_j - x_i)
    (``action._branch_filter``).

    On a lattice grid (``_is_lattice``: every spin grid, the ring's dyadic
    positions) the kernel is held as the weighted row R (``gaussian_row``)
    and its column sums S.  The columns m <= 0 sum R's windows in the dense
    table's order and each column m > 0 takes the sum of its mirror -m, so
    P(-r|x_-m) = P(r|x_m) bit for bit (``Measurement.mirrored``).  Each
    value checks R finite and non-negative, S finite and positive, and the
    operators' completeness: sum_r sqrt(R)^2 in one strided sum along the
    row, times 1/S.  Other grids build the dense d x d table.
    """
    if not (delta_x_r > 0 and np.isfinite(delta_x_r)):
        raise ValueError(f"delta_x_r must be positive, got {delta_x_r}")
    x = basis.eigenvalues
    weight = basis.spacing_per_state() / (np.sqrt(2.0 * np.pi) * delta_x_r)
    if not _is_lattice(x):
        table = np.exp(-((x[np.newaxis, :] - x[:, np.newaxis]) ** 2) / (2.0 * delta_x_r**2))
        table *= weight[:, np.newaxis]
        table /= table.sum(axis=0, keepdims=True)
        return build_measurement(basis, table, delta_x_r)
    row = gaussian_row(x, delta_x_r) * weight[0]
    if not np.all(np.isfinite(row) & (row >= 0.0)):
        raise ValueError("kernel entries must be finite and non-negative")
    d = x.size
    col_sums = toeplitz_view(row)[:, : (d + 1) // 2].sum(axis=0)
    if not np.all(np.isfinite(col_sums) & (col_sums > 0.0)):
        raise ValueError("kernel incomplete: a column sum is not finite and positive")
    col_sums = np.concatenate([col_sums, col_sums[: d // 2][::-1]])
    sqrt_row = np.sqrt(row)
    sqrt_scale = 1.0 / np.sqrt(col_sums)
    dev = _operator_deviation(toeplitz_view(np.square(sqrt_row)).sum(axis=0) * np.square(sqrt_scale))
    kernel = _KernelRow(*map(_frozen, (row, col_sums, sqrt_row, sqrt_scale)))
    return Measurement(basis, float(delta_x_r), dev, _lattice=kernel)


def gaussian_row(x: np.ndarray, width: float) -> np.ndarray:
    """The 2d - 1 distinct entries of exp(-(x_j - x_i)^2 / 2 width^2) on a
    lattice grid: the d exponentials of its first row, mirrored about their
    first entry.  There x_j - x_i is the exact float x_|j-i| - x_0 and
    (-v)^2 is v^2, so laid out by ``toeplitz_view`` they are the dense
    d x d expression bit for bit."""
    half = np.exp(-((x - x[0]) ** 2) / (2.0 * width**2))
    return np.concatenate([half[:0:-1], half])


def toeplitz_view(row: np.ndarray) -> np.ndarray:
    """Read-only d x d view with entry (i, j) = row[d - 1 + j - i] of a
    symmetric row of 2d - 1 entries (so also row[d - 1 + i - j])."""
    return sliding_window_view(row, (row.size + 1) // 2)[::-1]


def _is_lattice(x: np.ndarray) -> bool:
    """True when the grid is uniform and every difference x_j - x_i is an
    exact float: each x_k is an integer q_k, |q_k| <= 2^52, times one power
    of two (the finer of those of x_0 and x_1 - x_0), in equal steps."""
    den = max(float(v).as_integer_ratio()[1] for v in (x[0], x[1] - x[0]))
    if den > 2**52:
        return False
    q = x * den
    return bool(np.all(q == np.rint(q)) and np.max(np.abs(q)) <= 2.0**52
                and np.all(np.diff(q) == q[1] - q[0]))


def _operator_deviation(sums: np.ndarray) -> float:
    """max_m |sum_r M(r)^2 - 1| from the per-state sums, checked against
    POVM_TOLERANCE."""
    dev = float(np.max(np.abs(sums - 1.0)))
    if dev > POVM_TOLERANCE:
        raise ValueError(f"operator completeness violated: {dev:.3e}")
    return dev


def projective_kernel(basis: LabeledBasis) -> Measurement:
    """Perfect-resolution kernel: outcome r == m with certainty."""
    return build_measurement(basis, np.eye(basis.n_states))


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint statistics P(r, b|a) of an intermediate-plus-final sequence.

    ``table`` is the one d x d array, |sqrt(P) Y|^2 for the transfer matrix
    Y[m, b] = <m|a><b|m>, summed from Y's real pieces (``_transfer``); the
    per-b quantities derive from it.
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

    <b|M(r)|a> = sum_m sqrt(P(r|x_m)) Y[m, b], and ``_transfer`` splits Y
    into real pieces whose products with sqrt(P) are orthogonal parts of it,
    so P(r, b|a) is the sum over pieces of (sqrt(P)[:, rows] @ piece)^2
    (``_joint_table``), folded on the mirror where Y and the kernel allow.
    As P >= 0, the factorization residual is max_b (max_r P / P_b)
    |P(b|a) - P_b|, with P_b the column sum; the ratio is at most one, so a
    tiny P_b cannot overflow.
    """
    inter = measurement.basis
    if a.dim != inter.dim or final_basis.dim != inter.dim:
        raise ValueError("dimension mismatch between state, bases and operators")
    transfer = _transfer(a, inter, final_basis, measurement.mirrored)
    table = _joint_table(transfer, measurement)
    marginal_b = table.sum(axis=0)
    safe = np.where(marginal_b > 0.0, marginal_b, 1.0)
    baseline = transfer.baseline
    return JointDistribution(
        r_grid=measurement.r_grid,
        table=table,
        baseline=baseline,
        total_variation=0.5 * float(np.abs(marginal_b - baseline).sum()),
        factorization_residual=float(np.max(table.max(axis=0) / safe * np.abs(baseline - safe))),
    )


def _joint_table(transfer: _Transfer, measurement: Measurement) -> np.ndarray:
    """The sum over pieces of (sqrt(P)[:, rows] @ piece)^2, each product
    taken as [b, r] so a column group adds into whole rows of the
    accumulator, and each sum over m as _SPLIT partial products over
    interleaved runs of m, added pairwise (``_split_product``).

    Folded (``_Transfer.folded``), each piece's rows are closed under the
    mirror m -> -m (index m -> d - 1 - m), and its columns split by their
    sign s, with piece[-m, b] = s piece[m, b] off the centre.  So a
    column's sum over m is a sum over the rows m < 0 against
    K_s(r, m) = sqrt P(r|m) + s sqrt P(r|-m), plus the centre once where
    s = +1; where s = -1 the centre holds roundoff of an exact zero and is
    dropped.  The kernel is mirror-symmetric bit for bit
    (``gaussian_kernel``), so P(-r, b|a) = P(r, b|a): only the rows r <= 0
    are computed, and the rows r > 0 are their mirror copies.  Unfolded, a
    piece's block is sqrt(P) at its rows, every r: Re Y and Im Y read the
    same rows, so they share one block.
    """
    d = transfer.baseline.size
    half = (d + 1) // 2 if transfer.folded else d
    top_t = np.zeros((d, half))                      # P(r, b|a) at the rows computed, as [b, r]
    near = rows = None
    for piece in transfer.pieces:
        if transfer.folded or not np.array_equal(piece.rows, rows):
            near = measurement.at(slice(0, half), piece.rows, sqrt=True)
        rows = piece.rows
        blocks = [near] * len(piece.parts)
        if transfer.folded:                          # K_+ for the first part, K_- for the second
            far = measurement.at(slice(0, half), piece.mirrors, sqrt=True)
            k = piece.mirrors.size
            blocks[1] = np.subtract(near[:, :k], far)
            near[:, :k] += far
        for block, (cols, part) in zip(blocks, piece.parts):
            amp = _split_product(part, block.T, piece.starts)
            top_t[cols] += np.square(amp, out=amp)
    table = np.empty((d, d))
    table[:half] = top_t.T
    table[half:] = table[: d - half][::-1]
    return table


# Interleaved runs of the sum over m in each product.
_SPLIT = 4


def _split_product(a: np.ndarray, b: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """a @ b as _SPLIT partial products, over the runs of the inner index
    that begin at ``starts`` (the last to the end), added pairwise.

    One BLAS accumulation rounds once per term of the kernel's band.  Over
    widths 0.3 to 1000 and x or y rows, one product per piece is up to
    3.6e-15 of the table's maximum off the exact sum of the same rounded
    sqrt(P) and Y at spin 200 (d = 401), and 4.4e-15 at spin 500.  With
    each partial sum over every _SPLIT-th term of the band, the folded
    table is within 8.6e-16 and 1.5e-15, for the same flops.
    """
    runs = [(a[:, lo:hi], b[lo:hi]) for lo, hi in zip(starts, [*starts[1:], None])]
    p = np.empty((3, a.shape[0], b.shape[1]))        # one allocation for the partials
    np.matmul(*runs[0], out=p[0])
    np.matmul(*runs[1], out=p[1])
    np.add(p[0], p[1], out=p[0])
    np.matmul(*runs[2], out=p[1])
    np.matmul(*runs[3], out=p[2])
    np.add(p[1], p[2], out=p[1])
    return np.add(p[0], p[1], out=p[0])


_EVEN, _ODD, _ALL = slice(0, None, 2), slice(1, None, 2), slice(None)


class _Piece(NamedTuple):
    """One real piece of Y as ``_joint_table`` reads it.

    ``rows`` are the indices m of the kernel columns the piece is summed
    against, in ``_runs`` order (run i begins at ``starts[i]``); ``parts``
    are (columns, part) pairs, each part the piece at those rows and
    columns laid out as [b, m].  Folded, ``rows`` are the piece's rows
    m < 0 with the centre last, if it has one, ``mirrors`` their mirror
    rows -m (without the centre), and ``parts`` the columns of sign +1 at
    every row, then those of sign -1 without the centre.  Unfolded, ``rows``
    are all the piece's rows, ``mirrors`` None, and the parts hold the
    columns in four contiguous groups.
    """

    rows: np.ndarray
    mirrors: np.ndarray | None
    starts: np.ndarray
    parts: tuple[tuple[np.ndarray | slice, np.ndarray], ...]


class _Transfer(NamedTuple):
    """Y's real pieces, laid out once (``_Piece``), whether they fold, and
    the baseline |<b|a>|^2."""

    pieces: tuple[_Piece, ...]
    baseline: np.ndarray
    folded: bool


@lru_cache(maxsize=1)
def _transfer(a: StateVector, inter: LabeledBasis, final: LabeledBasis,
              mirrored: bool) -> _Transfer:
    """Y[m, b] = <m|a><b|m> as real pieces, and the baseline |<b|a>|^2.

    P(r, b|a) = sum over pieces of (sqrt(P)[:, rows] @ piece)^2.  The pieces
    are read off Y's exact zeros, never off basis names:
    - a real Y is one piece, Re Y;
    - where in every column the even-m entries lie on one axis of the
      complex plane and the odd-m entries on the other (an x eigenstate
      through an identity intermediate into x-derived rows, such as spin
      y), the even and odd rows' partial sums are orthogonal.  Each half is
      one half-height piece holding its nonzero parts as re + im, exact as
      the other term is +-0: half the work of the next case;
    - any other Y is the two full pieces Re Y and Im Y.
    For a ``mirrored`` kernel, each piece's column mirror signs are read
    off its off-centre rows, exactly (``_sign_groups``: spin x and y rows
    are exact mirrors, and a y row's sign alternates with m, so each parity
    has its own).  Y folds where every piece has them and its rows map onto
    themselves under the mirror (full-height pieces, or even and odd rows
    at odd d); half-integer spins (even d) with even/odd pieces do not, as
    the mirror swaps those pieces' rows.  Each piece is laid out once, in
    the form the product reads (``_Piece``).
    Independent of the kernel's values, so a sweep builds them once: the
    keys are immutable and hash by identity.  The arrays are read-only and
    C-contiguous.
    """
    y = scaled_overlaps(expand(a, inter), inter, final)
    re, im = y.real, y.imag
    if not im.any():
        parts = ((_ALL, re),)
    elif _parity_axes(re, im):
        parts = tuple((rows, re[rows] + im[rows]) for rows in (_EVEN, _ODD))
    else:
        parts = ((_ALL, re), (_ALL, im))
    d = len(y)
    groups = [_sign_groups(piece) if mirrored and (rows is _ALL or d % 2) else None
              for rows, piece in parts]
    folded = None not in groups
    pieces = tuple(_lay_out(np.arange(d)[rows], piece, signs if folded else None)
                   for (rows, piece), signs in zip(parts, groups))
    baseline = np.abs(expand(a, final)) ** 2
    baseline.flags.writeable = False
    return _Transfer(pieces, baseline, folded)


def _lay_out(m: np.ndarray, piece: np.ndarray, signs) -> _Piece:
    """The ``_Piece`` of a piece at the rows ``m``, folded on its column
    ``signs`` (``_sign_groups``) or, where they are None, not."""
    if signs is None:
        # The columns in quarters, so each product's partials are the size of
        # a folded one's: d/4 columns by d rows, against d/2 by d/2.
        order, starts = _runs(m.size)
        heads, mirrors = [order] * 4, None
        edges = np.linspace(0, piece.shape[1], 5).astype(int)
        groups = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    else:
        k = m.size // 2
        order, starts = _runs(k)
        heads = (np.append(order, k)[: m.size - k], order)   # the centre with sign +1 only
        groups, mirrors = signs, m[::-1][:k][order]
    parts = tuple((cols, _frozen(np.ascontiguousarray(piece[rows][:, cols].T)))
                  for rows, cols in zip(heads, groups))
    return _Piece(m[heads[0]], mirrors, starts, parts)


def _runs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows 0..k-1 in _SPLIT interleaved runs (every _SPLIT-th row
    each), and where each run starts."""
    runs = [np.arange(i, k, _SPLIT) for i in range(_SPLIT)]
    return np.concatenate(runs), np.cumsum([0, *map(len, runs[:-1])])


def _parity_axes(re: np.ndarray, im: np.ndarray) -> bool:
    """True when each column's even-row entries lie on one axis (all their
    real or all their imaginary parts zero) and its odd-row entries on the
    other."""
    even_real, odd_real = (~im[rows].any(axis=0) for rows in (_EVEN, _ODD))
    even_imag, odd_imag = (~re[rows].any(axis=0) for rows in (_EVEN, _ODD))
    return bool(np.all((even_real & odd_imag) | (even_imag & odd_real)))


def _sign_groups(piece: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The indices of a piece's columns of mirror sign +1 and of sign -1,
    read bit for bit off its off-centre rows (piece[n - 1 - l] = +-piece[l]);
    None when some column has neither.  A column that is zero off the
    centre has both signs and goes with +1, which keeps the centre.
    """
    k = len(piece) // 2
    low, high = piece[:k], piece[::-1][:k]
    even, odd = (high == low).all(axis=0), (high == -low).all(axis=0)
    if not np.all(even | odd):
        return None
    return np.flatnonzero(even), np.flatnonzero(~even)


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
    support columns only, which a lattice kernel reads from its row (no
    d x d P is laid out); the edge columns take their neighbour's value.
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
    c = np.clip(np.flatnonzero(support), 1, profile.dim - 2)
    left, mid, right = np.split(measurement.at(_ALL, np.concatenate([c - 1, c, c + 1])), 3, axis=1)
    pcurv = np.abs((right - mid) - (mid - left)) / (profile.spacing[c] ** 2)
    max_ratio = float(np.max(pcurv / scurv[np.newaxis, :]))
    passed = bool(max_ratio < NONDISTURBANCE_THRESHOLD)
    return SlowKernelReport(max_ratio, passed, n_support)


class Regime(enum.Enum):
    """Where a measurement outcome sits relative to the action-gradient scale."""

    LEAST_ACTION = "least-action"
    QUANTUM = "quantum"
    BOUNDARY = "boundary"


def regime_classifier(measurement: Measurement, gradient: float, hbar: float) -> Regime:
    """Classify an outcome by comparing 1/delta_x_r with |dS/dx|/hbar there,
    given the action gradient dS/dx at the outcome.

    Quantum regime when the resolution exceeds the gradient scale (the least
    action approximation fails), least-action when it is at least
    REGIME_GUARD_BAND below it, boundary in between.  A projective kernel is always
    quantum.
    """
    if measurement.resolution <= 0.0:
        return Regime.QUANTUM
    grad_scale = abs(gradient) / hbar
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
    sum_m <b|m><m|a> sqrt(P(r|x_m)).  The outcome is the grid point x_r
    nearest ``r_value``; the gradient is read there once, and outcomes it
    classifies least-action raise NotApplicableError; the expansion holds
    from the boundary regime up.
    """
    hbar = profile.hbar
    r_idx = int(np.argmin(np.abs(measurement.r_grid - r_value)))
    x_r = float(measurement.r_grid[r_idx])
    grad = profile.gradient_at(x_r)
    if regime_classifier(measurement, grad, hbar) is Regime.LEAST_ACTION:
        raise NotApplicableError(
            "outcome sits in the least-action regime; the gradient expansion "
            "does not apply"
        )
    delta = measurement.resolution
    t_local = complex(profile.amp_product[r_idx])
    x = profile.x_grid
    w = profile.spacing
    sqrt_row = measurement.at(r_idx, _ALL, sqrt=True)
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

