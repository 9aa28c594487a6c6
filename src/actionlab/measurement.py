"""Intermediate measurements of configurable resolution and their back-action.

A measurement of the intermediate observable is specified entirely by the
conditional probabilities P(r|x_m) of obtaining outcome r when the system
sits at x_m.  The minimal-decoherence implementation applies the diagonal
operator with entries sqrt(P(r|x_m)); anything noisier adds decoherence the
statistics do not require.  This module builds one ``Measurement`` per
kernel (P and sqrt(P) dense or, for a Gaussian on a lattice grid, one row
of exponentials and the column sums), exact joint outcome statistics (one
P(r, b|a) table from the real pieces of a transfer matrix laid out once per
sweep, folded on the spin mirror m -> -m where they allow, and computed at
one column of each pair b, -b that the final basis' mirror makes equal),
the slow-kernel
(non-disturbance) condition, and the high-resolution regime where the
measurement resolves the action gradient instead of the intermediate value.
The Gaussian kernel is also the action layer's branch filter, read along
its other axis (``Measurement.average``), so this module owns the one
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
# ``Measurement.average`` on a lattice kernel sums the offsets whose weight is
# at least this fraction of the peak: the tail it drops is under 2e-17 of the
# row's largest |entry|, so of each averaged row's maximum where it keeps that.
BAND_CUT = 1e-17


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

    def average(self, rows: np.ndarray) -> np.ndarray:
        """sum_r rows[..., r] P(r|x_m) at every m: the branch filter.  Dense, one
        product with P per matrix of the stack; lattice, the zero-padded rows
        shifted by -k and +k times R[d - 1 + k] per offset k of R's band
        (BAND_CUT) over S (``_KernelRow``): O(d band) per row, no d x d array."""
        if self._lattice is None:
            return rows @ self._dense[0]
        d = rows.shape[-1]
        weights = self._lattice.row[d - 1 :]          # R[d - 1 + k], non-increasing in k
        n = np.count_nonzero(weights >= BAND_CUT * weights[0]) - 1
        padded = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(n, n)])
        total, term = np.zeros(rows.shape), np.empty(rows.shape)
        for k in range(n, 0, -1):                     # the smallest weights first
            np.add(padded[..., n - k : n - k + d], padded[..., n + k : n + k + d], out=term)
            total += np.multiply(term, weights[k], out=term)
        total += np.multiply(rows, weights[0], out=term)
        return np.divide(total, self._lattice.col_sums, out=total)


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
    (``Measurement.average``).

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

    P(r, b|a) = |sqrt(P) Y|^2 for the transfer matrix Y[m, b] = <m|a><b|m>,
    summed from Y's real pieces (``_transfer``), is held as ``_computed``:
    the rows r computed (those r <= 0 where the table folds on the mirror
    m -> -m) at the columns computed, and ``_columns`` maps each b to its
    column there (b's own, or that of its mirror -b where the two are equal
    bit for bit).  ``table`` lays out the d x d array on demand; the per-b
    quantities are derived through the map, in the laid-out table's order.
    ``total_variation`` is half the summed |sum_r P(r,b|a) - P(b|a)|, the
    standard distance between the r-marginalized final distribution and the
    undisturbed baseline.  ``factorization_residual`` measures how far the
    joint is from P(r|a,b) P(b|a), the hallmark of a disturbance-free
    measurement.
    """

    r_grid: np.ndarray             # the measurement's read-only outcome grid
    baseline: np.ndarray           # P(b | a) without measurement
    total_variation: float
    factorization_residual: float
    total_probability: float
    _computed: np.ndarray          # P(r, b | a) at the rows and columns computed, as [r, column]
    _columns: np.ndarray           # b -> its column in _computed

    @property
    def table(self) -> np.ndarray:
        """P(r, b|a) as the d x d array [r, b], laid out on demand."""
        return _mirror_rows(self._computed[:, self._columns], self.r_grid.size)

    def conditional_argmax(self, b_index: int) -> float:
        """Outcome x_r maximizing P(r|a,b) for one final outcome.

        Outcomes within ARGMAX_TIE_RELATIVE of the maximum tie, and the
        largest tied x_r wins.  The +-r symmetry of transverse spin states
        makes exact ties, which a plain argmax would let roundoff break.
        P(r|a,b) is column ``b_index`` of the table over its sum, and that
        positive scale cannot change the ties, so the column is read as is.
        """
        col = _mirror_rows(self._computed[:, self._columns[b_index]], self.r_grid.size)
        tied = np.flatnonzero(col >= (1.0 - ARGMAX_TIE_RELATIVE) * np.max(col))
        return float(self.r_grid[tied[-1]])


def _mirror_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """The d rows of P(r, b|a) from the rows computed: those r <= 0, then,
    where they are fewer than d, the rows r > 0 as their mirror copies,
    C-ordered whatever the layout of ``rows``."""
    out = np.empty((d, *rows.shape[1:]))
    out[: len(rows)] = rows
    out[len(rows) :] = rows[: d - len(rows)][::-1]
    return out


def joint_distribution(
    a: StateVector, final_basis: LabeledBasis, measurement: Measurement
) -> JointDistribution:
    """P(r,b|a) = |<b|M(r)|a>|^2 over all outcomes and final states.

    <b|M(r)|a> = sum_m sqrt(P(r|x_m)) Y[m, b], and ``_transfer`` splits Y
    into real pieces whose products with sqrt(P) are orthogonal parts of it,
    so P(r, b|a) is the sum over pieces of (sqrt(P)[:, rows] @ piece)^2
    (``_joint_table``), folded on the mirror where Y and the kernel allow,
    at one column of each pair of equal ones.  Each column sum runs over r
    in the laid-out table's order (the rows computed, then their mirror
    copies), so the marginal P_b, and from it the total variation, has the
    bits of ``table.sum(axis=0)``.  As P >= 0, the factorization residual
    is max_b (max_r P / P_b) |P(b|a) - P_b|; the ratio is at most one, so a
    tiny P_b cannot overflow.
    """
    inter = measurement.basis
    if a.dim != inter.dim or final_basis.dim != inter.dim:
        raise ValueError("dimension mismatch between state, bases and operators")
    transfer = _transfer(a, inter, final_basis, measurement.mirrored)
    computed = _joint_table(transfer, measurement)
    d, half = inter.dim, len(computed)
    sums = computed.sum(axis=0)
    if half < d:       # then the mirror rows r > 0, as the laid-out table adds them, row by row
        sums = np.vstack([sums, computed[d - half - 1 :: -1]]).sum(axis=0)
    marginal_b = sums[transfer.columns]
    safe = np.where(marginal_b > 0.0, marginal_b, 1.0)
    baseline = transfer.baseline
    column_max = computed.max(axis=0)[transfer.columns]
    return JointDistribution(
        r_grid=measurement.r_grid,
        baseline=baseline,
        total_variation=0.5 * float(np.abs(marginal_b - baseline).sum()),
        factorization_residual=float(np.max(column_max / safe * np.abs(baseline - safe))),
        total_probability=float(marginal_b.sum()),
        _computed=computed,
        _columns=transfer.columns,
    )


def _joint_table(transfer: _Transfer, measurement: Measurement) -> np.ndarray:
    """P(r, b|a) at the rows r computed and the columns computed
    (``_Transfer.columns``), as a C-ordered [r, column] array: the sum over
    pieces of (sqrt(P)[:, rows] @ piece)^2, each product taken as
    [column, r] so a column group adds into whole rows of the accumulator,
    and each sum over m as _SPLIT partial products over interleaved runs of
    m, added pairwise (``_split_product``).  The pieces hold only the
    columns computed: one of each pair b, -b that the final basis' mirror
    makes equal, about half of them for spin y rows.

    Folded (``_Transfer.folded``), each piece's rows are closed under the
    mirror m -> -m (index m -> d - 1 - m), and its columns split by their
    sign s, with piece[-m, b] = s piece[m, b] off the centre.  So a
    column's sum over m is a sum over the rows m < 0 against
    K_s(r, m) = sqrt P(r|m) + s sqrt P(r|-m), plus the centre once where
    s = +1; where s = -1 the centre holds roundoff of an exact zero and is
    dropped.  The kernel is mirror-symmetric bit for bit
    (``gaussian_kernel``), so P(-r, b|a) = P(r, b|a): only the rows r <= 0
    are computed, and ``JointDistribution.table`` lays out the rows r > 0
    as their mirror copies.  Unfolded, every row r is computed, and a
    piece's block is sqrt(P) at its rows: Re Y and Im Y read the same rows,
    so they share one block.
    """
    d = transfer.baseline.size
    half = (d + 1) // 2 if transfer.folded else d
    top_t = np.zeros((int(transfer.columns.max()) + 1, half))   # as [column, r]
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
    return np.ascontiguousarray(top_t.T)


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
    columns laid out as [column, m], the columns indexing those computed
    (``_Transfer.columns``).  Folded, ``rows`` are the piece's rows
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
    """Y's real pieces at the columns computed, laid out once (``_Piece``),
    whether they fold, the baseline |<b|a>|^2, and ``columns``: each b's
    index among the columns computed (``_column_mirror``)."""

    pieces: tuple[_Piece, ...]
    baseline: np.ndarray
    folded: bool
    columns: np.ndarray


# Rows of Y that ``_transfer`` builds at a time; even, so a block starting
# at a multiple of it starts at an even m.
_BLOCK = 64


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
    Where in every piece column d - 1 - b is an exact +-copy of column b,
    read off the bits (``_column_mirror``), the two columns of P are equal
    and only the first is computed.  Spin y rows are such a mirror within
    each parity piece, at every j: a rotation by pi about z maps Jy to -Jy
    and |m> to a sign alternating in m.  Spin x rows are not (their one
    real piece's sign alternates in m), nor is a complex a through x: they
    keep every column.
    For a ``mirrored`` kernel, each piece's row mirror signs are read
    off its off-centre rows, exactly (``_sign_groups``: spin x and y rows
    are exact mirrors, and a y row's sign alternates with m, so each parity
    has its own).  Y folds where every piece has them and its rows map onto
    themselves under the mirror (full-height pieces, or even and odd rows
    at odd d); half-integer spins (even d) with even/odd pieces do not, as
    the mirror swaps those pieces' rows.  Each piece is laid out once, in
    the form the product reads (``_Piece``).
    Y itself is never laid out: each pass builds _BLOCK rows at a time
    (``scaled_overlaps``) and keeps per-column reductions.  The first reads
    the zeros, the second each row block with its mirror block, and the
    third fills the parts, from the rows r <= 0 where Y folds.
    Independent of the kernel's values, so a sweep builds them once: the
    keys are immutable and hash by identity.  The arrays are read-only and
    C-contiguous.
    """
    coeffs = expand(a, inter)
    d, k = coeffs.size, coeffs.size // 2

    def block(lo: int, hi: int) -> np.ndarray:
        return scaled_overlaps(coeffs, inter, final, slice(lo, hi))

    nonzero = np.zeros((2, 2, d), dtype=bool)      # [Re or Im, even or odd m, b]
    for lo in range(0, d, _BLOCK):
        y = block(lo, min(lo + _BLOCK, d))
        for part, flags in zip((y.real, y.imag), nonzero):
            flags |= [part[rows].any(axis=0) for rows in (_EVEN, _ODD)]
    if not nonzero[1].any():
        rows = (_ALL,)
    elif _parity_axes(nonzero):
        rows = (_EVEN, _ODD)
    else:
        rows = (_ALL, _ALL)

    def split(y: np.ndarray, lo: int) -> list[np.ndarray]:
        """Each piece's rows among Y's rows lo, lo + 1, ... (the block y)."""
        if rows[0] is _EVEN:
            return [y.real[p::2] + y.imag[p::2] for p in (lo % 2, 1 - lo % 2)]
        return [y.real, y.imag][: len(rows)]

    # Per piece, columns d - 1 - b against b < k, and rows d - 1 - m against
    # m < k (the same mirror within a piece that folds): equal, or negated.
    col_flags = np.ones((len(rows), 2, k), dtype=bool)
    row_flags = np.ones((len(rows), 2, d), dtype=bool)
    fold = mirrored and (rows[0] is _ALL or d % 2 == 1)
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        low, high = split(block(lo, hi), lo), split(block(d - hi, d - lo), d - hi)
        for low_p, high_p, cols, flags in zip(low, high, col_flags, row_flags):
            cols &= _column_flags(low_p) & _column_flags(high_p)
            if fold:
                flags &= _equal_or_negated(high_p[::-1], low_p)
    if d % 2:                                      # the centre row, columns only
        for piece, cols in zip(split(block(k, k + 1), k), col_flags):
            cols &= _column_flags(piece)
    kept, columns = _column_mirror(col_flags, d)
    groups = [_sign_groups(flags[:, kept]) if fold else None for flags in row_flags]
    folded = None not in groups

    laid = [_lay_out(np.arange(d)[r], kept, signs if folded else None)
            for r, signs in zip(rows, groups)]
    top = (d + 1) // 2 if folded else d           # the rows m <= 0 where Y folds
    for lo in range(0, top, _BLOCK):
        first = lo if rows[0] is _ALL else lo // 2   # the block's first row in each piece
        for piece_rows, (piece, slots) in zip(split(block(lo, min(lo + _BLOCK, top)), lo), laid):
            for (_, part), (cols, slot) in zip(piece.parts, slots):
                at = slot[first : first + len(piece_rows)]
                filled = np.flatnonzero(at >= 0)
                part[:, at[filled]] = piece_rows[np.ix_(filled, cols)].T
    for piece, _ in laid:
        for _, part in piece.parts:
            _frozen(part)
    baseline = np.abs(expand(a, final)) ** 2
    return _Transfer(tuple(piece for piece, _ in laid), _frozen(baseline), folded, _frozen(columns))


def _equal_or_negated(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Per column, whether ``high`` equals ``low`` at every row, and whether
    it is its negative, bit for bit (so +0 and -0 match)."""
    return np.stack([(high == low).all(axis=0), (high == -low).all(axis=0)])


def _column_flags(piece: np.ndarray) -> np.ndarray:
    """``_equal_or_negated`` of columns d - 1 - b against b < d // 2 of a
    piece's rows."""
    k = piece.shape[1] // 2
    return _equal_or_negated(piece[:, ::-1][:, :k], piece[:, :k])


def _column_mirror(flags: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns to compute, and each column's index among them.

    Columns b and d - 1 - b (b < d - 1 - b) give the same column of P when
    in every piece one is an exact +-copy of the other, read bit for bit
    (``flags``: per piece, ``_column_flags`` over all its rows; a sign per
    piece and column, like ``_sign_groups`` per row); then b is computed and
    d - 1 - b maps to it.  Every other column maps to itself.
    """
    copies = np.all(flags.any(axis=1), axis=0)
    source, mirrored = np.arange(d), np.flatnonzero(copies)
    source[d - 1 - mirrored] = mirrored
    return np.unique(source, return_inverse=True)


def _lay_out(m: np.ndarray, kept: np.ndarray, signs) -> tuple[_Piece, list]:
    """The ``_Piece`` of a piece at the rows ``m`` and the columns ``kept``,
    folded on its column ``signs`` (``_sign_groups``) or, where they are
    None, not, with its parts allocated, and per part the columns of Y it
    holds and, per row of the piece, its slot in the part (-1: none)."""
    if signs is None:
        # The columns in quarters, so each product's partials are the size of
        # a folded one's: a quarter of the columns by d rows, against half
        # of them by d/2.
        order, starts = _runs(m.size)
        heads, mirrors = [order] * 4, None
        edges = np.linspace(0, kept.size, 5).astype(int)
        groups = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    else:
        k = m.size // 2
        order, starts = _runs(k)
        heads = (np.append(order, k)[: m.size - k], order)   # the centre with sign +1 only
        groups, mirrors = signs, m[::-1][:k][order]
    parts, slots = [], []
    for head, cols in zip(heads, groups):
        slot = np.full(m.size, -1)
        slot[head] = np.arange(head.size)
        parts.append((cols, np.empty((kept[cols].size, head.size))))
        slots.append((kept[cols], slot))
    return _Piece(m[heads[0]], mirrors, starts, tuple(parts)), slots


def _runs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows 0..k-1 in _SPLIT interleaved runs (every _SPLIT-th row
    each), and where each run starts."""
    runs = [np.arange(i, k, _SPLIT) for i in range(_SPLIT)]
    return np.concatenate(runs), np.cumsum([0, *map(len, runs[:-1])])


def _parity_axes(nonzero: np.ndarray) -> bool:
    """True when each column's even-row entries lie on one axis (all their
    real or all their imaginary parts zero) and its odd-row entries on the
    other, from ``nonzero[part, parity, column]``: whether the real (0) or
    imaginary (1) parts of the even (0) or odd (1) rows are nonzero."""
    (even_imag, odd_imag), (even_real, odd_real) = ~nonzero
    return bool(np.all((even_real & odd_imag) | (even_imag & odd_real)))


def _sign_groups(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The indices of a piece's columns of mirror sign +1 and of sign -1,
    from ``flags``: per column, whether its off-centre rows are mirror
    copies, piece[n - 1 - l] = +piece[l], and whether negated ones, read bit
    for bit (``_equal_or_negated``); None when some column has neither.  A
    column that is zero off the centre has both signs and goes with +1,
    which keeps the centre.
    """
    even, odd = flags
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
    support columns only, each run of them read as one block, which a
    lattice kernel builds from its row (no d x d P is laid out); the edge
    columns take their neighbour's value.
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
    # the ufunc sequence of np.diff(table, 2, axis=1), from one block of
    # columns per run of the support; the edge columns are clipped onto
    # their neighbour, which then serves two support points.
    index, peaks = np.flatnonzero(support), []
    for run in np.split(np.arange(n_support), np.flatnonzero(np.diff(index) > 1) + 1):
        c = np.clip(index[run], 1, profile.dim - 2)
        cols = measurement.at(_ALL, slice(c[0] - 1, c[-1] + 2))
        mid = cols[:, 1:-1]
        pcurv = np.abs((cols[:, 2:] - mid) - (mid - cols[:, :-2]))
        pcurv /= profile.spacing[c[0] : c[-1] + 1] ** 2
        if c.size > pcurv.shape[1]:
            pcurv = pcurv[:, c - c[0]]
        peaks.append(np.max(pcurv / scurv[run][np.newaxis, :]))
    max_ratio = float(np.max(peaks))
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

