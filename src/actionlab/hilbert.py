"""Exact finite-dimensional Hilbert-space engine.

Complex state vectors, orthonormal labeled bases with real eigenvalue grids,
diagonal phase unitaries, and a Hermitian eigensolver (LAPACK with a
deterministic vector convention).  Everything is double precision and
immutable after construction; all operations are pure functions, so objects
can be shared freely between workers.

All amplitudes are stored in a fixed reference basis (the computational
basis of the model).  A ``LabeledBasis`` is a set of orthonormal vectors
expressed in that reference basis together with a strictly increasing grid
of real eigenvalues x_m.  The reference basis itself is an identity basis
that stores no matrix.  Every other basis holds its rows as a dense array,
either complex or real; a real-row basis may also carry one unit phase per
state and one per reference component, so that a second basis differing
from it only by such phases shares its rows.  ``_to_reference`` (z V) and
``_from_reference`` (z conj(V)^T) are the only products that read the
storage form; ``expand``, ``synthesize`` and ``change_basis`` are built on
them.  Products with real rows are real products on the stacked real and
imaginary parts of the other factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError

# Construction-time gates.  States deviating from unit norm by more than
# NORM_TOLERANCE are rejected rather than silently renormalized: a badly
# scaled input is almost always a caller bug.
NORM_TOLERANCE = 1e-6
ORTHONORMALITY_TOLERANCE = 1e-10
HERMITICITY_TOLERANCE = 1e-12
EIGEN_RESIDUAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PhysicalConstants:
    """Configuration constants; ``hbar`` sets the action unit."""

    hbar: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and np.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


class StateVector:
    """Normalized complex amplitude vector in the reference basis."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 1:
            raise ValueError(f"amplitudes must be one-dimensional, got shape {amp.shape}")
        if amp.shape[0] < 2:
            raise ValueError(f"dimension must be at least 2, got {amp.shape[0]}")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(
                f"state norm {norm!r} deviates from 1 by more than {NORM_TOLERANCE}; "
                "normalize explicitly before constructing"
            )
        amp = amp / norm
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def __repr__(self):
        return f"<StateVector dim={self.dim}>"


class LabeledBasis:
    """Orthonormal vectors carrying strictly increasing eigenvalue labels.

    ``vectors[k]`` holds the amplitudes of the k-th basis state in the
    reference basis; ``eigenvalues[k]`` is its label x_k with
    x_1 < x_2 < ... < x_n.  A full basis has as many states as the space has
    dimensions; a labeled orthonormal subset (for example one branch of a
    degenerate spectrum) is also allowed and spans a proper subspace, so
    expansions in it are not complete.

    The constructor takes arbitrary rows, stores a complex copy and checks
    their Gram matrix.  ``identity``, ``fourier``, ``subset``, ``rephased``
    and the package's own builders make bases that are orthonormal by
    construction and skip that O(n^2 d) check; an identity basis stores no
    matrix at all, and a rephased one shares the real rows it came from.
    """

    __slots__ = ("_rows", "_state_phases", "_site_phases", "eigenvalues", "spacing", "dim")

    def __init__(self, vectors, eigenvalues):
        mat = np.array(vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] > mat.shape[1]:
            raise ValueError(
                f"need n <= dim orthonormal row vectors, got shape {mat.shape}"
            )
        ev, spacing = _labels(eigenvalues, mat.shape[0])
        dev = orthonormality_deviation(mat)
        if dev > ORTHONORMALITY_TOLERANCE:
            raise ValueError(
                f"basis vectors not orthonormal: max Gram deviation {dev:.3e} "
                f"exceeds {ORTHONORMALITY_TOLERANCE}"
            )
        self._freeze(mat, ev, spacing, mat.shape[1])

    @classmethod
    def identity(cls, eigenvalues) -> LabeledBasis:
        """The reference basis itself, labeled by ``eigenvalues``; no matrix is stored."""
        return cls._orthonormal(None, eigenvalues, np.size(eigenvalues))

    @classmethod
    def fourier(cls, k, eigenvalues) -> LabeledBasis:
        """Unitary DFT rows exp(2 pi i k_j n / N) / sqrt(N) over N = len(k) sites.

        The integer wave numbers ``k`` must be distinct modulo N, which makes
        the rows orthonormal.  The rows are built in one array with the ufunc
        sequence of the out-of-place expression.
        """
        k = np.asarray(k)
        n = k.size
        if k.ndim != 1 or k.dtype.kind not in "iu" or np.unique(k % n).size != n:
            raise ValueError("need distinct integer wave numbers modulo their count")
        rows = np.empty((n, n), dtype=complex)
        np.multiply.outer(k, np.arange(n), out=rows)
        np.multiply(2j * np.pi, rows, out=rows)
        np.divide(rows, n, out=rows)
        np.exp(rows, out=rows)
        np.divide(rows, np.sqrt(n), out=rows)
        return cls._orthonormal(rows, eigenvalues, n)

    def subset(self, rows, eigenvalues) -> LabeledBasis:
        """States ``rows`` of this basis, in that order, relabeled by ``eigenvalues``.

        Distinct rows of an orthonormal set are orthonormal, so there is no
        Gram check; the rows are copied once.
        """
        idx = np.asarray(rows)
        if idx.ndim != 1 or np.unique(idx).size != idx.size:
            raise ValueError("subset rows must be distinct indices")
        return type(self)._orthonormal(self.vectors[idx], eigenvalues, self.dim)

    def rephased(self, state_phases, site_phases) -> LabeledBasis:
        """The states c_k D_m X[k, m] of this real-row basis X, same labels.

        ``state_phases`` holds one unit phase c_k per state and
        ``site_phases`` one D_m per reference component.  Unit phases keep
        orthonormal rows orthonormal, so there is no Gram check, and the new
        basis shares X: it stores no d x d array of its own.
        """
        if self._rows is None or self._rows.dtype.kind != "f" or self._state_phases is not None:
            raise ValueError("only a real-row basis without phases can be rephased")
        c = np.array(state_phases, dtype=complex)
        sites = np.array(site_phases, dtype=complex)
        if c.shape != (self.n_states,) or sites.shape != (self.dim,):
            raise ValueError(f"need {self.n_states} state and {self.dim} site phases, "
                             f"got shapes {c.shape} and {sites.shape}")
        if max(np.max(np.abs(np.abs(c) - 1.0)), np.max(np.abs(np.abs(sites) - 1.0))) > NORM_TOLERANCE:
            raise ValueError("phases must have unit modulus")
        basis = object.__new__(type(self))
        basis._freeze(self._rows, self.eigenvalues, self.spacing, self.dim, c, sites)
        return basis

    @classmethod
    def _orthonormal(cls, rows, eigenvalues, dim: int) -> LabeledBasis:
        """A basis on rows that are orthonormal by construction (None: the
        identity; complex or real); the labels are checked, the Gram matrix
        is not.  The rows are taken over, not copied."""
        ev, spacing = _labels(eigenvalues, dim if rows is None else rows.shape[0])
        basis = object.__new__(cls)
        basis._freeze(rows, ev, spacing, dim)
        return basis

    def _freeze(self, rows, ev, spacing, dim, state_phases=None, site_phases=None):
        for arr in (rows, state_phases, site_phases):
            if arr is not None:
                arr.flags.writeable = False
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_state_phases", state_phases)
        object.__setattr__(self, "_site_phases", site_phases)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledBasis is immutable")

    @property
    def is_identity(self) -> bool:
        """True for the reference basis, which stores no matrix."""
        return self._rows is None

    @property
    def vectors(self) -> np.ndarray:
        """Dense (n_states, dim) rows.

        The stored rows where they are the vectors; an identity basis builds
        np.eye and a rephased one its complex rows on each call.
        """
        if self._rows is None:
            dense = np.eye(self.dim, dtype=complex)
        elif self._state_phases is None:
            return self._rows
        else:
            dense = self._state_phases[:, np.newaxis] * self._rows * self._site_phases
        dense.flags.writeable = False
        return dense

    def orthonormality_deviation(self) -> float:
        """Max |V V^dag - I| from the stored form, without dense rows.  Phased
        rows c_k D_m X[k, m] take the real Gram of |c_k| |D_m| X[k, m]: the
        same moduli, so a phase of the wrong modulus still shows."""
        if self._rows is None:
            return 0.0
        if self._state_phases is None:
            return orthonormality_deviation(self._rows)
        moduli = np.abs(self._state_phases)[:, np.newaxis] * self._rows
        moduli *= np.abs(self._site_phases)
        return orthonormality_deviation(moduli)

    @property
    def n_states(self) -> int:
        """Number of labeled states (equals dim for a full basis)."""
        return self.eigenvalues.shape[0]

    def state(self, k: int) -> StateVector:
        """Basis vector k as a StateVector."""
        if self._rows is None:
            unit = np.zeros(self.dim, dtype=complex)
            unit[k] = 1.0
            return StateVector(unit)
        if self._state_phases is None:
            return StateVector(self._rows[k])
        return StateVector(self._state_phases[k] * self._rows[k] * self._site_phases)

    def state_at(self, x: float) -> StateVector:
        """Basis vector whose eigenvalue is closest to x."""
        return self.state(self.index_at(x))

    def index_at(self, x: float) -> int:
        """Grid index of the eigenvalue closest to x."""
        return int(np.argmin(np.abs(self.eigenvalues - x)))

    def spacing_per_state(self) -> np.ndarray:
        """Per-state eigenvalue spacing, last entry duplicated.

        Used as the quadrature weight when sums over the grid stand in for
        integrals; any fixed convention works as long as densities and
        weights use the same array.
        """
        return np.concatenate([self.spacing, self.spacing[-1:]])

    def __repr__(self):
        ev = self.eigenvalues
        return f"<LabeledBasis dim={self.dim} x=[{ev[0]:g}..{ev[-1]:g}]>"


def _labels(eigenvalues, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of n strictly increasing finite labels and their spacings."""
    ev = np.array(eigenvalues, dtype=float)
    if n < 2:
        raise ValueError("need at least 2 labeled states")
    if ev.shape != (n,):
        raise ValueError(f"need {n} eigenvalues, got shape {ev.shape}")
    if not np.all(np.isfinite(ev)):
        raise ValueError("eigenvalues contain non-finite entries")
    spacing = np.diff(ev)
    if np.any(spacing <= 0.0):
        raise ValueError("eigenvalues must be strictly increasing")
    ev.flags.writeable = False
    spacing.flags.writeable = False
    return ev, spacing


class DiagonalUnitary:
    """Unitary that is diagonal in a labeled basis: phases in radians per state."""

    __slots__ = ("basis", "phases")

    def __init__(self, basis: LabeledBasis, phases):
        ph = np.asarray(phases, dtype=float)
        if ph.shape != (basis.n_states,):
            raise ValueError(f"need {basis.n_states} phases, got shape {ph.shape}")
        if not np.all(np.isfinite(ph)):
            raise ValueError("phases contain non-finite entries")
        ph = ph.copy()
        ph.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "phases", ph)

    def __setattr__(self, name, value):
        raise AttributeError("DiagonalUnitary is immutable")


def inner(psi: StateVector, phi: StateVector) -> complex:
    """Inner product <psi|phi>; its squared magnitude is the transition probability."""
    if psi.dim != phi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def orthonormality_deviation(vectors) -> float:
    """Max |V V^dag - I| over the rows of V; zero for orthonormal rows.

    Real rows take the real Gram product V V^T.
    """
    v = np.asarray(vectors)
    gram = v.conj() @ v.T if v.dtype.kind == "c" else v @ v.T
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.max(np.abs(gram)))


def _real_product(z: np.ndarray, pre, real: np.ndarray, post) -> np.ndarray:
    """((z * pre) @ real^T) * post for complex rows z, with ``real`` never upcast.

    numpy would copy a real matrix to complex for a mixed product.  Here
    (z * pre)^T is formed C-contiguous (one pass, one array), so its float
    view interleaves real and imaginary parts and ``real @ view`` is one
    real product whose float result is again a complex view.  ``pre`` and
    ``post`` are phase vectors or None; z may be one row or a matrix, and a
    matrix result is returned as a transposed (Fortran-order) view.
    """
    rows = z.reshape(-1, z.shape[-1])
    zt = np.empty(rows.shape[::-1], dtype=complex)
    if pre is None:
        zt[...] = rows.T
    else:
        np.multiply(rows.T, pre[:, np.newaxis], out=zt)
    out = (real @ zt.view(float)).view(complex)
    if post is not None:
        out *= post[:, np.newaxis]
    return out.T.reshape(z.shape[:-1] + (real.shape[0],))


def _to_reference(z: np.ndarray, basis: LabeledBasis) -> np.ndarray:
    """z V: the reference amplitudes of ``basis`` coefficients z (one row or
    a matrix of rows).  Real rows V[k, m] = c_k D_m X[k, m] take D times
    (z c) X as one real product."""
    rows = basis._rows
    if rows is None:
        return z
    if rows.dtype.kind == "f":
        return _real_product(z, basis._state_phases, rows.T, basis._site_phases)
    return z @ rows


def _from_reference(z: np.ndarray, basis: LabeledBasis) -> np.ndarray:
    """z conj(V)^T: the ``basis`` coefficients of reference amplitudes z.
    Real rows take conj(c) times (z conj(D)) X^T; complex rows take
    conj(conj(z) V^T), bitwise z conj(V)^T without a conjugate copy of V."""
    rows = basis._rows
    if rows is None:
        return z
    if rows.dtype.kind == "f":
        state, site = basis._state_phases, basis._site_phases
        if state is not None:
            state, site = np.conj(state), np.conj(site)
        return _real_product(z, site, rows, state)
    return np.conj(np.conj(z) @ rows.T)


def expand(psi: StateVector, basis: LabeledBasis) -> np.ndarray:
    """Amplitudes <m|psi> ordered by the basis eigenvalues, in a new array."""
    if psi.dim != basis.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {basis.dim}")
    coeffs = _from_reference(psi.amplitudes, basis)
    return coeffs.copy() if coeffs is psi.amplitudes else coeffs


def synthesize(coeffs: np.ndarray, basis: LabeledBasis) -> np.ndarray:
    """Reference-basis amplitudes of sum_m coeffs[m] |m>; the inverse of ``expand``."""
    return _to_reference(np.asarray(coeffs), basis)


def change_basis(rows: np.ndarray, source: LabeledBasis, target: LabeledBasis) -> np.ndarray:
    """Amplitudes in ``target`` of the vectors whose ``source`` coefficients are ``rows``.

    Row i of the result holds <t_k|v_i> with |v_i> = sum_m rows[i, m] |s_m>,
    that is rows S conj(T)^T; an identity basis skips its product.
    """
    return _from_reference(_to_reference(rows, source), target)


def scaled_overlaps(coeffs: np.ndarray, source: LabeledBasis, target: LabeledBasis) -> np.ndarray:
    """Y[m, k] = coeffs[m] <t_k|s_m> (``change_basis(np.diag(coeffs), ...)``), C-contiguous;
    from the reference basis it is the elementwise coeffs[m] conj(T[k, m]), with no product."""
    if source.is_identity:
        return np.multiply(coeffs[:, np.newaxis], np.conj(target.vectors).T, order="C")
    return np.ascontiguousarray(change_basis(np.diag(coeffs), source, target))


def apply_diagonal(unitary: DiagonalUnitary, psi: StateVector) -> StateVector:
    """Apply exp(i*phase_m) to each component of psi in the unitary's basis."""
    basis = unitary.basis
    if psi.dim != basis.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {basis.dim}")
    coeffs = expand(psi, basis) * np.exp(1j * unitary.phases)
    return StateVector(synthesize(coeffs, basis))


def frame_shift(
    a: StateVector, b: StateVector, unitary: DiagonalUnitary, t: float
) -> tuple[StateVector, StateVector]:
    """Evolve both states by the same diagonal unitary scaled to parameter t.

    The unitary's phases are interpreted as rates per unit t.  Applying the
    same unitary to preparation and measurement state leaves every transition
    probability unchanged, which is what makes the common time frame
    physically irrelevant.
    """
    scaled = DiagonalUnitary(unitary.basis, unitary.phases * float(t))
    return apply_diagonal(scaled, a), apply_diagonal(scaled, b)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random state: complex normal amplitudes, normalized."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# Hermitian eigensolver: LAPACK (numpy.linalg.eigh) plus a deterministic
# convention on top.  LAPACK fixes neither the order of vectors inside a
# degenerate cluster nor the global phase of each vector; both are pinned
# here so that every run and every BLAS returns the same basis up to roundoff.
# No model diagonalizes with it (the spin bases come from the Jx recurrence
# in ``models``); it serves general Hermitian matrices, and
# ``perfbench/tracing.py`` binds it by name.
# ---------------------------------------------------------------------------


def _check_hermitian(H) -> np.ndarray:
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    scale = max(float(np.max(np.abs(A))), 1.0)
    asym = float(np.max(np.abs(A - A.conj().T)))
    if asym > HERMITICITY_TOLERANCE * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dag| = {asym:.3e} "
            f"exceeds {HERMITICITY_TOLERANCE} * scale"
        )
    return (A + A.conj().T) / 2.0


def _lead_index(V: np.ndarray) -> np.ndarray:
    """Per column, the first index whose magnitude is within 1e-9 of the maximum.

    A plain argmax would let roundoff choose between exactly tied components
    (transverse spin eigenvectors have |c_m| = |c_-m|).
    """
    mags = np.abs(V)
    return np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)


def _canonical_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its leading component (``_lead_index``) is real positive."""
    pivots = V[_lead_index(V), np.arange(V.shape[1])]
    mags = np.abs(pivots)
    phases = np.where(mags > 0, pivots / np.where(mags > 0, mags, 1.0), 1.0)
    return V * np.conj(phases)[np.newaxis, :]


def _check_residual(H: np.ndarray, w: np.ndarray, V: np.ndarray) -> None:
    """Raise EigensolverError unless ||H V - V w||_inf is within tolerance."""
    scale = max(float(np.max(np.abs(H))), 1.0)
    resid = float(np.max(np.abs(H @ V - V * w[np.newaxis, :])))
    if resid > EIGEN_RESIDUAL_TOLERANCE * scale:
        raise EigensolverError(
            f"eigenpair residual {resid:.3e} exceeds "
            f"{EIGEN_RESIDUAL_TOLERANCE} * scale {scale:.3e}"
        )


def eigh_hermitian(H) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a Hermitian matrix, eigenvalues ascending.

    Returns (eigenvalues, vectors) with vectors[:, k] the k-th eigenvector.
    Degenerate clusters (gap below 1e-9 times the spectral range) are
    re-orthonormalized and deterministically ordered by the position of each
    vector's leading component; all columns get a canonical global phase.
    Residuals ||H v - w v||_inf are verified against
    EIGEN_RESIDUAL_TOLERANCE before returning.
    """
    A = _check_hermitian(H)
    w, V = np.linalg.eigh(A)
    # Deterministic handling of (near-)degenerate clusters.
    span = max(float(w[-1] - w[0]), 1.0)
    gap_tol = 1e-9 * span
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[stop] - w[stop - 1] <= gap_tol:
            stop += 1
        if stop - start > 1:
            # Columns are orthonormal to machine precision already; a QR pass
            # tightens the cluster and gives a reproducible in-cluster order.
            qmat, _ = np.linalg.qr(V[:, start:stop])
            V[:, start:stop] = qmat[:, np.argsort(_lead_index(qmat), kind="stable")]
        start = stop
    V = _canonical_phases(V)
    _check_residual(A, w, V)
    return w, V
