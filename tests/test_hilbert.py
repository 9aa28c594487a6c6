import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionlab import hilbert
from actionlab.hilbert import (
    DiagonalUnitary,
    LabeledBasis,
    PhysicalConstants,
    StateVector,
    apply_diagonal,
    eigh_hermitian,
    expand,
    frame_shift,
    inner,
    orthonormality_deviation,
    random_state,
    scaled_overlaps,
    synthesize,
)
from conftest import (
    DegenerateSpectrumError,
    bitwise_equal,
    change_basis,
    dense_expand,
    dft_rows,
    haar_basis,
    hermitian_eigen,
    jacobi_eigh,
)

SQRT2 = np.sqrt(2.0)


def plus_x():
    return StateVector([1 / SQRT2, 1 / SQRT2])


def plus_y():
    # Convention: reference index 0 is the lower z eigenvalue; this vector
    # satisfies <+y|+x> = (1 - i)/2.
    return StateVector([1j / SQRT2, 1 / SQRT2])


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([1.0, 1.0])

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError, match="dimension"):
            StateVector([1.0])

    def test_small_norm_drift_renormalized(self):
        amp = np.array([1.0, 0.0]) * (1 + 1e-8)
        psi = StateVector(amp)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_immutable(self):
        psi = StateVector([1.0, 0.0])
        with pytest.raises(AttributeError):
            psi.amplitudes = np.zeros(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0

    @given(st.floats(min_value=2e-6, max_value=0.5), st.booleans())
    def test_rejection_threshold(self, drift, sign):
        scale = 1 + drift if sign else 1 - drift
        with pytest.raises(ValueError):
            StateVector(np.array([scale, 0.0]))


class TestInner:
    def test_self_inner_is_one(self):
        rng = np.random.default_rng(3)
        psi = random_state(7, rng)
        assert inner(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_golden_value(self):
        # Hand arithmetic: conj(i, 1).(1, 1)/2 = (1 - i)/2.
        val = inner(plus_y(), plus_x())
        assert val == pytest.approx((1 - 1j) / 2, abs=1e-15)
        assert abs(val) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_pair(self):
        assert inner(StateVector([1, 0]), StateVector([0, 1])) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(StateVector([1, 0]), StateVector([1, 0, 0]))


class TestExpand:
    def test_basis_vector_expansion_is_delta(self):
        basis = LabeledBasis(np.eye(4), [0.0, 1.0, 2.0, 3.0])
        amps = expand(basis.state(2), basis)
        assert np.allclose(amps, [0, 0, 1, 0], atol=1e-15)

    def test_plus_x_in_z_basis(self):
        basis = LabeledBasis(np.eye(2), [-0.5, 0.5])
        amps = expand(plus_x(), basis)
        assert np.allclose(np.abs(amps), 1 / SQRT2, atol=1e-15)

    def test_reconstruction_identity_d401(self):
        # Oracle: the direct inner product.  Momentum-type basis at d=401.
        d = 401
        n = np.arange(d)
        k = np.arange(d) - d // 2
        vectors = np.exp(2j * np.pi * np.outer(k, n) / d) / np.sqrt(d)
        basis = LabeledBasis(vectors, k.astype(float))
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b = random_state(d, rng), random_state(d, rng)
            total = np.sum(np.conj(expand(b, basis)) * expand(a, basis))
            assert abs(total - inner(b, a)) < 1e-12

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, dim, seed):
        rng = np.random.default_rng(seed)
        basis = LabeledBasis(haar_basis(dim, rng), np.arange(dim, dtype=float))
        psi = random_state(dim, rng)
        assert np.sum(np.abs(expand(psi, basis)) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestApplyDiagonal:
    def test_zero_phases_identity(self):
        basis = LabeledBasis(np.eye(3), [0.0, 1.0, 2.0])
        psi = StateVector([0.5, 0.5, 1 / SQRT2])
        out = apply_diagonal(DiagonalUnitary(basis, np.zeros(3)), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_qubit_alignment_onto_plus_y(self):
        # Phases (+pi/4, -pi/4) on the ascending z grid map |+x> onto |+y|.
        basis = LabeledBasis(np.eye(2), [-0.5, 0.5])
        unitary = DiagonalUnitary(basis, [np.pi / 4, -np.pi / 4])
        out = apply_diagonal(unitary, plus_x())
        assert abs(inner(plus_y(), out)) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_leaves_probabilities(self):
        rng = np.random.default_rng(5)
        basis = LabeledBasis(haar_basis(6, rng), np.arange(6.0))
        psi = random_state(6, rng)
        out = apply_diagonal(DiagonalUnitary(basis, np.full(6, 0.7)), psi)
        probe = random_state(6, rng)
        assert abs(inner(probe, out)) == pytest.approx(abs(inner(probe, psi)), abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        basis = LabeledBasis(haar_basis(9, rng), np.arange(9.0))
        psi = random_state(9, rng)
        out = apply_diagonal(DiagonalUnitary(basis, rng.uniform(0, 7, 9)), psi)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestFrameShift:
    def test_t_zero_unchanged(self):
        basis = LabeledBasis(np.eye(2), [-0.5, 0.5])
        gen = DiagonalUnitary(basis, [-1.0, 1.0])
        a, b = plus_x(), plus_y()
        at, bt = frame_shift(a, b, gen, 0.0)
        assert np.allclose(at.amplitudes, a.amplitudes)
        assert np.allclose(bt.amplitudes, b.amplitudes)

    def test_transition_probability_invariant(self, spin20):
        # Oracle: direct recomputation at 100 random times.
        z = spin20.basis("z")
        gen = DiagonalUnitary(z, -z.eigenvalues)
        rng = np.random.default_rng(17)
        a = random_state(spin20.dimension, rng)
        b = random_state(spin20.dimension, rng)
        p0 = abs(inner(b, a)) ** 2
        worst = max(
            abs(abs(inner(*reversed(frame_shift(a, b, gen, float(t))))) ** 2 - p0)
            for t in rng.uniform(-30, 30, size=100)
        )
        assert worst < 1e-12


class TestEigensolver:
    def test_diagonal_matrix(self):
        basis = hermitian_eigen(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(basis.eigenvalues, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(basis.vectors), np.eye(3)[[1, 2, 0]], atol=1e-14)

    def test_pauli_x_half(self):
        basis = hermitian_eigen(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        assert np.allclose(basis.eigenvalues, [-0.5, 0.5], atol=1e-14)
        # Eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase.
        assert abs(basis.vectors[0] @ np.array([1, -1]) / SQRT2) == pytest.approx(1, abs=1e-12)
        assert abs(basis.vectors[1] @ np.array([1, 1]) / SQRT2) == pytest.approx(1, abs=1e-12)

    def test_spin1_jx_characteristic_polynomial_oracle(self):
        # det(Jx - w) = -w^3 + w for j=1, so the spectrum is (-1, 0, 1).
        c = 1 / SQRT2
        jx = np.array([[0, c, 0], [c, 0, c], [0, c, 0]], dtype=complex)
        basis = hermitian_eigen(jx)
        assert np.allclose(basis.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_residuals_random_hermitian(self):
        rng = np.random.default_rng(23)
        for dim in (2, 5, 17, 40):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (x + x.conj().T) / 2
            w, v = eigh_hermitian(h)
            assert np.max(np.abs(h @ v - v * w)) < 1e-9 * max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_agrees_with_jacobi_oracle(self):
        # LAPACK and the independent Jacobi oracle must coincide.
        rng = np.random.default_rng(29)
        for dim in (3, 8, 21):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (x + x.conj().T) / 2
            w1, _ = eigh_hermitian(h)
            w2, v2 = jacobi_eigh(h)
            assert np.allclose(w1, w2, atol=1e-10 * max(1.0, np.max(np.abs(h))))
            assert np.max(np.abs(h @ v2 - v2 * w2)) < 1e-9 * max(1.0, np.max(np.abs(h)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_spectrum_rejected_for_basis(self):
        with pytest.raises(DegenerateSpectrumError):
            hermitian_eigen(np.eye(3))

    def test_degenerate_spectrum_deterministic_vectors(self):
        h = np.diag([1.0, 1.0, 2.0])
        w1, v1 = eigh_hermitian(h)
        w2, v2 = eigh_hermitian(h.copy())
        assert np.allclose(w1, [1.0, 1.0, 2.0])
        assert np.array_equal(v1, v2)
        assert np.max(np.abs(v1.conj().T @ v1 - np.eye(3))) < 1e-12


class TestLabeledBasis:
    def test_orthonormality_enforced(self):
        bad = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="orthonormal"):
            LabeledBasis(bad, [0.0, 1.0])

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            LabeledBasis(np.eye(2), [1.0, 1.0])

    def test_subset_basis_allowed(self):
        sub = LabeledBasis(np.eye(4)[:2], [0.0, 1.0])
        assert sub.n_states == 2
        assert sub.dim == 4
        assert sub.n_states < sub.dim

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)
        assert PhysicalConstants(hbar=2.0).hbar == 2.0


def centred_fourier(n: int) -> LabeledBasis:
    """The n-site ring's momentum rows: centred wave numbers, used as labels."""
    k = np.arange(n) - n // 2
    return LabeledBasis.fourier(k, k.astype(float))


def real_rows(basis) -> bool:
    """True for a basis that stores real rows (the spin x and y bases)."""
    return not basis.is_identity and basis._rows.dtype == np.float64


def assert_same(got, want, real: bool):
    """Bitwise equality, or agreement to 1e-15 when a real-row product stands in."""
    if real:
        assert np.max(np.abs(got - want)) <= 1e-15
    else:
        assert np.array_equal(got.view(float), want.view(float))


class TestPhasedBasis:
    """The spin y basis: the x rows X with phases, y_k[m] = c_k D_m X[k, m]."""

    @pytest.fixture(params=[20.0, 20.5, 200.0])
    def system(self, request):
        from actionlab.models import spin_system

        return spin_system(request.param)

    def test_stores_real_rows_and_no_matrix_of_its_own(self, system):
        x, y = system.basis("x"), system.basis("y")
        assert x.vectors.dtype == np.float64 and x._rows.dtype == np.float64
        assert y._rows is x._rows
        assert y._state_phases.shape == y._site_phases.shape == (system.dimension,)
        assert y.vectors.dtype == complex and not y.vectors.flags.writeable
        # Both phase vectors are exact powers of i.
        for phases in (y._state_phases, y._site_phases):
            assert np.all(np.isin(phases, [1, 1j, -1, -1j]))

    def test_products_match_dense_rows(self, system):
        y, x, z = system.basis("y"), system.basis("x"), system.basis("z")
        dense = y.vectors
        rng = np.random.default_rng(12)
        for _ in range(3):
            psi = random_state(system.dimension, rng)
            assert np.max(np.abs(expand(psi, y) - dense.conj() @ psi.amplitudes)) <= 1e-15
            coeffs = expand(psi, y)
            assert np.max(np.abs(synthesize(coeffs, y) - dense.T @ coeffs)) <= 1e-15
        for k in (0, system.dimension // 3, system.dimension - 1):
            assert np.max(np.abs(y.state(k).amplitudes - dense[k])) <= 1e-15
        rows = rng.normal(size=(4, system.dimension)) + 1j * rng.normal(size=(4, system.dimension))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for source, target in ((z, y), (y, z), (x, y), (y, x)):
            want = rows @ source.vectors @ target.vectors.conj().T
            assert np.max(np.abs(change_basis(rows, source, target) - want)) <= 1e-15

    def test_dense_rows_are_one_array_with_the_bits_of_the_product(self, system):
        # (c_k X[k, m]) D_m, the second product taken in place: the bits of
        # the out-of-place expression, with one d x d complex array and
        # numpy's buffers for casting the real rows (8192 entries each).
        import tracemalloc

        y = system.basis("y")
        want = y._state_phases[:, np.newaxis] * y._rows * y._site_phases
        tracemalloc.start()
        try:
            dense = y.vectors
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dense.tobytes() == want.tobytes()
        assert peak < dense.nbytes + 2 * 8192 * 16

    def test_rephased_rejects_bad_input(self, system):
        x, y = system.basis("x"), system.basis("y")
        d = system.dimension
        with pytest.raises(ValueError, match="real-row"):
            y.rephased(np.ones(d), np.ones(d))
        with pytest.raises(ValueError, match="unit modulus"):
            x.rephased(2.0 * np.ones(d), np.ones(d))
        with pytest.raises(ValueError, match="phases"):
            x.rephased(np.ones(d - 1), np.ones(d))


class TestStructuredBases:
    """Identity, DFT and subset bases skip work the dense constructor does;
    these oracles redo it."""

    @pytest.fixture(params=["spin20-x", "spin20-y", "spin20-z", "qubit-z",
                            "ring256-momentum", "ring256-position", "ring256-positive-energy"])
    def basis(self, request, spin20, qubit, ring256):
        system, name = request.param.split("-", 1)
        if name == "positive-energy":
            return ring256.energy_basis()
        return {"spin20": spin20, "qubit": qubit, "ring256": ring256}[system].basis(name)

    def test_expand_bitwise_equals_conjugate_product(self, basis):
        # Identity bases are checked against np.eye, dense ones against their
        # rows: complex rows bit for bit, real (spin x, phased y) ones to 1e-15.
        rows = np.eye(basis.dim, dtype=complex) if basis.is_identity else basis.vectors
        rng = np.random.default_rng(8)
        for _ in range(3):
            psi = random_state(basis.dim, rng)
            assert_same(expand(psi, basis), rows.conj() @ psi.amplitudes, real_rows(basis))

    def test_synthesis_bitwise_equals_transpose_product(self, basis):
        rows = np.eye(basis.dim, dtype=complex) if basis.is_identity else basis.vectors
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=basis.n_states) + 1j * rng.normal(size=basis.n_states)
        assert_same(synthesize(coeffs, basis), rows.T @ coeffs, real_rows(basis))

    @pytest.mark.parametrize("source_name", ["x", "z"])
    @pytest.mark.parametrize("target_name", ["y", "z"])
    def test_change_basis_matches_dense_overlap_product(self, spin20, source_name, target_name):
        # Oracle: R S T^dag with both bases dense (np.eye for the identity).
        source, target = spin20.basis(source_name), spin20.basis(target_name)
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(3, 41)) + 1j * rng.normal(size=(3, 41))
        got = change_basis(rows, source, target)
        assert np.max(np.abs(got - rows @ source.vectors @ target.vectors.conj().T)) < 1e-13
        back = change_basis(got, target, source)
        assert np.max(np.abs(back - rows)) < 1e-13
        if source.is_identity and target.is_identity:
            assert got is rows

    @pytest.mark.parametrize("source_name", ["x", "z"])
    @pytest.mark.parametrize("target_name", ["x", "y", "z"])
    def test_scaled_overlaps_bitwise_equal_diagonal_change_basis(self, spin20, source_name,
                                                                 target_name):
        # From the identity the product with diag(c) is skipped; the entries
        # are the same bits, as each sum over m has one nonzero term.
        source, target = spin20.basis(source_name), spin20.basis(target_name)
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=41) + 1j * rng.normal(size=41)
        got = scaled_overlaps(coeffs, source, target)
        assert got.flags.c_contiguous
        assert np.array_equal(got, change_basis(np.diag(coeffs), source, target))

    @pytest.mark.parametrize("target_name", ["x", "y", "z"])
    @pytest.mark.parametrize("state", ["x eigenstate", "complex"])
    def test_scaled_overlaps_from_identity_same_bits_as_conjugated_copy(self, spin20, state,
                                                                        target_name):
        # From the identity the output is conj(conj(c_m) T[k, m]), written in
        # place, not c_m conj(T[k, m]) from a conjugated copy of T.  Negation
        # is exact, so every entry has the same bits but for the sign of a
        # zero, which + 0.0 makes positive on both sides.
        z, target = spin20.basis("z"), spin20.basis(target_name)
        a = (spin20.basis("x").state_at(8.0) if state == "x eigenstate"
             else random_state(41, np.random.default_rng(14)))
        coeffs = expand(a, z)
        got = scaled_overlaps(coeffs, z, target)
        want = np.multiply(coeffs[:, np.newaxis], np.conj(target.vectors).T, order="C")
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("source_name, target_name",
                             [("x", "y"), ("x", "z"), ("y", "x"), ("y", "z")])
    def test_scaled_overlaps_from_spin_rows_bitwise_at_size(self, source_name, target_name):
        # The rows c_m <.|s_m> are scaled in place of the product with
        # diag(c): each entry of that product has one nonzero term, and the
        # phases of y are exact powers of i, so the bits are the same.
        from actionlab.models import spin_system

        system = spin_system(200.0)
        source, target = system.basis(source_name), system.basis(target_name)
        rng = np.random.default_rng(12)
        coeffs = rng.normal(size=401) + 1j * rng.normal(size=401)
        got = scaled_overlaps(coeffs, source, target)
        assert got.flags.c_contiguous
        assert np.array_equal(got, change_basis(np.diag(coeffs), source, target))

    @pytest.mark.parametrize("source_name, target_name",
                             [("z", "y"), ("z", "x"), ("z", "z"), ("x", "y"), ("y", "z")])
    def test_scaled_overlaps_row_blocks(self, source_name, target_name):
        # A block of source rows reads only what it needs.  From the identity,
        # or into it, each entry is elementwise, so a block has the bits of
        # the whole, zeros' signs too; a product with real target rows may
        # round a block in another order than the whole, within roundoff.
        from actionlab.models import spin_system

        system = spin_system(200.0)
        source, target = system.basis(source_name), system.basis(target_name)
        rng = np.random.default_rng(15)
        coeffs = rng.normal(size=401) + 1j * rng.normal(size=401)
        whole = scaled_overlaps(coeffs, source, target)
        for lo, hi in ((0, 64), (64, 128), (200, 201), (337, 401)):
            got = scaled_overlaps(coeffs, source, target, slice(lo, hi))
            assert got.flags.c_contiguous and got.shape == (hi - lo, 401)
            if source.is_identity or target.is_identity:
                assert got.tobytes() == whole[lo:hi].tobytes()
            else:
                assert np.max(np.abs(got - whole[lo:hi])) <= 1e-15 * np.max(np.abs(whole))

    @pytest.mark.parametrize("target_name", ["position", "momentum"])
    def test_scaled_overlaps_from_dft_rows_match_diagonal_product(self, ring256, target_name):
        # Complex rows: the BLAS may round the product with diag(c) in
        # another order, so the agreement is to roundoff.
        source, target = ring256.basis("momentum"), ring256.basis(target_name)
        rng = np.random.default_rng(13)
        coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
        got = scaled_overlaps(coeffs, source, target)
        want = change_basis(np.diag(coeffs), source, target)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_identity_stores_no_matrix(self, spin20):
        z = spin20.basis("z")
        assert z.is_identity and z.dim == z.n_states == 41
        assert np.array_equal(z.vectors, np.eye(41))
        assert not z.vectors.flags.writeable
        assert np.array_equal(z.state(7).amplitudes, np.eye(41)[7])
        with pytest.raises(ValueError, match="increasing"):
            LabeledBasis.identity([0.0, 2.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 256, 401])
    def test_fourier_rows_orthonormal_and_equal_to_direct_formula(self, n):
        # The Gram check the constructor no longer runs.
        basis = centred_fourier(n)
        assert orthonormality_deviation(basis.vectors) <= 1e-10
        assert bitwise_equal(basis.vectors, dft_rows(np.arange(n) - n // 2))

    @pytest.mark.parametrize("k", [np.array([0, 2]), np.array([0.0, 1.0]), np.array([[0, 1]])])
    def test_fourier_rejects_non_distinct_or_non_integer_wave_numbers(self, k):
        with pytest.raises(ValueError, match="wave numbers"):
            LabeledBasis.fourier(k, [0.0, 1.0])

    def test_subset_keeps_requested_rows_and_labels(self, spin20):
        x = spin20.basis("x")
        sub = x.subset([5, 2, 9], [0.0, 1.0, 2.5])
        assert sub.dim == 41 and sub.n_states == 3
        assert np.array_equal(sub.vectors, x.vectors[[5, 2, 9]])
        assert np.array_equal(sub.eigenvalues, [0.0, 1.0, 2.5])
        assert not sub.vectors.flags.writeable

    @pytest.mark.parametrize("rows, labels, match", [
        ([5, 2, 9], [0.0, 2.0, 1.0], "increasing"),
        ([5, 2], [0.0, 1.0, 2.0], "eigenvalues"),
        ([5, 5, 9], [0.0, 1.0, 2.0], "distinct"),
    ])
    def test_subset_rejects_bad_rows_or_labels(self, spin20, rows, labels, match):
        with pytest.raises(ValueError, match=match):
            spin20.basis("x").subset(rows, labels)


class TestBitwiseShortcuts:
    """The column read, the subset view and the mirrored DFT rows skip work
    the dense forms do, and keep every bit (signs of zero included); the
    conftest oracles redo that work."""

    @pytest.mark.parametrize("n, step", [(255, 1), (256, 1), (2047, 7), (2048, 7)])
    def test_position_eigenstate_expands_by_column_read(self, n, step):
        position, momentum = LabeledBasis.identity(np.arange(n, dtype=float)), centred_fourier(n)
        for k in sorted(set(range(0, n, step)) | {n - 1}):
            state = position.state(k)
            assert bitwise_equal(expand(state, momentum),
                                 dense_expand(state.amplitudes, momentum.vectors))

    def test_column_read_of_a_subset_view(self, ring256):
        sub = ring256.energy_basis()
        position = ring256.basis("position")
        for k in range(256):
            state = position.state(k)
            assert bitwise_equal(expand(state, sub), dense_expand(state.amplitudes, sub.vectors))

    @pytest.mark.parametrize("phase", [1j, -1.0])
    def test_other_single_entry_states_take_the_product(self, ring256, phase):
        # One nonzero entry that is not exactly 1: the column read would
        # return conj(V[:, k]) without the phase.
        momentum = ring256.basis("momentum")
        for k in (0, 77, 255):
            amps = np.zeros(256, dtype=complex)
            amps[k] = phase
            got = expand(StateVector(amps), momentum)
            assert bitwise_equal(got, dense_expand(amps, momentum.vectors))
            assert not np.array_equal(got, np.conj(momentum.vectors[:, k]))

    @pytest.mark.parametrize("n", [4, 255, 2047, 2048])
    def test_fourier_rows_bitwise_equal_out_of_place_sequence(self, n):
        # Without the O(n^3) Gram check of the test above, so at the ring's sizes too.
        assert bitwise_equal(centred_fourier(n).vectors, dft_rows(np.arange(n) - n // 2))

    @pytest.mark.parametrize("n", [5, 6, 7, 64])
    def test_fourier_mirror_for_any_wave_number_order(self, n):
        # Shuffled wave numbers, some shifted by a multiple of N, so that
        # some -k are present and some are not.
        rng = np.random.default_rng(n)
        k = rng.permutation(np.arange(n) - n // 2)
        k[:2] += n * np.array([2, -1])
        assert bitwise_equal(LabeledBasis.fourier(k, np.arange(n, dtype=float)).vectors,
                             dft_rows(k))

    def test_positive_energy_basis_is_a_read_only_view(self, ring256):
        momentum = ring256.basis("momentum")
        sub = ring256.energy_basis()
        assert not sub._rows.flags.writeable
        assert np.shares_memory(sub._rows, momentum._rows)
        keep = momentum.eigenvalues > 0.0
        energies = momentum.eigenvalues[keep] ** 2
        copied = momentum.vectors[np.flatnonzero(keep)[np.argsort(energies, kind="stable")]]
        assert bitwise_equal(sub.vectors, copied)

    @pytest.mark.parametrize("system, name, rows", [
        ("ring256", "momentum", [5, 2, 9]),
        ("ring256", "momentum", [3, 4, 6]),
        ("ring256", "momentum", [4, 3, 2]),
        ("spin20", "y", [3, 4, 5]),
        ("spin20", "z", [3, 4, 5]),
    ])
    def test_other_subsets_own_their_rows(self, request, system, name, rows):
        basis = request.getfixturevalue(system).basis(name)
        sub = basis.subset(rows, [0.0, 1.0, 2.0])
        assert sub._rows.flags.owndata and not sub._rows.flags.writeable
        assert bitwise_equal(sub.vectors, basis.vectors[rows])

    @pytest.mark.parametrize("rows", [[7, -1], [-1, 0], [0, 8], [True, False]])
    def test_subset_rejects_indices_outside_the_basis(self, rows):
        momentum = centred_fourier(8)
        with pytest.raises(ValueError, match=r"indices in \[0, 8\)"):
            momentum.subset(rows, [0.0, 1.0])

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_spin_expansion_keeps_the_real_product(self, spin20, name, monkeypatch):
        calls = []
        real_product = hilbert._real_product
        monkeypatch.setattr(hilbert, "_real_product",
                            lambda *args: calls.append(args) or real_product(*args))
        basis, z = spin20.basis(name), spin20.basis("z")
        for k in (0, 20, 40):
            got = expand(z.state(k), basis)
            assert np.max(np.abs(got - np.conj(basis.vectors[:, k]))) <= 1e-15
        assert len(calls) == 3


class TestStackedExpansion:
    """A stack of states (one per row) expands in one product.  Identity
    bases and reference basis vectors keep each row's own bits (signs of
    zero included).  Where a matrix product stands in for each row's own
    product, real rows agree with it to 1e-15 (the BLAS may sum a wider
    real product in another order) and dense complex rows to roundoff."""

    @pytest.fixture(params=["spin20-x", "spin20-y", "spin20-z", "ring256-position"])
    def basis(self, request, spin20, ring256):
        system, name = request.param.split("-")
        return {"spin20": spin20, "ring256": ring256}[system].basis(name)

    def test_identity_and_real_rows_agree_with_each_row(self, basis):
        rng = np.random.default_rng(21)
        states = [random_state(basis.dim, rng) for _ in range(7)]
        got = expand(np.stack([psi.amplitudes for psi in states]), basis)
        assert got.shape == (7, basis.n_states)
        for row, psi in zip(got, states):
            want = expand(psi, basis)
            if real_rows(basis):
                assert np.max(np.abs(row - want)) <= 1e-15
            else:
                assert bitwise_equal(row, want)

    @pytest.mark.parametrize("n", [255, 256])
    def test_reference_basis_vectors_are_column_reads(self, n, ring256):
        position = LabeledBasis.identity(np.arange(n, dtype=float))
        sites = [0, 1, 7, n // 2, n - 1, 7]
        stack = position.states(sites)
        targets = [centred_fourier(n)] + ([ring256.energy_basis()] if n == 256 else [])
        for target in targets:
            got = expand(stack, target)
            for row, k in zip(got, sites):
                assert bitwise_equal(row, expand(position.state(k), target))
                assert bitwise_equal(row, np.conj(target.vectors[:, k]))

    def test_dense_complex_rows_agree_to_roundoff(self, ring256):
        momentum = ring256.basis("momentum")
        rng = np.random.default_rng(22)
        states = [random_state(256, rng) for _ in range(9)]
        got = expand(np.stack([psi.amplitudes for psi in states]), momentum)
        for row, psi in zip(got, states):
            want = expand(psi, momentum)
            assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("sizes", [[2, 15], [3, 3, 11], [8, 9], [16, 1]])
    def test_blocks_of_two_or_more_rows_give_the_stacks_bits(self, ring256, sizes):
        momentum = ring256.basis("momentum")
        rng = np.random.default_rng(23)
        stack = np.stack([random_state(256, rng).amplitudes for _ in range(17)])
        whole = expand(stack, momentum)
        start = 0
        for size in sizes:
            if size >= 2:
                assert bitwise_equal(expand(stack[start:start + size], momentum),
                                     whole[start:start + size])
            start += size

    def test_stacked_arrival_matches_each_state(self, ring256):
        arrival = ring256.arrival
        position = ring256.basis("position")
        sites = [0, 40, 255]
        evolved = apply_diagonal(arrival, position.states(sites))
        for row, k in zip(evolved, sites):
            want = apply_diagonal(arrival, position.state(k)).amplitudes
            assert np.max(np.abs(row - want)) <= 1e-15
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-14)

    def test_states_stack_each_basis_state(self, basis):
        sites = [basis.n_states - 1, 0, 3]
        stack = basis.states(sites)
        assert stack.shape == (3, basis.dim) and stack.flags.writeable
        for row, k in zip(stack, sites):
            assert bitwise_equal(row, basis.state(k).amplitudes)

    def test_rejects_other_shapes(self, ring256):
        momentum = ring256.basis("momentum")
        with pytest.raises(ValueError, match="2-D"):
            expand(np.zeros(256, dtype=complex), momentum)
        with pytest.raises(ValueError, match="mismatch"):
            expand(np.zeros((2, 255), dtype=complex), momentum)


class TestStoredOrthonormality:
    """``LabeledBasis.orthonormality_deviation`` reads the stored form; the
    array function on the dense rows is its oracle."""

    @pytest.fixture(params=["identity", "real-x", "phased-y", "fourier", "subset",
                            "constructor"])
    def basis(self, request, spin20, ring256):
        if request.param == "subset":
            return ring256.energy_basis()
        if request.param == "constructor":
            return LabeledBasis(haar_basis(12, np.random.default_rng(41)), np.arange(12.0))
        system, name = {"identity": (spin20, "z"), "real-x": (spin20, "x"),
                        "phased-y": (spin20, "y"), "fourier": (ring256, "momentum")}[request.param]
        return system.basis(name)

    def test_agrees_with_dense_gram(self, basis):
        dense = orthonormality_deviation(basis.vectors)
        assert abs(basis.orthonormality_deviation() - dense) <= 1e-15

    def test_phase_of_wrong_modulus_shows(self, spin20):
        # 1e-7 off unit modulus passes rephased's 1e-6 gate, and the Gram
        # diagonal of state 0 is then (1 + 1e-7)^2 = 1 + 2e-7.
        x = spin20.basis("x")
        c = np.ones(x.n_states, dtype=complex)
        c[0] = 1.0 + 1e-7
        y = x.rephased(c, np.ones(x.dim))
        assert y.orthonormality_deviation() == pytest.approx(2e-7, rel=1e-6)
        assert orthonormality_deviation(y.vectors) == pytest.approx(2e-7, rel=1e-6)


def test_only_hilbert_reads_basis_storage():
    # The storage forms are private to hilbert: every other module goes
    # through its products and methods.
    import pathlib
    import re

    import actionlab

    private = re.compile(r"\._rows\b|\._state_phases\b|\._site_phases\b")
    package = pathlib.Path(actionlab.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if private.search(path.read_text()))
    assert readers == ["hilbert.py"]


class TestEigensolverStress:
    def test_dense_d101_residual_orthonormality_trace_norm(self):
        # Dense complex Hermitian at d = 101: small residuals, orthonormal
        # vectors, ascending eigenvalues, and the trace and Frobenius norm.
        rng = np.random.default_rng(97)
        d = 101
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (x + x.conj().T) / 2
        w, v = eigh_hermitian(h)
        scale = float(np.max(np.abs(h)))
        assert np.max(np.abs(h @ v - v * w)) < 1e-9 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10
        assert np.allclose(np.sort(w), w)
        # Trace and Frobenius norm are basis-independent cross-checks.
        assert np.sum(w) == pytest.approx(float(np.trace(h).real), abs=1e-9 * scale * d)
        assert np.sum(w * w) == pytest.approx(
            float(np.sum(np.abs(h) ** 2)), rel=1e-12)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(31, 31)) + 1j * rng.normal(size=(31, 31))
        h = (x + x.conj().T) / 2
        w1, v1 = eigh_hermitian(h)
        w2, v2 = eigh_hermitian(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestUnwrapProperty:
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=40),
        st.integers(min_value=0, max_value=39),
    )
    @settings(max_examples=60, deadline=None)
    def test_unwrap_recovers_smooth_sequence(self, steps, anchor_raw):
        # Any sequence with |step| < pi survives a wrap/unwrap round trip up
        # to the global multiple fixed at the anchor.
        from actionlab.action import unwrap_segment

        smooth = np.concatenate([[0.0], np.cumsum(steps)])
        wrapped = (smooth + np.pi) % (2 * np.pi) - np.pi
        anchor = min(anchor_raw, len(smooth) - 1)
        out = unwrap_segment(wrapped, 2 * np.pi, anchor=anchor)
        offset = out[anchor] - smooth[anchor]
        assert offset == pytest.approx(
            2 * np.pi * round(offset / (2 * np.pi)), abs=1e-9)
        assert np.allclose(out - offset, smooth, atol=1e-9)
