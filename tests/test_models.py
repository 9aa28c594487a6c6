import numpy as np
import pytest

from actionlab import models
from actionlab.errors import EigensolverError
from actionlab.hilbert import LabeledBasis, _lead_index, expand, inner, orthonormality_deviation
from actionlab.models import (
    RingParameters,
    angular_momentum_matrices,
    make_packet,
    ring_arrival_basis,
    spin_system,
    wrap_displacement,
)
from conftest import jacobi_eigh, lapack_spin_bases, ring_arrival_state


def assert_matches_lapack(system, j: float):
    """x and y equal the LAPACK oracle column for column within 1e-12; labels are exact."""
    w, vx, vy = lapack_spin_bases(j)
    x, y = system.basis("x"), system.basis("y")
    assert np.array_equal(x.eigenvalues, -j + np.arange(system.dimension))
    assert np.array_equal(y.eigenvalues, x.eigenvalues)
    assert np.max(np.abs(x.eigenvalues - w)) < 1e-9
    assert np.max(np.abs(x.vectors.T - vx)) < 1e-12
    assert np.max(np.abs(y.vectors.T - vy)) < 1e-12


def test_change_of_basis_residual_reads_stored_forms(monkeypatch):
    # The residual equals the dense Gram deviation without building any
    # dense rows: y's d x d complex rows are never formed.
    spin20 = spin_system(20.0)
    dense = max(orthonormality_deviation(b.vectors) for b in spin20.bases.values())

    def no_dense_rows(self):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(LabeledBasis, "vectors", property(no_dense_rows))
    assert abs(spin20.change_of_basis_residual() - dense) <= 1e-15


class TestQubit:
    def test_golden_inner_product(self, qubit):
        a = qubit.basis("x").state_at(0.5)
        b = qubit.basis("y").state_at(0.5)
        # x(+1/2) = (1, 1)/sqrt 2 and y(+1/2) = (1, -i)/sqrt 2, whose leading
        # component is real positive (the canonical phase).
        assert inner(b, a) == pytest.approx((1 + 1j) / 2, abs=1e-15)

    def test_mutually_unbiased(self, qubit):
        for n1, n2 in (("x", "y"), ("x", "z"), ("y", "z")):
            for i in range(2):
                for k in range(2):
                    p = abs(inner(qubit.basis(n1).state(i), qubit.basis(n2).state(k))) ** 2
                    assert p == pytest.approx(0.5, abs=1e-14)

    def test_is_spin_half_with_canonical_phases(self, qubit):
        # The qubit is spin 1/2 under its own name, so each state's leading
        # component (hilbert._lead_index) is real positive.
        half = spin_system(0.5)
        assert (qubit.name, dict(qubit.metadata)) == ("qubit", {})
        assert qubit.bases is half.bases
        assert qubit.emergence_pairs == half.emergence_pairs == ((0.5, 0.5),)
        for name in ("x", "y", "z"):
            rows = qubit.basis(name).vectors
            lead = rows[np.arange(2), _lead_index(rows.T)]
            assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)

    def test_change_of_basis_residual(self, qubit):
        assert qubit.change_of_basis_residual() < 1e-12

    def test_oracle_branches(self, qubit):
        # j(j+1) = 3/4, so the cone intersection sits exactly at +-1/2.
        lo, hi = qubit.classical_oracle(0.5, 0.5)
        assert (lo, hi) == (-0.5, 0.5)


class TestSpin:
    def test_half_reduces_to_qubit_up_to_phase(self, qubit):
        half = spin_system(0.5)
        for name in ("x", "y", "z"):
            for k in range(2):
                overlap = abs(inner(half.basis(name).state(k), qubit.basis(name).state(k)))
                assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_spin1_jx_eigenvalues(self):
        s = spin_system(1.0)
        assert np.allclose(s.basis("x").eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_spectrum_symmetric(self, spin20):
        for name in ("x", "y", "z"):
            ev = spin20.basis(name).eigenvalues
            assert np.allclose(ev, -ev[::-1], atol=1e-10)

    def test_tridiagonal_reconstruction(self, spin50):
        jx, jy = angular_momentum_matrices(50.0)
        for mat, name in ((jx, "x"), (jy, "y")):
            basis = spin50.basis(name)
            rebuilt = (basis.vectors.T * basis.eigenvalues) @ basis.vectors.conj()
            assert np.max(np.abs(rebuilt - mat)) < 1e-9

    def test_bases_match_jacobi_oracle_column_for_column(self, spin20):
        # Jx eigenvectors have |c_m| = |c_-m|, so the canonical phase must
        # break an exact magnitude tie the same way for any correct solver.
        jx, jy = angular_momentum_matrices(20.0)
        for mat, name in ((jx, "x"), (jy, "y")):
            w, v = jacobi_eigh(mat)
            basis = spin20.basis(name)
            assert np.max(np.abs(basis.eigenvalues - w)) < 1e-10
            assert np.max(np.abs(basis.vectors.T - v)) < 1e-10

    @pytest.mark.parametrize("j", [0.5, 1.0, 20.0, 20.5, 200.0])
    def test_recurrence_bases_match_lapack_oracle(self, j):
        assert_matches_lapack(spin_system(j), j)

    def test_recurrence_bases_match_lapack_oracle_at_j1000(self):
        # Built uncached, so the d = 2001 system is not kept for the session.
        assert_matches_lapack(spin_system.__wrapped__(1000.0), 1000.0)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda v: v.__setitem__(7, 1.001 * v[7]), "residual"),
        (lambda v: v.__setitem__((slice(None), 5), 1.01 * v[:, 5]), "orthonormal"),
    ])
    def test_gates_reject_corrupted_recurrence(self, monkeypatch, corrupt, match):
        # A scaled row breaks Jx v = k v; a scaled column is still an
        # eigenvector but no longer normalized, which only the Gram check sees.
        original = models._jx_eigenvectors

        def corrupted(j, d, c):
            v, lead = original(j, d, c)
            corrupt(v)
            return v, lead

        monkeypatch.setattr(models, "_jx_eigenvectors", corrupted)
        with pytest.raises(EigensolverError, match=match):
            spin_system.__wrapped__(20.0)

    def test_invalid_j(self):
        with pytest.raises(ValueError):
            spin_system(0.7)
        with pytest.raises(ValueError):
            spin_system(0.0)

    def test_classical_oracle_branches(self, spin20):
        lo, hi = spin20.classical_oracle(10.0, 10.0)
        assert hi == pytest.approx(np.sqrt(20 * 21 - 200))
        assert lo == -hi
        assert spin20.classical_oracle(15.0, 15.0) == ()


class TestRing:
    def test_momentum_basis_orthonormal(self, ring256):
        mom = ring256.basis("momentum")
        gram = mom.vectors.conj() @ mom.vectors.T
        assert np.max(np.abs(gram - np.eye(256))) < 1e-12

    def test_position_state_flat_in_momentum(self, ring256):
        amps = expand(ring256.basis("position").state(17), ring256.basis("momentum"))
        assert np.allclose(np.abs(amps), 1 / 16.0, atol=1e-13)

    def test_change_of_basis_residual(self, ring256):
        assert ring256.change_of_basis_residual() < 1e-10

    def test_roundtrip_identity(self, ring256):
        rng = np.random.default_rng(31)
        psi = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi /= np.linalg.norm(psi)
        mom = ring256.basis("momentum")
        back = mom.vectors.T @ (mom.vectors.conj() @ psi)
        assert np.max(np.abs(back - psi)) < 1e-12

    def test_momentum_grid_signed_and_ordered(self, ring256):
        p = ring256.basis("momentum").eigenvalues
        assert p[0] < 0 < p[-1]
        assert np.all(np.diff(p) > 0)
        assert np.allclose(np.diff(p), 2 * np.pi / 256.0)

    def test_energies_match_dispersion(self, ring256):
        p = ring256.basis("momentum").eigenvalues
        # The arrival flight's phases are E_p T / hbar, with T = 20 and hbar = 1.
        assert ring256.arrival.basis is ring256.basis("momentum")
        assert np.allclose(ring256.arrival.phases, p * p / 2.0 * 20.0)

    def test_arrival_state_backpropagation(self, ring256):
        # Evolving the arrival state forward by the flight time must give
        # back the position eigenstate.
        b = ring_arrival_state(ring256, 120.0)
        mom = ring256.basis("momentum")
        coeffs = expand(b, mom) * np.exp(-1j * ring256.arrival.phases)
        forward = mom.vectors.T @ coeffs
        target = ring256.basis("position").state_at(120.0)
        assert np.max(np.abs(forward - target.amplitudes)) < 1e-10

    def test_arrival_basis_rows_are_arrival_states(self, ring256):
        arrival = ring_arrival_basis(ring256)
        position = ring256.basis("position")
        assert np.array_equal(arrival.eigenvalues, position.eigenvalues)
        for x_b in (0.0, 17.0, 120.0, 255.0):
            row = arrival.state_at(x_b).amplitudes
            assert np.max(np.abs(row - ring_arrival_state(ring256, x_b).amplitudes)) < 1e-13
        assert orthonormality_deviation(arrival.vectors) < 1e-12

    def test_positive_energy_branch(self, ring256):
        sub = ring256.energy_basis()
        assert sub.dim == 256
        assert sub.n_states == 127
        assert np.all(np.diff(sub.eigenvalues) > 0)

    def test_wrap_displacement(self):
        assert wrap_displacement(96.0, 256.0) == 96.0
        assert wrap_displacement(200.0, 256.0) == -56.0
        assert wrap_displacement(96.0, 256.0, winding=1) == 96.0 + 256.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RingParameters(sites=1, circumference=1.0, mass=1.0, flight_time=1.0)
        with pytest.raises(ValueError):
            RingParameters(sites=8, circumference=-1.0, mass=1.0, flight_time=1.0)


class TestMakePacket:
    def test_width_to_zero_clamps_to_nearest(self, spin20):
        z = spin20.basis("z")
        with pytest.warns(UserWarning):
            packet = make_packet(z, 3.2, 1e-6)
        amps = np.abs(expand(packet, z))
        assert amps[z.index_at(3.2)] == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_request(self, spin20):
        # Oracle: direct moment computation of the sampled profile.
        z = spin20.basis("z")
        packet = make_packet(z, 3.0, 5.0)
        w = np.abs(expand(packet, z)) ** 2
        mean = float(np.sum(z.eigenvalues * w))
        std = float(np.sqrt(np.sum((z.eigenvalues - mean) ** 2 * w)))
        assert abs(mean - 3.0) <= 1.0
        assert abs(std - 5.0) / 5.0 < 0.05

    def test_norm_exact(self, spin50):
        packet = make_packet(spin50.basis("z"), -10.0, 6.0)
        assert np.linalg.norm(packet.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_center_outside_rejected(self, spin20):
        with pytest.raises(ValueError, match="outside"):
            make_packet(spin20.basis("z"), 25.0, 2.0)

    def test_narrow_width_warns(self, spin20):
        with pytest.warns(UserWarning, match="local spacing"):
            make_packet(spin20.basis("z"), 0.0, 1.0)
