import numpy as np
import pytest

from actionlab.action import action_profile, stationary_points
from actionlab.errors import NotApplicableError
from actionlab.hilbert import LabeledBasis, PhysicalConstants, expand, random_state
from actionlab.measurement import (
    Regime,
    _is_lattice,
    _transfer,
    build_measurement,
    gaussian_kernel,
    high_res_amplitude,
    joint_distribution,
    nondisturbance_check,
    projective_kernel,
    regime_classifier,
    toeplitz_view,
)
from actionlab.models import (
    ring_arrival_basis,
    ring_system,
    spin_system,
)
from conftest import (
    RING_PARAMS,
    UNIT,
    action_gradient_recovery,
    dense_nondisturbance_ratio,
    gaussian_kernel_raw,
    kernel_table,
    measurement_amplitude,
    ring_arrival_state,
    stationary_phase_overlap,
    textbook_joint_table,
)


@pytest.fixture(scope="module")
def spin20_profile(spin20):
    a = spin20.basis("x").state_at(10.0)
    b = spin20.basis("y").state_at(10.0)
    prof = action_profile(a, spin20.basis("z"), b, UNIT, smoothing=2.0)
    return a, b, prof


@pytest.fixture(scope="module")
def spin50_profile(spin50):
    a = spin50.basis("x").state_at(25.0)
    b = spin50.basis("y").state_at(25.0)
    prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
    return a, b, prof


class TestGaussianKernel:
    def test_narrow_limit_is_projective(self, spin20):
        z = spin20.basis("z")
        kern = gaussian_kernel(z, 0.01)
        assert np.max(np.abs(kernel_table(kern) - np.eye(41))) < 1e-12

    def test_interior_row_symmetric_peak(self, spin20):
        z = spin20.basis("z")
        kern = gaussian_kernel(z, 2.0)
        for m in (15, 20, 25):
            row = kernel_table(kern)[:, m]
            assert np.argmax(row) == m
            width = 6
            left = row[m - width : m]
            right = row[m + 1 : m + width + 1][::-1]
            assert np.max(np.abs(left - right)) < 1e-12

    def test_raw_normalization_matches_quadrature_oracle(self, spin20):
        # The dx/(sqrt(2 pi) d) prefactor makes each raw column a quadrature
        # rule for a unit Gaussian integral; independent fine-grid quadrature
        # confirms it within 1% for widths at least two spacings.
        z = spin20.basis("z")
        for delta in (2.0, 4.0):
            raw = gaussian_kernel_raw(z, delta)
            sums = raw.sum(axis=0)
            margin = int(np.ceil(3 * delta))  # interior: beyond edge truncation
            interior = sums[margin:-margin]
            fine = np.linspace(-30, 30, 60001)
            oracle = np.trapezoid(
                np.exp(-((fine - 0.0) ** 2) / (2 * delta**2))
                / (np.sqrt(2 * np.pi) * delta),
                fine,
            )
            assert np.max(np.abs(interior - oracle)) < 0.01

    # Lattice grids (every spin grid, the ring's dyadic positions) take the
    # Toeplitz layout of one row of exponentials; the others stay dense.
    @pytest.mark.parametrize("grid,lattice", [
        ("spin20 z", True), ("spin20 x", True), ("spin0.5 z", True), ("spin20.5 z", True),
        ("spin200 z", True), ("spin1000 z", True), ("ring256 position", True),
        ("ring256 momentum", False), ("ring256 positive energy", False),
        ("uniform non-lattice", False),
    ])
    @pytest.mark.parametrize("spacings", [0.5, 2.0, 8.0])
    def test_table_bitwise_equals_raw_oracle_over_column_sums(self, ring256, grid, lattice,
                                                              spacings):
        if grid.startswith("spin"):
            j, name = grid[4:].split()
            basis = spin_system(float(j)).basis(name)
        elif grid == "ring256 positive energy":
            basis = ring256.energy_basis()
        elif grid.startswith("ring256"):
            basis = ring256.basis(grid.split()[1])
        else:
            basis = LabeledBasis.identity(np.linspace(0, 1, 7))
        assert _is_lattice(basis.eigenvalues) is lattice
        delta = spacings * float(np.median(basis.spacing))
        raw = gaussian_kernel_raw(basis, delta)
        sums = raw.sum(axis=0)
        table = kernel_table(gaussian_kernel(basis, delta))
        if lattice:
            # The columns m > 0 take the sums of their mirrors -m, the same
            # numbers in reverse order, so the kernel is mirror-symmetric
            # bit for bit; they stay within roundoff of their own sums.
            d = sums.size
            assert np.max(np.abs(table - raw / sums)) <= 1e-15 * np.max(table)
            sums = np.concatenate([sums[: (d + 1) // 2], sums[: d // 2][::-1]])
            assert np.array_equal(table[::-1, ::-1], table)
        assert np.array_equal(table, raw / sums)

    def test_closed_form_prefactor_from_gaussian_integral(self):
        # Independent derivation of the (8 pi d^2/dx^2)^(1/4) prefactor: the
        # windowed transform of sqrt of the kernel at zero gradient.
        dx, delta = 1.0, 3.0
        grid = np.arange(-60, 61) * dx
        sqrt_row = np.sqrt(dx / (np.sqrt(2 * np.pi) * delta)) * np.exp(
            -(grid**2) / (4 * delta**2)
        )
        total = np.sum(sqrt_row) * dx / dx  # unit local amplitude, unit spacing
        assert total == pytest.approx((8 * np.pi * delta**2 / dx**2) ** 0.25, rel=1e-6)

    def test_completeness_exact(self, spin20):
        kern = gaussian_kernel(spin20.basis("z"), 5.0)
        assert np.max(np.abs(kernel_table(kern).sum(axis=0) - 1.0)) < 1e-12

    def test_invalid_width(self, spin20):
        with pytest.raises(ValueError):
            gaussian_kernel(spin20.basis("z"), 0.0)


class TestBuildMeasurement:
    def test_identity_kernel_gives_projectors(self, spin20):
        z = spin20.basis("z")
        ops = projective_kernel(z)
        assert np.allclose(kernel_table(ops, sqrt=True), np.eye(41))

    def test_povm_completeness(self, spin20):
        z = spin20.basis("z")
        for delta in (0.5, 2.0, 10.0):
            ops = gaussian_kernel(z, delta)
            assert ops.completeness_deviation() < 1e-10

    def test_completeness_deviation_equals_recomputed_sum(self, spin20, ring256):
        # A lattice kernel (d = 41, 258, 401, 2001 and the ring's 256
        # positions) sums sqrt(R)^2 along its row's windows, times 1/S: the
        # row formula bit for bit, within roundoff of the sum over the
        # laid-out sqrt(P).  A dense one (ring momenta) sums its whole
        # table: that sum bit for bit.
        bases = [spin20.basis("z"), *(spin_system(j).basis("z") for j in (128.5, 200.0, 1000.0)),
                 ring256.basis("position"), ring256.basis("momentum")]
        for basis in bases:
            for delta in (0.5, 2.0, 10.0):
                ops = gaussian_kernel(basis, delta * float(np.median(basis.spacing)))
                laid_out = (kernel_table(ops, sqrt=True) ** 2).sum(axis=0)
                assert ops.mirrored is (basis is not bases[-1])
                if ops.mirrored:
                    row = ops._lattice
                    sums = toeplitz_view(np.square(row.sqrt_row)).sum(axis=0) * np.square(row.sqrt_scale)
                    assert np.max(np.abs(sums - laid_out)) <= 2e-15
                    laid_out = sums
                assert ops.completeness_deviation() == float(np.max(np.abs(laid_out - 1.0)))

    def test_qubit_binary_kernel_amplitude(self, qubit):
        # Hand arithmetic with a = (1, 1)/sqrt 2 and b = (1, -i)/sqrt 2 (canonical
        # phase: leading component real positive): <b|M(0)|a> =
        # (sqrt(q) + i sqrt(1-q))/2.
        z = qubit.basis("z")
        q = 0.3
        table = np.array([[q, 1 - q], [1 - q, q]])  # ascending m: (down, up)
        kern = build_measurement(z, table)
        ops = kern
        a = qubit.basis("x").state_at(0.5)
        b = qubit.basis("y").state_at(0.5)
        amp = measurement_amplitude(ops, a, b)
        assert amp[0] == pytest.approx(np.sqrt(q) / 2 + 1j * np.sqrt(1 - q) / 2, abs=1e-14)

    def test_table_shape_must_match_basis(self, spin20, qubit):
        z41 = kernel_table(gaussian_kernel(spin20.basis("z"), 2.0))
        with pytest.raises(ValueError, match="does not match 2 states"):
            build_measurement(qubit.basis("z"), z41)
        with pytest.raises(ValueError, match="does not match 41 states"):
            build_measurement(spin20.basis("z"), z41[:, :2])

    def test_incomplete_kernel_rejected(self, qubit):
        with pytest.raises(ValueError, match="incomplete"):
            build_measurement(qubit.basis("z"), np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_non_finite_kernel_rejected(self, qubit):
        # NaN passes both the sign test and the column-sum test on its own.
        with pytest.raises(ValueError, match="finite"):
            build_measurement(qubit.basis("z"), np.array([[np.nan, 0.5], [np.nan, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            build_measurement(qubit.basis("z"), np.array([[np.inf, 0.5], [0.0, 0.5]]))


class TestJointDistribution:
    def test_qubit_unbiased_final_basis_no_disturbance(self, qubit):
        # z eigenstates are unbiased with respect to y: the marginal cannot move.
        z = qubit.basis("z")
        a = qubit.basis("x").state_at(0.5)
        for q in (0.0, 0.2, 0.5):
            table = np.array([[q, 1 - q], [1 - q, q]])
            ops = build_measurement(z, table)
            joint = joint_distribution(a, qubit.basis("y"), ops)
            assert np.allclose(joint.table.sum(axis=0), 0.5, atol=1e-14)
            assert joint.total_variation < 1e-14

    def test_qubit_projective_which_path_disturbance(self, qubit):
        z = qubit.basis("z")
        a = qubit.basis("x").state_at(0.5)
        ops = projective_kernel(z)
        joint = joint_distribution(a, qubit.basis("x"), ops)
        assert joint.baseline[z.index_at(0.5)] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(joint.table.sum(axis=0), 0.5, atol=1e-14)
        assert joint.total_variation == pytest.approx(0.5, abs=1e-14)

    def test_total_probability_one(self, spin20, spin20_profile):
        a, b, prof = spin20_profile
        z = spin20.basis("z")
        for delta in (0.5, 3.0, 30.0):
            joint = joint_distribution(a, spin20.basis("y"),
                                       gaussian_kernel(z, delta))
            assert abs(joint.total_probability - 1.0) < 1e-10

    def test_spin20_coarse_kernel_low_disturbance(self, spin20, spin20_profile):
        a, b, prof = spin20_profile
        z = spin20.basis("z")
        pts = stationary_points(prof)
        delta = 4.0 * pts[0].delta_x_m
        joint = joint_distribution(a, spin20.basis("y"),
                                   gaussian_kernel(z, delta))
        assert joint.total_variation < 0.05

    def test_projective_limit_reproduces_textbook(self, spin20, spin20_profile):
        a, _, _ = spin20_profile
        z = spin20.basis("z")
        y = spin20.basis("y")
        joint = joint_distribution(a, y, projective_kernel(z))
        amps = np.abs(expand(a, z)) ** 2
        overlaps = np.abs(y.vectors.conj() @ z.vectors.T) ** 2  # (b, m)
        textbook = overlaps.T * amps[:, np.newaxis]
        assert np.max(np.abs(joint.table - textbook)) < 1e-10

    def test_identity_intermediate_bitwise_equals_dense_formula(self, spin20, spin20_profile):
        # The dense formula builds the transfer matrix Y[m, b] = <m|a><b|m>
        # with the materialized identity.  With a real a and x-derived final
        # rows, each column's even-m entries of Y lie on one axis and its
        # odd-m entries on the other, so the table is the sum over the even
        # and odd rows of the squared products with the pieces (Re + Im)
        # Y[rows].  Each piece is an exact mirror, piece[-m] = s piece[m],
        # with one sign s per column (the even and the odd columns here), so
        # its product folds onto the rows m < 0 against
        # sqrt(P)[:, m] + s sqrt(P)[:, -m], the centre once for s = +1, each
        # sum over m taken as four partial sums over every fourth row m < 0
        # (the centre in the last), added pairwise, and only the rows r <= 0
        # are computed; the rows r > 0 are their mirror.  The identity path
        # skips the identity product and must not move a bit of that.  The
        # final basis is a complex-row copy of y, whose product is the dense
        # formula's; the phased y itself is checked in TestTransferPieces.
        a, _, _ = spin20_profile
        z = spin20.basis("z")
        y = LabeledBasis(spin20.basis("y").vectors, spin20.basis("y").eigenvalues)
        ops = gaussian_kernel(z, 3.0)
        alpha = expand(a, z)
        dense_y = alpha[:, np.newaxis] * (z.vectors @ y.vectors.conj().T)
        assert np.array_equal(np.conj(np.conj(np.diag(alpha)) @ y.vectors.T).view(float),
                              dense_y.view(float))
        groups = [[cols for cols, _ in piece.parts] for piece in _transfer(a, z, y, True).pieces]
        even, odd = list(range(0, 41, 2)), list(range(1, 40, 2))
        # The odd rows are zero in the column of y eigenvalue 0 (index 20): it
        # has both signs and goes with +1.
        assert [[cols.tolist() for cols in pair] for pair in groups] == [
            [even, odd], [sorted(odd + [20]), [b for b in even if b != 20]]]
        sqrt_p = kernel_table(ops, sqrt=True)[:21]       # the rows r <= 0
        top_t = np.zeros((41, 21))                       # as [b, r]
        for rows, pair in zip((slice(0, None, 2), slice(1, None, 2)), groups):
            piece = (dense_y.real + dense_y.imag)[rows]
            m = np.arange(41)[rows]
            k = m.size // 2
            order = np.concatenate([np.arange(i, k, 4) for i in range(4)])
            starts = [0, *np.cumsum([len(range(i, k, 4)) for i in range(3)])]
            near, far = sqrt_p[:, m[:k][order]], sqrt_p[:, m[::-1][:k][order]]
            plus = np.column_stack([near + far, sqrt_p[:, m[k:k + m.size % 2]]])
            head = np.append(order, k)
            for block, cols in zip((plus, near - far), pair):
                part = np.ascontiguousarray(piece[np.ix_(head[:block.shape[1]], cols)].T)
                amp = [part[:, lo:hi] @ block[:, lo:hi].T
                       for lo, hi in zip(starts, [*starts[1:], None])]
                top_t[cols] += ((amp[0] + amp[1]) + (amp[2] + amp[3])) ** 2
        joint = joint_distribution(a, y, ops)
        assert np.array_equal(joint.table, np.vstack([top_t.T, top_t.T[:20][::-1]]))
        textbook = textbook_joint_table(a, z, y, ops)
        assert np.max(np.abs(joint.table - textbook)) <= 1e-15 * np.max(textbook)
        assert np.array_equal(joint.baseline, np.abs(y.vectors.conj() @ a.amplitudes) ** 2)

    @pytest.mark.parametrize("final_name", ["x", "y"])
    def test_folded_rows_mirror_and_ties_take_largest_x(self, spin20, spin20_profile,
                                                        final_name):
        # The folded table's rows r > 0 are copies of its rows r < 0, so
        # every column's maximum is an exact tie at -r and +r, and it
        # resolves to +r, the largest tied x_r.
        a, _, _ = spin20_profile
        joint = joint_distribution(a, spin20.basis(final_name),
                                   gaussian_kernel(spin20.basis("z"), 3.0))
        assert np.array_equal(joint.table, joint.table[::-1])
        for b_index in range(41):
            peak = joint.r_grid[np.argmax(joint.table[:, b_index])]
            assert joint.conditional_argmax(b_index) == abs(peak)

    @pytest.mark.parametrize("inter_name, final_name", [("x", "y"), ("x", "z"), ("z", "y")])
    def test_dense_intermediate_matches_textbook_sum(self, spin20, inter_name, final_name):
        # |sum_m <b|m> sqrt(P(r|m)) <m|a>|^2 with every overlap formed explicitly.
        inter, final = spin20.basis(inter_name), spin20.basis(final_name)
        a = spin20.basis("z").state_at(7.0)
        ops = gaussian_kernel(inter, 3.0)
        joint = joint_distribution(a, final, ops)
        b_m = final.vectors.conj() @ inter.vectors.T
        m_a = inter.vectors.conj() @ a.amplitudes
        textbook = np.abs(np.einsum("bm,rm,m->rb", b_m, kernel_table(ops, sqrt=True), m_a)) ** 2
        assert np.max(np.abs(joint.table - textbook)) <= 1e-15
        assert np.max(np.abs(joint.baseline - np.abs(final.vectors.conj() @ a.amplitudes) ** 2)) <= 1e-15

    def test_derived_quantities_equal_dense_formulas(self, spin20, spin20_profile):
        # The d x d conditional and factorized arrays the distribution never
        # stores, rebuilt here.  Every derived number is bitwise equal to its
        # formula; the residual, read from column maxima since P >= 0, also
        # matches the elementwise max |P - P(r|a,b) P(b|a)| within 1e-15.
        a, _, _ = spin20_profile
        z, y = spin20.basis("z"), spin20.basis("y")
        for ops in [gaussian_kernel(z, delta) for delta in (0.5, 3.0, 30.0)] + [projective_kernel(z)]:
            joint = joint_distribution(a, y, ops)
            marginal = joint.table.sum(axis=0)
            safe = np.where(marginal > 0.0, marginal, 1.0)
            conditional = joint.table / safe[np.newaxis, :]
            factorized = conditional * joint.baseline[np.newaxis, :]
            elementwise = float(np.max(np.abs(joint.table - factorized)))
            column_max = float(np.max(joint.table.max(axis=0) / safe * np.abs(joint.baseline - safe)))
            assert joint.factorization_residual == column_max
            assert abs(joint.factorization_residual - elementwise) <= 1e-15 * elementwise
            assert joint.total_variation == 0.5 * float(np.abs(marginal - joint.baseline).sum())
            for b_index in range(y.n_states):
                # Ties within 1e-12 relative go to the largest x_r.
                col = conditional[:, b_index]
                tied = np.flatnonzero(col >= (1.0 - 1e-12) * col.max())
                assert joint.conditional_argmax(b_index) == float(joint.r_grid[tied[-1]])

    @pytest.mark.parametrize("width", [0.0, 0.3])
    def test_zero_marginal_column(self, qubit, width):
        # a = z(+1/2) measured and read in z: the b = -1/2 column is zero, so
        # P(r|a,b) is undefined there; nothing may warn or blow up.  The
        # textbook table is P(r|+1/2) in the b = +1/2 column, and both the
        # disturbance and the residual are zero.
        z = qubit.basis("z")
        a = z.state_at(0.5)
        ops = gaussian_kernel(z, width) if width else projective_kernel(z)
        joint = joint_distribution(a, z, ops)
        textbook = np.column_stack([np.zeros(2), kernel_table(ops)[:, 1]])
        assert np.max(np.abs(joint.table - textbook)) <= 1e-15
        assert np.array_equal(joint.baseline, [0.0, 1.0])
        assert joint.factorization_residual <= 1e-15
        assert joint.total_variation <= 1e-15

    def test_arrival_basis_reads_outcomes_after_the_flight(self, ring256):
        # Position intermediate: M(r) does not commute with the flight, and
        # the table is |<x_b|U(T) M(r)|a>|^2 with U(T) formed densely.
        pos, mom = ring256.basis("position"), ring256.basis("momentum")
        flight = (mom.vectors.T * np.exp(-1j * ring256.arrival.phases)) @ mom.vectors.conj()
        a = ring_arrival_state(ring256, 90.0)
        ops = gaussian_kernel(pos, 3.0)
        joint = joint_distribution(a, ring_arrival_basis(ring256), ops)
        weighted = kernel_table(ops, sqrt=True) * a.amplitudes[np.newaxis, :]
        assert np.max(np.abs(joint.table - np.abs(weighted @ flight.T) ** 2)) < 1e-13
        assert np.max(np.abs(joint.baseline - np.abs(flight @ a.amplitudes) ** 2)) < 1e-13

    def test_weak_limit_monotone_disturbance(self, spin20, spin20_profile):
        a, b, prof = spin20_profile
        z = spin20.basis("z")
        dxm = stationary_points(prof)[0].delta_x_m
        tvs = []
        resids = []
        for mult in (0.25, 1.0, 4.0, 16.0):
            joint = joint_distribution(
                a, spin20.basis("y"),
                gaussian_kernel(z, mult * dxm))
            tvs.append(joint.total_variation)
            resids.append(joint.factorization_residual)
        assert all(tvs[i] > tvs[i + 1] for i in range(3))
        assert resids[-1] < 1e-4



def _textbook_stats(a, inter, final, ops, baseline):
    """The textbook table (``textbook_joint_table``), its TV and its
    factorization residual."""
    table = textbook_joint_table(a, inter, final, ops)
    marginal = table.sum(axis=0)
    tv = 0.5 * float(np.abs(marginal - baseline).sum())
    residual = float(np.max(table.max(axis=0) / marginal * np.abs(baseline - marginal)))
    return table, tv, residual


class TestTransferPieces:
    """``_transfer`` reads its real pieces and their column mirror signs off
    Y's exact zeros and exact mirror; every split, folded or not, gives the
    textbook table within roundoff."""

    @staticmethod
    def rows_read(transfer):
        """The rows m of Y each piece is summed over, mirrors included."""
        return [sorted([*piece.rows.tolist(), *([] if piece.mirrors is None
                                                else piece.mirrors.tolist())])
                for piece in transfer.pieces]

    @pytest.mark.parametrize("j", [20.0, 20.5, 200.0])
    @pytest.mark.parametrize("final_name", ["x", "y", "complex-row y"])
    def test_x_eigenstate_through_z_splits_by_parity(self, j, final_name):
        system = spin_system(j)
        d = system.dimension
        z = system.basis("z")
        final = system.basis(final_name.removeprefix("complex-row "))
        if final_name.startswith("complex-row"):
            final = LabeledBasis(final.vectors, final.eigenvalues)
        a = system.basis("x").state_at(0.4 * j)
        ops = gaussian_kernel(z, 3.0)
        assert ops.mirrored
        transfer = _transfer(a, z, final, True)
        # x rows make Y real: one full-height piece, the same product work
        # as the split that the y phases allow.
        expected = ([list(range(d))] if final_name == "x"
                    else [list(range(0, d, 2)), list(range(1, d, 2))])
        assert self.rows_read(transfer) == expected
        # Every piece folds but the even/odd pieces at even d (j = 20.5),
        # whose rows the mirror swaps.
        assert transfer.folded is (final_name == "x" or j % 1 == 0)
        joint = joint_distribution(a, final, ops)
        table, tv, residual = _textbook_stats(a, z, final, ops, transfer.baseline)
        assert np.max(np.abs(joint.table - table)) <= 1e-15 * np.max(table)
        assert abs(joint.total_variation - tv) <= 1e-15
        assert abs(joint.factorization_residual - residual) <= 1e-15

    @pytest.mark.parametrize("j", [20.0, 20.5])
    @pytest.mark.parametrize("final_name", ["y", "z"])
    def test_complex_state_through_x_takes_general_pieces(self, j, final_name):
        system = spin_system(j)
        inter, final = system.basis("x"), system.basis(final_name)
        a = random_state(system.dimension, np.random.default_rng(int(2 * j)))
        ops = gaussian_kernel(inter, 3.0)
        transfer = _transfer(a, inter, final, ops.mirrored)
        assert self.rows_read(transfer) == [list(range(system.dimension))] * 2
        assert not transfer.folded
        joint = joint_distribution(a, final, ops)
        textbook = textbook_joint_table(a, inter, final, ops)
        assert np.max(np.abs(joint.table - textbook)) <= 1e-15


class TestNondisturbanceCheck:
    def test_coarse_kernel_passes(self, spin20, spin20_profile):
        _, _, prof = spin20_profile
        z = spin20.basis("z")
        dxm = stationary_points(prof)[0].delta_x_m
        report = nondisturbance_check(gaussian_kernel(z, 10.0 * dxm), prof,
                                      stationary_points(prof))
        assert report.passed
        assert report.max_ratio < 0.1

    def test_projective_kernel_fails(self, spin20, spin20_profile):
        _, _, prof = spin20_profile
        report = nondisturbance_check(projective_kernel(spin20.basis("z")), prof,
                                      stationary_points(prof))
        assert not report.passed
        assert report.max_ratio > 1.0

    def test_monotone_in_resolution(self, spin20, spin20_profile):
        _, _, prof = spin20_profile
        z = spin20.basis("z")
        dxm = stationary_points(prof)[0].delta_x_m
        ratios = [
            nondisturbance_check(gaussian_kernel(z, m * dxm), prof,
                                 stationary_points(prof)).max_ratio
            for m in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(ratios[i] > ratios[i + 1] for i in range(3))

    @pytest.mark.parametrize("size", ["spin20", "spin50"])
    @pytest.mark.parametrize("mult", [0.25, 1.0, 4.0, 16.0])
    def test_max_ratio_bitwise_equals_dense_second_difference(self, request, size, mult):
        system = request.getfixturevalue(size)
        _, _, prof = request.getfixturevalue(f"{size}_profile")
        points = stationary_points(prof)
        kern = gaussian_kernel(system.basis("z"), mult * points[0].delta_x_m)
        for pts in (points, []):
            report = nondisturbance_check(kern, prof, pts)
            assert report.max_ratio == dense_nondisturbance_ratio(kern, prof, pts)

    def test_without_points_support_is_finite_curvature(self, spin20, spin20_profile):
        _, _, prof = spin20_profile
        # S'' is exactly 0 at x = 0 on this symmetric profile, so the check fails.
        report = nondisturbance_check(gaussian_kernel(spin20.basis("z"), 1.0), prof, [])
        assert report.n_support == int(np.isfinite(prof.curvature).sum())
        assert report.max_ratio == np.inf
        assert not report.passed


class TestRegimeClassifier:
    def test_stationary_point_always_quantum(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        for delta in (0.5, 5.0, 50.0):
            regime = regime_classifier(gaussian_kernel(z, delta), prof.gradient_at(pt.x_star),
                                       prof.hbar)
            assert regime is Regime.QUANTUM

    def test_coarse_limit_is_least_action_off_station(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        r = pt.x_star + 8.0  # finite gradient here
        regime = regime_classifier(gaussian_kernel(z, 400.0), prof.gradient_at(r), prof.hbar)
        assert regime is Regime.LEAST_ACTION

    def test_boundary_tracks_gradient_contour(self, spin50, spin50_profile):
        # The quantum/boundary flip happens where 1/delta = |S'|/hbar.
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        r = pt.x_star + 5.0
        g = abs(prof.gradient_at(r))
        just_fine = regime_classifier(gaussian_kernel(z, 0.9 / g), g, prof.hbar)
        just_coarse = regime_classifier(gaussian_kernel(z, 1.1 / g), g, prof.hbar)
        assert just_fine is Regime.QUANTUM
        assert just_coarse is Regime.BOUNDARY

    def test_projective_always_quantum(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        regime = regime_classifier(projective_kernel(z), prof.gradient_at(30.0), prof.hbar)
        assert regime is Regime.QUANTUM


class TestHighResolutionAmplitude:
    def test_suppression_maximal_at_stationary_point(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        kern = gaussian_kernel(z, 0.3 * pt.delta_x_m)
        at_star = high_res_amplitude(kern, prof, pt.x_star)
        assert at_star.suppression > 0.99
        off = high_res_amplitude(kern, prof, pt.x_star + 4.0)
        assert off.suppression < at_star.suppression

    def test_fourier_matches_closed_form(self, spin50, spin50_profile):
        # Quadrature vs analytic Gaussian transform; both drop the curvature.
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        kern = gaussian_kernel(z, 0.3 * pt.delta_x_m)
        for offset in (2.0, 3.0, 4.0):
            h = high_res_amplitude(kern, prof, pt.x_star + offset)
            assert abs(h.fourier) == pytest.approx(abs(h.closed_form), rel=0.02)

    def test_exact_tracks_closed_form_near_peak(self, spin50, spin50_profile):
        # Within the strongly contributing zone the closed form tracks the
        # exact element.  The neglected action curvature costs
        # (1 + (4 pi (d/dxm)^2)^2)^(1/8), about 10% at this width, so 20% is
        # the honest near-peak envelope for a standing-wave system.
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        kern = gaussian_kernel(z, 0.3 * pt.delta_x_m)
        for offset in (-3.0, -1.0, 1.0, 3.0):
            h = high_res_amplitude(kern, prof, pt.x_star + offset)
            assert abs(h.exact) == pytest.approx(abs(h.closed_form), rel=0.20)

    def test_gradient_read_once_at_the_outcome(self, spin50, spin50_profile, monkeypatch):
        # An off-grid r is the outcome x_r nearest it: the regime and the
        # expansion both take the one gradient read at x_r.  On this profile
        # the gradients at r = x* + 2.4 and at its x_r are 0.159 and 0.175.
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        r = pt.x_star + 2.4
        x_r = float(z.eigenvalues[np.argmin(np.abs(z.eigenvalues - r))])
        assert x_r != r
        reads = []
        gradient_at = type(prof).gradient_at

        def counted(profile, x):
            reads.append(x)
            return gradient_at(profile, x)

        monkeypatch.setattr(type(prof), "gradient_at", counted)
        h = high_res_amplitude(gaussian_kernel(z, 0.3 * pt.delta_x_m), prof, r)
        assert reads == [x_r]
        assert h.gradient == gradient_at(prof, x_r)

    def test_least_action_regime_not_applicable(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        with pytest.raises(NotApplicableError):
            high_res_amplitude(gaussian_kernel(z, 400.0), prof, pt.x_star + 8.0)

    def test_log_magnitude_gaussian_shape(self, spin50, spin50_profile):
        # Regression oracle: log |exact| against the predicted quadratic decay
        # is strongly correlated over the near window.
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        kern = gaussian_kernel(z, 0.3 * pt.delta_x_m)
        xs, ys = [], []
        # Inner side of the stationary point: the outer side runs into the
        # classical turning zone where the expansion degrades.
        for offset in np.arange(-9.0, 0.5, 1.0):
            h = high_res_amplitude(kern, prof, pt.x_star + offset)
            if 0.02 <= h.suppression <= 0.995:
                xs.append(np.log(h.suppression))
                ys.append(np.log(abs(h.exact)))
        assert len(xs) >= 6
        corr = np.corrcoef(xs, ys)[0, 1]
        assert corr > 0.99


class TestGradientRecovery:
    def test_zero_at_stationary_point(self, ring256):
        # Running-wave system, narrow kernel: the recovered gradient at the
        # stationary outcome stays below hbar/(10 delta_x_r).
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        mom = ring256.basis("momentum")
        prof = action_profile(a, mom, b, UNIT)
        pt = stationary_points(prof)[0]
        delta = 2.5 * float(mom.spacing[0])
        kern = gaussian_kernel(mom, delta)
        ops = kern
        rec = action_gradient_recovery(measurement_amplitude(ops, a, b), kern, prof)
        val = rec.recovered[pt.index_star]
        assert np.isnan(val) or val < 1.0 / (10.0 * delta)

    def test_spin50_inner_window_tracking(self, spin50, spin50_profile):
        # Recovered gradients track the profile on the inner side of the
        # stationary point at informative suppression; standing-wave leakage
        # caps the accuracy near 30% at this size (the strict 15% claim is
        # exercised, and documented as unattainable, in the acceptance run).
        a, b, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        delta = 0.3 * pt.delta_x_m
        kern = gaussian_kernel(z, delta)
        ops = kern
        rec = action_gradient_recovery(measurement_amplitude(ops, a, b), kern, prof)
        mask = np.isfinite(rec.recovered) & np.isfinite(rec.reference)
        mask &= (rec.r_grid >= pt.x_star - 9.0) & (rec.r_grid <= pt.x_star - 2.0)
        mask &= (rec.suppression >= 0.1) & (rec.suppression <= 0.7)
        assert mask.sum() >= 2
        devs = np.abs(rec.recovered[mask] - rec.reference[mask])
        rels = devs / np.abs(rec.reference[mask])
        assert np.max(rels) < 0.30

    def test_ring_slope_matches_flight_time_over_mass(self, ring256):
        # Analytic oracle: |dS/dp| = (T/M)|p - p*| for the free ring.
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        mom = ring256.basis("momentum")
        prof = action_profile(a, mom, b, UNIT)
        pt = stationary_points(prof)[0]
        dp = float(mom.spacing[0])
        delta = 4.0 * dp
        kern = gaussian_kernel(mom, delta)
        ops = kern
        rec = action_gradient_recovery(measurement_amplitude(ops, a, b), kern, prof)
        lo_e, hi_e = mom.eigenvalues[0] + 3 * delta, mom.eigenvalues[-1] - 3 * delta
        mask = (rec.suppression >= 0.05) & (rec.suppression <= 0.9)
        mask &= np.isfinite(rec.recovered)
        mask &= (rec.r_grid >= lo_e) & (rec.r_grid <= hi_e)
        u = rec.r_grid[mask] - pt.x_star
        v = rec.recovered[mask]
        slope = float(np.sum(np.abs(u) * v) / np.sum(u * u))
        assert slope == pytest.approx(20.0, rel=0.10)

    def test_noise_ratio_masked(self, spin50, spin50_profile):
        a, b, prof = spin50_profile
        z = spin50.basis("z")
        kern = gaussian_kernel(z, 3.0)
        amps = np.full(kern.basis.n_states, 10.0 + 0j)  # ratio > 1 everywhere
        rec = action_gradient_recovery(amps, kern, prof)
        assert np.all(np.isnan(rec.recovered))

    def test_requires_gaussian_kernel(self, spin50, spin50_profile):
        a, b, prof = spin50_profile
        z = spin50.basis("z")
        with pytest.raises(ValueError, match="Gaussian"):
            action_gradient_recovery(np.zeros(41), projective_kernel(z), prof)


class TestEdgeFlags:
    def test_recovery_marks_edge_outcomes(self, spin20, spin20_profile):
        a, b, prof = spin20_profile
        z = spin20.basis("z")
        kern = gaussian_kernel(z, 2.0)
        ops = kern
        rec = action_gradient_recovery(measurement_amplitude(ops, a, b), kern, prof)
        assert rec.near_edge[0] and rec.near_edge[-1]
        assert not rec.near_edge[20]

    def test_high_res_marks_edge_outcome(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        kern = gaussian_kernel(z, 3.0)
        inner_point = high_res_amplitude(kern, prof, 30.0)
        edge_point = high_res_amplitude(kern, prof, 49.0)
        assert not inner_point.near_edge
        assert edge_point.near_edge


class TestHbarFromProfile:
    """Functions given a profile (or a ring) use its hbar, not a default of 1.

    hbar = 2 doubles S, S' and S'' exactly, so every quantity below that is
    measured in units of hbar is the same at hbar = 1 and hbar = 2.
    """

    @staticmethod
    def _readings(spin20, hbar):
        a = spin20.basis("x").state_at(10.0)
        b = spin20.basis("y").state_at(10.0)
        z = spin20.basis("z")
        prof = action_profile(a, z, b, PhysicalConstants(hbar=hbar), smoothing=2.0)
        points = stationary_points(prof)
        pt = points[0]
        coarse = gaussian_kernel(z, pt.delta_x_m)
        narrow = gaussian_kernel(z, 0.3 * pt.delta_x_m)
        high = high_res_amplitude(narrow, prof, pt.x_star + 2.0)
        overlap = stationary_phase_overlap(prof, points)
        ops = narrow
        recovered = action_gradient_recovery(measurement_amplitude(ops, a, b), narrow, prof).recovered
        return {
            "max_ratio": nondisturbance_check(coarse, prof, points).max_ratio,
            "regime": regime_classifier(narrow, prof.gradient_at(pt.x_star + 2.0), prof.hbar),
            "fourier": high.fourier,
            "closed_form": high.closed_form,
            "suppression": high.suppression,
            "relative_error": overlap.relative_error,
            "phase_difference": overlap.phase_difference,
            "recovered": recovered / prof.hbar,
        }

    def test_spin20_readings_invariant_under_hbar(self, spin20):
        one = self._readings(spin20, 1.0)
        two = self._readings(spin20, 2.0)
        assert two["regime"] is one["regime"]
        for key in ("max_ratio", "fourier", "closed_form", "suppression",
                    "relative_error", "phase_difference"):
            assert two[key] == pytest.approx(one[key], rel=1e-12, abs=0.0), key
        ok = np.isfinite(one["recovered"])
        assert ok.any()
        assert np.array_equal(ok, np.isfinite(two["recovered"]))
        np.testing.assert_allclose(two["recovered"][ok], one["recovered"][ok], rtol=1e-12)

    def test_ring_arrival_state_uses_ring_hbar(self):
        # S(p) = p dx - p^2 T / 2M in any unit of action: the stationary
        # momentum M dx / T and the curvature -T/M do not depend on hbar.
        constants = PhysicalConstants(hbar=2.0)
        ring = ring_system(RING_PARAMS, constants)
        a = ring.basis("position").state_at(100.0)
        b = ring_arrival_state(ring, 120.0)
        mom = ring.basis("momentum")
        pts = stationary_points(action_profile(a, mom, b, constants))
        assert len(pts) == 1
        p_star = RING_PARAMS.mass * 20.0 / RING_PARAMS.flight_time
        assert abs(pts[0].x_star - p_star) < float(mom.spacing[0])
        assert pts[0].curvature_at == pytest.approx(-RING_PARAMS.flight_time
                                                    / RING_PARAMS.mass, rel=1e-6)

