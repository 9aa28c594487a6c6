import numpy as np
import pytest

from actionlab.action import action_profile, stationary_points
from actionlab.errors import NotApplicableError
from actionlab.hilbert import LabeledBasis, PhysicalConstants, expand, inner
from actionlab.measurement import (
    Regime,
    build_measurement,
    gaussian_kernel,
    high_res_amplitude,
    joint_distribution,
    nondisturbance_check,
    projective_kernel,
    regime_classifier,
)
from actionlab.models import ring_arrival_basis, ring_arrival_state, ring_energies, ring_system
from conftest import (
    RING_PARAMS,
    UNIT,
    action_gradient_recovery,
    dense_nondisturbance_ratio,
    gaussian_kernel_raw,
    measurement_amplitude,
    stationary_phase_overlap,
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
        assert np.max(np.abs(kern.table - np.eye(41))) < 1e-12

    def test_interior_row_symmetric_peak(self, spin20):
        z = spin20.basis("z")
        kern = gaussian_kernel(z, 2.0)
        for m in (15, 20, 25):
            row = kern.table[:, m]
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

    @pytest.mark.parametrize("size,name", [("spin20", "z"), ("spin20", "x"),
                                           ("ring256", "momentum")])
    @pytest.mark.parametrize("spacings", [0.5, 2.0, 8.0])
    def test_table_bitwise_equals_raw_oracle_over_column_sums(self, request, size, name,
                                                              spacings):
        basis = request.getfixturevalue(size).basis(name)
        delta = spacings * float(np.median(basis.spacing))
        raw = gaussian_kernel_raw(basis, delta)
        assert np.array_equal(gaussian_kernel(basis, delta).table,
                              raw / raw.sum(axis=0, keepdims=True))

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
        assert np.max(np.abs(kern.table.sum(axis=0) - 1.0)) < 1e-12

    def test_invalid_width(self, spin20):
        with pytest.raises(ValueError):
            gaussian_kernel(spin20.basis("z"), 0.0)


class TestBuildMeasurement:
    def test_identity_kernel_gives_projectors(self, spin20):
        z = spin20.basis("z")
        ops = projective_kernel(z)
        assert np.allclose(ops.sqrt_table, np.eye(41))

    def test_povm_completeness(self, spin20):
        z = spin20.basis("z")
        for delta in (0.5, 2.0, 10.0):
            ops = gaussian_kernel(z, delta)
            assert ops.completeness_deviation() < 1e-10

    def test_completeness_deviation_equals_recomputed_sum(self, spin20):
        z = spin20.basis("z")
        for delta in (0.5, 2.0, 10.0):
            ops = gaussian_kernel(z, delta)
            fresh = float(np.max(np.abs((ops.sqrt_table**2).sum(axis=0) - 1.0)))
            assert ops.completeness_deviation() == fresh

    def test_qubit_binary_kernel_amplitude(self, qubit):
        # Hand arithmetic: <b|M(0)|a> = sqrt(1-q)/2 - i sqrt(q)/2.
        z = qubit.basis("z")
        q = 0.3
        table = np.array([[q, 1 - q], [1 - q, q]])  # ascending m: (down, up)
        kern = build_measurement(z, table)
        ops = kern
        a = qubit.basis("x").state_at(0.5)
        b = qubit.basis("y").state_at(0.5)
        amp = measurement_amplitude(ops, a, b)
        assert amp[0] == pytest.approx(np.sqrt(1 - q) / 2 - 1j * np.sqrt(q) / 2, abs=1e-14)

    def test_table_shape_must_match_basis(self, spin20, qubit):
        z41 = gaussian_kernel(spin20.basis("z"), 2.0).table
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
        # with the materialized identity and takes re^2 + im^2 of
        # sqrt(P) Y as one real product on Y's interleaved parts; the
        # identity path skips the identity product and must not move a bit.
        # The final basis is a complex-row copy of y, whose product is the
        # dense formula's; the phased y itself is checked against it at
        # 1e-15 in test_dense_intermediate_matches_textbook_sum.
        a, _, _ = spin20_profile
        z = spin20.basis("z")
        y = LabeledBasis(spin20.basis("y").vectors, spin20.basis("y").eigenvalues)
        ops = gaussian_kernel(z, 3.0)
        alpha = expand(a, z)
        dense_y = alpha[:, np.newaxis] * (z.vectors @ y.vectors.conj().T)
        assert np.array_equal(np.conj(np.conj(np.diag(alpha)) @ y.vectors.T).view(float),
                              dense_y.view(float))
        amp = ops.sqrt_table @ dense_y.view(float)
        joint = joint_distribution(a, y, ops)
        assert np.array_equal(joint.table, amp[:, 0::2] ** 2 + amp[:, 1::2] ** 2)
        assert np.array_equal(joint.baseline, np.abs(y.vectors.conj() @ a.amplitudes) ** 2)

    @pytest.mark.parametrize("inter_name, final_name", [("x", "y"), ("x", "z"), ("z", "y")])
    def test_dense_intermediate_matches_textbook_sum(self, spin20, inter_name, final_name):
        # |sum_m <b|m> sqrt(P(r|m)) <m|a>|^2 with every overlap formed explicitly.
        inter, final = spin20.basis(inter_name), spin20.basis(final_name)
        a = spin20.basis("z").state_at(7.0)
        ops = gaussian_kernel(inter, 3.0)
        joint = joint_distribution(a, final, ops)
        b_m = final.vectors.conj() @ inter.vectors.T
        m_a = inter.vectors.conj() @ a.amplitudes
        textbook = np.abs(np.einsum("bm,rm,m->rb", b_m, ops.sqrt_table, m_a)) ** 2
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
        textbook = np.column_stack([np.zeros(2), ops.table[:, 1]])
        assert np.max(np.abs(joint.table - textbook)) <= 1e-15
        assert np.array_equal(joint.baseline, [0.0, 1.0])
        assert joint.factorization_residual <= 1e-15
        assert joint.total_variation <= 1e-15

    def test_arrival_basis_reads_outcomes_after_the_flight(self, ring256):
        # Position intermediate: M(r) does not commute with the flight, and
        # the table is |<x_b|U(T) M(r)|a>|^2 with U(T) formed densely.
        pos, mom = ring256.basis("position"), ring256.basis("momentum")
        flight = (mom.vectors.T * np.exp(-1j * ring_energies(ring256) * 20.0)) @ mom.vectors.conj()
        a = ring_arrival_state(ring256, 90.0)
        ops = gaussian_kernel(pos, 3.0)
        joint = joint_distribution(a, ring_arrival_basis(ring256), ops)
        weighted = ops.sqrt_table * a.amplitudes[np.newaxis, :]
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
            regime = regime_classifier(gaussian_kernel(z, delta), prof, pt.x_star)
            assert regime is Regime.QUANTUM

    def test_coarse_limit_is_least_action_off_station(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        r = pt.x_star + 8.0  # finite gradient here
        regime = regime_classifier(gaussian_kernel(z, 400.0), prof, r)
        assert regime is Regime.LEAST_ACTION

    def test_boundary_tracks_gradient_contour(self, spin50, spin50_profile):
        # The quantum/boundary flip happens where 1/delta = |S'|/hbar.
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        pt = [p for p in stationary_points(prof) if p.x_star > 0][0]
        r = pt.x_star + 5.0
        g = abs(prof.gradient_at(r))
        just_fine = regime_classifier(gaussian_kernel(z, 0.9 / g), prof, r)
        just_coarse = regime_classifier(gaussian_kernel(z, 1.1 / g), prof, r)
        assert just_fine is Regime.QUANTUM
        assert just_coarse is Regime.BOUNDARY

    def test_projective_always_quantum(self, spin50, spin50_profile):
        _, _, prof = spin50_profile
        z = spin50.basis("z")
        regime = regime_classifier(projective_kernel(z), prof, 30.0)
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
            "regime": regime_classifier(narrow, prof, pt.x_star + 2.0),
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

