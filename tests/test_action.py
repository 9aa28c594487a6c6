import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionlab.action import (
    _branch_filter,
    _segments_of,
    action_phase,
    action_profile,
    aligned_unitary,
    stationary_points,
    unwrap_segment,
)
from actionlab.errors import (
    NotApplicableError,
    ProfileTooSparseError,
    UndefinedPhaseError,
)
from actionlab.hilbert import (
    PhysicalConstants,
    StateVector,
    apply_diagonal,
    expand,
    inner,
)
from actionlab.models import make_packet, ring_arrival_state, ring_system
from conftest import (
    RING_PARAMS,
    UNIT,
    curvature_weak_value,
    loop_segments_of,
    loop_unwrap_segment,
    stationary_phase_overlap,
)


def spin_pair(system, x_a, x_b):
    return system.basis("x").state_at(x_a), system.basis("y").state_at(x_b)


def classical_spin_curvature(j, x_a, x_b):
    """Second derivative of the classical spin action at the cone intersection."""
    m = np.sqrt(j * (j + 1) - x_a**2 - x_b**2)
    r2 = j * (j + 1) - m * m
    return m, m * (
        x_a / (r2 * np.sqrt(r2 - x_a**2)) + x_b / (r2 * np.sqrt(r2 - x_b**2))
    )


class TestActionPhase:
    def test_qubit_golden_values(self, qubit):
        a, b = spin_pair(qubit, 0.5, 0.5)
        z = qubit.basis("z")
        assert action_phase(a, z.state_at(0.5), b, UNIT) == pytest.approx(np.pi / 4, abs=1e-14)
        assert action_phase(a, z.state_at(-0.5), b, UNIT) == pytest.approx(-np.pi / 4, abs=1e-14)

    def test_hbar_scales_action(self, qubit):
        a, b = spin_pair(qubit, 0.5, 0.5)
        m = qubit.basis("z").state_at(0.5)
        doubled = action_phase(a, m, b, PhysicalConstants(hbar=2.0))
        assert doubled == pytest.approx(np.pi / 2, abs=1e-14)

    def test_m_equal_a_gives_zero(self, spin20):
        z = spin20.basis("z")
        a = z.state_at(3.0)
        b = spin20.basis("y").state_at(7.0)
        assert action_phase(a, z.state_at(3.0), b, UNIT) == pytest.approx(0.0, abs=1e-13)

    @given(st.tuples(*[st.floats(0, 2 * np.pi) for _ in range(3)]))
    @settings(max_examples=30, deadline=None)
    def test_gauge_invariance(self, phases):
        from actionlab.models import spin_system

        system = spin_system(20.0)
        a, b = spin_pair(system, 10.0, 10.0)
        m = system.basis("z").state_at(5.0)
        ref = action_phase(a, m, b, UNIT)
        a2 = StateVector(a.amplitudes * np.exp(1j * phases[0]))
        b2 = StateVector(b.amplitudes * np.exp(1j * phases[1]))
        m2 = StateVector(m.amplitudes * np.exp(1j * phases[2]))
        assert action_phase(a2, m2, b2, UNIT) == pytest.approx(ref, abs=1e-12)

    def test_antisymmetry(self, spin20):
        a, b = spin_pair(spin20, 10.0, 5.0)
        for m_val in (-7.0, 0.0, 7.0):
            m = spin20.basis("z").state_at(m_val)
            fwd = action_phase(a, m, b, UNIT)
            rev = action_phase(b, m, a, UNIT)
            wrapped = abs((fwd + rev + np.pi) % (2 * np.pi) - np.pi)
            assert wrapped < 1e-12

    def test_orthogonal_triple_rejected(self):
        a = StateVector([1.0, 0.0])
        m = StateVector([0.0, 1.0])
        with pytest.raises(UndefinedPhaseError):
            action_phase(a, m, a, UNIT)


class TestActionProfile:
    def test_qubit_profile(self, qubit):
        a, b = spin_pair(qubit, 0.5, 0.5)
        prof = action_profile(a, qubit.basis("z"), b, UNIT)
        assert np.allclose(prof.s_raw, [-np.pi / 4, np.pi / 4], atol=1e-14)
        assert np.all(prof.valid)
        assert np.isnan(prof.gradient).all()  # no 3-point stencil on 2 points

    def test_density_normalization(self, spin50):
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT)
        assert np.sum(prof.rho_a * prof.spacing) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(prof.rho_b * prof.spacing) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_through_profile(self, spin50):
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT)
        assert abs(np.sum(prof.amp_product_bare) - inner(b, a)) < 1e-14

    def test_branch_filter_cached_with_unchanged_profiles(self, spin20):
        a, b = spin_pair(spin20, 10.0, 10.0)
        z = spin20.basis("z")
        first = action_profile(a, z, b, UNIT, smoothing=2.0)
        hits = _branch_filter.cache_info().hits
        second = action_profile(a, z, b, UNIT, smoothing=2.0)
        assert _branch_filter.cache_info().hits == hits + 1
        for f in dataclasses.fields(first):
            one, two = getattr(first, f.name), getattr(second, f.name)
            if isinstance(one, np.ndarray):
                assert np.array_equal(one, two, equal_nan=True), f.name
            else:
                assert one == two, f.name
        # Oracle: the kernel built inline, as before it was cached, applied
        # to the same real stack (Re, Im, rho_a, rho_b) bit for bit, and to
        # the complex product within roundoff.
        x = z.eigenvalues
        w = z.spacing_per_state()
        kern = np.exp(-((x[np.newaxis, :] - x[:, np.newaxis]) ** 2) / (2.0 * 2.0**2))
        kern *= w[np.newaxis, :]
        norm = kern.sum(axis=1)
        bare = first.amp_product_bare
        stack = np.column_stack([bare.real, bare.imag, np.abs(expand(a, z)) ** 2 / w,
                                 np.abs(expand(b, z)) ** 2 / w])
        filtered = (kern @ stack) / norm[:, np.newaxis]
        assert np.array_equal(first.amp_product, filtered[:, 0] + 1j * filtered[:, 1])
        assert np.array_equal(first.rho_a, filtered[:, 2])
        assert np.array_equal(first.rho_b, filtered[:, 3])
        assert np.max(np.abs(first.amp_product - (kern @ bare) / norm)) < 1e-15

    def test_spin50_gradient_sign_change_near_oracle(self, spin50):
        # Brute-force profile against the classical cone-intersection oracle.
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        oracle = np.sqrt(50 * 51 - 625.0 - 625.0)
        g = prof.gradient
        x = prof.x_grid
        ok = np.isfinite(g)
        flips = [
            0.5 * (x[ok][i] + x[ok][i + 1])
            for i in range(ok.sum() - 1)
            if g[ok][i] * g[ok][i + 1] < 0
        ]
        assert any(abs(f - oracle) < 2.0 for f in flips)
        assert any(abs(f + oracle) < 2.0 for f in flips)

    def test_unwrap_offsets_are_2pi_multiples(self, spin50):
        a, b = spin_pair(spin50, 25.0, 20.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        ok = prof.valid & np.isfinite(prof.s_unwrapped)
        k = (prof.s_unwrapped[ok] - prof.s_raw[ok]) / (2 * np.pi)
        assert np.max(np.abs(k - np.round(k))) < 1e-10

    def test_s_raw_principal_range(self, spin20):
        a, b = spin_pair(spin20, 10.0, 5.0)
        prof = action_profile(a, spin20.basis("z"), b, UNIT)
        vals = prof.s_raw[prof.valid]
        assert np.all(vals <= np.pi + 1e-15)
        assert np.all(vals > -np.pi - 1e-15)

    def test_too_sparse_rejected(self):
        # Three orthogonal-ish states: only one nonzero contribution.
        a = StateVector([1, 0, 0, 0])
        b = StateVector([1, 0, 0, 0])
        basis_vectors = np.eye(4)
        from actionlab.hilbert import LabeledBasis

        basis = LabeledBasis(basis_vectors, np.arange(4.0))
        with pytest.raises(ProfileTooSparseError):
            action_profile(a, basis, b, UNIT)

    def test_anchor_independence(self, spin50):
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        seg = np.where(prof.segment_id == 0)[0]
        raw = prof.s_raw[seg[0] : seg[-1] + 1]
        two_pi = 2 * np.pi
        anchor = int(np.argmax(prof.magnitude[seg[0] : seg[-1] + 1]))
        base = unwrap_segment(raw, two_pi, anchor)
        for alt in (0, len(raw) // 2, len(raw) - 1):
            other = unwrap_segment(raw, two_pi, alt)
            other -= two_pi * np.round((other[anchor] - raw[anchor]) / two_pi)
            assert np.max(np.abs(other - base)) < 1e-12


class TestStationaryPoints:
    def test_spin50_matches_classical_oracle(self, spin50):
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        pts = stationary_points(prof)
        assert len(pts) == 2
        oracle = np.sqrt(50 * 51 - 1250.0)
        devs = sorted(abs(abs(p.x_star) - oracle) for p in pts)
        assert devs[-1] < 2.0

    def test_ring_matches_free_particle_oracle(self, ring256):
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        prof = action_profile(a, ring256.basis("momentum"), b, UNIT)
        pts = stationary_points(prof)
        assert len(pts) == 1
        p_star = RING_PARAMS.mass * 20.0 / RING_PARAMS.flight_time
        spacing = 2 * np.pi / 256.0
        assert abs(pts[0].x_star - p_star) < spacing
        assert pts[0].curvature_at == pytest.approx(-20.0, rel=1e-6)

    def test_linear_phase_has_no_points(self, spin20):
        # A pure frame shift gives a linear action: gradient never crosses zero.
        z = spin20.basis("z")
        a = make_packet(z, 0.0, 5.0)
        shifted = apply_diagonal(
            __import__("actionlab.hilbert", fromlist=["DiagonalUnitary"]).DiagonalUnitary(
                z, -0.3 * z.eigenvalues
            ),
            a,
        )
        prof = action_profile(a, z, shifted, UNIT)
        assert stationary_points(prof) == []

    def test_resolution_limits_populated(self, spin50):
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        pt = stationary_points(prof)[0]
        assert pt.delta_x_m == pytest.approx(np.sqrt(2 * np.pi / abs(pt.curvature_at)))
        assert pt.delta_n == pytest.approx(pt.delta_x_m)  # unit grid spacing
        assert 0 < pt.weak_value_magnitude < 1


class TestCurvatureWeakValue:
    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_ring_identity_at_stationary_point(self, hbar):
        # The bare identity holds on the running-wave ring to ~10%, in any
        # unit of action: |S''| = T/M = 20 at hbar = 1 and at hbar = 2.
        constants = PhysicalConstants(hbar=hbar)
        ring = ring_system(RING_PARAMS, constants)
        a = ring.basis("position").state_at(100.0)
        b = ring_arrival_state(ring, 120.0)
        mom = ring.basis("momentum")
        prof = action_profile(a, mom, b, constants)
        pt = stationary_points(prof)[0]
        assert abs(pt.curvature_at) == pytest.approx(20.0, rel=1e-6)
        spacing = float(mom.spacing[0])
        predicted = curvature_weak_value(a, mom.state(pt.index_star), b, spacing, constants)
        assert predicted == pytest.approx(abs(pt.curvature_at), rel=0.10)

    def test_spin50_branch_identity(self, spin50):
        # Standing-wave states need the branch-filtered amplitude; compare the
        # profile's weak value route against the fitted curvature.
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        pt = stationary_points(prof)[0]
        eq17 = 2 * np.pi * pt.weak_value_magnitude**2  # unit spacing, hbar=1
        assert eq17 == pytest.approx(abs(pt.curvature_at), rel=0.10)

    def test_j4_semiclassical_breakdown_recorded(self):
        # Small systems may deviate arbitrarily; record, do not assert.
        from actionlab.models import spin_system

        s4 = spin_system(4.0)
        a, b = spin_pair(s4, 2.0, 2.0)
        prof = action_profile(a, s4.basis("z"), b, UNIT, smoothing=2.0)
        pts = stationary_points(prof)
        if pts:
            eq17 = 2 * np.pi * pts[0].weak_value_magnitude**2
            rel = abs(eq17 - abs(pts[0].curvature_at)) / abs(pts[0].curvature_at)
            print(f"\n[recorded] j=4 curvature identity relative deviation: {rel:.2f}")
            assert np.isfinite(rel)

    def test_gauge_invariance(self, ring256):
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        mom = ring256.basis("momentum")
        m = mom.state(140)
        spacing = float(mom.spacing[0])
        ref = curvature_weak_value(a, m, b, spacing, UNIT)
        a2 = StateVector(a.amplitudes * np.exp(0.7j))
        b2 = StateVector(b.amplitudes * np.exp(-1.1j))
        assert curvature_weak_value(a2, m, b2, spacing, UNIT) == pytest.approx(ref, rel=1e-12)

    def test_vanishing_overlap_guarded(self):
        a = StateVector([1, 0])
        b = StateVector([0, 1])
        m = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        with pytest.raises(UndefinedPhaseError):
            curvature_weak_value(a, m, b, 1.0, UNIT)


class TestAlignedUnitary:
    def test_qubit_exact_alignment(self, qubit):
        a, b = spin_pair(qubit, 0.5, 0.5)
        unitary, achieved = aligned_unitary(a, qubit.basis("z"), b)
        assert achieved == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(unitary.phases, [np.pi / 4, -np.pi / 4], atol=1e-12)
        out = apply_diagonal(unitary, a)
        assert abs(inner(b, out)) == pytest.approx(1.0, abs=1e-12)

    def test_a_equals_b(self, spin20):
        a = spin20.basis("x").state_at(10.0)
        unitary, achieved = aligned_unitary(a, spin20.basis("z"), a)
        assert achieved == pytest.approx(1.0, abs=1e-12)
        wrapped = (unitary.phases + np.pi) % (2 * np.pi) - np.pi
        assert np.max(np.abs(wrapped)) < 1e-10

    def test_triangle_inequality_maximum(self, spin20):
        a, b = spin_pair(spin20, 10.0, 5.0)
        z = spin20.basis("z")
        unitary, achieved = aligned_unitary(a, z, b)
        t = np.conj(expand(b, z)) * expand(a, z)
        assert achieved == pytest.approx(float(np.sum(np.abs(t))), abs=1e-12)
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(1000):
            mag = abs(np.sum(t * np.exp(1j * rng.uniform(0, 2 * np.pi, z.n_states))))
            assert mag <= achieved + 1e-12


class TestStationaryPhaseOverlap:
    def test_spin50_two_branch_estimate(self, spin50):
        a, b = spin_pair(spin50, 25.0, 25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        est = stationary_phase_overlap(prof, stationary_points(prof))
        ratio = abs(est.estimate) / abs(est.exact)
        assert 0.8 <= ratio <= 1.2

    def test_gaussian_packet_quadratic_phase(self, spin50):
        # Analytic oracle: |integral N(u; 0, w) e^{i k u^2} du| = (1+(2kw^2)^2)^(-1/4).
        z = spin50.basis("z")
        w = 8.0
        alpha = 5.0 / w**2  # quadratic phase curvature; alpha w^2 = 5 >> 1
        a = make_packet(z, 0.0, w)
        amps = expand(a, z)
        from actionlab.hilbert import DiagonalUnitary

        b = apply_diagonal(DiagonalUnitary(z, 0.5 * alpha * z.eigenvalues**2), a)
        exact = inner(b, a)
        analytic = (1 + (alpha * w**2) ** 2) ** -0.25
        assert abs(exact) == pytest.approx(analytic, rel=0.01)
        prof = action_profile(a, z, b, UNIT)
        pts = stationary_points(prof)
        assert len(pts) == 1
        est = stationary_phase_overlap(prof, pts)
        # Stationary phase ignores the (1 + 1/x^2)^(1/4) conditioning factor.
        expected_sp = (alpha * w**2) ** -0.5
        assert abs(est.estimate) == pytest.approx(expected_sp, rel=0.02)
        assert est.relative_error < 0.05

    def test_no_points_not_applicable(self, spin20):
        z = spin20.basis("z")
        a = make_packet(z, 0.0, 5.0)
        from actionlab.hilbert import DiagonalUnitary

        shifted = apply_diagonal(DiagonalUnitary(z, -0.3 * z.eigenvalues), a)
        prof = action_profile(a, z, shifted, UNIT)
        with pytest.raises(NotApplicableError):
            stationary_phase_overlap(prof, [])


class TestPropagationTime:
    def test_ring_zero_at_stationary_point(self, ring256):
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        prof = action_profile(a, ring256.basis("momentum"), b, UNIT)
        pt = stationary_points(prof)[0]
        assert abs(prof.gradient_at(pt.x_star)) < 1e-9

    def test_ring_linear_transformation_distance(self, ring256):
        # dS/dp = dx - p T / M exactly for the free ring.
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        prof = action_profile(a, ring256.basis("momentum"), b, UNIT)
        for p_val in (0.5, 1.0, 1.5):
            assert prof.gradient_at(p_val) == pytest.approx(
                20.0 - 20.0 * p_val, abs=1e-8
            )

    def test_sign_reverses_with_exchange(self, ring256):
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        mom = ring256.basis("momentum")
        fwd = action_profile(a, mom, b, UNIT)
        rev = action_profile(b, mom, a, UNIT)
        assert rev.gradient_at(0.5) == pytest.approx(
            -fwd.gradient_at(0.5), abs=1e-9
        )

    def test_outside_support_rejected(self, ring256):
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        prof = action_profile(a, ring256.basis("momentum"), b, UNIT)
        with pytest.raises(ValueError, match="outside"):
            prof.gradient_at(99.0)


class TestErrorPaths:
    def test_aligned_unitary_all_masked(self):
        from actionlab.hilbert import LabeledBasis

        a = StateVector([1, 0, 0])
        b = StateVector([0, 1, 0])
        basis = LabeledBasis(np.eye(3), [0.0, 1.0, 2.0])
        with pytest.raises(UndefinedPhaseError):
            aligned_unitary(a, basis, b)

    def test_profile_dimension_mismatch(self, spin20, qubit):
        a = qubit.basis("x").state_at(0.5)
        with pytest.raises(ValueError, match="mismatch"):
            action_profile(a, spin20.basis("z"), a, UNIT)

    def test_vanishing_overlap_rejected(self):
        from actionlab.hilbert import LabeledBasis

        a = StateVector([1, 0])
        b = StateVector([0, 1])
        basis = LabeledBasis(np.eye(2), [0.0, 1.0])
        with pytest.raises(UndefinedPhaseError, match="vanishes"):
            action_profile(a, basis, b, UNIT)


class TestStationaryPointInvariants:
    def test_interpolated_gradient_vanishes_at_x_star(self, spin50, ring256):
        # Ring (bare profile): machine-level zero at the refined point.
        a = ring256.basis("position").state_at(100.0)
        b = ring_arrival_state(ring256, 120.0)
        prof = action_profile(a, ring256.basis("momentum"), b, UNIT)
        pt = stationary_points(prof)[0]
        assert abs(prof.gradient_at(pt.x_star)) < 1e-9
        # Spin (filtered profile): small against the gradient scale.
        a = spin50.basis("x").state_at(25.0)
        b = spin50.basis("y").state_at(25.0)
        prof = action_profile(a, spin50.basis("z"), b, UNIT, smoothing=2.0)
        for pt in stationary_points(prof):
            scale = np.nanmax(np.abs(prof.gradient))
            assert abs(prof.gradient_at(pt.x_star)) < 0.05 * scale


class TestLoopOracles:
    """The array forms agree bit for bit with the per-point loops in conftest."""

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=499),
        st.floats(-50.0, 50.0),
        st.floats(0.01, 100.0).filter(lambda h: h != 1.0),
        st.integers(min_value=0, max_value=499),
    )
    @settings(max_examples=150, deadline=None)
    def test_unwrap_segment_matches_loop(self, fractions, start, hbar, anchor_raw):
        # Steps reach to within 1e-6 of half a turn.  At exactly half a turn
        # the nearest multiple is a tie, which the chained loop and the
        # cumulative count may break differently.
        half_turn = np.pi * hbar * (1.0 - 1e-6)
        smooth = start + np.concatenate([[0.0], np.cumsum(np.array(fractions) * half_turn)])
        two_pi = 2.0 * np.pi * hbar
        raw = (smooth + np.pi * hbar) % two_pi - np.pi * hbar
        anchor = anchor_raw % len(raw)
        assert np.array_equal(unwrap_segment(raw, two_pi, anchor),
                              loop_unwrap_segment(raw, two_pi, anchor))

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @example([True])
    @example([False])
    @example([True] * 40)
    @example([False] * 40)
    @settings(max_examples=200, deadline=None)
    def test_segments_of_matches_loop(self, flags):
        valid = np.array(flags)
        assert np.array_equal(_segments_of(valid), loop_segments_of(valid))
