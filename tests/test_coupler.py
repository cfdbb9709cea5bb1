import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoref.coupler import (
    CouplerGeometry,
    coupler_reflectivity,
    coupling_length,
    delta_beta_from_index_shift,
    homodyne_noise,
    measured_squeezing_vs_residual_pump,
    reflectivity_vs_pump,
    squeezing_parameter_from_db,
)
from photoref.material import delta_n_steady


class TestCouplingLength:
    def test_reference_value(self):
        lc = coupling_length(0.46)
        assert lc == pytest.approx(math.pi / 0.92, rel=1e-12)
        assert abs(lc - 3.43) <= 0.005 * 3.43  # quoted length, within 0.5 %

    @given(k=st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_inverse_proportionality(self, k):
        assert coupling_length(2 * k) == pytest.approx(coupling_length(k) / 2, rel=1e-12)

    def test_inversion_for_quoted_lengths(self):
        # k for L_c = 2.96 mm, then the round trip.
        k = math.pi / (2 * 2.96)
        assert k == pytest.approx(0.5307, abs=2e-4)
        assert coupling_length(k) == pytest.approx(2.96, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coupling_length(0.0)


class TestReflectivity:
    def test_complete_transfer_at_coupling_length(self):
        k = 0.46
        geometry = CouplerGeometry(k, coupling_length(k))
        assert coupler_reflectivity(geometry, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_matched_hand_value(self, coupler30):
        # 1 - sin^2(kL) at k*L = 0.46*4.3 = 1.978, evaluated independently.
        expected = 1.0 - math.sin(1.978) ** 2
        assert coupler_reflectivity(coupler30, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.157, abs=5e-3)

    def test_large_mismatch_suppresses_coupling(self, coupler30):
        assert coupler_reflectivity(coupler30, 1e4) > 1.0 - 1e-6

    @given(db=st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_even(self, coupler30, db):
        r = coupler_reflectivity(coupler30, db)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(coupler_reflectivity(coupler30, -db), abs=1e-12)

    def test_periodic_in_length_at_zero_mismatch(self):
        k = 0.46
        lc = coupling_length(k)
        for m in range(4):
            even = CouplerGeometry(k, 2 * (m + 1) * lc)
            odd = CouplerGeometry(k, (2 * m + 1) * lc)
            assert coupler_reflectivity(even, 0.0) == pytest.approx(1.0, abs=1e-10)
            assert coupler_reflectivity(odd, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_continuous_in_mismatch(self, coupler30):
        db = np.linspace(0.0, 2.0, 100001)
        r = coupler_reflectivity(coupler30, db)
        assert np.max(np.abs(np.diff(r))) < 1e-3


class TestReflectivityVsPump:
    def test_zero_powers_constant(self, coupler30, params30):
        sweep = reflectivity_vs_pump(coupler30, params30, 1550.0, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            sweep.value, coupler_reflectivity(coupler30, 0.0), atol=1e-15
        )

    def test_two_step_hand_evaluation(self, coupler30, params30):
        """dn -> delta_beta -> R chained by hand for the 10 mW point."""
        dn = -params30.a * 10.0 / (params30.b + params30.c * 10.0)
        db = 2 * math.pi * abs(dn) / (1550.0 * 1e-6)
        q2 = 4 * 0.46**2 + db**2
        expected = 1.0 - (4 * 0.46**2 / q2) * math.sin(4.3 * math.sqrt(q2) / 2) ** 2
        sweep = reflectivity_vs_pump(coupler30, params30, 1550.0, [0.0, 10.0])
        assert sweep.value[-1] == pytest.approx(expected, rel=1e-12)

    def test_spec_mismatch_scale(self):
        # |dn| = 1e-4 at 1550 nm maps to about 0.405 1/mm.
        assert delta_beta_from_index_shift(1e-4, 1550.0) == pytest.approx(0.405, abs=1e-3)

    def test_high_temperature_suppression(self, coupler90, params90):
        powers = np.linspace(0.0, 15.0, 31)
        sweep = reflectivity_vs_pump(coupler90, params90, 1550.0, powers)
        r0 = sweep.value[0]
        assert np.max(np.abs(sweep.value - r0)) / r0 < 0.01


class TestHomodyneNoise:
    @given(r=st.floats(0.0, 1.0), phi=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=300, deadline=None)
    def test_vacuum_is_shot_noise_for_any_splitting(self, r, phi):
        assert homodyne_noise(r, 0.0, phi) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_squeezed_floor(self):
        for s in np.linspace(0.0, 2.0, 21):
            noise = homodyne_noise(0.5, s, 0.0)
            assert noise == pytest.approx(math.exp(-2 * s), abs=1e-12)

    def test_balanced_bounded_by_quadrature_extremes(self):
        s = 0.7
        for phi in np.linspace(0.0, 2 * math.pi, 73):
            noise = homodyne_noise(0.5, s, phi)
            assert math.exp(-2 * s) - 1e-12 <= noise <= math.exp(2 * s) + 1e-12

    def test_monte_carlo_oracle_single_point(self, rng):
        """Beamsplitter sampling of Gaussian quadratures against the formula."""
        r, s, phi = 0.45, squeezing_parameter_from_db(-5.0), 0.0
        t = 1.0 - r
        n = 10**6
        lo_quadrature = rng.standard_normal(n)
        squeezed = rng.standard_normal(n) * math.exp(-s)
        antisqueezed = rng.standard_normal(n) * math.exp(s)
        measured = (t - r) * lo_quadrature + 2 * math.sqrt(r * t) * (
            math.cos(phi) * squeezed + math.sin(phi) * antisqueezed
        )
        sample_var = float(np.var(measured))
        formula = homodyne_noise(r, s, phi)
        std_err = formula * math.sqrt(2.0 / n)
        assert abs(sample_var - formula) < 3 * std_err

    def test_arrays_match_scalar_calls(self):
        """Reflectivities and phases broadcast; each entry is its scalar call."""
        r = np.linspace(0.0, 1.0, 11)[:, None]
        phi = np.linspace(0.0, 2 * math.pi, 13)
        noise = homodyne_noise(r, 0.4, phi)
        assert noise.shape == (11, 13)
        for i, j in np.ndindex(noise.shape):
            assert noise[i, j] == pytest.approx(
                homodyne_noise(float(r[i, 0]), 0.4, float(phi[j])), rel=1e-15
            )

    @pytest.mark.parametrize(
        "reflectivity",
        [1.2, -1e-300, 1.0 + 1e-15, math.nan, np.array([0.5, 1.5]), np.array([0.2, math.nan])],
    )
    def test_reflectivity_outside_unit_interval_rejected(self, reflectivity):
        with pytest.raises(ValueError, match=r"reflectivity must lie in \[0, 1\]"):
            homodyne_noise(reflectivity, 0.0, 0.0)

    def test_negative_squeezing_parameter_rejected(self):
        with pytest.raises(ValueError, match="squeezing parameter must be >= 0"):
            homodyne_noise(0.5, -0.1, 0.0)

    def test_unit_interval_ends_accepted(self):
        np.testing.assert_array_equal(homodyne_noise(np.array([0.0, 1.0]), 0.3, 0.7), [1.0, 1.0])


def balanced_geometry(k: float = 0.46) -> CouplerGeometry:
    return CouplerGeometry(k, 1.5 * coupling_length(k))


class TestMeasuredSqueezing:
    def test_balanced_at_zero_pump(self, params30):
        sweep = measured_squeezing_vs_residual_pump(
            balanced_geometry(), params30, 1550.0, -5.0, [0.0]
        )
        assert sweep.value[0] == pytest.approx(-5.0, abs=1e-9)

    def test_monotone_degradation(self, params30):
        powers = np.linspace(0.0, 10.0, 21)
        sweep = measured_squeezing_vs_residual_pump(
            balanced_geometry(), params30, 1550.0, -5.0, powers
        )
        assert np.all(np.diff(sweep.value) >= -1e-12)

    def test_deeper_initial_level_loses_more(self, params30):
        powers = [0.0, 2.0, 5.0, 10.0]
        shallow = measured_squeezing_vs_residual_pump(
            balanced_geometry(), params30, 1550.0, -3.0, powers
        )
        deep = measured_squeezing_vs_residual_pump(
            balanced_geometry(), params30, 1550.0, -10.0, powers
        )
        loss_shallow = shallow.value - (-3.0)
        loss_deep = deep.value - (-10.0)
        assert np.all(loss_deep[1:] > loss_shallow[1:])

    def test_never_exceeds_injected_level(self, params30):
        powers = np.linspace(0.0, 12.0, 25)
        for level in (-3.0, -5.0, -10.0):
            sweep = measured_squeezing_vs_residual_pump(
                balanced_geometry(), params30, 1550.0, level, powers
            )
            assert np.all(sweep.value >= level - 1e-9)

    def test_calibration_variants_coincide_for_ideal_lo(self, params30):
        # The sweep calibrates the shot noise at R(0); calibrating it with the
        # residual pump present, at R(P), gives the same levels.
        geometry = balanced_geometry()
        powers = [0.0, 3.0, 8.0]
        sweep = measured_squeezing_vs_residual_pump(
            geometry, params30, 1550.0, -5.0, powers
        )
        s = squeezing_parameter_from_db(-5.0)
        with_pump = [
            10.0 * math.log10(
                homodyne_noise(r, s, 0.0) / homodyne_noise(r, 0.0, 0.0)
            )
            for r in reflectivity_vs_pump(geometry, params30, 1550.0, powers).value
        ]
        np.testing.assert_allclose(sweep.value, with_pump, atol=1e-12)

    @pytest.mark.parametrize("level", [-3.0, -5.0, -10.0])
    @pytest.mark.parametrize("params", ["params30", "params90"])
    def test_matches_per_point_oracle(self, request, level, params):
        """One scalar noise and one shot-noise calibration per residual power."""
        geometry = balanced_geometry()
        params = request.getfixturevalue(params)
        powers = np.linspace(0.0, 20.0, 41)
        sweep = measured_squeezing_vs_residual_pump(geometry, params, 1550.0, level, powers)
        s = squeezing_parameter_from_db(level)
        r0 = coupler_reflectivity(geometry, 0.0)
        oracle = [
            10.0 * math.log10(
                homodyne_noise(float(r), s, 0.0) / homodyne_noise(r0, 0.0, 0.0)
            )
            for r in reflectivity_vs_pump(geometry, params, 1550.0, powers).value
        ]
        np.testing.assert_allclose(sweep.value, oracle, rtol=0.0, atol=1e-12)

    def test_unbalanced_design_rejected(self, params30, coupler30):
        with pytest.raises(ValueError, match="not balanced"):
            measured_squeezing_vs_residual_pump(
                coupler30, params30, 1550.0, -5.0, [0.0]
            )
