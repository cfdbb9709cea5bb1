import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photoref.material as material_module
from photoref.coupler import DB_PER_NEPER
from photoref.material import delta_n_steady
from photoref.spdc import (
    QpmDevice,
    SpdcOperatingPoint,
    calibrate_poling_period,
    effective_squeezing_vs_power,
    idler_wavelength,
    qpm_mismatch,
    spdc_spectrum,
)

PUMP_30 = 770.73
PUMP_90 = 774.63


# The per-partner and per-power loop forms, oracles for the array forms.
def twin_summed_spectrum(device, point, params, grid, background=0.0):
    """Each grid wavelength plus its energy-conserving partner, one dk call each."""
    half_phase = qpm_mismatch(device, point, grid, params) * device.length_mm / 2.0
    twin = idler_wavelength(point.pump_wavelength_nm, grid)
    half_phase_twin = qpm_mismatch(device, point, twin, params) * device.length_mm / 2.0
    density = (
        np.sinc(half_phase / math.pi) ** 2 + np.sinc(half_phase_twin / math.pi) ** 2
        + background
    )
    return density / density.max()


def degraded_squeezing_loop(device, temperature, lam_p, params, mu0, powers):
    """One operating point and one dk at degeneracy per pump power."""
    degraded = []
    for p in powers:
        point = SpdcOperatingPoint(lam_p, temperature, float(p))
        half_phase = qpm_mismatch(device, point, 2.0 * lam_p, params) * device.length_mm / 2.0
        degraded.append(-DB_PER_NEPER * mu0 * math.sqrt(p) * abs(np.sinc(half_phase / math.pi)))
    return np.array(degraded)


@pytest.fixture(scope="module")
def device_rest(material):
    """Poling period calibrated at zero pump power, 30 C."""
    period = calibrate_poling_period(material, 30.0, PUMP_30, 2 * PUMP_30)
    return QpmDevice(poling_period_um=period, length_mm=15.0, material=material)


@pytest.fixture(scope="module")
def device_ref(material, params30):
    """Poling period absorbing the photorefractive shift at 5 mW, 30 C."""
    shift = delta_n_steady(params30, 5.0)
    period = calibrate_poling_period(
        material, 30.0, PUMP_30, 2 * PUMP_30, pump_index_shift=shift
    )
    return QpmDevice(poling_period_um=period, length_mm=15.0, material=material)


class TestEnergyConservation:
    @given(lam_s=st.floats(1100.0, 2300.0))
    @settings(max_examples=300, deadline=None)
    def test_inverse_wavelengths_add_up(self, lam_s):
        lam_i = idler_wavelength(PUMP_30, lam_s)
        assert 1.0 / lam_s + 1.0 / lam_i == pytest.approx(
            1.0 / PUMP_30, rel=1e-12
        )

    def test_degenerate_pair(self):
        assert idler_wavelength(PUMP_30, 2 * PUMP_30) == pytest.approx(
            2 * PUMP_30, rel=1e-14
        )

    def test_unphysical_signal_rejected(self, device_rest, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.0)
        with pytest.raises(ValueError, match="physical window"):
            qpm_mismatch(device_rest, point, 1000.0, params30)


class TestCalibration:
    def test_round_trip_nulls_mismatch(self, device_rest, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.0)
        dk = qpm_mismatch(device_rest, point, 2 * PUMP_30, params30)
        assert abs(dk) < 1e-10  # 1/mm

    def test_round_trip_with_reference_power(self, device_ref, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 5.0)
        dk = qpm_mismatch(device_ref, point, 2 * PUMP_30, params30)
        assert abs(dk) < 1e-10

    def test_period_magnitude_is_physical(self, device_rest):
        assert 10.0 < device_rest.poling_period_um < 25.0

    def test_temperature_cross_consistency(self, device_rest, params90):
        """One poling period serves both quoted operating points.

        Calibrated at 30 C / 770.73 nm, the pump wavelength that reaches
        degeneracy at 90 C must come out near the quoted 774.63 nm.
        """
        def mismatch_at_degeneracy(lam_p):
            point = SpdcOperatingPoint(lam_p, 90.0, 0.25)
            return qpm_mismatch(device_rest, point, 2 * lam_p, params90)

        lo, hi = 765.0, 785.0
        f_lo = mismatch_at_degeneracy(lo)
        assert f_lo * mismatch_at_degeneracy(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = mismatch_at_degeneracy(mid)
            if (f_lo < 0) == (f_mid < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(PUMP_90, abs=0.5)

    def test_perturbed_period_moves_roots_symmetrically(self, device_rest, params30):
        period = device_rest.poling_period_um
        bigger = QpmDevice(period * 1.001, 15.0, device_rest.material)
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.0)
        grid = np.linspace(1350.0, 1750.0, 40001)
        dk = qpm_mismatch(bigger, point, grid, params30)
        crossings = grid[np.flatnonzero(np.diff(np.sign(dk)) != 0)]
        assert len(crossings) == 2
        lo, hi = crossings
        degeneracy = 2 * PUMP_30
        assert lo < degeneracy < hi
        # Symmetric to first order; the residual skew is cubic dispersion.
        asymmetry = abs((hi - degeneracy) - (degeneracy - lo)) / (hi - lo)
        assert asymmetry < 0.10

    def test_off_degeneracy_round_trip(self, material, params30):
        """A signal away from degeneracy is phase-matched with its
        energy-conserving idler, not with a second photon at the signal."""
        period = calibrate_poling_period(material, 30.0, PUMP_30, 1550.0)
        device = QpmDevice(poling_period_um=period, length_mm=15.0, material=material)
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.0)
        assert abs(qpm_mismatch(device, point, 1550.0, params30)) <= 1e-9  # 1/mm

    def test_unphysical_signal_rejected(self, material):
        with pytest.raises(ValueError, match="physical window"):
            calibrate_poling_period(material, 30.0, PUMP_30, 1000.0)

    def test_insufficient_dispersion_rejected(self, material):
        with pytest.raises(ValueError, match="insufficient"):
            # A pump index lowered by 0.2 falls below the telecom index: negative period.
            calibrate_poling_period(material, 30.0, 775.0, 1550.0, pump_index_shift=-0.2)


class TestSpectrum:
    def test_unit_maximum_and_range(self, device_ref, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.25)
        grid = np.linspace(1430.0, 1660.0, 2001)
        density = spdc_spectrum(device_ref, point, params30, grid)
        assert density.max() == 1.0
        assert np.all((density >= 0.0) & (density <= 1.0))

    def test_grid_must_bracket_degeneracy(self, device_ref, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.25)
        with pytest.raises(ValueError, match="bracket"):
            spdc_spectrum(device_ref, point, params30, np.linspace(1600.0, 1700.0, 11))

    def test_symmetric_under_pair_conjugation(self, device_ref, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.25)
        grid = np.linspace(1440.0, 1650.0, 1501)
        density = spdc_spectrum(device_ref, point, params30, grid)
        twin_grid = idler_wavelength(PUMP_30, grid)[::-1]
        twin_density = spdc_spectrum(device_ref, point, params30, twin_grid)
        np.testing.assert_allclose(density, twin_density[::-1], atol=1e-9)

    def test_sinc_width_scaling(self, device_rest, params30):
        """Half maximum sits at |dk|*L/2 = 1.39156; halving L doubles the dk width."""
        half_max_arg = 1.391557377204354  # sinc^2(x) = 1/2
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.0)
        grid = np.linspace(1400.0, 1700.0, 200001)
        dk_widths = {}
        for length in (15.0, 7.5):
            dk = qpm_mismatch(device_rest, point, grid, params30)
            density = np.sinc(dk * length / 2.0 / math.pi) ** 2
            above = np.flatnonzero(density >= 0.5)
            edge_lo, edge_hi = dk[above[0]], dk[above[-1]]
            # Both half-max edges sit at the same |dk*L/2|; the full width in
            # dk*L units is then 2*2*1.39156 = 5.57 rad.
            assert abs(edge_lo) * length / 2 == pytest.approx(half_max_arg, rel=1e-3)
            assert abs(edge_hi) * length / 2 == pytest.approx(half_max_arg, rel=1e-3)
            assert (abs(edge_lo) + abs(edge_hi)) * length == pytest.approx(
                4 * half_max_arg, rel=1e-3
            )
            dk_widths[length] = abs(edge_lo) + abs(edge_hi)
        assert dk_widths[7.5] == pytest.approx(2 * dk_widths[15.0], rel=1e-3)

    def test_pump_power_pulls_emission_to_degeneracy(self, device_ref, params30):
        grid = np.linspace(1420.0, 1680.0, 20001)
        separations = []
        for power in (0.25, 2.0, 4.0):
            point = SpdcOperatingPoint(PUMP_30, 30.0, power)
            dk = qpm_mismatch(device_ref, point, grid, params30)
            crossings = grid[np.flatnonzero(np.diff(np.sign(dk)) != 0)]
            assert len(crossings) >= 2
            separations.append(crossings[-1] - crossings[0])
        assert separations[0] > separations[1] > separations[2]

    def test_degeneracy_reached_at_finite_power(self, device_ref, params30):
        """One crossing on [0, 100] mW, at the calibrated reference power."""
        [(lo, hi)] = self.sign_change(device_ref, params30, 0.0, 100.0)
        [(lo, hi)] = self.sign_change(device_ref, params30, lo, hi)
        assert lo - 1e-9 <= 5.0 <= hi + 1e-9

    @staticmethod
    def sign_change(device, params, lo, hi, points=1000):
        """Brackets of the sign changes of the mismatch at degeneracy over a power scan."""
        powers = np.linspace(lo, hi, points)
        dk = np.array([
            qpm_mismatch(device, SpdcOperatingPoint(PUMP_30, 30.0, p), 2 * PUMP_30, params)
            for p in powers
        ])
        i = np.flatnonzero(np.sign(dk[:-1]) != np.sign(dk[1:]))
        return [(powers[j], powers[j + 1]) for j in i]

    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_degeneracy_power_matches_dense_scan(self, device_ref, params30, fraction):
        """The crossing sits where (1 - fraction)*dn(P) meets the 5 mW shift.

        At degeneracy the telecom share of the shift cancels that fraction of
        the pump's, and dn = -a*P/(b + c*P) inverts to P = -b*dn/(a + c*dn).
        """
        device = dataclasses.replace(device_ref, telecom_shift_fraction=fraction)
        dn = delta_n_steady(params30, 5.0) / (1.0 - fraction)
        power = -params30.b * dn / (params30.a + params30.c * dn)
        [(lo, hi)] = self.sign_change(device, params30, 0.0, 100.0)
        # Refine the bracket to about 1e-4 mW with a second scan inside it.
        [(lo, hi)] = self.sign_change(device, params30, lo, hi)
        assert lo - 1e-9 <= power <= hi + 1e-9

    def test_degeneracy_power_none_below_crossing(self, device_ref, params30):
        assert self.sign_change(device_ref, params30, 0.0, 4.0) == []

    def test_high_temperature_power_insensitivity(self, device_ref, params90):
        grid = np.linspace(1440.0, 1660.0, 3001)
        spectra = []
        for power in (0.25, 15.0):
            point = SpdcOperatingPoint(PUMP_90, 90.0, power)
            spectra.append(spdc_spectrum(device_ref, point, params90, grid))
        assert np.max(np.abs(spectra[0] - spectra[1])) < 0.01

    @pytest.mark.parametrize("background", [0.0, 0.05])
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    @pytest.mark.parametrize("power", [0.25, 5.0, 15.0])
    def test_matches_twin_summed_oracle(self, device_ref, params30, background, fraction,
                                        power):
        device = dataclasses.replace(device_ref, telecom_shift_fraction=fraction)
        point = SpdcOperatingPoint(PUMP_30, 30.0, power)
        grid = np.linspace(2 * PUMP_30 - 110.0, 2 * PUMP_30 + 110.0, 881)
        density = spdc_spectrum(device, point, params30, grid, background)
        oracle = twin_summed_spectrum(device, point, params30, grid, background)
        np.testing.assert_allclose(density, oracle, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("widened", [False, True])
    def test_partner_outside_window_rejected(self, monkeypatch, device_ref, params30,
                                             widened):
        """Signals in (1.4, 1.5]*lam_p have partners beyond 3*lam_p.

        Those partners also lie beyond the validated dispersion range, which
        refuses them first; with the range widened the window refuses them.
        """
        if widened:
            monkeypatch.setattr(material_module, "WAVELENGTH_RANGE_NM", (400.0, 2600.0))
        match = "physical window" if widened else "validated range"
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.25)
        grid = np.linspace(1.45 * PUMP_30, 2.2 * PUMP_30, 101)
        with pytest.raises(ValueError, match=match):
            twin_summed_spectrum(device_ref, point, params30, grid)
        with pytest.raises(ValueError, match=match):
            spdc_spectrum(device_ref, point, params30, grid)

    def test_background_floor(self, device_ref, params30):
        point = SpdcOperatingPoint(PUMP_30, 30.0, 0.25)
        grid = np.linspace(1430.0, 1660.0, 501)
        plain = spdc_spectrum(device_ref, point, params30, grid)
        density = spdc_spectrum(device_ref, point, params30, grid, background=0.05)
        # The raw twin-summed density is bounded by 2, so the normalized
        # floor cannot drop below background/(2 + background).
        assert density.min() >= 0.05 / (2.0 + 0.05) - 1e-12
        assert density.min() > plain.min()
        assert density.max() == 1.0


class TestEffectiveSqueezing:
    def test_zero_power_gives_zero_db(self, device_rest, params30):
        ideal, degraded = effective_squeezing_vs_power(
            device_rest, 30.0, PUMP_30, params30, 0.101, [0.0, 10.0]
        )
        assert ideal.value[0] == 0.0
        assert degraded.value[0] == 0.0

    def test_ideal_level_at_100_mw(self, device_rest, params30):
        ideal, _ = effective_squeezing_vs_power(
            device_rest, 30.0, PUMP_30, params30, 0.101, [100.0]
        )
        # s = 0.101*sqrt(100) = 1.01; variance e^(-2s) in dB.
        expected = 10 * math.log10(math.exp(-2 * 1.01))
        assert ideal.value[0] == pytest.approx(expected, abs=1e-9)
        assert ideal.value[0] == pytest.approx(-8.77, abs=0.01)

    def test_photorefractive_curve_never_beats_ideal(self, device_rest, params30):
        powers = np.linspace(0.0, 100.0, 41)
        ideal, degraded = effective_squeezing_vs_power(
            device_rest, 30.0, PUMP_30, params30, 0.101, powers
        )
        assert np.all(degraded.value >= ideal.value - 1e-12)
        # Equality only at zero power for a device phase matched at rest.
        assert np.all(degraded.value[1:] > ideal.value[1:])

    def test_rejects_bad_efficiency(self, device_rest, params30):
        with pytest.raises(ValueError):
            effective_squeezing_vs_power(
                device_rest, 30.0, PUMP_30, params30, 0.0, [1.0]
            )

    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    @pytest.mark.parametrize("temperature, lam_p, params", [(30.0, PUMP_30, "params30"),
                                                            (90.0, PUMP_90, "params90")])
    def test_matches_per_power_oracle(self, request, device_ref, fraction, temperature,
                                      lam_p, params):
        device = dataclasses.replace(device_ref, telecom_shift_fraction=fraction)
        params = request.getfixturevalue(params)
        powers = np.linspace(0.0, 100.0, 41)
        _, degraded = effective_squeezing_vs_power(
            device, temperature, lam_p, params, 0.101, powers
        )
        oracle = degraded_squeezing_loop(device, temperature, lam_p, params, 0.101, powers)
        np.testing.assert_allclose(degraded.value, oracle, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "lam_p, temperature, powers",
        [(810.0, 30.0, [0.0, 5.0]), (690.0, 30.0, [5.0]), (PUMP_30, 30.0, [0.0, 5.0, -1.0]),
         (PUMP_30, 250.0, [1.0])],
        ids=["pump-above-window", "pump-below-window", "negative-power", "dispersion-range"],
    )
    def test_refusals_match_per_power_oracle(self, device_rest, params30, lam_p, temperature,
                                             powers):
        args = (device_rest, temperature, lam_p, params30, 0.101, powers)
        with pytest.raises(ValueError):
            degraded_squeezing_loop(*args)
        with pytest.raises(ValueError):
            effective_squeezing_vs_power(*args)
