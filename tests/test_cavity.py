import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoref.cavity import (
    SPEED_OF_LIGHT_M_S,
    FpiCavity,
    airy_transmission,
    delta_n_to_detuning,
    finesse,
    fpi_characteristics,
    simulate_fpi_trace,
)
from photoref.material import (
    NIR_MODE,
    TELECOM_MODE,
    PumpSchedule,
    PumpSegment,
    delta_n_temporal,
    guided_mode,
    refractive_index,
)

LAM = 1550.0
T_C = 30.0


class TestFinesse:
    def test_coefficient_hand_value(self):
        # 4*0.14/0.86^2 evaluated by hand.
        coefficient, _ = finesse(0.14, 0.14)
        assert coefficient == pytest.approx(0.56 / 0.7396, rel=1e-12)

    def test_conventional_matches_low_finesse_device(self):
        # The quoted low finesse of 1.30 is the conventional definition at
        # the pump-band facet reflectivity.
        _, conventional = finesse(0.13, 0.13)
        assert conventional == pytest.approx(1.30, abs=5e-3)

    def test_no_cavity(self):
        assert finesse(0.0, 0.0) == (0.0, 0.0)

    @given(r1=st.floats(0.0, 0.99), r2=st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_definitions_disagree_except_trivially(self, r1, r2):
        coefficient, conventional = finesse(r1, r2)
        assert coefficient >= 0 and conventional >= 0

    def test_rejects_unity(self):
        with pytest.raises(ValueError):
            finesse(1.0, 0.5)


def phase_of(cavity, lam, t_c, dn):
    n = refractive_index(cavity.material, lam, t_c, guided_mode(lam))
    return 2 * math.pi * cavity.length_mm * 1e6 * (n + dn) / lam


def transmission(cavity, lam, t_c, dn):
    """T/T_max at the index shift dn, as the trace simulator evaluates it."""
    coefficient, scale = cavity.airy_constants(lam)
    n = refractive_index(cavity.material, lam, t_c, guided_mode(lam))
    return airy_transmission(coefficient, np.tan(dn * scale + scale * n % math.pi))


class TestTransmission:
    def test_resonance_is_unity(self, fpi):
        phase0 = phase_of(fpi, LAM, T_C, 0.0)
        m = math.ceil(phase0 / math.pi) + 1
        dn = (m * math.pi - phase0) * LAM / (2 * math.pi * fpi.length_mm * 1e6)
        assert transmission(fpi, LAM, T_C, dn) == pytest.approx(1.0, abs=1e-12)

    def test_antiresonance_hand_value(self, fpi):
        phase0 = phase_of(fpi, LAM, T_C, 0.0)
        m = math.ceil(phase0 / math.pi) + 1
        dn = ((m + 0.5) * math.pi - phase0) * LAM / (2 * math.pi * fpi.length_mm * 1e6)
        coefficient = 0.56 / 0.7396
        assert transmission(fpi, LAM, T_C, dn) == pytest.approx(
            1.0 / (1.0 + coefficient), rel=1e-9
        )

    @given(dn=st.floats(-5e-4, 5e-4))
    @settings(max_examples=200, deadline=None)
    def test_bounded_in_unit_interval(self, fpi, dn):
        t = transmission(fpi, LAM, T_C, dn)
        assert 0.0 < t <= 1.0
        # Coefficients whose unbounded kernel rounds to 1 + 2.2e-16 at tan psi = 0.
        for coefficient in (0.02998, 0.06994, 0.124885):
            t = airy_transmission(coefficient, np.array([0.0, -0.0, 1e-300, 1e-9]))
            assert np.all((0.0 < t) & (t <= 1.0)), (coefficient, t)

    def test_periodic_in_delta_n(self, fpi):
        period = LAM / (2 * fpi.length_mm * 1e6)
        dn = np.linspace(0.0, 3 * period, 301)
        base = transmission(fpi, LAM, T_C, dn)
        shifted = transmission(fpi, LAM, T_C, dn + period)
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_half_period_identity(self, fpi):
        """Index step between successive transmission extrema is lam/(4L)."""
        quantum = LAM / (4 * fpi.length_mm * 1e6)
        dn = np.linspace(0.0, 6.5 * quantum, 20001)
        t = transmission(fpi, LAM, T_C, dn)
        interior = np.flatnonzero(
            (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
            | (t[1:-1] < t[:-2]) & (t[1:-1] < t[2:])
        ) + 1
        spacings = np.diff(dn[interior])
        assert np.allclose(spacings, quantum, rtol=1e-3)
        assert abs(quantum - 2.6e-5) <= 0.02 * 2.6e-5

    def test_angled_facets_kill_cavity(self, material):
        cavity = FpiCavity(15.0, 0.14, 0.13, material, angled_facets=True)
        dn = np.linspace(-1e-4, 1e-4, 101)
        np.testing.assert_array_equal(
            transmission(cavity, LAM, T_C, dn), np.ones_like(dn)
        )


class TestCharacteristics:
    def test_fsr_hand_values(self, fpi):
        fsr, fwhm = fpi_characteristics(fpi, 1550.0, 30.0)
        # lam^2/(2 n L): 1550^2 / (2*2.13*15e6) nm -> pm
        assert fsr == pytest.approx(1550.0**2 / (2 * 2.13 * 15e6) * 1e3, rel=1e-12)
        assert fsr == pytest.approx(37.6, abs=0.1)
        assert fwhm is None  # contrast below half maximum at this reflectivity

    def test_fsr_pump_band(self, fpi):
        fsr, fwhm = fpi_characteristics(fpi, 775.0, 30.0)
        assert fsr == pytest.approx(775.0**2 / (2 * 2.18 * 15e6) * 1e3, rel=1e-12)
        assert fsr == pytest.approx(9.2, abs=0.05)
        assert fwhm is None

    @pytest.mark.parametrize("lam, mode, reflectivity",
                             [(999.9, NIR_MODE, 0.13), (1000.0, TELECOM_MODE, 0.14)])
    def test_one_band_split_for_facets_and_mode(self, fpi, lam, mode, reflectivity):
        """The facet reflectivity and the guided mode change band at one wavelength."""
        fsr, _ = fpi_characteristics(fpi, lam, 30.0)
        n = refractive_index(fpi.material, lam, 30.0, mode)
        assert fpi.reflectivity_at(lam) == reflectivity
        assert fsr == pytest.approx(lam**2 / (2 * n * 15e6) * 1e3, rel=1e-12)

    def test_fwhm_present_for_resolvable_fringes(self, material):
        cavity = FpiCavity(15.0, 0.9, 0.9, material)
        fsr, fwhm = fpi_characteristics(cavity, 1550.0, 30.0)
        coefficient, conventional = finesse(0.9, 0.9)
        assert coefficient > 1
        assert fwhm == pytest.approx(fsr / conventional, rel=1e-12)


class TestTraceSimulation:
    def test_zero_power_constant(self, fpi, params30):
        """With no pump the trace holds the Airy level at phi0, worked by hand."""
        schedule = PumpSchedule([PumpSegment(0.0, 10.0, 0.0)])
        trace = simulate_fpi_trace(fpi, schedule, params30, LAM, T_C, 0.1, 10.0)
        phase0 = 2 * math.pi * 15e6 * 2.13 / LAM
        level = 1.0 / (1.0 + 0.56 / 0.7396 * math.sin(phase0) ** 2)
        assert np.ptp(trace.value) == 0.0
        np.testing.assert_allclose(trace.value, level, rtol=1e-9)

    def test_angled_cavity_constant(self, material, params30):
        cavity = FpiCavity(15.0, 0.14, 0.13, material, angled_facets=True)
        schedule = PumpSchedule([PumpSegment(0.0, 40.0, 5.0)])
        trace = simulate_fpi_trace(cavity, schedule, params30, LAM, T_C, 0.1, 40.0)
        assert np.ptp(trace.value) < 1e-12

    def test_pump_on_produces_full_oscillation(self, fpi, params30):
        """5 mW at 30 C sweeps more than two half-periods of transmission."""
        schedule = PumpSchedule([PumpSegment(10.0, 120.0, 5.0)])
        trace = simulate_fpi_trace(fpi, schedule, params30, LAM, T_C, 0.02, 120.0)
        values = trace.value
        interior = np.flatnonzero(
            (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
            | (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
        )
        quantum = LAM / (4 * fpi.length_mm * 1e6)
        from photoref.material import delta_n_steady

        assert abs(delta_n_steady(params30, 5.0)) > 2 * quantum
        assert len(interior) >= 2

    def test_empty_schedule_rejected(self, fpi, params30):
        with pytest.raises(ValueError, match="empty"):
            simulate_fpi_trace(fpi, PumpSchedule([]), params30, LAM, T_C, 0.1, 10.0)

    @pytest.mark.parametrize("period", [1e-6, 5e-324])
    def test_oversized_grid_refused(self, fpi, params30, period):
        """2e7 samples, and a subnormal period whose ratio overflows to inf:
        both refused before the grid is allocated."""
        schedule = PumpSchedule([PumpSegment(0.0, 20.0, 5.0)])
        with pytest.raises(ValueError, match="duration_s / sample_period_s"):
            simulate_fpi_trace(fpi, schedule, params30, LAM, T_C, period, duration_s=20.0)

    def test_is_the_airy_transmission_of_the_shift(self, fpi, params30):
        """T/T_max at dn(t), bit for bit: not divided by the pre-pump level."""
        schedule = PumpSchedule([PumpSegment(10.0, 40.0, 5.0)])
        trace = simulate_fpi_trace(fpi, schedule, params30, LAM, T_C, 0.5, 40.0)
        dn = delta_n_temporal(params30, schedule, trace.time_s)
        np.testing.assert_array_equal(trace.value, transmission(fpi, LAM, T_C, dn))

    def test_single_segment_matches_hand_chain(self, fpi, params30):
        """Independent composition: Airy(phase0 + scale*ss*(1 - e^-t/tau))."""
        from photoref.material import delta_n_steady

        schedule = PumpSchedule([PumpSegment(0.0, 30.0, 5.0)])
        trace = simulate_fpi_trace(fpi, schedule, params30, LAM, T_C, 1.0, 30.0)
        n_eff = 2.13
        coefficient = 0.56 / 0.7396
        phase0 = 2 * math.pi * 15e6 * n_eff / LAM
        scale = 2 * math.pi * 15e6 / LAM
        ss = delta_n_steady(params30, 5.0)
        for i, t in enumerate(trace.time_s):
            dn = ss * (1.0 - math.exp(-t / params30.tau_build_s))
            expected = 1.0 / (1.0 + coefficient * math.sin(phase0 + scale * dn) ** 2)
            assert trace.value[i] == pytest.approx(expected, rel=1e-9)


class TestDetuning:
    def test_zero_shift(self, squeezer):
        assert delta_n_to_detuning(squeezer, 0.0, LAM, T_C) == 0.0

    def test_linear_in_shift(self, squeezer):
        one = delta_n_to_detuning(squeezer, 1e-5, LAM, T_C)
        two = delta_n_to_detuning(squeezer, 2e-5, LAM, T_C)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_hand_chain_for_reference_cavity(self, squeezer):
        """Arithmetic oracle: omega*|dn|/n divided by (1 - sqrt(r1 r2))/t_rt."""
        n = 2.13
        omega = 2 * math.pi * SPEED_OF_LIGHT_M_S / (LAM * 1e-9)
        domega = omega * 2.6e-5 / n
        t_rt = 2 * n * 15e-3 / SPEED_OF_LIGHT_M_S
        kappa = (1 - math.sqrt(0.77 * 0.99)) / t_rt
        expected = domega / kappa
        got = delta_n_to_detuning(squeezer, 2.6e-5, LAM, T_C)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(25.0, abs=0.5)

    def test_rejects_large_shift(self, squeezer):
        with pytest.raises(ValueError):
            delta_n_to_detuning(squeezer, 0.5, LAM, T_C)
