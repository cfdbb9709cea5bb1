import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photoref.material as material_module
from photoref.material import (
    BAND_SPLIT_NM,
    NIR_MODE,
    TELECOM_MODE,
    MaterialModel,
    PhotorefractionParams,
    PumpSchedule,
    PumpSegment,
    delta_n_steady,
    delta_n_temporal,
    guided_mode,
    refractive_index,
)


def hand_bulk_index(lam_um: float, t_c: float) -> float:
    """Independent step-by-step evaluation of the published dispersion formula."""
    f = (t_c - 24.5) * (t_c + 570.82)
    term1 = 5.35583 + 4.629e-7 * f
    term2 = (0.100473 + 3.862e-8 * f) / (lam_um**2 - (0.20692 - 0.89e-8 * f) ** 2)
    term3 = (100.0 + 2.657e-5 * f) / (lam_um**2 - 11.34927**2)
    term4 = -1.5334e-2 * lam_um**2
    return math.sqrt(term1 + term2 + term3 + term4)


TELECOM = "fundamental-telecom"


class TestDispersion:
    def test_bulk_index_matches_hand_evaluation(self, material):
        got = material.coefficients.index(1550.0, 30.0)
        assert got == pytest.approx(hand_bulk_index(1.550, 30.0), abs=1e-12)
        got775 = material.coefficients.index(775.0, 30.0)
        assert got775 == pytest.approx(hand_bulk_index(0.775, 30.0), abs=1e-12)

    def test_calibrated_targets_are_exact(self, material):
        assert refractive_index(material, 1550.0, 30.0, "fundamental-telecom") == 2.13
        assert refractive_index(material, 775.0, 30.0, "fundamental-nir") == 2.18

    @pytest.mark.parametrize("lam, mode", [(775.0, NIR_MODE), (999.9, NIR_MODE),
                                           (1000.0, TELECOM_MODE), (1550.0, TELECOM_MODE)])
    def test_band_split_picks_the_guided_mode(self, lam, mode):
        assert BAND_SPLIT_NM == 1000.0
        assert guided_mode(lam) == mode

    def test_unknown_mode_rejected(self, material):
        with pytest.raises(KeyError, match="unknown mode"):
            refractive_index(material, 1550.0, 30.0, "tm99")

    @pytest.mark.parametrize(
        "lam, t",
        [(300.0, 30.0), (2500.0, 30.0), (1550.0, 10.0), (1550.0, 250.0),
         (np.array([1500.0, 1600.0]), 250.0)],
    )
    def test_out_of_range_rejected(self, material, lam, t):
        with pytest.raises(ValueError, match="outside validated range"):
            refractive_index(material, lam, t, TELECOM)

    def test_array_names_first_out_of_range_wavelength(self, material):
        lam = np.array([1500.0, 2500.0, 1600.0, 300.0])
        with pytest.raises(ValueError, match=r"wavelength 2500\.0 nm outside"):
            refractive_index(material, lam, 30.0, TELECOM)

    def test_array_with_nan_rejected(self, material):
        lam = np.array([1500.0, math.nan, 1600.0])
        with pytest.raises(ValueError, match="wavelength nan nm outside"):
            refractive_index(material, lam, 30.0, TELECOM)

    @pytest.mark.parametrize("t", [20.0, 30.0, 90.0, 200.0])
    def test_index_above_unity(self, material, t):
        lam = np.linspace(400.0, 2000.0, 801)
        n = material.coefficients.index(lam, t)
        assert np.all(n > 1.0)

    @pytest.mark.parametrize("t", [20.0, 30.0, 90.0, 200.0])
    def test_monotone_decreasing_in_band(self, material, t):
        lam = np.linspace(700.0, 1600.0, 901)
        n = material.coefficients.index(lam, t)
        assert np.all(np.diff(n) < 0)

    @given(offset=st.floats(-0.4, 0.4), lam=st.floats(900.0, 1900.0),
           t=st.floats(20.0, 200.0))
    @settings(max_examples=200, deadline=None)
    def test_calibration_round_trip_bit_exact(self, offset, lam, t):
        coeffs = MaterialModel().coefficients
        target = coeffs.index(lam, t) + offset
        model = MaterialModel.calibrated({"m": (lam, t, target)}, coeffs)
        assert refractive_index(model, lam, t, "m") == target


def uncached_index(model, wavelength_nm, temperature_c, mode):
    """``refractive_index`` as evaluated before the dispersion cache."""
    n = model.coefficients.index(wavelength_nm, temperature_c) + model.mode_offsets[mode]
    return float(n) if np.isscalar(wavelength_nm) else n


def same_bits(a, b) -> bool:
    return type(a) is type(b) and np.shape(a) == np.shape(b) and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes()
    )


in_range_nm = st.floats(400.0, 2000.0)
wavelengths = st.one_of(
    in_range_nm,
    st.integers(400, 2000),
    in_range_nm.map(np.array),
    st.lists(in_range_nm, min_size=1, max_size=8).map(np.array),
    st.lists(st.integers(400, 2000), min_size=1, max_size=8).map(np.array),
)
temperatures = st.one_of(st.floats(20.0, 200.0), st.integers(20, 200))


class TestIndexCache:
    """The bulk index is evaluated once per (coefficients, wavelength, temperature)."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        material_module._INDEX_CACHE.clear()
        yield
        material_module._INDEX_CACHE.clear()

    @given(lam=wavelengths, t=temperatures, mode=st.sampled_from(
        ["fundamental-telecom", "fundamental-nir"]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_uncached(self, material, lam, t, mode):
        assert set(material.mode_offsets) == {"fundamental-telecom", "fundamental-nir"}
        material_module._INDEX_CACHE.clear()
        expected = uncached_index(material, lam, t, mode)
        first = refractive_index(material, lam, t, mode)  # evaluated
        again = refractive_index(material, lam, t, mode)  # from the cache
        assert same_bits(first, expected)
        assert same_bits(again, expected)

    def test_shapes_of_one_wavelength_stay_apart(self, material):
        for lam in (1550.0, np.array(1550.0), np.array([1550.0]), np.array([[1550.0]])):
            got = refractive_index(material, lam, 30.0, "fundamental-telecom")
            assert same_bits(got, uncached_index(material, lam, 30.0, "fundamental-telecom"))

    def test_returned_array_is_a_copy(self, material):
        lam = np.linspace(1500.0, 1600.0, 11)
        expected = uncached_index(material, lam, 30.0, "fundamental-telecom")
        for mode in ("fundamental-nir", "fundamental-telecom"):
            refractive_index(material, lam, 30.0, mode)[:] = 0.0
        got = refractive_index(material, lam, 30.0, "fundamental-telecom")
        assert same_bits(got, expected)
        lam[0] = 1450.0  # the key is the wavelengths' value, not the array
        got = refractive_index(material, lam, 30.0, "fundamental-telecom")
        assert same_bits(got, uncached_index(material, lam, 30.0, "fundamental-telecom"))

    @pytest.mark.parametrize(
        "lam, t",
        [(1550.0, math.nan), (1550.0, 250.0), (1550.0, 19.999), (math.nan, 30.0),
         (2000.001, 30.0), (np.array([1550.0, math.nan]), 30.0),
         (np.array([1550.0, 2500.0]), 30.0), (np.array([1550.0]), math.inf)],
    )
    def test_out_of_range_refused_on_every_call(self, material, lam, t):
        # Nearby keys in the cache first: the same wavelength, the same
        # temperature, and the in-range part of the array.
        refractive_index(material, 1550.0, 30.0, TELECOM)
        refractive_index(material, np.array([1550.0]), 30.0, TELECOM)
        refractive_index(material, np.array([1550.0, 1550.0]), 30.0, TELECOM)
        for _ in range(3):
            with pytest.raises(ValueError, match="outside validated range"):
                refractive_index(material, lam, t, TELECOM)

    def test_coefficient_sets_never_share_entries(self, material):
        shifted = dataclasses.replace(material.coefficients, a1=5.36)
        other = MaterialModel(coefficients=shifted, mode_offsets=material.mode_offsets)
        lam = np.array([800.0, 1550.0])
        for model in (material, other, material, other):
            got = refractive_index(model, lam, 30.0, TELECOM)
            assert same_bits(got, model.coefficients.index(lam, 30.0) + model.mode_offsets[TELECOM])
        assert not np.array_equal(
            refractive_index(material, lam, 30.0, TELECOM),
            refractive_index(other, lam, 30.0, TELECOM),
        )
        keys = list(material_module._INDEX_CACHE)
        assert [key[0] for key in keys] == [material.coefficients, shifted]

    def test_bounded_by_its_constants(self, material):
        entries = material_module._INDEX_CACHE_ENTRIES
        points = material_module._INDEX_CACHE_MAX_POINTS
        temperatures = np.linspace(20.0, 200.0, entries + 10)
        for t in temperatures:
            refractive_index(material, np.array([1550.0, 775.0]), float(t), TELECOM)
        count = len(material_module._INDEX_CACHE)
        assert 0 < count <= entries
        last = (material.coefficients, (np.array([1550.0, 775.0]).tobytes(), (2,)),
                float(temperatures[-1]))
        assert last in material_module._INDEX_CACHE
        long = np.linspace(400.0, 2000.0, points + 1)
        got = refractive_index(material, long, 30.0, TELECOM)
        assert same_bits(got, uncached_index(material, long, 30.0, TELECOM))
        assert len(material_module._INDEX_CACHE) == count
        assert max(np.size(n) for n in material_module._INDEX_CACHE.values()) <= points


class TestSteadyState:
    def test_zero_power_gives_zero(self, params30):
        assert delta_n_steady(params30, 0.0) == 0.0

    def test_ten_milliwatt_anchor(self, params30):
        dn = delta_n_steady(params30, 10.0)
        assert dn < 0
        assert 0.8e-4 <= abs(dn) <= 1.2e-4

    def test_saturation_limit(self, params30):
        dn = delta_n_steady(params30, 1e12)
        assert abs(dn) == pytest.approx(params30.a / params30.c, rel=1e-9)

    @given(p1=st.floats(0.0, 1e3), p2=st.floats(0.0, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_monotone_non_increasing(self, params30, p1, p2):
        lo, hi = sorted((p1, p2))
        assert delta_n_steady(params30, lo) >= delta_n_steady(params30, hi)

    def test_linear_regime_against_exact_formula(self, params30):
        # Exact deviation from the initial slope is c*P/(b + c*P): below 2 %
        # for P <= 0.02*b/c and below 5 % out to P = 0.05*b/c.
        b_over_c = params30.b / params30.c
        slope = params30.a / params30.b
        for bound, tol in ((0.02 * b_over_c, 0.02), (0.05 * b_over_c, 0.05)):
            p = np.linspace(1e-6, bound, 50)
            exact = delta_n_steady(params30, p)
            linear = -slope * p
            assert np.all(np.abs(exact - linear) <= tol * np.abs(exact) * (1 + 1e-9))

    def test_negative_power_rejected(self, params30):
        with pytest.raises(ValueError):
            delta_n_steady(params30, -1.0)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            PhotorefractionParams(a=-1e-4, b=10.0, c=0.02)
        with pytest.raises(ValueError, match="b and c cannot both be zero"):
            PhotorefractionParams(a=1e-4, b=0.0, c=0.0)
        with pytest.raises(ValueError, match="tau_erase"):
            PhotorefractionParams(a=1e-4, b=10.0, c=0.02, tau_erase_s=1e5)
        with pytest.raises(ValueError):
            PhotorefractionParams(a=1e-4, b=10.0, c=0.02, tau_build_s=0.0)


def fig2_like_schedule() -> PumpSchedule:
    return PumpSchedule(
        [
            PumpSegment(0.0, 140.0, 5.0),
            PumpSegment(140.0, 165.0, 0.0),
            PumpSegment(165.0, 300.0, 0.0, erasing_light=True),
        ]
    )


def masked_loop_reference(params, schedule, t: np.ndarray) -> np.ndarray:
    """dn(t) with one masked evaluation per interval, dark gaps and the dark
    time after the last segment included."""
    intervals, cursor = [], 0.0
    for seg in schedule.segments:
        if seg.start_s > cursor:
            intervals.append((cursor, 0.0, params.tau_dark_s))
        if seg.erasing_light:
            intervals.append((seg.start_s, 0.0, params.tau_erase_s))
        elif seg.pump_power_mw > 0:
            steady = delta_n_steady(params, seg.pump_power_mw)
            intervals.append((seg.start_s, steady, params.tau_build_s))
        else:
            intervals.append((seg.start_s, 0.0, params.tau_dark_s))
        cursor = seg.end_s
    intervals.append((cursor, 0.0, params.tau_dark_s))
    ends = [iv[0] for iv in intervals[1:]] + [math.inf]
    out, state = np.empty_like(t), 0.0
    for (t0, target, tau), t1 in zip(intervals, ends):
        sel = (t >= t0) & (t < t1)
        out[sel] = target + (state - target) * np.exp(-(t[sel] - t0) / tau)
        if t1 < math.inf:
            state = target + (state - target) * math.exp(-(t1 - t0) / tau)
    return out


class TestTemporal:
    def test_initial_condition(self, params30):
        assert delta_n_temporal(params30, fig2_like_schedule(), 0.0) == 0.0

    def test_relaxes_to_steady_state(self, params30):
        schedule = PumpSchedule([PumpSegment(0.0, 1e4, 5.0)])
        target = delta_n_steady(params30, 5.0)
        at_5tau = delta_n_temporal(params30, schedule, 5.0 * params30.tau_build_s)
        assert abs(at_5tau - target) <= 0.01 * abs(target)
        at_50tau = delta_n_temporal(params30, schedule, 50.0 * params30.tau_build_s)
        assert abs(at_50tau - target) < 1e-10

    def test_erasure_returns_to_zero(self, params30):
        schedule = PumpSchedule(
            [PumpSegment(0.0, 50.0, 5.0), PumpSegment(50.0, 1e4, 0.0, True)]
        )
        assert abs(
            delta_n_temporal(params30, schedule, 50.0 + 50.0 * params30.tau_erase_s)
        ) < 1e-10

    def test_fig2_phases_match_closed_form(self, params30):
        """Hand-chained exponentials reproduce the piecewise solution."""
        schedule = fig2_like_schedule()
        ss = delta_n_steady(params30, 5.0)
        state140 = ss * (1.0 - math.exp(-140.0 / params30.tau_build_s))
        state164 = state140 * math.exp(-24.0 / params30.tau_dark_s)
        state165 = state140 * math.exp(-25.0 / params30.tau_dark_s)
        state180 = state165 * math.exp(-15.0 / params30.tau_erase_s)
        assert delta_n_temporal(params30, schedule, 140.0) == pytest.approx(
            state140, rel=1e-12
        )
        assert delta_n_temporal(params30, schedule, 164.0) == pytest.approx(
            state164, rel=1e-12
        )
        assert delta_n_temporal(params30, schedule, 180.0) == pytest.approx(
            state180, rel=1e-12
        )
        # Dark retention and erase decay, as observed in the on/off/erase cycle.
        assert abs(state164) >= 0.9 * abs(state140)
        at_erased = delta_n_temporal(
            params30, schedule, 165.0 + 5.0 * params30.tau_erase_s
        )
        assert abs(at_erased) < 0.1 * abs(state140)

    def test_continuous_across_boundaries(self, params30):
        schedule = fig2_like_schedule()
        eps = 1e-9
        for boundary in (140.0, 165.0):
            left = delta_n_temporal(params30, schedule, boundary - eps)
            right = delta_n_temporal(params30, schedule, boundary + eps)
            assert left == pytest.approx(right, abs=1e-12)

    def test_dark_after_last_segment(self, params30):
        """Past the last end_s the pump is off: dn decays from its value there
        with the dark time constant."""
        schedule = PumpSchedule([PumpSegment(10.0, 60.0, 5.0)])
        end = delta_n_temporal(params30, schedule, 60.0)
        for t in (61.0, 600.0, 6e3, 6e4):
            expected = end * math.exp(-(t - 60.0) / params30.tau_dark_s)
            got = delta_n_temporal(params30, schedule, t)
            assert abs(got - expected) <= 1e-15 * abs(expected)

    def test_vectorized_matches_scalar(self, params30):
        schedule = fig2_like_schedule()
        times = np.array([0.0, 3.0, 139.0, 150.0, 170.0, 400.0])
        vec = delta_n_temporal(params30, schedule, times)
        scalars = [delta_n_temporal(params30, schedule, float(t)) for t in times]
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "schedule",
        [
            fig2_like_schedule(),
            PumpSchedule([PumpSegment(20.0, 60.0, 3.0), PumpSegment(90.0, 120.0, 8.0),
                          PumpSegment(200.0, 260.0, 0.0, erasing_light=True)]),
        ],
        ids=["fig2", "dark-gaps"],
    )
    def test_matches_masked_loop_bit_for_bit(self, params30, schedule):
        times = np.linspace(0.0, 400.0, 4001)
        np.testing.assert_array_equal(
            delta_n_temporal(params30, schedule, times),
            masked_loop_reference(params30, schedule, times),
        )

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="start < end"):
            PumpSegment(5.0, 5.0, 1.0)
        with pytest.raises(ValueError, match="overlap"):
            PumpSchedule([PumpSegment(0.0, 10.0, 1.0), PumpSegment(5.0, 20.0, 1.0)])
