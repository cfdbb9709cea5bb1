import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoref.cavity import (
    detuned_threshold,
    opo_extremal_spectra,
    opo_optimal_levels,
    pump_parameter_for_squeezing_db,
)
from photoref.config import _RANGES


# Oracles for the closed-form extremes, also criterion 6's in
# test_acceptance.py: the full spectral matrix and one quadrature's noise.
def opo_spectrum_matrix(pump_parameter: float, normalized_detuning: float, omega):
    """Output quadrature spectral matrix of the detuned degenerate OPO.

    Linearized intracavity equations in units of the cavity amplitude decay
    rate (kappa = 1), pump parameter sigma below the detuned threshold,
    detuning Delta, analysis frequency omega.  With quadrature vector
    (X, Y), X squeezed at zero detuning, the input-output relations give a
    real symmetric spectral matrix; returns ``(S_xx, S_yy, S_xy)``,
    vacuum = 1.
    """
    sigma, delta = float(pump_parameter), float(normalized_detuning)
    w = np.asarray(omega, dtype=float)
    det2 = (1.0 - w**2 - sigma**2 + delta**2) ** 2 + 4.0 * w**2
    n1 = (1.0 - sigma) ** 2 + w**2 - delta**2
    n2 = (1.0 + sigma) ** 2 + w**2 - delta**2
    s_xx = (n1**2 + 4.0 * delta**2) / det2
    s_yy = (n2**2 + 4.0 * delta**2) / det2
    s_xy = 8.0 * sigma * delta / det2
    return s_xx, s_yy, s_xy


def opo_quadrature_spectrum(
    pump_parameter: float,
    normalized_detuning: float,
    omega,
    quadrature_angle,
    detection_efficiency: float = 1.0,
):
    """Vacuum-normalized noise of one output quadrature of the detuned OPO.

    At zero detuning and zero quadrature angle this reduces to
    S = 1 - 4*sigma/((1 + sigma)^2 + omega^2).  Detection efficiency mixes
    the spectrum with vacuum: eta*S + (1 - eta).
    """
    eta = float(detection_efficiency)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("detection efficiency must lie in [0, 1]")
    s_xx, s_yy, s_xy = opo_spectrum_matrix(
        pump_parameter, normalized_detuning, omega
    )
    c = np.cos(quadrature_angle)
    s = np.sin(quadrature_angle)
    spec = c**2 * s_xx + s**2 * s_yy + 2.0 * c * s * s_xy
    out = eta * spec + (1.0 - eta)
    if np.isscalar(omega) and np.isscalar(quadrature_angle):
        return float(out)
    return out


def matrix_route(sigma, delta, omega):
    """Independent evaluation through explicit input-output matrix algebra."""
    drift = np.array([[-(1 + sigma), delta], [-delta, -(1 - sigma)]])
    m = -1j * omega * np.eye(2) - drift
    transfer = 2 * np.linalg.inv(m) - np.eye(2)
    spectral = transfer @ transfer.conj().T
    return np.real(spectral)


class TestSpectrumMatrix:
    @given(
        sigma=st.floats(0.0, 0.95),
        delta=st.floats(-3.0, 3.0),
        omega=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_matrix_algebra(self, sigma, delta, omega):
        s_xx, s_yy, s_xy = opo_spectrum_matrix(sigma, delta, omega)
        ref = matrix_route(sigma, delta, omega)
        assert s_xx == pytest.approx(ref[0, 0], abs=1e-12, rel=1e-9)
        assert s_yy == pytest.approx(ref[1, 1], abs=1e-12, rel=1e-9)
        assert s_xy == pytest.approx(ref[0, 1], abs=1e-12, rel=1e-9)

    @given(sigma=st.floats(0.0, 0.99), omega=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_zero_detuning_reduction(self, sigma, omega):
        got = opo_quadrature_spectrum(sigma, 0.0, omega, 0.0)
        expected = 1.0 - 4.0 * sigma / ((1.0 + sigma) ** 2 + omega**2)
        assert got == pytest.approx(expected, abs=1e-12)

    @given(delta=st.floats(-3.0, 3.0), omega=st.floats(0.0, 10.0),
           theta=st.floats(0.0, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_vacuum_without_pump(self, delta, omega, theta):
        assert opo_quadrature_spectrum(0.0, delta, omega, theta) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_threshold_enforced(self):
        with pytest.raises(ValueError, match="threshold"):
            opo_extremal_spectra(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="threshold"):
            opo_extremal_spectra(detuned_threshold(1.5) + 1e-9, 1.5, 0.0)
        # Just below the detuned threshold is allowed.
        opo_extremal_spectra(detuned_threshold(1.5) - 1e-6, 1.5, 0.0)

    def test_high_frequency_returns_to_vacuum(self):
        for sigma, delta in ((0.28, 0.0), (0.52, 1.5), (0.9, 2.0)):
            s = opo_quadrature_spectrum(sigma, delta, 1e3, 0.3)
            assert abs(s - 1.0) < 1e-3

    def test_efficiency_mixes_with_vacuum(self):
        full = opo_quadrature_spectrum(0.28, 0.5, 0.7, 0.2, 1.0)
        half = opo_quadrature_spectrum(0.28, 0.5, 0.7, 0.2, 0.5)
        assert half == pytest.approx(0.5 * full + 0.5, abs=1e-12)
        with pytest.raises(ValueError):
            opo_quadrature_spectrum(0.28, 0.5, 0.7, 0.2, 1.5)


class TestUncertaintyProduct:
    def test_product_bounded_below(self):
        omegas = np.linspace(0.0, 6.0, 121)
        for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
            for delta in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                s_xx, s_yy, s_xy = opo_spectrum_matrix(sigma, delta, omegas)
                mean = 0.5 * (s_xx + s_yy)
                radius = np.sqrt(0.25 * (s_xx - s_yy) ** 2 + s_xy**2)
                product = (mean - radius) * (mean + radius)
                assert np.all(product >= 1.0 - 1e-9)


class TestOptimalLevels:
    def test_zero_detuning_analytic_minimum(self):
        sigma = 0.4
        best, worst = opo_optimal_levels(sigma, 0.0)
        expected = 10 * math.log10(1 - 4 * sigma / (1 + sigma) ** 2)
        assert best == pytest.approx(expected, abs=1e-6)
        assert worst == pytest.approx(
            10 * math.log10(1 + 4 * sigma / (1 - sigma) ** 2), abs=1e-6
        )

    def test_calibration_inverts_five_db(self):
        sigma = pump_parameter_for_squeezing_db(-5.0)
        assert sigma == pytest.approx(0.280130, abs=1e-5)
        floor = opo_quadrature_spectrum(sigma, 0.0, 0.0, 0.0)
        assert floor == pytest.approx(10 ** (-0.5), abs=1e-9)

    def test_calibration_is_the_closed_form(self):
        """sigma = (1 - g)/(1 + g) with g = 10^(dB/20), without cancellation at
        deep levels; the lowest configurable level stays below threshold."""
        with decimal.localcontext() as context:
            context.prec = 40
            g = decimal.Decimal(10) ** (decimal.Decimal(-150) / 20)
            exact = float((1 - g) / (1 + g))
        assert pump_parameter_for_squeezing_db(-150.0) == pytest.approx(exact, rel=1e-15)
        assert pump_parameter_for_squeezing_db(_RANGES["initial_squeezing_db"][0]) < 1.0

    def test_antisqueezing_dominates(self):
        for sigma in (0.1, 0.28, 0.52):
            for delta in (0.0, 0.8, 1.5, 2.5):
                best, worst = opo_optimal_levels(sigma, delta)
                assert worst >= -best - 1e-9

    def test_monotone_degradation_in_detuning(self):
        sigma = pump_parameter_for_squeezing_db(-5.0)
        deltas = np.linspace(0.0, 3.0, 13)
        levels = [opo_optimal_levels(sigma, d)[0] for d in deltas]
        assert np.all(np.diff(levels) >= -1e-9)

    def test_minimum_moves_off_zero_frequency_when_detuned(self):
        # The lift-off is at detuning ~1.05 for this pump strength; at 1.0
        # exactly the minimum still sits at zero frequency.
        sigma = pump_parameter_for_squeezing_db(-5.0)
        omegas = np.linspace(0.0, 8.0, 4001)
        for delta in (1.25, 1.5, 2.0, 3.0):
            s_xx, s_yy, s_xy = opo_spectrum_matrix(sigma, delta, omegas)
            mean = 0.5 * (s_xx + s_yy)
            radius = np.sqrt(0.25 * (s_xx - s_yy) ** 2 + s_xy**2)
            assert omegas[np.argmin(mean - radius)] > 0.0

    def test_efficiency_shrinks_both_levels(self):
        best_full, worst_full = opo_optimal_levels(0.4, 0.7, 1.0)
        best_half, worst_half = opo_optimal_levels(0.4, 0.7, 0.5)
        assert best_half > best_full
        assert worst_half < worst_full

    @pytest.mark.parametrize(
        "sigma, delta", [(0.28, 0.0), (0.28, 1.5), (0.52, 1.5), (0.7, 2.5)]
    )
    def test_matches_brute_force_grid(self, sigma, delta):
        """The analytic angle optimum agrees with a dense (omega, theta) scan."""
        omegas = np.linspace(0.0, 20.0, 401)
        thetas = np.linspace(0.0, math.pi, 360, endpoint=False)
        grid = opo_quadrature_spectrum(
            sigma, delta, omegas[:, None], thetas[None, :]
        )
        brute_min = 10 * math.log10(float(grid.min()))
        brute_max = 10 * math.log10(float(grid.max()))
        best, worst = opo_optimal_levels(sigma, delta)
        assert best <= brute_min + 1e-9  # exact angle beats any finite grid
        assert worst >= brute_max - 1e-9
        assert best == pytest.approx(brute_min, abs=0.02)
        assert worst == pytest.approx(brute_max, abs=0.02)


class TestClosedFormOptimum:
    def test_extremes_match_eigenvalues_of_spectral_matrix(self):
        omegas = np.linspace(0.0, 20.0, 401)
        for delta in (-2.0, 0.0, 0.5, 1.5, 3.0):
            for fraction in (0.0, 0.3, 0.6, 0.9):
                sigma = fraction * detuned_threshold(delta)
                s_xx, s_yy, s_xy = opo_spectrum_matrix(sigma, delta, omegas)
                mean = 0.5 * (s_xx + s_yy)
                radius = np.sqrt(0.25 * (s_xx - s_yy) ** 2 + s_xy**2)
                squeezed, antisqueezed = opo_extremal_spectra(sigma, delta, omegas)
                np.testing.assert_allclose(squeezed, mean - radius, rtol=1e-9)
                np.testing.assert_allclose(antisqueezed, mean + radius, rtol=1e-9)

    def test_extremes_refuse_what_the_matrix_refuses(self):
        with pytest.raises(ValueError, match=">= 0"):
            opo_extremal_spectra(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="threshold"):
            opo_extremal_spectra(detuned_threshold(1.5), 1.5, 0.0)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.5, 3.0])
    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99, 0.999])
    def test_lossless_output_is_pure_up_to_threshold(self, delta, fraction):
        sigma = fraction * detuned_threshold(delta)
        best, worst = opo_optimal_levels(sigma, delta)
        assert best == pytest.approx(-worst, abs=1e-9)
        if delta == 0.0:
            # Zero-frequency floor of the resonant OPO: ((1 - sigma)/(1 + sigma))^2.
            assert best == pytest.approx(
                20 * math.log10((1 - sigma) / (1 + sigma)), abs=1e-9
            )

    @pytest.mark.parametrize(
        "sigma, delta", [(0.28, 1.5), (0.52, 2.0), (0.9, 3.0), (0.28, 12.0)]
    )
    def test_dense_scan_finds_the_closed_form_frequency(self, sigma, delta):
        step = 1e-3
        omegas = np.arange(0.0, 20.0 + step / 2, step)
        squeezed, antisqueezed = opo_extremal_spectra(sigma, delta, omegas)
        peak = math.sqrt(delta**2 - 1 - sigma**2)
        assert abs(omegas[np.argmin(squeezed)] - peak) <= step
        assert abs(omegas[np.argmax(antisqueezed)] - peak) <= step

    def test_band_edge_beyond_omega_max(self):
        sigma, delta = 0.28, 25.0
        assert math.sqrt(delta**2 - 1 - sigma**2) > 20.0
        omegas = np.linspace(0.0, 20.0, 4001)
        squeezed, antisqueezed = opo_extremal_spectra(sigma, delta, omegas)
        assert np.argmin(squeezed) == len(omegas) - 1
        assert np.argmax(antisqueezed) == len(omegas) - 1
        best, worst = opo_optimal_levels(sigma, delta)
        assert best == pytest.approx(10 * math.log10(squeezed[-1]), abs=1e-12)
        assert worst == pytest.approx(10 * math.log10(antisqueezed[-1]), abs=1e-12)

    def test_rejects_negative_or_nan_band(self):
        for omega_max in (-1.0, math.nan):
            with pytest.raises(ValueError, match="omega_max"):
                opo_optimal_levels(0.28, 1.5, omega_max=omega_max)


class TestStochasticOracle:
    def test_sde_reproduces_squeezed_floor(self):
        """Euler-Maruyama integration of the linearized equations.

        The output X quadrature is accumulated over a window and the
        zero-frequency spectral density estimated from the variance of the
        windowed integral across independent lanes.
        """
        sigma = pump_parameter_for_squeezing_db(-5.0)
        expected = 10 ** (-0.5)
        rng = np.random.default_rng(7)
        lanes = 4000
        dt = 5e-3
        burn, horizon = 20.0, 120.0
        drift = np.array([[-(1 + sigma), 0.0], [0.0, -(1 - sigma)]])
        u = np.zeros((2, lanes))
        sqrt2dt = math.sqrt(2.0 * dt)

        def step(u):
            noise = rng.standard_normal((2, lanes))
            return u + dt * (drift @ u) + sqrt2dt * noise, noise

        for _ in range(int(burn / dt)):
            u, _ = step(u)
        integral_x = np.zeros(lanes)
        wiener_x = np.zeros(lanes)
        n_steps = int(horizon / dt)
        for _ in range(n_steps):
            u, noise = step(u)
            integral_x += u[0] * dt
            wiener_x += noise[0] * math.sqrt(dt)
        # Output quadrature: X_out = sqrt(2) X - X_in.
        windowed = math.sqrt(2.0) * integral_x - wiener_x
        estimate = float(np.var(windowed)) / horizon
        assert estimate == pytest.approx(expected, rel=0.12)
