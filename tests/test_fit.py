import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photoref.fit as fit_module
from photoref.cavity import FpiCavity, finesse, simulate_fpi_trace
from photoref.coupler import CouplerGeometry, coupler_reflectivity, reflectivity_vs_pump
from photoref.data import SweepData, Trace
from photoref.fit import (
    FitError,
    FitProblem,
    _count_prominent_extrema,
    estimate_delta_n_from_oscillations,
    first_monotone_branch,
    fit_delta_n_from_reflectivity,
    fit_fpi_trace,
    invert_reflectivity,
    least_squares,
)
from photoref.material import (
    DEFAULT_MODE_TARGETS,
    MaterialModel,
    PhotorefractionParams,
    PumpSchedule,
    PumpSegment,
    delta_n_steady,
)

LAM = 1550.0


def linear_problem(x, y, guess=(0.0, 0.0), **options):
    """Straight-line fit p[0] + p[1]*x to y; ``options`` go to FitProblem."""
    return FitProblem(
        residual=lambda p: p[0] + p[1] * x - y,
        jacobian=lambda p: np.column_stack((np.ones_like(x), x)),
        initial_guess=np.asarray(guess, float),
        **options,
    )


def valley_problem():
    """Residuals (1 - p0, 10*(p1 - p0^2)): Rosenbrock's curved valley."""
    return FitProblem(
        residual=lambda p: np.array([1.0 - p[0], 10.0 * (p[1] - p[0] ** 2)]),
        jacobian=lambda p: np.array([[-1.0, 0.0], [-20.0 * p[0], 10.0]]),
        initial_guess=np.array([-1.2, 1.0]),
    )


def exponential_jacobian(x):
    """Jacobian of p[0]*exp(p[1]*x) - y."""
    def jacobian(p):
        e = np.exp(p[1] * x)
        return np.column_stack((e, p[0] * x * e))

    return jacobian


# Forward differences, the oracle for the pipelines' analytic Jacobians.
FD_RELATIVE_STEP = 1e-6
FD_ABSOLUTE_FLOOR = 1e-12


def fd_jacobian(problem, params):
    """Forward-difference Jacobian of the weighted residual.

    Each step is relative to the parameter, with an absolute floor, and
    steps back off the upper bound when needed.
    """
    r0 = fit_module._weighted_residual(problem, params)
    jac = np.empty((len(r0), len(params)))
    for j in range(len(params)):
        h = max(FD_RELATIVE_STEP * abs(params[j]), FD_ABSOLUTE_FLOOR)
        if params[j] + h > problem.upper_bounds[j]:
            h = -h
        stepped = params.copy()
        stepped[j] += h
        jac[:, j] = (fit_module._weighted_residual(problem, stepped) - r0) / h
    return jac


class TestLeastSquares:
    def test_exact_linear_data(self):
        x = np.linspace(0.0, 5.0, 20)
        y = 2.0 + 3.0 * x
        result = least_squares(linear_problem(x, y))
        assert result.converged
        assert result.termination == "grad_tol"
        assert result.iterations <= 3
        np.testing.assert_allclose(result.parameters, [2.0, 3.0], rtol=1e-8)
        assert result.residual_norm < 1e-9

    def test_stationary_start(self):
        x = np.linspace(0.0, 5.0, 20)
        y = 2.0 + 3.0 * x
        result = least_squares(linear_problem(x, y, guess=(2.0, 3.0)))
        assert result.converged
        assert result.iterations <= 2
        np.testing.assert_array_equal(result.parameters, [2.0, 3.0])

    def test_monotone_acceptance_on_curved_valley(self):
        result = least_squares(valley_problem(), max_iter=500)
        history = np.asarray(result.residual_history)
        assert np.all(np.diff(history) <= 1e-14)
        np.testing.assert_allclose(result.parameters, [1.0, 1.0], atol=1e-6)
        assert result.termination == "grad_tol"

    def test_iteration_limit_flagged(self):
        result = least_squares(valley_problem(), max_iter=2)
        assert not result.converged
        assert result.termination == "max_iter"
        assert result.iterations == 2
        assert any("iteration limit" in w for w in result.warnings)

    def test_no_decrease_left_hits_the_damping_limit(self):
        """Every trial point costs more than the start, however short the step."""
        x0 = np.array([1.0])
        problem = FitProblem(
            residual=lambda p: np.array([1.0 if p[0] == x0[0] else 2.0]),
            jacobian=lambda p: np.array([[1.0]]),
            initial_guess=x0,
        )
        result = least_squares(problem)
        assert not result.converged
        assert result.termination == "damping_limit"
        assert result.iterations == 0
        np.testing.assert_array_equal(result.parameters, x0)
        assert any("damping limit" in w for w in result.warnings)

    def test_noisy_data_stops_at_the_rounding_floor(self, rng):
        x = np.linspace(0.0, 2.0, 40)
        y = 1.5 * np.exp(-1.3 * x) + 0.01 * rng.standard_normal(40)
        result = least_squares(FitProblem(
            residual=lambda p: p[0] * np.exp(p[1] * x) - y,
            jacobian=exponential_jacobian(x),
            initial_guess=np.array([1.0, -1.0]),
        ))
        assert result.converged
        assert result.termination == "gain_floor"
        assert result.residual_norm > 0.01

    def test_large_parameters_stop_on_the_relative_step(self):
        """A step of a few units is below 1e-10 of a 1e12 intercept.

        The first, slightly damped step already counts as converged.
        """
        x = np.linspace(0.0, 5.0, 20)
        result = least_squares(linear_problem(x, 1e12 + 3.0 * x, guess=(1e12, 0.0)))
        assert result.converged
        assert result.termination == "step_tol"
        assert result.iterations == 1
        assert result.parameters[1] == pytest.approx(3.0, rel=1e-2)

    def test_bounds_respected(self):
        x = np.linspace(0.0, 5.0, 20)
        y = 2.0 + 3.0 * x
        problem = linear_problem(
            x, y, guess=(0.0, 1.0),
            lower_bounds=np.array([0.0, 0.0]),
            upper_bounds=np.array([1.5, 10.0]),
        )
        result = least_squares(problem)
        assert result.parameters[0] <= 1.5 + 1e-12

    def test_parameter_on_bound_held_and_named(self):
        x = np.linspace(0.0, 5.0, 20)
        y = 2.0 + 3.0 * x
        problem = linear_problem(
            x, y, guess=(0.0, 1.0),
            lower_bounds=np.array([0.0, 0.0]),
            upper_bounds=np.array([1.5, 10.0]),
        )
        result = least_squares(problem)
        assert result.converged
        assert result.parameters[0] == 1.5
        # The slope reaches its optimum with the intercept held at the bound,
        # rather than stalling behind clipped steps.
        slope = np.sum(x * (y - 1.5)) / np.sum(x * x)
        assert result.parameters[1] == pytest.approx(slope, rel=1e-10)
        flagged = [w for w in result.warnings if "bound" in w]
        assert flagged == [
            "parameter 0 ends on its upper bound (1.5); its covariance is not valid there"
        ]

    def test_interior_solution_not_flagged(self):
        x = np.linspace(0.0, 5.0, 20)
        problem = linear_problem(
            x, 2.0 + 3.0 * x, guess=(0.0, 1.0),
            lower_bounds=np.array([-10.0, -10.0]),
            upper_bounds=np.array([10.0, 10.0]),
        )
        assert least_squares(problem).warnings == []

    def test_evaluation_counts_reported(self):
        x = np.linspace(0.0, 2.0, 40)
        y = 1.5 * np.exp(-1.3 * x)
        calls = Counter()
        exponential = exponential_jacobian(x)

        def residual(p):
            calls["residual"] += 1
            return p[0] * np.exp(p[1] * x) - y

        def jacobian(p):
            calls["jacobian"] += 1
            return exponential(p)

        result = least_squares(FitProblem(
            residual=residual, jacobian=jacobian, initial_guess=np.array([1.0, -1.0])
        ))
        np.testing.assert_allclose(result.parameters, [1.5, -1.3], rtol=1e-8)
        # No trial is rejected on this problem: one residual per LM point.
        assert calls["residual"] == result.iterations + 1
        assert result.residual_evaluations == calls["residual"]
        assert result.jacobian_evaluations == result.iterations + 1
        assert calls["jacobian"] == result.jacobian_evaluations
        payload = result.to_json_dict()
        assert payload["termination"] == result.termination
        assert payload["residual_evaluations"] == calls["residual"]
        assert payload["jacobian_evaluations"] == result.jacobian_evaluations

    def test_guess_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside bounds"):
            FitProblem(
                residual=lambda p: p,
                jacobian=lambda p: np.eye(1),
                initial_guess=np.array([2.0]),
                lower_bounds=np.array([0.0]),
                upper_bounds=np.array([1.0]),
            )

    def test_underdetermined_rejected(self):
        problem = FitProblem(
            residual=lambda p: np.array([p[0] + p[1]]),
            jacobian=lambda p: np.array([[1.0, 1.0]]),
            initial_guess=np.array([0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="at least as many data points"):
            least_squares(problem)

    def test_nonfinite_model_raises_fit_error(self):
        x0 = np.array([1.0])

        def residual(p):
            if p[0] != x0[0]:
                return np.array([math.nan, math.nan])
            return np.array([1.0, 2.0])

        def jacobian(p):
            # Finite only at x0, the model has no derivative there either.
            return np.full((2, 1), math.nan)

        with pytest.raises(FitError, match="maximal damping"):
            least_squares(FitProblem(residual=residual, jacobian=jacobian, initial_guess=x0))

    def test_deterministic(self):
        x = np.linspace(0.0, 2.0, 40)
        y = np.exp(-1.3 * x) + 0.05 * np.sin(40 * x)

        def make():
            problem = FitProblem(
                residual=lambda p: p[0] * np.exp(p[1] * x) - y,
                jacobian=exponential_jacobian(x),
                initial_guess=np.array([0.5, -1.0]),
            )
            return least_squares(problem)

        a, b = make(), make()
        np.testing.assert_array_equal(a.parameters, b.parameters)
        assert a.residual_history == b.residual_history
        assert a.iterations == b.iterations

    def test_weights_change_solution(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 2.0, 9.0])
        plain = least_squares(linear_problem(x, y))
        weighted = least_squares(
            linear_problem(x, y, weights=np.array([1e-3, 1e-3, 1e-3, 1e3]))
        )
        assert abs(weighted.parameters[1] - 1.0) < abs(plain.parameters[1] - 1.0)

    def test_covariance_shrinks_with_sample_size(self, rng):
        x_all = rng.uniform(0.0, 10.0, 400)
        noise = rng.standard_normal(400)
        y_all = 1.0 + 0.5 * x_all + 0.1 * noise

        def sigma_for(n):
            x, y = x_all[:n], y_all[:n]
            result = least_squares(linear_problem(x, y))
            return result.uncertainties

        small, large = sigma_for(100), sigma_for(400)
        ratio = small / large
        assert np.all(ratio > 2.0 * 0.7)
        assert np.all(ratio < 2.0 * 1.3)


class TestReflectivityInversion:
    def test_branch_location(self, coupler30):
        branch = first_monotone_branch(coupler30)
        assert branch.increasing
        assert branch.delta_beta_max == pytest.approx(1.135, abs=1e-2)

    def test_round_trip_exact(self, coupler30):
        branch = first_monotone_branch(coupler30)
        for db_true in np.linspace(0.0, branch.delta_beta_max, 25):
            r = float(coupler_reflectivity(coupler30, db_true))
            db_back = invert_reflectivity(coupler30, r, branch)
            assert float(coupler_reflectivity(coupler30, db_back)) == pytest.approx(
                r, abs=1e-10
            )

    def test_unreachable_value_rejected(self, coupler30):
        branch = first_monotone_branch(coupler30)
        # This branch spans [R(0), 1.0], so only values below R(0) are out.
        with pytest.raises(ValueError, match="unreachable"):
            invert_reflectivity(coupler30, branch.r_start - 0.05, branch)

    def test_rounding_behind_the_start_inverts_to_zero(self, coupler30):
        # Inside the 1e-12 tolerance but below R(0): zero mismatch, not the
        # far end of the branch.
        branch = first_monotone_branch(coupler30)
        assert invert_reflectivity(coupler30, branch.r_start - 1e-13, branch) == 0.0

    def test_array_inverted_in_one_pass(self, coupler30):
        branch = first_monotone_branch(coupler30)
        db_true = np.linspace(0.0, branch.delta_beta_max, 25)
        r = coupler_reflectivity(coupler30, db_true)
        db_back = invert_reflectivity(coupler30, r, branch)
        assert isinstance(db_back, np.ndarray)
        # The branch ends invert exactly; the points agree with scalar calls.
        assert db_back[0] == 0.0
        assert db_back[-1] == branch.delta_beta_max
        np.testing.assert_allclose(
            db_back, [invert_reflectivity(coupler30, float(v), branch) for v in r],
            rtol=1e-12,
        )
        assert isinstance(invert_reflectivity(coupler30, float(r[3]), branch), float)

    def test_array_rejects_first_bad_value(self, coupler30):
        branch = first_monotone_branch(coupler30)
        with pytest.raises(ValueError, match=r"reflectivity 1\.5 outside \[0, 1\]"):
            invert_reflectivity(coupler30, np.array([branch.r_start, 1.5, -1.0]), branch)

    def test_decreasing_branch_supported(self):
        # k*L in (pi, 3*pi/2) makes the reflectivity fall first.
        geometry = CouplerGeometry(0.7, 5.0)
        branch = first_monotone_branch(geometry)
        assert not branch.increasing
        for db_true in (0.1, 0.5, 1.0):
            r = float(coupler_reflectivity(geometry, db_true))
            db_back = invert_reflectivity(geometry, r, branch)
            assert db_back == pytest.approx(db_true, rel=1e-8)


TAN_ROOTS = (4.493409457909064, 7.725251836937707)  # tan x = x in (pi, 3pi/2), (2pi, 5pi/2)


class TestClosedFormBranch:
    """The branch end from the stationary points of R = 1 - (kL*sin(x)/x)^2."""

    @staticmethod
    def scanned(geometry, branch):
        """R on a dense grid over the branch and a quarter of its length beyond."""
        grid = np.linspace(0.0, 1.25 * branch.delta_beta_max, 20001)
        return grid, coupler_reflectivity(geometry, grid)

    def test_random_geometries_match_a_dense_scan(self):
        rng = np.random.default_rng(2007)
        falling = 0
        for k, length in zip(rng.uniform(0.05, 2.0, 200), rng.uniform(0.5, 20.0, 200)):
            geometry = CouplerGeometry(k, length)
            branch = first_monotone_branch(geometry)
            grid, r = self.scanned(geometry, branch)
            sign = 1.0 if branch.increasing else -1.0
            steps = np.diff(r)
            # The scan's first move sets the direction ...
            assert np.sign(steps[np.flatnonzero(steps)[0]]) == sign, (k, length)
            # ... R is monotone up to the end (to rounding) ...
            on_branch = grid <= branch.delta_beta_max
            assert np.all(sign * np.diff(r[on_branch]) >= -1e-15), (k, length)
            # ... and the end is the extremum of every scanned value.
            assert np.all(sign * (branch.r_end - r) >= -1e-15), (k, length)
            assert branch.r_start == coupler_reflectivity(geometry, 0.0)
            falling += not branch.increasing
        assert 0 < falling < 200  # both directions are exercised

    # m = 11: 11*pi/pi rounds to 10.999..., below the integer it should be.
    @pytest.mark.parametrize("m", [1, 2, 11])
    def test_full_transfer_start_falls_to_the_tan_root(self, m):
        # kL = m*pi: R(0) = 1 is itself a maximum, so the branch falls.
        x0 = m * math.pi
        branch = first_monotone_branch(CouplerGeometry(x0, 1.0))
        x_end = math.hypot(x0, branch.delta_beta_max / 2.0)
        assert not branch.increasing
        assert branch.r_start == 1.0
        assert m * math.pi < x_end < (m + 0.5) * math.pi
        assert math.tan(x_end) == pytest.approx(x_end, rel=1e-9)
        if m <= len(TAN_ROOTS):
            assert x_end == pytest.approx(TAN_ROOTS[m - 1], rel=1e-12)
        # At a root of tan x = x, sin(x)^2/x^2 = 1/(1 + x^2).
        assert branch.r_end == pytest.approx(1.0 - x0**2 / (1.0 + x_end**2), rel=1e-12)

    def test_before_the_first_tan_root_falls(self):
        geometry = CouplerGeometry(0.7, 5.0)  # kL = 3.5 in (pi, 4.4934)
        branch = first_monotone_branch(geometry)
        assert not branch.increasing
        assert branch.delta_beta_max == pytest.approx(
            0.4 * math.sqrt(TAN_ROOTS[0] ** 2 - 3.5**2), rel=1e-12
        )
        assert branch.r_end == pytest.approx(1.0 - 3.5**2 / (1.0 + TAN_ROOTS[0] ** 2), rel=1e-12)

    def test_after_the_first_tan_root_rises(self):
        geometry = CouplerGeometry(1.0, 5.0)  # kL = 5 in (4.4934, 2*pi)
        branch = first_monotone_branch(geometry)
        assert branch.increasing
        assert branch.delta_beta_max == pytest.approx(
            0.4 * math.sqrt(4.0 * math.pi**2 - 25.0), rel=1e-12
        )
        assert branch.r_end == pytest.approx(1.0, abs=1e-15)


def synthetic_sweep(params, geometry, powers, noise_fraction=0.0, rng=None):
    sweep = reflectivity_vs_pump(geometry, params, LAM, powers)
    values = sweep.value
    sigma = None
    if noise_fraction > 0:
        sigma = noise_fraction * np.abs(values)
        values = values * (1.0 + noise_fraction * rng.standard_normal(len(values)))
        values = np.clip(values, 0.0, 1.0)
    return SweepData(sweep.abscissa, values, sigma)


class TestDeltaNPipeline:
    truth = PhotorefractionParams(a=1.1e-4, b=10.0, c=0.02, temperature_c=30.0)
    powers = np.linspace(0.0, 10.0, 11)

    def test_noise_free_recovery(self, coupler30):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)[30.0]
        assert outcome.result.converged
        assert outcome.params.a == pytest.approx(self.truth.a, rel=1e-6)
        assert outcome.params.c == pytest.approx(self.truth.c, abs=1e-6)
        # Per-point inversion reproduces the generating shifts.
        expected = np.abs(delta_n_steady(self.truth, self.powers))
        np.testing.assert_allclose(outcome.delta_n_points.value, expected, rtol=1e-9)

    def test_noisy_anchor_at_ten_milliwatt(self, coupler30, rng):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers, 0.01, rng)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)[30.0]
        dn_10 = abs(delta_n_steady(outcome.params, 10.0))
        assert 0.8e-4 <= dn_10 <= 1.2e-4

    def test_fitted_curve_close_to_secant(self, coupler30):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)[30.0]
        p = np.linspace(0.5, 10.0, 50)
        curve = np.abs(delta_n_steady(outcome.params, p))
        secant = p * abs(delta_n_steady(outcome.params, 10.0)) / 10.0
        assert np.max(np.abs(curve - secant) / curve) < 0.05

    def test_out_of_branch_points_flagged(self):
        # Geometry whose first branch falls from 0.877 to 0.422: a smaller
        # reflectivity is only reachable past the extremum, i.e. ambiguous.
        geometry = CouplerGeometry(0.7, 5.0)
        truth = PhotorefractionParams(a=1.1e-4, b=10.0, c=0.02, temperature_c=30.0)
        sweep = synthetic_sweep(truth, geometry, self.powers)
        values = sweep.value.copy()
        values[-1] = 0.30  # beyond the branch minimum of ~0.42
        doctored = SweepData(sweep.abscissa, values)
        outcome = fit_delta_n_from_reflectivity({30.0: doctored}, geometry)[30.0]
        assert outcome.excluded_indices == [10]
        assert any("beyond the first monotone branch" in w for w in outcome.warnings)

    def test_noise_behind_branch_start_clamped(self, coupler30):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers)
        values = sweep.value.copy()
        values[0] -= 1e-3  # noise below the zero-pump reflectivity
        doctored = SweepData(sweep.abscissa, values)
        outcome = fit_delta_n_from_reflectivity({30.0: doctored}, coupler30)[30.0]
        assert outcome.excluded_indices == []
        assert outcome.delta_n_points.value[0] == 0.0
        assert any("clamped" in w for w in outcome.warnings)

    def test_reflectivity_above_one_rejected(self, coupler30):
        sweep = SweepData([0.0, 1.0, 2.0, 3.0], [0.2, 0.3, 1.3, 0.4])
        with pytest.raises(ValueError, match=r"point 2: reflectivity 1\.3 outside the reachable"):
            fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)

    def test_too_few_points_rejected(self, coupler30):
        sweep = SweepData([0.0, 1.0, 2.0], [0.16, 0.17, 0.18])
        with pytest.raises(ValueError, match="at least 4"):
            fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)

    def test_slope_recovery_under_noise(self, coupler30):
        """1 percent multiplicative noise, many seeds: slope within 5 percent."""
        truth_slope = self.truth.a / self.truth.b
        hits = covered = 0
        n_runs = 100
        for seed in range(n_runs):
            rng = np.random.default_rng(1000 + seed)
            sweep = synthetic_sweep(self.truth, coupler30, self.powers, 0.01, rng)
            outcome = fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)[30.0]
            slope = outcome.params.a / outcome.params.b
            if abs(slope - truth_slope) <= 0.05 * truth_slope:
                hits += 1
            # One-sigma coverage of a, as for the trace fit below.
            if abs(outcome.params.a - self.truth.a) <= outcome.result.uncertainties[0]:
                covered += 1
        assert hits >= 95
        assert 54 <= covered <= 82


def make_trace_cavity():
    return FpiCavity(15.0, 0.14, 0.13, MaterialModel.calibrated(DEFAULT_MODE_TARGETS))


def synthetic_trace(dn_total=-8e-5, tau=5.0, n=481, horizon=24.0, noise=0.0, rng=None):
    cavity = make_trace_cavity()
    params = PhotorefractionParams(
        a=-dn_total, b=1.0, c=0.0, tau_build_s=tau, temperature_c=30.0
    )
    schedule = PumpSchedule([PumpSegment(0.0, horizon, 1.0)])
    trace = simulate_fpi_trace(cavity, schedule, params, LAM, 30.0, horizon / (n - 1))
    values = trace.value
    if noise > 0:
        values = values * (1.0 + noise * rng.standard_normal(len(values)))
    return Trace(trace.time_s, values), cavity


class TestFpiTracePipeline:
    def test_oscillation_counting_bound(self):
        trace, cavity = synthetic_trace()
        half_periods = estimate_delta_n_from_oscillations(trace)
        quantum = LAM / (4 * cavity.length_mm * 1e6)
        assert half_periods >= 1
        assert abs(half_periods * quantum - 8e-5) <= quantum

    def test_noise_free_recovery(self):
        trace, cavity = synthetic_trace()
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert fit.result.converged
        assert fit.result.termination in ("grad_tol", "gain_floor", "step_tol")
        assert fit.delta_n_total == pytest.approx(-8e-5, rel=1e-4)
        assert fit.tau_build_s == pytest.approx(5.0, rel=1e-4)

    def test_noisy_recovery_over_many_draws(self, monkeypatch):
        descents = count_calls(monkeypatch, "least_squares")
        hits = covered = 0
        most_descents = 0
        n_runs = 100
        for seed in range(n_runs):
            rng = np.random.default_rng(4000 + seed)
            trace, cavity = synthetic_trace(noise=0.02, rng=rng)
            descents.clear()
            fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
            most_descents = max(most_descents, descents["least_squares"])
            error = abs(fit.delta_n_total - (-8e-5))
            if error <= 0.1 * 8e-5:
                hits += 1
            # Coverage of the reported one-sigma (Numerical Recipes 15.6):
            # 68.3 % of 100 draws, inside its +/- 3 sigma binomial band.
            if error <= fit.result.uncertainties[0]:
                covered += 1
        assert hits >= 95
        assert 54 <= covered <= 82
        assert most_descents <= fit_module._MAX_DESCENTS

    def test_no_oscillation_flagged(self):
        trace, cavity = synthetic_trace(dn_total=-5e-6)
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert not fit.result.converged
        assert any("no transmission oscillation" in w for w in fit.result.warnings)

    def test_masked_interval_ignored(self):
        trace, cavity = synthetic_trace()
        corrupted = trace.value.copy()
        window = (trace.time_s >= 5.0) & (trace.time_s <= 10.0)
        corrupted[window] = 0.2
        masked = Trace(trace.time_s, corrupted).with_masked_interval(5.0, 10.0)
        fit = fit_fpi_trace(masked, cavity, LAM, 30.0)
        assert fit.delta_n_total == pytest.approx(-8e-5, rel=1e-3)

    def test_basin_miss_flagged(self):
        """A mask over the fast build-up hides fringes from the counter.

        The scan then centres a few quanta short of the truth, no descent
        reaches the noise floor, and the fit must say so instead of reporting
        a converged fit with a small one-sigma.
        """
        quantum = LAM / (4 * 15.0e6)
        truth = -7.0 * quantum
        trace, cavity = synthetic_trace(
            dn_total=truth, tau=4.0, noise=0.01, rng=np.random.default_rng(7)
        )
        fit = fit_fpi_trace(trace.with_masked_interval(0.5, 6.0), cavity, LAM, 30.0)
        assert abs(fit.delta_n_total - truth) > 0.1 * abs(truth)  # a real miss
        assert not fit.result.converged
        (warning,) = [w for w in fit.result.warnings if "noise floor" in w]
        ratio = float(re.search(r"is (\S+) times the noise variance", warning)[1])
        assert ratio > 1.5

    @pytest.mark.parametrize("shift", [math.pi, -math.pi])
    def test_descents_pi_apart_report_one_phase(self, monkeypatch, shift):
        """The Airy model has period pi in phi0: the phase is reported in [0, pi)."""
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        reference = fit_fpi_trace(trace, cavity, LAM, 30.0)
        descend = fit_module.least_squares

        def shifted(problem):
            result = descend(problem)
            result.parameters[2] += shift
            return result

        monkeypatch.setattr(fit_module, "least_squares", shifted)
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert 0.0 <= reference.phase_offset_rad < math.pi
        assert fit.phase_offset_rad == pytest.approx(reference.phase_offset_rad, abs=1e-9)
        assert fit.result.parameters[2] == fit.phase_offset_rad
        assert fit.delta_n_total == reference.delta_n_total

    def test_angled_cavity_rejected(self, material, params30):
        cavity = FpiCavity(15.0, 0.14, 0.13, material, angled_facets=True)
        trace, _ = synthetic_trace()
        with pytest.raises(ValueError, match="resonant cavity"):
            fit_fpi_trace(trace, cavity, LAM, 30.0)


def scipy_extremum_count(values, prominence):
    signal = pytest.importorskip("scipy.signal")
    x = np.asarray(values, dtype=float)
    peaks, _ = signal.find_peaks(x, prominence=prominence)
    troughs, _ = signal.find_peaks(-x, prominence=prominence)
    return len(peaks) + len(troughs)


class TestProminentExtremaCounter:
    """The numpy counter against SciPy's find_peaks, a test-only oracle."""

    # The first example pays for importing scipy.signal.
    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            max_size=200,
            unique=True,
        ),
        st.floats(1e-3, 500.0),
    )
    def test_matches_find_peaks_on_distinct_values(self, values, prominence):
        assert _count_prominent_extrema(values, prominence) == scipy_extremum_count(
            values, prominence
        )

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 400),
        st.floats(1.0, 40.0),
        st.floats(0.0, 0.5),
        st.floats(0.05, 2.0),
    )
    def test_matches_find_peaks_on_noisy_cosines(
        self, seed, n, span, noise, prominence
    ):
        rng = np.random.default_rng(seed)
        values = np.cos(np.linspace(0.0, span, n)) + noise * rng.standard_normal(n)
        assert _count_prominent_extrema(values, prominence) == scipy_extremum_count(
            values, prominence
        )

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([0.0, 1.0, 1.0, 1.0, 0.0], 1),  # flat-topped peak counts once
            ([3.0, 2.0, 1.0, 2.0, 3.0], 1),  # monotone ends are not extrema
            ([0.0, 1.0, 0.8, 2.0, 0.0], 1),  # a shallow wiggle is not counted
            ([0.0, 1.0, 2.0, 3.0], 0),
            ([2.0, 2.0, 2.0], 0),
        ],
    )
    def test_pinned_cases_agree_with_find_peaks(self, values, expected):
        assert _count_prominent_extrema(values, 0.5) == expected
        assert scipy_extremum_count(values, 0.5) == expected

    def test_equal_height_tie_counts_once(self):
        """Documented difference: find_peaks counts both tied maxima."""
        values = [0.0, 1.0, 0.9, 1.0, 0.0]
        assert _count_prominent_extrema(values, 0.5) == 1
        assert scipy_extremum_count(values, 0.5) == 2

    def test_constant_trace_has_no_half_periods(self):
        trace = Trace(np.linspace(0.0, 24.0, 481), np.full(481, 0.8))
        assert estimate_delta_n_from_oscillations(trace) == 0


class TestAnalyticJacobians:
    """Each pipeline's analytic Jacobian against forward differences."""

    @staticmethod
    def assert_matches_differences(problem, points):
        for params in points:
            analytic = fit_module._jacobian(problem, params)
            numeric = fd_jacobian(problem, params)
            error = np.max(np.abs(analytic - numeric), axis=0)
            assert np.all(error <= 1e-5 * np.max(np.abs(numeric), axis=0)), params

    @pytest.mark.parametrize("masked", [False, True])
    def test_trace_jacobian(self, monkeypatch, masked):
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        if masked:
            trace = trace.with_masked_interval(5.0, 10.0)
        problems = capture_problems(monkeypatch)
        fit_fpi_trace(trace, cavity, LAM, 30.0)
        # Where the fits search: |dn| up to about four lambda/(4L) quanta,
        # tau from span/100 to 10 spans, phi0 over one period.  A forward
        # difference's own error grows with the phase step it takes, and is
        # about 1e-5 of the column at this edge.
        rng = np.random.default_rng(11)
        points = np.column_stack((
            rng.uniform(-1e-4, -1e-6, 20),
            np.exp(rng.uniform(math.log(0.24), math.log(240.0), 20)),
            rng.uniform(0.0, math.pi, 20),
        ))
        self.assert_matches_differences(problems[0], points)

    def test_sweep_jacobian_with_weights(self, monkeypatch, coupler30):
        sweep = seeded_sweep(coupler30)
        problems = capture_problems(monkeypatch)
        fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)
        (problem,) = problems
        assert problem.weights is not None
        rng = np.random.default_rng(12)
        points = rng.uniform(0.0, 1.0, (20, 2)) * problem.upper_bounds
        self.assert_matches_differences(problem, points)


def oracle_trace_model(params, elapsed, coefficient, phase_scale):
    """The trace model as first written, on fresh arrays: the kernel's oracle."""
    dn_total, tau, phi0 = params
    decay = np.exp(-elapsed / tau)
    psi = phi0 + phase_scale * (dn_total * (1.0 - decay))
    transmission = 1.0 / (1.0 + coefficient * np.sin(psi) ** 2)
    reference = 1.0 / (1.0 + coefficient * math.sin(phi0) ** 2)
    return decay, psi, transmission, reference


def oracle_trace_jacobian(params, elapsed, coefficient, phase_scale):
    """The trace Jacobian as first written, one column_stack of fresh arrays."""
    dn_total, tau, phi0 = params
    decay, psi, transmission, reference = oracle_trace_model(
        params, elapsed, coefficient, phase_scale
    )
    slope = -coefficient * np.sin(2.0 * psi) * transmission**2 / reference
    return np.column_stack((
        slope * phase_scale * (1.0 - decay),
        slope * (-phase_scale * dn_total * decay * elapsed / tau**2),
        slope + transmission * coefficient * math.sin(2.0 * phi0),
    ))


class TestInPlaceTraceKernel:
    """The preallocated trace model and Jacobian against their first forms."""

    @staticmethod
    def assert_close(actual, expected):
        # 1e-12 of each column's largest magnitude: elementwise relative
        # error is meaningless where a column crosses zero.
        error = np.abs(actual - expected).max(axis=0)
        assert np.all(error <= 1e-12 * np.abs(expected).max(axis=0)), error

    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_the_oracle(self, monkeypatch, masked):
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        if masked:
            trace = trace.with_masked_interval(5.0, 10.0)
        problems = capture_problems(monkeypatch)
        fit_fpi_trace(trace, cavity, LAM, 30.0)
        problem = problems[0]
        reflectivity = cavity.reflectivity_at(LAM)
        coefficient, _ = finesse(reflectivity, reflectivity)
        t, y = trace.unmasked()
        elapsed = t - t[0]
        phase_scale = 2.0 * math.pi * cavity.length_mm * 1e6 / LAM
        lower, upper = problem.lower_bounds, problem.upper_bounds
        points = [
            [-8e-5, 5.0, 0.0],
            [-8e-5, 5.0, math.pi / 2],
            [-3e-5, 1.0, 1.0],
            [-8e-5, 5.0, upper[2] * (1 - 1e-12)],  # phase near its bound
            [-1e-12, 5.0, 0.3],  # excursion near its bound
            [-8e-5, lower[1] * (1 + 1e-9), 0.3],  # build-up time near its bound
            [lower[0] * (1 - 1e-12), upper[1], -1.0],
        ]
        work = np.empty((4, len(t)))
        for params in map(np.array, points):
            decay, psi, transmission, reference = oracle_trace_model(
                params, elapsed, coefficient, phase_scale
            )
            kernel = fit_module._trace_model(params, elapsed, coefficient, phase_scale, work)
            for actual, expected in zip(kernel, (decay, 1.0 - decay, psi, transmission)):
                assert actual.base is work
                self.assert_close(actual, expected)
            assert kernel[4] == reference
            # The Jacobian first, so that it evaluates its own model.
            jacobian = problem.jacobian(params).copy()
            self.assert_close(
                jacobian, oracle_trace_jacobian(params, elapsed, coefficient, phase_scale)
            )
            self.assert_close(problem.residual(params), transmission / reference - y)

    def test_jacobian_reuses_its_buffer(self, monkeypatch):
        trace, cavity = synthetic_trace()
        problems = capture_problems(monkeypatch)
        fit_fpi_trace(trace, cavity, LAM, 30.0)
        problem = problems[0]
        first = problem.jacobian(np.array([-8e-5, 5.0, 0.3]))
        second = problem.jacobian(np.array([-7e-5, 4.0, 0.2]))
        assert np.shares_memory(first, second)


def count_calls(monkeypatch, *names):
    """Count calls to the named functions of the fit module."""
    counts = Counter()
    for name in names:
        original = getattr(fit_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fit_module, name, counting)
    return counts


def capture_problems(monkeypatch):
    """The problem of every least-squares run of the fit module, in order."""
    problems = []
    original = fit_module.least_squares

    def capturing(problem, *args, **kwargs):
        problems.append(problem)
        return original(problem, *args, **kwargs)

    monkeypatch.setattr(fit_module, "least_squares", capturing)
    return problems


def seeded_sweep(geometry):
    return synthetic_sweep(
        TestDeltaNPipeline.truth,
        geometry,
        TestDeltaNPipeline.powers,
        0.01,
        np.random.default_rng(1000),
    )


class TestResidualEvaluationCounts:
    """Deterministic guard on fit work: exact residual, Jacobian and descent counts."""

    TRACE_COUNTS = {"_weighted_residual": 12, "_jacobian": 12, "least_squares": 1}
    SWEEP_COUNTS = {"_weighted_residual": 7, "_jacobian": 7, "least_squares": 1}

    @pytest.fixture()
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, "_weighted_residual", "_jacobian", "least_squares")

    def test_seeded_noisy_trace_fit(self, calls):
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert calls == self.TRACE_COUNTS

    def test_seeded_noisy_sweep_fit(self, calls, coupler30):
        fit_delta_n_from_reflectivity({30.0: seeded_sweep(coupler30)}, coupler30)
        assert calls == self.SWEEP_COUNTS

    def test_counts_ignore_rounding_noise(self, calls, coupler30):
        """The pins count fit work: inputs perturbed by 1e-13 relative keep them.

        Without the rounding-floor stop, the extra evaluations are rejected
        trials within 1e-12 of the best cost, and their number follows the
        last digits of the input.
        """
        rng = np.random.default_rng(13)
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        sweep = seeded_sweep(coupler30)
        for _ in range(20):
            calls.clear()
            jitter = 1.0 + 1e-13 * rng.standard_normal(len(trace.value))
            fit_fpi_trace(Trace(trace.time_s, trace.value * jitter), cavity, LAM, 30.0)
            assert calls == self.TRACE_COUNTS
            calls.clear()
            jitter = 1.0 + 1e-13 * rng.standard_normal(len(sweep.value))
            perturbed = SweepData(sweep.abscissa, sweep.value * jitter, sweep.sigma)
            fit_delta_n_from_reflectivity({30.0: perturbed}, coupler30)
            assert calls == self.SWEEP_COUNTS

    def test_trace_model_once_per_point(self, monkeypatch):
        """The Jacobian reuses the model the residual evaluated at its point.

        The result reports the pinned counts, totalled over its descents.
        """
        calls = count_calls(monkeypatch, "_trace_model")
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert calls == {"_trace_model": 12}
        assert fit.result.residual_evaluations == self.TRACE_COUNTS["_weighted_residual"]
        assert fit.result.jacobian_evaluations == self.TRACE_COUNTS["_jacobian"]

    def test_sweep_fit_reports_counts(self, coupler30):
        (outcome,) = fit_delta_n_from_reflectivity(
            {30.0: seeded_sweep(coupler30)}, coupler30
        ).values()
        assert outcome.result.residual_evaluations == self.SWEEP_COUNTS["_weighted_residual"]
        assert outcome.result.jacobian_evaluations == self.SWEEP_COUNTS["_jacobian"]

    def test_coupler_model_calls(self, monkeypatch, coupler30):
        calls = count_calls(monkeypatch, "coupler_reflectivity")
        first_monotone_branch(coupler30)
        assert calls == {"coupler_reflectivity": 2}
        calls.clear()
        fit_delta_n_from_reflectivity({30.0: seeded_sweep(coupler30)}, coupler30)
        assert calls["coupler_reflectivity"] <= 60


class TestCheapestStarts:
    """The scan's partition gives the head of a stable sort of the grid."""

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, -1.0, math.inf, math.nan]),
            min_size=1, max_size=60,
        ),
        count=st.integers(1, 20),
    )
    def test_matches_stable_argsort(self, costs, count):
        grid = np.array(costs).reshape(len(costs), 1)
        expected = np.argsort(grid, axis=None, kind="stable")[:count]
        np.testing.assert_array_equal(fit_module._cheapest(grid, count), expected)

    def test_scan_sized_grid(self, rng):
        grid = np.round(rng.uniform(size=(13, 12, 32)), 2)  # many ties
        expected = np.argsort(grid, axis=None, kind="stable")[: fit_module._MAX_DESCENTS]
        np.testing.assert_array_equal(
            fit_module._cheapest(grid, fit_module._MAX_DESCENTS), expected
        )
