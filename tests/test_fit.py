import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photoref.fit as fit_module
from photoref.cavity import FpiCavity, finesse, simulate_fpi_trace
from photoref.coupler import CouplerGeometry, coupler_reflectivity, reflectivity_vs_pump
from photoref.config import parse_config
from photoref.data import SweepData, Trace, read_sweep_csv, write_sweep_csv
from photoref.fit import (
    FitError,
    FitProblem,
    _count_prominent_extrema,
    estimate_delta_n_from_oscillations,
    fit_delta_n_from_reflectivity,
    fit_fpi_trace,
    least_squares,
)
from photoref.material import (
    DEFAULT_MODE_TARGETS,
    MaterialModel,
    PhotorefractionParams,
    PumpSchedule,
    PumpSegment,
    delta_n_steady,
    guided_mode,
    refractive_index,
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


def record_jacobian_points(problem):
    """The problem with its Jacobian wrapped to record (||r(p)||, p) at each call.

    The engine evaluates the Jacobian at the initial point and at each point
    it accepts, so the record is the sequence of accepted points.
    """
    visited = []
    jacobian = problem.jacobian

    def recording(p):
        visited.append((float(np.linalg.norm(problem.residual(p))), tuple(p.tolist())))
        return jacobian(p)

    problem.jacobian = recording
    return problem, visited


def exponential_jacobian(x):
    """Jacobian of p[0]*exp(p[1]*x) - y."""
    def jacobian(p):
        e = np.exp(p[1] * x)
        return np.column_stack((e, p[0] * x * e))

    return jacobian


# Forward differences, the oracle for the trace fit's analytic Jacobian.
FD_RELATIVE_STEP = 1e-6
FD_ABSOLUTE_FLOOR = 1e-12


def fd_jacobian(problem, params):
    """Forward-difference Jacobian of the problem's residual.

    Each step is relative to the parameter, with an absolute floor, and
    steps back off the upper bound when needed.
    """
    r0 = fit_module._residual(problem, params)
    jac = np.empty((len(r0), len(params)))
    for j in range(len(params)):
        h = max(FD_RELATIVE_STEP * abs(params[j]), FD_ABSOLUTE_FLOOR)
        if params[j] + h > problem.upper_bounds[j]:
            h = -h
        stepped = params.copy()
        stepped[j] += h
        jac[:, j] = (fit_module._residual(problem, stepped) - r0) / h
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
        problem, visited = record_jacobian_points(valley_problem())
        result = least_squares(problem, max_iter=500)
        norms = np.array([norm for norm, _ in visited])
        assert np.all(np.diff(norms) <= 1e-14)
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

    @pytest.mark.parametrize("factor", [1e6, 1e-6])
    def test_rescaled_parameter_takes_the_same_steps(self, rng, factor):
        """The damping shifts each diagonal entry of J^T J in proportion to
        itself, so a parameter in other units takes the same steps.  Residual
        and Jacobian are divided by the noise level, 0.01."""
        x = np.linspace(0.0, 2.0, 40)
        y = 1.5 * np.exp(-1.3 * x) + 0.01 * rng.standard_normal(40)
        results = []
        for scale in (np.ones(2), np.array([factor, 1.0])):
            def jacobian(q, scale=scale):
                return exponential_jacobian(x)(q / scale) / scale / 0.01

            results.append(least_squares(FitProblem(
                residual=lambda q, scale=scale: (q[0] / scale[0] * np.exp(q[1] * x) - y) / 0.01,
                jacobian=jacobian,
                initial_guess=np.array([1.0, -1.0]) * scale,
            )))
            results[-1].parameters /= scale
        base, rescaled = results
        assert base.termination == rescaled.termination == "gain_floor"
        assert rescaled.iterations == base.iterations
        assert rescaled.residual_evaluations == base.residual_evaluations
        np.testing.assert_allclose(rescaled.parameters, base.parameters, rtol=1e-9)

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

    def test_parameter_outside_the_model_has_no_one_sigma(self):
        """J^T J is singular when the residual ignores a parameter: that
        parameter's one-sigma is null, not the pseudo-inverse's 0, and the
        warning names it; the other keeps its one-sigma, and the covariance
        stays finite."""
        x = np.linspace(0.0, 5.0, 20)
        y = 2.0 + 0.1 * np.sin(7.0 * x)
        problem = FitProblem(
            residual=lambda p: np.full_like(x, p[0]) - y,
            jacobian=lambda p: np.column_stack((np.ones_like(x), np.zeros_like(x))),
            initial_guess=np.zeros(2),
        )
        result = least_squares(problem)
        assert result.converged
        payload = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
        spread = math.sqrt(np.sum((y - y.mean()) ** 2) / (len(x) - 2) / len(x))
        assert payload["one_sigma"][0] == pytest.approx(spread, rel=1e-12)
        assert payload["one_sigma"][1] is None
        assert math.isnan(result.uncertainties[1])
        assert np.all(np.isfinite(result.covariance))
        assert "parameter 1 is not determined by the data; it has no one-sigma" in result.warnings
        assert not any("parameter 0 is not determined" in w for w in result.warnings)

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
            problem, visited = record_jacobian_points(FitProblem(
                residual=lambda p: p[0] * np.exp(p[1] * x) - y,
                jacobian=exponential_jacobian(x),
                initial_guess=np.array([0.5, -1.0]),
            ))
            return least_squares(problem), visited

        (a, visited_a), (b, visited_b) = make(), make()
        np.testing.assert_array_equal(a.parameters, b.parameters)
        assert visited_a == visited_b
        assert a.iterations == b.iterations

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


def synthetic_sweep(params, geometry, powers, noise_fraction=0.0, rng=None):
    sweep = reflectivity_vs_pump(geometry, params, LAM, powers)
    values = sweep.value
    sigma = None
    if noise_fraction > 0:
        sigma = noise_fraction * np.abs(values)
        values = values * (1.0 + noise_fraction * rng.standard_normal(len(values)))
    return SweepData(sweep.abscissa, values, sigma)


class TestDeltaNPipeline:
    truth = PhotorefractionParams(a=1.1e-4, b=10.0, c=0.02)
    powers = np.linspace(0.0, 10.0, 11)

    def test_noise_free_recovery(self, coupler30):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)[30.0]
        assert outcome.result.converged
        assert outcome.params.a == pytest.approx(self.truth.a, rel=1e-6)
        assert outcome.params.c == pytest.approx(self.truth.c, abs=1e-6)
        # The fitted law at the sweep's powers reproduces the generating shifts.
        expected = np.abs(delta_n_steady(self.truth, self.powers))
        np.testing.assert_allclose(outcome.delta_n_points.value, expected, rtol=1e-6)

    def test_noisy_anchor_at_ten_milliwatt(self, coupler30, rng):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers, 0.01, rng)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)[30.0]
        dn_10 = abs(delta_n_steady(outcome.params, 10.0))
        assert 0.8e-4 <= dn_10 <= 1.2e-4

    def test_fitted_curve_close_to_secant(self, coupler30):
        sweep = synthetic_sweep(self.truth, coupler30, self.powers)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)[30.0]
        p = np.linspace(0.5, 10.0, 50)
        curve = np.abs(delta_n_steady(outcome.params, p))
        secant = p * abs(delta_n_steady(outcome.params, 10.0)) / 10.0
        assert np.max(np.abs(curve - secant) / curve) < 0.05

    def test_noise_free_recovery_where_reflectivity_falls_first(self):
        # k*L = 3.5 in (pi, 4.4934): R falls from zero mismatch, to a
        # minimum of about 0.42, before it rises again.
        geometry = CouplerGeometry(0.7, 5.0)
        sweep = synthetic_sweep(self.truth, geometry, self.powers)
        assert sweep.value[1] < sweep.value[0]
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: geometry}, LAM)[30.0]
        assert outcome.result.converged
        assert outcome.params.a == pytest.approx(self.truth.a, rel=1e-6)
        assert outcome.params.c == pytest.approx(self.truth.c, abs=1e-6)

    @pytest.mark.parametrize(
        "geometry",
        [
            CouplerGeometry(math.pi / 10.0, 5.0),  # kL = pi/2: full transfer at zero mismatch
            CouplerGeometry(3.0 * math.pi / 10.0, 5.0),  # kL = 3*pi/2: full transfer again
            CouplerGeometry(math.pi / 20.0, 5.0),  # kL = pi/4: half transfer
            CouplerGeometry(1.0, 5.0),  # kL = 5 in (4.4934, 2*pi): R rises
        ],
        ids=["full-transfer", "second-full-transfer", "half-transfer", "rises"],
    )
    def test_noise_free_recovery_across_geometries(self, geometry):
        sweep = synthetic_sweep(self.truth, geometry, self.powers)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: geometry}, LAM)[30.0]
        assert outcome.result.converged
        assert outcome.params.a == pytest.approx(self.truth.a, rel=1e-6)
        assert outcome.params.c == pytest.approx(self.truth.c, abs=1e-6)

    def test_probe_wavelength_sets_the_mismatch(self, coupler30):
        sweep = reflectivity_vs_pump(coupler30, self.truth, 1064.0, self.powers)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, 1064.0)[30.0]
        assert outcome.params.a == pytest.approx(self.truth.a, rel=1e-6)
        assert outcome.params.c == pytest.approx(self.truth.c, abs=1e-6)

    def test_each_temperature_fitted_with_its_own_geometry(self, coupler30, coupler90):
        law60 = PhotorefractionParams(a=3e-5, b=10.0, c=0.02)
        sweeps = {
            30.0: synthetic_sweep(self.truth, coupler30, self.powers),
            60.0: synthetic_sweep(law60, coupler90, self.powers),
        }
        outcomes = fit_delta_n_from_reflectivity(sweeps, {30.0: coupler30, 60.0: coupler90}, LAM)
        for temperature, truth in ((30.0, self.truth), (60.0, law60)):
            params = outcomes[temperature].params
            assert params.a == pytest.approx(truth.a, rel=1e-6)
            assert params.c == pytest.approx(truth.c, abs=1e-6)

    def test_shuffled_sweep_file_keeps_its_order_and_fit(self, coupler30, tmp_path):
        """A 30 C sweep file with shuffled rows is read in the file's order and
        fits the (a, c) of the sorted file."""
        rng = np.random.default_rng(30)
        sweep = synthetic_sweep(self.truth, coupler30, self.powers, 0.01, rng)
        order = rng.permutation(len(sweep))
        write_sweep_csv(tmp_path / "sorted.csv", sweep)
        write_sweep_csv(tmp_path / "shuffled.csv", SweepData(
            sweep.abscissa[order], sweep.value[order], sweep.sigma[order]
        ))
        shuffled = read_sweep_csv(tmp_path / "shuffled.csv")
        assert np.any(np.diff(shuffled.abscissa) < 0)
        np.testing.assert_array_equal(shuffled.abscissa, sweep.abscissa[order])
        sorted_fit, shuffled_fit = (
            fit_delta_n_from_reflectivity({30.0: s}, {30.0: coupler30}, LAM)[30.0]
            for s in (read_sweep_csv(tmp_path / "sorted.csv"), shuffled)
        )
        assert shuffled_fit.result.converged
        assert shuffled_fit.params.a == pytest.approx(sorted_fit.params.a, rel=1e-9)
        assert shuffled_fit.params.c == pytest.approx(sorted_fit.params.c, rel=1e-9)
        np.testing.assert_array_equal(
            shuffled_fit.delta_n_points.abscissa, sweep.abscissa[order]
        )

    def test_flat_sweep_gives_no_shift(self, coupler30):
        """A sweep whose R never leaves its zero-mismatch value carries no
        shift: the fitted |dn| stays far below the 30 C law's 1e-4, and the
        fit says that a parameter ended on a bound."""
        level = coupler_reflectivity(coupler30, 0.0)
        sweep = SweepData(self.powers, np.full(len(self.powers), level))
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)[30.0]
        assert np.max(outcome.delta_n_points.value) <= 1e-9
        assert any("bound" in warning for warning in outcome.result.warnings)

    def test_delta_n_points_follow_the_fitted_law(self, coupler30):
        sweep = seeded_sweep(coupler30)
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)[30.0]
        np.testing.assert_array_equal(outcome.delta_n_points.abscissa, self.powers)
        expected = np.abs(delta_n_steady(outcome.params, self.powers))
        np.testing.assert_allclose(outcome.delta_n_points.value, expected, rtol=1e-12)

    def test_common_sigma_scale_leaves_the_fit(self, coupler30):
        """Scaling every sigma by 3 scales the cost and the curvature alike:
        the estimates and the covariance stay."""
        sweep = seeded_sweep(coupler30)
        scaled = SweepData(sweep.abscissa, sweep.value, 3.0 * sweep.sigma)
        base, other = (
            fit_delta_n_from_reflectivity({30.0: s}, {30.0: coupler30}, LAM)[30.0].result
            for s in (sweep, scaled)
        )
        np.testing.assert_allclose(other.parameters, base.parameters, rtol=1e-6)
        np.testing.assert_allclose(other.covariance, base.covariance, rtol=1e-6)

    def test_descent_starts_at_the_cheapest_scan_point(self, monkeypatch, coupler30):
        sweep = seeded_sweep(coupler30)
        problems = capture_problems(monkeypatch)
        fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)
        (problem,) = problems
        costs = np.array([
            [
                np.sum(((oracle_sweep_reflectivity((a, c), coupler30, self.powers)
                         - sweep.value) / sweep.sigma) ** 2)
                for c in fit_module._SWEEP_SCAN_C
            ]
            for a in fit_module._SWEEP_SCAN_A
        ])
        i, j = np.unravel_index(np.argmin(costs), costs.shape)
        start = (fit_module._SWEEP_SCAN_A[i], fit_module._SWEEP_SCAN_C[j])
        np.testing.assert_array_equal(problem.initial_guess, start)

    @pytest.mark.parametrize(
        "value, sigma, refused",
        [
            (1.049, 0.01, False),
            (-0.049, 0.01, False),
            (1.051, 0.01, True),
            (-0.051, 0.01, True),
            (1.3, None, True),
            (1.001, None, True),
            (50.0, 0.5, True),
        ],
        ids=["4.9-sigma-above", "4.9-sigma-below", "5.1-sigma-above", "5.1-sigma-below",
             "above-one-without-sigma", "just-above-one-without-sigma", "percent"],
    )
    def test_reflectivity_refused_beyond_five_sigma_of_the_range(
        self, coupler30, value, sigma, refused
    ):
        """A noisy R may lie up to 5 sigma outside [0, 1]; without a sigma it
        may not, so a sweep written in percent stays refused either way."""
        sigmas = None if sigma is None else [sigma] * 4
        sweep = SweepData([0.0, 1.0, 2.0, 3.0], [0.2, 0.3, value, 0.4], sigmas)
        if not refused:
            fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)
            return
        message = f"30.0 C sweep point 2: reflectivity {value!r} outside the reachable range"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)

    @pytest.mark.parametrize("bad", [0.0, -0.01])
    def test_sigma_not_positive_rejected_by_point(self, coupler30, bad):
        sweep = SweepData([0.0, 1.0, 2.0, 3.0], [0.2, 0.3, 0.35, 0.4], [0.01, 0.01, 0.01, bad])
        with pytest.raises(ValueError, match=rf"30\.0 C sweep point 3: sigma {bad!r} must be > 0"):
            fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)

    def test_negative_pump_power_rejected_by_point(self, coupler30):
        sweep = SweepData([0.0, -1.0, 2.0, 3.0], [0.2, 0.52, 0.35, 0.4])
        with pytest.raises(ValueError, match=r"30\.0 C sweep point 1: pump power -1\.0 must be >= 0"):
            fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)

    def test_outlier_sigma_moves_the_law(self, coupler30):
        """A point 0.05 above a noise-free sweep pulls the law when every sigma
        is 0.01; a sigma of 1e3 on it takes it out, and the truth returns."""
        value = synthetic_sweep(self.truth, coupler30, self.powers).value
        value[8] += 0.05
        equal = np.full(len(value), 0.01)
        discounted = equal.copy()
        discounted[8] = 1e3
        pulled, restored = (
            fit_delta_n_from_reflectivity({30.0: SweepData(self.powers, value, sigma)},
                                          {30.0: coupler30}, LAM)[30.0].params
            for sigma in (equal, discounted)
        )
        assert abs(pulled.c - self.truth.c) > 0.02
        assert restored.a == pytest.approx(self.truth.a, rel=1e-6)
        assert restored.c == pytest.approx(self.truth.c, abs=1e-6)

    def test_too_few_points_rejected(self, coupler30):
        sweep = SweepData([0.0, 1.0, 2.0], [0.16, 0.17, 0.18])
        with pytest.raises(ValueError, match="at least 4"):
            fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)

    def test_slope_recovery_under_noise(self, coupler30):
        """1 percent multiplicative noise, many seeds: slope within 5 percent."""
        truth_slope = self.truth.a / self.truth.b
        hits = covered = 0
        n_runs = 100
        for seed in range(n_runs):
            rng = np.random.default_rng(1000 + seed)
            sweep = synthetic_sweep(self.truth, coupler30, self.powers, 0.01, rng)
            outcome = fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)[30.0]
            slope = outcome.params.a / outcome.params.b
            if abs(slope - truth_slope) <= 0.05 * truth_slope:
                hits += 1
            # One-sigma coverage of a, as for the trace fit below.
            if abs(outcome.params.a - self.truth.a) <= outcome.result.uncertainties[0]:
                covered += 1
        assert hits >= 95
        assert 54 <= covered <= 82

    @pytest.mark.parametrize("seed, chi_square", [
        (50, 8.361696831017364),
        (104, 6.667721101018468),
        (149, 7.045837633357304),
    ])
    def test_flat_valley_converges(self, coupler90, params90, seed, chi_square):
        """90 C draws with a flat, non-zero-residual valley: LM converges, at
        the chi-square that 200 iterations of crawling along the valley reach."""
        rng = np.random.default_rng(seed)
        sweep = synthetic_sweep(params90, coupler90, self.powers, 0.01, rng)
        result = fit_delta_n_from_reflectivity({90.0: sweep}, {90.0: coupler90}, LAM)[90.0].result
        assert result.converged
        assert not any("iteration limit" in w for w in result.warnings)
        assert result.residual_norm**2 == pytest.approx(chi_square, rel=1e-9)

    def test_weak_law_bounded_at_ninety_celsius(self, coupler90, params90):
        """1 percent noise on the example's 90 C sweep: the fitted |dn(10 mW)|
        stays within 1.3e-5, the |dn| whose change of R equals the noise
        (1 % of R at zero mismatch)."""
        bounded = 0
        for seed in range(500, 600):
            rng = np.random.default_rng(seed)
            sweep = synthetic_sweep(params90, coupler90, self.powers, 0.01, rng)
            outcome = fit_delta_n_from_reflectivity({90.0: sweep}, {90.0: coupler90}, LAM)[90.0]
            bounded += abs(delta_n_steady(outcome.params, 10.0)) <= 1.3e-5
        assert bounded >= 90


    def test_singular_fits_report_no_one_sigma(self, coupler90, params90):
        """Half of the 90 C draws above end at a = 0, where R does not depend
        on (a, c) and J^T J is singular: both one-sigmas are null, not 0, and
        both parameters are named; the covariance stays finite."""
        singular = 0
        for seed in range(500, 600):
            rng = np.random.default_rng(seed)
            sweep = synthetic_sweep(params90, coupler90, self.powers, 0.01, rng)
            outcome = fit_delta_n_from_reflectivity({90.0: sweep}, {90.0: coupler90}, LAM)
            result = outcome[90.0].result
            payload = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
            assert np.all(np.isfinite(result.covariance))
            if not any("pseudo-inverse" in w for w in result.warnings):
                assert None not in payload["one_sigma"]
                continue
            singular += 1
            assert result.parameters[0] == 0.0
            assert payload["one_sigma"] == [None, None]
            for j in (0, 1):
                assert f"parameter {j} is not determined by the data; it has no one-sigma" in (
                    result.warnings
                )
        assert singular >= 40


def make_trace_cavity():
    return FpiCavity(15.0, 0.14, 0.13, MaterialModel.calibrated(DEFAULT_MODE_TARGETS))


def synthetic_trace(dn_total=-8e-5, tau=5.0, n=481, horizon=24.0, noise=0.0, rng=None):
    cavity = make_trace_cavity()
    params = PhotorefractionParams(a=-dn_total, b=1.0, c=0.0, tau_build_s=tau)
    schedule = PumpSchedule([PumpSegment(0.0, horizon, 1.0)])
    trace = simulate_fpi_trace(cavity, schedule, params, LAM, 30.0, horizon / (n - 1), horizon)
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

    @pytest.mark.parametrize("dn_total", [-3.5e-7, -1.5e-7])
    def test_noise_free_sub_fringe_recovery(self, dn_total):
        """The trace as T/T_max keeps the pre-pump level T(phi0), which places a
        shift far below lambda/(4L); the fit still reports it as a bound."""
        trace, cavity = synthetic_trace(dn_total=dn_total)
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert fit.delta_n_total == pytest.approx(dn_total, rel=1e-6)
        assert fit.tau_build_s == pytest.approx(5.0, rel=1e-6)
        assert not fit.result.converged
        (warning,) = fit.result.warnings
        assert "below lambda/(8L)" in warning

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
    """Each pipeline's analytic Jacobian against a numerical one."""

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
        """The problem's Jacobian is divided by the sweep's sigma."""
        sweep = seeded_sweep(coupler30)
        assert sweep.sigma is not None
        problems = capture_problems(monkeypatch)
        fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)
        (problem,) = problems
        rng = np.random.default_rng(12)
        for params in rng.uniform(0.0, 1.0, (20, 2)) * problem.upper_bounds:
            analytic = problem.jacobian(params)
            numeric = complex_step_sweep_jacobian(coupler30, sweep, params)
            error = np.max(np.abs(analytic - numeric), axis=0)
            assert np.all(error <= 1e-5 * np.max(np.abs(numeric), axis=0)), params

    def test_sweep_jacobian_without_weights(self, monkeypatch, coupler30):
        sweep = synthetic_sweep(TestDeltaNPipeline.truth, coupler30, TestDeltaNPipeline.powers)
        assert sweep.sigma is None
        problems = capture_problems(monkeypatch)
        fit_delta_n_from_reflectivity({30.0: sweep}, {30.0: coupler30}, LAM)
        (problem,) = problems
        rng = np.random.default_rng(14)
        for params in rng.uniform(0.0, 1.0, (20, 2)) * problem.upper_bounds:
            analytic = problem.jacobian(params)
            numeric = complex_step_sweep_jacobian(coupler30, sweep, params)
            error = np.max(np.abs(analytic - numeric), axis=0)
            assert np.all(error <= 1e-5 * np.max(np.abs(numeric), axis=0)), params


def oracle_sweep_reflectivity(params, geometry, powers):
    """R of the sweep fit's model, written out so that it takes complex (a, c)."""
    a, c = params
    delta_beta = 2.0 * math.pi / (LAM * 1e-6) * a * powers / (fit_module._GAUGE_B_MW + c * powers)
    k2 = 4.0 * geometry.coupling_constant_per_mm**2
    q2 = k2 + delta_beta**2
    return 1.0 - k2 / q2 * np.sin(geometry.interaction_length_mm * np.sqrt(q2) / 2.0) ** 2


def complex_step_sweep_jacobian(geometry, sweep, params, step=1e-30):
    """Jacobian of the sweep residual by complex steps, weighted by the sweep's
    sigma when it has one: Im f(p + i*h)/h has no cancellation, so it is
    exact to rounding."""
    columns = []
    for j in range(len(params)):
        shifted = np.asarray(params, dtype=complex)
        shifted[j] += 1j * step
        columns.append(oracle_sweep_reflectivity(shifted, geometry, sweep.abscissa).imag / step)
    jac = np.column_stack(columns)
    return jac if sweep.sigma is None else jac / sweep.sigma[:, None]


def oracle_trace_model(params, elapsed, coefficient, phase_scale):
    """The trace model T/T_max written out with sin, on fresh arrays: the kernel's oracle."""
    dn_total, tau, phi0 = params
    decay = np.exp(-elapsed / tau)
    psi = phi0 + phase_scale * (dn_total * (1.0 - decay))
    transmission = 1.0 / (1.0 + coefficient * np.sin(psi) ** 2)
    return decay, psi, transmission


def oracle_trace_jacobian(params, elapsed, coefficient, phase_scale):
    """The trace Jacobian by the chain rule, one column_stack of fresh arrays."""
    dn_total, tau, _ = params
    decay, psi, transmission = oracle_trace_model(params, elapsed, coefficient, phase_scale)
    slope = -coefficient * np.sin(2.0 * psi) * transmission**2  # dT/dpsi = dT/dphi0
    return np.column_stack((
        slope * phase_scale * (1.0 - decay),
        slope * (-phase_scale * dn_total * decay * elapsed / tau**2),
        slope,
    ))


class TestTraceKernel:
    """The trace model and Jacobian against their sin forms."""

    @staticmethod
    def assert_close(actual, expected, scale=None):
        # 1e-12 of each column's largest magnitude (or of ``scale``):
        # elementwise relative error is meaningless where a column crosses zero.
        error = np.abs(actual - expected).max(axis=0)
        if scale is None:
            scale = np.abs(expected).max(axis=0)
        assert np.all(error <= 1e-12 * scale), error

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
        t, y = trace.time_s, trace.value
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
        for params in map(np.array, points):
            decay, psi, transmission = oracle_trace_model(
                params, elapsed, coefficient, phase_scale
            )
            kernel = fit_module._trace_model(params, elapsed, coefficient, phase_scale)
            expected_rows = (decay, 1.0 - decay, np.tan(psi), transmission)
            assert len(kernel) == len(expected_rows)
            for actual, expected in zip(kernel, expected_rows):
                self.assert_close(actual, expected)
            # The Jacobian first, so that it evaluates its own model.
            jacobian = problem.jacobian(params)
            oracle = oracle_trace_jacobian(params, elapsed, coefficient, phase_scale)
            self.assert_close(jacobian, oracle)
            self.assert_close(problem.residual(params), transmission - y)

    def test_reproduces_the_simulator(self):
        """The fit's model and the trace simulator share one Airy kernel and one
        cavity phase: on the example chip, for one pumped segment, they agree
        to the last bits of dn(t)."""
        cfg = parse_config("configs/example.yaml")
        cavity, params = cfg.fpi_cavity(), cfg.photorefraction(30.0)
        schedule = PumpSchedule([PumpSegment(10.0, 60.0, 5.0)])
        trace = simulate_fpi_trace(cavity, schedule, params, LAM, 30.0, 0.05, 60.0)
        coefficient, scale = cavity.airy_constants(LAM)
        n_eff = refractive_index(cavity.material, LAM, 30.0, guided_mode(LAM))
        truth = np.array([delta_n_steady(params, 5.0), params.tau_build_s, scale * n_eff % math.pi])
        elapsed = np.clip(trace.time_s - 10.0, 0.0, None)
        *_, transmission = fit_module._trace_model(truth, elapsed, coefficient, scale)
        np.testing.assert_allclose(transmission, trace.value, rtol=0.0, atol=1e-15)

    def test_noise_free_example_trace_fits_exactly(self):
        """The example chip's noise-free trace is the fit's own model, so the fit
        returns the truth and leaves a residual at rounding level."""
        cfg = parse_config("configs/example.yaml")
        cavity, params = cfg.fpi_cavity(), cfg.photorefraction(30.0)
        schedule = PumpSchedule([PumpSegment(10.0, 60.0, 5.0)])
        trace = simulate_fpi_trace(cavity, schedule, params, LAM, 30.0, 0.05, 60.0)
        fit = fit_fpi_trace(trace, cavity, LAM, pump_on_time_s=10.0)
        assert fit.result.converged
        assert fit.result.residual_norm <= 1e-13
        assert fit.delta_n_total == pytest.approx(delta_n_steady(params, 5.0), rel=1e-13)
        assert fit.tau_build_s == pytest.approx(params.tau_build_s, rel=1e-13)


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

    TRACE_COUNTS = {"_residual": 5, "_jacobian": 5, "least_squares": 1}
    SWEEP_COUNTS = {"_residual": 7, "_jacobian": 7, "least_squares": 1}

    @pytest.fixture()
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, "_residual", "_jacobian", "least_squares")

    def test_seeded_noisy_trace_fit(self, calls):
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert calls == self.TRACE_COUNTS

    def test_seeded_noisy_sweep_fit(self, calls, coupler30):
        fit_delta_n_from_reflectivity({30.0: seeded_sweep(coupler30)}, {30.0: coupler30}, LAM)
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
            fit_delta_n_from_reflectivity({30.0: perturbed}, {30.0: coupler30}, LAM)
            assert calls == self.SWEEP_COUNTS

    def test_trace_model_once_per_point(self, monkeypatch):
        """The Jacobian reuses the model the residual evaluated at its point.

        The result reports the pinned counts, totalled over its descents.
        """
        calls = count_calls(monkeypatch, "_trace_model")
        trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(4000))
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0)
        assert calls == {"_trace_model": 5}
        assert fit.result.residual_evaluations == self.TRACE_COUNTS["_residual"]
        assert fit.result.jacobian_evaluations == self.TRACE_COUNTS["_jacobian"]

    def test_sweep_fit_reports_counts(self, coupler30):
        (outcome,) = fit_delta_n_from_reflectivity(
            {30.0: seeded_sweep(coupler30)}, {30.0: coupler30}, LAM
        ).values()
        assert outcome.result.residual_evaluations == self.SWEEP_COUNTS["_residual"]
        assert outcome.result.jacobian_evaluations == self.SWEEP_COUNTS["_jacobian"]

    def test_coupler_model_calls(self, monkeypatch, coupler30):
        calls = count_calls(monkeypatch, "coupler_reflectivity")
        fit_delta_n_from_reflectivity({30.0: seeded_sweep(coupler30)}, {30.0: coupler30}, LAM)
        assert calls["coupler_reflectivity"] <= 60


class TestTangentForms:
    """The tan forms of the Airy model and the start scan against sin and cos.

    T comes from the kernel itself; sin 2psi = 2t/(1 + t^2) (the Jacobian's,
    and the scan's sin a at a = 2psi) and cos a = (1 - t^2)/(1 + t^2) are
    formed as the fit forms them from t = tan psi.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        psi=st.one_of(
            st.floats(-300.0, 300.0),
            st.builds(
                lambda k, side: math.pi / 2 + k * math.pi + side * 1e-9,
                st.integers(-96, 95),
                st.sampled_from([-1.0, 1.0]),
            ),
            st.just(math.pi / 2),
        ),
        coefficient=st.floats(1e-3, 1e3),
    )
    @example(psi=math.pi / 2, coefficient=0.76)
    def test_match_the_sin_cos_forms(self, psi, coefficient):
        angle = np.array([psi])
        _, _, tangent, transmission = fit_module._trace_model(
            np.array([0.0, 1.0, psi]), np.zeros(1), coefficient, 1.0
        )
        assert tangent[0] == np.tan(angle)[0]
        expected = 1.0 / (1.0 + coefficient * np.sin(angle) ** 2)
        assert abs(transmission[0] - expected[0]) <= 2e-15 * expected[0]
        square = tangent * tangent
        double_sine = 2.0 * tangent / (1.0 + square)
        double_cosine = (1.0 - square) / (1.0 + square)
        assert abs(double_sine[0] - np.sin(2.0 * angle)[0]) <= 1e-15
        assert abs(double_cosine[0] - np.cos(2.0 * angle)[0]) <= 1e-15


class TestFloatSolve:
    """The LM engine's float elimination against LAPACK's solve."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_numpy_on_well_conditioned_systems(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(200):
            # Singular values in [1, 10]: condition numbers of at most 10.
            left, _ = np.linalg.qr(rng.standard_normal((n, n)))
            right, _ = np.linalg.qr(rng.standard_normal((n, n)))
            matrix = 10.0 ** rng.uniform(-8, 8) * (left * rng.uniform(1, 10, n)) @ right.T
            rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
            shift = np.abs(rng.standard_normal(n)) * np.abs(np.diag(matrix))
            for diagonal in (np.zeros(n), shift):
                expected = np.linalg.solve(matrix + np.diag(diagonal), rhs)
                actual = fit_module._solve(matrix.tolist(), rhs.tolist(), diagonal.tolist())
                error = np.linalg.norm(np.array(actual) - expected)
                assert error <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "matrix",
        [[[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[2.0, 4.0, 1.0], [1.0, 2.0, 3.0], [4.0, 8.0, 2.0]]],
    )
    def test_exactly_singular_matrix(self, matrix):
        rhs = [1.0] * len(matrix)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(matrix, rhs)
        assert fit_module._solve(matrix, rhs) is None


def oracle_scan_costs(trace, cavity, pump_on_time_s=None):
    """The start scan's cost grid with one cos and one sin per slice, each cost
    summed over every thinned sample from the model's misfit itself."""
    reflectivity = cavity.reflectivity_at(LAM)
    coefficient, _ = finesse(reflectivity, reflectivity)
    t, y = trace.time_s, trace.value
    t0 = t[0] if pump_on_time_s is None else pump_on_time_s
    span = float(t[-1] - t0)
    phase_scale = 2.0 * math.pi * cavity.length_mm * 1e6 / LAM
    elapsed = np.clip(t - t0, 0.0, None)
    quantum = LAM / (4.0 * cavity.length_mm * 1e6)
    dn_start = -(estimate_delta_n_from_oscillations(trace) + 0.5) * quantum
    stride = max(len(t) // 128, 1)
    elapsed_thin, y_thin = elapsed[::stride], y[::stride]
    dn_grid = np.clip(dn_start + quantum * np.linspace(-1.5, 1.5, 13), -5e-3, 0.0)
    dn_grid = dn_grid[np.diff(dn_grid, prepend=-np.inf) > 0]
    tau_grid = span * np.geomspace(1e-2, 1.0, 12)
    phi_grid = np.linspace(0.0, math.pi, 32, endpoint=False)
    rise = (1.0 - np.exp(-elapsed_thin / tau_grid[:, None])).ravel()
    half = 0.5 * coefficient
    mix = np.column_stack((
        np.full(len(phi_grid), 1.0 + half),
        -half * np.cos(2.0 * phi_grid),
        half * np.sin(2.0 * phi_grid),
    ))
    costs = np.empty((len(dn_grid), len(tau_grid), len(phi_grid)))
    for i, dn_total in enumerate(dn_grid):
        angle = rise * (2.0 * phase_scale * dn_total)
        inverse = 1.0 / (mix @ np.vstack((np.ones_like(angle), np.cos(angle), np.sin(angle))))
        misfit = inverse.reshape(-1, len(y_thin)) - y_thin  # one row per (phi0, tau)
        costs[i] = np.sum(misfit**2, axis=1).reshape(len(phi_grid), -1).T
    return costs


def oracle_basin_starts(costs, count):
    """The scan's start rule by explicit neighbour loops: the points that no
    (tau, phi0) neighbour in their dn_total slice undercuts, phi0 wrapping and
    tau not, NaN as +inf, by cost and then flat index."""
    n_dn, n_tau, n_phi = costs.shape
    value = np.where(np.isnan(costs), np.inf, costs)
    minima = []
    for i, j, k in itertools.product(range(n_dn), range(n_tau), range(n_phi)):
        neighbours = [
            value[i, j + dj, (k + dk) % n_phi]
            for dj in (-1, 0, 1) for dk in (-1, 0, 1)
            if (dj, dk) != (0, 0) and 0 <= j + dj < n_tau
        ]
        if all(value[i, j, k] <= v for v in neighbours):
            minima.append((value[i, j, k], i * n_tau * n_phi + j * n_phi + k))
    return np.array([index for _, index in sorted(minima)[:count]], dtype=np.intp)


class TestBasinStarts:
    """The trace fit's start rule against the brute-force local-minimum oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        costs=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 7)).flatmap(
            lambda shape: st.lists(
                st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0, math.inf, math.nan]),
                min_size=math.prod(shape), max_size=math.prod(shape),
            ).map(lambda values, shape=shape: np.array(values).reshape(shape))
        ),
        count=st.integers(1, 20),
    )
    def test_matches_the_oracle(self, costs, count):
        np.testing.assert_array_equal(
            fit_module._basin_starts(costs, count), oracle_basin_starts(costs, count)
        )

    def test_scan_sized_grid(self, rng):
        grid = np.round(rng.uniform(size=(13, 12, 32)), 2)  # many ties
        grid[rng.uniform(size=grid.shape) < 0.05] = math.nan
        np.testing.assert_array_equal(
            fit_module._basin_starts(grid, fit_module._MAX_DESCENTS),
            oracle_basin_starts(grid, fit_module._MAX_DESCENTS),
        )

    def test_phase_wraps_and_tau_does_not(self):
        """phi0 indices 0 and 31 are neighbours; tau indices 0 and 11 are not."""
        grid = np.full((1, 12, 32), 5.0)  # a plateau: all of it ties as minima
        grid[0, 4, 0], grid[0, 4, 31] = 2.0, 1.0  # only the second is a minimum
        grid[0, 0, 10], grid[0, 11, 10] = 3.0, 4.0  # both are minima
        starts = fit_module._basin_starts(grid, fit_module._MAX_DESCENTS).tolist()
        assert starts[:3] == [4 * 32 + 31, 10, 11 * 32 + 10]
        assert 4 * 32 not in starts


class TestScanStarts:
    """The tan-built start scan descends from the starts the sin/cos scan gives."""

    @staticmethod
    def scan(monkeypatch, trace, cavity, pump_on_time_s=None):
        """(costs, starts) of the fit's one scan, and the fit."""
        picked = []
        basin_starts = fit_module._basin_starts

        def recording(costs, count):
            picked.append((costs.copy(), basin_starts(costs, count)))
            return picked[-1][1]

        monkeypatch.setattr(fit_module, "_basin_starts", recording)
        fit = fit_fpi_trace(trace, cavity, LAM, 30.0, pump_on_time_s=pump_on_time_s)
        ((costs, starts),) = picked
        return costs, starts, fit

    @pytest.mark.parametrize("case", ["noise-free", "masked", *range(4000, 4010)])
    def test_same_starts_as_the_sin_cos_scan(self, monkeypatch, case):
        if case in ("noise-free", "masked"):
            trace, cavity = synthetic_trace()
            if case == "masked":
                trace = trace.with_masked_interval(5.0, 10.0)
        else:
            trace, cavity = synthetic_trace(noise=0.02, rng=np.random.default_rng(case))
        costs, starts, _ = self.scan(monkeypatch, trace, cavity)
        oracle = oracle_scan_costs(trace, cavity)
        np.testing.assert_allclose(costs, oracle, rtol=1e-9, atol=1e-12 * oracle.max())
        np.testing.assert_array_equal(
            starts, oracle_basin_starts(oracle, fit_module._MAX_DESCENTS)
        )

    def test_no_pumped_sample_in_the_thinned_trace(self, monkeypatch):
        """Pump-on after the last thinned sample (every third of 483): the scan
        sees only pre-pump samples, its cost depends on phi0 alone, and the
        full-trace descents still fit."""
        cavity = make_trace_cavity()
        step = 24.0 / 482
        pump_on = 480.5 * step
        law = PhotorefractionParams(a=8e-5, b=1.0, c=0.0, tau_build_s=0.01)
        schedule = PumpSchedule([PumpSegment(pump_on, 24.0, 1.0)])
        trace = simulate_fpi_trace(cavity, schedule, law, LAM, 30.0, step, 24.0)
        assert len(trace.time_s) == 483
        costs, _, fit = self.scan(monkeypatch, trace, cavity, pump_on)
        oracle = oracle_scan_costs(trace, cavity, pump_on)
        np.testing.assert_allclose(costs, oracle, rtol=1e-9, atol=1e-12 * oracle.max())
        np.testing.assert_array_equal(costs, np.broadcast_to(costs[0, 0], costs.shape))
        values = [fit.delta_n_total, fit.tau_build_s, fit.phase_offset_rad]
        assert all(map(math.isfinite, values + fit.result.covariance.ravel().tolist()))
        assert fit.delta_n_total <= 0.0
        assert fit.result.residual_norm < 0.1
