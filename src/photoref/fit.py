"""Damped nonlinear least squares and the prebuilt fitting pipelines.

The engine is a deterministic Levenberg-Marquardt loop with box constraints
and the problem's analytic Jacobian.  Its damping is Marquardt's scaled
diagonal shift, dimensionless, from 1e-4 (multiplied/divided by 10 on
reject/accept).  It stops once the undamped Gauss-Newton step promises a
decrease of at most 1e-13 of the cost, which rounding hides.  On top of it
sit two pipelines: recovering the saturable index-shift law from coupler
reflectivity sweeps, and recovering the total index excursion and build-up
time from a cavity transmission trace.  The sweep fit is one forward fit of
R itself: the law gives delta_beta, and R = 1 - (kL*sin(x)/x)^2 with
x = L*sqrt(4k^2 + delta_beta^2)/2 gives R; LM starts from the cheapest point
of a coarse (a, c) scan.  The trace fit scans a start grid in one broadcast
cost evaluation per excursion (the pre-pump samples' share once), then
descends from the grid's basins, cheapest first, until a fit reaches the
trace's noise floor, and flags the fit when none does.
The Airy model, its Jacobian and the start scan take sines and cosines from one tan,
which numpy 2.4 vectorizes under AVX-512 while its float64 sin and cos run through
scalar libm (neutral under AVX2 dispatch); the <= 3x3 LM algebra runs in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .cavity import FpiCavity, finesse
from .coupler import CouplerGeometry, coupler_reflectivity
from .data import SweepData, Trace
from .material import PhotorefractionParams

__all__ = [
    "FitError",
    "FitProblem",
    "FitResult",
    "least_squares",
    "DeltaNFit",
    "fit_delta_n_from_reflectivity",
    "estimate_delta_n_from_oscillations",
    "FpiTraceFit",
    "fit_fpi_trace",
]

_INITIAL_DAMPING = 1e-4  # lambda of the first shift lambda*H_ii, dimensionless
_MAX_DAMPING = 1e14
_MIN_DAMPING = 1e-16
_STEP_TOL = 1e-10  # accepted step, relative to 1 + max |parameter|
_GRAD_TOL = 1e-10  # largest free gradient component
_GAIN_FLOOR = 1e-13  # Gauss-Newton gain, relative to the cost, that rounding hides:
# a sweep's weighted residual cancels values ~100x its size, and a step promising
# 1e-14 of the cost moves it by up to 7e-14 with the input's last bits
_MAX_DESCENTS = 16  # LM descents per trace fit
_GAUGE_B_MW = 10.0  # b of the saturable law, pinned (only a/b and a/c are identifiable)
# The sweep fit's start scan: a over seven decades, c from none to strong saturation.
_SWEEP_SCAN_A = np.geomspace(1e-9, 1e-2, 57)
_SWEEP_SCAN_C = np.concatenate(([0.0], np.geomspace(1e-3, 100.0, 11)))


class FitError(RuntimeError):
    """Raised when a fit cannot proceed (singular Jacobian at maximal damping)."""


@dataclass
class FitProblem:
    """A weighted residual function with bounded parameters.

    ``residual`` maps a parameter vector to (predictions - observations),
    and ``jacobian`` maps it to the derivatives of the (unweighted) residual,
    one row per point and one column per parameter.  ``weights`` are
    per-point standard deviations; residuals are divided by them.  The
    initial guess must lie inside the bounds and the number of residuals
    must be at least the number of parameters.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    initial_guess: np.ndarray
    lower_bounds: np.ndarray | None = None
    upper_bounds: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        p0 = np.atleast_1d(np.asarray(self.initial_guess, dtype=float))
        lo, hi = (
            np.full(p0.shape, fill) if bound is None else np.asarray(bound, dtype=float)
            for bound, fill in ((self.lower_bounds, -np.inf), (self.upper_bounds, np.inf))
        )
        if lo.shape != p0.shape or hi.shape != p0.shape:
            raise ValueError("bounds must match the parameter vector shape")
        if np.any(lo > hi):
            raise ValueError("lower bounds exceed upper bounds")
        if np.any(p0 < lo) or np.any(p0 > hi):
            raise ValueError("initial guess outside bounds")
        self.initial_guess, self.lower_bounds, self.upper_bounds = p0, lo, hi
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise ValueError("weights (standard deviations) must be > 0")
            self.weights = w


@dataclass
class FitResult:
    """Outcome of a least-squares run.

    ``covariance`` is the Gauss-Newton estimate from the final Jacobian,
    scaled by the reduced chi-square.  ``residual_evaluations`` counts calls
    of the problem's residual and ``jacobian_evaluations`` calls of its
    Jacobian.  ``termination`` names the test that stopped the run (see
    ``least_squares``).
    """

    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    termination: str
    warnings: list[str] = field(default_factory=list)
    residual_evaluations: int = 0
    jacobian_evaluations: int = 0

    @property
    def uncertainties(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_json_dict(self) -> dict:
        return {
            "parameters": [float(x) for x in self.parameters],
            "one_sigma": [float(x) for x in self.uncertainties],
            "covariance": [[float(x) for x in row] for row in self.covariance],
            "residual_norm": float(self.residual_norm),
            "iterations": int(self.iterations),
            "residual_evaluations": int(self.residual_evaluations),
            "jacobian_evaluations": int(self.jacobian_evaluations),
            "converged": bool(self.converged),
            "termination": self.termination,
            "warnings": list(self.warnings),
        }


def _weighted_residual(problem: FitProblem, params: np.ndarray) -> np.ndarray:
    r = np.atleast_1d(np.asarray(problem.residual(params), dtype=float))
    if problem.weights is not None:
        if len(problem.weights) != len(r):
            raise ValueError("weights length must match the residual vector")
        r = r / problem.weights
    return r


def _jacobian(problem: FitProblem, params: np.ndarray) -> np.ndarray:
    """Jacobian of the weighted residual, column-major for einsum's J^T J."""
    jac = np.asarray(problem.jacobian(params), dtype=float, order="F")
    if problem.weights is not None:
        jac = jac / problem.weights[:, None]
    return jac


def _solve(matrix: list, rhs: list, shift=()) -> list | None:
    """x with (matrix + diag(shift)) @ x = rhs, in Python floats, by Gaussian
    elimination with partial pivoting; None when a pivot is exactly zero."""
    n = len(rhs)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for k, s in enumerate(shift):
        rows[k][k] += s
    for k in range(n):
        rows[k:] = sorted(rows[k:], key=lambda row: -abs(row[k]))  # largest pivot first
        head = rows[k]
        if head[k] == 0.0:
            return None
        for row in rows[k + 1:]:
            factor = row[k] / head[k]
            for j in range(k + 1, n + 1):
                row[j] -= factor * head[j]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row, total = rows[k], rows[k][n]
        for j in range(k + 1, n):
            total -= row[j] * x[j]
        x[k] = total / row[k]
    return x


def least_squares(problem: FitProblem, max_iter: int = 200) -> FitResult:
    """Damped Gauss-Newton minimization of the weighted residual sum of squares.

    The step solves (H + lambda*diag(H)) dx = -g, Marquardt's scaled shift,
    so the damping lambda is dimensionless: it starts at ``_INITIAL_DAMPING``
    and a rescaled parameter takes the same steps.  It is multiplied by 10 on
    a rejected step and divided by 10 on an accepted one; accepted steps
    never increase the residual norm.  The
    fit converges, and ``termination`` names the test, when the free gradient
    g = J^T r is below ``_GRAD_TOL`` (``grad_tol``), the cost r^T r reaches
    its rounding floor (``gain_floor``: the undamped Gauss-Newton step, with
    H = J^T J on the free parameters, promises a decrease g^T H^-1 g of at
    most ``_GAIN_FLOOR`` times the cost; a singular or non-finite H skips
    it) or an accepted step is below ``_STEP_TOL`` (``step_tol``).  The
    iteration limit (``max_iter``) and a damping past ``_MAX_DAMPING``
    without decrease (``damping_limit``) return the best point found.
    A parameter on a box bound whose gradient points out of the box is held
    fixed for that step; one that ends on a bound is named in a warning,
    because the Gauss-Newton covariance does not hold there.  Deterministic
    given identical inputs.
    """
    lower, upper = problem.lower_bounds.tolist(), problem.upper_bounds.tolist()
    point = problem.initial_guess.tolist()  # the <= 3x3 algebra below runs in floats
    r = _weighted_residual(problem, problem.initial_guess)
    if len(r) < len(point):
        raise ValueError(
            f"need at least as many data points ({len(r)}) as parameters ({len(point)})"
        )
    cost = float(r @ r)
    warnings: list[str] = []
    damping = _INITIAL_DAMPING
    jac = _jacobian(problem, problem.initial_guess)
    evaluations, jacobians, iterations = 1, 1, 0
    termination = "max_iter"

    for _ in range(max_iter):
        gradient = (jac.T @ r).tolist()
        # A parameter on a bound that the gradient pushes outward is held out
        # of the step, so that clipping does not stall the others beside it.
        free = [i for i, (p, d, lo, hi) in enumerate(zip(point, gradient, lower, upper))
                if not (p == lo and d > 0 or p == hi and d < 0)]
        g = [gradient[i] for i in free]
        if max(map(abs, g), default=0.0) < _GRAD_TOL:
            termination = "grad_tol"
            break
        hessian = np.einsum("ji,jk->ik", jac, jac).tolist()  # half BLAS's time on tall J
        reduced = [[hessian[i][j] for j in free] for i in free]
        solution = _solve(reduced, g)
        gain = math.nan if solution is None else sum(a * b for a, b in zip(g, solution))
        if gain <= _GAIN_FLOOR * cost:
            termination = "gain_floor"
            break
        scale = [h[i] if h[i] > 0 else 1.0 for i, h in enumerate(hessian)]
        while True:
            step = _solve(reduced, [-x for x in g], [damping * scale[i] for i in free])
            if step is None or not all(map(math.isfinite, step)):
                damping *= 10.0
                if damping > _MAX_DAMPING:
                    raise FitError("singular Jacobian at maximal damping")
                continue
            moved = point.copy()
            for i, x in zip(free, step):
                moved[i] = min(max(point[i] + x, lower[i]), upper[i])
            trial = np.array(moved)
            r_trial = _weighted_residual(problem, trial)
            evaluations += 1
            cost_trial = float(r_trial @ r_trial)
            if math.isfinite(cost_trial) and cost_trial <= cost:
                damping = max(damping / 10.0, _MIN_DAMPING)
                break
            damping *= 10.0
            if damping > _MAX_DAMPING:
                termination = "damping_limit"
                warnings.append(
                    "damping limit reached without residual decrease; "
                    "returning best point found"
                )
                break
        if termination == "damping_limit":
            break
        largest = max(abs(b - a) for a, b in zip(point, moved))
        point, r, cost = moved, r_trial, cost_trial
        iterations += 1
        jac = _jacobian(problem, trial)
        jacobians += 1
        if largest < _STEP_TOL * (1.0 + max(map(abs, point))):
            termination = "step_tol"
            break
    else:
        warnings.append(f"iteration limit ({max_iter}) reached")

    for j, (x, lo, hi) in enumerate(zip(point, lower, upper)):
        if x in (lo, hi):
            side = "lower" if x == lo else "upper"
            warnings.append(
                f"parameter {j} ends on its {side} bound ({x:g}); "
                "its covariance is not valid there"
            )
    covariance = _gauss_newton_covariance(jac, cost, len(r), len(point), warnings)
    return FitResult(
        parameters=np.array(point),
        covariance=covariance,
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        converged=termination in ("grad_tol", "gain_floor", "step_tol"),
        termination=termination,
        warnings=warnings,
        residual_evaluations=evaluations,
        jacobian_evaluations=jacobians,
    )


def _gauss_newton_covariance(jac, cost, n_points, n_params, warnings):
    hessian = np.einsum("ji,jk->ik", jac, jac)
    dof = max(n_points - n_params, 1)
    try:
        inv = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(hessian)
        warnings.append("singular Jacobian at the solution; covariance is a pseudo-inverse")
    cov = inv * (cost / dof)
    return 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# Pipeline 1: saturable index-shift law from coupler reflectivity sweeps.


@dataclass
class DeltaNFit:
    """Per-temperature outcome of the reflectivity-sweep pipeline."""

    params: PhotorefractionParams
    delta_n_points: SweepData  # the fitted |dn| at the sweep's powers
    result: FitResult


def fit_delta_n_from_reflectivity(
    sweeps: Mapping[float, SweepData],
    geometries: Mapping[float, CouplerGeometry] | CouplerGeometry,
    probe_wavelength_nm: float = 1550.0,
) -> dict[float, DeltaNFit]:
    """Recover the saturable index-shift law from reflectivity sweeps.

    One forward fit per temperature: the law |dn| = a*P/(b + c*P) gives the
    mismatch delta_beta = 2*pi*|dn|/lambda, the coupled-mode model gives R
    from it, and LM fits R itself, weighted by the sweep's sigma when it has
    one.  The law is invariant under common rescaling of (a, b, c), so
    ``b`` is pinned to ``_GAUGE_B_MW`` and (a, c) are fitted; the physical
    content (initial slope a/b, saturation a/c) is gauge independent.  R is
    flat at zero mismatch, so LM cannot start from a = 0: it starts from the
    cheapest point of a coarse (a, c) scan instead.
    """
    to_beta = 2.0 * math.pi / (probe_wavelength_nm * 1e-6)
    outcomes: dict[float, DeltaNFit] = {}
    for temperature, sweep in sweeps.items():
        geometry = geometries[temperature] if isinstance(geometries, Mapping) else geometries
        if len(sweep) < 4:
            raise ValueError(
                f"{temperature} C sweep has {len(sweep)} points; need at least 4"
            )
        outside = ~((sweep.value >= 0.0) & (sweep.value <= 1.0))
        if np.any(outside):
            i = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"{temperature} C sweep point {i}: reflectivity {float(sweep.value[i])!r} "
                "outside the reachable range of the coupler model"
            )
        result = _fit_sweep(sweep, geometry, to_beta)
        a, c = (float(x) for x in result.parameters)
        powers = sweep.abscissa
        outcomes[temperature] = DeltaNFit(
            params=PhotorefractionParams(a=a, b=_GAUGE_B_MW, c=c),
            delta_n_points=SweepData(powers, a * powers / (_GAUGE_B_MW + c * powers)),
            result=result,
        )
    return outcomes


def _fit_sweep(sweep: SweepData, geometry: CouplerGeometry, to_beta: float) -> FitResult:
    """LM fit of (a, c) to one sweep's R, from the cheapest point of the scan."""
    powers, sigma = sweep.abscissa, sweep.sigma
    k2 = 4.0 * geometry.coupling_constant_per_mm**2
    length = geometry.interaction_length_mm

    def residual(params):
        a, c = params
        delta_beta = to_beta * a * powers / (_GAUGE_B_MW + c * powers)
        return coupler_reflectivity(geometry, delta_beta) - sweep.value

    def jacobian(params):
        # dR/d(delta_beta) = 4k^2*db*sin x*(2 sin x/q^2 - L cos x/q)/q^2,
        # with q^2 = 4k^2 + db^2 and x = L*q/2.
        a, c = params
        shape = powers / (_GAUGE_B_MW + c * powers)
        db = to_beta * a * shape
        q2 = k2 + db * db
        q = np.sqrt(q2)
        x = 0.5 * length * q
        sin, cos = np.sin(x), np.cos(x)
        d_a = k2 * db * sin * (2.0 * sin / q2 - length * cos / q) / q2 * to_beta * shape
        return np.column_stack((d_a, -a * shape * d_a))

    # Bounds keep the fit off the degenerate ridge a, c -> inf at fixed
    # a/c that opens up when the sweep carries no curvature information.
    # The problem refuses a sigma <= 0 before the scan divides by it.
    problem = FitProblem(
        residual=residual,
        jacobian=jacobian,
        initial_guess=np.zeros(2),
        lower_bounds=np.zeros(2),
        upper_bounds=np.array([1.0, 100.0]),
        weights=sigma,
    )
    shape = powers / (_GAUGE_B_MW + _SWEEP_SCAN_C[:, None] * powers)  # (c, P)
    misfit = coupler_reflectivity(geometry, to_beta * _SWEEP_SCAN_A[:, None, None] * shape)
    misfit -= sweep.value
    if sigma is not None:
        misfit /= sigma
    costs = np.einsum("ijk,ijk->ij", misfit, misfit)
    i, j = np.unravel_index(costs.argmin(), costs.shape)
    problem.initial_guess = np.array([_SWEEP_SCAN_A[i], _SWEEP_SCAN_C[j]])
    return least_squares(problem)


# ---------------------------------------------------------------------------
# Pipeline 2: index excursion and build-up time from a cavity trace.


def _count_prominent_extrema(values: np.ndarray, prominence: float) -> int:
    """Number of interior maxima and minima whose prominence is >= ``prominence``.

    Prominence is as in SciPy's ``peak_prominences``: the height of an
    extremum above the higher of the two lowest points reached on either
    side before the signal passes the extremum's level (mirrored for a
    minimum).  A zig-zag with hysteresis counts the same set: an extremum
    is confirmed once the signal reverses from it by at least
    ``prominence``; the first confirmed turn only ends the start-up leg,
    and the final, unconfirmed leg is never counted.  Plateaus count once.
    Unlike SciPy's ``find_peaks``, exact ties count once: two equal-height
    maxima separated by a dip shallower than ``prominence`` are one
    extremum here and two there.  Only the turning points reach the
    Python loop.
    """
    x = np.asarray(values, dtype=float)
    if len(x) < 3:
        return 0
    x = x[np.concatenate(([True], np.diff(x) != 0))]
    steps = np.diff(x)
    turning = np.flatnonzero(steps[:-1] * steps[1:] < 0) + 1
    points = np.concatenate((x[:1], x[turning], x[-1:])).tolist()
    high = low = points[0]
    rising = None  # unknown until the first reversal by the prominence
    confirmed = 0
    for v in points:
        if rising is not True and v - low >= prominence:
            confirmed += 1
            rising, high = True, v
        elif rising is not False and high - v >= prominence:
            confirmed += 1
            rising, low = False, v
        elif v > high:
            high = v
        elif v < low:
            low = v
    return max(confirmed - 1, 0)


def estimate_delta_n_from_oscillations(trace: Trace) -> int:
    """Count prominent interior extrema of the trace; each is a half-oscillation.

    A half-oscillation of the cavity transmission corresponds to an index
    step of lambda/(4L), so the count gives |dn_total| to within one
    half-period quantum.  The trace is lightly smoothed first, and only
    extrema with a prominence of at least 15 % of the smoothed range count,
    so that detector noise does not masquerade as oscillations.
    """
    values = trace.value
    window = max(len(values) // 64, 1)
    if window > 1:
        kernel = np.full(window, 1.0 / window)
        values = np.convolve(values, kernel, mode="valid")
    prominence = 0.15 * (values.max() - values.min())
    return 0 if prominence == 0 else _count_prominent_extrema(values, prominence)


def _basin_starts(costs: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of at most ``count`` local minima of a (dn_total, tau, phi0) grid.

    A point is a minimum when no (tau, phi0) neighbour in its dn_total slice
    costs less: eight neighbours, phi0 wrapping around (the model has period pi)
    and tau not.  NaN costs count as +inf.  The minima come by cost, then index.
    """
    finite = np.where(np.isnan(costs), np.inf, costs)
    padded = np.pad(finite, ((0, 0), (1, 1), (0, 0)), constant_values=np.inf)
    padded = np.pad(padded, ((0, 0), (0, 0), (1, 1)), mode="wrap")
    n_tau, n_phi = costs.shape[1:]
    minimum = np.ones(costs.shape, dtype=bool)
    for j in range(3):
        for k in range(3):
            if (j, k) != (1, 1):
                minimum &= finite <= padded[:, j:j + n_tau, k:k + n_phi]
    index = np.flatnonzero(minimum)
    return index[np.argsort(finite.ravel()[index], kind="stable")[:count]]


def _trace_model(params, elapsed, coefficient, phase_scale):
    """(decay, rise, tan psi, transmission) of the pump-on trace model, as fresh arrays.

    decay = exp(-elapsed/tau), rise = 1 - decay, psi = phi0 + phase_scale*dn_total*rise
    and the transmission T/T_max = 1/(1 + F*sin^2 psi).  T at psi is
    (1 + q)/(1 + (1 + F) q) = 1/(1 + F) + F/(1 + F)^2/(q + 1/(1 + F)), q = tan^2 psi.
    """
    dn_total, tau, phi0 = params
    decay = np.exp(elapsed / -tau)
    rise = 1.0 - decay
    tangent = np.tan(rise * dn_total * phase_scale + phi0)
    lowest = 1.0 / (1.0 + coefficient)  # T at psi = pi/2
    transmission = coefficient * lowest * lowest / (np.square(tangent) + lowest) + lowest
    return decay, rise, tangent, transmission


@dataclass
class FpiTraceFit:
    """Recovered transient parameters of a pump-on cavity trace."""

    delta_n_total: float  # signed, <= 0 by convention
    tau_build_s: float
    phase_offset_rad: float
    result: FitResult


def fit_fpi_trace(
    trace: Trace,
    cavity: FpiCavity,
    probe_wavelength_nm: float,
    temperature_c: float | None = None,
    pump_on_time_s: float | None = None,
) -> FpiTraceFit:
    """Fit the pump-on transient of a cavity transmission trace, taken as T/T_max.

    The model is a first-order index relaxation driving the Airy
    transmission: dn(t) = dn_total*(1 - exp(-(t - t0)/tau)) inside
    T(phi0 + 2*pi*L*dn/lambda)/T_max, so the pre-pump level fixes phi0 up to
    phi0 -> pi - phi0, which the sign of dn_total (<= 0) and the trace's
    first slope resolve.  The model has period pi in phi0, which is
    reported in [0, pi).

    The cavity phase at pump-on is not known a priori, so the starts come
    from a scan: the cost over a (dn_total, tau, phi0) grid around the
    fringe-count estimate, on the trace thinned to about 128 samples.  LM
    descends from the grid's basins (see ``_basin_starts``) in order of
    rising cost, at most ``_MAX_DESCENTS`` times, and keeps the best fit; it
    stops at the first fit whose reduced chi-square reaches the noise floor
    estimated from the trace's second differences.  The result's evaluation
    counts are the totals over all descents.  The model is evaluated once per
    LM point: the Jacobian reuses what the residual computed at the point LM
    accepted.

    Two outcomes are flagged unconverged, with a warning: no descent
    reaching 1.5 times the noise floor (the scan missed the basin; the
    warning gives the ratio), and a fitted excursion below lambda/(8L),
    where no transmission oscillation is resolved and the returned
    magnitude is only a bound.

    ``temperature_c`` is unused: the fitted phi0 absorbs n_eff(T).  It is
    kept so that calls passing it by position still work.
    """
    reflectivity = cavity.reflectivity_at(probe_wavelength_nm)
    coefficient, _ = finesse(reflectivity, reflectivity)
    if coefficient == 0 or cavity.angled_facets:
        raise ValueError("trace fitting needs a resonant cavity (finite finesse)")
    t, y = trace.time_s, trace.value
    if len(t) < 8:
        raise ValueError("trace too short to fit")
    t0 = float(t[0]) if pump_on_time_s is None else float(pump_on_time_s)
    span = float(t[-1] - t0)
    if span <= 0:
        raise ValueError("trace must extend beyond the pump-on time")
    phase_scale = 2.0 * math.pi * cavity.length_mm * 1e6 / probe_wavelength_nm
    elapsed = np.clip(t - t0, 0.0, None)

    last: dict[bytes, tuple] = {}  # the model at the last point evaluated

    def model(params):
        key = params.tobytes()
        if key not in last:
            last.clear()
            last[key] = _trace_model(params, elapsed, coefficient, phase_scale)
        return last[key]

    def residual(params):
        return model(params)[3] - y

    def jacobian(params):
        # dT/dpsi = -F*sin(2*psi)*T^2, with sin(2*psi) = 2t/(1 + t^2) at t = tan psi;
        # it is also the phi0 column.  The stack's transpose is column-major.
        dn_total, tau, _ = params
        decay, rise, tangent, transmission = model(params)
        slope = tangent / (np.square(tangent) + 1.0) * (-2.0 * coefficient) * np.square(transmission)
        d_dn = slope * phase_scale * rise
        d_tau = slope * (decay * (-phase_scale * dn_total) * elapsed / tau**2)
        return np.array([d_dn, d_tau, slope]).T

    quantum = probe_wavelength_nm / (4.0 * cavity.length_mm * 1e6)
    dn_start = -(estimate_delta_n_from_oscillations(trace) + 0.5) * quantum
    lower = np.array([-5e-3, span * 1e-4, -2.0 * math.pi])
    upper = np.array([0.0, span * 1e2, 2.0 * math.pi])

    # Scan: the cost over a (dn_total, tau, phi0) grid, on a thinned copy of
    # the trace.  1 + F*sin^2(phi0 + a) is linear in (1, cos 2a, sin 2a), so
    # one matrix product per dn_total value gives the model's denominator
    # over the whole (phi0, tau, t) slice.  The pre-pump samples have a = 0
    # at every (dn_total, tau): their share depends on phi0 alone and is
    # summed once, before the slices add the pumped samples' share.
    stride = max(len(t) // 128, 1)
    elapsed_thin, y_thin = elapsed[::stride], y[::stride]
    dn_grid = np.clip(dn_start + quantum * np.linspace(-1.5, 1.5, 13), lower[0], upper[0])
    dn_grid = dn_grid[np.diff(dn_grid, prepend=-np.inf) > 0]  # clipping repeats a bound
    tau_grid = span * np.geomspace(1e-2, 1.0, 12)
    phi_grid = np.linspace(0.0, math.pi, 32, endpoint=False)
    half = 0.5 * coefficient
    mix = np.column_stack((
        np.full(len(phi_grid), 1.0 + half),
        -half * np.cos(2.0 * phi_grid),
        half * np.sin(2.0 * phi_grid),
    ))
    pumped = elapsed_thin > 0.0
    y_prepump, y_pumped = y_thin[~pumped], y_thin[pumped]
    level = 1.0 / (mix[:, 0] + mix[:, 1])  # the model at a = 0, per phi0
    costs = np.empty((len(dn_grid), len(tau_grid), len(phi_grid)))
    costs[...] = level * (len(y_prepump) * level - 2.0 * y_prepump.sum()) + y_thin @ y_thin
    rise = 1.0 - np.exp(-elapsed_thin[pumped] / tau_grid[:, None])  # (tau, t)
    inverse = np.empty((len(phi_grid), rise.size))  # (phi0, (tau, t)), reused
    samples = inverse.reshape(len(phi_grid) * len(tau_grid), -1)  # one row per (phi0, tau)
    rise = rise.ravel()
    # (1, cos 2a, sin 2a) at a = phase_scale*dn_total*rise and a scratch row, reused:
    # from u = tan a, cos 2a = (1 - u^2)/(1 + u^2) and sin 2a = 2u/(1 + u^2).
    basis = np.empty((4, len(rise)))
    basis[0] = 1.0
    cosine, sine, scratch = basis[1:]
    for i, dn_total in enumerate(dn_grid):
        np.tan(np.multiply(rise, phase_scale * dn_total, out=sine), out=sine)
        np.subtract(1.0, np.square(sine, out=scratch), out=cosine)
        scratch += 1.0
        cosine /= scratch
        np.divide(np.multiply(sine, 2.0, out=sine), scratch, out=sine)
        np.reciprocal(np.matmul(mix, basis[:3], out=inverse), out=inverse)
        # sum((inverse - y)^2), expanded so that no model array is formed
        squares = np.einsum("ij,ij->i", samples, samples)
        costs[i] += (squares - 2.0 * (samples @ y_pumped)).reshape(len(phi_grid), -1).T

    # Noise variance from second differences (white noise of variance s^2
    # gives them variance 6 s^2), over evenly spaced samples only, so that a
    # gap left by samples absent from the trace does not count as curvature.
    even = abs(np.diff(t, 2)) <= 1e-6 * abs(np.diff(t)[:-1])
    second = np.diff(y, 2)[even]
    noise_variance = float(np.mean(second**2)) / 6.0 if len(second) else 0.0

    floor = 1.5 * noise_variance
    best: FitResult | None = None
    residual_evaluations = jacobian_evaluations = 0
    for index in _basin_starts(costs, _MAX_DESCENTS):
        i, j, k = np.unravel_index(index, costs.shape)
        problem = FitProblem(
            residual=residual,
            initial_guess=np.array([dn_grid[i], tau_grid[j], phi_grid[k]]),
            lower_bounds=lower,
            upper_bounds=upper,
            jacobian=jacobian,
        )
        candidate = least_squares(problem)
        residual_evaluations += candidate.residual_evaluations
        jacobian_evaluations += candidate.jacobian_evaluations
        if best is None or candidate.residual_norm < best.residual_norm:
            best = candidate
        if candidate.residual_norm**2 / (len(t) - 3) <= floor:
            break

    best.residual_evaluations = residual_evaluations
    best.jacobian_evaluations = jacobian_evaluations
    reduced_chi_square = best.residual_norm**2 / (len(t) - 3)
    if reduced_chi_square > floor:
        ratio = reduced_chi_square / noise_variance if noise_variance > 0 else math.inf
        best.converged = False
        best.warnings.append(
            f"no descent reached the noise floor: the best reduced chi-square is "
            f"{ratio:.3g} times the noise variance (limit 1.5); the start scan "
            "may have missed the basin"
        )
    # Descents that end pi apart are one fit.  x % pi is pi for a tiny x < 0.
    phi0 = float(best.parameters[2]) % math.pi
    best.parameters[2] = phi0 = 0.0 if phi0 == math.pi else phi0
    dn_total, tau = best.parameters[:2]
    if abs(dn_total) < quantum / 2.0:
        best.converged = False
        best.warnings.append(
            "no transmission oscillation detected: |dn_total| below lambda/(8L); "
            "the value is an upper-bound estimate"
        )
    return FpiTraceFit(
        delta_n_total=float(dn_total),
        tau_build_s=float(tau),
        phase_offset_rad=float(phi0),
        result=best,
    )
