"""Damped nonlinear least squares and the prebuilt fitting pipelines.

The engine is a deterministic Levenberg-Marquardt loop (multiply/divide the
damping by 10 on reject/accept) with box constraints and the problem's
analytic Jacobian.  It stops once the undamped Gauss-Newton step promises a
decrease of at most 1e-14 of the cost, which rounding hides.  On top of it
sit two pipelines: recovering the saturable index-shift law from coupler
reflectivity sweeps, and recovering the total index excursion and build-up
time from a cavity transmission trace.  The sweep fit inverts
R = 1 - (kL*sin(x)/x)^2, x = L*sqrt(4k^2 + delta_beta^2)/2, on the branch
that ends at the first stationary point above x = kL (sin x = 0 or
tan x = x), in one bisection over all points.  The trace fit scans a start grid in one broadcast cost
evaluation, then descends from the cheapest grid points until a fit
reaches the trace's noise floor, and flags the fit when none does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

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
    "ReflectivityBranch",
    "first_monotone_branch",
    "invert_reflectivity",
    "DeltaNFit",
    "fit_delta_n_from_reflectivity",
    "estimate_delta_n_from_oscillations",
    "FpiTraceFit",
    "fit_fpi_trace",
]

_MAX_DAMPING = 1e14
_MIN_DAMPING = 1e-16
_STEP_TOL = 1e-10  # accepted step, relative to 1 + max |parameter|
_GRAD_TOL = 1e-10  # largest free gradient component
_GAIN_FLOOR = 1e-14  # Gauss-Newton gain, relative to the cost, that rounding hides
_MAX_DESCENTS = 16  # LM descents per trace fit
_BISECT_TOL = 1e-13  # bracket width, relative to max(1, upper end)
_GAUGE_B_MW = 10.0  # b of the saturable law, pinned (only a/b and a/c are identifiable)


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
    scaled by the reduced chi-square; ``residual_history`` records the
    accepted residual norms, starting from the initial point.
    ``residual_evaluations`` counts calls of the problem's residual and
    ``jacobian_evaluations`` calls of its Jacobian.  ``termination`` names
    the test that stopped the run (see ``least_squares``).
    """

    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    termination: str
    warnings: list[str] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
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


def least_squares(problem: FitProblem, max_iter: int = 200) -> FitResult:
    """Damped Gauss-Newton minimization of the weighted residual sum of squares.

    The damping is multiplied by 10 on a rejected step and divided by 10 on
    an accepted one; accepted steps never increase the residual norm.  The
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
    lower, upper = problem.lower_bounds, problem.upper_bounds
    params = problem.initial_guess.copy()
    r = _weighted_residual(problem, params)
    if len(r) < len(params):
        raise ValueError(
            f"need at least as many data points ({len(r)}) as parameters ({len(params)})"
        )
    cost = float(r @ r)
    history = [math.sqrt(cost)]
    warnings: list[str] = []
    damping: float | None = None
    jac = _jacobian(problem, params)
    evaluations, jacobians = 1, 1
    iterations = 0
    termination = "max_iter"

    for _ in range(max_iter):
        gradient = jac.T @ r
        # A parameter on a bound that the gradient pushes outward is held out
        # of the step, so that clipping does not stall the others beside it.
        free = ~((params == lower) & (gradient > 0) | (params == upper) & (gradient < 0))
        every = free.all()
        g = gradient if every else gradient[free]
        if abs(g).max(initial=0.0) < _GRAD_TOL:
            termination = "grad_tol"
            break
        hessian = np.einsum("ji,jk->ik", jac, jac)  # half BLAS's time on tall J
        reduced = hessian if every else hessian[free][:, free]
        try:
            gain = float(g @ np.linalg.solve(reduced, g))
        except np.linalg.LinAlgError:
            gain = math.nan
        if gain <= _GAIN_FLOOR * cost:
            termination = "gain_floor"
            break
        diag = hessian.diagonal()
        scale = np.where(diag > 0, diag, 1.0)
        if damping is None:
            damping = 1e-6 * float(scale.max())
        weight = np.diag(scale if every else scale[free])
        while True:
            try:
                step = np.linalg.solve(reduced + damping * weight, -g)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.isfinite(step).all():
                damping *= 10.0
                if damping > _MAX_DAMPING:
                    raise FitError("singular Jacobian at maximal damping")
                continue
            trial = params.copy()
            trial[free] += step
            np.minimum(np.maximum(trial, lower, out=trial), upper, out=trial)
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
        moved = abs(trial - params).max()
        params = trial
        r = r_trial
        cost = cost_trial
        iterations += 1
        history.append(math.sqrt(cost))
        jac = _jacobian(problem, params)
        jacobians += 1
        if moved < _STEP_TOL * (1.0 + abs(params).max()):
            termination = "step_tol"
            break
    else:
        warnings.append(f"iteration limit ({max_iter}) reached")

    for j in np.flatnonzero((params == lower) | (params == upper)):
        side = "lower" if params[j] == lower[j] else "upper"
        warnings.append(
            f"parameter {j} ends on its {side} bound ({params[j]:g}); "
            "its covariance is not valid there"
        )
    covariance = _gauss_newton_covariance(jac, cost, len(r), len(params), warnings)
    return FitResult(
        parameters=params,
        covariance=covariance,
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        converged=termination in ("grad_tol", "gain_floor", "step_tol"),
        termination=termination,
        warnings=warnings,
        residual_history=history,
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


class ReflectivityBranch(NamedTuple):
    """First monotone interval of R(delta_beta) starting at delta_beta = 0."""

    delta_beta_max: float
    r_start: float
    r_end: float
    increasing: bool


def _bisect(f, lo, hi):
    """Zeros of the increasing ``f``, elementwise, by bisection.

    Each bracket [lo, hi] must hold its zero.  All brackets are halved
    together, one call of ``f`` on the midpoints per halving, until each is
    at most ``_BISECT_TOL * max(1, hi)`` wide; a midpoint where ``f`` is 0
    closes its bracket.
    """
    while np.any(hi - lo > _BISECT_TOL * np.maximum(1.0, hi)):
        mid = 0.5 * (lo + hi)
        value = f(mid)
        lo, hi = np.where(value > 0, lo, mid), np.where(value < 0, hi, mid)
    return 0.5 * (lo + hi)


def first_monotone_branch(geometry: CouplerGeometry) -> ReflectivityBranch:
    """The monotone interval of R(|delta_beta|) that starts at zero mismatch.

    With x = L*sqrt(4k^2 + delta_beta^2)/2, which rises from x0 = kL,
    R = 1 - (x0*sin(x)/x)^2.  R is stationary only where sin x = 0 (a
    maximum, R = 1) or tan x = x (a minimum; one root in each
    (m*pi, (m + 1/2)*pi) for m >= 1).  The branch ends at the first of these
    above x0: with x0 in [m*pi, (m + 1)*pi), it falls to the tan x = x root
    of that period when x0 lies before it, and rises to (m + 1)*pi
    otherwise.  Then delta_beta_max = (2/L)*sqrt(x^2 - x0^2).
    """
    length = geometry.interaction_length_mm
    x0 = geometry.coupling_constant_per_mm * length
    m = math.floor(x0 / math.pi)
    if (m + 1) * math.pi <= x0:  # x0/pi rounded down across an integer
        m += 1
    x_end, increasing = (m + 1) * math.pi, True
    if m >= 1:
        root = float(_bisect(lambda x: np.tan(x) - x, m * math.pi, (m + 0.5) * math.pi))
        if x0 < root:
            x_end, increasing = root, False
    delta_beta_max = 2.0 / length * math.sqrt(x_end**2 - x0**2)
    return ReflectivityBranch(
        delta_beta_max,
        coupler_reflectivity(geometry, 0.0),
        coupler_reflectivity(geometry, delta_beta_max),
        increasing,
    )


def invert_reflectivity(
    geometry: CouplerGeometry, reflectivity, branch: ReflectivityBranch | None = None
):
    """|delta_beta| whose reflectivity matches, on the first monotone branch.

    Takes a scalar (and returns a float) or an array, which one bisection
    inverts point for point.  Raises when a value cannot be reached on the
    branch.  The branch's end values invert exactly to 0 and
    ``delta_beta_max``.
    """
    r = np.asarray(reflectivity, dtype=float)
    outside = ~((r >= 0.0) & (r <= 1.0))
    if np.any(outside):
        raise ValueError(f"reflectivity {float(r[outside].flat[0])!r} outside [0, 1]")
    if branch is None:
        branch = first_monotone_branch(geometry)
    lo_val, hi_val = sorted((branch.r_start, branch.r_end))
    unreachable = (r < lo_val - 1e-12) | (r > hi_val + 1e-12)
    if np.any(unreachable):
        raise ValueError(
            f"reflectivity {float(r[unreachable].flat[0])!r} unreachable on the first "
            f"monotone branch [{lo_val:.6f}, {hi_val:.6f}]"
        )
    r = np.clip(r, lo_val, hi_val)
    sign = 1.0 if branch.increasing else -1.0
    db = _bisect(
        lambda db: sign * (coupler_reflectivity(geometry, db) - r),
        np.where(r == branch.r_end, branch.delta_beta_max, 0.0),
        np.where(r == branch.r_start, 0.0, branch.delta_beta_max),
    )
    return float(db) if np.isscalar(reflectivity) else db


@dataclass
class DeltaNFit:
    """Per-temperature outcome of the reflectivity-sweep pipeline."""

    params: PhotorefractionParams
    delta_n_points: SweepData  # per-point |dn| inferred from the sweep
    result: FitResult
    excluded_indices: list[int]
    warnings: list[str]


def fit_delta_n_from_reflectivity(
    sweeps: Mapping[float, SweepData],
    geometries: Mapping[float, CouplerGeometry] | CouplerGeometry,
    probe_wavelength_nm: float = 1550.0,
) -> dict[float, DeltaNFit]:
    """Recover the saturable index-shift law from reflectivity sweeps.

    Two stages per temperature: (i) invert the coupled-mode reflectivity
    of every point for |delta_beta| on the branch continuous from zero
    mismatch, converting to |dn| = lambda*|delta_beta|/(2*pi); (ii) fit the
    (P, |dn|) cloud with the saturable law.

    The law a*P/(b + c*P) is invariant under common rescaling of (a, b, c),
    so ``b`` is pinned to ``_GAUGE_B_MW`` and (a, c) are fitted; the
    physical content (initial slope a/b, saturation a/c) is gauge
    independent.  Points whose reflectivity falls beyond the first monotone
    branch are excluded with a warning record.
    """
    lam_mm = probe_wavelength_nm * 1e-6
    outcomes: dict[float, DeltaNFit] = {}
    for temperature, sweep in sweeps.items():
        geometry = geometries[temperature] if isinstance(geometries, Mapping) else geometries
        if len(sweep) < 4:
            raise ValueError(
                f"{temperature} C sweep has {len(sweep)} points; need at least 4"
            )
        branch = first_monotone_branch(geometry)
        r_obs = sweep.value
        outside = ~((r_obs >= 0.0) & (r_obs <= 1.0))
        if np.any(outside):
            i = int(np.flatnonzero(outside)[0])
            raise ValueError(
                f"{temperature} C sweep point {i}: reflectivity {float(r_obs[i])!r} "
                "outside the reachable range of the coupler model"
            )
        # Noise can push a point behind the zero-mismatch value, where no
        # |delta_beta| exists; such points are physically delta_beta ~ 0.
        sign = 1.0 if branch.increasing else -1.0
        behind = sign * (r_obs - branch.r_start) < 0
        beyond = ~behind & (sign * (r_obs - branch.r_end) > 0)
        warnings = [
            f"point {i} (P = {sweep.abscissa[i]} mW, R = {r_obs[i]:.6f}) "
            + ("behind the zero-mismatch reflectivity; clamped to |dn| = 0"
               if behind[i] else
               "beyond the first monotone branch; excluded (branch ambiguity)")
            for i in np.flatnonzero(behind | beyond)
        ]
        excluded = np.flatnonzero(beyond).tolist()
        keep = ~beyond
        if np.count_nonzero(keep) < 4:
            raise ValueError(
                f"{temperature} C sweep: fewer than 4 usable points after branch checks"
            )
        powers_arr = sweep.abscissa[keep]
        db = invert_reflectivity(
            geometry, np.where(behind, branch.r_start, r_obs)[keep], branch
        )
        dn_arr = db * lam_mm / (2.0 * math.pi)
        sigmas = None
        if sweep.sigma is not None:
            # Propagate the reflectivity uncertainty through the inversion:
            # sigma_dn = sigma_R / |dR/ddb| * lam/(2*pi).
            h = 1e-6
            below = np.maximum(db - h, 0.0)
            slope = (
                coupler_reflectivity(geometry, db + h) - coupler_reflectivity(geometry, below)
            ) / (db + h - below)
            slope = np.maximum(np.abs(slope), 1e-6)
            sigmas = sweep.sigma[keep] / slope * lam_mm / (2.0 * math.pi)
        # Non-dimensionalize: index shifts are ~1e-4 while the engine
        # tolerances are absolute, so fit a/scale against dn/scale.
        scale = float(np.max(dn_arr)) or 1.0

        def residual(params, p=powers_arr):
            a_scaled, c = params
            return a_scaled * p / (_GAUGE_B_MW + c * p) - dn_arr / scale

        def jacobian(params, p=powers_arr):
            a_scaled, c = params
            shape = p / (_GAUGE_B_MW + c * p)
            return np.column_stack((shape, -a_scaled * shape * shape))

        positive = powers_arr > 0
        slope0 = (
            float(np.sum(dn_arr[positive] * powers_arr[positive])
                  / np.sum(powers_arr[positive] ** 2))
            if np.any(positive)
            else 0.0
        )
        # Bounds keep the fit off the degenerate ridge a, c -> inf at fixed
        # a/c that opens up when the sweep carries no curvature information.
        problem = FitProblem(
            residual=residual,
            initial_guess=np.array([max(slope0 * _GAUGE_B_MW / scale, 1e-9), 0.0]),
            lower_bounds=np.array([0.0, 0.0]),
            upper_bounds=np.array([1.0 / scale, 100.0]),
            weights=None if sigmas is None else sigmas / scale,
            jacobian=jacobian,
        )
        result = least_squares(problem)
        a_fit = result.parameters[0] * scale
        c_fit = result.parameters[1]
        result.parameters = np.array([a_fit, c_fit])
        result.covariance = result.covariance * np.array(
            [[scale * scale, scale], [scale, 1.0]]
        )
        params = PhotorefractionParams(
            a=float(a_fit), b=_GAUGE_B_MW, c=float(c_fit), temperature_c=temperature
        )
        result.warnings.extend(warnings)
        outcomes[temperature] = DeltaNFit(
            params=params,
            delta_n_points=SweepData(powers_arr, dn_arr),
            result=result,
            excluded_indices=excluded,
            warnings=warnings,
        )
    return outcomes


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
    _, values = trace.unmasked()
    window = max(len(values) // 64, 1)
    if window > 1:
        kernel = np.full(window, 1.0 / window)
        values = np.convolve(values, kernel, mode="valid")
    prominence = 0.15 * (values.max() - values.min())
    return 0 if prominence == 0 else _count_prominent_extrema(values, prominence)


def _cheapest(costs: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the ``count`` smallest costs, by cost and then index.

    The head of ``np.argsort(costs, axis=None, kind="stable")``, from a
    partition and a sort of the few costs at or below the count-th smallest.
    NaN costs sort last, as there.
    """
    flat = costs.ravel()
    count = min(count, flat.size)
    threshold = flat[np.argpartition(flat, count - 1)[count - 1]]
    candidates = np.flatnonzero(~(flat > threshold))
    return candidates[np.argsort(flat[candidates], kind="stable")[:count]]


def _trace_model(params, elapsed, coefficient, phase_scale, work):
    """(decay, rise, psi, transmission, reference) of the pump-on trace model.

    decay = exp(-elapsed/tau), rise = 1 - decay, psi = phi0 + phase_scale*dn_total*rise
    and the Airy T(x) = 1/(1 + F*sin^2 x) at psi (transmission) and at phi0
    (reference); the arrays are the rows of ``work``, overwritten in place.
    """
    dn_total, tau, phi0 = params
    decay, rise, psi, transmission = work
    np.exp(np.divide(elapsed, -tau, out=decay), out=decay)
    np.subtract(1.0, decay, out=rise)
    np.multiply(rise, dn_total, out=psi)
    psi *= phase_scale
    psi += phi0
    np.square(np.sin(psi, out=transmission), out=transmission)
    transmission *= coefficient
    transmission += 1.0
    np.divide(1.0, transmission, out=transmission)
    reference = 1.0 / (1.0 + coefficient * math.sin(phi0) ** 2)
    return decay, rise, psi, transmission, reference


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
    """Fit the pump-on transient of a normalized cavity transmission trace.

    The model is a first-order index relaxation driving the Airy
    transmission: dn(t) = dn_total*(1 - exp(-(t - t0)/tau)) inside
    T(phi0 + 2*pi*L*dn/lambda), normalized to the pre-pump value.  Masked
    trace samples are ignored.  The model has period pi in phi0, which is
    reported in [0, pi).

    The cavity phase at pump-on is not known a priori, so the starts come
    from a scan: the cost over a (dn_total, tau, phi0) grid around the
    fringe-count estimate, on the trace thinned to about 128 samples.  LM
    descends from the grid points in order of rising cost, at most
    ``_MAX_DESCENTS`` times, and keeps the best fit; it stops at the first
    fit whose reduced chi-square reaches the noise floor estimated from the
    trace's second differences.  The result's evaluation counts are the
    totals over all descents.  The model is evaluated once per LM point: the
    Jacobian reuses what the residual computed at the point LM accepted.

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
    t, y = trace.unmasked()
    if len(t) < 8:
        raise ValueError("trace too short to fit")
    t0 = float(t[0]) if pump_on_time_s is None else float(pump_on_time_s)
    span = float(t[-1] - t0)
    if span <= 0:
        raise ValueError("trace must extend beyond the pump-on time")
    phase_scale = 2.0 * math.pi * cavity.length_mm * 1e6 / probe_wavelength_nm
    elapsed = np.clip(t - t0, 0.0, None)

    work, rows, columns = np.empty((4, len(t))), np.empty((2, len(t))), np.empty((3, len(t)))
    last: dict[bytes, tuple] = {}  # the point whose model ``work`` holds

    def model(params):
        key = params.tobytes()
        if key not in last:
            last.clear()
            last[key] = _trace_model(params, elapsed, coefficient, phase_scale, work)
        return last[key]

    def residual(params):
        _, _, _, transmission, reference = model(params)
        return transmission / reference - y

    def jacobian(params):
        # dT/dpsi = -F*sin(2*psi)*T^2 at psi = phi0 + phase_scale*dn(t); the
        # reference T(phi0) adds T*F*sin(2*phi0) to the phi0 column.
        dn_total, tau, phi0 = params
        decay, rise, psi, transmission, reference = model(params)
        slope, scratch = rows
        np.sin(np.multiply(psi, 2.0, out=slope), out=slope)
        slope *= -coefficient
        slope *= np.square(transmission, out=scratch)
        slope /= reference
        np.multiply(np.multiply(slope, phase_scale, out=scratch), rise, out=columns[0])
        np.multiply(decay, -phase_scale * dn_total, out=scratch)
        scratch *= elapsed
        scratch /= tau**2
        np.multiply(slope, scratch, out=columns[1])
        np.multiply(transmission, coefficient, out=scratch)
        scratch *= math.sin(2.0 * phi0)
        np.add(slope, scratch, out=columns[2])
        return columns.T

    quantum = probe_wavelength_nm / (4.0 * cavity.length_mm * 1e6)
    dn_start = -(estimate_delta_n_from_oscillations(trace) + 0.5) * quantum
    lower = np.array([-5e-3, span * 1e-4, -2.0 * math.pi])
    upper = np.array([0.0, span * 1e2, 2.0 * math.pi])

    # Scan: the cost over a (dn_total, tau, phi0) grid, on a thinned copy of
    # the trace.  1 + F*sin^2(phi0 + a) is linear in (1, cos 2a, sin 2a), so
    # one matrix product per dn_total value gives the model's denominator
    # over the whole (phi0, tau, t) slice.
    stride = max(len(t) // 128, 1)
    elapsed_thin, y_thin = elapsed[::stride], y[::stride]
    dn_grid = np.clip(dn_start + quantum * np.linspace(-1.5, 1.5, 13), lower[0], upper[0])
    dn_grid = dn_grid[np.diff(dn_grid, prepend=-np.inf) > 0]  # clipping repeats a bound
    tau_grid = span * np.geomspace(1e-2, 1.0, 12)
    phi_grid = np.linspace(0.0, math.pi, 32, endpoint=False)
    rise = 1.0 - np.exp(-elapsed_thin / tau_grid[:, None])  # (tau, t)
    half = 0.5 * coefficient
    mix = np.column_stack((
        np.full(len(phi_grid), 1.0 + half),
        -half * np.cos(2.0 * phi_grid),
        half * np.sin(2.0 * phi_grid),
    ))
    norm = (1.0 + coefficient * np.sin(phi_grid) ** 2)[:, None]  # 1 / T(phi0)
    costs = np.empty((len(dn_grid), len(tau_grid), len(phi_grid)))
    inverse = np.empty((len(phi_grid), rise.size))  # (phi0, (tau, t)), reused
    samples = inverse.reshape(-1, len(y_thin))  # one row per (phi0, tau)
    rise = rise.ravel()
    basis = np.empty((3, len(rise)))  # (1, cos, sin) of the angle, reused
    basis[0] = 1.0
    for i, dn_total in enumerate(dn_grid):
        angle = np.multiply(rise, 2.0 * phase_scale * dn_total, out=basis[2])
        np.cos(angle, out=basis[1])
        np.sin(angle, out=basis[2])
        np.reciprocal(np.matmul(mix, basis, out=inverse), out=inverse)
        # sum((norm*inverse - y)^2), expanded so that no model array is formed
        squares = np.einsum("ij,ij->i", samples, samples).reshape(len(phi_grid), -1)
        costs[i] = (norm * (norm * squares - 2.0 * (samples @ y_thin).reshape(squares.shape))).T
    costs += y_thin @ y_thin

    # Noise variance from second differences (white noise of variance s^2
    # gives them variance 6 s^2), over evenly spaced samples only, so that a
    # masked gap does not count as curvature.
    even = abs(np.diff(t, 2)) <= 1e-6 * abs(np.diff(t)[:-1])
    second = np.diff(y, 2)[even]
    noise_variance = float(np.mean(second**2)) / 6.0 if len(second) else 0.0

    floor = 1.5 * noise_variance
    best: FitResult | None = None
    residual_evaluations = jacobian_evaluations = 0
    for index in _cheapest(costs, _MAX_DESCENTS):
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
