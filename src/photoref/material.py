"""Refractive-index dispersion and the pump-induced photorefractive index shift.

The dispersion backbone is the temperature-dependent Sellmeier equation for
the extraordinary index of congruent LiNbO3 from D. H. Jundt, Opt. Lett. 22,
1553 (1997).  Guided modes are represented by an additive effective-index
offset on top of the bulk curve, calibrated against measured values.

The photorefractive shift follows a saturable law

    dn_ss(P) = -a * P / (b + c * P)      (dn <= 0 for all P >= 0)

with first-order relaxation dynamics between three regimes: build-up under
pump light, slow dark decay, and accelerated decay under erasing
illumination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "SellmeierCoefficients",
    "JUNDT_CLN_EXTRAORDINARY",
    "WAVELENGTH_RANGE_NM",
    "TEMPERATURE_RANGE_C",
    "MaterialModel",
    "refractive_index",
    "PhotorefractionParams",
    "delta_n_steady",
    "PumpSegment",
    "PumpSchedule",
    "delta_n_temporal",
    "DEFAULT_MODE_TARGETS",
    "DEFAULT_PHOTOREFRACTION",
]

# Validated range of the dispersion model.
WAVELENGTH_RANGE_NM = (400.0, 2000.0)
TEMPERATURE_RANGE_C = (20.0, 200.0)


@dataclass(frozen=True)
class SellmeierCoefficients:
    """Coefficients of a temperature-dependent Sellmeier equation.

    n^2 = a1 + b1*f + (a2 + b2*f) / (lam^2 - (a3 + b3*f)^2)
            + (a4 + b4*f) / (lam^2 - a5^2) - a6*lam^2

    with lam in micrometres and the temperature parameter
    f = (T - t_low) * (T + t_high), T in degrees Celsius.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    b1: float
    b2: float
    b3: float
    b4: float
    t_low: float
    t_high: float

    def __post_init__(self):
        # A real, finite index on a grid over the validated range: otherwise
        # every mode offset calibrated from these coefficients is NaN.
        wavelengths = np.linspace(*WAVELENGTH_RANGE_NM, 33)
        temperatures = np.linspace(*TEMPERATURE_RANGE_C, 10)[:, None]
        with np.errstate(all="ignore"):
            n = self.index(wavelengths, temperatures)
        bad = np.argwhere(~(np.isfinite(n) & (n > 0)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"no real refractive index at {wavelengths[j]:g} nm, "
                f"{temperatures[i, 0]:g} C (n = {n[i, j]})"
            )

    def index(self, wavelength_nm, temperature_c):
        """Bulk refractive index at a wavelength (nm) and temperature (C)."""
        lam = np.asarray(wavelength_nm, dtype=float) / 1000.0
        f = (temperature_c - self.t_low) * (temperature_c + self.t_high)
        lam2 = lam * lam
        n2 = (
            self.a1
            + self.b1 * f
            + (self.a2 + self.b2 * f) / (lam2 - (self.a3 + self.b3 * f) ** 2)
            + (self.a4 + self.b4 * f) / (lam2 - self.a5**2)
            - self.a6 * lam2
        )
        n = np.sqrt(n2)
        return float(n) if np.isscalar(wavelength_nm) else n


# Jundt (1997), congruent LiNbO3, extraordinary axis.  Valid over roughly
# 0.4-5 um and 20-250 C, comfortably covering the validated range above.
JUNDT_CLN_EXTRAORDINARY = SellmeierCoefficients(
    a1=5.35583,
    a2=0.100473,
    a3=0.20692,
    a4=100.0,
    a5=11.34927,
    a6=1.5334e-2,
    b1=4.629e-7,
    b2=3.862e-8,
    b3=-0.89e-8,
    b4=2.657e-5,
    t_low=24.5,
    t_high=570.82,
)


def _check_dispersion_range(wavelength_nm, temperature_c: float) -> None:
    """Raise for a wavelength (scalar or array) or temperature outside the range.

    The message names the first offending wavelength; NaN is out of range.
    """
    lo, hi = WAVELENGTH_RANGE_NM
    lam = np.asarray(wavelength_nm, dtype=float)
    outside = ~((lam >= lo) & (lam <= hi))
    if outside.any():
        raise ValueError(
            f"wavelength {float(lam[outside].flat[0])} nm outside validated range "
            f"[{lo}, {hi}] nm"
        )
    lo, hi = TEMPERATURE_RANGE_C
    if not lo <= temperature_c <= hi:
        raise ValueError(
            f"temperature {temperature_c} C outside validated range [{lo}, {hi}] C"
        )


@dataclass(frozen=True)
class MaterialModel:
    """Bulk dispersion plus per-mode effective-index offsets.

    ``mode_offsets`` maps a mode id to the additive offset applied on top of
    the bulk Sellmeier curve.  Offsets are usually obtained by calibrating
    against known effective indices via :meth:`calibrated`.
    """

    coefficients: SellmeierCoefficients = JUNDT_CLN_EXTRAORDINARY
    mode_offsets: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # Freeze the mapping so instances are safe to share between threads.
        object.__setattr__(
            self, "mode_offsets", MappingProxyType(dict(self.mode_offsets))
        )

    @classmethod
    def calibrated(
        cls,
        targets: Mapping[str, tuple[float, float, float]],
        coefficients: SellmeierCoefficients = JUNDT_CLN_EXTRAORDINARY,
    ) -> "MaterialModel":
        """Build a model whose mode offsets hit given effective indices.

        ``targets`` maps mode id -> (wavelength_nm, temperature_c, n_eff).
        After calibration, querying the model at a calibration point returns
        the target exactly.
        """
        offsets = {}
        for mode, (lam_nm, t_c, n_target) in targets.items():
            _check_dispersion_range(lam_nm, t_c)
            offsets[mode] = n_target - coefficients.index(lam_nm, t_c)
        return cls(coefficients=coefficients, mode_offsets=offsets)


def refractive_index(
    model: MaterialModel, wavelength_nm, temperature_c: float, mode: str
):
    """Effective index of a registered mode: bulk dispersion plus offset.

    Raises for unknown mode ids and for (wavelength, temperature) outside the
    validated dispersion range.
    """
    if mode not in model.mode_offsets:
        known = ", ".join(sorted(model.mode_offsets)) or "none"
        raise KeyError(f"unknown mode id {mode!r} (registered: {known})")
    # A scalar wavelength gives a float: Sellmeier ``index`` returns one.
    return _bulk_index(model.coefficients, wavelength_nm, temperature_c) + model.mode_offsets[mode]


# Bulk indices already evaluated, by (coefficients, wavelength, temperature):
# the forward chain asks for the same few points over and over.  A key is
# range-checked before its first evaluation, so only valid points are stored.
# A full cache starts over: clearing is one atomic step for concurrent callers.
_INDEX_CACHE: dict = {}
_INDEX_CACHE_ENTRIES = 64
_INDEX_CACHE_MAX_POINTS = 4096


def _bulk_index(coefficients: SellmeierCoefficients, wavelength_nm, temperature_c):
    """``coefficients.index`` after the range check, evaluated once per point.

    Returns a scalar or the cached array itself: the caller adds the mode
    offset, which hands out a new array.
    """
    if np.isscalar(wavelength_nm):
        key = float(wavelength_nm)
    else:
        wavelength_nm = np.asarray(wavelength_nm, dtype=float)
        key = None
        if wavelength_nm.size <= _INDEX_CACHE_MAX_POINTS:
            key = wavelength_nm.tobytes(), wavelength_nm.shape
    # Only a Python float or int temperature is a key: an array does not hash,
    # and a numpy scalar of another width computes in its own precision.
    if key is None or not isinstance(temperature_c, (float, int)):
        _check_dispersion_range(wavelength_nm, temperature_c)
        return coefficients.index(wavelength_nm, temperature_c)
    key = (coefficients, key, temperature_c)
    n = _INDEX_CACHE.get(key)
    if n is None:
        _check_dispersion_range(wavelength_nm, temperature_c)
        n = coefficients.index(wavelength_nm, temperature_c)
        if len(_INDEX_CACHE) >= _INDEX_CACHE_ENTRIES:
            _INDEX_CACHE.clear()
        _INDEX_CACHE[key] = n
    return n


# Default calibration targets for the guided modes of the reference device:
# mode id -> (wavelength_nm, temperature_c, target effective index).
DEFAULT_MODE_TARGETS: Mapping[str, tuple[float, float, float]] = MappingProxyType(
    {
        "fundamental-telecom": (1550.0, 30.0, 2.13),
        "fundamental-nir": (775.0, 30.0, 2.18),
    }
)


@dataclass(frozen=True)
class PhotorefractionParams:
    """Saturable steady-state law and relaxation times, one set per temperature.

    dn_ss(P) = -a*P/(b + c*P); |dn| saturates at a/c for c > 0.  Time
    constants: ``tau_build_s`` toward the pumped steady state,
    ``tau_dark_s`` toward zero in the dark, ``tau_erase_s`` toward zero
    under erasing illumination (must be faster than the dark decay).
    """

    a: float  # index shift scale, 1/mW in the numerator
    b: float  # mW
    c: float  # dimensionless
    tau_build_s: float = 5.0
    tau_dark_s: float = 1.0e4
    tau_erase_s: float = 10.0
    temperature_c: float = 30.0

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise ValueError("photorefraction constants a, b, c must be >= 0")
        if self.b <= 0 and self.c <= 0:
            raise ValueError(
                "photorefraction law requires b + c*P > 0 for all P >= 0 "
                "(b and c cannot both be zero)"
            )
        if self.tau_build_s <= 0 or self.tau_dark_s <= 0 or self.tau_erase_s <= 0:
            raise ValueError("relaxation time constants must be > 0")
        if not self.tau_erase_s < self.tau_dark_s:
            raise ValueError(
                "erasing illumination must decay faster than the dark state "
                "(tau_erase_s < tau_dark_s)"
            )


def delta_n_steady(params: PhotorefractionParams, pump_power_mw):
    """Steady-state index shift -a*P/(b + c*P); zero at P = 0, always <= 0."""
    p = np.asarray(pump_power_mw, dtype=float)
    if (p < 0).any():
        raise ValueError("pump power must be >= 0")
    dn = -params.a * p / (params.b + params.c * p)
    return float(dn) if np.isscalar(pump_power_mw) else dn


# Default per-temperature parameter sets.  The 30 C set anchors
# |dn(10 mW)| ~ 1e-4 with a nearly linear dependence over 0-10 mW; higher
# temperatures scale the magnitude down until the effect is negligible at
# 90 C.  Time constants reproduce the observed build/dark/erase asymmetry.
DEFAULT_PHOTOREFRACTION: Mapping[float, PhotorefractionParams] = MappingProxyType(
    {
        30.0: PhotorefractionParams(a=1.1e-4, b=10.0, c=0.02, temperature_c=30.0),
        60.0: PhotorefractionParams(a=3.0e-5, b=10.0, c=0.02, temperature_c=60.0),
        90.0: PhotorefractionParams(a=1.5e-7, b=10.0, c=0.02, temperature_c=90.0),
    }
)


@dataclass(frozen=True)
class PumpSegment:
    """One illumination phase: [start_s, end_s) at a pump power, optionally erasing."""

    start_s: float
    end_s: float
    pump_power_mw: float
    erasing_light: bool = False

    def __post_init__(self):
        if self.start_s < 0 or self.end_s < 0:
            raise ValueError("segment times must be >= 0")
        if not self.start_s < self.end_s:
            raise ValueError("segment must satisfy start < end")
        if self.pump_power_mw < 0:
            raise ValueError("pump power must be >= 0")


@dataclass(frozen=True)
class PumpSchedule:
    """Ordered, non-overlapping pump segments.

    Gaps between segments are dark (pump off).  Beyond the last segment end
    the last segment's conditions are extended indefinitely.
    """

    segments: tuple[PumpSegment, ...]

    def __init__(self, segments: Sequence[PumpSegment]):
        segs = tuple(segments)
        for prev, cur in zip(segs, segs[1:]):
            if cur.start_s < prev.end_s:
                raise ValueError(
                    f"segments overlap or are unordered at t = {cur.start_s} s"
                )
        object.__setattr__(self, "segments", segs)

    @property
    def horizon_s(self) -> float:
        return self.segments[-1].end_s if self.segments else 0.0


def _segment_conditions(
    params: PhotorefractionParams, segment: PumpSegment
) -> tuple[float, float]:
    """Relaxation (target, tau) during a segment."""
    if segment.erasing_light:
        return 0.0, params.tau_erase_s
    if segment.pump_power_mw > 0:
        return delta_n_steady(params, segment.pump_power_mw), params.tau_build_s
    return 0.0, params.tau_dark_s


def delta_n_temporal(params: PhotorefractionParams, schedule: PumpSchedule, t):
    """Piecewise first-order relaxation of the index shift along a schedule.

    Within each phase dn relaxes exponentially toward that phase's steady
    state (see :func:`delta_n_steady` for pumped phases, zero otherwise);
    the solution is continuous across phase boundaries and starts from
    dn = 0 at t = 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be >= 0")

    # Build the interval list (start, target, tau) covering [0, inf).
    intervals: list[tuple[float, float, float]] = []
    cursor = 0.0
    dark = (0.0, params.tau_dark_s)
    for seg in schedule.segments:
        if seg.start_s > cursor:
            intervals.append((cursor, *dark))
        intervals.append((seg.start_s, *_segment_conditions(params, seg)))
        cursor = seg.end_s
    if not schedule.segments:
        intervals.append((0.0, *dark))
    # Beyond the horizon the last segment's conditions persist, so no closing
    # dark interval is appended.

    # Propagate the state to each interval start.
    states = [0.0]
    for (t0, target, tau), (t1, _, _) in zip(intervals, intervals[1:]):
        states.append(target + (states[-1] - target) * math.exp(-(t1 - t0) / tau))

    starts, targets, taus = map(np.array, zip(*intervals))
    i = np.clip(np.searchsorted(starts, t_arr, side="right") - 1, 0, None)
    out = targets[i] + (np.array(states)[i] - targets[i]) * np.exp(-(t_arr - starts[i]) / taus[i])
    return float(out) if np.isscalar(t) else out
