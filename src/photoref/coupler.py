"""Evanescent directional couplers under pump-induced asymmetry, and homodyne noise.

Coupled-mode theory gives the reflected fraction of probe power for a
propagation-constant mismatch between the two arms; the photorefractive
index shift in the pumped arm supplies that mismatch.  The homodyne side
evaluates the measured quantum noise of a squeezed beam mixed with a
coherent local oscillator on a coupler of arbitrary splitting ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SweepData
from .material import PhotorefractionParams, delta_n_steady

__all__ = [
    "CouplerGeometry",
    "HomodyneConfig",
    "coupling_length",
    "coupler_reflectivity",
    "delta_beta_from_index_shift",
    "reflectivity_vs_pump",
    "homodyne_noise",
    "squeezing_parameter_from_db",
    "measured_squeezing_vs_residual_pump",
]

DB_PER_NEPER = 20.0 * math.log10(math.e)  # dB of variance per unit squeezing parameter


@dataclass(frozen=True)
class CouplerGeometry:
    """Evanescent coupler: coupling constant and interaction length.

    The coupling constant is temperature specific; hold one geometry per
    operating temperature.
    """

    coupling_constant_per_mm: float
    interaction_length_mm: float

    def __post_init__(self):
        if self.coupling_constant_per_mm <= 0:
            raise ValueError("coupling constant must be > 0")
        if self.interaction_length_mm <= 0:
            raise ValueError("interaction length must be > 0")


def coupling_length(coupling_constant_per_mm: float) -> float:
    """Distance pi/(2k) after which all power sits in the transmitted arm."""
    if coupling_constant_per_mm <= 0:
        raise ValueError("coupling constant must be > 0")
    return math.pi / (2.0 * coupling_constant_per_mm)


def coupler_reflectivity(geometry: CouplerGeometry, delta_beta_per_mm):
    """Fraction of probe power staying in the injection arm.

    R = 1 - [4k^2/(4k^2 + db^2)] * sin^2(L*sqrt(4k^2 + db^2)/2).  Even in
    the mismatch db and bounded in [0, 1].
    """
    db = np.asarray(delta_beta_per_mm, dtype=float)
    k2 = 4.0 * geometry.coupling_constant_per_mm**2
    q2 = k2 + db**2
    r = 1.0 - (k2 / q2) * np.sin(geometry.interaction_length_mm * np.sqrt(q2) / 2.0) ** 2
    return float(r) if np.isscalar(delta_beta_per_mm) else r


def delta_beta_from_index_shift(delta_n, probe_wavelength_nm: float):
    """Propagation-constant mismatch 2*pi*|dn|/lambda, in 1/mm."""
    lam_mm = probe_wavelength_nm * 1e-6
    return 2.0 * math.pi * np.abs(delta_n) / lam_mm


def reflectivity_vs_pump(
    geometry: CouplerGeometry,
    params: PhotorefractionParams,
    probe_wavelength_nm: float,
    pump_powers_mw,
) -> SweepData:
    """Coupler reflectivity across a pump-power sweep.

    The pump sits in the reflection arm and shifts only that arm's index;
    only the magnitude of the shift enters since the reflectivity is even
    in the mismatch.
    """
    powers = np.asarray(pump_powers_mw, dtype=float)
    dn = delta_n_steady(params, powers)
    db = delta_beta_from_index_shift(dn, probe_wavelength_nm)
    return SweepData(powers, coupler_reflectivity(geometry, db))


@dataclass(frozen=True)
class HomodyneConfig:
    """Homodyne measurement of a squeezed beam against a coherent LO.

    ``squeezing_parameter`` is the exponent s of the quadrature variances
    e^(-2s) (squeezed) and e^(+2s) (antisqueezed); ``phase`` is the relative
    phase between LO and squeezed beam; transmissivity is 1 - reflectivity
    by construction.
    """

    reflectivity: float
    lo_amplitude_sq: float = 1.0
    squeezing_parameter: float = 0.0
    phase_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        if self.lo_amplitude_sq <= 0:
            raise ValueError("LO photon flux must be > 0")
        if self.squeezing_parameter < 0:
            raise ValueError("squeezing parameter must be >= 0")


def homodyne_noise(config: HomodyneConfig):
    """Variance of the difference photocurrent, in LO photon-flux units.

    di^2 = |a|^2 * [(T - R)^2 + 4RT*(e^{2s} sin^2(phi) + e^{-2s} cos^2(phi))]
    keeping only the term quadratic in the LO amplitude.  At s = 0 this is
    exactly |a|^2 for every splitting ratio (vacuum in, shot noise out).
    """
    return config.lo_amplitude_sq * _noise_per_lo(
        config.reflectivity, config.squeezing_parameter, config.phase_rad
    )


def _noise_per_lo(r, s: float, phi: float):
    """The bracket of :func:`homodyne_noise`; the reflectivity ``r`` may be an array."""
    t = 1.0 - r
    quad = math.exp(2 * s) * math.sin(phi) ** 2 + math.exp(-2 * s) * math.cos(phi) ** 2
    return (t - r) ** 2 + 4.0 * r * t * quad


def squeezing_parameter_from_db(squeezing_db: float) -> float:
    """Squeezing parameter s for a variance level in dB (negative = squeezed)."""
    if squeezing_db > 0:
        raise ValueError("initial squeezing level must be <= 0 dB")
    return -squeezing_db / DB_PER_NEPER


def measured_squeezing_vs_residual_pump(
    geometry: CouplerGeometry,
    params: PhotorefractionParams,
    probe_wavelength_nm: float,
    initial_squeezing_db: float,
    pump_powers_mw,
) -> SweepData:
    """Measured squeezing (dB) as residual pump unbalances the homodyne coupler.

    The coupler must be balanced at zero pump (reflectivity 1/2 within
    1e-6).  For each residual power the splitting ratio moves to R(P) and
    the noise at the squeezed phase is normalized by the shot-noise
    calibration at R(0).  With an ideal coherent LO the vacuum noise is
    splitting-independent, so calibrating with the pump present would give
    the same levels.
    """
    r0 = coupler_reflectivity(geometry, 0.0)
    if abs(r0 - 0.5) > 1e-6:
        raise ValueError(
            f"coupler not balanced at zero pump: R(0) = {r0!r} (need 1/2 within 1e-6)"
        )
    s = squeezing_parameter_from_db(initial_squeezing_db)
    powers = np.asarray(pump_powers_mw, dtype=float)
    dn = delta_n_steady(params, powers)
    db = delta_beta_from_index_shift(dn, probe_wavelength_nm)
    shot = _noise_per_lo(r0, 0.0, 0.0)
    levels = 10.0 * np.log10(_noise_per_lo(coupler_reflectivity(geometry, db), s, 0.0) / shot)
    return SweepData(powers, levels)
