"""Quasi-phase-matched SPDC spectra under pump-induced index shifts.

Energy conservation fixes the idler for each signal wavelength; the
phase mismatch of the poled waveguide then shapes the emission as
sinc^2(dk*L/2).  The photorefractive shift is applied to the pump index
(the short-wavelength beam dominates the effect), moving the emission
toward or away from degeneracy as pump power changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupler import DB_PER_NEPER
from .data import SweepData
from .material import (NIR_MODE, TELECOM_MODE, MaterialModel, PhotorefractionParams,
                       delta_n_steady, refractive_index)

__all__ = [
    "PUMP_WAVELENGTH_RANGE_NM",
    "QpmDevice",
    "SpdcOperatingPoint",
    "idler_wavelength",
    "qpm_mismatch",
    "calibrate_poling_period",
    "spdc_spectrum",
    "effective_squeezing_vs_power",
]

PUMP_WAVELENGTH_RANGE_NM = (700.0, 800.0)  # nm: the near-infrared pump band


@dataclass(frozen=True)
class QpmDevice:
    """Periodically poled waveguide.

    ``telecom_shift_fraction`` optionally applies that fraction of the pump
    index shift to the signal and idler indices as well, for sensitivity
    studies; the default models the shift on the pump only.
    """

    poling_period_um: float
    length_mm: float
    material: MaterialModel
    telecom_shift_fraction: float = 0.0

    def __post_init__(self):
        if self.poling_period_um <= 0:
            raise ValueError("poling period must be > 0")
        if self.length_mm <= 0:
            raise ValueError("device length must be > 0")


@dataclass(frozen=True)
class SpdcOperatingPoint:
    """Pump wavelength, chip temperature, and coupled pump power."""

    pump_wavelength_nm: float
    temperature_c: float
    pump_power_mw: float = 0.0

    def __post_init__(self):
        lo, hi = PUMP_WAVELENGTH_RANGE_NM
        if not lo <= self.pump_wavelength_nm <= hi:
            raise ValueError(f"pump wavelength must lie in [{lo:g}, {hi:g}] nm")
        if self.pump_power_mw < 0:
            raise ValueError("pump power must be >= 0")


def idler_wavelength(pump_wavelength_nm: float, signal_wavelength_nm):
    """Idler wavelength from energy conservation 1/lp = 1/ls + 1/li."""
    lam_s = np.asarray(signal_wavelength_nm, dtype=float)
    lam_i = 1.0 / (1.0 / pump_wavelength_nm - 1.0 / lam_s)
    return float(lam_i) if np.isscalar(signal_wavelength_nm) else lam_i


def _check_signal_range(pump_wavelength_nm: float, signal_wavelength_nm) -> None:
    lam_s = np.asarray(signal_wavelength_nm, dtype=float)
    lo = 2.0 * pump_wavelength_nm * 0.7
    hi = 2.0 * pump_wavelength_nm * 1.5
    if (lam_s <= lo).any() or (lam_s >= hi).any():
        raise ValueError(
            f"signal wavelength outside the physical window ({lo:.1f}, {hi:.1f}) nm"
        )


def qpm_mismatch(
    device: QpmDevice,
    point: SpdcOperatingPoint,
    signal_wavelength_nm,
    photorefraction: PhotorefractionParams,
):
    """Phase mismatch dk (1/mm) including the grating and the pump index shift.

    dk = 2*pi*[(n_p + dn_p)/lam_p - n_s/lam_s - n_i/lam_i - 1/poling_period]
    with the idler fixed by energy conservation.
    """
    _check_signal_range(point.pump_wavelength_nm, signal_wavelength_nm)
    dn = delta_n_steady(photorefraction, point.pump_power_mw)
    dk = _mismatch(device, point.pump_wavelength_nm, point.temperature_c,
                   signal_wavelength_nm, dn)
    return float(dk) if np.isscalar(signal_wavelength_nm) else dk


def _mismatch(device: QpmDevice, pump_wavelength_nm: float, temperature_c: float,
              signal_wavelength_nm, dn):
    """dk of :func:`qpm_mismatch` for an index shift ``dn``, scalar or one per power."""
    lam_s = np.asarray(signal_wavelength_nm, dtype=float)
    lam_i = idler_wavelength(pump_wavelength_nm, lam_s)
    material, t = device.material, temperature_c
    # One mode per beam, the mode of its band (``guided_mode``): the pump's NIR
    # mode, and the telecom mode for signal and idler at any distance from degeneracy.
    n_p = refractive_index(material, pump_wavelength_nm, t, NIR_MODE) + dn
    n_s = refractive_index(material, lam_s, t, TELECOM_MODE)
    n_i = refractive_index(material, lam_i, t, TELECOM_MODE)
    if device.telecom_shift_fraction:
        n_s = n_s + device.telecom_shift_fraction * dn
        n_i = n_i + device.telecom_shift_fraction * dn
    # All lengths in mm: wavelengths nm * 1e-6, poling period um * 1e-3.
    lam_p_mm = pump_wavelength_nm * 1e-6
    lam_s_mm = lam_s * 1e-6
    lam_i_mm = lam_i * 1e-6
    period_mm = device.poling_period_um * 1e-3
    return 2.0 * math.pi * (
        n_p / lam_p_mm - n_s / lam_s_mm - n_i / lam_i_mm - 1.0 / period_mm
    )


def calibrate_poling_period(
    material: MaterialModel,
    temperature_c: float,
    pump_wavelength_nm: float,
    degeneracy_wavelength_nm: float,
    pump_index_shift: float = 0.0,
) -> float:
    """Poling period (um) nulling the mismatch of :func:`qpm_mismatch` at a signal.

    ``degeneracy_wavelength_nm`` is the signal wavelength and the idler
    follows from energy conservation.  ``pump_index_shift`` lets the
    calibration absorb a photorefractive offset so that dk = 0 is hit at a
    reference pump power rather than at zero power.
    """
    _check_signal_range(pump_wavelength_nm, degeneracy_wavelength_nm)
    no_grating = QpmDevice(math.inf, 1.0, material)  # 1/period = 0: dk is the beams' sum
    inverse_period = float(_mismatch(no_grating, pump_wavelength_nm, temperature_c,
                                     degeneracy_wavelength_nm, pump_index_shift)) / (2 * math.pi)
    if inverse_period <= 0:
        raise ValueError(
            "dispersion insufficient for quasi-phase matching at these inputs "
            f"(non-positive inverse period {inverse_period!r} 1/mm)"
        )
    return 1.0 / inverse_period * 1e3


def spdc_spectrum(
    device: QpmDevice,
    point: SpdcOperatingPoint,
    photorefraction: PhotorefractionParams,
    wavelength_grid_nm,
    background: float = 0.0,
) -> np.ndarray:
    """Normalized SPDC spectral density over a signal-wavelength grid.

    Each grid wavelength collects its own sinc^2 phase-matching weight plus
    the twin contribution at the energy-conserving partner wavelength, so
    the plotted density covers both photons of each pair.  dk is symmetric
    under signal <-> idler exchange, so the two weights are equal and the
    density is 2*sinc^2(dk*L/2).  An optional constant background stands in
    for detector dark counts.  Normalized to unit maximum.
    """
    grid = np.asarray(wavelength_grid_nm, dtype=float)
    degeneracy = 2.0 * point.pump_wavelength_nm
    if not (grid.min() < degeneracy < grid.max()):
        raise ValueError("wavelength grid must bracket the degeneracy point")
    if background < 0:
        raise ValueError("background must be >= 0")
    half_phase = qpm_mismatch(device, point, grid, photorefraction) * device.length_mm / 2.0
    # The partners must lie in the physical window too.
    lam_p = point.pump_wavelength_nm
    _check_signal_range(lam_p, idler_wavelength(lam_p, grid))
    density = 2.0 * np.sinc(half_phase / math.pi) ** 2 + background
    return density / density.max()


def effective_squeezing_vs_power(
    device: QpmDevice,
    temperature_c: float,
    pump_wavelength_nm: float,
    photorefraction: PhotorefractionParams,
    mu0_per_sqrt_mw: float,
    pump_powers_mw,
) -> tuple[SweepData, SweepData]:
    """Ideal and photorefraction-degraded squeezing versus pump power, in dB.

    The ideal curve assumes a constant nonlinear efficiency,
    s = mu0*sqrt(P); the degraded curve scales the efficiency by
    |sinc(dk(P)*L/2)| at the degenerate wavelength, where dk(P) includes
    the pump index shift.  Returns ``(ideal, photorefractive)`` sweeps.
    """
    if mu0_per_sqrt_mw <= 0:
        raise ValueError("nonlinear efficiency must be > 0")
    SpdcOperatingPoint(pump_wavelength_nm, temperature_c)  # the pump-wavelength window
    powers = np.asarray(pump_powers_mw, dtype=float)
    dn = delta_n_steady(photorefraction, powers)  # refuses negative powers
    ideal_db = -DB_PER_NEPER * (mu0_per_sqrt_mw * np.sqrt(powers))
    dk = _mismatch(device, pump_wavelength_nm, temperature_c, 2.0 * pump_wavelength_nm, dn)
    degraded_db = ideal_db * np.abs(np.sinc(dk * device.length_mm / 2.0 / math.pi))
    return SweepData(powers, ideal_db), SweepData(powers, degraded_db)
