"""Waveguide Fabry-Perot cavities and detuned below-threshold squeezer spectra.

Covers the parasitic resonator formed by waveguide end-facets (Airy
transmission driven by the photorefractive index shift: one kernel, which
the trace simulator and the trace fit both evaluate), the conversion of
an index shift into a normalized cavity detuning, and the quadrature noise
spectra of a degenerate parametric oscillator below threshold with a
detuned cavity, from the standard linearized input-output treatment
(Collett & Gardiner, Phys. Rev. A 30, 1386 (1984)).  Their extremes over
the quadrature angle are (q -/+ 2*sigma)/(q +/- 2*sigma), with
q = sqrt(a^2 + 4*Delta^2) and a = 1 + sigma^2 + omega^2 - Delta^2, and are
best over the band [0, omega_max] at
omega^2 = clip(Delta^2 - 1 - sigma^2, 0, omega_max^2): no search is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Trace
from .material import (
    BAND_SPLIT_NM,
    MaterialModel,
    PhotorefractionParams,
    PumpSchedule,
    delta_n_temporal,
    guided_mode,
    refractive_index,
)

__all__ = [
    "FpiCavity",
    "SqueezerCavity",
    "finesse",
    "airy_transmission",
    "fpi_characteristics",
    "simulate_fpi_trace",
    "MAX_GRID_POINTS",
    "delta_n_to_detuning",
    "opo_extremal_spectra",
    "opo_optimal_levels",
    "detuned_threshold",
    "pump_parameter_for_squeezing_db",
]

@dataclass(frozen=True)
class FpiCavity:
    """Parasitic Fabry-Perot formed by the chip end-facets.

    Per-facet reflectivities are configuration inputs (one per band of
    ``material.guided_mode``, so coated facets can be modelled).  Angle-polished
    facets reflect nothing back into the guided mode: ``reflectivity_at`` is 0
    there, so the finesse is 0 and the transmission is 1 independent of phase.
    """

    length_mm: float
    facet_reflectivity_probe: float
    facet_reflectivity_pump: float
    material: MaterialModel
    angled_facets: bool = False

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValueError("cavity length must be > 0")
        for r in (self.facet_reflectivity_probe, self.facet_reflectivity_pump):
            if not 0 <= r < 1:
                raise ValueError("facet reflectivities must lie in [0, 1)")

    def reflectivity_at(self, wavelength_nm: float) -> float:
        """Facet reflectivity into the guided mode: 0 for angled facets."""
        if self.angled_facets:
            return 0.0
        if wavelength_nm < BAND_SPLIT_NM:
            return self.facet_reflectivity_pump
        return self.facet_reflectivity_probe

    def airy_constants(self, wavelength_nm: float) -> tuple[float, float]:
        """``(F, 2*pi*L/lambda)``: the coefficient of finesse, 0 for angled
        facets, and the cavity phase psi per unit index, psi = (2*pi*L/lambda)*n."""
        r = self.reflectivity_at(wavelength_nm)
        return finesse(r, r)[0], 2.0 * math.pi * self.length_mm * 1e6 / wavelength_nm


@dataclass(frozen=True)
class SqueezerCavity:
    """Intentional waveguide resonator with distinct mirror reflectivities."""

    length_mm: float
    mirror_r1: float
    mirror_r2: float

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValueError("cavity length must be > 0")
        for r in (self.mirror_r1, self.mirror_r2):
            if not 0 < r < 1:
                raise ValueError("mirror reflectivities must lie in (0, 1)")


def finesse(reflectivity_1: float, reflectivity_2: float) -> tuple[float, float]:
    """Both finesse definitions for a two-mirror cavity.

    Returns ``(coefficient_of_finesse, conventional_finesse)`` where the
    coefficient 4*sqrt(R1 R2)/(1 - sqrt(R1 R2))^2 is the contrast factor of
    the Airy transmission formula and the conventional finesse
    pi*(R1 R2)^(1/4)/(1 - sqrt(R1 R2)) is the FSR/FWHM ratio.  The two are
    deliberately kept apart: they differ by orders of magnitude at low
    reflectivity.
    """
    for r in (reflectivity_1, reflectivity_2):
        if not 0 <= r < 1:
            raise ValueError("reflectivities must lie in [0, 1)")
    g = math.sqrt(reflectivity_1 * reflectivity_2)
    if g == 0:
        return 0.0, 0.0
    coefficient = 4.0 * g / (1.0 - g) ** 2
    conventional = math.pi * math.sqrt(g) / (1.0 - g)
    return coefficient, conventional


def airy_transmission(coefficient: float, tangent):
    """Airy transmission T/T_max = 1/(1 + F*sin^2 psi), from t = tan psi.

    With q = t^2, T = (1 + q)/(1 + (1 + F) q) = 1/(1 + F) + F/(1 + F)^2/(q + 1/(1 + F)),
    so the caller takes one tan, which numpy vectorizes under AVX-512, in place
    of a scalar-libm sin.  F = 0 (no cavity) gives exactly 1.  Rounding can put
    the sum one ulp above 1 near t = 0, so the result is bounded by 1.
    """
    lowest = 1.0 / (1.0 + coefficient)  # T at psi = pi/2
    return np.minimum(coefficient * lowest * lowest / (np.square(tangent) + lowest) + lowest, 1.0)


def fpi_characteristics(
    cavity: FpiCavity, wavelength_nm: float, temperature_c: float
) -> tuple[float, float | None]:
    """Free spectral range and linewidth of the facet cavity, in picometres.

    Returns ``(fsr_pm, fwhm_pm)``.  The FWHM is only meaningful when the
    fringe contrast actually reaches half maximum, which requires a
    coefficient of finesse above 1; below that the FWHM is reported as
    ``None`` with the FSR still returned.
    """
    n_eff = refractive_index(cavity.material, wavelength_nm, temperature_c,
                             guided_mode(wavelength_nm))
    length_nm = cavity.length_mm * 1e6
    fsr_pm = wavelength_nm**2 / (2.0 * n_eff * length_nm) * 1000.0
    r = cavity.reflectivity_at(wavelength_nm)
    coefficient, conventional = finesse(r, r)
    if coefficient <= 1.0:
        return fsr_pm, None
    return fsr_pm, fsr_pm / conventional


MAX_GRID_POINTS = 10**7  # of any sampled grid (trace, OPO, SPDC): 80 MB per float64 array


def simulate_fpi_trace(
    cavity: FpiCavity,
    schedule: PumpSchedule,
    params: PhotorefractionParams,
    probe_wavelength_nm: float,
    temperature_c: float,
    sample_period_s: float,
    duration_s: float,
) -> Trace:
    """Probe transmission versus time while the pump schedule drives dn(t).

    Samples the Airy transmission at the instantaneous index shift as
    T/T_max, the fraction of the fringe maximum, so the pre-pump level
    T(phi0) stays in the trace.  The phase is psi = phi0 + (2*pi*L/lambda)*dn
    with phi0 = (2*pi*L/lambda)*n_eff mod pi, the phase the trace fit reports.
    Mode hopping and input-coupling drift are outside the model.
    """
    if sample_period_s <= 0:
        raise ValueError("sample period must be > 0")
    if not schedule.segments:
        raise ValueError("pump schedule is empty")
    if not duration_s >= 0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s!r}")
    ratio = duration_s / sample_period_s
    if ratio >= MAX_GRID_POINTS:
        raise ValueError(
            f"duration_s / sample_period_s = {ratio:g} asks for more than "
            f"{MAX_GRID_POINTS} samples"
        )
    t = np.arange(int(math.floor(ratio)) + 1) * sample_period_s
    coefficient, scale = cavity.airy_constants(probe_wavelength_nm)
    n_eff = refractive_index(cavity.material, probe_wavelength_nm, temperature_c,
                             guided_mode(probe_wavelength_nm))
    dn = delta_n_temporal(params, schedule, t)
    tangent = np.tan(dn * scale + scale * n_eff % math.pi)
    return Trace(time_s=t, value=airy_transmission(coefficient, tangent))


def delta_n_to_detuning(
    cavity: SqueezerCavity, delta_n: float, wavelength_nm: float, temperature_c: float
) -> float:
    """Normalized cavity detuning produced by an index shift.

    The resonance shift omega*|dn|/n_eff over the cavity amplitude decay rate
    kappa = (1 - sqrt(r1*r2))*c/(2*n_eff*L), the half-linewidth in angular
    frequency, is 4*pi*L*|dn|/(lambda*(1 - sqrt(r1*r2))): n_eff and c cancel.
    Linear in |dn|.

    ``temperature_c`` is unused, since n_eff(T) cancels.  It is kept so that
    calls passing it by position still work.
    """
    if not abs(delta_n) < 1e-2:
        raise ValueError("index shift out of the perturbative range (|dn| < 1e-2)")
    if not wavelength_nm > 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm!r}")
    loss = 1.0 - math.sqrt(cavity.mirror_r1 * cavity.mirror_r2)
    return 4.0 * math.pi * cavity.length_mm * 1e6 * abs(delta_n) / (wavelength_nm * loss)


def detuned_threshold(normalized_detuning: float) -> float:
    """Pump parameter at threshold for a detuned cavity: sqrt(1 + detuning^2).

    The detuning is in units of kappa, the cavity amplitude decay rate (the
    half-width at half maximum).
    """
    return math.sqrt(1.0 + normalized_detuning**2)


def pump_parameter_for_squeezing_db(squeezing_db: float) -> float:
    """Pump parameter whose zero-detuning squeezing floor is the given level.

    S = 1 - 4*sigma/(1 + sigma)^2 = ((1 - sigma)/(1 + sigma))^2 = 10^(dB/10),
    so sigma = (1 - g)/(1 + g) with g = 10^(dB/20) on the below-threshold
    branch; the floor sits at zero analysis frequency.
    """
    if squeezing_db >= 0:
        raise ValueError("squeezing level must be < 0 dB")
    g = 10.0 ** (squeezing_db / 20.0)
    return (1.0 - g) / (1.0 + g)


def _below_threshold(pump_parameter: float, normalized_detuning: float):
    """``(sigma, Delta)`` as floats, refusing sigma < 0 and sigma at threshold."""
    sigma = float(pump_parameter)
    delta = float(normalized_detuning)
    if sigma < 0:
        raise ValueError("pump parameter must be >= 0")
    if sigma >= detuned_threshold(delta):
        raise ValueError(
            f"pump parameter {sigma} at or above the detuned threshold "
            f"{detuned_threshold(delta):.6f}"
        )
    return sigma, delta


def opo_extremal_spectra(pump_parameter: float, normalized_detuning: float, omega):
    """Least and greatest quadrature noise of the detuned OPO at each omega.

    In units of kappa = 1, with pump parameter sigma below the detuned
    threshold and detuning Delta, the linearized input-output relations give
    a real symmetric spectral matrix of the output quadratures with
    denominator det2 = (1 - omega^2 - sigma^2 + Delta^2)^2 + 4*omega^2 =
    q^2 - 4*sigma^2.  Its eigenvalues, the extremes over the quadrature
    angle, are (q -/+ 2*sigma)/(q +/- 2*sigma): a pure state.  The squeezed
    one is evaluated as det2/(q + 2*sigma)^2 to keep its precision near
    threshold.  Returns ``(squeezed, antisqueezed)``, vacuum = 1, lossless.
    """
    sigma, delta = _below_threshold(pump_parameter, normalized_detuning)
    w2 = np.asarray(omega, dtype=float) ** 2
    det2 = (1.0 - w2 - sigma**2 + delta**2) ** 2 + 4.0 * w2
    q = np.sqrt((1.0 + sigma**2 + w2 - delta**2) ** 2 + 4.0 * delta**2)
    squeezed = det2 / (q + 2.0 * sigma) ** 2
    return squeezed, 1.0 / squeezed


def opo_optimal_levels(
    pump_parameter: float,
    normalized_detuning: float,
    detection_efficiency: float = 1.0,
    omega_max: float = 20.0,
) -> tuple[float, float]:
    """Best squeezing and antisqueezing of the detuned OPO, in dB.

    The detuning is in units of kappa, the cavity amplitude decay rate (the
    half-width at half maximum).  Optimizes
    over the quadrature angle and over analysis frequency in [0, omega_max]:
    both extremes of ``opo_extremal_spectra`` move away from vacuum as
    |1 + sigma^2 + omega^2 - Delta^2| falls, so both sit at
    omega^2 = clip(Delta^2 - 1 - sigma^2, 0, omega_max^2).  Returns
    ``(best_squeezing_db, best_antisqueezing_db)`` with
    dB = 10*log10(noise / vacuum), negative below shot noise.  Both are the
    lossless optimum mixed with vacuum afterwards; with detection efficiency
    1 the output is pure, so the antisqueezing equals minus the squeezing.
    """
    if not omega_max >= 0:
        raise ValueError(f"omega_max must be >= 0, got {omega_max}")
    eta = float(detection_efficiency)
    peak = float(normalized_detuning) ** 2 - 1.0 - float(pump_parameter) ** 2
    omega = math.sqrt(min(max(peak, 0.0), omega_max**2))
    best_min, best_max = opo_extremal_spectra(
        pump_parameter, normalized_detuning, omega
    )
    squeeze = eta * best_min + (1.0 - eta)
    antisqueeze = eta * best_max + (1.0 - eta)
    return 10.0 * math.log10(squeeze), 10.0 * math.log10(antisqueeze)
