"""Command-line interface tying the simulation and fitting pipelines together.

Every subcommand reads one configuration file, writes its data products
(CSV/JSON) into the output directory, and finishes by writing a
``run_manifest.json`` recording the config hash, seed, package versions,
wall time, and the produced files.  Exit codes: 0 success, 1 validation
error, 2 numerical failure.  A fit that does not converge is not a
failure; it is reported through the ``converged`` flag.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .cavity import (
    MAX_GRID_POINTS,
    finesse,
    fpi_characteristics,
    opo_extremal_spectra,
    opo_optimal_levels,
    pump_parameter_for_squeezing_db,
    simulate_fpi_trace,
)
from .config import Config, ConfigError, _invariants, parse_config
from .coupler import (
    homodyne_noise,
    measured_squeezing_vs_residual_pump,
    reflectivity_vs_pump,
    squeezing_parameter_from_db,
)
from .data import (
    SweepData,
    read_sweep_csv,
    read_trace_csv,
    write_columns_csv,
    write_sweep_csv,
    write_trace_csv,
)
from .fit import FitError, fit_delta_n_from_reflectivity, fit_fpi_trace
from .material import PumpSchedule, PumpSegment, guided_mode, refractive_index
from .spdc import SpdcOperatingPoint, effective_squeezing_vs_power, spdc_spectrum

log = logging.getLogger(__name__)


def _fmt(value: float) -> str:
    """Compact float for filenames (no trailing zeros, no scientific surprises)."""
    return f"{value:g}"


def _refuse_repeats(where: str, values: list, names: list[str]) -> None:
    """Refuse a grid entry whose output name an earlier entry has: its output would
    overwrite that entry's.  ``where`` holds ``{0}`` for the index, ``{1}`` for the value."""
    for i, name in enumerate(names):
        first = names.index(name)
        if first < i:
            raise ConfigError(f"{where.format(i, values[i])}: {values[i]} names the same output"
                              f" as {where.format(first, values[first])}")


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON.

    Raises FloatingPointError, before the file is opened, when it holds a NaN
    or an infinity, which JSON cannot represent.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{path}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


class _Runner:
    """Shared context for one subcommand invocation."""

    def __init__(self, config: Config, out_dir: Path, seed: int, quiet: bool):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.quiet = quiet
        self.outputs: list[str] = []
        self.warnings: list[str] = []
        self.provenance = {
            "photoref": __version__,
            "config_hash": config.config_hash(),
            "seed": seed,
        }
        self.comments = [f"{key} {value}" for key, value in self.provenance.items()]

    # Each writer lists its file as an output only once the file is written,
    # so a writer that refuses its data leaves no phantom entry in the manifest.
    def write(self, name: str, writer, *data) -> None:
        """Write a CSV with ``writer(path, *data, comments)``."""
        writer(self.out_dir / name, *data, self.comments)
        self.outputs.append(name)

    def write_json(self, name: str, payload: dict) -> None:
        payload = dict(payload)
        payload["provenance"] = self.provenance
        _write_json(self.out_dir / name, payload)
        self.outputs.append(name)

    def note(self, message: str) -> None:
        self.warnings.append(message)
        if not self.quiet:
            log.warning("%s", message)


def _run_fpi_trace(runner: _Runner, section: dict) -> None:
    config = runner.config
    temperature = section["temperature_c"]
    segments = []  # built one entry at a time, so an overlap is refused at its entry
    for i, seg in enumerate(section["schedule"]):
        with _invariants(f"run.fpi_trace.schedule[{i}]"):
            segments.append(PumpSegment(**seg))
            schedule = PumpSchedule(segments)
    trace = simulate_fpi_trace(
        config.fpi_cavity(),
        schedule,
        config.photorefraction(temperature),
        probe_wavelength_nm=section["probe_wavelength_nm"],
        temperature_c=temperature,
        sample_period_s=section["sample_period_s"],
        duration_s=section["duration_s"],
    )
    runner.write("fpi_trace.csv", write_trace_csv, trace)


def _run_fpi_char(runner: _Runner, section: dict) -> None:
    cavity = runner.config.fpi_cavity()
    temperature = section["temperature_c"]
    wavelengths = section["wavelengths_nm"]
    keys = [_fmt(lam) for lam in wavelengths]
    _refuse_repeats("run.fpi_char.wavelengths_nm[{}]", wavelengths, keys)
    report = {}
    for key, lam in zip(keys, wavelengths):
        fsr_pm, fwhm_pm = fpi_characteristics(cavity, lam, temperature)
        r = cavity.reflectivity_at(lam)
        coefficient, conventional = finesse(r, r)
        report[key] = {
            "wavelength_nm": lam,
            "n_eff": refractive_index(cavity.material, lam, temperature, guided_mode(lam)),
            "facet_reflectivity": r,
            "fsr_pm": fsr_pm,
            "fwhm_pm": fwhm_pm,
            "coefficient_of_finesse": coefficient,
            "conventional_finesse": conventional,
        }
    runner.write_json("fpi_characteristics.json", report)


def _run_coupler_sweep(runner: _Runner, section: dict) -> None:
    config = runner.config
    probe, powers = section["probe_wavelength_nm"], section["pump_powers_mw"]
    noise = section["noise_fraction"]
    rng = np.random.default_rng(runner.seed)
    temperatures = config.temperatures("devices.coupler.coupling_constant_per_mm")
    names = [f"coupler_sweep_T{_fmt(t)}" for t in temperatures]
    _refuse_repeats("devices.coupler.coupling_constant_per_mm.{1}", temperatures, names)
    # Every temperature's sweep is computed and checked before the first file is written.
    models = [(t, config.coupler_geometry(t), config.photorefraction(t)) for t in temperatures]
    sweeps = [reflectivity_vs_pump(geometry, law, probe, powers) for _, geometry, law in models]
    for t, sweep in zip(temperatures, sweeps):
        zero = np.flatnonzero(sweep.value == 0.0)
        if noise > 0 and zero.size:
            raise ConfigError(f"run.coupler_sweep.noise_fraction: relative noise gives sigma 0"
                              f" where R = 0, at {t} C and {powers[zero[0]]} mW")
    for name, (temperature, geometry, _), sweep in zip(names, models, sweeps):
        if noise > 0:
            sigma = noise * np.abs(sweep.value)
            values = sweep.value * (1.0 + noise * rng.standard_normal(len(sweep)))
            sweep = SweepData(sweep.abscissa, values, sigma)
        runner.write(f"{name}.csv", write_sweep_csv, sweep)
        runner.write_json(
            f"{name}.json",
            {
                "temperature_c": temperature,
                "probe_wavelength_nm": probe,
                "coupling_constant_per_mm": geometry.coupling_constant_per_mm,
                "interaction_length_mm": geometry.interaction_length_mm,
                "noise_fraction": noise,
                "pump_power_mW": [float(x) for x in sweep.abscissa],
                "value": [float(x) for x in sweep.value],
                "sigma": None if sweep.sigma is None else [float(x) for x in sweep.sigma],
            },
        )


def _run_homodyne(runner: _Runner, section: dict) -> None:
    s = squeezing_parameter_from_db(section["squeezing_db"])
    phases = section["phases_rad"]
    noise = homodyne_noise(section["reflectivity"], s, np.asarray(phases))
    runner.write("homodyne.csv", write_columns_csv, ["phase_rad", "value"],
                 [phases, 10.0 * np.log10(noise)])


def _run_opo_spectrum(runner: _Runner, section: dict) -> None:
    sigma = pump_parameter_for_squeezing_db(section["initial_squeezing_db"])
    eta = section["detection_efficiency"]
    step, omega_max = section["omega_step"], section["omega_max"]
    if omega_max / step >= MAX_GRID_POINTS:
        raise ConfigError(f"run.opo_spectrum.omega_step: omega_max / omega_step = "
                          f"{omega_max / step:g} asks for more than {MAX_GRID_POINTS} samples")
    omega = np.arange(0.0, omega_max + step / 2, step)
    detunings = section["detunings"]
    names = [f"opo_spectrum_delta{_fmt(delta)}.csv" for delta in detunings]
    _refuse_repeats("run.opo_spectrum.detunings[{}]", detunings, names)
    for name, delta in zip(names, detunings):
        levels = eta * np.array(opo_extremal_spectra(sigma, delta, omega)) + (1.0 - eta)
        runner.write(
            name,
            write_columns_csv,
            ["omega", "squeezed_db", "antisqueezed_db"],
            [omega, *10 * np.log10(levels)],
        )
    best = [
        opo_optimal_levels(sigma, delta, eta, omega_max=omega_max)
        for delta in detunings
    ]
    runner.write(
        "opo_optimal_levels.csv",
        write_columns_csv,
        ["delta", "best_squeezing_db", "best_antisqueezing_db"],
        [detunings, *zip(*best)],
    )


def _run_spdc_spectrum(runner: _Runner, section: dict) -> None:
    config = runner.config
    device = config.qpm_device()
    span, points = section["wavelength_span_nm"], section["points"]
    pumps, powers = section["pump_wavelength_nm"], section["pump_powers_mw"]
    temperatures = config.temperatures("run.spdc_spectrum.pump_wavelength_nm")
    tags = [f"T{_fmt(t)}" for t in temperatures]
    _refuse_repeats("run.spdc_spectrum.pump_wavelength_nm.{1}", temperatures, tags)
    power_tags = [f"P{_fmt(power)}" for power in powers]
    _refuse_repeats("run.spdc_spectrum.pump_powers_mw[{}]", powers, power_tags)
    models = [(t, pumps[repr(t)], config.photorefraction(t)) for t in temperatures]
    for tag, (temperature, lam_p, params) in zip(tags, models):
        grid = np.linspace(2 * lam_p - span / 2, 2 * lam_p + span / 2, points)
        for power_tag, power in zip(power_tags, powers):
            point = SpdcOperatingPoint(lam_p, temperature, power)
            density = spdc_spectrum(device, point, params, grid, section["background"])
            runner.write(
                f"spdc_spectrum_{tag}_{power_tag}.csv",
                write_columns_csv,
                ["wavelength_nm", "normalized_density"],
                [grid, density],
            )


def _run_squeeze_budget(runner: _Runner, section: dict) -> None:
    config = runner.config
    temperature = section["temperature_c"]
    probe = section["probe_wavelength_nm"]
    params = config.photorefraction(temperature)
    geometry = config.homodyne_geometry(temperature)
    levels, powers = section["initial_levels_db"], section["pump_powers_mw"]
    names = [f"homodyne_budget_{_fmt(abs(level))}dB.csv" for level in levels]
    _refuse_repeats("run.squeeze_budget.initial_levels_db[{}]", levels, names)
    budgets = [
        measured_squeezing_vs_residual_pump(geometry, params, probe, level, powers)
        for level in levels
    ]
    ideal, degraded = effective_squeezing_vs_power(
        config.qpm_device(),
        temperature,
        section["spdc_pump_wavelength_nm"],
        params,
        section["mu0_per_sqrt_mw"],
        section["spdc_pump_powers_mw"],
    )
    for name, sweep in zip(names, budgets):
        runner.write(name, write_sweep_csv, sweep)
    runner.write("squeeze_ideal.csv", write_sweep_csv, ideal)
    runner.write("squeeze_photorefractive.csv", write_sweep_csv, degraded)


def _run_fit_dn(runner: _Runner, section: dict) -> None:
    if not section["inputs"]:
        raise ConfigError("run.fit_dn.inputs: no input sweeps configured")
    temperatures = [entry["temperature_c"] for entry in section["inputs"]]
    _refuse_repeats("run.fit_dn.inputs[{}].temperature_c", temperatures,
                    [_fmt(t) for t in temperatures])
    paths = [entry["path"] for entry in section["inputs"]]
    sweeps = [read_sweep_csv(path) for path in paths]
    outcomes = {}
    for i, (temperature, path, sweep) in enumerate(zip(temperatures, paths, sweeps)):
        geometry = runner.config.coupler_geometry(temperature)
        with _invariants(f"run.fit_dn.inputs[{i}].path ({path})"):
            outcomes |= fit_delta_n_from_reflectivity(
                {temperature: sweep}, geometry, section["probe_wavelength_nm"]
            )
    for temperature, outcome in sorted(outcomes.items()):
        tag = f"T{_fmt(temperature)}"
        runner.write(f"delta_n_points_{tag}.csv", write_sweep_csv, outcome.delta_n_points)
        payload = outcome.result.to_json_dict()
        payload["model"] = "delta_n = -a*P/(b + c*P)"
        payload["fitted"] = {
            "a": outcome.params.a,
            "b": outcome.params.b,
            "c": outcome.params.c,
            "temperature_c": temperature,
            "initial_slope_per_mw": outcome.params.a / outcome.params.b,
        }
        runner.write_json(f"fit_dn_{tag}.json", payload)
        for message in outcome.result.warnings:
            runner.note(f"{tag}: {message}")


def _run_fit_fpi(runner: _Runner, section: dict) -> None:
    if not section["input"]:
        raise ConfigError("run.fit_fpi.input: no input trace configured")
    for i, (start, end) in enumerate(section["mask_intervals_s"]):
        if start > end:
            raise ConfigError(f"run.fit_fpi.mask_intervals_s[{i}]: start {start} after end {end}")
    path = section["input"]
    trace = read_trace_csv(path)
    for start, end in section["mask_intervals_s"]:
        trace = trace.with_masked_interval(start, end)
    cavity, probe = runner.config.fpi_cavity(), section["probe_wavelength_nm"]
    with _invariants(f"run.fit_fpi.input ({path})"):
        fit = fit_fpi_trace(trace, cavity, probe, pump_on_time_s=section["pump_on_time_s"])
    payload = fit.result.to_json_dict()
    payload["model"] = (
        "Airy transmission T/T_max driven by dn(t) = dn_total*(1 - exp(-(t - t0)/tau))"
    )
    payload["fitted"] = {
        "delta_n_total": fit.delta_n_total,
        "tau_build_s": fit.tau_build_s,
        "phase_offset_rad": fit.phase_offset_rad,
    }
    runner.write_json("fit_fpi.json", payload)
    for message in fit.result.warnings:
        runner.note(message)


_HANDLERS = {
    "fpi-trace": _run_fpi_trace,
    "fpi-char": _run_fpi_char,
    "coupler-sweep": _run_coupler_sweep,
    "homodyne": _run_homodyne,
    "opo-spectrum": _run_opo_spectrum,
    "spdc-spectrum": _run_spdc_spectrum,
    "squeeze-budget": _run_squeeze_budget,
    "fit-dn": _run_fit_dn,
    "fit-fpi": _run_fit_fpi,
}
SUBCOMMANDS = tuple(_HANDLERS)


def _write_manifest(
    runner: _Runner, subcommand: str, status: str, wall_time_s: float,
    error: str | None,
) -> None:
    manifest = {
        "subcommand": subcommand,
        "status": status,
        "error": error,
        "config_path": runner.config.source_path,
        "config_hash": runner.provenance["config_hash"],
        "seed": runner.seed,
        "versions": {
            "photoref": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
        },
        "wall_time_s": wall_time_s,
        "outputs": runner.outputs,
        "warnings": runner.warnings,
        "resolved_config": runner.config.resolved,
    }
    _write_json(runner.out_dir / "run_manifest.json", manifest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photoref",
        description=(
            "Simulate and fit photorefractive effects in LiNbO3 integrated "
            "photonic circuits"
        ),
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress informational logging"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1

    out_dir = Path(args.out if args.out is not None else config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing regular file
        log.error("validation error: %s", exc)
        return 1
    config.seed_flag = args.seed  # checked with the run section, under the timer
    runner = _Runner(config, out_dir, config.seed, args.quiet)

    start = time.perf_counter()
    code, error = 0, None
    try:
        section = config.run_section(args.subcommand.replace("-", "_"))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            _HANDLERS[args.subcommand](runner, section)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        code, kind, error = 1, "validation error", str(exc)
    except (FitError, FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        code, kind, error = 2, "numerical failure", str(exc)
    _write_manifest(runner, args.subcommand, "failed" if code else "ok",
                    time.perf_counter() - start, error)
    if code:
        log.error("%s: %s", kind, error)
        return code
    if not args.quiet:
        log.info("wrote %d file(s) to %s", len(runner.outputs), out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
