"""fit-batch: read simulated measurements from CSV and fit them in one process.

Set-up uses the forward model of the reference chip (configs/example.yaml)
to write seeded noisy inputs:

- pump-on cavity traces at 30 C: 601, 1201 or 2401 samples over 60 s, pump
  on at 10 s, an index excursion of 1-8 half-fringe quanta (lambda/4L),
  1-2 % multiplicative noise, a build-up time of 3-8 s, a probe wavelength
  anywhere in one free spectral range (so any cavity phase at pump-on), and
  every fourth trace corrupted and masked over a 3 s interval;
- reflectivity sweep sets, each at 30, 60 and 90 C over 0-10 mW with 1 %
  noise and per-point sigma.

Each continuous property is Latin-hypercube sampled, so every seed covers
the same ranges.  The residual evaluations of one trace fit still move
with its noise realisation, from about 1,500 to 6,500 (a standard
deviation of about 40 % of their mean), so a pass holds 54 trace fits and
its total work moves with the seed by about 5 %.

The timed operations are ``read_trace_csv`` plus ``fit_fpi_trace``, and
three ``read_sweep_csv`` plus one ``fit_delta_n_from_reflectivity``.
Accuracy uses the tier-1 tolerances: |dn_total| within 10 % for traces,
and the 30 C initial slope a/b within 5 % for sweeps (at 60 and 90 C the
1 % noise leaves the slope unresolved).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from common import CONFIG, stratified

TRACES = 54
SWEEP_SETS = 3
SAMPLE_COUNTS = (601, 1201, 2401)
DURATION_S = 60.0
PUMP_ON_S = 10.0
TRACE_TEMPERATURE_C = 30.0
SWEEP_TEMPERATURES_C = (30.0, 60.0, 90.0)
SWEEP_POWERS_MW = np.linspace(0.0, 10.0, 11)
PROBE_NM = 1550.0
SLOPE_TEMPERATURE_C = 30.0
DN_TOLERANCE = 0.10
SLOPE_TOLERANCE = 0.05


def setup(work_dir, seed: int) -> None:
    """Write the seeded input CSVs and their ground truth into ``work_dir``."""
    from photoref import cavity, config, coupler, data, material

    cfg = config.parse_config(CONFIG)
    fpi = cfg.fpi_cavity()
    params = cfg.photorefraction(TRACE_TEMPERATURE_C)
    quantum = PROBE_NM / (4.0 * fpi.length_mm * 1e6)
    fsr_nm = cavity.fpi_characteristics(fpi, PROBE_NM, TRACE_TEMPERATURE_C)[0] * 1e-3
    rng = np.random.default_rng(seed)
    excursion = 1.0 + 7.0 * stratified(rng, TRACES)
    phase = stratified(rng, TRACES)
    tau = 3.0 + 5.0 * stratified(rng, TRACES)
    noise = 0.01 + 0.01 * stratified(rng, TRACES)
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    traces = []
    for i in range(TRACES):
        samples = SAMPLE_COUNTS[i % len(SAMPLE_COUNTS)]
        magnitude = excursion[i] * quantum
        power = params.b * magnitude / (params.a - params.c * magnitude)
        law = dataclasses.replace(params, tau_build_s=float(tau[i]))
        probe = PROBE_NM + fsr_nm * float(phase[i])
        schedule = material.PumpSchedule(
            [material.PumpSegment(PUMP_ON_S, DURATION_S, float(power))]
        )
        clean = cavity.simulate_fpi_trace(
            fpi, schedule, law, probe, TRACE_TEMPERATURE_C,
            DURATION_S / (samples - 1), DURATION_S,
        )
        values = clean.value * (1.0 + noise[i] * rng.standard_normal(samples))
        trace = data.Trace(clean.time_s, values)
        masked = i % 4 == 3
        if masked:
            start = float(rng.uniform(PUMP_ON_S + 2.0, DURATION_S - 10.0))
            window = (clean.time_s >= start) & (clean.time_s <= start + 3.0)
            trace = data.Trace(
                clean.time_s, np.where(window, 0.2, values)
            ).with_masked_interval(start, start + 3.0)
        path = inputs / f"trace_{i:02d}.csv"
        data.write_trace_csv(path, trace)
        traces.append({
            "path": str(path),
            "probe_wavelength_nm": probe,
            "delta_n_total": material.delta_n_steady(params, float(power)),
            "masked": masked,
        })
    sweep_sets = []
    for k in range(SWEEP_SETS):
        paths = {}
        for temperature in SWEEP_TEMPERATURES_C:
            clean = coupler.reflectivity_vs_pump(
                cfg.coupler_geometry(temperature), cfg.photorefraction(temperature),
                PROBE_NM, SWEEP_POWERS_MW,
            )
            noisy = clean.value * (1.0 + 0.01 * rng.standard_normal(len(clean)))
            sweep = data.SweepData(
                clean.abscissa, np.clip(noisy, 0.0, 1.0), 0.01 * np.abs(clean.value)
            )
            path = inputs / f"sweep_{k}_T{temperature:g}.csv"
            data.write_sweep_csv(path, sweep)
            paths[repr(temperature)] = str(path)
        sweep_sets.append(paths)
    truth = {
        "traces": traces,
        "sweep_sets": sweep_sets,
        "slope_per_mw": params.a / params.b,
    }
    (work_dir / "inputs.json").write_text(json.dumps(truth, indent=1), encoding="utf-8")


class Workload:
    name = "fit-batch"
    in_process = True
    latency_kinds = ("trace_fit", "sweep_fit")

    def __init__(self, work_dir, seed: int):
        from photoref import config, data, fit

        self.data, self.fit = data, fit
        self.inputs = json.loads((work_dir / "inputs.json").read_text(encoding="utf-8"))
        cfg = config.parse_config(CONFIG)
        self.cavity = cfg.fpi_cavity()
        self.geometries = {t: cfg.coupler_geometry(t) for t in SWEEP_TEMPERATURES_C}

    def steps(self) -> list:
        """One pass: every trace, then every sweep set, as (kind, run, check)."""
        data, fit = self.data, self.fit
        steps = []
        for item in self.inputs["traces"]:
            def run_trace(tracer, item=item):
                trace = data.read_trace_csv(item["path"])
                return fit.fit_fpi_trace(
                    trace, self.cavity, item["probe_wavelength_nm"],
                    TRACE_TEMPERATURE_C, pump_on_time_s=PUMP_ON_S,
                )

            def check_trace(result, tracer, truth=item["delta_n_total"]):
                error = _check_trace_fit(result)
                if error is not None:
                    return error, None, {}
                return None, abs(result.delta_n_total - truth) <= DN_TOLERANCE * abs(truth), {}

            steps.append(("trace_fit", run_trace, check_trace))
        for paths in self.inputs["sweep_sets"]:
            def run_sweeps(tracer, paths=paths):
                sweeps = {float(t): data.read_sweep_csv(p) for t, p in paths.items()}
                return fit.fit_delta_n_from_reflectivity(sweeps, self.geometries, PROBE_NM)

            def check_sweeps(result, tracer, truth=self.inputs["slope_per_mw"]):
                error = _check_sweep_fit(result)
                if error is not None:
                    return error, None, {}
                law = result[SLOPE_TEMPERATURE_C].params
                return None, abs(law.a / law.b - truth) <= SLOPE_TOLERANCE * truth, {}

            steps.append(("sweep_fit", run_sweeps, check_sweeps))
        return steps


def _check_trace_fit(result) -> str | None:
    values = [result.delta_n_total, result.tau_build_s, result.phase_offset_rad]
    values += list(result.result.parameters) + list(np.ravel(result.result.covariance))
    if not all(math.isfinite(v) for v in values):
        return "trace fit returned a non-finite value"
    if result.delta_n_total > 0:
        return "trace fit returned a positive index excursion"
    return None


def _check_sweep_fit(result) -> str | None:
    if sorted(result) != sorted(SWEEP_TEMPERATURES_C):
        return f"sweep fit returned temperatures {sorted(result)}"
    for temperature, outcome in result.items():
        values = [outcome.params.a, outcome.params.c]
        values += list(np.ravel(outcome.result.covariance))
        values += list(outcome.delta_n_points.value)
        if not all(math.isfinite(v) for v in values):
            return f"sweep fit at {temperature} C returned a non-finite value"
    return None
