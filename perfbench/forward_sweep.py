"""forward-sweep: the forward-model chain over a grid of operating points.

Set-up draws a seeded grid of (temperature, pump power) points: each
tabulated temperature of configs/example.yaml (30, 60, 90 C) with pump
powers Latin-hypercube sampled over (0, 20] mW.  One timed operation is
one point through the chain

    delta_n_steady -> simulate_fpi_trace -> delta_n_to_detuning
    -> opo_optimal_levels -> reflectivity_vs_pump
    -> measured_squeezing_vs_residual_pump -> spdc_spectrum (881 points)
    -> effective_squeezing_vs_power

and one timed operation per temperature writes that temperature's rows
with ``write_columns_csv``.  No fits run and nothing is imported while
timing, so the model layers and the CSV writer do the work.
"""

from __future__ import annotations

import json
import math

import numpy as np

from common import CONFIG, stratified

TEMPERATURES_C = (30.0, 60.0, 90.0)
POINTS_PER_TEMPERATURE = 40
MAX_POWER_MW = 20.0
PROBE_NM = 1550.0
PUMP_ON_S = 10.0
DURATION_S = 60.0
SAMPLE_PERIOD_S = 0.05
SPECTRUM_POINTS = 881
SPECTRUM_SPAN_NM = 220.0
HEADER = [
    "pump_power_mW", "delta_n", "detuning", "best_squeezing_db",
    "best_antisqueezing_db", "trace_min", "trace_max", "reflectivity",
    "measured_squeezing_db", "spdc_peak_nm", "ideal_db", "degraded_db",
]


def setup(work_dir, seed: int) -> None:
    """Write the seeded operating-point grid into ``work_dir``."""
    rng = np.random.default_rng(seed)
    grid = {
        repr(t): sorted(MAX_POWER_MW * (1.0 - stratified(rng, POINTS_PER_TEMPERATURE)))
        for t in TEMPERATURES_C
    }
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "inputs.json").write_text(json.dumps(grid, indent=1), encoding="utf-8")


class Workload:
    name = "forward-sweep"
    in_process = True
    latency_kinds = ("point",)

    def __init__(self, work_dir, seed: int):
        from photoref import cavity, config, coupler, data, material, spdc

        self.cavity, self.coupler, self.data = cavity, coupler, data
        self.material, self.spdc = material, spdc
        self.out_dir = work_dir / "out"
        self.grid = {
            float(t): powers
            for t, powers in json.loads((work_dir / "inputs.json").read_text()).items()
        }
        cfg = config.parse_config(CONFIG)
        self.fpi = cfg.fpi_cavity()
        self.squeezer = cfg.squeezer_cavity()
        opo = cfg.run_section("opo_spectrum")
        budget = cfg.run_section("squeeze_budget")
        self.sigma = cavity.pump_parameter_for_squeezing_db(float(opo["initial_squeezing_db"]))
        self.level_db = float(opo["initial_squeezing_db"])
        self.eta = float(opo["detection_efficiency"])
        self.mu0 = float(budget["mu0_per_sqrt_mw"])
        self.params = {t: cfg.photorefraction(t) for t in TEMPERATURES_C}
        self.couplers = {t: cfg.coupler_geometry(t) for t in TEMPERATURES_C}
        # A homodyne coupler balanced at each temperature: 1.5 coupling lengths.
        self.homodyne = {
            t: coupler.CouplerGeometry(
                g.coupling_constant_per_mm, 1.5 * coupler.coupling_length(g.coupling_constant_per_mm)
            )
            for t, g in self.couplers.items()
        }
        section = cfg.qpm_section()
        cal = section["calibration"]
        cal_t = float(cal["temperature_c"])
        period = spdc.calibrate_poling_period(
            cfg.material(), cal_t, float(cal["pump_wavelength_nm"]),
            float(cal["degeneracy_wavelength_nm"]),
            pump_index_shift=material.delta_n_steady(
                cfg.photorefraction(cal_t), float(cal["reference_pump_power_mw"])
            ),
        )
        self.device = spdc.QpmDevice(period, float(section["length_mm"]), cfg.material())
        pump = {float(t): float(v) for t, v in cfg.run_section("spdc_spectrum")["pump_wavelength_nm"].items()}
        pump.setdefault(60.0, 0.5 * (pump[30.0] + pump[90.0]))
        self.pump_nm = pump
        self.spectrum_grid = {
            t: np.linspace(2 * pump[t] - SPECTRUM_SPAN_NM / 2, 2 * pump[t] + SPECTRUM_SPAN_NM / 2,
                           SPECTRUM_POINTS)
            for t in TEMPERATURES_C
        }

    def _point(self, temperature: float, power: float) -> dict:
        cavity, coupler, material, spdc = self.cavity, self.coupler, self.material, self.spdc
        params = self.params[temperature]
        dn = material.delta_n_steady(params, power)
        schedule = material.PumpSchedule([material.PumpSegment(PUMP_ON_S, DURATION_S, power)])
        trace = cavity.simulate_fpi_trace(
            self.fpi, schedule, params, PROBE_NM, temperature, SAMPLE_PERIOD_S, DURATION_S
        )
        detuning = cavity.delta_n_to_detuning(self.squeezer, dn, PROBE_NM, temperature)
        best, anti = cavity.opo_optimal_levels(self.sigma, detuning, self.eta)
        reflectivity = coupler.reflectivity_vs_pump(
            self.couplers[temperature], params, PROBE_NM, [0.0, power]
        )
        measured = coupler.measured_squeezing_vs_residual_pump(
            self.homodyne[temperature], params, PROBE_NM, self.level_db, [0.0, power]
        )
        lam_p = self.pump_nm[temperature]
        grid = self.spectrum_grid[temperature]
        density = spdc.spdc_spectrum(
            self.device, spdc.SpdcOperatingPoint(lam_p, temperature, power), params, grid
        )
        ideal, degraded = spdc.effective_squeezing_vs_power(
            self.device, temperature, lam_p, params, self.mu0, [0.0, power]
        )
        return {
            "row": [power, dn, detuning, best, anti, float(trace.value.min()),
                    float(trace.value.max()), float(reflectivity.value[1]),
                    float(measured.value[1]), float(grid[int(np.argmax(density))]),
                    float(ideal.value[1]), float(degraded.value[1])],
            "density_max": float(density.max()),
            "budget_at_zero": float(measured.value[0]),
            "ideal": ideal.value,
            "degraded": degraded.value,
        }

    def _check(self, point: dict) -> str | None:
        if not all(math.isfinite(v) for v in point["row"]):
            return "non-finite model output"
        if abs(point["density_max"] - 1.0) > 1e-12:
            return f"SPDC spectrum peaks at {point['density_max']!r}, not 1"
        if abs(point["budget_at_zero"] - self.level_db) > 1e-9:
            return f"budget at P = 0 is {point['budget_at_zero']!r} dB, not {self.level_db} dB"
        if np.any(np.abs(point["degraded"]) > np.abs(point["ideal"]) + 1e-12):
            return "degraded squeezing exceeds the ideal squeezing"
        return None

    def steps(self) -> list:
        """One pass: per temperature, every point, then the write of its rows."""
        steps = []
        for temperature, powers in self.grid.items():
            rows = [None] * len(powers)
            for i, power in enumerate(powers):
                def run_point(tracer, temperature=temperature, power=power):
                    return self._point(temperature, power)

                def check_point(point, tracer, rows=rows, i=i):
                    rows[i] = point["row"]
                    return self._check(point), None, {}

                steps.append(("point", run_point, check_point))
            path = self.out_dir / f"forward_T{temperature:g}.csv"

            def run_write(tracer, path=path, rows=rows):
                done = [row for row in rows if row is not None]
                columns = [np.asarray(c) for c in zip(*done)]
                self.data.write_columns_csv(path, HEADER, columns)

            def check_write(_, tracer, path=path):
                return (None if path.stat().st_size else "empty output file"), None, {}

            steps.append(("write", run_write, check_write))
        return steps
