import copy
import functools
import importlib.util
import json
import math
import operator
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

from photoref.cli import SUBCOMMANDS, main
from photoref.config import _RANGES, _SCHEMA, DEFAULT_CONFIG
from photoref.coupler import CouplerGeometry, coupler_reflectivity
from photoref.data import SweepData, read_sweep_csv, read_trace_csv, write_sweep_csv

TRIMMED_RUN = {
    "seed": 77,
    "output_dir": "out",
    "fpi_trace": {
        "temperature_c": 30.0,
        "probe_wavelength_nm": 1550.0,
        "sample_period_s": 0.1,
        "duration_s": 40.0,
        "schedule": [{"start_s": 5.0, "end_s": 40.0, "pump_power_mw": 5.0}],
    },
    "coupler_sweep": {
        "probe_wavelength_nm": 1550.0,
        "pump_powers_mw": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        "noise_fraction": 0.01,
    },
    "opo_spectrum": {
        "initial_squeezing_db": -5.0,
        "detunings": [0.0, 1.5],
        "detection_efficiency": 1.0,
        "omega_max": 6.0,
        "omega_step": 0.1,
    },
    "spdc_spectrum": {
        "pump_wavelength_nm": {"30.0": 770.73},
        "pump_powers_mw": [0.25, 5.0],
        "wavelength_span_nm": 200.0,
        "points": 201,
    },
    "squeeze_budget": {
        "temperature_c": 30.0,
        "probe_wavelength_nm": 1550.0,
        "initial_levels_db": [-3.0, -5.0, -10.0],
        "pump_powers_mw": [0.0, 2.0, 5.0, 10.0],
        "mu0_per_sqrt_mw": 0.101,
        "spdc_pump_wavelength_nm": 770.73,
        "spdc_pump_powers_mw": [0.0, 20.0, 60.0, 100.0],
    },
}


@pytest.fixture()
def make_config(tmp_path):
    def _make(out_dir: Path) -> str:
        payload = {"run": dict(TRIMMED_RUN)}
        payload["run"]["fit_dn"] = {
            "probe_wavelength_nm": 1550.0,
            "inputs": [
                {"path": str(out_dir / "coupler_sweep_T30.csv"),
                 "temperature_c": 30.0},
            ],
        }
        payload["run"]["fit_fpi"] = {
            "input": str(out_dir / "fpi_trace.csv"),
            "probe_wavelength_nm": 1550.0,
            "pump_on_time_s": 5.0,
        }
        path = tmp_path / f"config_{out_dir.name}.yaml"
        path.write_text(yaml.safe_dump(payload), encoding="utf-8")
        return str(path)

    return _make


@pytest.fixture()
def config_path(tmp_path, make_config) -> str:
    return make_config(tmp_path / "out")


def run(sub, config_path, out, *extra) -> int:
    return main([sub, "--config", config_path, "--out", str(out), "--quiet", *extra])


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class TestSubcommands:
    def test_all_subcommands_succeed(self, config_path, tmp_path):
        out = tmp_path / "out"
        # Simulation commands first; the fit commands consume their outputs.
        for sub in SUBCOMMANDS:
            assert run(sub, config_path, out) == 0, sub
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["status"] == "ok"
            assert manifest["subcommand"] == sub
            for name in manifest["outputs"]:
                assert (out / name).exists()

    def test_manifest_contents(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("fpi-char", config_path, out, "--seed", "123") == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 123
        assert len(manifest["config_hash"]) == 64
        assert manifest["error"] is None
        assert "photoref" in manifest["versions"]
        assert manifest["resolved_config"]["devices"]["fpi"]["length_mm"] == 15.0
        assert manifest["wall_time_s"] >= 0.0

    def test_homodyne_balanced_vacuum_is_zero_db(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("homodyne", config_path, out) == 0
        rows = [
            line.split(",")
            for line in (out / "homodyne.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert rows[0] == ["phase_rad", "value"]
        assert float(rows[1][1]) == 0.0

    def test_optimal_levels_follow_the_band(self, tmp_path):
        # A band narrower than the optimum's frequency (sqrt(8 - sigma^2)
        # at Delta = 3): the best level is the spectrum file's least value.
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(
            {"run": {"opo_spectrum": {"omega_max": 1.0, "detunings": [3.0]}}}
        ))
        out = tmp_path / "out"
        assert run("opo-spectrum", str(path), out) == 0

        def table(name):
            lines = (out / name).read_text().splitlines()
            rows = [line.split(",") for line in lines if line and not line.startswith("#")]
            return np.array(rows[1:], dtype=float)

        spectrum = table("opo_spectrum_delta3.csv")
        (best,) = table("opo_optimal_levels.csv")
        assert best[1] == pytest.approx(spectrum[:, 1].min(), abs=1e-9)
        assert best[2] == pytest.approx(spectrum[:, 2].max(), abs=1e-9)

    def test_budget_degradation_ordering(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("squeeze-budget", config_path, out) == 0
        losses = {}
        for level in (3.0, 5.0, 10.0):
            sweep = read_sweep_csv(out / f"homodyne_budget_{level:g}dB.csv")
            losses[level] = sweep.value - sweep.value[0]
        assert np.all(losses[10.0][1:] > losses[5.0][1:])
        assert np.all(losses[5.0][1:] > losses[3.0][1:])
        ideal = read_sweep_csv(out / "squeeze_ideal.csv")
        degraded = read_sweep_csv(out / "squeeze_photorefractive.csv")
        assert np.all(degraded.value >= ideal.value - 1e-12)

    def test_fpi_trace_oscillates_then_settles(self, tmp_path):
        """Pump-on trace from the shipped config: oscillations, then flat."""
        out = tmp_path / "out"
        code = main(
            ["fpi-trace", "--config", "configs/example.yaml", "--out", str(out),
             "--quiet"]
        )
        assert code == 0
        trace = read_trace_csv(out / "fpi_trace.csv")
        v = trace.value
        interior = np.flatnonzero(
            (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
            | (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
        )
        assert len(interior) >= 2  # at least one full oscillation
        tail = v[trace.time_s >= 0.9 * trace.time_s[-1]]
        assert np.ptp(tail) < 0.01  # settled by the end of the window

    def test_fit_chain_recovers_defaults(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("coupler-sweep", config_path, out) == 0
        assert run("fpi-trace", config_path, out) == 0
        assert run("fit-dn", config_path, out) == 0
        fitted = json.loads((out / "fit_dn_T30.json").read_text())
        slope = fitted["fitted"]["initial_slope_per_mw"]
        assert slope == pytest.approx(1.1e-5, rel=0.05)
        assert run("fit-fpi", config_path, out) == 0
        fpi = json.loads((out / "fit_fpi.json").read_text())
        dn = fpi["fitted"]["delta_n_total"]
        expected = -1.1e-4 * 5.0 / (10.0 + 0.02 * 5.0)
        assert dn == pytest.approx(expected, rel=1e-3)

    def test_fit_dn_forwards_the_fit_warnings(self, config_path, tmp_path):
        """A sweep that falls below R(0), where the 30 C coupler's R only
        rises, ends with a on its bound of 0: the fit's warnings reach the
        manifest."""
        out = tmp_path / "out"
        out.mkdir()
        r0 = coupler_reflectivity(CouplerGeometry(0.46, 4.3), 0.0)
        powers = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        sweep = SweepData(powers, [r0] + [r0 - 0.01] * 5, [0.002] * 6)
        write_sweep_csv(out / "coupler_sweep_T30.csv", sweep)
        assert run("fit-dn", config_path, out) == 0
        fitted = json.loads((out / "fit_dn_T30.json").read_text())
        assert fitted["fitted"]["a"] == 0.0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["warnings"] == [f"T30: {w}" for w in fitted["warnings"]]
        assert any("parameter 0 ends on its lower bound" in w for w in manifest["warnings"])

    @pytest.mark.parametrize("bad", [0.0, -0.002])
    def test_fit_dn_names_the_sigma_it_refuses(self, config_path, tmp_path, bad):
        """A sigma <= 0 is refused by its point, after the file and its key."""
        out = tmp_path / "out"
        out.mkdir()
        path = out / "coupler_sweep_T30.csv"
        powers = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        write_sweep_csv(path, SweepData(powers, [0.2] * 6, [0.002, bad] + [0.002] * 4))
        assert run("fit-dn", config_path, out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == (
            f"run.fit_dn.inputs[0].path ({path}): 30.0 C sweep point 1: sigma {bad!r} must be > 0"
        )
        assert manifest["outputs"] == []

    def test_fit_dn_names_the_pump_power_it_refuses(self, config_path, tmp_path):
        """A negative pump power is refused by its point, not by a numpy error."""
        out = tmp_path / "out"
        out.mkdir()
        path = out / "coupler_sweep_T30.csv"
        path.write_text("pump_power_mW,value\n0,0.5\n-1,0.52\n2,0.55\n4,0.6\n", encoding="utf-8")
        assert run("fit-dn", config_path, out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"] == (
            f"run.fit_dn.inputs[0].path ({path}): 30.0 C sweep point 1: pump power -1.0 must be >= 0"
        )
        assert manifest["outputs"] == []

    def test_fpi_char_with_angled_facets_reports_no_finesse(self, config_path, tmp_path):
        """Angled facets reflect nothing into the guided mode: F = 0, as the
        trace simulator and the trace fit use."""
        payload = yaml.safe_load(Path(config_path).read_text())
        payload["devices"] = {"fpi": {"angled_facets": True}}
        angled = tmp_path / "angled.yaml"
        angled.write_text(yaml.safe_dump(payload))
        out = tmp_path / "out"
        assert run("fpi-char", str(angled), out) == 0
        report = json.loads((out / "fpi_characteristics.json").read_text())
        for key in ("1550", "775"):
            assert report[key]["coefficient_of_finesse"] == 0.0
            assert report[key]["conventional_finesse"] == 0.0
            assert report[key]["fwhm_pm"] is None


class TestUnsortedGrids:
    """A pump-power grid in any order runs, and its CSV rows keep that order."""

    @staticmethod
    def configure(config_path, section, **grids) -> None:
        payload = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
        payload["run"][section].update(grids)
        Path(config_path).write_text(yaml.safe_dump(payload), encoding="utf-8")

    def test_coupler_sweep(self, config_path, tmp_path):
        out = tmp_path / "out"
        self.configure(config_path, "coupler_sweep", pump_powers_mw=[5.0, 0.0, 1.0])
        assert run("coupler-sweep", config_path, out) == 0
        for name in ("coupler_sweep_T30", "coupler_sweep_T60", "coupler_sweep_T90"):
            assert read_sweep_csv(out / f"{name}.csv").abscissa.tolist() == [5.0, 0.0, 1.0]
            payload = json.loads((out / f"{name}.json").read_text())
            assert payload["pump_power_mW"] == [5.0, 0.0, 1.0]

    def test_fit_dn_on_the_unsorted_sweep(self, config_path, tmp_path):
        out = tmp_path / "out"
        powers = [5.0, 0.0, 1.0, 10.0, 2.0, 8.0]
        self.configure(config_path, "coupler_sweep", pump_powers_mw=powers)
        assert run("coupler-sweep", config_path, out) == 0
        assert run("fit-dn", config_path, out) == 0
        assert read_sweep_csv(out / "delta_n_points_T30.csv").abscissa.tolist() == powers
        fitted = json.loads((out / "fit_dn_T30.json").read_text())
        assert fitted["fitted"]["initial_slope_per_mw"] == pytest.approx(1.1e-5, rel=0.05)

    def test_fit_dn_names_the_input_it_refuses(self, config_path, tmp_path):
        """coupler-sweep writes a three-point sweep; fit-dn needs four points
        and names the file and its key when it refuses it."""
        out = tmp_path / "out"
        self.configure(config_path, "coupler_sweep", pump_powers_mw=[5.0, 0.0, 1.0])
        assert run("coupler-sweep", config_path, out) == 0
        assert run("fit-dn", config_path, out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == (
            f"run.fit_dn.inputs[0].path ({out / 'coupler_sweep_T30.csv'}): "
            "30.0 C sweep has 3 points; need at least 4"
        )
        assert manifest["outputs"] == []

    def test_squeeze_budget(self, config_path, tmp_path):
        """The unsorted run's rows are the sorted run's rows, permuted."""
        sorted_out, out = tmp_path / "sorted", tmp_path / "out"
        assert run("squeeze-budget", config_path, sorted_out) == 0
        order, spdc_order = [2, 0, 3, 1], [3, 0, 2, 1]
        section = TRIMMED_RUN["squeeze_budget"]
        powers = [section["pump_powers_mw"][i] for i in order]
        spdc_powers = [section["spdc_pump_powers_mw"][i] for i in spdc_order]
        self.configure(config_path, "squeeze_budget", pump_powers_mw=powers,
                       spdc_pump_powers_mw=spdc_powers)
        assert run("squeeze-budget", config_path, out) == 0
        files = [(f"homodyne_budget_{level:g}dB.csv", powers, order) for level in (3, 5, 10)]
        files += [(name, spdc_powers, spdc_order)
                  for name in ("squeeze_ideal.csv", "squeeze_photorefractive.csv")]
        for name, grid, permutation in files:
            sweep, reference = read_sweep_csv(out / name), read_sweep_csv(sorted_out / name)
            assert sweep.abscissa.tolist() == grid, name
            np.testing.assert_array_equal(sweep.value, reference.value[permutation])


class TestNoisySweepEnds:
    """A noisy coupler sweep at the ends of R's range: coupler-sweep refuses a
    point that its relative noise leaves with sigma 0, and fit-dn accepts a
    draw within 5 sigma of the range."""

    @staticmethod
    def configure(config_path, coupling_constant_per_mm) -> None:
        payload = yaml.safe_load(Path(config_path).read_text(encoding="utf-8"))
        payload["devices"] = {"coupler": {"coupling_constant_per_mm": {
            "30.0": coupling_constant_per_mm}}}
        Path(config_path).write_text(yaml.safe_dump(payload), encoding="utf-8")

    def test_zero_reflectivity_refused_before_any_file(self, config_path, tmp_path):
        """k L = pi/2 gives R = 0 at 0 mW, where 1 % relative noise draws nothing."""
        out = tmp_path / "out"
        self.configure(config_path, 0.3653014713476504)
        assert run("coupler-sweep", config_path, out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"] == (
            "run.coupler_sweep.noise_fraction: relative noise gives sigma 0"
            " where R = 0, at 30.0 C and 0.0 mW"
        )
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    def test_reflectivity_drawn_above_one_is_fitted(self, config_path, tmp_path):
        """k L = pi gives R = 1 at 0 mW; the example seed draws R = 1.00487
        there, half a sigma above 1, and fit-dn fits the sweep."""
        out = tmp_path / "out"
        self.configure(config_path, 0.7306029426953008)
        assert run("coupler-sweep", config_path, out, "--seed", "20260810") == 0
        sweep = read_sweep_csv(out / "coupler_sweep_T30.csv")
        assert 1.0 < sweep.value[0] < 1.0 + sweep.sigma[0]
        assert run("fit-dn", config_path, out) == 0
        fitted = json.loads((out / "fit_dn_T30.json").read_text())
        assert fitted["converged"]


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(
            ["fpi-char", "--config", str(tmp_path / "none.yaml"), "--quiet"]
        ) == 1

    def test_strict_unknown_key(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"devices": {"fpi": {"bogus": 1}}}))
        assert main(
            ["fpi-char", "--config", str(path), "--out", str(tmp_path / "o"),
             "--quiet"]
        ) == 1

    def test_misspelled_device_key_is_refused_under_quiet(self, tmp_path):
        """A typo in a device key is not a run of the reference chip: exit 1,
        the key named on stderr, and no output directory or manifest."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"devices": {"fpi": {"lenght_mm": 20.0}}}))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "photoref.cli", "fpi-char", "--config", str(path),
             "--out", str(out), "--quiet"],
            env=src_env(), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "unknown configuration keys: devices.fpi.lenght_mm" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["logged", "quiet"])
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_misspelled_key_fails_every_subcommand(self, tmp_path, caplog, subcommand, quiet):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"devices": {"fpi": {"lenght_mm": 20.0}}}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            assert main([subcommand, "--config", str(path), "--out", str(out), *quiet]) == 1
        assert any("devices.fpi.lenght_mm" in rec.getMessage() for rec in caplog.records)
        assert not out.exists()

    def test_two_spellings_of_one_temperature_are_refused(self, tmp_path):
        """Two keys naming 30 C, in the laws and in the coupler table: exit 1
        before the output directory is made, both spellings named."""
        law = {"b": 10.0, "c": 0.02}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({
            "photorefraction": {"30": {"a": 1.1e-4, **law}, "30.0": {"a": 5.0e-4, **law}},
            "devices": {"coupler": {"coupling_constant_per_mm": {"30": 0.46, "30.00": 0.9}}},
        }, sort_keys=False))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "photoref.cli", "coupler-sweep", "--config", str(path),
             "--out", str(out), "--quiet"],
            env=src_env(), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert 'photorefraction: "30" and "30.0" name one temperature' in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_strict_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fpi-char", "--config", "configs/example.yaml", "--out", str(tmp_path), "--strict"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "subcommand, payload, message",
        [
            ("coupler-sweep",
             {"devices": {"coupler": {"coupling_constant_per_mm": {"30.0000001": 0.46}}}},
             "devices.coupler.coupling_constant_per_mm.30.0000001: 30.0000001 names the"
             " same output as devices.coupler.coupling_constant_per_mm.30.0"),
            ("spdc-spectrum", {"run": {"spdc_spectrum": {"pump_powers_mw": [1, 1]}}},
             "run.spdc_spectrum.pump_powers_mw[1]: 1.0 names the same output"
             " as run.spdc_spectrum.pump_powers_mw[0]"),
            ("spdc-spectrum",
             {"run": {"spdc_spectrum": {"pump_wavelength_nm": {"30.0000001": 770.73}}}},
             "run.spdc_spectrum.pump_wavelength_nm.30.0000001: 30.0000001 names the"
             " same output as run.spdc_spectrum.pump_wavelength_nm.30.0"),
            ("opo-spectrum", {"run": {"opo_spectrum": {"detunings": [0.5, 1.0, 0.5]}}},
             "run.opo_spectrum.detunings[2]: 0.5 names the same output"
             " as run.opo_spectrum.detunings[0]"),
            ("squeeze-budget",
             {"run": {"squeeze_budget": {"initial_levels_db": [-3.0, -3.0000001]}}},
             "run.squeeze_budget.initial_levels_db[1]: -3.0000001 names the same output"
             " as run.squeeze_budget.initial_levels_db[0]"),
            ("fpi-char", {"run": {"fpi_char": {"wavelengths_nm": [1550, 1550.0000001]}}},
             "run.fpi_char.wavelengths_nm[1]: 1550.0000001 names the same output"
             " as run.fpi_char.wavelengths_nm[0]"),
            ("fit-dn",
             {"run": {"fit_dn": {"inputs": [
                 {"path": "missing_a.csv", "temperature_c": 30},
                 {"path": "missing_b.csv", "temperature_c": 30.0000001}]}}},
             "run.fit_dn.inputs[1].temperature_c: 30.0000001 names the same output"
             " as run.fit_dn.inputs[0].temperature_c"),
        ],
        ids=["coupler-temperature", "spdc-power", "spdc-temperature", "opo-detuning",
             "budget-level", "fpi-char-wavelength", "fit-dn-temperature"],
    )
    def test_grid_entry_naming_an_output_twice_is_refused(
        self, tmp_path, subcommand, payload, message
    ):
        """Two grid values, or two temperature keys, that render to one file
        name would write that file twice: refused by index or by key before
        any data file is written."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(path), "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"] == message
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([{"start_s": 10.0, "end_s": 40.0, "pump_power_mw": 5.0},
              {"start_s": 30.0, "end_s": 50.0, "pump_power_mw": 5.0}],
             "run.fpi_trace.schedule[1]: segments overlap or are unordered at t = 30.0 s"),
            ([{"start_s": 40.0, "end_s": 10.0, "pump_power_mw": 5.0}],
             "run.fpi_trace.schedule[0]: segment must satisfy start < end"),
        ],
        ids=["overlap", "reversed"],
    )
    def test_schedule_refusal_names_its_entry(self, tmp_path, schedule, message):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"fpi_trace": {"schedule": schedule}}}))
        out = tmp_path / "out"
        assert main(["fpi-trace", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"] == message
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    def test_empty_schedule_fails_with_manifest(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            yaml.safe_dump({"run": {"fpi_trace": {"schedule": []}}})
        )
        out = tmp_path / "out"
        assert main(
            ["fpi-trace", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "empty" in manifest["error"]

    def test_negative_duration_is_validation_error(self, tmp_path, caplog):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"fpi_trace": {"duration_s": -1.0}}}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            code = main(["fpi-trace", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert any("duration_s" in rec.getMessage() for rec in caplog.records)
        assert not (out / "fpi_trace.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "duration_s" in manifest["error"]

    def test_out_naming_a_file_is_validation_error(self, tmp_path):
        """A file where the output directory should go: exit 1, logged, no traceback."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({}))
        occupied = tmp_path / "occupied"
        occupied.write_text("not a directory\n")
        done = subprocess.run(
            [sys.executable, "-m", "photoref.cli", "fpi-char", "--config", str(path),
             "--out", str(occupied), "--quiet"],
            env=src_env(), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "validation error" in done.stderr
        assert str(occupied) in done.stderr
        assert "Traceback" not in done.stderr
        assert occupied.read_text() == "not a directory\n"

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_non_positive_omega_step_fails_with_manifest(self, tmp_path, caplog, step):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"opo_spectrum": {"omega_step": step}}}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            code = main(["opo-spectrum", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert any("run.opo_spectrum.omega_step" in rec.getMessage() for rec in caplog.records)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "run.opo_spectrum.omega_step" in manifest["error"]
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    def test_oversized_omega_grid_fails_with_manifest(self, tmp_path):
        """A frequency grid of 2e13 points is refused by key before any file;
        numpy would refuse its 146 TiB allocation at once with a traceback."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"opo_spectrum": {"omega_step": 1.0e-12}}}))
        out = tmp_path / "out"
        assert main(["opo-spectrum", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("run.opo_spectrum.omega_step: ")
        assert manifest["outputs"] == []

    @pytest.mark.parametrize(
        "subcommand, section, key, value",
        [
            ("opo-spectrum", "opo_spectrum", "omega_max", -1.0),
            ("spdc-spectrum", "spdc_spectrum", "points", 0),
            ("spdc-spectrum", "spdc_spectrum", "points", 1),
            ("coupler-sweep", "coupler_sweep", "noise_fraction", -0.5),
            ("spdc-spectrum", "spdc_spectrum", "wavelength_span_nm", 0.0),
            ("spdc-spectrum", "spdc_spectrum", "background", -0.1),
            ("squeeze-budget", "squeeze_budget", "mu0_per_sqrt_mw", 0.0),
            ("squeeze-budget", "squeeze_budget", "spdc_pump_wavelength_nm", 810.0),
            ("squeeze-budget", "squeeze_budget", "pump_powers_mw", [0.0, -1.0]),
            ("squeeze-budget", "squeeze_budget", "spdc_pump_powers_mw", [0.0, -1.0]),
        ],
    )
    def test_out_of_range_knob_fails_with_manifest(
        self, tmp_path, caplog, subcommand, section, key, value
    ):
        """Refused before any data file is written; the message names the key."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {section: {key: value}}}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            code = main([subcommand, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert any(f"run.{section}.{key}" in rec.getMessage() for rec in caplog.records)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert f"run.{section}.{key}" in manifest["error"]
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    @pytest.mark.parametrize(
        "subcommand, section, key",
        [
            ("coupler-sweep", "coupler_sweep", "pump_powers_mw"),
            ("homodyne", "homodyne", "phases_rad"),
            ("opo-spectrum", "opo_spectrum", "detunings"),
            ("fpi-char", "fpi_char", "wavelengths_nm"),
        ],
    )
    def test_empty_grid_fails_with_manifest(self, tmp_path, subcommand, section, key):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {section: {key: []}}}))
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(path), "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert f"run.{section}.{key}" in manifest["error"]
        assert "empty" in manifest["error"]
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    @pytest.mark.parametrize(
        "subcommand, payload, named",
        [
            ("fpi-trace", {"run": {"fpi_trace": {"sample_period_s": 1.0e-9}}},
             ["sample_period_s", "duration_s"]),
            ("coupler-sweep",
             {"devices": {"coupler": {"coupling_constant_per_mm": {"45": 0.47}}}},
             ["photorefraction: no entry at 45.0 C"]),
            ("spdc-spectrum", {"run": {"spdc_spectrum": {"pump_wavelength_nm": {"45": 772.0}}}},
             ["photorefraction: no entry at 45.0 C"]),
        ],
        ids=["trace-grid", "coupler-second-temperature", "spdc-second-temperature"],
    )
    def test_refusal_logged_without_traceback(self, tmp_path, subcommand, payload, named):
        """An oversized trace grid, and a key of a sweep's temperature-keyed
        map that has no law, after a good one: exit 1, the refusal on stderr,
        a failed manifest and no data file."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "photoref.cli", subcommand, "--config", str(path),
             "--out", str(out), "--quiet"],
            env=src_env(), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        for word in named:
            assert word in done.stderr
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    @pytest.mark.parametrize(
        "subcommand, payload, flag, named",
        [
            ("coupler-sweep", {"run": {"seed": -1}}, [], "run.seed"),
            ("coupler-sweep", {}, ["--seed", "-1"], "--seed"),
            ("homodyne", {}, ["--seed", "-1"], "--seed"),
            ("homodyne", {}, ["--seed", str(2**64)], "--seed"),
        ],
        ids=["config-negative", "flag-negative-rng", "flag-negative", "flag-too-large"],
    )
    def test_seed_outside_u64_is_refused_by_name(
        self, tmp_path, subcommand, payload, flag, named
    ):
        """Refused by name before any file, although main reads the seed
        before the handler runs: exit 1 and no traceback."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "photoref.cli", subcommand, "--config", str(path),
             "--out", str(out), "--quiet", *flag],
            env=src_env(), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert f"{named} must lie in" in done.stderr
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert named in manifest["error"]
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]

    def test_fit_dn_without_inputs(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({}))
        out = tmp_path / "out"
        assert main(
            ["fit-dn", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 1

    def test_fit_dn_repeated_temperature_is_refused_before_reading(self, tmp_path):
        """Two inputs at one temperature would fit one file with the other's coupler."""
        inputs = [{"path": str(tmp_path / f"missing_T{t}.csv"), "temperature_c": 30.0}
                  for t in (30, 90)]
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"fit_dn": {"inputs": inputs}}}))
        out = tmp_path / "out"
        assert main(["fit-dn", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == ("run.fit_dn.inputs[1].temperature_c: 30.0 names the same"
                                     " output as run.fit_dn.inputs[0].temperature_c")
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("intervals, code", [
        ([[20.0, 20.0], [40.0, 20.0]], 1),
        ([[20.0, 20.0], [20.0, 40.0]], 0),
    ], ids=["reversed", "one-point-and-forward"])
    def test_fit_fpi_reversed_mask_interval(self, tmp_path, intervals, code):
        """An interval that starts after it ends is refused by index, before
        the trace is read; a one-point interval is allowed."""
        out = tmp_path / "out"
        payload = {"run": {
            "fpi_trace": {"duration_s": 30.0, "sample_period_s": 0.1,
                          "schedule": [{"start_s": 5.0, "end_s": 30.0, "pump_power_mw": 5.0}]},
            "fit_fpi": {"input": str(out / "fpi_trace.csv"), "pump_on_time_s": 5.0,
                        "mask_intervals_s": intervals},
        }}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        if code == 0:
            assert main(["fpi-trace", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert main(["fit-fpi", "--config", str(path), "--out", str(out), "--quiet"]) == code
        manifest = json.loads((out / "run_manifest.json").read_text())
        if code:
            assert manifest["error"] == "run.fit_fpi.mask_intervals_s[1]: start 40.0 after end 20.0"
        else:
            assert manifest["outputs"] == ["fit_fpi.json"]

    @pytest.mark.parametrize("fit_settings, reason", [
        ({"pump_on_time_s": 100.0}, "trace must extend beyond the pump-on time"),
        ({"mask_intervals_s": [[0.0, 29.9]]}, "trace too short to fit"),
    ], ids=["pump-on-after-the-trace", "all-but-one-sample-masked"])
    def test_fit_fpi_names_the_input_it_refuses(self, tmp_path, fit_settings, reason):
        out = tmp_path / "out"
        trace = out / "fpi_trace.csv"
        payload = {"run": {
            "fpi_trace": {"duration_s": 30.0, "sample_period_s": 0.1,
                          "schedule": [{"start_s": 5.0, "end_s": 30.0, "pump_power_mw": 5.0}]},
            "fit_fpi": {"input": str(trace), "pump_on_time_s": 5.0, **fit_settings},
        }}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        assert main(["fpi-trace", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert main(["fit-fpi", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == f"run.fit_fpi.input ({trace}): {reason}"
        assert manifest["outputs"] == []

    @pytest.mark.parametrize(
        "subcommand, payload, where",
        [
            ("fpi-char", {"photorefraction": {"30": {"a": None}}},
             "photorefraction.30.a: expected float, got None"),
            ("spdc-spectrum", {"run": {"spdc_spectrum": {"pump_wavelength_nm": 770.73}}},
             "run.spdc_spectrum.pump_wavelength_nm: expected a mapping"),
            ("fpi-trace", {"run": {"fpi_trace": {"sample_period_s": None}}},
             "run.fpi_trace.sample_period_s: expected float, got None"),
            ("spdc-spectrum",
             {"devices": {"qpm": {"calibration": {"temperature_c": None}}}},
             "devices.qpm.calibration.temperature_c: expected float, got None"),
            ("homodyne", {"run": {"homodyne": {"phases_rad": 0.5}}},
             "run.homodyne.phases_rad: expected a list, got 0.5"),
            ("fpi-char", {"run": {"seed": "abc"}}, "run.seed: expected int, got 'abc'"),
            ("fit-fpi", {"run": {"fit_fpi": {"mask_intervals_s": [[1]]}}},
             "run.fit_fpi.mask_intervals_s[0]: expected a list of 2, got [1]"),
            ("coupler-sweep",
             {"devices": {"coupler": {"coupling_constant_per_mm": {"30": 0.46, "abc": 0.5}}}},
             "devices.coupler.coupling_constant_per_mm.abc (key): expected float, got 'abc'"),
            ("fpi-char", {"devices": {"fpi": {"angled_facets": "no"}}},
             "devices.fpi.angled_facets: expected bool, got 'no'"),
            ("fpi-trace",
             {"run": {"fpi_trace": {"schedule": [
                 {"start_s": 5.0, "end_s": 40.0, "pump_power_mw": 5.0,
                  "erasing_light": "false"}]}}},
             "run.fpi_trace.schedule[0].erasing_light: expected bool, got 'false'"),
            ("spdc-spectrum", {"run": {"spdc_spectrum": {"points": 10.5}}},
             "run.spdc_spectrum.points: expected int, got 10.5"),
            ("fpi-char", {"run": {"output_dir": ["a"]}},
             "run.output_dir: expected str, got ['a']"),
            ("fit-fpi", {"run": {"fit_fpi": {"input": 5}}},
             "run.fit_fpi.input: expected str, got 5"),
            ("fpi-trace",
             {"run": {"fpi_trace": {"schedule": [
                 {"start_s": 5.0, "end_s": 40.0, "pump_power_mw": 5.0,
                  "erasing_lite": True}]}}},
             "unknown configuration keys: run.fpi_trace.schedule[0].erasing_lite"),
            ("fit-dn",
             {"run": {"fit_dn": {"inputs": [{"pth": "x.csv", "temperature_c": 30}]}}},
             "unknown configuration keys: run.fit_dn.inputs[0].pth"),
            ("fit-dn", {"run": {"fit_dn": {"inputs": [{"temperature_c": 30}]}}},
             "run.fit_dn.inputs[0]: missing key 'path'"),
            ("fpi-char", {"devices": {"fpi": {"length_mm": float("nan")}}},
             "devices.fpi.length_mm: expected a finite float, got nan"),
            ("fpi-char", {"material": {"sellmeier": {"a1": -100.0}}},
             "material.sellmeier: no real refractive index"),
        ],
    )
    def test_malformed_value_is_validation_error(
        self, tmp_path, caplog, subcommand, payload, where
    ):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        with caplog.at_level("ERROR"):
            code = main(
                [subcommand, "--config", str(path), "--out", str(tmp_path / "o"),
                 "--quiet"]
            )
        assert code == 1
        assert any(where in rec.getMessage() for rec in caplog.records)


    def test_unreadable_csv_fails_with_manifest(self, tmp_path):
        """A CSV field over the csv module's limit is a validation error."""
        trace = tmp_path / "trace.csv"
        trace.write_text("time_s,transmission\n0," + "1" * 200_000 + "\n", encoding="utf-8")
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"fit_fpi": {"input": str(trace)}}}))
        out = tmp_path / "out"
        assert main(
            ["fit-fpi", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith(f"{trace}: ")

    def test_prepump_normalized_trace_refused(self, tmp_path):
        """``time_s,value`` is the header of a trace divided by its pre-pump
        level; the T/T_max trace's column is ``transmission``, so fit-fpi
        refuses such a file and names it."""
        trace = tmp_path / "trace.csv"
        trace.write_text("time_s,value\n0,1\n1,0.9\n", encoding="utf-8")
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"fit_fpi": {"input": str(trace)}}}))
        out = tmp_path / "out"
        assert main(
            ["fit-fpi", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"] == f"{trace}: missing required column 'transmission'"


    def test_non_finite_json_is_numerical_failure(self, tmp_path, monkeypatch):
        """A NaN bound for a JSON output exits 2 and leaves no such file."""
        monkeypatch.setattr(
            "photoref.cli.fpi_characteristics", lambda *args: (math.nan, 1.0)
        )
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({}))
        out = tmp_path / "out"
        assert main(["fpi-char", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert not (out / "fpi_characteristics.json").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "not JSON compliant" in manifest["error"]
        assert manifest["outputs"] == []

    def test_overflow_is_numerical_failure(self, tmp_path, monkeypatch):
        """An OverflowError from a model exits 2 with a failed manifest."""
        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr("photoref.cli.homodyne_noise", overflow)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({}))
        out = tmp_path / "out"
        assert main(["homodyne", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "math range error"
        assert manifest["outputs"] == []

    def test_nan_inside_a_model_is_numerical_failure(self, tmp_path):
        """A NaN made inside a computation stops the run where it arises, with exit 2.

        A coupling constant of 1e-300 per mm passes its range check, but the
        coupler reflectivity then divides 0 by 0.  Without the handlers'
        floating-point traps the NaN travelled on and was refused as
        invalid input (exit 1, "non-finite value in value at index 0").
        """
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(
            {"devices": {"coupler": {"coupling_constant_per_mm": {"30.0": 1e-300}}}}
        ))
        out = tmp_path / "out"
        assert main(["coupler-sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "invalid value encountered in divide"
        for written in out.iterdir():
            assert not re.search(r"\bnan\b", written.read_text(), re.IGNORECASE), written


# Numeric run values with no range: detunings and phases take either sign,
# and mask intervals and the pump-on time are read on the trace's own axis.
UNBOUNDED = {"detunings", "phases_rad", "mask_intervals_s", "pump_on_time_s"}


def _numeric_leaves(node, path=(), name=None):
    """(path, key name, type) of every int or float leaf of a schema node; a
    list entry is at index ``[]`` and a keyed-map value at key ``*``."""
    if isinstance(node, types.UnionType):
        node = node.__args__[0]
    if isinstance(node, dict):
        for key, sub in node.items():
            keyed = isinstance(key, type)
            yield from _numeric_leaves(sub, path + ("*" if keyed else key,),
                                       name if keyed else key)
    elif isinstance(node, list):
        yield from _numeric_leaves(node[0], path + ("[]",), name)
    elif isinstance(node, tuple):
        for i, sub in enumerate(node):
            yield from _numeric_leaves(sub, path + (i,), name)
    elif node in (int, float):
        yield path, name, node


def _range_cases():
    """(subcommand, payload, path) for each finite end of every ranged run
    leaf: the value just outside a closed end, or on an open one, set in the
    leaf's default section.  A list entry or keyed-map value is the default's
    last one; ``run.seed`` is tried on ``fpi-char``."""
    run = copy.deepcopy(DEFAULT_CONFIG["run"])
    run["fit_dn"]["inputs"] = [{"path": "sweep.csv", "temperature_c": 30.0}]
    for steps, name, kind in _numeric_leaves(_SCHEMA["run"]):
        if name not in _RANGES:
            continue
        keys, node = [], run
        for step in steps:
            keys.append(len(node) - 1 if step == "[]" else list(node)[-1] if step == "*" else step)
            node = node[keys[-1]]
        where = "run" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        lo, hi, ends = _RANGES[name]
        for bound, outward, bracket in ((lo, -1, ends[0]), (hi, 1, ends[1])):
            if math.isinf(bound):
                continue
            if bracket in "()":
                bad = bound
            elif kind is int:
                bad = bound + outward
            else:
                bad = float(np.nextafter(bound, outward * math.inf))
            tree = copy.deepcopy(run)
            functools.reduce(operator.getitem, keys[:-1], tree)[keys[-1]] = bad
            section = keys[0]
            subcommand = "fpi-char" if section == "seed" else section.replace("_", "-")
            yield pytest.param(
                subcommand, {"run": {section: tree[section]}}, where, id=f"{where}={bad!r}"
            )


class TestRanges:
    def test_every_numeric_run_leaf_is_ranged_or_unbounded(self):
        """A new numeric run key needs a range in ``_RANGES`` or a place in UNBOUNDED."""
        names = {name for _, name, _ in _numeric_leaves(_SCHEMA["run"])}
        assert UNBOUNDED.isdisjoint(_RANGES)
        assert names - UNBOUNDED - set(_RANGES) == set()
        assert (UNBOUNDED | set(_RANGES)) - names == set()

    @pytest.mark.parametrize("subcommand, payload, where", list(_range_cases()))
    def test_out_of_range_value_is_refused_by_path(
        self, tmp_path, caplog, subcommand, payload, where
    ):
        """Exit 1 before any data file, the full path logged and in the manifest."""
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(payload))
        out = tmp_path / "out"
        with caplog.at_level("ERROR"):
            code = main([subcommand, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert any(f"{where} must lie in" in rec.getMessage() for rec in caplog.records)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith(f"{where} must lie in")
        assert manifest["outputs"] == []
        assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]


class TestDeterminism:
    def test_byte_identical_outputs(self, make_config, tmp_path):
        """Same seed, same config: every data product is byte identical."""
        runs = [tmp_path / "r1", tmp_path / "r2"]
        # One config; fit inputs point at the first run's simulation output,
        # so both passes fit the same data.
        config_path = make_config(runs[0])
        for out in runs:
            for sub in SUBCOMMANDS:
                assert run(sub, config_path, out, "--seed", "99") == 0
        names = sorted(
            p.name for p in runs[0].iterdir() if p.name != "run_manifest.json"
        )
        assert names
        for name in names:
            a = (runs[0] / name).read_bytes()
            b = (runs[1] / name).read_bytes()
            assert a == b, name


class TestMaskedFit:
    def test_mode_hopping_window_excluded(self, config_path, tmp_path):
        """A corrupted 10-18 s window is masked out and the fit still lands."""
        out = tmp_path / "out"
        assert run("fpi-trace", config_path, out) == 0
        trace = read_trace_csv(out / "fpi_trace.csv")
        values = trace.value.copy()
        window = (trace.time_s >= 10.0) & (trace.time_s <= 18.0)
        values[window] *= 0.4  # deep hopping dips
        corrupted = out / "corrupted_trace.csv"
        from photoref.data import Trace, write_trace_csv

        write_trace_csv(corrupted, Trace(trace.time_s, values))
        payload = yaml.safe_load(Path(config_path).read_text())
        payload["run"]["fit_fpi"]["input"] = str(corrupted)
        payload["run"]["fit_fpi"]["mask_intervals_s"] = [[10.0, 18.0]]
        masked_config = tmp_path / "masked.yaml"
        masked_config.write_text(yaml.safe_dump(payload))
        assert run("fit-fpi", str(masked_config), out) == 0
        fitted = json.loads((out / "fit_fpi.json").read_text())
        expected = -1.1e-4 * 5.0 / (10.0 + 0.02 * 5.0)
        assert fitted["fitted"]["delta_n_total"] == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize(
        "rows, refusal",
        [
            ("0,1\n1,nan\n2,1\n", "non-finite value in value at index 1"),
            ("0,1\n2,1\n1,1\n3,1\n", "time must be strictly increasing (sample 2)"),
        ],
        ids=["nan-value", "time-reversal"],
    )
    def test_rows_inside_a_mask_interval_are_checked(self, config_path, tmp_path, rows, refusal):
        """Masking applies to a trace the reader has checked row by row."""
        out = tmp_path / "out"
        out.mkdir()
        path = out / "fpi_trace.csv"
        path.write_text("time_s,transmission\n" + rows, encoding="utf-8")
        payload = yaml.safe_load(Path(config_path).read_text())
        payload["run"]["fit_fpi"]["mask_intervals_s"] = [[0.5, 2.5]]
        masked_config = tmp_path / "masked.yaml"
        masked_config.write_text(yaml.safe_dump(payload))
        assert run("fit-fpi", str(masked_config), out) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["error"] == f"{path}: {refusal}"


class TestGenerateDatasets:
    def test_fits_read_the_output_directory(self, tmp_path, monkeypatch):
        """--out elsewhere works from a working directory without out/."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "generate_datasets.py"
        spec = importlib.util.spec_from_file_location("generate_datasets", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out = tmp_path / "datasets"
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.setattr(sys, "argv", ["generate_datasets.py", "--out", str(out)])
        assert module.main() == 0
        assert not (workdir / "out").exists()
        assert sorted(p.name for p in out.glob("fit_dn_T*.json")) == [
            "fit_dn_T30.json", "fit_dn_T60.json", "fit_dn_T90.json",
        ]
        assert (out / "fit_fpi.json").exists()
        moved = yaml.safe_load((out / "generate_datasets_config.yaml").read_text())
        assert moved["run"]["fit_fpi"]["input"] == str(out / "fpi_trace.csv")


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        """A fresh interpreter importing the CLI never loads SciPy."""
        probe = (
            "import sys, photoref.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=src_env(), capture_output=True,
            text=True, check=True,
        )
        assert done.stdout.strip() == "[]"
