import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from photoref.cli import SUBCOMMANDS, main
from photoref.data import read_sweep_csv, read_trace_csv

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
        "temperatures_c": [30.0, 90.0],
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
        "temperatures_c": [30.0],
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
            "temperature_c": 30.0,
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
             "--quiet", "--strict"]
        ) == 1

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

    def test_fit_dn_without_inputs(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({}))
        out = tmp_path / "out"
        assert main(
            ["fit-dn", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 1

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
            ("coupler-sweep", {"run": {"coupler_sweep": {"temperatures_c": [30, "abc"]}}},
             "run.coupler_sweep.temperatures_c[1]: expected float, got 'abc'"),
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
                 "--quiet", "--strict"]
            )
        assert code == 1
        assert any(where in rec.getMessage() for rec in caplog.records)


    def test_unreadable_csv_fails_with_manifest(self, tmp_path):
        """A CSV field over the csv module's limit is a validation error."""
        trace = tmp_path / "trace.csv"
        trace.write_text("time_s,value\n0," + "1" * 200_000 + "\n", encoding="utf-8")
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"run": {"fit_fpi": {"input": str(trace)}}}))
        out = tmp_path / "out"
        assert main(
            ["fit-fpi", "--config", str(path), "--out", str(out), "--quiet"]
        ) == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith(f"{trace}: ")


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
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        probe = (
            "import sys, photoref.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        )
        assert done.stdout.strip() == "[]"
