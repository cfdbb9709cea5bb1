"""cli-pipeline: the nine subcommands as fresh processes, one after another.

Each subcommand runs as ``python -m photoref.cli <sub> --config
configs/example.yaml --seed <seed>`` in a scratch working directory, in the
order of scripts/generate_datasets.py, so the fit stages read what the
simulation stages wrote.  One operation is one process, timed from spawn
to exit; its peak RSS comes from ``wait4``.  A traced pass starts each
subcommand through shim.py instead, which wraps the package's public
functions before calling ``photoref.cli.main``.

After each process (outside its timing) the outputs are checked: exit
code 0 and a manifest with status ok; exactly the expected files, whose
names follow configs/example.yaml; every CSV and JSON number finite; SPDC
spectra peak at 1; homodyne noise at s = 0 is 0 dB; the squeezing budget
at P = 0 equals the initial level; degraded squeezing never exceeds the
ideal one; fit_fpi.json recovers dn(5 mW, 30 C) = -a*P/(b + c*P) within
10 %.  The 30 C initial slope in fit_dn_T30.json is scored against a/b
within 5 % for the fit accuracy ratio.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

from common import CONFIG, child_env, json_finite
from tracer import PARENT, load_spans

ORDER = (
    "fpi-trace",
    "fpi-char",
    "coupler-sweep",
    "homodyne",
    "opo-spectrum",
    "spdc-spectrum",
    "squeeze-budget",
    "fit-dn",
    "fit-fpi",
)

EXPECTED = {
    "fpi-trace": ["fpi_trace.csv"],
    "fpi-char": ["fpi_characteristics.json"],
    "coupler-sweep": [f"coupler_sweep_T{t}.{ext}" for t in (30, 60, 90) for ext in ("csv", "json")],
    "homodyne": ["homodyne.csv"],
    "opo-spectrum": [f"opo_spectrum_delta{d}.csv" for d in ("0", "0.5", "1", "1.5", "2", "3")]
    + ["opo_optimal_levels.csv"],
    "spdc-spectrum": [f"spdc_spectrum_T{t}_P{p}.csv" for t in (30, 90) for p in ("0.25", "1", "2", "5")],
    "squeeze-budget": [f"homodyne_budget_{level}dB.csv" for level in (3, 5, 10)]
    + ["squeeze_ideal.csv", "squeeze_photorefractive.csv"],
    "fit-dn": [f"delta_n_points_T{t}.csv" for t in (30, 60, 90)]
    + [f"fit_dn_T{t}.json" for t in (30, 60, 90)],
    "fit-fpi": ["fit_fpi.json"],
}

SHIM = Path(__file__).resolve().parent / "shim.py"
PROCESS_TIMEOUT_S = 60.0
DN_TOLERANCE = 0.10
SLOPE_TOLERANCE = 0.05


class CheckError(Exception):
    pass


def setup(work_dir, seed: int) -> None:
    """Prepare the scratch directory and load the CLI once (bytecode, file cache)."""
    import photoref.cli  # noqa: F401

    (work_dir / "cwd").mkdir(parents=True, exist_ok=True)


def read_csv(path: Path) -> dict[str, list[float]]:
    header = None
    columns: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                columns = {name: [] for name in header}
                continue
            if len(cells) != len(header):
                raise CheckError(f"{path.name}: ragged row")
            for name, cell in zip(header, cells):
                columns[name].append(float(cell))
    if header is None or not columns[header[0]]:
        raise CheckError(f"{path.name}: no data rows")
    return columns


class Workload:
    name = "cli-pipeline"
    in_process = False
    latency_kinds = ("process",)

    def __init__(self, work_dir, seed: int):
        import yaml

        self.seed = seed
        self.cwd = work_dir / "cwd"
        self.out = self.cwd / "out"
        self.logs = work_dir / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.spans_dir = work_dir / "spans"
        self.runs = 0
        self.env = child_env()
        cfg = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
        law = cfg["photorefraction"]["30.0"]
        power = float(cfg["run"]["fpi_trace"]["schedule"][0]["pump_power_mw"])
        self.dn_truth = -law["a"] * power / (law["b"] + law["c"] * power)
        self.slope_truth = law["a"] / law["b"]
        self.budget_levels = [float(x) for x in cfg["run"]["squeeze_budget"]["initial_levels_db"]]

    def steps(self) -> list:
        """One pass: the nine subcommands, in a cleared output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        return [
            ("process", functools.partial(self._run, sub), functools.partial(self._check_run, sub))
            for sub in ORDER
        ]

    def _run(self, sub: str, tracer) -> tuple[int, float, Path | None]:
        """Run one subcommand process: (exit code, peak RSS in MB, spans file)."""
        argv = [sub, "--config", str(CONFIG), "--seed", str(self.seed)]
        spans_file = None
        if tracer is None:
            cmd = [sys.executable, "-m", "photoref.cli", *argv]
        else:
            self.runs += 1
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = self.spans_dir / f"{self.runs:04d}_{sub}.json"
            cmd = [sys.executable, str(SHIM), str(spans_file), *argv]
        with open(self.logs / f"{sub}.log", "wb") as log:
            proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0, spans_file

    def _check_run(self, sub: str, result, tracer):
        code, rss_mb, spans_file = result
        if spans_file is not None and spans_file.exists():
            offset = len(tracer.spans)
            for span in load_spans(spans_file):
                if span[PARENT] >= 0:
                    span[PARENT] += offset
                tracer.spans.append(span)
        extra = {"subcommand": sub, "handler_s": 0.0, "rss_mb": rss_mb}
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            extra["handler_s"], fit_ok = self._check(sub)
        except (CheckError, OSError, ValueError, KeyError) as exc:
            return f"{sub}: {exc}", None, extra
        return None, fit_ok, extra

    def _check(self, sub: str) -> tuple[float, bool | None]:
        manifest = json.loads((self.out / "run_manifest.json").read_text(encoding="utf-8"))
        if manifest["subcommand"] != sub or manifest["status"] != "ok":
            raise CheckError(f"manifest reports {manifest['subcommand']} {manifest['status']}")
        expected = EXPECTED[sub]
        if sorted(manifest["outputs"]) != sorted(expected):
            raise CheckError(f"outputs {sorted(manifest['outputs'])} != expected {sorted(expected)}")
        tables, documents = {}, {}
        for name in expected:
            path = self.out / name
            if name.endswith(".csv"):
                tables[name] = read_csv(path)
                if not json_finite(tables[name]):
                    raise CheckError(f"{name}: non-finite value")
            else:
                documents[name] = json.loads(path.read_text(encoding="utf-8"))
                if not json_finite(documents[name]):
                    raise CheckError(f"{name}: non-finite value")
        fit_ok = None
        if sub == "homodyne":
            worst = max(abs(v) for v in tables["homodyne.csv"]["value"])
            if worst > 1e-9:
                raise CheckError(f"homodyne noise at s = 0 is {worst!r} dB, not 0 dB")
        elif sub == "spdc-spectrum":
            for name, table in tables.items():
                peak = max(table["normalized_density"])
                if abs(peak - 1.0) > 1e-12:
                    raise CheckError(f"{name}: spectrum peaks at {peak!r}, not 1")
        elif sub == "squeeze-budget":
            for level in self.budget_levels:
                table = tables[f"homodyne_budget_{abs(level):g}dB.csv"]
                at_zero = table["value"][table["pump_power_mW"].index(0.0)]
                if abs(at_zero - level) > 1e-9:
                    raise CheckError(f"budget at P = 0 is {at_zero!r} dB, not {level} dB")
            ideal = tables["squeeze_ideal.csv"]["value"]
            degraded = tables["squeeze_photorefractive.csv"]["value"]
            if any(abs(d) > abs(i) + 1e-12 for i, d in zip(ideal, degraded)):
                raise CheckError("degraded squeezing exceeds the ideal squeezing")
        elif sub == "fit-dn":
            slope = documents["fit_dn_T30.json"]["fitted"]["initial_slope_per_mw"]
            fit_ok = abs(slope - self.slope_truth) <= SLOPE_TOLERANCE * self.slope_truth
        elif sub == "fit-fpi":
            dn = documents["fit_fpi.json"]["fitted"]["delta_n_total"]
            fit_ok = abs(dn - self.dn_truth) <= DN_TOLERANCE * abs(self.dn_truth)
            if not fit_ok:
                raise CheckError(f"fitted dn_total {dn!r} not within 10 % of {self.dn_truth!r}")
        return float(manifest["wall_time_s"]), fit_ok
