"""Per-layer metrics from recorded spans and from ``python -X importtime``.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.  Spans nest strictly (one thread), so the
covered part is the sum of the children's durations, and the self times of
all layers add up to the duration of the root spans.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter, defaultdict

from tracer import ATTRS, END, ERROR, HARNESS_LAYER, LAYER, LAYERS, NAME, PARENT, START

IMPORT_PACKAGES = ("scipy", "numpy", "yaml", "photoref")

# Counters that must repeat exactly on identical inputs.
DETERMINISTIC = (
    "coupler.reflectivity_calls",
    "fit.least_squares_calls",
    "fit.lm_iterations",
    "fit.residual_evals",
    "fit.trace_fits",
    "fit.sweep_fits",
    "fit.trace_fit_starts",
    "fit.trace_fit_evals",
    "fit.sweep_fit_evals",
    "material.refractive_index_points",
    "cavity.opo_spectrum_matrix_calls",
    "spdc.qpm_mismatch_calls",
    "data.read_rows",
    "data.write_rows",
    "data.write_bytes",
)


_PIPELINES = ("fit.fit_fpi_trace", "fit.fit_delta_n_from_reflectivity")


def _pipeline_of(spans, index):
    """Name of the fit pipeline span enclosing span ``index``, if any."""
    i = spans[index][PARENT]
    while i >= 0:
        if spans[i][NAME] in _PIPELINES:
            return spans[i][NAME]
        i = spans[i][PARENT]
    return None


def span_totals(spans) -> dict[str, float]:
    """Raw per-layer sums and counters over one list of spans."""
    totals: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    for i, span in enumerate(spans):
        name, layer = span[NAME], span[LAYER]
        duration = span[END] - span[START]
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_s"] += duration - child_time[i]
        totals[f"{layer}.errors"] += span[ERROR]
        parent_name = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        attrs = span[ATTRS] or {}
        if name == "config.parse_config":
            totals["config.parse_s"] += duration
        elif name.startswith("data.read_") and not parent_name.startswith("data.read_"):
            totals["data.read_s"] += duration
            totals["data.read_rows"] += attrs.get("rows", 0)
        elif name.startswith("data.write_") and not parent_name.startswith("data.write_"):
            totals["data.write_s"] += duration
        if name == "data.write_columns_csv":
            totals["data.write_rows"] += attrs["rows"]
            totals["data.write_bytes"] += attrs["bytes"]
        elif name == "material.refractive_index":
            totals["material.refractive_index_points"] += attrs.get("points", 0)
        elif name == "cavity.opo_spectrum_matrix":
            totals["cavity.opo_spectrum_matrix_calls"] += 1
        elif name == "spdc.qpm_mismatch":
            totals["spdc.qpm_mismatch_calls"] += 1
        elif name == "coupler.coupler_reflectivity":
            totals["coupler.reflectivity_calls"] += 1
        elif name == "fit.fit_fpi_trace":
            totals["fit.trace_fits"] += 1
        elif name == "fit.fit_delta_n_from_reflectivity":
            totals["fit.sweep_fits"] += 1
        elif name == "fit.least_squares" and attrs:
            totals["fit.least_squares_calls"] += 1
            totals["fit.lm_iterations"] += attrs["iterations"]
            totals["fit.residual_evals"] += attrs["evals"]
            totals["fit.converged"] += attrs["converged"]
            pipeline = _pipeline_of(spans, i)
            if pipeline == "fit.fit_fpi_trace":
                totals["fit.trace_fit_starts"] += 1
                totals["fit.trace_fit_evals"] += attrs["evals"]
            elif pipeline == "fit.fit_delta_n_from_reflectivity":
                totals["fit.sweep_fit_evals"] += attrs["evals"]
    return dict(totals)


def root_time(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(pass_totals: list[dict], importtime: dict, cli_times: dict,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a per-pass mean over the traced passes."""
    n = len(pass_totals)
    mean: dict[str, float] = Counter()
    for totals in pass_totals:
        for key, value in totals.items():
            mean[key] += value / n

    def get(key):
        return mean.get(key, 0.0)

    out: dict[str, tuple[float, str]] = {}
    out["import.calls"] = (importtime["modules"], "count")
    out["import.self_s"] = (importtime["self_s"], "s")
    out["import.errors"] = (importtime["errors"], "count")
    for layer in LAYERS:
        out[f"{layer}.calls"] = (get(f"{layer}.calls"), "count")
        out[f"{layer}.self_s"] = (get(f"{layer}.self_s"), "s")
        out[f"{layer}.errors"] = (get(f"{layer}.errors"), "count")
    out[f"{HARNESS_LAYER}.self_s"] = (get(f"{HARNESS_LAYER}.self_s"), "s")
    for package in IMPORT_PACKAGES:
        out[f"import.{package}_s"] = (importtime[package], "s")
    out["cli.handler_s"] = (cli_times["handler_s"], "s")
    out["cli.process_overhead_s"] = (cli_times["process_overhead_s"], "s")
    out["config.parse_s"] = (get("config.parse_s"), "s")
    out["data.read_s"] = (get("data.read_s"), "s")
    out["data.read_rows"] = (get("data.read_rows"), "count")
    out["data.write_s"] = (get("data.write_s"), "s")
    out["data.write_rows"] = (get("data.write_rows"), "count")
    out["data.write_bytes"] = (get("data.write_bytes"), "B")
    out["material.refractive_index_points"] = (get("material.refractive_index_points"), "count")
    out["cavity.opo_spectrum_matrix_calls"] = (get("cavity.opo_spectrum_matrix_calls"), "count")
    out["spdc.qpm_mismatch_calls"] = (get("spdc.qpm_mismatch_calls"), "count")
    out["coupler.reflectivity_calls"] = (get("coupler.reflectivity_calls"), "count")
    calls = get("fit.least_squares_calls")
    evals = get("fit.residual_evals")
    out["fit.least_squares_calls"] = (calls, "count")
    out["fit.starts_per_trace_fit"] = (_ratio(get("fit.trace_fit_starts"), get("fit.trace_fits")), "count")
    out["fit.lm_iterations"] = (get("fit.lm_iterations"), "count")
    out["fit.converged_ratio"] = (_ratio(get("fit.converged"), calls), "ratio")
    out["fit.residual_evals_per_trace_fit"] = (
        _ratio(get("fit.trace_fit_evals"), get("fit.trace_fits")), "count")
    out["fit.residual_evals_per_sweep_fit"] = (
        _ratio(get("fit.sweep_fit_evals"), get("fit.sweep_fits")), "count")
    out["fit.accepted_step_ratio"] = (_ratio(get("fit.lm_iterations"), evals), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def deterministic_counts(totals: dict) -> dict[str, int]:
    return {key: int(round(totals.get(key, 0))) for key in DETERMINISTIC}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self time (s) by top-level package, from ``-X importtime`` output."""
    by_package: dict[str, float] = defaultdict(float)
    modules = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        modules += 1
        package = match.group(4).split(".", 1)[0]
        by_package[package] += int(match.group(1)) * 1e-6
    result = {package: by_package.get(package, 0.0) for package in IMPORT_PACKAGES}
    result["self_s"] = sum(by_package.values())
    result["modules"] = modules
    return result


def median_importtime(probes: list[dict], errors: int) -> dict[str, float]:
    keys = list(IMPORT_PACKAGES) + ["self_s", "modules"]
    if not probes:
        return {key: 0.0 for key in keys} | {"errors": errors}
    merged = {key: statistics.median(p[key] for p in probes) for key in keys}
    merged["errors"] = errors
    return merged
