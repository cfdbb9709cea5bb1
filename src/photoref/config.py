"""Configuration loading, validation, and canonical serialization.

The configuration is a YAML document with four top-level sections:
``material`` (dispersion constants and mode calibration targets),
``photorefraction`` (per-temperature saturable-law constants and time
constants), ``devices`` (fpi, squeezer, coupler, homodyne_coupler, qpm),
and ``run`` (per-subcommand grids, schedules, output settings, seed).
Defaults cover the reference chip geometry; user values are merged on top.
A key that the schema does not know is refused, never ignored.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import json
import math
import operator
import types
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .cavity import MAX_GRID_POINTS, FpiCavity, SqueezerCavity
from .coupler import CouplerGeometry, coupling_length
from .material import (
    DEFAULT_MODE_TARGETS,
    DEFAULT_PHOTOREFRACTION,
    JUNDT_CLN_EXTRAORDINARY,
    TEMPERATURE_RANGE_C,
    WAVELENGTH_RANGE_NM,
    MaterialModel,
    PhotorefractionParams,
    SellmeierCoefficients,
    delta_n_steady,
)
from .spdc import PUMP_WAVELENGTH_RANGE_NM, QpmDevice, calibrate_poling_period

__all__ = ["ConfigError", "Config", "parse_config", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """Configuration failed validation; the message names the field path."""


DEFAULT_CONFIG: dict[str, Any] = {
    "material": {
        "sellmeier": asdict(JUNDT_CLN_EXTRAORDINARY),
        "modes": {
            mode: {"wavelength_nm": lam, "temperature_c": t, "n_eff": n_eff}
            for mode, (lam, t, n_eff) in DEFAULT_MODE_TARGETS.items()
        },
    },
    "photorefraction": {
        repr(t): asdict(params) for t, params in DEFAULT_PHOTOREFRACTION.items()
    },
    "devices": {
        "fpi": {
            "length_mm": 15.0,
            "facet_reflectivity_probe": 0.14,
            "facet_reflectivity_pump": 0.13,
            "angled_facets": False,
            "probe_mode": "fundamental-telecom",
            "pump_mode": "fundamental-nir",
        },
        "squeezer": {
            "length_mm": 15.0,
            "mirror_r1": 0.77,
            "mirror_r2": 0.99,
            "mode": "fundamental-telecom",
        },
        "coupler": {
            "interaction_length_mm": 4.3,
            "coupling_constant_per_mm": {
                "30.0": 0.46,
                "60.0": 0.48039,
                "90.0": 0.53070,
            },
        },
        "homodyne_coupler": {
            "coupling_constant_per_mm": {"30.0": 0.46},
        },
        "qpm": {
            "length_mm": 15.0,
            "telecom_shift_fraction": 0.0,
            "calibration": {
                "temperature_c": 30.0,
                "pump_wavelength_nm": 770.73,
                "degeneracy_wavelength_nm": 1541.46,
                "reference_pump_power_mw": 5.0,
            },
        },
    },
    "run": {
        "seed": 20260810,
        "output_dir": "out",
        "fpi_trace": {
            "temperature_c": 30.0,
            "probe_wavelength_nm": 1550.0,
            "sample_period_s": 0.05,
            "duration_s": 60.0,
            "schedule": [
                {"start_s": 10.0, "end_s": 60.0, "pump_power_mw": 5.0,
                 "erasing_light": False},
            ],
        },
        "fpi_char": {"temperature_c": 30.0, "wavelengths_nm": [1550.0, 775.0]},
        "coupler_sweep": {
            "temperatures_c": [30.0, 60.0, 90.0],
            "probe_wavelength_nm": 1550.0,
            "pump_powers_mw": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            "noise_fraction": 0.0,
        },
        "homodyne": {
            "reflectivity": 0.5,
            "squeezing_db": 0.0,
            "phases_rad": [0.0],
        },
        "opo_spectrum": {
            "initial_squeezing_db": -5.0,
            "detunings": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
            "detection_efficiency": 1.0,
            "omega_max": 20.0,
            "omega_step": 0.05,
        },
        "spdc_spectrum": {
            "temperatures_c": [30.0, 90.0],
            "pump_wavelength_nm": {"30.0": 770.73, "90.0": 774.63},
            "pump_powers_mw": [0.25, 1.0, 2.0, 5.0],
            "wavelength_span_nm": 220.0,
            "points": 881,
            "background": 0.0,
        },
        "squeeze_budget": {
            "temperature_c": 30.0,
            "probe_wavelength_nm": 1550.0,
            "initial_levels_db": [-3.0, -5.0, -10.0],
            "pump_powers_mw": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0],
            "mu0_per_sqrt_mw": 0.101,
            "spdc_pump_wavelength_nm": 770.73,
            "spdc_pump_powers_mw": [0.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0],
        },
        "fit_dn": {"probe_wavelength_nm": 1550.0, "inputs": []},
        "fit_fpi": {
            "input": "",
            "probe_wavelength_nm": 1550.0,
            "pump_on_time_s": None,
            "mask_intervals_s": [],
        },
    },
}


# Maps keyed by data rather than by field name: any key of the given type is
# allowed, and each entry has the shape of the first default entry.  Float
# keys are temperatures, canonicalized so that "30" and "30.0" are one key.
_KEYED_MAPS = {
    "photorefraction": float,
    "devices.coupler.coupling_constant_per_mm": float,
    "devices.homodyne_coupler.coupling_constant_per_mm": float,
    "run.spdc_spectrum.pump_wavelength_nm": float,
    "material.modes": str,
}

# Leaves whose default hides their type: keys with no default (a None default
# would change the resolved configuration and with it every config hash),
# None and empty-list defaults, and an entry key that may be left out.  In a
# list entry every key is required unless its type admits None.
_DECLARED: dict[str, Any] = {
    "devices.qpm.poling_period_um": float,
    "run.fpi_trace.schedule[].erasing_light": bool | None,
    "run.fit_fpi.pump_on_time_s": float | None,
    "run.fit_fpi.mask_intervals_s": [(float, float)],
    "run.fit_dn.inputs": [{"path": str, "temperature_c": float}],
}


def _derive_schema(tree: Any, path: str = "") -> Any:
    """Schema node: a scalar type, ``T | None``, ``[node]`` for a list, a tuple
    of nodes for a fixed-length list, or a dict (a keyed map's one key is the
    type of its keys)."""
    if path in _DECLARED:
        return _DECLARED[path]
    if isinstance(tree, Mapping):
        if path in _KEYED_MAPS:
            entry = _derive_schema(next(iter(tree.values())), f"{path}.*")
            return {_KEYED_MAPS[path]: entry}
        schema = {
            key: _derive_schema(value, f"{path}.{key}" if path else key)
            for key, value in tree.items()
        }
        for declared, node in _DECLARED.items():
            section, _, key = declared.rpartition(".")
            if section == path:
                schema.setdefault(key, node)
        return schema
    if isinstance(tree, list) and tree:
        return [_derive_schema(tree[0], f"{path}[]")]
    if tree is None or isinstance(tree, list):
        raise TypeError(f"{path}: the default hides its type; declare it in _DECLARED")
    return type(tree)


_SCHEMA: dict[str, Any] = _derive_schema(DEFAULT_CONFIG)

# Ranges of run values by key name (one quantity in every section), as (low, high,
# ends) with "[]" closed and "()" open ends; list entries and keyed-map values take
# their name's range.  Unbounded: detunings, phases, mask intervals, pump-on time.
# The dB floor is the level whose amplitude 10^(dB/20) is one ulp of 1: there the
# OPO pump parameter (1 - amplitude)/(1 + amplitude) still rounds below threshold.
_DB_FLOOR = 20.0 * math.log10(math.ulp(1.0))
_RANGES: dict[str, tuple[float, float, str]] = {
    "seed": (0, 2**64, "[)"),
    "points": (2, MAX_GRID_POINTS, "[]"),
    "initial_squeezing_db": (_DB_FLOOR, 0.0, "[)"),
    **dict.fromkeys(("squeezing_db", "initial_levels_db"), (_DB_FLOOR, 0.0, "[]")),
    **dict.fromkeys(("reflectivity", "detection_efficiency"), (0.0, 1.0, "[]")),
    **dict.fromkeys(("temperature_c", "temperatures_c"), (*TEMPERATURE_RANGE_C, "[]")),
    **dict.fromkeys(("probe_wavelength_nm", "wavelengths_nm"), (*WAVELENGTH_RANGE_NM, "[]")),
    **dict.fromkeys(("pump_wavelength_nm", "spdc_pump_wavelength_nm"),
                    (*PUMP_WAVELENGTH_RANGE_NM, "[]")),
    **dict.fromkeys(("sample_period_s", "omega_step", "wavelength_span_nm", "mu0_per_sqrt_mw"),
                    (0.0, math.inf, "()")),
    **dict.fromkeys(("duration_s", "start_s", "end_s", "noise_fraction", "omega_max",
                     "background", "pump_power_mw", "pump_powers_mw", "spdc_pump_powers_mw"),
                    (0.0, math.inf, "[)")),
}


def _check_ranges(value: Any, name: str, where: str) -> None:
    """Refuse, by path, a number at ``where`` outside the range of its key ``name``."""
    if isinstance(value, (list, Mapping)):
        listed = isinstance(value, list)
        for key, item in enumerate(value) if listed else value.items():
            at = f"{where}[{key}]" if listed else f"{where}.{key}"
            _check_ranges(item, name if listed or where in _KEYED_MAPS else key, at)
    elif name in _RANGES:
        lo, hi, ends = _RANGES[name]
        if not ((lo < value if ends[0] == "(" else lo <= value)
                and (value < hi if ends[1] == ")" else value <= hi)):
            raise ConfigError(f"{where} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")


def _coerce(value: Any, kind: type, where: str) -> Any:
    """A scalar as ``kind``: a number may be a numeric string, an int integral
    and a float finite."""
    number = None
    if kind in (int, float) and type(value) in (int, float, str):
        with contextlib.suppress(ValueError, OverflowError):
            number = float(value)  # PyYAML reads 1e-4 and 1.0e4 as strings
    if kind is float and number is not None:
        if math.isfinite(number):
            return number
        raise ConfigError(f"{where}: expected a finite float, got {value!r}")
    if type(value) is kind:
        return value  # an int stays exact: seeds are u64
    if kind is int and number is not None and number.is_integer():
        with contextlib.suppress(ValueError):
            return int(value)  # exact for a string of digits
        return int(number)
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


def _walk_schema(value: Any, node: Any, where: str, unknown: list[str]) -> Any:
    """The user's value checked against ``node`` and coerced, with canonical
    temperature keys; unknown keys go to ``unknown``, not into the result."""
    if isinstance(node, types.UnionType):
        if value is None:
            return None
        node = node.__args__[0]
    if isinstance(node, Mapping):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where}: expected a mapping")
        keyed = next((k for k in node if isinstance(k, type)), None)
        out = {}
        for key, item in value.items():
            at = f"{where}.{key}" if where else str(key)
            if keyed:
                key = (repr if keyed is float else str)(_coerce(key, keyed, f"{at} (key)"))
            sub = node.get(keyed or key)
            if sub is None:
                unknown.append(at)
            else:
                out[key] = _walk_schema(item, sub, at, unknown)
        return out
    if isinstance(node, (list, tuple)):
        fixed = isinstance(node, tuple)
        if not isinstance(value, list) or fixed and len(value) != len(node):
            shape = f"a list of {len(node)}" if fixed else "a list"
            raise ConfigError(f"{where}: expected {shape}, got {value!r}")
        out = []
        for i, (item, sub) in enumerate(zip(value, node if fixed else node * len(value))):
            out.append(_walk_schema(item, sub, f"{where}[{i}]", unknown))
            for key, leaf in sub.items() if isinstance(sub, Mapping) else ():
                if key not in out[-1] and not isinstance(leaf, types.UnionType):
                    raise ConfigError(f"{where}[{i}]: missing key {key!r}")
        return out
    return _coerce(value, node, where)


def _deep_merge(base: dict, override: Mapping) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class Config:
    """Validated configuration with builder helpers for the domain objects.

    ``resolved`` holds only schema keys, with values of the schema's types.
    """

    resolved: dict[str, Any]
    source_path: str | None = None
    seed_flag: int | None = None  # --seed: overrides run.seed, outside the hash

    # -- generic access -----------------------------------------------------

    def run_section(self, name: str) -> dict[str, Any]:
        """The run section and the seed, refused by path when a grid is empty or out of range."""
        section = self.resolved["run"][name]
        for key, default in DEFAULT_CONFIG["run"][name].items():
            if isinstance(default, list) and default and not section[key]:
                raise ConfigError(f"run.{name}.{key}: the list is empty")
        _check_ranges(self.seed, "seed", "run.seed" if self.seed_flag is None else "--seed")
        _check_ranges(section, name, f"run.{name}")
        return section

    @property
    def seed(self) -> int:
        return self.resolved["run"]["seed"] if self.seed_flag is None else self.seed_flag

    @property
    def output_dir(self) -> str:
        return self.resolved["run"]["output_dir"]

    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- builders ------------------------------------------------------------

    def temperature_entry(self, path: str, temperature_c: float) -> Any:
        """The entry at ``temperature_c`` of the temperature-keyed map at ``path``."""
        table = functools.reduce(operator.getitem, path.split("."), self.resolved)
        key = repr(float(temperature_c))
        if key not in table:
            known = ", ".join(sorted(table))
            raise ConfigError(f"{path}: no entry at {temperature_c} C (configured: {known})")
        return table[key]

    def material(self) -> MaterialModel:
        section = self.resolved["material"]
        with _invariants("material.sellmeier"):
            coeffs = SellmeierCoefficients(**section["sellmeier"])
        with _invariants("material.modes"):
            targets = {
                mode: (entry["wavelength_nm"], entry["temperature_c"], entry["n_eff"])
                for mode, entry in section["modes"].items()
            }
            return MaterialModel.calibrated(targets, coeffs)

    def photorefraction_temperatures(self) -> list[float]:
        return sorted(float(k) for k in self.resolved["photorefraction"])

    def photorefraction(self, temperature_c: float) -> PhotorefractionParams:
        # Time constants left out fall back to the PhotorefractionParams defaults.
        entry = self.temperature_entry("photorefraction", temperature_c)
        with _invariants(f"photorefraction[{repr(float(temperature_c))!r}]"):
            return PhotorefractionParams(**entry)

    def fpi_cavity(self) -> FpiCavity:
        material = self.material()
        with _invariants("devices.fpi"):
            return FpiCavity(material=material, **self.resolved["devices"]["fpi"])

    def squeezer_cavity(self) -> SqueezerCavity:
        material = self.material()
        with _invariants("devices.squeezer"):
            return SqueezerCavity(material=material, **self.resolved["devices"]["squeezer"])

    def coupler_geometry(self, temperature_c: float) -> CouplerGeometry:
        k = self.temperature_entry("devices.coupler.coupling_constant_per_mm", temperature_c)
        with _invariants("devices.coupler"):
            return CouplerGeometry(k, self.resolved["devices"]["coupler"]["interaction_length_mm"])

    def homodyne_geometry(self, temperature_c: float) -> CouplerGeometry:
        """The homodyne coupler, balanced at zero pump: 1.5 coupling lengths."""
        k = self.temperature_entry("devices.homodyne_coupler.coupling_constant_per_mm",
                                   temperature_c)
        with _invariants("devices.homodyne_coupler"):
            return CouplerGeometry(k, 1.5 * coupling_length(k))

    def qpm_section(self) -> dict[str, Any]:
        return self.resolved["devices"]["qpm"]

    def qpm_device(self) -> QpmDevice:
        """The poled waveguide; without a poling period, the period that nulls
        the mismatch at the calibration point and reference pump power.  By
        energy conservation a telecom share f of the shift dn moves dk as a
        pump shift of -f dn does, so the calibration absorbs (1 - f) dn."""
        section = self.qpm_section()
        material = self.material()
        period = section.get("poling_period_um")
        if period is None:
            cal = section["calibration"]
            with _invariants("devices.qpm.calibration"):
                dn = delta_n_steady(self.photorefraction(cal["temperature_c"]),
                                    cal["reference_pump_power_mw"])
                period = calibrate_poling_period(
                    material,
                    cal["temperature_c"],
                    cal["pump_wavelength_nm"],
                    cal["degeneracy_wavelength_nm"],
                    pump_index_shift=(1.0 - section["telecom_shift_fraction"]) * dn,
                )
        with _invariants("devices.qpm"):
            return QpmDevice(
                poling_period_um=period,
                length_mm=section["length_mm"],
                material=material,
                telecom_shift_fraction=section["telecom_shift_fraction"],
            )


@contextlib.contextmanager
def _invariants(where: str):
    """Raise a domain object's refusal as a ConfigError naming ``where``."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(path) -> Config:
    """Load, merge with defaults, and validate a configuration file.

    Raises :class:`ConfigError` for syntax errors (with line number),
    invariant violations and values of the wrong type (with the field
    path), and unknown keys (every one by path, sorted, in one message).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
        # libyaml's parser when PyYAML was built with it: about 6x faster.
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        user = yaml.load(text, Loader=loader) or {}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"{path}: YAML syntax error{line}: {exc}") from None
    if not isinstance(user, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")

    # An unknown key is reported first: a misspelled key in a list entry also
    # leaves that entry's key missing.
    unknown: list[str] = []
    try:
        user = _walk_schema(user, _SCHEMA, "", unknown)
    except ConfigError:
        if not unknown:
            raise
    if unknown:
        raise ConfigError(f"{path}: unknown configuration keys: " + ", ".join(sorted(unknown)))

    config = Config(resolved=_deep_merge(DEFAULT_CONFIG, user), source_path=str(path))
    _validate(config)
    return config


def _validate(config: Config) -> None:
    """Construct every configured domain object so invariants are enforced."""
    config.fpi_cavity()
    config.squeezer_cavity()
    for t in config.photorefraction_temperatures():
        config.photorefraction(t)
    for name, build in (("coupler", config.coupler_geometry),
                        ("homodyne_coupler", config.homodyne_geometry)):
        for key in config.resolved["devices"][name]["coupling_constant_per_mm"]:
            build(float(key))
    config.qpm_device()
