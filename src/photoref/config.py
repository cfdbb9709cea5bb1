"""Configuration loading, validation, and canonical serialization.

The configuration is a YAML document with four top-level sections:
``material`` (dispersion constants and mode calibration targets),
``photorefraction`` (per-temperature saturable-law constants and time
constants), ``devices`` (fpi, squeezer, coupler, homodyne_coupler, qpm),
and ``run`` (per-subcommand grids, schedules, output settings, seed).
Defaults cover the reference chip geometry; user values are merged on top.
Unknown keys are rejected in strict mode and logged otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import logging
import types
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .cavity import FpiCavity, SqueezerCavity
from .coupler import CouplerGeometry, coupling_length
from .material import (
    DEFAULT_MODE_TARGETS,
    DEFAULT_PHOTOREFRACTION,
    JUNDT_CLN_EXTRAORDINARY,
    MaterialModel,
    PhotorefractionParams,
    SellmeierCoefficients,
)

__all__ = ["ConfigError", "Config", "parse_config", "DEFAULT_CONFIG"]

log = logging.getLogger(__name__)


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
        repr(t): {k: v for k, v in asdict(params).items() if k != "temperature_c"}
        for t, params in DEFAULT_PHOTOREFRACTION.items()
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
            "waveguide_separation_um": 14.0,
            "design_wavelength_nm": 1550.0,
            "coupling_constant_per_mm": {
                "30.0": 0.46,
                "60.0": 0.48039,
                "90.0": 0.53070,
            },
        },
        "homodyne_coupler": {
            "balanced": True,
            "waveguide_separation_um": 14.0,
            "design_wavelength_nm": 1550.0,
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
            "lo_amplitude_sq": 1.0,
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
            "temperature_c": 30.0,
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
    "devices.homodyne_coupler.interaction_length_mm": float,
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


def _coerce(value: Any, kind: type, where: str) -> Any:
    """A scalar as ``kind``: a number may be a numeric string, an int integral."""
    number = None
    if kind in (int, float) and type(value) in (int, float, str):
        with contextlib.suppress(ValueError, OverflowError):
            number = float(value)  # PyYAML reads 1e-4 and 1.0e4 as strings
    if type(value) is kind:
        return value  # an int stays exact: seeds are u64
    if kind is float and number is not None:
        return number
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

    # -- generic access -----------------------------------------------------

    def run_section(self, name: str) -> dict[str, Any]:
        return self.resolved["run"][name]

    @property
    def seed(self) -> int:
        return self.resolved["run"]["seed"]

    @property
    def output_dir(self) -> str:
        return self.resolved["run"]["output_dir"]

    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.resolved, sort_keys=True)

    # -- builders ------------------------------------------------------------

    def material(self) -> MaterialModel:
        section = self.resolved["material"]
        coeffs = SellmeierCoefficients(**section["sellmeier"])
        try:
            targets = {
                mode: (entry["wavelength_nm"], entry["temperature_c"], entry["n_eff"])
                for mode, entry in section["modes"].items()
            }
            return MaterialModel.calibrated(targets, coeffs)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"material.modes: {exc}") from None

    def photorefraction_temperatures(self) -> list[float]:
        return sorted(float(k) for k in self.resolved["photorefraction"])

    def photorefraction(self, temperature_c: float) -> PhotorefractionParams:
        key = repr(float(temperature_c))
        table = self.resolved["photorefraction"]
        if key not in table:
            known = ", ".join(sorted(table))
            raise ConfigError(
                f"photorefraction: no parameter set at {temperature_c} C "
                f"(configured: {known})"
            )
        entry = table[key]
        # Time constants left out fall back to the PhotorefractionParams defaults.
        times = {
            name: entry[name]
            for name in ("tau_build_s", "tau_dark_s", "tau_erase_s")
            if name in entry
        }
        try:
            return PhotorefractionParams(
                a=entry["a"],
                b=entry["b"],
                c=entry["c"],
                temperature_c=float(temperature_c),
                **times,
            )
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"photorefraction[{key!r}]: {exc}") from None

    def fpi_cavity(self, material: MaterialModel | None = None) -> FpiCavity:
        section = self.resolved["devices"]["fpi"]
        try:
            return FpiCavity(material=material or self.material(), **section)
        except ValueError as exc:
            raise ConfigError(f"devices.fpi: {exc}") from None

    def squeezer_cavity(self, material: MaterialModel | None = None) -> SqueezerCavity:
        section = self.resolved["devices"]["squeezer"]
        try:
            return SqueezerCavity(material=material or self.material(), **section)
        except ValueError as exc:
            raise ConfigError(f"devices.squeezer: {exc}") from None

    def _coupling_constant(self, section_name: str, temperature_c: float) -> float:
        table = self.resolved["devices"][section_name]["coupling_constant_per_mm"]
        key = repr(float(temperature_c))
        if key not in table:
            known = ", ".join(sorted(table))
            raise ConfigError(
                f"devices.{section_name}.coupling_constant_per_mm: no value at "
                f"{temperature_c} C (configured: {known})"
            )
        return table[key]

    def coupler_geometry(self, temperature_c: float) -> CouplerGeometry:
        section = self.resolved["devices"]["coupler"]
        k = self._coupling_constant("coupler", temperature_c)
        try:
            return CouplerGeometry(
                coupling_constant_per_mm=k,
                interaction_length_mm=section["interaction_length_mm"],
                waveguide_separation_um=section["waveguide_separation_um"],
                design_wavelength_nm=section["design_wavelength_nm"],
            )
        except ValueError as exc:
            raise ConfigError(f"devices.coupler: {exc}") from None

    def homodyne_geometry(self, temperature_c: float) -> CouplerGeometry:
        section = self.resolved["devices"]["homodyne_coupler"]
        k = self._coupling_constant("homodyne_coupler", temperature_c)
        try:
            if section["balanced"]:
                length = 1.5 * coupling_length(k)
            else:
                length = section["interaction_length_mm"]
            return CouplerGeometry(
                coupling_constant_per_mm=k,
                interaction_length_mm=length,
                waveguide_separation_um=section["waveguide_separation_um"],
                design_wavelength_nm=section["design_wavelength_nm"],
            )
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"devices.homodyne_coupler: {exc}") from None

    def qpm_section(self) -> dict[str, Any]:
        return self.resolved["devices"]["qpm"]


def parse_config(path, strict: bool = False) -> Config:
    """Load, merge with defaults, and validate a configuration file.

    Raises :class:`ConfigError` for syntax errors (with line number),
    invariant violations and values of the wrong type (with the field
    path), and unknown keys in strict mode.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
        user = yaml.safe_load(text) or {}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"{path}: YAML syntax error{line}: {exc}") from None
    if not isinstance(user, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")

    # In strict mode an unknown key is reported first: a misspelled key in a
    # list entry also leaves that entry's key missing.
    unknown: list[str] = []
    try:
        user = _walk_schema(user, _SCHEMA, "", unknown)
    except ConfigError:
        if not (strict and unknown):
            raise
    if unknown:
        message = f"{path}: unknown configuration keys: " + ", ".join(sorted(unknown))
        if strict:
            raise ConfigError(message)
        log.warning("%s", message)

    config = Config(resolved=_deep_merge(DEFAULT_CONFIG, user), source_path=str(path))
    _validate(config)
    return config


def _validate(config: Config) -> None:
    """Construct every configured domain object so invariants are enforced."""
    config.material()
    for t in config.photorefraction_temperatures():
        config.photorefraction(t)
    config.fpi_cavity()
    config.squeezer_cavity()
    for name, build in (("coupler", config.coupler_geometry),
                        ("homodyne_coupler", config.homodyne_geometry)):
        for key in config.resolved["devices"][name]["coupling_constant_per_mm"]:
            build(float(key))
    qpm = config.qpm_section()
    if qpm["length_mm"] <= 0:
        raise ConfigError("devices.qpm.length_mm must be > 0")
    period = qpm.get("poling_period_um")
    if period is not None and period <= 0:
        raise ConfigError("devices.qpm.poling_period_um must be > 0")
