import copy
import functools
import json
import operator
import re
import types

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from photoref.cavity import delta_n_to_detuning, fpi_characteristics, simulate_fpi_trace
from photoref.cli import main
from photoref.config import (
    _KEYED_MAPS,
    _SCHEMA,
    DEFAULT_CONFIG,
    Config,
    ConfigError,
    _check_ranges,
    _derive_schema,
    parse_config,
)
from photoref.coupler import coupler_reflectivity
from photoref.material import PumpSchedule, PumpSegment
from photoref.spdc import SpdcOperatingPoint, qpm_mismatch, spdc_spectrum

EXAMPLE = "configs/example.yaml"


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


class TestParsing:
    def test_example_config_parses(self):
        config = parse_config(EXAMPLE)
        cavity = config.fpi_cavity()
        assert cavity.length_mm == 15.0
        assert cavity.facet_reflectivity_probe == 0.14
        assert cavity.facet_reflectivity_pump == 0.13
        assert config.coupler_geometry(30.0).coupling_constant_per_mm == 0.46

    def test_minimal_config_filled_with_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            {"devices": {"fpi": {"length_mm": 12.0}}},
        )
        config = parse_config(path)
        assert config.fpi_cavity().length_mm == 12.0
        # Defaults are present for everything else.
        assert config.photorefraction(30.0).a > 0
        assert config.squeezer_cavity().mirror_r2 == 0.99
        assert config.seed == 20260810

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.yaml")

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("material:\n  modes: [\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line"):
            parse_config(path)

    @pytest.mark.parametrize("text, line, key", [
        # YAML int 30 and float 30.0 are one key: PyYAML would keep the a = 5e-4 law.
        ("photorefraction: {30: {a: 1.1e-4, b: 10.0, c: 0.02},"
         " 30.0: {a: 5.0e-4, b: 10.0, c: 0.02}}\n", 1, "30.0"),
        ("devices:\n  fpi:\n    length_mm: 15.0\n    length_mm: 12.0\n", 4, "'length_mm'"),
    ], ids=["int-and-float-temperature", "length-twice"])
    def test_repeated_key_refused_with_its_line(self, tmp_path, caplog, text, line, key):
        path = tmp_path / "repeated.yaml"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: YAML syntax error (line {line}): repeated key {key}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(path)
        with caplog.at_level("ERROR"):
            assert main(["fpi-char", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 1
        assert any(message in rec.message for rec in caplog.records)

    def test_merge_key_may_be_overridden(self, tmp_path):
        """A "<<" merge is not a repeated key: the mapping's own key overrides it."""
        path = tmp_path / "merge.yaml"
        path.write_text("devices:\n  squeezer:\n    <<: {length_mm: 11.0, mirror_r1: 0.7}\n"
                        "    length_mm: 13.0\n", encoding="utf-8")
        squeezer = parse_config(path).squeezer_cavity()
        assert (squeezer.length_mm, squeezer.mirror_r1) == (13.0, 0.7)

    def test_invalid_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"run:\n  seed: 1 \xff\n")
        with pytest.raises(ConfigError, match=f"^{path}: 'utf-8' codec"):
            parse_config(path)

    def test_invariant_violation_names_section(self, tmp_path):
        path = write_config(
            tmp_path, {"photorefraction": {"30.0": {"a": 1e-4, "b": 0.0, "c": 0.0}}}
        )
        with pytest.raises(ConfigError, match=r"photorefraction\['30.0'\]"):
            parse_config(path)

    def test_unknown_key_strict_rejected(self, tmp_path):
        path = write_config(tmp_path, {"devices": {"fpi": {"lenght_mm": 15.0}}})
        with pytest.raises(ConfigError, match="unknown configuration keys.*lenght_mm"):
            parse_config(path)

    @pytest.mark.parametrize("where", [
        "devices.coupler.waveguide_separation_um", "run.homodyne.lo_amplitude_sq",
        "devices.homodyne_coupler.balanced", "devices.homodyne_coupler.interaction_length_mm",
    ])
    def test_keys_that_moved_no_output_are_unknown(self, tmp_path, caplog, where):
        """Refused by name (exit 1)."""
        *sections, key = where.split(".")
        path = write_config(tmp_path, {sections[0]: {sections[1]: {key: 1.0}}})
        with caplog.at_level("ERROR"):
            assert main(["homodyne", "--config", path, "--out", str(tmp_path / "o"),
                         "--quiet"]) == 1
        assert any(f"unknown configuration keys: {where}" in rec.message
                   for rec in caplog.records)

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"photorefraction": {"30.0": {"a": 1e-4, "bogus": 1.0}}},
             "photorefraction.30.0.bogus"),
            ({"run": {"fpi_trace": {"schedule": [
                {"start_s": 5.0, "end_s": 40.0, "pump_power_mw": 5.0,
                 "erasing_lite": True}]}}},
             "run.fpi_trace.schedule[0].erasing_lite"),
        ],
    )
    def test_unknown_key_in_entry_refused(self, tmp_path, payload, where):
        with pytest.raises(ConfigError, match=f"unknown configuration keys: {re.escape(where)}$"):
            parse_config(write_config(tmp_path, payload))

    def test_temperature_keys_normalized_before_merge(self, tmp_path):
        # An integer key and a partial entry must merge with the defaults.
        path = write_config(
            tmp_path,
            {"photorefraction": {30: {"a": 2.2e-4},
                                 "45.0": {"a": 1e-5, "b": 10.0, "c": 0.0}}},
        )
        config = parse_config(path)
        merged = config.photorefraction(30.0)
        assert merged.a == 2.2e-4
        assert merged.b == 10.0  # default survives the partial override
        assert merged.tau_dark_s == 1.0e4
        fresh = config.photorefraction(45.0)
        assert fresh.tau_build_s == 5.0  # fallback for a new temperature


class TestDerivedSchema:
    def test_resolved_example_with_optional_keys_accepted(self, tmp_path):
        payload = yaml.safe_load(yaml.safe_dump(parse_config(EXAMPLE).resolved))
        payload["devices"]["qpm"]["poling_period_um"] = 19.5
        config = parse_config(write_config(tmp_path, payload))
        assert config.qpm_section()["poling_period_um"] == 19.5

    def test_new_keys_in_keyed_maps_accepted(self, tmp_path):
        # Only temperature maps are keyed: the guided modes are the two of the bands.
        modes = {"material": {"modes": {"first-order-telecom": {
            "wavelength_nm": 1550.0, "temperature_c": 30.0, "n_eff": 2.12}}}}
        with pytest.raises(ConfigError, match="unknown configuration keys: "
                           r"material\.modes\.first-order-telecom$"):
            parse_config(write_config(tmp_path, modes))
        payload = {
            "photorefraction": {"45": {"a": 1e-5, "b": 10.0, "c": 0.02}},
            "devices": {
                "coupler": {"coupling_constant_per_mm": {"45": 0.47}},
                "homodyne_coupler": {"coupling_constant_per_mm": {"45": 0.47}},
            },
            "run": {"spdc_spectrum": {"pump_wavelength_nm": {"45": 772.0}}},
        }
        config = parse_config(write_config(tmp_path, payload))
        assert config.photorefraction(45.0).a == 1e-5
        assert config.coupler_geometry(45.0).coupling_constant_per_mm == 0.47
        assert config.homodyne_geometry(45.0).coupling_constant_per_mm == 0.47
        assert config.run_section("spdc_spectrum")["pump_wavelength_nm"]["45.0"] == 772.0

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"devcies": {}}, "devcies"),
            ({"devices": {"coupler": {"interaction_lenght_mm": 4.3}}},
             "devices.coupler.interaction_lenght_mm"),
            ({"devices": {"qpm": {"calibration": {"temperature": 30.0}}}},
             "devices.qpm.calibration.temperature"),
            ({"photorefraction": {"30.0": {"tau_bulid_s": 5.0}}},
             r"photorefraction\.30\.0\.tau_bulid_s"),
            # A sweep runs at the keys of its own table, so no list names them.
            ({"run": {"coupler_sweep": {"temperatures_c": [30.0]}}},
             r"run\.coupler_sweep\.temperatures_c"),
            ({"run": {"spdc_spectrum": {"temperatures_c": [30.0]}}},
             r"run\.spdc_spectrum\.temperatures_c"),
            # A beam's wavelength band picks its guided mode, so no key names one.
            ({"devices": {"fpi": {"probe_mode": "fundamental-nir"}}},
             r"devices\.fpi\.probe_mode"),
            ({"devices": {"fpi": {"pump_mode": "fundamental-telecom"}}},
             r"devices\.fpi\.pump_mode"),
            ({"devices": {"squeezer": {"mode": "fundamental-nir"}}},
             r"devices\.squeezer\.mode"),
        ],
    )
    def test_misspelled_key_rejected(self, tmp_path, payload, where):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"unknown configuration keys: {where}$"):
            parse_config(path)

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"run": None}, "run"),
            ({"devices": {"coupler": [0.46]}}, "devices.coupler"),
            ({"photorefraction": 770.73}, "photorefraction"),
            ({"devices": {"coupler": {"coupling_constant_per_mm": 0.46}}},
             "devices.coupler.coupling_constant_per_mm"),
            ({"devices": {"homodyne_coupler": {"coupling_constant_per_mm": None}}},
             "devices.homodyne_coupler.coupling_constant_per_mm"),
            ({"run": {"spdc_spectrum": {"pump_wavelength_nm": 770.73}}},
             "run.spdc_spectrum.pump_wavelength_nm"),
            ({"material": {"sellmeier": [5.35]}}, "material.sellmeier"),
            ({"photorefraction": {"30": 5.0}}, "photorefraction.30"),
        ],
    )
    def test_section_that_is_not_a_mapping_rejected(self, tmp_path, payload, where):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"^{where}: expected a mapping$"):
            parse_config(path)


TEMPERATURE_MAPS = list(_KEYED_MAPS)


def _with_map(path: str, table: dict) -> dict:
    """A configuration that sets the keyed map at the dotted ``path`` to ``table``."""
    for key in reversed(path.split(".")):
        table = {key: table}
    return table


class TestTemperatureKeys:
    """Every temperature-keyed map of the schema, one case each."""

    @staticmethod
    def default_entry(path: str):
        return next(iter(functools.reduce(operator.getitem, path.split("."),
                                          DEFAULT_CONFIG).values()))

    @pytest.mark.parametrize("path", TEMPERATURE_MAPS)
    @pytest.mark.parametrize("first, second", [("30", "30.0"), ("30.0", "30.00"), (30, "30.0")],
                             ids=["30-30.0", "30.0-30.00", "int-30-30.0"])
    def test_two_spellings_of_one_temperature_refused(self, tmp_path, path, first, second):
        entry = self.default_entry(path)
        payload = _with_map(path, {first: entry, "60": entry, second: entry})
        message = f'{path}: "{first}" and "{second}" name one temperature'
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("path", TEMPERATURE_MAPS)
    @pytest.mark.parametrize("key", ["19.99", "200.01", "-40"])
    def test_key_outside_the_temperature_range_refused_by_path(self, tmp_path, path, key):
        payload = _with_map(path, {key: self.default_entry(path)})
        message = f"{path}.{key} (key) must lie in [20.0, 200.0], got {float(key)!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("path", TEMPERATURE_MAPS)
    def test_keys_at_the_range_ends_accepted(self, tmp_path, path):
        entry = self.default_entry(path)
        config = parse_config(write_config(tmp_path, _with_map(path, {"20": entry,
                                                                      "200": entry})))
        assert {20.0, 200.0} <= set(config.temperatures(path))


class TestMalformedValues:
    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"photorefraction": {"30": {"a": None}}}, "photorefraction.30.a"),
            ({"material": {"sellmeier": {"a1": None}}}, "material.sellmeier.a1"),
            ({"material": {"modes": {"fundamental-nir": {"n_eff": None}}}},
             "material.modes.fundamental-nir.n_eff"),
            ({"devices": {"fpi": {"length_mm": None}}}, "devices.fpi.length_mm"),
            ({"devices": {"squeezer": {"mirror_r1": None}}},
             "devices.squeezer.mirror_r1"),
            ({"devices": {"coupler": {"coupling_constant_per_mm": {"60": None}}}},
             r"devices\.coupler\.coupling_constant_per_mm\.60"),
            ({"devices": {"qpm": {"length_mm": None}}}, "devices.qpm.length_mm"),
            ({"devices": {"qpm": {"poling_period_um": "wide"}}},
             "devices.qpm.poling_period_um"),
            ({"material": {"sellmeier": {"a1": -100.0}}}, "material.sellmeier"),
            ({"photorefraction": {"45": {"b": 10.0, "c": 0.02}}},
             r"photorefraction\['45.0'\]"),
            ({"devices": {"qpm": {"calibration": {"temperature_c": 45.0}}}},
             r"devices\.qpm\.calibration: photorefraction"),
        ],
    )
    def test_bad_value_names_its_path(self, tmp_path, payload, where):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"^{where}: "):
            parse_config(path)


class TestLeafTypes:
    @pytest.mark.parametrize(
        "leaf, written, resolved",
        [
            (("devices", "fpi", "length_mm"), 12, 12.0),
            (("devices", "fpi", "length_mm"), "1.2e1", 12.0),
            (("run", "seed"), 2**64 - 1, 2**64 - 1),
            (("run", "seed"), "18446744073709551615", 2**64 - 1),
            (("run", "seed"), 7.0, 7),
            (("run", "seed"), "1e3", 1000),
            (("devices", "fpi", "angled_facets"), True, True),
            (("run", "fit_fpi", "pump_on_time_s"), None, None),
            (("run", "fit_fpi", "mask_intervals_s"), [[1, "2e0"]], [[1.0, 2.0]]),
        ],
    )
    def test_leaf_coerced(self, tmp_path, leaf, written, resolved):
        payload = value = {}
        for key in leaf[:-1]:
            value = value.setdefault(key, {})
        value[leaf[-1]] = written
        config = parse_config(write_config(tmp_path, payload))
        node = config.resolved
        for key in leaf:
            node = node[key]
        assert node == resolved
        assert type(node) is type(resolved)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"run": {"seed": True}}, "run.seed: expected int, got True"),
            ({"devices": {"fpi": {"length_mm": True}}},
             "devices.fpi.length_mm: expected float, got True"),
            ({"devices": {"fpi": {"length_mm": 10**400}}},
             "devices.fpi.length_mm: expected float"),
            ({"devices": {"fpi": {"angled_facets": 0}}},
             "devices.fpi.angled_facets: expected bool, got 0"),
            ({"run": {"output_dir": 1}}, "run.output_dir: expected str, got 1"),
            ({"photorefraction": {"warm": {"a": 1e-4}}},
             r"photorefraction\.warm \(key\): expected float, got 'warm'"),
            ({"devices": {"fpi": {"length_mm": float("nan")}}},
             "devices.fpi.length_mm: expected a finite float, got nan"),
            ({"devices": {"fpi": {"length_mm": "-inf"}}},
             "devices.fpi.length_mm: expected a finite float, got '-inf'"),
            ({"photorefraction": {"inf": {"a": 1e-4}}},
             r"photorefraction\.inf \(key\): expected a finite float, got 'inf'"),
        ],
    )
    def test_leaf_rejected(self, tmp_path, payload, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(write_config(tmp_path, payload))


class TestDerivedSchemaTypes:
    def test_every_leaf_has_a_concrete_type(self):
        scalars = (bool, int, float, str)

        def leaves(node, path):
            if isinstance(node, dict):
                for key, sub in node.items():
                    yield from leaves(sub, f"{path}.{key}")
            elif isinstance(node, (list, tuple)):
                assert node, path
                for sub in node:
                    yield from leaves(sub, f"{path}[]")
            else:
                yield path, node

        found = list(leaves(_SCHEMA, ""))
        assert len(found) > 50
        for path, node in found:
            if isinstance(node, types.UnionType):
                kind, none = node.__args__
                assert kind in scalars and none is type(None), path
            else:
                assert node in scalars, path

    @pytest.mark.parametrize("default", [None, []])
    def test_untyped_default_rejected(self, default):
        with pytest.raises(TypeError, match="new_leaf"):
            _derive_schema({"run": {"new_leaf": default}})


def _leaf_paths(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


EXAMPLE_TREE = yaml.safe_load(yaml.safe_dump(parse_config(EXAMPLE).resolved))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
YAML_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=2),
)


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(leaf=st.sampled_from(sorted(_leaf_paths(EXAMPLE_TREE))), value=YAML_VALUES)
    def test_one_bad_leaf_is_a_config_error(self, tmp_path_factory, leaf, value):
        """Any YAML value at any leaf gives a Config or a ConfigError."""
        payload = copy.deepcopy(EXAMPLE_TREE)
        node = payload
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = value
        path = tmp_path_factory.mktemp("fuzz") / "config.yaml"
        path.write_text(yaml.safe_dump(payload), encoding="utf-8")
        try:
            assert isinstance(parse_config(path), Config)
        except ConfigError:
            pass


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        config = parse_config(EXAMPLE)
        dumped = tmp_path / "dumped.yaml"
        dumped.write_text(yaml.safe_dump(config.resolved), encoding="utf-8")
        again = parse_config(dumped)
        assert again.resolved == config.resolved
        assert again.config_hash() == config.config_hash()

    def test_hash_changes_with_any_value(self, tmp_path):
        config = parse_config(EXAMPLE)
        payload = yaml.safe_load(yaml.safe_dump(config.resolved))
        payload["devices"]["fpi"]["length_mm"] = 14.999
        changed = parse_config(write_config(tmp_path, payload))
        assert changed.config_hash() != config.config_hash()

    def test_hash_stable_across_loads(self):
        assert parse_config(EXAMPLE).config_hash() == parse_config(EXAMPLE).config_hash()

    def test_hash_equal_for_int_and_float_at_float_leaf(self, tmp_path):
        hashes = set()
        for written in (30, 30.0, "30", "3.0e1"):
            payload = {"run": {"fpi_trace": {"temperature_c": written}}}
            path = tmp_path / f"config_{len(hashes)}.yaml"
            path.write_text(yaml.safe_dump(payload), encoding="utf-8")
            hashes.add(parse_config(path).config_hash())
        assert len(hashes) == 1

    def test_numeric_strings_resolved_as_numbers(self):
        """PyYAML reads the example's tau_dark_s: 1.0e4 as a string."""
        resolved = parse_config(EXAMPLE).resolved["photorefraction"]
        assert all(entry["tau_dark_s"] == 10000.0 for entry in resolved.values())
        assert all(type(entry["tau_dark_s"]) is float for entry in resolved.values())


class TestBuilders:
    def test_homodyne_geometry_balanced(self):
        config = parse_config(EXAMPLE)
        geometry = config.homodyne_geometry(30.0)
        from photoref.coupler import coupler_reflectivity

        assert abs(coupler_reflectivity(geometry, 0.0) - 0.5) < 1e-9

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_calibrated_period_nulls_mismatch_at_calibration(self, tmp_path, fraction):
        """The calibrated device phase-matches its own calibration point at the
        reference power, whatever share of the index shift the telecom beams take."""
        payload = {"devices": {"qpm": {"telecom_shift_fraction": fraction}}}
        config = parse_config(write_config(tmp_path, payload))
        cal = config.qpm_section()["calibration"]
        point = SpdcOperatingPoint(cal["pump_wavelength_nm"], cal["temperature_c"],
                                   cal["reference_pump_power_mw"])
        dk = qpm_mismatch(config.qpm_device(), point, cal["degeneracy_wavelength_nm"],
                          config.photorefraction(cal["temperature_c"]))
        assert abs(dk) <= 1e-9  # 1/mm

    def test_unknown_temperature_named(self):
        config = parse_config(EXAMPLE)
        with pytest.raises(ConfigError, match=r"^photorefraction: no entry at 45"):
            config.photorefraction(45.0)
        with pytest.raises(
            ConfigError, match=r"^devices\.coupler\.coupling_constant_per_mm: no entry at 45"
        ):
            config.coupler_geometry(45.0)

    def test_material_calibration_targets(self):
        config = parse_config(EXAMPLE)
        material = config.material()
        from photoref.material import refractive_index

        assert refractive_index(material, 1550.0, 30.0, "fundamental-telecom") == 2.13
        assert refractive_index(material, 775.0, 30.0, "fundamental-nir") == 2.18


def _device_leaves(node, default, path=("devices",)):
    """(path, default) of every device leaf that has a default; a keyed map
    gives each of its default entries.  The poling period has no default and
    is left out."""
    if not isinstance(node, dict):
        yield path, default
        return
    for key in default:
        yield from _device_leaves(node[float] if float in node else node[key], default[key],
                                  path + (key,))


def _perturbed(value):
    """A valid neighbour of a default: a number scaled or moved off zero, or
    a flag flipped."""
    if isinstance(value, bool):
        return not value
    return value * 1.01 if value else 0.5


def _device_readout(config: Config) -> dict[str, np.ndarray]:
    """Fixed model calls over every device the configuration builds, by name."""
    fpi, schedule = config.fpi_cavity(), PumpSchedule([PumpSegment(0.0, 1.0, 5.0)])
    values = {}
    for lam in (1550.0, 775.0):
        values[f"fpi_trace_{lam:g}"] = simulate_fpi_trace(
            fpi, schedule, config.photorefraction(30.0), lam, 30.0, 0.5, 1.0).value
        values[f"fpi_char_{lam:g}"] = fpi_characteristics(fpi, lam, 30.0)[0]
    values["squeezer_detuning"] = delta_n_to_detuning(config.squeezer_cavity(), -1e-6,
                                                      1550.0, 30.0)
    for name, build in (("coupler", config.coupler_geometry),
                        ("homodyne_coupler", config.homodyne_geometry)):
        for key in config.resolved["devices"][name]["coupling_constant_per_mm"]:
            values[f"{name}_{key}"] = coupler_reflectivity(build(float(key)),
                                                           np.array([0.0, 0.3]))
    device, params = config.qpm_device(), config.photorefraction(30.0)
    point = SpdcOperatingPoint(770.73, 30.0, pump_power_mw=5.0)
    grid = np.linspace(1500.0, 1580.0, 5)
    values["qpm_mismatch"] = qpm_mismatch(device, point, grid, params)
    # Off the calibration power: there the telecom share of the shift moves dk.
    values["qpm_mismatch_unpumped"] = qpm_mismatch(device, SpdcOperatingPoint(770.73, 30.0),
                                                   grid, params)
    # Off the calibration pump wavelength the grating no longer absorbs a mode
    # offset: dk moves with the pump index and with the signal and idler index.
    values["qpm_mismatch_off_calibration"] = qpm_mismatch(
        device, SpdcOperatingPoint(774.63, 30.0, pump_power_mw=5.0),
        np.linspace(1510.0, 1590.0, 5), params)
    values["spdc_spectrum"] = spdc_spectrum(device, point, params, grid)  # reads the QPM length
    return {name: np.atleast_1d(value) for name, value in values.items()}


DEVICE_LEAVES = list(_device_leaves(_SCHEMA["devices"], DEFAULT_CONFIG["devices"]))
MODE_LEAVES = list(_device_leaves(_SCHEMA["material"]["modes"],
                                  DEFAULT_CONFIG["material"]["modes"], ("material", "modes")))


def _perturbed_config(tmp_path, path, value) -> Config:
    payload = value
    for key in reversed(path):
        payload = {key: payload}
    return parse_config(write_config(tmp_path, payload))


class TestDeviceSettingsRead:
    @pytest.mark.parametrize("path, default", [
        pytest.param(path, default, id=".".join(path))
        for path, default in DEVICE_LEAVES + MODE_LEAVES
    ])
    def test_every_device_setting_changes_a_model_value(self, tmp_path, path, default):
        """Perturbing one device or mode default moves some model value or is refused."""
        reference = _device_readout(parse_config(write_config(tmp_path, {})))
        value = _perturbed(default)
        try:
            config = _perturbed_config(tmp_path, path, value)
        except ConfigError:
            return
        readout = _device_readout(config)
        assert any(not np.array_equal(readout[name], reference[name]) for name in reference), (
            f"{'.'.join(path)} = {value!r} changes no model value"
        )

    @pytest.mark.parametrize("path, default", [
        pytest.param(path, default, id=".".join(path)) for path, default in MODE_LEAVES
    ])
    def test_a_mode_setting_moves_the_consumers_of_its_band(self, tmp_path, path, default):
        """One band rule serves every consumer: a 1550 nm mode leaf moves the FPI
        trace and FSR at 1550 nm and, through the signal and idler index, the QPM
        mismatch off calibration; a 775 nm leaf moves them at 775 nm and, through
        the pump index, that mismatch.  Nothing else moves beyond round-off: the
        calibrated poling period absorbs a mode offset at its own pump wavelength,
        and the squeezer's normalized detuning does not depend on n_eff."""
        band = f"{DEFAULT_CONFIG['material']['modes'][path[2]]['wavelength_nm']:g}"
        expected = {f"fpi_trace_{band}", f"fpi_char_{band}", "qpm_mismatch_off_calibration"}
        reference = _device_readout(parse_config(write_config(tmp_path, {})))
        readout = _device_readout(_perturbed_config(tmp_path, path, _perturbed(default)))
        moved = {name for name in reference
                 if not np.allclose(readout[name], reference[name], rtol=1e-9, atol=1e-9)}
        assert moved == expected


def _run_leaves(node, default, path, name=None):
    """(path, key name) of every numeric leaf of a run section that has a
    default; a list gives its first entry and a keyed map its first value."""
    if isinstance(node, dict):
        keyed = next((k for k in node if isinstance(k, type)), None)
        for key in list(default)[:1] if keyed else default:
            yield from _run_leaves(node[keyed or key], default[key], path + (key,),
                                   name if keyed else key)
    elif isinstance(node, list):
        if default:
            yield from _run_leaves(node[0], default[0], path + (0,), name)
    elif node in (int, float) and default is not None:
        yield path, name


def _where(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


RUN_LEAVES = [
    leaf
    for section, default in DEFAULT_CONFIG["run"].items() if isinstance(default, dict)
    for leaf in _run_leaves(_SCHEMA["run"][section], default, ("run", section))
]
# The example configuration, squeezed so that the homodyne reflectivity
# matters, with the tables that a temperature leaf moved to 60 C looks up.
RUN_BASE = copy.deepcopy(EXAMPLE_TREE)
RUN_BASE["run"]["homodyne"]["squeezing_db"] = -3.0
RUN_BASE["devices"]["homodyne_coupler"]["coupling_constant_per_mm"]["60.0"] = 0.48039


def _run_perturbed(value, name):
    """A neighbour of a run value inside its key's range: a temperature moved
    to 60 C, an int lowered by one, a float scaled or moved off zero."""
    if name == "temperature_c":
        return 60.0
    if isinstance(value, int):
        return value - 1
    return value * 0.99 if value else 0.5


def _data_outputs(out) -> dict:
    """Each data file's CSV body or JSON payload without its provenance."""
    outputs = {}
    for file in out.iterdir():
        if file.suffix == ".csv":
            outputs[file.name] = [line for line in file.read_text().splitlines()
                                  if not line.startswith("#")]
        elif file.name != "run_manifest.json":
            outputs[file.name] = json.loads(file.read_text())
            outputs[file.name].pop("provenance")
    return outputs


@pytest.fixture(scope="module")
def run_workdir(tmp_path_factory):
    """A directory holding the base configuration and, in ``out/``, the fit
    inputs that it names; outputs of a reference run cached per subcommand."""
    work = tmp_path_factory.mktemp("run_settings")
    (work / "config.yaml").write_text(yaml.safe_dump(RUN_BASE), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        for sub in ("fpi-trace", "coupler-sweep"):
            assert main([sub, "--config", "config.yaml", "--out", "out", "--quiet"]) == 0
    return work, {}


class TestRunSettingsRead:
    @pytest.mark.parametrize("path, name", [
        pytest.param(path, name, id=_where(path)) for path, name in RUN_LEAVES
    ])
    def test_every_run_setting_moves_a_data_output(
        self, run_workdir, tmp_path, monkeypatch, path, name
    ):
        """Perturbing one run value moves a data output of its subcommand, or
        is refused by a message that names the value."""
        work, references = run_workdir
        monkeypatch.chdir(work)
        subcommand = path[1].replace("_", "-")
        if subcommand not in references:
            reference = tmp_path / "reference"
            assert main([subcommand, "--config", "config.yaml", "--out", str(reference),
                         "--quiet"]) == 0
            references[subcommand] = _data_outputs(reference)
        payload = copy.deepcopy(RUN_BASE)
        node = functools.reduce(operator.getitem, path[:-1], payload)
        value = node[path[-1]] = _run_perturbed(node[path[-1]], name)
        _check_ranges(value, name, _where(path))
        config = tmp_path / "perturbed.yaml"
        config.write_text(yaml.safe_dump(payload), encoding="utf-8")
        out = tmp_path / "out"
        code = main([subcommand, "--config", str(config), "--out", str(out), "--quiet"])
        if code:
            assert _where(path) in json.loads((out / "run_manifest.json").read_text())["error"]
        else:
            assert _data_outputs(out) != references[subcommand], (
                f"{_where(path)} = {value!r} moves no data output"
            )
