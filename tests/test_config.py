import copy
import types

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from photoref.cavity import delta_n_to_detuning, fpi_characteristics, fpi_transmission
from photoref.config import (
    _SCHEMA,
    DEFAULT_CONFIG,
    Config,
    ConfigError,
    _derive_schema,
    parse_config,
)
from photoref.coupler import coupler_reflectivity
from photoref.material import DEFAULT_MODE_TARGETS
from photoref.spdc import SpdcOperatingPoint, qpm_mismatch, spdc_spectrum

EXAMPLE = "configs/example.yaml"


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


class TestParsing:
    def test_example_config_parses(self):
        config = parse_config(EXAMPLE, strict=True)
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
            parse_config(path, strict=True)

    def test_unknown_key_lenient_warns(self, tmp_path, caplog):
        path = write_config(tmp_path, {"devices": {"fpi": {"lenght_mm": 15.0}}})
        with caplog.at_level("WARNING"):
            config = parse_config(path, strict=False)
        assert any("lenght_mm" in rec.message for rec in caplog.records)
        assert config.fpi_cavity().length_mm == 15.0  # default kept

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
    def test_unknown_key_in_entry_lenient_ignored(self, tmp_path, caplog, payload, where):
        with caplog.at_level("WARNING"):
            config = parse_config(write_config(tmp_path, payload))
        assert any(where in rec.message for rec in caplog.records)
        assert config.photorefraction(30.0).a > 0
        assert "bogus" not in config.resolved["photorefraction"]["30.0"]
        assert "erasing_lite" not in config.run_section("fpi_trace")["schedule"][0]

    def test_temperature_keys_normalized_before_merge(self, tmp_path):
        # An integer key and a partial entry must merge with the defaults.
        path = write_config(
            tmp_path,
            {"photorefraction": {30: {"a": 2.2e-4},
                                 "45.0": {"a": 1e-5, "b": 10.0, "c": 0.0}}},
        )
        config = parse_config(path, strict=True)
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
        payload["devices"]["homodyne_coupler"]["interaction_length_mm"] = 5.0
        config = parse_config(write_config(tmp_path, payload), strict=True)
        assert config.qpm_section()["poling_period_um"] == 19.5
        assert config.resolved["devices"]["homodyne_coupler"]["interaction_length_mm"] == 5.0

    def test_new_keys_in_keyed_maps_accepted(self, tmp_path):
        payload = {
            "material": {
                "modes": {
                    "first-order-telecom": {
                        "wavelength_nm": 1550.0, "temperature_c": 30.0, "n_eff": 2.12,
                    }
                }
            },
            "photorefraction": {"45": {"a": 1e-5, "b": 10.0, "c": 0.02}},
            "devices": {
                "coupler": {"coupling_constant_per_mm": {"45": 0.47}},
                "homodyne_coupler": {"coupling_constant_per_mm": {"45": 0.47}},
            },
            "run": {"spdc_spectrum": {"pump_wavelength_nm": {"45": 772.0}}},
        }
        config = parse_config(write_config(tmp_path, payload), strict=True)
        assert config.photorefraction(45.0).a == 1e-5
        assert config.coupler_geometry(45.0).coupling_constant_per_mm == 0.47
        assert config.homodyne_geometry(45.0).coupling_constant_per_mm == 0.47
        assert config.run_section("spdc_spectrum")["pump_wavelength_nm"]["45.0"] == 772.0
        assert "first-order-telecom" in config.material().mode_offsets

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
        ],
    )
    def test_misspelled_key_rejected(self, tmp_path, payload, where):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"unknown configuration keys: {where}$"):
            parse_config(path, strict=True)

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
            ({"devices": {"homodyne_coupler": {"interaction_length_mm": None}}},
             "devices.homodyne_coupler.interaction_length_mm"),
            ({"devices": {"homodyne_coupler": {"balanced": False}}},
             "devices.homodyne_coupler"),
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
        config = parse_config(write_config(tmp_path, payload), strict=True)
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
            ({"devices": {"fpi": {"probe_mode": 1}}},
             "devices.fpi.probe_mode: expected str, got 1"),
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


# Device leaves that no model reads, only echoed into an output.
ECHOED = {"devices.coupler.waveguide_separation_um"}


def _device_leaves(node, default, path=("devices",)):
    """(path, default) of every device leaf that has a default; a keyed map
    gives each of its default entries.  Leaves with no default (the poling
    period, the length of an unbalanced homodyne coupler) are left out."""
    if not isinstance(node, dict):
        yield path, default
        return
    keyed = next((k for k in node if isinstance(k, type)), None)
    for key in default:
        yield from _device_leaves(node[keyed or key], default[key], path + (key,))


def _perturbed(value):
    """A valid neighbour of a default: a number scaled or moved off zero, a
    flag flipped, a mode id swapped for the other default mode."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return next(mode for mode in DEFAULT_MODE_TARGETS if mode != value)
    return value * 1.01 if value else 0.5


def _device_readout(config: Config) -> np.ndarray:
    """Fixed model calls over every device the configuration builds."""
    fpi = config.fpi_cavity()
    values = [fpi_transmission(fpi, lam, 30.0, np.array([0.0, -1e-5])) for lam in (1550.0, 775.0)]
    values += [fpi_characteristics(fpi, lam, 30.0)[0] for lam in (1550.0, 775.0)]
    values.append(delta_n_to_detuning(config.squeezer_cavity(), -1e-6, 1550.0))
    for name, build in (("coupler", config.coupler_geometry),
                        ("homodyne_coupler", config.homodyne_geometry)):
        for key in config.resolved["devices"][name]["coupling_constant_per_mm"]:
            values.append(coupler_reflectivity(build(float(key)), np.array([0.0, 0.3])))
    device, params = config.qpm_device(), config.photorefraction(30.0)
    point = SpdcOperatingPoint(770.73, 30.0, pump_power_mw=5.0)
    grid = np.linspace(1500.0, 1580.0, 5)
    values.append(qpm_mismatch(device, point, grid, params))
    values.append(spdc_spectrum(device, point, params, grid))  # reads the QPM length
    return np.concatenate([np.atleast_1d(v) for v in values])


DEVICE_LEAVES = list(_device_leaves(_SCHEMA["devices"], DEFAULT_CONFIG["devices"]))


class TestDeviceSettingsRead:
    def test_echoed_settings_are_device_leaves(self):
        assert ECHOED <= {".".join(path) for path, _ in DEVICE_LEAVES}

    @pytest.mark.parametrize("path, default", [
        pytest.param(path, default, id=".".join(path))
        for path, default in DEVICE_LEAVES if ".".join(path) not in ECHOED
    ])
    def test_every_device_setting_changes_a_model_value(self, tmp_path, path, default):
        """Perturbing one device default moves some model value or is refused."""
        reference = _device_readout(parse_config(write_config(tmp_path, {})))
        payload = value = _perturbed(default)
        for key in reversed(path):
            payload = {key: payload}
        try:
            config = parse_config(write_config(tmp_path, payload))
        except ConfigError:
            return
        assert not np.array_equal(_device_readout(config), reference), (
            f"{'.'.join(path)} = {value!r} changes no model value"
        )
