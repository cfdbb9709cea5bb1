import yaml
import pytest

from photoref.config import Config, ConfigError, parse_config

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
        payload = yaml.safe_load(parse_config(EXAMPLE).to_yaml())
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
            ({"photorefraction": {"30": {"a": None}}}, r"photorefraction\['30.0'\]"),
            ({"material": {"sellmeier": {"a1": None}}}, "material.sellmeier"),
            ({"material": {"modes": {"fundamental-nir": {"n_eff": None}}}},
             "material.modes"),
            ({"devices": {"fpi": {"length_mm": None}}}, "devices.fpi"),
            ({"devices": {"squeezer": {"mirror_r1": None}}}, "devices.squeezer"),
            ({"devices": {"coupler": {"coupling_constant_per_mm": {"60": None}}}},
             r"devices\.coupler\.coupling_constant_per_mm\['60.0'\]"),
            ({"devices": {"homodyne_coupler": {"design_wavelength_nm": None}}},
             "devices.homodyne_coupler"),
            ({"devices": {"homodyne_coupler": {"balanced": False}}},
             "devices.homodyne_coupler"),
            ({"devices": {"qpm": {"length_mm": None}}}, "devices.qpm"),
            ({"devices": {"qpm": {"poling_period_um": "wide"}}}, "devices.qpm"),
        ],
    )
    def test_bad_value_names_its_path(self, tmp_path, payload, where):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"^{where}: "):
            parse_config(path)


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        config = parse_config(EXAMPLE)
        dumped = tmp_path / "dumped.yaml"
        dumped.write_text(config.to_yaml(), encoding="utf-8")
        again = parse_config(dumped)
        assert again.resolved == config.resolved
        assert again.config_hash() == config.config_hash()

    def test_hash_changes_with_any_value(self, tmp_path):
        config = parse_config(EXAMPLE)
        payload = yaml.safe_load(config.to_yaml())
        payload["devices"]["fpi"]["length_mm"] = 14.999
        changed = parse_config(write_config(tmp_path, payload))
        assert changed.config_hash() != config.config_hash()

    def test_hash_stable_across_loads(self):
        assert parse_config(EXAMPLE).config_hash() == parse_config(EXAMPLE).config_hash()


class TestBuilders:
    def test_homodyne_geometry_balanced(self):
        config = parse_config(EXAMPLE)
        geometry = config.homodyne_geometry(30.0)
        from photoref.coupler import coupler_reflectivity

        assert abs(coupler_reflectivity(geometry, 0.0) - 0.5) < 1e-9

    def test_unknown_temperature_named(self):
        config = parse_config(EXAMPLE)
        with pytest.raises(ConfigError, match="no parameter set at 45"):
            config.photorefraction(45.0)
        with pytest.raises(ConfigError, match="no value at 45"):
            config.coupler_geometry(45.0)

    def test_material_calibration_targets(self):
        config = parse_config(EXAMPLE)
        material = config.material()
        from photoref.material import refractive_index

        assert refractive_index(material, 1550.0, 30.0, "fundamental-telecom") == 2.13
        assert refractive_index(material, 775.0, 30.0, "fundamental-nir") == 2.18
