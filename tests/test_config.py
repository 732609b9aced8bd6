import math
import re
from pathlib import Path

import pytest
import yaml

from qecbound import ConfigError, default_config, from_dict, load_config


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = from_dict({"bath": {"D": 1, "channels": [{"axis": "z"}]}})
        assert cfg.D == 1
        assert cfg.L == pytest.approx(400 * math.pi)
        assert cfg.delta == 1.0
        assert cfg.omega_c == 1.0  # 1 / Delta
        assert len(cfg.channels) == 1
        ch = cfg.channels[0]
        assert (ch.axis, ch.z_exp, ch.s_exp, ch.lam) == ("z", 1.0, 0.0, 1e-3)
        assert cfg.code_name == "five_qubit"
        assert cfg.n_logical == 1 and cfg.D_x == 1
        assert cfg.d_crit == 0.01 and cfg.sigma_plus_abs == 0.5
        assert cfg.max_modes == 10_000_000

    def test_default_config_has_two_channels(self):
        cfg = default_config()
        assert sorted(ch.axis for ch in cfg.channels) == ["x", "z"]

    def test_documented_block_is_the_default(self):
        text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", text, re.S).group(1)
        assert from_dict(yaml.safe_load(block)).config_hash() == default_config().config_hash()

    def test_omega_c_tracks_delta(self):
        cfg = from_dict({"qec": {"Delta": 0.5}})
        assert cfg.omega_c == 2.0


class TestValidation:
    def test_negative_lambda_names_key(self):
        with pytest.raises(ConfigError, match=r"bath\.channels\[0\]\.lambda"):
            from_dict({"bath": {"channels": [{"axis": "z", "lambda": -0.1}]}})

    def test_dx_exceeds_bath_dimension(self):
        with pytest.raises(ConfigError, match=r"layout\.D_x exceeds bath\.D"):
            from_dict({"bath": {"D": 1}, "layout": {"D_x": 2}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: bogus"):
            from_dict({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match=r"unknown key: bath\.size"):
            from_dict({"bath": {"size": 3}})

    def test_unknown_channel_key(self):
        with pytest.raises(ConfigError, match=r"bath\.channels\[0\]\.gap"):
            from_dict({"bath": {"channels": [{"axis": "z", "gap": 1}]}})

    def test_duplicate_axis(self):
        with pytest.raises(ConfigError, match="one channel per axis"):
            from_dict({"bath": {"channels": [{"axis": "z"}, {"axis": "z"}]}})

    @pytest.mark.parametrize(
        "tree, key",
        [
            ({"qec": {"Delta": math.nan}}, r"qec\.Delta"),
            ({"calibration": {"c_cal": math.inf}}, r"calibration\.c_cal"),
            ({"bath": {"L": -math.inf}}, r"bath\.L"),
            ({"bath": {"L": 10**400}}, r"bath\.L"),
            ({"bath": {"channels": [{"axis": "z", "s_exp": math.nan}]}}, r"bath\.channels\[0\]\.s_exp"),
        ],
    )
    def test_non_finite_number_names_key(self, tree, key):
        with pytest.raises(ConfigError, match=key + " must be a finite number"):
            from_dict(tree)

    @pytest.mark.parametrize(
        "text, key",
        [("qec:\n  Delta: .nan\n", r"qec\.Delta"), ("calibration:\n  c_cal: .inf\n", r"calibration\.c_cal")],
    )
    def test_non_finite_yaml_names_key(self, tmp_path, text, key):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_three_channels(self):
        with pytest.raises(ConfigError, match="at most two"):
            from_dict({"bath": {"channels": [{"axis": "z"}, {"axis": "x"}, {"axis": "z"}]}})

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match=r"bath\.channels\[0\]\.axis"):
            from_dict({"bath": {"channels": [{"axis": "y"}]}})

    def test_cutoff_below_smallest_mode(self):
        with pytest.raises(ConfigError, match="smallest mode frequency"):
            from_dict({"bath": {"L": 2 * math.pi, "omega_c": 0.5}})

    def test_bad_code_name(self):
        with pytest.raises(ConfigError, match=r"code\.name"):
            from_dict({"code": {"name": "steane"}})

    def test_criteria_range(self):
        with pytest.raises(ConfigError, match=r"criteria\.D_crit"):
            from_dict({"criteria": {"D_crit": 1.5}})
        with pytest.raises(ConfigError, match=r"criteria\.sigma_plus_abs"):
            from_dict({"criteria": {"sigma_plus_abs": 0.7}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match=r"qec\.Delta must be a number"):
            from_dict({"qec": {"Delta": "fast"}})
        with pytest.raises(ConfigError, match=r"bath\.D must be an integer"):
            from_dict({"bath": {"D": 1.5}})

    def test_nonpositive_delta(self):
        with pytest.raises(ConfigError, match=r"qec\.Delta"):
            from_dict({"qec": {"Delta": 0.0}})

    @pytest.mark.parametrize(
        "tree, message",
        [
            ({"qec": {"Delta": 0.0}}, "qec.Delta must be positive"),
            ({"bath": {"D": 4}}, "bath.D must be 1, 2 or 3"),
            ({"bath": {"L": -1.0}}, "bath.L must be positive"),
            ({"bath": {"omega_c": 0.0}}, "bath.omega_c must be positive"),
            ({"layout": {"xi": 0.0}}, "layout.xi must be positive"),
            ({"layout": {"Xi": -2.0}}, "layout.Xi must be positive"),
            ({"layout": {"D_x": -1}}, "layout.D_x must be non-negative"),
            ({"layout": {"N": 0}}, "layout.N must be at least 1"),
            ({"criteria": {"D_crit": 0.0}}, "criteria.D_crit must lie strictly between 0 and 1"),
            ({"criteria": {"sigma_plus_abs": -0.1}}, "criteria.sigma_plus_abs must lie in [0, 1/2]"),
            ({"calibration": {"c_cal": 0.0}}, "calibration.c_cal must be positive"),
            ({"calibration": {"b_cal": -1.0}}, "calibration.b_cal must be positive"),
            ({"calibration": {"proportionality": 0.0}}, "calibration.proportionality must be positive"),
            ({"budget": {"max_modes": 0}}, "budget.max_modes must be at least 1"),
            ({"bath": {"channels": [{"axis": "z", "z_exp": 0.0}]}}, "bath.channels[0].z_exp must be positive"),
            ({"bath": {"channels": [{"axis": "z", "lambda": -1.0}]}}, "bath.channels[0].lambda must be non-negative"),
            ({"bath": {"channels": []}}, "bath.channels must be a non-empty list"),
        ],
    )
    def test_range_message(self, tree, message):
        with pytest.raises(ConfigError) as info:
            from_dict(tree)
        assert str(info.value) == message

    def test_scalars_are_checked_before_channels_and_code(self):
        tree = {"bath": {"channels": [{"axis": "y"}]}, "code": {"name": "steane"}, "budget": {"max_modes": 0}}
        with pytest.raises(ConfigError, match=r"^budget\.max_modes must be at least 1$"):
            from_dict(tree)


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "bath:\n"
            "  D: 1\n"
            "  L: 628.0\n"
            "  channels:\n"
            "    - axis: z\n"
            "      z_exp: 1.0\n"
            "      s_exp: 0.5\n"
            "      lambda: 0.002\n"
            "qec:\n"
            "  Delta: 2.0\n"
        )
        cfg = load_config(path)
        assert cfg.L == 628.0
        assert cfg.channels[0].s_exp == 0.5
        assert cfg.omega_c == 0.5

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("bath: [unclosed\nqec: {Delta: 1}\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)


class TestSweepSupport:
    def test_with_value_scalar(self):
        cfg = default_config()
        swapped = cfg.with_value("qec.Delta", 2.0)
        assert swapped.delta == 2.0
        assert swapped.omega_c == cfg.omega_c  # omega_c already resolved

    def test_with_value_channel_index(self):
        cfg = default_config()
        swapped = cfg.with_value("bath.channels.0.lambda", 0.5)
        assert swapped.channels[0].lam == 0.5

    def test_with_value_missing_key(self):
        with pytest.raises(ConfigError, match="does not name"):
            default_config().with_value("qec.Period", 1.0)

    def test_with_value_non_scalar(self):
        with pytest.raises(ConfigError, match="not a scalar"):
            default_config().with_value("bath.channels", 1.0)

    @pytest.mark.parametrize("key", ["layout.N", "layout.D_x", "bath.D", "budget.max_modes"])
    def test_with_value_integral_float_for_integer_key(self, key):
        cfg = default_config()
        assert cfg.with_value(key, 1.0) == cfg.with_value(key, 1)
        with pytest.raises(ConfigError, match=rf"{key} must be an integer, got 1\.5"):
            cfg.with_value(key, 1.5)

    def test_hash_stable_and_sensitive(self):
        a = default_config()
        b = default_config()
        assert a.config_hash() == b.config_hash()
        c = a.with_value("qec.Delta", 3.0)
        assert c.config_hash() != a.config_hash()
