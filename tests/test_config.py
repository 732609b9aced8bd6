import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from qecbound import ConfigError, default_config, from_dict, load_config
from qecbound.config import _CHANNEL_SCALARS, _SCALARS, _integer


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


def _round_trip(cfg, dotted_key, value):
    """The reference for with_value: rewrite one key of the canonical tree, then from_dict."""
    tree = cfg.canonical_dict()
    *parents, leaf = dotted_key.split(".")
    node = tree
    try:
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if isinstance(node, list):
            leaf = int(leaf)
        old = node[leaf]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"sweep parameter {dotted_key} does not name a config key") from exc
    if isinstance(old, (dict, list)):
        raise ConfigError(f"sweep parameter {dotted_key} is not a scalar key")
    if dotted_key in _SCALARS and _SCALARS[dotted_key][2] is _integer and isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{dotted_key} must be an integer, got {value!r}")
        value = int(value)
    node[leaf] = value
    return from_dict(tree)


# a valid new value for every scalar key of the default config
_VALID = {
    "qec.Delta": 2.0, "bath.D": 2, "bath.L": 500.0, "bath.omega_c": 0.5, "layout.xi": 0.5,
    "layout.Xi": 50.0, "layout.D_x": 0.0, "layout.N": 3.0, "criteria.D_crit": 0.05,
    "criteria.sigma_plus_abs": 0.25, "calibration.c_cal": 2, "calibration.b_cal": 0.5,
    "calibration.proportionality": 3.0, "budget.max_modes": 1000,
}
_VALID_CHANNEL = {"axis": ["z", "x"], "z_exp": 1.5, "s_exp": -0.25, "lambda": 0.01}
_TWO_DIMENSIONS = {"bath": {"D": 2}, "layout": {"D_x": 2}}


class TestWithValueMatchesRoundTrip:
    """with_value checks one schema row and the cross-key rules; from_dict of the tree checks all."""

    @staticmethod
    def _agree(cfg, key, value):
        try:
            want = _round_trip(cfg, key, value)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                cfg.with_value(key, value)
            assert str(info.value) == str(exc)
            return None
        got = cfg.with_value(key, value)
        assert got == want and got.config_hash() == want.config_hash()
        return got

    def test_every_row_is_covered(self):
        assert set(_VALID) == set(_SCALARS)
        assert set(_VALID_CHANNEL) == set(_CHANNEL_SCALARS)

    @pytest.mark.parametrize("key", sorted(_VALID))
    def test_scalar_rows(self, key):
        got = self._agree(default_config(), key, _VALID[key])
        assert got is not None and getattr(got, _SCALARS[key][0]) == _VALID[key]

    @pytest.mark.parametrize("key", sorted(_VALID_CHANNEL))
    @pytest.mark.parametrize("index", ["0", "1", "-1"])
    def test_channel_rows(self, key, index):
        cfg = default_config()
        value = _VALID_CHANNEL[key]
        if key == "axis":  # an axis may only be rewritten to itself on two channels
            value = value[0] if cfg.channels[int(index)].axis == "z" else value[1]
        got = self._agree(cfg, f"bath.channels.{index}.{key}", value)
        assert got is not None and got.channels[int(index)] == replace(
            cfg.channels[int(index)], **{_CHANNEL_SCALARS[key][0]: value})

    def test_one_channel_may_change_axis(self):
        cfg = from_dict({"bath": {"channels": [{"axis": "z"}]}})
        assert self._agree(cfg, "bath.channels.0.axis", "x").channels[0].axis == "x"

    def test_code_name(self):
        assert self._agree(default_config(), "code.name", "five_qubit") == default_config()

    @pytest.mark.parametrize(
        "base, key, value, message",
        [
            ({}, "bath.L", -1.0, "bath.L must be positive"),
            ({}, "bath.L", math.inf, "bath.L must be a finite number"),
            ({}, "bath.L", 6.0, "bath.omega_c must exceed the smallest mode frequency "
                                "(2*pi/L)^z_exp for bath.channels[0]"),
            ({}, "bath.omega_c", 0.004, "bath.omega_c must exceed the smallest mode frequency "
                                       "(2*pi/L)^z_exp for bath.channels[0]"),
            ({"bath": {"omega_c": 0.5}}, "bath.channels.1.z_exp", 0.1, "bath.omega_c must exceed the smallest mode "
                                               "frequency (2*pi/L)^z_exp for bath.channels[1]"),
            ({}, "layout.N", 0, "layout.N must be at least 1"),
            ({}, "layout.N", 0.0, "layout.N must be at least 1"),
            ({}, "layout.N", 2.5, "layout.N must be an integer, got 2.5"),
            ({}, "layout.D_x", 2, "layout.D_x exceeds bath.D"),
            (_TWO_DIMENSIONS, "bath.D", 1, "layout.D_x exceeds bath.D"),
            (_TWO_DIMENSIONS, "bath.D", 1.0, "layout.D_x exceeds bath.D"),
            ({}, "bath.D", 4, "bath.D must be 1, 2 or 3"),
            ({}, "qec.Delta", "fast", "qec.Delta must be a number"),
            ({}, "qec.Delta", True, "qec.Delta must be a number"),
            ({}, "bath.channels.0.lambda", -1.0, "bath.channels[0].lambda must be non-negative"),
            ({}, "bath.channels.-1.lambda", -1.0, "bath.channels[1].lambda must be non-negative"),
            ({}, "bath.channels.1.axis", "z", "bath.channels must contain at most one channel per axis"),
            ({}, "bath.channels.0.axis", "y", "bath.channels[0].axis must be 'x' or 'z'"),
            ({}, "code.name", "steane", "code.name must be one of ['five_qubit'], got 'steane'"),
            ({}, "code.name", 1.0, "code.name must be one of ['five_qubit'], got 1.0"),
            ({}, "code.name", ["five_qubit"], "code.name must be one of ['five_qubit'], got ['five_qubit']"),
        ],
    )
    def test_invalid_values(self, base, key, value, message):
        cfg = from_dict(base)
        assert self._agree(cfg, key, value) is None
        with pytest.raises(ConfigError) as info:
            cfg.with_value(key, value)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "key, kind",
        [
            ("qec.Period", "does not name"), ("", "does not name"), ("qec.Delta.x", "does not name"),
            ("code.name.x", "does not name"), ("code.name.0", "does not name"),
            ("bath.channels.2.lambda", "does not name"), ("bath.channels.-3.lambda", "does not name"),
            ("bath.channels.x.lambda", "does not name"), ("bath.channels.0.gap", "does not name"),
            ("bath.channels.0.lambda.x", "does not name"), ("layout", "not a scalar"),
            ("bath", "not a scalar"), ("bath.channels", "not a scalar"),
            ("bath.channels.0", "not a scalar"), ("code", "not a scalar"),
        ],
    )
    def test_missing_and_non_scalar_keys(self, key, kind):
        cfg = default_config()
        assert self._agree(cfg, key, 1.0) is None
        with pytest.raises(ConfigError, match=kind):
            cfg.with_value(key, 1.0)
