"""Run configuration: YAML loading, strict validation, defaults.

The tables ``_SCALARS`` and ``_CHANNEL_SCALARS`` are the schema: each row
gives a key's field, default, reader, range check and the requirement its
error states, and ``_checked`` applies one.  Validation (of a config and of
the value types below), the canonical form (and so the config hash) and the
known-key sets are read from them; only the cross-key rules are written out,
in ``_cross_checked``.  Every validation failure names the offending key
path (e.g. ``bath.channels[0].lambda``); unknown keys are rejected.
Defaults are documented in docs/config.md.

The plain value types a config hands to the library (BathChannel,
BathGeometry, BoundInput) are defined here, so that loading and validating
a config imports no numeric code; bath and bounds re-export them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Container, Mapping

import yaml

from .errors import ConfigError
from .pauli import StabilizerCode, five_qubit_code

if TYPE_CHECKING:
    from .bath import QubitLayout

# codes are frozen, so each registered code is built once and shared
CODE_REGISTRY: dict[str, Callable[[], StabilizerCode]] = {
    "five_qubit": functools.cache(five_qubit_code),
}


def _number(value: Any, path: str) -> float:
    # an exact float skips the ABC check, which costs more than the rest of a value type
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ConfigError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be a finite number")
    return number


def _integer(value: Any, path: str) -> int:
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ConfigError(f"{path} must be an integer")
    return int(value)


def _as_is(value: Any, path: str) -> Any:
    return value


def _positive(value: float) -> bool:
    return value > 0


# (field, default, reader: (value, key) -> field value, range check, requirement stated on failure)
_Row = tuple[str, Any, Callable[[Any, str], Any], Callable[[Any], bool], str]

# dotted key -> row, in validation order.  A callable default is computed
# from the values read before it: bath.omega_c defaults to 1/qec.Delta.
_SCALARS: dict[str, _Row] = {
    "qec.Delta": ("delta", 1.0, _number, _positive, "must be positive"),
    "bath.D": ("D", 1, _integer, lambda v: v in (1, 2, 3), "must be 1, 2 or 3"),
    "bath.L": ("L", 400.0 * math.pi, _number, _positive, "must be positive"),
    "bath.omega_c": ("omega_c", lambda values: 1.0 / values["delta"], _number, _positive,
                     "must be positive"),
    "layout.xi": ("xi", 1.0, _number, _positive, "must be positive"),
    "layout.Xi": ("Xi", 100.0, _number, _positive, "must be positive"),
    "layout.D_x": ("D_x", 1, _integer, lambda v: v >= 0, "must be non-negative"),
    "layout.N": ("n_logical", 1, _integer, lambda v: v >= 1, "must be at least 1"),
    "criteria.D_crit": ("d_crit", 0.01, _number, lambda v: 0.0 < v < 1.0,
                        "must lie strictly between 0 and 1"),
    "criteria.sigma_plus_abs": ("sigma_plus_abs", 0.5, _number, lambda v: 0.0 <= v <= 0.5,
                                "must lie in [0, 1/2]"),
    "calibration.c_cal": ("c_cal", 1.0, _number, _positive, "must be positive"),
    "calibration.b_cal": ("b_cal", 1.0, _number, _positive, "must be positive"),
    "calibration.proportionality": ("proportionality", 1.0, _number, _positive,
                                    "must be positive"),
    "budget.max_modes": ("max_modes", 10_000_000, _integer, lambda v: v >= 1,
                         "must be at least 1"),
}
# the same rows for the keys of one bath.channels entry (BathChannel fields)
_CHANNEL_SCALARS: dict[str, _Row] = {
    "axis": ("axis", None, _as_is, lambda v: v in ("x", "z"), "must be 'x' or 'z'"),
    "z_exp": ("z_exp", 1.0, _number, _positive, "must be positive"),
    "s_exp": ("s_exp", 0.0, _number, lambda v: True, ""),  # any finite exponent
    "lambda": ("lam", 1.0e-3, _number, lambda v: v >= 0, "must be non-negative"),
}

# the table's channel defaults, with a weaker coupling on the transverse axis
_DEFAULT_CHANNELS = [{"axis": "z"}, {"axis": "x", "lambda": 1.0e-4}]

_SECTIONS: dict[str, set[str]] = {"bath": {"channels"}, "code": {"name"}}
for _key in _SCALARS:
    _section, _name = _key.split(".")
    _SECTIONS.setdefault(_section, set()).add(_name)


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path} must be a key/value mapping")
    return value

def _reject_unknown(data: Mapping[str, Any], allowed: Container[str], prefix: str) -> None:
    for key in data:
        if key not in allowed:
            where = f"{prefix}{key}" if prefix else str(key)
            raise ConfigError(f"unknown key: {where}")


def _checked(key: str, row: _Row, value: Any) -> Any:
    """value through the row's reader and range check; a ConfigError naming key if it fails."""
    value = row[2](value, key)
    if not row[3](value):
        raise ConfigError(f"{key} {row[4]}")
    return value


def _read(rows: Mapping[str, _Row], data: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Every row's key of data, or its default where absent, checked; by field name."""
    values: dict[str, Any] = {}
    for key, row in rows.items():
        default = row[1](values) if callable(row[1]) else row[1]
        values[row[0]] = _checked(prefix + key, row, data.get(key, default))
    return values


@functools.cache
def _field_rows(cls: type) -> list[tuple[str, _Row]]:
    """(key, row) of every row that fills a field of the value type cls, in schema order."""
    rows = (*_SCALARS.items(), *_CHANNEL_SCALARS.items())
    return [(key, row) for key, row in rows if row[0] in cls.__dataclass_fields__]


def _check_fields(value: Any) -> None:
    """Replace each field of a frozen value type by its value checked by the row that fills it."""
    for key, row in _field_rows(type(value)):
        given = getattr(value, row[0])
        if (checked := _checked(key, row, given)) is not given:  # converted, e.g. a numpy scalar
            object.__setattr__(value, row[0], checked)


@dataclass(frozen=True)
class BathChannel:
    """One decoherence channel: axis label, exponents, bare coupling."""

    axis: str
    z_exp: float
    s_exp: float
    lam: float

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class BathGeometry:
    """Spatial dimension, linear size and UV frequency cutoff of the bath."""

    D: int
    L: float
    omega_c: float

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class BoundInput:
    """Criterion and calibration data shared by the bound formulas."""

    d_crit: float
    sigma_plus_abs: float
    n_logical: int
    delta: float
    c_cal: float = 1.0
    b_cal: float = 1.0

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration with every default filled in."""

    D: int
    L: float
    omega_c: float
    channels: tuple[BathChannel, ...]
    code_name: str
    xi: float
    Xi: float
    D_x: int
    n_logical: int
    delta: float
    d_crit: float
    sigma_plus_abs: float
    c_cal: float
    b_cal: float
    proportionality: float
    max_modes: int

    # -- domain-type accessors ----------------------------------------------

    def geometry(self) -> BathGeometry:
        return BathGeometry(D=self.D, L=self.L, omega_c=self.omega_c)

    def channel_map(self) -> dict[str, BathChannel]:
        return {ch.axis: ch for ch in self.channels}

    def bound_input(self) -> BoundInput:
        return BoundInput(
            d_crit=self.d_crit,
            sigma_plus_abs=self.sigma_plus_abs,
            n_logical=self.n_logical,
            delta=self.delta,
            c_cal=self.c_cal,
            b_cal=self.b_cal,
        )

    def qubit_layout(self) -> QubitLayout:
        from .bath import regular_layout  # numeric: imported by the runs that compute

        return regular_layout(
            n_logical=self.n_logical,
            Xi=self.Xi,
            D_x=self.D_x,
            xi=self.xi,
            n_physical=self.stabilizer_code().n,
        )

    def stabilizer_code(self) -> StabilizerCode:
        return CODE_REGISTRY[self.code_name]()

    # -- canonical form -------------------------------------------------------

    def canonical_dict(self) -> dict[str, Any]:
        """Plain dict with all defaults resolved; basis of the config hash."""
        return _tree(len(self.channels), lambda key, i: self.code_name if key == "code.name"
                     else getattr(self, _SCALARS[key][0]) if i is None
                     else getattr(self.channels[i], _CHANNEL_SCALARS[key][0]))

    def config_hash(self) -> str:
        import json
        from importlib import import_module, util
        # CPython's own SHA-256 (_sha2 on 3.12+, _sha256 before); hashlib would map OpenSSL
        module = next(name for name in ("_sha2", "_sha256", "hashlib") if util.find_spec(name))
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return import_module(module).sha256(blob.encode()).hexdigest()[:16]

    def with_value(self, dotted_key: str, value: Any) -> "RunConfig":
        """from_dict of the canonical tree with one scalar key replaced; used by parameter sweeps.

        Only the new value's schema row and the cross-key rules are checked:
        no other key changed.  An integral float for an integer key
        (layout.N, bath.D, ...) becomes that integer; any other float for
        such a key is a ConfigError.
        """
        *parents, leaf = dotted_key.split(".")
        node: Any = _key_tree(len(self.channels))
        try:
            for part in parents:
                node = node[int(part)] if isinstance(node, list) else node[part]
            old = node[int(leaf)] if isinstance(node, list) else node[leaf]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"sweep parameter {dotted_key} does not name a config key") from exc
        if isinstance(old, (dict, list)):
            raise ConfigError(f"sweep parameter {dotted_key} is not a scalar key")
        key, index = old
        if index is not None:
            channels, row = list(self.channels), _CHANNEL_SCALARS[key]
            value = _checked(f"bath.channels[{index}].{key}", row, value)
            channels[index] = replace(channels[index], **{row[0]: value})
            return _cross_checked(replace(self, channels=tuple(channels)))
        if key == "code.name":
            return _cross_checked(replace(self, code_name=value))
        row = _SCALARS[key]
        if row[2] is _integer and isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"{dotted_key} must be an integer, got {value!r}")
            value = int(value)
        return _cross_checked(replace(self, **{row[0]: _checked(key, row, value)}))


def _tree(channels: int, leaf: Callable[[str, int | None], Any]) -> dict[str, Any]:
    """The resolved config tree of this many channels, leaf(key, channel index or None) per key."""
    tree: dict[str, Any] = {section: {} for section in _SECTIONS}
    for key in _SCALARS:
        section, name = key.split(".")
        tree[section][name] = leaf(key, None)
    tree["bath"]["channels"] = [{key: leaf(key, i) for key in _CHANNEL_SCALARS}
                                for i in range(channels)]
    tree["code"]["name"] = leaf("code.name", None)
    return tree


@functools.cache
def _key_tree(channels: int) -> dict[str, Any]:  # where with_value finds a dotted key
    return _tree(channels, lambda key, index: (key, index))


def _cross_checked(cfg: RunConfig) -> RunConfig:
    """cfg, unless it breaks a rule that joins keys (ConfigError): from_dict and with_value."""
    if cfg.D_x > cfg.D:
        raise ConfigError("layout.D_x exceeds bath.D")
    for idx, channel in enumerate(cfg.channels):
        if cfg.omega_c <= (2.0 * math.pi / cfg.L) ** channel.z_exp:
            raise ConfigError(f"bath.omega_c must exceed the smallest mode frequency "
                              f"(2*pi/L)^z_exp for bath.channels[{idx}]")
    axes = [c.axis for c in cfg.channels]
    if len(set(axes)) != len(axes):
        raise ConfigError("bath.channels must contain at most one channel per axis")
    if not isinstance(cfg.code_name, str) or cfg.code_name not in CODE_REGISTRY:
        raise ConfigError(f"code.name must be one of {sorted(CODE_REGISTRY)}, "
                          f"got {cfg.code_name!r}")
    return cfg


def from_dict(raw: Mapping[str, Any] | None) -> RunConfig:
    """Validate a configuration tree and fill defaults."""
    data = _require_mapping(raw, "<config>")
    _reject_unknown(data, set(_SECTIONS), "")
    sections = {name: _require_mapping(data.get(name), name) for name in _SECTIONS}
    for name, allowed in _SECTIONS.items():
        _reject_unknown(sections[name], allowed, f"{name}.")

    flat = {f"{name}.{key}": value for name, body in sections.items() for key, value in body.items()}
    values = _read(_SCALARS, flat)
    raw_channels = sections["bath"].get("channels", _DEFAULT_CHANNELS)
    if not isinstance(raw_channels, list) or not raw_channels:
        raise ConfigError("bath.channels must be a non-empty list")
    if len(raw_channels) > 2:
        raise ConfigError("bath.channels allows at most two channels (one per axis)")
    channels = []
    for idx, entry in enumerate(raw_channels):
        prefix = f"bath.channels[{idx}]"
        entry = _require_mapping(entry, prefix)
        _reject_unknown(entry, _CHANNEL_SCALARS, prefix + ".")
        channels.append(BathChannel(**_read(_CHANNEL_SCALARS, entry, prefix + ".")))
    code_name = sections["code"].get("name", "five_qubit")
    return _cross_checked(RunConfig(channels=tuple(channels), code_name=code_name, **values))


def default_config() -> RunConfig:
    return from_dict({})


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML configuration file."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return from_dict(raw)
