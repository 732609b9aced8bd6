"""Run configuration: YAML loading, strict validation, defaults.

The tables ``_SCALARS`` and ``_CHANNEL_SCALARS`` are the schema: each row
gives a key's ``RunConfig`` field, default, integer-ness, range check and
the requirement its error states.  Validation, the canonical form (and so
the config hash) and the known-key sets are all read from them; only the
cross-key rules in ``from_dict`` are written out.  Every validation failure
names the offending key path (e.g. ``bath.channels[0].lambda``); unknown
keys are rejected.  Defaults are documented in docs/config.md.

The plain value types a config hands to the library (BathChannel,
BathGeometry, BoundInput) are defined here, so that loading and validating
a config imports no numeric code; bath and bounds re-export them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

import yaml

from .errors import ConfigError
from .pauli import StabilizerCode, five_qubit_code

if TYPE_CHECKING:
    from .bath import QubitLayout

# codes are frozen, so each registered code is built once and shared
CODE_REGISTRY: dict[str, Callable[[], StabilizerCode]] = {
    "five_qubit": functools.cache(five_qubit_code),
}


def _positive(value: float) -> bool:
    return value > 0


# (RunConfig field, default, integer?, check, requirement stated on failure)
_Row = tuple[str, Any, bool, Callable[[Any], bool], str]

# dotted key -> row, in validation order.  The default None of bath.omega_c
# stands for 1/qec.Delta, so qec.Delta comes first.
_SCALARS: dict[str, _Row] = {
    "qec.Delta": ("delta", 1.0, False, _positive, "must be positive"),
    "bath.D": ("D", 1, True, lambda v: v in (1, 2, 3), "must be 1, 2 or 3"),
    "bath.L": ("L", 400.0 * math.pi, False, _positive, "must be positive"),
    "bath.omega_c": ("omega_c", None, False, _positive, "must be positive"),
    "layout.xi": ("xi", 1.0, False, _positive, "must be positive"),
    "layout.Xi": ("Xi", 100.0, False, _positive, "must be positive"),
    "layout.D_x": ("D_x", 1, True, lambda v: v >= 0, "must be non-negative"),
    "layout.N": ("n_logical", 1, True, lambda v: v >= 1, "must be at least 1"),
    "criteria.D_crit": ("d_crit", 0.01, False, lambda v: 0.0 < v < 1.0,
                        "must lie strictly between 0 and 1"),
    "criteria.sigma_plus_abs": ("sigma_plus_abs", 0.5, False, lambda v: 0.0 <= v <= 0.5,
                                "must lie in [0, 1/2]"),
    "calibration.c_cal": ("c_cal", 1.0, False, _positive, "must be positive"),
    "calibration.b_cal": ("b_cal", 1.0, False, _positive, "must be positive"),
    "calibration.proportionality": ("proportionality", 1.0, False, _positive, "must be positive"),
    "budget.max_modes": ("max_modes", 10_000_000, True, lambda v: v >= 1, "must be at least 1"),
}
# the same rows for the numeric keys of one bath.channels entry (BathChannel fields)
_CHANNEL_SCALARS: dict[str, _Row] = {
    "z_exp": ("z_exp", 1.0, False, _positive, "must be positive"),
    "s_exp": ("s_exp", 0.0, False, lambda v: True, ""),  # any finite exponent
    "lambda": ("lam", 1.0e-3, False, lambda v: v >= 0, "must be non-negative"),
}

# the table's channel defaults, with a weaker coupling on the transverse axis
_DEFAULT_CHANNELS = [{"axis": "z"}, {"axis": "x", "lambda": 1.0e-4}]

_SECTIONS: dict[str, set[str]] = {"bath": {"channels"}, "code": {"name"}}
for _key in _SCALARS:
    _section, _name = _key.split(".")
    _SECTIONS.setdefault(_section, set()).add(_name)
_CHANNEL_KEYS = {"axis", *_CHANNEL_SCALARS}


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path} must be a key/value mapping")
    return value

def _reject_unknown(data: Mapping[str, Any], allowed: set[str], prefix: str) -> None:
    for key in data:
        if key not in allowed:
            where = f"{prefix}{key}" if prefix else str(key)
            raise ConfigError(f"unknown key: {where}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be a finite number")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _read(rows: Mapping[str, _Row], data: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Read, type-check and range-check every row's key of data, by field name."""
    values: dict[str, Any] = {}
    for key, (field, default, integer, check, requirement) in rows.items():
        if default is None:  # bath.omega_c
            default = 1.0 / values["delta"]
        value = (_integer if integer else _number)(data.get(key, default), prefix + key)
        if not check(value):
            raise ConfigError(f"{prefix}{key} {requirement}")
        values[field] = value
    return values


@dataclass(frozen=True)
class BathChannel:
    """One decoherence channel: axis label, exponents, bare coupling."""

    axis: str
    z_exp: float
    s_exp: float
    lam: float

    def __post_init__(self) -> None:
        if self.axis not in ("x", "z"):
            raise ValueError(f"channel axis must be 'x' or 'z', got {self.axis!r}")
        if self.z_exp <= 0:
            raise ValueError("dynamical exponent z_exp must be positive")
        if self.lam < 0:
            raise ValueError("bare coupling must be non-negative")


@dataclass(frozen=True)
class BathGeometry:
    """Spatial dimension, linear size and UV frequency cutoff of the bath."""

    D: int
    L: float
    omega_c: float

    def __post_init__(self) -> None:
        if self.D not in (1, 2, 3):
            raise ValueError("bath dimension D must be 1, 2 or 3")
        if self.L <= 0:
            raise ValueError("bath size L must be positive")
        if self.omega_c <= 0:
            raise ValueError("cutoff omega_c must be positive")


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
        if not 0.0 < self.d_crit < 1.0:
            raise ValueError("distance criterion must lie strictly between 0 and 1")
        if not 0.0 <= self.sigma_plus_abs <= 0.5:
            raise ValueError("initial coherence |<sigma+>| must lie in [0, 1/2]")
        if self.delta <= 0:
            raise ValueError("correction period must be positive")
        if self.n_logical < 0:
            raise ValueError("logical-qubit count must be non-negative")


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
        tree: dict[str, dict[str, Any]] = {section: {} for section in _SECTIONS}
        for key, (field, *_) in _SCALARS.items():
            section, name = key.split(".")
            tree[section][name] = getattr(self, field)
        tree["bath"]["channels"] = [
            {"axis": c.axis, **{key: getattr(c, row[0]) for key, row in _CHANNEL_SCALARS.items()}}
            for c in self.channels
        ]
        tree["code"]["name"] = self.code_name
        return tree

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def with_value(self, dotted_key: str, value: Any) -> "RunConfig":
        """Rebuild with one scalar key replaced; used by parameter sweeps.

        An integral float for an integer key (layout.N, bath.D, ...) becomes
        that integer; any other float for such a key is a ConfigError.
        """
        tree = self.canonical_dict()  # a fresh tree on every call
        *parents, leaf = dotted_key.split(".")
        node: Any = tree
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
        if dotted_key in _SCALARS and _SCALARS[dotted_key][2] and isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"{dotted_key} must be an integer, got {value!r}")
            value = int(value)
        node[leaf] = value
        return from_dict(tree)


def from_dict(raw: Mapping[str, Any] | None) -> RunConfig:
    """Validate a configuration tree and fill defaults."""
    data = _require_mapping(raw, "<config>")
    _reject_unknown(data, set(_SECTIONS), "")
    sections = {name: _require_mapping(data.get(name), name) for name in _SECTIONS}
    for name, allowed in _SECTIONS.items():
        _reject_unknown(sections[name], allowed, f"{name}.")

    flat = {f"{name}.{key}": value for name, body in sections.items() for key, value in body.items()}
    values = _read(_SCALARS, flat)
    if values["D_x"] > values["D"]:
        raise ConfigError("layout.D_x exceeds bath.D")

    raw_channels = sections["bath"].get("channels", _DEFAULT_CHANNELS)
    if not isinstance(raw_channels, list) or not raw_channels:
        raise ConfigError("bath.channels must be a non-empty list")
    if len(raw_channels) > 2:
        raise ConfigError("bath.channels allows at most two channels (one per axis)")
    channels = []
    for idx, entry in enumerate(raw_channels):
        prefix = f"bath.channels[{idx}]"
        entry = _require_mapping(entry, prefix)
        _reject_unknown(entry, _CHANNEL_KEYS, prefix + ".")
        axis = entry.get("axis")
        if axis not in ("x", "z"):
            raise ConfigError(f"{prefix}.axis must be 'x' or 'z'")
        channel = BathChannel(axis=axis, **_read(_CHANNEL_SCALARS, entry, prefix + "."))
        if values["omega_c"] <= (2.0 * math.pi / values["L"]) ** channel.z_exp:
            raise ConfigError(
                f"bath.omega_c must exceed the smallest mode frequency "
                f"(2*pi/L)^z_exp for {prefix}"
            )
        channels.append(channel)
    axes = [c.axis for c in channels]
    if len(set(axes)) != len(axes):
        raise ConfigError("bath.channels must contain at most one channel per axis")

    code_name = sections["code"].get("name", "five_qubit")
    if not isinstance(code_name, str) or code_name not in CODE_REGISTRY:
        raise ConfigError(
            f"code.name must be one of {sorted(CODE_REGISTRY)}, got {code_name!r}"
        )
    return RunConfig(channels=tuple(channels), code_name=code_name, **values)


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
