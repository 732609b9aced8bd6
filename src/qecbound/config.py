"""Run configuration: YAML loading, strict validation, defaults.

Every validation failure names the offending key path (e.g.
``bath.channels[0].lambda``); unknown keys are rejected.  Defaults are
documented in docs/config.md.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from .bath import BathChannel, BathGeometry, QubitLayout, regular_layout
from .bounds import BoundInput
from .errors import ConfigError
from .pauli import StabilizerCode, five_qubit_code

# codes are frozen, so each registered code is built once and shared
CODE_REGISTRY: dict[str, Callable[[], StabilizerCode]] = {
    "five_qubit": functools.cache(five_qubit_code),
}

_DEFAULT_CHANNELS = [
    {"axis": "z", "z_exp": 1.0, "s_exp": 0.0, "lambda": 1.0e-3},
    {"axis": "x", "z_exp": 1.0, "s_exp": 0.0, "lambda": 1.0e-4},
]

_SECTIONS = {
    "bath": {"D", "L", "omega_c", "channels"},
    "code": {"name"},
    "layout": {"xi", "Xi", "D_x", "N"},
    "qec": {"Delta"},
    "criteria": {"D_crit", "sigma_plus_abs"},
    "calibration": {"c_cal", "b_cal", "proportionality"},
    "budget": {"max_modes"},
}
_CHANNEL_KEYS = {"axis", "z_exp", "s_exp", "lambda"}


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


def _number(data: Mapping[str, Any], key: str, path: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be a finite number")
    return number


def _integer(data: Mapping[str, Any], key: str, path: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


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
        return {
            "bath": {
                "D": self.D,
                "L": self.L,
                "omega_c": self.omega_c,
                "channels": [
                    {"axis": c.axis, "z_exp": c.z_exp, "s_exp": c.s_exp, "lambda": c.lam}
                    for c in self.channels
                ],
            },
            "code": {"name": self.code_name},
            "layout": {"xi": self.xi, "Xi": self.Xi, "D_x": self.D_x, "N": self.n_logical},
            "qec": {"Delta": self.delta},
            "criteria": {"D_crit": self.d_crit, "sigma_plus_abs": self.sigma_plus_abs},
            "calibration": {
                "c_cal": self.c_cal,
                "b_cal": self.b_cal,
                "proportionality": self.proportionality,
            },
            "budget": {"max_modes": self.max_modes},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def with_value(self, dotted_key: str, value: Any) -> "RunConfig":
        """Rebuild with one scalar key replaced; used by parameter sweeps.

        An integral float for an integer key (layout.N, bath.D, ...) becomes
        that integer; any other float for such a key is a ConfigError.
        """
        tree = copy.deepcopy(self.canonical_dict())
        parts = dotted_key.split(".")
        node: Any = tree
        try:
            for part in parts[:-1]:
                node = node[int(part)] if isinstance(node, list) else node[part]
            leaf = parts[-1]
            if isinstance(node, list):
                old = node[int(leaf)]
            else:
                old = node[leaf]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"sweep parameter {dotted_key} does not name a config key") from exc
        if isinstance(old, (dict, list)):
            raise ConfigError(f"sweep parameter {dotted_key} is not a scalar key")
        if type(old) is int and isinstance(value, float):  # sweeps pass floats
            if not value.is_integer():
                raise ConfigError(f"{dotted_key} must be an integer, got {value!r}")
            value = int(value)
        if isinstance(node, list):
            node[int(leaf)] = value
        else:
            node[leaf] = value
        return from_dict(tree)


def from_dict(raw: Mapping[str, Any] | None) -> RunConfig:
    """Validate a configuration tree and fill defaults."""
    data = _require_mapping(raw, "<config>")
    _reject_unknown(data, set(_SECTIONS), "")
    sections = {
        name: _require_mapping(data.get(name), name) for name in _SECTIONS
    }
    for name, allowed in _SECTIONS.items():
        _reject_unknown(sections[name], allowed, f"{name}.")

    qec = sections["qec"]
    delta = _number(qec, "Delta", "qec.Delta", 1.0)
    if delta <= 0:
        raise ConfigError("qec.Delta must be positive")

    bath = sections["bath"]
    D = _integer(bath, "D", "bath.D", 1)
    if D not in (1, 2, 3):
        raise ConfigError("bath.D must be 1, 2 or 3")
    L = _number(bath, "L", "bath.L", 400.0 * math.pi)
    if L <= 0:
        raise ConfigError("bath.L must be positive")
    omega_c = _number(bath, "omega_c", "bath.omega_c", 1.0 / delta)
    if omega_c <= 0:
        raise ConfigError("bath.omega_c must be positive")

    raw_channels = bath.get("channels", copy.deepcopy(_DEFAULT_CHANNELS))
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
        z_exp = _number(entry, "z_exp", f"{prefix}.z_exp", 1.0)
        if z_exp <= 0:
            raise ConfigError(f"{prefix}.z_exp must be positive")
        s_exp = _number(entry, "s_exp", f"{prefix}.s_exp", 0.0)
        lam = _number(entry, "lambda", f"{prefix}.lambda", 1.0e-3)
        if lam < 0:
            raise ConfigError(f"{prefix}.lambda must be non-negative")
        if omega_c <= (2.0 * math.pi / L) ** z_exp:
            raise ConfigError(
                f"bath.omega_c must exceed the smallest mode frequency "
                f"(2*pi/L)^z_exp for {prefix}"
            )
        channels.append(BathChannel(axis=axis, z_exp=z_exp, s_exp=s_exp, lam=lam))
    axes = [c.axis for c in channels]
    if len(set(axes)) != len(axes):
        raise ConfigError("bath.channels must contain at most one channel per axis")

    code = sections["code"]
    code_name = code.get("name", "five_qubit")
    if code_name not in CODE_REGISTRY:
        raise ConfigError(
            f"code.name must be one of {sorted(CODE_REGISTRY)}, got {code_name!r}"
        )

    layout = sections["layout"]
    xi = _number(layout, "xi", "layout.xi", 1.0)
    if xi <= 0:
        raise ConfigError("layout.xi must be positive")
    Xi = _number(layout, "Xi", "layout.Xi", 100.0)
    if Xi <= 0:
        raise ConfigError("layout.Xi must be positive")
    D_x = _integer(layout, "D_x", "layout.D_x", 1)
    if D_x < 0:
        raise ConfigError("layout.D_x must be non-negative")
    if D_x > D:
        raise ConfigError("layout.D_x exceeds bath.D")
    n_logical = _integer(layout, "N", "layout.N", 1)
    if n_logical < 1:
        raise ConfigError("layout.N must be at least 1")

    criteria = sections["criteria"]
    d_crit = _number(criteria, "D_crit", "criteria.D_crit", 0.01)
    if not 0.0 < d_crit < 1.0:
        raise ConfigError("criteria.D_crit must lie strictly between 0 and 1")
    sigma = _number(criteria, "sigma_plus_abs", "criteria.sigma_plus_abs", 0.5)
    if not 0.0 <= sigma <= 0.5:
        raise ConfigError("criteria.sigma_plus_abs must lie in [0, 1/2]")

    cal = sections["calibration"]
    c_cal = _number(cal, "c_cal", "calibration.c_cal", 1.0)
    b_cal = _number(cal, "b_cal", "calibration.b_cal", 1.0)
    proportionality = _number(cal, "proportionality", "calibration.proportionality", 1.0)
    for name, value in (("c_cal", c_cal), ("b_cal", b_cal), ("proportionality", proportionality)):
        if value <= 0:
            raise ConfigError(f"calibration.{name} must be positive")

    budget = sections["budget"]
    max_modes = _integer(budget, "max_modes", "budget.max_modes", 10_000_000)
    if max_modes < 1:
        raise ConfigError("budget.max_modes must be at least 1")

    return RunConfig(
        D=D,
        L=L,
        omega_c=omega_c,
        channels=tuple(channels),
        code_name=code_name,
        xi=xi,
        Xi=Xi,
        D_x=D_x,
        n_logical=n_logical,
        delta=delta,
        d_crit=d_crit,
        sigma_plus_abs=sigma,
        c_cal=c_cal,
        b_cal=b_cal,
        proportionality=proportionality,
        max_modes=max_modes,
    )


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
