"""The four benchmark workloads: seeded inputs and the operations of one run.

A seed selects one of VARIANTS input draws (``seed % VARIANTS``).  The draw
only touches parameters that leave the amount of work unchanged: couplings,
spacings and sweep endpoints.  Reference outputs are stored for
every variant of every CLI workload, so any seed can be checked.

The program sees only the generated YAML config and the argv of each
operation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

VARIANTS = 16
SIZES = ("full", "smoke")

# Sizes: "full" is what the benchmark measures, "smoke" is a small copy of
# every workload for the benchmark's own tests.
_REGISTER = {"full": {"L_over_2pi": 350, "N": 16, "steps": 50},
             "smoke": {"L_over_2pi": 40, "N": 4, "steps": 5}}
_DEPHASING = {"full": {"L_over_2pi": 40, "steps": 200},
              "smoke": {"L_over_2pi": 8, "steps": 10}}
_SWEEP = {"full": {"points": 300}, "smoke": {"points": 4}}
_MMAX = {"full": {"L_over_2pi": 1.25e5, "ops": 8},
         "smoke": {"L_over_2pi": 1.0e4, "ops": 2}}


@dataclass
class Inputs:
    """Everything one workload run needs: a config and its operations."""

    config: dict
    # CLI workloads: (operation name, argv after ``--config/--out``).
    # Library workload: (operation name, parameters).
    ops: list[tuple[str, object]] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" runs ``python -m qecbound`` per operation; "library" calls the API
    why: str
    make: object  # (random.Random, size) -> Inputs


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _channel(axis: str, s_exp: float, lam: float) -> dict:
    return {"axis": axis, "z_exp": 1.0, "s_exp": s_exp, "lambda": lam}


def _register_series(rng: random.Random, size: str) -> Inputs:
    p = _REGISTER[size]
    config = {
        "bath": {
            "D": 2,
            "L": 2.0 * math.pi * p["L_over_2pi"],
            "channels": [
                _channel("z", 0.25, _log_uniform(rng, 1e-4, 1e-3)),
                _channel("x", 0.25, _log_uniform(rng, 1e-4, 1e-3)),
            ],
        },
        "layout": {"xi": 1.0, "Xi": rng.uniform(45.0, 55.0), "D_x": 2, "N": p["N"]},
    }
    steps = str(p["steps"])
    return Inputs(config, [
        ("lambda-star", ["lambda-star"]),
        ("hs", ["hs", "--t-max", "500", "--steps", steps]),
    ])


def _dephasing_d3(rng: random.Random, size: str) -> Inputs:
    p = _DEPHASING[size]
    config = {
        "bath": {
            "D": 3,
            "L": 2.0 * math.pi * p["L_over_2pi"],
            "channels": [
                _channel("z", 0.0, _log_uniform(rng, 5e-4, 5e-3)),
                _channel("x", 0.0, _log_uniform(rng, 5e-5, 5e-4)),
            ],
        },
        "layout": {"N": 1},
    }
    # t-max stays fixed: the cost of cos grows with the size of its argument
    steps = str(p["steps"])
    return Inputs(config, [
        ("gamma", ["gamma", "--t-max", "40", "--steps", steps]),
        ("distance", ["distance", "--t-max", "40", "--steps", steps]),
    ])


def _mmax_search(rng: random.Random, size: str) -> Inputs:
    p = _MMAX[size]
    config = {
        "bath": {
            "D": 1,
            "L": 2.0 * math.pi * p["L_over_2pi"],
            "channels": [_channel("z", 0.25, 1e-3), _channel("x", 0.25, 1e-4)],
        },
        "layout": {"xi": 1.0, "Xi": 100.0, "D_x": 1, "N": 8},
    }
    # Stratified draws: operation i takes its couplings from the i-th slice of
    # each log range, so every run spans short and long searches alike and
    # the total search work barely depends on the seed.
    n = p["ops"]
    ops = []
    for i in range(n):
        def draw(lo: float, hi: float) -> float:
            a, b = math.log(lo), math.log(hi)
            return math.exp(a + (b - a) * (i + rng.random()) / n)

        ops.append((f"op{i}", {
            "lambda_single": draw(6e-3, 3e-2),
            "lambda_z": draw(1e-6, 1e-5),
            "lambda_x": draw(1e-6, 1e-5),
        }))
    return Inputs(config, ops)


def _sweep_pipeline(rng: random.Random, size: str) -> Inputs:
    p = _SWEEP[size]
    # The default config, with seed-drawn couplings.
    config = {
        "bath": {
            "channels": [
                _channel("z", 0.0, _log_uniform(rng, 5e-4, 2e-3)),
                _channel("x", 0.0, _log_uniform(rng, 5e-5, 2e-4)),
            ],
        },
    }
    points = str(p["points"])
    lam_lo = repr(round(_log_uniform(rng, 1e-4, 5e-4), 9))
    lam_hi = repr(round(_log_uniform(rng, 2e-3, 5e-3), 9))
    l_lo = repr(round(rng.uniform(580.0, 620.0), 6))
    l_hi = repr(round(rng.uniform(1280.0, 1320.0), 6))
    return Inputs(config, [
        ("eta", ["eta"]),
        ("code-check", ["code-check"]),
        ("sweep-lambda", ["sweep", "--param", "bath.channels.0.lambda", "--from", lam_lo,
                          "--to", lam_hi, "--points", points, "--target", "lambda-star"]),
        ("sweep-L", ["sweep", "--param", "bath.L", "--from", l_lo, "--to", l_hi,
                     "--points", points, "--target", "mmax", "--mode", "asymptotic"]),
    ])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("register-series", "cli",
                 "2D register: lambda-star then a 50-point hs series; w_sum and a_matrix dominate",
                 _register_series),
        Workload("dephasing-d3", "cli",
                 "3D single-position gamma/distance series over 200 known times; "
                 "radial grids and batched times would show here",
                 _dephasing_d3),
        Workload("mmax-search", "library",
                 "numeric M_max searches on 250k-mode grids via the library API; "
                 "each evaluation depends on the last",
                 _mmax_search),
        Workload("sweep-pipeline", "cli",
                 "default config: eta, code-check and two 300-point sweeps; "
                 "per-call overhead and recomputed stages dominate",
                 _sweep_pipeline),
    )
}


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """The inputs of one workload for one seed; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}/{seed % VARIANTS}")
    return WORKLOADS[workload].make(rng, size)


def yaml_text(config: dict) -> str:
    """Render a config tree as YAML the program's loader reads back exactly.

    Floats are written with 17 significant digits and an explicit dot, since
    YAML 1.1 reads ``1e-4`` as a string.
    """
    lines: list[str] = []

    def scalar(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.16e}"
        return str(value)

    for section, body in config.items():
        lines.append(f"{section}:")
        for key, value in body.items():
            if isinstance(value, list):
                lines.append(f"  {key}:")
                for entry in value:
                    items = ", ".join(f"{k}: {scalar(v)}" for k, v in entry.items())
                    lines.append(f"    - {{{items}}}")
            else:
                lines.append(f"  {key}: {scalar(value)}")
    return "\n".join(lines) + "\n"
