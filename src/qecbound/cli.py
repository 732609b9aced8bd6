"""Batch command-line front end.

Each subcommand validates the run configuration, delegates to the library
and writes one CSV file named after the subcommand (plus eta.txt for the
table export).  Output files start with ``#`` comment lines echoing the
artifact version and the configuration hash; identical configuration and
flags produce byte-identical files.

This module imports no numeric code: the handlers that compute import
numpy and the bath, bounds and coupling modules when they run, so ``eta``,
``code-check``, ``--help`` and every config error start without them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from . import __version__
from .config import RunConfig, default_config, load_config
from .errors import QecBoundError
from .pauli import ErrorClass, classify, enumerate_eta, paulis_of_weight, syndrome, verify_distance

if TYPE_CHECKING:
    import numpy as np

_SWEEP_TARGETS = ("lambda-star", "gamma", "distance", "mmax", "hs")
# defaults of the optional flags: the parser shows them, and run_subcommand
# puts them under the caller's flags, so every handler finds every flag
_FLAG_DEFAULTS = {"t_max": 10.0, "steps": 50, "mode": "asymptotic", "points": 5}


@dataclass
class Output:
    """One file's worth of results plus the scalar summary used by sweeps."""

    name: str
    columns: list[str]
    rows: list[tuple]
    comments: list[str] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    ok: bool = True
    extra_files: dict[str, str] = field(default_factory=dict)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):  # numpy float64 included
        v = float(value)
        if math.isinf(v):
            return "inf"
        return f"{v:.12g}"
    return str(value)


def _pipeline(cfg: RunConfig):
    """Shared setup: code, table, grids, pair amplitudes, effective couplings."""
    import numpy as np

    from .bath import build_mode_grid
    from .coupling import AMatrix, a_matrix, lambda_star

    geom = cfg.geometry()
    channels = cfg.channel_map()
    code = cfg.stabilizer_code()
    table = enumerate_eta(code)
    layout = cfg.qubit_layout()
    grids = {axis: build_mode_grid(geom, ch, cfg.max_modes) for axis, ch in channels.items()}
    amats: dict[str, AMatrix] = {
        axis: a_matrix(grids[axis], layout, ch, cfg.delta) for axis, ch in channels.items()
    }
    # an absent channel is an uncoupled one: zero amplitudes for its axis
    n_sites = code.n
    for axis in ("x", "z"):
        if axis not in amats:
            amats[axis] = AMatrix(axis, np.zeros((n_sites, n_sites)))
    lambdas = {axis: ch.lam for axis, ch in channels.items()}
    couplings = lambda_star(lambdas, table, amats)
    return geom, channels, code, table, layout, grids, couplings


def _dephasing_axis(cfg: RunConfig) -> str:
    """The channel driving single-qubit dephasing: z when present."""
    axes = [ch.axis for ch in cfg.channels]
    return "z" if "z" in axes else axes[0]


def _times(flags: Mapping[str, Any]) -> np.ndarray:
    import numpy as np

    t_max = float(flags["t_max"])
    steps = int(flags["steps"])
    if t_max < 0:
        raise QecBoundError("--t-max must be non-negative")
    if steps < 1:
        raise QecBoundError("--steps must be at least 1")
    return np.linspace(0.0, t_max, steps)


# -- subcommand handlers ------------------------------------------------------


def _run_eta(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    table = enumerate_eta(cfg.stabilizer_code())
    rows = [
        (e.alpha, e.beta, e.i, e.j, e.k, e.logical_type.value) for e in table.entries
    ]
    return [
        Output(
            name="eta",
            columns=["alpha", "beta", "i", "j", "k", "logical_type"],
            rows=rows,
            summary={"entries": len(rows)},
            extra_files={"eta.txt": table.to_text()},
        )
    ]


def _run_code_check(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    code = cfg.stabilizer_code()
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, fn) -> None:
        try:
            result = fn()
            checks.append((name, bool(result), ""))
        except Exception as exc:  # noqa: BLE001 - any failure is a failed check
            checks.append((name, False, str(exc)))

    record("structural_invariants", lambda: code.validate() is None)
    record("distance", lambda: verify_distance(code, code.distance))

    def stabilizer_group_trivial() -> bool:
        return all(
            syndrome(code, s).is_trivial
            and classify(code, s) == ErrorClass.STABILIZER_EQUIVALENT
            for s in code.stabilizer_group()
        )

    record("stabilizer_group_trivial", stabilizer_group_trivial)

    def weight1_detectable() -> bool:
        if code.distance < 2:
            return True
        return all(
            not syndrome(code, p).is_trivial for p in paulis_of_weight(code.n, 1)
        )

    record("weight1_detectable", weight1_detectable)

    def coset_constancy() -> bool:
        group = code.stabilizer_group()
        for w in (1, 2):
            for p in paulis_of_weight(code.n, w):
                ref = classify(code, p)
                if any(classify(code, p * s) != ref for s in group):
                    return False
        return True

    record("coset_constancy", coset_constancy)

    ok = all(passed for _, passed, _ in checks)
    rows = [
        (name, "pass" if passed else "fail", detail) for name, passed, detail in checks
    ]
    return [
        Output(
            name="code-check",
            columns=["check", "status", "detail"],
            rows=rows,
            summary={"failures": sum(1 for _, passed, _ in checks if not passed)},
            ok=ok,
        )
    ]


def _run_lambda_star(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    _, channels, _, _, _, _, couplings = _pipeline(cfg)
    rows = []
    summary: dict[str, Any] = {}
    for axis in sorted(couplings.lambda_star):
        value = couplings[axis]
        rows.append((axis, channels[axis].lam, value))
        summary[f"lambda_star_{axis}"] = value
    return [
        Output(
            name="lambda-star",
            columns=["axis", "lambda", "lambda_star"],
            rows=rows,
            summary=summary,
        )
    ]


def _gamma_series(cfg: RunConfig, flags: Mapping[str, Any]):
    """The dephasing channel's axis, grid and lambda*, and (T, gamma(T)) per time."""
    from .bath import gamma

    _, _, _, _, _, grids, couplings = _pipeline(cfg)
    axis = _dephasing_axis(cfg)
    grid, lam_star = grids[axis], couplings[axis]
    series = [(float(t), gamma(grid, lam_star, float(t))) for t in _times(flags)]
    return axis, grid, lam_star, series


def _run_gamma(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    from .bounds import trace_distance_single

    axis, _, lam_star, series = _gamma_series(cfg, flags)
    rows = [(t, g, trace_distance_single(g, cfg.sigma_plus_abs)) for t, g in series]
    return [
        Output(
            name="gamma",
            columns=["T", "gamma", "trace_distance"],
            rows=rows,
            comments=[f"channel: {axis}", f"lambda_star: {_fmt(lam_star)}"],
            summary={"gamma_final": rows[-1][1], "trace_distance_final": rows[-1][2]},
        )
    ]


def _run_distance(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    from .bath import gamma_infinity
    from .bounds import trace_distance_single

    axis, grid, lam_star, series = _gamma_series(cfg, flags)
    g_inf = gamma_infinity(grid, lam_star)
    saturation = trace_distance_single(g_inf, cfg.sigma_plus_abs)
    rows = [(t, trace_distance_single(g, cfg.sigma_plus_abs)) for t, g in series]
    return [
        Output(
            name="distance",
            columns=["T", "trace_distance"],
            rows=rows,
            comments=[
                f"channel: {axis}",
                f"lambda_star: {_fmt(lam_star)}",
                f"gamma_inf: {_fmt(g_inf)}",
                f"d_sat: {_fmt(saturation)}",
            ],
            summary={"d_sat": saturation},
        )
    ]


def _run_regimes(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    from .bounds import SumKind, zeta_and_regime

    geom = cfg.geometry()
    rows = []
    for ch in cfg.channels:
        for kind in SumKind:
            report = zeta_and_regime(ch, geom, kind, D_x=cfg.D_x)
            rows.append(
                (ch.axis, kind.value, report.zeta, report.boundary, report.regime.value)
            )
    return [
        Output(
            name="regimes",
            columns=["axis", "kind", "zeta", "boundary", "regime"],
            rows=rows,
        )
    ]


def _run_mmax(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    from .bounds import SumKind, mmax_multi, mmax_multi_numeric, mmax_single, zeta_and_regime

    mode = str(flags["mode"])
    if mode not in ("asymptotic", "numeric"):
        raise QecBoundError(f"--mode must be 'numeric' or 'asymptotic', got {mode!r}")
    geom, channels, _, _, layout, grids, couplings = _pipeline(cfg)
    inputs = cfg.bound_input()
    rows: list[tuple] = []
    bounds: list[float] = []

    axis = _dephasing_axis(cfg)
    single_report = zeta_and_regime(channels[axis], geom, SumKind.SINGLE_DEPHASING)
    m_single = mmax_single(
        single_report, inputs, couplings[axis], geom, mode=mode, grid=grids[axis]
    )
    rows.append(
        (
            "single",
            axis,
            SumKind.SINGLE_DEPHASING.value,
            mode,
            single_report.zeta,
            single_report.regime.value,
            float(m_single),
        )
    )
    bounds.append(float(m_single))

    if mode == "numeric":
        m_joint = mmax_multi_numeric(
            grids, couplings, layout, inputs, cfg.proportionality
        )
        rows.append(("multi", "all", "hs_numeric", mode, "", "", float(m_joint)))
        bounds.append(float(m_joint))
    else:
        for ch in cfg.channels:
            for kind in (SumKind.W_SELF, SumKind.W_CORRELATED):
                report = zeta_and_regime(ch, geom, kind, D_x=cfg.D_x)
                m = mmax_multi(report, inputs, couplings[ch.axis], geom)
                rows.append(
                    ("multi", ch.axis, kind.value, mode, report.zeta, report.regime.value, float(m))
                )
                bounds.append(float(m))

    overall = min(bounds)
    rows.append(("overall", "", "", mode, "", "", overall))
    return [
        Output(
            name="mmax",
            columns=["scope", "axis", "kind", "mode", "zeta", "regime", "mmax"],
            rows=rows,
            summary={"mmax_overall": overall},
        )
    ]


def _run_hs(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    from .bounds import hs_distance

    _, _, _, _, layout, grids, couplings = _pipeline(cfg)
    rows = []
    for t in _times(flags):
        rows.append(
            (float(t), hs_distance(grids, couplings, layout, float(t), cfg.proportionality))
        )
    return [
        Output(
            name="hs",
            columns=["T", "hs_distance"],
            rows=rows,
            summary={"hs_final": rows[-1][1]},
        )
    ]


def _run_sweep(cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    import numpy as np

    param = flags.get("param")
    target = flags.get("target")
    if not param:
        raise QecBoundError("sweep requires --param")
    if target not in _SWEEP_TARGETS:
        raise QecBoundError(f"--target must be one of {', '.join(_SWEEP_TARGETS)}")
    lo = flags.get("from_")
    hi = flags.get("to")
    if lo is None or hi is None:
        raise QecBoundError("sweep requires --from and --to")
    points = int(flags["points"])
    if points < 2:
        raise QecBoundError("--points must be at least 2")
    values = np.linspace(float(lo), float(hi), points)
    columns: list[str] | None = None
    rows: list[tuple] = []
    for value in values:
        sub_cfg = cfg.with_value(param, float(value))
        outputs = run_subcommand(target, sub_cfg, flags)
        summary = outputs[0].summary
        if columns is None:
            columns = ["param", "value"] + list(summary)
        rows.append((param, float(value)) + tuple(summary[key] for key in columns[2:]))
    return [
        Output(
            name="sweep",
            columns=columns or ["param", "value"],
            rows=rows,
            comments=[f"target: {target}"],
        )
    ]


_HANDLERS = {
    "eta": _run_eta,
    "code-check": _run_code_check,
    "lambda-star": _run_lambda_star,
    "gamma": _run_gamma,
    "distance": _run_distance,
    "regimes": _run_regimes,
    "mmax": _run_mmax,
    "hs": _run_hs,
    "sweep": _run_sweep,
}


def run_subcommand(cmd: str, cfg: RunConfig, flags: Mapping[str, Any]) -> list[Output]:
    """Execute one subcommand and return its outputs (no files written)."""
    if cmd not in _HANDLERS:
        raise QecBoundError(f"unknown subcommand {cmd!r}")
    return _HANDLERS[cmd](cfg, {**_FLAG_DEFAULTS, **flags})


def write_output(out: Output, out_dir: Path, cfg: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# artifact: qecbound {__version__}",
        f"# config: {cfg.config_hash()}",
        f"# subcommand: {out.name}",
    ]
    lines.extend(f"# {comment}" for comment in out.comments)
    lines.append(",".join(out.columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in out.rows)
    (out_dir / f"{out.name}.csv").write_text("\n".join(lines) + "\n")
    for name, text in out.extra_files.items():
        (out_dir / name).write_text(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qecbound",
        description="Uncorrectable-error tables and bath-limited computation-time bounds",
    )
    parser.add_argument("--config", help="YAML run configuration (defaults used if omitted)")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("eta", help="write the uncorrectable-error table")
    sub.add_parser("code-check", help="run code invariants and the distance check")
    sub.add_parser("lambda-star", help="write effective couplings per channel")

    for name, help_text in (
        ("gamma", "decoherence-function series"),
        ("distance", "trace-distance series and saturation value"),
        ("hs", "Hilbert-Schmidt bound series"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--t-max", dest="t_max", type=float, default=_FLAG_DEFAULTS["t_max"])
        p.add_argument("--steps", type=int, default=_FLAG_DEFAULTS["steps"])

    sub.add_parser("regimes", help="zeta exponents and regime labels")

    p = sub.add_parser("mmax", help="bounds on the number of correction periods")
    p.add_argument("--mode", choices=("numeric", "asymptotic"), default=_FLAG_DEFAULTS["mode"])

    p = sub.add_parser("sweep", help="vary one scalar config key and re-run a target")
    p.add_argument("--param", required=True, help="dotted config key, e.g. qec.Delta")
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", dest="to", type=float, required=True)
    p.add_argument("--points", type=int, default=_FLAG_DEFAULTS["points"])
    p.add_argument("--target", required=True, choices=_SWEEP_TARGETS)
    p.add_argument("--mode", choices=("numeric", "asymptotic"), default=_FLAG_DEFAULTS["mode"])
    p.add_argument("--t-max", dest="t_max", type=float, default=_FLAG_DEFAULTS["t_max"])
    p.add_argument("--steps", type=int, default=_FLAG_DEFAULTS["steps"])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        outputs = run_subcommand(args.command, cfg, vars(args))
        out_dir = Path(args.out)
        for out in outputs:
            write_output(out, out_dir, cfg)
    except (QecBoundError, ValueError, ArithmeticError, OSError) as exc:  # OSError: --config, --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if all(out.ok for out in outputs):
        return 0
    print("error: one or more checks failed", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
