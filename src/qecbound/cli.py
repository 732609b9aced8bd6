"""Batch command-line front end.

``_COMMANDS`` states each subcommand once: its handler, its help line and
its flags.  The parser is built from that table and every run dispatches
through it.  A handler validates the run configuration, delegates to the
library and returns one :class:`Output`, written as one CSV file named after
the subcommand (plus any extra files, such as the table export's text).
Output files start with ``#`` comment lines echoing the artifact version and
the configuration hash; identical configuration and flags produce
byte-identical files.

This module imports no numeric code: the handlers that compute import
numpy and the bath, bounds and coupling modules when they run, so the table
export, the code check, ``--help`` and every config error start without them.
The package's BLAS-thread policy (see :mod:`qecbound`) is set when the
package is imported, before any handler loads numpy; :func:`main` does not
touch the environment.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from . import __version__
from .config import RunConfig, _as_is, _integer, _number, _read, default_config, load_config
from .errors import QecBoundError
from .pauli import ErrorClass, classify, enumerate_eta, paulis_of_weight, syndrome, verify_distance

if TYPE_CHECKING:
    import numpy as np

_SWEEP_TARGETS = ("lambda-star", "gamma", "distance", "mmax", "hs")
_MODES = ("numeric", "asymptotic")
# the optional flags as config schema rows (see config._Row): run_subcommand
# reads and checks each once, its default where the caller gives none or None
_FLAGS = {
    "--t-max": ("t_max", 10.0, _number, lambda v: v >= 0, "must be non-negative"),
    "--steps": ("steps", 50, _integer, lambda v: v >= 1, "must be at least 1"),
    "--points": ("points", 5, _integer, lambda v: v >= 2, "must be at least 2"),
    "--mode": ("mode", "asymptotic", _as_is, _MODES.__contains__,
               "must be 'numeric' or 'asymptotic'"),
}


@dataclass
class Output:
    """One file's worth of results plus the scalar summary used by sweeps."""

    columns: list[str]
    rows: list[tuple]
    comments: list[str] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    ok: bool = True
    extra_files: dict[str, str] = field(default_factory=dict)


def _fmt(value: Any) -> str:
    if isinstance(value, float):  # numpy float64 included
        v = float(value)
        if math.isinf(v):
            return "inf"
        return f"{v:.12g}"
    return str(value)


def _pipeline(cfg: RunConfig):
    """Shared setup: geometry, channels, layout, grids and effective couplings."""
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
    return geom, channels, layout, grids, couplings


def _dephasing_axis(cfg: RunConfig) -> str:
    """The channel driving single-qubit dephasing: z when present."""
    axes = [ch.axis for ch in cfg.channels]
    return "z" if "z" in axes else axes[0]


def _times(flags: Mapping[str, Any]) -> np.ndarray:
    import numpy as np

    return np.linspace(0.0, flags["t_max"], flags["steps"])


# -- subcommand handlers ------------------------------------------------------


def _run_eta(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    table = enumerate_eta(cfg.stabilizer_code())
    rows = [(e.alpha, e.beta, e.i, e.j, e.k, e.logical_type.value) for e in table.entries]
    return Output(["alpha", "beta", "i", "j", "k", "logical_type"], rows,
                  summary={"entries": len(rows)}, extra_files={"eta.txt": table.to_text()})


def _run_code_check(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    code = cfg.stabilizer_code()

    def coset_constancy() -> bool:
        group = code.stabilizer_group()
        for w in (1, 2):
            for p in paulis_of_weight(code.n, w):
                ref = classify(code, p)
                if any(classify(code, p * s) != ref for s in group):
                    return False
        return True

    checks = {
        "structural_invariants": lambda: code.validate() is None,
        "distance": lambda: verify_distance(code, code.distance),
        "stabilizer_group_trivial": lambda: all(
            syndrome(code, s).is_trivial and classify(code, s) == ErrorClass.STABILIZER_EQUIVALENT
            for s in code.stabilizer_group()),
        "weight1_detectable": lambda: code.distance < 2 or all(
            not syndrome(code, p).is_trivial for p in paulis_of_weight(code.n, 1)),
        "coset_constancy": coset_constancy,
    }
    rows = []
    for name, check in checks.items():
        try:
            rows.append((name, "pass" if check() else "fail", ""))
        except Exception as exc:  # noqa: BLE001 - any failure is a failed check
            rows.append((name, "fail", str(exc)))
    failures = sum(status == "fail" for _, status, _ in rows)
    return Output(["check", "status", "detail"], rows, summary={"failures": failures},
                  ok=failures == 0)


def _run_lambda_star(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    _, channels, _, _, couplings = _pipeline(cfg)
    rows = []
    summary: dict[str, Any] = {}
    for axis in sorted(couplings.lambda_star):
        value = couplings[axis]
        rows.append((axis, channels[axis].lam, value))
        summary[f"lambda_star_{axis}"] = value
    return Output(["axis", "lambda", "lambda_star"], rows, summary=summary)


def _gamma_series(cfg: RunConfig, flags: Mapping[str, Any]):
    """The dephasing channel's axis, grid and lambda*, and (T, gamma(T)) per time."""
    from .bath import gamma

    _, _, _, grids, couplings = _pipeline(cfg)
    axis = _dephasing_axis(cfg)
    grid, lam_star = grids[axis], couplings[axis]
    series = [(float(t), gamma(grid, lam_star, float(t))) for t in _times(flags)]
    return axis, grid, lam_star, series


def _run_gamma(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    from .bounds import trace_distance_single

    axis, _, lam_star, series = _gamma_series(cfg, flags)
    rows = [(t, g, trace_distance_single(g, cfg.sigma_plus_abs)) for t, g in series]
    return Output(["T", "gamma", "trace_distance"], rows,
                  comments=[f"channel: {axis}", f"lambda_star: {_fmt(lam_star)}"],
                  summary={"gamma_final": rows[-1][1], "trace_distance_final": rows[-1][2]})


def _run_distance(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    from .bath import gamma_infinity
    from .bounds import trace_distance_single

    axis, grid, lam_star, series = _gamma_series(cfg, flags)
    g_inf = gamma_infinity(grid, lam_star)
    saturation = trace_distance_single(g_inf, cfg.sigma_plus_abs)
    rows = [(t, trace_distance_single(g, cfg.sigma_plus_abs)) for t, g in series]
    comments = [f"channel: {axis}", f"lambda_star: {_fmt(lam_star)}",
                f"gamma_inf: {_fmt(g_inf)}", f"d_sat: {_fmt(saturation)}"]
    return Output(["T", "trace_distance"], rows, comments=comments, summary={"d_sat": saturation})


def _run_regimes(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    from .bounds import SumKind, zeta_and_regime

    geom = cfg.geometry()
    rows = []
    for ch in cfg.channels:
        for kind in SumKind:
            report = zeta_and_regime(ch, geom, kind, D_x=cfg.D_x)
            rows.append((ch.axis, kind.value, report.zeta, report.boundary, report.regime.value))
    return Output(["axis", "kind", "zeta", "boundary", "regime"], rows)


def _run_mmax(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    from .bounds import SumKind, mmax_multi, mmax_multi_numeric, mmax_single, zeta_and_regime

    mode = flags["mode"]
    geom, channels, layout, grids, couplings = _pipeline(cfg)
    inputs = cfg.bound_input()
    axis = _dephasing_axis(cfg)
    report = zeta_and_regime(channels[axis], geom, SumKind.SINGLE_DEPHASING)
    m_single = mmax_single(report, inputs, couplings[axis], geom, mode=mode, grid=grids[axis])
    rows: list[tuple] = [("single", axis, SumKind.SINGLE_DEPHASING.value, mode, report.zeta,
                          report.regime.value, float(m_single))]
    if mode == "numeric":
        m_joint = mmax_multi_numeric(grids, couplings, layout, inputs, cfg.proportionality)
        rows.append(("multi", "all", "hs_numeric", mode, "", "", float(m_joint)))
    else:
        for ch in cfg.channels:
            for kind in (SumKind.W_SELF, SumKind.W_CORRELATED):
                report = zeta_and_regime(ch, geom, kind, D_x=cfg.D_x)
                m = mmax_multi(report, inputs, couplings[ch.axis], geom)
                rows.append(("multi", ch.axis, kind.value, mode, report.zeta,
                             report.regime.value, float(m)))
    overall = min(row[-1] for row in rows)  # every row's bound
    rows.append(("overall", "", "", mode, "", "", overall))
    return Output(["scope", "axis", "kind", "mode", "zeta", "regime", "mmax"], rows,
                  summary={"mmax_overall": overall})


def _run_hs(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    from .bounds import hs_distance

    _, _, layout, grids, couplings = _pipeline(cfg)
    rows = [(float(t), hs_distance(grids, couplings, layout, float(t), cfg.proportionality))
            for t in _times(flags)]
    return Output(["T", "hs_distance"], rows, summary={"hs_final": rows[-1][1]})


def _run_sweep(cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
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
    keys: list[str] = []
    rows = []
    for value in np.linspace(float(lo), float(hi), flags["points"]):
        summary = run_subcommand(target, cfg.with_value(param, float(value)), flags).summary
        keys = keys or list(summary)  # the first point's columns
        rows.append((param, float(value), *(summary[key] for key in keys)))
    return Output(["param", "value", *keys], rows, comments=[f"target: {target}"])


_SERIES = ("--t-max", "--steps")
# name: (handler, help, flags), in --help order
_COMMANDS = {
    "eta": (_run_eta, "write the uncorrectable-error table", ()),
    "code-check": (_run_code_check, "run code invariants and the distance check", ()),
    "lambda-star": (_run_lambda_star, "write effective couplings per channel", ()),
    "gamma": (_run_gamma, "decoherence-function series", _SERIES),
    "distance": (_run_distance, "trace-distance series and saturation value", _SERIES),
    "hs": (_run_hs, "Hilbert-Schmidt bound series", _SERIES),
    "regimes": (_run_regimes, "zeta exponents and regime labels", ()),
    "mmax": (_run_mmax, "bounds on the number of correction periods", ("--mode",)),
    "sweep": (_run_sweep, "vary one scalar config key and re-run a target",
              ("--param", "--from", "--to", "--points", "--target", "--mode", *_SERIES)),
}
# flag: its argparse options; the four optional ones are read through _FLAGS
_ARGS = {
    "--t-max": {"type": float},
    "--steps": {"type": int},
    "--points": {"type": int},
    "--mode": {"choices": _MODES},
    "--param": {"required": True, "help": "dotted config key, e.g. qec.Delta"},
    "--from": {"dest": "from_", "type": float, "required": True},
    "--to": {"type": float, "required": True},
    "--target": {"required": True, "choices": _SWEEP_TARGETS},
}


def run_subcommand(cmd: str, cfg: RunConfig, flags: Mapping[str, Any]) -> Output:
    """Execute one subcommand and return its output (no files written)."""
    if cmd not in _COMMANDS:
        raise QecBoundError(f"unknown subcommand {cmd!r}")
    given = {key: flags[row[0]] for key, row in _FLAGS.items() if flags.get(row[0]) is not None}
    return _COMMANDS[cmd][0](cfg, {**flags, **_read(_FLAGS, given)})


def write_output(cmd: str, out: Output, out_dir: Path, cfg: RunConfig) -> None:
    """Write ``<cmd>.csv`` and the output's extra files into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# artifact: qecbound {__version__}",
        f"# config: {cfg.config_hash()}",
        f"# subcommand: {cmd}",
    ]
    lines.extend(f"# {comment}" for comment in out.comments)
    lines.append(",".join(out.columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in out.rows)
    (out_dir / f"{cmd}.csv").write_text("\n".join(lines) + "\n")
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
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_ARGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        out = run_subcommand(args.command, cfg, vars(args))
        write_output(args.command, out, Path(args.out), cfg)
    except (QecBoundError, ValueError, ArithmeticError, OSError) as exc:  # OSError: --config, --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if out.ok:
        return 0
    print("error: one or more checks failed", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
