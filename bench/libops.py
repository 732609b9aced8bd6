"""The library workload's run: numeric M_max searches through the public API.

Run as a script, it is one workload run in a child process:

    python bench/libops.py CONFIG.yaml OPS.json RESULT.json

with ``src`` on PYTHONPATH.  The benchmark also imports ``run_ops`` to call
it in-process for the traced run.
"""

from __future__ import annotations

import json
import sys
import traceback


def run_ops(config_path: str, ops: list[tuple[str, dict]], on_op=None) -> list[dict]:
    """Build both grids, then per operation: a single-qubit numeric search,
    the one-point calibration and the register search.  Each operation's
    failure is recorded and the next one still runs.  ``on_op(i)`` is called
    before operation i (the traced run labels its spans with it)."""
    import qecbound as qb

    cfg = qb.load_config(config_path)
    geom = cfg.geometry()
    channels = cfg.channel_map()
    grids = {axis: qb.build_mode_grid(geom, ch, cfg.max_modes) for axis, ch in channels.items()}
    layout = cfg.qubit_layout()
    inputs = cfg.bound_input()
    report = qb.zeta_and_regime(channels["z"], geom, qb.SumKind.SINGLE_DEPHASING)
    results = []
    for i, (name, op) in enumerate(ops):
        if on_op is not None:
            on_op(i)
        try:
            lam = op["lambda_single"]
            m_single = qb.mmax_single(report, inputs, lam, geom, mode="numeric", grid=grids["z"])
            c_cal = qb.calibrate_c_cal(report, inputs, lam, geom, grids["z"])
            coupling = qb.EffectiveCoupling({"z": op["lambda_z"], "x": op["lambda_x"]})
            m_multi = qb.mmax_multi_numeric(grids, coupling, layout, inputs, cfg.proportionality)
            results.append({"op": name, "m_single": m_single, "c_cal": c_cal, "m_multi": m_multi})
        except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
            results.append({"op": name, "error": traceback.format_exc()})
    return results


def main(argv: list[str]) -> int:
    config_path, ops_path, result_path = argv
    with open(ops_path) as fh:
        ops = [tuple(op) for op in json.load(fh)]
    results = run_ops(config_path, ops)
    with open(result_path, "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
