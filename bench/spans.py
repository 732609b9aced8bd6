"""In-process tracing: spans around calls into each qecbound module.

``Tracer.install()`` wraps the public functions in TRACED wherever the
package holds a reference to them.  The modules import each other by name
(``from .bath import gamma`` in ``bounds`` and ``cli``), so every module of
the ``qecbound`` package and the package itself get the wrapper, not only
the defining module.  ``uninstall()`` puts the originals back.

A span is (name, start, end, parent, operation id, error).  Spans live in
flat arrays in memory and are written out once, by ``save``.  A span's self
time is its duration minus the durations of its direct children; spans of
one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

# (module, attribute): the public functions whose calls are spans.
TRACED = (
    ("cli", "main"),
    ("cli", "run_subcommand"),
    ("cli", "write_output"),
    ("config", "load_config"),
    ("config", "RunConfig.with_value"),
    ("pauli", "classify"),
    ("pauli", "verify_distance"),
    ("coupling", "enumerate_eta"),
    ("coupling", "a_matrix"),
    ("coupling", "lambda_star"),
    ("bath", "build_mode_grid"),
    ("bath", "build_radial_mode_grid"),
    ("bath", "gamma"),
    ("bath", "gamma_infinity"),
    ("bath", "w_sum"),
    ("bounds", "hs_distance"),
    ("bounds", "mmax_single"),
    ("bounds", "calibrate_c_cal"),
    ("bounds", "mmax_multi_numeric"),
)
SPAN_NAMES = tuple(f"{module}.{attr.split('.')[-1]}" for module, attr in TRACED)

# Calls whose span is one numeric M_max search; mmax_single only in numeric mode.
_SEARCHES = ("bounds.calibrate_c_cal", "bounds.mmax_multi_numeric")
_SEARCH_EVALS = ("bath.gamma", "bounds.hs_distance")

# Per-layer metrics beyond .calls / .self_s / .errors of every span name.
EXTRA_METRICS = (
    ("coupling.enumerate_eta.distinct_ratio", "ratio"),
    ("coupling.a_matrix.distinct_ratio", "ratio"),
    ("coupling.a_matrix.ns_per_mode_pair", "ns"),
    ("bath.build_mode_grid.distinct_ratio", "ratio"),
    ("bath.build_mode_grid.modes", "count"),
    ("bath.gamma.ns_per_mode", "ns"),
    ("bath.w_sum.first_s", "s"),
    ("bath.w_sum.repeat_ns_per_mode", "ns"),
    ("bounds.search.evals_per_call", "count"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every metric ``derive`` reports, with its unit (trace.* and fail_ratio
    are added by the runner)."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units.update(EXTRA_METRICS)
    return units


def _digest(*parts: object) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class Tracer:
    """Records spans and the argument counters of one traced run."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.search = array("b")
        self._stack: list[int] = []
        self.op_id = 0
        # argument keys per call, for the distinct-input ratios
        self.keys: dict[str, list[str]] = {
            "coupling.enumerate_eta": [], "coupling.a_matrix": [], "bath.build_mode_grid": []
        }
        self._grid_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._registers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.mode_pairs = 0  # a_matrix: stored modes x site pairs
        self.gamma_modes = 0
        self.grid_modes = 0
        self.w_first: list[int] = []  # span indices of w_sum calls that built a structure factor
        self.w_repeat_modes = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.error.append(0)
        self.search.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    def _wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        note = getattr(self, "_note_" + name.split(".")[-1], None)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if note is not None:
                note(idx, result, *args, **kwargs)
            return result

        return functools.wraps(fn)(traced)

    # Counters, recorded after the call returns (outside its span).

    def _note_enumerate_eta(self, idx, result, code):
        self.keys["coupling.enumerate_eta"].append(_digest(code))

    def _note_build_mode_grid(self, idx, grid, geom, ch, max_modes=None):
        # the grid reads the geometry, the exponents and the budget, not the
        # channel's axis or coupling
        key = _digest(geom, ch.z_exp, ch.s_exp, max_modes)
        self.keys["bath.build_mode_grid"].append(key)
        self._grid_keys[grid] = key
        self.grid_modes += grid.stored_count

    def _note_a_matrix(self, idx, result, grid, layout, channel, delta):
        offsets = layout.padded_offsets(grid.D)
        grid_key = self._grid_keys.get(grid) or _digest(grid.omega, grid.n)
        key = _digest(grid_key, offsets, channel.axis, channel.lam, delta)
        self.keys["coupling.a_matrix"].append(key)
        sites = offsets.shape[0]
        self.mode_pairs += grid.stored_count * sites * (sites + 1) // 2

    def _note_gamma(self, idx, result, grid, *args, **kwargs):
        self.gamma_modes += grid.stored_count

    def _note_w_sum(self, idx, result, grid, positions, T):
        seen = self._registers.setdefault(grid, set())
        key = _digest(np.asarray(positions, dtype=np.float64))
        if key in seen:
            self.w_repeat_modes += grid.stored_count
        else:
            seen.add(key)
            self.w_first.append(idx)

    def _note_mmax_single(self, idx, result, *args, **kwargs):
        mode = kwargs.get("mode", args[4] if len(args) > 4 else "asymptotic")
        self.search[idx] = mode == "numeric"

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        owners = {module: importlib.import_module(f"qecbound.{module}") for module, _ in TRACED}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qecbound" or name.startswith("qecbound.")]
        for (module, attr), name in zip(TRACED, SPAN_NAMES):
            owner_module = owners[module]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner_module, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner_module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "self": dur - child,
        }

    def derive(self) -> dict[str, float]:
        """Per-layer metrics of the recorded run."""
        a = self.arrays()
        names, self_s = a["name"], a["self"]
        dur = a["end"] - a["start"]
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            mask = names == i
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_s[mask].sum())
            out[f"{name}.errors"] = int(a["error"][mask].sum())

        def ratio(key: str) -> float:
            calls = self.keys[key]
            return len(set(calls)) / len(calls) if calls else 0.0

        def per(total_s: float, count: int) -> float:
            return total_s / count * 1e9 if count else 0.0

        out["coupling.enumerate_eta.distinct_ratio"] = ratio("coupling.enumerate_eta")
        out["coupling.a_matrix.distinct_ratio"] = ratio("coupling.a_matrix")
        out["coupling.a_matrix.ns_per_mode_pair"] = per(
            out["coupling.a_matrix.self_s"], self.mode_pairs)
        out["bath.build_mode_grid.distinct_ratio"] = ratio("bath.build_mode_grid")
        out["bath.build_mode_grid.modes"] = self.grid_modes
        out["bath.gamma.ns_per_mode"] = per(out["bath.gamma.self_s"], self.gamma_modes)
        first = np.asarray(self.w_first, dtype=np.int64)
        first_s = float(dur[first].sum())
        out["bath.w_sum.first_s"] = first_s / len(first) if len(first) else 0.0
        out["bath.w_sum.repeat_ns_per_mode"] = per(
            out["bath.w_sum.self_s"] - first_s, self.w_repeat_modes)

        # numeric searches: gamma / hs_distance calls under each search span
        search = np.frombuffer(self.search, dtype=np.int8).astype(bool)
        for name in _SEARCHES:
            search |= names == SPAN_NAMES.index(name)
        evals = np.isin(names, [SPAN_NAMES.index(n) for n in _SEARCH_EVALS])
        parent = a["parent"]
        counted = 0
        for idx in np.nonzero(evals)[0]:
            p = parent[idx]
            while p >= 0 and not search[p]:
                p = parent[p]
            counted += int(p >= 0)
        searches = int(search.sum())
        out["bounds.search.evals_per_call"] = counted / searches if searches else 0.0
        return out

    def save(self, path: Path) -> None:
        """Write the spans as compressed arrays plus the span-name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(SPAN_NAMES), **self.arrays())
