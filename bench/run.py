#!/usr/bin/env python3
"""qecbound benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                         [--size full|smoke]

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Load is a closed loop with one client: one
operation runs at a time, each as a child process ``python -m qecbound ...``
(CLI workloads) or one child per run calling the library (``mmax-search``).

--trace 0 measures the end-to-end metrics: set-up time, run wall time, run
CPU time, peak RSS and the share of operations that succeeded.
--trace 1 runs the same workload in-process, alternating untraced and
traced runs, and reports the per-layer metrics derived from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give every metric's median, quartiles and run count, and the environment.
Full results and the spans of the last traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import libops
import spans
from check import SearchOracle, compare_dir
from workloads import SIZES, VARIANTS, WORKLOADS, make_inputs, yaml_text

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
TRACE_METRICS = {
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "fail_ratio": "ratio",
}
SETUP_PROBES_PER_RUN = 2
CHILD_TIMEOUT_S = 170.0


@dataclass
class Run:
    """One workload run: all operations in sequence."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, float, str | None]:
    """(wall s, user+sys CPU s, max RSS MB, problem) of one child process."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text(errors="replace")
    problem = None
    if proc.returncode != 0:
        problem = f"exit {proc.returncode}: {text.strip().splitlines()[-1:]}"
    elif "Traceback (most recent call last)" in text:
        problem = "printed a traceback"
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, problem


class Workload:
    """One workload's inputs, its runs and the checks of their outputs."""

    def __init__(self, name: str, seed: int, size: str, reference: Path) -> None:
        self.name = name
        self.kind = WORKLOADS[name].kind
        self.inputs = make_inputs(name, seed, size)
        self.variant = seed % VARIANTS
        self.reference = reference / size / name / f"v{self.variant}"
        self.work = OUT / "work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.yaml"
        self.config.write_text(yaml_text(self.inputs.config))
        if self.kind == "library":
            self.ops_file = self.work / "ops.json"
            self.ops_file.write_text(json.dumps(self.inputs.ops))
            self.oracle = SearchOracle(self.inputs.config)

    # -- set-up -------------------------------------------------------------------

    def setup_probe(self) -> tuple[float, str | None]:
        """Wall time of one child that imports the CLI and loads the config."""
        argv = [sys.executable, str(BENCH / "probe_setup.py"), str(self.config)]
        wall, _, _, problem = run_child(argv, self.work / "probe.log")
        return wall, (f"setup probe: {problem}" if problem else None)

    # -- one run, as child processes ---------------------------------------------------

    def _op_dir(self, op: str) -> Path:
        path = self.work / "out" / op
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run_children(self) -> Run:
        run = Run()
        if self.kind == "library":
            result = self.work / "result.json"
            result.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "libops.py"), str(self.config),
                    str(self.ops_file), str(result)]
            run.wall, run.cpu, run.rss_mb, problem = run_child(argv, self.work / "libops.log")
            run.attempted = len(self.inputs.ops)
            if problem:
                run.problems += [f"mmax-search: {problem}"] * run.attempted
            else:
                run.problems += self.check_library(json.loads(result.read_text()))
            return run
        dirs = [self._op_dir(op) for op, _ in self.inputs.ops]
        for (op, args), out in zip(self.inputs.ops, dirs):
            argv = [sys.executable, "-m", "qecbound", "--config", str(self.config),
                    "--out", str(out)] + args
            wall, cpu, rss, problem = run_child(argv, out.parent / f"{op}.log")
            run.wall += wall
            run.cpu += cpu
            run.rss_mb = max(run.rss_mb, rss)
            run.attempted += 1
            if problem:
                run.problems.append(f"{op}: {problem}")
        run.problems += self.check_cli(dirs, skip={p.split(":")[0] for p in run.problems})
        return run

    # -- one run, in this process -----------------------------------------------------

    def run_inprocess(self, tracer=None) -> Run:
        """Run every operation in this process; with a tracer, label its spans."""
        run = Run(attempted=len(self.inputs.ops))
        if self.kind == "library":
            on_op = (lambda i: setattr(tracer, "op_id", i)) if tracer else None
            start = time.perf_counter()
            try:
                results = libops.run_ops(str(self.config), self.inputs.ops, on_op)
            except Exception:  # noqa: BLE001 - the whole run failed
                run.wall = time.perf_counter() - start
                run.problems += [f"mmax-search: {traceback.format_exc()}"] * run.attempted
                return run
            run.wall = time.perf_counter() - start
            run.problems += self.check_library(results)
            return run
        dirs = [self._op_dir(op) for op, _ in self.inputs.ops]
        failed = set()
        for i, ((op, args), out) in enumerate(zip(self.inputs.ops, dirs)):
            if tracer is not None:
                tracer.op_id = i
            argv = ["--config", str(self.config), "--out", str(out)] + args
            start = time.perf_counter()
            try:
                code = sys.modules["qecbound.cli"].main(argv)
            except (Exception, SystemExit):  # noqa: BLE001 - an escape is a failed operation
                code = f"raised {traceback.format_exc().strip().splitlines()[-1]}"
            run.wall += time.perf_counter() - start
            if code != 0:
                run.problems.append(f"{op}: exit {code}")
                failed.add(op)
        run.problems += self.check_cli(dirs, skip=failed)
        return run

    # -- checks ---------------------------------------------------------------------

    def check_cli(self, dirs: list[Path], skip: set[str]) -> list[str]:
        problems = []
        for (op, _), out in zip(self.inputs.ops, dirs):
            if op in skip:
                continue
            ref = self.reference / op
            problem = compare_dir(out, ref) if ref.is_dir() else f"no reference at {ref}"
            if problem:
                problems.append(f"{op}: {problem}")
        return problems

    def check_library(self, results: list[dict]) -> list[str]:
        problems = []
        for (op_name, op), result in zip(self.inputs.ops, results):
            problem = self.oracle.check(op, result)
            if problem:
                problems.append(f"{op_name}: {problem}")
        missing = len(self.inputs.ops) - len(results)
        return problems + ["mmax-search: missing result"] * max(0, missing)


# -- measurement loops ----------------------------------------------------------------


def _budget_loop(seconds: float, step, start: float) -> None:
    """Call step() at least once, and again while one more is expected to end
    within ``seconds`` of ``start``."""
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def measure_end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict, int, list[str]]:
    """Runs until the budget is spent, each followed by SETUP_PROBES_PER_RUN
    set-up probes, so that probes and runs sample the same stretch of time."""
    start = time.perf_counter()
    probes = [wl.setup_probe()]  # warm-up: bytecode caches, file cache
    setup: list[float] = []
    runs: list[Run] = []

    def step() -> None:
        runs.append(wl.run_children())
        for _ in range(SETUP_PROBES_PER_RUN):
            probes.append(wl.setup_probe())
            setup.append(probes[-1][0])

    _budget_loop(seconds, step, start)
    problems = [problem for _, problem in probes if problem]
    attempted = len(probes)
    for run in runs:
        attempted += run.attempted
        problems += run.problems
    series = {
        "setup_s": setup,
        "run_s": [r.wall for r in runs],
        "cpu_s": [r.cpu for r in runs],
        "peak_rss_mb": [r.rss_mb for r in runs],
        "ok_ratio": [1.0 - len(problems) / attempted],
    }
    return series, END_TO_END, attempted, problems


def measure_traced(wl: Workload, seconds: float, spans_path: Path) -> tuple[dict, dict, int, list[str]]:
    sys.path.insert(0, str(SRC))
    import qecbound.cli  # noqa: F401 - load every module before the first run

    tracer = spans.Tracer()
    untraced: list[Run] = []
    traced: list[Run] = []
    layer: dict[str, list[float]] = {}
    start = time.perf_counter()
    warm = wl.run_inprocess()  # first-touch allocations, caches

    def pair() -> None:
        untraced.append(wl.run_inprocess())
        tracer.reset()
        tracer.install()
        try:
            run = wl.run_inprocess(tracer)
        finally:
            tracer.uninstall()
        traced.append(run)
        derived = tracer.derive()
        derived["trace.unattributed_s"] = run.wall - sum(
            v for k, v in derived.items() if k.endswith(".self_s"))
        for key, value in derived.items():
            layer.setdefault(key, []).append(value)

    _budget_loop(seconds, pair, start)
    tracer.save(spans_path)
    runs = [warm] + untraced + traced
    attempted = sum(r.attempted for r in runs)
    problems = [p for r in runs for p in r.problems]
    traced_s = statistics.median(r.wall for r in traced)
    untraced_s = statistics.median(r.wall for r in untraced)
    layer["trace.run_s"] = [r.wall for r in traced]
    layer["trace.untraced_run_s"] = [r.wall for r in untraced]
    layer["trace.overhead_s"] = [traced_s - untraced_s]
    layer["fail_ratio"] = [len(problems) / attempted]
    units = dict(spans.per_layer_metric_units(), **TRACE_METRICS)
    return layer, units, attempted, problems


# -- reporting --------------------------------------------------------------------------


def environment(seed: int, variant: int) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "variant": variant,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    env["commit"] = None  # the checkout may not be a git repository
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qecbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read through its C API."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def summarize(series: dict[str, list[float]], units: dict[str, str]) -> tuple[dict, list[str]]:
    """Median per metric for the result line; median, quartiles and n for the table."""
    metrics, lines = {}, []
    for name, unit in units.items():
        values = series.get(name) or [0.0]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = q3 = med
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"  {name:44s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return metrics, lines


def run_workload(name: str, args) -> dict:
    wl = Workload(name, args.seed, args.size, REFERENCE)
    env = environment(args.seed, wl.variant)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        series, units, attempted, problems = measure_traced(
            wl, args.seconds, OUT / f"spans-{name}.npz")
    else:
        series, units, attempted, problems = measure_end_to_end(wl, args.seconds)
    metrics, lines = summarize(series, units)
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": name, "env": env, "series": series, "problems": problems,
         "result": result}, indent=1))
    print(f"# {name} (size {args.size}, seed {args.seed}, trace {args.trace})")
    print("# env " + json.dumps(env))
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if not (SRC / "qecbound" / "__init__.py").is_file():
        print(f"error: no qecbound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args) for name in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
