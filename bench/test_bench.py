"""Smoke tests of the benchmark itself, on the small size of every workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "test"

sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END, TRACE_METRICS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--size", "smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(proc: subprocess.CompletedProcess, units: dict[str, str]) -> dict:
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   for line in proc.stdout.splitlines()), f"{name} not printed with {unit}"
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_print_with_units(workload):
    result = assert_metrics(bench("--workload", workload, "--seed", "5", "--trace", "0"),
                            END_TO_END)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def ancestors(parent: np.ndarray, idx: int) -> list[int]:
    chain = []
    while parent[idx] >= 0:
        idx = int(parent[idx])
        chain.append(idx)
    return chain


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_metrics_print_and_self_times_add_up(workload):
    units = dict(spans.per_layer_metric_units(), **TRACE_METRICS)
    result = assert_metrics(bench("--workload", workload, "--seed", "5", "--trace", "1"), units)
    assert result["correct"]
    saved = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed5-trace1.json").read_text())
    run_s = saved["series"]["trace.run_s"][-1]  # the saved spans are the last traced run's
    unattributed = saved["series"]["trace.unattributed_s"][-1]
    with np.load(ROOT / ".bench_out" / f"spans-{workload}.npz") as npz:
        a = {key: npz[key] for key in npz.files}
    names = [str(n) for n in a["names"][a["name"]]]
    dur = a["end"] - a["start"]
    parent = a["parent"]
    roots = parent < 0

    # children lie inside their parent, so no self time is negative
    inner = np.nonzero(~roots)[0]
    assert np.all(a["start"][inner] >= a["start"][parent[inner]])
    assert np.all(a["end"][inner] <= a["end"][parent[inner]])
    assert np.all(a["self"] >= -1e-12)
    # every span's time is counted once: self times sum to the root spans' time
    root_s = dur[roots].sum()
    assert a["self"].sum() == pytest.approx(root_s, rel=1e-9)
    # the root spans cover the run, up to the glue between the traced calls
    assert root_s <= run_s
    assert run_s - root_s < 0.05 * run_s + 0.01
    assert unattributed == pytest.approx(run_s - root_s, rel=1e-6, abs=1e-9)

    # known nestings
    if WORKLOADS[workload].kind == "cli":
        assert {names[i] for i in np.nonzero(roots)[0]} == {"cli.main"}
        ops = len(make_inputs(workload, 5, "smoke").ops)
        assert np.array_equal(np.unique(a["op"]), np.arange(ops))
    else:
        searches = {"bounds.mmax_single", "bounds.calibrate_c_cal", "bounds.mmax_multi_numeric"}
        gammas = [i for i, n in enumerate(names) if n == "bath.gamma"]
        w_sums = [i for i, n in enumerate(names) if n == "bath.w_sum"]
        assert gammas and w_sums
        for i in gammas:
            assert searches & {names[j] for j in ancestors(parent, i)}
        for i in w_sums:
            assert "bounds.mmax_multi_numeric" in {names[j] for j in ancestors(parent, i)}


def test_perturbed_reference_counts_as_failed_operation():
    refs = SCRATCH / "reference"
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(BENCH / "reference", refs, ignore=shutil.ignore_patterns("full"))
    # seed 6 selects variant 6; move the last hs value by 1e-8 relative
    hs = refs / "smoke" / "register-series" / "v6" / "hs" / "hs.csv"
    lines = hs.read_text().splitlines()
    t, value = lines[-1].split(",")
    lines[-1] = f"{t},{float(value) * (1 + 1e-8):.12g}"
    hs.write_text("\n".join(lines) + "\n")
    series, _, attempted, problems = run.measure_end_to_end(
        run.Workload("register-series", 6, "smoke", refs), 1.0)
    assert problems and all(p.startswith("hs:") for p in problems)
    assert series["ok_ratio"] == [1.0 - len(problems) / attempted]
    assert series["ok_ratio"][0] < 1.0


def test_refuses_to_run_without_program_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "register-series", "--seed", "0", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    per_layer = dict(spans.per_layer_metric_units(), **TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
