"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The end-to-end tests run every workload twice with tracing on, which takes
several minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# metrics computed from argument and array sizes, which must repeat exactly
EXACT_UNITS = {"count", "Gflop", "MB"}
EXACT_RATIOS = {"png_sim.useful_draw_ratio", "harness.conditioned_ratio"}


def _bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_and_counts_repeat(name):
    first = _result(_bench(ROOT, name, 5, 1))
    second = _result(_bench(ROOT, name, 5, 1))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    exact = {k for k, m in first["metrics"].items()
             if m["unit"] in EXACT_UNITS or k in EXACT_RATIOS}
    assert {k: first["metrics"][k]["value"] for k in exact} == \
        {k: second["metrics"][k]["value"] for k in exact}


def test_perturbed_outputs_count_as_failed_ops(tmp_path):
    wl = workloads.WORKLOADS["airy-cli"]
    inputs = wl.inputs(7)
    ops = dict(wl.ops(inputs, tmp_path / "out", 1))
    names = ["kernel0", "gap"]
    outputs = {n: ops[n]() for n in names}
    rounds = [{"dir": tmp_path, "ops": [
        {"name": n, "error": None, "output": outputs[n]} for n in names]}]
    assert run._check_rounds(wl, inputs, rounds)[:2] == (2, 0)

    kernel_csv = tmp_path / "out" / "kernel0" / "kernel.csv"
    lines = kernel_csv.read_text().splitlines()
    *head, value = lines[-1].split(",")
    lines[-1] = ",".join(head + [repr(float(value) + 1e-9)])
    kernel_csv.write_text("\n".join(lines) + "\n")
    assert run._check_rounds(wl, inputs, rounds)[:2] == (2, 1)

    rounds[0]["ops"].append({"name": "gap", "error": "Traceback\nValueError",
                             "output": None})
    assert run._check_rounds(wl, inputs, rounds)[:2] == (3, 2)


def test_perturbed_library_output_counts_as_failed_op(tmp_path):
    wl = workloads.WORKLOADS["growth-exact"]
    inputs = wl.inputs(7)
    ops = dict(wl.ops(inputs, tmp_path / "out", 1))
    good = ops["n1_q0.25_M3"]()
    rounds = [{"dir": tmp_path, "ops": [
        {"name": "n1_q0.25_M3", "error": None, "output": good},
        {"name": "n1_q0.25_M3", "error": None, "output": good + 1e-8}]}]
    assert run._check_rounds(wl, inputs, rounds)[:2] == (2, 1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "airy-cli", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rollup_self_times_sum_to_wall():
    def span(i, name, layer, parent, start, end, run="main", **counts):
        return {"id": i, "name": name, "layer": layer, "parent": parent,
                "start": start, "end": end, "run": run, "counts": counts}
    spans = [
        span("r", "bench.round", "bench", None, 0.0, 10.0),
        span("a", "fredholm.tw2", "fredholm", "r", 1.0, 6.0),
        span("b", "fredholm.tw2", "fredholm", "a", 2.0, 5.0),
        span("c", "linalg.slogdet", "linalg", "b", 3.0, 4.0, order=10,
             gflop=1.0),
        span("p", "harness.pool", "harness", "r", 6.0, 9.0, workers=2),
        span("t", "harness.pool_task", "harness", "p", 6.0, 9.0, run="w1"),
        span("u", "harness.pool_task", "harness", "p", 6.0, 7.5, run="w2"),
    ]
    m = tracer.rollup(spans)
    assert m["fredholm.tw2_s"] == 5.0
    assert m["fredholm.self_s"] == 4.0
    assert m["linalg.slogdet_s"] == 1.0 and m["linalg.gflop_per_s"] == 1.0
    assert m["harness.pool_efficiency"] == 0.75
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == \
        m["trace.wall_s"] == 10.0
