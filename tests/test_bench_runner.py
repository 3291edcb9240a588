"""The benchmark runner's output contract, on every declared workload: the
last line of stdout is one JSON result whose checks passed, with no failed
operation and every end-to-end metric of BENCHMARK.json. A run whose last
line is not that result cannot be compared with another. A traced run
(``--trace 1``) keeps the same contract with the per-layer metrics, and
every function the tracer wraps is still there to wrap."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_second_run_ends_with_a_correct_result(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_every_traced_function_is_loaded_by_the_cli():
    # the runner imports sc2combat.cli before it installs the tracer
    code = ("import json, sc2combat.cli, tracing; "
            "print(json.dumps(tracing.Tracer().install().missing))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_traced_run_ends_with_finite_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1",
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    # the traced engine functions are the ones the battle path calls
    for name in ("engine.trials", "engine.compute_pool_calls", "engine.apply_pool_calls"):
        assert result["metrics"][name]["value"] > 0, name
