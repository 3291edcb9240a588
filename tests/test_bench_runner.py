"""The benchmark runner's output contract, on every declared workload: the
last line of stdout is one JSON result whose checks passed, with no failed
operation and every end-to-end metric of BENCHMARK.json. A run whose last
line is not that result cannot be compared with another."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}


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
