"""Smoke test of the benchmark itself, at a tiny size.

Each workload runs for one second on tiny inputs, untraced and traced, and
must emit exactly the metrics BENCHMARK.json names, with their units, and
no failed operation.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    cp = bench(ROOT, workload, trace)
    assert cp.returncode == 0, cp.stderr
    *_, context_line, result_line = cp.stdout.strip().splitlines()
    context = json.loads(context_line)["context"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert context["error_rate"] == 0
    assert set(context["blas_threads"].values()) <= {1}

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_refuses_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present there is no dvs."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cp = bench(tmp_path, "sweep_small", 0)
    assert cp.returncode != 0
    assert '"metrics"' not in cp.stdout
