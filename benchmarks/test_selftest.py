"""Self-test of the benchmark at tiny sizes: python3 -m pytest -q benchmarks/test_selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit
for every workload, that per-layer counts repeat exactly for a seed, that
the layers separate (range-converge touches no measure code, backward-
measure no partition code and one orbit walk), and that a directory
without syrdyn's sources makes the benchmark fail without printing a
result.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "ratio", "bytes")


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def fresh_result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, 7, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


result = functools.cache(fresh_result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_repeat_exactly(workload):
    first, again = result(workload, 1), fresh_result(workload, 1)
    assert first["correct"] is True and first["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name, unit in want.items():
        if unit in EXACT_UNITS:
            assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name


def test_layers_separate():
    converge = result("range-converge", 1)["metrics"]
    assert converge["maps.preimage.calls"]["value"] == 0
    assert converge["maps.apply.calls"]["value"] > 0
    for name, metric in converge.items():
        if name.startswith("measure.") or name.startswith("numeric."):
            assert metric["value"] == 0, name
    measure = result("backward-measure", 1)["metrics"]
    assert measure["partition.points"]["value"] == 0
    assert measure["trajectory.iterate.calls"]["value"] == 1  # the cycle search walks start 1 only
    assert measure["measure.comparisons"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
