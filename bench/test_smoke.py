"""Smoke test of the benchmark: every workload at n=50, traced and untraced.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in BENCHMARK["workloads"]]
)
def test_smoke_run_checks_outputs_and_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in wanted}
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run(tmp_path, "sd-n2000", 0)
    assert done.returncode != 0
    assert done.stdout == ""
