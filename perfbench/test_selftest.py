"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_selftest.py

Checks that each workload prints every metric ``BENCHMARK.json``
declares, with its unit, for both run kinds; that a deliberately
corrupted output fails the output checks; and that the benchmark refuses
to run, without printing a result, where the program's sources are
missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_printed_with_unit(workload, trace):
    result = _result(_run(workload, trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        item = result["metrics"][metric["name"]]
        assert item["unit"] == metric["unit"]
        assert isinstance(item["value"], float)
    if not trace:
        assert all(item["value"] > 0 for item in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_the_checks(workload):
    result = _result(_run(workload, 0, "--corrupt"))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
