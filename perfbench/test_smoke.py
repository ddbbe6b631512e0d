"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is reported with its unit on
every workload, that an injected bad output counts as a failure and makes the
command exit nonzero, and that the command refuses to run without the
package's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["train", "resynth", "encode"]


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    cmd = spec()["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--seed", "3", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
            assert any(
                line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                for line in proc.stdout.splitlines()
            ), f"{m['name']} not printed with its unit"
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_nan_mel_counts_as_failed(workload):
    proc, result = bench("--workload", workload, "--inject-nan-mel")
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".perfbench_run", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = bench("--workload", "train", cwd=bare)
        assert proc.returncode != 0
        assert result is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)
