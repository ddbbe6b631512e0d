"""The benchmark's workloads (``perfbench/workloads.py``) build their models
and inputs through the package's own API: ``ModelConfig(vocab_size=,
n_speakers=)``, ``CodecModel(..., beta=, ema_decay=, ema_epsilon=)``,
``parse_manifest(..., vocab=)``, ``forward_batch(..., bypass=True)`` and
``invert_mel(..., floor=)``. A package change that breaks one of them makes
every benchmark run fail; this test runs each workload once at its smallest
size so that the unit suite fails instead. It reads ``perfbench/`` and
changes nothing there.
"""

import math
import os

import pytest

from prosody_codec.config import FeatureConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("name", ["train", "resynth", "encode"])
def test_workload_runs_at_tiny_size(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads  # perfbench/workloads.py

    workload = workloads.WORKLOADS[name](3, workloads.Sizes(tiny=True), FeatureConfig())
    meter = workloads.Meter()
    workload.setup(str(tmp_path))
    for k in range(workload.parts):
        workload.round(meter, k)
    guards = workload.finish(meter)
    assert meter.failed == 0, meter.errors
    for key in ("loss_final", "gl_error", "psnr_db"):
        assert math.isfinite(guards[key]), key
