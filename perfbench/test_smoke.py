"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload, traced and untraced, must emit exactly the metrics that
BENCHMARK.json names, with their units, and get every verdict right; a wrong
verdict must count as a failure.
"""

import json
from pathlib import Path

import pytest

import calibration
import run
import workloads
from nicheck import Verdict

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_and_nothing_failed(name, trace):
    result, lines = run.measure(name, seed=1, seconds=0, trace=trace, sizes=workloads.TINY)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    failed_frac = [line.split() for line in lines if line.startswith("failed_frac")]
    assert failed_frac and float(failed_frac[0][1]) == 0
    json.dumps(result)


def test_wrong_verdict_is_counted(monkeypatch):
    monkeypatch.setitem(workloads.DECIDERS, "p",
                        lambda system: Verdict(False, "L", (), ()))
    result, lines = run.measure("decide_secure", seed=1, seconds=0, trace=False,
                                sizes=workloads.TINY)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 3
    assert any(line.startswith("FAILED machine p") for line in lines)


def test_calibration_scales_by_the_local_loop_time(monkeypatch):
    fast, slow = calibration.NOMINAL_S / 2, calibration.NOMINAL_S * 2
    samples = [workloads.Sample("x", "p", 1, seconds=1.0, loops=(fast,)),
               workloads.Sample("x", "p", 1, seconds=1.0, loops=(fast, fast)),
               workloads.Sample("x", "p", 1, seconds=1.0, loops=(fast,)),
               workloads.Sample("x", "p", 1, seconds=1.0, loops=(slow,))]
    monkeypatch.setattr(calibration, "WINDOW", 1)
    calibration.scale_samples(samples)
    # Each sample's loops and those of one neighbour on each side count.
    assert [s.ref_seconds for s in samples] == pytest.approx([2.0, 2.0, 8 / 7, 0.8])
