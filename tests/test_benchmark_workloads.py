"""The benchmark's workloads, end to end at toy sizes.

`benchmarks/workloads.py` calls cvpose through names and options of its
own choosing (`autodiff.Tape`, `add`, `reduce_sum`, `refine_batch`,
`refine`, `triangulate_pose`, `TrainConfig(tri_mode=...)`, ...). This test
runs each workload's set-up, two bodies and finish with its sizes shrunk,
so a change that breaks one of those calls fails here rather than only
when the benchmark runs.
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import workloads  # noqa: E402

TOY_SIZES = {"N_SAMPLES": 48, "CHANNELS": 8, "BATCH": 16,
             "CKPT_SAMPLES": 16, "CKPT_BATCH": 8,
             "TRAIN_QUALITY_SAMPLES": 16, "SINGLE_FRAME_CHECK": 8}


@pytest.mark.parametrize("name", ["train", "eval"])
def test_workload_passes_its_output_checks_at_toy_sizes(tmp_path, monkeypatch,
                                                        name):
    for constant, value in TOY_SIZES.items():
        monkeypatch.setattr(workloads, constant, value)
    workload = workloads.WORKLOADS[name]
    state = workload.setup(str(tmp_path / name), 5)
    state["clock"] = time.perf_counter
    outcomes = [workload.body(state) for _ in range(2)]
    check = workloads.Check()
    quality = workload.finish(state, outcomes, check)
    assert check.results and check.ok, [
        r for r in check.results if not r["ok"]]
    for outcome in outcomes:
        assert outcome.samples > 0
        assert 0 <= outcome.failed <= outcome.attempted
    assert {"mpjpe_tri_mm", "pmpjpe_refined_mm"} <= set(quality)
