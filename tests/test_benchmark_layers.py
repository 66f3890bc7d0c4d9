"""The benchmark's traced wrappers around real cvpose calls.

`benchmarks/layers.install` wraps functions by name and reads their
arguments and results; a change to a wrapped signature or return shape
would otherwise only show when the benchmark runs with `--trace 1`.
"""

import os
import sys

from cvpose import metrics, training
from cvpose.graph import default_topology
from cvpose.network import CVUGCN, load_checkpoint
from cvpose.syndata import SyntheticConfig, generate_dataset

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_traced_fit_and_evaluate_report_their_layers(tmp_path):
    samples, _, assumed = generate_dataset(
        SyntheticConfig(n_samples=12, seed=2, sigma_px=3.0))
    cfg = training.TrainConfig(epochs=1, batch_size=4, channels=8)
    topo = default_topology()
    tracer = Tracer()
    layers.install(tracer)
    try:
        root = tracer.open(layers.BODY)
        result = training.fit(samples, [], assumed, cfg, topo=topo,
                              out_dir=tmp_path)
        ckpt = load_checkpoint(result.checkpoints["final"], topo)
        report = metrics.evaluate(samples, assumed,
                                  CVUGCN(topo, ckpt.config, ckpt.weights),
                                  topo, batch_size=4, tri_mode=cfg.tri_mode)
        tracer.close(root)
    finally:
        tracer.remove()
    m = layers.body_metrics(tracer)
    assert m["geometry.triangulate.calls"] == 2
    assert m["geometry.triangulate.skipped"] == (len(result.skipped_train)
                                                 + len(report.skipped))
    assert tracer.count("geometry.triangulate.samples") == 24
    assert report.n_samples + len(report.skipped) == 12
    # 12 samples of one camera pair in batches of 4: 3 to train, 3 to score
    assert m["network.forward.calls"] == 6
    assert m["geometry.triangulate.us_per_sample"] > 0
