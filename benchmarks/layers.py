"""Where the traced run wraps cvpose, and the per-layer metrics it derives.

Each function is wrapped where its call site resolves it: `training` and
`metrics` import `precompute_coarse`, `total_loss` and `save_checkpoint` by
name, so those names are wrapped in the importing module. Per-layer
metrics are totals for one timed body, except `training.epoch.*` (median
per epoch) and `*.tape_nodes` and `network.checkpoint.bytes` (median per
call).
"""

from __future__ import annotations

import os
from statistics import median

# name -> unit; every traced run reports all of them, 0 where a layer does
# no work on that workload.
PER_LAYER = {
    "syndata.load_dataset.busy_s": "s",
    "syndata.generate.busy_s": "s",
    "geometry.triangulate.busy_s": "s",
    "geometry.triangulate.calls": "count",
    "geometry.triangulate.us_per_sample": "us",
    "geometry.triangulate.skipped": "count",
    "geometry.procrustes.busy_s": "s",
    "geometry.procrustes.calls": "count",
    "network.forward.busy_s": "s",
    "network.forward.calls": "count",
    "network.forward.us_per_sample": "us",
    "network.forward.tape_nodes": "count",
    "network.checkpoint.save_s": "s",
    "network.checkpoint.load_s": "s",
    "network.checkpoint.bytes": "bytes",
    "autodiff.backward.busy_s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.backward.tape_nodes": "count",
    "losses.total.busy_s": "s",
    "losses.total.calls": "count",
    "training.epoch.busy_s": "s",
    "training.epoch.self_s": "s",
    "training.optimizer.busy_s": "s",
    "training.fit.self_s": "s",
    "training.samples_dropped": "count",
    "metrics.evaluate.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

BODY = "body"


def _file_bytes(tracer, result, args, kwargs):
    tracer.record("network.checkpoint.bytes", os.path.getsize(args[0]))


def _coarse(tracer, result, args, kwargs):
    tracer.record("geometry.triangulate.samples", len(args[0]))
    tracer.record("geometry.triangulate.skipped", len(result[1]))


def _forward(tracer, result, args, kwargs):
    model, tape, x1 = args[0], args[1], args[2]
    tracer.record("network.forward.poses", len(x1) // model.topo.n_joints)
    tracer.record("network.forward.tape_nodes", len(tape))


def _backward(tracer, result, args, kwargs):
    tracer.record("autodiff.backward.tape_nodes", len(args[0]))


def _epoch(tracer, result, args, kwargs):
    tracer.record("training.samples_dropped", result["depth_skipped"])


def install_setup(tracer):
    from cvpose import syndata
    tracer.wrap(syndata, "generate_dataset", "syndata.generate")


def install(tracer):
    from cvpose import autodiff, metrics, network, syndata, training
    tracer.wrap(syndata, "load_dataset", "syndata.load_dataset")
    tracer.wrap(network, "load_checkpoint", "network.checkpoint.load",
                observe=_file_bytes)
    tracer.wrap(training, "fit", "training.fit")
    tracer.wrap(training, "precompute_coarse", "geometry.triangulate",
                observe=_coarse)
    tracer.wrap(training, "train_epoch", "training.epoch", observe=_epoch)
    tracer.wrap(training, "total_loss", "losses.total")
    tracer.wrap(training, "save_checkpoint", "network.checkpoint.save",
                observe=_file_bytes)
    tracer.wrap(metrics, "evaluate", "metrics.evaluate")
    tracer.wrap(metrics, "precompute_coarse", "geometry.triangulate",
                observe=_coarse)
    tracer.wrap(metrics, "p_mpjpe", "geometry.procrustes")
    tracer.wrap(network.CVUGCN, "refine_batch", "network.forward",
                observe=_forward)
    tracer.wrap(autodiff.Tape, "backward", "autodiff.backward",
                observe=_backward)
    tracer.wrap(training.AmsGrad, "step", "training.optimizer")


def _per(total, count, scale=1.0):
    return scale * total / count if count else 0.0


def _median_or_zero(values):
    return median(values) if values else 0.0


def body_metrics(tracer):
    """Per-layer metrics of one traced body (one root span named BODY)."""
    t = tracer
    tri_s = t.busy("geometry.triangulate")
    fwd_s = t.busy("network.forward")
    return {
        "syndata.load_dataset.busy_s": t.busy("syndata.load_dataset"),
        "geometry.triangulate.busy_s": tri_s,
        "geometry.triangulate.calls": t.calls("geometry.triangulate"),
        "geometry.triangulate.us_per_sample": _per(
            tri_s, t.count("geometry.triangulate.samples"), 1e6),
        "geometry.triangulate.skipped": (
            t.count("geometry.triangulate.skipped")
            + t.count("geometry.triangulate.errors")),
        "geometry.procrustes.busy_s": t.busy("geometry.procrustes"),
        "geometry.procrustes.calls": t.calls("geometry.procrustes"),
        "network.forward.busy_s": fwd_s,
        "network.forward.calls": t.calls("network.forward"),
        "network.forward.us_per_sample": _per(
            fwd_s, t.count("network.forward.poses"), 1e6),
        "network.forward.tape_nodes": _median_or_zero(
            t.values["network.forward.tape_nodes"]),
        "network.checkpoint.save_s": t.busy("network.checkpoint.save"),
        "network.checkpoint.load_s": t.busy("network.checkpoint.load"),
        "network.checkpoint.bytes": _median_or_zero(
            t.values["network.checkpoint.bytes"]),
        "autodiff.backward.busy_s": t.busy("autodiff.backward"),
        "autodiff.backward.calls": t.calls("autodiff.backward"),
        "autodiff.backward.tape_nodes": _median_or_zero(
            t.values["autodiff.backward.tape_nodes"]),
        "losses.total.busy_s": t.busy("losses.total"),
        "losses.total.calls": t.calls("losses.total"),
        "training.epoch.busy_s": _median_or_zero(
            t.durations("training.epoch")),
        "training.epoch.self_s": _median_or_zero(
            t.self_durations("training.epoch")),
        "training.optimizer.busy_s": t.busy("training.optimizer"),
        "training.fit.self_s": t.self_time("training.fit"),
        "training.samples_dropped": t.count("training.samples_dropped"),
        "metrics.evaluate.self_s": t.self_time("metrics.evaluate"),
        "trace.coverage_frac": 1.0 - _per(t.self_time(BODY), t.busy(BODY)),
    }
