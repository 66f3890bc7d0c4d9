"""The benchmark workloads: set-up, timed body and output checks.

Every workload is a closed loop with one caller in one process. Inputs are
synthesised from the workload seed during set-up and written to files; the
timed body sees only those files. Module functions are always called through their module
(`training.fit`, not an imported name) so that the traced run's wrappers
are the functions the body calls.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from cvpose import autodiff, geometry, metrics, network, syndata, training
from cvpose.errors import DegenerateGeometry, NonPositiveDepth
from cvpose.graph import default_topology

# Sizes fixed by the roadmap: sigma = 5 px, C = 128, B = 256, cam1:cam2.
N_SAMPLES = 1024
SIGMA_PX = 5.0
CHANNELS = 128
BATCH = 256
TRI_MODE = "dual"
# `train` fits this many epochs per body: backward, forward, checkpoint
# writes and triangulation all carry a real share of the time, and a body is
# short enough to repeat several times in one run.
TRAIN_EPOCHS = 1
# The eval checkpoint comes from a short fit on data of a fixed seed,
# so every workload seed scores the same weights. Its small batches keep the
# fit's tape, and so set-up, from setting the workload's peak memory.
CKPT_SEED = 20210522
CKPT_SAMPLES = 128
CKPT_EPOCHS = 1
CKPT_BATCH = 32
# Training samples re-scored after the train body for its quality metrics.
TRAIN_QUALITY_SAMPLES = 512
# Frames that `eval` also refines one at a time, after the timed bodies.
SINGLE_FRAME_CHECK = 128
# Single-frame and batched refinement differ only in BLAS summation order.
REFINE_TOL_MM = 1e-6


@dataclass
class Outcome:
    """What one timed body produced; `wall_s` and `probe_s` (the speed
    probe's median loop time during it) are filled in by the caller."""
    samples: int            # work units done (samples x epochs on train)
    attempted: int
    failed: int
    rate_s: float | None = None   # time the rate is over; None: the body
    wall_s: float = 0.0
    probe_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Check:
    """Named pass/fail output checks collected for the result line."""

    def __init__(self):
        self.results = []

    def __call__(self, name, ok, detail=""):
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self):
        return all(r["ok"] for r in self.results)


def _write_inputs(work, seed, n_samples):
    """Synthesise a dataset and its rig from `seed`; return the file paths
    and the samples."""
    topo = default_topology()
    cfg = syndata.SyntheticConfig(n_samples=n_samples, seed=seed,
                                  sigma_px=SIGMA_PX)
    samples, _, assumed = syndata.generate_dataset(cfg, topo)
    data = os.path.join(work, f"data_{seed}.jsonl")
    rig = os.path.join(work, "rig.jsonl")
    syndata.save_dataset(data, samples, topo)
    geometry.save_rig(rig, assumed)
    return data, rig, samples


def _train_config(epochs, seed, batch_size=BATCH):
    return training.TrainConfig(epochs=epochs, seed=seed, batch_size=batch_size,
                                channels=CHANNELS, tri_mode=TRI_MODE)


def _warm_up(samples, topo, backward):
    """One forward (and backward) pass at the full batch size, so the first
    timed body does not pay for growing the allocator's heap. `backward`
    matches the body: a forward-only workload must not raise its peak
    memory in set-up."""
    model = network.CVUGCN(topo, _train_config(1, 0).network())
    poses = samples[:BATCH]
    x1, x2 = (np.vstack([s.joints_3d_gt[s.pair[v]] for s in poses])
              for v in (0, 1))
    tape = autodiff.Tape()
    try:
        X1, X2, _ = model.refine_batch(tape, x1, x2)
        if backward:
            tape.backward(autodiff.reduce_sum(autodiff.add(X1, X2)))
    finally:
        tape.release()


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _finite(check, values):
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    check("quality metrics finite", not bad, ", ".join(bad))


def _quality(report):
    return {"mpjpe_tri_mm": report.mpjpe_tri_mm,
            "mpjpe_refined_mm": report.mpjpe_refined_mm,
            "pmpjpe_refined_mm": report.pmpjpe_refined_mm}


# -- train ---------------------------------------------------------------------

def setup_train(work, seed):
    topo = default_topology()
    data, rig, samples = _write_inputs(_fresh(work), seed, N_SAMPLES)
    _warm_up(samples, topo, backward=True)
    return {"topo": topo, "data": data, "rig": rig,
            "out": os.path.join(work, "run"),
            "config": _train_config(TRAIN_EPOCHS, seed)}


def body_train(st):
    samples = syndata.load_dataset(st["data"], st["topo"])
    cameras = geometry.load_rig(st["rig"])
    cfg = st["config"]
    t0 = st["clock"]()
    result = training.fit(samples, [], cameras, cfg, topo=st["topo"],
                          out_dir=st["out"])
    fit_s = st["clock"]() - t0
    n = len(samples)
    return Outcome(samples=n * cfg.epochs, attempted=n,
                   failed=len(result.skipped_train), rate_s=fit_s,
                   extra={"result": result})


def finish_train(st, outcomes, check):
    result = outcomes[-1].extra["result"]
    topo = st["topo"]
    ckpt = network.load_checkpoint(result.checkpoints["final"], topo)
    same = (set(ckpt.weights.arrays) == set(result.weights.arrays)
            and all(np.array_equal(ckpt.weights[k], result.weights[k])
                    for k in result.weights.arrays))
    check("final checkpoint reloads bit for bit", same)
    histories = [o.extra["result"].history for o in outcomes]
    check("repeated fits give identical loss histories",
          all(h == histories[0] for h in histories))
    samples = syndata.load_dataset(st["data"], topo)[:TRAIN_QUALITY_SAMPLES]
    cameras = geometry.load_rig(st["rig"])
    model = network.CVUGCN(topo, ckpt.config, weights=ckpt.weights)
    report = metrics.evaluate(samples, cameras, model, topo,
                              batch_size=BATCH, tri_mode=TRI_MODE)
    quality = _quality(report)
    quality["final_loss"] = result.history[-1]
    _finite(check, quality)
    return quality


# -- eval ----------------------------------------------------------------------

def setup_eval(work, seed):
    _fresh(work)
    data, rig, samples = _write_inputs(work, seed, N_SAMPLES)
    ckpt_data, _, _ = _write_inputs(work, CKPT_SEED, CKPT_SAMPLES)
    topo = default_topology()
    fit = training.fit(syndata.load_dataset(ckpt_data, topo), [],
                       geometry.load_rig(rig),
                       _train_config(CKPT_EPOCHS, CKPT_SEED, CKPT_BATCH),
                       topo=topo,
                       out_dir=os.path.join(work, "ckpt"))
    _warm_up(samples, topo, backward=False)
    return {"topo": topo, "data": data, "rig": rig,
            "ckpt": fit.checkpoints["final"]}


def body_eval(st):
    topo = st["topo"]
    ckpt = network.load_checkpoint(st["ckpt"], topo)
    model = network.CVUGCN(topo, ckpt.config, weights=ckpt.weights)
    samples = syndata.load_dataset(st["data"], topo)
    cameras = geometry.load_rig(st["rig"])
    report = metrics.evaluate(samples, cameras, model, topo,
                              batch_size=BATCH, tri_mode=TRI_MODE)
    return Outcome(samples=report.n_samples, attempted=len(samples),
                   failed=len(report.skipped),
                   extra={"report": report})


def finish_eval(st, outcomes, check):
    reports = [o.extra["report"] for o in outcomes]
    first = reports[0]
    check("every sample evaluated or listed as skipped",
          all(r.n_samples + len(r.skipped) == o.attempted
              for r, o in zip(reports, outcomes)))
    check("repeated evaluations agree exactly",
          all(r.per_sample_refined == first.per_sample_refined
              and r.per_sample_tri == first.per_sample_tri for r in reports))
    _check_single_frame(st, check)
    quality = _quality(first)
    _finite(check, quality)
    return quality


def _check_single_frame(st, check):
    """Refine the first SINGLE_FRAME_CHECK frames one at a time, as an
    online caller would (`triangulate_pose`, then `CVUGCN.refine`), and
    compare their per-sample errors with the batched `metrics.evaluate`."""
    topo = st["topo"]
    ckpt = network.load_checkpoint(st["ckpt"], topo)
    model = network.CVUGCN(topo, ckpt.config, weights=ckpt.weights)
    samples = syndata.load_dataset(st["data"], topo)[:SINGLE_FRAME_CHECK]
    cameras = geometry.load_rig(st["rig"])
    by_id = {c.cam_id: c for c in cameras}
    single = []
    for s in samples:
        a, b = s.pair
        try:
            p1, p2 = geometry.triangulate_pose(
                geometry.Pose2D(s.joints_2d[a], view_id=a),
                geometry.Pose2D(s.joints_2d[b], view_id=b),
                by_id[a], by_id[b], mode=TRI_MODE)
        except (DegenerateGeometry, NonPositiveDepth):
            continue
        r1, r2 = model.refine(p1, p2)
        tri = ref = 0.0
        for tri_pose, ref_pose in ((p1, r1), (p2, r2)):
            gt = geometry.Pose3D(s.joints_3d_gt[tri_pose.frame_id],
                                 frame_id=tri_pose.frame_id)
            tri += metrics.mpjpe(tri_pose, gt) / 2.0
            ref += metrics.mpjpe(ref_pose, gt) / 2.0
        single.append((tri, ref))
    report = metrics.evaluate(samples, cameras, model, topo,
                              batch_size=BATCH, tri_mode=TRI_MODE)
    diff = max((max(abs(o[0] - t), abs(o[1] - r)) for o, t, r in zip(
        single, report.per_sample_tri, report.per_sample_refined)),
        default=math.inf)
    check("single-frame refine matches batched evaluate",
          len(single) == report.n_samples and diff <= REFINE_TOL_MM,
          f"max |diff| {diff:.3g} mm, tolerance {REFINE_TOL_MM:g} mm")


@dataclass(frozen=True)
class Workload:
    setup: object
    body: object
    finish: object


WORKLOADS = {
    "train": Workload(setup_train, body_train, finish_train),
    "eval": Workload(setup_eval, body_eval, finish_eval),
}
