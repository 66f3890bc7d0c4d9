"""Evaluation metrics and the batched evaluation protocol.

Errors are reported in millimetres. MPJPE compares poses in a shared
camera frame; P-MPJPE first similarity-aligns the prediction onto the
ground truth, removing global rotation, translation and scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameMismatch, MissingGroundTruth, ShapeMismatch
from .geometry import Pose3D, procrustes_align
from .graph import default_topology
from .network import CVUGCN
from .training import _pair_batches, precompute_coarse

from . import autodiff as ad


def mpjpe_arrays(pred, gt) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"joint arrays differ: {pred.shape} vs {gt.shape}")
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


def mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """Mean per-joint position error; both poses must share a frame."""
    if pred.frame_id != gt.frame_id:
        raise FrameMismatch(
            f"poses live in different frames: {pred.frame_id!r} vs {gt.frame_id!r}")
    return mpjpe_arrays(pred.joints, gt.joints)


def p_mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """MPJPE after similarity (Procrustes) alignment of pred onto gt."""
    aligned = procrustes_align(pred, gt)
    return mpjpe_arrays(aligned.joints, gt.joints)


@dataclass
class EvalReport:
    n_samples: int
    mpjpe_tri_mm: float
    mpjpe_refined_mm: float
    pmpjpe_tri_mm: float
    pmpjpe_refined_mm: float
    per_sample_tri: list = field(default_factory=list)
    per_sample_refined: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def to_json(self):
        return json.dumps({
            "n_samples": self.n_samples,
            "mpjpe_tri_mm": self.mpjpe_tri_mm,
            "mpjpe_refined_mm": self.mpjpe_refined_mm,
            "pmpjpe_tri_mm": self.pmpjpe_tri_mm,
            "pmpjpe_refined_mm": self.pmpjpe_refined_mm,
            "per_sample_tri": self.per_sample_tri,
            "per_sample_refined": self.per_sample_refined,
            "skipped": self.skipped,
        }, indent=2, sort_keys=True)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def _refine_batches(samples, coarse, model, batch_size):
    """Refined (X1, X2) per sample id, deterministic order, no updates."""
    J = model.topo.n_joints
    usable = [i for i, s in enumerate(samples) if s.sample_id in coarse]
    refined = {}
    for _, idxs in _pair_batches(samples, usable, batch_size):
        ids = [samples[i].sample_id for i in idxs]
        tape = ad.Tape()
        try:
            X1, X2, _ = model.refine_batch(
                tape, np.vstack([coarse[sid][0] for sid in ids]),
                np.vstack([coarse[sid][1] for sid in ids]))
        finally:
            tape.release()
        r1, r2 = X1.data, X2.data
        for j, sid in enumerate(ids):
            refined[sid] = (r1[j * J:(j + 1) * J].copy(),
                            r2[j * J:(j + 1) * J].copy())
    return refined


def evaluate(samples, cameras, model: CVUGCN, topo=None, batch_size=256,
             tri_mode="dual") -> EvalReport:
    """Score triangulated and refined poses against per-view ground truth.

    Per-sample errors average the two views; report-level numbers average
    the per-sample errors. Samples whose triangulation fails are skipped
    and listed. Ground truth is read here and nowhere else.
    """
    topo = topo or model.topo or default_topology()
    for s in samples:
        if not s.joints_3d_gt:
            raise MissingGroundTruth(
                f"sample {s.sample_id} carries no ground truth")
    coarse, skipped = precompute_coarse(samples, cameras, topo, mode=tri_mode)
    refined = _refine_batches(samples, coarse, model, batch_size)

    tri_errs, ref_errs = [], []
    tri_p, ref_p = [], []
    for s in samples:
        if s.sample_id not in coarse:
            continue
        views = s.pair
        t_mm, r_mm, t_pm, r_pm = 0.0, 0.0, 0.0, 0.0
        for v, tri_x, ref_x in zip(views, coarse[s.sample_id],
                                   refined[s.sample_id]):
            gt = Pose3D(s.joints_3d_gt[v], frame_id=v)
            tri_pose = Pose3D(tri_x, frame_id=v)
            ref_pose = Pose3D(ref_x, frame_id=v)
            t_mm += mpjpe(tri_pose, gt)
            r_mm += mpjpe(ref_pose, gt)
            t_pm += p_mpjpe(tri_pose, gt)
            r_pm += p_mpjpe(ref_pose, gt)
        tri_errs.append(t_mm / 2.0)
        ref_errs.append(r_mm / 2.0)
        tri_p.append(t_pm / 2.0)
        ref_p.append(r_pm / 2.0)

    def mean(xs):
        return float(np.mean(xs)) if xs else float("nan")

    return EvalReport(
        n_samples=len(tri_errs),
        mpjpe_tri_mm=mean(tri_errs),
        mpjpe_refined_mm=mean(ref_errs),
        pmpjpe_tri_mm=mean(tri_p),
        pmpjpe_refined_mm=mean(ref_p),
        per_sample_tri=[float(x) for x in tri_errs],
        per_sample_refined=[float(x) for x in ref_errs],
        skipped=list(skipped),
    )
