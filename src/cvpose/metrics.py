"""Evaluation metrics and the batched evaluation protocol.

Errors are reported in millimetres. MPJPE compares poses in a shared
camera frame; P-MPJPE first similarity-aligns the prediction onto the
ground truth, removing global rotation, translation and scale.

The metrics work on stacks: `mpjpe_rows` and `p_mpjpe_rows` give one error
per (J, 3) pose of a stack, the latter through the batched Umeyama
alignment `geometry.procrustes_align_stack`. `mpjpe` and `p_mpjpe` are the
one-pose forms. `evaluate` triangulates once, refines row slices of the
(n, 2, J, 3) coarse stack (`training.pair_batches`), scores each batch as
(B, 2, J, 3) stacks (both views at once) and reports errors per sample, per
joint, per camera pair, as percentiles over samples and overall.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FrameMismatch, MissingGroundTruth, ShapeMismatch
from .files import atomic_write, json_text
from .geometry import Pose3D, procrustes_align_stack
from .network import CONV_DTYPE, CVUGCN
from .training import pair_batches, precompute_coarse

from . import autodiff as ad


def joint_errors(pred, gt):
    """Per-joint Euclidean distances of two (..., J, 3) stacks: (..., J)."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"joint arrays differ: {pred.shape} vs {gt.shape}")
    return np.linalg.norm(pred - gt, axis=-1)


def mpjpe_rows(pred, gt):
    """MPJPE of every pose of two (..., J, 3) stacks: (...)."""
    return joint_errors(pred, gt).mean(axis=-1)


def p_mpjpe_rows(pred, gt):
    """MPJPE after similarity alignment, per pose of two (..., J, 3) stacks."""
    return mpjpe_rows(procrustes_align_stack(pred, gt), gt)


def mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """Mean per-joint position error; both poses must share a frame."""
    if pred.frame_id != gt.frame_id:
        raise FrameMismatch(
            f"poses live in different frames: {pred.frame_id!r} vs {gt.frame_id!r}")
    return float(joint_errors(pred.joints, gt.joints).mean())


def p_mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """MPJPE after similarity (Procrustes) alignment of pred onto gt."""
    return float(p_mpjpe_rows(pred.joints, gt.joints))


# EvalReport's mean-error fields -> the per-sample errors they average.
_MEAN_FIELDS = {"mpjpe_tri_mm": "tri", "mpjpe_refined_mm": "refined",
                "pmpjpe_tri_mm": "tri_p", "pmpjpe_refined_mm": "refined_p"}


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
    # {"tri": [J floats], "refined": [J floats]}: per joint, the mean over
    # the evaluated samples and both views.
    per_joint_mpjpe_mm: dict = field(default_factory=dict)
    per_joint_pmpjpe_mm: dict = field(default_factory=dict)
    # {"camA+camB": {"n": int, and the four mean-error fields}}: the
    # evaluated samples of each camera pair, pairs by first appearance.
    per_pair_mm: dict = field(default_factory=dict)
    # {"tri": {"p50", "p90", "p99"}, "refined": {...}}: percentiles of the
    # per-sample MPJPE (linear interpolation).
    mpjpe_percentiles_mm: dict = field(default_factory=dict)

    def to_json(self):
        return json_text(asdict(self), indent=2, sort_keys=True)

    def save(self, path):
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")


def _refine_batches(samples, coarse, model, batch_size):
    """Refine every sample in `coarse` in same-pair batches, no updates.

    Yields (rows, coarse, refined, gt) per batch: rows index `coarse`, in
    sample order; the three stacks are (B, 2, J, 3), view 1 then view 2,
    each in its camera's frame. Every sample must carry ground truth.
    """
    for pair, rows, batch in pair_batches(samples, coarse.index, batch_size):
        x = coarse.poses[rows]
        tape = ad.Tape(conv_dtype=CONV_DTYPE, record=False)
        X1, X2, _ = model.refine_batch(tape, x[:, 0].reshape(-1, 3),
                                       x[:, 1].reshape(-1, 3))
        refined = np.stack([X.data.reshape(x[:, 0].shape) for X in (X1, X2)],
                           axis=1)
        gt = np.stack([[s.joints_3d_gt[v] for v in pair] for s in batch])
        yield rows, x, refined, gt


def mean_or_nan(xs):
    """float mean of xs; NaN, with no warning, when xs is empty."""
    return float(np.mean(xs)) if np.size(xs) else float("nan")


def require_ground_truth(samples):
    """Raise MissingGroundTruth, naming the first sample without 3D ground
    truth, before any work is done on samples that cannot be scored."""
    for s in samples:
        if not s.joints_3d_gt:
            raise MissingGroundTruth(
                f"sample {s.sample_id} carries no ground truth")


def evaluate(samples, cameras, model: CVUGCN, topo, batch_size=256,
             tri_mode="dual") -> EvalReport:
    """Score triangulated and refined poses against per-view ground truth.

    Per-sample errors average the two views; report-level numbers average
    the per-sample errors, per-pair numbers average those of the pair's
    samples, per-joint errors average samples and views, and percentiles
    are taken over the per-sample MPJPE.
    Samples whose triangulation fails are skipped and listed. Ground truth
    is read here and nowhere else.
    """
    require_ground_truth(samples)
    coarse, skipped = precompute_coarse(samples, cameras, mode=tri_mode)
    J = topo.n_joints
    n = len(coarse.index)
    # (samples, views, joints) errors, in sample order.
    errs = {k: np.empty((n, 2, J))
            for k in ("tri", "refined", "tri_p", "refined_p")}
    for rows, tri, ref, gt in _refine_batches(samples, coarse, model,
                                              batch_size):
        for name, pred in (("tri", tri), ("refined", ref)):
            errs[name][rows] = joint_errors(pred, gt)
            errs[name + "_p"][rows] = joint_errors(
                procrustes_align_stack(pred, gt), gt)
    per_sample = {}
    for k, e in errs.items():
        per_view = e.mean(axis=-1)
        per_sample[k] = (per_view[:, 0] + per_view[:, 1]) / 2.0

    def means(rows=slice(None)):
        return {f: mean_or_nan(per_sample[k][rows])
                for f, k in _MEAN_FIELDS.items()}

    def per_joint(a, b):
        if not n:
            return {"tri": [float("nan")] * J, "refined": [float("nan")] * J}
        return {"tri": errs[a].mean(axis=(0, 1)).tolist(),
                "refined": errs[b].mean(axis=(0, 1)).tolist()}

    def percentiles(xs):
        return {f"p{q}": float(np.percentile(xs, q)) if n else float("nan")
                for q in (50, 90, 99)}

    pairs = ["+".join(samples[i].pair) for i in coarse.index]
    per_pair = {}
    for pair in dict.fromkeys(pairs):
        rows = [r for r, p in enumerate(pairs) if p == pair]
        per_pair[pair] = {"n": len(rows), **means(rows)}

    return EvalReport(
        n_samples=n,
        **means(),
        per_sample_tri=per_sample["tri"].tolist(),
        per_sample_refined=per_sample["refined"].tolist(),
        skipped=list(skipped),
        per_joint_mpjpe_mm=per_joint("tri", "refined"),
        per_joint_pmpjpe_mm=per_joint("tri_p", "refined_p"),
        per_pair_mm=per_pair,
        mpjpe_percentiles_mm={k: percentiles(per_sample[k])
                              for k in ("tri", "refined")},
    )
