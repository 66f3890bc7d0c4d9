"""Weakly supervised objectives over refined pose pairs.

All losses accept batched stacks: a Value of shape (B*J, 3) holds B poses
of J joints. Reprojection error is measured in pixels against clean 2D
annotations; the remaining terms live in millimetres or are dimensionless.
Sums run over joints, bones and views without averaging; trainers divide
by the batch size themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch
from .geometry import CameraModel, RigidTransform


@dataclass
class LossWeights:
    reproj: float = 1.0
    sym: float = 1.0
    transform: float = 1.0
    bonedir: float = 0.1


def _batch_count(X, J, what):
    rows = X.shape[0]
    if rows % J:
        raise ShapeMismatch(f"{what}: {rows} rows is not a multiple of J={J}")
    return rows // J


def _tiled(indices, B, block):
    """Row indices for gathering `indices` out of each of B stacked blocks."""
    idx = np.asarray(indices, dtype=np.int64)
    return (np.arange(B, dtype=np.int64)[:, None] * block + idx[None, :]).ravel()


def _bone_vecs(X, topo, B):
    """(B*K, 3) bone vectors parent - child of B stacked poses."""
    bones = np.asarray(topo.bones, dtype=np.int64)
    par = ad.gather_rows(X, _tiled(bones[:, 0], B, topo.n_joints))
    chi = ad.gather_rows(X, _tiled(bones[:, 1], B, topo.n_joints))
    return ad.sub(par, chi)


def _bone_lengths(X, topo, B):
    """(B*K, 1) bone lengths of B stacked poses."""
    return ad.norm_rows(_bone_vecs(X, topo, B))


def behind_camera(X, cam: CameraModel, n_joints):
    """(B,) bool: which of the B stacked poses in X, a (B*J, 3) Value in
    cam's frame, has a joint whose projective depth is at or below the
    guard of perspective_divide, so that reprojection_loss would raise
    NonPositiveDepth on it. NaN depths do not count: they reach the loss.
    """
    z = (X.data @ np.asarray(cam.K.T, dtype=np.float64))[:, 2]
    return (z <= ad.DEPTH_EPS).reshape(-1, n_joints).any(axis=1)


def reprojection_loss(X1, X2, y1, y2, cam1: CameraModel, cam2: CameraModel):
    """Sum over views and joints of the pixel distance between the
    projected refinement and the 2D annotation.

    X1/X2 are (B*J, 3) Values in their own camera frames (mm); y1/y2 are
    matching (B*J, 2) pixel arrays.
    """
    total = None
    for X, y, cam in ((X1, y1, cam1), (X2, y2, cam2)):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (X.shape[0], 2):
            raise ShapeMismatch(f"annotations {y.shape} do not match pose {X.shape}")
        px = ad.perspective_divide(ad.affine_rows(X, cam.K.T))
        term = ad.reduce_sum(ad.norm_rows(ad.sub(px, X.tape.leaf(y))))
        total = term if total is None else ad.add(total, term)
    return total


def symmetry_loss(X1, X2, topo):
    """Sum over views and left bones of |left length - right length| in mm."""
    left = np.asarray(topo.left_bones(), dtype=np.int64)
    right = np.asarray([topo.mirror_bone[int(k)] for k in left], dtype=np.int64)
    K = topo.n_bones
    total = None
    for X in (X1, X2):
        B = _batch_count(X, topo.n_joints, "symmetry_loss")
        lengths = _bone_lengths(X, topo, B)
        dl = ad.sub(ad.gather_rows(lengths, _tiled(left, B, K)),
                    ad.gather_rows(lengths, _tiled(right, B, K)))
        term = ad.reduce_sum(ad.norm_rows(dl))   # rows are 1-wide: |diff|
        total = term if total is None else ad.add(total, term)
    return total


def transform_consistency_loss(X1, X2, t12: RigidTransform):
    """Cross-view agreement: X1 vs the transform of X2 into view 1 and the
    reverse, summed over joints (mm).

    t12 maps view-2 coordinates into view 1. Each direction is counted
    once; a formulation that counts both twice is w_transform doubled.
    """
    if X1.shape != X2.shape:
        raise ShapeMismatch(f"pose stacks differ: {X1.shape} vs {X2.shape}")
    inv = t12.inverse()
    x1_from_2 = ad.affine_rows(X2, t12.R.T, t12.t)
    x2_from_1 = ad.affine_rows(X1, inv.R.T, inv.t)
    fwd = ad.reduce_sum(ad.norm_rows(ad.sub(X1, x1_from_2)))
    bwd = ad.reduce_sum(ad.norm_rows(ad.sub(X2, x2_from_1)))
    return ad.add(fwd, bwd)


def bone_direction_loss(X1, X2, t12: RigidTransform, topo):
    """Sum over bones of 1 - cos(angle) between each view's bones and the
    other view's bones carried over by t12. Zero-length bones contribute
    cosine 1, hence zero loss.
    """
    if X1.shape != X2.shape:
        raise ShapeMismatch(f"pose stacks differ: {X1.shape} vs {X2.shape}")
    B = _batch_count(X1, topo.n_joints, "bone_direction_loss")
    inv = t12.inverse()
    x1_from_2 = ad.affine_rows(X2, t12.R.T, t12.t)
    x2_from_1 = ad.affine_rows(X1, inv.R.T, inv.t)
    total = None
    for a, b in ((X1, x1_from_2), (X2, x2_from_1)):
        cos = ad.row_cosine(_bone_vecs(a, topo, B), _bone_vecs(b, topo, B))
        ones = a.tape.leaf(np.ones(cos.shape))
        term = ad.reduce_sum(ad.sub(ones, cos))
        total = term if total is None else ad.add(total, term)
    return total


def total_loss(X1, X2, y1, y2, cam1, cam2, t12, topo, weights: LossWeights):
    """Weighted sum of the four objectives.

    Returns (total, parts) where parts maps term names to their raw
    (unweighted) scalar Values.
    """
    parts = {
        "reproj": reprojection_loss(X1, X2, y1, y2, cam1, cam2),
        "sym": symmetry_loss(X1, X2, topo),
        "transform": transform_consistency_loss(X1, X2, t12),
        "bonedir": bone_direction_loss(X1, X2, t12, topo),
    }
    total = ad.add_n([
        ad.scale(parts["reproj"], weights.reproj),
        ad.scale(parts["sym"], weights.sym),
        ad.scale(parts["transform"], weights.transform),
        ad.scale(parts["bonedir"], weights.bonedir),
    ])
    return total, parts
