"""Weakly supervised objectives over refined pose pairs.

All losses accept batched stacks: a Value of shape (B*J, 3) holds B poses
of J joints. Reprojection error is measured in pixels against clean 2D
annotations; the remaining terms live in millimetres or are dimensionless.
Sums run over joints, bones and views without averaging; trainers divide
by the batch size themselves.

Bone vectors and left-minus-right length differences are constant linear
maps applied to each pose (autodiff.block_left_matmul). The cross-view
transform t12 is rigid, an isometry, so each cross-view term is computed
in one direction and doubled: the other direction gives the same sum.

The objective is their weighted sum, with the fixed weights LOSS_WEIGHTS:
1 for reprojection, symmetry and transform consistency, 0.1 for bone
direction.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch
from .geometry import DEPTH_EPS, CameraModel, RigidTransform


# Weight of each term in total_loss, in the order it sums them.
LOSS_WEIGHTS = {"reproj": 1.0, "sym": 1.0, "transform": 1.0, "bonedir": 0.1}


def _bone_vecs(X, topo):
    """(B*K, 3) bone vectors parent - child of B stacked poses: each pose's
    rows times the (K, J) incidence matrix, +1 at a bone's parent and -1 at
    its child."""
    D = np.zeros((topo.n_bones, topo.n_joints))
    for k, (parent, child) in enumerate(topo.bones):
        D[k, parent] = 1.0
        D[k, child] = -1.0
    return ad.block_left_matmul(D, X)


def behind_camera(X, cam: CameraModel, n_joints):
    """(B,) bool: which of the B stacked poses in X, a (B*J, 3) Value in
    cam's frame, has a joint whose projective depth is at or below the
    guard of perspective_divide, so that reprojection_loss would raise
    NonPositiveDepth on it. NaN depths do not count: they reach the loss.
    """
    z = (X.data @ np.asarray(cam.K.T, dtype=np.float64))[:, 2]
    return (z <= DEPTH_EPS).reshape(-1, n_joints).any(axis=1)


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
    """Sum over views and left bones of |left length - right length| in mm.

    Left minus right is each pose's K bone lengths times a constant (L, K)
    matrix, +1 at a left bone and -1 at its mirror.
    """
    left = topo.left_bones()
    S = np.zeros((len(left), topo.n_bones))
    for i, k in enumerate(left):
        S[i, k] = 1.0
        S[i, topo.mirror_bone[k]] = -1.0
    total = None
    for X in (X1, X2):
        dl = ad.block_left_matmul(S, ad.norm_rows(_bone_vecs(X, topo)))
        term = ad.reduce_sum(ad.norm_rows(dl))   # rows are 1-wide: |diff|
        total = term if total is None else ad.add(total, term)
    return total


def transform_consistency_loss(X1, X2, t12: RigidTransform):
    """Cross-view agreement: X1 vs the transform of X2 into view 1 and the
    reverse, summed over joints (mm).

    t12 maps view-2 coordinates into view 1. It is rigid, and a rigid
    motion keeps distances, so the reverse direction's distance
    |X2 - t12^-1 X1| equals |t12 X2 - X1|: the sum over both directions is
    the forward sum doubled.
    """
    if X1.shape != X2.shape:
        raise ShapeMismatch(f"pose stacks differ: {X1.shape} vs {X2.shape}")
    x1_from_2 = ad.affine_rows(X2, t12.R.T, t12.t)
    return ad.scale(ad.reduce_sum(ad.norm_rows(ad.sub(X1, x1_from_2))), 2.0)


def bone_direction_loss(X1, X2, t12: RigidTransform, topo):
    """Sum over views and bones of 1 - cos(angle) between each view's bones
    and the other view's bones carried over by t12. Zero-length bones
    contribute cosine 1, hence zero loss.

    A bone vector is a difference of two joints, so t12's translation
    cancels and only its rotation R carries it. R keeps angles, so view 2's
    bones against R^T times view 1's make the same cosines as view 1's
    against R times view 2's: the sum over both views is the latter doubled.
    """
    if X1.shape != X2.shape:
        raise ShapeMismatch(f"pose stacks differ: {X1.shape} vs {X2.shape}")
    b2_in_1 = ad.affine_rows(_bone_vecs(X2, topo), t12.R.T)
    cos = ad.row_cosine(_bone_vecs(X1, topo), b2_in_1)
    ones = X1.tape.leaf(np.ones(cos.shape))
    return ad.scale(ad.reduce_sum(ad.sub(ones, cos)), 2.0)


def total_loss(X1, X2, y1, y2, cam1, cam2, t12, topo):
    """Sum of the four objectives weighted by LOSS_WEIGHTS.

    Returns (total, parts) where parts maps term names to their raw
    (unweighted) scalar Values.
    """
    parts = {
        "reproj": reprojection_loss(X1, X2, y1, y2, cam1, cam2),
        "sym": symmetry_loss(X1, X2, topo),
        "transform": transform_consistency_loss(X1, X2, t12),
        "bonedir": bone_direction_loss(X1, X2, t12, topo),
    }
    terms = [ad.scale(parts[k], w) for k, w in LOSS_WEIGHTS.items()]
    return functools.reduce(ad.add, terms), parts
