"""Pinhole cameras, rigid transforms, triangulation and Procrustes alignment.

Conventions: millimetres for 3D coordinates and translations, pixels for 2D.
A camera maps a world point X through x = K (R X + t); the first camera of a
pair acts as the world frame for triangulated points. The DLT null vectors
and the Procrustes rotation both come from numpy's LAPACK SVD
(`np.linalg.svd`), which takes stacks of small matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCloud,
    DegenerateGeometry,
    MissingField,
    NonPositiveDepth,
    SchemaError,
    ShapeMismatch,
)
from .jsonl import read_records

# Numerical guards, all in the units of the quantity they test.
DEPTH_EPS = 1e-6          # mm, minimum positive depth for projection
BASELINE_EPS = 1e-6       # mm, minimum camera separation for triangulation
SIGMA_GAP_EPS = 1e-12     # relative gap between the two smallest singular values
ORTHO_TOL = 1e-9          # max deviation of R^T R from identity
TRI_MODES = ("dual", "single")   # triangulate_pose modes


def _as_matrix(a, shape, name):
    out = np.asarray(a, dtype=np.float64)
    if out.shape != shape:
        raise ShapeMismatch(f"{name}: expected shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name}: non-finite entries")
    return out


def _check_rotation(R, what="rotation"):
    err = np.max(np.abs(R.T @ R - np.eye(3)))
    if err > ORTHO_TOL:
        raise ValueError(f"{what} is not orthonormal (deviation {err:.3e})")
    if np.linalg.det(R) < 0:
        raise ValueError(f"{what} has negative determinant (reflection)")


@dataclass
class CameraModel:
    """Calibrated pinhole camera.

    K is the 3x3 intrinsic matrix (upper triangular, positive focal lengths),
    (R, t) the world-to-camera extrinsics, and (width, height) the image size
    in pixels.
    """

    cam_id: str
    K: np.ndarray
    R: np.ndarray
    t: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        self.K = _as_matrix(self.K, (3, 3), "K")
        self.R = _as_matrix(self.R, (3, 3), "R")
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(self.t)):
            raise ValueError("t: non-finite entries")
        if abs(self.K[1, 0]) > 0 or abs(self.K[2, 0]) > 0 or abs(self.K[2, 1]) > 0:
            raise ValueError("K must be upper triangular")
        if self.K[0, 0] <= 0 or self.K[1, 1] <= 0:
            raise ValueError("K must have positive focal lengths")
        if abs(self.K[2, 2] - 1.0) > 1e-12:
            raise ValueError("K[2,2] must be 1")
        _check_rotation(self.R, f"camera {self.cam_id!r} R")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    def center(self):
        """Camera centre in world coordinates, -R^T t."""
        return -self.R.T @ self.t


@dataclass
class RigidTransform:
    """Euclidean motion X -> R X + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = _as_matrix(self.R, (3, 3), "R")
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        _check_rotation(self.R, "transform R")

    @staticmethod
    def identity():
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points):
        """Apply to an (n, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeMismatch(f"points: expected (n, 3), got {pts.shape}")
        return pts @ self.R.T + self.t

    def compose(self, other):
        """self o other: apply `other` first, then `self`."""
        return RigidTransform(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self):
        return RigidTransform(self.R.T, -self.R.T @ self.t)


def relative_transform(src: CameraModel, dst: CameraModel) -> RigidTransform:
    """Transform taking src-camera coordinates to dst-camera coordinates."""
    R = dst.R @ src.R.T
    return RigidTransform(R, dst.t - R @ src.t)


@dataclass
class Pose2D:
    """Per-joint pixel coordinates, (J, 2), tagged with the view they live in."""

    joints: np.ndarray
    view_id: str

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 2 or self.joints.shape[1] != 2:
            raise ShapeMismatch(f"joints: expected (J, 2), got {self.joints.shape}")
        if not np.all(np.isfinite(self.joints)):
            raise ValueError("joints: non-finite entries")


@dataclass
class Pose3D:
    """Per-joint 3D coordinates in mm, (J, 3), tagged with a coordinate frame."""

    joints: np.ndarray
    frame_id: str

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 2 or self.joints.shape[1] != 3:
            raise ShapeMismatch(f"joints: expected (J, 3), got {self.joints.shape}")
        if not np.all(np.isfinite(self.joints)):
            raise ValueError("joints: non-finite entries")


def project(cam: CameraModel, pose: Pose3D) -> Pose2D:
    """Project camera-frame joints to pixels.

    The pose must already be expressed in the camera frame, so only K is
    applied. Raises NonPositiveDepth naming the first joint with Z below
    the depth guard.
    """
    X = pose.joints
    _require_depth(X, cam.cam_id)
    h = X @ cam.K.T
    return Pose2D(h[:, :2] / h[:, 2:3], view_id=cam.cam_id)


def _require_depth(X, view_id):
    """Raise NonPositiveDepth naming the first joint of the (J, 3) camera-frame
    array X whose depth is at or below the guard."""
    bad = np.nonzero(X[:, 2] <= DEPTH_EPS)[0]
    if bad.size:
        j = int(bad[0])
        raise NonPositiveDepth(
            f"joint {j} has depth {X[j, 2]:.6g} mm in view {view_id!r}", joint=j
        )


def _normalized_coords(K, uv):
    """Map pixel coordinates through K^{-1}, analytically.

    uv is (n, 2); returns (n, 2) normalized image coordinates (unit depth).
    """
    fx, s, cx = K[0, 0], K[0, 1], K[0, 2]
    fy, cy = K[1, 1], K[1, 2]
    y = (uv[:, 1] - cy) / fy
    x = (uv[:, 0] - cx - s * y) / fx
    return np.stack([x, y], axis=1)


# ---------------------------------------------------------------------------
# Triangulation.


def _dlt_systems(u1, u2, cam1, cam2):
    """Stack the 4x4 DLT systems for J joint correspondences.

    Rows come from the cross product of normalized image coordinates with
    the projective mapping of [I|0] (first camera) and [R|t] (relative
    motion to the second camera).
    """
    n1 = _normalized_coords(cam1.K, u1)
    n2 = _normalized_coords(cam2.K, u2)
    rel = relative_transform(cam1, cam2)
    J = n1.shape[0]
    P2 = np.hstack([rel.R, rel.t[:, None]])  # (3, 4)
    A = np.zeros((J, 4, 4))
    # First camera: [I|0] keeps the rows sparse.
    A[:, 0, 0] = -1.0
    A[:, 0, 2] = n1[:, 0]
    A[:, 1, 1] = -1.0
    A[:, 1, 2] = n1[:, 1]
    A[:, 2, :] = n2[:, 0:1] * P2[2] - P2[0]
    A[:, 3, :] = n2[:, 1:2] * P2[2] - P2[1]
    return A, rel


def _solve_dlt(A):
    """Least singular vectors of a stack of 4x4 systems, dehomogenized.

    Returns (points (J, 3), gap (J,), bad_w (J,)): gap is the relative
    separation of the two smallest singular values and bad_w flags points at
    infinity, both used for degeneracy detection. The sign of a singular
    vector is arbitrary and cancels in the division by w.
    """
    _, sig, vt = np.linalg.svd(A)
    x = vt[:, 3, :]
    scale = np.maximum(sig[:, 0], 1.0)
    gap = (sig[:, 2] - sig[:, 3]) / scale
    w = x[:, 3]
    xyz_abs = np.max(np.abs(x[:, :3]), axis=1)
    bad_w = np.abs(w) <= 1e-12 * np.maximum(1.0, xyz_abs)
    pts = np.empty((x.shape[0], 3))
    safe_w = np.where(bad_w, 1.0, w)
    pts[:] = x[:, :3] / safe_w[:, None]
    return pts, gap, bad_w


def triangulate_joint(u1, u2, cam1: CameraModel, cam2: CameraModel):
    """Triangulate one joint from its pixel coordinates in two views.

    Returns the 3D point (mm) in the first camera's frame. Raises
    DegenerateGeometry when the baseline vanishes or the linear system
    does not isolate a unique direction, and NonPositiveDepth when the
    point lies at or behind the first camera.
    """
    return _triangulate_arrays(np.reshape(u1, (1, 2)), np.reshape(u2, (1, 2)),
                               cam1, cam2)[0]


def _triangulate_arrays(u1, u2, cam1, cam2):
    """Triangulate J correspondences into cam1's frame. Internal fast path."""
    A, rel = _dlt_systems(u1, u2, cam1, cam2)
    if np.linalg.norm(rel.t) < BASELINE_EPS:
        raise DegenerateGeometry("camera baseline is numerically zero")
    pts, gap, bad_w = _solve_dlt(A)
    bad = np.nonzero((gap < SIGMA_GAP_EPS) | bad_w)[0]
    if bad.size:
        j = int(bad[0])
        raise DegenerateGeometry(f"joint {j}: DLT system has no unique solution", joint=j)
    _require_depth(pts, cam1.cam_id)
    return pts


def triangulate_pose(x1: Pose2D, x2: Pose2D, cam1: CameraModel, cam2: CameraModel,
                     mode="dual"):
    """Triangulate a full pose from two views.

    mode "dual" solves the DLT once per ordering (each camera in turn as the
    frame origin) and returns (pose_in_cam1, pose_in_cam2). mode "single"
    solves only with cam1 as origin and maps the result into cam2's frame
    with the relative transform. Either pose having a joint at or behind
    its camera raises NonPositiveDepth.
    """
    if x1.joints.shape != x2.joints.shape:
        raise ShapeMismatch(
            f"views disagree on joint count: {x1.joints.shape} vs {x2.joints.shape}"
        )
    if mode not in TRI_MODES:
        raise ValueError(f"unknown triangulation mode {mode!r}")
    X1 = _triangulate_arrays(x1.joints, x2.joints, cam1, cam2)
    if mode == "dual":
        X2 = _triangulate_arrays(x2.joints, x1.joints, cam2, cam1)
    else:
        X2 = relative_transform(cam1, cam2).apply(X1)
        _require_depth(X2, cam2.cam_id)
    return (Pose3D(X1, frame_id=cam1.cam_id), Pose3D(X2, frame_id=cam2.cam_id))


# ---------------------------------------------------------------------------
# Procrustes alignment.


def procrustes_align(pred: Pose3D, gt: Pose3D) -> Pose3D:
    """Similarity-align pred onto gt (closed form, least squares optimal).

    Finds scale s, rotation R and translation t minimizing
    ||s pred R + t - gt||_F and returns the aligned pose in gt's frame.
    A collapsed ground truth raises DegenerateCloud; a collapsed prediction
    aligns to the gt centroid (scale 0).
    """
    P = pred.joints
    G = gt.joints
    if P.shape != G.shape:
        raise ShapeMismatch(f"joint counts differ: {P.shape} vs {G.shape}")
    mu_p = P.mean(axis=0)
    mu_g = G.mean(axis=0)
    P0 = P - mu_p
    G0 = G - mu_g
    norm_g = np.linalg.norm(G0)
    norm_p = np.linalg.norm(P0)
    scale_ref = max(np.linalg.norm(G), 1.0)
    if norm_g <= 1e-12 * scale_ref:
        raise DegenerateCloud("ground-truth cloud collapses to a point")
    if norm_p <= 1e-12 * max(np.linalg.norm(P), 1.0):
        return Pose3D(np.tile(mu_g, (P.shape[0], 1)), frame_id=gt.frame_id)
    H = P0.T @ G0
    U, sig, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(U @ Vt))
    if d == 0.0:
        d = 1.0
    D = np.ones(3)
    D[2] = d
    R = (U * D) @ Vt  # maps centred pred onto centred gt: P0 @ R
    s = float((sig * D).sum()) / float(norm_p**2)
    return Pose3D(s * (P0 @ R) + mu_g, frame_id=gt.frame_id)


# ---------------------------------------------------------------------------
# Rig files: one JSON object per line, header first.

RIG_SCHEMA = "rig-v1"


def save_rig(path, cameras):
    """Write cameras to a rig file, one JSON record per line."""
    lines = [json.dumps({"schema": RIG_SCHEMA})]
    for cam in cameras:
        lines.append(json.dumps({
            "id": cam.cam_id,
            "K": [float(x) for x in cam.K.reshape(-1)],
            "R": [float(x) for x in cam.R.reshape(-1)],
            "t": [float(x) for x in cam.t],
            "width": int(cam.width),
            "height": int(cam.height),
        }))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_rig(path):
    """Read a rig file, returning cameras in file order.

    Malformed JSON, missing fields or invalid rotations raise SchemaError
    tagged with the offending line number.
    """
    lineno, _, records = read_records(path, RIG_SCHEMA, "rig")
    cams = []
    seen = set()
    for lineno, rec in records:
        for key in ("id", "K", "R", "t", "width", "height"):
            if key not in rec:
                raise MissingField(f"line {lineno}: camera record lacks {key!r}",
                                   line=lineno)
        try:
            cam = CameraModel(
                cam_id=str(rec["id"]),
                K=np.asarray(rec["K"], dtype=np.float64).reshape(3, 3),
                R=np.asarray(rec["R"], dtype=np.float64).reshape(3, 3),
                t=np.asarray(rec["t"], dtype=np.float64),
                width=int(rec["width"]),
                height=int(rec["height"]),
            )
        except (ValueError, ShapeMismatch) as exc:
            raise SchemaError(f"line {lineno}: {exc}", line=lineno)
        if cam.cam_id in seen:
            raise SchemaError(f"line {lineno}: duplicate camera id {cam.cam_id!r}",
                              line=lineno)
        seen.add(cam.cam_id)
        cams.append(cam)
    if not cams:
        raise SchemaError("rig file declares no cameras", line=lineno)
    return cams
