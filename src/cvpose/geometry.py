"""Pinhole cameras, rigid transforms, triangulation and Procrustes alignment.

Conventions: millimetres for 3D coordinates and translations, pixels for 2D.
A camera maps a world point X through x = K (R X + t); the first camera of a
pair acts as the world frame for triangulated points.

Both solvers work on stacks. `triangulate_stack` triangulates N poses of
one camera pair: it moves each joint's two detections onto the epipolar
constraint by the least squared pixel displacement (Lindstrom, CVPR 2010),
the reprojection-error optimum under isotropic pixel noise, and then
intersects the corrected rays, each step elementwise across the (N*J)
stack; it reports per sample the error it fails with.
`procrustes_align_stack` aligns N pose pairs with one `np.linalg.svd` call
on the (N, 3, 3) cross-covariance stack. `triangulate_pose` is the N = 1
call for a single pose. Neither solve mixes the entries of a stack (LAPACK
takes the matrices one by one), so a pose's result does not depend on what
it is stacked with.
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
from .files import (atomic_write, is_finite_number, read_records,
                    refuse_unknown_keys)

# Numerical guards, all in the units of the quantity they test.
DEPTH_EPS = 1e-6          # mm, least depth to project; autodiff's guard too
BASELINE_EPS = 1e-6       # mm, minimum camera separation for triangulation
DEGENERATE_EPS = 1e-12    # relative gradient size at an epipole; sine between
                          # two rays that meet at infinity
CORRECTION_STEPS = 6      # epipolar correction steps; see _correct
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
    # An entry of R far outside [-1, 1] overflows R^T R to inf, or to nan
    # where an inf cancels another; either deviation is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.max(np.abs(R.T @ R - np.eye(3)))
    if not err <= ORTHO_TOL:
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


@dataclass
class RigidTransform:
    """Euclidean motion X -> R X + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = _as_matrix(self.R, (3, 3), "R")
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        _check_rotation(self.R, "transform R")


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
    err = _depth_error(X, cam.cam_id)
    if err is not None:
        raise err
    h = X @ cam.K.T
    return Pose2D(h[:, :2] / h[:, 2:3], view_id=cam.cam_id)


def _depth_error(X, view_id):
    """NonPositiveDepth naming the first joint of the (J, 3) camera-frame
    array X whose depth is at or below the guard, or None."""
    bad = np.nonzero(X[:, 2] <= DEPTH_EPS)[0]
    if not bad.size:
        return None
    j = int(bad[0])
    return NonPositiveDepth(
        f"joint {j} has depth {X[j, 2]:.6g} mm in view {view_id!r}", joint=j)


# ---------------------------------------------------------------------------
# Triangulation.

# Codes of `_triangulate_rays`' failure array; 0 means solved.
_NO_CORRECTION = 1
_AT_INFINITY = 2
_FAILURES = {_NO_CORRECTION: "epipolar correction is undefined or not finite",
             _AT_INFINITY: "corrected rays are parallel (point at infinity)"}


def _affine(M, x, y):
    """The rows of M applied to the homogeneous points (x, y, 1), one array
    per row. Every term is elementwise, as is every step of the solve, so a
    point's result does not depend on what it is stacked with."""
    return [M[i, 0] * x + M[i, 1] * y + M[i, 2] for i in range(len(M))]


def _correct(x1, y1, x2, y2, F):
    """Move each pair of detections onto the epipolar constraint
    (x2, y2, 1) F (x1, y1, 1)^T = 0 by the least total squared
    displacement, which is the reprojection-error optimum under isotropic
    noise of one size in both views.

    Lindstrom's iteration ("Triangulation made easy", CVPR 2010): each
    step takes the constraint's gradients at the current corrected points
    as the two displacements' directions, measured from the detections,
    and solves the constraint, a quadratic along them, for the step
    length. A step shrinks the distance to the optimum by about the
    correction's size relative to the coordinates' scale. Lindstrom's
    niter2 stops after two steps, which on short random baselines left
    points up to 5e-3 mm from the optimum; CORRECTION_STEPS = 6 steps left
    8e-11 mm.

    Returns (x1, y1, x2, y2, ok): the corrected points, and ok false where
    the correction is undefined: where both detections sit at their
    epipoles, so that both gradients vanish (every point of the baseline
    then reprojects exactly), or where the quadratic has no root to take.
    """
    E = F[:2, :2]
    f = _affine(F, x1, y1)
    c = x2 * f[0] + y2 * f[1] + f[2]
    n1 = _affine(F.T[:2], x2, y2)       # gradient of c in view 1
    n2 = f[:2]                          # gradient of c in view 2
    ok = (n1[0] * n1[0] + n1[1] * n1[1] + n2[0] * n2[0] + n2[1] * n2[1]
          > DEGENERATE_EPS**2 * (F * F).sum()
          * (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 + 2.0))
    d1 = d2 = (0.0, 0.0)
    for _ in range(CORRECTION_STEPS):
        m1 = [n1[i] - E[0, i] * d2[0] - E[1, i] * d2[1] for i in range(2)]
        m2 = [n2[i] - E[i, 0] * d1[0] - E[i, 1] * d1[1] for i in range(2)]
        # c - 2 b mu + a mu^2 = 0 at the root nearer zero, in the form
        # that does not cancel.
        a = sum(m2[i] * (E[i, 0] * m1[0] + E[i, 1] * m1[1]) for i in range(2))
        b = 0.5 * (m1[0] * n1[0] + m1[1] * n1[1]
                   + m2[0] * n2[0] + m2[1] * n2[1])
        disc = b * b - a * c
        den = b + np.sqrt(np.where(disc > 0.0, disc, 0.0))
        ok &= (disc >= 0.0) & (den > 0.0)
        mu = c / np.where(ok, den, 1.0)
        d1 = [mu * m for m in m1]
        d2 = [mu * m for m in m2]
    return x1 - d1[0], y1 - d1[1], x2 - d2[0], y2 - d2[1], ok


def _conditioned_inverse(K, s):
    """The inverse of K for pixels centred on its principal point and
    divided by s."""
    Kc = K / np.array([[s], [s], [1.0]])
    Kc[:2, 2] = 0.0
    return np.linalg.inv(Kc)


def _triangulate_rays(u1, u2, cam1, cam2, rel):
    """Optimal two-view triangulation of (n, 2) pixel pairs.

    The correction runs in conditioned coordinates: each view's pixels are
    centred on its principal point and divided by the mean focal length of
    the pair. One scale for both views keeps the pixel metric isotropic
    and equal in both, and the fundamental matrix (of a unit baseline) is
    then well conditioned. The depths solve z1 R r1 + t = z2 r2 for the
    corrected rays r1, r2, which meet.

    Returns (X1, X2, failure): (n, 3) points in cam1's and cam2's frames,
    each on its own camera's corrected ray, and per point a failure code,
    0 when solved.
    """
    s = (cam1.K[0, 0] + cam1.K[1, 1] + cam2.K[0, 0] + cam2.K[1, 1]) / 4.0
    K1i = _conditioned_inverse(cam1.K, s)
    K2i = _conditioned_inverse(cam2.K, s)
    tx, ty, tz = rel.t / np.linalg.norm(rel.t)
    t_cross = np.array([[0.0, -tz, ty], [tz, 0.0, -tx], [-ty, tx, 0.0]])
    p1 = (u1 - cam1.K[:2, 2]) / s
    p2 = (u2 - cam2.K[:2, 2]) / s
    x1, y1, x2, y2, ok = _correct(p1[:, 0], p1[:, 1], p2[:, 0], p2[:, 1],
                                  K2i.T @ t_cross @ rel.R @ K1i)
    # (3, n) rays; a sum over axis 0 adds the three rows elementwise.
    r1 = np.stack([*_affine(K1i[:2], x1, y1), np.ones_like(x1)])
    r2 = np.stack([*_affine(K2i[:2], x2, y2), np.ones_like(x2)])
    Rr1 = np.stack(_affine(rel.R, r1[0], r1[1]))
    w = np.cross(r2, Rr1, axis=0)
    ww = (w * w).sum(axis=0)
    parallel = ww <= (DEGENERATE_EPS**2 * (r2 * r2).sum(axis=0)
                      * (Rr1 * Rr1).sum(axis=0))
    ww = np.where(parallel, 1.0, ww)
    t = rel.t[:, None]
    z1 = -(np.cross(r2, t, axis=0) * w).sum(axis=0) / ww
    z2 = -(np.cross(Rr1, t, axis=0) * w).sum(axis=0) / ww
    X1, X2 = (z1 * r1).T, (z2 * r2).T
    finite = np.isfinite(X1).all(axis=1) & np.isfinite(X2).all(axis=1)
    failure = np.where(parallel, _AT_INFINITY, 0)
    failure[~(ok & finite)] = _NO_CORRECTION
    return X1, X2, failure


def _first_error(n, failure, views):
    """The error sample n fails with: the first rule it breaks, in order."""
    bad = np.nonzero(failure[n])[0]
    if bad.size:
        j = int(bad[0])
        return DegenerateGeometry(f"joint {j}: {_FAILURES[failure[n, j]]}",
                                  joint=j)
    for X, view_id in views:
        err = _depth_error(X[n], view_id)
        if err is not None:
            return err
    return None


def triangulate_stack(u1, u2, cam1: CameraModel, cam2: CameraModel,
                      mode="dual"):
    """Triangulate N poses seen by one camera pair in one elementwise solve.

    u1 and u2 are (N, J, 2) pixel arrays of the two views. Each joint's
    pair of detections is corrected onto the epipolar constraint by the
    least squared pixel displacement (`_correct`), the optimum of the
    reprojection error under isotropic pixel noise, and the corrected
    rays are intersected. Mode "dual" places each view's pose on its own
    camera's ray; mode "single" maps view 1's pose into cam2's frame with
    the relative transform. The rays meet, so the two modes agree up to
    rounding.

    Returns (X1, X2, errors): the (N, J, 3) poses in cam1's and cam2's
    frames, and per sample None or the error it fails with. A sample fails
    with DegenerateGeometry when the baseline vanishes, or when a joint's
    correction is undefined or not finite (both detections at their
    epipoles) or its corrected rays are parallel (a point at infinity); and
    with NonPositiveDepth when a joint lies at or behind either camera. The
    first failure in the order the solve, cam1's depth, cam2's depth is
    reported, with its joint. A failed sample's rows carry no meaning.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.shape != u2.shape:
        raise ShapeMismatch(f"views disagree on shape: {u1.shape} vs {u2.shape}")
    if u1.ndim != 3 or u1.shape[2] != 2:
        raise ShapeMismatch(f"pixels: expected (N, J, 2), got {u1.shape}")
    if mode not in TRI_MODES:
        raise ValueError(f"unknown triangulation mode {mode!r}")
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
        raise ValueError("joints: non-finite entries")
    N, J, _ = u1.shape
    rel = relative_transform(cam1, cam2)
    if np.linalg.norm(rel.t) < BASELINE_EPS:
        nan = np.full((N, J, 3), np.nan)
        return nan, nan.copy(), [
            DegenerateGeometry("camera baseline is numerically zero")
            for _ in range(N)]
    X1, X2, failure = _triangulate_rays(u1.reshape(-1, 2), u2.reshape(-1, 2),
                                        cam1, cam2, rel)
    X1 = X1.reshape(N, J, 3)
    failure = failure.reshape(N, J)
    if mode == "dual":
        X2 = X2.reshape(N, J, 3)
    else:
        # A stacked matmul runs one (J, 3) product per pose, exactly as for
        # a single pose.
        X2 = X1 @ rel.R.T + rel.t
    failed = (failure.any(axis=1) | (X1[..., 2] <= DEPTH_EPS).any(axis=1)
              | (X2[..., 2] <= DEPTH_EPS).any(axis=1))
    views = ((X1, cam1.cam_id), (X2, cam2.cam_id))
    errors = [None] * N
    for n in np.nonzero(failed)[0]:
        errors[n] = _first_error(n, failure, views)
    return X1, X2, errors


def triangulate_pose(x1: Pose2D, x2: Pose2D, cam1: CameraModel, cam2: CameraModel,
                     mode="dual"):
    """Triangulate a full pose from two views: `triangulate_stack` for N = 1.

    Returns (pose_in_cam1, pose_in_cam2) and raises the sample's
    DegenerateGeometry or NonPositiveDepth, tagged with the joint.
    """
    X1, X2, errors = triangulate_stack(x1.joints[None], x2.joints[None],
                                       cam1, cam2, mode=mode)
    if errors[0] is not None:
        raise errors[0]
    return (Pose3D(X1[0], frame_id=cam1.cam_id), Pose3D(X2[0], frame_id=cam2.cam_id))


# ---------------------------------------------------------------------------
# Procrustes alignment.


def procrustes_align_stack(pred, gt):
    """Similarity-align every pose of pred onto the matching pose of gt.

    pred and gt are (..., J, 3) stacks of N poses. Per pose, finds scale s,
    rotation R and translation t minimizing ||s pred R + t - gt||_F
    (Umeyama, TPAMI 1991): one SVD of the (N, 3, 3) cross-covariance stack,
    with the determinant sign fix that rules out reflections. Returns the
    aligned poses, shaped like pred. A collapsed ground truth anywhere in
    the stack raises DegenerateCloud naming its flat row; a collapsed
    prediction aligns to its gt centroid (scale 0).
    """
    P = np.asarray(pred, dtype=np.float64)
    G = np.asarray(gt, dtype=np.float64)
    if P.shape != G.shape:
        raise ShapeMismatch(f"joint counts differ: {P.shape} vs {G.shape}")
    if P.ndim < 2 or P.shape[-1] != 3:
        raise ShapeMismatch(f"poses: expected (..., J, 3), got {P.shape}")
    shape = P.shape
    P = P.reshape(-1, *shape[-2:])
    G = G.reshape(P.shape)
    mu_p = P.mean(axis=1, keepdims=True)
    mu_g = G.mean(axis=1, keepdims=True)
    P0 = P - mu_p
    G0 = G - mu_g
    norm_p = np.linalg.norm(P0, axis=(1, 2))
    scale_g = np.maximum(np.linalg.norm(G, axis=(1, 2)), 1.0)
    flat_g = np.nonzero(np.linalg.norm(G0, axis=(1, 2)) <= 1e-12 * scale_g)[0]
    if flat_g.size:
        raise DegenerateCloud(
            f"ground-truth cloud {int(flat_g[0])} collapses to a point")
    flat_p = norm_p <= 1e-12 * np.maximum(np.linalg.norm(P, axis=(1, 2)), 1.0)
    H = np.swapaxes(P0, 1, 2) @ G0
    U, sig, Vt = np.linalg.svd(H)
    D = np.ones_like(sig)
    D[:, 2] = np.where(np.linalg.det(U @ Vt) < 0, -1.0, 1.0)
    R = (U * D[:, None, :]) @ Vt  # maps centred pred onto centred gt: P0 @ R
    s = (sig * D).sum(axis=1) / np.where(flat_p, 1.0, norm_p**2)
    s[flat_p] = 0.0
    return (s[:, None, None] * (P0 @ R) + mu_g).reshape(shape)


# ---------------------------------------------------------------------------
# Rig files: one JSON object per line, header first.

RIG_SCHEMA = "rig-v1"
# The keys of a camera record, in the order save_rig writes them.
_RIG_KEYS = ("id", "K", "R", "t", "width", "height")


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
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_rig(path):
    """Read a rig file, returning cameras in file order.

    Malformed JSON, missing, unknown or wrongly typed fields (id must be a
    JSON string, K, R and t lists of finite JSON numbers, width and height
    JSON integers) or invalid rotations raise SchemaError tagged with the
    offending line number.
    """
    lineno, header, records = read_records(path, RIG_SCHEMA, "rig")
    refuse_unknown_keys(lineno, header, {"schema"})
    cams = []
    seen = set()
    for lineno, rec in records:
        for key in _RIG_KEYS:
            if key not in rec:
                raise MissingField(f"line {lineno}: camera record lacks {key!r}",
                                   line=lineno)
        refuse_unknown_keys(lineno, rec, _RIG_KEYS)
        if not isinstance(rec["id"], str):
            raise SchemaError(f"line {lineno}: id must be a JSON string, "
                              f"got {rec['id']!r}", line=lineno)
        for key in ("K", "R", "t"):
            if not (isinstance(rec[key], list)
                    and all(map(is_finite_number, rec[key]))):
                raise SchemaError(f"line {lineno}: {key} must be a list of "
                                  f"finite JSON numbers", line=lineno)
        for key in ("width", "height"):
            if type(rec[key]) is not int:   # a bool is an int subclass
                raise SchemaError(f"line {lineno}: {key} must be a JSON "
                                  f"integer, got {rec[key]!r}", line=lineno)
        try:
            cam = CameraModel(
                cam_id=rec["id"],
                K=np.asarray(rec["K"], dtype=np.float64).reshape(3, 3),
                R=np.asarray(rec["R"], dtype=np.float64).reshape(3, 3),
                t=np.asarray(rec["t"], dtype=np.float64),
                width=rec["width"],
                height=rec["height"],
            )
        except (ValueError, TypeError, ShapeMismatch) as exc:
            raise SchemaError(f"line {lineno}: {exc}", line=lineno)
        if cam.cam_id in seen:
            raise SchemaError(f"line {lineno}: duplicate camera id {cam.cam_id!r}",
                              line=lineno)
        seen.add(cam.cam_id)
        cams.append(cam)
    if not cams:
        raise SchemaError("rig file declares no cameras", line=lineno)
    return cams
