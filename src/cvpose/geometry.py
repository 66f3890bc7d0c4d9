"""Pinhole cameras, rigid transforms, triangulation and Procrustes alignment.

Conventions: millimetres for 3D coordinates and translations, pixels for 2D.
A camera maps a world point X through x = K (R X + t); the first camera of a
pair acts as the world frame for triangulated points.

Both solvers work on stacks. `triangulate_stack` triangulates N poses of
one camera pair with a one-sided Jacobi SVD of the (N*J, 4, 4) DLT
systems per ordering, run elementwise across the stack, and reports per
sample the error it fails with; `procrustes_align_stack` aligns N pose
pairs with one `np.linalg.svd` call on the (N, 3, 3) cross-covariance
stack. `triangulate_pose` is the N = 1 call for a single pose. Both SVDs
solve each matrix of a stack on its own (the Jacobi rotations of a system
depend on that system alone, and LAPACK takes the matrices one by one), so
a pose's result does not depend on what it is stacked with.
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
SIGMA_GAP_EPS = 1e-12     # relative gap between the two smallest singular values
JACOBI_TOL = 1e-15        # column cosine at or below which Jacobi skips a pair
JACOBI_SWEEPS = 30        # Jacobi sweep cap; a system still rotating then fails
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


def _dlt_systems(n1, n2, rel):
    """Stack the 4x4 DLT systems for n normalized correspondences.

    Rows come from the cross product of normalized image coordinates with
    the projective mapping of [I|0] (first camera) and [R|t] (relative
    motion `rel` to the second camera).
    """
    P2 = np.hstack([rel.R, rel.t[:, None]])  # (3, 4)
    A = np.zeros((n1.shape[0], 4, 4))
    # First camera: [I|0] keeps the rows sparse.
    A[:, 0, 0] = -1.0
    A[:, 0, 2] = n1[:, 0]
    A[:, 1, 1] = -1.0
    A[:, 1, 2] = n1[:, 1]
    A[:, 2, :] = n2[:, 0:1] * P2[2] - P2[0]
    A[:, 3, :] = n2[:, 1:2] * P2[2] - P2[1]
    return A


# The column pairs of one cyclic Jacobi sweep over a 4x4 system.
_JACOBI_PAIRS = tuple((p, q) for p in range(3) for q in range(p + 1, 4))

# Codes of `_solve_dlt`'s failure array; 0 means solved.
_NO_UNIQUE_SOLUTION = 1
_NOT_CONVERGED = 2


def _jacobi_svd(A):
    """Singular values and right singular vectors of a stack of 4x4 systems.

    One-sided (Hestenes) Jacobi: rotate pairs of columns of A, and the same
    columns of V = I, until the columns of A V are mutually orthogonal. The
    column norms of A V are then the singular values and the columns of V
    the right singular vectors; small singular values come out to high
    relative accuracy (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 1992).
    Each column is a (4, n) array and every step is elementwise over the
    stack. A pair is skipped per system once its cosine |gamma|/sqrt(alpha
    beta) is at most JACOBI_TOL, or once either column's norm is at most
    JACOBI_TOL**2 times the Frobenius norm of A. Such a column is the null
    direction of an exactly singular system: each rotation would shrink it
    further without end, and V's column for it is already good to that
    residual. A skipped rotation is exactly the identity and the sweeps
    stop when no system rotates, so the rotations a system gets depend on
    that system alone.

    Returns (sig (n, 4), V (n, 4, 4), unconverged (n,)): sig in no
    particular order, V[:, :, k] the right singular vector of sig[:, k],
    and unconverged marking the systems still rotating in sweep
    JACOBI_SWEEPS.
    """
    n = A.shape[0]
    a = list(np.ascontiguousarray(A.transpose(2, 1, 0)))
    v = list(np.zeros((4, 4, n)))
    for k in range(4):
        v[k][k] = 1.0
    floor = JACOBI_TOL**4 * sum((x * x).sum(axis=0) for x in a)
    rotating = np.ones(n, dtype=bool)
    for _ in range(JACOBI_SWEEPS):
        rotating = np.zeros(n, dtype=bool)
        for p, q in _JACOBI_PAIRS:
            alpha = (a[p] * a[p]).sum(axis=0)
            beta = (a[q] * a[q]).sum(axis=0)
            gamma = (a[p] * a[q]).sum(axis=0)
            rotate = ((np.abs(gamma) > JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta))
                      & (alpha > floor) & (beta > floor))
            if not rotate.any():
                continue
            rotating |= rotate
            # tan of the angle that makes columns p and q orthogonal, the
            # smaller root; hypot keeps a large zeta from overflowing zeta**2.
            zeta = (beta - alpha) / np.where(rotate, 2.0 * gamma, 1.0)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            t = np.where(rotate, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            for x in (a, v):
                x[p], x[q] = c * x[p] - s * x[q], s * x[p] + c * x[q]
        if not rotating.any():
            break
    sig = np.sqrt(np.stack([(x * x).sum(axis=0) for x in a], axis=1))
    return sig, np.stack(v).transpose(2, 1, 0), rotating


def _solve_dlt(A):
    """Least singular vectors of a stack of 4x4 systems, dehomogenized.

    The singular vectors come from `_jacobi_svd`. Returns (points (n, 3),
    failure (n,)): failure is _NOT_CONVERGED for a system the Jacobi sweeps
    did not settle within JACOBI_SWEEPS, _NO_UNIQUE_SOLUTION when the two
    smallest singular values are not separated (relative gap below
    SIGMA_GAP_EPS) or the solution lies at infinity, and 0 otherwise. The
    sign of a singular vector is arbitrary and cancels in the division by w.
    """
    sig, V, unconverged = _jacobi_svd(A)
    order = np.argsort(sig, axis=1)
    sig = np.take_along_axis(sig, order, axis=1)   # ascending
    x = V[np.arange(len(V)), :, order[:, 0]]
    scale = np.maximum(sig[:, 3], 1.0)
    gap = (sig[:, 1] - sig[:, 0]) / scale
    w = x[:, 3]
    xyz_abs = np.max(np.abs(x[:, :3]), axis=1)
    bad_w = np.abs(w) <= 1e-12 * np.maximum(1.0, xyz_abs)
    pts = x[:, :3] / np.where(bad_w, 1.0, w)[:, None]
    failure = np.where((gap < SIGMA_GAP_EPS) | bad_w, _NO_UNIQUE_SOLUTION, 0)
    failure[unconverged] = _NOT_CONVERGED
    return pts, failure


def _solve_ordering(n_a, n_b, cam_a, cam_b, shape):
    """DLT with cam_a as the frame origin for (n, 2) normalized coordinates.

    Returns (points reshaped to `shape`, `_solve_dlt`'s failure codes
    shaped like `shape` minus its last axis), or (NaN points, None) when
    the baseline vanishes; the SVD is then skipped.
    """
    rel = relative_transform(cam_a, cam_b)
    if np.linalg.norm(rel.t) < BASELINE_EPS:
        return np.full(shape, np.nan), None
    pts, failure = _solve_dlt(_dlt_systems(n_a, n_b, rel))
    return pts.reshape(shape), failure.reshape(shape[:-1])


def _first_error(n, steps):
    """The error sample n fails with: the first rule it breaks, in order."""
    for X, failure, view_id in steps:
        if failure is None:
            return DegenerateGeometry("camera baseline is numerically zero")
        bad = np.nonzero(failure[n])[0]
        if bad.size:
            j = int(bad[0])
            if failure[n, j] == _NOT_CONVERGED:
                why = f"Jacobi SVD did not converge in {JACOBI_SWEEPS} sweeps"
            else:
                why = "DLT system has no unique solution"
            return DegenerateGeometry(f"joint {j}: {why}", joint=j)
        err = _depth_error(X[n], view_id)
        if err is not None:
            return err
    return None


def triangulate_stack(u1, u2, cam1: CameraModel, cam2: CameraModel,
                      mode="dual"):
    """Triangulate N poses seen by one camera pair in one stacked DLT solve.

    u1 and u2 are (N, J, 2) pixel arrays of the two views. mode "dual"
    solves the DLT once per ordering (each camera in turn as the frame
    origin); mode "single" solves only with cam1 as origin and maps the
    result into cam2's frame with the relative transform. Each ordering
    is one `_jacobi_svd` over all N*J systems, elementwise across them.

    Returns (X1, X2, errors): the (N, J, 3) poses in cam1's and cam2's
    frames, and per sample None or the error it fails with. A sample fails
    with DegenerateGeometry when the baseline vanishes or a joint's system
    has no unique solution or its Jacobi SVD does not converge within
    JACOBI_SWEEPS sweeps, and with NonPositiveDepth when a joint lies at
    or behind either camera; the first failure in the order cam1's solve,
    cam1's depth, cam2's solve, cam2's depth is reported, with its joint.
    A failed sample's rows carry no meaning.
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
    shape = (N, J, 3)
    n1 = _normalized_coords(cam1.K, u1.reshape(-1, 2))
    n2 = _normalized_coords(cam2.K, u2.reshape(-1, 2))
    X1, fail1 = _solve_ordering(n1, n2, cam1, cam2, shape)
    if mode == "dual":
        X2, fail2 = _solve_ordering(n2, n1, cam2, cam1, shape)
    else:
        # A stacked matmul runs one (J, 3) product per pose, exactly as for
        # a single pose.
        rel = relative_transform(cam1, cam2)
        X2 = X1 @ rel.R.T + rel.t
        fail2 = np.zeros((N, J), dtype=int)
    steps = ((X1, fail1, cam1.cam_id), (X2, fail2, cam2.cam_id))
    failed = np.zeros(N, dtype=bool)
    for X, failure, _ in steps:
        if failure is None:
            failed[:] = True
            break
        failed |= failure.any(axis=1) | (X[..., 2] <= DEPTH_EPS).any(axis=1)
    errors = [None] * N
    for n in np.nonzero(failed)[0]:
        errors[n] = _first_error(n, steps)
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
