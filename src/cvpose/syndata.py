"""Synthetic two-camera pose data.

A symmetric bone template is articulated by forward kinematics with random
per-joint rotations, placed in a workspace box, and projected into every
camera of a rig. Pixel noise models detector error; an optional extrinsic
perturbation yields the *assumed* rig handed to downstream consumers while
ground truth and projections use the *true* rig, reproducing the effect of
imperfect calibration.

World and camera frames share orientation conventions (y grows downward),
so the template's head points toward negative y.

Datasets are stored as data-v2 JSONL files: a header line
{"schema": "data-v2", "n_joints": J, "n_samples": N}, then one record per
sample with its id, its two camera ids under "views", and each keypoint
array field as the base64 of one (2, J, d) little-endian float64 block,
row 0 for the first view. The file carries the arrays' own bytes rather
than decimal text, so a save and a load give back every value exactly,
and loading is a base64 decode per field instead of parsing 17-digit
numbers one by one.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingField, PoseOutOfView, SchemaError, ShapeMismatch
from .geometry import CameraModel, Pose3D, project
from .graph import SkeletonTopology, default_topology
from .jsonl import read_records

MIN_DEPTH_MM = 100.0
RIG_SEED_SALT = 999983


@dataclass
class SyntheticConfig:
    n_samples: int = 1000
    seed: int = 0
    sigma_px: float = 0.0
    perturb_rot_deg: float = 0.0
    perturb_trans_mm: float = 0.0
    workspace_mm: tuple = (300.0, 200.0, 300.0)   # half extents about the origin
    angle_scale: float = 1.0
    root_yaw_deg: float = 180.0
    max_resample: int = 50
    include_gt: bool = True


# Rest offsets (mm) of each joint relative to its parent for the default
# 17-joint skeleton; left and right mirror in x, arms slightly raised.
# Proportions are human, the size is a quarter-scale articulated figure
# (about 43 cm tall): the default workspace is a desk-sized box observed
# from 3 m, and a figure this size moves inside it without leaving frame.
REST_OFFSETS_MM = np.array([
    [0.0, 0.0, 0.0],        # pelvis
    [-27.5, 0.0, 0.0],      # right_hip
    [0.0, 110.0, 0.0],      # right_knee
    [0.0, 107.5, 0.0],      # right_ankle
    [27.5, 0.0, 0.0],       # left_hip
    [0.0, 110.0, 0.0],      # left_knee
    [0.0, 107.5, 0.0],      # left_ankle
    [0.0, -57.5, 0.0],      # spine
    [0.0, -57.5, 0.0],      # thorax
    [0.0, -27.5, 0.0],      # neck
    [0.0, -30.0, 0.0],      # head
    [37.5, 5.0, 0.0],       # left_shoulder
    [62.5, 15.0, 0.0],      # left_elbow
    [60.0, 7.5, 0.0],       # left_wrist
    [-37.5, 5.0, 0.0],      # right_shoulder
    [-62.5, 15.0, 0.0],     # right_elbow
    [-60.0, 7.5, 0.0],      # right_wrist
])

# Articulation limit (degrees) per joint, indexed by the child joint.
ANGLE_RANGES_DEG = np.array([
    0.0,                    # pelvis (root orientation handled separately)
    35.0, 45.0, 20.0,       # right leg
    35.0, 45.0, 20.0,       # left leg
    10.0, 10.0, 15.0, 15.0,  # spine, thorax, neck, head
    35.0, 50.0, 30.0,       # left arm
    35.0, 50.0, 30.0,       # right arm
])


def _rodrigues(axis, angle):
    k = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _rot_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _look_at(center, target):
    """World-to-camera rotation for a camera at `center` looking at `target`."""
    z = np.asarray(target, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    nz = np.linalg.norm(z)
    if nz < 1e-9:
        raise ValueError("camera sits on its target")
    z = z / nz
    y_hint = np.array([0.0, 1.0, 0.0])
    x = np.cross(y_hint, z)
    nx = np.linalg.norm(x)
    if nx < 1e-9:
        raise ValueError("camera looks straight along the vertical axis")
    x = x / nx
    y = np.cross(z, x)
    return np.stack([x, y, z])


def default_rig(n_cameras=2, distance_mm=3000.0, separation_deg=60.0,
                focal_px=1146.0, width=1000, height=1000):
    """Cameras on a horizontal circle about the origin, all aimed at it.

    Camera angles are centred: with two cameras and 60 degree separation
    they sit at -30 and +30 degrees.
    """
    cams = []
    for i in range(n_cameras):
        ang = math.radians((i - (n_cameras - 1) / 2.0) * separation_deg)
        center = np.array([distance_mm * math.sin(ang), 0.0,
                           -distance_mm * math.cos(ang)])
        R = _look_at(center, np.zeros(3))
        K = np.array([[focal_px, 0.0, width / 2.0],
                      [0.0, focal_px, height / 2.0],
                      [0.0, 0.0, 1.0]])
        cams.append(CameraModel(f"cam{i + 1}", K, R, -R @ center, width, height))
    return cams


def perturb_rig(cameras, rot_deg, trans_mm, rng):
    """Miscalibrated copy: every camera but the first gets its extrinsics
    rotated by exactly rot_deg about a random axis and shifted by a random
    direction of length trans_mm."""
    out = [cameras[0]]
    for cam in cameras[1:]:
        dR = _rodrigues(rng.standard_normal(3), math.radians(rot_deg))
        dt = rng.standard_normal(3)
        dt = dt / np.linalg.norm(dt) * trans_mm
        out.append(CameraModel(cam.cam_id, cam.K.copy(), dR @ cam.R,
                               cam.t + dt, cam.width, cam.height))
    return out


def generate_skeleton_pose(topo: SkeletonTopology, rng, angle_scale=1.0,
                           workspace_mm=(300.0, 200.0, 300.0),
                           root_yaw_deg=180.0) -> Pose3D:
    """One world-frame pose by forward kinematics.

    Draw order per sample: root position (3), yaw (1), then per non-root
    joint an axis (3 normals) and an angle (1 uniform).
    """
    J = topo.n_joints
    if REST_OFFSETS_MM.shape != (J, 3) or len(ANGLE_RANGES_DEG) != J:
        raise ShapeMismatch("template does not match the topology")
    half = np.asarray(workspace_mm, dtype=np.float64)
    root_pos = rng.uniform(-half, half)
    yaw = math.radians(rng.uniform(-root_yaw_deg, root_yaw_deg))
    rot = [None] * J
    pos = np.zeros((J, 3))
    rot[topo.root] = _rot_y(yaw)
    pos[topo.root] = root_pos
    for j in range(J):
        if j == topo.root:
            continue
        axis = rng.standard_normal(3)
        angle = math.radians(angle_scale * ANGLE_RANGES_DEG[j]) * rng.uniform(-1.0, 1.0)
        parent = topo.parents[j]
        rot[j] = rot[parent] @ _rodrigues(axis, angle)
        pos[j] = pos[parent] + rot[j] @ REST_OFFSETS_MM[j]
    return Pose3D(pos, frame_id="world")


@dataclass
class Sample:
    sample_id: str
    pair: tuple                  # (view1 camera id, view2 camera id)
    joints_2d: dict              # view id -> (J, 2) noisy pixels
    joints_2d_clean: dict        # view id -> (J, 2) exact projections
    joints_3d_gt: dict = field(default_factory=dict)  # view id -> (J, 3) mm


def _world_to_cam(cam: CameraModel, pose: Pose3D) -> Pose3D:
    return Pose3D(pose.joints @ cam.R.T + cam.t, frame_id=cam.cam_id)


def _in_view(cam: CameraModel, cam_pose: Pose3D):
    X = cam_pose.joints
    if (X[:, 2] <= MIN_DEPTH_MM).any():
        return False
    px = project(cam, cam_pose).joints
    return bool(((px[:, 0] >= 0.0) & (px[:, 0] <= cam.width)
                 & (px[:, 1] >= 0.0) & (px[:, 1] <= cam.height)).all())


def generate_dataset(config: SyntheticConfig, topo=None, cameras=None, pairs=None):
    """Returns (samples, true_rig, assumed_rig).

    Pose sampling retries until the skeleton is fully visible in both views
    of its camera pair, up to max_resample attempts (then PoseOutOfView).
    Sample i draws from an rng seeded by (seed, i), so the dataset is
    reproducible record by record.
    """
    topo = topo or default_topology()
    cameras = cameras if cameras is not None else default_rig()
    by_id = {c.cam_id: c for c in cameras}
    if pairs is None:
        pairs = [(cameras[k].cam_id, cameras[k + 1].cam_id)
                 for k in range(len(cameras) - 1)]
    for a, b in pairs:
        if a not in by_id or b not in by_id:
            raise ValueError(f"pair ({a}, {b}) names an unknown camera")

    rig_rng = np.random.default_rng((config.seed, RIG_SEED_SALT))
    if config.perturb_rot_deg or config.perturb_trans_mm:
        assumed = perturb_rig(cameras, config.perturb_rot_deg,
                              config.perturb_trans_mm, rig_rng)
    else:
        assumed = [CameraModel(c.cam_id, c.K.copy(), c.R.copy(), c.t.copy(),
                               c.width, c.height) for c in cameras]

    samples = []
    for i in range(config.n_samples):
        rng = np.random.default_rng((config.seed, i))
        pair = pairs[i % len(pairs)]
        cam_a, cam_b = by_id[pair[0]], by_id[pair[1]]
        for _ in range(config.max_resample):
            world = generate_skeleton_pose(
                topo, rng, angle_scale=config.angle_scale,
                workspace_mm=config.workspace_mm,
                root_yaw_deg=config.root_yaw_deg)
            pose_a = _world_to_cam(cam_a, world)
            pose_b = _world_to_cam(cam_b, world)
            if _in_view(cam_a, pose_a) and _in_view(cam_b, pose_b):
                break
        else:
            raise PoseOutOfView(
                f"sample {i}: no fully visible pose in {config.max_resample} tries")
        clean = {}
        noisy = {}
        gt = {}
        for cam, pose in ((cam_a, pose_a), (cam_b, pose_b)):
            px = project(cam, pose).joints
            clean[cam.cam_id] = px
            noise = rng.standard_normal(px.shape) * config.sigma_px
            noisy[cam.cam_id] = px + noise
            if config.include_gt:
                gt[cam.cam_id] = pose.joints
        samples.append(Sample(sample_id=f"s{i:06d}", pair=pair,
                              joints_2d=noisy, joints_2d_clean=clean,
                              joints_3d_gt=gt))
    return samples, cameras, assumed


# ---------------------------------------------------------------------------
# Dataset files, data-v2: JSONL, one header line, then one record per sample.

DATA_SCHEMA = "data-v2"
ARRAY_FIELDS = (("joints_2d", 2), ("joints_2d_clean", 2), ("joints_3d_gt", 3))


def _encode_field(sample, key, d, J):
    """Base64 of the (2, J, d) little-endian float64 block of one field,
    row 0 for the sample's first view."""
    arrays = getattr(sample, key)
    block = np.ascontiguousarray(np.stack([arrays[v] for v in sample.pair]),
                                 dtype="<f8")
    if block.shape != (2, J, d):
        raise ShapeMismatch(f"sample {sample.sample_id}: {key} has shape "
                            f"{block.shape[1:]} per view, expected {(J, d)}")
    return base64.b64encode(block.tobytes()).decode("ascii")


def _decode_field(rec, key, d, J, lineno):
    """The two (J, d) float64 arrays of one data-v2 field, each owned and
    writable."""
    text = rec[key]
    if not isinstance(text, str):
        raise SchemaError(f"line {lineno}: {key} must be a base64 string",
                          line=lineno)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:     # binascii.Error, or a non-ASCII character
        raise SchemaError(f"line {lineno}: {key} is not valid base64",
                          line=lineno)
    if len(raw) != 16 * J * d:
        raise SchemaError(
            f"line {lineno}: {key} holds {len(raw)} bytes, expected "
            f"{16 * J * d} (2 x {J} x {d} float64)", line=lineno)
    block = np.frombuffer(raw, dtype="<f8").reshape(2, J, d)
    if not np.isfinite(block).all():
        raise SchemaError(f"line {lineno}: non-finite values in {key}",
                          line=lineno)
    return block[0].astype(np.float64), block[1].astype(np.float64)


def save_dataset(path, samples, topo=None):
    """Write samples as a data-v2 file.

    The header is {"schema": "data-v2", "n_joints": J, "n_samples": N}.
    Each record holds "id", "views" (the two camera ids), and per array
    field ("joints_2d", "joints_2d_clean", optional "joints_3d_gt") the
    padded RFC 4648 base64 of one (2, J, d) little-endian float64 C-order
    block, row 0 for views[0]; d is 2 for pixels and 3 for ground truth.
    The stored bytes are the arrays' own, so loading gives back every
    value bit for bit (signed zeros and subnormals included), and a record
    takes about half the space of 17-digit decimal text.
    """
    topo = topo or default_topology()
    J = topo.n_joints
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": DATA_SCHEMA, "n_joints": J,
                             "n_samples": len(samples)}) + "\n")
        for s in samples:
            if len(set(s.pair)) != 2:
                raise SchemaError(f"sample {s.sample_id}: views must be two "
                                  f"distinct cameras, got {s.pair!r}")
            rec = {"id": s.sample_id, "views": list(s.pair)}
            for key, d in ARRAY_FIELDS:
                if key != "joints_3d_gt" or s.joints_3d_gt:   # gt is optional
                    rec[key] = _encode_field(s, key, d, J)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_dataset(path, topo=None):
    """Read a data-v2 file (layout in `save_dataset`).

    Raises SchemaError, with the line number where the fault is
    line-local, for: a header for another schema (a data-v1 file must be
    regenerated with `cvpose synth`), a joint count other than the
    topology's, an `n_samples` that is not the number of records (a
    truncated file), `views` that are not two distinct camera ids, an
    array field that is not base64 of exactly 16·J·d bytes or holds a NaN
    or an infinity, and a sample id that repeats an earlier line's.
    Arrays come back as owned, writable float64 (J, d) arrays.
    """
    topo = topo or default_topology()
    J = topo.n_joints
    head_line, header, records = read_records(path, DATA_SCHEMA, "dataset")
    if header.get("n_joints") != J:
        raise SchemaError(
            f"line {head_line}: dataset is for {header.get('n_joints')} "
            f"joints, topology has {J}", line=head_line)
    n_samples = header.get("n_samples")
    if type(n_samples) is not int or n_samples < 0:
        raise SchemaError(f"line {head_line}: n_samples must be a "
                          f"non-negative integer, got {n_samples!r}",
                          line=head_line)

    samples = []
    first_line = {}   # sample id -> line it first appeared on
    for lineno, rec in records:
        for key in ("id", "views", "joints_2d", "joints_2d_clean"):
            if key not in rec:
                raise MissingField(f"line {lineno}: sample lacks {key!r}",
                                   line=lineno)
        sid = str(rec["id"])
        if sid in first_line:
            raise SchemaError(f"line {lineno}: sample id {sid!r} repeats "
                              f"line {first_line[sid]}", line=lineno)
        first_line[sid] = lineno
        views = rec["views"]
        if (not isinstance(views, list) or len(views) != 2
                or not all(isinstance(v, str) for v in views)
                or views[0] == views[1]):
            raise SchemaError(f"line {lineno}: views must list two distinct "
                              f"camera ids, got {views!r}", line=lineno)
        fields = {}
        for key, d in ARRAY_FIELDS:
            if key in rec:
                fields[key] = dict(zip(views, _decode_field(rec, key, d, J,
                                                            lineno)))
        samples.append(Sample(sample_id=sid, pair=tuple(views), **fields))
    if len(samples) != n_samples:
        raise SchemaError(f"line {head_line}: n_samples says {n_samples} "
                          f"samples, the file holds {len(samples)}",
                          line=head_line)
    return samples


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_manifest(path, config: SyntheticConfig, hashes, n_samples):
    """JSON manifest tying a generation config to its output file hashes."""
    body = {
        "schema": "manifest-v1",
        "config": {
            "n_samples": config.n_samples,
            "seed": config.seed,
            "sigma_px": config.sigma_px,
            "perturb_rot_deg": config.perturb_rot_deg,
            "perturb_trans_mm": config.perturb_trans_mm,
            "workspace_mm": list(config.workspace_mm),
            "angle_scale": config.angle_scale,
            "root_yaw_deg": config.root_yaw_deg,
            "max_resample": config.max_resample,
            "include_gt": config.include_gt,
        },
        "n_samples": n_samples,
        "sha256": dict(hashes),
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
