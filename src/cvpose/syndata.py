"""Synthetic two-camera pose data.

A symmetric bone template is articulated by forward kinematics with random
per-joint rotations, placed in a workspace box, and projected into every
camera of a rig. Pixel noise models detector error; an optional extrinsic
perturbation yields the *assumed* rig handed to downstream consumers while
ground truth and projections use the *true* rig, reproducing the effect of
imperfect calibration.

World and camera frames share orientation conventions (y grows downward),
so the template's head points toward negative y.

The recipe is fixed: the rig's cameras stand RIG_DISTANCE_MM from the
origin with FOCAL_PX focal length and IMAGE_WIDTH_PX x IMAGE_HEIGHT_PX
images, poses are placed in the box of half extents WORKSPACE_MM, yawed
by up to ROOT_YAW_DEG either way, with each joint bent by up to its
ANGLE_RANGES_DEG limit, and a sample gets MAX_RESAMPLE attempts at a
fully visible pose. SyntheticConfig holds only what callers vary: the
size, seed, noise, miscalibration and ground truth of a set.

Sample i of a dataset draws from its own generator, default_rng((seed, i)),
always in this order. Each attempt at its pose draws the root position
(uniform over the workspace box, 3 values), the root yaw (uniform, in
degrees), then for each non-root joint in index order a rotation axis
(standard_normal(3)) and an angle as a fraction of the joint's limit
(uniform(-1, 1)). Attempts repeat until the pose is fully in view of both
cameras of its pair. Then the pixel noise of view 1, then of view 2, is
drawn (standard_normal((J, 2)) each). No draw of one sample depends on
another, which is what lets `generate_dataset` run every pending sample's
attempt as one batched round and still give each sample the values the
one-pose-at-a-time loop gave it.

Datasets are stored as data-v2 JSONL files: a header line
{"schema": "data-v2", "n_joints": J, "n_samples": N}, then one record per
sample with its id, its two camera ids under "views", and each keypoint
array field as the base64 of one (2, J, d) little-endian float64 block,
row 0 for the first view. The file carries the arrays' own bytes rather
than decimal text, so a save and a load give back every value exactly.
Both work a field at a time over chunks of DATA_CHUNK samples, not a
sample at a time: saving gathers each field of every sample into one
block and encodes each record's slice of its bytes, and loading decodes
each record's base64, then makes one array of each field's bytes per
chunk, with one finiteness check, and copies out the samples' views.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (CvposeError, MissingField, PoseOutOfView, SchemaError,
                     ShapeMismatch, UnknownCamera)
from .files import atomic_write, read_records, refuse_unknown_keys
from .geometry import CameraModel
from .graph import default_topology

MIN_DEPTH_MM = 100.0
RIG_SEED_SALT = 999983

# The fixed recipe (see the module docstring); WORKSPACE_MM holds the half
# extents of the box about the origin.
RIG_DISTANCE_MM = 3000.0
FOCAL_PX = 1146.0
IMAGE_WIDTH_PX = 1000
IMAGE_HEIGHT_PX = 1000
WORKSPACE_MM = (300.0, 200.0, 300.0)
ROOT_YAW_DEG = 180.0
MAX_RESAMPLE = 50

# The recipe's former SyntheticConfig fields at their one values, as
# manifests list them (angle_scale scaled every joint limit by 1).
RETIRED_SYNTH_SETTINGS = {
    "workspace_mm": WORKSPACE_MM, "angle_scale": 1.0,
    "root_yaw_deg": ROOT_YAW_DEG, "max_resample": MAX_RESAMPLE}


@dataclass
class SyntheticConfig:
    """What a synthetic set varies; the rest of the recipe is the module's
    constants (see the module docstring)."""
    n_samples: int = 1000
    seed: int = 0
    sigma_px: float = 0.0
    perturb_rot_deg: float = 0.0
    perturb_trans_mm: float = 0.0
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


def _axis_angle(axes, angles):
    """(m, 3, 3) rotations about the m rows of `axes` (any non-zero length)
    by m angles in radians, by Rodrigues' formula."""
    # sqrt(vecdot) rounds exactly as np.linalg.norm of one vector does; an
    # einsum or a summed square can differ in the last bit.
    k = axes / np.sqrt(np.vecdot(axes, axes))[:, None]
    K = np.zeros((len(k), 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -k[:, 2], k[:, 1]
    K[:, 1, 0], K[:, 1, 2] = k[:, 2], -k[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -k[:, 1], k[:, 0]
    s, c = np.sin(angles)[:, None, None], np.cos(angles)[:, None, None]
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


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


def default_rig(n_cameras=2, separation_deg=60.0):
    """Cameras on a horizontal circle of radius RIG_DISTANCE_MM about the
    origin, all aimed at it.

    Camera angles are centred: with two cameras and 60 degree separation
    they sit at -30 and +30 degrees.
    """
    cams = []
    for i in range(n_cameras):
        ang = math.radians((i - (n_cameras - 1) / 2.0) * separation_deg)
        center = np.array([RIG_DISTANCE_MM * math.sin(ang), 0.0,
                           -RIG_DISTANCE_MM * math.cos(ang)])
        R = _look_at(center, np.zeros(3))
        K = np.array([[FOCAL_PX, 0.0, IMAGE_WIDTH_PX / 2.0],
                      [0.0, FOCAL_PX, IMAGE_HEIGHT_PX / 2.0],
                      [0.0, 0.0, 1.0]])
        cams.append(CameraModel(f"cam{i + 1}", K, R, -R @ center,
                                IMAGE_WIDTH_PX, IMAGE_HEIGHT_PX))
    return cams


def perturb_rig(cameras, rot_deg, trans_mm, rng):
    """Miscalibrated copy: every camera but the first gets its extrinsics
    rotated by exactly rot_deg about a random axis and shifted by a random
    direction of length trans_mm."""
    out = [cameras[0]]
    for cam in cameras[1:]:
        dR = _axis_angle(rng.standard_normal((1, 3)),
                         np.radians([rot_deg]))[0]
        dt = rng.standard_normal(3)
        dt = dt / np.linalg.norm(dt) * trans_mm
        out.append(CameraModel(cam.cam_id, cam.K.copy(), dR @ cam.R,
                               cam.t + dt, cam.width, cam.height))
    return out


def _draw_attempts(rngs, n_joints):
    """One pose attempt from each generator, in the module's draw order.

    Returns the root positions (m, 3), the root yaws in degrees (m,), and
    for the non-root joints in index order the axes (m, J - 1, 3) and the
    angle fractions in [-1, 1) (m, J - 1).
    """
    half = np.asarray(WORKSPACE_MM, dtype=np.float64)
    m = len(rngs)
    root = np.empty((m, 3))
    yaw = np.empty(m)
    axes = np.empty((m, n_joints - 1, 3))
    frac = np.empty((m, n_joints - 1))
    for i, rng in enumerate(rngs):
        root[i] = rng.uniform(-half, half)
        yaw[i] = rng.uniform(-ROOT_YAW_DEG, ROOT_YAW_DEG)
        for k, axis in enumerate(axes[i]):
            rng.standard_normal(out=axis)
            frac[i, k] = rng.random()
    # uniform(-1, 1) is -1 + 2 * random(), and the doubling is exact, so
    # this is the uniform draw bit for bit at under half the call's cost.
    return root, yaw, axes, 2.0 * frac - 1.0


def _forward_kinematics(topo, root, yaw_deg, axes, frac):
    """World-frame joints (m, J, 3) of the m attempts `_draw_attempts`
    returned: rotations compose from the root down, one (m, 3, 3) stack
    per joint, so every parent must be the root or precede its child."""
    J = topo.n_joints
    if (REST_OFFSETS_MM.shape != (J, 3) or len(ANGLE_RANGES_DEG) != J
            or any(p > j and p != topo.root
                   for j, p in enumerate(topo.parents))):
        raise ShapeMismatch("template does not match the topology")
    m = len(root)
    others = [j for j in range(J) if j != topo.root]
    angles = np.radians(ANGLE_RANGES_DEG[others]) * frac
    bend = _axis_angle(axes.reshape(-1, 3),
                       angles.reshape(-1)).reshape(m, J - 1, 3, 3)
    yaw = np.radians(yaw_deg)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.empty((m, J, 3, 3))
    pos = np.empty((m, J, 3))
    rot[:, topo.root] = np.eye(3)          # rotation about y by the yaw
    rot[:, topo.root, 0, 0] = rot[:, topo.root, 2, 2] = c
    rot[:, topo.root, 0, 2] = s
    rot[:, topo.root, 2, 0] = -s
    pos[:, topo.root] = root
    for k, j in enumerate(others):
        parent = topo.parents[j]
        rot[:, j] = rot[:, parent] @ bend[:, k]
        pos[:, j] = pos[:, parent] + rot[:, j] @ REST_OFFSETS_MM[j]
    return pos


@dataclass
class Sample:
    sample_id: str
    pair: tuple                  # (view1 camera id, view2 camera id)
    joints_2d: dict              # view id -> (J, 2) noisy pixels
    joints_2d_clean: dict        # view id -> (J, 2) exact projections
    joints_3d_gt: dict = field(default_factory=dict)  # view id -> (J, 3) mm


def _camera_view(cam: CameraModel, world):
    """Camera-frame joints (m, J, 3), pixels (m, J, 2) and in-view flags
    (m,) of a stack of world poses.

    A pose is in view when every joint lies deeper than MIN_DEPTH_MM and
    projects inside the image, edges included. Only poses past the depth
    test are projected; the others' pixels read 0.
    """
    X = world @ cam.R.T + cam.t
    ok = (X[..., 2] > MIN_DEPTH_MM).all(axis=1)
    h = X[ok] @ cam.K.T
    px = np.zeros(X.shape[:2] + (2,))
    px[ok] = uv = h[..., :2] / h[..., 2:]
    ok[ok] = ((uv >= 0.0) & (uv <= (cam.width, cam.height))).all(axis=(1, 2))
    return X, px, ok


def generate_dataset(config: SyntheticConfig, topo=None, cameras=None, pairs=None):
    """Returns (samples, true_rig, assumed_rig).

    Sample i draws from its own generator, default_rng((seed, i)), in the
    order the module docstring gives, and takes camera pair i % len(pairs).
    Pose sampling retries until the skeleton is fully visible in both views
    of its pair, up to MAX_RESAMPLE attempts, then raises PoseOutOfView
    naming the sample. The attempts run in rounds: each round draws one
    attempt for every sample still pending, in index order, and runs
    forward kinematics, the camera transforms, the projections and the
    in-view tests once over all of them. A sample's draws depend on no
    other sample, so the dataset is reproducible record by record: the
    first k samples of any larger set are the k-sample set. Samples with
    no pair to take (pairs=[], or the default pairs of a one-camera rig)
    raise CvposeError, a pair naming a camera not in `cameras` raises
    UnknownCamera, and a pair naming one camera twice raises CvposeError;
    pairs are checked before anything is drawn.
    """
    topo = topo or default_topology()
    cameras = cameras if cameras is not None else default_rig()
    by_id = {c.cam_id: c for c in cameras}
    if pairs is None:
        pairs = [(cameras[k].cam_id, cameras[k + 1].cam_id)
                 for k in range(len(cameras) - 1)]
    for a, b in pairs:
        if a not in by_id or b not in by_id:
            raise UnknownCamera(f"pair ({a}, {b}) names an unknown camera")
        if a == b:
            raise CvposeError(f"pair ({a}, {b}) names one camera twice")

    rig_rng = np.random.default_rng((config.seed, RIG_SEED_SALT))
    if config.perturb_rot_deg or config.perturb_trans_mm:
        assumed = perturb_rig(cameras, config.perturb_rot_deg,
                              config.perturb_trans_mm, rig_rng)
    else:
        assumed = [CameraModel(c.cam_id, c.K.copy(), c.R.copy(), c.t.copy(),
                               c.width, c.height) for c in cameras]

    n, J = config.n_samples, topo.n_joints
    if n and not pairs:
        raise CvposeError(f"no camera pairs: pairs is {list(pairs)!r}, and "
                          f"each of the {n} samples needs one")
    pair_index = np.array([i % len(pairs) for i in range(n)], dtype=np.intp)
    rngs = [np.random.default_rng((config.seed, i)) for i in range(n)]
    cam_joints = np.empty((n, 2, J, 3))      # the pose in each view's frame
    pixels = np.empty((n, 2, J, 2))
    pending = np.arange(n)
    for _ in range(MAX_RESAMPLE):
        if not pending.size:
            break
        world = _forward_kinematics(
            topo, *_draw_attempts([rngs[i] for i in pending], J))
        placed = np.zeros(pending.size, dtype=bool)
        for p, pair in enumerate(pairs):
            rows = np.flatnonzero(pair_index[pending] == p)
            views = [_camera_view(by_id[cam_id], world[rows])
                     for cam_id in pair]
            ok = views[0][2] & views[1][2]
            done = pending[rows[ok]]
            for v, (X, px, _) in enumerate(views):
                cam_joints[done, v] = X[ok]
                pixels[done, v] = px[ok]
            placed[rows[ok]] = True
        pending = pending[~placed]
    if pending.size:
        raise PoseOutOfView(f"sample {pending[0]}: no fully visible pose in "
                            f"{MAX_RESAMPLE} tries")

    samples = []
    for i, rng in enumerate(rngs):
        pair = pairs[pair_index[i]]
        clean = {}
        noisy = {}
        gt = {}
        for v, cam_id in enumerate(pair):
            clean[cam_id] = pixels[i, v]
            noise = rng.standard_normal((J, 2)) * config.sigma_px
            noisy[cam_id] = pixels[i, v] + noise
            if config.include_gt:
                gt[cam_id] = cam_joints[i, v]
        samples.append(Sample(sample_id=f"s{i:06d}", pair=pair,
                              joints_2d=noisy, joints_2d_clean=clean,
                              joints_3d_gt=gt))
    return samples, cameras, assumed


# ---------------------------------------------------------------------------
# Dataset files, data-v2: JSONL, one header line, then one record per sample.

DATA_SCHEMA = "data-v2"
ARRAY_FIELDS = (("joints_2d", 2), ("joints_2d_clean", 2), ("joints_3d_gt", 3))

# Samples per finiteness check, and per np.frombuffer call on load.
DATA_CHUNK = 1024

# A record line is json.dumps(rec, sort_keys=True): these settings, and the
# keys in sorted order ("id", the array fields, "views").
_JSON = json.JSONEncoder(sort_keys=True)
# The keys save_dataset writes, and so the only ones load_dataset takes.
_HEADER_KEYS = frozenset({"schema", "n_joints", "n_samples"})
_RECORD_KEYS = frozenset({"id", "views", *(key for key, _ in ARRAY_FIELDS)})


def _first_non_finite(blocks):
    """(row, key) of the first row holding a NaN or an infinity, or None.

    blocks maps each array field to an (m, 2, J, d) array, one row per
    sample. Rows are taken in order and one row's fields in ARRAY_FIELDS
    order, which is the order a sample-at-a-time check meets them.
    """
    hits = []
    for f, (key, _) in enumerate(ARRAY_FIELDS):
        block = blocks[key]
        for start in range(0, len(block), DATA_CHUNK):
            finite = np.isfinite(block[start:start + DATA_CHUNK])
            if not finite.all():
                row = start + int(np.argmin(finite.all(axis=(1, 2, 3))))
                hits.append((row, f, key))
                break
    if not hits:
        return None
    row, _, key = min(hits)
    return row, key


def _gathered(samples, J):
    """Each array field of `samples` as one C-order (n, 2, J, d) '<f8'
    block, row 0 of a sample for its first view, and per sample the fields
    it carries (a sample without ground truth has zeros in that block).

    Raises what save_dataset refuses, for the first fault in sample order
    and within a sample in the order: views, then per field its shape and
    then its values.
    """
    views = {key: [] for key, _ in ARRAY_FIELDS}   # two per sample
    no_gt = [np.zeros((J, 3))] * 2
    carried = []
    fault = None
    try:
        for s in samples:
            if len(set(s.pair)) != 2:
                raise SchemaError(f"sample {s.sample_id}: views must be two "
                                  f"distinct cameras, got {s.pair!r}")
            keys = []
            for key, d in ARRAY_FIELDS:
                arrays = getattr(s, key)
                if key == "joints_3d_gt" and not arrays:   # gt is optional
                    views[key] += no_gt
                    continue
                pair = [np.asarray(arrays[cam_id]) for cam_id in s.pair]
                for view in pair:
                    if view.shape != (J, d):
                        raise ShapeMismatch(
                            f"sample {s.sample_id}: {key} has shape "
                            f"{view.shape} per view, expected {(J, d)}")
                views[key] += pair
                keys.append(key)
            carried.append(keys)
    except CvposeError as exc:
        fault = exc
    blocks = {key: np.array(views[key], dtype="<f8").reshape(-1, 2, J, d)
              for key, d in ARRAY_FIELDS}
    # Only the samples and fields before a fault were gathered, so a
    # non-finite value found here comes before it.
    hit = _first_non_finite(blocks)
    if hit is not None:
        i, key = hit
        raise SchemaError(f"sample {samples[i].sample_id}: non-finite values "
                          f"in {key}")
    if fault is not None:
        raise fault
    return blocks, carried


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

    Every sample is checked before anything is written. What load_dataset
    would reject is refused, naming the first faulty sample: views that
    are not two distinct cameras and a NaN or an infinity in an array
    field raise SchemaError, an array of the wrong shape ShapeMismatch.
    Each field is gathered into one block for all samples, and a record's
    base64 is taken from its slice of that block's bytes. The file is
    written through files.atomic_write, so a refused or failed save leaves
    an existing file as it was.
    """
    topo = topo or default_topology()
    J = topo.n_joints
    blocks, carried = _gathered(samples, J)
    raw = {key: memoryview(block.reshape(-1)).cast("B")
           for key, block in blocks.items()}
    size = {key: 16 * J * d for key, d in ARRAY_FIELDS}
    with atomic_write(path) as fh:
        fh.write(json.dumps({"schema": DATA_SCHEMA, "n_joints": J,
                             "n_samples": len(samples)}) + "\n")
        for i, (s, keys) in enumerate(zip(samples, carried)):
            # base64 needs no JSON escaping, so "<text>" is how the encoder
            # writes it
            fh.write(f'{{"id": {_JSON.encode(s.sample_id)}')
            for key in keys:
                b64 = binascii.b2a_base64(
                    raw[key][i * size[key]:(i + 1) * size[key]],
                    newline=False)
                fh.write(f', "{key}": "{b64.decode("ascii")}"')
            fh.write(f', "views": {_JSON.encode(list(s.pair))}}}\n')


class _Chunk:
    """Dataset records read but not yet made into Samples: per array field
    the decoded bytes of each record (zeros where a record has no ground
    truth), each record's line, and each whole record's id, views and
    fields."""

    def __init__(self, J):
        self.J = J
        self.absent_gt = bytes(16 * J * 3)
        self.clear()

    def clear(self):
        self.raw = {key: [] for key, _ in ARRAY_FIELDS}
        self.lines = []
        self.records = []

    def add(self, lineno, rec, sid, views):
        """Decode a record's array fields, refusing a field that is not
        base64 of exactly 16·J·d bytes."""
        J = self.J
        self.lines.append(lineno)
        for key, d in ARRAY_FIELDS:
            if key not in rec:     # only ground truth is optional
                self.raw[key].append(self.absent_gt)
                continue
            text = rec[key]
            if not isinstance(text, str):
                raise SchemaError(f"line {lineno}: {key} must be a base64 "
                                  f"string", line=lineno)
            try:
                raw = base64.b64decode(text, validate=True)
            except ValueError:     # binascii.Error, or a non-ASCII character
                raise SchemaError(f"line {lineno}: {key} is not valid base64",
                                  line=lineno)
            if len(raw) != 16 * J * d:
                raise SchemaError(
                    f"line {lineno}: {key} holds {len(raw)} bytes, expected "
                    f"{16 * J * d} (2 x {J} x {d} float64)", line=lineno)
            self.raw[key].append(raw)
        self.records.append((sid, views, [k for k, _ in ARRAY_FIELDS
                                          if k in rec]))

    def take(self):
        """The chunk's Samples, with owned, writable (J, d) float64 arrays;
        empties the chunk.

        Each field of the chunk is one np.frombuffer call and one
        finiteness check. A NaN or an infinity raises SchemaError for the
        first line holding one, a record whose later field failed to
        decode included.
        """
        J, raw, lines, records = self.J, self.raw, self.lines, self.records
        self.clear()
        blocks = {key: np.frombuffer(b"".join(raw[key]), dtype="<f8")
                  .reshape(-1, 2, J, d) for key, d in ARRAY_FIELDS}
        hit = _first_non_finite(blocks)
        if hit is not None:
            row, key = hit
            raise SchemaError(f"line {lines[row]}: non-finite values in "
                              f"{key}", line=lines[row])
        # a copy per view: owned, and sharing no memory with the others
        copies = {key: [v.copy() for v in block.astype(np.float64, copy=False)
                        .reshape(-1, J, d)]
                  for (key, d), block in zip(ARRAY_FIELDS, blocks.values())}
        samples = []
        for r, (sid, views, keys) in enumerate(records):
            a, b = views
            fields = {key: {a: copies[key][2 * r], b: copies[key][2 * r + 1]}
                      for key in keys}
            samples.append(Sample(sample_id=sid, pair=(a, b), **fields))
        return samples


def load_dataset(path, topo=None):
    """Read a data-v2 file (layout in `save_dataset`).

    Raises SchemaError, with the line number where the fault is
    line-local, for: a header for another schema (a data-v1 file must be
    regenerated with `cvpose synth`), a joint count that is not the
    topology's as a JSON integer, an `n_samples` that is not the number
    of records (a truncated file), `views` that are not two distinct
    camera ids, an array field that is not base64 of exactly 16·J·d bytes
    or holds a NaN or an infinity, a sample id that is not a JSON string
    or repeats an earlier line's, and a header or record key that
    save_dataset does not write (a misspelled "joints_3d_gt" included).
    Of several faults, the first in file order is reported, and of one
    record's, the first in the order of those checks.

    Records are checked and their base64 decoded as they stream in; each
    field's bytes are then turned into arrays, and checked for non-finite
    values, DATA_CHUNK records at a time. Arrays come back as owned,
    writable float64 (J, d) arrays.
    """
    topo = topo or default_topology()
    J = topo.n_joints
    head_line, header, records = read_records(path, DATA_SCHEMA, "dataset")
    refuse_unknown_keys(head_line, header, _HEADER_KEYS)
    if type(header.get("n_joints")) is not int or header["n_joints"] != J:
        raise SchemaError(
            f"line {head_line}: dataset is for {header.get('n_joints')} "
            f"joints, topology has {J}", line=head_line)
    n_samples = header.get("n_samples")
    if type(n_samples) is not int or n_samples < 0:
        raise SchemaError(f"line {head_line}: n_samples must be a "
                          f"non-negative integer, got {n_samples!r}",
                          line=head_line)

    samples = []
    chunk = _Chunk(J)
    first_line = {}   # sample id -> line it first appeared on
    fault = None
    try:
        for lineno, rec in records:
            for key in ("id", "views", "joints_2d", "joints_2d_clean"):
                if key not in rec:
                    raise MissingField(f"line {lineno}: sample lacks {key!r}",
                                       line=lineno)
            refuse_unknown_keys(lineno, rec, _RECORD_KEYS)
            sid = rec["id"]
            if not isinstance(sid, str):
                raise SchemaError(f"line {lineno}: id must be a JSON string, "
                                  f"got {sid!r}", line=lineno)
            if sid in first_line:
                raise SchemaError(f"line {lineno}: sample id {sid!r} repeats "
                                  f"line {first_line[sid]}", line=lineno)
            first_line[sid] = lineno
            views = rec["views"]
            if (not isinstance(views, list) or len(views) != 2
                    or not all(isinstance(v, str) for v in views)
                    or views[0] == views[1]):
                raise SchemaError(f"line {lineno}: views must list two "
                                  f"distinct camera ids, got {views!r}",
                                  line=lineno)
            chunk.add(lineno, rec, sid, views)
            if len(chunk.records) == DATA_CHUNK:
                samples += chunk.take()
    except SchemaError as exc:
        fault = exc
    samples += chunk.take()    # a non-finite value on an earlier line first
    if fault is not None:
        raise fault
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
    """JSON manifest tying a generation config to its output file hashes.

    "config" lists the config's fields and the recipe values that were
    fields once (RETIRED_SYNTH_SETTINGS), so a manifest reads as it did.
    """
    body = {
        "schema": "manifest-v1",
        "config": {**asdict(config), **RETIRED_SYNTH_SETTINGS},
        "n_samples": n_samples,
        "sha256": dict(hashes),
    }
    with atomic_write(path) as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
