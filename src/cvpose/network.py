"""Cross-view U-shaped graph convolutional refinement network.

Per-view spatial layers share weights across views, the views are then
fused into one 2J-node graph and passed through an encoder/decoder over
three graph resolutions with additive skip connections. The fused graph is
the only network path: the cross-view kernel (class 4) is the one place
where the views exchange information, so masking it (kernel_mask={4}) is
the no-cross-view ablation and refines each view on its own. A
zero-initialized output head makes the network an exact identity at
initialization: the residual it adds to the coarse pose starts at zero.

Inputs and outputs are in millimetres; each pose is centred on its joint
centroid and scaled by coord_scale before the convolutions, and the
learned residual is added back onto the uncentred coarse pose. Centering
matters: without biases, a camera-frame depth offset of metres would
swamp every feature channel.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import SchemaError, ShapeMismatch
from .geometry import Pose3D
from .graph import (
    build_graph_levels,
    build_single_view_kernels,
    topology_fingerprint,
)

N_KERNELS = 5
STAGES = ("enc0", "enc1", "bottleneck", "dec1", "dec0")


@dataclass
class NetworkConfig:
    channels: int = 128
    sgcn_layers: int = 2
    mgcn_layers_per_stage: int = 1
    coord_scale: float = 0.001
    init_seed: int = 0

    def to_json(self):
        return json.dumps({
            "channels": self.channels,
            "sgcn_layers": self.sgcn_layers,
            "mgcn_layers_per_stage": self.mgcn_layers_per_stage,
            "coord_scale": self.coord_scale,
            "init_seed": self.init_seed,
        }, sort_keys=True)

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        return NetworkConfig(
            channels=int(d["channels"]),
            sgcn_layers=int(d["sgcn_layers"]),
            mgcn_layers_per_stage=int(d["mgcn_layers_per_stage"]),
            coord_scale=float(d["coord_scale"]),
            init_seed=int(d["init_seed"]),
        )


def weight_shapes(config: NetworkConfig):
    """Ordered (name, shape) pairs; the order fixes init draws and file layout."""
    C = config.channels
    shapes = []
    for layer in range(config.sgcn_layers):
        fan_in = 3 if layer == 0 else C
        for k in range(N_KERNELS):
            shapes.append((f"sgcn.{layer}.k{k}", (fan_in, C)))
    for stage in STAGES:
        for layer in range(config.mgcn_layers_per_stage):
            for k in range(N_KERNELS):
                shapes.append((f"mgcn.{stage}.{layer}.k{k}", (C, C)))
    shapes.append(("head", (C, 3)))
    return shapes


def param_count(config: NetworkConfig) -> int:
    return sum(r * c for _, (r, c) in weight_shapes(config))


class ModelWeights:
    """Named weight arrays in a fixed order."""

    def __init__(self, arrays):
        self.arrays = dict(arrays)

    def items(self):
        return self.arrays.items()

    def __getitem__(self, name):
        return self.arrays[name]

    def copy(self):
        return ModelWeights({k: v.copy() for k, v in self.arrays.items()})

    @property
    def param_count(self):
        return sum(v.size for v in self.arrays.values())


def init_weights(config: NetworkConfig) -> ModelWeights:
    """Uniform(-sqrt(1/fan_in), sqrt(1/fan_in)) draws; the head starts at zero.

    fan_in counts every input connection of a unit: a conv sums all
    N_KERNELS kernel branches, so each unit receives N_KERNELS * C_in
    inputs, not just the rows of one kernel matrix. Counting them all
    keeps the per-unit gain near one as kernels are added, which in turn
    keeps feature magnitude flat through the residual trunk; the size of
    the optimizer's very first steps on the zero-initialized head scales
    directly with that magnitude.
    """
    rng = np.random.default_rng(config.init_seed)
    arrays = {}
    for name, shape in weight_shapes(config):
        if name == "head":
            arrays[name] = np.zeros(shape)
        else:
            bound = np.sqrt(1.0 / (N_KERNELS * shape[0]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return ModelWeights(arrays)


def _conv_entries(kernel_set, mask):
    """(kernel index, matrix-or-None) pairs actually applied by a conv.

    All-zero kernels and masked kernel classes are dropped; an identity
    kernel skips its block multiply. Ascending kernel order keeps the
    summation deterministic.
    """
    entries = []
    eye = np.eye(kernel_set.n_nodes)
    for k in range(N_KERNELS):
        if k in mask:
            continue
        N = kernel_set.normalized[k]
        if not N.any():
            continue
        entries.append((k, None if np.array_equal(N, eye) else N))
    return entries


class CVUGCN:
    """The refiner over the fused two-view 2J-node graph.

    kernel_mask zeroes kernel classes for ablations; kernel_mask={4} drops
    the cross-view kernel, which leaves each view refined independently.
    """

    def __init__(self, topo, config: NetworkConfig, weights=None,
                 kernel_mask=()):
        self.topo = topo
        self.config = config
        self.weights = init_weights(config) if weights is None else weights
        self.kernel_mask = frozenset(int(k) for k in kernel_mask)
        mask = self.kernel_mask
        single = build_single_view_kernels(topo)
        self._sgcn_entries = _conv_entries(single, mask)
        # Centering matrix: row i of (C @ X) is X_i minus the pose centroid.
        # The convolutions carry no bias terms, so an uncentred camera-frame
        # input would put a metre-scale depth offset on every node; that
        # common mode dwarfs the pose-shaped variation the refiner needs
        # and destabilises the first optimizer steps on the head. Removing
        # the centroid (rather than a root joint) leaves every coordinate
        # channel with zero mean over the nodes of each sample.
        center = np.eye(topo.n_joints) - 1.0 / topo.n_joints
        self._center = center
        self._levels = build_graph_levels(topo)
        self._level_entries = [_conv_entries(ks, mask)
                               for ks in self._levels.levels]

    # -- weight access -----------------------------------------------------

    def param_leaves(self, tape):
        """One leaf per weight, in canonical order."""
        return {name: tape.leaf(arr, op=f"param:{name}")
                for name, arr in self.weights.items()}

    # -- forward -----------------------------------------------------------

    def _conv(self, h, entries, weights_by_kernel):
        terms = []
        for k, N in entries:
            hk = h if N is None else ad.block_left_matmul(N, h)
            terms.append(ad.matmul(hk, weights_by_kernel[k]))
        return terms[0] if len(terms) == 1 else ad.add_n(terms)

    def _stage_weights(self, params, prefix, n_layers):
        return [[params[f"{prefix}.{layer}.k{k}"] for k in range(N_KERNELS)]
                for layer in range(n_layers)]

    def _stage(self, h, entries, layer_weights):
        """A stage of graph-conv units in pre-activation residual form.

        Width-preserving units compute h + conv(relu(h)); the one
        width-changing unit (the leading 3 -> C lift) is relu(conv(h)).
        The residual form is what keeps training alive under the
        scale-invariant optimizer: its earliest steps move every weight
        by the same fixed quantum regardless of gradient size, and the
        burst of coherent gradients set off when the zero-initialized
        head first moves can push entire rectifier layers into the
        silent regime. In a plain stack one silenced layer on the
        mainline cuts both signal and gradient for good; with the
        identity path the forward signal and the head's gradient always
        survive, and silenced branch units recover as the features
        feeding them shift.
        """
        for ws in layer_weights:
            if ws[0].shape[0] == ws[0].shape[1]:
                h = ad.add(h, self._conv(ad.relu(h), entries, ws))
            else:
                h = ad.relu(self._conv(h, entries, ws))
        return h

    def refine_from_leaf(self, xin, params):
        """Forward pass from an existing (2BJ, 3) leaf in view-major order.

        Each pose is centroid-centred before entering the convolutions;
        the residual is added back onto the uncentred coarse pose, so
        outputs stay absolute. Returns (X1, X2) refined mm coordinates as
        (BJ, 3) Values. Exposed separately so gradients with respect to
        the input can be checked.
        """
        J = self.topo.n_joints
        rows = xin.shape[0]
        if rows % (2 * J):
            raise ShapeMismatch(f"input rows {rows} not a multiple of 2J={2 * J}")
        BJ = rows // 2
        cfg = self.config

        h = ad.scale(ad.block_left_matmul(self._center, xin), cfg.coord_scale)
        sgcn = self._stage_weights(params, "sgcn", cfg.sgcn_layers)
        h = self._stage(h, self._sgcn_entries, sgcn)

        stage_ws = {s: self._stage_weights(params, f"mgcn.{s}",
                                           cfg.mgcn_layers_per_stage)
                    for s in STAGES}
        pool = self._levels.pool
        unpool = self._levels.unpool
        ent = self._level_entries

        # View-major rows become per-sample 2J-node blocks of the fused graph.
        h = ad.concat_blocks(ad.slice_rows(h, 0, BJ),
                             ad.slice_rows(h, BJ, 2 * BJ), J, J)
        coarse = ad.concat_blocks(ad.slice_rows(xin, 0, BJ),
                                  ad.slice_rows(xin, BJ, 2 * BJ), J, J)

        e0 = self._stage(h, ent[0], stage_ws["enc0"])
        e1 = self._stage(ad.block_left_matmul(pool[0], e0), ent[1], stage_ws["enc1"])
        bn = self._stage(ad.block_left_matmul(pool[1], e1), ent[2],
                         stage_ws["bottleneck"])
        d1 = self._stage(ad.add(ad.block_left_matmul(unpool[1], bn), e1),
                         ent[1], stage_ws["dec1"])
        d0 = self._stage(ad.add(ad.block_left_matmul(unpool[0], d1), e0),
                         ent[0], stage_ws["dec0"])
        res = ad.matmul(d0, params["head"])
        refined = ad.add(coarse, ad.scale(res, 1.0 / cfg.coord_scale))
        return (ad.slice_blocks(refined, 2 * J, 0, J),
                ad.slice_blocks(refined, 2 * J, J, 2 * J))

    def refine_batch(self, tape, x1_mm, x2_mm, params=None):
        """Refine B stacked coarse poses per view, each (B*J, 3) in mm.

        Returns (X1, X2, params) where params maps weight names to the leaf
        Values used, for gradient collection.
        """
        x1 = np.asarray(x1_mm, dtype=np.float64)
        x2 = np.asarray(x2_mm, dtype=np.float64)
        if x1.shape != x2.shape or x1.ndim != 2 or x1.shape[1] != 3:
            raise ShapeMismatch(f"coarse inputs: {x1.shape} vs {x2.shape}")
        if x1.shape[0] % self.topo.n_joints:
            raise ShapeMismatch(
                f"{x1.shape[0]} rows is not a whole number of poses")
        if params is None:
            params = self.param_leaves(tape)
        xin = tape.leaf(np.vstack([x1, x2]), op="coarse")
        X1, X2 = self.refine_from_leaf(xin, params)
        return X1, X2, params

    def refine(self, pose1: Pose3D, pose2: Pose3D):
        """Refine one coarse pose pair; frames are preserved."""
        J = self.topo.n_joints
        if pose1.joints.shape[0] != J or pose2.joints.shape[0] != J:
            raise ShapeMismatch("pose joint count does not match the topology")
        tape = ad.Tape()
        X1, X2, _ = self.refine_batch(tape, pose1.joints, pose2.joints)
        return (Pose3D(X1.data.copy(), frame_id=pose1.frame_id),
                Pose3D(X2.data.copy(), frame_id=pose2.frame_id))


# ---------------------------------------------------------------------------
# Checkpoints: plain text, exact float round trips via %.17g.

CKPT_SCHEMA = "ckpt-v1"


@dataclass
class Checkpoint:
    config: NetworkConfig
    weights: ModelWeights
    step: int
    opt_state: dict       # kind -> {name: array}, e.g. "m", "v", "vhat"
    train_state: dict     # JSON-compatible training progress


def _write_array(fh, tag, arr):
    fh.write(f"array {tag} {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        fh.write(" ".join("%.17g" % x for x in row))
        fh.write("\n")


def save_checkpoint(path, topo, config: NetworkConfig, weights: ModelWeights,
                    step: int, opt_state=None, train_state=None):
    """Write a checkpoint atomically.

    The text goes to a temporary file in the target's directory that then
    replaces the target, so a failed or interrupted write leaves any
    previous checkpoint at `path` intact and no partial file behind.
    """
    opt_state = opt_state or {}
    train_state = train_state or {}
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(f"{CKPT_SCHEMA}\n")
            fh.write(f"topology {topology_fingerprint(topo)}\n")
            fh.write(f"config {config.to_json()}\n")
            fh.write(f"step {int(step)}\n")
            fh.write(f"train {json.dumps(train_state, sort_keys=True)}\n")
            for name, arr in weights.items():
                _write_array(fh, f"weight:{name}", arr)
            for kind in sorted(opt_state):
                for name, arr in opt_state[kind].items():
                    _write_array(fh, f"opt:{kind}:{name}", arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, topo) -> Checkpoint:
    """Read a checkpoint; the topology fingerprint must match `topo`."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    def fail(i, msg):
        raise SchemaError(f"line {i + 1}: {msg}", line=i + 1)

    if not lines or lines[0] != CKPT_SCHEMA:
        fail(0, f"expected header {CKPT_SCHEMA!r}")
    fields = {}
    i = 1
    for key in ("topology", "config", "step", "train"):
        if i >= len(lines) or not lines[i].startswith(key + " "):
            fail(i, f"expected {key!r} line")
        fields[key] = lines[i][len(key) + 1:]
        i += 1
    if fields["topology"] != topology_fingerprint(topo):
        raise SchemaError("checkpoint topology fingerprint does not match")
    try:
        config = NetworkConfig.from_json(fields["config"])
        step = int(fields["step"])
        train_state = json.loads(fields["train"])
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise SchemaError(f"bad checkpoint metadata: {exc}")

    arrays = {}
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        parts = lines[i].split()
        if len(parts) != 4 or parts[0] != "array":
            fail(i, f"expected an array header, got {lines[i][:40]!r}")
        tag, rows, cols = parts[1], int(parts[2]), int(parts[3])
        if i + rows >= len(lines):
            fail(i, f"array {tag} truncated")
        try:
            block = np.array(
                [[float(x) for x in lines[i + 1 + r].split()] for r in range(rows)])
        except ValueError as exc:
            fail(i, f"array {tag}: {exc}")
        if block.shape != (rows, cols):
            fail(i, f"array {tag}: expected {(rows, cols)}, got {block.shape}")
        if tag in arrays:
            fail(i, f"duplicate array {tag}")
        arrays[tag] = block
        i += 1 + rows

    expected = dict(weight_shapes(config))
    weights = {}
    for name, shape in expected.items():
        tag = f"weight:{name}"
        if tag not in arrays:
            raise SchemaError(f"checkpoint lacks weight {name}")
        if arrays[tag].shape != shape:
            raise SchemaError(
                f"weight {name}: expected {shape}, got {arrays[tag].shape}")
        weights[name] = arrays[tag]
    opt_state = {}
    for tag, arr in arrays.items():
        if tag.startswith("opt:"):
            _, kind, name = tag.split(":", 2)
            if name not in expected:
                raise SchemaError(f"optimizer state for unknown weight {name}")
            opt_state.setdefault(kind, {})[name] = arr
    return Checkpoint(config=config, weights=ModelWeights(weights), step=step,
                      opt_state=opt_state, train_state=train_state)
