"""Cross-view U-shaped graph convolutional refinement network.

The network has one layout. A spatial graph conv per view lifts each
joint from 3 to C channels (`sgcn.0`) and a residual unit follows it
(`sgcn.1`); both share their weights across the views. The views are then
fused into one 2J-node graph and pass through a U-shape over three graph
resolutions, one residual unit per stage (`mgcn.<stage>.0` for the STAGES
enc0, enc1, bottleneck, dec1, dec0), with additive skip connections from
the encoder to the decoder. A C -> 3 head maps the features to a
residual. The fused graph is the only network path: the cross-view kernel
(class 4) is the one place where the views exchange information, so
masking it (kernel_mask={4}) is the no-cross-view ablation and refines
each view on its own. A zero-initialized head makes the network an exact
identity at initialization: the residual it adds to the coarse pose
starts at zero. NetworkConfig sets only the width C and the seed of the
initial draws.

Inputs and outputs are in millimetres; each pose is centred on its joint
centroid and scaled by COORD_SCALE (mm to metres) before the
convolutions, and the learned residual, scaled back by 1 / COORD_SCALE,
is added onto the uncentred coarse pose. Centering matters: without
biases, a camera-frame depth offset of metres would swamp every feature
channel.

A batch of B pose pairs enters as one (2BJ, 3) matrix of per-sample
blocks: sample s's J view-1 joints, then its J view-2 joints. That is the
node order of the fused graph, so every stage, the per-view spatial one
included, runs on the input as it is; coarse_pair_leaf builds it and
split_views cuts a result back into the two (BJ, 3) views.

Each of the seven graph convolutions (two spatial, one per U-stage) is
sum_k N_k H W_k over its kernel classes k, the AXW form of Kipf & Welling
with the kernel classes of Cai et al. A unit keeps the classes that are
non-zero in its graph and not masked (unit_classes): 0-3 on the
single-view graph, which has no cross-view class, 0-4 at the two finer
resolutions of the fused graph, and 0 and 4 at its coarsest. It stores
one weight, named by the unit, the panel [W_1 | ... | W_K] over those K
classes, of shape (C_in, K*C); so the model stores, steps and saves only
the weights its forward reads. Each conv's kernels are checked and
stacked once, when the model is built (an autodiff.KernelStack per graph
resolution). The 3 -> C lift relu(conv(h)) and the residual unit after
it (sgcn.0 and sgcn.1) are one autodiff.lift_residual_graph_conv node.
Each later residual unit h + conv(relu(h)), one per U-stage, is one
autodiff.residual_graph_conv node, which takes h in the tape's
conv_dtype, but for the last one, mgcn.dec0.0: it feeds only the C -> 3
head, so the two are one autodiff.residual_graph_conv_head node, which
folds the head into the unit's weights and never forms the unit's
(2BJ, C) result. Each decoder unpool and its skip add are one
autodiff.block_left_matmul_add node, which adds into the encoder
output's buffer and consumes both of its inputs. A forward records 25
nodes, 8 of them weight leaves (read-only views of the model's weights,
not copies), on a tape that records; a forward-only tape keeps none.
What each node computes and keeps on the tape is set out in autodiff.

Precision: training, evaluation and refine open their tapes with
conv_dtype=CONV_DTYPE (float32). The trunk, from the 3 -> C lift to the
last unit's input, then runs and is stored in float32: the graph
convolutions, the relu, the pools and unpools and the skip adds, and
their gradients. The last unit with the head folded in casts its float32
input to float64 one tile at a time and multiplies and mixes in float64,
so the residual it hands back is float64 and a sample's residual moves
only by float64 rounding with the batch it is refined in. So the
refined poses, the losses, the weights, their gradients, the optimizer
state and the checkpoints stay float64, as do the centring and scaling
of the input. Evaluation, the validation loss and refine, which never
sweep, open forward-only tapes (record=False); only a training step's
tape records. A plain autodiff.Tape() runs the whole network in float64,
which is what the finite-difference gradient checks in tests/gradcheck.py
use.
"""

from __future__ import annotations

import dataclasses
import json
import itertools
import os
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import SchemaError, ShapeMismatch
from .files import atomic_write
from .geometry import Pose3D
from .graph import (
    build_graph_levels,
    build_single_view_kernels,
    topology_fingerprint,
)

N_KERNELS = 5
STAGES = ("enc0", "enc1", "bottleneck", "dec1", "dec0")
# The graph each graph-conv unit runs on, in file order: the single-view
# skeleton, or the fused two-view graph at level 0 (joints), 1 (body-part
# groups) or 2 (one node per view).
UNIT_GRAPHS = {"sgcn.0": "spatial", "sgcn.1": "spatial", **{
    f"mgcn.{s}.0": f"level-{level}"
    for s, level in zip(STAGES, (0, 1, 2, 1, 0))}}
# conv_dtype of every tape that trains, evaluates or refines (see above).
CONV_DTYPE = np.float32
# Millimetres to network units: the centred input is scaled by it, the
# residual by its inverse.
COORD_SCALE = 0.001


# The least value of each NetworkConfig field (range_problem).
CONFIG_MINIMUM = {"channels": 1, "init_seed": 0}


def range_problem(key, value, minimum=CONFIG_MINIMUM):
    """Why an integer setting is below its least value in `minimum`, or
    None; a key `minimum` lacks has no least value."""
    least = minimum.get(key)
    if least is None or value >= least:
        return None
    if least == 0:
        return f"{key} must not be negative, got {value}"
    return f"{key} must be at least {least}, got {value}"


@dataclass
class NetworkConfig:
    channels: int = 128
    init_seed: int = 0

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text):
        """The config a checkpoint's config line holds.

        Every field must be present as a JSON integer (not a boolean) in
        its range (range_problem); a missing field, any other key, or a
        value of another type or out of range, raises SchemaError naming
        the key.
        """
        d = json.loads(text)
        if not isinstance(d, dict):
            raise SchemaError(f"config must be a JSON object, got {d!r}")
        fields = [f.name for f in dataclasses.fields(NetworkConfig)]
        for key, value in d.items():
            if key not in fields:
                problem = f"unknown config key {key!r}"
            elif type(value) is not int:   # a bool is an int subclass
                problem = f"config {key} must be an integer, got {value!r}"
            else:
                problem = range_problem(key, value)
            if problem:
                raise SchemaError(problem)
        for key in fields:
            if key not in d:
                raise SchemaError(f"config lacks {key!r}")
        return NetworkConfig(**d)


def graph_kernels(topo, levels=None):
    """{graph: graph.KernelSet} of each graph a unit runs on (UNIT_GRAPHS).
    levels, when given, is build_graph_levels(topo)."""
    levels = levels or build_graph_levels(topo)
    return {"spatial": build_single_view_kernels(topo),
            **{f"level-{i}": ks for i, ks in enumerate(levels.levels)}}


def unit_classes(topo, kernel_mask=(), kernels=None):
    """{unit: kernel classes} of each graph-conv unit, in file order.

    A unit keeps the kernel classes that are non-zero in its graph and not
    in kernel_mask, ascending, which keeps the summation deterministic;
    they fix the unit's weight panel (weight_shapes). kernels, when given,
    is graph_kernels(topo). A class outside 0-4, or a mask that leaves
    some graph with no kernel, raises ValueError naming it.
    """
    mask = frozenset(int(k) for k in kernel_mask)
    if not mask <= set(range(N_KERNELS)):
        raise ValueError(f"kernel_mask {sorted(mask)}: kernel classes "
                         f"are 0-{N_KERNELS - 1}")
    classes = {}
    for where, kernel_set in (kernels or graph_kernels(topo)).items():
        classes[where] = tuple(k for k in range(N_KERNELS) if k not in mask
                               and kernel_set.normalized[k].any())
        if not classes[where]:
            raise ValueError(f"kernel_mask {sorted(mask)} leaves the {where} "
                             f"convolutions with no kernel")
    return {unit: classes[where] for unit, where in UNIT_GRAPHS.items()}


def _fan_in(unit, C):
    return 3 if unit == "sgcn.0" else C


def weight_shapes(config: NetworkConfig, classes):
    """Ordered (name, shape) pairs: per unit of classes (unit_classes), its
    (C_in, K*C) panel over the K kernel classes its conv keeps, then the
    head; the order fixes init draws and file layout."""
    C = config.channels
    return [(unit, (_fan_in(unit, C), len(ks) * C))
            for unit, ks in classes.items()] + [("head", (C, 3))]


class ModelWeights:
    """Named weight arrays in a fixed order."""

    def __init__(self, arrays):
        self.arrays = dict(arrays)

    def items(self):
        return self.arrays.items()

    def __getitem__(self, name):
        return self.arrays[name]


def init_weights(config: NetworkConfig, classes) -> ModelWeights:
    """Uniform(-bound, bound) draws for every unit's panel, in the order of
    classes (unit_classes); the head starts at zero.

    bound = sqrt(1 / (N_KERNELS * C_in)) counts five kernel branches per
    unit, whatever number of them its conv reads: the spatial units read 4
    and the bottleneck 2, so they start with less gain than a unit that
    sums all five would. A bounded gain keeps feature magnitude flat
    through the residual trunk, and the size of the optimizer's very first
    steps on the zero-initialized head scales directly with that
    magnitude.

    Each unit draws one (N_KERNELS, C_in, C) block of the stream, a
    (C_in, C) matrix per kernel class in class order, and keeps those of
    the classes its conv reads as its panel: an unread class is drawn and
    dropped, so each read weight takes the same numbers whatever the mask.
    """
    rng = np.random.default_rng(config.init_seed)
    C = config.channels
    arrays = {}
    for unit, ks in classes.items():
        fan_in = _fan_in(unit, C)
        bound = np.sqrt(1.0 / (N_KERNELS * fan_in))
        draw = rng.uniform(-bound, bound, size=(N_KERNELS, fan_in, C))
        arrays[unit] = np.concatenate(draw[list(ks)], axis=1)
    arrays["head"] = np.zeros((C, 3))
    return ModelWeights(arrays)


def coarse_pair_leaf(tape, x1_mm, x2_mm, n_joints):
    """B coarse poses per view, each (B*J, 3) in mm, as one (2BJ, 3) leaf.

    Row blocks are per sample: sample s's J view-1 joints, then its J view-2
    joints, the node order of the fused 2J-node graph. Reshaped to (B, 6J)
    each row is one sample's two poses, flattened.
    """
    x1 = np.asarray(x1_mm, dtype=np.float64)
    x2 = np.asarray(x2_mm, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 2 or x1.shape[1] != 3:
        raise ShapeMismatch(f"coarse inputs: {x1.shape} vs {x2.shape}")
    if x1.shape[0] % n_joints:
        raise ShapeMismatch(
            f"{x1.shape[0]} rows is not a whole number of poses")
    B = x1.shape[0] // n_joints
    pair = np.concatenate([x1.reshape(B, n_joints, 3),
                           x2.reshape(B, n_joints, 3)], axis=1)
    return tape.leaf(pair.reshape(2 * B * n_joints, 3), op="coarse")


def split_views(X, n_joints):
    """(X1, X2), each (BJ, cols), from a (2BJ, cols) Value laid out like
    coarse_pair_leaf."""
    rows = np.arange(X.shape[0]).reshape(-1, 2, n_joints)
    return ad.gather_rows(X, rows[:, 0]), ad.gather_rows(X, rows[:, 1])


class CVUGCN:
    """The refiner over the fused two-view 2J-node graph.

    kernel_mask zeroes kernel classes for ablations; kernel_mask={4} drops
    the cross-view kernel, which leaves each view refined independently.
    A class outside 0-4, or a mask that leaves some convolution with no
    kernel at all, raises ValueError. The model stores the weights its
    forward reads (weight_shapes), drawn by init_weights unless weights
    are given; given weights of other names or shapes raise ShapeMismatch.
    """

    def __init__(self, topo, config: NetworkConfig, weights=None,
                 kernel_mask=()):
        self.topo = topo
        self.config = config
        self.kernel_mask = frozenset(int(k) for k in kernel_mask)
        self._levels = build_graph_levels(topo)
        kernels = graph_kernels(topo, self._levels)
        self._classes = unit_classes(topo, self.kernel_mask, kernels)
        # Each unit's KernelStack: units on one graph share one.
        by_graph, self._stacks = {}, {}
        for unit, ks in self._classes.items():
            where = UNIT_GRAPHS[unit]
            if where not in by_graph:
                by_graph[where] = ad.KernelStack(
                    [kernels[where].normalized[k] for k in ks])
            self._stacks[unit] = by_graph[where]
        shapes = weight_shapes(config, self._classes)
        if weights is None:
            weights = init_weights(config, self._classes)
        got = [(name, arr.shape) for name, arr in weights.items()]
        if got != shapes:
            bad = next(pair for pair in itertools.zip_longest(got, shapes)
                       if pair[0] != pair[1])
            raise ShapeMismatch(f"weights: got {bad[0]}, the model stores "
                                f"{bad[1]}")
        self.weights = weights
        # Centering matrix: row i of (C @ X) is X_i minus the pose centroid.
        # The convolutions carry no bias terms, so an uncentred camera-frame
        # input would put a metre-scale depth offset on every node; that
        # common mode dwarfs the pose-shaped variation the refiner needs
        # and destabilises the first optimizer steps on the head. Removing
        # the centroid (rather than a root joint) leaves every coordinate
        # channel with zero mean over the nodes of each sample.
        self._center = np.eye(topo.n_joints) - 1.0 / topo.n_joints

    @property
    def param_count(self):
        """Number of weights stored, which is the number the forward reads:
        the head and, per unit, the panel over the kernel classes its conv
        keeps (unit_classes drops masked and all-zero ones)."""
        return sum(arr.size for _, arr in self.weights.items())

    # -- weight access -----------------------------------------------------

    def param_leaves(self, tape):
        """One leaf per weight, in canonical order: a read-only view of
        the weight, which stays unchanged until the tape is released."""
        return {name: tape.leaf(arr, op=f"param:{name}")
                for name, arr in self.weights.items()}

    # -- forward -----------------------------------------------------------

    def refine_from_leaf(self, xin, params):
        """Forward pass from an existing (2BJ, 3) leaf of per-sample 2J-node
        blocks: rows [2Js, 2J(s+1)) hold sample s's view-1 joints, then its
        view-2 joints (see coarse_pair_leaf).

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

        # The J-node centering and spatial kernels act on every J-row block:
        # each view of each sample. The 3 -> C lift is relu(conv(h)); it and
        # the residual unit sgcn.1 after it are one node.
        h = ad.scale(ad.block_left_matmul(self._center, xin), COORD_SCALE)
        h = ad.lift_residual_graph_conv(h, self._stacks["sgcn.0"],
                                        params["sgcn.0"], params["sgcn.1"])

        # Every later unit keeps the width and is in pre-activation residual
        # form, h + conv(relu(h)). The residual form is what keeps training
        # alive under the scale-invariant optimizer: its earliest steps
        # move every weight by the same fixed quantum regardless of
        # gradient size, and the burst of coherent gradients set off when
        # the zero-initialized head first moves can push entire rectifier
        # layers into the silent regime. In a plain stack one silenced
        # layer on the mainline cuts both signal and gradient for good;
        # with the identity path the forward signal and the head's gradient
        # always survive, and silenced branch units recover as the features
        # feeding them shift.
        def unit(h, name):
            return ad.residual_graph_conv(h, self._stacks[name], params[name])

        # Each decoder join adds its unpooled product into the encoder
        # output it skips from, and consumes both (block_left_matmul_add).
        pool, unpool = self._levels.pool, self._levels.unpool
        e0 = unit(h, "mgcn.enc0.0")
        # Only enc0's backward reads h: on a forward-only tape, once no name
        # holds it, it frees here.
        del h
        e1 = unit(ad.block_left_matmul(pool[0], e0), "mgcn.enc1.0")
        bn = unit(ad.block_left_matmul(pool[1], e1), "mgcn.bottleneck.0")
        d1 = unit(ad.block_left_matmul_add(unpool[1], bn, e1), "mgcn.dec1.0")
        res = ad.residual_graph_conv_head(
            ad.block_left_matmul_add(unpool[0], d1, e0),
            self._stacks["mgcn.dec0.0"], params["mgcn.dec0.0"], params["head"])
        refined = ad.add(xin, ad.scale(res, 1.0 / COORD_SCALE))
        return split_views(refined, J)

    def refine_batch(self, tape, x1_mm, x2_mm):
        """Refine B stacked coarse poses per view, each (B*J, 3) in mm.

        The pair enters as one leaf of per-sample 2J-node blocks
        (coarse_pair_leaf). Returns (X1, X2, params): the refined views,
        each (B*J, 3), and the weight-name -> leaf Values used, for
        gradient collection.
        """
        xin = coarse_pair_leaf(tape, x1_mm, x2_mm, self.topo.n_joints)
        params = self.param_leaves(tape)
        X1, X2 = self.refine_from_leaf(xin, params)
        return X1, X2, params

    def refine(self, pose1: Pose3D, pose2: Pose3D):
        """Refine one coarse pose pair; frames are preserved. The tape is
        forward-only, so the forward's arrays free by refcount on return."""
        J = self.topo.n_joints
        if pose1.joints.shape[0] != J or pose2.joints.shape[0] != J:
            raise ShapeMismatch("pose joint count does not match the topology")
        tape = ad.Tape(conv_dtype=CONV_DTYPE, record=False)
        X1, X2, _ = self.refine_batch(tape, pose1.joints, pose2.joints)
        return (Pose3D(X1.data.copy(), frame_id=pose1.frame_id),
                Pose3D(X2.data.copy(), frame_id=pose2.frame_id))


# ---------------------------------------------------------------------------
# Checkpoints, ckpt-v4: four UTF-8 header lines (`ckpt-v4`, `topology <fp>`,
# `config <json>`, `train <json>`), then per array the line
# `array <tag> <rows> <cols>` and exactly rows*cols*8 bytes of
# little-endian float64, C order (tags `weight:<name>`, then
# `opt:<kind>:<name>`, named as weight_shapes names them). The train
# object is training.fit's progress: its loss history and nothing else.

CKPT_SCHEMA = "ckpt-v4"


@dataclass
class Checkpoint:
    config: NetworkConfig
    weights: ModelWeights
    opt_state: dict       # kind -> {name: array}, e.g. "m", "v", "vhat"
    train_state: dict     # JSON-compatible training progress


def _write_array(fh, tag, arr):
    fh.write(f"array {tag} {arr.shape[0]} {arr.shape[1]}\n".encode())
    fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def save_checkpoint(path, topo, config: NetworkConfig, weights: ModelWeights,
                    opt_state, train_state):
    """Write a checkpoint through files.atomic_write: a failed or
    interrupted write leaves any previous checkpoint at `path` intact and
    no partial file behind."""
    with atomic_write(path, binary=True) as fh:
        fh.write(f"{CKPT_SCHEMA}\n"
                 f"topology {topology_fingerprint(topo)}\n"
                 f"config {config.to_json()}\n"
                 f"train {json.dumps(train_state, sort_keys=True)}\n"
                 .encode())
        for name, arr in weights.items():
            _write_array(fh, f"weight:{name}", arr)
        for kind in sorted(opt_state):
            for name, arr in opt_state[kind].items():
                _write_array(fh, f"opt:{kind}:{name}", arr)


def load_checkpoint(path, topo) -> Checkpoint:
    """Read a ckpt-v4 checkpoint of the unmasked model; the topology
    fingerprint must match `topo`."""
    def fail(i, msg):
        raise SchemaError(f"line {i + 1}: {msg}", line=i + 1)

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.readline() != f"{CKPT_SCHEMA}\n".encode():
            fail(0, f"expected header {CKPT_SCHEMA!r}")
        fields = {}
        for i, key in enumerate(("topology", "config", "train"), 1):
            raw = fh.readline()
            if not raw.startswith(f"{key} ".encode()) or raw[-1:] != b"\n":
                fail(i, f"expected {key!r} line")
            fields[key] = raw[len(key) + 1:-1]
        if fields["topology"] != topology_fingerprint(topo).encode():
            raise SchemaError("checkpoint topology fingerprint does not match")
        try:  # json.loads takes the UTF-8 bytes as they are
            config = NetworkConfig.from_json(fields["config"])
            train_state = json.loads(fields["train"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad checkpoint metadata: {exc}")
        except SchemaError as exc:   # a key or value the config cannot hold
            fail(2, str(exc))

        # Own writable buffers: AmsGrad updates loaded arrays in place.
        arrays = {}
        while (offset := fh.tell()) < size:
            raw = fh.readline()
            m = re.fullmatch(rb"array ([!-~]+) (\d+) (\d+)\n", raw)
            if m is None:
                raise SchemaError(f"byte {offset}: expected an array header, "
                                  f"got {raw[:40]!r}")
            tag, rows, cols = m[1].decode(), int(m[2]), int(m[3])
            where = f"byte {offset}: array {tag}"
            if tag in arrays:
                raise SchemaError(f"{where}: duplicate array")
            if rows * cols * 8 > size - fh.tell():
                raise SchemaError(f"{where}: truncated, {rows * cols * 8} "
                                  f"bytes needed, {size - fh.tell()} left")
            arr = np.empty((rows, cols), dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise SchemaError(f"{where}: file shrank while reading")
            if not np.isfinite(arr).all():
                raise SchemaError(f"{where}: holds non-finite values")
            arrays[tag] = arr.astype(np.float64, copy=False)

    expected = dict(weight_shapes(config, unit_classes(topo)))
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
        if tag.startswith("weight:"):
            if tag[7:] not in expected:
                raise SchemaError(f"unknown weight {tag[7:]}")
        elif tag.startswith("opt:"):
            kind, _, name = tag[4:].partition(":")
            if name not in expected:
                raise SchemaError(f"optimizer state for unknown weight {name}")
            opt_state.setdefault(kind, {})[name] = arr
        else:
            raise SchemaError(f"unknown array {tag}")
    return Checkpoint(config=config, weights=ModelWeights(weights),
                      opt_state=opt_state, train_state=train_state)
