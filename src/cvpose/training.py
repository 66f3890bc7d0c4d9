"""Weakly supervised training: coarse triangulation in, refined poses out.

The loop never sees 3D labels. Each sample is triangulated once up front
from its noisy detections and the assumed rig; batches of coarse poses are
refined on a single tape, scored by the 2D reprojection / symmetry /
transform-consistency / bone-direction objective, and the shared weights
are updated with AMSGrad (no bias correction).

Every source of randomness is derived from (seed, epoch), so a run is a
pure function of its inputs and an interrupted run resumed from the last
checkpoint reproduces the uninterrupted one exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (DegenerateGeometry, NonFiniteLoss, NonPositiveDepth,
                     SchemaError)
from .geometry import Pose2D, relative_transform, triangulate_pose
from .graph import default_topology
from .losses import LossWeights, total_loss
from .network import (CVUGCN, NetworkConfig, init_weights, load_checkpoint,
                      save_checkpoint)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 256
    initial_lr: float = 1e-3
    lr_decay: float = 0.9
    plateau_epochs: int = 10
    seed: int = 0
    tri_mode: str = "dual"
    legacy_transform_double: bool = False
    w_reproj: float = 1.0
    w_sym: float = 1.0
    w_transform: float = 1.0
    w_bonedir: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    checkpoint_every: int = 0
    channels: int = 128
    sgcn_layers: int = 2
    mgcn_layers_per_stage: int = 1
    coord_scale: float = 0.001
    init_seed: int = 0

    def network(self) -> NetworkConfig:
        return NetworkConfig(channels=self.channels,
                             sgcn_layers=self.sgcn_layers,
                             mgcn_layers_per_stage=self.mgcn_layers_per_stage,
                             coord_scale=self.coord_scale,
                             init_seed=self.init_seed)

    def loss_weights(self) -> LossWeights:
        return LossWeights(reproj=self.w_reproj, sym=self.w_sym,
                           transform=self.w_transform, bonedir=self.w_bonedir)


def save_train_config(path, config: TrainConfig):
    with open(path, "w") as fh:
        for f in dataclasses.fields(TrainConfig):
            fh.write(f"{f.name} = {getattr(config, f.name)!r}\n")


def load_train_config(path) -> TrainConfig:
    """Flat key = value file; '#' comments and blank lines are ignored."""
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise SchemaError(f"line {lineno}: expected key = value",
                                  line=lineno)
            key, _, val = text.partition("=")
            key, val = key.strip(), val.strip()
            if key not in fields:
                raise SchemaError(f"line {lineno}: unknown key {key!r}",
                                  line=lineno)
            kind = fields[key]
            try:
                if kind in ("bool", bool):
                    low = val.strip("'\"").lower()
                    if low in ("true", "1"):
                        values[key] = True
                    elif low in ("false", "0"):
                        values[key] = False
                    else:
                        raise ValueError(val)
                elif kind in ("int", int):
                    values[key] = int(val)
                elif kind in ("float", float):
                    values[key] = float(val)
                else:
                    values[key] = val.strip("'\"")
            except ValueError:
                raise SchemaError(
                    f"line {lineno}: bad value {val!r} for {key}", line=lineno)
    return TrainConfig(**values)


class AmsGrad:
    """AMSGrad without bias correction.

    theta <- theta - lr * m / (sqrt(v_hat) + eps), where v_hat is the
    running elementwise maximum of the second-moment accumulator.
    """

    def __init__(self, shapes, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.vhat = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, weights, grads, lr):
        for name, g in grads.items():
            m, v, vhat = self.m[name], self.v[name], self.vhat[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            np.maximum(vhat, v, out=vhat)
            w = weights[name]
            w -= lr * m / (np.sqrt(vhat) + self.epsilon)

    def state(self):
        return {"m": {k: a.copy() for k, a in self.m.items()},
                "v": {k: a.copy() for k, a in self.v.items()},
                "vhat": {k: a.copy() for k, a in self.vhat.items()}}

    def load_state(self, state):
        for kind in ("m", "v", "vhat"):
            slot = getattr(self, kind)
            for name, arr in state[kind].items():
                if name not in slot:
                    raise SchemaError(f"optimizer state names unknown array {name!r}")
                if slot[name].shape != arr.shape:
                    raise SchemaError(f"optimizer state shape mismatch for {name!r}")
                slot[name] = np.array(arr, dtype=np.float64)


def schedule_lr(history, config: TrainConfig) -> float:
    """Learning rate for the epoch following `history`.

    Recomputed from scratch each call: a decay fires whenever the count of
    epochs since the last strict improvement reaches a positive multiple of
    plateau_epochs.
    """
    lr = config.initial_lr
    best = math.inf
    since = 0
    for loss in history:
        if loss < best:
            best = loss
            since = 0
        else:
            since += 1
            if since % config.plateau_epochs == 0:
                lr *= config.lr_decay
    return lr


def precompute_coarse(samples, cameras, topo=None, mode="dual"):
    """Triangulate every sample once from its noisy 2D detections.

    Returns (coarse, skipped): coarse maps sample id to the pair of
    camera-frame joint arrays in mm, skipped lists ids of samples whose
    triangulation failed (degenerate geometry or non-positive depth).
    """
    topo = topo or default_topology()
    by_id = {c.cam_id: c for c in cameras}
    coarse = {}
    skipped = []
    for s in samples:
        cam1, cam2 = by_id[s.pair[0]], by_id[s.pair[1]]
        try:
            p1, p2 = triangulate_pose(
                Pose2D(s.joints_2d[s.pair[0]], view_id=s.pair[0]),
                Pose2D(s.joints_2d[s.pair[1]], view_id=s.pair[1]),
                cam1, cam2, mode=mode)
        except (DegenerateGeometry, NonPositiveDepth):
            skipped.append(s.sample_id)
            continue
        coarse[s.sample_id] = (p1.joints, p2.joints)
    return coarse, skipped


def _pair_batches(samples, order, batch_size):
    """Chunk `order` (indices into samples) into same-pair batches,
    pairs keyed by first appearance, sample order preserved."""
    groups = {}
    for idx in order:
        groups.setdefault(samples[idx].pair, []).append(idx)
    for pair, idxs in groups.items():
        for k in range(0, len(idxs), batch_size):
            yield pair, idxs[k:k + batch_size]


def _batch_arrays(samples, coarse, idxs, pair):
    x1 = np.vstack([coarse[samples[i].sample_id][0] for i in idxs])
    x2 = np.vstack([coarse[samples[i].sample_id][1] for i in idxs])
    y1 = np.vstack([samples[i].joints_2d_clean[pair[0]] for i in idxs])
    y2 = np.vstack([samples[i].joints_2d_clean[pair[1]] for i in idxs])
    return x1, x2, y1, y2


def _pair_transforms(samples, idxs, by_id):
    """Relative transform from view 2 to view 1 for every pair in idxs."""
    rels = {}
    for i in idxs:
        pair = samples[i].pair
        if pair not in rels:
            rels[pair] = relative_transform(by_id[pair[1]], by_id[pair[0]])
    return rels


def _check_finite(loss, grads, epoch, pair):
    """Raise before an update that would write NaN or inf into the weights."""
    bad = next((name for name, g in grads.items() if not np.isfinite(g).all()),
               None)
    if bad is not None or not math.isfinite(loss):
        raise NonFiniteLoss(
            f"epoch {epoch}, pair {pair[0]}/{pair[1]}: loss {loss!r}, "
            f"first non-finite gradient: {bad or 'none'}")


def _batch_loss(model, cams, rels, pair, x1, x2, y1, y2, weights_cfg,
                double_count, with_grad):
    tape = ad.Tape()
    try:
        X1, X2, params = model.refine_batch(tape, x1, x2)
        total, parts = total_loss(
            X1, X2, y1, y2, cams[pair[0]], cams[pair[1]], rels[pair],
            model.topo, weights_cfg, legacy_transform_double=double_count)
        B = x1.shape[0] // model.topo.n_joints
        loss = ad.scale(total, 1.0 / B)
        if with_grad:
            tape.backward(loss)
            grads = {name: leaf.grad.copy() for name, leaf in params.items()}
        else:
            grads = None
        vals = {k: v.data.item() for k, v in parts.items()}
        out = loss.data.item()
    finally:
        tape.release()
    return out, vals, B, grads


def train_epoch(samples, coarse, cameras, model, optimizer, lr,
                config: TrainConfig, epoch):
    """One pass over the usable samples. Returns per-sample mean losses,
    NaN when no batch could be scored."""
    by_id = {c.cam_id: c for c in cameras}
    usable = [i for i, s in enumerate(samples) if s.sample_id in coarse]
    rng = np.random.default_rng((config.seed, epoch))
    order = [usable[j] for j in rng.permutation(len(usable))]
    rels = _pair_transforms(samples, usable, by_id)
    sums = {"loss": 0.0, "reproj": 0.0, "sym": 0.0, "transform": 0.0,
            "bonedir": 0.0}
    seen = 0
    behind = 0
    weights_cfg = config.loss_weights()
    for pair, idxs in _pair_batches(samples, order, config.batch_size):
        x1, x2, y1, y2 = _batch_arrays(samples, coarse, idxs, pair)
        try:
            loss, parts, B, grads = _batch_loss(
                model, by_id, rels, pair, x1, x2, y1, y2, weights_cfg,
                config.legacy_transform_double, with_grad=True)
        except NonPositiveDepth:
            # A refinement that throws a joint behind a camera has no
            # usable reprojection; drop the batch rather than the run.
            behind += len(idxs)
            continue
        _check_finite(loss, grads, epoch, pair)
        optimizer.step(model.weights, grads, lr)
        sums["loss"] += loss * B
        for key in ("reproj", "sym", "transform", "bonedir"):
            sums[key] += parts[key]
        seen += B
    # An epoch that scored no batch has no loss; NaN compares false, so it
    # never counts as an improvement.
    stats = {k: v / seen if seen else math.nan for k, v in sums.items()}
    stats["depth_skipped"] = behind
    return stats


def eval_loss(samples, coarse, cameras, model, config: TrainConfig):
    """Per-sample mean training objective, no parameter updates; NaN when
    no batch could be scored."""
    by_id = {c.cam_id: c for c in cameras}
    usable = [i for i, s in enumerate(samples) if s.sample_id in coarse]
    rels = _pair_transforms(samples, usable, by_id)
    total = 0.0
    seen = 0
    weights_cfg = config.loss_weights()
    for pair, idxs in _pair_batches(samples, usable, config.batch_size):
        x1, x2, y1, y2 = _batch_arrays(samples, coarse, idxs, pair)
        try:
            loss, _, B, _ = _batch_loss(
                model, by_id, rels, pair, x1, x2, y1, y2, weights_cfg,
                config.legacy_transform_double, with_grad=False)
        except NonPositiveDepth:
            continue
        total += loss * B
        seen += B
    return total / seen if seen else math.nan


LOG_HEADER = "epoch,loss,reproj,sym,transform,bonedir,lr,skipped"


def _open_log(path, start_epoch):
    """Open the CSV log for the rows of epochs start_epoch onward.

    A resumed run keeps the rows of earlier epochs from the existing log and
    drops later ones, so epochs repeated after the checkpoint are not logged
    twice.
    """
    rows = []
    if start_epoch and os.path.exists(path):
        with open(path) as fh:
            rows = [r for r in fh.read().splitlines()[1:]
                    if int(r.split(",", 1)[0]) < start_epoch]
    log = open(path, "w")
    log.write("\n".join([LOG_HEADER, *rows]) + "\n")
    return log


def _log_row(epoch, stats, lr, skipped):
    vals = [stats["loss"], stats["reproj"], stats["sym"], stats["transform"],
            stats["bonedir"], lr]
    return f"{epoch}," + ",".join(repr(float(v)) for v in vals) + f",{skipped}"


@dataclass
class TrainResult:
    weights: object
    history: list
    best_val: float
    checkpoints: dict = field(default_factory=dict)
    skipped_train: list = field(default_factory=list)
    skipped_val: list = field(default_factory=list)


def fit(train_samples, val_samples, cameras, config: TrainConfig,
        topo=None, out_dir=".", log_path=None, resume_from=None,
        progress=None):
    """Full training run; writes checkpoints and a CSV log under out_dir.

    The plateau schedule and the best-checkpoint decision monitor the
    validation objective (the training objective when val_samples is
    empty). Resuming from a checkpoint written by this function continues
    as if the run had never stopped.
    """
    topo = topo or default_topology()
    os.makedirs(out_dir, exist_ok=True)
    log_path = log_path or os.path.join(out_dir, "train_log.csv")

    ckpt = None if resume_from is None else load_checkpoint(resume_from, topo)
    net_cfg = config.network() if ckpt is None else ckpt.config
    weights = init_weights(net_cfg) if ckpt is None else ckpt.weights
    model = CVUGCN(topo, net_cfg, weights=weights)
    optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()},
                        config.beta1, config.beta2, config.epsilon)
    start_epoch = 0
    history = []
    best_val = math.inf
    if ckpt is not None:
        optimizer.load_state(ckpt.opt_state)
        start_epoch = int(ckpt.train_state["next_epoch"])
        history = [float(x) for x in ckpt.train_state["loss_history"]]
        best_val = ckpt.train_state.get("best_val")
        best_val = math.inf if best_val is None else float(best_val)

    coarse_train, skipped_train = precompute_coarse(
        train_samples, cameras, topo, mode=config.tri_mode)
    coarse_val, skipped_val = precompute_coarse(
        val_samples, cameras, topo, mode=config.tri_mode) if val_samples \
        else ({}, [])

    log = _open_log(log_path, start_epoch)

    def snapshot_state(next_epoch):
        return {"next_epoch": next_epoch,
                "loss_history": list(history),
                "best_val": None if math.isinf(best_val) else best_val}

    best_snap = None
    paths = {}
    try:
        for epoch in range(start_epoch, config.epochs):
            lr = schedule_lr(history, config)
            stats = train_epoch(train_samples, coarse_train, cameras, model,
                                optimizer, lr, config, epoch)
            if val_samples:
                monitor = eval_loss(val_samples, coarse_val, cameras, model,
                                    config)
            else:
                monitor = stats["loss"]
            history.append(monitor)
            skipped = len(skipped_train) + stats.get("depth_skipped", 0)
            log.write(_log_row(epoch, stats, lr, skipped) + "\n")
            log.flush()
            if monitor < best_val:
                best_val = monitor
                best_snap = (model.weights.copy(), optimizer.state(),
                             epoch + 1, snapshot_state(epoch + 1))
            if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                path = os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt")
                save_checkpoint(path, topo, net_cfg, model.weights, epoch + 1,
                                optimizer.state(), snapshot_state(epoch + 1))
                paths[f"epoch_{epoch + 1:04d}"] = path
            if progress is not None:
                progress(epoch, stats, lr, monitor)
    finally:
        log.close()

    final_path = os.path.join(out_dir, "final.ckpt")
    save_checkpoint(final_path, topo, net_cfg, model.weights, config.epochs,
                    optimizer.state(), snapshot_state(config.epochs))
    paths["final"] = final_path
    if best_snap is not None:
        w, opt_state, step, state = best_snap
        best_path = os.path.join(out_dir, "best.ckpt")
        save_checkpoint(best_path, topo, net_cfg, w, step, opt_state, state)
        paths["best"] = best_path
    return TrainResult(weights=model.weights, history=history,
                       best_val=best_val, checkpoints=paths,
                       skipped_train=skipped_train, skipped_val=skipped_val)
