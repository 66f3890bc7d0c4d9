"""Weakly supervised training: coarse triangulation in, refined poses out.

The loop never sees 3D labels. Each sample is triangulated once up front
from its noisy detections and the assumed rig; batches of coarse poses are
refined on a single tape, scored by the 2D reprojection / symmetry /
transform-consistency / bone-direction objective (losses.LOSS_WEIGHTS),
and the shared weights are updated with AMSGrad without bias correction
(beta1 0.9, beta2 0.999, epsilon 1e-8) at a learning rate of 1e-3, times
0.9 after every 10 epochs without improvement. The recipe is fixed, so a
train.cfg holds TrainConfig's seven fields and no other key. The coarse
poses travel as one (n, 2, J, 3) stack (`CoarsePoses`); training,
validation and evaluation refine row slices of it in the batches
`pair_batches` makes.

`train_epochs` is the one epoch loop: it schedules the learning rate,
runs `train_epoch` and records the monitored loss, yielding after each
epoch. `fit` drives it with a validation monitor, the CSV log and the
checkpoints; the studies in `experiments` drive it directly.

Every source of randomness is derived from (seed, epoch), so a run is a
pure function of its inputs and an interrupted run resumed from the last
checkpoint reproduces the uninterrupted one exactly, on the same BLAS
thread count: a BLAS product may round differently when it is split over
another number of threads (at C=128, B=256 the weights after two epochs
differ between 1 and 2 threads).
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (CvposeError, NonFiniteLoss, NonPositiveDepth,
                     SchemaError)
from .files import atomic_write, is_finite_number, nonblank_lines
from .geometry import TRI_MODES, relative_transform, triangulate_stack
from .graph import default_topology
from .losses import LOSS_WEIGHTS, behind_camera, total_loss
from .network import (CONFIG_MINIMUM, CONV_DTYPE, CVUGCN, NetworkConfig,
                      load_checkpoint, range_problem, save_checkpoint)


# The recipe's schedule (schedule_lr) and optimizer (AmsGrad).
INITIAL_LR = 1e-3
LR_DECAY = 0.9
PLATEAU_EPOCHS = 10
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# The least value of each int TrainConfig field (network.range_problem).
SETTING_MINIMUM = {"epochs": 0, "batch_size": 1, "seed": 0,
                   "checkpoint_every": 0, **CONFIG_MINIMUM}
# How save_train_config writes an int and a str value: an optional '-' and
# ASCII digits, and the text bare or in one matching pair of quotes.
VALUE_FORMS = {int: re.compile(r"-?[0-9]+"),
               str: re.compile(r"""(['"]?)[^'"]*\1""")}


@dataclass
class TrainConfig:
    """A run's settings. The recipe is fixed: AMSGrad without bias
    correction (beta1 0.9, beta2 0.999, epsilon 1e-8) at lr 1e-3, times 0.9
    after every 10 epochs without improvement, on losses.LOSS_WEIGHTS, so
    none of those is a setting. tri_mode is `triangulate_stack`'s mode:
    "dual" places view 2's coarse pose on camera 2's own ray, "single"
    maps view 1's pose into camera 2's frame; the two agree up to
    rounding."""
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0
    tri_mode: str = "dual"
    checkpoint_every: int = 0
    channels: int = 128
    init_seed: int = 0

    def network(self) -> NetworkConfig:
        return NetworkConfig(channels=self.channels, init_seed=self.init_seed)


def save_train_config(path, config: TrainConfig):
    with atomic_write(path) as fh:
        for f in dataclasses.fields(TrainConfig):
            fh.write(f"{f.name} = {getattr(config, f.name)!r}\n")


def load_train_config(path) -> TrainConfig:
    """Flat key = value file; '#' comments and blank lines are ignored.

    The file is UTF-8 whatever the locale. Its keys are TrainConfig's
    fields, each written as save_train_config writes a value of its kind
    (VALUE_FORMS) and in its range (setting_problem); any other key is
    refused by name. A key set on two lines is refused, naming both.
    """
    kinds = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    values = {}
    key_line = {}   # key -> line that set it
    for lineno, raw in nonblank_lines(path):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise SchemaError(f"line {lineno}: expected key = value",
                              line=lineno)
        key, _, val = text.partition("=")
        key, val = key.strip(), val.strip()
        if key not in kinds:
            raise SchemaError(f"line {lineno}: unknown key {key!r}",
                              line=lineno)
        kind = kinds[key]
        if not VALUE_FORMS[kind].fullmatch(val):
            raise SchemaError(
                f"line {lineno}: bad value {val!r} for {key}", line=lineno)
        values[key] = val.strip("'\"") if kind is str else int(val)
        problem = setting_problem(key, values[key])
        if problem:
            raise SchemaError(f"line {lineno}: {problem}", line=lineno)
        if key in key_line:
            raise SchemaError(f"line {lineno}: {key} repeats line "
                              f"{key_line[key]}", line=lineno)
        key_line[key] = lineno
    return TrainConfig(**values)


def setting_problem(key, value):
    """Why a TrainConfig value would fail inside a run, or None.

    Checked where a value enters (a train.cfg; the CLI's int flags are held
    to the same SETTING_MINIMUM), so a bad setting is reported by name
    instead of surfacing as an error mid-training.
    """
    if key == "tri_mode" and value not in TRI_MODES:
        return f"tri_mode must be one of {', '.join(TRI_MODES)}, got {value!r}"
    return range_problem(key, value, SETTING_MINIMUM)


class AmsGrad:
    """AMSGrad without bias correction, for arrays of the given shapes:
    theta <- theta - lr * m / (sqrt(v_hat) + EPSILON), with the moments m
    and v decayed by BETA1 and BETA2 and v_hat the running maximum of v."""

    def __init__(self, shapes):
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.vhat = {k: np.zeros(s) for k, s in shapes.items()}

    def step(self, weights, grads, lr):
        for name, g in grads.items():
            m, v, vhat = self.m[name], self.v[name], self.vhat[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            np.maximum(vhat, v, out=vhat)
            w = weights[name]
            w -= lr * m / (np.sqrt(vhat) + EPSILON)

    def state(self):
        """{"m", "v", "vhat"} -> {name: array}: fresh dicts over the live
        arrays, not copies, valid until the next step (a checkpoint save
        writes them out at once). load_state copies what it is given."""
        return {"m": dict(self.m), "v": dict(self.v), "vhat": dict(self.vhat)}

    def load_state(self, state):
        unknown = state.keys() - {"m", "v", "vhat"}
        if unknown:
            raise SchemaError(f"optimizer state has unknown kind "
                              f"{min(unknown)!r}")
        for kind in ("m", "v", "vhat"):
            if kind not in state:
                raise SchemaError(f"optimizer state lacks {kind!r}")
            slot = getattr(self, kind)
            missing = slot.keys() - state[kind].keys()
            if missing:
                raise SchemaError(f"optimizer state {kind!r} lacks "
                                  f"{', '.join(sorted(missing))}")
            for name, arr in state[kind].items():
                if name not in slot:
                    raise SchemaError(f"optimizer state names unknown array {name!r}")
                if slot[name].shape != arr.shape:
                    raise SchemaError(f"optimizer state shape mismatch for {name!r}")
                slot[name] = np.array(arr, dtype=np.float64)


def schedule_lr(history) -> float:
    """Learning rate for the epoch following `history`.

    Recomputed from scratch each call, starting at INITIAL_LR: a decay by
    LR_DECAY fires whenever the count of epochs since the last strict
    improvement reaches a positive multiple of PLATEAU_EPOCHS.
    """
    lr = INITIAL_LR
    best = math.inf
    since = 0
    for loss in history:
        if loss < best:
            best = loss
            since = 0
        else:
            since += 1
            if since % PLATEAU_EPOCHS == 0:
                lr *= LR_DECAY
    return lr


# Samples per stacked triangulation solve in precompute_coarse, so the
# solver's temporaries (a 4.1 MB peak at 17 joints, its results included)
# do not grow with the dataset.
COARSE_CHUNK = 1024


@dataclass(frozen=True)
class CoarsePoses:
    """Coarse poses of the samples that triangulated: `index`, their
    increasing positions in the sample list, and `poses`, an (n, 2, J, 3)
    stack in mm, view 1 then view 2, each in its camera's frame (the block
    order of `network.coarse_pair_leaf`)."""
    index: np.ndarray
    poses: np.ndarray


def precompute_coarse(samples, cameras, mode="dual"):
    """Triangulate every sample once from its noisy 2D detections.

    Samples are solved per camera pair, COARSE_CHUNK at a time, with
    `triangulate_stack`. Returns (coarse, skipped): the CoarsePoses of the
    samples that triangulated, and the ids of those whose triangulation
    failed (degenerate geometry or non-positive depth), in sample order.
    Sample ids must be unique, since reports name samples by id: a
    repeated id raises ValueError. A sample that names a camera the rig
    lacks raises SchemaError before anything is solved.
    """
    by_id = {c.cam_id: c for c in cameras}
    seen = set()
    for s in samples:
        if s.sample_id in seen:
            raise ValueError(f"sample id {s.sample_id!r} repeats; reports "
                             f"name samples by id")
        seen.add(s.sample_id)
        for cam in s.pair:
            if cam not in by_id:
                raise SchemaError(f"sample {s.sample_id!r} names camera "
                                  f"{cam!r}, which the rig does not have")
    J = len(samples[0].joints_2d[samples[0].pair[0]]) if samples else 0
    poses = np.empty((len(samples), 2, J, 3))
    solved = np.zeros(len(samples), dtype=bool)
    for (a, b), idxs, batch in pair_batches(samples, range(len(samples)),
                                            COARSE_CHUNK):
        X1, X2, errors = triangulate_stack(
            np.stack([s.joints_2d[a] for s in batch]),
            np.stack([s.joints_2d[b] for s in batch]),
            by_id[a], by_id[b], mode=mode)
        poses[idxs, 0], poses[idxs, 1] = X1, X2
        solved[idxs] = [e is None for e in errors]
    index = np.flatnonzero(solved)
    skipped = [samples[i].sample_id for i in np.flatnonzero(~solved)]
    return CoarsePoses(index, poses[index]), skipped


def pair_batches(samples, index, batch_size, order=None):
    """Same-pair batches of samples[index], at most batch_size each.

    Yields (pair, rows, batch): rows are positions in `index`, taken in
    `order` (default ascending), and batch their samples. Pairs come by
    first appearance.
    """
    groups = {}
    for r in range(len(index)) if order is None else order:
        groups.setdefault(samples[index[r]].pair, []).append(r)
    for pair, rows in groups.items():
        for k in range(0, len(rows), batch_size):
            chunk = rows[k:k + batch_size]
            yield pair, chunk, [samples[index[r]] for r in chunk]


def _check_finite(loss, grads, epoch, pair):
    """Raise before an update that would write NaN or inf into the weights."""
    bad = next((name for name, g in grads.items() if not np.isfinite(g).all()),
               None)
    if bad is not None or not math.isfinite(loss):
        raise NonFiniteLoss(
            f"epoch {epoch}, pair {pair[0]}/{pair[1]}: loss {loss!r}, "
            f"first non-finite gradient: {bad or 'none'}")


def _batch_loss(model, cams, pair, batch, x, with_grad):
    """Refine and score one batch of coarse poses x, (B, 2, J, 3), against
    the clean 2D joints of its samples; returns (loss, parts, B, grads).

    A sample whose refined pose has a joint behind either camera has no
    reprojection, so it is left out of the loss: the rest are scored
    through gather_rows and B counts them. A batch with no such sample
    takes no gather. NonPositiveDepth is raised only when no sample is
    left. Without with_grad the tape is forward-only and grads is None.
    """
    cam1, cam2 = cams[pair[0]], cams[pair[1]]
    y1, y2 = (np.vstack([s.joints_2d_clean[v] for s in batch]) for v in pair)
    tape = ad.Tape(conv_dtype=CONV_DTYPE, record=with_grad)
    try:
        X1, X2, params = model.refine_batch(tape, x[:, 0].reshape(-1, 3),
                                            x[:, 1].reshape(-1, 3))
        J = model.topo.n_joints
        behind = behind_camera(X1, cam1, J) | behind_camera(X2, cam2, J)
        B = int(behind.size - behind.sum())
        if not B:
            raise NonPositiveDepth(f"all {behind.size} refined samples have "
                                   f"a joint behind a camera")
        if B < behind.size:
            rows = np.arange(behind.size * J).reshape(-1, J)[~behind].ravel()
            X1, X2 = ad.gather_rows(X1, rows), ad.gather_rows(X2, rows)
            y1, y2 = y1[rows], y2[rows]
        total, parts = total_loss(X1, X2, y1, y2, cam1, cam2,
                                  relative_transform(cam2, cam1),
                                  model.topo)
        loss = ad.scale(total, 1.0 / B)
        if with_grad:
            tape.backward(loss)
            grads = {name: leaf.grad for name, leaf in params.items()}
        else:
            grads = None
        vals = {k: v.data.item() for k, v in parts.items()}
        out = loss.data.item()
    finally:
        tape.release()
    return out, vals, B, grads


def train_epoch(samples, coarse, cameras, model, optimizer, lr,
                config: TrainConfig, epoch):
    """One pass over the triangulated samples. Returns per-sample mean losses.

    An epoch that scores no sample has no loss and no update to show, so
    it raises NonFiniteLoss naming the epoch, how many samples were
    dropped behind a camera and how many were left untriangulated.
    """
    by_id = {c.cam_id: c for c in cameras}
    rng = np.random.default_rng((config.seed, epoch))
    order = rng.permutation(len(coarse.index))
    sums = dict.fromkeys(["loss", *LOSS_WEIGHTS], 0.0)
    seen = 0
    behind = 0
    for pair, rows, batch in pair_batches(samples, coarse.index,
                                          config.batch_size, order):
        try:
            loss, parts, B, grads = _batch_loss(
                model, by_id, pair, batch, coarse.poses[rows], with_grad=True)
        except NonPositiveDepth:
            # Every refinement threw a joint behind a camera: no sample
            # has a usable reprojection; drop the batch rather than the run.
            behind += len(batch)
            continue
        behind += len(batch) - B
        _check_finite(loss, grads, epoch, pair)
        optimizer.step(model.weights, grads, lr)
        sums["loss"] += loss * B
        for key, part in parts.items():
            sums[key] += part
        seen += B
    if not seen:
        raise NonFiniteLoss(
            f"epoch {epoch}: no sample scored; {behind} dropped behind a "
            f"camera, {len(samples) - len(coarse.index)} untriangulated")
    stats = {k: v / seen for k, v in sums.items()}
    stats["depth_skipped"] = behind
    return stats


def train_epochs(model, optimizer, samples, coarse, cameras,
                 config: TrainConfig, history, monitor=None):
    """Train epochs len(history) to config.epochs - 1; yield (epoch, lr,
    stats) after each.

    Before each yield the epoch's monitored loss is appended to `history`:
    monitor() when given, the epoch's training loss otherwise. The plateau
    schedule reads that list, so a resumed run passes the history it
    stopped with and continues where it left off. A monitor that reads NaN
    (no validation sample could be scored) gives the schedule and the best
    checkpoint nothing to go on, so it raises NonFiniteLoss naming the
    epoch.
    """
    for epoch in range(len(history), config.epochs):
        lr = schedule_lr(history)
        stats = train_epoch(samples, coarse, cameras, model, optimizer, lr,
                            config, epoch)
        loss = stats["loss"] if monitor is None else monitor()
        if math.isnan(loss):
            raise NonFiniteLoss(f"epoch {epoch}: monitored validation loss "
                                "is nan; no validation sample could be "
                                "scored")
        history.append(loss)
        yield epoch, lr, stats


def eval_loss(samples, coarse, cameras, model, config: TrainConfig):
    """Per-sample mean training objective, no parameter updates; NaN when
    no batch could be scored."""
    by_id = {c.cam_id: c for c in cameras}
    total = 0.0
    seen = 0
    for pair, rows, batch in pair_batches(samples, coarse.index,
                                          config.batch_size):
        try:
            loss, _, B, _ = _batch_loss(model, by_id, pair, batch,
                                        coarse.poses[rows], with_grad=False)
        except NonPositiveDepth:
            continue
        total += loss * B
        seen += B
    return total / seen if seen else math.nan


# skipped_tri: training samples precompute_coarse could not triangulate;
# dropped_depth: samples of this epoch's batches left out of the loss because
# their refined pose has a joint behind a camera.
LOG_HEADER = ("epoch,loss,reproj,sym,transform,bonedir,lr,skipped_tri,"
              "dropped_depth")


def _open_log(path, start_epoch):
    """Open the CSV log for the rows of epochs start_epoch onward.

    A resumed run keeps the rows of earlier epochs from the existing log and
    drops later ones, so epochs repeated after the checkpoint are not logged
    twice. The old log is read as UTF-8, its first non-blank line taken as
    the header and blank lines skipped; a row whose epoch field is not a
    non-negative integer raises SchemaError naming its line. The header and
    kept rows are rewritten through files.atomic_write, so a failed rewrite
    leaves the old log intact; the returned handle appends to the new one.
    """
    rows = []
    if start_epoch and os.path.exists(path):
        lines = nonblank_lines(path)
        next(lines, None)
        for lineno, text in lines:
            row = text.rstrip("\r\n")
            epoch = row.split(",", 1)[0]
            if not (epoch.isascii() and epoch.isdigit()):
                raise SchemaError(f"line {lineno}: a log row must start with "
                                  f"its epoch, a non-negative integer, got "
                                  f"{epoch!r}", line=lineno)
            if int(epoch) < start_epoch:
                rows.append(row)
    with atomic_write(path) as fh:
        fh.write("\n".join([LOG_HEADER, *rows]) + "\n")
    return open(path, "a", encoding="utf-8")


def _log_row(epoch, stats, lr, skipped_tri):
    vals = [stats["loss"], *(stats[k] for k in LOSS_WEIGHTS), lr]
    return (f"{epoch}," + ",".join(repr(float(v)) for v in vals)
            + f",{skipped_tri},{stats['depth_skipped']}")


@dataclass
class TrainResult:
    weights: object
    history: list
    best_val: float
    network: NetworkConfig      # the trained one: a checkpoint's on resume
    checkpoints: dict = field(default_factory=dict)
    skipped_train: list = field(default_factory=list)


def _resume_history(state):
    """The loss history in a checkpoint's training state: a JSON object
    whose one key, loss_history, is a list of numbers, JSON ones as fit
    writes them (NaN and the infinities are not, RFC 8259). A missing or
    malformed loss_history, or any other key, raises SchemaError naming
    the key."""
    if not isinstance(state, dict):
        raise SchemaError(f"checkpoint training state must be a JSON "
                          f"object, got {state!r}")
    if "loss_history" not in state:
        raise SchemaError("checkpoint lacks training state 'loss_history'; "
                          "it cannot resume a run")
    unknown = state.keys() - {"loss_history"}
    if unknown:
        raise SchemaError(f"checkpoint training state has unknown key "
                          f"{min(unknown)!r}")
    history = state["loss_history"]
    if not (isinstance(history, list)
            and all(map(is_finite_number, history))):
        raise SchemaError("checkpoint training state 'loss_history' must be "
                          "a list of numbers")
    return [float(x) for x in history]


def fit(train_samples, val_samples, cameras, config: TrainConfig,
        topo=None, out_dir=".", resume_from=None, progress=None):
    """Full training run; writes checkpoints and a CSV log under out_dir.

    The plateau schedule and the best-checkpoint decision monitor the
    validation objective (the training objective when val_samples is
    empty); best.ckpt is written at each epoch that strictly improves on
    it, so an interrupted run keeps the best weights it has seen. Each
    checkpoint records the monitored loss history and nothing else of the
    run's progress. Resuming from a checkpoint written by this function, in
    the same out_dir, continues as if the run had never stopped, on the
    same BLAS thread count (see the module docstring): the run picks up at
    epoch len(loss_history) with min(loss_history) as its best, and a
    checkpoint whose history lies past config.epochs is rejected before
    anything in out_dir is written. The result's checkpoints name the files
    this call wrote and, on a resume with a non-empty history, the
    best.ckpt already in out_dir. An epoch that scores no training sample,
    or no validation sample, stops the run with NonFiniteLoss (see
    train_epoch and train_epochs), and no final checkpoint is written.
    """
    topo = topo or default_topology()
    os.makedirs(out_dir, exist_ok=True)

    ckpt = None if resume_from is None else load_checkpoint(resume_from, topo)
    net_cfg = config.network() if ckpt is None else ckpt.config
    model = CVUGCN(topo, net_cfg,
                   weights=None if ckpt is None else ckpt.weights)
    optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()})
    history = []
    if ckpt is not None:
        # A checkpoint saved without training progress can seed weights but
        # cannot continue a run; reject it before anything is written.
        optimizer.load_state(ckpt.opt_state)
        history = _resume_history(ckpt.train_state)
        if len(history) > config.epochs:
            raise CvposeError(f"checkpoint resumes at epoch {len(history)} "
                              f"but the run has only {config.epochs} epochs")
    best_val = min(history, default=math.inf)

    coarse_train, skipped_train = precompute_coarse(
        train_samples, cameras, mode=config.tri_mode)
    monitor = None
    if val_samples:
        coarse_val, _ = precompute_coarse(val_samples, cameras,
                                          mode=config.tri_mode)

        def monitor():
            return eval_loss(val_samples, coarse_val, cameras, model, config)

    log = _open_log(os.path.join(out_dir, "train_log.csv"), len(history))
    paths = {}
    # A resumed run's best so far was written before it stopped.
    best_path = os.path.join(out_dir, "best.ckpt")
    if history and os.path.exists(best_path):
        paths["best"] = best_path

    def save(name):
        paths[name] = os.path.join(out_dir, f"{name}.ckpt")
        save_checkpoint(paths[name], topo, net_cfg, model.weights,
                        optimizer.state(), {"loss_history": history})

    try:
        for epoch, lr, stats in train_epochs(
                model, optimizer, train_samples, coarse_train, cameras,
                config, history, monitor):
            log.write(_log_row(epoch, stats, lr, len(skipped_train)) + "\n")
            log.flush()
            if history[-1] < best_val:
                best_val = history[-1]
                save("best")
            if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                save(f"epoch_{epoch + 1:04d}")
            if progress is not None:
                progress(epoch, stats, lr, history[-1])
    finally:
        log.close()

    save("final")
    return TrainResult(weights=model.weights, history=history,
                       best_val=best_val, network=net_cfg, checkpoints=paths,
                       skipped_train=skipped_train)
