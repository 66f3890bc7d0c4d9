"""Built-in studies: noise robustness, component ablations, unseen pairs.

The ablation study compares five variants: "full" (the CV-UGCN),
"no_refine" (the untrained identity, i.e. triangulation alone),
"no_spatial" (kinematic, two-hop and symmetry kernels masked),
"no_crossview" (cross-view kernel masked, so the views never exchange
information) and "fc" (a fully connected baseline with a matched
parameter budget).

Each study returns plain rows (lists of dicts) that the CLI prints as an
aligned table and writes as JSON, so results are easy to diff across runs.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import MissingGroundTruth, ShapeMismatch
from .geometry import Pose3D
from .graph import default_topology
from .metrics import _refine_batches, evaluate, p_mpjpe
from .network import CVUGCN, ModelWeights, init_weights, param_count
from .training import (AmsGrad, TrainConfig, precompute_coarse, schedule_lr,
                       train_epoch)


# -- matched-budget fully connected baseline ---------------------------------

class FCBaseline:
    """Two-view MLP with one hidden layer and no graph structure.

    The hidden width is chosen so the parameter count lands within a
    fraction of a percent of the graph model it stands in for. Interface
    matches CVUGCN.refine_batch so the training loop is reused as is.
    """

    def __init__(self, topo, config, hidden=None, weights=None):
        self.topo = topo
        self.config = config
        d = 2 * topo.n_joints * 3
        if hidden is None:
            # d * h + h * d parameters: solve 2 d h ~ budget
            hidden = int(round(param_count(config) / (2 * d)))
        self.hidden = hidden
        if weights is None:
            rng = np.random.default_rng(config.init_seed)
            lim = np.sqrt(1.0 / d)
            weights = ModelWeights({
                "fc.w1": rng.uniform(-lim, lim, size=(d, hidden)),
                "fc.w2": np.zeros((hidden, d)),
            })
        self.weights = weights

    def param_leaves(self, tape):
        return {name: tape.leaf(arr, op=f"param:{name}")
                for name, arr in self.weights.items()}

    def refine_batch(self, tape, x1_mm, x2_mm, params=None):
        J = self.topo.n_joints
        x1 = np.asarray(x1_mm, dtype=np.float64)
        x2 = np.asarray(x2_mm, dtype=np.float64)
        if x1.shape != x2.shape or x1.ndim != 2 or x1.shape[1] != 3:
            raise ShapeMismatch(f"coarse inputs: {x1.shape} vs {x2.shape}")
        if x1.shape[0] % J:
            raise ShapeMismatch(f"{x1.shape[0]} rows is not a whole number of poses")
        B = x1.shape[0] // J
        if params is None:
            params = self.param_leaves(tape)
        flat = np.hstack([x1.reshape(B, 3 * J), x2.reshape(B, 3 * J)])
        xin = tape.leaf(flat, op="coarse")
        h = ad.relu(ad.matmul(ad.scale(xin, self.config.coord_scale),
                              params["fc.w1"]))
        res = ad.matmul(h, params["fc.w2"])
        refined = ad.add(xin, ad.scale(res, 1.0 / self.config.coord_scale))
        # (B, 6J) rows reshape to per-sample blocks of 2J joints
        out = ad.reshape(refined, B * 2 * J, 3)
        X1 = ad.slice_blocks(out, 2 * J, 0, J)
        X2 = ad.slice_blocks(out, 2 * J, J, 2 * J)
        return X1, X2, params


# -- variants -----------------------------------------------------------------

ABLATION_VARIANTS = ("full", "no_refine", "no_spatial", "no_crossview", "fc")


def build_variant(name, topo, net_cfg):
    if name in ("full", "no_refine"):
        return CVUGCN(topo, net_cfg, weights=init_weights(net_cfg))
    if name == "no_spatial":
        return CVUGCN(topo, net_cfg, weights=init_weights(net_cfg),
                      kernel_mask=(1, 2, 3))
    if name == "no_crossview":
        return CVUGCN(topo, net_cfg, weights=init_weights(net_cfg),
                      kernel_mask=(4,))
    if name == "fc":
        return FCBaseline(topo, net_cfg)
    raise ValueError(f"unknown ablation variant {name!r}")


def train_model(model, train_samples, coarse, cameras, config: TrainConfig,
                progress=None):
    """Plain training loop on precomputed coarse poses; returns the loss
    history. The plateau schedule monitors the training objective."""
    optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()},
                        config.beta1, config.beta2, config.epsilon)
    history = []
    for epoch in range(config.epochs):
        lr = schedule_lr(history, config)
        stats = train_epoch(train_samples, coarse, cameras, model, optimizer,
                            lr, config, epoch)
        history.append(stats["loss"])
        if progress is not None:
            progress(epoch, stats, lr)
    return history


def ablation_study(train_samples, test_samples, cameras,
                   config: TrainConfig, topo=None,
                   variants=ABLATION_VARIANTS, progress=None):
    """Train every variant from scratch under one config and score it.

    no_refine never trains: with the output head at zero the model is the
    identity, so its refined numbers equal the triangulation baseline.
    """
    topo = topo or default_topology()
    coarse, _ = precompute_coarse(train_samples, cameras, topo,
                                  mode=config.tri_mode)
    rows = []
    for name in variants:
        model = build_variant(name, topo, config.network())
        if name != "no_refine":
            train_model(model, train_samples, coarse, cameras, config,
                        progress=(lambda e, s, lr, n=name: progress(n, e, s, lr))
                        if progress else None)
        report = evaluate(test_samples, cameras, model, topo,
                          tri_mode=config.tri_mode)
        rows.append({
            "variant": name,
            "params": int(model.weights.param_count),
            "mpjpe_tri_mm": report.mpjpe_tri_mm,
            "mpjpe_refined_mm": report.mpjpe_refined_mm,
            "pmpjpe_refined_mm": report.pmpjpe_refined_mm,
        })
    return rows


def format_table(rows, columns=None):
    """Aligned text table; floats get three decimals."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])

    def fmt(v):
        return f"{v:.3f}" if isinstance(v, float) else str(v)

    cells = [[fmt(r[c]) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# -- noise robustness ----------------------------------------------------------

def noise_robustness(samples, cameras, model, topo=None,
                     sigmas_mm=(5.0, 10.0, 15.0, 20.0), seed=0,
                     batch_size=256, tri_mode="dual"):
    """Corrupt the coarse poses with isotropic 3D noise and re-refine.

    Returns one row per noise level with Procrustes-aligned errors of the
    corrupted input and of the refinement, averaged over samples and views.
    """
    topo = topo or default_topology()
    for s in samples:
        if not s.joints_3d_gt:
            raise MissingGroundTruth(
                f"sample {s.sample_id} carries no ground truth")
    coarse, _ = precompute_coarse(samples, cameras, topo, mode=tri_mode)
    rows = []
    for si, sigma in enumerate(sigmas_mm):
        rng = np.random.default_rng((seed, si))
        noisy = {}
        for sid, (x1, x2) in coarse.items():
            noisy[sid] = (x1 + rng.standard_normal(x1.shape) * sigma,
                          x2 + rng.standard_normal(x2.shape) * sigma)
        refined = _refine_batches(samples, noisy, model, batch_size)
        p_in, p_out = [], []
        for s in samples:
            if s.sample_id not in noisy:
                continue
            for v, nx, rx in zip(s.pair, noisy[s.sample_id],
                                 refined[s.sample_id]):
                gt = Pose3D(s.joints_3d_gt[v], frame_id=v)
                p_in.append(p_mpjpe(Pose3D(nx, frame_id=v), gt))
                p_out.append(p_mpjpe(Pose3D(rx, frame_id=v), gt))
        rows.append({"sigma_mm": float(sigma),
                     "pmpjpe_coarse_mm": float(np.mean(p_in)),
                     "pmpjpe_refined_mm": float(np.mean(p_out))})
    return rows


# -- unseen camera pairs ---------------------------------------------------------

def unseen_pair_study(train_samples, seen_samples, unseen_samples, cameras,
                      config: TrainConfig, topo=None, progress=None):
    """Train on one camera pair, evaluate on a pair never seen in training.

    Returns rows for the seen and unseen test sets; the refinement is
    expected to keep improving on triangulation for the new geometry.
    """
    topo = topo or default_topology()
    coarse, _ = precompute_coarse(train_samples, cameras, topo,
                                  mode=config.tri_mode)
    model = build_variant("full", topo, config.network())
    train_model(model, train_samples, coarse, cameras, config,
                progress=progress)
    rows = []
    for split, samples in (("seen", seen_samples), ("unseen", unseen_samples)):
        report = evaluate(samples, cameras, model, topo,
                          tri_mode=config.tri_mode)
        rows.append({
            "split": split,
            "pair": "+".join(samples[0].pair) if samples else "",
            "mpjpe_tri_mm": report.mpjpe_tri_mm,
            "mpjpe_refined_mm": report.mpjpe_refined_mm,
            "pmpjpe_refined_mm": report.pmpjpe_refined_mm,
        })
    return rows, model
