"""Built-in studies: component ablations and noise robustness.

The ablation study compares four variants of the CV-UGCN, each one kernel
mask: "full" (nothing masked), "no_refine" (the untrained identity, i.e.
triangulation alone), "no_spatial" (kinematic, two-hop and symmetry
kernels masked) and "no_crossview" (cross-view kernel masked, so the
views never exchange information). It trains through
`training.train_epochs`, the loop `fit` runs, with the training objective
as the monitor. The noise study corrupts the coarse poses a trained
checkpoint is given. Each study returns plain rows (lists of dicts) that
the CLI prints as an aligned table and writes as JSON, so results are easy
to diff across runs.

Generalization to a camera pair never seen in training needs no study of
its own: train on one pair and evaluate on another. With a seed S, and
the same --perturb-rot-deg / --perturb-trans-mm on each synth call:

    cvpose synth --out train --cameras 3 --separation-deg 40 --sigma-px 5 \
        --pairs cam1:cam2 --seed S
    cvpose synth --out seen ... --pairs cam1:cam2 --seed S+1
    cvpose synth --out unseen ... --pairs cam1:cam3 --seed S+2
    cvpose train --data train/dataset.jsonl --rig train/rig_assumed.jsonl \
        --out-dir run --seed S
    cvpose eval --data seen/dataset.jsonl --rig train/rig_assumed.jsonl \
        --checkpoint run/final.ckpt --report seen.json

and the same `eval` on unseen/dataset.jsonl. Every evaluation uses the
training set's assumed rig, the calibration the refiner was trained with.
"""

from __future__ import annotations

import numpy as np

from .errors import VariantError
from .graph import default_topology
from .metrics import (_refine_batches, evaluate, mean_or_nan, p_mpjpe_rows,
                      require_ground_truth)
from .network import CVUGCN
from .training import (AmsGrad, CoarsePoses, TrainConfig, precompute_coarse,
                       train_epochs)


# -- variants -----------------------------------------------------------------

# Each variant is the CV-UGCN with these kernel classes masked (the classes
# are listed in graph's module docstring).
_KERNEL_MASKS = {"full": (), "no_refine": (), "no_spatial": (1, 2, 3),
                 "no_crossview": (4,)}
ABLATION_VARIANTS = tuple(_KERNEL_MASKS)


def build_variant(name, topo, net_cfg):
    if name not in _KERNEL_MASKS:
        raise VariantError(f"unknown variant {name!r}; choose from "
                           f"{', '.join(ABLATION_VARIANTS)}")
    return CVUGCN(topo, net_cfg, kernel_mask=_KERNEL_MASKS[name])


def ablation_study(train_samples, test_samples, cameras,
                   config: TrainConfig, topo=None,
                   variants=ABLATION_VARIANTS, progress=None):
    """Train every variant from scratch under one config and score it.

    Nothing trains until every variant is built and every test sample is
    known to carry ground truth: an unknown or repeated variant raises
    VariantError, a test sample without ground truth MissingGroundTruth.
    no_refine never trains: with the output head at zero the model is the
    identity, so its refined numbers equal the triangulation baseline.
    `params` counts the weights the variant's forward reads.
    """
    topo = topo or default_topology()
    models = {}
    for name in variants:
        if name in models:
            raise VariantError(f"variant {name!r} is listed twice")
        models[name] = build_variant(name, topo, config.network())
    require_ground_truth(test_samples)
    coarse, _ = precompute_coarse(train_samples, cameras,
                                  mode=config.tri_mode)
    rows = []
    for name, model in models.items():
        if name != "no_refine":
            optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()})
            for epoch, lr, stats in train_epochs(
                    model, optimizer, train_samples, coarse, cameras, config,
                    []):
                if progress is not None:
                    progress(name, epoch, stats, lr)
        report = evaluate(test_samples, cameras, model, topo,
                          tri_mode=config.tri_mode)
        rows.append({
            "variant": name,
            "params": model.param_count,
            "mpjpe_tri_mm": report.mpjpe_tri_mm,
            "mpjpe_refined_mm": report.mpjpe_refined_mm,
            "pmpjpe_refined_mm": report.pmpjpe_refined_mm,
        })
    return rows


def format_table(rows):
    """Aligned text table; floats get three decimals."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])

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

def noise_robustness(samples, cameras, model,
                     sigmas_mm=(5.0, 10.0, 15.0, 20.0), seed=0):
    """Corrupt the coarse poses with isotropic 3D noise and re-refine.

    Returns one row per noise level with Procrustes-aligned errors of the
    corrupted input and of the refinement, averaged over samples and views
    (NaN when no sample triangulates).
    """
    require_ground_truth(samples)
    coarse, _ = precompute_coarse(samples, cameras)
    n = len(coarse.index)
    rows = []
    for si, sigma in enumerate(sigmas_mm):
        rng = np.random.default_rng((seed, si))
        noise = rng.standard_normal(coarse.poses.shape) * sigma
        noisy = CoarsePoses(coarse.index, coarse.poses + noise)
        # (samples, views) errors, in sample order.
        p_in = np.empty((n, 2))
        p_out = np.empty((n, 2))
        for at, x, r, gt in _refine_batches(samples, noisy, model, 256):
            p_in[at] = p_mpjpe_rows(x, gt)
            p_out[at] = p_mpjpe_rows(r, gt)
        rows.append({"sigma_mm": float(sigma),
                     "pmpjpe_coarse_mm": mean_or_nan(p_in),
                     "pmpjpe_refined_mm": mean_or_nan(p_out)})
    return rows
