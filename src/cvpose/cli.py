"""Command line interface.

Exit codes: 0 success, 1 domain or file errors (reported without a
traceback), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errors import CvposeError
from .experiments import (ABLATION_VARIANTS, ablation_study, format_table,
                          noise_robustness)
from .files import atomic_write, json_text
from .geometry import TRI_MODES, Pose3D, load_rig, save_rig
from .graph import default_topology, save_topology
from .metrics import evaluate, mpjpe_rows
from .network import CVUGCN, load_checkpoint, range_problem
from .syndata import (SyntheticConfig, default_rig, file_sha256,
                      generate_dataset, load_dataset, save_dataset,
                      save_manifest)
from .training import (SETTING_MINIMUM, VALUE_FORMS, TrainConfig, fit,
                       load_train_config, precompute_coarse,
                       save_train_config)

# The least value of each int flag (network.range_problem), a TrainConfig
# setting's as in a train.cfg. --cameras and --index have none here:
# generate_dataset and cmd_render refuse what is out of their ranges.
FLAG_MINIMUM = {**SETTING_MINIMUM, "n_samples": 0}


def _int(key):
    """argparse type of an int flag, read as a train.cfg reads an int
    (VALUE_FORMS) and held to FLAG_MINIMUM; the key shows in its
    messages."""
    def parse(text):
        if not VALUE_FORMS[int].fullmatch(text):
            raise ValueError(text)   # argparse: "invalid <key> value"
        value = int(text)
        problem = range_problem(key, value, FLAG_MINIMUM)
        if problem:
            raise argparse.ArgumentTypeError(problem)
        return value
    parse.__name__ = key
    return parse


CONFIG_HELP = "key = value file with these keys only: " + ", ".join(
    f.name for f in dataclasses.fields(TrainConfig))
MODE_HELP = ("where view 2's coarse pose comes from: dual, on camera 2's own "
             "ray; single, view 1's pose moved into camera 2's frame. The "
             "two agree up to rounding")


def _at_least_0(name):
    """argparse type of a finite float that is at least 0; the name shows
    in its messages."""
    def parse(text):
        value = float(text)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(
                f"{name} must be finite and at least 0, got {value}")
        return value
    parse.__name__ = name
    return parse


def _finite(name):
    """argparse type of a finite float; the name shows in its messages."""
    def parse(text):
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"{name} must be finite, got {value}")
        return value
    parse.__name__ = name
    return parse


def sigmas(text):
    """argparse type of --sigmas: a comma list of noise levels in mm, each
    finite and at least 0."""
    return tuple(map(_at_least_0("sigmas"), text.split(",")))


def _model(args, topo):
    ckpt = load_checkpoint(args.checkpoint, topo)
    return CVUGCN(topo, ckpt.config, weights=ckpt.weights)


def _print_rows(rows, out):
    """Print a study's rows as a table and, given a path, dump them as JSON."""
    print(format_table(rows))
    if out:
        with atomic_write(out) as fh:
            fh.write(json_text(rows, indent=2) + "\n")
        print(f"rows written to {out}")


# -- subcommands ----------------------------------------------------------------

def cmd_synth(args):
    cfg = SyntheticConfig(
        n_samples=args.n_samples, seed=args.seed, sigma_px=args.sigma_px,
        perturb_rot_deg=args.perturb_rot_deg,
        perturb_trans_mm=args.perturb_trans_mm,
        include_gt=not args.no_gt)
    cameras = default_rig(n_cameras=args.cameras,
                          separation_deg=args.separation_deg)
    pairs = None
    if args.pairs:
        pairs = [tuple(p.split(":")) for p in args.pairs.split(",")]
        for p in pairs:
            if len(p) != 2:
                raise CvposeError(f"bad pair spec {':'.join(p)!r}")
    topo = default_topology()
    samples, true_rig, assumed = generate_dataset(cfg, topo, cameras, pairs)
    os.makedirs(args.out, exist_ok=True)
    paths = {
        "dataset": os.path.join(args.out, "dataset.jsonl"),
        "rig_true": os.path.join(args.out, "rig_true.jsonl"),
        "rig_assumed": os.path.join(args.out, "rig_assumed.jsonl"),
        "topology": os.path.join(args.out, "topology.jsonl"),
    }
    save_dataset(paths["dataset"], samples, topo)
    save_rig(paths["rig_true"], true_rig)
    save_rig(paths["rig_assumed"], assumed)
    save_topology(paths["topology"], topo)
    hashes = {name: file_sha256(p) for name, p in paths.items()}
    save_manifest(os.path.join(args.out, "manifest.json"), cfg, hashes,
                  len(samples))
    print(f"wrote {len(samples)} samples to {paths['dataset']}")
    for name, p in paths.items():
        print(f"  {name}: {p}")
    return 0


def cmd_triangulate(args):
    topo = default_topology()
    samples = load_dataset(args.data, topo)
    cameras = load_rig(args.rig)
    coarse, skipped = precompute_coarse(samples, cameras, mode=args.mode)
    kept = [samples[i] for i in coarse.index]
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(json.dumps({"schema": "coarse-v1",
                                 "n_joints": topo.n_joints}) + "\n")
            for s, (x1, x2) in zip(kept, coarse.poses):
                fh.write(json.dumps({
                    "id": s.sample_id, "views": list(s.pair),
                    "joints_3d": {s.pair[0]: x1.tolist(),
                                  s.pair[1]: x2.tolist()}},
                    sort_keys=True) + "\n")
    have_gt = all(s.joints_3d_gt for s in samples)
    print(f"triangulated {len(kept)} of {len(samples)} samples "
          f"({len(skipped)} skipped, mode={args.mode})")
    if have_gt and kept:
        errs = mpjpe_rows(
            coarse.poses,
            np.stack([[s.joints_3d_gt[v] for v in s.pair] for s in kept]))
        print(f"MPJPE vs ground truth: {np.mean(errs):.4f} mm")
    return 0


def cmd_train(args):
    topo = default_topology()
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    if args.epochs is not None:
        cfg.epochs = args.epochs
    if args.seed is not None:
        cfg.seed = args.seed
    if args.batch_size is not None:
        cfg.batch_size = args.batch_size
    train_samples = load_dataset(args.data, topo)
    val_samples = load_dataset(args.val_data, topo) if args.val_data else []
    cameras = load_rig(args.rig)

    def progress(epoch, stats, lr, monitor):
        print(f"epoch {epoch:4d}  loss {stats['loss']:.4f}  "
              f"monitor {monitor:.4f}  lr {lr:.3e}", flush=True)

    result = fit(train_samples, val_samples, cameras, cfg, topo=topo,
                 out_dir=args.out_dir, resume_from=args.resume,
                 progress=progress if not args.quiet else None)
    # A resume trains the checkpoint's network, whatever cfg says.
    cfg.channels = result.network.channels
    cfg.init_seed = result.network.init_seed
    save_train_config(os.path.join(args.out_dir, "train.cfg"), cfg)
    print(f"finished {cfg.epochs} epochs; best monitored loss "
          f"{result.best_val:.6f}")
    for name, path in sorted(result.checkpoints.items()):
        print(f"  {name}: {path}")
    if result.skipped_train:
        print(f"  skipped {len(result.skipped_train)} untriangulatable samples")
    return 0


def cmd_eval(args):
    topo = default_topology()
    samples = load_dataset(args.data, topo)
    cameras = load_rig(args.rig)
    model = _model(args, topo)
    report = evaluate(samples, cameras, model, topo, tri_mode=args.mode)
    print(f"samples evaluated: {report.n_samples} "
          f"(skipped {len(report.skipped)})")
    print(f"MPJPE  triangulated: {report.mpjpe_tri_mm:.4f} mm")
    print(f"MPJPE  refined:      {report.mpjpe_refined_mm:.4f} mm")
    print(f"P-MPJPE triangulated: {report.pmpjpe_tri_mm:.4f} mm")
    print(f"P-MPJPE refined:      {report.pmpjpe_refined_mm:.4f} mm")
    if len(report.per_pair_mm) > 1:
        for pair, m in report.per_pair_mm.items():
            print(f"  {pair}: n {m['n']}  MPJPE tri/refined "
                  f"{m['mpjpe_tri_mm']:.4f}/{m['mpjpe_refined_mm']:.4f} mm  "
                  f"P-MPJPE tri/refined {m['pmpjpe_tri_mm']:.4f}/"
                  f"{m['pmpjpe_refined_mm']:.4f} mm")
    if args.report:
        report.save(args.report)
        print(f"report written to {args.report}")
    return 0


def cmd_ablate(args):
    topo = default_topology()
    train_samples = load_dataset(args.train_data, topo)
    test_samples = load_dataset(args.test_data, topo)
    cameras = load_rig(args.rig)
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    if args.epochs is not None:
        cfg.epochs = args.epochs
    variants = tuple(args.variants.split(",")) if args.variants \
        else ABLATION_VARIANTS

    def progress(name, epoch, stats, lr):
        print(f"[{name}] epoch {epoch:4d} loss {stats['loss']:.4f}",
              flush=True)

    rows = ablation_study(train_samples, test_samples, cameras, cfg, topo,
                          variants=variants,
                          progress=progress if not args.quiet else None)
    _print_rows(rows, args.out)
    return 0


def cmd_noise(args):
    topo = default_topology()
    samples = load_dataset(args.data, topo)
    cameras = load_rig(args.rig)
    model = _model(args, topo)
    rows = noise_robustness(samples, cameras, model, sigmas_mm=args.sigmas,
                            seed=args.seed)
    _print_rows(rows, args.out)
    return 0


def cmd_render(args):
    from .render import render_sample, save_svg
    topo = default_topology()
    samples = load_dataset(args.data, topo)
    cameras = load_rig(args.rig)
    wanted = None
    if args.sample_id:
        for s in samples:
            if s.sample_id == args.sample_id:
                wanted = s
                break
        if wanted is None:
            raise CvposeError(f"sample {args.sample_id!r} not in {args.data}")
    else:
        if not (0 <= args.index < len(samples)):
            raise CvposeError(f"index {args.index} out of range "
                              f"(dataset has {len(samples)} samples)")
        wanted = samples[args.index]
    coarse, _ = precompute_coarse([wanted], cameras, mode=args.mode)
    if not len(coarse.index):
        raise CvposeError(f"sample {wanted.sample_id} cannot be triangulated")
    refined = None
    if args.checkpoint:
        model = _model(args, topo)
        p1, p2 = model.refine(
            Pose3D(coarse.poses[0, 0], frame_id=wanted.pair[0]),
            Pose3D(coarse.poses[0, 1], frame_id=wanted.pair[1]))
        refined = (p1.joints, p2.joints)
    svg = render_sample(wanted, cameras, topo, coarse=coarse.poses[0],
                        refined=refined)
    save_svg(args.out, svg)
    print(f"wrote {args.out}")
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="cvpose",
        description="Weakly supervised cross-view 3D pose estimation at desk "
                    "scale, on one fixed skeleton: the 17-joint human "
                    "skeleton of graph.default_topology. Generalization "
                    "to an unseen camera pair is scored with train on one "
                    "pair and eval on another.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-samples", type=_int("n_samples"), default=1000)
    sp.add_argument("--seed", type=_int("seed"), default=0)
    sp.add_argument("--sigma-px", type=_at_least_0("sigma_px"), default=0.0)
    sp.add_argument("--perturb-rot-deg", default=0.0,
                    type=_at_least_0("perturb_rot_deg"))
    sp.add_argument("--perturb-trans-mm", default=0.0,
                    type=_at_least_0("perturb_trans_mm"))
    sp.add_argument("--cameras", type=_int("cameras"), default=2)
    sp.add_argument("--separation-deg", type=_finite("separation_deg"),
                    default=60.0)
    sp.add_argument("--pairs", help="comma list like cam1:cam2,cam2:cam3")
    sp.add_argument("--no-gt", action="store_true")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("triangulate", help="coarse poses from 2D detections")
    sp.add_argument("--data", required=True)
    sp.add_argument("--rig", required=True)
    sp.add_argument("--mode", choices=TRI_MODES, default="dual",
                    help=MODE_HELP)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_triangulate)

    sp = sub.add_parser("train", help="train the refinement network")
    sp.add_argument("--data", required=True)
    sp.add_argument("--rig", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--val-data")
    sp.add_argument("--config", help=CONFIG_HELP)
    sp.add_argument("--epochs", type=_int("epochs"))
    sp.add_argument("--seed", type=_int("seed"))
    sp.add_argument("--batch-size", type=_int("batch_size"))
    sp.add_argument("--resume")
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint against ground truth")
    sp.add_argument("--data", required=True)
    sp.add_argument("--rig", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mode", choices=TRI_MODES, default="dual",
                    help=MODE_HELP)
    sp.add_argument("--report")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="train and score model variants")
    sp.add_argument("--train-data", required=True)
    sp.add_argument("--test-data", required=True)
    sp.add_argument("--rig", required=True)
    sp.add_argument("--config", help=CONFIG_HELP)
    sp.add_argument("--epochs", type=_int("epochs"))
    sp.add_argument("--variants")
    sp.add_argument("--out")
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("noise", help="robustness to 3D input noise")
    sp.add_argument("--data", required=True)
    sp.add_argument("--rig", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--sigmas", type=sigmas, default="5,10,15,20")
    sp.add_argument("--seed", type=_int("seed"), default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_noise)

    sp = sub.add_parser("render", help="SVG figure for one sample")
    sp.add_argument("--data", required=True)
    sp.add_argument("--rig", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--sample-id")
    sp.add_argument("--index", type=_int("index"), default=0)
    sp.add_argument("--checkpoint")
    sp.add_argument("--mode", choices=TRI_MODES, default="dual",
                    help=MODE_HELP)
    sp.set_defaults(func=cmd_render)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CvposeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
