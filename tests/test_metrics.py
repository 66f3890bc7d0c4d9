import json

import numpy as np
import pytest

from cvpose.errors import DegenerateCloud, FrameMismatch
from cvpose.geometry import Pose3D, procrustes_align_stack
from cvpose.graph import default_topology
from cvpose.metrics import (EvalReport, evaluate, mpjpe, mpjpe_rows, p_mpjpe,
                            p_mpjpe_rows)
from cvpose.network import CVUGCN, NetworkConfig
from cvpose.syndata import SyntheticConfig, default_rig, generate_dataset
from cvpose.training import precompute_coarse


def test_mpjpe_hand_example():
    gt = Pose3D(np.zeros((2, 3)), frame_id="c")
    pred = Pose3D(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]]), frame_id="c")
    assert mpjpe(pred, gt) == pytest.approx(3.5)   # (5 + 2) / 2


def test_mpjpe_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((17, 3)) * 100
        b = rng.standard_normal((17, 3)) * 100
        want = np.sqrt(((a - b) ** 2).sum(axis=1)).mean()
        assert mpjpe(Pose3D(a, "c"), Pose3D(b, "c")) == pytest.approx(
            want, rel=1e-12)


def test_mpjpe_requires_shared_frame():
    p = Pose3D(np.zeros((2, 3)), frame_id="cam1")
    g = Pose3D(np.zeros((2, 3)), frame_id="cam2")
    with pytest.raises(FrameMismatch):
        mpjpe(p, g)


def test_p_mpjpe_removes_similarity_transform():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((17, 3)) * 200
    # a rotated, scaled, shifted copy is a perfect match after alignment
    angle = 0.7
    R = np.array([[np.cos(angle), -np.sin(angle), 0],
                  [np.sin(angle), np.cos(angle), 0], [0, 0, 1.0]])
    Y = 1.7 * X @ R.T + np.array([10.0, -20.0, 5.0])
    gt = Pose3D(X, frame_id="c")
    pred = Pose3D(Y, frame_id="c")
    assert p_mpjpe(pred, gt) < 1e-9
    assert mpjpe(pred, gt) > 1.0


def test_evaluate_identity_model_refined_equals_tri():
    samples, rig, _ = generate_dataset(SyntheticConfig(n_samples=10, seed=1,
                                                       sigma_px=4.0))
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)  # head at zero
    report = evaluate(samples, rig, model, topo, batch_size=4)
    assert report.n_samples == 10
    assert report.mpjpe_refined_mm == report.mpjpe_tri_mm
    assert report.per_sample_refined == report.per_sample_tri
    assert report.skipped == []
    # noisy detections and exact geometry: errors are positive yet small
    assert 0.0 < report.mpjpe_tri_mm < 200.0
    assert report.pmpjpe_tri_mm <= report.mpjpe_tri_mm + 1e-9


def test_evaluate_zero_noise_tri_error_tiny():
    samples, rig, _ = generate_dataset(SyntheticConfig(n_samples=5, seed=2))
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)
    report = evaluate(samples, rig, model, topo)
    assert report.mpjpe_tri_mm < 1e-6


def test_evaluate_requires_gt():
    samples, rig, _ = generate_dataset(
        SyntheticConfig(n_samples=2, seed=0, include_gt=False))
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)
    with pytest.raises(ValueError, match="ground truth"):
        evaluate(samples, rig, model, topo)


def test_evaluate_rejects_duplicate_sample_ids():
    samples, rig, _ = generate_dataset(SyntheticConfig(n_samples=4, seed=3))
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)
    assert evaluate(samples, rig, model, topo).per_sample_tri[0] < 50.0
    samples[2].sample_id = samples[0].sample_id
    with pytest.raises(ValueError, match="repeat"):
        evaluate(samples, rig, model, topo)


def test_empty_dataset_evaluates_to_nan_means():
    # No sample means an empty coarse stack; evaluate still reports, with
    # NaN means and no warning (warnings are errors in this suite).
    _, rig, _ = generate_dataset(SyntheticConfig(n_samples=1, seed=3))
    coarse, skipped = precompute_coarse([], rig)
    assert coarse.index.size == 0 and coarse.poses.shape[:2] == (0, 2)
    assert skipped == []
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)
    report = evaluate([], rig, model, topo)
    assert report.n_samples == 0
    assert report.per_sample_tri == report.skipped == []
    for name in ("mpjpe_tri_mm", "mpjpe_refined_mm", "pmpjpe_tri_mm",
                 "pmpjpe_refined_mm"):
        assert np.isnan(getattr(report, name))
    assert report.per_pair_mm == {}
    assert np.isnan(report.mpjpe_percentiles_mm["tri"]["p50"])


def test_evaluate_batch_size_does_not_change_result():
    samples, rig, _ = generate_dataset(SyntheticConfig(n_samples=9, seed=5,
                                                       sigma_px=3.0))
    topo = default_topology()
    cfg = NetworkConfig(channels=8, init_seed=3)
    w = CVUGCN(topo, cfg).weights
    w.arrays["head"] = np.random.default_rng(0).standard_normal(
        w["head"].shape) * 0.01
    model = CVUGCN(topo, cfg, weights=w)
    r1 = evaluate(samples, rig, model, topo, batch_size=2)
    r2 = evaluate(samples, rig, model, topo, batch_size=9)
    assert r1.per_sample_refined == pytest.approx(r2.per_sample_refined,
                                                  rel=1e-9)


def test_report_json_keys(tmp_path):
    report = EvalReport(n_samples=1, mpjpe_tri_mm=2.0, mpjpe_refined_mm=1.0,
                        pmpjpe_tri_mm=1.5, pmpjpe_refined_mm=0.5,
                        per_sample_tri=[2.0], per_sample_refined=[1.0])
    path = tmp_path / "report.json"
    report.save(path)
    body = json.loads(path.read_text())
    assert set(body) == {"n_samples", "mpjpe_tri_mm", "mpjpe_refined_mm",
                         "pmpjpe_tri_mm", "pmpjpe_refined_mm",
                         "per_sample_tri", "per_sample_refined", "skipped",
                         "per_joint_mpjpe_mm", "per_joint_pmpjpe_mm",
                         "per_pair_mm", "mpjpe_percentiles_mm"}
    assert body["mpjpe_refined_mm"] == 1.0


# -- stacked metrics --------------------------------------------------------------

def _clouds(rng):
    """Full-rank, planar and collinear gt clouds with noisy similarity copies,
    plus a collapsed prediction; (N, J, 3) pred and gt stacks."""
    preds, gts = [], []
    for rank in (3, 2, 1, 3):
        G = rng.uniform(-300, 300, size=(17, 3))
        G[:, rank:] = 0.0
        G += rng.uniform(-100, 100, 3)
        angle = rng.uniform(-3, 3)
        R = np.array([[np.cos(angle), 0, np.sin(angle)], [0, 1.0, 0],
                      [-np.sin(angle), 0, np.cos(angle)]])
        preds.append(0.8 * G @ R.T + rng.normal(0, 20.0, G.shape) + 50.0)
        gts.append(G)
    preds[-1] = np.tile([4.0, -2.0, 3000.0], (17, 1))   # collapsed prediction
    return np.stack(preds), np.stack(gts)


def test_stacked_p_mpjpe_matches_one_pose_alignment():
    pred, gt = _clouds(np.random.default_rng(40))
    want = [np.linalg.norm(procrustes_align_stack(p, g) - g, axis=1).mean()
            for p, g in zip(pred, gt)]
    got = p_mpjpe_rows(pred, gt)
    assert got.shape == (4,)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # The collapsed prediction aligns to the gt centroid.
    centroid = gt[-1].mean(axis=0)
    assert got[-1] == pytest.approx(
        np.linalg.norm(gt[-1] - centroid, axis=1).mean(), rel=1e-12)
    assert np.array_equal(mpjpe_rows(pred, gt),
                          [np.linalg.norm(p - g, axis=1).mean()
                           for p, g in zip(pred, gt)])


def test_stacked_p_mpjpe_rejects_collapsed_ground_truth():
    pred, gt = _clouds(np.random.default_rng(41))
    gt[2] = np.tile([1.0, 2.0, 3.0], (17, 1))
    with pytest.raises(DegenerateCloud, match="cloud 2"):
        p_mpjpe_rows(pred, gt)


def _two_pair_set(n, seed=12):
    cameras = default_rig(n_cameras=3, separation_deg=40.0)
    samples, _, assumed = generate_dataset(
        SyntheticConfig(n_samples=n, seed=seed, sigma_px=3.0), cameras=cameras)
    topo = default_topology()
    cfg = NetworkConfig(channels=8, init_seed=2)
    w = CVUGCN(topo, cfg).weights
    w.arrays["head"] = np.random.default_rng(1).standard_normal(
        w["head"].shape) * 0.05
    return samples, assumed, CVUGCN(topo, cfg, weights=w)


def test_per_joint_errors_average_to_report_numbers():
    samples, rig, model = _two_pair_set(12)
    report = evaluate(samples, rig, model, model.topo, batch_size=5)
    J = model.topo.n_joints
    for per_joint, tri, refined in (
            (report.per_joint_mpjpe_mm, report.mpjpe_tri_mm,
             report.mpjpe_refined_mm),
            (report.per_joint_pmpjpe_mm, report.pmpjpe_tri_mm,
             report.pmpjpe_refined_mm)):
        assert len(per_joint["tri"]) == len(per_joint["refined"]) == J
        assert abs(np.mean(per_joint["tri"]) - tri) <= 1e-9
        assert abs(np.mean(per_joint["refined"]) - refined) <= 1e-9
    assert report.mpjpe_refined_mm != report.mpjpe_tri_mm


def test_per_pair_and_percentile_errors_reduce_per_sample_errors():
    samples, rig, model = _two_pair_set(12)
    report = evaluate(samples, rig, model, model.topo, batch_size=5)
    pairs = ["+".join(s.pair) for s in samples]
    assert list(report.per_pair_mm) == list(dict.fromkeys(pairs))
    assert len(report.per_pair_mm) == 2 and report.skipped == []
    tri = np.array(report.per_sample_tri)
    ref = np.array(report.per_sample_refined)
    for pair, row in report.per_pair_mm.items():
        mine = np.array(pairs) == pair
        assert row["n"] == mine.sum() > 0
        assert row["mpjpe_tri_mm"] == pytest.approx(tri[mine].mean(), abs=1e-9)
        assert row["mpjpe_refined_mm"] == pytest.approx(ref[mine].mean(),
                                                        abs=1e-9)
        assert set(row) == {"n", "mpjpe_tri_mm", "mpjpe_refined_mm",
                            "pmpjpe_tri_mm", "pmpjpe_refined_mm"}
    # The pairs' sample-weighted means are the report numbers.
    for key in ("mpjpe_tri_mm", "mpjpe_refined_mm", "pmpjpe_tri_mm",
                "pmpjpe_refined_mm"):
        pooled = sum(r["n"] * r[key] for r in report.per_pair_mm.values())
        assert pooled / 12 == pytest.approx(getattr(report, key), abs=1e-9)
    for name, errs in (("tri", tri), ("refined", ref)):
        pct = report.mpjpe_percentiles_mm[name]
        assert list(pct) == ["p50", "p90", "p99"]
        srt = np.sort(errs)
        for q in (50, 90, 99):
            # Linear interpolation between the order statistics.
            pos = q / 100 * (len(srt) - 1)
            lo = int(pos)
            want = srt[lo] + (pos - lo) * (srt[lo + 1] - srt[lo])
            assert pct[f"p{q}"] == pytest.approx(want, abs=1e-9)
    body = json.loads(report.to_json())
    assert body["per_pair_mm"] == report.per_pair_mm
    assert body["mpjpe_percentiles_mm"] == report.mpjpe_percentiles_mm


def test_evaluate_svd_calls_do_not_scale_with_samples(monkeypatch):
    # Triangulation calls no np.linalg.svd, so the only calls are the
    # Procrustes alignments: two per refined batch (the triangulated and
    # the refined stack). A per-pose loop would make 80.
    samples, rig, model = _two_pair_set(40)
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = evaluate(samples, rig, model, model.topo, batch_size=8)
    pairs = {s.pair for s in samples}
    assert len(pairs) == 2 and report.n_samples == 40
    batches = sum(-(-sum(s.pair == p for s in samples) // 8) for p in pairs)
    assert batches == 6
    assert len(calls) == batches * 2
