import json

import numpy as np
import pytest

from cvpose.errors import PoseOutOfView, SchemaError
from cvpose.geometry import Pose3D, project, relative_transform
from cvpose.graph import default_topology
from cvpose.syndata import (ANGLE_RANGES_DEG, REST_OFFSETS_MM, Sample,
                            SyntheticConfig, default_rig, file_sha256,
                            generate_dataset, generate_skeleton_pose,
                            load_dataset, perturb_rig, save_dataset,
                            save_manifest)


def test_default_rig_geometry():
    cams = default_rig()
    assert [c.cam_id for c in cams] == ["cam1", "cam2"]
    for cam in cams:
        assert np.linalg.norm(cam.center()) == pytest.approx(3000.0)
        # aimed at the origin: it projects to the principal point
        px = project(cam, Pose3D(np.zeros((1, 3)), frame_id="world")
                     if False else Pose3D((np.zeros(3) @ cam.R.T + cam.t)[None],
                                          frame_id=cam.cam_id)).joints[0]
        assert np.allclose(px, [500.0, 500.0], atol=1e-9)
    c1, c2 = cams[0].center(), cams[1].center()
    cos = c1 @ c2 / (np.linalg.norm(c1) * np.linalg.norm(c2))
    assert np.degrees(np.arccos(cos)) == pytest.approx(60.0, abs=1e-9)


def test_rig_relative_transform_matches_centers():
    cams = default_rig()
    rel = relative_transform(cams[1], cams[0])
    # view-2 origin maps to cam2's center expressed in cam1 coordinates
    c2_in_1 = cams[0].R @ cams[1].center() + cams[0].t
    assert np.allclose(rel.apply(np.zeros((1, 3)))[0], c2_in_1, atol=1e-9)


def test_template_is_symmetric():
    topo = default_topology()
    for left, right in topo.left_right_pairs:
        off_l, off_r = REST_OFFSETS_MM[left], REST_OFFSETS_MM[right]
        assert off_l[0] == -off_r[0]
        assert np.array_equal(off_l[1:], off_r[1:])
        assert ANGLE_RANGES_DEG[left] == ANGLE_RANGES_DEG[right]


def test_fk_preserves_bone_lengths_and_symmetry():
    topo = default_topology()
    for trial in range(20):
        rng = np.random.default_rng(trial)
        pose = generate_skeleton_pose(topo, rng)
        X = pose.joints
        for parent, child in topo.bones:
            got = np.linalg.norm(X[parent] - X[child])
            want = np.linalg.norm(REST_OFFSETS_MM[child])
            assert got == pytest.approx(want, rel=1e-12)
    # rotations never change bone lengths, so left/right stay equal
    for b, m in topo.mirror_bone.items():
        lhs = np.linalg.norm(REST_OFFSETS_MM[topo.bones[b][1]])
        rhs = np.linalg.norm(REST_OFFSETS_MM[topo.bones[m][1]])
        assert lhs == pytest.approx(rhs)


def test_fk_is_deterministic():
    topo = default_topology()
    a = generate_skeleton_pose(topo, np.random.default_rng(7)).joints
    b = generate_skeleton_pose(topo, np.random.default_rng(7)).joints
    assert np.array_equal(a, b)


def test_generate_dataset_clean_matches_gt_projection():
    cfg = SyntheticConfig(n_samples=12, seed=3, sigma_px=2.0)
    samples, true_rig, assumed = generate_dataset(cfg)
    by_id = {c.cam_id: c for c in true_rig}
    assert len(samples) == 12
    for s in samples:
        assert s.pair == ("cam1", "cam2")
        for view in s.pair:
            cam = by_id[view]
            gt = Pose3D(s.joints_3d_gt[view], frame_id=view)
            px = project(cam, gt).joints
            assert np.array_equal(px, s.joints_2d_clean[view])
            assert (gt.joints[:, 2] > 0).all()
            inside = ((px >= 0) & (px <= [[cam.width, cam.height]])).all()
            assert inside


def test_generate_dataset_deterministic():
    cfg = SyntheticConfig(n_samples=8, seed=11, sigma_px=5.0,
                          perturb_rot_deg=0.2, perturb_trans_mm=5.0)
    s1, _, a1 = generate_dataset(cfg)
    s2, _, a2 = generate_dataset(cfg)
    for x, y in zip(s1, s2):
        for view in x.pair:
            assert np.array_equal(x.joints_2d[view], y.joints_2d[view])
    for c1, c2 in zip(a1, a2):
        assert np.array_equal(c1.R, c2.R)
        assert np.array_equal(c1.t, c2.t)


def test_noise_magnitude():
    cfg = SyntheticConfig(n_samples=40, seed=5, sigma_px=5.0)
    samples, _, _ = generate_dataset(cfg)
    diffs = np.concatenate([
        (s.joints_2d[v] - s.joints_2d_clean[v]).ravel()
        for s in samples for v in s.pair])
    assert abs(diffs.std() - 5.0) < 0.5
    assert abs(diffs.mean()) < 0.5


def test_zero_noise_keeps_clean_exact():
    cfg = SyntheticConfig(n_samples=4, seed=1, sigma_px=0.0)
    samples, _, _ = generate_dataset(cfg)
    for s in samples:
        for v in s.pair:
            assert np.array_equal(s.joints_2d[v], s.joints_2d_clean[v])


def test_perturb_rig_magnitudes():
    cams = default_rig()
    rng = np.random.default_rng(0)
    assumed = perturb_rig(cams, rot_deg=0.2, trans_mm=5.0, rng=rng)
    # first camera anchors the rig and is left alone
    assert assumed[0] is cams[0]
    dR = assumed[1].R @ cams[1].R.T
    angle = np.degrees(np.arccos(np.clip((np.trace(dR) - 1.0) / 2.0, -1, 1)))
    assert angle == pytest.approx(0.2, abs=1e-9)
    assert np.linalg.norm(assumed[1].t - cams[1].t) == pytest.approx(5.0)


def test_unperturbed_assumed_rig_equals_true():
    cfg = SyntheticConfig(n_samples=2, seed=0)
    _, true_rig, assumed = generate_dataset(cfg)
    for a, b in zip(true_rig, assumed):
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.t, b.t)
        assert a is not b


def test_pose_out_of_view_when_unviewable():
    cams = default_rig(width=10, height=10, focal_px=1146.0)
    cfg = SyntheticConfig(n_samples=1, seed=0, max_resample=5)
    with pytest.raises(PoseOutOfView):
        generate_dataset(cfg, cameras=cams)


def test_dataset_roundtrip_exact(tmp_path):
    cfg = SyntheticConfig(n_samples=6, seed=9, sigma_px=3.0)
    samples, _, _ = generate_dataset(cfg)
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    loaded = load_dataset(path)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert a.sample_id == b.sample_id
        assert a.pair == b.pair
        for v in a.pair:
            assert np.array_equal(a.joints_2d[v], b.joints_2d[v])
            assert np.array_equal(a.joints_2d_clean[v], b.joints_2d_clean[v])
            assert np.array_equal(a.joints_3d_gt[v], b.joints_3d_gt[v])


def test_dataset_without_gt(tmp_path):
    cfg = SyntheticConfig(n_samples=2, seed=0, include_gt=False)
    samples, _, _ = generate_dataset(cfg)
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    loaded = load_dataset(path)
    assert loaded[0].joints_3d_gt == {}


def test_dataset_schema_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "other"}\n')
    with pytest.raises(SchemaError):
        load_dataset(path)

    path.write_text('{"schema": "data-v1", "n_joints": 5}\n')
    with pytest.raises(SchemaError, match="topology has 17"):
        load_dataset(path)

    head = '{"schema": "data-v1", "n_joints": 17}\n'
    path.write_text(head + '{"id": "s0", "views": ["a", "b"]}\n')
    with pytest.raises(SchemaError, match="line 2"):
        load_dataset(path)

    bad_rec = {"id": "s0", "views": ["a", "b"],
               "joints_2d": {"a": [[0.0, 0.0]] * 17, "b": [[0.0, 0.0]] * 16},
               "joints_2d_clean": {"a": [[0.0, 0.0]] * 17,
                                   "b": [[0.0, 0.0]] * 17}}
    path.write_text(head + json.dumps(bad_rec) + "\n")
    with pytest.raises(SchemaError, match="shape"):
        load_dataset(path)


def test_dataset_rejects_repeated_sample_id(tmp_path):
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=4, seed=3))
    samples[2].sample_id = samples[0].sample_id
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    # Header on line 1, so the third sample (the repeat) is on line 4.
    with pytest.raises(SchemaError, match="line 4: .*repeats") as exc:
        load_dataset(path)
    assert exc.value.line == 4


def test_manifest_and_hash(tmp_path):
    cfg = SyntheticConfig(n_samples=3, seed=2)
    samples, _, _ = generate_dataset(cfg)
    data = tmp_path / "data.jsonl"
    save_dataset(data, samples)
    h1 = file_sha256(data)
    save_dataset(data, samples)
    assert file_sha256(data) == h1
    man = tmp_path / "manifest.json"
    save_manifest(man, cfg, {"dataset": h1}, len(samples))
    body = json.loads(man.read_text())
    assert body["schema"] == "manifest-v1"
    assert body["sha256"]["dataset"] == h1
    assert body["config"]["n_samples"] == 3
