import base64
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from cvpose import syndata
from cvpose.errors import (CvposeError, PoseOutOfView, SchemaError,
                           ShapeMismatch)
from cvpose.geometry import Pose3D, project, relative_transform, save_rig
from cvpose.graph import SkeletonTopology, default_topology
from cvpose.syndata import (ANGLE_RANGES_DEG, REST_OFFSETS_MM, Sample,
                            SyntheticConfig, default_rig, file_sha256,
                            generate_dataset, load_dataset, perturb_rig,
                            save_dataset, save_manifest)


def test_default_rig_geometry():
    cams = default_rig()
    assert [c.cam_id for c in cams] == ["cam1", "cam2"]
    for cam in cams:
        assert np.linalg.norm(-cam.R.T @ cam.t) == pytest.approx(3000.0)
        # aimed at the origin: it projects to the principal point
        px = project(cam, Pose3D(np.zeros((1, 3)), frame_id="world")
                     if False else Pose3D((np.zeros(3) @ cam.R.T + cam.t)[None],
                                          frame_id=cam.cam_id)).joints[0]
        assert np.allclose(px, [500.0, 500.0], atol=1e-9)
    c1, c2 = (-cam.R.T @ cam.t for cam in cams)
    cos = c1 @ c2 / (np.linalg.norm(c1) * np.linalg.norm(c2))
    assert np.degrees(np.arccos(cos)) == pytest.approx(60.0, abs=1e-9)


def test_rig_relative_transform_matches_centers():
    cams = default_rig()
    rel = relative_transform(cams[1], cams[0])
    # view-2 origin maps to cam2's center expressed in cam1 coordinates
    c2_in_1 = cams[0].R @ (-cams[1].R.T @ cams[1].t) + cams[0].t
    assert np.allclose(np.zeros(3) @ rel.R.T + rel.t, c2_in_1, atol=1e-9)


def test_template_is_symmetric():
    topo = default_topology()
    for left, right in topo.left_right_pairs:
        off_l, off_r = REST_OFFSETS_MM[left], REST_OFFSETS_MM[right]
        assert off_l[0] == -off_r[0]
        assert np.array_equal(off_l[1:], off_r[1:])
        assert ANGLE_RANGES_DEG[left] == ANGLE_RANGES_DEG[right]


def _pose(topo, rng):
    """One world-frame pose, drawn from `rng` as one attempt of
    generate_dataset is."""
    return syndata._forward_kinematics(
        topo, *syndata._draw_attempts([rng], topo.n_joints))[0]


def test_fk_preserves_bone_lengths_and_symmetry():
    topo = default_topology()
    for trial in range(20):
        rng = np.random.default_rng(trial)
        X = _pose(topo, rng)
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
    a = _pose(topo, np.random.default_rng(7))
    b = _pose(topo, np.random.default_rng(7))
    assert np.array_equal(a, b)


def _reference_pose(topo, rng):
    """Forward kinematics one joint at a time, in the documented draw order:
    root position, yaw, then per non-root joint an axis and an angle."""
    def rodrigues(axis, angle):
        k = axis / np.linalg.norm(axis)
        K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]],
                      [-k[1], k[0], 0.0]])
        return (np.eye(3) + math.sin(angle) * K
                + (1.0 - math.cos(angle)) * (K @ K))

    workspace_mm = np.array([300.0, 200.0, 300.0])
    root_pos = rng.uniform(-workspace_mm, workspace_mm)
    yaw = math.radians(rng.uniform(-180.0, 180.0))
    c, s = math.cos(yaw), math.sin(yaw)
    rot = {topo.root: np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])}
    pos = np.zeros((topo.n_joints, 3))
    pos[topo.root] = root_pos
    for j in range(topo.n_joints):
        if j == topo.root:
            continue
        axis = rng.standard_normal(3)
        angle = math.radians(ANGLE_RANGES_DEG[j]) * rng.uniform(-1.0, 1.0)
        rot[j] = rot[topo.parents[j]] @ rodrigues(axis, angle)
        pos[j] = pos[topo.parents[j]] + rot[j] @ REST_OFFSETS_MM[j]
    return pos


def test_fk_matches_the_per_joint_reference_bit_for_bit():
    topo = default_topology()
    for seed in range(10):
        rng, ref_rng = (np.random.default_rng((seed, 5)) for _ in range(2))
        got = _pose(topo, rng)
        want = _reference_pose(topo, ref_rng)
        assert got.tobytes() == want.tobytes()
        # both consumed the same draws
        assert rng.random() == ref_rng.random()


def test_template_must_match_the_topology():
    small = SkeletonTopology(("a", "b"), (0, 0), ())
    with pytest.raises(ShapeMismatch, match="template"):
        generate_dataset(SyntheticConfig(n_samples=3, seed=0), topo=small)
    # 17 joints, but the thorax (8) hangs from the neck (9) that follows it:
    # the rest offsets cannot be composed down this tree in index order.
    topo = default_topology()
    parents = list(topo.parents)
    parents[8], parents[9] = 9, 7
    swapped = SkeletonTopology(topo.joint_names, parents,
                               topo.left_right_pairs)
    with pytest.raises(ShapeMismatch, match="template"):
        generate_dataset(SyntheticConfig(n_samples=3, seed=0), topo=swapped)


# In a workspace four times the recipe's, resamples 17 times over 48 samples
# and cycles both pairs of a 3-camera rig.
RESAMPLING = SyntheticConfig(n_samples=48, seed=1000, sigma_px=5.0,
                             perturb_rot_deg=1.0, perturb_trans_mm=5.0)


@pytest.fixture
def wide_workspace(monkeypatch):
    monkeypatch.setattr(syndata, "WORKSPACE_MM", (1200.0, 800.0, 1200.0))


def test_generated_files_match_recorded_hashes(tmp_path, wide_workspace):
    # Recorded from the per-pose generator the batched one replaced; a
    # change here changes every dataset made from a seed.
    samples, _, assumed = generate_dataset(RESAMPLING,
                                           cameras=default_rig(n_cameras=3))
    assert {s.pair for s in samples} == {("cam1", "cam2"), ("cam2", "cam3")}
    save_dataset(tmp_path / "data.jsonl", samples)
    save_rig(tmp_path / "rig.jsonl", assumed)
    assert file_sha256(tmp_path / "data.jsonl") == (
        "e3f7f63ef20449be260848d686e784f9a9566cfd9291e7d82f73d30f92c0561d")
    assert file_sha256(tmp_path / "rig.jsonl") == (
        "71952d5a18c77df9432820965804c651ef1b7ffad71c8eb1cef238455b3176b3")


def test_dataset_is_reproducible_record_by_record(wide_workspace):
    # Batched resample rounds must not let one sample's retries shift
    # another's draws: a prefix of a set is the smaller set.
    cams = default_rig(n_cameras=3)
    few, _, rig_few = generate_dataset(
        SyntheticConfig(**{**RESAMPLING.__dict__, "n_samples": 5}),
        cameras=cams)
    many, _, rig_many = generate_dataset(RESAMPLING, cameras=cams)
    assert len(few) == 5
    for a, b in zip(few, many):
        assert (a.sample_id, a.pair) == (b.sample_id, b.pair)
        for key in ("joints_2d", "joints_2d_clean", "joints_3d_gt"):
            for view in a.pair:
                assert (getattr(a, key)[view].tobytes()
                        == getattr(b, key)[view].tobytes())
    for c1, c2 in zip(rig_few, rig_many):
        assert np.array_equal(c1.R, c2.R) and np.array_equal(c1.t, c2.t)


def test_empty_dataset_generates_nothing_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, true_rig, assumed = generate_dataset(
            SyntheticConfig(n_samples=0, seed=0))
    assert samples == []
    assert len(true_rig) == len(assumed) == 2


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


def test_pose_out_of_view_when_unviewable(monkeypatch):
    monkeypatch.setattr(syndata, "IMAGE_WIDTH_PX", 10)
    monkeypatch.setattr(syndata, "IMAGE_HEIGHT_PX", 10)
    monkeypatch.setattr(syndata, "MAX_RESAMPLE", 5)
    cfg = SyntheticConfig(n_samples=1, seed=0)
    with pytest.raises(PoseOutOfView,
                       match=r"^sample 0: no fully visible pose in 5 tries$"):
        generate_dataset(cfg, cameras=default_rig())


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

    path.write_text('{"schema": "data-v2", "n_joints": 5, "n_samples": 0}\n')
    with pytest.raises(SchemaError, match="topology has 17"):
        load_dataset(path)

    head = '{"schema": "data-v2", "n_joints": 17, "n_samples": 1}\n'
    path.write_text(head + '{"id": "s0", "views": ["a", "b"]}\n')
    with pytest.raises(SchemaError, match="line 2"):
        load_dataset(path)

    bad_rec = _v2_record(17)
    bad_rec["joints_2d"] = _b64(np.zeros((2, 16, 2)))
    path.write_text(head + json.dumps(bad_rec) + "\n")
    with pytest.raises(SchemaError, match="line 2: .*bytes"):
        load_dataset(path)


def test_dataset_record_must_be_an_object(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"schema": "data-v2", "n_joints": 17, "n_samples": 1}\n'
                    "5\n")
    with pytest.raises(SchemaError, match="line 2: .*JSON object") as exc:
        load_dataset(path)
    assert exc.value.line == 2


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
    # the recipe values that were config fields are still listed
    assert {k: body["config"][k] for k in syndata.RETIRED_SYNTH_SETTINGS} == {
        "workspace_mm": [300.0, 200.0, 300.0], "angle_scale": 1.0,
        "root_yaw_deg": 180.0, "max_resample": 50}


# -- data-v2 -------------------------------------------------------------------

def _b64(block):
    return base64.b64encode(np.ascontiguousarray(block, dtype="<f8")
                            .tobytes()).decode("ascii")


def _v2_record(J, sid="s0", views=("a", "b"), gt=True):
    rec = {"id": sid, "views": list(views),
           "joints_2d": _b64(np.zeros((2, J, 2))),
           "joints_2d_clean": _b64(np.zeros((2, J, 2)))}
    if gt:
        rec["joints_3d_gt"] = _b64(np.ones((2, J, 3)))
    return rec


def _write_v2(path, records, **header):
    head = {"schema": "data-v2", "n_joints": 17, "n_samples": len(records)}
    head.update(header)
    lines = [json.dumps(head)]
    lines += [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n")


def test_dataset_v2_layout(tmp_path):
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=2, seed=4))
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"schema": "data-v2", "n_joints": 17,
                                    "n_samples": 2}
    rec = json.loads(lines[1])
    assert rec["views"] == ["cam1", "cam2"]
    for key, d in (("joints_2d", 2), ("joints_2d_clean", 2),
                   ("joints_3d_gt", 3)):
        raw = base64.b64decode(rec[key], validate=True)
        block = np.frombuffer(raw, dtype="<f8").reshape(2, 17, d)
        for row, view in enumerate(rec["views"]):
            assert np.array_equal(block[row],
                                  getattr(samples[0], key)[view])


def test_dataset_roundtrip_is_bit_exact_for_extreme_values(tmp_path):
    specials = np.array([-0.0, 5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, 0.1, -2.5e-310])
    J = 17
    block2 = np.resize(specials, 2 * J * 2).reshape(2, J, 2)
    block3 = np.resize(specials[::-1], 2 * J * 3).reshape(2, J, 3)
    sample = Sample("x", ("cam2", "cam1"),
                    {"cam2": block2[0], "cam1": block2[1]},
                    {"cam2": -block2[0], "cam1": -block2[1]},
                    {"cam2": block3[0], "cam1": block3[1]})
    path = tmp_path / "data.jsonl"
    save_dataset(path, [sample])
    (got,) = load_dataset(path)
    assert got.pair == ("cam2", "cam1")
    for key in ("joints_2d", "joints_2d_clean", "joints_3d_gt"):
        for view in got.pair:
            want = getattr(sample, key)[view]
            arr = getattr(got, key)[view]
            assert arr.dtype == np.float64 and arr.shape == want.shape
            assert np.array_equal(arr.view(np.uint64), want.view(np.uint64))
            assert arr.flags.owndata and arr.flags.writeable
    # the views of one field share no memory: writing one leaves the other
    got.joints_2d["cam2"][0, 0] = 7.0
    assert got.joints_2d["cam1"][0, 0] == block2[1, 0, 0]


@pytest.mark.parametrize("key", ["joints_2d", "joints_2d_clean",
                                 "joints_3d_gt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(tmp_path, key, bad):
    rec = _v2_record(17, sid="s1")
    d = 3 if key == "joints_3d_gt" else 2
    block = np.zeros((2, 17, d))
    block[1, 16, d - 1] = bad
    rec[key] = _b64(block)
    path = tmp_path / "data.jsonl"
    _write_v2(path, [_v2_record(17), rec])
    with pytest.raises(SchemaError, match=f"line 3: non-finite .*{key}") as exc:
        load_dataset(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("value, message", [
    (_b64(np.zeros((2, 17, 2)))[:-4], "bytes"),       # one float short
    (_b64(np.zeros((2, 17, 3))), "bytes"),            # a 3D block
    ("!!" + _b64(np.zeros((2, 17, 2)))[2:], "base64"),
    (_b64(np.zeros((2, 17, 2))) + "\n", "base64"),
    ("AAAA\u00e9" + _b64(np.zeros((2, 17, 2)))[5:], "base64"),
    ({"a": [[0.0, 0.0]] * 17, "b": [[0.0, 0.0]] * 17}, "base64"),
    ([[[0.0, 0.0]] * 17] * 2, "base64"),
], ids=["short", "3d-block", "bad-chars", "newline", "non-ascii",
        "v1-dict", "nested-list"])
def test_dataset_rejects_malformed_array_fields(tmp_path, value, message):
    rec = _v2_record(17)
    rec["joints_2d_clean"] = value
    path = tmp_path / "data.jsonl"
    _write_v2(path, [rec])
    with pytest.raises(SchemaError, match=f"line 2: .*{message}") as exc:
        load_dataset(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("header, fields, line, message", [
    ({}, {"joints_3d_gtx": _b64(np.ones((2, 17, 3)))}, 2,
     "unknown key 'joints_3d_gtx'"),
    ({}, {"weight": 1.0}, 2, "unknown key 'weight'"),
    ({}, {"id": {"a": 1}}, 2, r"id must be a JSON string, got \{'a': 1\}"),
    ({}, {"id": 7}, 2, "id must be a JSON string, got 7"),
    ({}, {"id": None}, 2, "id must be a JSON string, got None"),
    ({"n_views": 2}, {}, 1, "unknown key 'n_views'"),
    ({"n_joints": 17.0}, {}, 1, "dataset is for 17.0 joints, topology has 17"),
], ids=["misspelled-gt", "extra-field", "dict-id", "int-id", "null-id",
        "header-key", "float-joint-count"])
def test_dataset_refuses_what_save_never_writes(tmp_path, header, fields,
                                                line, message):
    # A misspelled ground-truth key loaded as a sample without ground
    # truth, and a non-string id as its str().
    rec = {**_v2_record(17), **fields}
    path = tmp_path / "data.jsonl"
    _write_v2(path, [rec], **header)
    with pytest.raises(SchemaError, match=f"^line {line}: {message}$") as exc:
        load_dataset(path)
    assert exc.value.line == line


@pytest.mark.parametrize("views", [["a", "a"], ["a", 3], ["a", None],
                                   ["a"], ["a", "b", "c"], "ab"],
                         ids=["repeat", "int", "null", "one", "three",
                              "string"])
def test_dataset_views_must_be_two_distinct_cameras(tmp_path, views):
    rec = _v2_record(17)
    rec["views"] = views
    path = tmp_path / "data.jsonl"
    _write_v2(path, [rec])
    with pytest.raises(SchemaError, match="line 2: views") as exc:
        load_dataset(path)
    assert exc.value.line == 2


def test_dataset_v1_file_names_v2(tmp_path):
    path = tmp_path / "old.jsonl"
    rec = {"id": "s0", "views": ["a", "b"],
           "joints_2d": {"a": [[0.0, 0.0]] * 17, "b": [[0.0, 0.0]] * 17},
           "joints_2d_clean": {"a": [[0.0, 0.0]] * 17,
                               "b": [[0.0, 0.0]] * 17}}
    path.write_text('{"schema": "data-v1", "n_joints": 17, "n_samples": 1}\n'
                    + json.dumps(rec) + "\n")
    with pytest.raises(SchemaError, match="data-v2"):
        load_dataset(path)


def test_truncated_dataset_is_rejected(tmp_path):
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=5, seed=1))
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2]))     # cut at a record boundary
    with pytest.raises(SchemaError, match="5 samples.*3"):
        load_dataset(path)


@pytest.mark.parametrize("n_samples", [2, 0, -1, "1", 1.0, True, None])
def test_dataset_header_sample_count_must_match(tmp_path, n_samples):
    path = tmp_path / "data.jsonl"
    _write_v2(path, [_v2_record(17)], n_samples=n_samples)
    with pytest.raises(SchemaError, match="line 1: n_samples") as exc:
        load_dataset(path)
    assert exc.value.line == 1


def test_dataset_header_needs_sample_count(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"schema": "data-v2", "n_joints": 17}\n')
    with pytest.raises(SchemaError, match="n_samples"):
        load_dataset(path)


def test_empty_dataset_loads(tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(path, [])
    assert load_dataset(path) == []


def test_dataset_record_size(tmp_path):
    # Base64 float64 takes 4/3 of the raw 8 bytes per value: 2·17·(2+2+3)
    # values make 2544 characters of arrays per record, plus keys and id.
    # Decimal text took about 5 KB.
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=64, seed=0,
                                                     sigma_px=5.0))
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    assert path.stat().st_size / len(samples) <= 2700


def test_save_refuses_what_the_loader_would_reject(tmp_path):
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=1, seed=0))
    s = samples[0]
    path = tmp_path / "data.jsonl"
    twin = Sample("t", ("cam1", "cam1"), s.joints_2d, s.joints_2d_clean)
    with pytest.raises(SchemaError, match="distinct"):
        save_dataset(path, [twin])
    short = Sample("short", s.pair,
                   {v: a[:16] for v, a in s.joints_2d.items()},
                   s.joints_2d_clean)
    with pytest.raises(ShapeMismatch, match="joints_2d"):
        save_dataset(path, [short])
    for key, bad in (("joints_2d", np.nan), ("joints_3d_gt", np.inf)):
        arrays = {v: a.copy() for v, a in getattr(s, key).items()}
        arrays[s.pair[1]][3, 0] = bad
        broken = dataclasses.replace(s, sample_id="broken", **{key: arrays})
        with pytest.raises(SchemaError,
                           match=f"sample broken: non-finite values in {key}"):
            save_dataset(path, [broken])


def _spoiled(sample, key, how):
    """A copy of `sample` with a NaN in `key`, or `key` one joint short in
    both views."""
    arrays = {v: a.copy() if how == "nan" else a[:-1]
              for v, a in getattr(sample, key).items()}
    if how == "nan":
        arrays[sample.pair[1]][3, 0] = np.nan
    return dataclasses.replace(sample, **{key: arrays})


@pytest.mark.parametrize("faults, error, message", [
    ([(1, "joints_3d_gt", "nan"), (3, "joints_2d", "short")],
     SchemaError, "sample s000001: non-finite values in joints_3d_gt"),
    ([(2, "joints_2d", "nan"), (2, "joints_2d_clean", "short")],
     SchemaError, "sample s000002: non-finite values in joints_2d"),
    ([(2, "joints_2d", "short"), (2, "joints_2d_clean", "nan")],
     ShapeMismatch, "sample s000002: joints_2d has shape"),
    ([(2, "joints_2d_clean", "nan"), (2, "views", None)],
     SchemaError, "sample s000002: views"),
    ([(4, "joints_2d", "nan"), (3, "joints_3d_gt", "short")],
     ShapeMismatch, "sample s000003: joints_3d_gt has shape"),
], ids=["nan-then-shape", "nan-then-shape-in-one-sample",
        "shape-then-nan-in-one-sample", "views-first", "past-a-chunk"])
def test_save_reports_the_first_fault_in_sample_order(tmp_path, monkeypatch,
                                                       faults, error,
                                                       message):
    monkeypatch.setattr(syndata, "DATA_CHUNK", 2, raising=False)
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=5, seed=0))
    for i, key, how in faults:
        samples[i] = (dataclasses.replace(samples[i], pair=("cam1", "cam1"))
                      if key == "views" else _spoiled(samples[i], key, how))
    with pytest.raises(error, match=f"^{message}"):
        save_dataset(tmp_path / "data.jsonl", samples)


def test_refused_save_keeps_the_previous_file(tmp_path):
    # A save that raised used to leave the header and the records before
    # the fault, which the loader then refused as truncated.
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=3, seed=0))
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    before = path.read_bytes()
    with pytest.raises(SchemaError, match="sample s000002: non-finite"):
        save_dataset(path, samples[:2] + [_spoiled(samples[2], "joints_2d",
                                                   "nan")])
    # A fault met while writing, past every check, is undone the same way.
    unnamed = dataclasses.replace(samples[1], sample_id=object())
    with pytest.raises(TypeError):
        save_dataset(path, [samples[0], unnamed])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert len(load_dataset(path)) == 3


def _write_with_faults(path, n, faults):
    """A data-v2 file of n records on lines 2 to n + 1 whose ids name their
    lines; `faults` maps a line to the fields to set there, or to the
    line's whole text."""
    lines = [json.dumps({"schema": "data-v2", "n_joints": 17,
                         "n_samples": n})]
    for line in range(2, n + 2):
        fault = faults.get(line, {})
        if isinstance(fault, str):
            lines.append(fault)
        else:
            lines.append(json.dumps({**_v2_record(17, sid=f"s{line}"),
                                     **fault}))
    path.write_text("\n".join(lines) + "\n")


_NAN_2D = _b64(np.full((2, 17, 2), np.nan))
_NAN_3D = _b64(np.full((2, 17, 3), np.inf))
_NOT_B64 = "!!" + _b64(np.zeros((2, 17, 2)))[2:]


@pytest.mark.parametrize("faults, line, message", [
    ({3: {"joints_2d": _NAN_2D}, 5: {"joints_2d": _NOT_B64}},
     3, "non-finite values in joints_2d"),
    ({3: {"joints_2d": _NOT_B64}, 5: {"joints_2d": _NAN_2D}},
     3, "joints_2d is not valid base64"),
    ({3: {"joints_2d": _NAN_2D, "joints_2d_clean": _NOT_B64}},
     3, "non-finite values in joints_2d"),
    ({3: {"joints_2d": _NOT_B64, "joints_2d_clean": _NAN_2D}},
     3, "joints_2d is not valid base64"),
    ({3: {"joints_3d_gt": _NAN_3D}, 5: "{not json"},
     3, "non-finite values in joints_3d_gt"),
    ({3: {"joints_2d_clean": _NAN_2D}, 4: {"id": "s3"}},
     3, "non-finite values in joints_2d_clean"),
    ({3: {"joints_2d_clean": _NAN_2D}, 4: {"views": ["a", "a"]}},
     3, "non-finite values in joints_2d_clean"),
    ({3: {"joints_3d_gt": _NAN_3D}, 4: '{"id": "x", "views": ["a", "b"]}'},
     3, "non-finite values in joints_3d_gt"),
    ({4: {"joints_2d": _NAN_2D}, 3: {"joints_3d_gt": _NAN_3D}},
     3, "non-finite values in joints_3d_gt"),
], ids=["nan-then-base64", "base64-then-nan", "nan-then-base64-in-a-record",
        "base64-then-nan-in-a-record", "nan-then-json", "nan-then-repeat",
        "nan-then-views", "nan-then-missing-field", "nan-in-two-fields"])
def test_load_reports_the_first_fault_in_file_order(tmp_path, faults, line,
                                                    message):
    path = tmp_path / "data.jsonl"
    _write_with_faults(path, 5, faults)
    with pytest.raises(SchemaError, match=f"^line {line}: {message}$") as exc:
        load_dataset(path)
    assert exc.value.line == line


@pytest.mark.parametrize("faults, line", [
    ({4: {"joints_2d": _NAN_2D}}, 4),
    ({4: {"joints_2d_clean": _NAN_2D}, 7: {"joints_2d": _NAN_2D}}, 4),
    ({3: {"joints_3d_gt": _NAN_3D}, 4: {"joints_2d": _NOT_B64}}, 3),
    ({5: {"joints_2d": _NAN_2D}, 6: {"views": "ab"}}, 5),
    ({8: {"joints_3d_gt": _NAN_3D}}, 8),
], ids=["first-of-a-chunk", "two-chunks", "last-of-a-chunk",
        "before-a-chunk-ends", "last-record"])
def test_load_reports_a_non_finite_value_past_a_chunk_boundary(
        tmp_path, monkeypatch, faults, line):
    # Two records per chunk: lines 2-3, 4-5, 6-7 and 8.
    monkeypatch.setattr(syndata, "DATA_CHUNK", 2, raising=False)
    path = tmp_path / "data.jsonl"
    _write_with_faults(path, 7, faults)
    with pytest.raises(SchemaError, match=f"^line {line}: non-finite") as exc:
        load_dataset(path)
    assert exc.value.line == line


def test_dataset_roundtrip_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(syndata, "DATA_CHUNK", 3, raising=False)
    samples, _, _ = generate_dataset(
        SyntheticConfig(n_samples=11, seed=7, sigma_px=2.0),
        cameras=default_rig(n_cameras=3))
    samples = [dataclasses.replace(s, joints_3d_gt={}) if i in (1, 4, 5, 9)
               else s for i, s in enumerate(samples)]
    assert {s.pair for s in samples} == {("cam1", "cam2"), ("cam2", "cam3")}
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    # Recorded from the writer that encoded one sample at a time.
    assert file_sha256(path) == (
        "9de1988bd1084d1bdb90da19c33537012ccc9ef5c4717bfb0aaff7873eb3958c")
    loaded = load_dataset(path)
    assert [(s.sample_id, s.pair) for s in loaded] == [
        (s.sample_id, s.pair) for s in samples]
    arrays = []
    for want, got in zip(samples, loaded):
        for key in ("joints_2d", "joints_2d_clean", "joints_3d_gt"):
            assert getattr(got, key).keys() == getattr(want, key).keys()
            for view, a in getattr(want, key).items():
                b = getattr(got, key)[view]
                assert b.dtype == np.float64 and b.shape == a.shape
                assert np.array_equal(b.view(np.uint64), a.view(np.uint64))
                assert b.flags.owndata and b.flags.writeable
                arrays.append(b)
    assert len(arrays) == 11 * 6 - 4 * 2
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(arrays, 2))


@pytest.mark.parametrize("cameras, pairs", [
    (lambda: default_rig(n_cameras=1), None),   # one camera pairs nothing
    (default_rig, []),
])
def test_no_camera_pair_raises_a_cvpose_error(cameras, pairs):
    cfg = SyntheticConfig(n_samples=3, seed=0)
    with pytest.raises(CvposeError, match=r"no camera pairs: pairs is \[\]"):
        generate_dataset(cfg, cameras=cameras(), pairs=pairs)
    # With nothing to generate, an empty pair list is no error.
    samples, _, _ = generate_dataset(SyntheticConfig(n_samples=0),
                                     cameras=cameras(), pairs=pairs)
    assert samples == []


def test_pair_with_unknown_camera_raises_a_cvpose_value_error():
    # A CvposeError for the CLI, and still a ValueError for callers that
    # guard broadly.
    with pytest.raises(CvposeError, match=r"pair \(cam1, cam9\) names an "
                                          "unknown camera") as exc:
        generate_dataset(SyntheticConfig(n_samples=2),
                         pairs=[("cam1", "cam9")])
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("n", [0, 3])
def test_pair_naming_one_camera_twice_is_refused(n):
    # Such a pair has one view, so none of its samples could be
    # triangulated or saved; it is refused before anything is drawn.
    with pytest.raises(CvposeError, match=r"^pair \(cam1, cam1\) names one "
                                          r"camera twice$"):
        generate_dataset(SyntheticConfig(n_samples=n),
                         pairs=[("cam1", "cam2"), ("cam1", "cam1")])
