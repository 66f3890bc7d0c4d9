"""Cameras, triangulation, Procrustes, rig files."""

import json
import math

import numpy as np
import pytest

from cvpose.errors import (
    DegenerateCloud,
    DegenerateGeometry,
    MissingField,
    NonPositiveDepth,
    SchemaError,
    ShapeMismatch,
)
from cvpose.geometry import (
    CameraModel,
    Pose2D,
    Pose3D,
    RigidTransform,
    load_rig,
    procrustes_align,
    project,
    relative_transform,
    save_rig,
    transform_pose,
    triangulate_joint,
    triangulate_pose,
)


def rot_y(deg):
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(deg):
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def make_cam(cam_id="cam1", K=None, R=None, t=None, width=1000, height=1000):
    return CameraModel(
        cam_id=cam_id,
        K=np.eye(3) if K is None else K,
        R=np.eye(3) if R is None else R,
        t=np.zeros(3) if t is None else t,
        width=width,
        height=height,
    )


def random_cam(rng, cam_id):
    K = np.array([
        [rng.uniform(500, 1500), rng.uniform(-2, 2), rng.uniform(400, 600)],
        [0.0, rng.uniform(500, 1500), rng.uniform(400, 600)],
        [0.0, 0.0, 1.0],
    ])
    R = rot_y(rng.uniform(-80, 80)) @ rot_x(rng.uniform(-30, 30))
    t = rng.uniform(-500, 500, size=3)
    return make_cam(cam_id, K=K, R=R, t=t)


# ---------------------------------------------------------------------------
# CameraModel / RigidTransform


def test_camera_validation():
    with pytest.raises(ValueError):
        make_cam(K=np.array([[1.0, 0, 0], [0.1, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        make_cam(K=np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        make_cam(R=np.eye(3) * 1.001)
    with pytest.raises(ValueError):
        make_cam(R=np.diag([1.0, 1.0, -1.0]))


def test_camera_center():
    cam = make_cam(R=rot_y(30), t=np.array([1.0, 2.0, 3.0]))
    c = cam.center()
    assert np.allclose(cam.R @ c + cam.t, 0.0, atol=1e-12)


def test_rigid_transform_compose_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = RigidTransform(rot_y(rng.uniform(-90, 90)), rng.uniform(-5, 5, 3))
        b = RigidTransform(rot_x(rng.uniform(-90, 90)), rng.uniform(-5, 5, 3))
        pts = rng.uniform(-10, 10, size=(6, 3))
        assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)
        assert np.allclose(a.inverse().apply(a.apply(pts)), pts, atol=1e-9)
    ident = RigidTransform.identity()
    assert np.allclose(ident.apply(pts), pts)


def test_relative_transform_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c1 = random_cam(rng, "a")
        c2 = random_cam(rng, "b")
        X_world = rng.uniform(-2, 2, size=(5, 3))
        X1 = X_world @ c1.R.T + c1.t
        X2 = X_world @ c2.R.T + c2.t
        rel = relative_transform(c1, c2)
        assert np.allclose(rel.apply(X1), X2, atol=1e-9)
        back = relative_transform(c2, c1)
        assert np.allclose(back.apply(rel.apply(X1)), X1, atol=1e-9)


def test_project_applies_intrinsics_only():
    K = np.array([[1146.0, 0.0, 500.0], [0.0, 1146.0, 500.0], [0.0, 0.0, 1.0]])
    cam = make_cam(K=K, R=rot_y(45), t=np.array([0.0, 0.0, 3000.0]))
    pose = Pose3D(np.array([[100.0, -50.0, 2000.0]]), frame_id="cam1")
    px = project(cam, pose)
    assert np.allclose(px.joints, [[500 + 1146 * 100 / 2000, 500 - 1146 * 50 / 2000]])
    assert px.view_id == "cam1"


def test_project_rejects_nonpositive_depth():
    pose = Pose3D(np.array([[0.0, 0.0, 10.0], [0.0, 0.0, -1.0]]), frame_id="cam1")
    with pytest.raises(NonPositiveDepth) as exc:
        project(make_cam(), pose)
    assert exc.value.joint == 1


# ---------------------------------------------------------------------------
# Triangulation


def test_triangulate_joint_worked_example():
    # Identity intrinsics, second camera shifted so X_cam2 = X_cam1 - (1,0,0).
    # The point (0.2, 0.1, 2.0) projects to (0.1, 0.05) and (-0.4, 0.05).
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([-1.0, 0.0, 0.0]))
    X = triangulate_joint([0.1, 0.05], [-0.4, 0.05], cam1, cam2)
    assert np.allclose(X, [0.2, 0.1, 2.0], atol=1e-9)


def test_triangulate_rejects_point_behind_cameras():
    # The rays through (0.1, 0.05) and (0.6, 0.05) meet at z = -2, behind
    # both cameras.
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(NonPositiveDepth) as exc:
        triangulate_joint([0.1, 0.05], [0.6, 0.05], cam1, cam2)
    assert exc.value.joint == 0
    # Joint 0 lies in front of both cameras, joint 1 in front of cam1 but
    # behind cam3: the single-mode pose mapped into cam3 must be rejected too.
    t3 = np.array([-1.0, 0.0, -3.0])
    cam3 = make_cam("cam3", t=t3)
    X = np.array([[0.2, 0.1, 6.0], [0.2, 0.1, 2.0]])
    X3 = X + t3
    assert X3[0, 2] > 0 > X3[1, 2]
    u1 = Pose2D(X[:, :2] / X[:, 2:], "cam1")
    u3 = Pose2D(X3[:, :2] / X3[:, 2:], "cam3")
    for mode in ("dual", "single"):
        with pytest.raises(NonPositiveDepth) as exc:
            triangulate_pose(u1, u3, cam1, cam3, mode=mode)
        assert exc.value.joint == 1


def test_triangulate_pose_is_deterministic():
    rng = np.random.default_rng(24)
    c1 = random_cam(rng, "cam1")
    c2 = random_cam(rng, "cam2")
    X_world = rng.uniform(-300, 300, size=(17, 3)) + np.array([0, 0, 4000.0])
    u1 = project(c1, Pose3D(X_world @ c1.R.T + c1.t, "cam1"))
    u2 = project(c2, Pose3D(X_world @ c2.R.T + c2.t, "cam2"))
    u1.joints += rng.normal(0, 5.0, u1.joints.shape)
    u2.joints += rng.normal(0, 5.0, u2.joints.shape)
    for mode in ("dual", "single"):
        a = triangulate_pose(u1, u2, c1, c2, mode=mode)
        b = triangulate_pose(Pose2D(u1.joints.copy(), "cam1"),
                             Pose2D(u2.joints.copy(), "cam2"), c1, c2, mode=mode)
        for x, y in zip(a, b):
            assert np.array_equal(x.joints, y.joints)


def test_triangulate_exact_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(30):
        c1 = random_cam(rng, "cam1")
        c2 = random_cam(rng, "cam2")
        X_world = rng.uniform(-400, 400, size=(17, 3)) + np.array([0, 0, 4000.0])
        X1 = X_world @ c1.R.T + c1.t
        X2 = X_world @ c2.R.T + c2.t
        if (X1[:, 2] <= 1.0).any() or (X2[:, 2] <= 1.0).any():
            continue
        u1 = project(c1, Pose3D(X1, "cam1"))
        u2 = project(c2, Pose3D(X2, "cam2"))
        p1, p2 = triangulate_pose(u1, u2, c1, c2, mode="dual")
        assert p1.frame_id == "cam1" and p2.frame_id == "cam2"
        assert np.abs(p1.joints - X1).max() < 1e-6
        assert np.abs(p2.joints - X2).max() < 1e-6


def test_triangulate_single_mode_maps_view1_solution():
    rng = np.random.default_rng(22)
    c1 = random_cam(rng, "cam1")
    c2 = random_cam(rng, "cam2")
    X_world = rng.uniform(-300, 300, size=(5, 3)) + np.array([0, 0, 4000.0])
    X1 = X_world @ c1.R.T + c1.t
    X2 = X_world @ c2.R.T + c2.t
    u1 = project(c1, Pose3D(X1, "cam1"))
    u2 = project(c2, Pose3D(X2, "cam2"))
    p1s, p2s = triangulate_pose(u1, u2, c1, c2, mode="single")
    rel = relative_transform(c1, c2)
    assert np.array_equal(p2s.joints, rel.apply(p1s.joints))
    assert np.abs(p2s.joints - X2).max() < 1e-6


def test_triangulate_degenerate_baseline():
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([0.0, 0.0, 0.0]))
    with pytest.raises(DegenerateGeometry):
        triangulate_joint([0.1, 0.2], [0.1, 0.2], cam1, cam2)


def test_triangulate_pose_joint_tagged():
    # Make one correspondence degenerate: point on the baseline sees the
    # epipole in both views, every point on the line reprojects exactly.
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([0.0, 0.0, -1000.0]))  # pure forward shift
    # Joint 0 sits at the epipole (optical axis of both): degenerate.
    u1 = Pose2D(np.array([[0.0, 0.0], [0.1, 0.2]]), "cam1")
    u2 = Pose2D(np.array([[0.0, 0.0], [0.12, 0.24]]), "cam2")
    with pytest.raises(DegenerateGeometry) as exc:
        triangulate_pose(u1, u2, cam1, cam2)
    assert exc.value.joint == 0


def test_triangulate_shape_mismatch():
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([-1.0, 0.0, 0.0]))
    u1 = Pose2D(np.zeros((3, 2)), "cam1")
    u2 = Pose2D(np.zeros((4, 2)), "cam2")
    with pytest.raises(ShapeMismatch):
        triangulate_pose(u1, u2, cam1, cam2)


def test_triangulation_noise_close_to_reprojection_optimum():
    # With pixel noise the linear solution should land near the nonlinear
    # reprojection-error minimum (oracle via least squares).
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(23)
    K = np.array([[1146.0, 0.0, 500.0], [0.0, 1146.0, 500.0], [0.0, 0.0, 1.0]])
    c1 = make_cam("cam1", K=K)
    # Second camera on a 3 m circle around the subject centre, 60 deg away,
    # looking back at it.
    center2 = np.array([-2598.076211353316, 0.0, 1500.0])
    R2 = rot_y(-60.0)
    c2 = make_cam("cam2", K=K, R=R2, t=-R2 @ center2)

    def reproj_resid(X, u1, u2):
        X = X.reshape(1, 3)
        r1 = project(c1, Pose3D(X, "cam1")).joints[0] - u1
        rel = relative_transform(c1, c2)
        r2 = project(c2, Pose3D(rel.apply(X), "cam2")).joints[0] - u2
        return np.concatenate([r1, r2])

    for _ in range(10):
        X_true = rng.uniform(-300, 300, 3) + np.array([0.0, 0.0, 3000.0])
        u1 = project(c1, Pose3D(X_true.reshape(1, 3), "cam1")).joints[0]
        rel = relative_transform(c1, c2)
        u2 = project(c2, Pose3D(rel.apply(X_true.reshape(1, 3)), "cam2")).joints[0]
        u1n = u1 + rng.normal(0, 2.0, 2)
        u2n = u2 + rng.normal(0, 2.0, 2)
        X_dlt = triangulate_joint(u1n, u2n, c1, c2)
        sol = scipy_opt.least_squares(reproj_resid, X_dlt, args=(u1n, u2n))
        # DLT is not the reprojection optimum but must land close to it.
        assert np.linalg.norm(X_dlt - sol.x) < 5.0  # mm
        assert np.linalg.norm(X_dlt - X_true) < 50.0


# ---------------------------------------------------------------------------
# Procrustes


def rand_similarity(rng):
    R = rot_y(rng.uniform(-180, 180)) @ rot_x(rng.uniform(-90, 90))
    s = rng.uniform(0.2, 5.0)
    t = rng.uniform(-100, 100, 3)
    return s, R, t


def test_procrustes_recovers_similarity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        G = rng.uniform(-100, 100, size=(17, 3))
        s, R, t = rand_similarity(rng)
        P = (G @ R.T) / s - t
        aligned = procrustes_align(Pose3D(P, "a"), Pose3D(G, "b"))
        assert aligned.frame_id == "b"
        assert np.abs(aligned.joints - G).max() < 1e-8 * max(1.0, np.abs(G).max())


def test_procrustes_beats_random_transforms():
    # Closed form must not lose to any of 2000 random similarity transforms.
    rng = np.random.default_rng(32)
    for _ in range(5):
        G = rng.uniform(-100, 100, size=(10, 3))
        P = rng.uniform(-100, 100, size=(10, 3))
        best = procrustes_align(Pose3D(P, "a"), Pose3D(G, "b"))
        best_err = np.linalg.norm(best.joints - G)
        P0 = P - P.mean(0)
        for _ in range(2000):
            s, R, t = rand_similarity(rng)
            cand = s * (P0 @ R.T) + G.mean(0) + t * 0.01
            assert np.linalg.norm(cand - G) >= best_err - 1e-9


def test_procrustes_recovers_similarity_on_flat_clouds():
    # Rank-deficient cross-covariance: a planar cloud leaves one singular
    # value at zero, a collinear cloud two.
    rng = np.random.default_rng(34)
    for rank in (2, 1):
        for _ in range(20):
            G = rng.uniform(-100, 100, size=(17, 3))
            G[:, rank:] = 0.0
            R0 = rot_y(rng.uniform(-180, 180)) @ rot_x(rng.uniform(-90, 90))
            G = G @ R0.T + rng.uniform(-100, 100, 3)
            s, R, t = rand_similarity(rng)
            P = (G @ R.T) / s - t
            aligned = procrustes_align(Pose3D(P, "a"), Pose3D(G, "b"))
            assert np.abs(aligned.joints - G).max() < 1e-8 * max(1.0, np.abs(G).max())


def test_procrustes_no_reflection():
    rng = np.random.default_rng(33)
    for _ in range(200):
        G = rng.uniform(-1, 1, size=(5, 3))
        P = rng.uniform(-1, 1, size=(5, 3))
        a = procrustes_align(Pose3D(P, "a"), Pose3D(G, "b"))
        # Recover the implied linear map from centred P to centred aligned.
        P0 = P - P.mean(0)
        A0 = a.joints - a.joints.mean(0)
        M, *_ = np.linalg.lstsq(P0, A0, rcond=None)
        det = np.linalg.det(M)
        assert det >= -1e-9  # similarity with non-negative determinant


def test_procrustes_degenerate_cases():
    G = np.tile([1.0, 2.0, 3.0], (5, 1))
    P = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    with pytest.raises(DegenerateCloud):
        procrustes_align(Pose3D(P, "a"), Pose3D(G, "b"))
    # Collapsed prediction aligns to gt centroid with scale 0.
    G2 = np.random.default_rng(1).uniform(-1, 1, (5, 3))
    out = procrustes_align(Pose3D(np.tile([4.0, 4.0, 4.0], (5, 1)), "a"),
                           Pose3D(G2, "b"))
    assert np.allclose(out.joints, G2.mean(0))


def test_transform_pose_frames():
    pose = Pose3D(np.array([[1.0, 2.0, 3.0]]), frame_id="cam1")
    tr = RigidTransform(rot_y(90), np.array([0.0, 0.0, 1.0]))
    out = transform_pose(pose, tr, frame_id="cam2")
    assert out.frame_id == "cam2"
    assert np.allclose(out.joints, tr.apply(pose.joints))


# ---------------------------------------------------------------------------
# Rig files


def test_rig_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    cams = [random_cam(rng, f"cam{i}") for i in range(3)]
    path = tmp_path / "rig.jsonl"
    save_rig(path, cams)
    loaded = load_rig(path)
    assert [c.cam_id for c in loaded] == ["cam0", "cam1", "cam2"]
    for a, b in zip(cams, loaded):
        assert np.array_equal(a.K, b.K)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.t, b.t)
        assert (a.width, a.height) == (b.width, b.height)


def test_rig_rejects_bad_rotation(tmp_path):
    path = tmp_path / "rig.jsonl"
    R_bad = (np.eye(3) * 1.01).reshape(-1).tolist()
    lines = [
        json.dumps({"schema": "rig-v1"}),
        json.dumps({"id": "a", "K": np.eye(3).reshape(-1).tolist(),
                    "R": np.eye(3).reshape(-1).tolist(), "t": [0, 0, 0],
                    "width": 10, "height": 10}),
        json.dumps({"id": "b", "K": np.eye(3).reshape(-1).tolist(),
                    "R": R_bad, "t": [0, 0, 0], "width": 10, "height": 10}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_rig(path)
    assert exc.value.line == 3


def test_rig_missing_field_and_header(tmp_path):
    path = tmp_path / "rig.jsonl"
    path.write_text(json.dumps({"schema": "rig-v1"}) + "\n"
                    + json.dumps({"id": "a"}) + "\n")
    with pytest.raises(MissingField) as exc:
        load_rig(path)
    assert exc.value.line == 2
    path.write_text(json.dumps({"schema": "other"}) + "\n")
    with pytest.raises(SchemaError):
        load_rig(path)
    path.write_text("not json\n")
    with pytest.raises(SchemaError) as exc:
        load_rig(path)
    assert exc.value.line == 1
