"""Cameras, triangulation, Procrustes, rig files."""

import json
import math
import warnings

import numpy as np
import pytest

from cvpose import geometry
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
    procrustes_align_stack,
    project,
    relative_transform,
    save_rig,
    triangulate_pose,
    triangulate_stack,
)
from cvpose.syndata import SyntheticConfig, default_rig, generate_dataset


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


def apply(transform, points):
    """The rigid motion X -> R X + t on (n, 3) row points."""
    return points @ transform.R.T + transform.t


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
    c = -cam.R.T @ cam.t
    assert np.allclose(cam.R @ c + cam.t, 0.0, atol=1e-12)


def test_rigid_transform_compose_inverse():
    # Relative transforms compose (c0 -> c1 -> c2 is c0 -> c2), the reverse
    # pair inverts, and a camera's transform to itself is the identity.
    rng = np.random.default_rng(7)
    for _ in range(20):
        c0, c1, c2 = (random_cam(rng, f"c{i}") for i in range(3))
        a, b = relative_transform(c1, c2), relative_transform(c0, c1)
        pts = rng.uniform(-10, 10, size=(6, 3))
        ab = RigidTransform(a.R @ b.R, a.R @ b.t + a.t)
        assert np.allclose(apply(ab, pts), apply(a, apply(b, pts)), atol=1e-9)
        assert np.allclose(apply(ab, pts),
                           apply(relative_transform(c0, c2), pts), atol=1e-9)
        assert np.allclose(apply(relative_transform(c2, c1), apply(a, pts)),
                           pts, atol=1e-9)
    assert np.allclose(apply(relative_transform(c1, c1), pts), pts, atol=1e-9)


def test_relative_transform_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c1 = random_cam(rng, "a")
        c2 = random_cam(rng, "b")
        X_world = rng.uniform(-2, 2, size=(5, 3))
        X1 = X_world @ c1.R.T + c1.t
        X2 = X_world @ c2.R.T + c2.t
        rel = relative_transform(c1, c2)
        assert np.allclose(apply(rel, X1), X2, atol=1e-9)
        back = relative_transform(c2, c1)
        assert np.allclose(apply(back, apply(rel, X1)), X1, atol=1e-9)


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
    X, _ = triangulate_pose(Pose2D([[0.1, 0.05]], "cam1"),
                            Pose2D([[-0.4, 0.05]], "cam2"), cam1, cam2)
    assert np.allclose(X.joints[0], [0.2, 0.1, 2.0], atol=1e-9)


def test_triangulate_rejects_point_behind_cameras():
    # The rays through (0.1, 0.05) and (0.6, 0.05) meet at z = -2, behind
    # both cameras.
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(NonPositiveDepth) as exc:
        triangulate_pose(Pose2D([[0.1, 0.05]], "cam1"),
                         Pose2D([[0.6, 0.05]], "cam2"), cam1, cam2)
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
    assert np.array_equal(p2s.joints, apply(rel, p1s.joints))
    assert np.abs(p2s.joints - X2).max() < 1e-6


def test_triangulate_degenerate_baseline():
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2", t=np.array([0.0, 0.0, 0.0]))
    with pytest.raises(DegenerateGeometry):
        triangulate_pose(Pose2D([[0.1, 0.2]], "cam1"),
                         Pose2D([[0.1, 0.2]], "cam2"), cam1, cam2)


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
    # With pixel noise the triangulated point is the nonlinear
    # reprojection-error minimum (oracle via least squares run to its
    # tolerance floor).
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
        r2 = project(c2, Pose3D(apply(rel, X), "cam2")).joints[0] - u2
        return np.concatenate([r1, r2])

    for _ in range(10):
        X_true = rng.uniform(-300, 300, 3) + np.array([0.0, 0.0, 3000.0])
        u1 = project(c1, Pose3D(X_true.reshape(1, 3), "cam1")).joints[0]
        rel = relative_transform(c1, c2)
        u2 = project(c2, Pose3D(apply(rel, X_true.reshape(1, 3)), "cam2")).joints[0]
        u1n = u1 + rng.normal(0, 2.0, 2)
        u2n = u2 + rng.normal(0, 2.0, 2)
        X_tri = triangulate_pose(Pose2D(u1n[None], "cam1"),
                                 Pose2D(u2n[None], "cam2"), c1, c2)[0].joints[0]
        sol = scipy_opt.least_squares(reproj_resid, X_tri, args=(u1n, u2n),
                                      xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert np.linalg.norm(X_tri - sol.x) < 1e-6  # mm
        assert np.linalg.norm(X_tri - X_true) < 50.0


# ---------------------------------------------------------------------------
# The optimal two-view solve


def noisy_pair(rng, n_joints=12, sigma=5.0):
    """Two random cameras, often on a short baseline, and noisy pixels of
    joints about 4 m in front of the world origin."""
    cams = [random_cam(rng, "cam1"), random_cam(rng, "cam2")]
    X = rng.uniform(-400, 400, size=(n_joints, 3)) + np.array([0, 0, 4000.0])
    u = [project(c, Pose3D(X @ c.R.T + c.t, c.cam_id)).joints
         + rng.normal(0, sigma, (n_joints, 2)) for c in cams]
    return cams, u


def mp_optimum(mpmath, cam1, cam2, u1, u2, X0):
    """The point in cam1's and in cam2's frame that minimizes the summed
    squared pixel reprojection error of (u1, u2): Gauss-Newton in 40
    digits from X0 until its step is below 1e-30 mm."""
    rel = relative_transform(cam1, cam2)
    with mpmath.workdps(40):
        views = [(mpmath.matrix(c.K.tolist()), mpmath.matrix(R.tolist()),
                  mpmath.matrix(t.tolist()), [mpmath.mpf(float(v)) for v in u])
                 for c, R, t, u in ((cam1, np.eye(3), np.zeros(3), u1),
                                    (cam2, rel.R, rel.t, u2))]
        X = mpmath.matrix([mpmath.mpf(float(v)) for v in X0])
        for _ in range(60):
            r, J = [], []
            for K, R, t, u in views:
                h, A = K * (R * X + t), K * R
                for i in range(2):
                    r.append(h[i] / h[2] - u[i])
                    J.append([(A[i, k] * h[2] - h[i] * A[2, k]) / h[2] ** 2
                              for k in range(3)])
            r, J = mpmath.matrix(r), mpmath.matrix(J)
            step = mpmath.lu_solve(J.T * J, J.T * r)
            X -= step
            if mpmath.norm(step) < mpmath.mpf(10) ** -30:
                break
        else:
            raise AssertionError("Gauss-Newton did not settle")
        R, t = views[1][1], views[1][2]
        return (np.array([float(v) for v in X]),
                np.array([float(v) for v in R * X + t]))


def test_triangulation_is_the_reprojection_optimum():
    # Short random baselines turn a pixel error into up to ~100 mm of depth
    # per pixel; both modes' poses stay within 1e-9 mm of the optimum.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    for _ in range(4):
        cams, u = noisy_pair(rng)
        for mode in ("dual", "single"):
            X1, X2, errors = triangulate_stack(u[0][None], u[1][None], *cams,
                                               mode=mode)
            assert errors == [None]
            for j in range(len(u[0])):
                want1, want2 = mp_optimum(mpmath, *cams, u[0][j], u[1][j],
                                          X1[0, j])
                assert np.linalg.norm(X1[0, j] - want1) < 1e-9   # mm
                assert np.linalg.norm(X2[0, j] - want2) < 1e-9   # mm


def test_dual_and_single_modes_agree():
    rng = np.random.default_rng(35)
    for _ in range(10):
        cams, u = noisy_pair(rng, n_joints=17)
        dual = triangulate_stack(u[0][None], u[1][None], *cams, mode="dual")
        single = triangulate_stack(u[0][None], u[1][None], *cams,
                                   mode="single")
        assert dual[2] == single[2] == [None]
        assert np.array_equal(dual[0], single[0])
        assert np.abs(dual[1] - single[1]).max() < 1e-9   # mm


def epipole(cam_a, cam_b):
    """Pixel of cam_b's centre in cam_a's image."""
    rel = relative_transform(cam_b, cam_a)
    h = cam_a.K @ rel.t
    return h[:2] / h[2]


def test_triangulation_of_a_substack_matches_the_full_stack():
    # Noisy synthetic poses on all three pairs of a three-camera rig,
    # triangulated with a miscalibrated copy of it; one sample's joint is
    # moved onto an epipole and another's behind a camera, so failures are
    # stacked too.
    cfg = SyntheticConfig(n_samples=60, seed=31, sigma_px=5.0,
                          perturb_rot_deg=2.0, perturb_trans_mm=20.0)
    samples, _, rig = generate_dataset(
        cfg, cameras=default_rig(n_cameras=3),
        pairs=[("cam1", "cam2"), ("cam1", "cam3"), ("cam2", "cam3")])
    by_id = {c.cam_id: c for c in rig}
    for a, b in [("cam1", "cam2"), ("cam1", "cam3"), ("cam2", "cam3")]:
        batch = [s for s in samples if s.pair == (a, b)]
        u1 = np.stack([s.joints_2d[a] for s in batch])
        u2 = np.stack([s.joints_2d[b] for s in batch])
        u1[3, 5] = epipole(by_id[a], by_id[b])
        behind = np.array([100.0, 50.0, -2000.0])       # in cam a's frame
        rel = relative_transform(by_id[a], by_id[b])
        for u, K, X in ((u1, by_id[a].K, behind),
                        (u2, by_id[b].K, rel.R @ behind + rel.t)):
            u[7, 2] = (K @ X)[:2] / (K @ X)[2]
        for mode in ("dual", "single"):
            X1, X2, errors = triangulate_stack(u1, u2, by_id[a], by_id[b],
                                               mode=mode)
            assert errors[3].joint == 5
            assert isinstance(errors[7], NonPositiveDepth)
            assert errors[7].joint == 2
            for idx in (slice(0, 1), slice(3, 4), slice(5, 17),
                        np.arange(1, len(batch), 3)):
                sub = triangulate_stack(u1[idx], u2[idx], by_id[a], by_id[b],
                                        mode=mode)
                assert np.array_equal(sub[0], X1[idx])
                assert np.array_equal(sub[1], X2[idx])
                assert ([repr(e) for e in sub[2]]
                        == [repr(e) for e in np.array(errors, object)[idx]])


def test_degenerate_joints_are_flagged_by_name():
    # Each degenerate joint is reported with its index, and no guard
    # divides by zero on the way (an error state of "raise" would throw).
    rng = np.random.default_rng(36)
    cams, u = noisy_pair(rng, n_joints=4, sigma=0.0)
    with np.errstate(all="raise"):
        for mode in ("dual", "single"):
            # A detection at its view's epipole sees the other camera's
            # centre: the point is on the baseline, at depth 0 in the other
            # view. At both epipoles the correction is undefined.
            for at_both in (False, True):
                u1, u2 = u[0].copy(), u[1].copy()
                u1[2] = epipole(cams[0], cams[1])
                if at_both:
                    u2[2] = epipole(cams[1], cams[0])
                _, _, errors = triangulate_stack(u1[None], u2[None], *cams,
                                                 mode=mode)
                assert isinstance(errors[0], DegenerateGeometry if at_both
                                  else NonPositiveDepth)
                assert errors[0].joint == 2
            # A point at infinity: both views see one world direction, and
            # the rays, parallel up to rounding, meet at no finite depth.
            u1, u2 = u[0].copy(), u[1].copy()
            for pixels, cam in ((u1, cams[0]), (u2, cams[1])):
                h = cam.K @ cam.R @ np.array([0.3, -0.2, 1.0])
                pixels[1] = h[:2] / h[2]
            _, _, errors = triangulate_stack(u1[None], u2[None], *cams,
                                             mode=mode)
            assert isinstance(errors[0], DegenerateGeometry)
            assert errors[0].joint == 1
            assert "parallel" in str(errors[0])
            # Rays through the same normalized point of two cameras with
            # one orientation are exactly parallel.
            cam1 = make_cam("cam1")
            cam2 = make_cam("cam2", t=np.array([-1.0, 0.0, 0.0]))
            u1 = np.array([[0.1, 0.05], [-0.3, 0.2], [0.4, -0.1]])
            u2 = u1 - np.array([[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]])
            with pytest.raises(DegenerateGeometry,
                               match="joint 0: corrected rays are parallel"):
                triangulate_pose(Pose2D(u1, "cam1"), Pose2D(u2, "cam2"),
                                 cam1, cam2, mode=mode)
            # Two cameras in one place: every sample is degenerate.
            _, _, errors = triangulate_stack(
                np.stack([u1, u1]), np.stack([u1, u1]), cam1,
                make_cam("cam2", R=rot_y(10.0)), mode=mode)
            assert [str(e) for e in errors] == [
                "camera baseline is numerically zero"] * 2


def test_a_nan_never_passes_as_a_solved_joint():
    # Detections of 1e200 px and beyond overflow the correction; such
    # joints are flagged, and every sample reported solved is finite.
    rng = np.random.default_rng(37)
    cams, u = noisy_pair(rng, n_joints=6)
    u1 = np.repeat(u[0][None], 6, axis=0)
    u2 = np.repeat(u[1][None], 6, axis=0)
    for n, scale in enumerate((1.0, 1e150, 1e200, 1e250, 1e300, 1e305)):
        u1[n, n % 6] *= scale
        u2[n, (n + 1) % 6] *= scale
    with np.errstate(all="ignore"):
        X1, X2, errors = triangulate_stack(u1, u2, *cams)
    assert errors[0] is None
    assert all(isinstance(e, DegenerateGeometry) for e in errors[2:])
    for n, err in enumerate(errors):
        if err is None:
            assert np.isfinite(X1[n]).all() and np.isfinite(X2[n]).all()


@pytest.mark.parametrize("scale", [1e-150, 1e-8, 1e8, 1e150])
def test_triangulation_takes_badly_scaled_pixels(scale):
    # Focal lengths, principal points and detections all scaled alike: the
    # conditioned coordinates do not change, so neither do the poses, and
    # nothing overflows, underflows or divides by zero.
    rng = np.random.default_rng(38)
    cams, u = noisy_pair(rng, n_joints=17)
    X1, X2, errors = triangulate_stack(u[0][None], u[1][None], *cams)
    scaled = [make_cam(c.cam_id, K=np.diag([scale, scale, 1.0]) @ c.K,
                       R=c.R, t=c.t) for c in cams]
    with np.errstate(all="raise"):
        Y1, Y2, errs = triangulate_stack(u[0][None] * scale,
                                         u[1][None] * scale, *scaled)
    assert errors == errs == [None]
    assert np.abs(Y1 - X1).max() < 1e-9 and np.abs(Y2 - X2).max() < 1e-9


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
        aligned = procrustes_align_stack(P, G)
        assert np.abs(aligned - G).max() < 1e-8 * max(1.0, np.abs(G).max())


def test_procrustes_beats_random_transforms():
    # Closed form must not lose to any of 2000 random similarity transforms.
    rng = np.random.default_rng(32)
    for _ in range(5):
        G = rng.uniform(-100, 100, size=(10, 3))
        P = rng.uniform(-100, 100, size=(10, 3))
        best = procrustes_align_stack(P, G)
        best_err = np.linalg.norm(best - G)
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
            aligned = procrustes_align_stack(P, G)
            assert np.abs(aligned - G).max() < 1e-8 * max(1.0, np.abs(G).max())


def test_procrustes_no_reflection():
    rng = np.random.default_rng(33)
    for _ in range(200):
        G = rng.uniform(-1, 1, size=(5, 3))
        P = rng.uniform(-1, 1, size=(5, 3))
        a = procrustes_align_stack(P, G)
        # Recover the implied linear map from centred P to centred aligned.
        P0 = P - P.mean(0)
        A0 = a - a.mean(0)
        M, *_ = np.linalg.lstsq(P0, A0, rcond=None)
        det = np.linalg.det(M)
        assert det >= -1e-9  # similarity with non-negative determinant


def test_procrustes_degenerate_cases():
    G = np.tile([1.0, 2.0, 3.0], (5, 1))
    P = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    with pytest.raises(DegenerateCloud):
        procrustes_align_stack(P, G)
    # Collapsed prediction aligns to gt centroid with scale 0.
    G2 = np.random.default_rng(1).uniform(-1, 1, (5, 3))
    out = procrustes_align_stack(np.tile([4.0, 4.0, 4.0], (5, 1)), G2)
    assert np.allclose(out, G2.mean(0))


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


@pytest.mark.parametrize("width, height", [
    (10.9, 10), (10, True), (10.0, 10), ("10", 10), (10, None), (False, 10)],
    ids=["fraction", "true", "float", "string", "null", "false"])
def test_rig_image_size_must_be_a_json_integer(tmp_path, width, height):
    path = tmp_path / "rig.jsonl"
    path.write_text(json.dumps({"schema": "rig-v1"}) + "\n" + json.dumps(
        {"id": "a", "K": np.eye(3).reshape(-1).tolist(),
         "R": np.eye(3).reshape(-1).tolist(), "t": [0, 0, 0],
         "width": width, "height": height}) + "\n")
    key = "width" if type(width) is not int else "height"
    with pytest.raises(SchemaError, match=f"line 2: {key} must be a JSON "
                                          f"integer") as exc:
        load_rig(path)
    assert exc.value.line == 2


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


@pytest.mark.parametrize("entries", [
    {(1, 2): 1e200}, {(1, 2): -1e200}, {(1, 2): 1e155},
    # Column 0 . column 1 is inf - inf: the deviation is nan.
    {(0, 0): 1e200, (1, 0): 1e200, (0, 1): 1e200, (1, 1): -1e200}])
def test_rig_refuses_an_overflowing_rotation_entry(tmp_path, entries):
    # R^T R of an R holding 1e200 overflows; numpy warned on the way to the
    # refusal, and under warnings-as-errors the reader raised RuntimeWarning,
    # not SchemaError.
    R = np.eye(3)
    for ij, value in entries.items():
        R[ij] = value
    path = tmp_path / "rig.jsonl"
    path.write_text(json.dumps({"schema": "rig-v1"}) + "\n" + json.dumps(
        {"id": "a", "K": np.eye(3).reshape(-1).tolist(),
         "R": R.reshape(-1).tolist(), "t": [0, 0, 0],
         "width": 10, "height": 10}) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="line 2: camera 'a' R is not "
                                              "orthonormal") as exc:
            load_rig(path)
    assert exc.value.line == 2


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


def test_rig_record_must_be_an_object(tmp_path):
    path = tmp_path / "rig.jsonl"
    path.write_text(json.dumps({"schema": "rig-v1"}) + "\n[]\n")
    with pytest.raises(SchemaError, match="line 2: .*JSON object") as exc:
        load_rig(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("header, fields, line, message", [
    ({}, {"id": 7}, 2, "id must be a JSON string, got 7"),
    ({}, {"K": [str(x) for x in np.eye(3).reshape(-1)]}, 2,
     "K must be a list of finite JSON numbers"),
    ({}, {"R": [1, 0, 0, 0, 1, 0, 0, 0, True]}, 2,
     "R must be a list of finite JSON numbers"),
    ({}, {"t": [True, False, 0]}, 2,
     "t must be a list of finite JSON numbers"),
    ({}, {"skew": 0.0}, 2, "unknown key 'skew'"),
    ({"units": "mm"}, {}, 1, "unknown key 'units'"),
], ids=["int-id", "string-K", "bool-R", "bool-t", "record-key",
        "header-key"])
def test_rig_refuses_what_save_rig_never_writes(tmp_path, header, fields,
                                                line, message):
    # Each of these loaded: the id as "7", strings and booleans in K, R
    # and t as numbers, and unknown keys were ignored.
    rec = {"id": "a", "K": np.eye(3).reshape(-1).tolist(),
           "R": np.eye(3).reshape(-1).tolist(), "t": [0, 0, 0],
           "width": 10, "height": 10, **fields}
    path = tmp_path / "rig.jsonl"
    path.write_text(json.dumps({"schema": "rig-v1", **header}) + "\n"
                    + json.dumps(rec) + "\n")
    with pytest.raises(SchemaError, match=f"^line {line}: {message}") as exc:
        load_rig(path)
    assert exc.value.line == line


@pytest.mark.parametrize("field, value", [("width", None), ("t", {"a": 1})])
def test_rig_rejects_wrongly_typed_field(tmp_path, field, value):
    rec = {"id": "a", "K": np.eye(3).reshape(-1).tolist(),
           "R": np.eye(3).reshape(-1).tolist(), "t": [0, 0, 0],
           "width": 10, "height": 10, field: value}
    path = tmp_path / "rig.jsonl"
    path.write_text(json.dumps({"schema": "rig-v1"}) + "\n"
                    + json.dumps(rec) + "\n")
    with pytest.raises(SchemaError, match="line 2: ") as exc:
        load_rig(path)
    assert exc.value.line == 2
