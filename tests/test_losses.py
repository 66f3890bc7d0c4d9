"""Hand-computed loss values, invariances, batching, gradients."""

import math

import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose import losses
from cvpose.errors import NonPositiveDepth, ShapeMismatch
from cvpose.geometry import CameraModel, RigidTransform
from cvpose.graph import SkeletonTopology, default_topology
from cvpose.losses import (
    bone_direction_loss,
    reprojection_loss,
    symmetry_loss,
    total_loss,
    transform_consistency_loss,
)

from gradcheck import grad_check


def make_cam(cam_id="cam1", f=1000.0, c=500.0):
    K = np.array([[f, 0.0, c], [0.0, f, c], [0.0, 0.0, 1.0]])
    return CameraModel(cam_id, K, np.eye(3), np.zeros(3), 1000, 1000)


def rot_y(deg):
    a = math.radians(deg)
    cc, ss = math.cos(a), math.sin(a)
    return np.array([[cc, 0.0, ss], [0.0, 1.0, 0.0], [-ss, 0.0, cc]])


def two_joint_topo():
    return SkeletonTopology(("root", "tip"), (0, 0), ())


def three_joint_lr_topo():
    return SkeletonTopology(("root", "l", "r"), (0, 0, 0), ((1, 2),))


def leafpair(x1, x2):
    tape = ad.Tape()
    return tape.leaf(x1), tape.leaf(x2)


def test_reprojection_345():
    cam = make_cam()
    X1 = np.array([[100.0, 0.0, 2000.0]])   # projects to (550, 500)
    y1 = np.array([[553.0, 504.0]])         # off by a 3-4-5 triangle
    X2 = np.array([[0.0, 0.0, 1000.0]])     # projects to (500, 500), exact
    y2 = np.array([[500.0, 500.0]])
    a, b = leafpair(X1, X2)
    loss = reprojection_loss(a, b, y1, y2, cam, make_cam("cam2"))
    assert loss.data[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_reprojection_rejects_bad_depth_and_shape():
    cam = make_cam()
    a, b = leafpair(np.array([[0.0, 0.0, -5.0]]), np.array([[0.0, 0.0, 10.0]]))
    with pytest.raises(NonPositiveDepth):
        reprojection_loss(a, b, np.zeros((1, 2)), np.zeros((1, 2)), cam, cam)
    a, b = leafpair(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        reprojection_loss(a, b, np.zeros((1, 2)), np.zeros((2, 2)), cam, cam)


def test_symmetry_hand_value():
    topo = three_joint_lr_topo()
    X = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    a, b = leafpair(X, X)
    loss = symmetry_loss(a, b, topo)
    # |3 - 4| per view, two views.
    assert loss.data[0, 0] == pytest.approx(2.0, abs=1e-12)
    # A perfectly symmetric pose scores zero.
    Xs = np.array([[0.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    a, b = leafpair(Xs, Xs)
    assert symmetry_loss(a, b, topo).data[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_symmetry_default_topology_pairs_six_bones():
    topo = default_topology()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(17, 3))
    a, b = leafpair(X, X)
    val = symmetry_loss(a, b, topo).data[0, 0]
    # Oracle: direct numpy computation over the six left/right bone pairs.
    lengths = {}
    for k, (p, c) in enumerate(topo.bones):
        lengths[k] = np.linalg.norm(X[p] - X[c])
    expect = sum(abs(lengths[k] - lengths[topo.mirror_bone[k]])
                 for k in topo.left_bones())
    assert val == pytest.approx(2.0 * expect, rel=1e-12)


def test_transform_consistency_offset_example():
    topo = default_topology()
    rng = np.random.default_rng(1)
    X = rng.normal(size=(17, 3)) * 100.0
    t12 = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
    # X2 expressed such that carrying it into view 1 lands 1 mm away.
    a, b = leafpair(X, X)
    loss = transform_consistency_loss(a, b, t12)
    assert loss.data[0, 0] == pytest.approx(34.0, abs=1e-9)
    del topo


def test_transform_consistency_zero_when_consistent():
    rng = np.random.default_rng(2)
    t12 = RigidTransform(rot_y(33.0), np.array([10.0, -4.0, 2.0]))
    X1 = rng.normal(size=(17, 3)) * 100.0
    X2 = (X1 - t12.t) @ t12.R
    a, b = leafpair(X1, X2)
    loss = transform_consistency_loss(a, b, t12)
    assert loss.data[0, 0] < 1e-9


def test_bone_direction_hand_value():
    topo = two_joint_topo()
    t12 = RigidTransform(np.eye(3), np.zeros(3))
    X1 = np.array([[0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])   # bone (3, 0, 0)
    X2 = np.array([[0.0, 0.0, 0.0], [-3.0, -4.0, 0.0]])  # bone (3, 4, 0)
    a, b = leafpair(X1, X2)
    loss = bone_direction_loss(a, b, t12, topo)
    # cos = 9 / (3 * 5) = 0.6 in both directions.
    assert loss.data[0, 0] == pytest.approx(0.8, abs=1e-12)
    # Aligned bones score zero.
    a, b = leafpair(X1, X1 * 2.0)
    assert bone_direction_loss(a, b, t12, topo).data[0, 0] == pytest.approx(
        0.0, abs=1e-12)


def test_bone_direction_zero_length_bone_is_neutral():
    topo = two_joint_topo()
    t12 = RigidTransform(np.eye(3), np.zeros(3))
    X1 = np.array([[0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]])
    X2 = np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])    # collapsed bone
    a, b = leafpair(X1, X2)
    loss = bone_direction_loss(a, b, t12, topo)
    assert loss.data[0, 0] == pytest.approx(0.0, abs=1e-12)
    # And its gradient is finite (zero), not NaN.
    tape = a.tape
    tape.backward(loss)
    assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))


def test_bone_direction_invariant_to_translation():
    topo = default_topology()
    rng = np.random.default_rng(3)
    t12 = RigidTransform(rot_y(20.0), np.array([5.0, 6.0, 7.0]))
    X1 = rng.normal(size=(17, 3)) * 50.0
    X2 = rng.normal(size=(17, 3)) * 50.0
    a, b = leafpair(X1, X2)
    v1 = bone_direction_loss(a, b, t12, topo).data[0, 0]
    a, b = leafpair(X1 + np.array([100.0, 0.0, 0.0]), X2)
    v2 = bone_direction_loss(a, b, t12, topo).data[0, 0]
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_total_loss_weighting(monkeypatch):
    topo = default_topology()
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2")
    t12 = RigidTransform(rot_y(10.0), np.array([50.0, 0.0, 0.0]))
    rng = np.random.default_rng(4)
    X1 = rng.uniform(-200, 200, (17, 3)) + np.array([0, 0, 3000.0])
    X2 = rng.uniform(-200, 200, (17, 3)) + np.array([0, 0, 3000.0])
    y1 = rng.uniform(0, 1000, (17, 2))
    y2 = rng.uniform(0, 1000, (17, 2))
    a, b = leafpair(X1, X2)
    total, parts = total_loss(a, b, y1, y2, cam1, cam2, t12, topo)
    expect = (parts["reproj"].data[0, 0] + parts["sym"].data[0, 0]
              + parts["transform"].data[0, 0] + 0.1 * parts["bonedir"].data[0, 0])
    assert total.data[0, 0] == pytest.approx(expect, abs=1e-12)
    # Each term takes its own weight from the table.
    a, b = leafpair(X1, X2)
    monkeypatch.setattr(losses, "LOSS_WEIGHTS", {
        "reproj": 0.5, "sym": 2.0, "transform": 0.0, "bonedir": 1.0})
    total2, parts2 = total_loss(a, b, y1, y2, cam1, cam2, t12, topo)
    expect2 = (0.5 * parts2["reproj"].data[0, 0] + 2.0 * parts2["sym"].data[0, 0]
               + parts2["bonedir"].data[0, 0])
    assert total2.data[0, 0] == pytest.approx(expect2, abs=1e-12)


def test_batched_equals_sum_of_singles():
    topo = default_topology()
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2")
    t12 = RigidTransform(rot_y(25.0), np.array([100.0, 10.0, -5.0]))
    rng = np.random.default_rng(5)
    B, J = 3, 17
    X1 = rng.uniform(-200, 200, (B * J, 3)) + np.array([0, 0, 3000.0])
    X2 = rng.uniform(-200, 200, (B * J, 3)) + np.array([0, 0, 3000.0])
    y1 = rng.uniform(0, 1000, (B * J, 2))
    y2 = rng.uniform(0, 1000, (B * J, 2))
    a, b = leafpair(X1, X2)
    batch_total, batch_parts = total_loss(a, b, y1, y2, cam1, cam2, t12, topo)
    singles = {k: 0.0 for k in batch_parts}
    acc = 0.0
    for s in range(B):
        sl = slice(s * J, (s + 1) * J)
        a, b = leafpair(X1[sl], X2[sl])
        tot, parts = total_loss(a, b, y1[sl], y2[sl], cam1, cam2, t12, topo)
        acc += tot.data[0, 0]
        for k in parts:
            singles[k] += parts[k].data[0, 0]
    assert batch_total.data[0, 0] == pytest.approx(acc, rel=1e-12)
    for k in singles:
        assert batch_parts[k].data[0, 0] == pytest.approx(singles[k], rel=1e-12)


def test_loss_gradients_finite_differences():
    topo = default_topology()
    cam1 = make_cam("cam1")
    cam2 = make_cam("cam2")
    t12 = RigidTransform(rot_y(15.0), np.array([30.0, -20.0, 10.0]))
    rng = np.random.default_rng(6)
    X1 = rng.uniform(-200, 200, (17, 3)) + np.array([0, 0, 3000.0])
    X2 = rng.uniform(-200, 200, (17, 3)) + np.array([0, 0, 3000.0])
    y1 = rng.uniform(0, 1000, (17, 2))
    y2 = rng.uniform(0, 1000, (17, 2))

    builds = {
        "reproj": lambda t, p: reprojection_loss(p[0], p[1], y1, y2, cam1, cam2),
        "sym": lambda t, p: symmetry_loss(p[0], p[1], topo),
        "transform": lambda t, p: transform_consistency_loss(p[0], p[1], t12),
        "bonedir": lambda t, p: bone_direction_loss(p[0], p[1], t12, topo),
        "total": lambda t, p: total_loss(p[0], p[1], y1, y2, cam1, cam2, t12,
                                         topo)[0],
    }
    for name, build in builds.items():
        report = grad_check(build, [X1, X2], n_samples=10, tol=1e-4, rng=7)
        assert report.ok, f"{name}: max rel err {report.max_rel_err:.2e}"


def test_total_loss_records_44_nodes_and_no_row_gathers():
    # Bone vectors and left-minus-right differences are constant per-pose
    # matrices, and each cross-view term runs in one direction. The four
    # weighted terms are summed by three adds.
    topo = default_topology()
    rng = np.random.default_rng(8)
    B, J = 3, topo.n_joints
    X1 = rng.uniform(-200, 200, (B * J, 3)) + np.array([0, 0, 3000.0])
    X2 = rng.uniform(-200, 200, (B * J, 3)) + np.array([0, 0, 3000.0])
    y = rng.uniform(0, 1000, (B * J, 2))
    a, b = leafpair(X1, X2)
    before = len(a.tape)
    total_loss(a, b, y, y, make_cam("cam1"), make_cam("cam2"),
               RigidTransform(rot_y(30.0), np.array([80.0, 0.0, 5.0])), topo)
    ops = [v.op for v in a.tape.nodes[before:]]
    assert "gather_rows" not in ops
    assert len(ops) == 44


# The two-direction formulations the cross-view terms reduce to: each view
# against the other carried over by t12 or its inverse, bones gathered row
# by row. The functions under test double one direction instead.

def gathered_bones(X, topo):
    starts = np.arange(X.shape[0] // topo.n_joints)[:, None] * topo.n_joints
    parent, child = np.asarray(topo.bones).T
    return ad.sub(ad.gather_rows(X, (starts + parent).ravel()),
                  ad.gather_rows(X, (starts + child).ravel()))


def inverse(t):
    return RigidTransform(t.R.T, -t.R.T @ t.t)


def two_way_transform_loss(X1, X2, t12):
    total = None
    for a, b, t in ((X1, X2, t12), (X2, X1, inverse(t12))):
        carried = ad.affine_rows(b, t.R.T, t.t)
        term = ad.reduce_sum(ad.norm_rows(ad.sub(a, carried)))
        total = term if total is None else ad.add(total, term)
    return total


def two_way_bone_direction_loss(X1, X2, t12, topo):
    total = None
    for a, b, t in ((X1, X2, t12), (X2, X1, inverse(t12))):
        carried = ad.affine_rows(b, t.R.T, t.t)
        cos = ad.row_cosine(gathered_bones(a, topo),
                            gathered_bones(carried, topo))
        term = ad.reduce_sum(ad.sub(a.tape.leaf(np.ones(cos.shape)), cos))
        total = term if total is None else ad.add(total, term)
    return total


def random_rigid(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidTransform(q, rng.uniform(-500.0, 500.0, 3))


@pytest.mark.parametrize("seed", range(5))
def test_one_way_cross_view_terms_match_two_way_reference(seed):
    topo = default_topology()
    rng = np.random.default_rng(seed)
    t12 = random_rigid(rng)
    B, J = 4, topo.n_joints
    X1 = rng.uniform(-300, 300, (B * J, 3)) + np.array([0, 0, 3000.0])
    X2 = rng.uniform(-300, 300, (B * J, 3)) + np.array([0, 0, 3000.0])
    X2[J + 5] = X2[J + 4]           # sample 1's bone (4, 5) has zero length
    pairs = (
        (lambda p, q: transform_consistency_loss(p, q, t12),
         lambda p, q: two_way_transform_loss(p, q, t12)),
        (lambda p, q: bone_direction_loss(p, q, t12, topo),
         lambda p, q: two_way_bone_direction_loss(p, q, t12, topo)),
    )
    for new, reference in pairs:
        results = []
        for build in (new, reference):
            a, b = leafpair(X1, X2)
            loss = build(a, b)
            a.tape.backward(loss)
            results.append((loss.data[0, 0], a.grad, b.grad))
        (v, g1, g2), (v_ref, g1_ref, g2_ref) = results
        assert v == pytest.approx(v_ref, rel=1e-12)
        for g, g_ref in ((g1, g1_ref), (g2, g2_ref)):
            np.testing.assert_allclose(g, g_ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(g_ref).max())
