"""Topology, kernel classes, coarsening levels."""

import numpy as np
import pytest

from cvpose.errors import SchemaError, ShapeMismatch
from cvpose.geometry import Pose3D
from cvpose.graph import (
    AdjacencyKernelSet,
    SkeletonTopology,
    bone_vectors,
    build_graph_levels,
    build_multi_view_kernels,
    build_single_view_kernels,
    default_pool_groups,
    default_topology,
    load_topology,
    normalize_adjacency,
    save_topology,
    topology_fingerprint,
)


def tree_distances(topo):
    """All-pairs distances on the undirected kinematic tree (BFS oracle)."""
    J = topo.n_joints
    adj = [[] for _ in range(J)]
    for p, c in topo.bones:
        adj[p].append(c)
        adj[c].append(p)
    dist = np.full((J, J), -1, dtype=int)
    for s in range(J):
        dist[s, s] = 0
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for v in adj[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = dist[s, u] + 1
                        nxt.append(v)
            queue = nxt
    return dist


def is_connected(A):
    n = A.shape[0]
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for v in np.nonzero(A[u] > 0)[0]:
            if int(v) not in seen:
                seen.add(int(v))
                queue.append(int(v))
    return len(seen) == n


def test_default_topology_shape():
    topo = default_topology()
    assert topo.n_joints == 17
    assert topo.n_bones == 16
    assert topo.root == 0
    assert topo.joint_names[0] == "pelvis"
    # Each non-root joint contributes exactly one bone, ordered by child.
    children = [c for _, c in topo.bones]
    assert children == sorted(children)
    # Mirror is an involution pairing 6 left bones with 6 right bones.
    assert len(topo.mirror_bone) == 12
    assert len(topo.left_bones()) == 6


def test_topology_validation():
    with pytest.raises(ValueError):
        SkeletonTopology(("a", "b"), (0, 0, 1), ())
    with pytest.raises(ValueError):  # two roots
        SkeletonTopology(("a", "b", "c"), (0, 1, 0), ())
    with pytest.raises(ValueError):  # cycle
        SkeletonTopology(("a", "b", "c"), (0, 2, 1), ())
    with pytest.raises(ValueError):  # self pair
        SkeletonTopology(("a", "b", "c"), (0, 0, 0), ((1, 1),))
    with pytest.raises(ValueError):  # duplicate membership
        SkeletonTopology(("a", "b", "c", "d"), (0, 0, 0, 0), ((1, 2), (2, 3)))


def test_normalize_adjacency():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    N = normalize_adjacency(A)
    # Degrees 1, 2, 1: off-diagonals become 1/sqrt(2).
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(N, [[0, r, 0], [r, 0, r], [0, r, 0]])
    # Zero-degree row stays zero.
    Z = np.zeros((2, 2))
    assert np.array_equal(normalize_adjacency(Z), Z)


def test_single_view_kernels_disjoint_and_complete():
    topo = default_topology()
    ks = build_single_view_kernels(topo)
    dist = tree_distances(topo)
    J = topo.n_joints
    k0, k1, k2, k3, k4 = ks.kernels
    assert np.array_equal(k0, np.eye(J))
    assert np.array_equal(k1, (dist == 1).astype(float))
    # Left/right pairs claim their edges even when two hops apart.
    for l, r in topo.left_right_pairs:
        assert k3[l, r] == 1.0 and k3[r, l] == 1.0
        assert k2[l, r] == 0.0
    # Remaining distance-2 pairs land in the second-order kernel.
    mirror = set()
    for l, r in topo.left_right_pairs:
        mirror.add((l, r))
        mirror.add((r, l))
    for a in range(J):
        for b in range(J):
            if a == b:
                continue
            expect = 1.0 if dist[a, b] == 2 and (a, b) not in mirror else 0.0
            assert k2[a, b] == expect
    assert not k4.any()
    # Hip pair is two hops through the pelvis yet classified symmetric.
    assert dist[1, 4] == 2 and k3[1, 4] == 1.0


def test_kernel_set_rejects_overlap_and_asymmetry():
    eye = np.eye(3)
    zero = np.zeros((3, 3))
    with pytest.raises(ValueError):
        AdjacencyKernelSet(3, [eye, eye, zero, zero, zero])
    bad = zero.copy()
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        AdjacencyKernelSet(3, [eye, bad, zero, zero, zero])


def test_multi_view_kernels():
    topo = default_topology()
    single = build_single_view_kernels(topo)
    multi = build_multi_view_kernels(topo)
    J = topo.n_joints
    assert multi.n_nodes == 2 * J
    for k in range(4):
        assert np.array_equal(multi.kernels[k][:J, :J], single.kernels[k])
        assert np.array_equal(multi.kernels[k][J:, J:], single.kernels[k])
        assert not multi.kernels[k][:J, J:].any()
    k4 = multi.kernels[4]
    assert np.array_equal(k4[:J, J:], np.eye(J))
    assert not k4[:J, :J].any()
    # Cross-view rows have degree 1: normalization keeps the unit weight.
    assert np.array_equal(multi.normalized[4], k4)


def test_graph_levels_structure():
    topo = default_topology()
    gl = build_graph_levels(topo)
    assert [ks.n_nodes for ks in gl.levels] == [34, 12, 2]
    assert gl.group_names == ("torso", "head", "left_arm", "right_arm",
                              "left_leg", "right_leg")
    # Torso links to every other group; arms and legs mirror each other.
    k1 = gl.levels[1].kernels[1]
    torso = 0
    for g in range(1, 6):
        assert k1[torso, g] == 1.0
    k3 = gl.levels[1].kernels[3]
    assert k3[2, 3] == 1.0 and k3[4, 5] == 1.0
    assert k3[0, 1] == 0.0
    # Level 2 has only self and cross-view relations.
    assert np.array_equal(gl.levels[2].kernels[4], [[0.0, 1.0], [1.0, 0.0]])
    for k in (1, 2, 3):
        assert not gl.levels[2].kernels[k].any()
    # Union of kernels is connected at every level.
    for ks in gl.levels:
        union = sum(ks.kernels[1:]) + ks.kernels[0]
        assert is_connected(union)


def test_graph_levels_pooling_operators():
    topo = default_topology()
    gl = build_graph_levels(topo)
    P0, P1 = gl.pool
    U0, U1 = gl.unpool
    assert P0.shape == (12, 34) and U0.shape == (34, 12)
    assert P1.shape == (2, 12) and U1.shape == (12, 2)
    # Mean pooling: rows sum to one, entries are 1/|group|.
    assert np.allclose(P0.sum(axis=1), 1.0)
    assert np.allclose(P1.sum(axis=1), 1.0)
    # Unpool copies: each fine node reads exactly one group.
    assert np.array_equal(U0.sum(axis=1), np.ones(34))
    # Groups never mix views.
    for v, rows in ((0, slice(0, 17)), (1, slice(17, 34))):
        cols = P0[:, rows].sum(axis=1)
        active = np.nonzero(cols)[0]
        assert np.all((active >= v * 6) & (active < (v + 1) * 6))
    # Pool of a constant field is the same constant; unpool inverts it.
    x = np.ones((34, 3)) * 2.5
    assert np.allclose(P0 @ x, 2.5)
    assert np.allclose(U0 @ (P0 @ x), x)
    # Mean over the torso group of view 2.
    feat = np.zeros((34, 1))
    feat[17 + 0] = 3.0   # pelvis, view 2
    feat[17 + 7] = 6.0   # spine
    feat[17 + 8] = 0.0   # thorax
    pooled = P0 @ feat
    assert pooled[6, 0] == pytest.approx(3.0)


def test_graph_levels_custom_groups():
    topo = SkeletonTopology(("r", "a", "b"), (0, 0, 0), ())
    gl = build_graph_levels(topo, groups=[("one", (0, 1)), ("two", (2,))])
    assert gl.levels[1].n_nodes == 4
    with pytest.raises(ValueError):
        build_graph_levels(topo, groups=[("one", (0, 1)), ("two", (1, 2))])
    with pytest.raises(ValueError):
        build_graph_levels(topo)  # no default groups for custom topologies


def test_default_pool_groups_partition():
    topo = default_topology()
    groups = default_pool_groups(topo)
    seen = sorted(j for _, js in groups for j in js)
    assert seen == list(range(17))


def test_bone_vectors():
    topo = default_topology()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(17, 3))
    vecs = bone_vectors(Pose3D(X, "f"), topo)
    assert vecs.shape == (16, 3)
    for k, (p, c) in enumerate(topo.bones):
        assert np.array_equal(vecs[k], X[p] - X[c])
    with pytest.raises(ShapeMismatch):
        bone_vectors(Pose3D(X[:5], "f"), topo)


def test_topology_file_roundtrip(tmp_path):
    topo = default_topology()
    path = tmp_path / "topo.jsonl"
    save_topology(path, topo)
    loaded = load_topology(path)
    assert loaded.joint_names == topo.joint_names
    assert loaded.parents == topo.parents
    assert loaded.left_right_pairs == topo.left_right_pairs
    assert topology_fingerprint(loaded) == topology_fingerprint(topo)


def test_topology_file_errors(tmp_path):
    path = tmp_path / "topo.jsonl"
    path.write_text('{"schema": "topo-v1"}\n{"joints": ["a"]}\n')
    with pytest.raises(SchemaError) as exc:
        load_topology(path)
    assert exc.value.line == 2
    path.write_text('{"schema": "nope"}\n{}\n')
    with pytest.raises(SchemaError):
        load_topology(path)
    path.write_text('{"schema": "topo-v1"}\nnot json\n')
    with pytest.raises(SchemaError):
        load_topology(path)


def test_fingerprint_sensitivity():
    a = default_topology()
    fp = topology_fingerprint(a)
    # Stable across pair order.
    b = SkeletonTopology(a.joint_names, a.parents,
                         tuple(reversed(a.left_right_pairs)))
    assert topology_fingerprint(b) == fp
    # Sensitive to structure.
    c = SkeletonTopology(a.joint_names, a.parents, a.left_right_pairs[:-1])
    assert topology_fingerprint(c) != fp
    names = list(a.joint_names)
    names[3] = "renamed"
    d = SkeletonTopology(tuple(names), a.parents, a.left_right_pairs)
    assert topology_fingerprint(d) != fp
