"""Skeleton topology and the adjacency kernels used by graph convolutions.

Nodes are joints; five disjoint kernel classes split the neighbourhood by
relation: 0 self, 1 kinematic link, 2 two hops apart in the kinematic tree,
3 left/right counterpart, 4 same node in the other view. Multi-view node
order is view-major: all joints of view 1 first, then view 2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingField, SchemaError, ShapeMismatch
from .geometry import Pose3D
from .jsonl import read_records


@dataclass
class SkeletonTopology:
    """Kinematic tree with left/right labelling.

    parents[i] is the parent joint index; the single root has parents[i] == i.
    left_right_pairs lists (left, right) joint index pairs; joints absent
    from the list are central. Bones are derived (parent, child) pairs
    ordered by child index.
    """

    joint_names: tuple
    parents: tuple
    left_right_pairs: tuple

    n_joints: int = field(init=False)
    root: int = field(init=False)
    bones: tuple = field(init=False)
    mirror_joint: dict = field(init=False)
    mirror_bone: dict = field(init=False)

    def __post_init__(self):
        self.joint_names = tuple(str(n) for n in self.joint_names)
        self.parents = tuple(int(p) for p in self.parents)
        self.left_right_pairs = tuple((int(l), int(r)) for l, r in self.left_right_pairs)
        J = len(self.joint_names)
        self.n_joints = J
        if len(set(self.joint_names)) != J:
            raise ValueError("duplicate joint names")
        if len(self.parents) != J:
            raise ValueError("parents length does not match joint count")
        roots = [i for i, p in enumerate(self.parents) if p == i]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]
        for j, p in enumerate(self.parents):
            if not 0 <= p < J:
                raise ValueError(f"joint {j}: parent {p} out of range")
        # Cycle check: every chain must reach the root within J steps.
        for j in range(J):
            k = j
            for _ in range(J):
                if k == self.root:
                    break
                k = self.parents[k]
            else:
                raise ValueError(f"joint {j} never reaches the root (cycle)")
        self.bones = tuple((self.parents[j], j) for j in range(J) if j != self.root)

        mirror = {}
        for l, r in self.left_right_pairs:
            if l == r:
                raise ValueError(f"left/right pair maps joint {l} to itself")
            if l in mirror or r in mirror:
                raise ValueError(f"joint in more than one left/right pair: ({l},{r})")
            mirror[l] = r
            mirror[r] = l
        self.mirror_joint = mirror

        # A bone mirrors to the bone whose child is the mirrored child.
        child_to_bone = {child: k for k, (_, child) in enumerate(self.bones)}
        self.mirror_bone = {}
        for k, (_, child) in enumerate(self.bones):
            m = mirror.get(child)
            if m is not None:
                if m not in child_to_bone:
                    raise ValueError(f"bone to joint {child} has no mirrored bone")
                self.mirror_bone[k] = child_to_bone[m]
        for k, m in self.mirror_bone.items():
            if self.mirror_bone.get(m) != k:
                raise ValueError("bone mirror is not an involution")

    @property
    def n_bones(self):
        return len(self.bones)

    def left_bones(self):
        """Indices of bones whose child joint is a left joint."""
        left = {l for l, _ in self.left_right_pairs}
        return tuple(k for k, (_, child) in enumerate(self.bones) if child in left)

    def kinematic_adjacency(self):
        A = np.zeros((self.n_joints, self.n_joints))
        for p, c in self.bones:
            A[p, c] = 1.0
            A[c, p] = 1.0
        return A


def default_topology() -> SkeletonTopology:
    """17-joint human skeleton (pelvis-rooted, torso chain, two arms, two legs)."""
    names = (
        "pelvis", "right_hip", "right_knee", "right_ankle",
        "left_hip", "left_knee", "left_ankle",
        "spine", "thorax", "neck", "head",
        "left_shoulder", "left_elbow", "left_wrist",
        "right_shoulder", "right_elbow", "right_wrist",
    )
    parents = (0, 0, 1, 2, 0, 4, 5, 0, 7, 8, 9, 8, 11, 12, 8, 14, 15)
    pairs = ((4, 1), (5, 2), (6, 3), (11, 14), (12, 15), (13, 16))
    return SkeletonTopology(names, parents, pairs)


# ---------------------------------------------------------------------------
# Kernel construction.


def normalize_adjacency(A):
    """Symmetric degree normalization D^{-1/2} A D^{-1/2}.

    Zero-degree rows stay all-zero instead of dividing by zero.
    """
    d = A.sum(axis=1)
    inv = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    return inv[:, None] * A * inv[None, :]


@dataclass
class AdjacencyKernelSet:
    """Raw and degree-normalized 0/1 kernels over one node set."""

    n_nodes: int
    kernels: list          # five (n, n) arrays with entries in {0, 1}
    normalized: list = field(init=False)

    def __post_init__(self):
        if len(self.kernels) != 5:
            raise ValueError("expected five kernels")
        for k, A in enumerate(self.kernels):
            if A.shape != (self.n_nodes, self.n_nodes):
                raise ShapeMismatch(f"kernel {k}: shape {A.shape}")
            if not np.array_equal(A, A.T):
                raise ValueError(f"kernel {k} is not symmetric")
        for a in range(5):
            for b in range(a + 1, 5):
                if np.any(self.kernels[a] * self.kernels[b]):
                    raise ValueError(f"kernels {a} and {b} overlap")
        self.normalized = [normalize_adjacency(A) for A in self.kernels]


def _pairs_to_matrix(n, pairs):
    A = np.zeros((n, n))
    for a, b in pairs:
        A[a, b] = 1.0
        A[b, a] = 1.0
    return A


def _second_order_pairs(adjacency):
    """Unordered node pairs at tree distance exactly two."""
    A = adjacency
    two = (A @ A > 0.5) & (A < 0.5)
    np.fill_diagonal(two, False)
    idx = np.argwhere(two)
    return [(int(a), int(b)) for a, b in idx if a < b]


def build_single_view_kernels(topo: SkeletonTopology) -> AdjacencyKernelSet:
    """Kernels over one view's joints; the cross-view kernel is all zero."""
    J = topo.n_joints
    k0 = np.eye(J)
    k1 = topo.kinematic_adjacency()
    k3 = _pairs_to_matrix(J, topo.left_right_pairs)
    k3 = np.where(k1 > 0.5, 0.0, k3)  # kinematic relation wins
    k2 = _pairs_to_matrix(J, _second_order_pairs(k1))
    k2 = np.where((k1 > 0.5) | (k3 > 0.5), 0.0, k2)  # symmetry wins over two-hop
    k4 = np.zeros((J, J))
    return AdjacencyKernelSet(J, [k0, k1, k2, k3, k4])


def build_multi_view_kernels(topo: SkeletonTopology) -> AdjacencyKernelSet:
    """Kernels over both views' joints stacked view-major."""
    return _two_view(build_single_view_kernels(topo).kernels, topo.n_joints)


# ---------------------------------------------------------------------------
# Coarsening levels for the U-shaped network.


def default_pool_groups(topo: SkeletonTopology):
    """Body-part grouping used by the first pooling stage.

    Defined for the default 17-joint skeleton; custom topologies must pass
    their own groups to build_graph_levels.
    """
    expected = default_topology()
    if (topo.joint_names != expected.joint_names
            or topo.parents != expected.parents):
        raise ValueError("no default pooling groups for a custom topology")
    return [
        ("torso", (0, 7, 8)),
        ("head", (9, 10)),
        ("left_arm", (11, 12, 13)),
        ("right_arm", (14, 15, 16)),
        ("left_leg", (4, 5, 6)),
        ("right_leg", (1, 2, 3)),
    ]


def _group_kernels(topo, groups):
    """Kernel set over per-view group nodes, derived from the joint graph."""
    G = len(groups)
    member = {}
    for g, (_, joints) in enumerate(groups):
        for j in joints:
            if j in member:
                raise ValueError(f"joint {j} in more than one group")
            member[j] = g
    if len(member) != topo.n_joints:
        raise ValueError("groups must partition the joints")

    k1_pairs = set()
    for p, c in topo.bones:
        a, b = member[p], member[c]
        if a != b:
            k1_pairs.add((min(a, b), max(a, b)))
    k3_pairs = set()
    for g, (_, joints) in enumerate(groups):
        image = {topo.mirror_joint.get(j, j) for j in joints}
        for h, (_, other) in enumerate(groups):
            if h != g and image == set(other):
                k3_pairs.add((min(g, h), max(g, h)))
    k0 = np.eye(G)
    k1 = _pairs_to_matrix(G, k1_pairs)
    k3 = _pairs_to_matrix(G, k3_pairs)
    k3 = np.where(k1 > 0.5, 0.0, k3)
    k2 = _pairs_to_matrix(G, _second_order_pairs(k1))
    k2 = np.where((k1 > 0.5) | (k3 > 0.5), 0.0, k2)
    return [k0, k1, k2, k3], member


def _two_view(kernels_single, n):
    """Block-diagonal duplication plus the cross-view identity kernel."""
    out = []
    for A in kernels_single[:4]:
        B = np.zeros((2 * n, 2 * n))
        B[:n, :n] = A
        B[n:, n:] = A
        out.append(B)
    k4 = np.zeros((2 * n, 2 * n))
    for i in range(n):
        k4[i, n + i] = 1.0
        k4[n + i, i] = 1.0
    out.append(k4)
    return AdjacencyKernelSet(2 * n, out)


@dataclass
class GraphLevels:
    """Three graph resolutions plus mean-pool / copy-unpool operators.

    levels[0] covers both views' joints (2J nodes), levels[1] both views'
    body-part groups, levels[2] one node per view. pool[i] maps level i to
    i+1 by group mean; unpool[i] copies a group value back to its members.
    """

    levels: list
    pool: list
    unpool: list
    group_names: tuple


def _mean_pool(membership, n_coarse):
    """(coarse, fine) operator averaging each coarse node's members."""
    P = np.zeros((n_coarse, membership.shape[0]))
    for i, g in enumerate(membership):
        P[g, i] = 1.0
    return P / P.sum(axis=1, keepdims=True)


def _unpool(membership, n_coarse):
    """(fine, coarse) operator copying each coarse value to its members."""
    U = np.zeros((membership.shape[0], n_coarse))
    for i, g in enumerate(membership):
        U[i, g] = 1.0
    return U


def build_graph_levels(topo: SkeletonTopology, groups=None) -> GraphLevels:
    if groups is None:
        groups = default_pool_groups(topo)
    J = topo.n_joints
    G = len(groups)
    level0 = build_multi_view_kernels(topo)
    group_kernels, member = _group_kernels(topo, groups)
    level1 = _two_view(group_kernels, G)
    # Level 2: one node per view, linked only through the cross-view kernel.
    level2 = _two_view([np.eye(1)] + [np.zeros((1, 1))] * 3, 1)

    m01 = np.zeros(2 * J, dtype=np.int64)
    for v in range(2):
        for j in range(J):
            m01[v * J + j] = v * G + member[j]
    m12 = np.zeros(2 * G, dtype=np.int64)
    m12[G:] = 1

    return GraphLevels(
        levels=[level0, level1, level2],
        pool=[_mean_pool(m01, 2 * G), _mean_pool(m12, 2)],
        unpool=[_unpool(m01, 2 * G), _unpool(m12, 2)],
        group_names=tuple(name for name, _ in groups),
    )


# ---------------------------------------------------------------------------
# Bone vectors.


def bone_vectors(pose: Pose3D, topo: SkeletonTopology):
    """Per-bone vectors X[parent] - X[child], shape (n_bones, 3)."""
    X = pose.joints
    if X.shape[0] != topo.n_joints:
        raise ShapeMismatch(
            f"pose has {X.shape[0]} joints, topology has {topo.n_joints}")
    idx = np.asarray(topo.bones, dtype=np.int64)
    return X[idx[:, 0]] - X[idx[:, 1]]


# ---------------------------------------------------------------------------
# Topology files and fingerprints.

TOPO_SCHEMA = "topo-v1"


def save_topology(path, topo: SkeletonTopology):
    lines = [
        json.dumps({"schema": TOPO_SCHEMA}),
        json.dumps({
            "joints": list(topo.joint_names),
            "parents": list(topo.parents),
            "left_right_pairs": [list(p) for p in topo.left_right_pairs],
        }),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path) -> SkeletonTopology:
    _, _, records = read_records(path, TOPO_SCHEMA, "topology")
    first = next(records, None)
    if first is None:
        raise SchemaError("topology file needs a header and a body", line=1)
    lineno, body = first
    for key in ("joints", "parents", "left_right_pairs"):
        if key not in body:
            raise MissingField(f"line {lineno}: topology lacks {key!r}", line=lineno)
    try:
        return SkeletonTopology(
            joint_names=tuple(body["joints"]),
            parents=tuple(body["parents"]),
            left_right_pairs=tuple(tuple(p) for p in body["left_right_pairs"]),
        )
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"line {lineno}: {exc}", line=lineno)


def topology_fingerprint(topo: SkeletonTopology) -> str:
    """sha256 over a canonical serialization, for checkpoint compatibility."""
    canon = json.dumps({
        "joints": list(topo.joint_names),
        "parents": list(topo.parents),
        "left_right_pairs": sorted([sorted(p) for p in topo.left_right_pairs]),
    }, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()
