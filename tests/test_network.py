"""Refiner wiring: init, identity property, batching, masks, checkpoints."""

import gc
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose import network, training
from cvpose.errors import SchemaError, ShapeMismatch
from cvpose.geometry import Pose3D
from cvpose.graph import default_topology
from cvpose.syndata import SyntheticConfig, generate_dataset
from cvpose.network import (
    CVUGCN,
    Checkpoint,
    ModelWeights,
    N_KERNELS,
    NetworkConfig,
    init_weights,
    load_checkpoint,
    save_checkpoint,
    weight_shapes,
)

from gradcheck import grad_check


def small_config(**kw):
    base = dict(channels=8, init_seed=0)
    base.update(kw)
    return NetworkConfig(**base)


def rand_coarse(rng, B, J=17):
    x = rng.uniform(-400, 400, size=(B * J, 3))
    x[:, 2] += 3000.0
    return x


def test_param_count_default():
    # 2 spatial units (3->128, 128->128) over the 4 classes of their graph,
    # which has no cross-view class; four U-stages of 128->128 convs over
    # all five; the bottleneck over classes 0 and 4, all its coarsest graph
    # keeps; the 128->3 head.
    topo, cfg = default_topology(), NetworkConfig()
    expect = (4 * (3 * 128) + 4 * (128 * 128) + 4 * 5 * (128 * 128)
              + 2 * (128 * 128) + 128 * 3)
    shapes = weight_shapes(cfg, network.unit_classes(topo))
    assert len(shapes) == 8
    assert sum(r * c for _, (r, c) in shapes) == expect == 427904
    assert CVUGCN(topo, cfg).param_count == expect


def test_param_count_is_the_weights_the_forward_reads():
    # Only the kernel classes a conv keeps are stored and read: the spatial
    # convs have no cross-view class and the bottleneck's coarsest graph
    # keeps only classes 0 and 4, so even the full model reads 30 of the 35
    # (unit, class) blocks (and the head); a masked class is read by no
    # conv.
    topo, cfg = default_topology(), NetworkConfig()
    counts = [CVUGCN(topo, cfg, kernel_mask=mask).param_count
              for mask in ((), (1, 2, 3), (4,))]
    assert counts == [427904, 180992, 345984]


def test_init_weights_deterministic_and_bounded():
    cfg = small_config()
    classes = network.unit_classes(default_topology())
    a = init_weights(cfg, classes)
    b = init_weights(cfg, classes)
    for (na, wa), (nb, wb) in zip(a.items(), b.items()):
        assert na == nb
        assert np.array_equal(wa, wb)
    c = init_weights(small_config(init_seed=1), classes)
    assert any(not np.array_equal(wa, wc) for (_, wa), (_, wc)
               in zip(a.items(), c.items()) if wa.size)
    assert np.array_equal(a["head"], np.zeros((8, 3)))
    for name, shape in weight_shapes(cfg, classes):
        arr = a[name]
        assert arr.shape == shape
        if name != "head":
            bound = np.sqrt(1.0 / (N_KERNELS * shape[0]))
            assert np.abs(arr).max() <= bound
            assert np.abs(arr).max() > 0.5 * bound


# Weight shapes at C=8: each unit's panel spans the kernel classes its conv
# keeps, 8 columns per class.
FULL_SHAPES = {"sgcn.0": (3, 32), "sgcn.1": (8, 32), "mgcn.enc0.0": (8, 40),
               "mgcn.enc1.0": (8, 40), "mgcn.bottleneck.0": (8, 16),
               "mgcn.dec1.0": (8, 40), "mgcn.dec0.0": (8, 40), "head": (8, 3)}
# (variant, kernel mask, weight shapes, param_count)
WEIGHT_INVENTORY = [
    ("full", (), FULL_SHAPES, 1784),
    ("no_refine", (), FULL_SHAPES, 1784),
    ("no_spatial", (1, 2, 3), {
        "sgcn.0": (3, 8), "sgcn.1": (8, 8), "mgcn.enc0.0": (8, 16),
        "mgcn.enc1.0": (8, 16), "mgcn.bottleneck.0": (8, 16),
        "mgcn.dec1.0": (8, 16), "mgcn.dec0.0": (8, 16), "head": (8, 3)}, 752),
    ("no_crossview", (4,), {
        "sgcn.0": (3, 32), "sgcn.1": (8, 32), "mgcn.enc0.0": (8, 32),
        "mgcn.enc1.0": (8, 32), "mgcn.bottleneck.0": (8, 8),
        "mgcn.dec1.0": (8, 32), "mgcn.dec0.0": (8, 32), "head": (8, 3)}, 1464),
]


@pytest.mark.parametrize("variant, mask, shapes, count", WEIGHT_INVENTORY,
                         ids=[row[0] for row in WEIGHT_INVENTORY])
def test_each_variant_stores_one_panel_per_unit(variant, mask, shapes, count):
    # One weight per graph-conv unit, over only the kernel classes its conv
    # reads, and the head: no array the forward does not read is stored,
    # stepped or saved.
    from cvpose.experiments import build_variant
    model = build_variant(variant, default_topology(), small_config())
    assert model.kernel_mask == frozenset(mask)
    assert {n: a.shape for n, a in model.weights.items()} == shapes
    assert list(model.weights.arrays) == list(shapes)
    assert model.param_count == count == sum(
        a.size for _, a in model.weights.items())


# A C=8 checkpoint of the state below: 1,784 weights and their m, v and
# vhat, 8 bytes each (57,088 bytes), after the four header lines and 32
# array lines.
CKPT_C8_BYTES = 58169


def test_c8_checkpoint_holds_the_stored_weights_and_their_state(tmp_path):
    topo, cfg = default_topology(), small_config()
    model = CVUGCN(topo, cfg)
    opt = training.AmsGrad({k: v.shape for k, v in model.weights.items()})
    path = tmp_path / "c8.ckpt"
    save_checkpoint(path, topo, cfg, model.weights, opt.state(),
                    {"loss_history": [1.0, 0.5, 0.25, 0.125]})
    assert path.stat().st_size == CKPT_C8_BYTES


@pytest.mark.parametrize("mask", [(), (1, 2, 3), (4,)])
def test_init_draws_five_classes_per_unit_and_keeps_the_ones_read(mask):
    # The stream of one (C_in, C) draw per kernel class of each unit, all
    # five, in unit and class order: a unit's panel holds the draws of the
    # classes its conv reads and an unread class's draw is dropped, so a
    # read weight has the same initial value under every mask.
    cfg = small_config(init_seed=3)
    model = CVUGCN(default_topology(), cfg, kernel_mask=mask)
    rng = np.random.default_rng(3)
    for unit, ks in model._classes.items():
        fan_in = 3 if unit == "sgcn.0" else 8
        bound = np.sqrt(1.0 / (N_KERNELS * fan_in))
        draws = [rng.uniform(-bound, bound, size=(fan_in, 8))
                 for _ in range(N_KERNELS)]
        assert np.array_equal(model.weights[unit],
                              np.hstack([draws[k] for k in ks])), unit


def test_given_weights_must_be_the_models_own():
    topo, cfg = default_topology(), small_config()
    own = CVUGCN(topo, cfg).weights
    masked = CVUGCN(topo, cfg, kernel_mask={4}).weights
    renamed = ModelWeights({("sgcn.0.k0" if n == "sgcn.0" else n): a
                            for n, a in own.items()})
    short = ModelWeights({n: a for n, a in own.items() if n != "head"})
    for weights, got, want in (
            (masked, ("mgcn.enc0.0", (8, 32)), ("mgcn.enc0.0", (8, 40))),
            (renamed, ("sgcn.0.k0", (3, 32)), ("sgcn.0", (3, 32))),
            (short, None, ("head", (8, 3)))):
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"weights: got {got}, the model stores {want}")):
            CVUGCN(topo, cfg, weights=weights)
    assert CVUGCN(topo, cfg, weights=own).weights is own


def test_identity_at_init():
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    rng = np.random.default_rng(0)
    p1 = Pose3D(rand_coarse(rng, 1), "cam1")
    p2 = Pose3D(rand_coarse(rng, 1), "cam2")
    r1, r2 = model.refine(p1, p2)
    assert np.array_equal(r1.joints, p1.joints)
    assert np.array_equal(r2.joints, p2.joints)
    assert r1.frame_id == "cam1" and r2.frame_id == "cam2"


def test_refine_frees_its_forward_without_the_cyclic_collector():
    # A tape and its nodes reference each other: unless refine releases its
    # tape, every array of the forward waits for the cyclic collector, and
    # a caller refining frame after frame holds many forwards at once.
    model = CVUGCN(default_topology(), small_config())
    rng = np.random.default_rng(4)
    p1 = Pose3D(rand_coarse(rng, 1), "cam1")
    p2 = Pose3D(rand_coarse(rng, 1), "cam2")

    def tape_objects():
        return sum(isinstance(o, (ad.Tape, ad.Value))
                   for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = tape_objects()
        model.refine(p1, p2)
        after = tape_objects()
    finally:
        gc.enable()
    assert after == before


@pytest.mark.parametrize("B", [1, 7, 64])
def test_forward_only_tape_refines_with_a_recording_tapes_bits(B):
    # At B=64 the 2BJ = 2176 rows of the last unit, which holds the head,
    # span several tiles, so it casts and multiplies its float32 input a
    # tile at a time. A forward-only tape keeps no node, the weight and
    # input leaves included.
    model = CVUGCN(default_topology(), small_config())
    rng = np.random.default_rng(9)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    x1, x2 = rand_coarse(rng, B), rand_coarse(rng, B)
    recording = ad.Tape(conv_dtype=network.CONV_DTYPE)
    expect = model.refine_batch(recording, x1, x2)[:2]
    assert len(recording) > 0
    tape = ad.Tape(conv_dtype=network.CONV_DTYPE, record=False)
    got = model.refine_batch(tape, x1, x2)[:2]
    assert len(tape) == 0
    for X, Y in zip(got, expect):
        assert X.data.dtype == Y.data.dtype == np.float64
        assert np.array_equal(X.data, Y.data)
    assert np.abs(got[0].data - x1).max() > 1.0   # the residual is not trivial


def test_nonzero_head_changes_output():
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    model.weights.arrays["head"] = np.full((8, 3), 0.05)
    rng = np.random.default_rng(1)
    p1 = Pose3D(rand_coarse(rng, 1), "cam1")
    p2 = Pose3D(rand_coarse(rng, 1), "cam2")
    r1, _ = model.refine(p1, p2)
    assert not np.array_equal(r1.joints, p1.joints)


def test_batch_matches_single():
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    rng = np.random.default_rng(2)
    for name in model.weights.arrays:
        if name != "head":
            continue
        model.weights.arrays[name] = rng.normal(0, 0.05, size=(8, 3))
    B, J = 3, 17
    x1 = rand_coarse(rng, B)
    x2 = rand_coarse(rng, B)
    # refine opens a CONV_DTYPE tape; compare like with like, in mm.
    tape = ad.Tape(conv_dtype=network.CONV_DTYPE)
    X1, X2, _ = model.refine_batch(tape, x1, x2)
    assert X1.shape == (B * J, 3) and X2.shape == (B * J, 3)
    for s in range(B):
        r1, r2 = model.refine(Pose3D(x1[s * J:(s + 1) * J], "cam1"),
                              Pose3D(x2[s * J:(s + 1) * J], "cam2"))
        assert np.allclose(X1.data[s * J:(s + 1) * J], r1.joints,
                           rtol=0, atol=1e-9)
        assert np.allclose(X2.data[s * J:(s + 1) * J], r2.joints,
                           rtol=0, atol=1e-9)


@pytest.mark.parametrize("channels", [32, 128])
def test_single_frame_refine_matches_batched_rows_exactly(channels):
    # Both sides run the float32 graph conv; a batch-size dependence of the
    # float32 products would show here at about 1e-5 mm, far above 1e-9.
    # At the default width, 128, a GEMM as deep as K*C = 640 (mixing the
    # kernels before the weights) rounds one frame differently from a
    # batch by about 1e-4 mm; at 32 that depth, 160, hides it.
    topo = default_topology()
    cfg = small_config(channels=channels)
    model = CVUGCN(topo, cfg)
    rng = np.random.default_rng(5)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(channels, 3))
    B, J = 8, 17
    x1 = rand_coarse(rng, B)
    x2 = rand_coarse(rng, B)
    X1, X2, _ = model.refine_batch(ad.Tape(conv_dtype=network.CONV_DTYPE),
                                   x1, x2)
    assert np.abs(X1.data - x1).max() > 1.0   # the residual is not trivial
    for s in range(B):
        rows = slice(s * J, (s + 1) * J)
        r1, r2 = model.refine(Pose3D(x1[rows], "cam1"),
                              Pose3D(x2[rows], "cam2"))
        assert np.abs(r1.joints - X1.data[rows]).max() <= 1e-9
        assert np.abs(r2.joints - X2.data[rows]).max() <= 1e-9


def test_refining_callers_open_float32_tapes(monkeypatch):
    # Training, evaluation and refine must multiply in float32, and the
    # finite-difference check in float64; a plain Tape() in any of them
    # would silently lose the speed or the exactness. Only training and the
    # finite-difference check sweep their tapes; evaluation, the validation
    # loss and refine must open forward-only ones, or they would silently
    # keep every node of their forwards for a sweep that never comes.
    from cvpose import metrics, training
    from cvpose.syndata import SyntheticConfig, generate_dataset

    opened = []

    class RecordingTape(ad.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.conv_nodes = 0
            opened.append(self)

        def _record(self, data, op, backward=None):
            self.conv_nodes += op in ("lift_residual_graph_conv",
                                      "residual_graph_conv",
                                      "residual_graph_conv_head")
            return super()._record(data, op, backward)

    monkeypatch.setattr(ad, "Tape", RecordingTape)
    F32, F64 = np.dtype(np.float32), np.dtype(np.float64)

    def conv_dtypes(run):
        """{(conv_dtype, record)} of the tapes run opened that saw a
        graph conv."""
        opened.clear()
        run()
        kinds = {(t.conv_dtype, t.record) for t in opened if t.conv_nodes}
        assert kinds, "no tape recorded a graph_conv"
        return kinds

    samples, _, rig = generate_dataset(SyntheticConfig(n_samples=6, seed=1))
    topo = default_topology()
    tcfg = training.TrainConfig(epochs=1, batch_size=4, channels=8)
    model = CVUGCN(topo, tcfg.network())
    coarse, _ = training.precompute_coarse(samples, rig)
    opt = training.AmsGrad({k: v.shape for k, v in model.weights.items()})
    assert conv_dtypes(lambda: training.train_epoch(
        samples, coarse, rig, model, opt, 1e-3, tcfg, 0)) == {(F32, True)}
    assert conv_dtypes(lambda: metrics.evaluate(
        samples, rig, model, topo, batch_size=4)) == {(F32, False)}
    assert conv_dtypes(lambda: training.eval_loss(
        samples, coarse, rig, model, tcfg)) == {(F32, False)}
    x = rand_coarse(np.random.default_rng(0), 1)
    assert conv_dtypes(lambda: model.refine(Pose3D(x, "cam1"),
                                            Pose3D(x, "cam2"))) == {
        (F32, False)}

    def build(tape, leaves):
        X1, X2 = model.refine_from_leaf(leaves[0], model.param_leaves(tape))
        return ad.reduce_sum(ad.add(ad.norm_rows(X1), ad.norm_rows(X2)))

    assert conv_dtypes(lambda: grad_check(
        build, [np.vstack([x, x])], n_samples=1)) == {(F64, True)}
    # The 3 -> C lift and the spatial residual unit in one node, then one
    # residual unit per U-stage, the last one with the head.
    assert opened[0].conv_nodes == 6


def test_forward_gradients_against_finite_differences():
    topo = default_topology()
    cfg = small_config()
    model = CVUGCN(topo, cfg)
    rng = np.random.default_rng(3)
    # Perturb the head so the residual path carries gradient.
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    x1 = rand_coarse(rng, 1)
    x2 = rand_coarse(rng, 1)
    xin = np.vstack([x1, x2])
    names = list(model.weights.arrays)
    arrays = [model.weights[n] for n in names]

    def build(tape, leaves):
        params = dict(zip(names, leaves[:-1]))
        X1, X2 = model.refine_from_leaf(leaves[-1], params)
        return ad.reduce_sum(ad.add(ad.norm_rows(X1), ad.norm_rows(X2)))

    report = grad_check(build, arrays + [xin], n_samples=3, tol=1e-4, rng=0)
    assert report.ok, f"max rel err {report.max_rel_err:.2e}"


def test_two_channel_network_refines_and_backpropagates():
    # channels may be as small as 1; at C=2 the lift narrows 3 -> 2 and
    # still mixes first. Both tapes refine, agree to float32 rounding, and
    # hand every weight a finite gradient.
    model = CVUGCN(default_topology(), small_config(channels=2))
    rng = np.random.default_rng(41)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(2, 3))
    x1, x2 = rand_coarse(rng, 3), rand_coarse(rng, 3)
    refined = []
    for conv_dtype in (np.float64, network.CONV_DTYPE):
        tape = ad.Tape(conv_dtype=conv_dtype)
        X1, X2, params = model.refine_batch(tape, x1, x2)
        refined.append(np.vstack([X1.data, X2.data]))
        tape.backward(ad.reduce_sum(ad.add(ad.norm_rows(X1),
                                           ad.norm_rows(X2))))
        for name, leaf in params.items():
            assert np.isfinite(leaf.grad).all(), name
        # The lift's panel block of class 1, the kinematic kernel.
        assert np.abs(params["sgcn.0"].grad[:, 2:4]).max() > 0
        tape.release()
    assert np.abs(refined[0] - np.vstack([x1, x2])).max() > 1e-3
    assert np.abs(refined[1] - refined[0]).max() <= 0.01


def test_input_gradients_at_mm_scale_over_every_coordinate():
    # The coarse input sits near 3000 mm and the loss near 1e5: a step that
    # does not scale with the coordinate leaves mostly round-off in the
    # central difference. Every one of the 102 input coordinates must pass.
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    rng = np.random.default_rng(3)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    xin = np.vstack([rand_coarse(rng, 1), rand_coarse(rng, 1)])

    def build(tape, leaves):
        X1, X2 = model.refine_from_leaf(leaves[0], model.param_leaves(tape))
        return ad.reduce_sum(ad.add(ad.norm_rows(X1), ad.norm_rows(X2)))

    report = grad_check(build, [xin], n_samples=xin.size, tol=1e-4, rng=0)
    assert len(report.rows) == 102
    assert report.ok, (f"max rel err {report.max_rel_err:.2e} at "
                       f"{[r.index for r in report.failures()]}")


def test_batched_gradients_against_finite_differences():
    # B = 2 in the per-sample block layout of coarse_pair_leaf: a kernel or
    # pooling operator applied to the wrong block shows here, not at B = 1.
    topo = default_topology()
    B, J = 2, topo.n_joints
    model = CVUGCN(topo, small_config())
    rng = np.random.default_rng(9)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    xin = network.coarse_pair_leaf(ad.Tape(), rand_coarse(rng, B),
                                   rand_coarse(rng, B), J).data
    names = list(model.weights.arrays)
    # Rows weigh unequally, so swapped blocks would change the loss.
    row_w = np.linspace(0.5, 2.0, B * J).reshape(1, -1)

    def loss(xin_leaf, params):
        X1, X2 = model.refine_from_leaf(xin_leaf, params)
        return ad.reduce_sum(ad.add(
            ad.block_left_matmul(row_w, ad.norm_rows(X1)),
            ad.block_left_matmul(row_w, ad.norm_rows(X2))))

    report = grad_check(
        lambda t, p: loss(p[-1], dict(zip(names, p[:-1]))),
        [model.weights[n] for n in names] + [xin], n_samples=3, rng=0)
    assert report.ok, f"weights: max rel err {report.max_rel_err:.2e}"
    # The input is in mm around 3000: grad_check's step scales with it.
    report = grad_check(
        lambda t, p: loss(p[0], model.param_leaves(t)), [xin],
        n_samples=12, rng=0)
    assert report.ok, f"input: max rel err {report.max_rel_err:.2e}"
    assert {r.index[0] // (2 * J) for r in report.rows} == {0, 1}


def test_split_views_takes_each_views_rows():
    # Each 2J-row block is one sample's J view-1 rows, then its J view-2
    # rows; the backward puts each view's gradient back on its own rows.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2 * 2 * 3, 4))   # B=2 samples of J=3 joints
    tape = ad.Tape()
    X = tape.leaf(a)
    X1, X2 = network.split_views(X, 3)
    assert np.array_equal(X1.data, np.vstack([a[0:3], a[6:9]]))
    assert np.array_equal(X2.data, np.vstack([a[3:6], a[9:12]]))
    tape.backward(ad.reduce_sum(ad.add(ad.scale(X1, 2.0), X2)))
    assert np.array_equal(X.grad, np.repeat([[2.0], [1.0], [2.0], [1.0]],
                                            3, axis=0) * np.ones((1, 4)))


def test_default_forward_records_one_node_per_conv():
    cfg = NetworkConfig()
    model = CVUGCN(default_topology(), cfg)
    rng = np.random.default_rng(10)
    tape = ad.Tape()
    model.refine_batch(tape, rand_coarse(rng, 2), rand_coarse(rng, 2))
    ops = [v.op for v in tape.nodes]
    # The 3 -> C lift and the spatial residual unit after it are one
    # lift_residual_graph_conv node; every later width-preserving unit is
    # one residual_graph_conv node, with no relu or add of its own; each
    # decoder unpool and its skip add are one node; the last unit and the
    # C -> 3 head are one residual_graph_conv_head node.
    assert ops.count("lift_residual_graph_conv") == 1
    # One residual unit per U-stage.
    assert ops.count("residual_graph_conv") + ops.count(
        "residual_graph_conv_head") == len(network.STAGES) == 5
    assert ops.count("residual_graph_conv_head") == 1
    assert ops.count("block_left_matmul_add") == 2
    assert ops.count("block_left_matmul") == 3   # centring, two pools
    assert "relu" not in ops and "graph_conv" not in ops
    assert "graph_conv_relu" not in ops
    assert len(ops) == 25   # with 8 weight leaves
    assert ops.count("add") == 1   # the residual onto the coarse pose
    assert "add_n" not in ops and "matmul" not in ops


def test_float32_tape_keeps_the_trunk_in_float32():
    # On a CONV_DTYPE tape every Value from the 3 -> C lift to the head is
    # float32; the last unit, with the head folded in, hands back float64,
    # so the refined views, the loss and every weight gradient are float64.
    # A plain Tape() stays float64 throughout.
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    rng = np.random.default_rng(8)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    x1, x2 = rand_coarse(rng, 2), rand_coarse(rng, 2)
    F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
    for conv_dtype in (network.CONV_DTYPE, np.float64):
        tape = ad.Tape(conv_dtype=conv_dtype)
        X1, X2, params = model.refine_batch(tape, x1, x2)
        loss = ad.reduce_sum(ad.add(ad.norm_rows(X1), ad.norm_rows(X2)))
        nodes = list(tape.nodes)
        ops = [v.op for v in nodes]
        lift = ops.index("lift_residual_graph_conv")
        head = ops.index("residual_graph_conv_head")
        trunk = nodes[lift:head]
        assert {v.op for v in trunk} == {
            "lift_residual_graph_conv", "residual_graph_conv",
            "block_left_matmul",        # pools
            "block_left_matmul_add"}    # unpools with their skip adds
        trunk_dtype = F32 if conv_dtype == network.CONV_DTYPE else F64
        # The decoder joins have consumed the encoder's and the inner
        # decoder's outputs, whose Values keep their dtype, not their data.
        assert {v.dtype for v in trunk} == {trunk_dtype}
        assert trunk[0].grad.dtype == trunk_dtype   # grads follow the data
        assert {v.data.dtype for v in nodes[:lift] + nodes[head:]} == {F64}
        assert X1.data.dtype == X2.data.dtype == loss.data.dtype == F64
        tape.backward(loss)
        assert {v.grad.dtype for v in params.values()} == {F64}
        assert np.abs(params["sgcn.0"].grad[:, 8:16]).max() > 0
        tape.release()


# sha256 of a C=8 model's refined views and its weight gradients, recorded
# when the graph conv still chose its product order by width and kept a
# tiled path without a residual, and the model stored one (C_in, C) weight
# per kernel class of each unit, all five classes. The gradients are hashed
# in that layout (_per_class_grads). Any rewrite of the convolutions must
# keep these bits, or record why it moves them. Re-recorded when the head
# was folded into the last unit (residual_graph_conv_head), which
# re-associates its products: on float64 the views moved by at most
# 4.6e-13 mm and the gradients by 1.0e-15 of their largest entry; on
# float32, where the fold multiplies in float64 instead of rounding the
# unit's result to float32, by 3.4e-6 mm and 3.2e-7.
NETWORK_DIGESTS = {
    ("float64", 1): (
        "84c4d89a90ff2f6aa899da1efc941af594b1de6ea14f3d41b291141de40a9b84"),
    ("float64", 7): (
        "fb095997f897d26aa3c94ed07cc5f23ebff1cafcc81ae266e8457da59d6a814c"),
    ("float32", 1): (
        "4d3ae20722e0923b2796544ddbe79321d4b3afc6925e88fefdc67987ee95e203"),
    ("float32", 7): (
        "1ba4be9391b78f218acb1b878ccfc04e64f8cbcbfae6aa24e9e2071cf48fa064"),
}


def _per_class_grads(model, params):
    """The weight gradients as one (C_in, C) array per kernel class of each
    unit, in class order, zero for a class the unit's conv does not read,
    then the head's."""
    grads = []
    for unit, ks in model._classes.items():
        blocks = np.split(params[unit].grad, len(ks), axis=1)
        grads += [blocks[ks.index(k)] if k in ks else np.zeros_like(blocks[0])
                  for k in range(N_KERNELS)]
    return grads + [params["head"].grad]


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("conv_dtype", ["float64", "float32"])
def test_forward_and_gradients_match_their_recorded_digest(monkeypatch,
                                                           conv_dtype, B):
    # TILE_ROWS = 340 splits the fused graph's residual units (n = 34
    # nodes, K = 5 kernels) into tiles of 2 samples: B=7 spans 4 tiles, the
    # last one short, and the other resolutions tile differently.
    monkeypatch.setattr(ad, "TILE_ROWS", 340)
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    stack = model._stacks["mgcn.enc0.0"]
    per_tile = ad.TILE_ROWS // stack.K // stack.n
    if B > 1:
        tiles = -(-B // per_tile)
        assert tiles >= 3 and B % tiles, "no ragged last tile"
    rng = np.random.default_rng(40)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    x1, x2 = rand_coarse(rng, B), rand_coarse(rng, B)
    tape = ad.Tape(conv_dtype=np.dtype(conv_dtype))
    X1, X2, params = model.refine_batch(tape, x1, x2)
    tape.backward(ad.reduce_sum(ad.add(ad.norm_rows(X1), ad.norm_rows(X2))))
    digest = hashlib.sha256()
    for arr in [X1.data, X2.data] + _per_class_grads(model, params):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == NETWORK_DIGESTS[conv_dtype, B]


def _tape_units(conv_dtype, B, C=32):
    """(forward, sweep, params) for one refine_batch and its backward on a
    conv_dtype tape, in units of one (2BJ, C) float64 array, by
    tracemalloc: what the forward leaves on the tape, and how far the
    backward sweep rises above that."""
    topo = default_topology()
    J = topo.n_joints
    model = CVUGCN(topo, small_config(channels=C))
    rng = np.random.default_rng(0)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(C, 3))
    x1, x2 = rand_coarse(rng, B), rand_coarse(rng, B)
    unit = 2 * B * J * C * 8
    tape = ad.Tape(conv_dtype=conv_dtype)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        X1, X2, params = model.refine_batch(tape, x1, x2)
        loss = ad.reduce_sum(ad.add(ad.norm_rows(X1), ad.norm_rows(X2)))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (held - base) / unit, (peak - held) / unit, params


def test_forward_and_backward_memory_stay_bounded():
    # Deterministic memory guard, in units of one (2BJ, C) float64 array:
    # what a forward leaves on the tape, and how far the backward sweep
    # rises above that. A tape that kept the relu, conv and add of every
    # residual unit held 19.8 units, and a sweep that kept each node until
    # release() added 20.0. The forward held 12.0 while the lift kept its
    # pre-relu output and mask and the decoder its unpool products, 9.6
    # while the lift kept its mixed input and each weight leaf was a copy
    # of its weight, and 7.4 while the lift's result and the outputs that
    # the decoder joins consume stayed on the tape; now it holds 4.6 and
    # the sweep adds 3.7 (3.9 while each relu mask was a bool array, cast
    # as it multiplied a gradient). With the head folded into the last
    # unit, d0 is never formed: the forward holds 3.7 and the sweep adds
    # 3.5, below 3.6 because each unit fills its weight's gradient after
    # its tile scratch is gone, not before. The sweep added 5.2 while a
    # residual unit's backward built d/dh in a fresh full-height array
    # next to g, its own gradient, instead of in g (5.5 while, besides, the
    # head's matmul added a float64 product into a zero-filled gradient).
    # At B=16 a residual unit's backward tiles hold half its rows; at B=256
    # the sweep is well below (test_backward_sweep_stays_tile_sized).
    forward, sweep, params = _tape_units(np.float64, 16)
    assert forward <= 4.7, f"forward holds {forward:.2f} units"
    assert sweep <= 4.6, f"backward adds {sweep:.2f} units"
    assert np.abs(params["head"].grad).max() > 0


def test_float32_tape_forward_and_backward_memory_stay_bounded():
    # The guard above on a CONV_DTYPE tape, in the same float64 units. The
    # float32 trunk holds half the bytes: the forward measured 2.3 units
    # (2.8 while the last unit's result d0 was kept for the head's
    # backward; 4.6 on the float64 tape; 4.2 while the lift's result and the
    # outputs the decoder joins consume stayed on the tape; 6.2 while the
    # lift kept its mixed input and the weight leaves, about 1.8 units at
    # C=32, were copies; 7.8 before the fused lift and unpool-adds) and the
    # sweep 2.2 (2.5 with d0 gone while each unit filled its weight's
    # gradient before its tile scratch, not after; 2.1 with d0 kept; 3.7 on
    # the float64 tape; 2.3 while each relu mask was a
    # bool array, cast as it multiplied a gradient; 2.5 while a residual
    # unit built d/dh in a fresh array next to g, 2.8 with the per-kernel
    # full-height backward). What stays is mostly the trunk's float32
    # arrays: the inputs of mgcn.enc0.0 and mgcn.dec0.0, about 1 unit, and
    # the coarser stages' inputs.
    forward, sweep, params = _tape_units(network.CONV_DTYPE, 16)
    assert forward <= 3.0, f"forward holds {forward:.2f} units"
    assert sweep <= 2.3, f"backward adds {sweep:.2f} units"
    assert np.abs(params["head"].grad).max() > 0


def test_forward_at_the_benchmark_sizes_leaves_at_most_14_5_mb_on_the_tape():
    # One float32 forward at B=256, C=128, the benchmark's sizes, by
    # tracemalloc: 30.6 MB while the tape kept the lift's result and the
    # encoder and inner decoder outputs that the decoder joins only read,
    # 22.7 MB with the joins consuming them, 18.3 MB while the tape kept
    # the last unit's 4.46 MB result d0 for the head; it measures 13.9 MB.
    topo = default_topology()
    model = CVUGCN(topo, NetworkConfig(channels=128))
    rng = np.random.default_rng(0)
    x1, x2 = rand_coarse(rng, 256), rand_coarse(rng, 256)
    tape = ad.Tape(conv_dtype=network.CONV_DTYPE)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.refine_batch(tape, x1, x2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        tape.release()
    mb = (held - base) / 1e6
    assert mb <= 14.5, f"forward holds {mb:.1f} MB"


def test_forward_only_refine_at_the_benchmark_sizes_peaks_below_11_5_mb():
    # One float32 forward at B=256, C=128 on a forward-only tape, the
    # evaluation's, by tracemalloc: its peak above entry. A recording tape
    # peaks 26.5 MB above entry (it keeps 18.3 MB), or 19.4 MB once the
    # head casts d0 a tile at a time, or 15.9 MB (it keeps 13.9 MB) with
    # the head folded into the last unit; a forward-only tape measured 15.0 MB
    # while refine_from_leaf held the lift's result to the end, and now
    # 10.6 MB, about the decoder's last join, its unit's result and tile
    # scratch.
    topo = default_topology()
    model = CVUGCN(topo, NetworkConfig(channels=128))
    rng = np.random.default_rng(0)
    x1, x2 = rand_coarse(rng, 256), rand_coarse(rng, 256)
    tape = ad.Tape(conv_dtype=network.CONV_DTYPE, record=False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.refine_batch(tape, x1, x2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mb = (peak - base) / 1e6
    assert mb <= 11.5, f"forward-only refine peaks {mb:.1f} MB above entry"


# (conv_dtype, bound): measured 0.94 and 0.44 units (0.80 and 0.34 while
# the tape kept d0, which the folded head no longer forms: the forward
# holds a unit or half a unit less, so the same sweep rises further above
# it). The peak is the last unit's, which holds the head: its d/dh, a
# full-height conv_dtype array handed to h as its gradient buffer, and
# float64 tiles. At B=256 a residual unit's rows span several backward
# tiles, and it builds d/dh, which it hands to h as its gradient buffer,
# in g, its own gradient: it adds only tile scratch. A residual unit that
# built d/dh in a fresh full-height array next to g peaked at 1.11 on
# float64. While the head was a matmul of its own, from a float64 copy
# of all of d0 it peaked at 0.80 on float32 (a float32 d/dhead measured
# 0.44). A sweep that mixed g and multiplied by each kernel at full
# height, with relu(h) and its mask full height too, added 3.96 and 1.87;
# one whose head matmul added a float64 g @ head^T into a zero-filled
# gradient added 1.83 and 1.39.
@pytest.mark.parametrize("conv_dtype, bound", [
    (np.float64, 1.0), (np.float32, 0.45)])
def test_backward_sweep_stays_tile_sized(conv_dtype, bound):
    _, sweep, params = _tape_units(conv_dtype, 256)
    assert sweep <= bound, f"backward adds {sweep:.2f} units"
    assert np.abs(params["head"].grad).max() > 0


# (conv_dtype, bound): measured 1.17 and 0.67 units; the forward's peak
# above entry, its float64 result included, 0.17 on both.
@pytest.mark.parametrize("conv_dtype, bound", [
    (np.float64, 1.25), (np.float32, 0.75)])
def test_head_unit_holds_its_input_gradient_and_tiles(conv_dtype, bound):
    # The last unit with the head folded in (residual_graph_conv_head) at
    # B=256, C=32, alone on a tape, in the units above: h is a conv_dtype
    # array, the panel and the head float64 leaves. Its forward holds
    # only its (2BJ, 3) float64 result and float64 tiles of h. Its
    # backward holds one full-height array, d/dh, made in h's dtype and
    # handed to h as its gradient buffer: a unit on float64, half a unit
    # on float32, and two float64 tiles. The head as a matmul of d0 of its
    # own rose 1.10 and 0.64 with a float64 copy of a tile of d0.
    topo = default_topology()
    B, J, C = 256, topo.n_joints, 32
    unit = 2 * B * J * C * 8
    model = CVUGCN(topo, small_config(channels=C))
    rng = np.random.default_rng(0)
    tape = ad.Tape(conv_dtype=conv_dtype)
    h = tape._record(rng.normal(size=(2 * B * J, C)).astype(conv_dtype),
                     "h")
    W = tape.leaf(model.weights["mgcn.dec0.0"])
    head = tape.leaf(rng.normal(size=(C, 3)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = ad.residual_graph_conv_head(h, model._stacks["mgcn.dec0.0"],
                                          W, head)
        forward = (tracemalloc.get_traced_memory()[1] - base) / unit
        loss = ad.reduce_sum(ad.norm_rows(res))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward <= 0.2, f"head unit forward peaks {forward:.2f} units"
    rise = (peak - held) / unit
    assert rise <= bound, f"head unit backward adds {rise:.2f} units"
    assert h.grad.dtype == conv_dtype and res.dtype == np.float64
    assert np.abs(head.grad).max() > 0 and np.abs(W.grad).max() > 0


# (conv_dtype, B, bound): measured 1.66, 0.16, 0.74 and 0.03 units (2.08,
# 0.03, 0.98 and 0.03 while the tape kept d0 for a head of its own). At
# B=256 a conv's rows span several tiles and its scratch is a few tiles'
# worth (it was 2.62 and 1.13 units of full-height scratch), and the last
# unit, which holds the head, casts h one TILE_ROWS // K tile at a time
# (a float64 copy of all of d0 measured 0.69 on float32); at B=16 a tile
# holds half a conv's rows
# or all of them. There the residual unit's relu(h) is built in the rows
# of the output it becomes, which pays for the forward's weight panel: a
# separate relu tile buffer next to the panel measured 2.92 units on
# float64.
@pytest.mark.parametrize("conv_dtype, B, bound", [
    (np.float64, 16, 2.55), (np.float64, 256, 0.3),
    (np.float32, 16, 1.15), (np.float32, 256, 0.1)])
def test_forward_scratch_stays_tile_sized(conv_dtype, B, bound):
    # Deterministic guard on a forward's transient memory: its tracemalloc
    # peak minus what the tape holds after it, in units of one (2BJ, C)
    # float64 array.
    topo = default_topology()
    C, J = 32, topo.n_joints
    model = CVUGCN(topo, small_config(channels=C))
    rng = np.random.default_rng(0)
    x1, x2 = rand_coarse(rng, B), rand_coarse(rng, B)
    unit = 2 * B * J * C * 8
    tape = ad.Tape(conv_dtype=conv_dtype)
    tracemalloc.start()
    try:
        model.refine_batch(tape, x1, x2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        tape.release()
    transient = (peak - held) / unit
    assert transient <= bound, f"forward scratch {transient:.2f} units"

def test_kernel_mask_is_validated():
    topo = default_topology()
    for mask in ((5,), (-1,), (0, 4), (0, 1, 2, 3, 4)):
        with pytest.raises(ValueError, match="kernel_mask"):
            CVUGCN(topo, small_config(), kernel_mask=mask)
    with pytest.raises(ValueError, match="level-2"):
        CVUGCN(topo, small_config(), kernel_mask={0, 4})
    for mask in ((), (4,), (1, 2, 3)):
        CVUGCN(topo, small_config(), kernel_mask=mask)


def test_cross_view_mask_decouples_views():
    topo = default_topology()
    model = CVUGCN(topo, small_config(), kernel_mask={4})
    rng = np.random.default_rng(4)
    model.weights.arrays["head"] = rng.normal(0, 0.05, size=(8, 3))
    x1 = rand_coarse(rng, 2)
    x2a = rand_coarse(rng, 2)
    x2b = rand_coarse(rng, 2)
    t1 = ad.Tape()
    A1, _, _ = model.refine_batch(t1, x1, x2a)
    t2 = ad.Tape()
    B1, _, _ = model.refine_batch(t2, x1, x2b)
    assert np.array_equal(A1.data, B1.data)
    # Unmasked, the views talk to each other.
    full = CVUGCN(topo, small_config())
    full.weights.arrays["head"] = model.weights["head"]
    t3 = ad.Tape()
    C1, _, _ = full.refine_batch(t3, x1, x2a)
    t4 = ad.Tape()
    D1, _, _ = full.refine_batch(t4, x1, x2b)
    assert not np.array_equal(C1.data, D1.data)


def test_param_leaves_carry_weight_names():
    cfg = small_config()
    model = CVUGCN(default_topology(), cfg)
    tape = ad.Tape()
    rng = np.random.default_rng(6)
    before = {k: v.copy() for k, v in model.weights.items()}
    _, _, params = model.refine_batch(tape, rand_coarse(rng, 1),
                                      rand_coarse(rng, 1))
    assert tape.nodes[0].op == "coarse"
    assert [v.op for v in params.values()] == [
        f"param:{name}" for name in FULL_SHAPES]
    assert [v.op for v in tape.nodes[1:1 + len(params)]] == [
        f"param:{name}" for name in FULL_SHAPES]
    # A forward copies no weight: each leaf is a read-only view of the
    # model's array, which stays writable for the optimizer's in-place
    # step once the tape is released.
    for name, arr in model.weights.items():
        assert np.shares_memory(params[name].data, arr), name
        assert not params[name].data.flags.writeable, name
    tape.release()
    for name, arr in model.weights.items():
        assert arr.flags.writeable, name
        assert np.array_equal(arr, before[name]), name


def test_refine_batch_validates_shapes():
    topo = default_topology()
    model = CVUGCN(topo, small_config())
    with pytest.raises(ShapeMismatch):
        tape = ad.Tape()
        model.refine_batch(tape, np.zeros((16, 3)), np.zeros((16, 3)))
    with pytest.raises(ShapeMismatch):
        tape = ad.Tape()
        model.refine_batch(tape, np.zeros((17, 3)), np.zeros((34, 3)))


def test_checkpoint_roundtrip(tmp_path):
    topo = default_topology()
    cfg = small_config(init_seed=7)
    w = CVUGCN(topo, cfg).weights
    rng = np.random.default_rng(8)
    w.arrays["head"] = rng.normal(size=(8, 3)) * 1e-7  # exercise tiny floats
    # Signed zero, the smallest subnormal and the largest finite double.
    w.arrays["head"][0] = [-0.0, 5e-324, 1.7976931348623157e308]
    opt = {
        "m": {n: rng.normal(size=a.shape) for n, a in w.items()},
        "v": {n: np.abs(rng.normal(size=a.shape)) for n, a in w.items()},
        "vhat": {n: np.abs(rng.normal(size=a.shape)) for n, a in w.items()},
    }
    train = {"loss_history": [3.5, 2.25, 1.0 / 3.0]}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, w, opt_state=opt, train_state=train)
    ck = load_checkpoint(path, topo)
    assert isinstance(ck, Checkpoint)
    assert ck.config == cfg
    assert ck.train_state == train
    loaded = [(f"weight:{n}", ck.weights[n], a) for n, a in w.items()]
    loaded += [(f"opt:{kind}:{n}", ck.opt_state[kind][n], a)
               for kind in ("m", "v", "vhat") for n, a in opt[kind].items()]
    for tag, got, arr in loaded:
        assert got.dtype == np.float64, tag
        assert np.array_equal(got.view(np.uint64), arr.view(np.uint64)), tag
        assert got.flags.writeable, tag
    # The file is the text header lines plus 8 bytes per element.
    data = path.read_bytes()
    header = b"".join(data.splitlines(keepends=True)[:4])
    array_lines = sum(len(f"array {tag} {a.shape[0]} {a.shape[1]}\n")
                      for tag, _, a in loaded)
    assert len(data) == (len(header) + array_lines
                         + 8 * sum(a.size for _, _, a in loaded))
    # Writing twice gives identical bytes.
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, topo, cfg, w, opt_state=opt, train_state=train)
    assert path.read_bytes() == path2.read_bytes()


def test_network_config_json_roundtrip():
    cfg = NetworkConfig(channels=16, init_seed=3)
    assert NetworkConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("text, message", [
    ('{"channels": 8, "init_seed": 0, "sgcn_layer": 5}',
     "unknown config key 'sgcn_layer'"),
    ('{"channels": 8.9, "init_seed": 0}', "config channels must be an integer"),
    ('{"channels": 8, "init_seed": true}', "config init_seed must be an integer"),
    ('{"channels": "8", "init_seed": 0}', "config channels must be an integer"),
    ('{"channels": 8.0, "init_seed": 0}', "config channels must be an integer"),
    ('[8, 0]', "config must be a JSON object"),
])
def test_network_config_rejects_unknown_keys_and_non_integers(text, message):
    with pytest.raises(SchemaError, match=message):
        NetworkConfig.from_json(text)


def test_checkpoint_topology_mismatch(tmp_path):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, CVUGCN(topo, cfg).weights,
                    opt_state={}, train_state={})
    from cvpose.graph import SkeletonTopology
    other = SkeletonTopology(("a", "b"), (0, 0), ())
    with pytest.raises(SchemaError):
        load_checkpoint(path, other)


def test_checkpoint_corruption(tmp_path):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, CVUGCN(topo, cfg).weights,
                    opt_state={}, train_state={})
    data = path.read_bytes()
    head = data.index(b"array weight:head 8 3\n")
    cases = {
        # The last array loses its last value.
        "trunc": (data[:-8], "byte %d: array weight:head: truncated" % head),
        # The header is replaced, or is the old text format's.
        "hdr": (b"nope\n" + data[data.index(b"\n") + 1:],
                "line 1: expected header 'ckpt-v4'"),
        "v1": (b"ckpt-v1\n" + data[data.index(b"\n") + 1:], "'ckpt-v4'"),
        # ckpt-v4 is the one format read: ckpt-v2 stored one array per
        # kernel class, and ckpt-v3 a step line and a train object that
        # repeated the epoch count and the best loss.
        "v2": (b"ckpt-v2\n" + data[data.index(b"\n") + 1:],
               "^line 1: expected header 'ckpt-v4'$"),
        "v3": (b"ckpt-v3\n" + b"".join(data.splitlines(True)[1:3])
               + b'step 2\ntrain {"best_val": 0.5, "loss_history": [1.0, '
               b'0.5], "next_epoch": 2}\n' + data[data.index(b"array "):],
               "^line 1: expected header 'ckpt-v4'$"),
        # The weight:head block is dropped entirely.
        "miss": (data[:head], "lacks weight head"),
        # Bytes follow the last array.
        "trail": (data + b"garbage\n",
                  "byte %d: expected an array header" % len(data)),
        # An array header claims more bytes than remain.
        "long": (data[:head] + b"array weight:head 800 3\n"
                 + data[head + len(b"array weight:head 8 3\n"):],
                 "byte %d: array weight:head: truncated" % head),
        # An array appears twice, or optimizer state names no weight.
        "dup": (data + data[head:],
                "byte %d: array weight:head: duplicate" % len(data)),
        "opt": (data + b"array opt:m:bogus 1 1\n" + bytes(8),
                "unknown weight bogus"),
        # A weight or an array kind the layout does not have.
        "weight": (data + b"array weight:sgcn.2.k0 1 1\n" + bytes(8),
                   "unknown weight sgcn.2.k0"),
        "kind": (data + b"array bias:head 1 1\n" + bytes(8),
                 "unknown array bias:head"),
    }
    for name, (blob, match) in cases.items():
        (tmp_path / f"{name}.ckpt").write_bytes(blob)
        with pytest.raises(SchemaError, match=match):
            load_checkpoint(tmp_path / f"{name}.ckpt", topo)


def _saved_checkpoint(tmp_path):
    """A small model's checkpoint: (path, topology, its bytes)."""
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, CVUGCN(topo, cfg).weights,
                    opt_state={}, train_state={"loss_history": [2.0, 1.0]})
    return path, topo, path.read_bytes()


@pytest.mark.parametrize("edit, line, key", [
    # ckpt-v3 wrote `step <n>` between the config and train lines, and
    # nothing read it; a ckpt-v4 header has no such line.
    (lambda lines: lines[:3] + [b"step 2\n"] + lines[3:], 4, "train"),
    (lambda lines: lines[:3] + lines[4:], 4, "train"),
    (lambda lines: [lines[0], lines[2], lines[1], lines[3]], 2, "topology"),
    (lambda lines: lines[:2] + lines[3:], 3, "config"),
    (lambda lines: lines[:1] + lines[2:], 2, "topology"),
], ids=["v3 step line", "no train line", "config before topology",
        "no config line", "no topology line"])
def test_checkpoint_header_is_four_lines_in_order(tmp_path, edit, line, key):
    path, topo, data = _saved_checkpoint(tmp_path)
    lines = data.splitlines(keepends=True)
    head = sum(map(len, lines[:4]))
    path.write_bytes(b"".join(edit(lines[:4])) + data[head:])
    with pytest.raises(SchemaError,
                       match=f"^line {line}: expected '{key}' line$") as exc:
        load_checkpoint(path, topo)
    assert exc.value.line == line


@pytest.mark.parametrize("config, message", [
    ('{"channels": 8, "init_seed": 0, "sgcn_layers": 2}',
     "unknown config key 'sgcn_layers'"),
    ('{"channels": 8, "init_seed": 0, "mgcn_layers_per_stage": 1}',
     "unknown config key 'mgcn_layers_per_stage'"),
    ('{"channels": 8, "coord_scale": 0.001, "init_seed": 0}',
     "unknown config key 'coord_scale'"),
    ('{"channels": 0, "init_seed": 0}', "channels must be at least 1, got 0"),
    ('{"channels": 8, "init_seed": -7}',
     "init_seed must not be negative, got -7"),
    ('{"channels": 8}', "config lacks 'init_seed'"),
    ('{"init_seed": 0}', "config lacks 'channels'"),
    ('{}', "config lacks 'channels'"),
])
def test_checkpoint_config_line_holds_two_settings_in_range(tmp_path, config,
                                                            message):
    # No ckpt-v4 writer names a setting of an earlier layout, even at its
    # one value. The network's settings have the range a train.cfg holds
    # them to: a checkpoint with init_seed -7 resumed a run whose train.cfg
    # `cvpose train --config` then refused. A missing setting raised a bare
    # KeyError, reported as bad metadata with no line.
    path, topo, data = _saved_checkpoint(tmp_path)
    good = b'config {"channels": 8, "init_seed": 0}'
    assert good in data
    path.write_bytes(data.replace(good, b"config " + config.encode(), 1))
    with pytest.raises(SchemaError, match=f"^line 3: {message}$") as exc:
        load_checkpoint(path, topo)
    assert exc.value.line == 3
    with pytest.raises(SchemaError, match=f"^{message}$"):
        NetworkConfig.from_json(config)


def test_checkpoint_garbage_raises_schema_error(tmp_path):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, CVUGCN(topo, cfg).weights,
                    opt_state={}, train_state={})
    data = path.read_bytes()
    head = data.index(b"array weight:head 8 3\n")
    blobs = [
        np.random.default_rng(0).bytes(4096),
        data[:head] + b"array weight:x a b\n",
        data[:head] + b"array weight:\xff\xfe 8 3\n"
        + data[head + len(b"array weight:head 8 3\n"):],
        data.replace(b"train {", b"train {\xff", 1),
    ]
    for k, blob in enumerate(blobs):
        (tmp_path / f"bad{k}.ckpt").write_bytes(blob)
        with pytest.raises(SchemaError):
            load_checkpoint(tmp_path / f"bad{k}.ckpt", topo)


def test_checkpoint_rejects_non_finite_arrays(tmp_path):
    topo = default_topology()
    cfg = small_config()
    w = CVUGCN(topo, cfg).weights
    w.arrays["sgcn.1"][3, 4] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", topo, cfg, w, opt_state={},
                    train_state={})
    with pytest.raises(SchemaError, match=r"weight:sgcn\.1: .*non-finite"):
        load_checkpoint(tmp_path / "nan.ckpt", topo)
    w = CVUGCN(topo, cfg).weights
    opt = {"v": {"head": np.full((8, 3), np.inf)}}
    save_checkpoint(tmp_path / "inf.ckpt", topo, cfg, w, opt_state=opt,
                    train_state={})
    with pytest.raises(SchemaError, match=r"opt:v:head.*non-finite"):
        load_checkpoint(tmp_path / "inf.ckpt", topo)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, CVUGCN(topo, cfg).weights,
                    opt_state={}, train_state={"loss_history": [1.0]})
    original = path.read_bytes()
    real_write = network._write_array
    written = []

    def failing_write(fh, tag, arr):
        written.append(tag)
        if len(written) == 3:
            raise OSError("disk full")
        real_write(fh, tag, arr)

    monkeypatch.setattr(network, "_write_array", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, topo, cfg,
                        CVUGCN(topo, small_config(init_seed=1)).weights,
                        opt_state={}, train_state={"loss_history": [1.0, 0.5]})
    assert path.read_bytes() == original
    assert load_checkpoint(path, topo).train_state == {"loss_history": [1.0]}
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
