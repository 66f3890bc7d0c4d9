"""Refiner wiring: init, identity property, batching, masks, checkpoints."""

import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose import network
from cvpose.errors import SchemaError, ShapeMismatch
from cvpose.geometry import Pose3D
from cvpose.graph import default_topology
from cvpose.network import (
    CVUGCN,
    Checkpoint,
    ModelWeights,
    N_KERNELS,
    NetworkConfig,
    init_weights,
    load_checkpoint,
    param_count,
    save_checkpoint,
    weight_shapes,
)


def small_config(**kw):
    base = dict(channels=8, sgcn_layers=2, mgcn_layers_per_stage=1,
                coord_scale=0.001, init_seed=0)
    base.update(kw)
    return NetworkConfig(**base)


def rand_coarse(rng, B, J=17):
    x = rng.uniform(-400, 400, size=(B * J, 3))
    x[:, 2] += 3000.0
    return x


def test_param_count_default():
    cfg = NetworkConfig()
    # 2 spatial layers (3->128, 128->128), five kernels each; five U-stages
    # of 128->128 convs; 128->3 head.
    expect = 5 * (3 * 128) + 5 * (128 * 128) + 5 * 5 * (128 * 128) + 128 * 3
    assert param_count(cfg) == expect == 493824
    w = init_weights(cfg)
    assert w.param_count == expect


def test_init_weights_deterministic_and_bounded():
    cfg = small_config()
    a = init_weights(cfg)
    b = init_weights(cfg)
    for (na, wa), (nb, wb) in zip(a.items(), b.items()):
        assert na == nb
        assert np.array_equal(wa, wb)
    c = init_weights(small_config(init_seed=1))
    assert any(not np.array_equal(wa, wc) for (_, wa), (_, wc)
               in zip(a.items(), c.items()) if wa.size)
    assert np.array_equal(a["head"], np.zeros((8, 3)))
    for name, shape in weight_shapes(cfg):
        arr = a[name]
        assert arr.shape == shape
        if name != "head":
            bound = np.sqrt(1.0 / (N_KERNELS * shape[0]))
            assert np.abs(arr).max() <= bound
            assert np.abs(arr).max() > 0.5 * bound


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
    tape = ad.Tape()
    X1, X2, _ = model.refine_batch(tape, x1, x2)
    assert X1.shape == (B * J, 3) and X2.shape == (B * J, 3)
    for s in range(B):
        r1, r2 = model.refine(Pose3D(x1[s * J:(s + 1) * J], "cam1"),
                              Pose3D(x2[s * J:(s + 1) * J], "cam2"))
        assert np.allclose(X1.data[s * J:(s + 1) * J], r1.joints, atol=1e-9)
        assert np.allclose(X2.data[s * J:(s + 1) * J], r2.joints, atol=1e-9)


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

    report = ad.grad_check(build, arrays + [xin], n_samples=3, tol=1e-4, rng=0)
    assert report.ok, f"max rel err {report.max_rel_err:.2e}"


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
    full = CVUGCN(topo, small_config(), weights=model.weights)
    t3 = ad.Tape()
    C1, _, _ = full.refine_batch(t3, x1, x2a)
    t4 = ad.Tape()
    D1, _, _ = full.refine_batch(t4, x1, x2b)
    assert not np.array_equal(C1.data, D1.data)


def test_param_leaves_carry_weight_names():
    cfg = small_config()
    model = CVUGCN(default_topology(), cfg)
    tape = ad.Tape()
    params = model.param_leaves(tape)
    assert [v.op for v in params.values()] == [
        f"param:{name}" for name, _ in weight_shapes(cfg)]
    rng = np.random.default_rng(6)
    model.refine_batch(tape, rand_coarse(rng, 1), rand_coarse(rng, 1), params)
    assert tape.nodes[len(params)].op == "coarse"


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
    w = init_weights(cfg)
    rng = np.random.default_rng(8)
    w.arrays["head"] = rng.normal(size=(8, 3)) * 1e-7  # exercise tiny floats
    opt = {
        "m": {n: rng.normal(size=a.shape) for n, a in w.items()},
        "v": {n: np.abs(rng.normal(size=a.shape)) for n, a in w.items()},
        "vhat": {n: np.abs(rng.normal(size=a.shape)) for n, a in w.items()},
    }
    train = {"next_epoch": 12, "loss_history": [3.5, 2.25, 1.0 / 3.0],
             "best_val": 0.125}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, w, step=12, opt_state=opt, train_state=train)
    ck = load_checkpoint(path, topo)
    assert isinstance(ck, Checkpoint)
    assert ck.step == 12
    assert ck.config == cfg
    assert ck.train_state == train
    for name, arr in w.items():
        assert np.array_equal(ck.weights[name], arr), name
    for kind in ("m", "v", "vhat"):
        for name, arr in opt[kind].items():
            assert np.array_equal(ck.opt_state[kind][name], arr)
    # Writing twice gives identical bytes.
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, topo, cfg, w, step=12, opt_state=opt, train_state=train)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_topology_mismatch(tmp_path):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, init_weights(cfg), step=0)
    from cvpose.graph import SkeletonTopology
    other = SkeletonTopology(("a", "b"), (0, 0), ())
    with pytest.raises(SchemaError):
        load_checkpoint(path, other)


def test_checkpoint_corruption(tmp_path):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, init_weights(cfg), step=3)
    text = path.read_text().splitlines()
    # Truncate the last array.
    (tmp_path / "trunc.ckpt").write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(SchemaError):
        load_checkpoint(tmp_path / "trunc.ckpt", topo)
    # Corrupt the header.
    (tmp_path / "hdr.ckpt").write_text("nope\n" + "\n".join(text[1:]) + "\n")
    with pytest.raises(SchemaError):
        load_checkpoint(tmp_path / "hdr.ckpt", topo)
    # Drop a weight array block entirely.
    start = next(i for i, l in enumerate(text) if l.startswith("array weight:head"))
    kept = text[:start]
    (tmp_path / "miss.ckpt").write_text("\n".join(kept) + "\n")
    with pytest.raises(SchemaError):
        load_checkpoint(tmp_path / "miss.ckpt", topo)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    topo = default_topology()
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, topo, cfg, init_weights(cfg), step=1)
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
        save_checkpoint(path, topo, cfg, init_weights(small_config(init_seed=1)),
                        step=2)
    assert path.read_bytes() == original
    assert load_checkpoint(path, topo).step == 1
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_model_weights_copy_independent():
    cfg = small_config()
    a = init_weights(cfg)
    b = a.copy()
    b.arrays["head"][0, 0] = 99.0
    assert a["head"][0, 0] == 0.0
