import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose import training
from cvpose.errors import CvposeError, NonPositiveDepth, SchemaError
from cvpose.geometry import CameraModel
from cvpose.graph import default_topology
from cvpose.network import CVUGCN, load_checkpoint
from cvpose.syndata import (Sample, SyntheticConfig, default_rig,
                            generate_dataset)
from cvpose.training import (LOG_HEADER, AmsGrad, TrainConfig, eval_loss,
                             fit, load_train_config, precompute_coarse,
                             save_train_config, schedule_lr, train_epoch)


def small_config(**kw):
    base = dict(epochs=3, batch_size=16, channels=8, seed=0, init_seed=0)
    base.update(kw)
    return TrainConfig(**base)


def small_dataset(n=32, sigma=3.0, seed=2):
    cfg = SyntheticConfig(n_samples=n, seed=seed, sigma_px=sigma)
    return generate_dataset(cfg)


# -- optimizer ---------------------------------------------------------------

def test_amsgrad_first_step_worked_example():
    w = {"p": np.array([[0.0]])}
    opt = AmsGrad({"p": (1, 1)})
    opt.step(w, {"p": np.array([[0.1]])}, lr=1e-3)
    # m = 0.01, v = 1e-5, vhat = 1e-5 -> step = 1e-3 * 0.01 / (sqrt(1e-5) + 1e-8)
    assert w["p"][0, 0] == pytest.approx(-3.1623e-3, rel=1e-4)


def test_amsgrad_matches_reference_loop():
    rng = np.random.default_rng(0)
    shapes = {"a": (3, 4), "b": (2, 2)}
    w = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in w.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    vh = {k: np.zeros(s) for k, s in shapes.items()}
    opt = AmsGrad(shapes, beta1=0.9, beta2=0.999, epsilon=1e-8)
    for step in range(7):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        opt.step(w, grads, lr=0.01)
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + 0.1 * g
            v[k] = 0.999 * v[k] + 0.001 * g * g
            vh[k] = np.maximum(vh[k], v[k])
            ref[k] = ref[k] - 0.01 * m[k] / (np.sqrt(vh[k]) + 1e-8)
    for k in shapes:
        assert np.allclose(w[k], ref[k], rtol=0, atol=1e-15)


def test_amsgrad_vhat_never_decreases():
    opt = AmsGrad({"p": (1,)})
    w = {"p": np.zeros(1)}
    opt.step(w, {"p": np.array([10.0])}, lr=1e-3)
    high = opt.vhat["p"].copy()
    for _ in range(5):
        opt.step(w, {"p": np.array([1e-4])}, lr=1e-3)
        assert (opt.vhat["p"] >= high).all()


def test_amsgrad_state_roundtrip():
    opt = AmsGrad({"p": (2,)})
    w = {"p": np.zeros(2)}
    opt.step(w, {"p": np.array([0.3, -0.2])}, lr=1e-3)
    state = opt.state()
    clone = AmsGrad({"p": (2,)})
    clone.load_state(state)
    w2 = {"p": w["p"].copy()}
    g = {"p": np.array([0.1, 0.1])}
    opt.step(w, g, lr=1e-3)
    clone.step(w2, g, lr=1e-3)
    assert np.array_equal(w["p"], w2["p"])
    with pytest.raises(SchemaError):
        clone.load_state({"m": {"zz": np.zeros(2)}, "v": {}, "vhat": {}})


# -- learning-rate schedule ---------------------------------------------------

def test_schedule_initial_and_improving():
    cfg = TrainConfig(initial_lr=1e-3, lr_decay=0.9, plateau_epochs=10)
    assert schedule_lr([], cfg) == 1e-3
    assert schedule_lr([5.0, 4.0, 3.0, 2.0], cfg) == 1e-3


def test_schedule_decays_after_ten_flat_epochs():
    cfg = TrainConfig(initial_lr=1e-3, lr_decay=0.9, plateau_epochs=10)
    history = [1.0] + [1.0] * 9
    assert schedule_lr(history, cfg) == 1e-3          # nine stagnant epochs
    history = [1.0] + [1.0] * 10
    assert schedule_lr(history, cfg) == pytest.approx(0.9e-3)
    history = [1.0] + [1.0] * 20
    assert schedule_lr(history, cfg) == pytest.approx(0.81e-3)


def test_schedule_reset_on_improvement():
    cfg = TrainConfig(initial_lr=1e-3, lr_decay=0.9, plateau_epochs=10)
    history = [1.0] + [1.0] * 9 + [0.5] + [0.5] * 9
    assert schedule_lr(history, cfg) == 1e-3
    history = [1.0] + [1.0] * 9 + [0.5] + [0.5] * 10
    assert schedule_lr(history, cfg) == pytest.approx(0.9e-3)


def test_schedule_ties_are_not_improvements():
    cfg = TrainConfig(initial_lr=1.0, lr_decay=0.5, plateau_epochs=2)
    # equal loss never resets the stagnation counter
    assert schedule_lr([3.0, 3.0, 3.0], cfg) == 0.5
    assert schedule_lr([3.0, 3.0, 3.0, 3.0, 3.0], cfg) == 0.25


# -- coarse precomputation ----------------------------------------------------

def test_precompute_coarse_recovers_gt_without_noise():
    samples, rig, _ = small_dataset(n=6, sigma=0.0)
    coarse, skipped = precompute_coarse(samples, rig)
    assert skipped == []
    for s in samples:
        x1, x2 = coarse[s.sample_id]
        err1 = np.linalg.norm(x1 - s.joints_3d_gt[s.pair[0]], axis=1).mean()
        err2 = np.linalg.norm(x2 - s.joints_3d_gt[s.pair[1]], axis=1).mean()
        assert err1 < 1e-6 and err2 < 1e-6


def test_precompute_coarse_skips_degenerate():
    samples, rig, _ = small_dataset(n=3, sigma=0.0)
    cam1 = rig[0]
    # a second camera with the same pose has no baseline to triangulate from
    twin = CameraModel("cam2", cam1.K.copy(), cam1.R.copy(), cam1.t.copy(),
                       cam1.width, cam1.height)
    coarse, skipped = precompute_coarse(samples, [cam1, twin])
    assert coarse == {}
    assert skipped == [s.sample_id for s in samples]


def test_precompute_coarse_skips_sample_behind_cameras():
    cam1 = CameraModel("cam1", np.eye(3), np.eye(3), np.zeros(3), 10, 10)
    cam2 = CameraModel("cam2", np.eye(3), np.eye(3), [-1.0, 0.0, 0.0], 10, 10)
    # The second view's pixel makes the rays meet at z = 2 (in front) or
    # z = -2 (behind both cameras).
    samples = [Sample(sid, ("cam1", "cam2"),
                      {"cam1": np.array([[0.1, 0.05]]),
                       "cam2": np.array([[u, 0.05]])}, {})
               for sid, u in (("front", -0.4), ("behind", 0.6))]
    for mode in ("dual", "single"):
        coarse, skipped = precompute_coarse(samples, [cam1, cam2], mode=mode)
        assert list(coarse) == ["front"]
        assert np.allclose(coarse["front"][0], [[0.2, 0.1, 2.0]])
        assert skipped == ["behind"]


# -- config files --------------------------------------------------------------

def test_train_config_roundtrip(tmp_path):
    cfg = TrainConfig(epochs=12, batch_size=64, initial_lr=2e-3,
                      legacy_transform_double=True, tri_mode="single",
                      channels=16, w_bonedir=0.25)
    path = tmp_path / "train.cfg"
    save_train_config(path, cfg)
    assert load_train_config(path) == cfg


def test_train_config_parsing(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("# comment\n\nepochs = 5\nbatch_size=32  # inline\n"
                    "initial_lr = 5e-4\nlegacy_transform_double = true\n")
    cfg = load_train_config(path)
    assert cfg.epochs == 5
    assert cfg.batch_size == 32
    assert cfg.initial_lr == 5e-4
    assert cfg.legacy_transform_double is True

    path.write_text("epochs = 5\nnot_a_key = 1\n")
    with pytest.raises(SchemaError, match="line 2"):
        load_train_config(path)

    path.write_text("epochs = soon\n")
    with pytest.raises(SchemaError, match="bad value"):
        load_train_config(path)

    path.write_text("just some words\n")
    with pytest.raises(SchemaError, match="key = value"):
        load_train_config(path)


# -- the loop -------------------------------------------------------------------

def test_fit_reduces_training_loss(tmp_path):
    samples, rig, assumed = small_dataset(n=32, sigma=3.0)
    cfg = small_config(epochs=4, batch_size=16)
    result = fit(samples, [], assumed, cfg, out_dir=tmp_path)
    log = (tmp_path / "train_log.csv").read_text().splitlines()
    assert log[0] == LOG_HEADER
    assert len(log) == 1 + 4
    first = float(log[1].split(",")[1])
    last = float(log[-1].split(",")[1])
    assert last < first
    assert len(result.history) == 4
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()


def test_fit_uses_no_3d_labels(tmp_path):
    cfg_data = SyntheticConfig(n_samples=12, seed=4, sigma_px=2.0,
                               include_gt=False)
    samples, rig, assumed = generate_dataset(cfg_data)
    assert samples[0].joints_3d_gt == {}
    result = fit(samples, [], assumed, small_config(epochs=1), out_dir=tmp_path)
    assert len(result.history) == 1


def test_fit_deterministic(tmp_path):
    samples, rig, assumed = small_dataset(n=16)
    cfg = small_config(epochs=2)
    fit(samples, [], assumed, cfg, out_dir=tmp_path / "a")
    fit(samples, [], assumed, cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "final.ckpt").read_bytes()
    b = (tmp_path / "b" / "final.ckpt").read_bytes()
    assert a == b
    la = (tmp_path / "a" / "train_log.csv").read_bytes()
    lb = (tmp_path / "b" / "train_log.csv").read_bytes()
    assert la == lb


def test_resume_matches_uninterrupted(tmp_path):
    samples, rig, assumed = small_dataset(n=24)
    val = samples[16:]
    train = samples[:16]
    full_cfg = small_config(epochs=4, batch_size=8, checkpoint_every=2)
    fit(train, val, assumed, full_cfg, out_dir=tmp_path / "full")

    fit(train, val, assumed, small_config(epochs=2, batch_size=8,
                                          checkpoint_every=2),
        out_dir=tmp_path / "half")
    resumed = fit(train, val, assumed, full_cfg, out_dir=tmp_path / "resumed",
                  resume_from=tmp_path / "half" / "epoch_0002.ckpt")

    topo = None
    from cvpose.graph import default_topology
    topo = default_topology()
    full = load_checkpoint(tmp_path / "full" / "final.ckpt", topo)
    again = load_checkpoint(tmp_path / "resumed" / "final.ckpt", topo)
    for name, arr in full.weights.items():
        assert np.allclose(arr, again.weights[name], rtol=0, atol=1e-12)
        assert np.array_equal(arr, again.weights[name])
    assert full.train_state["loss_history"] == again.train_state["loss_history"]
    assert resumed.history == full.train_state["loss_history"]


def test_resume_keeps_one_log_row_per_epoch(tmp_path):
    samples, rig, assumed = small_dataset(n=16)
    cfg = small_config(epochs=4, batch_size=8, checkpoint_every=1)
    fit(samples, [], assumed, cfg, out_dir=tmp_path)
    log_path = tmp_path / "train_log.csv"
    uninterrupted = log_path.read_text()
    fit(samples, [], assumed, cfg, out_dir=tmp_path,
        resume_from=tmp_path / "epoch_0002.ckpt")
    resumed = log_path.read_text()
    assert [row.split(",")[0] for row in resumed.splitlines()[1:]] == [
        "0", "1", "2", "3"]
    assert resumed == uninterrupted


def test_nonfinite_loss_stops_before_weight_update(monkeypatch):
    samples, rig, assumed = small_dataset(n=8)
    cfg = small_config()
    topo = default_topology()
    model = CVUGCN(topo, cfg.network())
    coarse, _ = precompute_coarse(samples, assumed, topo)
    optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()})
    before = model.weights.copy()
    real_loss = training.total_loss

    def poisoned_loss(*args, **kwargs):
        total, parts = real_loss(*args, **kwargs)
        return ad.scale(total, float("nan")), parts

    monkeypatch.setattr(training, "total_loss", poisoned_loss)
    with pytest.raises(CvposeError,
                       match=r"epoch 3, pair cam1/cam2: .*sgcn\.0\.k0"):
        train_epoch(samples, coarse, assumed, model, optimizer, 1e-3, cfg, 3)
    for name, arr in model.weights.items():
        assert np.array_equal(arr, before[name]), name


def test_eval_loss_is_side_effect_free(tmp_path):
    samples, rig, assumed = small_dataset(n=8)
    cfg = small_config(epochs=1)
    result = fit(samples, [], assumed, cfg, out_dir=tmp_path)
    from cvpose.graph import default_topology
    from cvpose.network import CVUGCN
    topo = default_topology()
    ckpt = load_checkpoint(tmp_path / "final.ckpt", topo)
    model = CVUGCN(topo, ckpt.config, weights=ckpt.weights)
    before = {k: v.copy() for k, v in model.weights.items()}
    coarse, _ = precompute_coarse(samples, assumed, topo)
    v1 = eval_loss(samples, coarse, assumed, model, cfg)
    v2 = eval_loss(samples, coarse, assumed, model, cfg)
    assert v1 == v2
    for k, arr in model.weights.items():
        assert np.array_equal(arr, before[k])


def test_monitor_uses_validation_set(tmp_path):
    samples, rig, assumed = small_dataset(n=20)
    cfg = small_config(epochs=2, batch_size=8)
    result = fit(samples[:12], samples[12:], assumed, cfg, out_dir=tmp_path)
    # monitored history is the validation objective, which differs from the
    # training loss column in the log
    log = (tmp_path / "train_log.csv").read_text().splitlines()
    train_losses = [float(r.split(",")[1]) for r in log[1:]]
    assert result.history != train_losses
    assert result.best_val == min(result.history)


def test_epoch_without_scored_batch_has_no_loss(tmp_path, monkeypatch):
    samples, rig, assumed = small_dataset(n=12)
    cfg = small_config(epochs=2, batch_size=4)
    topo = default_topology()
    model = CVUGCN(topo, cfg.network())
    coarse, _ = precompute_coarse(samples, assumed, topo)

    def behind(*args, **kwargs):
        raise NonPositiveDepth("joint 0 behind the camera", joint=0)

    monkeypatch.setattr(training, "_batch_loss", behind)
    assert np.isnan(eval_loss(samples, coarse, assumed, model, cfg))
    optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()})
    stats = train_epoch(samples, coarse, assumed, model, optimizer, 1e-3, cfg, 0)
    assert np.isnan(stats["loss"])
    assert stats["depth_skipped"] == len(samples)
    # a diverged epoch is never the best one
    result = fit(samples[:8], samples[8:], assumed, cfg, out_dir=tmp_path)
    assert "best" not in result.checkpoints
    assert not (tmp_path / "best.ckpt").exists()
    assert all(np.isnan(result.history))
