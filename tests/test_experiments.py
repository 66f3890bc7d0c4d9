import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose import training
from cvpose import experiments
from cvpose.errors import (CvposeError, MissingGroundTruth, NonFiniteLoss,
                           NonPositiveDepth)
from cvpose.experiments import (ABLATION_VARIANTS, ablation_study,
                                build_variant, format_table, noise_robustness)
from cvpose.graph import default_topology
from cvpose.network import CVUGCN, NetworkConfig
from cvpose.syndata import SyntheticConfig, generate_dataset
from cvpose.training import (AmsGrad, TrainConfig, precompute_coarse,
                             train_epochs)


def small_train_config(**kw):
    base = dict(epochs=1, batch_size=8, channels=8, seed=0, init_seed=0)
    base.update(kw)
    return TrainConfig(**base)


def small_dataset(n=12, seed=3, sigma=3.0, **kw):
    cfg = SyntheticConfig(n_samples=n, seed=seed, sigma_px=sigma, **kw)
    return generate_dataset(cfg)


# -- variants -------------------------------------------------------------------

def test_build_variant_kernel_masks_and_fusion():
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    full = build_variant("full", topo, cfg)
    assert isinstance(full, CVUGCN)
    assert full.kernel_mask == frozenset()

    no_spatial = build_variant("no_spatial", topo, cfg)
    assert no_spatial.kernel_mask == frozenset({1, 2, 3})
    no_crossview = build_variant("no_crossview", topo, cfg)
    assert no_crossview.kernel_mask == frozenset({4})
    # no_crossview is the unfused model; no second name for it
    with pytest.raises(ValueError, match="unknown"):
        build_variant("no_fusion", topo, cfg)
    with pytest.raises(ValueError, match="unknown"):
        build_variant("fc", topo, cfg)
    with pytest.raises(ValueError):
        build_variant("kitchen_sink", topo, cfg)


def test_variants_compute_distinct_functions():
    # once the head is nonzero, masking kernels changes the output
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    rng = np.random.default_rng(2)
    J = topo.n_joints
    x1 = rng.standard_normal((J, 3)) * 50
    x2 = rng.standard_normal((J, 3)) * 50
    outs = {}
    for name in ("full", "no_spatial", "no_crossview"):
        model = build_variant(name, topo, cfg)
        model.weights.arrays["head"] = np.full((8, 3), 0.01)
        tape = ad.Tape()
        X1, _, _ = model.refine_batch(tape, x1, x2)
        outs[name] = X1.data.copy()
        tape.release()
    assert not np.allclose(outs["full"], outs["no_spatial"])
    assert not np.allclose(outs["full"], outs["no_crossview"])


# -- ablation study -------------------------------------------------------------

def test_ablation_study_rows_and_no_refine_baseline():
    train, rig, assumed = small_dataset(n=12)
    test, _, _ = small_dataset(n=8, seed=9)
    cfg = small_train_config()
    rows = ablation_study(train, test, assumed, cfg,
                          variants=("full", "no_refine"))
    assert [r["variant"] for r in rows] == ["full", "no_refine"]
    for r in rows:
        assert r["params"] > 0
        assert r["mpjpe_tri_mm"] > 0
        assert r["mpjpe_refined_mm"] > 0
    by_name = {r["variant"]: r for r in rows}
    # the untrained identity reproduces the triangulation numbers exactly
    nr = by_name["no_refine"]
    assert nr["mpjpe_refined_mm"] == nr["mpjpe_tri_mm"]
    # every variant is scored on the same coarse baseline
    tri = {r["mpjpe_tri_mm"] for r in rows}
    assert len(tri) == 1


def test_every_trained_variant_leaves_the_identity():
    # A variant that trains yet scores exactly the triangulation it was
    # given is triangulation under another name; each trained row must move.
    train, _, assumed = small_dataset(n=128, seed=11, sigma=5.0)
    test, _, _ = small_dataset(n=64, seed=12, sigma=5.0)
    cfg = TrainConfig(epochs=3, batch_size=32, channels=32, seed=11)
    rows = ablation_study(train, test, assumed, cfg)
    assert [r["variant"] for r in rows] == list(ABLATION_VARIANTS)
    for r in rows:
        if r["variant"] != "no_refine":
            assert r["mpjpe_refined_mm"] != r["mpjpe_tri_mm"], r["variant"]


def test_ablation_params_count_the_weights_each_variant_reads():
    # The weights of masked and all-zero kernel classes stay in the model,
    # but no convolution reads them, so the column does not count them.
    train, _, assumed = small_dataset(n=8)
    test, _, _ = small_dataset(n=4, seed=9)
    rows = ablation_study(train, test, assumed, small_train_config())
    params = {r["variant"]: r["params"] for r in rows}
    assert params["no_spatial"] < params["full"]
    assert params == {"full": 1784, "no_refine": 1784, "no_spatial": 752,
                      "no_crossview": 1464}


def _no_training(monkeypatch):
    trained = []
    monkeypatch.setattr(experiments, "train_epochs",
                        lambda model, *a: trained.append(model) or iter(()))
    return trained


@pytest.mark.parametrize("variants, message", [
    (("full", "no_spatial", "bogus"), "unknown variant 'bogus'; choose from "
     "full, no_refine, no_spatial, no_crossview"),
    (("full", "no_spatial", "full"), "variant 'full' is listed twice"),
])
def test_ablation_refuses_a_bad_variant_list_before_training(
        monkeypatch, variants, message):
    trained = _no_training(monkeypatch)
    train, _, assumed = small_dataset(n=4)
    with pytest.raises(CvposeError, match=message) as exc:
        ablation_study(train, train, assumed, small_train_config(),
                       variants=variants)
    assert isinstance(exc.value, ValueError)
    assert trained == []


def test_ablation_refuses_a_test_set_without_ground_truth_before_training(
        monkeypatch):
    trained = _no_training(monkeypatch)
    train, _, assumed = small_dataset(n=4)
    test, _, _ = small_dataset(n=4, seed=9, include_gt=False)
    with pytest.raises(MissingGroundTruth, match="carries no ground truth"):
        ablation_study(train, test, assumed, small_train_config())
    assert trained == []


def test_train_model_stops_when_an_epoch_scores_nothing(monkeypatch):
    # A variant whose refinements all land behind a camera has no loss to
    # train on; the loop the studies drive must stop rather than report a
    # model that never trained.
    train, rig, assumed = small_dataset(n=8)
    topo = default_topology()
    cfg = small_train_config(epochs=3)
    coarse, _ = precompute_coarse(train, assumed)
    model = build_variant("full", topo, cfg.network())

    def behind(*args, **kwargs):
        raise NonPositiveDepth("joint 0 behind the camera", joint=0)

    monkeypatch.setattr(training, "_batch_loss", behind)
    history = []
    with pytest.raises(NonFiniteLoss, match="epoch 0: no sample scored"):
        optimizer = AmsGrad({k: v.shape for k, v in model.weights.items()})
        for _ in train_epochs(model, optimizer, train, coarse, assumed, cfg,
                              history):
            pass
    assert history == []


def test_ablation_variant_list_is_exposed():
    assert "full" in ABLATION_VARIANTS
    assert "no_refine" in ABLATION_VARIANTS
    assert len(ABLATION_VARIANTS) == 4


# -- table formatting -------------------------------------------------------------

def test_format_table_alignment_and_rounding():
    rows = [{"variant": "full", "mpjpe": 21.03456, "params": 12345},
            {"variant": "fc", "mpjpe": 7.5, "params": 99}]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["variant", "mpjpe", "params"]
    assert set(lines[1]) <= {"-", " "}
    assert "21.035" in lines[2]
    assert "7.500" in lines[3]
    # all rows padded to the same width
    assert len({len(l) for l in lines}) == 1


def test_format_table_empty_and_first_row_columns():
    assert format_table([]) == "(no rows)"
    rows = [{"b": 2.0, "a": 1}, {"b": 0.5, "a": 10}]
    assert format_table(rows).splitlines() == [
        "b      a ", "-----  --", "2.000  1 ", "0.500  10"]


# -- noise robustness -------------------------------------------------------------

def test_noise_robustness_identity_model_tracks_input_noise():
    samples, rig, assumed = small_dataset(n=16, seed=5)
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)  # head at zero
    rows = noise_robustness(samples, assumed, model,
                            sigmas_mm=(5.0, 10.0, 20.0), seed=0)
    assert [r["sigma_mm"] for r in rows] == [5.0, 10.0, 20.0]
    for r in rows:
        # identity refinement returns the corrupted pose unchanged
        assert r["pmpjpe_refined_mm"] == pytest.approx(r["pmpjpe_coarse_mm"],
                                                       rel=1e-12)
    coarse = [r["pmpjpe_coarse_mm"] for r in rows]
    assert coarse[0] < coarse[1] < coarse[2]


def test_noise_robustness_is_seed_deterministic():
    samples, rig, assumed = small_dataset(n=8, seed=6)
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)
    a = noise_robustness(samples, assumed, model, sigmas_mm=(10.0,))
    b = noise_robustness(samples, assumed, model, sigmas_mm=(10.0,))
    assert a == b


def test_noise_robustness_without_coarse_poses_gives_nan_rows():
    # Nothing triangulated means nothing to corrupt: each level's means are
    # NaN, as in evaluate, and no "Mean of empty slice" warning escapes.
    _, rig, assumed = small_dataset(n=1, seed=7)
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(default_topology(), cfg)
    rows = noise_robustness([], assumed, model, sigmas_mm=(5.0, 10.0))
    assert [r["sigma_mm"] for r in rows] == [5.0, 10.0]
    for r in rows:
        assert np.isnan(r["pmpjpe_coarse_mm"])
        assert np.isnan(r["pmpjpe_refined_mm"])


def test_noise_robustness_requires_ground_truth():
    samples, rig, assumed = small_dataset(n=4, seed=7, include_gt=False)
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg)
    with pytest.raises(ValueError):
        noise_robustness(samples, assumed, model)
