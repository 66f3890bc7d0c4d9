import numpy as np
import pytest

from cvpose import autodiff as ad
from cvpose.experiments import (ABLATION_VARIANTS, FCBaseline, ablation_study,
                                build_variant, format_table, noise_robustness,
                                unseen_pair_study)
from cvpose.graph import default_topology
from cvpose.network import CVUGCN, NetworkConfig, init_weights, param_count
from cvpose.syndata import SyntheticConfig, default_rig, generate_dataset
from cvpose.training import TrainConfig, precompute_coarse


def small_train_config(**kw):
    base = dict(epochs=1, batch_size=8, channels=8, seed=0, init_seed=0)
    base.update(kw)
    return TrainConfig(**base)


def small_dataset(n=12, seed=3, sigma=3.0, **kw):
    cfg = SyntheticConfig(n_samples=n, seed=seed, sigma_px=sigma, **kw)
    return generate_dataset(cfg)


# -- fully connected baseline --------------------------------------------------

def test_fc_baseline_matches_parameter_budget():
    topo = default_topology()
    for channels in (8, 32, 128):
        cfg = NetworkConfig(channels=channels)
        fc = FCBaseline(topo, cfg)
        budget = param_count(cfg)
        got = fc.weights.param_count
        d = 2 * topo.n_joints * 3
        assert got == 2 * d * fc.hidden
        # rounding the hidden width costs at most d parameters either way
        assert abs(got - budget) <= d


def test_fc_baseline_identity_at_init():
    topo = default_topology()
    fc = FCBaseline(topo, NetworkConfig(channels=8))
    rng = np.random.default_rng(0)
    J = topo.n_joints
    x1 = rng.standard_normal((2 * J, 3)) * 100
    x2 = rng.standard_normal((2 * J, 3)) * 100
    tape = ad.Tape()
    X1, X2, _ = fc.refine_batch(tape, x1, x2)
    assert np.array_equal(X1.data, x1)
    assert np.array_equal(X2.data, x2)


def test_fc_baseline_trains_through_shared_loop():
    # gradient flows into both layers once the head moves off zero
    topo = default_topology()
    fc = FCBaseline(topo, NetworkConfig(channels=8))
    rng = np.random.default_rng(1)
    J = topo.n_joints
    x1 = rng.standard_normal((J, 3)) * 50
    x2 = rng.standard_normal((J, 3)) * 50
    tape = ad.Tape()
    params = fc.param_leaves(tape)
    X1, X2, _ = fc.refine_batch(tape, x1, x2, params)
    loss = ad.reduce_sum(ad.norm_rows(ad.sub(X1, X2)))
    tape.backward(loss)
    assert np.abs(params["fc.w2"].grad).max() > 0
    tape.release()


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
    assert isinstance(build_variant("fc", topo, cfg), FCBaseline)
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
                          variants=("full", "no_refine", "fc"))
    assert [r["variant"] for r in rows] == ["full", "no_refine", "fc"]
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


def test_ablation_variant_list_is_exposed():
    assert "full" in ABLATION_VARIANTS
    assert "no_refine" in ABLATION_VARIANTS
    assert len(ABLATION_VARIANTS) == 5


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


def test_format_table_empty_and_column_selection():
    assert format_table([]) == "(no rows)"
    rows = [{"a": 1, "b": 2.0}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


# -- noise robustness -------------------------------------------------------------

def test_noise_robustness_identity_model_tracks_input_noise():
    samples, rig, assumed = small_dataset(n=16, seed=5)
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg, weights=init_weights(cfg))  # head at zero
    rows = noise_robustness(samples, assumed, model, topo,
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
    model = CVUGCN(topo, cfg, weights=init_weights(cfg))
    a = noise_robustness(samples, assumed, model, topo, sigmas_mm=(10.0,))
    b = noise_robustness(samples, assumed, model, topo, sigmas_mm=(10.0,))
    assert a == b


def test_noise_robustness_requires_ground_truth():
    samples, rig, assumed = small_dataset(n=4, seed=7, include_gt=False)
    topo = default_topology()
    cfg = NetworkConfig(channels=8)
    model = CVUGCN(topo, cfg, weights=init_weights(cfg))
    with pytest.raises(ValueError):
        noise_robustness(samples, assumed, model, topo)


# -- unseen pair study -------------------------------------------------------------

def test_unseen_pair_study_smoke():
    topo = default_topology()
    cameras = default_rig(n_cameras=3, separation_deg=40.0)
    cfg = SyntheticConfig(n_samples=8, seed=11, sigma_px=3.0)
    train, _, assumed = generate_dataset(cfg, topo, cameras,
                                         pairs=[("cam1", "cam2")])
    seen, _, _ = generate_dataset(
        SyntheticConfig(n_samples=4, seed=12, sigma_px=3.0), topo, cameras,
        pairs=[("cam1", "cam2")])
    unseen, _, _ = generate_dataset(
        SyntheticConfig(n_samples=4, seed=13, sigma_px=3.0), topo, cameras,
        pairs=[("cam2", "cam3")])
    rows, model = unseen_pair_study(train, seen, unseen, assumed,
                                    small_train_config())
    assert [r["split"] for r in rows] == ["seen", "unseen"]
    assert rows[0]["pair"] == "cam1+cam2"
    assert rows[1]["pair"] == "cam2+cam3"
    for r in rows:
        assert r["mpjpe_tri_mm"] > 0
    assert isinstance(model, CVUGCN)
