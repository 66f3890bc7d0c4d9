import xml.etree.ElementTree as ET

import numpy as np

from cvpose.graph import default_topology
from cvpose.render import render_sample, save_svg
from cvpose.syndata import SyntheticConfig, generate_dataset
from cvpose.training import precompute_coarse

SVG_NS = "{http://www.w3.org/2000/svg}"
TOPO = default_topology()


def one_sample(sigma=2.0, include_gt=True, seed=4):
    cfg = SyntheticConfig(n_samples=1, seed=seed, sigma_px=sigma,
                          include_gt=include_gt)
    samples, rig, assumed = generate_dataset(cfg)
    return samples[0], rig, assumed


def test_render_sample_is_well_formed_svg():
    sample, rig, _ = one_sample()
    svg = render_sample(sample, rig, TOPO)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    tags = {child.tag for child in root.iter()}
    assert f"{SVG_NS}line" in tags
    assert f"{SVG_NS}circle" in tags
    assert f"{SVG_NS}text" in tags


def test_render_sample_draws_all_layers():
    sample, rig, assumed = one_sample()
    topo = default_topology()
    coarse, _ = precompute_coarse([sample], assumed)
    x1, x2 = coarse.poses[0]
    svg = render_sample(sample, rig, topo, coarse=(x1, x2),
                        refined=(x1 + 1.0, x2 + 1.0))
    ET.fromstring(svg)
    # every legend entry has a drawn counterpart
    for label in ("detections", "clean 2d", "gt", "coarse", "refined"):
        assert label in svg
    # a panel per view in both pixel and 3D space
    for v in sample.pair:
        assert f"{v} pixels" in svg
        assert f"{v} 3D ortho" in svg


def test_render_sample_without_3d_content():
    sample, rig, _ = one_sample(include_gt=False)
    svg = render_sample(sample, rig, TOPO)
    ET.fromstring(svg)
    for v in sample.pair:
        assert f"{v} 3D (no data)" in svg


def test_render_default_title_names_the_sample():
    sample, rig, _ = one_sample()
    svg = render_sample(sample, rig, TOPO)
    assert f"sample {sample.sample_id}" in svg


def test_save_svg_roundtrip(tmp_path):
    sample, rig, _ = one_sample()
    svg = render_sample(sample, rig, TOPO)
    path = tmp_path / "fig.svg"
    save_svg(path, svg)
    assert path.read_text() == svg + "\n"
    ET.fromstring(path.read_text())


def test_render_is_deterministic():
    sample, rig, _ = one_sample()
    assert render_sample(sample, rig, TOPO) == render_sample(sample, rig, TOPO)
