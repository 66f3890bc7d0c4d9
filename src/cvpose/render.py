"""SVG rendering of samples: per-view detections plus 3D skeleton overlays.

Pure string assembly, no drawing dependencies. Each figure holds one panel
per camera view (pixel space) and one orthographic 3D panel per view
overlaying ground truth, coarse and refined skeletons.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .files import atomic_write

PANEL = 300.0
MARGIN = 18.0
GT_COLOR = "#2a9d34"
COARSE_COLOR = "#e08030"
REFINED_COLOR = "#2060d0"
DETECTION_COLOR = "#c04040"
CLEAN_COLOR = "#9a9a9a"


def _fmt(v):
    return f"{v:.2f}"


def _line(x1, y1, x2, y2, color, width=1.2, dash=None):
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"{d}/>')


def _circle(x, y, r, color):
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>'


def _text(x, y, s, size=11):
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" fill="#202020">{escape(s)}</text>')


def _fit(points_list, x0, y0):
    """Affine map from data coordinates into one panel, aspect preserved."""
    pts = np.vstack(points_list)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (PANEL - 2 * MARGIN) / span.max()
    mid = (lo + hi) / 2.0

    def to_panel(p):
        q = (np.asarray(p) - mid) * scale
        return (x0 + PANEL / 2.0 + q[0], y0 + PANEL / 2.0 + q[1])

    return to_panel


def _skeleton_2d(parts, pts2, topo, to_panel, color, dash=None):
    for parent, child in topo.bones:
        x1, y1 = to_panel(pts2[parent])
        x2, y2 = to_panel(pts2[child])
        parts.append(_line(x1, y1, x2, y2, color, dash=dash))


def render_sample(sample, cameras, topo, coarse=None, refined=None):
    """One SVG figure for a dataset sample.

    coarse and refined, when given, hold the sample's two camera-frame
    (J, 3) joint arrays in its view order: a (2, J, 3) stack, such as a row
    of `CoarsePoses.poses`, or an (X1, X2) pair. Ground truth is drawn
    when present.
    """
    by_id = {c.cam_id: c for c in cameras}
    views = list(sample.pair)
    n_panels = len(views) * 2
    width = n_panels * PANEL
    height = PANEL + 40.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
             f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>']
    parts.append(_text(10, 16, f"sample {sample.sample_id}", size=13))

    # pixel-space panels
    for i, v in enumerate(views):
        cam = by_id[v]
        x0, y0 = i * PANEL, 30.0
        parts.append(f'<rect x="{_fmt(x0 + 4)}" y="{_fmt(y0 + 4)}" '
                     f'width="{_fmt(PANEL - 8)}" height="{_fmt(PANEL - 8)}" '
                     f'fill="none" stroke="#d0d0d0"/>')
        corners = np.array([[0.0, 0.0], [cam.width, cam.height]])
        to_panel = _fit([corners], x0, y0)
        _skeleton_2d(parts, sample.joints_2d_clean[v], topo, to_panel,
                     CLEAN_COLOR)
        for p in sample.joints_2d[v]:
            x, y = to_panel(p)
            parts.append(_circle(x, y, 2.0, DETECTION_COLOR))
        parts.append(_text(x0 + 10, y0 + 16, f"{v} pixels"))

    # orthographic 3D panels (x-y plane of each camera frame)
    per_view = {0: [], 1: []}
    for k, v in enumerate(views):
        if sample.joints_3d_gt:
            per_view[k].append(sample.joints_3d_gt[v][:, :2])
        if coarse is not None:
            per_view[k].append(np.asarray(coarse[k])[:, :2])
        if refined is not None:
            per_view[k].append(np.asarray(refined[k])[:, :2])
    for k, v in enumerate(views):
        x0, y0 = (len(views) + k) * PANEL, 30.0
        parts.append(f'<rect x="{_fmt(x0 + 4)}" y="{_fmt(y0 + 4)}" '
                     f'width="{_fmt(PANEL - 8)}" height="{_fmt(PANEL - 8)}" '
                     f'fill="none" stroke="#d0d0d0"/>')
        if not per_view[k]:
            parts.append(_text(x0 + 10, y0 + 16, f"{v} 3D (no data)"))
            continue
        to_panel = _fit(per_view[k], x0, y0)
        if sample.joints_3d_gt:
            _skeleton_2d(parts, sample.joints_3d_gt[v][:, :2], topo,
                         to_panel, GT_COLOR)
        if coarse is not None:
            _skeleton_2d(parts, np.asarray(coarse[k])[:, :2], topo, to_panel,
                         COARSE_COLOR, dash="4 3")
        if refined is not None:
            _skeleton_2d(parts, np.asarray(refined[k])[:, :2], topo, to_panel,
                         REFINED_COLOR)
        parts.append(_text(x0 + 10, y0 + 16, f"{v} 3D ortho"))

    # legend
    ly = height - 8.0
    legend = [("detections", DETECTION_COLOR), ("clean 2d", CLEAN_COLOR),
              ("gt", GT_COLOR), ("coarse", COARSE_COLOR),
              ("refined", REFINED_COLOR)]
    lx = 10.0
    for label, color in legend:
        parts.append(_line(lx, ly - 4, lx + 16, ly - 4, color, width=3))
        parts.append(_text(lx + 20, ly, label, size=10))
        lx += 110.0

    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(path, svg_text):
    with atomic_write(path) as fh:
        fh.write(svg_text)
        if not svg_text.endswith("\n"):
            fh.write("\n")
