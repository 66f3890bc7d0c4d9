"""Two-view 3D human pose estimation.

Coarse poses come from per-joint optimal two-view triangulation of paired
2D keypoints; a cross-view U-shaped graph convolutional network refines
them using only 2D annotations and camera geometry as supervision.
"""

__version__ = "0.1.0"
