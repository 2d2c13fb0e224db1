"""Canopy density estimation from lidar ray clouds.

Library for turning globally registered ray clouds of row crops into
per-voxel leaf area densities: terrain extraction, row segmentation, voxel
ray accumulation, a debiased censored-exponential density estimator, spatial
integration and Monte Carlo validation of the statistical model. Import
names from their modules, e.g. `from raycanopy.pipeline import run_pipeline`.
"""

__version__ = "0.1.0"
