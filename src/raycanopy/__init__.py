"""Canopy density estimation from lidar ray clouds.

Library for turning globally registered ray clouds of row crops into
per-voxel leaf area densities: terrain extraction, row segmentation, voxel
ray accumulation, a debiased censored-exponential density estimator, spatial
integration and Monte Carlo validation of the statistical model.
"""

__version__ = "0.1.0"

from .density import DensityField, estimate, estimate_field, load_field, save_field
from .ground import (GroundMesh, extract_ground, height_at, heights_at,
                     subtract_ground)
from .pipeline import PipelineConfig, run_pipeline
from .raycloud import Ray, RayCloud, load_raycloud, save_raycloud
from .report import (DensityImage, PanelSummary, RowSeries, along_row_series,
                     integrate_axis, panel_aggregate, panel_lai, render_colormap, rrmse)
from .rows import RowSegment, Trajectory, row_direction, split_rows, to_row_coordinates
from .simulate import (NormalDistributionSpec, bias_curves, debiased_error_surface,
                       sample_turbid, trawl_vs_spin, triangle_bias_experiment)
from .synthetic import VineyardSpec, simulate_scan, terrain_height
from .voxels import VoxelGrid, VoxelStats, accumulate, build_grid, expand_undersampled, traverse


__all__ = [name for name in dir() if not name.startswith("_")]
