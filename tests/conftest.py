"""Shared helpers for building small ray clouds and density fields."""

import numpy as np
import pytest

from raycanopy.density import DensityField
from raycanopy.raycloud import RayCloud
from raycanopy.voxels import VoxelGrid


def make_cloud(origins, endpoints, contact=None, max_range=100.0,
               times=None, frame_id="map") -> RayCloud:
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    n = len(origins)
    if contact is None:
        contact = np.ones(n, dtype=bool)
    if times is None:
        times = np.arange(n, dtype=float)
    return RayCloud(origins, endpoints, np.asarray(times, dtype=float),
                    np.asarray(contact, dtype=bool), max_range, frame_id)


def random_cloud(rng, n=500, box=5.0, max_range=100.0) -> RayCloud:
    origins = rng.uniform(-box, box, size=(n, 3))
    endpoints = rng.uniform(-box, box, size=(n, 3))
    return make_cloud(origins, endpoints, max_range=max_range)


def random_field(rng, max_dim=8) -> DensityField:
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, 3))
    grid = VoxelGrid(origin=rng.uniform(-3, 3, 3), voxel_width=float(rng.uniform(0.05, 0.3)),
                     dims=dims, row_index=int(rng.integers(0, 5)))
    density = rng.uniform(0.0, 8.0, dims)
    observed = rng.random(dims) < 0.8
    density[~observed] = 0.0
    return DensityField(grid=grid, density=density, observed=observed)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

