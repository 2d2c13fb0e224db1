"""Debiased censored-exponential density estimator over dense voxel statistics."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raycanopy.density import (DensityError, DensityField, estimate, estimate_field,
                               load_field, save_field)
from raycanopy.voxels import VoxelGrid, VoxelStats

from conftest import random_field


def _grid(dims):
    return VoxelGrid(origin=np.zeros(3), voxel_width=0.1, dims=dims)


def _dense(n, m, sum_x):
    """Dense VoxelStats from arrays (or scalars, for a one-voxel grid)."""
    n, m, sum_x = (np.asarray(a).reshape(np.shape(a) or (1, 1, 1)) for a in (n, m, sum_x))
    return VoxelStats(n.astype(np.int64), m.astype(np.int64), sum_x.astype(float))


def _one(n, m, sum_x, **kwargs):
    """(density, observed) of a one-voxel grid."""
    field = estimate_field(_dense(n, m, sum_x), _grid((1, 1, 1)), **kwargs)
    return field.density[0, 0, 0], field.observed[0, 0, 0]


class TestCanopyDensity:
    def test_worked_value(self):
        d, observed = _one(20, 5, 0.8, g=2.0)
        assert d == pytest.approx(11.875)   # 2 * (19/20) * 5/0.8
        assert observed

    def test_single_ray_gives_zero(self):
        d, _ = _one(1, 1, 0.05)
        assert d == 0.0   # d(1) = 0

    def test_no_hits_gives_zero(self):
        d, observed = _one(20, 0, 3.0)
        assert d == 0.0
        assert observed

    def test_no_rays_leaves_voxel_unobserved(self):
        d, observed = _one(0, 0, 0.0)
        assert d == 0.0
        assert not observed

    def test_mode_estimator(self):
        for m in (1, 5):   # m = 1: the mode is 0
            d_mean, _ = _one(20, m, 0.8, estimator="mean")
            d_mode, _ = _one(20, m, 0.8, estimator="mode")
            assert d_mode == pytest.approx(d_mean * (m - 1) / m)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(DensityError, match="unknown estimator 'median'"):
            _one(20, 5, 0.8, estimator="median")

    def test_contact_without_penetration_rejected(self):
        n = np.full((2, 3, 2), 20)
        sum_x = np.full((2, 3, 2), 1.0)
        sum_x[1, 2, 0] = sum_x[1, 2, 1] = 0.0
        with pytest.raises(DensityError, match=r"voxel \(1, 2, 0\): .*zero penetration"):
            estimate_field(_dense(n, np.full((2, 3, 2), 5), sum_x), _grid((2, 3, 2)))


class TestPosterior:
    def test_flat_prior_mean_is_hits_over_depth(self, rng):
        n = rng.integers(2, 40, size=(50, 1, 1))
        m = rng.integers(1, n + 1)
        sum_x = rng.uniform(0.01, 5.0, size=n.shape)
        field = estimate_field(_dense(n, m, sum_x), _grid(n.shape), g=1.0)
        np.testing.assert_allclose(field.density / ((n - 1) / n), m / sum_x, rtol=1e-12)


class TestDebiasFactor:
    def test_boundary_and_limit(self):
        # one contact over unit depth at g = 1: the density is the factor (n-1)/n
        def factor(n):
            return estimate(n, 1, 1.0, g=1.0)
        assert factor(1) == 0.0
        values = factor(np.arange(1, 200))
        assert np.all(np.diff(values) > 0)   # monotone to 1
        assert values[-1] < 1.0
        assert factor(10 ** 9) == pytest.approx(1.0, abs=1e-8)
        assert estimate(np.arange(1, 200), 1, 1.0, g=1.0, debias=False).tolist() == [1.0] * 199


class TestEstimate:
    @pytest.mark.parametrize("estimator", ["mean", "mode"])
    def test_scalar_n_broadcasts_over_trials(self, rng, estimator):
        # the Monte Carlo suite's call: one n for every trial
        m = rng.integers(0, 12, 500)
        sum_x = rng.uniform(0.05, 2.0, 500)
        for debias in (True, False):
            density = estimate(12, m, sum_x, g=2.0, estimator=estimator, debias=debias)
            want = estimate(np.full(500, 12), m, sum_x, g=2.0, estimator=estimator, debias=debias)
            np.testing.assert_array_equal(density, want)
        raw = estimate(12, m, sum_x, g=2.0, debias=False)
        np.testing.assert_array_equal(raw, np.where(m > 0, 2.0 * (m / sum_x), 0.0))


class TestUncensored:
    def test_unbiased_monte_carlo(self, rng):
        lam_true = 3.0
        batches, n = 100_000, 50
        x = rng.exponential(1.0 / lam_true, size=(batches, n))
        est = (n - 1) / x.sum(axis=1)
        se = est.std(ddof=1) / np.sqrt(batches)
        assert abs(est.mean() - lam_true) < 3 * se
        assert abs(est.mean() - lam_true) / lam_true < 0.01


class TestEstimateField:
    def test_empty_grid_all_unobserved(self):
        zeros = np.zeros((2, 2, 2))
        field = estimate_field(_dense(zeros, zeros, zeros), _grid((2, 2, 2)))
        assert not field.observed.any()
        assert field.total_leaf_area() == 0.0

    @pytest.mark.parametrize("estimator", ["mean", "mode"])
    def test_matches_scalar_formula(self, rng, estimator):
        # unlisted (n = 0), m = 0 and n = 1 voxels among ordinary ones
        dims, g = (6, 5, 4), 2.0
        n = rng.integers(0, 30, size=dims)
        n[0, 0, :] = 0
        n[1, 0, :] = 1
        m = rng.integers(0, n + 1)
        m[2, 0, :] = 0
        sum_x = np.where(n > 0, rng.uniform(0.01, 3.0, size=dims), 0.0)
        field = estimate_field(_dense(n, m, sum_x), _grid(dims), g=g, estimator=estimator)
        density = np.zeros(dims)
        for key in np.ndindex(*dims):
            ni, mi, sx = int(n[key]), int(m[key]), float(sum_x[key])
            if mi == 0:
                continue
            lam = mi / sx if estimator == "mean" else max((mi - 1) / sx, 0.0)
            scale = g * ((ni - 1) / ni)
            density[key] = scale * lam
        assert {0, 1} <= set(n.ravel()) and (m[n > 0] == 0).any()
        np.testing.assert_array_equal(field.density, density)
        np.testing.assert_array_equal(field.observed, n > 0)

    def test_turbid_scene_recovers_density(self, rng):
        # exponential interception at known lambda in unit-depth voxels
        lam, g, n = 2.5, 2.0, 4000
        draws = rng.exponential(1.0 / lam, size=(4, 4, 4, n))
        sum_x = np.minimum(draws, 1.0).sum(axis=-1)
        m = (draws <= 1.0).sum(axis=-1)
        grid = VoxelGrid(origin=np.zeros(3), voxel_width=1.0, dims=(4, 4, 4))
        field = estimate_field(_dense(np.full((4, 4, 4), n), m, sum_x), grid, g=g)
        assert field.density.mean() == pytest.approx(g * lam, rel=0.05)


class TestFieldRoundTrip:
    def test_save_load(self, tmp_path, rng):
        field = random_field(rng)
        save_field(field, tmp_path / "f.rcdf")
        loaded = load_field(tmp_path / "f.rcdf")
        assert (loaded.grid.dims, loaded.grid.row_index) == (field.grid.dims, field.grid.row_index)
        np.testing.assert_allclose(loaded.grid.origin, field.grid.origin)
        np.testing.assert_allclose(loaded.density, field.density, rtol=1e-6)
        np.testing.assert_array_equal(loaded.observed, field.observed)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "f.rcdf").write_bytes(b"JUNK" * 20)
        with pytest.raises(DensityError):
            load_field(tmp_path / "f.rcdf")

    def test_truncated_file_rejected(self, tmp_path, rng):
        save_field(random_field(rng), tmp_path / "f.rcdf")
        data = (tmp_path / "f.rcdf").read_bytes()
        short = len(data) - 1
        for size, fault in ((20, r"truncated header \(20 bytes\)"),
                            (short, rf"{short} bytes where grid .* needs {len(data)}")):
            (tmp_path / "t.rcdf").write_bytes(data[:size])
            with pytest.raises(DensityError, match=rf"t\.rcdf: {fault}"):
                load_field(tmp_path / "t.rcdf")

    # the density plane follows the 53-byte header: float32, row-major
    @pytest.mark.parametrize("voxel, value, fault", [
        ((0, 1, 2), np.nan, "density=nan, observed=True"),
        ((0, 1, 2), -1.0, "density=-1.0, observed=True"),
        ((0, 1, 2), np.inf, "density=inf, observed=True"),
        ((1, 2, 3), 0.5, "density=0.5, observed=False"),
    ], ids=["nan-density", "negative-density", "inf-density", "unobserved-density"])
    def test_bad_voxel_rejected(self, tmp_path, voxel, value, fault):
        dims = (2, 3, 4)
        observed = np.ones(dims, dtype=bool)
        observed[1, 2, 3] = False
        field = DensityField(grid=_grid(dims), density=np.where(observed, 3.0, 0.0),
                             observed=observed)
        save_field(field, tmp_path / "p.rcdf")
        data = bytearray((tmp_path / "p.rcdf").read_bytes())
        struct.pack_into("<f", data, 53 + 4 * np.ravel_multi_index(voxel, dims), value)
        (tmp_path / "p.rcdf").write_bytes(bytes(data))
        with pytest.raises(DensityError, match=rf"p\.rcdf: voxel {re.escape(str(voxel))}: "
                                               rf"{fault}: needs a finite density >= 0, "
                                               "and 0 where unobserved"):
            load_field(tmp_path / "p.rcdf")

    # header: magic (5 bytes), dims <3i, voxel width <d, origin <3d, row index <i
    @pytest.mark.parametrize("offset, value, fault", [
        (17, 0.0, "voxel width 0.0 is not finite and positive"),
        (17, -0.1, "voxel width -0.1 is not finite and positive"),
        (17, np.nan, "voxel width nan is not finite and positive"),
        (33, np.inf, "grid origin .* is not finite"),
    ], ids=["zero-width", "negative-width", "nan-width", "inf-origin"])
    def test_bad_header_rejected(self, tmp_path, rng, offset, value, fault):
        save_field(random_field(rng), tmp_path / "h.rcdf")
        data = bytearray((tmp_path / "h.rcdf").read_bytes())
        struct.pack_into("<d", data, offset, value)
        (tmp_path / "h.rcdf").write_bytes(bytes(data))
        with pytest.raises(DensityError, match=rf"h\.rcdf: {fault}"):
            load_field(tmp_path / "h.rcdf")

    def test_version_1_file_rejected(self, tmp_path, rng):
        # the version-1 layout: a header with g, then density, variance and observed bits
        grid = random_field(rng).grid
        header = struct.pack("<3id3ddi", *grid.dims, grid.voxel_width, *grid.origin, 2.0,
                             grid.row_index)
        count = grid.voxel_count
        body = bytes(8 * count + (count + 7) // 8)
        (tmp_path / "v1.rcdf").write_bytes(b"RCDF\x01" + header + body)
        with pytest.raises(DensityError, match=r"v1\.rcdf: not a density field file "
                                               r"\(RCDF version 2\)"):
            load_field(tmp_path / "v1.rcdf")

    def test_one_plane_and_observed_bits(self, tmp_path, rng):
        field = random_field(rng)
        save_field(field, tmp_path / "f.rcdf")
        data = (tmp_path / "f.rcdf").read_bytes()
        count = field.grid.voxel_count
        assert data[:5] == b"RCDF\x02"
        assert len(data) == 5 + struct.calcsize("<3id3di") + 4 * count + (count + 7) // 8


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 500), m=st.integers(1, 500),
       sum_x=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3))
def test_scale_invariance(n, m, sum_x, c):
    m = min(m, n)
    d1, _ = _one(n, m, sum_x)
    d2, _ = _one(n, m, sum_x * c)
    assert d2 * c == pytest.approx(d1, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 500), m=st.integers(1, 500),
       sum_x=st.floats(1e-3, 1e3), delta=st.floats(0, 1e3))
def test_extra_noncontact_ray_monotonicity(n, m, sum_x, delta):
    m = min(m, n)
    d1, _ = _one(n, m, sum_x)
    d2, _ = _one(n + 1, m, sum_x + delta)
    bound = d1 * (n / (n + 1)) / ((n - 1) / n)
    assert d2 <= bound * (1 + 1e-12)
