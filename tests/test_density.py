"""Debiased censored-exponential density estimator and its Gamma posterior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raycanopy.density import (DensityError, DensityField, GammaPosterior,
                               canopy_density, debias_factor, estimate_field,
                               lambda_stats, load_field, posterior, save_field,
                               uncensored_lambda)
from raycanopy.voxels import VoxelGrid, VoxelStats

from conftest import random_field


def _stats(n, m, sum_x, sum_y=None):
    return VoxelStats.aggregate(n, m, sum_x, sum_y if sum_y is not None else sum_x)


class TestPosterior:
    def test_flat_prior_no_hits(self):
        p = posterior(_stats(3, 0, 1.2))
        assert (p.alpha, p.beta) == (0.0, 1.2)

    def test_informative_prior_adds(self):
        p = posterior(_stats(5, 3, 2.0), prior_alpha=1.0, prior_beta=1.0)
        assert (p.alpha, p.beta) == (4.0, 3.0)

    def test_flat_prior_mean_is_hits_over_depth(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, n + 1))
            sum_x = float(rng.uniform(0.01, 5.0))
            mean, _, _ = lambda_stats(posterior(_stats(n, m, sum_x)))
            assert mean == pytest.approx(m / sum_x)

    def test_negative_parameters_rejected(self):
        with pytest.raises(DensityError):
            GammaPosterior(-1.0, 0.0)


class TestLambdaStats:
    def test_worked_values(self):
        mean, mode, var = lambda_stats(GammaPosterior(4.0, 2.0))
        assert (mean, mode, var) == (2.0, 1.5, 1.0)

    def test_mode_clamped_at_zero(self):
        _, mode, _ = lambda_stats(GammaPosterior(1.0, 5.0))
        assert mode == 0.0

    def test_empty_evidence(self):
        mean, mode, var = lambda_stats(GammaPosterior(0.0, 1.0))
        assert (mean, mode, var) == (0.0, 0.0, 0.0)

    def test_zero_beta_rejected(self):
        with pytest.raises(DensityError):
            lambda_stats(GammaPosterior(2.0, 0.0))


class TestCanopyDensity:
    def test_worked_value(self):
        d, v = canopy_density(_stats(20, 5, 0.8), g=2.0)
        assert d == pytest.approx(2 * (19 / 20) * 5 / 0.8)   # 11.875
        assert v == pytest.approx((2 * 19 / 20) ** 2 * 5 / 0.8 ** 2)

    def test_single_ray_gives_zero(self):
        d, v = canopy_density(_stats(1, 1, 0.05))
        assert d == 0.0 and v == 0.0   # d(1) = 0

    def test_no_hits_gives_zero(self):
        d, v = canopy_density(_stats(20, 0, 3.0))
        assert d == 0.0 and v == 0.0

    def test_unobserved_is_none(self):
        assert canopy_density(VoxelStats()) is None

    def test_mode_estimator(self):
        d_mean, _ = canopy_density(_stats(20, 5, 0.8), estimator="mean")
        d_mode, _ = canopy_density(_stats(20, 5, 0.8), estimator="mode")
        assert d_mode == pytest.approx(d_mean * 4 / 5)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(DensityError):
            canopy_density(_stats(20, 5, 0.8), estimator="median")

    def test_contact_without_penetration_rejected(self):
        with pytest.raises(DensityError, match="zero penetration"):
            canopy_density(_stats(20, 5, 0.0, 1.0))


class TestDebiasFactor:
    def test_boundary_and_limit(self):
        assert debias_factor(1) == 0.0
        values = [debias_factor(n) for n in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))   # monotone to 1
        assert values[-1] < 1.0
        assert debias_factor(10 ** 9) == pytest.approx(1.0, abs=1e-8)


class TestUncensored:
    def test_two_samples(self):
        lam, std = uncensored_lambda([1.0, 1.0])
        assert lam == 0.5
        assert std is None   # n - 2 = 0: undefined

    def test_std_formula(self):
        lam, std = uncensored_lambda([0.5, 0.5, 1.0])
        assert std == pytest.approx(lam / 1.0)

    def test_too_few_rejected(self):
        with pytest.raises(DensityError):
            uncensored_lambda([1.0])

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
        grid = VoxelGrid(origin=np.zeros(3), voxel_width=0.1, dims=(2, 2, 2))
        field = estimate_field({}, grid)
        assert not field.observed.any()
        assert field.total_leaf_area() == 0.0

    def test_single_voxel_matches_direct_estimate(self):
        grid = VoxelGrid(origin=np.zeros(3), voxel_width=0.1, dims=(1, 1, 1))
        s = _stats(30, 9, 0.9)
        field = estimate_field({(0, 0, 0): s}, grid, g=2.0)
        d, v = canopy_density(s, g=2.0)
        assert field.density[0, 0, 0] == pytest.approx(d)
        assert field.variance[0, 0, 0] == pytest.approx(v)
        assert field.observed[0, 0, 0]

    def test_turbid_scene_recovers_density(self, rng):
        # exponential interception at known lambda in unit-depth voxels
        lam, g = 2.5, 2.0
        grid = VoxelGrid(origin=np.zeros(3), voxel_width=1.0, dims=(4, 4, 4))
        stats = {}
        for key in np.ndindex(4, 4, 4):
            n = 4000
            draws = rng.exponential(1.0 / lam, n)
            x = np.minimum(draws, 1.0)
            stats[key] = VoxelStats(n=n, m=int((draws <= 1.0).sum()), x=x,
                                    y=np.ones(n))
        field = estimate_field(stats, grid, g=g)
        assert field.density.mean() == pytest.approx(g * lam, rel=0.05)


class TestFieldRoundTrip:
    def test_save_load(self, tmp_path, rng):
        field = random_field(rng)
        save_field(field, tmp_path / "f.rcdf")
        loaded = load_field(tmp_path / "f.rcdf")
        assert loaded.grid.dims == field.grid.dims
        assert loaded.g == field.g
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
        for size in (20, len(data) - 1):
            (tmp_path / "t.rcdf").write_bytes(data[:size])
            with pytest.raises(DensityError, match="t.rcdf.*truncated"):
                load_field(tmp_path / "t.rcdf")


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 500), m=st.integers(1, 500),
       sum_x=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3))
def test_scale_invariance(n, m, sum_x, c):
    m = min(m, n)
    d1, _ = canopy_density(_stats(n, m, sum_x))
    d2, _ = canopy_density(_stats(n, m, sum_x * c))
    assert d2 * c == pytest.approx(d1, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 500), m=st.integers(1, 500),
       sum_x=st.floats(1e-3, 1e3), delta=st.floats(0, 1e3))
def test_extra_noncontact_ray_monotonicity(n, m, sum_x, delta):
    m = min(m, n)
    d1, _ = canopy_density(_stats(n, m, sum_x))
    d2, _ = canopy_density(_stats(n + 1, m, sum_x + delta))
    bound = d1 * debias_factor(n + 1) / debias_factor(n)
    assert d2 <= bound * (1 + 1e-12)
