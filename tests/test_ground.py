"""Lower-bound terrain extraction, height queries and ground subtraction."""

import numpy as np
import pytest

from raycanopy.ground import (GroundExtractionError, GroundMesh, export_obj,
                              extract_ground, height_at, heights_at, import_obj,
                              subtract_ground)

from conftest import make_cloud


def _cloud_from_points(points, max_range=100.0):
    points = np.asarray(points, dtype=float)
    origins = points + np.array([0.0, 0.0, 2.0])
    return make_cloud(origins, points, max_range=max_range)


def _random_terrain_cloud(rng, n=400, extent=10.0):
    xy = rng.uniform(-extent, extent, size=(n, 2))
    z = 0.4 * np.sin(xy[:, 0] / 3.0) + 0.3 * np.cos(xy[:, 1] / 2.0) \
        + 0.02 * rng.normal(size=n)
    return _cloud_from_points(np.column_stack([xy, z]))


def _exhaustive_height(mesh: GroundMesh, x, y):
    """Loop every triangle; the oracle for the binned height_at query."""
    best = None
    for tri in mesh.triangles:
        a, b, c = mesh.vertices[tri]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(det) < 1e-18:
            continue
        w1 = ((x - a[0]) * (c[1] - a[1]) - (y - a[1]) * (c[0] - a[0])) / det
        w2 = ((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])) / det
        if w1 >= -1e-9 and w2 >= -1e-9 and w1 + w2 <= 1 + 1e-9:
            best = a[2] + w1 * (b[2] - a[2]) + w2 * (c[2] - a[2])
            break
    return best


class TestExtractGround:
    def test_planar_points_give_flat_mesh(self, rng):
        xy = rng.uniform(-5, 5, size=(300, 2))
        cloud = _cloud_from_points(np.column_stack([xy, np.full(300, 3.0)]))
        mesh = extract_ground(cloud)
        for x, y in rng.uniform(-4, 4, size=(50, 2)):
            h = height_at(mesh, float(x), float(y))
            assert h is not None
            assert abs(h - 3.0) < 1e-6

    def test_points_above_plane_are_ignored(self, rng):
        xy = rng.uniform(-5, 5, size=(300, 2))
        ground = np.column_stack([xy, np.zeros(300)])
        canopy = np.column_stack([rng.uniform(-4, 4, size=(100, 2)), np.full(100, 5.0)])
        cloud = _cloud_from_points(np.vstack([ground, canopy]))
        mesh = extract_ground(cloud)
        for x, y in rng.uniform(-3, 3, size=(50, 2)):
            assert abs(height_at(mesh, float(x), float(y))) < 1e-6

    def test_mesh_lower_bounds_every_contact_point(self, rng):
        cloud = _random_terrain_cloud(rng)
        mesh = extract_ground(cloud)
        pts = cloud.endpoints[cloud.contact]
        h = heights_at(mesh, pts[:, :2])
        inside = np.isfinite(h)
        assert inside.sum() > 0.9 * len(pts)
        assert np.all(h[inside] <= pts[inside, 2] + 1e-6)

    def test_translation_invariance(self, rng):
        cloud = _random_terrain_cloud(rng, n=250)
        shift = np.array([137.0, -54.0, 12.0])
        shifted = make_cloud(cloud.origins + shift, cloud.endpoints + shift)
        mesh = extract_ground(cloud)
        mesh_s = extract_ground(shifted)
        queries = rng.uniform(-6, 6, size=(100, 2))
        h = heights_at(mesh, queries)
        h_s = heights_at(mesh_s, queries + shift[:2])
        both = np.isfinite(h) & np.isfinite(h_s)
        assert both.sum() > 50
        np.testing.assert_allclose(h_s[both] - shift[2], h[both], atol=1e-6)

    def test_larger_curvature_hugs_valleys_closer(self, rng):
        # a pure valley: higher k lets the hull bend further down into it
        x = np.linspace(-8, 8, 200)
        y = rng.uniform(-5, 5, 200)
        z = 0.05 * x ** 2
        cloud = _cloud_from_points(np.column_stack([x, y, z]))
        gap_small = gap_large = 0.0
        for k, out in ((0.01, "small"), (0.5, "large")):
            mesh = extract_ground(cloud, k=k)
            h = heights_at(mesh, np.column_stack([x, y]))
            ok = np.isfinite(h)
            gap = float(np.mean(z[ok] - h[ok]))
            if out == "small":
                gap_small = gap
            else:
                gap_large = gap
        assert gap_large <= gap_small + 1e-9

    def test_too_few_points_rejected(self):
        cloud = _cloud_from_points([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(GroundExtractionError, match=">= 4"):
            extract_ground(cloud)

    def test_nonpositive_curvature_rejected(self, rng):
        with pytest.raises(GroundExtractionError):
            extract_ground(_random_terrain_cloud(rng, n=50), k=0.0)


class TestHeightAt:
    def test_outside_footprint_is_none(self, rng):
        cloud = _random_terrain_cloud(rng, n=100, extent=3.0)
        mesh = extract_ground(cloud)
        assert height_at(mesh, 100.0, 100.0) is None

    def test_matches_exhaustive_triangle_search(self, rng):
        cloud = _random_terrain_cloud(rng, n=300)
        mesh = extract_ground(cloud)
        for x, y in rng.uniform(-11, 11, size=(2000, 2)):
            fast = height_at(mesh, float(x), float(y))
            slow = _exhaustive_height(mesh, float(x), float(y))
            if fast is None or slow is None:
                assert fast is None and slow is None
            else:
                assert abs(fast - slow) < 1e-9


class TestSubtractGround:
    def test_planar_subtraction_zeroes_ground(self, rng):
        xy = rng.uniform(-5, 5, size=(300, 2))
        cloud = _cloud_from_points(np.column_stack([xy, np.full(300, 3.0)]))
        mesh = extract_ground(cloud)
        flat, dropped = subtract_ground(mesh, cloud)
        kept = len(cloud) - dropped
        assert len(flat) == kept
        np.testing.assert_allclose(flat.endpoints[:, 2], 0.0, atol=1e-6)

    def test_ray_lengths_preserved(self, rng):
        cloud = _random_terrain_cloud(rng)
        mesh = extract_ground(cloud)
        flat, dropped = subtract_ground(mesh, cloud)
        h = heights_at(mesh, cloud.endpoints[:, :2])
        keep = np.isfinite(h)
        np.testing.assert_allclose(flat.lengths, cloud.lengths[keep], atol=1e-9)

    def test_flattened_min_height_near_zero(self, rng):
        cloud = _random_terrain_cloud(rng)
        mesh = extract_ground(cloud)
        flat, _ = subtract_ground(mesh, cloud)
        z = flat.endpoints[:, 2]
        assert z.min() >= -1e-6         # mesh is a lower bound
        assert z.min() < 0.15           # and a tight one


class TestObjRoundTrip:
    def test_export_import(self, tmp_path, rng):
        cloud = _random_terrain_cloud(rng, n=150)
        mesh = extract_ground(cloud)
        export_obj(mesh, tmp_path / "g.obj")
        loaded = import_obj(tmp_path / "g.obj")
        assert loaded.bin_size == pytest.approx(mesh.bin_size, rel=1e-6)
        np.testing.assert_array_equal(loaded.triangles, mesh.triangles)
        np.testing.assert_allclose(loaded.vertices, mesh.vertices, rtol=1e-7, atol=1e-7)
        queries = rng.uniform(-8, 8, size=(200, 2))
        np.testing.assert_allclose(heights_at(loaded, queries), heights_at(mesh, queries),
                                   rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("face, fault", [
        ("f 0 1 2", r"g\.obj:5: face \[0, 1, 2\] indexes outside vertices 1\.\.3"),
        ("f 1 2 4", r"g\.obj:5: face \[1, 2, 4\] indexes outside vertices 1\.\.3"),
        ("f 1 two 3", r"g\.obj:5: invalid literal"),
    ])
    def test_bad_face_rejected(self, tmp_path, face, fault):
        (tmp_path / "g.obj").write_text(
            "# bin_size 1.0\nv 0 0 0\nv 1 0 0\nv 0 1 0\n" + face + "\n")
        with pytest.raises(GroundExtractionError, match=fault):
            import_obj(tmp_path / "g.obj")

    def test_import_empty_rejected(self, tmp_path):
        (tmp_path / "g.obj").write_text("# nothing\n")
        with pytest.raises(GroundExtractionError):
            import_obj(tmp_path / "g.obj")
