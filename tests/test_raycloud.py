"""Ray cloud model and file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raycanopy.raycloud import (RayCloud, RayCloudError, RayCloudParseError,
                                load_raycloud, save_raycloud)

from conftest import make_cloud, random_cloud


class TestValidate:
    def test_over_length_names_offending_ray(self):
        cloud = make_cloud([[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [9, 0, 0]],
                           max_range=5.0)
        with pytest.raises(RayCloudError, match="ray 1"):
            cloud.validate()

    def test_noncontact_must_sit_at_max_range(self):
        cloud = make_cloud([[0, 0, 0]], [[1, 0, 0]], contact=[False], max_range=5.0)
        with pytest.raises(RayCloudError, match="expected max_range"):
            cloud.validate()

    def test_unsorted_times_rejected(self):
        cloud = make_cloud([[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0]],
                           times=[1.0, 0.0])
        with pytest.raises(RayCloudError, match="sorted"):
            cloud.validate()

    def test_arrays_are_frozen(self):
        cloud = make_cloud([[0, 0, 0]], [[1, 0, 0]])
        with pytest.raises(ValueError):
            cloud.origins[0, 0] = 9.0


class TestFileRoundTrip:
    def _assert_equal(self, a: RayCloud, b: RayCloud):
        # endpoint, ray vector and time channels are stored exactly; the origin
        # is reconstructed as endpoint + ray vector, one rounding away at most
        np.testing.assert_allclose(b.origins, a.origins, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(a.endpoints, b.endpoints)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.contact, b.contact)
        assert a.max_range == b.max_range and a.frame_id == b.frame_id

    def test_empty_cloud_ply(self, tmp_path):
        z = np.zeros((0, 3))
        cloud = RayCloud(z, z, np.zeros(0), np.zeros(0, dtype=bool), 25.0, "veh")
        save_raycloud(cloud, tmp_path / "c.ply")
        self._assert_equal(cloud, load_raycloud(tmp_path / "c.ply"))

    def test_single_ray_ply(self, tmp_path):
        cloud = make_cloud([[0.1, -0.2, 0.3]], [[4.0, 5.0, 6.0]], max_range=30.0)
        save_raycloud(cloud, tmp_path / "c.ply")
        self._assert_equal(cloud, load_raycloud(tmp_path / "c.ply"))

    def test_large_cloud_lossless(self, tmp_path, rng):
        n = 100_000
        origins = rng.uniform(-50, 50, size=(n, 3))
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        lengths = rng.uniform(0.01, 99.9, n)
        cloud = make_cloud(origins, origins + dirs * lengths[:, None],
                           contact=rng.random(n) < 0.8)
        # non-contacts must sit exactly at max_range
        nc = ~cloud.contact
        endpoints = cloud.endpoints.copy()
        endpoints[nc] = origins[nc] + dirs[nc] * 100.0
        cloud = make_cloud(origins, endpoints, contact=cloud.contact)
        save_raycloud(cloud, tmp_path / "c.ply")
        loaded = load_raycloud(tmp_path / "c.ply")
        self._assert_equal(cloud, loaded)
        # the format is a fixed point: saving the loaded cloud reproduces the bytes
        save_raycloud(loaded, tmp_path / "c2.ply")
        assert (tmp_path / "c2.ply").read_bytes() == (tmp_path / "c.ply").read_bytes()

    def test_csv_roundtrip(self, tmp_path, rng):
        cloud = random_cloud(rng, n=37)
        save_raycloud(cloud, tmp_path / "c.csv")
        loaded = load_raycloud(tmp_path / "c.csv")
        np.testing.assert_allclose(loaded.endpoints, cloud.endpoints)
        np.testing.assert_allclose(loaded.origins, cloud.origins)

    def test_truncated_ply_rejected(self, tmp_path, rng):
        cloud = random_cloud(rng, n=10)
        save_raycloud(cloud, tmp_path / "c.ply")
        data = (tmp_path / "c.ply").read_bytes()
        (tmp_path / "t.ply").write_bytes(data[:-8])
        with pytest.raises(RayCloudParseError, match="truncated"):
            load_raycloud(tmp_path / "t.ply")

    def test_missing_max_range_rejected(self, tmp_path, rng):
        cloud = random_cloud(rng, n=10)
        save_raycloud(cloud, tmp_path / "c.ply")
        data = (tmp_path / "c.ply").read_bytes().replace(b"comment max_range",
                                                         b"comment other_field")
        (tmp_path / "t.ply").write_bytes(data)
        with pytest.raises(RayCloudParseError, match="max_range"):
            load_raycloud(tmp_path / "t.ply")

    @pytest.mark.parametrize("old, new, fault", [
        (b"comment max_range 100.0", b"comment max_range abc", r":3: .*could not convert"),
        (b"element vertex 1", b"element vertex -3", r":5: .*negative vertex count -3"),
        (b"format binary_little_endian 1.0", b"format", r":2: .*unsupported format"),
    ])
    def test_bad_header_line_rejected(self, tmp_path, old, new, fault):
        save_raycloud(make_cloud([[0, 0, 0]], [[1, 0, 0]], max_range=100.0),
                      tmp_path / "c.ply")
        data = (tmp_path / "c.ply").read_bytes()
        assert data.count(old) == 1
        (tmp_path / "t.ply").write_bytes(data.replace(old, new))
        with pytest.raises(RayCloudParseError, match=r"t\.ply" + fault):
            load_raycloud(tmp_path / "t.ply")

    @pytest.mark.parametrize("old, new, fault", [
        ("# max_range 100.0 frame_id map", "# max_range abc", r":1: .*could not convert"),
        ("# max_range 100.0 frame_id map", "# frame_id map max_range", r":1: .*missing field"),
        ("1,0,0,-1,0,0,0,1", "1,0,0,-1,0,0,0", r":3: .*expected 8 columns, got 7"),
        ("1,0,0,-1,0,0,0,1", "1,x,0,-1,0,0,0,1", r":3: .*could not convert"),
        ("1,0,0,-1,0,0,0,1", "1,0,0,-1,0,0,0,1.5", r":3: .*invalid literal for int"),
        ("1,0,0,-1,0,0,0,1", "1,0,0,-1,0,0,0,257", r":3: .*flags 257 outside 0\.\.255"),
        ("1,0,0,-1,0,0,0,1", "1,0,0,-1,0,0,0,-1", r":3: .*flags -1 outside 0\.\.255"),
    ])
    def test_bad_csv_line_rejected(self, tmp_path, old, new, fault):
        save_raycloud(make_cloud([[0, 0, 0]], [[1, 0, 0]], max_range=100.0),
                      tmp_path / "c.csv")
        text = (tmp_path / "c.csv").read_text()
        assert text.count(old) == 1
        (tmp_path / "t.csv").write_text(text.replace(old, new))
        with pytest.raises(RayCloudParseError, match=r"t\.csv" + fault):
            load_raycloud(tmp_path / "t.csv")

    def test_trailing_body_bytes_rejected(self, tmp_path, rng):
        save_raycloud(random_cloud(rng, n=10), tmp_path / "c.ply")
        (tmp_path / "t.ply").write_bytes((tmp_path / "c.ply").read_bytes() + b"\0" * 3)
        with pytest.raises(RayCloudParseError,
                           match=r"t\.ply:5: 3 bytes after the 10 declared records"):
            load_raycloud(tmp_path / "t.ply")

    def test_load_rejects_overlong_ray(self, tmp_path):
        cloud = make_cloud([[0, 0, 0]], [[9, 0, 0]], max_range=100.0)
        save_raycloud(cloud, tmp_path / "c.ply")
        data = (tmp_path / "c.ply").read_bytes().replace(b"max_range 100.0",
                                                         b"max_range 5.0\n#")
        (tmp_path / "t.ply").write_bytes(data)
        with pytest.raises(RayCloudError, match="ray 0"):
            load_raycloud(tmp_path / "t.ply")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)),
                min_size=1, max_size=20),
       st.integers(0, 2 ** 31 - 1))
def test_ply_roundtrip_property(points, seed):
    rng = np.random.default_rng(seed)
    endpoints = np.asarray(points)
    origins = endpoints + rng.normal(scale=3.0, size=endpoints.shape)
    ok = np.linalg.norm(endpoints - origins, axis=1) > 1e-6
    cloud = make_cloud(origins[ok], endpoints[ok], max_range=1000.0)
    import tempfile
    with tempfile.NamedTemporaryFile(suffix=".ply") as f:
        save_raycloud(cloud, f.name)
        loaded = load_raycloud(f.name)
    np.testing.assert_array_equal(loaded.endpoints, cloud.endpoints)
    np.testing.assert_allclose(loaded.origins, cloud.origins, rtol=0, atol=1e-9)
