"""Spatial integration, panel aggregation, repeatability metrics and rasters."""

import numpy as np
import pytest

from raycanopy.density import DensityField
from raycanopy.report import (DensityImage, ReportError, RowSeries, along_row_series,
                              colormap_rgb, export_comparison_csv,
                              export_panels_csv, export_series_csv, integrate_axis,
                              load_series_csv, panel_aggregate, render_colormap, rrmse,
                              trend_line, with_lai, write_png)
from raycanopy.voxels import VoxelGrid

from conftest import random_field


def _uniform_field(value=3.0, dims=(2, 4, 3), w=0.1):
    grid = VoxelGrid(origin=np.zeros(3), voxel_width=w, dims=dims)
    density = np.full(dims, float(value))
    return DensityField(grid=grid, density=density, observed=np.ones(dims, dtype=bool))


class TestIntegrateAxis:
    def test_uniform_field_arithmetic(self):
        field = _uniform_field(value=3.0, dims=(2, 4, 3), w=0.1)
        img = integrate_axis(field, "x")
        assert img.values.shape == (4, 3)
        np.testing.assert_allclose(img.values, 3.0 * 2 * 0.1)
        img_z = integrate_axis(field, "z")
        np.testing.assert_allclose(img_z.values, 3.0 * 3 * 0.1)

    def test_conservation_across_axes(self, rng):
        for _ in range(5):
            field = random_field(rng)
            total = field.total_leaf_area()
            for axis in "xyz":
                img = integrate_axis(field, axis)
                assert img.total_leaf_area() == pytest.approx(total, rel=1e-9)
            series = along_row_series(field)
            assert series.total_leaf_area() == pytest.approx(total, rel=1e-9)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ReportError):
            integrate_axis(_uniform_field(), "w")

    def test_observed_propagates(self, rng):
        field = random_field(rng)
        img = integrate_axis(field, "y")
        np.testing.assert_array_equal(img.observed, field.observed.any(axis=1))


class TestPanels:
    def test_whole_panels(self):
        series = RowSeries(values=np.ones(130), step=0.7)   # 91 m of row
        panels = panel_aggregate(series, panel_length=7.0)
        assert len(panels) == 13
        assert all(p.length == pytest.approx(7.0) for p in panels)
        assert all(p.integrated_density == pytest.approx(1.0) for p in panels)

    def test_short_tail_merges(self):
        # 10 + 2 steps of 1 m with 10 m panels: the 2 m tail joins panel 0
        series = RowSeries(values=np.ones(12), step=1.0)
        panels = panel_aggregate(series, panel_length=10.0)
        assert len(panels) == 1
        assert panels[0].length == pytest.approx(12.0)
        # 1 m^2/m over 2.5 m rows is LAI 0.4 over the panel's own 12 m
        assert with_lai(panels, row_spacing=2.5)[0].lai == pytest.approx(0.4, rel=1e-12)

    def test_long_tail_kept(self):
        series = RowSeries(values=np.ones(16), step=1.0)
        panels = panel_aggregate(series, panel_length=10.0)
        assert len(panels) == 2
        assert panels[1].length == pytest.approx(6.0)
        assert with_lai(panels, row_spacing=2.5)[1].lai == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("panel_length", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_panel_length_rejected(self, panel_length):
        series = RowSeries(values=np.ones(10), step=1.0)
        with pytest.raises(ReportError, match="panel_length must be positive and finite"):
            panel_aggregate(series, panel_length)

    def test_lai_arithmetic(self):
        p, = with_lai(panel_aggregate(RowSeries(values=np.full(27, 32.24 / 5.4), step=0.2),
                                      panel_length=5.4), row_spacing=3.0)
        # leaf area 32.24 m^2 over a 5.4 m x 3 m footprint
        assert p.lai == pytest.approx(32.24 / (5.4 * 3.0), rel=1e-9)
        assert p.lai == pytest.approx(1.99, abs=0.01)

    def test_with_lai_fills_field(self):
        series = RowSeries(values=np.ones(10), step=1.0)
        panels = with_lai(panel_aggregate(series, 5.0), 2.5)
        assert all(p.lai is not None for p in panels)

    @pytest.mark.parametrize("row_spacing", [float("nan"), float("inf"), 0.0, -2.5])
    def test_bad_row_spacing_rejected(self, row_spacing):
        panels = panel_aggregate(RowSeries(values=np.ones(10), step=1.0), 5.0)
        with pytest.raises(ReportError, match="row_spacing must be positive and finite"):
            with_lai(panels, row_spacing)

    def test_empty_series(self):
        assert panel_aggregate(RowSeries(values=np.zeros(0), step=0.1), 7.0) == []


class TestMetrics:
    def test_rrmse_worked_example(self):
        assert rrmse([1.0, 1.0], [1.1, 0.9]) == pytest.approx(0.1)

    def test_rrmse_zero_for_identical(self):
        assert rrmse([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_rrmse_errors(self):
        with pytest.raises(ReportError):
            rrmse([1.0], [1.0, 2.0])
        with pytest.raises(ReportError):
            rrmse([1.0, -1.0], [-1.0, 1.0])

    def test_trend_line_exact_on_linear(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        slope, intercept = trend_line(a, 2.0 * a + 0.5)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(0.5)


class TestColormap:
    def test_endpoints_and_midpoint(self):
        vals = np.array([[0.0, 5.0, 10.0, 50.0]])
        rgb = colormap_rgb(vals, 10.0)
        np.testing.assert_array_equal(rgb[0, 0], [255, 0, 0])    # zero: red
        np.testing.assert_array_equal(rgb[0, 1], [0, 255, 0])    # half: green
        np.testing.assert_array_equal(rgb[0, 2], [0, 0, 255])    # max: blue
        np.testing.assert_array_equal(rgb[0, 3], [0, 0, 255])    # clamped above

    def test_unobserved_black(self):
        vals = np.array([[4.0, 4.0]])
        rgb = colormap_rgb(vals, 10.0, observed=np.array([[True, False]]))
        assert rgb[0, 1].sum() == 0
        assert rgb[0, 0].sum() > 0

    def test_nonpositive_max_rejected(self):
        with pytest.raises(ReportError):
            colormap_rgb(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("max_value", [float("nan"), float("inf")])
    def test_nonfinite_max_rejected(self, max_value):
        with pytest.raises(ReportError, match="max_value"):
            colormap_rgb(np.zeros((2, 2)), max_value)

    def test_png_written_with_signature(self, tmp_path):
        img = DensityImage(values=np.linspace(0, 10, 12).reshape(3, 4), pixel_size=0.1)
        render_colormap(img, 10.0, tmp_path / "i.png")
        data = (tmp_path / "i.png").read_bytes()
        assert data.startswith(b"\x89PNG\r\n\x1a\n")
        assert b"IHDR" in data and b"IEND" in data
        # 3x4 field renders transposed: 4 rows, 3 columns
        import struct
        w, h = struct.unpack(">2I", data[16:24])
        assert (w, h) == (3, 4)

    def test_uppercase_png_suffix_writes_png(self, tmp_path):
        img = DensityImage(values=np.ones((2, 2)), pixel_size=0.1)
        render_colormap(img, 10.0, tmp_path / "i.PNG")
        assert (tmp_path / "i.PNG").read_bytes().startswith(b"\x89PNG\r\n\x1a\n")

    def test_unknown_suffix_rejected(self, tmp_path):
        img = DensityImage(values=np.ones((2, 2)), pixel_size=0.1)
        with pytest.raises(ReportError, match=r"i\.jpg: unknown image suffix '\.jpg'"):
            render_colormap(img, 10.0, tmp_path / "i.jpg")
        assert not (tmp_path / "i.jpg").exists()
        with pytest.raises(ReportError, match=r"'\.ppm', expected \.png$"):
            render_colormap(img, 10.0, tmp_path / "i.ppm")
        assert not (tmp_path / "i.ppm").exists()

    def test_png_decodes_back(self, tmp_path):
        try:
            from PIL import Image
        except ImportError:
            pytest.skip("pillow not installed")
        rgb = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        write_png(rgb, tmp_path / "i.png")
        back = np.asarray(Image.open(tmp_path / "i.png"))
        np.testing.assert_array_equal(back, rgb)


class TestCsvOutputs:
    def test_series_csv(self, tmp_path):
        export_series_csv(RowSeries(values=np.array([1.0, 2.0]), step=0.5),
                          tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "y_m,density_m2_per_m"
        assert lines[1].startswith("0.25,")
        back = load_series_csv(tmp_path / "s.csv")
        np.testing.assert_array_equal(back.values, [1.0, 2.0])
        assert back.step == 0.5

    def test_panels_csv_with_lai(self, tmp_path):
        series = RowSeries(values=np.ones(10), step=1.0)
        panels = with_lai(panel_aggregate(series, 5.0), 2.5)
        export_panels_csv(panels, tmp_path / "p.csv", row_index=2)
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "row,panel,mean_density,lai"
        assert lines[1] == "2,0,1,0.4"

    def test_comparison_csv_has_trend(self, tmp_path):
        export_comparison_csv([0, 1, 2], [1.0, 2.0, 3.0], [1.1, 2.0, 2.9],
                              tmp_path / "c.csv")
        text = (tmp_path / "c.csv").read_text()
        assert "# trend slope=" in text


class TestValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(ReportError):
            DensityImage(values=np.array([[-1.0]]), pixel_size=0.1)
        with pytest.raises(ReportError):
            RowSeries(values=np.array([-0.1]), step=0.1)
