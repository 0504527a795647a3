import math

import numpy as np
import pytest

from hqflow import geometry as geo


class TestBoundaryIntegral:
    def test_disk_circumference(self):
        val = geo.boundary_integral(geo.Disk(1.0), lambda x, y: 1.0 + 0 * x)
        assert abs(val - 2.0 * math.pi) <= 1e-10

    def test_ellipse_refinement_limit(self):
        dom = geo.Ellipse(2.0, 1.0)
        coarse = geo.boundary_integral(dom, lambda x, y: 1.0 + 0 * x,
                                       panels=4096)
        fine = geo.boundary_integral(dom, lambda x, y: 1.0 + 0 * x,
                                     panels=8192)
        assert abs(coarse - fine) <= 1e-8

    def test_disk_exact_under_panel_doubling(self):
        # constants integrate exactly at every count, so the error is
        # already below any order-two envelope
        dom = geo.Disk(1.5)
        for p in (16, 32, 64, 128):
            val = geo.boundary_integral(dom, lambda x, y: 1.0 + 0 * x,
                                        panels=p)
            assert abs(val - 3.0 * math.pi) <= 1e-12


class TestBuildGrid:
    def test_disk_node_counts(self):
        g = geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=8)
        assert g.shape == (4, 8)
        assert g.n_nodes == 32
        assert int(g.boundary_mask.sum()) == 8

    def test_outer_ring_on_boundary(self):
        g = geo.build_grid(geo.Disk(2.0), n_r=6, n_theta=16)
        rr = np.hypot(g.x[-1, :], g.y[-1, :])
        assert rr == pytest.approx(np.full(16, 2.0), abs=1e-13)

    def test_no_pole_node(self):
        g = geo.build_grid(geo.Disk(1.0), n_r=5, n_theta=8)
        assert np.min(np.hypot(g.x, g.y)) > 0.0
        assert g.r[0] == pytest.approx(0.5 * g.dr)

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="n_r >= 4"):
            geo.build_grid(geo.Disk(1.0), n_r=3, n_theta=8)
        with pytest.raises(ValueError, match="even n_theta >= 8"):
            geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=9)

    @pytest.mark.parametrize("dom, sizes, field", [
        (geo.Disk(1.0), {"n_r": 3, "n_theta": 8}, "n_r"),
        (geo.Disk(1.0), {"n_r": 4, "n_theta": 9}, "n_theta"),
        (geo.Ellipse(1.0, 0.5), {"n_theta": 8}, "n_r"),
        (geo.Disk(1.0), {"n_r": 4}, "n_theta")])
    def test_grid_size_errors_name_their_field(self, dom, sizes, field):
        with pytest.raises(geo.ArgumentError) as exc:
            geo.build_grid(dom, **sizes)
        assert exc.value.field == field

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain") as exc:
            geo.build_grid("square", n_r=4, n_theta=8)
        assert not isinstance(exc.value, geo.ArgumentError)

    def test_invalid_domain_parameters(self):
        with pytest.raises(ValueError):
            geo.Disk(0.0)
        with pytest.raises(ValueError):
            geo.Ellipse(1.0, -2.0)

    @pytest.mark.parametrize("make, field", [
        (lambda: geo.Disk(1e-200), "radius"),
        (lambda: geo.Disk(math.inf), "radius"),
        (lambda: geo.Ellipse(math.nan, 1.0), "a"),
        (lambda: geo.Ellipse(1.0, 1e200), "b"),
        (lambda: geo.Disk(1e-160), "radius")])
    def test_size_error_names_its_field(self, make, field):
        # a size whose square underflows to 0 or overflows, or whose
        # inverse square overflows, is rejected
        with pytest.raises(geo.ArgumentError, match=field) as exc:
            make()
        assert exc.value.field == field


class TestExportCsv:
    def test_snapshot_format(self, tmp_path):
        g = geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=8)
        u = g.x + 2.0 * g.y
        path = tmp_path / "snap.csv"
        geo.export_csv(g, u, path, metadata=("command=flow", "grid=polar 4x8"))
        lines = path.read_text().splitlines()
        assert lines[0] == "# command=flow"
        assert lines[1] == "# grid=polar 4x8"
        assert lines[2] == "x,y,u"
        assert len(lines) == 3 + 32
        x0, y0, u0 = (float(v) for v in lines[3].split(","))
        assert (x0, y0) == (g.x.ravel()[0], g.y.ravel()[0])
        assert u0 == u.ravel()[0]

    def test_rewrite_is_byte_identical(self, tmp_path):
        g = geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=8)
        u = np.sin(g.x) * np.cos(g.y)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        geo.export_csv(g, u, p1)
        geo.export_csv(g, u, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_mismatch_rejected(self):
        g = geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=8)
        with pytest.raises(ValueError, match="shape"):
            geo.export_csv(g, np.zeros((3, 3)), "unused.csv")
