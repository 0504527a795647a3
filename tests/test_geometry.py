import math

import numpy as np
import pytest

from hqflow import geometry as geo


class TestDistance:
    def test_disk_center_and_boundary(self):
        dom = geo.Disk(1.0)
        assert geo.distance(dom, (0.0, 0.0)) == 1.0
        assert geo.distance(dom, (1.0, 0.0)) == 0.0

    def test_ellipse_center(self):
        dom = geo.Ellipse(2.0, 1.0)
        assert geo.distance(dom, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_ellipse_vertices(self):
        dom = geo.Ellipse(2.0, 1.0)
        assert geo.distance(dom, (2.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert geo.distance(dom, (0.0, -1.0)) == pytest.approx(0.0, abs=1e-12)
        assert geo.distance(dom, (1.0, 0.0)) < 1.0

    def test_square_faces(self):
        dom = geo.Square(1.0)
        assert geo.distance(dom, (0.0, 0.0)) == 1.0
        assert geo.distance(dom, (0.4, -0.9)) == pytest.approx(0.1)

    def test_lipschitz_along_rays(self):
        rng = np.random.default_rng(5)
        doms = [geo.Disk(1.5), geo.Ellipse(2.0, 0.7), geo.Square(1.2)]
        for dom in doms:
            for _ in range(40):
                x = rng.uniform(-1.0, 1.0, 2)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                step = 1e-4 * np.array([math.cos(phi), math.sin(phi)])
                slope = abs(geo.distance(dom, x + step)
                            - geo.distance(dom, x)) / 1e-4
                assert slope <= 1.0 + 1e-8

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            geo.distance(geo.Disk(1.0), (math.nan, 0.0))


class TestNormal:
    def test_disk(self):
        nu = geo.normal(geo.Disk(1.0), (1.0, 0.0))
        assert nu == pytest.approx([1.0, 0.0])

    def test_square_face(self):
        nu = geo.normal(geo.Square(1.0), (1.0, 0.3))
        assert nu == pytest.approx([1.0, 0.0])

    def test_square_corner_diagonal(self):
        nu = geo.normal(geo.Square(1.0), (-1.0, 1.0))
        assert nu == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)])

    def test_ellipse_vertex(self):
        nu = geo.normal(geo.Ellipse(2.0, 1.0), (2.0, 0.0))
        assert nu == pytest.approx([1.0, 0.0])

    def test_unit_length_and_outward(self):
        rng = np.random.default_rng(8)
        dom = geo.Ellipse(1.7, 0.9)
        for _ in range(50):
            th = rng.uniform(0.0, 2.0 * math.pi)
            x = (dom.a * math.cos(th), dom.b * math.sin(th))
            nu = geo.normal(dom, x)
            assert abs(math.hypot(*nu) - 1.0) <= 1e-12
            x_int = rng.uniform(-0.3, 0.3, 2)
            assert nu @ (np.asarray(x) - x_int) > 0.0

    def test_off_boundary_rejected(self):
        with pytest.raises(ValueError, match="not on the boundary"):
            geo.normal(geo.Disk(1.0), (0.5, 0.0))

    def test_matches_distance_gradient(self):
        # nu = -grad(distance) by central differences across the boundary
        for dom, x in [(geo.Disk(1.3), (1.3, 0.0)),
                       (geo.Ellipse(2.0, 1.0), (2.0 / math.sqrt(2),
                                                1.0 / math.sqrt(2))),
                       (geo.Square(1.0), (1.0, -0.2))]:
            nu = geo.normal(dom, x)
            h = 1e-6
            fd = np.array([
                -(geo.distance(dom, (x[0] + h, x[1]))
                  - geo.distance(dom, (x[0] - h, x[1]))) / (2 * h),
                -(geo.distance(dom, (x[0], x[1] + h))
                  - geo.distance(dom, (x[0], x[1] - h))) / (2 * h)])
            assert nu == pytest.approx(fd, abs=1e-5)


class TestBoundaryIntegral:
    def test_disk_circumference(self):
        val = geo.boundary_integral(geo.Disk(1.0), lambda x, y: 1.0 + 0 * x)
        assert abs(val - 2.0 * math.pi) <= 1e-10

    def test_square_perimeter_exact(self):
        val = geo.boundary_integral(geo.Square(1.0), lambda x, y: 1.0 + 0 * x)
        assert val == 8.0

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

    def test_order_two_on_square(self):
        # per-face trapezoid on a smooth integrand converges at order 2
        dom = geo.Square(1.0)
        exact = 16.0 / 3.0
        errs = [abs(geo.boundary_integral(dom, lambda x, y: x**2 + y**3,
                                          panels=p) - exact)
                for p in (64, 128, 256)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9
        assert max(orders) <= 2.1


class TestBuildGrid:
    def test_disk_node_counts(self):
        g = geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=8)
        assert g.shape == (4, 8)
        assert g.n_nodes == 32
        assert int(g.boundary_mask.sum()) == 8

    def test_square_node_counts(self):
        g = geo.build_grid(geo.Square(1.0), n=9)
        assert g.n_nodes == 81
        assert int(g.boundary_mask.sum()) == 32

    def test_outer_ring_on_boundary(self):
        g = geo.build_grid(geo.Disk(2.0), n_r=6, n_theta=16)
        rr = np.hypot(g.x[-1, :], g.y[-1, :])
        assert rr == pytest.approx(np.full(16, 2.0), abs=1e-13)

    def test_no_pole_node(self):
        g = geo.build_grid(geo.Disk(1.0), n_r=5, n_theta=8)
        assert np.min(np.hypot(g.x, g.y)) > 0.0
        assert g.r[0] == pytest.approx(0.5 * g.dr)

    def test_ellipse_normals_unit_and_consistent(self):
        dom = geo.Ellipse(2.0, 1.0)
        g = geo.build_grid(dom, n_r=6, n_theta=24)
        bmask = g.boundary_mask
        norms = np.hypot(g.normal_x[bmask], g.normal_y[bmask])
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        for i in range(0, 24, 5):
            x = (g.x[-1, i], g.y[-1, i])
            nu = geo.normal(dom, x)
            assert nu == pytest.approx([g.normal_x[-1, i], g.normal_y[-1, i]],
                                       abs=1e-10)

    def test_boundary_weights_sum_to_perimeter(self):
        g = geo.build_grid(geo.Disk(1.0), n_r=8, n_theta=64)
        assert g.bweight.sum() == pytest.approx(2.0 * math.pi, rel=1e-12)
        gs = geo.build_grid(geo.Square(1.0), n=17)
        assert gs.bweight.sum() == pytest.approx(8.0, rel=1e-12)

    def test_resolution_validation(self):
        with pytest.raises(ValueError, match="n_r >= 4"):
            geo.build_grid(geo.Disk(1.0), n_r=3, n_theta=8)
        with pytest.raises(ValueError, match="even n_theta >= 8"):
            geo.build_grid(geo.Disk(1.0), n_r=4, n_theta=9)
        with pytest.raises(ValueError, match="n >= 8"):
            geo.build_grid(geo.Square(1.0), n=7)

    @pytest.mark.parametrize("dom, sizes, field", [
        (geo.Disk(1.0), {"n_r": 3, "n_theta": 8}, "n_r"),
        (geo.Disk(1.0), {"n_r": 4, "n_theta": 9}, "n_theta"),
        (geo.Ellipse(1.0, 0.5), {"n_theta": 8}, "n_r"),
        (geo.Disk(1.0), {"n_r": 4}, "n_theta"),
        (geo.Square(1.0), {"n": 7}, "n"),
        (geo.Square(1.0), {}, "n")])
    def test_grid_size_errors_name_their_field(self, dom, sizes, field):
        with pytest.raises(geo.ArgumentError) as exc:
            geo.build_grid(dom, **sizes)
        assert exc.value.field == field

    def test_invalid_domain_parameters(self):
        with pytest.raises(ValueError):
            geo.Disk(0.0)
        with pytest.raises(ValueError):
            geo.Ellipse(1.0, -2.0)
        with pytest.raises(ValueError):
            geo.Square(-1.0)

    @pytest.mark.parametrize("make, field", [
        (lambda: geo.Disk(1e-200), "radius"),
        (lambda: geo.Disk(math.inf), "radius"),
        (lambda: geo.Ellipse(math.nan, 1.0), "a"),
        (lambda: geo.Ellipse(1.0, 1e200), "b"),
        (lambda: geo.Square(math.inf), "half_width"),
        (lambda: geo.Disk(1e-160), "radius")])
    def test_size_error_names_its_field(self, make, field):
        # a size whose square underflows to 0 or overflows, or whose
        # inverse square overflows, is rejected
        with pytest.raises(geo.ArgumentError, match=field) as exc:
            make()
        assert exc.value.field == field


class TestExportCsv:
    def test_snapshot_format(self, tmp_path):
        g = geo.build_grid(geo.Square(1.0), n=8)
        u = g.x + 2.0 * g.y
        path = tmp_path / "snap.csv"
        geo.export_csv(g, u, path, metadata=("grid=8x8", "outside_theory=true"))
        lines = path.read_text().splitlines()
        assert lines[0] == "# grid=8x8"
        assert lines[1] == "# outside_theory=true"
        assert lines[2] == "x,y,u"
        assert len(lines) == 3 + 64
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
        g = geo.build_grid(geo.Square(1.0), n=8)
        with pytest.raises(ValueError, match="shape"):
            geo.export_csv(g, np.zeros((3, 3)), "unused.csv")
