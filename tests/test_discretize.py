"""Tests of the finite-difference operators and the Neumann closure."""

import math

import numpy as np
import pytest

from hqflow import discretize, flow, geometry


def _orders(errs):
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


class TestCartesianOperators:
    def test_hessian_exact_on_quadratics(self):
        g = geometry.build_grid(geometry.Square(1.0), n=33)
        u = 1.5 * g.x**2 + 0.25 * g.x * g.y - 0.5 * g.y**2 + 3 * g.x - 2 * g.y + 7
        hxx, hxy, hyy = discretize.hessian(g, u)
        inner = g.interior_mask
        assert np.max(np.abs(hxx[inner] - 3.0)) <= 1e-11
        assert np.max(np.abs(hxy[inner] - 0.25)) <= 1e-11
        assert np.max(np.abs(hyy[inner] + 1.0)) <= 1e-11

    def test_hessian_cross_term_xy(self):
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        hxx, hxy, hyy = discretize.hessian(g, g.x * g.y)
        inner = g.interior_mask
        assert np.max(np.abs(hxy[inner] - 1.0)) <= 1e-11
        assert np.max(np.abs(hxx[inner])) <= 1e-11
        assert np.max(np.abs(hyy[inner])) <= 1e-11

    def test_hessian_second_order_on_smooth_field(self):
        errs = []
        for n in (17, 33, 65):
            g = geometry.build_grid(geometry.Square(1.0), n=n)
            u = np.sin(g.x) * np.cos(g.y)
            hxx, hxy, hyy = discretize.hessian(g, u)
            inner = g.interior_mask
            exx = -np.sin(g.x) * np.cos(g.y)
            exy = -np.cos(g.x) * np.sin(g.y)
            errs.append(max(np.max(np.abs((hxx - exx)[inner])),
                            np.max(np.abs((hxy - exy)[inner])),
                            np.max(np.abs((hyy - exx)[inner]))))
        for p in _orders(errs):
            assert 1.8 <= p <= 2.2

    def test_gradient_exact_on_linears(self):
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        gx, gy = discretize.gradient(g, 3 * g.x - g.y)
        assert np.max(np.abs(gx - 3.0)) <= 1e-12
        assert np.max(np.abs(gy + 1.0)) <= 1e-12

    def test_gradient_second_order(self):
        errs = []
        for n in (17, 33, 65):
            g = geometry.build_grid(geometry.Square(1.0), n=n)
            u = np.exp(g.x + g.y)
            gx, gy = discretize.gradient(g, u)
            errs.append(max(np.max(np.abs(gx - u)), np.max(np.abs(gy - u))))
        for p in _orders(errs):
            assert 1.8 <= p <= 2.2


class TestPolarOperators:
    def test_disk_radial_quadratic_is_exact(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        u = 0.5 * (g.x**2 + g.y**2)
        hxx, hxy, hyy = discretize.hessian(g, u)
        inner = g.interior_mask
        assert np.max(np.abs(hxx[inner] - 1.0)) <= 1e-12
        assert np.max(np.abs(hxy[inner])) <= 1e-12
        assert np.max(np.abs(hyy[inner] - 1.0)) <= 1e-12
        gx, gy = discretize.gradient(g, u)
        assert np.max(np.abs(gx - g.x)) <= 1e-13
        assert np.max(np.abs(gy - g.y)) <= 1e-13

    def test_hessian_second_order_away_from_pole(self):
        dom = geometry.Ellipse(1.3, 0.9)
        errs = []
        for nr, nt in ((16, 32), (32, 64), (64, 128)):
            g = geometry.build_grid(dom, n_r=nr, n_theta=nt)
            u = np.sin(g.x) * np.cos(g.y)
            hxx, hxy, hyy = discretize.hessian(g, u)
            exx = -np.sin(g.x) * np.cos(g.y)
            exy = -np.cos(g.x) * np.sin(g.y)
            sel = g.interior_mask & (g.r[:, None] >= 0.3)
            errs.append(max(np.max(np.abs((hxx - exx)[sel])),
                            np.max(np.abs((hxy - exy)[sel])),
                            np.max(np.abs((hyy - exx)[sel]))))
        for p in _orders(errs):
            assert 1.8 <= p <= 2.2

    def test_hessian_converges_at_pole_ring(self):
        # the innermost ring sees the m=1 mode at first order only;
        # the error must still shrink under refinement
        dom = geometry.Ellipse(1.3, 0.9)
        errs = []
        for nr, nt in ((16, 32), (32, 64), (64, 128)):
            g = geometry.build_grid(dom, n_r=nr, n_theta=nt)
            u = np.sin(g.x) * np.cos(g.y)
            hxx, hxy, hyy = discretize.hessian(g, u)
            exx = -np.sin(g.x) * np.cos(g.y)
            exy = -np.cos(g.x) * np.sin(g.y)
            inner = g.interior_mask
            errs.append(max(np.max(np.abs((hxx - exx)[inner])),
                            np.max(np.abs((hxy - exy)[inner])),
                            np.max(np.abs((hyy - exx)[inner]))))
        assert errs[0] > errs[1] > errs[2]
        for p in _orders(errs):
            assert 0.7 <= p <= 2.3

    def test_gradient_second_order_everywhere(self):
        dom = geometry.Ellipse(1.3, 0.9)
        errs = []
        for nr, nt in ((16, 32), (32, 64), (64, 128)):
            g = geometry.build_grid(dom, n_r=nr, n_theta=nt)
            u = np.exp(g.x + g.y)
            gx, gy = discretize.gradient(g, u)
            errs.append(max(np.max(np.abs(gx - u)), np.max(np.abs(gy - u))))
        for p in _orders(errs):
            assert 1.8 <= p <= 2.2

    def test_phantom_ring_crosses_pole(self):
        # an odd function must differentiate cleanly through the pole
        g = geometry.build_grid(geometry.Disk(1.0), n_r=32, n_theta=64)
        gx, gy = discretize.gradient(g, g.x)
        assert np.max(np.abs(gx - 1.0)) <= 0.01
        assert np.max(np.abs(gy)) <= 0.01


class TestNeumannClosure:
    def test_square_quadratic_boundary_recovered_exactly(self):
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        ustar = 0.5 * (g.x**2 + g.y**2)
        phi = lambda x, y, v: np.ones_like(x)
        u = ustar.copy()
        u[g.boundary_mask] = 0.0
        out = discretize.apply_neumann(g, u, phi)
        assert np.max(np.abs(out - ustar)) <= 1e-12
        assert np.max(np.abs(discretize.neumann_residual(g, out, phi))) <= 1e-12

    def test_square_idempotent(self):
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        phi = lambda x, y, v: np.ones_like(x)
        u = 0.5 * (g.x**2 + g.y**2)
        once = discretize.apply_neumann(g, u, phi)
        twice = discretize.apply_neumann(g, once, phi)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_square_with_u_dependent_phi(self):
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(g.shape)
        phi = lambda x, y, v: -v
        out = discretize.apply_neumann(g, u, phi)
        assert np.max(np.abs(discretize.neumann_residual(g, out, phi))) <= 1e-12
        inner = ~g.boundary_mask
        assert np.array_equal(out[inner], u[inner])

    def test_disk_quadratic_boundary_recovered_exactly(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        ustar = 0.5 * (g.x**2 + g.y**2)
        phi = lambda x, y, v: np.ones_like(x)
        u = ustar.copy()
        u[-1] = -7.0
        out = discretize.apply_neumann(g, u, phi)
        assert np.max(np.abs(out - ustar)) <= 1e-12

    def test_ellipse_residual_and_convergence(self):
        dom = geometry.Ellipse(1.4, 0.8)

        def phi(x, y, v):
            s = np.exp(x / 2 + y / 3)
            nx, ny = x / 1.4**2, y / 0.8**2
            nn = np.sqrt(nx**2 + ny**2)
            return s * (nx / 2 + ny / 3) / nn

        errs = []
        for nr, nt in ((16, 32), (32, 64), (64, 128)):
            g = geometry.build_grid(dom, n_r=nr, n_theta=nt)
            ustar = np.exp(g.x / 2 + g.y / 3)
            u = ustar.copy()
            u[-1] = 0.0
            out = discretize.apply_neumann(g, u, phi)
            errs.append(np.max(np.abs(out[-1] - ustar[-1])))
            res = discretize.neumann_residual(g, out, phi)
            assert np.max(np.abs(res)) <= 1e-12
            again = discretize.apply_neumann(g, out, phi)
            assert np.max(np.abs(again - out)) <= 1e-12
        # interior data is exact here, so the recovery superconverges
        for p in _orders(errs):
            assert 1.8 <= p <= 3.6

    def test_no_sign_change_is_rejected(self):
        # phi growing faster in u than the one-sided stencil slope makes
        # the boundary relation decreasing, with no root to bracket
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        u = np.zeros(g.shape)
        with pytest.raises(ValueError, match="sign change"):
            discretize.apply_neumann(g, u, lambda x, y, v: 100.0 * v)


CLOSURE_GRIDS = {
    "disk": lambda: geometry.build_grid(geometry.Disk(1.0),
                                        n_r=16, n_theta=32),
    "ellipse": lambda: geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                           n_r=16, n_theta=32),
    "square": lambda: geometry.build_grid(geometry.Square(1.0), n=17),
}


def _closure_input(g):
    u = 0.5 * (g.x**2 + g.y**2) + 0.1 * np.sin(1.3 * g.x + 0.4 * g.y)
    u[g.boundary_mask] = 0.0
    return u


@pytest.mark.parametrize("name", sorted(CLOSURE_GRIDS))
class TestAffineClosure:
    """The direct closure for a phi that declares no u-dependence,
    against the bracketed Newton closure of the same formula."""

    def test_matches_newton_path(self, name):
        g = CLOSURE_GRIDS[name]()
        direct_phi = flow._as_field("1 + x1/3", "phi")
        assert direct_phi.depends_on_u is False
        u = _closure_input(g)
        direct = discretize.apply_neumann(g, u, direct_phi)
        newton = discretize.apply_neumann(g, u, lambda x, y, v: 1 + x / 3)
        assert np.max(np.abs(direct - newton)) <= 1e-12
        assert np.max(np.abs(
            discretize.neumann_residual(g, direct, direct_phi))) <= 1e-12
        inner = ~g.boundary_mask
        assert np.array_equal(direct[inner], u[inner])

    def test_idempotent(self, name):
        g = CLOSURE_GRIDS[name]()
        phi = flow._as_field("1 + x1/3", "phi")
        once = discretize.apply_neumann(g, _closure_input(g), phi)
        assert np.array_equal(discretize.apply_neumann(g, once, phi), once)

    def test_dispatch_on_depends_on_u(self, name, monkeypatch):
        # only a phi that declares depends_on_u = False skips Newton;
        # u-dependent and opaque ones still solve to 1e-12
        g = CLOSURE_GRIDS[name]()
        u = _closure_input(g)
        newton_calls = []
        solve = discretize._solve_increasing

        def counting(fun, x0, max_iter=50):
            newton_calls.append(1)
            return solve(fun, x0, max_iter)

        monkeypatch.setattr(discretize, "_solve_increasing", counting)
        discretize.apply_neumann(g, u, flow._as_field("1 + x1/3", "phi"))
        assert not newton_calls
        for phi in (flow._as_field("1 + x1/3 - u", "phi"),
                    flow._as_field(lambda x, y, v: 1 + x / 3 - v, "phi")):
            assert phi.depends_on_u is not False
            out = discretize.apply_neumann(g, u, phi)
            assert newton_calls
            assert np.max(np.abs(
                discretize.neumann_residual(g, out, phi))) <= 1e-12
            newton_calls.clear()


class TestGridCache:
    def test_cached_coefficients_are_shared_and_read_only(self):
        g = geometry.build_grid(geometry.Ellipse(1.4, 0.8), n_r=8, n_theta=16)
        for fn in (discretize._polar_coeffs,
                   discretize._polar_hessian_weights,
                   discretize._polar_boundary_geometry,
                   discretize._polar_closure):
            first = fn(g)
            assert fn(g) is first
            arrays = [a for a in first if isinstance(a, np.ndarray)]
            assert arrays
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    def test_grids_do_not_share_entries(self):
        small = geometry.build_grid(geometry.Disk(1.0), n_r=8, n_theta=16)
        large = geometry.build_grid(geometry.Disk(2.0), n_r=8, n_theta=16)
        u = 0.5 * (small.x**2 + small.y**2)
        hxx = discretize.hessian(small, u)[0]
        discretize.hessian(large, u)
        assert np.array_equal(discretize.hessian(small, u)[0], hxx)
        assert np.max(np.abs(hxx[small.interior_mask] - 1.0)) <= 1e-12


class TestStencils:
    def test_polar_stencils_match_array_operators(self):
        g = geometry.build_grid(geometry.Ellipse(1.4, 0.8), n_r=10, n_theta=20)
        st = discretize.stencils(g)
        u = np.sin(1.3 * g.x) * np.exp(0.4 * g.y)
        flat = u.ravel()
        gx, gy = discretize.gradient(g, u)
        hxx, hxy, hyy = discretize.hessian(g, u)
        umax = np.max(np.abs(u))
        for lists, arr in ((st.d1, gx), (st.d2, gy), (st.d11, hxx),
                           (st.d12, hxy), (st.d22, hyy)):
            for node, entries in enumerate(lists):
                if entries is None:
                    continue
                val = discretize.apply_stencil(entries, flat)
                scale = 1.0 + umax * sum(abs(w) for _, w in entries)
                assert abs(val - arr.ravel()[node]) <= 1e-9 * scale

    def test_cartesian_stencils_match_array_operators(self):
        g = geometry.build_grid(geometry.Square(1.0), n=9)
        st = discretize.stencils(g)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.shape)
        flat = u.ravel()
        gx, gy = discretize.gradient(g, u)
        hxx, hxy, hyy = discretize.hessian(g, u)
        for lists, arr in ((st.d1, gx), (st.d2, gy), (st.d11, hxx),
                           (st.d12, hxy), (st.d22, hyy)):
            for node, entries in enumerate(lists):
                if entries is None:
                    continue
                val = discretize.apply_stencil(entries, flat)
                assert abs(val - arr.ravel()[node]) <= 1e-9 * (1 + abs(val))

    def test_first_derivative_weights_sum_to_zero(self):
        for g in (geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12),
                  geometry.build_grid(geometry.Square(1.0), n=9)):
            st = discretize.stencils(g)
            for lists in (st.d1, st.d2):
                for entries in lists:
                    if entries is None:
                        continue
                    total = sum(w for _, w in entries)
                    scale = sum(abs(w) for _, w in entries)
                    assert abs(total) <= 1e-12 * scale

    def test_second_derivative_weights_annihilate_constants(self):
        for g in (geometry.build_grid(geometry.Ellipse(1.2, 0.7),
                                      n_r=6, n_theta=12),
                  geometry.build_grid(geometry.Square(1.0), n=9)):
            st = discretize.stencils(g)
            for lists in (st.d11, st.d12, st.d22):
                for entries in lists:
                    if entries is None:
                        continue
                    total = sum(w for _, w in entries)
                    scale = sum(abs(w) for _, w in entries)
                    assert abs(total) <= 1e-12 * scale

    def test_cartesian_second_derivatives_annihilate_linears(self):
        g = geometry.build_grid(geometry.Square(1.0), n=33)
        st = discretize.stencils(g)
        flat = (2 * g.x - 7 * g.y + 3).ravel()
        for lists in (st.d11, st.d12, st.d22):
            for entries in lists:
                if entries is None:
                    continue
                assert abs(discretize.apply_stencil(entries, flat)) <= 1e-12

    def test_stencils_exist_where_expected(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12)
        st = discretize.stencils(g)
        nb = g.shape[1]
        assert all(e is not None for e in st.d1)
        assert all(e is None for e in st.d11[-nb:])
        assert all(e is not None for e in st.d11[:-nb])


class TestInterpolation:
    def test_cartesian_linear_exact(self):
        rng = np.random.default_rng(7)
        g = geometry.build_grid(geometry.Square(1.0), n=15)
        u = 3.0 + 2.0 * g.x - 1.0 * g.y
        for _ in range(40):
            p = (rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
            want = 3.0 + 2.0 * p[0] - 1.0 * p[1]
            assert abs(discretize.interp_at(g, u, p) - want) <= 1e-12

    def test_polar_linear_exact_on_grid_rays(self):
        # along a fixed grid angle the field is linear in r, so radial
        # interpolation recovers it exactly
        rng = np.random.default_rng(11)
        g = geometry.build_grid(geometry.Ellipse(1.3, 0.8),
                                n_r=12, n_theta=24)
        u = 3.0 + 2.0 * g.x - 1.0 * g.y
        for _ in range(30):
            t = g.theta[rng.integers(0, g.shape[1])]
            rad = rng.uniform(0.0, 1.0)
            p = (1.3 * rad * np.cos(t), 0.8 * rad * np.sin(t))
            want = 3.0 + 2.0 * p[0] - 1.0 * p[1]
            assert abs(discretize.interp_at(g, u, p) - want) <= 1e-12

    def test_polar_generic_points_second_order(self):
        rng = np.random.default_rng(3)
        pts = [(rad * np.cos(t), rad * np.sin(t))
               for rad, t in zip(rng.uniform(0.0, 0.95, 30),
                                 rng.uniform(0.0, 2 * np.pi, 30))]

        def worst(n_r, n_t):
            g = geometry.build_grid(geometry.Disk(1.0), n_r=n_r, n_theta=n_t)
            u = np.sin(g.x + 0.4) * np.cos(g.y)
            return max(abs(discretize.interp_at(g, u, p)
                           - np.sin(p[0] + 0.4) * np.cos(p[1])) for p in pts)

        e1, e2 = worst(10, 20), worst(20, 40)
        order = np.log2(e1 / e2)
        assert 1.6 <= order <= 2.4

    def test_node_recovery(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=8, n_theta=16)
        u = np.cos(g.x) * np.sin(g.y + 0.3)
        for i, j in ((0, 0), (3, 5), (7, 15), (7, 0)):
            got = discretize.interp_at(g, u, (g.x[i, j], g.y[i, j]))
            assert abs(got - u[i, j]) <= 1e-12

    def test_center_crosses_pole(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        u = g.x**2 + g.y**2
        got = discretize.interp_at(g, u, (0.0, 0.0))
        assert abs(got) <= g.dr**2
