"""Tests of the finite-difference operators and the Neumann closure."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hqflow import discretize, exprparse, flow, geometry


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

    @pytest.mark.parametrize("n_theta", [128, 256])
    def test_ellipse_coupling_stronger_than_slope(self, n_theta):
        # with few rings and many angles the tangential coupling outweighs
        # the radial slope; the closure must still solve the relation
        g = geometry.build_grid(geometry.Ellipse(1.4, 0.8), n_r=4,
                                n_theta=n_theta)
        phi = exprparse.as_field("1 + x1/3 - u", "phi")
        out = discretize.apply_neumann(g, _closure_input(g), phi)
        assert np.max(np.abs(
            discretize.neumann_residual(g, out, phi))) <= 1e-12

    def test_power_slope_at_zero_stops_the_closure(self):
        # phi = 1 - u^0.5 has the slope -0.5 u^(-0.5), a division by zero
        # at u_b = 0: the closure stops there, without a warning and
        # without iterating on a slope of -inf
        g = geometry.build_grid(geometry.Disk(1.0), n_r=8, n_theta=16)
        u = _closure_input(g)
        phi = exprparse.as_field("1 - u^0.5", "phi")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exprparse.EvalError,
                               match="division by zero") as exc:
                discretize.apply_neumann(g, u, phi)
        assert "nan" not in str(exc.value)

    def test_newton_that_does_not_converge_is_rejected(self):
        # phi_u runs from -1e4 at u = 0 to about 0 far away, so Newton
        # from u_b = 50 jumps between about +-1300 without settling
        g = geometry.build_grid(geometry.Square(1.0), n=17)
        u = np.full(g.shape, 50.0)
        with pytest.raises(ValueError, match="did not converge"):
            discretize.apply_neumann(
                g, u, lambda x, y, v: -1e4 * np.arctan(v))


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
    """The one-step closure for a phi that declares no u-dependence,
    against the Newton iteration on the same formula."""

    def test_matches_newton_path(self, name):
        g = CLOSURE_GRIDS[name]()
        direct_phi = exprparse.as_field("1 + x1/3", "phi")
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
        phi = exprparse.as_field("1 + x1/3", "phi")
        once = discretize.apply_neumann(g, _closure_input(g), phi)
        assert np.array_equal(discretize.apply_neumann(g, once, phi), once)

    def test_dispatch_on_depends_on_u(self, name):
        # only a phi that declares depends_on_u = False is evaluated once;
        # u-dependent and opaque ones are iterated to 1e-12
        g = CLOSURE_GRIDS[name]()
        u = _closure_input(g)
        affine = exprparse.as_field("1 + x1/3", "phi")
        calls = []

        def counted(x, y, v):
            calls.append(1)
            return affine(x, y, v)

        counted.depends_on_u = False
        discretize.apply_neumann(g, u, counted)
        assert len(calls) == 1
        for phi in (exprparse.as_field("1 + x1/3 - u", "phi"),
                    exprparse.as_field(lambda x, y, v: 1 + x / 3 - v,
                                       "phi")):
            assert phi.depends_on_u is not False
            out = discretize.apply_neumann(g, u, phi)
            assert np.max(np.abs(
                discretize.neumann_residual(g, out, phi))) <= 1e-12

    def test_phi_not_finite_is_rejected(self, name):
        # sqrt(u) has no value at u_b = -2, so there is nothing to solve
        g = CLOSURE_GRIDS[name]()
        u = _closure_input(g)
        u[g.boundary_mask] = -2.0
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="not finite"):
            discretize.apply_neumann(
                g, u, lambda x, y, v: 1 - v + np.sqrt(v))


PROPERTY_GRIDS = {
    "disk": geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12),
    "ellipse": geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                   n_r=6, n_theta=12),
    "square": geometry.build_grid(geometry.Square(1.0), n=9),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_GRIDS)),
       g=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       c=st.floats(0.0, 4.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 5.0))
# phi_u = -1e-13 is lost in the finite difference of phi, so one Newton
# step leaves a residual that a stop bound scaled by |u_b| accepted
@example(name="disk", g=(0.0, 0.0, 1.0), c=1e-13, seed=3, scale=4.0)
def test_closure_properties(name, g, c, seed, scale):
    """For phi = g(x) - c u, the closure solves the relation, is
    idempotent, and leaves the interior alone."""
    grid = PROPERTY_GRIDS[name]

    def phi(x, y, v):
        return g[0] + g[1] * x + g[2] * y - c * v

    u = scale * np.random.default_rng(seed).standard_normal(grid.shape)
    once = discretize.apply_neumann(grid, u, phi)
    assert np.max(np.abs(discretize.neumann_residual(grid, once, phi))) \
        <= 1e-12
    twice = discretize.apply_neumann(grid, once, phi)
    assert np.max(np.abs(twice - once)) <= 1e-12
    inner = ~grid.boundary_mask
    assert np.array_equal(once[inner], u[inner])


class TestGridCache:
    def test_cached_coefficients_are_shared_and_read_only(self):
        g = geometry.build_grid(geometry.Ellipse(1.4, 0.8), n_r=8, n_theta=16)
        for fn in (discretize._polar_coeffs,
                   discretize._polar_hessian_weights,
                   discretize._polar_boundary_geometry,
                   discretize._polar_closure,
                   discretize._boundary_nodes):
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


def _apply(op, u):
    """One COO operator of `difference_operators` applied to u."""
    rows, cols, vals = op
    return np.bincount(rows, vals * u.ravel()[cols],
                       minlength=u.size).reshape(u.shape)


def _row_sums(op, size):
    """Signed and absolute weight sums per row node."""
    rows, _, vals = op
    return (np.bincount(rows, vals, minlength=size),
            np.bincount(rows, np.abs(vals), minlength=size))


class TestStencils:
    """The array operators against the explicit weights of
    `difference_operators`, which are built without them."""

    def _match(self, g, u):
        ops = discretize.difference_operators(g)
        arrays = discretize.gradient(g, u) + discretize.hessian(g, u)
        umax = np.max(np.abs(u))
        for op, arr in zip(ops, arrays):
            scale = 1.0 + umax * _row_sums(op, u.size)[1].reshape(u.shape)
            assert np.all(np.abs(_apply(op, u) - arr) <= 1e-14 * scale)

    def test_polar_stencils_match_array_operators(self):
        for dom in (geometry.Ellipse(1.4, 0.8), geometry.Disk(1.0)):
            g = geometry.build_grid(dom, n_r=10, n_theta=20)
            self._match(g, np.sin(1.3 * g.x) * np.exp(0.4 * g.y))

    def test_cartesian_stencils_match_array_operators(self):
        g = geometry.build_grid(geometry.Square(1.0), n=9)
        self._match(g, np.random.default_rng(3).standard_normal(g.shape))

    def test_first_derivative_weights_sum_to_zero(self):
        for g in (geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12),
                  geometry.build_grid(geometry.Square(1.0), n=9)):
            for op in discretize.difference_operators(g)[:2]:
                total, scale = _row_sums(op, g.x.size)
                assert np.all(np.abs(total) <= 1e-12 * scale)

    def test_second_derivative_weights_annihilate_constants(self):
        for g in (geometry.build_grid(geometry.Ellipse(1.2, 0.7),
                                      n_r=6, n_theta=12),
                  geometry.build_grid(geometry.Square(1.0), n=9)):
            for op in discretize.difference_operators(g)[2:]:
                total, scale = _row_sums(op, g.x.size)
                assert np.all(np.abs(total) <= 1e-12 * scale)

    def test_cartesian_second_derivatives_annihilate_linears(self):
        g = geometry.build_grid(geometry.Square(1.0), n=33)
        u = 2 * g.x - 7 * g.y + 3
        for op in discretize.difference_operators(g)[2:]:
            assert np.max(np.abs(_apply(op, u))) <= 1e-12

    def test_stencils_exist_where_expected(self):
        for g in (geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12),
                  geometry.build_grid(geometry.Square(1.0), n=9)):
            ops = discretize.difference_operators(g)
            for op in ops[:2]:
                assert np.array_equal(np.unique(op[0]), np.arange(g.x.size))
            for op in ops[2:]:
                assert np.array_equal(np.unique(op[0]),
                                      np.flatnonzero(g.interior_mask))

    def test_built_without_the_array_operators(self, monkeypatch):
        # the weights are the reference for gradient and hessian, so they
        # must not be derived from them
        def refuse(*args):
            raise AssertionError("array operator called")

        for name in ("gradient", "hessian", "_polar_first",
                     "_polar_hessian_weights"):
            monkeypatch.setattr(discretize, name, refuse)
        for g in (geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                      n_r=6, n_theta=12),
                  geometry.build_grid(geometry.Square(1.0), n=9)):
            assert len(discretize.difference_operators(g)) == 5


def _apply_blocks(B, v):
    """One map of `hessian_blocks` applied to interior values v."""
    out = np.einsum("pij,pj->pi", B[:, 1], v)
    out[1:] += np.einsum("pij,pj->pi", B[1:, 0], v[:-1])
    out[:-1] += np.einsum("pij,pj->pi", B[:-1, 2], v[1:])
    return out


BLOCK_GRIDS = {
    "disk": lambda: geometry.build_grid(geometry.Disk(1.0),
                                        n_r=8, n_theta=16),
    "ellipse": lambda: geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                           n_r=8, n_theta=16),
    "square": lambda: geometry.build_grid(geometry.Square(1.0), n=9),
}


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
class TestHessianBlocks:
    """The Hessian of the closed field as block-tridiagonal linear map
    of the interior values."""

    def test_matches_hessian_of_the_closure(self, name):
        g = BLOCK_GRIDS[name]()
        sl = flow._interior_slice(g)
        phi = exprparse.as_field("1 + x1/3 - x2/5", "phi")
        u = np.random.default_rng(11).standard_normal(g.shape)
        full = discretize.hessian(g, discretize.apply_neumann(g, u, phi))
        zero = discretize.hessian(
            g, discretize.apply_neumann(g, np.zeros(g.shape), phi))
        for B, h, h0 in zip(discretize.hessian_blocks(g), full, zero):
            want = (h - h0)[sl]
            got = _apply_blocks(B, u[sl])
            assert np.max(np.abs(got - want)) <= \
                1e-13 * (1.0 + np.max(np.abs(h)))

    def test_exact_on_quadratics(self, name):
        # q = ((x/a)^2 + (y/b)^2)/2 has D^2 q = diag(1/a^2, 1/b^2), and
        # the closure with its own normal derivative recovers it: that
        # is |grad q| on the polar boundary, and 1 on the faces of the
        # unit square and in the mean relation of its corners
        g = BLOCK_GRIDS[name]()
        sl = flow._interior_slice(g)
        if g.backend == "polar":
            a, b = g.domain.a, g.domain.b
            phi = f"sqrt((x1/{a * a})^2 + (x2/{b * b})^2)"
        else:
            a, b, phi = 1.0, 1.0, "1"
        q = 0.5 * ((g.x / a) ** 2 + (g.y / b) ** 2)
        phi = exprparse.as_field(phi, "phi")
        zero = discretize.hessian(
            g, discretize.apply_neumann(g, np.zeros(g.shape), phi))
        for B, h0, want in zip(discretize.hessian_blocks(g), zero,
                               (1 / a**2, 0.0, 1 / b**2)):
            got = _apply_blocks(B, q[sl]) + h0[sl]
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_cached_read_only_block_tridiagonal(self, name):
        g = BLOCK_GRIDS[name]()
        blocks = discretize.hessian_blocks(g)
        assert discretize.hessian_blocks(g) is blocks
        shape = g.x[flow._interior_slice(g)].shape
        for B in blocks:
            assert B.shape == (shape[0], 3, shape[1], shape[1])
            # nothing below the first block row or above the last
            assert not B[0, 0].any() and not B[-1, 2].any()
            with pytest.raises(ValueError):
                B[...] = 0.0


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
class TestExactClosure:
    """Newton steps of the closure take phi_u from the exact derivative
    of a parsed phi."""

    def test_affine_phi_closes_in_one_step(self, name, monkeypatch):
        g = BLOCK_GRIDS[name]()
        ast = exprparse.parse("1 + x1/3 - u", slot="phi")
        phi = exprparse.as_field(ast, "phi")
        calls = []
        evaluate = exprparse.eval

        def counted(node, env):
            if node is ast:
                calls.append(1)
            return evaluate(node, env)

        monkeypatch.setattr(exprparse, "eval", counted)
        out = discretize.apply_neumann(g, _closure_input(g), phi)
        # phi at the start and after the one step that solves the relation
        assert len(calls) == 2
        assert np.max(np.abs(
            discretize.neumann_residual(g, out, phi))) <= 1e-12

    def test_abs_kink_at_zero(self, name):
        # the closure starts from u_b = 0, where abs takes the slope 0
        g = BLOCK_GRIDS[name]()
        phi = exprparse.as_field("1 + x1/3 - u - 0.5*abs(u)", "phi")
        u = _closure_input(g)
        assert not u[g.boundary_mask].any()
        xb, yb = g.x[g.boundary_mask], g.y[g.boundary_mask]
        assert np.array_equal(phi.du(xb, yb, np.zeros(xb.shape)),
                              np.full(xb.shape, -1.0))
        out = discretize.apply_neumann(g, u, phi)
        assert np.max(np.abs(
            discretize.neumann_residual(g, out, phi))) <= 1e-12


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
