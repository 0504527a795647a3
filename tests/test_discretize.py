"""Tests of the finite-difference operators and the Neumann closure."""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hqflow import discretize, exprparse, flow, geometry


def _orders(errs):
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


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
    def test_disk_quadratic_boundary_recovered_exactly(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        ustar = 0.5 * (g.x**2 + g.y**2)
        # 0*u keeps phi on the Newton path, with the slope exactly 0
        phi = exprparse.as_field("1 + 0*u", "phi")
        u = ustar.copy()
        u[-1] = -7.0
        out = discretize.apply_neumann(g, u, phi)
        assert np.max(np.abs(out - ustar)) <= 1e-12

    def test_ellipse_residual_and_convergence(self):
        dom = geometry.Ellipse(1.4, 0.8)
        # the normal derivative of exp(x1/2 + x2/3); 0*u keeps phi on the
        # Newton path
        phi = exprparse.as_field(
            "exp(x1/2 + x2/3) * (x1/1.4^2/2 + x2/0.8^2/3)"
            " / sqrt((x1/1.4^2)^2 + (x2/0.8^2)^2) + 0*u", "phi")

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
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        u = np.zeros(g.shape)
        with pytest.raises(ValueError, match="sign change"):
            discretize.apply_neumann(g, u, "100*u")

    @pytest.mark.parametrize("n_theta", [128, 256])
    def test_ellipse_coupling_stronger_than_slope(self, n_theta):
        # with few rings and many angles the tangential coupling outweighs
        # the radial slope; the closure must still solve the relation
        g = geometry.build_grid(geometry.Ellipse(1.4, 0.8), n_r=4,
                                n_theta=n_theta)
        text = "1 + x1/3 - u"
        phi = exprparse.as_field(text, "phi")
        out = discretize.apply_neumann(g, _closure_input(g), phi)
        # the residual, like the closure, takes phi as a field or a string
        for given in (phi, text):
            assert np.max(np.abs(
                discretize.neumann_residual(g, out, given))) <= 1e-12

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
        # from u_b = 50 jumps about without settling
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        u = np.full(g.shape, 50.0)
        with pytest.raises(ValueError, match="did not converge in 50 Newton "
                                             "steps"):
            discretize.apply_neumann(g, u, "-1e4*tanh(u)")


CLOSURE_GRIDS = {
    "disk": lambda: geometry.build_grid(geometry.Disk(1.0),
                                        n_r=16, n_theta=32),
    "ellipse": lambda: geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                           n_r=16, n_theta=32),
}


def _closure_input(g):
    u = 0.5 * (g.x**2 + g.y**2) + 0.1 * np.sin(1.3 * g.x + 0.4 * g.y)
    u[g.boundary_mask] = 0.0
    return u


@pytest.mark.parametrize("name", sorted(CLOSURE_GRIDS))
class TestAffineClosure:
    """The one-step closure for a phi free of u, against the Newton
    iteration on the same formula."""

    def test_matches_newton_path(self, name):
        g = CLOSURE_GRIDS[name]()
        direct_phi = exprparse.as_field("1 + x1/3", "phi")
        assert direct_phi.depends_on_u is False
        u = _closure_input(g)
        direct = discretize.apply_neumann(g, u, direct_phi)
        # 0*u makes the same phi depend on u by name, with the slope
        # exactly 0
        newton_phi = exprparse.as_field("1 + x1/3 + 0*u", "phi")
        assert newton_phi.depends_on_u is True
        newton = discretize.apply_neumann(g, u, newton_phi)
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

    def test_dispatch_on_depends_on_u(self, name, monkeypatch):
        # only a phi free of u is evaluated once; a u-dependent one is
        # iterated to 1e-12
        g = CLOSURE_GRIDS[name]()
        u = _closure_input(g)
        affine = exprparse.as_field("1 + x1/3", "phi")
        calls = []
        evaluate = exprparse.eval

        def counted(node, env):
            if node is affine.expr:
                calls.append(1)
            return evaluate(node, env)

        monkeypatch.setattr(exprparse, "eval", counted)
        discretize.apply_neumann(g, u, affine)
        assert len(calls) == 1
        phi = exprparse.as_field("1 + x1/3 - u", "phi")
        assert phi.depends_on_u is True
        out = discretize.apply_neumann(g, u, phi)
        assert np.max(np.abs(
            discretize.neumann_residual(g, out, phi))) <= 1e-12

    def test_phi_not_finite_is_rejected(self, name):
        # exp(-1000 u) overflows at u_b = -2, so there is nothing to solve
        g = CLOSURE_GRIDS[name]()
        u = _closure_input(g)
        u[g.boundary_mask] = -2.0
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="phi is not finite at the "
                                                "boundary values"):
            discretize.apply_neumann(g, u, "1 - u + exp(-1000*u)")


PROPERTY_GRIDS = {
    "disk": geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12),
    "ellipse": geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                   n_r=6, n_theta=12),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_GRIDS)),
       g=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       c=st.floats(0.0, 4.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 5.0))
# a slope phi_u = -1e-13 next to boundary values of size 4: the stop
# bound scales with phi, not with u_b
@example(name="disk", g=(0.0, 0.0, 1.0), c=1e-13, seed=3, scale=4.0)
def test_closure_properties(name, g, c, seed, scale):
    """For phi = g(x) - c u, the closure solves the relation, is
    idempotent, and leaves the interior alone."""
    grid = PROPERTY_GRIDS[name]
    phi = exprparse.as_field(
        f"{g[0]!r} + {g[1]!r}*x1 + {g[2]!r}*x2 - {c!r}*u", "phi")

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
                   discretize._boundary_nodes,
                   discretize._interior_nodes):
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

    def test_first_derivative_weights_sum_to_zero(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12)
        for op in discretize.difference_operators(g)[:2]:
            total, scale = _row_sums(op, g.x.size)
            assert np.all(np.abs(total) <= 1e-12 * scale)

    def test_second_derivative_weights_annihilate_constants(self):
        g = geometry.build_grid(geometry.Ellipse(1.2, 0.7), n_r=6, n_theta=12)
        for op in discretize.difference_operators(g)[2:]:
            total, scale = _row_sums(op, g.x.size)
            assert np.all(np.abs(total) <= 1e-12 * scale)

    def test_stencils_exist_where_expected(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=6, n_theta=12)
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
        g = geometry.build_grid(geometry.Ellipse(1.4, 0.8), n_r=6, n_theta=12)
        assert len(discretize.difference_operators(g)) == 5


def _apply_blocks(table, v):
    """The three maps (xx, xy, yy) of the `hessian_blocks` table applied
    to interior values v: each weight multiplies the value of its column
    node and lands on the row node of its slope index."""
    idx, src, vals = table
    n_p, m = v.shape
    p, k, _, col = np.unravel_index(idx, (n_p, 3, m, m))
    return np.bincount(src, vals * v[p - 1 + k, col],
                       minlength=3 * n_p * m).reshape(3, n_p, m)


BLOCK_GRIDS = {
    "disk": lambda: geometry.build_grid(geometry.Disk(1.0),
                                        n_r=8, n_theta=16),
    "ellipse": lambda: geometry.build_grid(geometry.Ellipse(1.4, 0.8),
                                           n_r=8, n_theta=16),
}


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
class TestHessianBlocks:
    """The Hessian of the closed field as block-tridiagonal linear map
    of the interior values."""

    def test_matches_hessian_of_the_closure(self, name):
        g = BLOCK_GRIDS[name]()
        sl = flow._INTERIOR
        phi = exprparse.as_field("1 + x1/3 - x2/5", "phi")
        u = np.random.default_rng(11).standard_normal(g.shape)
        full = discretize.hessian(g, discretize.apply_neumann(g, u, phi))
        zero = discretize.hessian(
            g, discretize.apply_neumann(g, np.zeros(g.shape), phi))
        maps = _apply_blocks(discretize.hessian_blocks(g), u[sl])
        for got, h, h0 in zip(maps, full, zero):
            want = (h - h0)[sl]
            assert np.max(np.abs(got - want)) <= \
                1e-13 * (1.0 + np.max(np.abs(h)))

    def test_exact_on_quadratics(self, name):
        # q = ((x/a)^2 + (y/b)^2)/2 has D^2 q = diag(1/a^2, 1/b^2), and
        # the closure with its own normal derivative, |grad q| on the
        # boundary, recovers it
        g = BLOCK_GRIDS[name]()
        sl = flow._INTERIOR
        a, b = g.domain.a, g.domain.b
        q = 0.5 * ((g.x / a) ** 2 + (g.y / b) ** 2)
        phi = exprparse.as_field(f"sqrt((x1/{a * a})^2 + (x2/{b * b})^2)",
                                 "phi")
        zero = discretize.hessian(
            g, discretize.apply_neumann(g, np.zeros(g.shape), phi))
        maps = _apply_blocks(discretize.hessian_blocks(g), q[sl])
        for got, h0, want in zip(maps, zero, (1 / a**2, 0.0, 1 / b**2)):
            got = got + h0[sl]
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_cached_read_only_block_tridiagonal(self, name):
        g = BLOCK_GRIDS[name]()
        blocks = discretize.hessian_blocks(g)
        assert discretize.hessian_blocks(g) is blocks
        n_p, m = g.x[flow._INTERIOR].shape
        idx, src, vals = blocks
        assert idx.shape == src.shape == vals.shape
        assert 0 <= idx.min() and idx.max() < n_p * 3 * m * m
        p, k, row, _ = np.unravel_index(idx, (n_p, 3, m, m))
        # xx, then xy, then yy, each slope index at the weight's row node
        assert np.all(np.diff(src // (n_p * m)) >= 0)
        assert np.array_equal(src % (n_p * m), p * m + row)
        # nothing below the first block row or above the last
        assert not np.any((p == 0) & (k == 0))
        assert not np.any((p == n_p - 1) & (k == 2))
        for arr in blocks:
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_assembly_matches_the_dense_sum(self, name):
        # each block row of the solve is zeros + c0 B0 + c1 B1 + c2 B2 -
        # diag, bit for bit, with B the dense blocks of the table
        g = BLOCK_GRIDS[name]()
        idx, src, vals = discretize.hessian_blocks(g)
        n_p, m = g.x[flow._INTERIOR].shape
        op = src // (n_p * m)
        dense = [np.bincount(idx[op == o], vals[op == o],
                             minlength=n_p * 3 * m * m)
                 .reshape(n_p, 3, m, m) for o in range(3)]
        rng = np.random.default_rng(5)
        slopes = tuple(1.0 + rng.random((n_p, m)) for _ in range(3))
        diag = 1.0 + rng.random((n_p, m))
        rhs = rng.standard_normal((n_p, m))
        rows = np.zeros((n_p, 3, m, m))
        for c, B in zip(slopes, dense):
            rows += c[:, None, :, None] * B
        i = np.arange(m)
        rows[:, 1, i, i] -= diag
        spec = types.SimpleNamespace(grid=g)
        want = flow._block_solve(flow._block_factor(rows), -rhs)
        assert np.array_equal(flow._linearized_solve(spec, slopes, diag, rhs),
                              want)


@pytest.mark.parametrize("domain", [geometry.Disk(1.0),
                                    geometry.Ellipse(1.4, 0.8)])
def test_hessian_table_is_a_fraction_of_the_dense_blocks(domain):
    g = geometry.build_grid(domain, n_r=32, n_theta=64)
    n_p, m = g.x[flow._INTERIOR].shape
    table = discretize.hessian_blocks(g)
    assert sum(arr.nbytes for arr in table) < 3 * n_p * 3 * m * m * 8 / 4


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
class TestExactClosure:
    """Newton steps of the closure take phi_u from the exact derivative
    of a parsed phi."""

    def test_affine_phi_closes_in_one_step(self, name):
        g = BLOCK_GRIDS[name]()
        phi = exprparse.as_field("1 + x1/3 - u", "phi")
        calls = []

        def counted(x, y, u):
            calls.append(1)
            return phi(x, y, u)

        # the same field (slot, flag, du and expr), counting its calls
        counted.__dict__.update(phi.__dict__)
        out = discretize.apply_neumann(g, _closure_input(g), counted)
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
