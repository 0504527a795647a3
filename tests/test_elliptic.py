"""Tests of the damped-solve route to translating speeds and profiles."""

import math

import numpy as np
import pytest

from hqflow import elliptic, exprparse, flow, geometry, symmfunc


def disk_grid(n_r=12, n_t=24):
    return geometry.build_grid(geometry.Disk(1.0), n_r=n_r, n_theta=n_t)


def laplace_spec(n_r=12, n_t=24, f="1"):
    return flow.ProblemSpec(disk_grid(n_r, n_t), 1, 0, f=f, phi="1",
                            u0="(x1^2 + x2^2)/2",
                            require_nonnegative_initial_speed=False)


def damped_flow_spec(grid, k, l, f, eps):
    """The flow whose steady state is the damped solution at eps: the
    right side f e^{eps u}, parsed, so its f_u is exact."""
    return flow.ProblemSpec(grid, k, l, f=f"({f})*exp({eps}*u)", phi="1",
                            u0="(x1^2 + x2^2)/2", growth_rate=eps,
                            require_nonnegative_initial_speed=False)


class TestSolveRegularized:
    def test_disk_unit_damping_balances_log_laplacian(self):
        spec = laplace_spec()
        w, c, _ = elliptic.solve_regularized(spec, 1.0)
        u = w + c
        ev = flow._evaluate(spec, u)
        gap = np.log(ev.q) - u[flow._INTERIOR]
        assert np.max(np.abs(gap)) <= 1e-6

    def test_decay_rate_follows_damping(self):
        # the flow of the damped problem decays at the damping rate
        slow, fast = (flow.run(damped_flow_spec(disk_grid(10, 20), 1, 0,
                                                "1", eps),
                               mode="steady", t_max=400.0, tol_steady=1e-8)
                      for eps in (1.0, 10.0))
        assert 0.8 <= flow.decay_rate(slow) <= 2.0
        assert flow.decay_rate(fast) >= 8.0

    def test_manufactured_damped_solution_second_order(self):
        # with f = (sigma_1 of u*) e^{-u*} and eps = 1 the damped steady
        # state is u* = r^2/2 + 0.1 e^{x/2} exactly
        ustar = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"
        f = f"(2 + 0.025*exp(x1/2)) * exp(-({ustar}))"
        phi = "1 + 0.05*x1*exp(x1/2)"
        errs = []
        for n_r, n_t in ((10, 20), (20, 40)):
            grid = disk_grid(n_r, n_t)
            spec = flow.ProblemSpec(grid, 1, 0, f=f, phi=phi, u0=ustar,
                                    require_nonnegative_initial_speed=False)
            w, c, _ = elliptic.solve_regularized(spec, 1.0)
            want = (0.5 * (grid.x**2 + grid.y**2)
                    + 0.1 * np.exp(grid.x / 2))
            errs.append(float(np.max(np.abs(w + c - want))))
        order = math.log2(errs[0] / errs[1])
        assert 1.5 <= order <= 2.6

    def test_newton_root_is_the_steady_state_of_the_flow(self):
        # the flow of the damped problem is the reference: its fixed
        # point does not depend on the Jacobian of its step
        grid = disk_grid(10, 20)
        spec = flow.ProblemSpec(grid, 2, 1, f="1 + 0.2*x1", phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        w, c, steps = elliptic.solve_regularized(spec, 1.0)
        assert 1 <= steps <= 5
        ref = flow.run(damped_flow_spec(grid, 2, 1, "1 + 0.2*x1", 1.0),
                       mode="steady", t_max=400.0, tol_steady=1e-8)
        assert ref.status == "steady"
        assert np.max(np.abs(w + c - ref.state.u)) <= 1e-6

    def test_solved_data_takes_no_step(self):
        spec = laplace_spec(8, 16)
        w, c, steps = elliptic.solve_regularized(spec, 1.0)
        solved = flow.ProblemSpec(spec.grid, 1, 0, f="1", phi="1",
                                  u0=w + c,
                                  require_nonnegative_initial_speed=False)
        w2, c2, none = elliptic.solve_regularized(solved, 1.0)
        assert steps >= 1 and none == 0
        assert np.max(np.abs((w2 + c2) - (w + c))) <= 1e-12

    def test_u0_outside_the_cone_is_refused(self):
        # the solve starts from the closed u0, which the spec has already
        # checked against the cone
        with pytest.raises(symmfunc.AdmissibilityError):
            flow.ProblemSpec(disk_grid(8, 16), 1, 0, f="1", phi="1",
                             u0="-(x1^2 + x2^2)/2",
                             require_nonnegative_initial_speed=False)

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_constant_offset_of_u0_is_removed(self, offset):
        # the residual u_t(w) - eps w - eps c is affine in a constant, so
        # shifted data reach the same solution however large eps u is
        spec = laplace_spec(8, 16)
        w, c, _ = elliptic.solve_regularized(spec, 1.0)
        shifted = flow.ProblemSpec(spec.grid, 1, 0, f="1", phi="1",
                                   u0=spec.u0_grid + offset,
                                   require_nonnegative_initial_speed=False)
        w2, c2, _ = elliptic.solve_regularized(shifted, 1.0)
        assert np.max(np.abs((w2 + c2) - (w + c))) <= 1e-8

    @pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (2, 1)])
    def test_closed_form_slopes_match_symmfunc(self, k, l):
        # the Newton step runs the slopes of flow._evaluate; at every
        # admissible interior node they are the derivative of log q at
        # that node's own discrete Hessian
        grid = disk_grid(8, 16)
        spec = flow.ProblemSpec(grid, k, l, f="1", phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((2, 2))
            a = m @ m.T + 0.1 * np.eye(2)
            u = 0.5 * (a[0, 0] * grid.x**2 + 2.0 * a[0, 1] * grid.x * grid.y
                       + a[1, 1] * grid.y**2)
            ev = flow._evaluate(spec, u)
            hxx, hxy, hyy = (h[ev.ok] for h in ev.hess)
            assert hxx.size
            _, F = symmfunc.log_quotient_matrix(
                np.moveaxis(np.array([[hxx, hxy], [hxy, hyy]]), -1, 0), k, l)
            want = (F[:, 0, 0], 2.0 * F[:, 0, 1], F[:, 1, 1])
            for g, w in zip(ev.slopes, want):
                assert np.max(np.abs(g[ev.ok] - w)) <= \
                    1e-12 * (1.0 + np.max(np.abs(F)))

    def test_block_elimination_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        n_p, m = 5, 4
        J = rng.standard_normal((n_p, 3, m, m))
        J[:, 1] += 8.0 * np.eye(m)
        J[0, 0] = J[-1, 2] = 0.0
        dense = np.zeros((n_p * m, n_p * m))
        for p in range(n_p):
            for k in range(3):
                q = p - 1 + k
                if 0 <= q < n_p:
                    dense[p * m:(p + 1) * m, q * m:(q + 1) * m] = J[p, k]
        # one factorization serves every right side
        factors = flow._block_factor(J)
        for _ in range(2):
            rhs = rng.standard_normal((n_p, m))
            want = np.linalg.solve(dense, rhs.ravel()).reshape(n_p, m)
            got = flow._block_solve(factors, rhs)
            assert np.max(np.abs(got - want)) <= 1e-12
        # a singular Schur complement (here S_2 = 0) raises, so a time
        # step can halve dt
        lower, _, s_inv_up = factors
        J[2, 1] = lower[2] @ s_inv_up[1]
        with pytest.raises(np.linalg.LinAlgError):
            flow._block_factor(J)

    def test_rejects_u_dependent_fields(self):
        bad_phi = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f="1",
                                   phi="1 - u",
                                   u0="(x1^2 + x2^2)/2 - 0.5")
        with pytest.raises(ValueError, match="phi"):
            elliptic.solve_regularized(bad_phi, 1.0)
        bad_f = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f="exp(u)",
                                 phi="1", u0="(x1^2 + x2^2)/2",
                                 require_nonnegative_initial_speed=False)
        with pytest.raises(ValueError, match="f\\(x\\)"):
            elliptic.solve_regularized(bad_f, 1.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_unusable_damping_named(self, eps):
        # a damping that is not finite and positive is refused before
        # any solve, under the name of the argument that carries it
        spec = laplace_spec(6, 12)
        with pytest.raises(geometry.ArgumentError,
                           match="finite and positive") as exc:
            elliptic.solve_regularized(spec, eps)
        assert exc.value.field == "eps"
        with pytest.raises(geometry.ArgumentError) as exc:
            elliptic.translation_identity(spec, eps0=eps)
        assert exc.value.field == "eps0"

    @pytest.mark.parametrize("f", [
        "exp(0.1*u)", exprparse.parse("exp(0.1*u)", slot="f")],
        ids=["parsed", "ast"])
    def test_u_dependent_f_named(self, f):
        spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f=f, phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        with pytest.raises(geometry.ArgumentError) as exc:
            elliptic.solve_regularized(spec, 1.0)
        assert exc.value.field == "f"


class TestPin:
    def test_center_crosses_pole(self):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=16, n_theta=32)
        u = g.x**2 + g.y**2
        got = elliptic._at_origin(u)
        assert abs(got) <= g.dr**2

    def test_linear_data_exact(self):
        # the two nodes of the pin lie on one diameter, at equal distance
        # from the origin
        g = geometry.build_grid(geometry.Ellipse(1.3, 0.8), n_r=12,
                                n_theta=24)
        u = 3.0 + 2.0 * g.x - 1.0 * g.y
        assert abs(elliptic._at_origin(u) - 3.0) <= 1e-14


class TestEigenpair:
    def test_disk_speed_matches_oracle(self):
        spec = laplace_spec()
        pair = elliptic.solve_eigenpair(spec)
        oracle = elliptic.laplace_speed_oracle(spec.grid, "1", "1")
        assert abs(oracle - math.log(2.0)) <= 1e-12
        assert pair.status == "converged", pair.notes
        assert abs(pair.s - oracle) <= 2e-2
        mesh = geometry.mesh_size(spec.grid)
        assert pair.residual <= 10.0 * mesh**2 * (1.0 + abs(pair.s))
        # the profile really translates: u_t stays near s for a while
        dev = elliptic.check_translating_profile(spec, pair)
        assert dev <= 10.0 * mesh**2 * (1.0 + abs(pair.s))

    def test_scaling_f_shifts_speed_by_log_c(self):
        base = laplace_spec(10, 20, f="1")
        scaled = laplace_spec(10, 20, f="2")
        p1 = elliptic.solve_eigenpair(base)
        p2 = elliptic.solve_eigenpair(scaled)
        assert abs((p1.s - p2.s) - math.log(2.0)) <= 1e-6

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_unusable_tol_named(self, tol):
        with pytest.raises(geometry.ArgumentError) as exc:
            elliptic.solve_eigenpair(laplace_spec(6, 12), tol=tol)
        assert exc.value.field == "tol"

    def test_bench_bump_disk_is_accurate(self):
        # (2,1) on the disk: s = -log 2 with the profile |x|^2/2, which
        # the difference stencils reproduce exactly
        grid = disk_grid(10, 20)
        pair = elliptic.solve_eigenpair(flow.ProblemSpec(
            grid, 2, 1, f="1", phi="1",
            u0="(x1^2 + x2^2)/2 + 0.08*(1 - x1^2 - x2^2)^2",
            require_nonnegative_initial_speed=False))
        assert pair.status == "converged", pair.notes
        assert abs(pair.s + math.log(2.0)) <= 1e-7
        assert pair.residual <= 1e-7
        assert elliptic.check_uniqueness_up_to_constant(
            pair.u_ell, 0.5 * (grid.x**2 + grid.y**2)) <= 1e-7

    def test_ellipse_speed_matches_the_flow(self):
        grid = geometry.build_grid(geometry.Ellipse(1.25, 0.8), n_r=16,
                                   n_theta=32)
        spec = flow.ProblemSpec(
            grid, 2, 1, f="1", phi="1",
            u0="(x1^2/1.25 + x2^2/0.8)/2 "
               "+ 0.08*(1 - x1^2/1.5625 - x2^2/0.64)^2",
            require_nonnegative_initial_speed=False)
        pair = elliptic.solve_eigenpair(spec)
        ref = flow.run(spec, mode="translating", tol_trans=1e-10)
        assert ref.status == "translating"
        assert pair.status == "converged", pair.notes
        assert abs(pair.s - ref.records[-1].mean_ut) <= 1e-7

    def test_damping_that_overflows_f_fails_the_solve(self, monkeypatch):
        # f e^{eps u} would overflow here; the residual u_t - eps w -
        # eps c does not, but at 1e20 its round-off floor lies far above
        # tol, so the solve fails before its first linear solve, without
        # blaming the user's f
        calls = []
        monkeypatch.setattr(flow, "_linearized_solve",
                            lambda *a: calls.append(a))
        with pytest.raises(elliptic.ConvergenceError,
                           match="round-off floor") as exc:
            elliptic.solve_regularized(laplace_spec(6, 12), 1e20)
        assert calls == []
        assert "eps = 1e+20" in str(exc.value)
        assert "f must" not in str(exc.value)

    def test_constant_offset_of_u0_keeps_the_speed(self):
        # the profile is unique up to a constant: u0 + 1000 changes
        # nothing, although e^{eps u} overflows at eps = 1
        grid = disk_grid(10, 20)
        pairs = [elliptic.solve_eigenpair(flow.ProblemSpec(
            grid, 2, 1, f="1", phi="1", u0=f"(x1^2 + x2^2)/2 + {c}",
            require_nonnegative_initial_speed=False)) for c in (0, 1000)]
        assert [p.status for p in pairs] == ["converged"] * 2
        assert abs(pairs[1].s - pairs[0].s) <= 1e-10

    def test_translation_identity(self):
        # scaling f by e shifts the damped solution at eps by -1/eps
        out = elliptic.translation_identity(laplace_spec(8, 16), eps0=1.0)
        assert out["tolerance"] == pytest.approx(1e-6)
        assert out["ok"] and out["deviation"] <= out["tolerance"]

    def test_summary_schema(self):
        spec = laplace_spec(10, 20)
        pair = elliptic.solve_eigenpair(spec)
        out = elliptic.eigen_summary(pair, oracle_s=math.log(2.0))
        assert set(out) == {"s_hat", "newton_iterations", "residual",
                            "oracle_s", "status", "notes"}
        assert 1 <= out["newton_iterations"] <= 5
        assert out["oracle_s"] == math.log(2.0)


class TestOracle:
    def test_exact_reference_values(self):
        disk1 = disk_grid(8, 16)
        assert abs(elliptic.laplace_speed_oracle(disk1, "1", "1")
                   - math.log(2.0)) <= 1e-12
        disk2 = geometry.build_grid(geometry.Disk(2.0), n_r=8, n_theta=16)
        assert abs(elliptic.laplace_speed_oracle(disk2, "1", "1")) <= 1e-12

    def test_nonpositive_integrals_rejected(self):
        grid = disk_grid(8, 16)
        with pytest.raises(ValueError, match="positive"):
            elliptic.laplace_speed_oracle(grid, "1", "-1")
        with pytest.raises(geometry.ArgumentError) as exc:
            elliptic.laplace_speed_oracle(grid, "1", "-1")
        assert exc.value.field == "phi"


class TestUniqueness:
    def test_constant_shift_has_zero_gap(self):
        grid = disk_grid(8, 16)
        u = np.sin(grid.x) + grid.y**2
        assert elliptic.check_uniqueness_up_to_constant(u, u + 5.0) == 0.0
        assert elliptic.check_uniqueness_up_to_constant(u, u) == 0.0
