"""Tests of the damped-solve route to translating speeds and profiles."""

import math

import numpy as np
import pytest

from hqflow import discretize, elliptic, flow, geometry, symmfunc


def disk_grid(n_r=12, n_t=24):
    return geometry.build_grid(geometry.Disk(1.0), n_r=n_r, n_theta=n_t)


def laplace_spec(n_r=12, n_t=24, f="1"):
    return flow.ProblemSpec(disk_grid(n_r, n_t), 1, 0, f=f, phi="1",
                            u0="(x1^2 + x2^2)/2",
                            require_nonnegative_initial_speed=False)


class TestSolveRegularized:
    def test_disk_unit_damping_balances_log_laplacian(self):
        spec = laplace_spec()
        u, _ = elliptic.solve_regularized(spec, 1.0)
        ev = flow._evaluate(spec, u)
        gap = np.log(ev.q) - u[spec._interior]
        assert np.max(np.abs(gap)) <= 1e-6

    def test_decay_rate_follows_damping(self):
        # the flow of the damped problem decays at the damping rate
        spec = laplace_spec(10, 20)
        slow, fast = (flow.run(elliptic._damped_spec(spec, eps),
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
            u, _ = elliptic.solve_regularized(spec, 1.0)
            want = (0.5 * (grid.x**2 + grid.y**2)
                    + 0.1 * np.exp(grid.x / 2))
            errs.append(float(np.max(np.abs(u - want))))
        order = math.log2(errs[0] / errs[1])
        assert 1.5 <= order <= 2.6

    def test_newton_root_is_the_steady_state_of_the_flow(self):
        # the flow of the damped problem is the reference: its fixed
        # point does not depend on the Jacobian of its step
        grid = disk_grid(10, 20)
        spec = flow.ProblemSpec(grid, 2, 1, f="1 + 0.2*x1", phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        u, steps = elliptic.solve_regularized(spec, 1.0)
        assert 1 <= steps <= 5
        ref = flow.run(elliptic._damped_spec(spec, 1.0), mode="steady",
                       t_max=400.0, tol_steady=1e-8, mean_shift=True)
        assert ref.status == "steady"
        assert np.max(np.abs(u - ref.state.u)) <= 1e-6

    def test_solved_data_takes_no_step(self):
        spec = laplace_spec(8, 16)
        u, steps = elliptic.solve_regularized(spec, 1.0)
        again, none = elliptic.solve_regularized(spec, 1.0, u_init=u)
        assert steps >= 1 and none == 0
        assert np.max(np.abs(again - u)) <= 1e-12

    @pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (2, 1)])
    def test_closed_form_slopes_match_symmfunc(self, k, l):
        # the Newton step runs the slopes of flow._evaluate; on the
        # square its Hessian of u = x.A x/2 is A at every interior node
        grid = geometry.build_grid(geometry.Square(1.0), n=9)
        spec = flow.ProblemSpec(grid, k, l, f="1", phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((2, 2))
            a = m @ m.T + 0.1 * np.eye(2)
            _, F = symmfunc.log_quotient_matrix(a, k, l)
            u = 0.5 * (a[0, 0] * grid.x**2 + 2.0 * a[0, 1] * grid.x * grid.y
                       + a[1, 1] * grid.y**2)
            got = flow._evaluate(spec, u).slopes
            want = (F[0, 0], 2.0 * F[0, 1], F[1, 1])
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= \
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
        rhs = rng.standard_normal((n_p, m))
        want = np.linalg.solve(dense, rhs.ravel()).reshape(n_p, m)
        got = flow._block_thomas(J, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12

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
        with pytest.raises(ValueError, match="positive"):
            elliptic.solve_regularized(laplace_spec(8, 16), -1.0)


    @pytest.mark.parametrize("f", [
        "exp(0.1*u)", lambda x, y, u: np.exp(0.1 * u)],
        ids=["parsed", "opaque"])
    def test_u_dependent_f_named(self, f):
        spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f=f, phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        with pytest.raises(geometry.ArgumentError) as exc:
            elliptic.solve_regularized(spec, 1.0)
        assert exc.value.field == "f"


class TestSpeedExtraction:
    def test_worked_values(self):
        grid = disk_grid(8, 16)
        ones = np.full(grid.shape, 1.0)
        ref = np.full(grid.shape, 0.6)
        got = elliptic.s_epsilon(grid, ones, ref, 0.5, (0.0, 0.0))
        assert abs(got - 0.2) <= 1e-15
        assert elliptic.s_epsilon(grid, ones, ones, 0.7, (0.1, 0.2)) == 0.0

    def test_translation_identity_exact(self):
        grid = disk_grid(10, 20)
        u = 0.5 * (grid.x**2 + grid.y**2)
        for eps in (1.0, 0.25):
            got = elliptic.s_epsilon(grid, u + 1.0 / eps, u, eps, (0.3, -0.1))
            assert abs(got - 1.0) <= 1e-12

    def test_out_of_bound_value_warns_but_returns(self):
        grid = disk_grid(8, 16)
        ones = np.full(grid.shape, 1.0)
        zeros = np.zeros(grid.shape)
        with pytest.warns(RuntimeWarning, match="model bound"):
            got = elliptic.s_epsilon(grid, ones, zeros, 0.5, (0.0, 0.0),
                                     bound=0.1)
        assert abs(got - 0.5) <= 1e-15


class TestEigenpair:
    def test_disk_speed_matches_oracle(self):
        spec = laplace_spec()
        pair = elliptic.solve_eigenpair(spec, n_halvings=5)
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
        p1 = elliptic.solve_eigenpair(base, n_halvings=3)
        p2 = elliptic.solve_eigenpair(scaled, n_halvings=3)
        assert abs((p1.s - p2.s) - math.log(2.0)) <= 1e-6

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_halvings": 0}, "n_halvings"), ({"n_halvings": -1}, "n_halvings"),
        ({"eps0": 0.0}, "eps0"), ({"eps0": math.inf}, "eps0"),
        ({"eps0": math.nan}, "eps0")])
    def test_unusable_schedule_rejected(self, kwargs, name):
        # the Richardson value needs two damping levels, each with a
        # finite positive eps
        with pytest.raises(ValueError, match=name):
            elliptic.solve_eigenpair(laplace_spec(6, 12), **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_halvings": 0}, "n_halvings"), ({"eps0": -1.0}, "eps0"),
        ({"tol": 0.0}, "tol"), ({"y0": (1.0, 2.0)}, "y0")])
    def test_schedule_errors_name_their_argument(self, kwargs, name):
        with pytest.raises(geometry.ArgumentError) as exc:
            elliptic.solve_eigenpair(laplace_spec(6, 12), **kwargs)
        assert exc.value.field == name

    def test_damping_that_overflows_f_fails_the_solve(self):
        # f e^{eps u} is inf on the initial data, so the damped problem
        # cannot start; the first solve fails, not the user's f
        with np.errstate(over="ignore"):
            with pytest.raises(elliptic.ConvergenceError,
                               match="cannot start"):
                elliptic.solve_eigenpair(laplace_spec(6, 12), eps0=1e20)

    def test_translation_identity(self):
        # scaling f by e shifts the damped solution at eps by -1/eps
        out = elliptic.translation_identity(laplace_spec(8, 16), eps0=1.0)
        assert out["tolerance"] == pytest.approx(1e-6)
        assert out["ok"] and out["deviation"] <= out["tolerance"]

    def test_summary_schema(self):
        spec = laplace_spec(10, 20)
        pair = elliptic.solve_eigenpair(spec, n_halvings=2)
        out = elliptic.eigen_summary(pair, oracle_s=math.log(2.0))
        assert set(out) == {"s_hat", "epsilon_trace", "newton_iterations",
                            "residual", "oracle_s", "status", "notes"}
        assert len(out["epsilon_trace"]) == 3
        assert len(out["newton_iterations"]) == 3
        assert all(1 <= n <= 5 for n in out["newton_iterations"])
        assert out["epsilon_trace"][0][0] == 1.0
        assert out["oracle_s"] == math.log(2.0)


class TestOracle:
    def test_exact_reference_values(self):
        disk1 = disk_grid(8, 16)
        assert abs(elliptic.laplace_speed_oracle(disk1, "1", "1")
                   - math.log(2.0)) <= 1e-12
        disk2 = geometry.build_grid(geometry.Disk(2.0), n_r=8, n_theta=16)
        assert abs(elliptic.laplace_speed_oracle(disk2, "1", "1")) <= 1e-12
        square = geometry.build_grid(geometry.Square(1.0), n=9)
        assert abs(elliptic.laplace_speed_oracle(square, "1", "1")
                   - math.log(2.0)) <= 1e-12

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
