"""Flow module tests: right side values against the eigen route,
stability of the dt rule, guarded stepping, stop rules, monitors."""

import math

import numpy as np
import pytest

from hqflow import discretize, flow, geometry, symmfunc


def disk_grid(n_r=12, n_t=24):
    return geometry.build_grid(geometry.Disk(1.0), n_r=n_r, n_theta=n_t)


def square_grid(n=17):
    return geometry.build_grid(geometry.Square(1.0), n=n)


def quadratic_disk_spec(k=1, l=0, n_r=12, n_t=24, require=True):
    """u0 = r^2/2 on the unit disk has u_nu = 1 and D^2 u0 = I."""
    return flow.ProblemSpec(disk_grid(n_r, n_t), k, l, f="1", phi="1",
                            u0="(x1^2 + x2^2)/2",
                            require_nonnegative_initial_speed=require)


class TestRhs:
    def test_quadratic_k1_gives_log_two(self):
        spec = quadratic_disk_spec()
        ut = flow.rhs(spec.u0_grid, spec)
        interior = ut[:-1, :]
        assert np.max(np.abs(interior - math.log(2.0))) <= 1e-12

    def test_quadratic_other_quotients(self):
        # D^2 u = I: sigma_2 = 1, sigma_2/sigma_1 = 1/2
        for k, l, expected in ((2, 0, 0.0), (2, 1, math.log(0.5))):
            spec = quadratic_disk_spec(k, l, require=False)
            ut = flow.rhs(spec.u0_grid, spec)
            assert np.max(np.abs(ut[:-1, :] - expected)) <= 1e-12

    def test_matches_eigenvalue_route_per_node(self):
        grid = disk_grid(10, 20)
        spec1 = quadratic_disk_spec(n_r=10, n_t=20)
        u = (0.4 * (grid.x**2 + grid.y**2)
             + 0.05 * np.sin(1.3 * grid.x + 0.4) * np.cos(0.9 * grid.y)
             + 0.03 * (grid.x - 0.2) ** 2)
        hxx, hxy, hyy = discretize.hessian(grid, u)
        for k, l in ((1, 0), (2, 0), (2, 1)):
            spec = flow.ProblemSpec(grid, k, l, f="1", phi="1",
                                    u0="(x1^2 + x2^2)/2",
                                    require_nonnegative_initial_speed=False)
            ut = flow.rhs(u, spec)
            g_max = flow._evaluate(spec, u).g_max
            for i in range(grid.shape[0] - 1):
                for j in range(0, grid.shape[1], 3):
                    a = np.array([[hxx[i, j], hxy[i, j]],
                                  [hxy[i, j], hyy[i, j]]])
                    want, F = symmfunc.log_quotient_matrix(a, k, l)
                    assert abs(ut[i, j] - want) <= 1e-10
                    # the dt rule's speed bound is the top eigenvalue of F
                    top = np.linalg.eigvalsh(F)[-1]
                    assert abs(g_max[i, j] - top) <= 1e-10 * abs(top)
        del spec1

    def test_concave_data_rejected_with_node(self):
        spec = quadratic_disk_spec()
        with pytest.raises(symmfunc.AdmissibilityError, match="at node"):
            flow.rhs(-spec.u0_grid, spec)

    def test_concave_initial_data_rejected_at_build(self):
        with pytest.raises(symmfunc.AdmissibilityError, match="initial data"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="1", phi="-1",
                             u0="-(x1^2 + x2^2)/2")


class TestValidation:
    def test_nonpositive_f_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="x1", phi="1",
                             u0="(x1^2 + x2^2)/2")

    def test_decreasing_f_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="exp(0 - u)", phi="1",
                             u0="(x1^2 + x2^2)/2",
                             require_nonnegative_initial_speed=False)

    def test_growth_rate_claim_checked(self):
        with pytest.raises(ValueError, match="growth_rate"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="exp(0.5*u)", phi="1",
                             u0="(x1^2 + x2^2)/2", growth_rate=1.0,
                             require_nonnegative_initial_speed=False)

    def test_increasing_phi_rejected(self):
        with pytest.raises(ValueError, match="decreasing"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="1", phi="1 + u",
                             u0="(x1^2 + x2^2)/2")

    def test_negative_initial_speed_rejected_when_required(self):
        # D^2 u0 = I so the quotient is 2 for k=1; f = 3 exceeds it
        with pytest.raises(ValueError, match="initial speed"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="3", phi="1",
                             u0="(x1^2 + x2^2)/2",
                             require_nonnegative_initial_speed=True)
        spec = flow.ProblemSpec(disk_grid(), 1, 0, f="3", phi="1",
                                u0="(x1^2 + x2^2)/2",
                                require_nonnegative_initial_speed=False)
        assert spec.ut0_max < 0

    def test_compatibility_residual_recorded(self):
        spec = quadratic_disk_spec()
        assert spec.initial_neumann_residual <= 1e-12
        bump = flow.ProblemSpec(
            disk_grid(), 1, 0, f="1", phi="1",
            u0="(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2")
        assert 0.0 < bump.initial_neumann_residual < 0.1

    @pytest.mark.parametrize("cfl", [0.0, -0.1, math.nan, math.inf])
    def test_unusable_cfl_rejected(self, cfl):
        with pytest.raises(ValueError, match="cfl must be finite and "
                                             "positive"):
            flow.ProblemSpec(disk_grid(), 1, 0, f="1", phi="1",
                             u0="(x1^2 + x2^2)/2", cfl=cfl)

    def test_amplitude_and_floor_need_both_rates(self):
        spec = quadratic_disk_spec()
        assert spec.amplitude_bound is None
        # u0 = r^2/2 - 1/2 vanishes on the boundary, so u_nu = 1 = 1 - u
        spec2 = flow.ProblemSpec(disk_grid(), 1, 0, f="2*exp(u)",
                                 phi="1 - u", u0="(x1^2 + x2^2)/2 - 0.5",
                                 growth_rate=1.0,
                                 require_nonnegative_initial_speed=False)
        assert spec2.amplitude_bound > 0
        assert spec2.quotient_floor > 0


class TestFields:
    def test_normalized_field_passes_through(self):
        for expr, depends in (("1 + x1/3", False), ("1 - u", True)):
            phi = flow._as_field(expr, "phi")
            assert phi.depends_on_u is depends
            assert flow._as_field(phi, "phi") is phi
        opaque = flow._as_field(lambda x, y, u: np.ones_like(x), "phi")
        assert opaque.depends_on_u is None
        assert flow._as_field(opaque, "phi") is opaque

    def test_respecified_phi_keeps_its_flag(self):
        # elliptic.solve_regularized and the CLI translation check build
        # a second ProblemSpec from spec.phi
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        again = flow.ProblemSpec(spec.grid, 1, 0, f="1", phi=spec.phi,
                                 u0=spec.u0_grid)
        assert again.phi is spec.phi
        assert again.phi.depends_on_u is False

    @pytest.mark.parametrize("slot", ["f", "phi"])
    def test_grid_array_only_for_u0(self, slot):
        grid = disk_grid(8, 16)
        assert flow._as_field(np.ones(grid.shape), "u0").depends_on_u is False
        with pytest.raises(TypeError, match=f"only for u0, not for '{slot}'"):
            flow._as_field(np.ones(grid.shape), slot)


class TestDtSelection:
    def test_matches_speed_bound_formula(self):
        spec = quadratic_disk_spec()
        state = flow.initial_state(spec)
        # D^2 u = I: for k=1 the quotient slope bound is 1/trace = 1/2
        want = 0.4 * spec.h_min**2 / (4.0 * 0.5)
        assert abs(state.dt - want) <= 1e-12 * want

    def test_update_spacing_values(self):
        grid = disk_grid(16, 32)
        # ring 0 keeps two azimuthal modes: spacing pi*(dr/2)/2
        want = math.pi * grid.dr / 4.0
        assert abs(flow.min_update_spacing(grid) - want) <= 1e-15
        # the same caps drive the pole filter's slaving plan
        caps = flow._mode_caps(grid)
        assert flow.min_update_spacing(grid) == min(
            grid.dr, float(np.min(np.pi * grid.r[:-1] / caps)))
        sq = square_grid(17)
        assert flow.min_update_spacing(sq) == sq.h

    def test_doubling_resolution_quarters_dt(self):
        dts = []
        for n_r, n_t in ((8, 16), (16, 32)):
            spec = quadratic_disk_spec(n_r=n_r, n_t=n_t)
            dts.append(flow.initial_state(spec).dt)
        ratio = dts[0] / dts[1]
        assert 3.6 <= ratio <= 4.4

    def test_nonfinite_speed_bound_raises(self):
        spec = quadratic_disk_spec()
        state = flow.initial_state(spec)
        state.u = state.u * np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises((flow.DivergenceError,
                                symmfunc.AdmissibilityError)):
                flow.select_dt(state, spec)


class TestPoleFilter:
    """The slaving map S of `_slave_modes` on the interior rings."""

    @staticmethod
    def plan_and_fields(n_r=16, n_t=32, seed=0):
        grid = disk_grid(n_r, n_t)
        plan = flow._filter_plan(grid)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, n_r - 1, n_t))
        return grid, plan, u, v

    @staticmethod
    def slave(plan, block):
        return flow._slave_modes(plan, block.copy(), block.shape[1])

    def test_linear(self):
        _, plan, u, v = self.plan_and_fields()
        lhs = self.slave(plan, 2.5 * u - 0.75 * v)
        rhs = 2.5 * self.slave(plan, u) - 0.75 * self.slave(plan, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_idempotent(self):
        _, plan, u, _ = self.plan_and_fields()
        once = self.slave(plan, u)
        assert np.max(np.abs(self.slave(plan, once) - once)) <= 1e-12
        assert np.max(np.abs(once - u)) > 1e-3

    def test_resolved_modes_pass_through(self):
        grid, plan, u, _ = self.plan_and_fields()
        caps = flow._mode_caps(grid)
        before = np.fft.rfft(u, axis=1)
        after = np.fft.rfft(self.slave(plan, u), axis=1)
        for j, cap in enumerate(caps):
            assert np.max(np.abs(after[j, :cap + 1]
                                 - before[j, :cap + 1])) <= 1e-12
        # the innermost ring keeps modes 0..2 only
        assert caps[0] == 2
        assert np.max(np.abs(after[0, 3:] - before[0, 3:])) > 1e-3
        # slaved modes follow r^m, so harmonic r^m cos(m theta) is kept
        r, theta = grid.r[:-1, None], grid.theta[None, :]
        for m in (3, 7, 16):
            harmonic = r**m * np.cos(m * theta)
            assert np.max(np.abs(self.slave(plan, harmonic)
                                 - harmonic)) <= 1e-12


class TestStep:
    def test_uniform_speed_shifts_field(self):
        spec = quadratic_disk_spec()
        state = flow.initial_state(spec)
        new = flow.step(state, spec)
        shift = new.u - state.u
        # interior rises by dt*log2 and the closure follows it exactly
        assert np.max(np.abs(shift - new.dt * math.log(2.0))) <= 1e-13
        assert new.step_count == 1
        assert new.t == new.dt

    def test_forced_large_dt_diverges(self):
        # Exact quadratic data on the square: D^2 u0 = diag(1, 1e-5) and
        # D^2 u_t = diag(0, -80) at every deep interior node, so any dt
        # down to 2^-20 drives the small eigenvalue negative.
        lam2 = 1e-5

        def u0(x, y):
            return 0.5 * (x * x + lam2 * y * y)

        def phi(x, y, u):
            on_x = np.abs(np.abs(x) - 1.0) < 1e-12
            on_y = np.abs(np.abs(y) - 1.0) < 1e-12
            gx = np.where(on_x, np.sign(x) * x, 0.0)
            gy = np.where(on_y, np.sign(y) * lam2 * y, 0.0)
            return np.where(on_x & on_y, 0.5 * (gx + gy), gx + gy)

        def f(x, y, u):
            return lam2 * np.exp(40.0 * y * y)

        spec = flow.ProblemSpec(square_grid(9), 2, 0, f=f, phi=phi, u0=u0,
                                require_nonnegative_initial_speed=False)
        state = flow.initial_state(spec)
        state.dt = 1.0
        out = flow.step(state, spec)
        assert out.diverged
        assert out.t == state.t
        assert np.array_equal(out.u, state.u)
        # with its own dt the guarded step stays admissible
        state.dt = 0.0
        for _ in range(3):
            state = flow.step(state, spec)
            assert not state.diverged


class TestManufacturedSteady:
    """f and phi built so u* = (x^2+y^2)/2 + 0.05 cos(pi x)cos(pi y) is
    a steady point of the k=1 flow on the square, with unit u-damping
    in both f and phi."""

    @staticmethod
    def fields():
        def ustar(x, y):
            return 0.5 * (x * x + y * y) + 0.05 * np.cos(np.pi * x) * np.cos(np.pi * y)

        def ustar_x(x, y):
            return x - 0.05 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)

        def ustar_y(x, y):
            return y - 0.05 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)

        def lap(x, y):
            return 2.0 - 0.1 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)

        def f(x, y, u):
            return lap(x, y) * np.exp(u - ustar(x, y))

        def phi(x, y, u):
            on_x = np.abs(np.abs(x) - 1.0) < 1e-12
            on_y = np.abs(np.abs(y) - 1.0) < 1e-12
            gx = np.where(on_x, np.sign(x) * ustar_x(x, y), 0.0)
            gy = np.where(on_y, np.sign(y) * ustar_y(x, y), 0.0)
            g = np.where(on_x & on_y, 0.5 * (gx + gy), gx + gy)
            return g + ustar(x, y) - u

        return ustar, f, phi

    def test_residual_small_at_exact_profile(self):
        ustar, f, phi = self.fields()
        errs = []
        for n in (17, 33):
            grid = square_grid(n)
            spec = flow.ProblemSpec(grid, 1, 0, f=f, phi=phi, u0=ustar,
                                    growth_rate=1.0,
                                    require_nonnegative_initial_speed=False)
            ut = flow.rhs(spec.u0_grid, spec)
            # away from the boundary strip the residual is second order
            deep = np.abs(ut[2:-2, 2:-2])
            assert np.max(deep) <= 10.0 * grid.h**2
            errs.append(float(np.max(np.abs(ut))))
        # the one-sided closure leaves a first-order strip at worst
        assert errs[1] <= 0.7 * errs[0]

    def test_flow_settles_to_profile(self):
        ustar, f, phi = self.fields()
        grid = square_grid(17)

        def u_init(x, y):
            return ustar(x, y) + 0.1 * (1 - x * x) ** 2 * (1 - y * y) ** 2

        spec = flow.ProblemSpec(grid, 1, 0, f=f, phi=phi, u0=u_init,
                                growth_rate=1.0, damping_rate=-1.0,
                                require_nonnegative_initial_speed=False)
        result = flow.run(spec, mode="steady", t_max=40.0)
        assert result.status == "steady"
        assert result.series["max_abs_ut"][-1] < 1e-8
        err = np.max(np.abs(result.state.u - ustar(grid.x, grid.y)))
        assert err <= 10.0 * grid.h**2
        rate = flow.decay_rate(result)
        assert rate >= 0.8
        report = flow.monitor_report(result, spec)
        assert report["all_ok"]["ok"], report
        assert "ut_decay_envelope" in report
        assert "amplitude" in report
        assert "quotient_floor" in report


class TestTranslatingRun:
    def test_disk_speed_and_monotone_gap(self):
        spec = flow.ProblemSpec(
            disk_grid(16, 32), 1, 0, f="1", phi="1",
            u0="(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2")
        result = flow.run(spec, mode="translating", t_max=20.0)
        assert result.status == "translating"
        assert abs(result.series["mean_ut"][-1] - math.log(2.0)) <= 2e-2
        assert min(r.min_ut for r in result.records) >= -1e-6
        report = flow.monitor_report(result, spec, mode="translating")
        assert report["gap_osc_nonincreasing"]["ok"]
        assert report["all_ok"]["ok"], report

    @pytest.mark.parametrize("setting", ["window", "checkpoint_every"])
    def test_loop_settings_below_one_rejected(self, setting):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        with pytest.raises(ValueError, match=setting):
            flow.run(spec, mode="translating", **{setting: 0})

    @pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
    def test_unbounded_or_empty_t_max_rejected(self, t_max):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        with pytest.raises(ValueError, match="t_max"):
            flow.run(spec, mode="translating", t_max=t_max)

    def test_initial_state_evaluated_once(self, monkeypatch):
        # one Hessian for ProblemSpec validation, one for the initial
        # state, one per step (no dt halvings on this run)
        calls = []
        hessian = discretize.hessian

        def counting(grid, u):
            calls.append(1)
            return hessian(grid, u)

        monkeypatch.setattr(discretize, "hessian", counting)
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=0.05,
                          checkpoint_every=10)
        assert result.state.step_count > 10
        assert len(calls) == result.state.step_count + 2

    def test_t_max_status(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=0.01)
        assert result.status == "t_max"
        assert result.state.t >= 0.01 - 1e-12


class TestMonitorCsv:
    def test_round_trip_and_layout(self, tmp_path):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=0.05,
                          checkpoint_every=10)
        path = tmp_path / "monitors.csv"
        flow.write_monitor_csv(path, result, metadata=["grid=disk 8x16"])
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# grid=disk 8x16"
        assert lines[1] == ("t,max_ut,min_ut,min_u,max_u,sup_grad,"
                            "sup_hess,min_quotient,osc,status")
        assert lines[-1].endswith(",t_max")
        for row in lines[2:-1]:
            assert row.endswith(",running")
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1]) - math.log(2.0)) <= 1e-12
        flow.write_monitor_csv(tmp_path / "again.csv", result,
                               metadata=["grid=disk 8x16"])
        assert (tmp_path / "again.csv").read_text() == text
