"""Flow module tests: right side values and slopes against the eigen
route, the dt rule, guarded stepping, stop rules, monitors."""

import math
import types

import numpy as np
import pytest

from hqflow import discretize, exprparse, flow, geometry, symmfunc


def disk_grid(n_r=12, n_t=24):
    return geometry.build_grid(geometry.Disk(1.0), n_r=n_r, n_theta=n_t)


def quadratic_disk_spec(k=1, l=0, n_r=12, n_t=24, require=True):
    """u0 = r^2/2 on the unit disk has u_nu = 1 and D^2 u0 = I."""
    return flow.ProblemSpec(disk_grid(n_r, n_t), k, l, f="1", phi="1",
                            u0="(x1^2 + x2^2)/2",
                            require_nonnegative_initial_speed=require)


def start(spec):
    """The state a run starts from, and its evaluation."""
    state = flow.FlowState(t=0.0, u=spec.u0_grid.copy(), dt=math.inf)
    return state, flow._evaluate(spec, state.u)


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
            slopes = flow._evaluate(spec, u).slopes
            for i in range(grid.shape[0] - 1):
                for j in range(0, grid.shape[1], 3):
                    a = np.array([[hxx[i, j], hxy[i, j]],
                                  [hxy[i, j], hyy[i, j]]])
                    want, F = symmfunc.log_quotient_matrix(a, k, l)
                    assert abs(ut[i, j] - want) <= 1e-10
                    # the slopes the linear solve runs are d log q / dA
                    scale = np.max(np.abs(F))
                    for got, w in zip(slopes, (F[0, 0], 2.0 * F[0, 1],
                                               F[1, 1])):
                        assert abs(got[i, j] - w) <= 1e-10 * scale
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
        assert np.max(flow.rhs(spec.u0_grid, spec)[:-1, :]) < 0

    def test_compatibility_residual_recorded(self):
        # the residual of the initial data before the closure replaces
        # its boundary values
        def residual(spec):
            g = spec.grid
            return np.max(np.abs(discretize.neumann_residual(
                g, spec.u0(g.x, g.y), spec.phi)))

        assert residual(quadratic_disk_spec()) <= 1e-12
        bump = flow.ProblemSpec(
            disk_grid(), 1, 0, f="1", phi="1",
            u0="(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2")
        assert 0.0 < residual(bump) < 0.1

    @pytest.mark.parametrize("cfl", [0.0, -0.1, math.nan, math.inf, 0.4])
    def test_unusable_cfl_rejected(self, cfl):
        # the first dt is the cap, so there is no cfl to set, whatever
        # its value
        with pytest.raises(TypeError, match="'cfl'"):
            flow.ProblemSpec(disk_grid(4, 8), 1, 0, f="1", phi="1",
                             u0="(x1^2 + x2^2)/2", cfl=cfl)

    @pytest.mark.parametrize("changes, field", [
        ({"k": 3}, "k"), ({"l": 1}, "l"),
        ({"u0": "log(x1)"}, "u0"),
        ({"f": "log(u - 5)"}, "f"),
        ({"phi": "sqrt(u - 5)"}, "phi"),
        ({"phi": "1e308*1e308"}, "phi"),
        ({"phi": "-1"}, "phi"),
        ({"phi": "1 - 0.5*u", "damping_rate": -1.0}, "damping_rate"),
        ({"growth_rate": math.nan}, "growth_rate"),
        ({"damping_rate": math.nan}, "damping_rate")])
    def test_rejected_argument_named(self, changes, field):
        # phi = -1 closes the admissible u0 to boundary values that take
        # it out of the cone, so the closure, not u0, is at fault
        kwargs = dict(k=1, l=0, f="1", phi="1", u0="(x1^2 + x2^2)/2")
        kwargs.update(changes)
        with pytest.raises(geometry.ArgumentError) as exc:
            flow.ProblemSpec(disk_grid(4, 8), **kwargs)
        assert exc.value.field == field
        assert str(exc.value) == f"{field} {exc.value.reason}"

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
            phi = exprparse.as_field(expr, "phi")
            assert phi.depends_on_u is depends
            assert exprparse.as_field(phi, "phi") is phi
        # a parsed expression is taken as it is, and kept as `expr`
        ast = exprparse.parse("1 - u", slot="phi")
        parsed = exprparse.as_field(ast, "phi")
        assert parsed.expr is ast and parsed.depends_on_u is True
        assert exprparse.as_field(parsed, "phi") is parsed

    @pytest.mark.parametrize("slot", ["u0", "f", "phi"])
    def test_callable_is_not_a_field(self, slot):
        with pytest.raises(TypeError, match="cannot use"):
            exprparse.as_field(lambda x, y, u: np.ones_like(x), slot)

    def test_fields_carry_their_u_derivative(self):
        x = np.array([0.5, -0.25])
        u = np.array([0.3, 1.7])
        parsed = exprparse.as_field("x1*u^2", "f")
        assert np.array_equal(parsed.du(x, x, u), 2.0 * x * u)
        # a field free of u has the slope exactly 0
        free = exprparse.as_field("1 + x1", "phi")
        assert free.depends_on_u is False
        assert np.array_equal(free.du(x, x, u), np.zeros(2))

    def test_respecified_phi_keeps_its_flag(self):
        # elliptic.translation_identity builds a second ProblemSpec from
        # spec.phi
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        again = flow.ProblemSpec(spec.grid, 1, 0, f="1", phi=spec.phi,
                                 u0=spec.u0_grid)
        assert again.phi is spec.phi
        assert again.phi.depends_on_u is False

    @pytest.mark.parametrize("slot", ["f", "phi"])
    def test_grid_array_only_for_u0(self, slot):
        grid = disk_grid(8, 16)
        u0 = exprparse.as_field(np.ones(grid.shape), "u0")
        assert u0.depends_on_u is False
        with pytest.raises(TypeError, match=f"only for u0, not for '{slot}'"):
            exprparse.as_field(np.ones(grid.shape), slot)


class TestDtSelection:
    """Each dt is min(2 dt_prev, 0.25 / max(1, max f_u/f), t_max - t):
    the first is the cap, and a step that leaves the cone is retried
    with dt halved."""

    def test_first_dt_is_the_cap(self):
        spec = quadratic_disk_spec()
        state, ev = start(spec)
        cap = flow._dt_cap(flow._log_f_slope(spec, state.u, ev))
        assert cap == 0.25
        result = flow.run(spec, mode="steady", t_max=1.0, tol_steady=0.0)
        assert result.records[1].t == cap

    def test_u_free_f_takes_no_derivative(self, monkeypatch):
        # f_u/f of an f free of u is the scalar 0, which gives the same
        # dt cap and step matrix as the zeros that f = 1 + 0*u gives
        u0 = "(x1^2 + x2^2)/2 + 0.08*(1 - x1^2 - x2^2)^2"

        def run(f):
            spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f=f, phi="1",
                                    u0=u0,
                                    require_nonnegative_initial_speed=False)

            def refused(*args):
                raise AssertionError("f.du called for a u-free f")

            if not spec.f.depends_on_u:
                monkeypatch.setattr(spec.f, "du", refused)
            return flow.run(spec, mode="steady", t_max=2.0, tol_steady=0.0)

        free, zero = run("1"), run("1 + 0*u")
        assert free.records == zero.records
        assert free.factorizations == zero.factorizations

    def test_dt_doubles_up_to_the_cap(self, monkeypatch):
        # f = u^4 has f_u/f = 4/u, so the cap grows as u rises from its
        # least value 0.0032: more than twofold over the first steps,
        # where doubling bounds dt, then less, where the cap does
        caps = []
        dt_cap = flow._dt_cap

        def recording(slope):
            caps.append(dt_cap(slope))
            return caps[-1]

        monkeypatch.setattr(flow, "_dt_cap", recording)
        spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f="u^4", phi="1",
                                u0="(x1^2 + x2^2)/2 + 0.001",
                                require_nonnegative_initial_speed=False)
        result = flow.run(spec, mode="steady", t_max=0.05, tol_steady=0.0)
        t = np.array([r.t for r in result.records])
        assert len(t) == result.state.step_count + 1
        # caps[0] sets the step budget, caps[n] the dt of step n
        steps, caps = np.diff(t), np.array(caps[1:])
        prev = np.concatenate(([math.inf], steps[:-1]))
        want = np.minimum(np.minimum(2.0 * prev, caps), 0.05 - t[:-1])
        assert np.allclose(steps, want, rtol=1e-12, atol=0.0)
        assert steps[0] == caps[0]
        assert np.any(2.0 * prev < caps) and np.any(caps < 2.0 * prev)
        assert t[-1] == 0.05

    def test_dt_halves_on_a_cone_exit(self):
        # J folds in only a u-free phi; a strongly u-damped phi pins the
        # boundary while the interior rises, and the steps of dt 0.25
        # and 0.125 leave the cone next to the boundary
        spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f="1",
                                phi="1 + 10*(0.5 - u)", u0="(x1^2 + x2^2)/2")
        state, ev = start(spec)
        slope = flow._log_f_slope(spec, state.u, ev)
        for dt in (0.25, 0.125):
            u = state.u.copy()
            u[flow._INTERIOR] += flow._linearized_solve(
                spec, ev.slopes, slope + 1.0 / dt, ev.ut)
            u = discretize.apply_neumann(spec.grid, u, spec.phi)
            assert not flow._evaluate(spec, u).ok_all
        new, _ = flow._implicit_update(spec, state, ev, slope, 0.25)
        assert not new.diverged and new.dt == 0.0625
        # a run takes that step first, then doubles from it
        result = flow.run(spec, mode="steady", t_max=0.5, tol_steady=0.0)
        assert [r.t for r in result.records[1:3]] == [0.0625, 0.1875]


class TestImplicitDamping:
    """The linear solve of a step, and the damping of the azimuthal
    modes that an explicit update could not resolve near the pole."""

    def test_solve_is_linear(self):
        # the step's linear solve superposes
        spec = quadratic_disk_spec(n_r=16, n_t=32)
        ev = flow._evaluate(spec, spec.u0_grid)
        a, b = np.random.default_rng(0).standard_normal((2,) + ev.ut.shape)

        def solve(r):
            return flow._linearized_solve(spec, ev.slopes, 10.0, r)

        lhs = solve(2.5 * a - 0.75 * b)
        rhs = 2.5 * solve(a) - 0.75 * solve(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    def test_steady_state_is_a_fixed_point(self):
        # a step of the largest dt maps a steady state to itself: J is
        # exact only for a u-free phi, but u_t = 0 is the fixed point of
        # the step with any J
        ustar, f, phi = TestManufacturedSteady.fields()
        spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0, f=f, phi=phi,
                                u0=ustar, growth_rate=1.0,
                                require_nonnegative_initial_speed=False)
        result = flow.run(spec, mode="steady", t_max=40.0, tol_steady=1e-10)
        assert result.status == "steady"
        state = result.state
        ev = flow._evaluate(spec, state.u)
        slope = flow._log_f_slope(spec, state.u, ev)
        new, _ = flow._implicit_update(spec, state, ev, slope, 0.25)
        assert new.dt == 0.25
        assert np.max(np.abs(new.u - state.u)) <= 1e-10

    def test_top_pole_mode_damped_in_one_step(self):
        # the highest azimuthal mode on the innermost ring, which an
        # explicit update of this dt would amplify about 12,000-fold, is
        # damped by one step of the largest dt, in the cone
        spec = quadratic_disk_spec(n_r=16, n_t=32, require=False)
        m = 15
        state, _ = start(spec)
        state.u[0] += 1e-6 * np.cos(m * spec.grid.theta)
        ev = flow._evaluate(spec, state.u)
        assert ev.ok_all
        slope = flow._log_f_slope(spec, state.u, ev)
        new, ev_new = flow._implicit_update(spec, state, ev, slope, 0.25)
        assert not new.diverged and new.dt == 0.25

        def amplitude(u):
            return abs(np.fft.rfft(u[0])[m])

        assert amplitude(new.u) <= 1e-2 * amplitude(state.u)
        # the smooth part moves by about dt log 2, as on exact data
        assert abs(np.mean(new.u - state.u) - 0.25 * math.log(2.0)) <= 1e-5


class TestStep:
    """One linearly-implicit step, (I/dt - J) du = u_t."""

    def test_uniform_speed_shifts_field(self):
        spec = quadratic_disk_spec()
        state, ev = start(spec)
        slope = flow._log_f_slope(spec, state.u, ev)
        new, _ = flow._implicit_update(spec, state, ev, slope,
                                       flow._dt_cap(slope))
        shift = new.u - state.u
        # J annihilates constants, so the interior rises by dt*log2 and
        # the closure follows it exactly
        assert new.dt == 0.25
        assert np.max(np.abs(shift - new.dt * math.log(2.0))) <= 1e-13
        assert new.step_count == 1
        assert new.t == new.dt

    def test_constant_mode_decays_by_the_implicit_factor(self):
        # f = 2 exp(4 (u - r^2/2)) makes u_t = -4 c uniform on u = r^2/2
        # + c, and J 1 = -f_u/f = -4, so one step multiplies c by
        # 1 / (1 + 4 dt), where forward Euler would give 1 - 4 dt
        spec = flow.ProblemSpec(disk_grid(8, 16), 1, 0,
                                f="2*exp(4*(u - (x1^2 + x2^2)/2))", phi="1",
                                u0="(x1^2 + x2^2)/2 + 0.1",
                                require_nonnegative_initial_speed=False)
        state, ev = start(spec)
        slope = flow._log_f_slope(spec, state.u, ev)
        dt = flow._dt_cap(slope)
        assert dt == 0.0625
        new, _ = flow._implicit_update(spec, state, ev, slope, dt)
        shift = new.u - (state.u - 0.1)
        assert np.max(np.abs(shift - 0.1 / (1.0 + 4.0 * dt))) <= 1e-12

    def test_forced_large_dt_diverges(self):
        # Quadratic data on the disk: D^2 u0 = diag(1, 1e-5), phi = x.grad
        # u0 its normal derivative, and f makes u_t = -40 x2^2, so D^2 u_t
        # = diag(0, -80); the linearization holds only while dt is tiny:
        # the exact flow leaves the cone at t = 1.25e-7, and a step from
        # dt = 1 does so after every one of its 20 halvings.
        spec = flow.ProblemSpec(disk_grid(8, 16), 2, 0,
                                f="1e-5*exp(40*x2^2)",
                                phi="x1^2 + 1e-5*x2^2",
                                u0="(x1^2 + 1e-5*x2^2)/2",
                                require_nonnegative_initial_speed=False)
        state, ev = start(spec)
        slope = flow._log_f_slope(spec, state.u, ev)
        out, _ = flow._implicit_update(spec, state, ev, slope, 1.0)
        assert out.diverged
        assert out.t == state.t and out.dt == 2.0 ** -21
        assert np.array_equal(out.u, state.u)
        # steps that end before the exact exit stay admissible
        for _ in range(3):
            state, ev = flow._implicit_update(spec, state, ev, slope, 1e-8)
            assert not state.diverged and state.dt == 1e-8
        # a run starts at the cap, 0.25, and halves it past the exit too
        result = flow.run(spec, mode="steady", t_max=1.0)
        assert result.status == "diverged"
        assert result.state.step_count == 0


class TestManufacturedSteady:
    """f and phi built so u* = |x|^2/2 + 0.1 exp(x1/2) is a steady point
    of the k=1 flow on the unit disk, with unit u-damping in both f and
    phi (the fields of test_cli's CONV_CFG)."""

    @staticmethod
    def fields():
        ustar = "((x1^2 + x2^2)/2 + 0.1*exp(x1/2))"
        # sigma_1(D^2 u*) = 2 + 0.025 exp(x1/2), and x.grad u* on the disk
        f = f"(2 + 0.025*exp(x1/2)) * exp(u - {ustar})"
        phi = f"1 + 0.05*x1*exp(x1/2) + {ustar} - u"
        return ustar, f, phi

    def test_residual_small_at_exact_profile(self):
        ustar, f, phi = self.fields()
        errs = []
        for n_r, n_t in ((8, 16), (16, 32)):
            grid = disk_grid(n_r, n_t)
            spec = flow.ProblemSpec(grid, 1, 0, f=f, phi=phi, u0=ustar,
                                    growth_rate=1.0,
                                    require_nonnegative_initial_speed=False)
            ut = flow.rhs(spec.u0_grid, spec)
            # away from the pole the residual is second order
            deep = np.abs(ut[grid.interior_mask & (grid.r[:, None] >= 0.3)])
            assert np.max(deep) <= 0.05 * geometry.mesh_size(grid) ** 2
            errs.append(float(np.max(np.abs(ut))))
        # the innermost ring sees the m=1 mode at first order only
        assert errs[1] <= 0.7 * errs[0]

    def test_flow_settles_to_profile(self):
        ustar, f, phi = self.fields()
        grid = disk_grid(8, 16)
        spec = flow.ProblemSpec(grid, 1, 0, f=f, phi=phi,
                                u0=f"{ustar} + 0.1*(1 - x1^2 - x2^2)^2",
                                growth_rate=1.0, damping_rate=-1.0,
                                require_nonnegative_initial_speed=False)
        result = flow.run(spec, mode="steady", t_max=40.0)
        assert result.status == "steady"
        assert result.records[-1].max_abs_ut < 1e-8
        exact = exprparse.as_field(ustar, "u0")(grid.x, grid.y)
        err = np.max(np.abs(result.state.u - exact))
        assert err <= 0.01 * geometry.mesh_size(grid) ** 2
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
        assert abs(result.records[-1].mean_ut - math.log(2.0)) <= 2e-2
        assert min(r.min_ut for r in result.records) >= -1e-6
        report = flow.monitor_report(result, spec)
        assert report["gap_osc_nonincreasing"]["ok"]
        assert report["all_ok"]["ok"], report

    @pytest.mark.parametrize("setting", ["checkpoint_every"])
    def test_loop_settings_below_one_rejected(self, setting):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        with pytest.raises(ValueError, match=setting):
            flow.run(spec, mode="translating", **{setting: 0})

    @pytest.mark.parametrize("kwargs, field", [
        ({"mode": "drifting"}, "mode"),
        ({"mode": "translating", "f": "exp(0.1*u)"}, "mode"),
        ({"checkpoint_every": -1}, "checkpoint_every"),
        ({"t_max": math.inf}, "t_max"),
        ({"mode": "translating", "phi": "1 - 0.5*u"}, "mode")])
    def test_setting_errors_name_their_argument(self, kwargs, field):
        # the translating stop rule needs f and phi free of u
        data = {"f": "1", "phi": "1"}
        settings = {}
        for key, value in kwargs.items():
            (data if key in data else settings)[key] = value
        spec = flow.ProblemSpec(disk_grid(4, 8), 1, 0, u0="(x1^2 + x2^2)/2",
                                **data)
        with pytest.raises(geometry.ArgumentError) as exc:
            flow.run(spec, **settings)
        assert exc.value.field == field

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
        result = flow.run(spec, mode="translating", t_max=4.0,
                          tol_trans=0.0, checkpoint_every=10)
        assert result.state.step_count == 16
        assert len(calls) == result.state.step_count + 2

    @pytest.mark.parametrize("changes, field", [
        ({"f": "exp(4*u)", "t_max": 6.26e6}, "t_max"),
        ({"t_max": 1e20}, "t_max")])
    def test_step_budget_names_its_argument(self, changes, field):
        # a t_max of more than 1e8 steps of the largest dt is refused
        # before the first step; f = exp(4u) caps dt at 0.0625, which
        # allows a t_max of 6.25e6 at most
        kwargs = dict(f="1", phi="1", u0="(x1^2 + x2^2)/2",
                      require_nonnegative_initial_speed=False)
        kwargs.update(changes)
        t_max = kwargs.pop("t_max")
        spec = flow.ProblemSpec(disk_grid(4, 8), 1, 0, **kwargs)
        with pytest.raises(geometry.ArgumentError) as exc:
            flow.run(spec, mode="steady", t_max=t_max)
        assert exc.value.field == field
        assert "too many steps" in exc.value.reason
        result = flow.run(spec, mode="steady", t_max=0.25, tol_steady=0.0)
        assert result.status == "t_max" and result.state.t == 0.25

    def test_step_that_cannot_advance_t_diverges(self):
        # a dt below half an ulp of t would hold t where it is for ever
        spec = quadratic_disk_spec(n_r=4, n_t=8)
        state, ev = start(spec)
        state.t = 1.0
        slope = flow._log_f_slope(spec, state.u, ev)
        out, out_ev = flow._implicit_update(spec, state, ev, slope, 1e-17)
        assert out.diverged and out_ev is ev
        assert out.t == 1.0 and out.step_count == 0
        assert np.array_equal(out.u, state.u)

    @pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (2, 1)])
    def test_step_count_guard(self, k, l):
        # the main cost of a run: steps of the cap until osc(u_t) is
        # below tol_trans, which bounds |mean u_t - speed|; the
        # translating solution has D^2 u = I
        speed = math.log(math.comb(2, k) / math.comb(2, l))
        spec = flow.ProblemSpec(
            disk_grid(8, 16), k, l, f="1", phi="1",
            u0="(x1^2 + x2^2)/2 + 0.08*(1 - x1^2 - x2^2)^2",
            require_nonnegative_initial_speed=False)
        result = flow.run(spec, mode="translating", t_max=40.0,
                          tol_trans=1e-7)
        assert result.status == "translating"
        assert result.state.step_count <= 20
        assert abs(result.records[-1].mean_ut - speed) <= 1e-7

    def test_exact_translating_solution_stops_before_step_one(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=40.0)
        assert result.status == "translating"
        assert result.state.step_count == 0
        assert abs(result.records[-1].mean_ut - math.log(2.0)) <= 1e-12

    def test_records_hold_the_run_history(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=0.05,
                          tol_trans=0.0, checkpoint_every=10)
        first, *rest = result.records
        assert first.gap_osc is None
        assert rest and all(r.gap_osc >= 0.0 for r in rest)
        for r in result.records:
            assert r.min_ut <= r.mean_ut <= r.max_ut
            assert r.osc_ut == r.max_ut - r.min_ut
            assert r.max_abs_ut == max(abs(r.max_ut), abs(r.min_ut))
        assert result.mode == "translating"

    def test_t_max_status(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=0.01,
                          tol_trans=0.0)
        assert result.status == "t_max"
        assert result.state.t >= 0.01 - 1e-12


class TestLaggedFactorization:
    """Steps of one dt reuse the factorization of I/dt - J, a W-method
    step, while `_StepMatrix.keeps` them; a step it refuses is redone on
    a fresh factorization."""

    @staticmethod
    def ev(spec, hi, lo):
        """An evaluation with max u_t = hi and min u_t = lo."""
        n = spec.grid.x[flow._INTERIOR].shape
        return types.SimpleNamespace(
            ut_range=(hi, lo), slopes=(np.ones(n), np.zeros(n), np.ones(n)))

    def test_translating_rule(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        u = spec.u0_grid
        matrix = flow._StepMatrix(spec, "translating")

        def keeps(before, after):
            return matrix.keeps(u, self.ev(spec, *before),
                                self.ev(spec, *after))

        # the fresh step shrank osc(u_t) from 1 to 0.8
        matrix.keep_fresh("factors", 0.25, self.ev(spec, 1.0, 0.0),
                          self.ev(spec, 0.9, 0.1))
        # 0.8 -> 0.65 is within 1.1 times the fresh ratio: kept, and so
        # is the factorization
        assert keeps((0.9, 0.1), (0.85, 0.2))
        assert matrix.factors == "factors"
        # max u_t rises, min u_t falls, osc(u_t) stays: each is refused
        assert not keeps((0.9, 0.1), (0.95, 0.5))
        assert not keeps((0.9, 0.1), (0.5, 0.05))
        assert not keeps((0.9, 0.1), (0.9, 0.1))
        assert matrix.factors == "factors"
        # 0.65 -> 0.64 is slow: the step stands, the factorization goes
        assert keeps((0.85, 0.2), (0.84, 0.2))
        assert matrix.factors is None

    def test_steady_rule_measures_against_zero(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        u = spec.u0_grid
        matrix = flow._StepMatrix(spec, "steady")
        matrix.keep_fresh("factors", 0.25, self.ev(spec, 0.5, 0.2),
                          self.ev(spec, 0.4, 0.1))
        # u_t may fall to 0 but not below it, and max|u_t| must shrink
        assert matrix.keeps(u, self.ev(spec, 0.5, 0.2),
                            self.ev(spec, 0.3, 0.0))
        assert not matrix.keeps(u, self.ev(spec, 0.5, 0.2),
                                self.ev(spec, 0.3, -0.1))
        assert not matrix.keeps(u, self.ev(spec, -0.2, -0.5),
                                self.ev(spec, -0.1, -0.5))
        assert matrix.factors == "factors"

    @pytest.mark.parametrize("mode", ["steady", "translating"])
    def test_zero_stop_measure(self, mode, monkeypatch):
        # u_t exactly 0 makes the stop measure 0 before and after every
        # step, fresh or lagged; the rule forms no ratio, so it neither
        # divides by zero nor warns, and keeps the first factorization
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        evaluate = flow._evaluate

        def flat(spec, u):
            ev = evaluate(spec, u)
            ev.ut = np.zeros_like(ev.ut)
            return ev

        monkeypatch.setattr(flow, "_evaluate", flat)
        tol = "tol_steady" if mode == "steady" else "tol_trans"
        result = flow.run(spec, mode=mode, t_max=2.0, **{tol: 0.0})
        assert result.status == "t_max" and result.state.step_count == 8
        assert result.factorizations == 1 and result.linear_solves == 8
        assert np.array_equal(result.state.u, spec.u0_grid)

    def test_ellipse_run_refactors_rarely(self):
        # the coupled closure of the 1.25 x 0.8 ellipse with (k, l) =
        # (2, 1) is the case where a fixed refactoring stride of 5 breaks
        # the gap monitor; the rule keeps every monitor at every record
        a, b = 1.25, 0.8
        grid = geometry.build_grid(geometry.Ellipse(a, b), n_r=32,
                                   n_theta=64)
        spec = flow.ProblemSpec(
            grid, 2, 1, f="1", phi="1",
            u0=f"(x1^2/{a} + x2^2/{b})/2 "
               f"+ 0.08*(1 - x1^2/{a * a} - x2^2/{b * b})^2",
            require_nonnegative_initial_speed=False)
        result = flow.run(spec, mode="translating", t_max=40.0,
                          tol_trans=1e-7, checkpoint_every=1)
        assert result.status == "translating"
        assert flow.monitor_report(result, spec)["all_ok"]["ok"]
        assert result.factorizations < result.state.step_count / 2
        assert result.linear_solves >= result.state.step_count


class TestGapMonitor:
    """`gap_osc_nonincreasing` compares osc(u - u_prev) / (t - t_prev):
    the records of a run are not equally spaced in time."""

    @staticmethod
    def result(times, gaps):
        recs = [flow.MonitorRecord(t=t, max_ut=1.0, min_ut=1.0, mean_ut=1.0,
                                   min_u=0.0, max_u=1.0, sup_grad=1.0,
                                   sup_hess=1.0, min_quotient=1.0,
                                   osc_u=1.0, gap_osc=g)
                for t, g in zip(times, [None] + gaps)]
        return flow.RunResult(None, recs, "translating", "translating")

    def test_raw_gap_growing_with_dt_passes(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        # dt doubles while the gap per unit time halves
        res = self.result([0.0, 1.0, 3.0, 7.0], [0.5, 0.5, 0.5])
        check = flow.monitor_report(res, spec)["gap_osc_nonincreasing"]
        assert check["ok"] and check["margin"] > 0.0

    def test_planted_rise_is_flagged(self):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        # equal raw gaps, but the third covers half the time
        res = self.result([0.0, 1.0, 2.0, 2.5], [0.5, 0.5, 0.5])
        check = flow.monitor_report(res, spec)["gap_osc_nonincreasing"]
        assert not check["ok"]
        assert abs(check["margin"] - (spec.monitor_tol - 0.5)) <= 1e-15


LINEARIZED_GRIDS = {
    "disk": lambda: geometry.build_grid(geometry.Disk(1.0), n_r=8,
                                        n_theta=16),
    "ellipse": lambda: geometry.build_grid(geometry.Ellipse(1.25, 0.8),
                                           n_r=8, n_theta=16),
}


@pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (2, 1)])
@pytest.mark.parametrize("name", sorted(LINEARIZED_GRIDS))
def test_linearized_solve_inverts_the_derivative_of_rhs(name, k, l):
    """(d - J) x = r, solved by `_linearized_solve` with the diagonal
    d = f_u/f + s, recovers the w with r = s w - J w, where J w is the
    central difference of `rhs` along the closed direction of w: the
    derivative of u_t, with the closure of the u-free phi folded in and
    the -f_u/f of a u-dependent f."""
    grid = LINEARIZED_GRIDS[name]()
    # phi is the normal derivative of the quadratic part of u0 (see
    # test_discretize's TestHessianBlocks)
    a, b = grid.domain.a, grid.domain.b
    spec = flow.ProblemSpec(
        grid, k, l, f="exp(0.5*u)*(1 + 0.1*x1)",
        phi=f"sqrt((x1/{a * a})^2 + (x2/{b * b})^2)",
        u0=f"(x1^2/{a * a} + x2^2/{b * b})/2 + 0.05*x1*x2 + 0.02*x1^3",
        require_nonnegative_initial_speed=False)
    sl = flow._INTERIOR
    u = spec.u0_grid
    rng = np.random.default_rng(3)
    v = np.zeros(grid.shape)
    v[sl] = rng.standard_normal(v[sl].shape)
    zero = discretize.apply_neumann(grid, np.zeros(grid.shape), spec.phi)
    w = discretize.apply_neumann(grid, v, spec.phi) - zero
    # the inner ring makes |J w| about 1e4: a step of 1e-8 balances
    # truncation and round-off near 1e-8
    h = 1e-8
    jw = (flow.rhs(u + h * w, spec) - flow.rhs(u - h * w, spec))[sl] \
        / (2.0 * h)
    s = 10.0
    ev = flow._evaluate(spec, u)
    x = flow._linearized_solve(spec, ev.slopes,
                               flow._log_f_slope(spec, u, ev) + s,
                               s * w[sl] - jw)
    # without the f_u/f term the gap is 0.05
    assert np.max(np.abs(x - w[sl])) <= 1e-6


class TestMonitorCsv:
    def test_round_trip_and_layout(self, tmp_path):
        spec = quadratic_disk_spec(n_r=8, n_t=16)
        result = flow.run(spec, mode="translating", t_max=0.05,
                          tol_trans=0.0, checkpoint_every=10)
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
