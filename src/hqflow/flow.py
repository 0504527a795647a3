"""Explicit time stepping for u_t = log(sigma_k/sigma_l(D^2 u)) - log f(x, u)
with the oblique boundary condition u_nu = phi(x, u) on convex planar
domains.

The right side is evaluated from the closed-form 2x2 eigenvalue pair of
the discrete Hessian, guarded so the spectrum stays in the Garding cone
Gamma_k.  `step` and `run` advance through one guarded update: forward
Euler on interior nodes with dt = cfl h_min^2 / (4 g_max); azimuthal
modes too fine for their ring near the polar axis are slaved to their
harmonic extension from the first resolving ring (removing the
azimuthal CFL restriction without losing the O(r^m) physical content);
the boundary ring is re-slaved to the Neumann closure.  A step that
would leave the cone is retried with a halved dt, up to 20 times, after
which the state is declared diverged.

Runs record monitor series (extrema of u and u_t, gradient and Hessian
sups, the quotient floor, oscillation) that mirror the a priori bounds
of the continuous theory: the maximum principle for u_t, exponential
decay of u_t when log f grows in u at a definite rate, the C^0
amplitude bound built from the boundary damping rate, and the lower
bound on the quotient along the flow.  The u_t entering the series and
stop rules is the actual time derivative of the evolving state (slaved
pole coefficients move with their source ring); `rhs` exposes the raw
operator.  `monitor_report` grades a finished run against all of the
bounds.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import discretize, exprparse, symmfunc
from .symmfunc import AdmissibilityError

__all__ = [
    "ProblemSpec", "FlowState", "MonitorRecord", "RunResult",
    "DivergenceError", "rhs", "select_dt", "step", "run",
    "initial_state", "decay_rate", "monitor_report", "write_monitor_csv",
    "min_update_spacing",
]

_EXPR_TYPES = (exprparse.Num, exprparse.Var, exprparse.Neg,
               exprparse.BinOp, exprparse.Call)
_MAX_HALVINGS = 20
_SHIFT_GATE = 1e-7


class DivergenceError(RuntimeError):
    """The explicit scheme could not continue (non-finite speed bound)."""


def _as_field(obj, slot):
    """Normalize an expression string / parsed expression / callable /
    grid array (u0 only) to a vectorized callable; `slot` picks the
    allowed variables.

    The result carries `depends_on_u`: True or False when known, None
    for an opaque callable.  A field this function already made for the
    same slot is returned unchanged, so the flag survives being passed
    on to another ProblemSpec.
    """
    if getattr(obj, "field_slot", None) == slot:
        return obj
    fn = _make_field(obj, slot)
    fn.field_slot = slot
    return fn


def _make_field(obj, slot):
    if isinstance(obj, np.ndarray):
        if slot != "u0":
            raise TypeError(
                f"a grid array is accepted only for u0, not for {slot!r}; "
                f"pass an expression or a callable of (x, y, u)")

        def fn(x, y, u=None, _v=obj.astype(float, copy=True)):
            return np.broadcast_to(_v, np.shape(x))

        fn.depends_on_u = False
        return fn
    if isinstance(obj, str):
        obj = exprparse.parse(obj, slot=slot)
    if isinstance(obj, _EXPR_TYPES):
        names = exprparse.free_vars(obj)
        uses_u = "u" in names

        def fn(x, y, u=None, _ast=obj, _uses_u=uses_u):
            env = {"x1": np.asarray(x, dtype=float),
                   "x2": np.asarray(y, dtype=float)}
            if _uses_u:
                env["u"] = np.asarray(u, dtype=float)
            val = exprparse.eval(_ast, env)
            return np.broadcast_to(np.asarray(val, dtype=float), np.shape(x))

        fn.depends_on_u = uses_u
        return fn
    if callable(obj):
        if slot == "u0":
            def fn(x, y, u=None, _f=obj):
                val = _f(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
                return np.broadcast_to(np.asarray(val, dtype=float), np.shape(x))
        else:
            def fn(x, y, u=None, _f=obj):
                val = _f(np.asarray(x, dtype=float),
                         np.asarray(y, dtype=float),
                         np.asarray(u, dtype=float))
                return np.broadcast_to(np.asarray(val, dtype=float), np.shape(x))
        fn.depends_on_u = None
        return fn
    raise TypeError(f"cannot use {obj!r} as a field for slot {slot!r}")


def _interior_slice(grid):
    if grid.backend == "polar":
        return (slice(0, -1), slice(None))
    return (slice(1, -1), slice(1, -1))


def _mode_caps(grid):
    """Highest azimuthal mode each interior ring of a polar grid evolves:
    about pi r_j / dr, at least 2 and at most n_theta / 2."""
    n_r, n_t = grid.shape
    return np.minimum(n_t // 2, np.maximum(
        2, np.ceil(np.pi * (np.arange(n_r - 1) + 0.5)).astype(int)))


def _filter_plan(grid):
    """Slaving plan for azimuthal modes the inner rings cannot resolve.

    Ring j evolves modes up to cap_j ~ pi r_j / dr; above that the mode
    amplitude is slaved to the first ring that does resolve it, scaled
    by the harmonic factor (r_j / r_src)^m that smooth fields obey near
    the pole.  Slaved modes have no dynamics of their own, which is what
    removes the azimuthal CFL restriction, and unlike plain truncation
    the slaving keeps the O(r^m) physical content.  Monitors therefore
    measure the tendency of the slaved state (see `_tendency`), not the
    raw stencil value at coefficients the scheme does not evolve.
    """
    if grid.backend != "polar":
        return None
    n_int = grid.shape[0] - 1
    caps = _mode_caps(grid)
    modes = np.arange(grid.shape[1] // 2 + 1)
    src = np.minimum(np.searchsorted(caps, modes, side="left"), n_int - 1)
    slaved = np.arange(n_int)[:, None] < src[None, :]
    if not slaved.any():
        return None
    r = grid.r[:n_int]
    base = np.where(slaved, r[:, None] / r[src][None, :], 1.0)
    factor = base ** modes[None, :]
    return src, slaved, factor


def min_update_spacing(grid):
    """Smallest physical spacing seen by the explicit update, counting
    only azimuthal modes kept by the pole filter."""
    if grid.backend == "cartesian":
        return grid.h
    dom = grid.domain
    azim = np.pi * grid.r[:-1] / _mode_caps(grid)
    return min(dom.a, dom.b) * min(grid.dr, float(azim.min()))


def _osc(a):
    return float(np.max(a) - np.min(a))


class ProblemSpec:
    """Problem data for one flow: quotient indices (k, l), grid, the
    fields f, phi, u0, and the structural rates the estimates use.

    `growth_rate` asserts d(log f)/du >= growth_rate > 0 everywhere
    (checked by sampling); `damping_rate` asserts d(phi)/du <=
    damping_rate < 0.  Either may be None when not claimed.  With
    `require_nonnegative_initial_speed` the initial quotient must
    dominate f(x, u0) so the initial speed is nonnegative.
    """

    def __init__(self, grid, k, l, f, phi, u0, growth_rate=None,
                 damping_rate=None, require_nonnegative_initial_speed=True,
                 cfl=0.4):
        symmfunc._check_indices(k, l, 2)
        self.grid = grid
        self.k = int(k)
        self.l = int(l)
        self.f = _as_field(f, "f")
        self.phi = _as_field(phi, "phi")
        self.u0 = _as_field(u0, "u0")
        self.growth_rate = None if growth_rate is None else float(growth_rate)
        self.damping_rate = None if damping_rate is None else float(damping_rate)
        self.require_nonnegative_initial_speed = bool(
            require_nonnegative_initial_speed)
        self.cfl = float(cfl)
        self._interior = _interior_slice(grid)
        self._filter = _filter_plan(grid)
        self.h_min = min_update_spacing(grid)
        self._validate()

    @property
    def domain(self):
        return self.grid.domain

    def _validate(self):
        grid = self.grid
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ValueError(f"cfl must be finite and positive, got "
                             f"{self.cfl:g}")
        if self.growth_rate is not None and self.growth_rate <= 0:
            raise ValueError("growth_rate must be positive when given")
        if self.damping_rate is not None and self.damping_rate >= 0:
            raise ValueError("damping_rate must be negative when given")
        u0g = self.u0(grid.x, grid.y)
        raw = np.array(u0g, dtype=float)
        self.initial_neumann_residual = float(np.max(np.abs(
            discretize.neumann_residual(grid, raw, self.phi))))
        u0c = _apply_pole_filter(self, raw.copy())
        u0c = discretize.apply_neumann(grid, u0c, self.phi)
        sl = self._interior
        x_i, y_i, u_i = grid.x[sl], grid.y[sl], u0c[sl]
        fval = self.f(x_i, y_i, u_i)
        if not np.all(np.isfinite(fval)) or np.min(fval) <= 0.0:
            raise ValueError(
                f"f must be positive and finite on the initial data; "
                f"min f = {np.min(fval):.6g}")
        du = 1e-6 * (1.0 + np.abs(u_i))
        f_u = (self.f(x_i, y_i, u_i + du) - self.f(x_i, y_i, u_i - du)) / (2 * du)
        if np.min(f_u) < -1e-8:
            raise ValueError(
                f"f must be nondecreasing in u; sampled f_u = "
                f"{np.min(f_u):.6g}")
        if self.growth_rate is not None:
            ratio = f_u / fval
            if np.min(ratio) < self.growth_rate - 1e-8:
                raise ValueError(
                    f"sampled f_u/f = {np.min(ratio):.6g} is below the "
                    f"declared growth_rate = {self.growth_rate:.6g}")
        xb, yb = grid.x[grid.boundary_mask], grid.y[grid.boundary_mask]
        ub = u0c[grid.boundary_mask]
        dub = 1e-6 * (1.0 + np.abs(ub))
        phi_u = (self.phi(xb, yb, ub + dub)
                 - self.phi(xb, yb, ub - dub)) / (2 * dub)
        self.phi_depends_on_u = bool(np.max(np.abs(phi_u)) > 1e-12)
        if self.phi.depends_on_u is not None:
            self.phi_depends_on_u = self.phi.depends_on_u
        if self.phi_depends_on_u:
            worst = float(np.max(phi_u))
            if worst >= 0.0:
                raise ValueError(
                    f"phi must be strictly decreasing in u; sampled "
                    f"phi_u = {worst:.6g}")
            if self.damping_rate is not None:
                if worst > self.damping_rate + 1e-8:
                    raise ValueError(
                        f"sampled phi_u = {worst:.6g} exceeds the declared "
                        f"damping_rate = {self.damping_rate:.6g}")
            else:
                self.damping_rate = worst
        ev = _admissible_evaluate(self, u0c, prefix="initial data ")
        if self.require_nonnegative_initial_speed:
            gap = ev.q - fval
            if np.min(gap) < -1e-8:
                j = np.unravel_index(int(np.argmin(gap)), gap.shape)
                raise ValueError(
                    f"initial quotient {ev.q[j]:.6g} is below f = "
                    f"{fval[j]:.6g} at node {_to_grid_node(self, j)}; the "
                    f"initial speed would be negative")
        self.u0_grid = u0c
        ut0 = _tendency(self, ev.ut)
        self.ut0_max_abs = float(np.max(np.abs(ut0)))
        self.ut0_max = float(np.max(ut0))
        self.ut0_min = float(np.min(ut0))
        self.monitor_tol = 1e-6 * (1.0 + self.ut0_max_abs)
        self.amplitude_bound = None
        self.quotient_floor = None
        if self.growth_rate is not None and self.phi_depends_on_u:
            phi0 = self.phi(xb, yb, np.zeros_like(ub))
            m0 = (float(np.max(np.abs(phi0))) / abs(self.damping_rate)
                  + float(np.max(np.abs(u0c)))
                  + 2.0 * self.ut0_max_abs / self.growth_rate)
            self.amplitude_bound = m0
            fm = self.f(x_i, y_i, np.full_like(u_i, -m0))
            self.quotient_floor = float(np.min(fm)) * math.exp(-self.ut0_max_abs)


def _to_grid_node(spec, idx):
    """Interior-array index -> full-grid node index."""
    if spec.grid.backend == "polar":
        return (int(idx[0]), int(idx[1]))
    return (int(idx[0]) + 1, int(idx[1]) + 1)


class _FieldEval:
    __slots__ = ("ok", "ok_all", "q", "g_max", "ut", "lam_hi", "lam_lo",
                 "sigma1")

    def __init__(self, ok, q, g_max, ut, lam_hi, lam_lo, sigma1):
        self.ok = ok
        self.ok_all = bool(ok.all())
        self.q = q
        self.g_max = g_max
        self.ut = ut
        self.lam_hi = lam_hi
        self.lam_lo = lam_lo
        self.sigma1 = sigma1


def _evaluate(spec, u):
    """Closed-form 2x2 spectral evaluation of the quotient, its log
    derivative bound, and u_t over interior nodes."""
    grid = spec.grid
    sl = spec._interior
    hxx, hxy, hyy = discretize.hessian(grid, u)
    hxx, hxy, hyy = hxx[sl], hxy[sl], hyy[sl]
    trace = hxx + hyy
    det = hxx * hyy - hxy * hxy
    half = 0.5 * (hxx - hyy)
    disc = np.sqrt(half * half + hxy * hxy)
    lam_hi = 0.5 * trace + disc
    lam_lo = 0.5 * trace - disc
    eps = 1e-12 * (1.0 + np.abs(trace))
    k, l = spec.k, spec.l
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if (k, l) == (1, 0):
            ok = trace > eps
            q = trace
            g_max = 1.0 / trace
        elif (k, l) == (2, 0):
            ok = (trace > eps) & (det > eps)
            q = det
            g_max = 1.0 / lam_lo
        else:
            ok = (trace > eps) & (det > eps)
            q = det / trace
            g_max = lam_hi * lam_hi / (trace * det)
        fval = spec.f(grid.x[sl], grid.y[sl], u[sl])
        ut = np.log(q) - np.log(fval)
    ok = ok & np.isfinite(ut) & np.isfinite(g_max)
    return _FieldEval(ok, q, g_max, ut, lam_hi, lam_lo, trace)


def _admissible_evaluate(spec, u, prefix=""):
    """`_evaluate`, raising AdmissibilityError at the first interior node
    whose Hessian leaves the cone."""
    ev = _evaluate(spec, u)
    if ev.ok_all:
        return ev
    idx = np.unravel_index(int(np.argmax(~ev.ok)), ev.ok.shape)
    node = _to_grid_node(spec, idx)
    sigma1 = float(ev.sigma1[idx])
    if sigma1 <= 1e-12 * (1.0 + abs(sigma1)):
        m, value = 1, sigma1
    else:
        m, value = 2, float(ev.lam_hi[idx] * ev.lam_lo[idx])
    err = AdmissibilityError(m, value, node=node)
    if prefix:
        err.args = (prefix + err.args[0],)
    raise err


def rhs(u, spec, t=0.0):
    """u_t on interior nodes (boundary entries are zero)."""
    ev = _admissible_evaluate(spec, np.asarray(u, dtype=float))
    out = np.zeros(spec.grid.shape)
    out[spec._interior] = ev.ut
    return out


def _stable_dt(spec, ev):
    """CFL-style bound cfl*h_min^2/(2n*g_max) for the explicit update,
    from the evaluation `ev` of the current state."""
    g = float(np.max(ev.g_max)) if ev.ok_all else float("nan")
    if not math.isfinite(g) or g <= 0.0:
        raise DivergenceError(f"speed bound g_max = {g} is not usable")
    return spec.cfl * spec.h_min**2 / (4.0 * g)


def select_dt(state, spec):
    """CFL-style bound cfl*h_min^2/(2n*g_max) for the explicit update."""
    return _stable_dt(spec, _evaluate(spec, state.u))


@dataclass
class FlowState:
    t: float
    u: np.ndarray
    dt: float
    step_count: int = 0
    diverged: bool = False


@dataclass
class MonitorRecord:
    t: float
    max_ut: float
    min_ut: float
    min_u: float
    max_u: float
    sup_grad: float
    sup_hess: float
    min_quotient: float
    osc_u: float
    amplitude_bound: float = None
    quotient_floor: float = None


def _initial(spec):
    """Closed initial data with a stable starting dt, and its evaluation."""
    state = FlowState(t=0.0, u=spec.u0_grid.copy(), dt=0.0)
    ev = _evaluate(spec, state.u)
    state.dt = _stable_dt(spec, ev)
    return state, ev


def initial_state(spec):
    """Closed initial data with a stable starting dt."""
    return _initial(spec)[0]


def _slave_modes(plan, block, n_t):
    """Apply the slaving map to an (n_int, n_t) block, in place."""
    src, slaved, factor = plan
    spect = np.fft.rfft(block, axis=1)
    gathered = spect[src, np.arange(spect.shape[1])]
    spect = np.where(slaved, gathered[None, :] * factor, spect)
    block[:] = np.fft.irfft(spect, n=n_t, axis=1)
    return block


def _apply_pole_filter(spec, u):
    plan = spec._filter
    if plan is None:
        return u
    n_int = plan[1].shape[0]
    _slave_modes(plan, u[:n_int], spec.grid.shape[1])
    return u


def _tendency(spec, ut):
    """Actual du/dt of the evolving state.

    The update composes the Euler increment with the slaving map S, and
    S is linear and idempotent, so on the slaved manifold the state
    moves at S(u_t) exactly.  At a slaved coefficient the raw stencil
    value never vanishes (the scheme imposes the harmonic relation
    there, not the equation), so stop rules and monitor series use this
    tendency; `rhs` keeps returning the raw operator.
    """
    plan = spec._filter
    if plan is None:
        return ut
    return _slave_modes(plan, ut.copy(), spec.grid.shape[1])


def _guarded_update(spec, state, ev, dt):
    """Forward Euler step from `state` at the speed of its evaluation
    `ev`, followed by the pole filter and the Neumann closure.

    dt halves each time the result leaves the cone, up to _MAX_HALVINGS
    times.  Returns the new state and its evaluation; when every trial
    fails, the old state marked diverged (carrying the last dt) and `ev`.
    """
    for _ in range(_MAX_HALVINGS + 1):
        u_new = state.u.copy()
        u_new[spec._interior] += dt * ev.ut
        u_new = _apply_pole_filter(spec, u_new)
        u_new = discretize.apply_neumann(spec.grid, u_new, spec.phi)
        ev_new = _evaluate(spec, u_new)
        if ev_new.ok_all:
            return FlowState(t=state.t + dt, u=u_new, dt=dt,
                             step_count=state.step_count + 1), ev_new
        dt *= 0.5
    return FlowState(t=state.t, u=state.u, dt=dt,
                     step_count=state.step_count, diverged=True), ev


def step(state, spec):
    """One guarded Euler step; dt starts at state.dt and halves on cone
    exit, up to 20 times, after which the state is marked diverged."""
    ev = _admissible_evaluate(spec, state.u)
    dt = state.dt if state.dt > 0 else _stable_dt(spec, ev)
    return _guarded_update(spec, state, ev, dt)[0]


def _record(spec, state, ev, ut):
    """MonitorRecord of `state`, given its evaluation and tendency."""
    gx, gy = discretize.gradient(spec.grid, state.u)
    return MonitorRecord(
        t=state.t,
        max_ut=float(np.max(ut)),
        min_ut=float(np.min(ut)),
        min_u=float(np.min(state.u)),
        max_u=float(np.max(state.u)),
        sup_grad=float(np.max(np.hypot(gx, gy))),
        sup_hess=float(np.max(np.maximum(np.abs(ev.lam_hi),
                                         np.abs(ev.lam_lo)))),
        min_quotient=float(np.min(ev.q)),
        osc_u=_osc(state.u),
        amplitude_bound=spec.amplitude_bound,
        quotient_floor=spec.quotient_floor,
    )


@dataclass
class RunResult:
    state: FlowState
    records: list
    status: str
    monitor_tol: float
    gap_osc: list
    series: dict
    info: dict


def _log_f_slope(spec, u):
    sl = spec._interior
    x_i, y_i, u_i = spec.grid.x[sl], spec.grid.y[sl], u[sl]
    du = 1e-6 * (1.0 + np.abs(u_i))
    fp = spec.f(x_i, y_i, u_i + du)
    fm = spec.f(x_i, y_i, u_i - du)
    return float(np.mean((np.log(fp) - np.log(fm)) / (2 * du)))


def run(spec, mode="steady", t_max=50.0, tol_steady=1e-8, tol_trans=1e-8,
        window=50, checkpoint_every=100, mean_shift=False):
    """Integrate until the stop rule fires.

    mode "steady": stop when max|u_t| < tol_steady.  mode
    "translating": stop when the spatial oscillation of u_t and the
    drift of its mean over `window` checkpoints both fall below
    tol_trans.  Either way the run ends at t_max with status "t_max",
    or earlier with "diverged".

    With mean_shift=True, once the oscillation of u_t is tiny the
    remaining spatially constant part is removed in closed form through
    the u-slope of log f; this collapses the slow constant mode of
    strongly u-damped problems without touching the shape dynamics (and
    is off by default since it distorts decay-rate measurements).
    """
    if mode not in ("steady", "translating"):
        raise ValueError(f"unknown mode {mode!r}")
    for name, value in (("window", window),
                        ("checkpoint_every", checkpoint_every)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    state, ev = _initial(spec)
    records = []
    series = {name: [] for name in ("t", "max_ut", "min_ut", "mean_ut",
                                    "osc_ut", "max_abs_ut")}
    means = deque(maxlen=window)

    def log(state, ev, ut):
        """Append the checkpoint's MonitorRecord and u_t series."""
        records.append(_record(spec, state, ev, ut))
        series["t"].append(state.t)
        series["max_ut"].append(float(np.max(ut)))
        series["min_ut"].append(float(np.min(ut)))
        series["mean_ut"].append(float(np.mean(ut)))
        series["osc_ut"].append(_osc(ut))
        series["max_abs_ut"].append(float(np.max(np.abs(ut))))
        means.append(series["mean_ut"][-1])

    def stopped():
        if mode == "steady":
            return series["max_abs_ut"][-1] < tol_steady
        drift_ok = (len(means) == window
                    and max(means) - min(means) < tol_trans)
        return series["osc_ut"][-1] < tol_trans and drift_ok

    log(state, ev, _tendency(spec, ev.ut))
    gap_osc = []
    prev_u = state.u
    shifts = 0
    status = mode if stopped() else "t_max"
    while status == "t_max" and state.t < t_max:
        try:
            dt = min(_stable_dt(spec, ev), t_max - state.t)
        except DivergenceError:
            state.diverged = True
        else:
            state, ev = _guarded_update(spec, state, ev, dt)
        if state.diverged:
            status = "diverged"
        elif state.step_count % checkpoint_every == 0 or state.t >= t_max:
            ut = _tendency(spec, ev.ut)
            if mean_shift and _osc(ut) < _SHIFT_GATE:
                slope = _log_f_slope(spec, state.u)
                if slope > 1e-12:
                    shift = float(np.mean(ut)) / slope
                    state.u = state.u + shift
                    ev = _evaluate(spec, state.u)
                    ut = _tendency(spec, ev.ut)
                    shifts += 1
            log(state, ev, ut)
            gap_osc.append(_osc(state.u - prev_u))
            prev_u = state.u
            if stopped():
                status = mode
    if records[-1].t < state.t:
        records.append(_record(spec, state, ev, _tendency(spec, ev.ut)))
    return RunResult(state, records, status, spec.monitor_tol, gap_osc,
                     series, {"shifts": shifts})


def decay_rate(result):
    """Exponential decay rate of max|u_t|, by log-linear least squares
    on the tail half of the series."""
    t = np.asarray(result.series["t"], dtype=float)
    y = np.asarray(result.series["max_abs_ut"], dtype=float)
    tail = slice(len(t) // 2, None)
    t, y = t[tail], y[tail]
    keep = (y > 0) & np.isfinite(y)
    t, y = t[keep], y[keep]
    if len(t) < 2 or t[-1] <= t[0]:
        return float("nan")
    slope = np.polyfit(t, np.log(y), 1)[0]
    return float(-slope)


def monitor_report(result, spec, mode="steady"):
    """Grade a finished run against the a priori estimates; returns
    {check: {"ok": bool, "margin": float}} with positive margins safe."""
    tol = spec.monitor_tol
    rec = result.records
    checks = {}
    up0 = max(rec[0].max_ut, 0.0)
    lo0 = min(rec[0].min_ut, 0.0)
    worst_up = max(r.max_ut for r in rec) - up0
    worst_lo = min(r.min_ut for r in rec) - lo0
    checks["ut_upper"] = {"ok": worst_up <= tol, "margin": tol - worst_up}
    checks["ut_lower"] = {"ok": worst_lo >= -tol, "margin": tol + worst_lo}
    if spec.growth_rate is not None:
        lam = 0.8 * spec.growth_rate
        base = spec.ut0_max_abs
        worst = max(max(abs(r.max_ut), abs(r.min_ut)) * math.exp(lam * r.t)
                    - base for r in rec)
        checks["ut_decay_envelope"] = {"ok": worst <= tol,
                                       "margin": tol - worst}
    if spec.amplitude_bound is not None:
        worst = max(max(abs(r.min_u), abs(r.max_u)) for r in rec) \
            - spec.amplitude_bound
        checks["amplitude"] = {"ok": worst <= tol, "margin": tol - worst}
    if spec.quotient_floor is not None:
        worst = min(r.min_quotient for r in rec) - spec.quotient_floor
        checks["quotient_floor"] = {"ok": worst >= -tol,
                                    "margin": worst + tol}
    if spec.require_nonnegative_initial_speed and rec[0].min_ut > 0.0:
        worst = min(r.min_ut for r in rec)
        checks["ut_nonnegative"] = {"ok": worst >= -1e-6,
                                    "margin": worst + 1e-6}
    n_head = max(1, len(rec) // 10)
    for name in ("sup_grad", "sup_hess"):
        head = max(getattr(r, name) for r in rec[:n_head])
        final = getattr(rec[-1], name)
        ok = final <= 10.0 * head
        checks[f"{name}_bounded"] = {"ok": ok,
                                     "margin": 10.0 * head - final}
    if mode == "translating" and len(result.gap_osc) > 1:
        diffs = np.diff(result.gap_osc)
        worst = float(np.max(diffs))
        checks["gap_osc_nonincreasing"] = {"ok": worst <= tol,
                                           "margin": tol - worst}
    checks["all_ok"] = {"ok": all(v["ok"] for v in checks.values()),
                        "margin": 0.0}
    return checks


def write_monitor_csv(path, result, metadata=()):
    """Monitor series as CSV with columns
    t,max_ut,min_ut,min_u,max_u,sup_grad,sup_hess,min_quotient,osc,status
    (the final row carries the run status, earlier rows 'running')."""
    rec = result.records
    lines = [f"# {m}" for m in metadata]
    lines.append("t,max_ut,min_ut,min_u,max_u,sup_grad,sup_hess,"
                 "min_quotient,osc,status")
    for i, r in enumerate(rec):
        status = result.status if i == len(rec) - 1 else "running"
        vals = (r.t, r.max_ut, r.min_ut, r.min_u, r.max_u, r.sup_grad,
                r.sup_hess, r.min_quotient, r.osc_u)
        lines.append(",".join(f"{v:.17g}" for v in vals) + "," + status)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
