"""Linearly-implicit time stepping for u_t = log(sigma_k/sigma_l(D^2 u))
- log f(x, u) with the oblique boundary condition u_nu = phi(x, u) on
convex planar domains.

The right side is evaluated in closed form from sigma_1 = trace and
sigma_2 = det of the 2x2 discrete Hessian, guarded so the Hessian stays
in the Garding cone Gamma_k.  `run` advances by linearly-implicit Euler
steps (Hairer & Wanner, Solving ODEs II, IV.7): each step solves
(I/dt - J) du = u_t on the interior rings, where J = F11 Lxx + 2 F12 Lxy
+ F22 Lyy - diag(f_u/f) is the derivative of u_t, F the closed-form
derivative of log q at the current Hessian and L the closed Hessian of
`discretize.hessian_blocks`.  The boundary is then closed exactly by
`discretize.apply_neumann`.  J folds in the closure of a u-free phi, so
a phi that depends on u makes the step a W-method: J is approximate, but
the fixed point u_t = 0 of the scheme is the exact one.  The step needs
no stability bound: each dt is min(2 dt_prev, 0.25 / max(1, max f_u/f),
t_max - t), so the first is the cap, and a step that would leave the
cone or meets a singular system is retried with a halved dt, up to 20
times, after which the state is declared diverged.  `_linearized_solve`
is shared with the Newton solver of `elliptic.solve_regularized`.

A run keeps its history once, as one MonitorRecord every
`checkpoint_every` steps and one for its last state: extrema of u and
u_t, the mean of u_t, gradient and Hessian sups, the least quotient,
and the oscillations of u and of its change since the previous record.
They mirror the a priori bounds of the continuous theory: the maximum
principle for u_t, exponential decay of u_t when log f grows in u at a
definite rate, the C^0 amplitude bound built from the boundary damping
rate, the lower bound on the quotient, and for translating runs the
mean of u_t tending to the speed as the oscillations vanish.  The stop
rules read every step.  `monitor_report` grades a finished run against
all of the bounds.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import discretize, exprparse
from .geometry import ArgumentError
from .symmfunc import AdmissibilityError

__all__ = [
    "ProblemSpec", "FlowState", "MonitorRecord", "RunResult", "rhs", "run",
    "decay_rate", "monitor_report", "write_monitor_csv",
]

# a step that leaves the cone is retried with dt halved, this many times
_MAX_HALVINGS = 20
_SHIFT_GATE = 1e-7
# dt starts at, and doubles back up to, _DT_CAP / max(1, max f_u/f).  An
# implicit Euler step damps a mode of rate lam by 1 / (1 + lam dt), so at
# the cap a mode of rate f_u/f decays at 4 log(1.25) = 0.89 of its true
# rate per unit time.
_DT_CAP = 0.25
# A run refuses, before its first step, a t_max that would take more
# steps than this at the largest dt.
_MAX_STEPS = 1e8
# The interior nodes: every ring inside the outer one, which holds the
# boundary.  An index into u[_INTERIOR] is also the index of its node.
_INTERIOR = (slice(0, -1), slice(None))


def _osc(a):
    return float(np.max(a) - np.min(a))


class ProblemSpec:
    """Problem data for one flow: quotient indices (k, l), grid, the
    fields f, phi, u0, and the structural rates the estimates use.

    `growth_rate` asserts d(log f)/du >= growth_rate > 0 everywhere
    (checked at the nodes); `damping_rate` asserts d(phi)/du <=
    damping_rate < 0.  Either may be None when not claimed.  With
    `require_nonnegative_initial_speed` the initial quotient must
    dominate f(x, u0) so the initial speed is nonnegative.  A rejected
    argument raises ArgumentError naming it; closed initial data outside
    the cone raise AdmissibilityError, or name phi if u0 was inside.
    """

    def __init__(self, grid, k, l, f, phi, u0, growth_rate=None,
                 damping_rate=None, require_nonnegative_initial_speed=True):
        if k not in (1, 2):
            raise ArgumentError("k", f"must be 1 or 2, got {k!r}")
        if l not in range(k):
            raise ArgumentError("l", f"must satisfy 0 <= l < {k}, got {l!r}")
        self.grid = grid
        self.k = int(k)
        self.l = int(l)
        self.f = exprparse.as_field(f, "f")
        self.phi = exprparse.as_field(phi, "phi")
        self.u0 = exprparse.as_field(u0, "u0")
        self.growth_rate = None if growth_rate is None else float(growth_rate)
        self.damping_rate = None if damping_rate is None else float(damping_rate)
        self.require_nonnegative_initial_speed = bool(
            require_nonnegative_initial_speed)
        # numpy stays quiet on the data; the checks below name what fails
        with np.errstate(all="ignore"):
            self._validate()

    def _validate(self):
        grid = self.grid
        if self.growth_rate is not None and not self.growth_rate > 0:
            raise ArgumentError("growth_rate", "must be positive when given")
        if self.damping_rate is not None and not self.damping_rate < 0:
            raise ArgumentError("damping_rate", "must be negative when given")
        with _blame("u0"):
            raw = np.array(self.u0(grid.x, grid.y), dtype=float)
        bm = grid.boundary_mask
        xb, yb = grid.x[bm], grid.y[bm]
        with _blame("phi"):
            # the closure never checks a phi free of u
            if not np.all(np.isfinite(self.phi(xb, yb, raw[bm]))):
                raise ArgumentError("phi",
                                    "is not finite at the boundary values")
            u0c = discretize.apply_neumann(grid, raw, self.phi)
            ub = u0c[bm]
            phi_u = self.phi.du(xb, yb, ub)
        sl = _INTERIOR
        x_i, y_i, u_i = grid.x[sl], grid.y[sl], u0c[sl]
        with _blame("f"):
            fval = self.f(x_i, y_i, u_i)
            if not np.all(np.isfinite(fval)) or np.min(fval) <= 0.0:
                raise ArgumentError(
                    "f", f"must be positive and finite on the initial data; "
                    f"min f = {np.min(fval):.6g}")
            f_u = self.f.du(x_i, y_i, u_i)
        if np.min(f_u) < -1e-8:
            raise ArgumentError(
                "f", f"must be nondecreasing in u; sampled f_u = "
                f"{np.min(f_u):.6g}")
        if self.growth_rate is not None:
            ratio = f_u / fval
            if np.min(ratio) < self.growth_rate - 1e-8:
                raise ArgumentError(
                    "growth_rate", f"{self.growth_rate:.6g} exceeds the "
                    f"sampled minimum of f_u/f, {np.min(ratio):.6g}")
        if self.phi.depends_on_u:
            worst = float(np.max(phi_u))
            if worst >= 0.0:
                raise ArgumentError(
                    "phi", f"must be strictly decreasing in u; sampled "
                    f"phi_u = {worst:.6g}")
            if self.damping_rate is not None:
                if worst > self.damping_rate + 1e-8:
                    raise ArgumentError(
                        "damping_rate", f"{self.damping_rate:.6g} is below "
                        f"the sampled maximum of phi_u, {worst:.6g}")
            else:
                self.damping_rate = worst
        try:
            ev = _admissible_evaluate(self, u0c, prefix="initial data ")
        except AdmissibilityError as exc:
            # u0 was admissible until the closure replaced its boundary
            if _evaluate(self, raw).ok_all:
                raise ArgumentError("phi", f"closes u0 to {exc}") from exc
            raise
        if self.require_nonnegative_initial_speed:
            gap = ev.q - fval
            if np.min(gap) < -1e-8:
                j = np.unravel_index(int(np.argmin(gap)), gap.shape)
                raise ArgumentError(
                    "u0", f"has the quotient {ev.q[j]:.6g} below f = "
                    f"{fval[j]:.6g} at node {tuple(map(int, j))}; the "
                    f"initial speed would be negative")
        self.u0_grid = u0c
        self.ut0_max_abs = float(np.max(np.abs(ev.ut)))
        self.monitor_tol = 1e-6 * (1.0 + self.ut0_max_abs)
        self.amplitude_bound = None
        self.quotient_floor = None
        if self.growth_rate is not None and self.phi.depends_on_u:
            phi0 = self.phi(xb, yb, np.zeros_like(ub))
            m0 = (float(np.max(np.abs(phi0))) / abs(self.damping_rate)
                  + float(np.max(np.abs(u0c)))
                  + 2.0 * self.ut0_max_abs / self.growth_rate)
            self.amplitude_bound = m0
            fm = self.f(x_i, y_i, np.full_like(u_i, -m0))
            self.quotient_floor = float(np.min(fm)) * math.exp(-self.ut0_max_abs)


@contextmanager
def _blame(field):
    """Report a ValueError from evaluating or using `field` on the
    initial data as an ArgumentError naming it."""
    try:
        yield
    except ArgumentError:
        raise
    except ValueError as exc:
        raise ArgumentError(field, f"fails on the initial data: {exc}") \
            from exc


class _FieldEval:
    __slots__ = ("ok", "ok_all", "q", "fval", "ut", "sigma1", "sigma2",
                 "slopes", "hess")

    def __init__(self, ok, q, fval, ut, sigma1, sigma2, slopes, hess):
        self.ok = ok
        self.ok_all = bool(ok.all())
        self.q = q
        self.fval = fval
        self.ut = ut
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.slopes = slopes
        self.hess = hess


def _evaluate(spec, u):
    """The closed form of q = sigma_k/sigma_l over interior nodes, from
    sigma_1 = trace and sigma_2 = det of the 2x2 discrete Hessian A: q,
    the cone test, u_t = log q - log f, and the `slopes` (F11, 2 F12,
    F22) of d log q = F11 dhxx + 2 F12 dhxy + F22 dhyy, with F = I/tr A
    for (1, 0), A^{-1} for (2, 0) and A^{-1} - I/tr A for (2, 1).
    `fval` keeps f and `hess` the Hessian (hxx, hxy, hyy) at the
    interior nodes."""
    grid = spec.grid
    sl = _INTERIOR
    hxx, hxy, hyy = discretize.hessian(grid, u)
    hxx, hxy, hyy = hxx[sl], hxy[sl], hyy[sl]
    trace = hxx + hyy
    det = hxx * hyy - hxy * hxy
    eps = 1e-12 * (1.0 + np.abs(trace))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.k == 1:
            ok = trace > eps
            q = trace
            inv = 1.0 / trace
            slopes = (inv, np.zeros_like(hxy), inv)
        else:
            ok = (trace > eps) & (det > eps)
            q = det
            f11, f22 = hyy / det, hxx / det
            if spec.l == 1:
                q = det / trace
                inv = 1.0 / trace
                f11, f22 = f11 - inv, f22 - inv
            slopes = (f11, -2.0 * hxy / det, f22)
        fval = spec.f(grid.x[sl], grid.y[sl], u[sl])
        ut = np.log(q) - np.log(fval)
    ok = ok & np.isfinite(ut)
    return _FieldEval(ok, q, fval, ut, trace, det, slopes, (hxx, hxy, hyy))


def _admissible_evaluate(spec, u, prefix=""):
    """`_evaluate`, raising AdmissibilityError at the first interior node
    whose Hessian leaves the cone."""
    ev = _evaluate(spec, u)
    if ev.ok_all:
        return ev
    idx = np.unravel_index(int(np.argmax(~ev.ok)), ev.ok.shape)
    node = tuple(map(int, idx))
    sigma1 = float(ev.sigma1[idx])
    if sigma1 <= 1e-12 * (1.0 + abs(sigma1)):
        m, value = 1, sigma1
    else:
        m, value = 2, float(ev.sigma2[idx])
    err = AdmissibilityError(m, value, node=node)
    if prefix:
        err.args = (prefix + err.args[0],)
    raise err


def rhs(u, spec):
    """u_t on interior nodes (boundary entries are zero)."""
    ev = _admissible_evaluate(spec, np.asarray(u, dtype=float))
    out = np.zeros(spec.grid.shape)
    out[_INTERIOR] = ev.ut
    return out


def _log_f_slope(spec, u, ev):
    """f_u / f at the interior nodes of u, given its evaluation `ev`."""
    sl = _INTERIOR
    return spec.f.du(spec.grid.x[sl], spec.grid.y[sl], u[sl]) / ev.fval


def _dt_cap(slope):
    """The largest dt of a step, given f_u/f at its start."""
    return _DT_CAP / max(1.0, float(np.max(slope)))


def _block_thomas(rows, rhs):
    """Solve sum_k J[p, k] x[p - 1 + k] = rhs[p] for the block rows p of
    a block-tridiagonal system, by block elimination from the first row
    down and substitution back up.  `rows` yields the block rows J[p],
    each of shape (3, m, m), in order: an (n_p, 3, m, m) array, or a
    generator that builds each row when the elimination reaches it."""
    n_p = rhs.shape[0]
    upper, x = [], np.empty_like(rhs)
    for p, (lower, diag, up) in enumerate(rows):
        r = rhs[p]
        if p:
            diag = diag - lower @ upper[-1]
            r = rhs[p] - lower @ x[p - 1]
        if p < n_p - 1:
            sol = np.linalg.solve(diag, np.column_stack((up, r)))
            upper.append(sol[:, :-1])
            x[p] = sol[:, -1]
        else:
            x[p] = np.linalg.solve(diag, r)
    for p in range(n_p - 2, -1, -1):
        x[p] -= upper[p] @ x[p + 1]
    return x


def _linearized_solve(spec, slopes, diag, rhs):
    """Solve (diag - F11 Lxx - 2 F12 Lxy - F22 Lyy) x = rhs for the
    interior values x, with `slopes` the (F11, 2 F12, F22) of log q of
    an evaluation (`_evaluate`) and L the closed Hessian of
    `discretize.hessian_blocks`; `diag` is a scalar or one value per
    interior node.  A Newton step of the damped problem passes its
    damping eps and its residual; a time step passes f_u/f + 1/dt and
    u_t.  The blocks are solved by block elimination over the rings; a
    singular block raises np.linalg.LinAlgError."""
    blocks = discretize.hessian_blocks(spec.grid)
    diag = np.broadcast_to(diag, slopes[0].shape)
    i = np.arange(diag.shape[1])

    def rows():
        # sum_i c_i[:, None, :, None] * B_i - diag, one block row at a
        # time, so no full-size matrix is ever held
        for p in range(len(diag)):
            row = np.zeros_like(blocks[0][p])
            for c, B in zip(slopes, blocks):
                row += c[p, None, :, None] * B[p]
            row[1, i, i] -= diag[p]
            yield row

    return _block_thomas(rows(), -rhs)


@dataclass
class FlowState:
    """A state of a run; `dt` is the step that reached it (inf before the
    first step, so that the first dt is the cap)."""
    t: float
    u: np.ndarray
    dt: float
    step_count: int = 0
    diverged: bool = False


@dataclass
class MonitorRecord:
    """One record of a run.  `gap_osc` is osc(u - u at the previous
    record), None on the first record."""
    t: float
    max_ut: float
    min_ut: float
    mean_ut: float
    min_u: float
    max_u: float
    sup_grad: float
    sup_hess: float
    min_quotient: float
    osc_u: float
    gap_osc: float = None

    @property
    def osc_ut(self):
        return self.max_ut - self.min_ut

    @property
    def max_abs_ut(self):
        return max(abs(self.max_ut), abs(self.min_ut))


def _implicit_update(spec, state, ev, slope, dt):
    """One linearly-implicit Euler step from `state`, given its
    evaluation `ev` and its f_u/f `slope`: (I/dt - J) du = u_t on the
    interior, then the Neumann closure.

    dt halves each time the result leaves the cone or the system is
    singular, up to _MAX_HALVINGS times.  Returns the new state and its
    evaluation; when every trial fails, or dt no longer advances t, the
    old state marked diverged (carrying the last dt) and `ev`.
    """
    for _ in range(_MAX_HALVINGS + 1):
        if state.t + dt == state.t:
            break
        try:
            du = _linearized_solve(spec, ev.slopes, slope + 1.0 / dt,
                                   ev.ut)
        except np.linalg.LinAlgError:
            du = None
        if du is not None:
            u_new = state.u.copy()
            u_new[_INTERIOR] += du
            u_new = discretize.apply_neumann(spec.grid, u_new, spec.phi)
            ev_new = _evaluate(spec, u_new)
            if ev_new.ok_all:
                return FlowState(t=state.t + dt, u=u_new, dt=dt,
                                 step_count=state.step_count + 1), ev_new
        dt *= 0.5
    return FlowState(t=state.t, u=state.u, dt=dt,
                     step_count=state.step_count, diverged=True), ev


def _record(spec, state, ev, prev_u):
    """MonitorRecord of `state`, given its evaluation and the u of the
    previous record (None at the first)."""
    ut = ev.ut
    gx, gy = discretize.gradient(spec.grid, state.u)
    hxx, hxy, hyy = ev.hess
    half = 0.5 * (hxx - hyy)
    # the spectral radius |tr A|/2 + disc of the 2x2 Hessian A
    disc = np.sqrt(half * half + hxy * hxy)
    return MonitorRecord(
        t=state.t,
        max_ut=float(np.max(ut)),
        min_ut=float(np.min(ut)),
        mean_ut=float(np.mean(ut)),
        min_u=float(np.min(state.u)),
        max_u=float(np.max(state.u)),
        sup_grad=float(np.max(np.hypot(gx, gy))),
        sup_hess=float(np.max(0.5 * np.abs(ev.sigma1) + disc)),
        min_quotient=float(np.min(ev.q)),
        osc_u=_osc(state.u),
        gap_osc=None if prev_u is None else _osc(state.u - prev_u),
    )


@dataclass
class RunResult:
    """A finished run: last state, records (its only history), status,
    mode and number of closed-form mean shifts."""
    state: FlowState
    records: list
    status: str
    mode: str
    shifts: int


def run(spec, mode="steady", t_max=50.0, tol_steady=1e-8, tol_trans=1e-8,
        checkpoint_every=1, mean_shift=False):
    """Integrate until the stop rule fires.

    The stop rule reads every step.  mode "steady": stop when max|u_t|
    < tol_steady.  mode "translating": stop when osc(u_t) < tol_trans.
    With f(x) and phi(x), u_t solves a linear parabolic equation with a
    homogeneous oblique condition, so max u_t never rises, min u_t never
    falls, and |mean u_t - s| <= osc(u_t) for the speed s.  A spec whose
    f or phi depends on u has no such bound: its translating run raises
    ArgumentError("mode").  Either way the run ends at t_max with status
    "t_max", or earlier with "diverged", also once dt no longer advances
    t.  A MonitorRecord is kept every `checkpoint_every` steps and at the
    end.  Every run ends: a t_max that would take more than 1e8 steps of
    the largest dt raises ArgumentError("t_max").

    With mean_shift=True, once the oscillation of u_t is tiny the
    remaining spatially constant part is removed in closed form through
    the u-slope of log f; this collapses the slow constant mode of
    strongly u-damped problems without touching the shape dynamics (and
    is off by default since it distorts decay-rate measurements).  A
    translating run has f(x), whose u-slope is 0, so it refuses
    mean_shift=True with ArgumentError("mean_shift").
    """
    if mode not in ("steady", "translating"):
        raise ArgumentError("mode", f"must be steady or translating, got "
                            f"{mode!r}")
    if mode == "translating" and (spec.f.depends_on_u
                                  or spec.phi.depends_on_u):
        raise ArgumentError(
            "mode", "must be steady when f or phi depends on u: the "
            "translating stop rule needs f(x) and phi(x)")
    if mode == "translating" and mean_shift:
        raise ArgumentError(
            "mean_shift", "must be false in translating mode: f(x) has "
            "f_u/f = 0, so no shift can act")
    if checkpoint_every < 1:
        raise ArgumentError("checkpoint_every", f"must be at least 1, got "
                            f"{checkpoint_every!r}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ArgumentError("t_max",
                            f"must be finite and positive, got {t_max!r}")
    state = FlowState(t=0.0, u=spec.u0_grid.copy(), dt=math.inf)
    ev = _evaluate(spec, state.u)
    slope = _log_f_slope(spec, state.u, ev)
    n_steps = t_max / _dt_cap(slope)
    if n_steps > _MAX_STEPS:
        raise ArgumentError(
            "t_max", f"gives too many steps, got {t_max:g}: the run would "
            f"take {n_steps:.3g} steps of the largest dt, more than the "
            f"budget of {_MAX_STEPS:.0e}")
    records = [_record(spec, state, ev, None)]

    def stopped():
        if mode == "steady":
            return float(np.max(np.abs(ev.ut))) < tol_steady
        return _osc(ev.ut) < tol_trans

    prev_u = state.u
    shifts = 0
    status = mode if stopped() else "t_max"
    while status == "t_max" and state.t < t_max:
        dt = min(2.0 * state.dt, _dt_cap(slope), t_max - state.t)
        state, ev = _implicit_update(spec, state, ev, slope, dt)
        if state.diverged:
            status = "diverged"
            break
        slope = _log_f_slope(spec, state.u, ev)
        if mean_shift and _osc(ev.ut) < _SHIFT_GATE:
            mean_slope = float(np.mean(slope))
            if mean_slope > 1e-12:
                state.u = state.u + float(np.mean(ev.ut)) / mean_slope
                ev = _evaluate(spec, state.u)
                slope = _log_f_slope(spec, state.u, ev)
                shifts += 1
        if stopped():
            status = mode
        if state.step_count % checkpoint_every == 0:
            records.append(_record(spec, state, ev, prev_u))
            prev_u = state.u
    if records[-1].t < state.t:
        records.append(_record(spec, state, ev, prev_u))
    return RunResult(state, records, status, mode, shifts)


def decay_rate(result):
    """Exponential decay rate of max|u_t|, by log-linear least squares
    on the tail half of the records."""
    t = np.array([r.t for r in result.records], dtype=float)
    y = np.array([r.max_abs_ut for r in result.records], dtype=float)
    tail = slice(len(t) // 2, None)
    t, y = t[tail], y[tail]
    keep = (y > 0) & np.isfinite(y)
    t, y = t[keep], y[keep]
    if len(t) < 2 or t[-1] <= t[0]:
        return float("nan")
    slope = np.polyfit(t, np.log(y), 1)[0]
    return float(-slope)


def monitor_report(result, spec):
    """Grade a finished run of `spec` against the a priori estimates;
    returns {check: {"ok": bool, "margin": float}} with positive margins
    safe.  A translating run is also checked for the oscillation of its
    change between records, per unit time, not increasing."""
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
        worst = max(r.max_abs_ut * math.exp(lam * r.t) - base for r in rec)
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
    if result.mode == "translating" and len(rec) > 2:
        # records are not equally spaced in time, and dt doubles
        rates = [r.gap_osc / (r.t - p.t) for p, r in zip(rec, rec[1:])]
        worst = float(np.max(np.diff(rates)))
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
