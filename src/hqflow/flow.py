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
`discretize.apply_neumann`.

The step is a W-method (Steihaug & Wolfbrandt, Math. Comp. 33, 1979): J
may be inexact, but the fixed point u_t = 0 of the scheme is the exact
one.  J folds in only the closure of a u-free phi, and a run keeps one
block factorization of I/dt - J, with the F and f_u/f it was built from,
while dt stays the same.  A step on that lagged factorization stands
only if max u_t did not rise and min u_t did not fall (in steady mode,
against max(max u_t, 0) and min(min u_t, 0) of the state before) and
the stop rule's measure shrank, each up to round-off; otherwise J is
factored at the current state and the step redone.  A kept step that
shrank the measure by less than the last fresh step did, times 1.1,
drops the factorization, so the next step refactors.  The step needs no
stability bound: each dt is min(2 dt_prev, 0.25 / max(1, max f_u/f),
t_max - t), so the first is the cap, and a step on a fresh factorization
that would leave the cone or meets a singular system is retried with a
halved dt, up to 20 times, after which the state is declared diverged.
`_linearized_solve`, one factorization and one solve, is shared with the
Newton solver of `elliptic.solve_regularized`.

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
# dt starts at, and doubles back up to, _DT_CAP / max(1, max f_u/f).  An
# implicit Euler step damps a mode of rate lam by 1 / (1 + lam dt), so at
# the cap a mode of rate f_u/f decays at 4 log(1.25) = 0.89 of its true
# rate per unit time.
_DT_CAP = 0.25
# A run refuses, before its first step, a t_max that would take more
# steps than this at the largest dt.
_MAX_STEPS = 1e8
# A kept step on a lagged factorization that shrinks the stop measure by
# less than the last fresh step did, times this, drops the factorization.
_SLOW_CONTRACTION = 1.1
# One evaluation of u_t is off by up to an ulp of max|u| times the
# weights of the Hessian that reach a node, scaled by |F| there.  A step
# on a lagged J compares extremes of two evaluations, so it allows four.
_ROUNDOFF = 4.0 * float(np.finfo(float).eps)
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
        xb, yb, _ = discretize._boundary_nodes(grid)
        with _blame("phi"):
            # the closure never checks a phi free of u
            if not np.all(np.isfinite(self.phi(xb, yb, raw[bm]))):
                raise ArgumentError("phi",
                                    "is not finite at the boundary values")
            u0c = discretize.apply_neumann(grid, raw, self.phi)
            ub = u0c[bm]
            phi_u = self.phi.du(xb, yb, ub)
        x_i, y_i = discretize._interior_nodes(grid)
        u_i = u0c[_INTERIOR]
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
                 "slopes", "hess", "_ut_range")

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
        self._ut_range = None

    @property
    def ut_range(self):
        """(max u_t, min u_t), reduced once."""
        if self._ut_range is None:
            self._ut_range = (float(np.max(self.ut)), float(np.min(self.ut)))
        return self._ut_range


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
        fval = spec.f(*discretize._interior_nodes(grid), u[sl])
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
    """f_u / f at the interior nodes of u, given its evaluation `ev`; the
    scalar 0.0 when f does not depend on u."""
    if not spec.f.depends_on_u:
        return 0.0
    return spec.f.du(*discretize._interior_nodes(spec.grid),
                     u[_INTERIOR]) / ev.fval


def _dt_cap(slope):
    """The largest dt of a step, given f_u/f at its start."""
    return _DT_CAP / max(1.0, float(np.max(slope)))


def _block_factor(rows):
    """Factor the block-tridiagonal J of `rows`, shape (n_p, 3, m, m),
    whose block [p, k] multiplies ring p - 1 + k, for block elimination
    from the first ring down: per ring the lower block L_p, the inverse
    S_p^-1 of the Schur complement S_p = D_p - L_p S_(p-1)^-1 U_(p-1)
    and S_p^-1 U_p.  A singular S_p raises np.linalg.LinAlgError."""
    n_p, _, m, _ = rows.shape
    lower = rows[:, 0].copy()
    s_inv = np.empty((n_p, m, m))
    s_inv_up = np.empty((n_p - 1, m, m))
    for p in range(n_p):
        schur = rows[p, 1]
        if p:
            schur = schur - lower[p] @ s_inv_up[p - 1]
        s_inv[p] = np.linalg.inv(schur)
        if p < n_p - 1:
            s_inv_up[p] = s_inv[p] @ rows[p, 2]
    return lower, s_inv, s_inv_up


def _block_solve(factors, rhs):
    """Solve J x = rhs, of shape (n_p, m), from the `_block_factor` of J:
    two m x m matvecs per ring going down, one coming back up."""
    lower, s_inv, s_inv_up = factors
    x = np.empty_like(rhs)
    x[0] = s_inv[0] @ rhs[0]
    for p in range(1, len(x)):
        x[p] = s_inv[p] @ (rhs[p] - lower[p] @ x[p - 1])
    for p in range(len(x) - 2, -1, -1):
        x[p] -= s_inv_up[p] @ x[p + 1]
    return x


def _factorize(spec, slopes, diag):
    """The `_block_factor` of F11 Lxx + 2 F12 Lxy + F22 Lyy - diag, with
    `slopes` the (F11, 2 F12, F22) of log q of an evaluation
    (`_evaluate`) and L the closed Hessian of
    `discretize.hessian_blocks`; `diag` is a scalar or one value per
    interior node.  Every block row is assembled from the sparse table
    by one np.bincount into an (n_p, 3, m, m) array."""
    idx, src, vals = discretize.hessian_blocks(spec.grid)
    n_p, m = slopes[0].shape
    c = np.concatenate([s.ravel() for s in slopes])
    # bincount adds in input order, so each entry sums its xx, xy and yy
    # terms in that order
    J = np.bincount(idx, vals * c[src], minlength=n_p * 3 * m * m) \
        .reshape(n_p, 3, m * m)
    # the diagonal of each block [p, 1]
    J[:, 1, ::m + 1] -= diag
    return _block_factor(J.reshape(n_p, 3, m, m))


def _linearized_solve(spec, slopes, diag, rhs):
    """Solve (diag - F11 Lxx - 2 F12 Lxy - F22 Lyy) x = rhs for the
    interior values x: factor by `_factorize`, then solve.  A Newton
    step of the damped problem passes its damping eps and its residual;
    a time step passes f_u/f + 1/dt and u_t.  A singular block raises
    np.linalg.LinAlgError."""
    return _block_solve(_factorize(spec, slopes, diag), -rhs)


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


def _stop_measure(mode, ev):
    """What the stop rule of `mode` reads of an evaluation: max|u_t| when
    steady, osc(u_t) when translating."""
    hi, lo = ev.ut_range
    return max(hi, -lo) if mode == "steady" else hi - lo


class _StepMatrix:
    """The factored step matrix I/dt - J of a run, with the slopes F and
    f_u/f it was built from, reused by later steps of the same dt.  A
    step on a lagged J is a W-method step: its fixed point u_t = 0 does
    not depend on J, only its contraction does.  `keeps` judges each
    such step.  Counts the factorizations and linear solves of the run.
    """

    def __init__(self, spec, mode):
        self.spec, self.mode = spec, mode
        self.factors = self.dt = self.fresh = None
        self.factorizations = self.solves = 0
        # the sums of |weight| of each Hessian row of the closed xx, xy
        # and yy maps
        _, src, vals = discretize.hessian_blocks(spec.grid)
        n = spec.grid.x[_INTERIOR].size
        self.abs_rows = np.bincount(src, np.abs(vals), minlength=3 * n) \
            .reshape((3,) + spec.grid.x[_INTERIOR].shape)

    def roundoff(self, u, ev):
        """The round-off allowed in comparing u_t at `u`, of evaluation
        `ev`, with u_t of an earlier state (see _ROUNDOFF)."""
        weight = sum(np.abs(c) * r for c, r in zip(ev.slopes, self.abs_rows))
        return _ROUNDOFF * float(np.max(np.abs(u))) * float(np.max(weight))

    def factor(self, ev, slope, dt):
        self.factorizations += 1
        return _factorize(self.spec, ev.slopes, slope + 1.0 / dt)

    def solve(self, factors, ev):
        self.solves += 1
        return _block_solve(factors, -ev.ut)

    def keep_fresh(self, factors, dt, ev, ev_new):
        """Keep the factorization of an accepted fresh step, and how far
        that step shrank the stop measure."""
        self.factors, self.dt = factors, dt
        self.fresh = (_stop_measure(self.mode, ev),
                      _stop_measure(self.mode, ev_new))

    def keeps(self, u_new, ev, ev_new):
        """Whether a step on the lagged factorization, from the state of
        `ev` to `u_new` of `ev_new`, is kept: max u_t did not rise, min
        u_t did not fall (against 0 as well in steady mode) and the stop
        measure shrank, each up to the round-off of u_t.  A kept step
        that shrank the measure by less than the last fresh step did,
        times _SLOW_CONTRACTION, drops the factorization.  No ratio is
        formed, so a measure of 0 is fine."""
        hi, lo = ev.ut_range
        if self.mode == "steady":
            hi, lo = max(hi, 0.0), min(lo, 0.0)
        new_hi, new_lo = ev_new.ut_range
        before = _stop_measure(self.mode, ev)
        after = _stop_measure(self.mode, ev_new)

        def holds(noise):
            return (new_hi <= hi + noise and new_lo >= lo - noise
                    and (after < before or after <= noise))

        if not (holds(0.0) or holds(self.roundoff(u_new, ev_new))):
            return False
        fresh_before, fresh_after = self.fresh
        if after * fresh_before > _SLOW_CONTRACTION * fresh_after * before:
            self.factors = None
        return True


def _implicit_update(spec, state, ev, slope, dt, matrix=None):
    """One linearly-implicit Euler step from `state`, given its
    evaluation `ev` and its f_u/f `slope`: (I/dt - J) du = u_t on the
    interior, then the Neumann closure.

    `matrix` is the run's _StepMatrix (a new one by default).  A step of
    the dt of its kept factorization first solves with it, and that
    step stands if `matrix.keeps` it.  Otherwise the step is redone
    with J factored at `state`: dt halves each time the result leaves
    the cone or the system is singular, up to _MAX_HALVINGS times, and
    `matrix` keeps the factorization of the step that succeeds.
    Returns the new state and its evaluation; when every trial fails,
    or dt no longer advances t, the old state marked diverged (carrying
    the last dt) and `ev`.
    """
    if matrix is None:
        matrix = _StepMatrix(spec, "steady")

    def advance(du):
        u_new = state.u.copy()
        u_new[_INTERIOR] += du
        u_new = discretize.apply_neumann(spec.grid, u_new, spec.phi)
        return u_new, _evaluate(spec, u_new)

    def accepted(u_new, ev_new, dt):
        return FlowState(t=state.t + dt, u=u_new, dt=dt,
                         step_count=state.step_count + 1), ev_new

    if matrix.factors is not None and matrix.dt == dt \
            and state.t + dt != state.t:
        u_new, ev_new = advance(matrix.solve(matrix.factors, ev))
        if ev_new.ok_all and matrix.keeps(u_new, ev, ev_new):
            return accepted(u_new, ev_new, dt)
    for _ in range(_MAX_HALVINGS + 1):
        if state.t + dt == state.t:
            break
        try:
            factors = matrix.factor(ev, slope, dt)
        except np.linalg.LinAlgError:
            factors = None
        if factors is not None:
            u_new, ev_new = advance(matrix.solve(factors, ev))
            if ev_new.ok_all:
                matrix.keep_fresh(factors, dt, ev, ev_new)
                return accepted(u_new, ev_new, dt)
        dt *= 0.5
    return FlowState(t=state.t, u=state.u, dt=dt,
                     step_count=state.step_count, diverged=True), ev


def _record(spec, state, ev, prev_u):
    """MonitorRecord of `state`, given its evaluation and the u of the
    previous record (None at the first)."""
    gx, gy = discretize.gradient(spec.grid, state.u)
    hxx, hxy, hyy = ev.hess
    half = 0.5 * (hxx - hyy)
    # the spectral radius |tr A|/2 + disc of the 2x2 Hessian A
    disc = np.sqrt(half * half + hxy * hxy)
    return MonitorRecord(
        t=state.t,
        max_ut=ev.ut_range[0],
        min_ut=ev.ut_range[1],
        mean_ut=float(np.mean(ev.ut)),
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
    mode, and the factorizations and linear solves of the step matrix
    that the run took."""
    state: FlowState
    records: list
    status: str
    mode: str
    factorizations: int = 0
    linear_solves: int = 0


def run(spec, mode="steady", t_max=50.0, tol_steady=1e-8, tol_trans=1e-8,
        checkpoint_every=1):
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
    the largest dt raises ArgumentError("t_max").  Steps of one dt share
    a factorization of I/dt - J while each shrinks the stop measure (see
    the module docstring); the result counts factorizations and linear
    solves.
    """
    if mode not in ("steady", "translating"):
        raise ArgumentError("mode", f"must be steady or translating, got "
                            f"{mode!r}")
    if mode == "translating" and (spec.f.depends_on_u
                                  or spec.phi.depends_on_u):
        raise ArgumentError(
            "mode", "must be steady when f or phi depends on u: the "
            "translating stop rule needs f(x) and phi(x)")
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
    tol = tol_steady if mode == "steady" else tol_trans
    matrix = _StepMatrix(spec, mode)

    def stopped():
        return _stop_measure(mode, ev) < tol

    prev_u = state.u
    status = mode if stopped() else "t_max"
    while status == "t_max" and state.t < t_max:
        dt = min(2.0 * state.dt, _dt_cap(slope), t_max - state.t)
        state, ev = _implicit_update(spec, state, ev, slope, dt, matrix)
        if state.diverged:
            status = "diverged"
            break
        slope = _log_f_slope(spec, state.u, ev)
        if stopped():
            status = mode
        if state.step_count % checkpoint_every == 0:
            records.append(_record(spec, state, ev, prev_u))
            prev_u = state.u
    if records[-1].t < state.t:
        records.append(_record(spec, state, ev, prev_u))
    return RunResult(state, records, status, mode, matrix.factorizations,
                     matrix.solves)


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
