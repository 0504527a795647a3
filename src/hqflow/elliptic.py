"""Translating-solution profiles by vanishing-viscosity regularization.

A translating solution of the quotient flow moves at a constant speed s
with a fixed profile: log(sigma_k/sigma_l)(D^2 u) - log f(x) = s with
u_nu = phi(x).  The pair (s, u) is found by solving a family of damped
problems whose right side f e^{eps u} pins the additive constant: each
one, log q(D^2 u) = log f(x) + eps u, has a unique solution u_eps, the
steady state of the flow with damping rate eps, found here by Newton's
method on the interior values (Loeper & Rapetti, C. R. Acad. Sci.
Paris 340, 2005; Froese & Oberman, SIAM J. Numer. Anal. 49, 2011).  As
eps decreases, eps * u_eps at a fixed reference point converges to s
linearly in eps, so two solves at eps and eps/2 give a Richardson value
accurate to O(eps^2), and u_eps minus its divergent constant part
converges to the profile.

The module also carries the closed-form speed for k=1, l=0 (where the
operator is the Laplacian and the divergence theorem gives the speed as
log of a boundary/area integral ratio), a profile check that feeds the
eigenpair back into the time stepper, and the oscillation test that
backs uniqueness of profiles up to additive constants.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import discretize, exprparse, flow, geometry
from .geometry import ArgumentError

__all__ = [
    "EigenPair", "ConvergenceError", "solve_regularized", "s_epsilon",
    "solve_eigenpair", "laplace_speed_oracle", "check_translating_profile",
    "translation_identity", "check_uniqueness_up_to_constant",
    "eigen_summary",
]


class ConvergenceError(RuntimeError):
    """A damped solve did not reach its steady state."""


@dataclass
class EigenPair:
    """Speed and profile of a translating solution, with the damping
    trace that produced them."""
    s: float
    u_ell: np.ndarray
    y0: tuple
    epsilon_trace: list
    residual: float
    status: str
    notes: list = field(default_factory=list)
    newton_iterations: list = field(default_factory=list)


def _require_x_only(spec):
    if spec.phi_depends_on_u:
        raise ArgumentError(
            "phi", "must not depend on u: the damped solver needs a "
            "boundary flux phi(x)")
    if spec.f_depends_on_u:
        raise ArgumentError(
            "f", "must not depend on u: the damped solver needs a right "
            "side f(x); pass the translating-frame f")


# Newton converges in 2-5 steps from the warm starts of the schedule;
# a solve that needs more steps, or more halvings of one step, fails.
_MAX_NEWTON = 30
_MAX_HALVINGS = 30


def _damped_spec(spec, eps, u_init=None):
    """The problem with right side f(x) e^{eps u}, starting from u_init
    (the initial data of `spec` by default).  Raises ConvergenceError
    when the damped problem rejects its data (the damping at eps, or
    u_init)."""
    base_f = spec.f

    def f_damped(x, y, u, _f=base_f, _e=eps):
        return _f(x, y, u) * np.exp(_e * np.asarray(u, dtype=float))

    u0 = spec.u0_grid if u_init is None else np.asarray(u_init, dtype=float)
    try:
        return flow.ProblemSpec(spec.grid, spec.k, spec.l, f=f_damped,
                                phi=spec.phi, u0=u0, growth_rate=eps,
                                require_nonnegative_initial_speed=False)
    except ArgumentError as exc:
        raise ConvergenceError(f"damped solve at eps = {eps:.6g} cannot "
                               f"start: {exc}") from exc


def solve_regularized(spec, eps, u_init=None, tol=1e-8):
    """Solution of the damped problem log q(D^2 u) = log f(x) + eps u,
    u_nu = phi(x), and the number of Newton steps it took.

    The unknowns are the interior values; the closure of the u-free phi
    is affine in them, so the Jacobian of the residual G (the u_t of
    the flow with right side f e^{eps u}) is F11 Lxx + 2 F12 Lxy +
    F22 Lyy - eps I, with L the closed Hessian of
    `discretize.hessian_blocks`.  Each Newton step is solved by
    `flow._linearized_solve`, the solver of the flow's time step, with
    the diagonal eps, and halved until the iterate stays in the cone
    and max|G| decreases.  The damping makes the
    Jacobian nonsingular for eps > 0.  `u_init` warm starts the solve;
    it stops at max|G| < tol.  Raises ArgumentError for an eps or a tol
    that is not positive, and ConvergenceError when the damped problem
    rejects its data (the damping at eps, or u_init), when no halving of
    a step decreases max|G|, or after 30 steps.
    """
    if not eps > 0.0:
        raise ArgumentError("eps", "must be positive")
    if not tol > 0.0:
        raise ArgumentError("tol", f"must be positive, got {tol!r}")
    _require_x_only(spec)
    mspec = _damped_spec(spec, eps, u_init)
    grid, sl = spec.grid, spec._interior
    u = mspec.u0_grid
    ev = flow._evaluate(mspec, u)
    res = float(np.max(np.abs(ev.ut)))
    for steps in range(_MAX_NEWTON + 1):
        if res < tol:
            return u, steps
        if steps == _MAX_NEWTON:
            break
        try:
            du = flow._linearized_solve(mspec, ev.slopes, eps, ev.ut)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"damped solve at eps = {eps:.6g}: Newton step {steps + 1} "
                f"has a singular Jacobian ({exc})") from exc
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = u.copy()
            trial[sl] += lam * du
            trial = discretize.apply_neumann(grid, trial, spec.phi)
            ev_trial = flow._evaluate(mspec, trial)
            res_trial = float(np.max(np.abs(ev_trial.ut)))
            if ev_trial.ok_all and res_trial < res:
                u, ev, res = trial, ev_trial, res_trial
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"damped solve at eps = {eps:.6g}: Newton step {steps + 1} "
                f"does not decrease max|G| = {res:.3g} in {_MAX_HALVINGS} "
                f"halvings")
    raise ConvergenceError(
        f"damped solve at eps = {eps:.6g} did not reach max|G| < {tol:.3g} "
        f"in {_MAX_NEWTON} Newton steps; max|G| = {res:.3g}")


def s_epsilon(grid, u_eps, u_ref, eps, y0, bound=None):
    """Speed extracted from one damped solve: eps times the gap between
    the damped solution and the reference data at the point y0.

    If `bound` is given and the value falls outside (-bound, bound),
    the model hypotheses are suspect; a warning is issued but the value
    is still returned.
    """
    val = eps * (discretize.interp_at(grid, u_eps, y0)
                 - discretize.interp_at(grid, u_ref, y0))
    if bound is not None and not -bound < val < bound:
        warnings.warn(
            f"extracted speed {val:.6g} lies outside the model bound "
            f"(-{bound:.6g}, {bound:.6g})", RuntimeWarning, stacklevel=2)
    return val


def _model_bound(spec):
    """A priori window for the speed: 1 + max|log f| + max|u0| +
    max|log quotient(D^2 u0)| on the initial data."""
    ev = flow._evaluate(spec, spec.u0_grid)
    return float(1.0 + np.max(np.abs(np.log(ev.fval)))
                 + np.max(np.abs(spec.u0_grid))
                 + np.max(np.abs(np.log(ev.q))))


def solve_eigenpair(spec, eps0=1.0, n_halvings=6, y0=(0.0, 0.0), tol=1e-8):
    """Speed and profile via a halving schedule of damped solves.

    Runs solve_regularized at eps0, eps0/2, ..., eps0/2^n_halvings,
    warm starting each solve from the previous one shifted by its own
    extracted constant.  The returned speed is the Richardson value
    2 s_J - s_{J-1}; the profile is the last solve minus its constant
    part, pinned to the initial data at y0.  A trace that stops
    contracting, or a profile residual above 10 h^2 (1 + |s|), flags
    the pair as a convergence failure.  Each level's Newton step count
    is kept in `newton_iterations`.  Raises ArgumentError for an eps0
    that is not finite and positive, fewer than one halving (the
    Richardson value needs two levels), a y0 outside the domain, or a
    tol that is not positive.
    """
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ArgumentError("eps0",
                            f"must be finite and positive, got {eps0!r}")
    if n_halvings < 1:
        raise ArgumentError("n_halvings",
                            f"must be at least 1, got {n_halvings!r}")
    grid = spec.grid
    if geometry.distance(grid.domain, y0) < -1e-12:
        raise ArgumentError("y0", f"must lie in the closed domain, got {y0}")
    bound = _model_bound(spec)
    notes = []
    trace = []
    steps = []
    u = None
    u_init = None
    for j in range(n_halvings + 1):
        eps_j = eps0 * 2.0 ** (-j)
        u, n_steps = solve_regularized(spec, eps_j, u_init=u_init, tol=tol)
        steps.append(n_steps)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s_j = s_epsilon(grid, u, spec.u0_grid, eps_j, y0, bound=bound)
        for w in caught:
            notes.append(str(w.message))
        trace.append((eps_j, s_j))
        u_init = u + s_j / eps_j
    (_, s_prev), (eps_last, s_last) = trace[-2:]
    s_hat = 2.0 * s_last - s_prev
    u_ell = u - s_last / eps_last
    u_ell += (discretize.interp_at(grid, spec.u0_grid, y0)
              - discretize.interp_at(grid, u_ell, y0))
    ev = flow._evaluate(spec, u_ell)
    residual = float(np.max(np.abs(ev.ut - s_hat)))
    status = "converged"
    tiny = 1e-10 * (1.0 + abs(s_hat))
    ds = np.diff([s for _, s in trace])
    tail = ds[-3:]
    for a, b in zip(tail[:-1], tail[1:]):
        if abs(b) > 0.8 * abs(a) + tiny:
            status = "convergence-failure"
            notes.append("the damping trace is not contracting")
            break
        if abs(a) > 10 * tiny and abs(b) > 10 * tiny and (a > 0) != (b > 0):
            status = "convergence-failure"
            notes.append("the damping trace changes direction")
            break
    resid_bound = 10.0 * geometry.mesh_size(grid) ** 2 * (1.0 + abs(s_hat))
    if residual > resid_bound:
        status = "convergence-failure"
        notes.append(f"profile residual {residual:.3g} exceeds "
                     f"{resid_bound:.3g}")
    return EigenPair(s=s_hat, u_ell=u_ell, y0=tuple(y0),
                     epsilon_trace=trace, residual=residual,
                     status=status, notes=notes, newton_iterations=steps)


def laplace_speed_oracle(grid, f, phi, panels=4096):
    """Closed-form speed for k=1, l=0: log of the boundary integral of
    phi over the area integral of f (both must be positive)."""
    f_fn = exprparse.as_field(f, "f")
    phi_fn = exprparse.as_field(phi, "phi")
    fv = f_fn(grid.x, grid.y, np.zeros(grid.shape))
    area_int = float(np.sum(geometry.area_weights(grid) * fv))

    def g(x, y):
        x = np.asarray(x, dtype=float)
        return phi_fn(x, y, np.zeros(x.shape))

    bnd_int = geometry.boundary_integral(grid.domain, g, panels=panels)
    if not (area_int > 0.0 and bnd_int > 0.0):
        raise ArgumentError(
            "phi" if area_int > 0.0 else "f", f"gives no positive integral "
            f"for the speed; boundary {bnd_int:.6g}, area {area_int:.6g}")
    return math.log(bnd_int / area_int)


def check_translating_profile(spec, pair, t_max=1.0):
    """Feed the profile back into the flow for a unit of time; returns
    the worst deviation of u_t from the speed over its steps."""
    pspec = flow.ProblemSpec(spec.grid, spec.k, spec.l, f=spec.f,
                             phi=spec.phi, u0=pair.u_ell,
                             require_nonnegative_initial_speed=False)
    result = flow.run(pspec, mode="translating", t_max=t_max,
                      tol_trans=0.0)
    return max(max(abs(r.max_ut - pair.s), abs(r.min_ut - pair.s))
               for r in result.records)


def translation_identity(spec, eps0=1.0, tol=1e-8):
    """Check u[e f] = u[f] - 1/eps0 for the damped solves at eps0 of the
    right sides f and e f; returns the deviation, its tolerance
    100 tol / eps0 and whether it is met."""
    sspec = flow.ProblemSpec(spec.grid, spec.k, spec.l,
                             f=lambda x, y, u: math.e * spec.f(x, y, u),
                             phi=spec.phi, u0=spec.u0_grid,
                             require_nonnegative_initial_speed=False)
    base, shifted = (solve_regularized(s, eps0, tol=tol)[0]
                     for s in (spec, sspec))
    dev = float(np.max(np.abs(shifted - (base - 1.0 / eps0))))
    tol_id = 100.0 * tol / eps0
    return {"deviation": dev, "tolerance": tol_id, "ok": dev <= tol_id}


def check_uniqueness_up_to_constant(u_a, u_b):
    """Oscillation of the difference of two profiles; zero exactly when
    they agree up to an additive constant."""
    d = np.asarray(u_a, dtype=float) - np.asarray(u_b, dtype=float)
    return float(np.max(d) - np.min(d))


def eigen_summary(pair, oracle_s=None):
    """JSON-ready summary of an eigenpair solve."""
    return {
        "s_hat": pair.s,
        "epsilon_trace": [[e, s] for e, s in pair.epsilon_trace],
        "newton_iterations": list(pair.newton_iterations),
        "residual": pair.residual,
        "oracle_s": oracle_s,
        "status": pair.status,
        "notes": list(pair.notes),
    }
