"""Translating-solution profiles by vanishing-viscosity regularization.

A translating solution of the quotient flow moves at a constant speed s
with a fixed profile: log(sigma_k/sigma_l)(D^2 u) - log f(x) = s with
u_nu = phi(x).  The pair (s, u) is found from a damped problem
log q(D^2 u) = log f(x) + eps u, whose term eps u pins the additive
constant: it has a unique solution u_eps, the steady state of the flow
with right side f e^{eps u}, found here by Newton's method on the
interior values of the residual u_t - eps u, with u_t the right side of
the caller's problem (Loeper & Rapetti, C. R. Acad. Sci. Paris 340,
2005; Froese & Oberman, SIAM J. Numer. Anal. 49, 2011).  As eps
decreases, u_eps = s/eps + profile + O(eps).  The solver carries the
large constant part of u_eps as a Python float apart from the grid
array, so the Hessian never differences s/eps and one solve at a small
eps gives the speed eps u_eps(0) to O(eps), and the profile, pinned to
the initial data at the centre of the domain, the origin.

The module also carries the closed-form speed for k=1, l=0 (where the
operator is the Laplacian and the divergence theorem gives the speed as
log of a boundary/area integral ratio), a profile check that feeds the
eigenpair back into the time stepper, and the oscillation test that
backs uniqueness of profiles up to additive constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import discretize, exprparse, flow, geometry
from .geometry import ArgumentError

__all__ = [
    "EigenPair", "ConvergenceError", "solve_regularized",
    "solve_eigenpair", "laplace_speed_oracle", "check_translating_profile",
    "translation_identity", "check_uniqueness_up_to_constant",
    "eigen_summary",
]

# The reference point of the speed and the pin of the profile: the
# centre of every disk and ellipse.
_PIN = (0.0, 0.0)


def _at_origin(u):
    """u at the origin: the innermost ring sits at r = dr/2, so the
    origin is the midpoint of its nodes at theta_0 and theta_0 + pi."""
    return float(0.5 * u[0, u.shape[1] // 2] + 0.5 * u[0, 0])


class ConvergenceError(RuntimeError):
    """A damped solve did not reach its steady state."""


@dataclass
class EigenPair:
    """Speed and profile of a translating solution, with the Newton
    steps of the damped solve that produced them."""
    s: float
    u_ell: np.ndarray
    y0: tuple
    residual: float
    status: str
    notes: list = field(default_factory=list)
    newton_iterations: int = 0


def _require_x_only(spec):
    if spec.phi.depends_on_u:
        raise ArgumentError(
            "phi", "must not depend on u: the damped solver needs a "
            "boundary flux phi(x)")
    if spec.f.depends_on_u:
        raise ArgumentError(
            "f", "must not depend on u: the damped solver needs a right "
            "side f(x); pass the translating-frame f")


# Newton converges in 2-6 steps from the closed u0; a solve that needs
# more steps, or more halvings of one step, fails.
_MAX_NEWTON = 30
_MAX_HALVINGS = 30
# max|G| is known to no better than this many ulps of the sum of the
# magnitudes of its terms.
_ROUNDOFF_ULPS = 64
# The damping of the eigen solve.  Its speed is off by about -0.33 eps;
# at eps = 1e-12 the block elimination of J - eps I breaks down, with
# inverted Schur complements as it did with block solves.
_EIGEN_EPS = 1e-8


def solve_regularized(spec, eps, tol=1e-8):
    """Solution u = w + c of the damped problem log q(D^2 u) =
    log f(x) + eps u, u_nu = phi(x): the grid array w, the float c, and
    the number of Newton steps it took.

    The problem is solved on `spec` itself.  The constant part of u,
    about s/eps at small eps, is carried in c, so the Hessian never
    differences it.  The closure of the u-free phi commutes with adding
    constants, so u_t(w + c) = u_t(w), and the residual at the interior
    nodes is G = u_t(w) - eps w - eps c, with u_t the right side of the
    flow of `spec`.  The solve starts from the closed u0 with c its
    value at the origin.  The unknowns are the interior values; the
    closure is affine in them, so the Jacobian of G is F11 Lxx +
    2 F12 Lxy + F22 Lyy - eps I, with L the closed Hessian of
    `discretize.hessian_blocks`.  Each Newton step is solved by
    `flow._linearized_solve`, the solver of the flow's time step, with
    the diagonal eps, and halved until the iterate stays in the cone
    and max|G| decreases; the mean of the step goes into c and the rest
    into w.  The damping makes the Jacobian nonsingular for eps > 0.
    The solve stops at max|G| < tol.  Raises ArgumentError for an eps
    that is not finite and positive or a tol that is not positive, and
    ConvergenceError when tol lies below the round-off of G, when no
    halving of a step decreases max|G|, or after 30 steps.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ArgumentError("eps",
                            f"must be finite and positive, got {eps!r}")
    if not tol > 0.0:
        raise ArgumentError("tol", f"must be positive, got {tol!r}")
    _require_x_only(spec)
    grid, sl = spec.grid, flow._INTERIOR

    def residual(w, c):
        ev = flow._evaluate(spec, w)
        G = ev.ut - eps * w[sl] - eps * c
        return ev, G, float(np.max(np.abs(G)))

    c = _at_origin(spec.u0_grid)
    w = spec.u0_grid - c
    ev, G, res = residual(w, c)
    for steps in range(_MAX_NEWTON + 1):
        if res < tol:
            return w, c, steps
        # G is affine in c, and a Newton step moves eps c to about the
        # mean of u_t - eps w, so eps c is counted at that value
        floor = _ROUNDOFF_ULPS * np.finfo(float).eps * float(
            np.max(np.abs(np.log(ev.q))) + np.max(np.abs(np.log(ev.fval)))
            + eps * np.max(np.abs(w)) + abs(np.mean(G) + eps * c))
        if tol < floor:
            raise ConvergenceError(
                f"damped solve at eps = {eps:.6g}: tol {tol:.3g} lies "
                f"below the round-off floor {floor:.3g} of max|G| = "
                f"{res:.3g}")
        if steps == _MAX_NEWTON:
            break
        try:
            du = flow._linearized_solve(spec, ev.slopes, eps, G)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"damped solve at eps = {eps:.6g}: Newton step {steps + 1} "
                f"has a singular Jacobian ({exc})") from exc
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            step = lam * du
            dc = float(np.mean(step))
            trial = w.copy()
            trial[sl] += step - dc
            trial = discretize.apply_neumann(grid, trial, spec.phi)
            ev_trial, G_trial, res_trial = residual(trial, c + dc)
            if ev_trial.ok_all and res_trial < res:
                w, c = trial, c + dc
                ev, G, res = ev_trial, G_trial, res_trial
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


def solve_eigenpair(spec, tol=1e-8):
    """Speed and profile from one damped solve at eps = 1e-8.

    solve_regularized from the closed u0 gives u = w + c.  The speed is
    s = eps u(0) = eps (c + w(0)); the profile is w pinned to the
    initial data at the origin.  A profile residual max|u_t - s| above
    10 h^2 (1 + |s|) flags the pair as a convergence failure.  Raises
    ArgumentError for a tol that is not positive, and ConvergenceError
    when the damped solve fails.
    """
    w, c, steps = solve_regularized(spec, _EIGEN_EPS, tol=tol)
    w_pin = _at_origin(w)
    s = _EIGEN_EPS * (c + w_pin)
    u_ell = w + (_at_origin(spec.u0_grid) - w_pin)
    ev = flow._evaluate(spec, u_ell)
    residual = float(np.max(np.abs(ev.ut - s)))
    status, notes = "converged", []
    resid_bound = 10.0 * geometry.mesh_size(spec.grid) ** 2 * (1.0 + abs(s))
    if residual > resid_bound:
        status = "convergence-failure"
        notes.append(f"profile residual {residual:.3g} exceeds "
                     f"{resid_bound:.3g}")
    return EigenPair(s=s, u_ell=u_ell, y0=_PIN, residual=residual,
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
    100 tol / eps0 and whether it is met.  Raises ArgumentError for an
    eps0 that is not finite and positive."""
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise ArgumentError("eps0",
                            f"must be finite and positive, got {eps0!r}")
    sspec = flow.ProblemSpec(spec.grid, spec.k, spec.l,
                             f=exprparse.BinOp("*", exprparse.Num(math.e),
                                               spec.f.expr),
                             phi=spec.phi, u0=spec.u0_grid,
                             require_nonnegative_initial_speed=False)
    base, shifted = (w + c for w, c, _ in (
        solve_regularized(s, eps0, tol=tol) for s in (spec, sspec)))
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
        "newton_iterations": pair.newton_iterations,
        "residual": pair.residual,
        "oracle_s": oracle_s,
        "status": pair.status,
        "notes": list(pair.notes),
    }
