"""Finite-difference gradient and Hessian operators on both grid backends,
and enforcement of the nonlinear Neumann condition u_nu = phi(x, u).

Interior derivatives are second-order central; the normal derivative at
the boundary is a one-sided 3-point stencil along the grid line that is
normal to the boundary by construction (radial lines on the polar
backend, lattice lines on the square).  On the polar backend the five
native (r, theta) derivatives are converted to Cartesian components by
the exact chain rule of the map (r, theta) -> (a r cos, b r sin); the
pole is crossed with the phantom rule u(-r, theta) = u(r, theta + pi).

Hessian values are produced for interior nodes only (the flow never
needs boundary Hessians; boundary values are slaved to the closure),
and the returned arrays hold zeros on the boundary rows.

The closure relation (one-sided normal derivative) = phi(x, u_b) has
two solvers.  When phi is a field that declares it does not depend on u
(`phi.depends_on_u is False`), the relation is affine in the boundary
values and is solved directly: node by node on the disk and the square
(faces first, then corners from the closed faces), and on the ellipse,
where the normal derivative picks up a tangential term that couples
neighboring boundary nodes, by the inverse of that cyclic tridiagonal
system.  For any other phi the relation is strictly increasing in u_b
whenever phi_u <= 0, so each boundary node has a unique solution; the
solver verifies a sign change before running safeguarded Newton, and
relaxes the ellipse coupling by Jacobi sweeps (the term vanishes
identically on the disk, where one sweep suffices).  Square corners
enforce the mean of the two one-sided face relations either way.

The per-grid constants (chain-rule coefficients, boundary geometry,
closure coefficients) are built once per grid and kept read-only in a
small cache keyed on the grid object.
"""

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gradient", "hessian", "stencils", "Stencils",
    "apply_neumann", "neumann_residual", "interp_at",
]


def _phantom_pad(u, nt):
    """Prepend the phantom ring u(-r_0, theta) = u(r_0, theta + pi)."""
    P = np.empty((u.shape[0] + 1, nt))
    P[0] = np.roll(u[0], -(nt // 2))
    P[1:] = u
    return P


# Grid is a frozen dataclass with eq=False, so it hashes by identity and
# a cache entry lives as long as the cache holds its grid.
_per_grid = functools.lru_cache(maxsize=8)


def _read_only(*arrays):
    """The arrays of a cached result, each made read-only so no caller
    can change what the cache hands to the next one."""
    for arr in arrays:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return arrays


@_per_grid
def _polar_coeffs(grid):
    """Chain-rule coefficient arrays of the radial map, full grid shape."""
    a, b = grid.domain.a, grid.domain.b
    r = grid.r[:, None]
    ct = np.cos(grid.theta)[None, :]
    st = np.sin(grid.theta)[None, :]
    rx = ct / a
    ry = st / b
    tx = -st / (a * r)
    ty = ct / (b * r)
    return (a, b) + _read_only(r, ct, st, rx, ry, tx, ty)


@_per_grid
def _polar_hessian_weights(grid):
    """Interior-row weights of the polar Hessian, products of the
    chain-rule coefficients: those of u_r and u_theta in gx and gy, of
    gx and gy in the map-curvature terms m_rt and m_tt, and of u_rr,
    m_rt and m_tt in hxx, hxy and hyy.  Each product is formed in the
    order the unfactored expression would form it, so the Hessian's
    values do not depend on the caching."""
    a, b, r, ct, st, rx, ry, tx, ty = _polar_coeffs(grid)
    shape = (grid.shape[0] - 1, grid.shape[1])
    r, ct, st = r[:-1], np.broadcast_to(ct, shape), np.broadcast_to(st, shape)
    rx, ry = np.broadcast_to(rx, shape), np.broadcast_to(ry, shape)
    tx, ty = tx[:-1], ty[:-1]
    return _read_only(
        rx, tx, ry, ty, a * st, b * ct, a * r * ct, b * r * st,
        rx * rx, 2.0 * rx * tx, tx * tx,
        rx * ry, rx * ty + tx * ry, tx * ty,
        ry * ry, 2.0 * ry * ty, ty * ty)


def _polar_first(grid, u):
    """Native u_r (one-sided on the outer ring) and u_theta."""
    nr, nt = grid.shape
    dr, dt = grid.dr, grid.dtheta
    P = _phantom_pad(u, nt)
    ur = np.empty_like(u)
    ur[:-1] = (P[2:] - P[:-2]) / (2.0 * dr)
    ur[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
    ut = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * dt)
    return ur, ut


def gradient(grid, u):
    """Cartesian gradient (gx, gy) at every node; one-sided at boundary."""
    u = np.asarray(u, dtype=float)
    if grid.backend == "polar":
        ur, ut = _polar_first(grid, u)
        _, _, _, _, _, rx, ry, tx, ty = _polar_coeffs(grid)
        return rx * ur + tx * ut, ry * ur + ty * ut
    h = grid.h
    gx = np.empty_like(u)
    gy = np.empty_like(u)
    gx[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    gx[:, 0] = (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * h)
    gx[:, -1] = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * h)
    gy[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * h)
    gy[0, :] = (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * h)
    gy[-1, :] = (3.0 * u[-1, :] - 4.0 * u[-2, :] + u[-3, :]) / (2.0 * h)
    return gx, gy


def hessian(grid, u):
    """Cartesian Hessian components (hxx, hxy, hyy) at interior nodes.

    Boundary rows are zero; the flow slaves boundary values to the
    Neumann closure and never differentiates twice there.
    """
    u = np.asarray(u, dtype=float)
    hxx = np.zeros_like(u)
    hxy = np.zeros_like(u)
    hyy = np.zeros_like(u)
    if grid.backend == "polar":
        nr, nt = grid.shape
        dr, dt = grid.dr, grid.dtheta
        P = _phantom_pad(u, nt)
        ur, ut = _polar_first(grid, u)
        ur, ut = ur[:-1], ut[:-1]
        urr = (P[2:nr + 1] - 2.0 * P[1:nr] + P[:nr - 1]) / dr**2
        Pl = np.roll(P, -1, axis=1)
        Pr = np.roll(P, 1, axis=1)
        urt = (Pl[2:nr + 1] - Pr[2:nr + 1] - Pl[:nr - 1] + Pr[:nr - 1]) \
            / (4.0 * dr * dt)
        utt = (Pl[1:nr] - 2.0 * P[1:nr] + Pr[1:nr]) / dt**2
        (rx, tx, ry, ty, k_rt_x, k_rt_y, k_tt_x, k_tt_y,
         xx_rr, xx_rt, xx_tt, xy_rr, xy_rt, xy_tt,
         yy_rr, yy_rt, yy_tt) = _polar_hessian_weights(grid)
        gx = rx * ur + tx * ut
        gy = ry * ur + ty * ut
        # subtract the curvature of the map: M = H_(r,theta) - gx*X - gy*Y
        # with X, Y the second-derivative tensors of x(r,th), y(r,th)
        m_rt = urt + k_rt_x * gx - k_rt_y * gy
        m_tt = utt + k_tt_x * gx + k_tt_y * gy
        hxx[:-1] = xx_rr * urr + xx_rt * m_rt + xx_tt * m_tt
        hxy[:-1] = xy_rr * urr + xy_rt * m_rt + xy_tt * m_tt
        hyy[:-1] = yy_rr * urr + yy_rt * m_rt + yy_tt * m_tt
        return hxx, hxy, hyy
    h2 = grid.h ** 2
    hxx[1:-1, 1:-1] = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1]
                       + u[1:-1, :-2]) / h2
    hyy[1:-1, 1:-1] = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1]
                       + u[:-2, 1:-1]) / h2
    hxy[1:-1, 1:-1] = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:]
                       + u[:-2, :-2]) / (4.0 * h2)
    return hxx, hxy, hyy


@dataclass(frozen=True)
class Stencils:
    """Per-node finite-difference weights in Cartesian components.

    Each field maps flat node index -> list of (flat neighbor index,
    weight) pairs; d11/d12/d22 exist for interior nodes only (None at
    boundary entries), d1/d2 everywhere.
    """
    d1: list
    d2: list
    d11: list
    d12: list
    d22: list


def _combine(coeff_terms):
    """Linear combination of stencil dicts: [(coeff, dict), ...]."""
    out = defaultdict(float)
    for c, d in coeff_terms:
        if c == 0.0:
            continue
        for key, w in d.items():
            out[key] += c * w
    return out


def _polar_stencils(grid):
    nr, nt = grid.shape
    dr, dt = grid.dr, grid.dtheta
    a, b, r_all, _, _, rx_all, ry_all, tx_all, ty_all = _polar_coeffs(grid)

    def node(j, i):
        i %= nt
        if j == -1:
            return (0, (i + nt // 2) % nt)
        return (j, i)

    def flat(key):
        return key[0] * nt + key[1]

    d1 = [None] * (nr * nt)
    d2 = [None] * (nr * nt)
    d11 = [None] * (nr * nt)
    d12 = [None] * (nr * nt)
    d22 = [None] * (nr * nt)
    ct = np.cos(grid.theta)
    st = np.sin(grid.theta)
    for j in range(nr):
        for i in range(nt):
            rv = grid.r[j]
            rx, ry = ct[i] / a, st[i] / b
            tx, ty = -st[i] / (a * rv), ct[i] / (b * rv)
            ut = {node(j, i + 1): 1.0 / (2 * dt),
                  node(j, i - 1): -1.0 / (2 * dt)}
            if j == nr - 1:
                ur = _combine([(1.0, {node(j, i): 3.0 / (2 * dr),
                                      node(j - 1, i): -4.0 / (2 * dr),
                                      node(j - 2, i): 1.0 / (2 * dr)})])
            else:
                ur = _combine([(1.0, {node(j + 1, i): 1.0 / (2 * dr)}),
                               (1.0, {node(j - 1, i): -1.0 / (2 * dr)})])
            gx = _combine([(rx, ur), (tx, ut)])
            gy = _combine([(ry, ur), (ty, ut)])
            d1[flat((j, i))] = sorted((flat(k), w) for k, w in gx.items())
            d2[flat((j, i))] = sorted((flat(k), w) for k, w in gy.items())
            if j == nr - 1:
                continue
            urr = _combine([(1.0, {node(j + 1, i): 1.0 / dr**2,
                                   node(j - 1, i): 1.0 / dr**2}),
                            (-2.0 / dr**2, {node(j, i): 1.0})])
            utt = {node(j, i + 1): 1.0 / dt**2,
                   node(j, i - 1): 1.0 / dt**2,
                   node(j, i): -2.0 / dt**2}
            urt = _combine([(1.0, {node(j + 1, i + 1): 1.0,
                                   node(j - 1, i - 1): 1.0}),
                            (-1.0, {node(j + 1, i - 1): 1.0,
                                    node(j - 1, i + 1): 1.0})])
            urt = {k: w / (4.0 * dr * dt) for k, w in urt.items()}
            m_rt = _combine([(1.0, urt), (a * st[i], gx), (-b * ct[i], gy)])
            m_tt = _combine([(1.0, utt), (a * rv * ct[i], gx),
                             (b * rv * st[i], gy)])
            hxx = _combine([(rx * rx, urr), (2 * rx * tx, m_rt),
                            (tx * tx, m_tt)])
            hxy = _combine([(rx * ry, urr), (rx * ty + tx * ry, m_rt),
                            (tx * ty, m_tt)])
            hyy = _combine([(ry * ry, urr), (2 * ry * ty, m_rt),
                            (ty * ty, m_tt)])
            d11[flat((j, i))] = sorted((flat(k), w) for k, w in hxx.items())
            d12[flat((j, i))] = sorted((flat(k), w) for k, w in hxy.items())
            d22[flat((j, i))] = sorted((flat(k), w) for k, w in hyy.items())
    return Stencils(d1, d2, d11, d12, d22)


def _cartesian_stencils(grid):
    n = grid.shape[0]
    h = grid.h

    def flat(i, j):
        return i * n + j

    d1 = [None] * (n * n)
    d2 = [None] * (n * n)
    d11 = [None] * (n * n)
    d12 = [None] * (n * n)
    d22 = [None] * (n * n)
    for i in range(n):
        for j in range(n):
            if j == 0:
                d1[flat(i, j)] = [(flat(i, 0), -3 / (2 * h)),
                                  (flat(i, 1), 4 / (2 * h)),
                                  (flat(i, 2), -1 / (2 * h))]
            elif j == n - 1:
                d1[flat(i, j)] = [(flat(i, n - 3), 1 / (2 * h)),
                                  (flat(i, n - 2), -4 / (2 * h)),
                                  (flat(i, n - 1), 3 / (2 * h))]
            else:
                d1[flat(i, j)] = [(flat(i, j - 1), -1 / (2 * h)),
                                  (flat(i, j + 1), 1 / (2 * h))]
            if i == 0:
                d2[flat(i, j)] = [(flat(0, j), -3 / (2 * h)),
                                  (flat(1, j), 4 / (2 * h)),
                                  (flat(2, j), -1 / (2 * h))]
            elif i == n - 1:
                d2[flat(i, j)] = [(flat(n - 3, j), 1 / (2 * h)),
                                  (flat(n - 2, j), -4 / (2 * h)),
                                  (flat(n - 1, j), 3 / (2 * h))]
            else:
                d2[flat(i, j)] = [(flat(i - 1, j), -1 / (2 * h)),
                                  (flat(i + 1, j), 1 / (2 * h))]
            if 0 < i < n - 1 and 0 < j < n - 1:
                d11[flat(i, j)] = [(flat(i, j - 1), 1 / h**2),
                                   (flat(i, j), -2 / h**2),
                                   (flat(i, j + 1), 1 / h**2)]
                d22[flat(i, j)] = [(flat(i - 1, j), 1 / h**2),
                                   (flat(i, j), -2 / h**2),
                                   (flat(i + 1, j), 1 / h**2)]
                d12[flat(i, j)] = [(flat(i - 1, j - 1), 1 / (4 * h**2)),
                                   (flat(i - 1, j + 1), -1 / (4 * h**2)),
                                   (flat(i + 1, j - 1), -1 / (4 * h**2)),
                                   (flat(i + 1, j + 1), 1 / (4 * h**2))]
    return Stencils(d1, d2, d11, d12, d22)


def stencils(grid):
    """Explicit per-node (neighbor, weight) lists for d1, d2, d11, d12,
    d22; mainly for verification, the array operators are the fast path."""
    if grid.backend == "polar":
        return _polar_stencils(grid)
    return _cartesian_stencils(grid)


def apply_stencil(entries, u_flat):
    """Evaluate one node's stencil on a flat field."""
    return sum(w * u_flat[idx] for idx, w in entries)


def _solve_increasing(fun, x0, max_iter=50):
    """Vector root solve of componentwise strictly increasing relations.

    Brackets each root by geometric expansion (verifying the sign
    change), then runs Newton with finite-difference slopes, falling
    back to bisection whenever a step leaves its bracket.
    """
    x0 = np.asarray(x0, dtype=float)
    span = 1.0 + np.abs(x0)
    lo = x0 - span
    rlo = np.asarray(fun(lo), dtype=float)
    s = span.copy()
    for _ in range(60):
        bad = rlo > 0.0
        if not bad.any():
            break
        s = np.where(bad, 2.0 * s, s)
        lo = np.where(bad, lo - s, lo)
        rlo = np.where(bad, fun(lo), rlo)
    hi = x0 + span
    rhi = np.asarray(fun(hi), dtype=float)
    s = span.copy()
    for _ in range(60):
        bad = rhi < 0.0
        if not bad.any():
            break
        s = np.where(bad, 2.0 * s, s)
        hi = np.where(bad, hi + s, hi)
        rhi = np.where(bad, fun(hi), rhi)
    if (rlo > 0.0).any() or (rhi < 0.0).any():
        raise ValueError(
            "boundary relation has no sign change; is phi increasing in u?")
    x = np.clip(x0, lo, hi)
    r = np.asarray(fun(x), dtype=float)
    tol = 1e-13 * (1.0 + float(np.max(np.abs(x0))))
    for _ in range(max_iter):
        if float(np.max(np.abs(r))) <= tol:
            break
        delta = 1e-7 * (1.0 + np.abs(x))
        slope = (np.asarray(fun(x + delta)) - r) / delta
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - r / slope
        ok = (slope > 0.0) & np.isfinite(newton) & (newton > lo) & (newton < hi)
        xn = np.where(ok, newton, 0.5 * (lo + hi))
        r = np.asarray(fun(xn), dtype=float)
        lo = np.where(r <= 0.0, xn, lo)
        hi = np.where(r > 0.0, xn, hi)
        x = xn
    return x


@_per_grid
def _polar_boundary_geometry(grid):
    """|grad r| and the tangential weight of the normal derivative on the
    boundary ring: u_nu = sq * u_r + ct * u_theta."""
    a, b = grid.domain.a, grid.domain.b
    th = grid.theta
    grr = (np.cos(th) / a) ** 2 + (np.sin(th) / b) ** 2
    grt = np.sin(th) * np.cos(th) * (1.0 / b**2 - 1.0 / a**2)
    sq = np.sqrt(grr)
    return _read_only(sq, grt / sq)


@_per_grid
def _polar_closure(grid):
    """Coefficients of the boundary relation on the outer ring,

        slope * u_b + c1 * u[-2] + c2 * u[-3] + tangential term = phi,

    and, when the tangential term couples neighboring boundary nodes
    (the ellipse), the inverse of its cyclic tridiagonal matrix; None
    on the disk, where the term vanishes."""
    sq, ct = _polar_boundary_geometry(grid)
    w = sq / (2.0 * grid.dr)
    inverse = None
    if np.any(ct != 0.0):
        n = grid.shape[1]
        i = np.arange(n)
        k = ct / (2.0 * grid.dtheta)
        A = np.diag(3.0 * w)
        A[i, (i + 1) % n] += k
        A[i, (i - 1) % n] -= k
        inverse = np.linalg.inv(A)
    return _read_only(3.0 * w, -4.0 * w, w, inverse)


@functools.lru_cache(maxsize=8)
def _square_closure_nodes(n):
    """Index tuples of the Neumann closure on an n x n lattice.

    Returns (face, face1, face2) for the non-corner boundary nodes and
    their first and second inward neighbors along the normal line, and
    (corners, cx1, cx2, cy1, cy2) for the four corners and their first
    and second inward neighbors along the row (x) and the column (y).
    """
    i = np.arange(1, n - 1)
    faces = []
    for d in (0, 1, 2):
        near, far = np.full_like(i, d), np.full_like(i, n - 1 - d)
        # for each i: the nodes on the left, right, bottom and top faces
        faces.append((np.stack((i, i, near, far), axis=1).ravel(),
                      np.stack((near, far, i, i), axis=1).ravel()))
    corners = ((0, 0, n - 1, n - 1), (0, n - 1, 0, n - 1))
    cx1 = ((0, 0, n - 1, n - 1), (1, n - 2, 1, n - 2))
    cx2 = ((0, 0, n - 1, n - 1), (2, n - 3, 2, n - 3))
    cy1 = ((1, 1, n - 2, n - 2), (0, n - 1, 0, n - 1))
    cy2 = ((2, 2, n - 3, n - 3), (0, n - 1, 0, n - 1))
    return tuple(_read_only(*pair) for pair in faces), \
        (corners, cx1, cx2, cy1, cy2)


def apply_neumann(grid, u, phi, max_sweeps=50):
    """Return a copy of u whose boundary values satisfy u_nu = phi(x, u).

    `phi` is called as phi(x, y, u) with arrays of boundary data.  The
    one-sided discrete normal derivative at each boundary node is
    driven to phi within 1e-12; square corners satisfy the mean of
    their two face relations.  A phi whose `depends_on_u` attribute is
    False makes the relation affine in the boundary values: it is
    solved directly, with phi evaluated once.  Any other phi is solved
    by bracketed Newton, with up to `max_sweeps` Jacobi sweeps for the
    ellipse coupling.
    """
    u = np.array(u, dtype=float)
    affine = getattr(phi, "depends_on_u", None) is False
    if grid.backend == "polar":
        slope, c1, c2, inverse = _polar_closure(grid)
        xb, yb = grid.x[-1], grid.y[-1]
        known = c1 * u[-2] + c2 * u[-3]
        if affine:
            rhs = phi(xb, yb, u[-1]) - known
            u[-1] = rhs / slope if inverse is None else inverse @ rhs
            return u
        _, ct = _polar_boundary_geometry(grid)
        ub = u[-1].copy()
        for _ in range(max_sweeps):
            tang = ct * (np.roll(ub, -1) - np.roll(ub, 1)) / (2.0 * grid.dtheta)

            def resid(v):
                return slope * v + known + tang - phi(xb, yb, v)

            ub_new = _solve_increasing(resid, ub)
            change = float(np.max(np.abs(ub_new - ub)))
            ub = ub_new
            if inverse is None \
                    or change <= 1e-13 * (1.0 + np.max(np.abs(ub))):
                break
        u[-1] = ub
        return u
    h = grid.h
    slope = 3.0 / (2.0 * h)
    (face, f1, f2), (corners, cx1, cx2, cy1, cy2) = \
        _square_closure_nodes(grid.shape[0])
    fluxes = (None, None)
    if affine:
        # phi once, at the face nodes followed by the corners
        both = tuple(np.concatenate(ij) for ij in zip(face, corners))
        fluxes = np.split(phi(grid.x[both], grid.y[both], u[both]),
                        [face[0].size])

    def close(nodes, known, flux):
        """Values at `nodes` solving slope * v + known = phi(x, v); `flux`
        is phi there when it does not depend on v."""
        if flux is not None:
            return (flux - known) / slope
        x, y = grid.x[nodes], grid.y[nodes]
        return _solve_increasing(
            lambda v: slope * v + known - phi(x, y, v), u[nodes])

    u[face] = close(face, (-4.0 * u[f1] + u[f2]) / (2.0 * h), fluxes[0])
    u[corners] = close(corners, 0.5 * (-4.0 * (u[cx1] + u[cy1])
                                       + (u[cx2] + u[cy2])) / (2.0 * h),
                       fluxes[1])
    return u


def interp_at(grid, u, point):
    """Bilinear interpolation of grid values at a physical point.

    On the polar backend the interpolation runs in (r, theta)
    coordinates, crossing the pole through the phantom ring so points
    near the center are handled like any others.  The point must lie in
    the closed domain (queries are clamped to it).
    """
    u = np.asarray(u, dtype=float)
    px, py = float(point[0]), float(point[1])
    if grid.backend == "polar":
        a, b = grid.domain.a, grid.domain.b
        rr = math.hypot(px / a, py / b)
        th = math.atan2(py / b, px / a) % (2.0 * math.pi)
        rr = min(rr, 1.0)
        nr, nt = grid.shape
        dr, dt = grid.dr, grid.dtheta
        P = _phantom_pad(u, nt)
        # padded row p sits at signed r = (p - 1/2) dr
        p = int(math.floor(rr / dr + 0.5))
        p = min(max(p, 0), nr - 1)
        fr = rr / dr + 0.5 - p
        q = int(math.floor(th / dt))
        q = min(max(q, 0), nt - 1)
        ft = th / dt - q
        q1 = (q + 1) % nt
        return float((1 - fr) * ((1 - ft) * P[p, q] + ft * P[p, q1])
                     + fr * ((1 - ft) * P[p + 1, q] + ft * P[p + 1, q1]))
    n = grid.shape[0]
    h = grid.h
    L = grid.domain.half_width
    sx = min(max((px + L) / h, 0.0), n - 1.0)
    sy = min(max((py + L) / h, 0.0), n - 1.0)
    j = min(int(math.floor(sx)), n - 2)
    i = min(int(math.floor(sy)), n - 2)
    fx, fy = sx - j, sy - i
    return float((1 - fy) * ((1 - fx) * u[i, j] + fx * u[i, j + 1])
                 + fy * ((1 - fx) * u[i + 1, j] + fx * u[i + 1, j + 1]))


def neumann_residual(grid, u, phi):
    """Residual (u_nu - phi) at boundary nodes, full grid shape, zeros
    elsewhere; corners use their averaged relation."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    if grid.backend == "polar":
        dr = grid.dr
        sq, ct = _polar_boundary_geometry(grid)
        ub = u[-1]
        ur = (3.0 * ub - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
        ut = (np.roll(ub, -1) - np.roll(ub, 1)) / (2.0 * grid.dtheta)
        out[-1] = sq * ur + ct * ut - phi(grid.x[-1], grid.y[-1], ub)
        return out
    h = grid.h
    (face, _, _), (corners, cx1, cx2, cy1, cy2) = \
        _square_closure_nodes(grid.shape[0])
    gx, gy = gradient(grid, u)
    un = gx * grid.normal_x + gy * grid.normal_y
    out[face] = un[face] - phi(grid.x[face], grid.y[face], u[face])
    uc = u[corners]
    dn = (3.0 * uc - 0.5 * 4.0 * (u[cx1] + u[cy1])
          + 0.5 * (u[cx2] + u[cy2])) / (2.0 * h)
    out[corners] = dn - phi(grid.x[corners], grid.y[corners], uc)
    return out
