"""Finite-difference gradient and Hessian operators on the polar grids,
and enforcement of the nonlinear Neumann condition u_nu = phi(x, u).

Interior derivatives are second-order central; the normal derivative at
the boundary is built from a one-sided 3-point stencil along the radial
line.  The five native (r, theta) derivatives are converted to Cartesian
components by the exact chain rule of the map (r, theta) -> (a r cos,
b r sin); the pole is crossed with the phantom rule u(-r, theta) =
u(r, theta + pi).

Hessian values are produced for interior nodes only (the flow never
needs boundary Hessians; boundary values are slaved to the closure),
and the returned arrays hold zeros on the boundary rows.
`difference_operators` holds the same weights as COO triplets of flat
node indices, built apart from the array operators as their reference.

The closure relation (one-sided normal derivative) = phi(x, u_b) reads
M u_b + (inner-row terms) = phi(x, u_b).  M is the diagonal `slope` on
the disk; on the ellipse the normal derivative picks up a tangential
term that couples neighboring boundary nodes, and M is a cyclic
tridiagonal matrix.  One Newton iteration solves the relation on every
grid: each step solves the linearization
(M - diag(d)) u_b = phi - d u_b_old - (inner-row terms), d = phi.du the
exact u-derivative of the phi field (`exprparse.as_field`), so a phi
affine in u closes in one step.  A phi free of u (`phi.depends_on_u`
False) makes the relation affine in u_b, and one step with d = 0 solves
it with one evaluation of phi.  For phi_u <= 0 the relation is strictly
increasing in u_b; a step whose slope - d is not positive is refused.

With a u-free phi the closure is affine in the interior values, and
`hessian_blocks` folds its linear part into the Hessian weights: the
closed Hessian as a block-tridiagonal linear map over the rings, the
operator of the flow's implicit time step and of the eigen lane's
Newton step.  It keeps only the nonzero weights, as one sparse table
from which each linear solve assembles its blocks.

The per-grid constants (chain-rule coefficients, boundary geometry,
closure coefficients, node coordinates, the Hessian table) are built
once per grid and kept read-only in a small cache keyed on the grid
object.
"""

import functools

import numpy as np

from . import exprparse

__all__ = [
    "gradient", "hessian", "difference_operators", "hessian_blocks",
    "apply_neumann", "neumann_residual",
]


def _phantom_pad(u, nt):
    """u padded with the phantom ring u(-r_0, theta) = u(r_0, theta + pi)
    in row 0 and one wrapped theta column on each side, so u[j, i] is
    Q[j + 1, i + 1] and its angular neighbours are slices of Q."""
    Q = np.empty((u.shape[0] + 1, nt + 2))
    half = nt // 2
    Q[0, 1:half + 1] = u[0, half:]
    Q[0, half + 1:-1] = u[0, :half]
    Q[1:, 1:-1] = u
    Q[:, 0] = Q[:, nt]
    Q[:, -1] = Q[:, 1]
    return Q


# Grid is a frozen dataclass with eq=False, so it hashes by identity and
# a cache entry lives as long as the cache holds its grid.  Two entries:
# a run, a converge level and an eigen solve each work on one grid, and
# an entry whose grid no caller holds only keeps its arrays alive.
_per_grid = functools.lru_cache(maxsize=2)


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
    Q = _phantom_pad(u, nt)
    P = Q[:, 1:-1]
    ur = np.empty_like(u)
    ur[:-1] = (P[2:] - P[:-2]) / (2.0 * dr)
    ur[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
    ut = (Q[1:, 2:] - Q[1:, :-2]) / (2.0 * dt)
    return ur, ut


def gradient(grid, u):
    """Cartesian gradient (gx, gy) at every node; one-sided at boundary."""
    ur, ut = _polar_first(grid, np.asarray(u, dtype=float))
    _, _, _, _, _, rx, ry, tx, ty = _polar_coeffs(grid)
    return rx * ur + tx * ut, ry * ur + ty * ut


def hessian(grid, u):
    """Cartesian Hessian components (hxx, hxy, hyy) at interior nodes.

    Boundary rows are zero; the flow slaves boundary values to the
    Neumann closure and never differentiates twice there.
    """
    u = np.asarray(u, dtype=float)
    hxx = np.zeros_like(u)
    hxy = np.zeros_like(u)
    hyy = np.zeros_like(u)
    nr, nt = grid.shape
    dr, dt = grid.dr, grid.dtheta
    Q = _phantom_pad(u, nt)
    # P[j] is ring j - 1; Pl and Pr hold the theta neighbours i + 1, i - 1
    P, Pl, Pr = Q[:, 1:-1], Q[:, 2:], Q[:, :-2]
    ur = (P[2:nr + 1] - P[:nr - 1]) / (2.0 * dr)
    ut = (Pl[1:nr] - Pr[1:nr]) / (2.0 * dt)
    urr = (P[2:nr + 1] - 2.0 * P[1:nr] + P[:nr - 1]) / dr**2
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


def difference_operators(grid):
    """The Cartesian difference operators as COO triplets of flat node
    indices: (d1, d2, d11, d12, d22), each a (rows, cols, vals) tuple.

    d1 and d2 (the x and y derivatives) have rows at every node; d11,
    d12 and d22 only at interior nodes.  A (row, col) pair may repeat,
    and its weights add, so an operator applies to a field u as
    np.bincount(rows, vals * u.ravel()[cols], minlength=u.size).  The
    weights come from the native difference formulas and the chain rule
    of the map, not from `gradient` or `hessian`, which they reproduce
    to round-off; they serve as the explicit reference for both.
    """
    n_t = grid.shape[1]
    J, I = np.indices(grid.shape)

    def native(nodes, taps):
        """sum_k w_k u[j + dj_k, i + di_k] at the nodes J[nodes], I[nodes]
        for taps (dj_k, di_k, w_k); i wraps and row -1 is the phantom
        ring."""
        j, i = J[nodes].ravel(), I[nodes].ravel()
        dj, di, w = (np.array(col)[:, None] for col in zip(*taps))
        jj, ii = j + dj, i + di
        ii = np.where(jj < 0, ii + n_t // 2, ii) % n_t
        jj = np.maximum(jj, 0)
        return (np.broadcast_to(j * n_t + i, jj.shape).ravel(),
                (jj * n_t + ii).ravel(), np.broadcast_to(w, jj.shape).ravel())

    def comb(*terms):
        """sum_k c_k op_k, each c_k a field of per-row coefficients."""
        return (np.concatenate([rows for _, (rows, _, _) in terms]),
                np.concatenate([cols for _, (_, cols, _) in terms]),
                np.concatenate([np.broadcast_to(c, grid.shape).ravel()[rows]
                                * vals for c, (rows, _, vals) in terms]))

    dr, dt = grid.dr, grid.dtheta
    a, b = grid.domain.a, grid.domain.b
    r = grid.r[:, None]
    ct, st = np.cos(grid.theta)[None, :], np.sin(grid.theta)[None, :]
    rx, ry, tx, ty = ct / a, st / b, -st / (a * r), ct / (b * r)
    inner, outer = (slice(0, -1), slice(None)), (slice(-1, None), slice(None))
    cr, c_t, w = 1.0 / (2.0 * dr), 1.0 / (2.0 * dt), 1.0 / (4.0 * dr * dt)
    ur = native(inner, [(1, 0, cr), (-1, 0, -cr)])
    ut = native(inner, [(0, 1, c_t), (0, -1, -c_t)])
    ur_b = native(outer, [(0, 0, 3 * cr), (-1, 0, -4 * cr), (-2, 0, cr)])
    ut_b = native(outer, [(0, 1, c_t), (0, -1, -c_t)])
    second = ((1, 1.0), (0, -2.0), (-1, 1.0))
    urr = native(inner, [(s, 0, k / dr**2) for s, k in second])
    urt = native(inner, [(1, 1, w), (1, -1, -w), (-1, 1, -w), (-1, -1, w)])
    utt = native(inner, [(0, s, k / dt**2) for s, k in second])
    gx, gy = comb((rx, ur), (tx, ut)), comb((ry, ur), (ty, ut))
    # the Hessian in (r, theta) minus the curvature of the map:
    # M = H_(r,theta) - gx X - gy Y, with X, Y the second-derivative
    # tensors of x(r, theta) and y(r, theta)
    m_rt = comb((1.0, urt), (a * st, gx), (-b * ct, gy))
    m_tt = comb((1.0, utt), (a * r * ct, gx), (b * r * st, gy))
    return (comb((1.0, gx), (rx, ur_b), (tx, ut_b)),
            comb((1.0, gy), (ry, ur_b), (ty, ut_b)),
            comb((rx * rx, urr), (2 * rx * tx, m_rt), (tx * tx, m_tt)),
            comb((rx * ry, urr), (rx * ty + tx * ry, m_rt), (tx * ty, m_tt)),
            comb((ry * ry, urr), (2 * ry * ty, m_rt), (ty * ty, m_tt)))


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
    (the ellipse), the cyclic tridiagonal matrix A of the u_b terms and
    its inverse; None for both on the disk, where the term vanishes."""
    sq, ct = _polar_boundary_geometry(grid)
    w = sq / (2.0 * grid.dr)
    A = inverse = None
    if np.any(ct != 0.0):
        n = grid.shape[1]
        i = np.arange(n)
        k = ct / (2.0 * grid.dtheta)
        A = np.diag(3.0 * w)
        A[i, (i + 1) % n] += k
        A[i, (i - 1) % n] -= k
        inverse = np.linalg.inv(A)
    return _read_only(3.0 * w, -4.0 * w, w, A, inverse)


@_per_grid
def _boundary_nodes(grid):
    """Coordinates of the closed nodes (the outer ring, u[-1]) and the
    diagonal of the closure matrix M there.  The coordinates are copies,
    so the fields that fold their x-only parts there (`exprparse`) see
    arrays nothing can change."""
    return _read_only(grid.x[-1].copy(), grid.y[-1].copy(),
                      _polar_closure(grid)[0])


@_per_grid
def _interior_nodes(grid):
    """Coordinates of the interior nodes (every ring inside the outer
    one), copied like those of `_boundary_nodes`."""
    return _read_only(grid.x[:-1].copy(), grid.y[:-1].copy())


def _close_linear(grid, u, g, d=None):
    """Write into u the boundary values that solve the closure relation
    with phi replaced by g + d * u_b, both in `_boundary_nodes` order.
    d = None stands for d = 0 and uses the cached inverse on the
    ellipse."""
    slope, c1, c2, A, inverse = _polar_closure(grid)
    rhs = g - (c1 * u[-2] + c2 * u[-3])
    if A is None:
        u[-1] = rhs / (slope if d is None else slope - d)
    elif d is None:
        u[-1] = inverse @ rhs
    else:
        u[-1] = np.linalg.solve(A - np.diag(d), rhs)


def _closure_part(grid):
    """The linear part of the closure with a u-free phi: the flat indices
    of the nodes it writes (the outer ring) and of the interior nodes it
    reads (the two rings inside it), and the matrix C with u[written] =
    C u[read] + (the part from phi).  Column e of C is the closure of the
    unit field at read node e with g = 0."""
    nr, nt = grid.shape
    written = np.arange((nr - 1) * nt, nr * nt)
    read = np.arange((nr - 3) * nt, (nr - 1) * nt)
    zero = np.zeros(written.size)
    C = np.empty((written.size, read.size))
    for col, e in enumerate(read):
        u = np.zeros(grid.shape)
        u.flat[e] = 1.0
        _close_linear(grid, u, zero)
        C[:, col] = u[-1]
    return written, read, C


@_per_grid
def hessian_blocks(grid):
    """The discrete Hessian at interior nodes as a linear map of the
    interior values, with the Neumann closure of a u-free phi folded in:
    the map v -> hessian(apply_neumann(v)) - hessian(apply_neumann(0)).

    The map is block tridiagonal over the n_p interior rings of m
    nodes, and it is kept as one sparse table (idx, src, vals) of the
    nonzero weights of xx, then of xy, then of yy.  idx is the flat
    index of a weight in an (n_p, 3, m, m) array whose block [p, k]
    multiplies ring p - 1 + k of the interior values, so the dense xx
    map is np.bincount(idx[:n], vals[:n], minlength=n_p * 3 * m * m)
    over its n entries.  src is the index of the weight's row node in
    the concatenated raveled (F11, 2 F12, F22) of `flow._evaluate`, so
    np.bincount(idx, vals * c[src]) assembles F11 Lxx + 2 F12 Lxy + F22
    Lyy.  The weights are the COO triplets of `difference_operators`; a
    triplet that reads a closed node is spread over the interior nodes
    the closure reads.  The pole phantom and the coupled ellipse
    closure land in the diagonal and lower blocks of their rows.
    """
    written, read, C = _closure_part(grid)
    # block row P and column T of each node in the layout of the interior
    # values u[interior], -1 off the interior
    P, T = (np.where(grid.boundary_mask, -1, A).ravel()
            for A in np.indices(grid.shape))
    n_p, m = P.max() + 1, T.max() + 1
    row_of = np.full(grid.x.size, -1)
    row_of[written] = np.arange(written.size)

    def fold(op, first_src):
        rows, cols, vals = op
        closed = row_of[cols] >= 0
        w = vals[closed, None] * C[row_of[cols[closed]]]
        hit = np.nonzero(w)
        rows = np.concatenate((rows[~closed], rows[closed][hit[0]]))
        cols = np.concatenate((cols[~closed], read[hit[1]]))
        vals = np.concatenate((vals[~closed], w[hit]))
        k = P[cols] - P[rows] + 1
        idx = ((P[rows] * 3 + k) * m + T[rows]) * m + T[cols]
        dense = np.bincount(idx, vals, minlength=n_p * 3 * m * m)
        idx = np.flatnonzero(dense)
        return idx, first_src + idx // (3 * m * m) * m + idx // m % m, \
            dense[idx]

    # each triplet table is dropped once it is folded
    ops = list(difference_operators(grid)[2:])
    parts = [fold(ops.pop(0), o * n_p * m) for o in range(3)]
    return _read_only(*(np.concatenate(col) for col in zip(*parts)))


_MAX_NEWTON = 50


def apply_neumann(grid, u, phi):
    """Return a copy of u whose boundary values satisfy u_nu = phi(x, u).

    `phi` is made a field by `exprparse.as_field` and called as
    phi(x, y, u) with arrays of boundary data.  The one-sided discrete
    normal derivative at each boundary node is driven to phi within
    1e-13 (1 + max|phi|).  The relation is solved by Newton on the boundary
    values of all nodes at once, with the slope phi.du.  A phi free of u
    makes it affine: one step solves it, with phi evaluated once.
    Raises ValueError when phi is not finite at an iterate, when the
    relation is not increasing in u (phi_u >= the stencil slope), or
    after 50 steps.
    """
    u = np.array(u, dtype=float)
    phi = exprparse.as_field(phi, "phi")
    x, y, slope = _boundary_nodes(grid)
    p = phi(x, y, u[-1])
    if not phi.depends_on_u:
        _close_linear(grid, u, p)
        return u
    v = np.array(u[-1])
    for _ in range(_MAX_NEWTON):
        if not np.all(np.isfinite(p)):
            raise ValueError("phi is not finite at the boundary values")
        d = phi.du(x, y, v)
        if not np.all(slope - d > 0.0):
            raise ValueError(
                "boundary relation is not increasing in u and need not "
                "have a sign change; is phi increasing in u?")
        _close_linear(grid, u, p - d * v, d)
        v_new = np.array(u[-1])
        p_new = phi(x, y, v_new)
        # the step made the normal derivative p + d (v_new - v), so this
        # is the relation residual at v_new
        res = float(np.max(np.abs(p + d * (v_new - v) - p_new)))
        v, p = v_new, p_new
        # the residual's round-off grows with the size of phi, not of u
        if res <= 1e-13 * (1.0 + float(np.max(np.abs(p)))):
            return u
    raise ValueError(f"Neumann closure did not converge in {_MAX_NEWTON} "
                     f"Newton steps; relation residual {res:.3g}")


def neumann_residual(grid, u, phi):
    """Residual (u_nu - phi) at boundary nodes, full grid shape, zeros
    elsewhere.  `phi` is made a field by `exprparse.as_field`, as in
    `apply_neumann`."""
    phi = exprparse.as_field(phi, "phi")
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    sq, ct = _polar_boundary_geometry(grid)
    ub = u[-1]
    ur = (3.0 * ub - 4.0 * u[-2] + u[-3]) / (2.0 * grid.dr)
    ut = (np.roll(ub, -1) - np.roll(ub, 1)) / (2.0 * grid.dtheta)
    out[-1] = sq * ur + ct * ut - phi(grid.x[-1], grid.y[-1], ub)
    return out
