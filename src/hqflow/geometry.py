"""Convex planar domains (disk, ellipse, square), their distance functions,
outward normals, boundary quadrature, and structured grids.

Two grid backends: a polar map for disk and ellipse (boundary-conforming,
so the Neumann condition sits exactly on the outermost ring) and a uniform
Cartesian lattice for the square.  The square has corners, which the
smooth strict-convexity theory does not cover; it is provided for
manufactured-solution order studies only and carries nonsmooth=True so
run metadata can flag it.

Polar grids place radial nodes at r_j = (j + 1/2) dr with no node at the
pole; values across the pole follow the phantom rule
u(-r, theta) = u(r, theta + pi), which needs an even angular count.

Domains and grids are immutable after construction.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Disk", "Ellipse", "Square", "Grid", "ArgumentError",
    "distance", "normal", "boundary_integral", "build_grid", "export_csv",
    "area_weights", "mesh_size",
]

_BOUNDARY_TOL = 1e-10


class ArgumentError(ValueError):
    """An argument a function cannot use: `field` names the argument and
    `reason` says what is wrong with it without naming it."""

    def __init__(self, field, reason):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


def _check_sizes(dom, *fields):
    # the polar metric divides by the squared semi-axes, so a square
    # that underflows to 0 or overflows, or whose inverse overflows, is
    # as bad as a size <= 0
    for field in fields:
        value = getattr(dom, field)
        if not (value > 0.0 and 0.0 < value * value < math.inf
                and 1.0 / (value * value) < math.inf):
            raise ArgumentError(field, f"must be positive with a square and "
                                f"an inverse square that are finite and "
                                f"positive, got {value!r}")


@dataclass(frozen=True)
class Disk:
    radius: float
    nonsmooth = False

    def __post_init__(self):
        _check_sizes(self, "radius")

    @property
    def a(self):
        """Semi-axis along x1, as on an ellipse: the radius."""
        return self.radius

    @property
    def b(self):
        """Semi-axis along x2, as on an ellipse: the radius."""
        return self.radius


@dataclass(frozen=True)
class Ellipse:
    a: float
    b: float
    nonsmooth = False

    def __post_init__(self):
        _check_sizes(self, "a", "b")


@dataclass(frozen=True)
class Square:
    half_width: float
    nonsmooth = True

    def __post_init__(self):
        _check_sizes(self, "half_width")


def _ellipse_nearest(a, b, p, q):
    """Nearest point of the ellipse boundary to (p, q).

    Newton iteration on the parameter angle, polished from the best
    candidates of a coarse scan; the scan keeps the iteration off wrong
    stationary points (e.g. the far vertex when projecting the center).
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, 65)[:-1]
    d2 = (a * np.cos(thetas) - p) ** 2 + (b * np.sin(thetas) - q) ** 2
    best = None
    for idx in np.argsort(d2)[:3]:
        th = float(thetas[idx])
        for _ in range(40):
            ct, st = math.cos(th), math.sin(th)
            # g = d(d^2/2)/dtheta, zero at the foot of the perpendicular
            g = (a * ct - p) * (-a * st) + (b * st - q) * (b * ct)
            gp = (a * st) ** 2 - (a * ct - p) * a * ct \
                + (b * ct) ** 2 + (b * st - q) * (-b * st)
            if gp <= 0.0:
                break
            step = g / gp
            th -= step
            if abs(step) < 1e-15:
                break
        ct, st = math.cos(th), math.sin(th)
        cand = (a * ct, b * st)
        dist2 = (cand[0] - p) ** 2 + (cand[1] - q) ** 2
        if best is None or dist2 < best[0]:
            best = (dist2, cand)
    return best[1]


def distance(dom, x):
    """Signed distance to the boundary: positive inside, zero on it."""
    p, q = float(x[0]), float(x[1])
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError("point has non-finite coordinates")
    if isinstance(dom, Disk):
        return dom.radius - math.hypot(p, q)
    if isinstance(dom, Square):
        return dom.half_width - max(abs(p), abs(q))
    nx, ny = _ellipse_nearest(dom.a, dom.b, p, q)
    d = math.hypot(nx - p, ny - q)
    inside = (p / dom.a) ** 2 + (q / dom.b) ** 2 <= 1.0
    return d if inside else -d


def normal(dom, x):
    """Outward unit normal at a boundary point (within 1e-10 of it)."""
    p, q = float(x[0]), float(x[1])
    scale = 1.0 + max(abs(p), abs(q))
    if abs(distance(dom, x)) > _BOUNDARY_TOL * scale:
        raise ValueError(f"point {(p, q)} is not on the boundary")
    if isinstance(dom, Disk):
        r = math.hypot(p, q)
        return np.array([p / r, q / r])
    if isinstance(dom, Square):
        L = dom.half_width
        on_x = abs(abs(p) - L) <= _BOUNDARY_TOL * scale
        on_y = abs(abs(q) - L) <= _BOUNDARY_TOL * scale
        if on_x and on_y:
            s = math.sqrt(0.5)
            return np.array([math.copysign(s, p), math.copysign(s, q)])
        if on_x:
            return np.array([math.copysign(1.0, p), 0.0])
        return np.array([0.0, math.copysign(1.0, q)])
    g = np.array([p / dom.a ** 2, q / dom.b ** 2])
    return g / math.hypot(*g)


def boundary_integral(dom, g, panels=4096):
    """Arc-length quadrature of g over the boundary.

    `g` is called with coordinate arrays (x, y).  Periodic trapezoid
    rule on disk and ellipse, per-face trapezoid on the square; order
    is >= 2 in the panel count either way.
    """
    if isinstance(dom, Square):
        L = dom.half_width
        m = max(1, panels // 4)
        s = np.linspace(-L, L, m + 1)
        w = np.full(m + 1, 2.0 * L / m)
        w[0] *= 0.5
        w[-1] *= 0.5
        ones = np.full(m + 1, L)
        total = 0.0
        for xs, ys in (((s, -ones)), ((ones, s)), ((s[::-1], ones)),
                       ((-ones, s[::-1]))):
            total += float(np.sum(np.asarray(g(xs, ys), dtype=float) * w))
        return total
    a, b = dom.a, dom.b
    th = np.arange(panels) * (2.0 * math.pi / panels)
    xs, ys = a * np.cos(th), b * np.sin(th)
    speed = np.sqrt((a * np.sin(th)) ** 2 + (b * np.cos(th)) ** 2)
    vals = np.asarray(g(xs, ys), dtype=float)
    return float(np.sum(vals * speed) * (2.0 * math.pi / panels))


@dataclass(frozen=True, eq=False)
class Grid:
    """Structured grid over a domain; arrays are indexed [row, col].

    Polar backend: rows are rings (radial index), columns are angles;
    map (r, theta) -> (a r cos theta, b r sin theta) with unit r on the
    outermost ring.  Cartesian backend: rows are y, columns are x.
    Boundary nodes carry outward unit normals and arc-length weights
    (zero elsewhere).
    """
    domain: object
    backend: str
    shape: tuple
    x: np.ndarray
    y: np.ndarray
    boundary_mask: np.ndarray
    normal_x: np.ndarray
    normal_y: np.ndarray
    bweight: np.ndarray
    r: np.ndarray = None
    theta: np.ndarray = None
    dr: float = None
    dtheta: float = None
    h: float = None

    @property
    def interior_mask(self):
        return ~self.boundary_mask

    @property
    def n_nodes(self):
        return self.x.size


def _build_polar(dom, n_r, n_theta):
    if n_r < 4:
        raise ArgumentError("n_r", f"must satisfy n_r >= 4, got {n_r}")
    if n_theta < 8 or n_theta % 2:
        raise ArgumentError("n_theta", f"must be an even n_theta >= 8, "
                            f"got {n_theta}")
    a, b = dom.a, dom.b
    dr = 1.0 / (n_r - 0.5)
    r = (np.arange(n_r) + 0.5) * dr
    dtheta = 2.0 * math.pi / n_theta
    theta = np.arange(n_theta) * dtheta
    R, T = np.meshgrid(r, theta, indexing="ij")
    x = a * R * np.cos(T)
    y = b * R * np.sin(T)
    boundary = np.zeros((n_r, n_theta), dtype=bool)
    boundary[-1, :] = True
    nx = np.zeros_like(x)
    ny = np.zeros_like(x)
    gx = np.cos(theta) / a
    gy = np.sin(theta) / b
    norm = np.hypot(gx, gy)
    nx[-1, :] = gx / norm
    ny[-1, :] = gy / norm
    w = np.zeros_like(x)
    w[-1, :] = np.sqrt((a * np.sin(theta)) ** 2
                       + (b * np.cos(theta)) ** 2) * dtheta
    return Grid(domain=dom, backend="polar", shape=(n_r, n_theta),
                x=x, y=y, boundary_mask=boundary, normal_x=nx, normal_y=ny,
                bweight=w, r=r, theta=theta, dr=dr, dtheta=dtheta)


def _build_cartesian(dom, n):
    if n < 8:
        raise ArgumentError("n", f"must satisfy n >= 8, got {n}")
    L = dom.half_width
    h = 2.0 * L / (n - 1)
    s = -L + h * np.arange(n)
    Y, X = np.meshgrid(s, s, indexing="ij")
    boundary = np.zeros((n, n), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    nx = np.zeros_like(X)
    ny = np.zeros_like(X)
    nx[:, 0] = -1.0
    nx[:, -1] = 1.0
    ny[0, :] += -1.0
    ny[-1, :] += 1.0
    # corners get the diagonal direction, normalized
    nrm = np.hypot(nx, ny)
    np.divide(nx, nrm, out=nx, where=nrm > 0)
    np.divide(ny, nrm, out=ny, where=nrm > 0)
    w = np.zeros_like(X)
    w[boundary] = h
    return Grid(domain=dom, backend="cartesian", shape=(n, n),
                x=X, y=Y, boundary_mask=boundary, normal_x=nx, normal_y=ny,
                bweight=w, h=h)


def build_grid(dom, n_r=None, n_theta=None, n=None):
    """Grid over `dom`: polar needs n_r and n_theta, cartesian needs n."""
    if isinstance(dom, (Disk, Ellipse)):
        if n_r is None or n_theta is None:
            raise ArgumentError("n_r" if n_r is None else "n_theta",
                                "is required on a disk or an ellipse")
        return _build_polar(dom, int(n_r), int(n_theta))
    if isinstance(dom, Square):
        if n is None:
            raise ArgumentError("n", "is required on a square")
        return _build_cartesian(dom, int(n))
    raise ValueError(f"unknown domain {dom!r}")


def area_weights(grid):
    """Per-node quadrature weights with sum(area_weights) = |domain|.

    Polar grids use the exact cell integrals of the radial measure
    a*b*r dr dtheta (the outermost cell is truncated at the boundary),
    so constants integrate exactly and smooth integrands at second
    order.  Cartesian grids use the 2-D trapezoid weights.
    """
    if grid.backend == "polar":
        ab = grid.domain.a * grid.domain.b
        dr, dt = grid.dr, grid.dtheta
        n_r = grid.shape[0]
        cell = grid.r * dr
        cell[-1] = 0.5 * (1.0 - (1.0 - 0.5 * dr) ** 2)
        return np.broadcast_to((ab * dt * cell)[:, None], grid.shape).copy()
    h = grid.h
    w = np.full(grid.shape, h * h)
    w[0, :] *= 0.5
    w[-1, :] *= 0.5
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    return w


def mesh_size(grid):
    """Coarsest physical node spacing, the `h` of O(h^2) error bounds."""
    if grid.backend == "polar":
        return max(grid.domain.a, grid.domain.b) * max(grid.dr, grid.dtheta)
    return grid.h


def export_csv(grid, u, path, metadata=()):
    """Write a grid snapshot as CSV: header `x,y,u`, row-major node
    order, 17-significant-digit floats.  `metadata` lines (already
    formatted as key=value strings) go first as '#' comments."""
    u = np.asarray(u)
    if u.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    lines = [f"# {m}" for m in metadata]
    lines.append("x,y,u")
    for xv, yv, uv in zip(grid.x.ravel(), grid.y.ravel(), u.ravel()):
        lines.append(f"{xv:.17g},{yv:.17g},{uv:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
