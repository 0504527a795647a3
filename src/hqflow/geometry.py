"""Smooth, strictly convex planar domains (disk and ellipse), boundary
quadrature, and grids.

Every grid is the polar map (r, theta) -> (a r cos theta, b r sin theta),
boundary-conforming, so the Neumann condition sits exactly on the
outermost ring.  Radial nodes sit at r_j = (j + 1/2) dr with no node at
the pole; values across the pole follow the phantom rule
u(-r, theta) = u(r, theta + pi), which needs an even angular count.

Domains and grids are immutable after construction.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Disk", "Ellipse", "Grid", "ArgumentError",
    "boundary_integral", "build_grid", "export_csv",
    "area_weights", "mesh_size",
]


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

    def __post_init__(self):
        _check_sizes(self, "a", "b")


def boundary_integral(dom, g, panels=4096):
    """Arc-length quadrature of g over the boundary.

    `g` is called with coordinate arrays (x, y).  Periodic trapezoid
    rule in the parameter angle, of order >= 2 in the panel count.
    """
    a, b = dom.a, dom.b
    th = np.arange(panels) * (2.0 * math.pi / panels)
    xs, ys = a * np.cos(th), b * np.sin(th)
    speed = np.sqrt((a * np.sin(th)) ** 2 + (b * np.cos(th)) ** 2)
    vals = np.asarray(g(xs, ys), dtype=float)
    return float(np.sum(vals * speed) * (2.0 * math.pi / panels))


@dataclass(frozen=True, eq=False)
class Grid:
    """Polar grid over a domain; arrays are indexed [ring, angle].

    The map (r, theta) -> (a r cos theta, b r sin theta) has unit r on
    the outermost ring, which holds the boundary nodes.
    """
    domain: object
    shape: tuple
    x: np.ndarray
    y: np.ndarray
    boundary_mask: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    dr: float
    dtheta: float

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
    return Grid(domain=dom, shape=(n_r, n_theta), x=x, y=y,
                boundary_mask=boundary, r=r, theta=theta, dr=dr,
                dtheta=dtheta)


def build_grid(dom, n_r=None, n_theta=None):
    """Polar grid over `dom` with n_r rings of n_theta nodes."""
    if not isinstance(dom, (Disk, Ellipse)):
        raise ValueError(f"unknown domain {dom!r}")
    if n_r is None or n_theta is None:
        raise ArgumentError("n_r" if n_r is None else "n_theta",
                            "is required on a disk or an ellipse")
    return _build_polar(dom, int(n_r), int(n_theta))


def area_weights(grid):
    """Per-node quadrature weights with sum(area_weights) = |domain|.

    Polar grids use the exact cell integrals of the radial measure
    a*b*r dr dtheta (the outermost cell is truncated at the boundary),
    so constants integrate exactly and smooth integrands at second
    order.
    """
    ab = grid.domain.a * grid.domain.b
    dr, dt = grid.dr, grid.dtheta
    cell = grid.r * dr
    cell[-1] = 0.5 * (1.0 - (1.0 - 0.5 * dr) ** 2)
    return np.broadcast_to((ab * dt * cell)[:, None], grid.shape).copy()


def mesh_size(grid):
    """Coarsest physical node spacing, the `h` of O(h^2) error bounds."""
    return max(grid.domain.a, grid.domain.b) * max(grid.dr, grid.dtheta)


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
