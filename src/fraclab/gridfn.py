"""Uniform tensor grids, node functions with exterior-zero extension, cut-offs.

The grid covers a box that strictly contains the active region Omega; all
singular integrals see the exact zero extension outside Omega, so there is
no domain-truncation error for exterior-zero functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollarError, GridSizeError, LengthMismatchError
from .regions import require_nested

MIN_NODES = 8
# Omega nodes must keep this many cells to the box edge so every quadrature
# stencil around an Omega node stays inside the box.
MIN_COLLAR_CELLS = 2


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid on a box with an Omega membership mask.

    ndim is 1 or 2; the box has equal width and spacing per axis.  `mask`
    flags nodes inside the open region Omega; `rho` holds the distance to
    the Omega boundary (zero outside Omega).
    """

    ndim: int
    box_lo: tuple
    box_hi: tuple
    n: int
    omega: object
    h: float = field(init=False)
    axes: tuple = field(init=False)
    mask: np.ndarray = field(init=False)
    rho: np.ndarray = field(init=False)

    def __post_init__(self):
        axes = tuple(np.linspace(self.box_lo[a], self.box_hi[a], self.n) for a in range(self.ndim))
        h = (self.box_hi[0] - self.box_lo[0]) / (self.n - 1)
        pts = self.nodes_from_axes(axes)
        mask = self.omega.contains(pts).reshape(self.shape_from(self.n, self.ndim))
        rho = self.omega.boundary_distance(pts).reshape(mask.shape)
        rho = np.where(mask, rho, 0.0)
        for arr in (mask, rho):
            arr.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "rho", rho)

    @staticmethod
    def shape_from(n, ndim):
        return (n,) * ndim

    @staticmethod
    def nodes_from_axes(axes):
        if len(axes) == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    @property
    def shape(self):
        return self.shape_from(self.n, self.ndim)

    @property
    def n_omega(self):
        return int(self.mask.sum())

    def nodes(self):
        """All node coordinates, shape (n^ndim, ndim)."""
        return self.nodes_from_axes(self.axes)

    def omega_nodes(self):
        return self.nodes()[self.mask.ravel()]

    def refine(self):
        """Same box and Omega with the spacing halved: 2n-1 nodes per axis."""
        return Grid(self.ndim, self.box_lo, self.box_hi, 2 * self.n - 1, self.omega)

    def node_index(self, point):
        """Index of the grid node nearest to a point."""
        idx = tuple(int(round((point[a] - self.box_lo[a]) / self.h)) for a in range(self.ndim))
        for a, i in enumerate(idx):
            if not 0 <= i < self.n:
                raise ValueError(f"point {point} outside the box on axis {a}")
        return idx if self.ndim == 2 else idx[0]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on every grid node.

    dirichlet=True asserts the exterior-zero condition: values vanish on
    every node outside Omega.
    """

    grid: Grid
    values: np.ndarray
    dirichlet: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, float).reshape(self.grid.shape).copy()
        if self.dirichlet:
            outside = ~self.grid.mask
            bad = np.abs(vals[outside]).max(initial=0.0)
            if bad != 0.0:
                raise ValueError(f"exterior-zero function has nonzero exterior value {bad:g}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def on_omega(self):
        """Values restricted to Omega nodes (flat, mask order)."""
        return self.values[self.grid.mask].copy()

    def linf(self):
        return float(np.abs(self.values).max())

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values * other.values,
                                dirichlet=self.dirichlet or other.dirichlet)
        return GridFunction(self.grid, self.values * other, dirichlet=self.dirichlet)

    __rmul__ = __mul__

    def __add__(self, other):
        return GridFunction(self.grid, self.values + other.values,
                            dirichlet=self.dirichlet and other.dirichlet)

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - other.values,
                            dirichlet=self.dirichlet and other.dirichlet)


@dataclass(frozen=True)
class CutoffSpec:
    """Nested regions for a smooth bump: 1 on inner, 0 outside outer.

    The optional enlargement omega2 sits between outer and Omega.  order
    is the smoothness of the polynomial ramp (C^order).
    """

    inner: object
    outer: object
    omega2: object = None
    order: int = 3

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("cut-off smoothness order must be >= 2")
        require_nested(self.inner, self.outer, "cut-off inner/outer")
        if self.omega2 is not None:
            require_nested(self.outer, self.omega2, "cut-off outer/omega2")

    def validate_against(self, grid):
        require_nested(self.outer, grid.omega, "cut-off outer/Omega")
        if self.omega2 is not None:
            require_nested(self.omega2, grid.omega, "cut-off omega2/Omega")


def smoothstep(t, order):
    """Polynomial ramp of smoothness C^order: 0 at t<=0, 1 at t>=1."""
    t = np.clip(np.asarray(t, float), 0.0, 1.0)
    acc = np.zeros_like(t)
    for k in range(order + 1):
        acc += math.comb(order + k, k) * math.comb(2 * order + 1, order - k) * (-t) ** k
    return t ** (order + 1) * acc


def build_grid(ndim, box, n, omega):
    """Construct a grid whose box strictly contains omega with a collar.

    box: ((lo, hi),) in 1D or ((lo, hi), (lo, hi)) in 2D; axis widths must
    agree so the spacing is equal per axis.  The collar between omega and
    the box boundary must be at least 25% of omega's diameter per side and
    Omega nodes must stay MIN_COLLAR_CELLS cells away from the box edge.
    """
    if ndim not in (1, 2):
        raise ValueError("only 1D and 2D grids are supported")
    box = tuple((float(lo), float(hi)) for lo, hi in np.atleast_2d(box))
    if len(box) != ndim:
        raise ValueError(f"expected {ndim} box axes, got {len(box)}")
    n = int(n)
    if n < MIN_NODES:
        raise GridSizeError(f"n={n} is below the minimum of {MIN_NODES} nodes per axis")
    widths = [hi - lo for lo, hi in box]
    if any(w <= 0 for w in widths):
        raise ValueError("box must have positive extent")
    if ndim == 2 and abs(widths[0] - widths[1]) > 1e-12 * max(widths):
        raise ValueError("box must be square so the spacing is equal per axis")
    if getattr(omega, "dim", ndim) != ndim:
        raise ValueError("omega dimension does not match the grid")

    bb = omega.bounding_box()
    diam = max(hi - lo for lo, hi in bb)
    for a in range(ndim):
        lo_gap = bb[a][0] - box[a][0]
        hi_gap = box[a][1] - bb[a][1]
        if min(lo_gap, hi_gap) < 0.25 * diam:
            raise CollarError(
                f"axis {a}: collar {min(lo_gap, hi_gap):.4g} is below 25% of omega's "
                f"diameter {diam:.4g}; enlarge the box or shrink omega")

    grid = Grid(ndim, tuple(b[0] for b in box), tuple(b[1] for b in box), n, omega)
    if grid.n_omega == 0:
        raise CollarError("omega contains no grid nodes at this resolution")
    idx = np.argwhere(grid.mask)
    edge = min(idx.min(), (n - 1) - idx.max())
    if edge < MIN_COLLAR_CELLS:
        raise CollarError(
            f"Omega nodes come within {edge} cells of the box edge "
            f"(need >= {MIN_COLLAR_CELLS}); enlarge the box")
    return grid


def extend_by_zero(values_on_omega, grid):
    """Exterior-zero GridFunction from values listed on Omega nodes (mask order)."""
    vals = np.asarray(values_on_omega, float).ravel()
    if vals.size != grid.n_omega:
        raise LengthMismatchError(
            f"got {vals.size} values for {grid.n_omega} Omega nodes")
    full = np.zeros(grid.shape)
    full[grid.mask] = vals
    return GridFunction(grid, full, dirichlet=True)


def build_cutoff(grid, spec):
    """Smooth bump: 1 on spec.inner, 0 outside spec.outer, C^order ramp.

    The ramp argument is b/(a+b) where a is the distance to the inner
    region and b the depth inside the outer one, evaluated exactly from
    the region descriptors.
    """
    spec.validate_against(grid)
    pts = grid.nodes()
    a = spec.inner.exterior_distance(pts)
    b = spec.outer.boundary_distance(pts)
    denom = a + b
    t = np.where(denom > 0, b / np.where(denom > 0, denom, 1.0), 0.0)
    eta = smoothstep(t, spec.order)
    eta[spec.inner.contains(pts)] = 1.0
    eta[b == 0.0] = 0.0
    return GridFunction(grid, eta.reshape(grid.shape), dirichlet=True)
