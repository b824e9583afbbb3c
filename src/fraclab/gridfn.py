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
# The most box nodes the finest grid of a refinement ladder (the probe's)
# may have: 2049^2, the largest 2D grid measured.  Every level's grid
# holds its mask and distance arrays, so an unbounded ladder exhausts memory.
_MAX_LADDER_NODES = 2049 ** 2
# Omega nodes must keep this many cells to the box edge so every quadrature
# stencil around an Omega node stays inside the box.
MIN_COLLAR_CELLS = 2
# The highest order at which smoothstep's alternating sum stays within 1e-12
# of [0, 1] (3.2e-13 off on 10001 points of [0, 1]; 4.4e-12 at order 6).
MAX_RAMP_ORDER = 5


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
        object.__setattr__(self, "axes", tuple(np.linspace(self.box_lo[a], self.box_hi[a], self.n)
                                               for a in range(self.ndim)))
        object.__setattr__(self, "h", (self.box_hi[0] - self.box_lo[0]) / (self.n - 1))
        pts = self.nodes()
        mask = self.omega.contains(pts).reshape(self.shape)
        rho = np.where(mask, self.omega.boundary_distance(pts).reshape(self.shape), 0.0)
        for arr in (mask, rho):
            arr.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "rho", rho)

    @property
    def shape(self):
        return (self.n,) * self.ndim

    @property
    def n_omega(self):
        return int(self.mask.sum())

    def nodes(self):
        """All node coordinates, shape (n^ndim, ndim), the last axis varying fastest."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1).reshape(-1, self.ndim)

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
    is the smoothness of the polynomial ramp (C^order), from 2 to
    MAX_RAMP_ORDER: beyond it the ramp leaves [0, 1].
    """

    inner: object
    outer: object
    omega2: object = None
    order: int = 3

    def __post_init__(self):
        if not 2 <= self.order <= MAX_RAMP_ORDER:
            raise ValueError(f"cut-off smoothness order must lie in [2, {MAX_RAMP_ORDER}], "
                             f"got {self.order}")
        require_nested(self.inner, self.outer, "cut-off inner/outer")
        if self.omega2 is not None:
            require_nested(self.outer, self.omega2, "cut-off outer/omega2")


def smoothstep(t, order):
    """Polynomial ramp of smoothness C^order: 0 at t<=0, 1 at t>=1.

    Exact to 1e-12 up to MAX_RAMP_ORDER; beyond it the alternating sum
    cancels badly (3.8e-4 off at order 15, 0.21 at order 18).
    """
    t = np.clip(np.asarray(t, float), 0.0, 1.0)
    acc = 0.0
    for k in range(order + 1):
        acc += math.comb(order + k, k) * math.comb(2 * order + 1, order - k) * (-t) ** k
    return t ** (order + 1) * acc


def ramp(a, b, order):
    """C^order cut-off ramp smoothstep(b / (a + b)) of arrays: a the distance to the region
    where it is 1, b the depth inside the one outside which it is 0 (it is 0 where b = 0)."""
    denom = a + b
    return smoothstep(np.where(denom > 0, b / np.where(denom > 0, denom, 1.0), 0.0), order)


def check_collar(box, omega):
    """Raise CollarError unless the box leaves omega a collar of 25% of its diameter per side.

    box: ((lo, hi), ...) per axis of omega.
    """
    bb = omega.bounding_box()
    diam = max(hi - lo for lo, hi in bb)
    for a, ((lo, hi), (box_lo, box_hi)) in enumerate(zip(bb, box)):
        gap = min(lo - box_lo, box_hi - hi)
        if gap < 0.25 * diam:
            raise CollarError(
                f"axis {a}: collar {gap:.4g} is below 25% of omega's "
                f"diameter {diam:.4g}; enlarge the box or shrink omega")


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

    check_collar(box, omega)

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
    """Smooth bump: 1 on spec.inner, 0 outside spec.outer, the C^order `ramp` between.

    The ramp reads the distance to the inner region and the depth inside
    the outer one, evaluated exactly from the region descriptors.  The
    widest region of the spec, which CutoffSpec has nested, must nest in Omega.
    """
    require_nested(spec.outer if spec.omega2 is None else spec.omega2, grid.omega, "cut-off/Omega")
    pts = grid.nodes()
    eta = ramp(spec.inner.exterior_distance(pts), spec.outer.boundary_distance(pts), spec.order)
    return GridFunction(grid, eta.reshape(grid.shape), dirichlet=True)
