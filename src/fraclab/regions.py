"""Region descriptors: balls, axis-aligned boxes, and disjoint unions.

Regions are restricted to shapes with exact membership tests and exact
Euclidean boundary distance, so no mesh generation or distance marching
is ever needed.  Points are arrays of shape (npts, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NestingError


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self):
        return len(self.center)

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts - np.asarray(self.center), axis=1) < self.radius

    def boundary_distance(self, pts):
        """Distance to the boundary sphere; positive inside, 0 at/after it."""
        pts = np.atleast_2d(pts)
        return np.maximum(self.radius - np.linalg.norm(pts - np.asarray(self.center), axis=1), 0.0)

    def exterior_distance(self, pts):
        """Distance from outside points to the region (0 inside)."""
        pts = np.atleast_2d(pts)
        return np.maximum(np.linalg.norm(pts - np.asarray(self.center), axis=1) - self.radius, 0.0)

    def bounding_box(self):
        c, r = np.asarray(self.center), self.radius
        return tuple((ci - r, ci + r) for ci in c)

    def expand(self, margin):
        return Ball(self.center, self.radius + margin)

    def describe(self):
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in np.atleast_1d(self.lo)))
        object.__setattr__(self, "hi", tuple(float(v) for v in np.atleast_1d(self.hi)))
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo/hi dimension mismatch")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"box must have positive extent, got lo={self.lo} hi={self.hi}")

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=1)

    def boundary_distance(self, pts):
        pts = np.atleast_2d(pts)
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        inner = np.minimum(pts - lo, hi - pts).min(axis=1)
        return np.maximum(inner, 0.0)

    def exterior_distance(self, pts):
        pts = np.atleast_2d(pts)
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        return np.linalg.norm(gap, axis=1)

    def bounding_box(self):
        return tuple(zip(self.lo, self.hi))

    def expand(self, margin):
        return Box(tuple(v - margin for v in self.lo), tuple(v + margin for v in self.hi))

    def describe(self):
        return {"kind": "box", "lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class DisjointUnion:
    """Finite union of pairwise disjoint balls/boxes.

    Disjointness (positive pairwise gaps) is required so that the distance
    to the union boundary is the member-wise minimum, exactly.
    """

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 2:
            raise ValueError("union needs at least two members")
        object.__setattr__(self, "members", members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if separation(members[i], members[j]) <= 0:
                    raise ValueError("union members must be pairwise disjoint with a gap")

    @property
    def dim(self):
        return self.members[0].dim

    def contains(self, pts):
        out = self.members[0].contains(pts)
        for m in self.members[1:]:
            out = out | m.contains(pts)
        return out

    def boundary_distance(self, pts):
        inside = self.contains(pts)
        d = np.zeros(len(np.atleast_2d(pts)))
        stack = np.stack([m.boundary_distance(pts) for m in self.members])
        d[inside] = stack.max(axis=0)[inside]
        return d

    def exterior_distance(self, pts):
        return np.stack([m.exterior_distance(pts) for m in self.members]).min(axis=0)

    def bounding_box(self):
        boxes = [m.bounding_box() for m in self.members]
        return tuple(
            (min(b[a][0] for b in boxes), max(b[a][1] for b in boxes))
            for a in range(self.dim)
        )

    def expand(self, margin):
        return DisjointUnion(tuple(m.expand(margin) for m in self.members))

    def describe(self):
        return {"kind": "union", "members": [m.describe() for m in self.members]}


def separation(a, b):
    """Minimal Euclidean gap between two ball/box regions (negative if they meet).

    Exact for ball/ball, box/box, and ball/box pairs.
    """
    if isinstance(a, DisjointUnion) or isinstance(b, DisjointUnion):
        mem_a = a.members if isinstance(a, DisjointUnion) else (a,)
        mem_b = b.members if isinstance(b, DisjointUnion) else (b,)
        return min(separation(x, y) for x in mem_a for y in mem_b)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return float(np.linalg.norm(np.asarray(a.center) - np.asarray(b.center)) - a.radius - b.radius)
    if isinstance(a, Box) and isinstance(b, Box):
        gaps = np.maximum(np.asarray(a.lo) - np.asarray(b.hi), np.asarray(b.lo) - np.asarray(a.hi))
        if np.all(gaps <= 0):
            return float(gaps.max())
        return float(np.linalg.norm(np.maximum(gaps, 0.0)))
    if isinstance(b, Ball):
        a, b = b, a
    # ball a vs box b
    c = np.asarray(a.center)
    gap = np.maximum(np.maximum(np.asarray(b.lo) - c, c - np.asarray(b.hi)), 0.0)
    dist_center = float(np.linalg.norm(gap))
    if dist_center > 0:
        return dist_center - a.radius
    inner = float(np.minimum(c - np.asarray(b.lo), np.asarray(b.hi) - c).min())
    return -(inner + a.radius)


def nesting_margin(inner, outer):
    """How deeply inner sits inside outer (minimal boundary-to-boundary gap).

    Positive means inner is compactly contained in outer.  Exact for the
    supported shape pairs; a union as outer requires each inner piece to
    nest in a single member.
    """
    if isinstance(inner, DisjointUnion):
        return min(nesting_margin(m, outer) for m in inner.members)
    if isinstance(outer, DisjointUnion):
        return max(nesting_margin(inner, m) for m in outer.members)
    if isinstance(outer, Ball):
        c = np.asarray(outer.center)
        if isinstance(inner, Ball):
            return float(outer.radius - (np.linalg.norm(np.asarray(inner.center) - c) + inner.radius))
        far = np.maximum(np.abs(np.asarray(inner.lo) - c), np.abs(np.asarray(inner.hi) - c))
        return float(outer.radius - np.linalg.norm(far))  # the farthest corner
    # outer is a box: containment is separable per axis
    bb = inner.bounding_box()
    m = math.inf
    for ax in range(outer.dim):
        m = min(m, bb[ax][0] - outer.lo[ax], outer.hi[ax] - bb[ax][1])
    return float(m)


def require_nested(inner, outer, what="regions"):
    m = nesting_margin(inner, outer)
    if m <= 0:
        raise NestingError(f"{what}: inner region must sit strictly inside outer (margin {m:.3g})")
    return m

