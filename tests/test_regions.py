import itertools

import numpy as np
import pytest

from fraclab.errors import NestingError
from fraclab.regions import (
    Ball,
    Box,
    DisjointUnion,
    nesting_margin,
    require_nested,
    separation,
)


def test_ball_membership_and_distance():
    b = Ball((0.0,), 1.0)
    pts = np.array([[0.0], [0.5], [0.999], [1.0], [1.5]])
    assert list(b.contains(pts)) == [True, True, True, False, False]
    d = b.boundary_distance(pts)
    assert d[1] == pytest.approx(0.5)
    assert d[3] == 0.0
    assert b.exterior_distance(pts)[4] == pytest.approx(0.5)


def test_box_membership_and_distance_2d():
    bx = Box((0.0, 0.0), (2.0, 1.0))
    pts = np.array([[1.0, 0.5], [0.25, 0.5], [3.0, 2.0]])
    assert list(bx.contains(pts)) == [True, True, False]
    assert bx.boundary_distance(pts)[0] == pytest.approx(0.5)
    assert bx.boundary_distance(pts)[1] == pytest.approx(0.25)
    assert bx.exterior_distance(pts)[2] == pytest.approx(np.hypot(1.0, 1.0))


def test_degenerate_regions_rejected():
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0)
    with pytest.raises(ValueError):
        Box((1.0,), (1.0,))


def test_separation_ball_ball():
    assert separation(Ball((0.0,), 1.0), Ball((3.0,), 1.0)) == pytest.approx(1.0)
    assert separation(Ball((0.0,), 1.0), Ball((1.0,), 1.0)) < 0


def test_separation_ball_box():
    assert separation(Ball((0.0, 0.0), 1.0), Box((2.0, -1.0), (3.0, 1.0))) == pytest.approx(1.0)


def test_nesting_margin_cases():
    assert nesting_margin(Ball((0.0,), 0.5), Ball((0.0,), 1.0)) == pytest.approx(0.5)
    assert nesting_margin(Ball((0.2,), 0.5), Box((-1.0,), (1.0,))) == pytest.approx(0.3)
    assert nesting_margin(Box((-0.5, -0.5), (0.5, 0.5)), Ball((0.0, 0.0), 1.0)) == pytest.approx(
        1.0 - np.sqrt(0.5))
    with pytest.raises(NestingError):
        require_nested(Ball((0.0,), 1.0), Ball((0.0,), 1.0))


@pytest.mark.parametrize("lo, hi, center", [
    ((-0.5,), (0.25,), (0.1,)),
    ((-0.5, 0.1), (0.25, 0.3), (0.0, 0.2)),
    ((-0.3, -0.2), (0.4, 0.1), (0.05, -0.05)),
    ((-0.1, -0.2, 0.0), (0.3, 0.1, 0.2), (0.1, -0.1, 0.3)),
], ids=["1d", "2d-center-inside", "2d-offset", "3d"])
def test_nesting_margin_box_in_ball_is_the_farthest_of_its_corners(lo, hi, center):
    ball = Ball(center, 1.0)
    corners = [np.array(corner) for corner in itertools.product(*zip(lo, hi))]
    assert len(corners) == 2 ** len(lo)
    farthest = max(np.linalg.norm(corner - np.array(center)) for corner in corners)
    assert nesting_margin(Box(lo, hi), ball) == 1.0 - farthest


def test_union_requires_disjoint_members():
    with pytest.raises(ValueError):
        DisjointUnion((Ball((0.0,), 1.0), Ball((1.5,), 1.0)))
    u = DisjointUnion((Ball((-2.0,), 0.5), Ball((2.0,), 0.5)))
    pts = np.array([[-2.0], [0.0], [2.2]])
    assert list(u.contains(pts)) == [True, False, True]
    assert u.boundary_distance(pts)[0] == pytest.approx(0.5)
    assert u.exterior_distance(pts)[1] == pytest.approx(1.5)
    assert u.bounding_box()[0] == (-2.5, 2.5)

