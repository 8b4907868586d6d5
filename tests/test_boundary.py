"""Boundary sets: angle primitives, neighborhoods and circular arc merging.

Arc merging is checked against a grid-free membership test on the raw
input arcs, including unions that reach across the seam at angle 0.
"""

import math

import numpy as np
import pytest

from opalab import BoundarySet, InvalidInputError, InvalidParameterError, neighborhood
from opalab.boundary import circle_gap, normalize_angle

TWO_PI = 2.0 * math.pi


def contains_angle(S, theta):
    """Grid-free membership test for a point/arc boundary set."""
    for p in S.points:
        if circle_gap(p, theta) < 1e-12:
            return True
    for c, hw in S.arcs:
        if circle_gap(c, theta) <= hw + 1e-12:
            return True
    return False


# ------------------------------------------------------------- primitives

def test_normalize_angle_wraps_into_period():
    assert normalize_angle(-0.25) == pytest.approx(TWO_PI - 0.25)
    assert normalize_angle(TWO_PI + 1.0) == pytest.approx(1.0)
    assert normalize_angle(0.0) == 0.0


def test_circle_gap_is_symmetric_and_bounded():
    assert circle_gap(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert circle_gap(0.0, math.pi) == pytest.approx(math.pi)
    rng = np.random.default_rng(30)
    for _ in range(50):
        a, b = rng.uniform(0, TWO_PI, 2)
        assert circle_gap(a, b) == pytest.approx(circle_gap(b, a))
        assert 0.0 <= circle_gap(a, b) <= math.pi + 1e-15


# ----------------------------------------------------------- neighborhood

def test_neighborhood_single_point_becomes_arc():
    U = neighborhood(BoundarySet.from_points([0.0]), 0.1)
    assert len(U.arcs) == 1
    c, hw = U.arcs[0]
    assert c == pytest.approx(0.0)
    assert hw == pytest.approx(0.1)


def test_neighborhood_merges_overlapping_arcs():
    U = neighborhood(BoundarySet.from_points([0.0, 0.05]), 0.1)
    assert len(U.arcs) == 1


def test_neighborhood_keeps_far_points_separate():
    U = neighborhood(BoundarySet.from_points([0.0, math.pi]), 0.1)
    assert len(U.arcs) == 2


def test_neighborhood_monotone_in_width():
    rng = np.random.default_rng(31)
    thetas = np.linspace(0, TWO_PI, 400, endpoint=False)
    for _ in range(10):
        E = BoundarySet.from_points(rng.uniform(0, TWO_PI, 4))
        w1, w2 = sorted(rng.uniform(0.02, 0.8, 2))
        U1, U2 = neighborhood(E, w1), neighborhood(E, w2)
        for t in thetas:
            if contains_angle(U1, t):
                assert contains_angle(U2, t)


def test_neighborhood_rejects_nonpositive_width():
    E = BoundarySet.from_points([0.0])
    for w in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidParameterError):
            neighborhood(E, w)


# --------------------------------------------------------- BoundarySet type

def test_positive_measure_flag_and_full_circle():
    assert not BoundarySet.from_points([0.0]).positive_measure
    assert BoundarySet(arcs=((0.0, 0.2),)).positive_measure
    full = BoundarySet.full_circle()
    assert full.positive_measure
    assert full.is_full_circle


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_rejected(bad):
    with pytest.raises(InvalidInputError):
        BoundarySet(points=(0.0, bad))
    with pytest.raises(InvalidInputError):
        BoundarySet(arcs=((bad, 0.2),))
    # a full-circle arc does not hide a bad centre after it
    with pytest.raises(InvalidInputError):
        BoundarySet(arcs=((0.0, 4.0), (bad, 0.2)))


def test_arcs_merge_on_construction():
    S = BoundarySet(arcs=((0.0, 0.3), (0.25, 0.3)))
    assert len(S.arcs) == 1


def test_arc_reaching_across_the_seam_absorbs_the_first_arc():
    # (6.25, 0.25) covers (0.1, 0.2) = the arc (0.15, 0.05) past 2*pi
    S = BoundarySet(arcs=((0.15, 0.05), (6.25, 0.25)))
    assert len(S.arcs) == 1
    assert S.arcs[0] == pytest.approx((6.25, 0.25), abs=1e-12)


def test_arc_across_the_seam_absorbs_every_arc_it_reaches():
    S = BoundarySet(arcs=((0.15, 0.05), (0.275, 0.025), (6.2, 0.4)))
    assert len(S.arcs) == 1
    assert S.arcs[0] == pytest.approx((6.2, 0.4), abs=1e-12)


def test_arc_centred_on_the_seam_passes_through_unchanged():
    assert BoundarySet(arcs=((0.0, 0.3),)).arcs == ((0.0, 0.3),)


def test_merged_arcs_cover_exactly_the_union_of_the_input():
    rng = np.random.default_rng(35)
    thetas = np.linspace(0, TWO_PI, 2000, endpoint=False)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        arcs = tuple(zip(rng.uniform(0, TWO_PI, n), rng.uniform(0.01, 1.5, n)))
        S = BoundarySet(arcs=arcs)
        for t in thetas:
            gaps = [circle_gap(c, t) - hw for c, hw in arcs]
            if min(abs(d) for d in gaps) < 1e-9:
                continue              # too close to an input endpoint to call
            assert contains_angle(S, t) == (min(gaps) <= 0.0)
