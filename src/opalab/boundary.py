"""Closed subsets of the unit circle built from points and arcs.

Angles are radians, normalized to [0, 2*pi).  Arcs are (center, half_width)
pairs and get merged circularly on construction, across the seam at angle 0
too.  Finite point sets are the peak sets E and the target sets of the
zero-free and steering pipelines; arcs are the neighborhoods U of E and
the arc sets whose equilibrium measures rudin computes.  A non-finite
angle is an input error, not a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

TWO_PI = 2.0 * np.pi


def normalize_angle(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta):
        raise InvalidInputError("angles must be finite")
    t = theta % TWO_PI
    if t < 0.0:
        t += TWO_PI
    return 0.0 if t >= TWO_PI else t


def circle_gap(a: float, b: float) -> float:
    """Absolute angular distance between two angles, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _merge_arcs(arcs) -> tuple:
    """Normalize and circularly merge overlapping arcs."""
    iv = []
    full = False
    for center, hw in arcs:
        c, hw = normalize_angle(center), float(hw)
        if not np.isfinite(hw) or hw <= 0.0:
            raise InvalidParameterError("arc half-widths must be positive")
        full = full or hw >= np.pi
        iv.append((c - hw, c + hw))
    if full:
        return ((0.0, np.pi),)
    if not iv:
        return ()
    iv.sort()
    merged = [list(iv[0])]
    for lo, hi in iv[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # wraparound: trailing intervals may reach past 2*pi into the first, and
    # the first, so widened, into the intervals after it
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + TWO_PI:
        lo, hi = merged.pop()
        merged[0] = [min(merged[0][0], lo - TWO_PI), max(merged[0][1], hi - TWO_PI)]
        while len(merged) > 1 and merged[1][0] <= merged[0][1]:
            merged[0][1] = max(merged[0][1], merged.pop(1)[1])
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= TWO_PI:
        return ((0.0, np.pi),)
    out = []
    for lo, hi in merged:
        c = normalize_angle(0.5 * (lo + hi))
        out.append((c, 0.5 * (hi - lo)))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class BoundarySet:
    """Finite union of points and open arcs on the unit circle."""

    points: tuple = ()
    arcs: tuple = ()

    def __post_init__(self):
        pts = tuple(sorted({normalize_angle(p) for p in self.points}))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "arcs", _merge_arcs(self.arcs))

    @classmethod
    def from_points(cls, angles) -> "BoundarySet":
        return cls(points=tuple(angles))

    @classmethod
    def full_circle(cls) -> "BoundarySet":
        return cls(arcs=((0.0, np.pi),))

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.arcs

    @property
    def positive_measure(self) -> bool:
        """True when the set contains arcs of positive total length."""
        return bool(self.arcs)

    @property
    def is_full_circle(self) -> bool:
        return len(self.arcs) == 1 and self.arcs[0][1] >= np.pi - 1e-12


def neighborhood(E: BoundarySet, width: float) -> BoundarySet:
    """Open arc neighborhood of ``E`` of the given angular half-width."""
    width = float(width)
    if not np.isfinite(width) or width <= 0.0:
        raise InvalidParameterError("neighborhood width must be positive")
    arcs = [(p, width) for p in E.points]
    arcs += [(c, hw + width) for c, hw in E.arcs]
    return BoundarySet(arcs=tuple(arcs))

