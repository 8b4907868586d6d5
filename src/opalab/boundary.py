"""Closed subsets of the unit circle built from points and arcs.

Angles are radians, normalized to [0, 2*pi).  Arcs are (center, half_width)
pairs and get merged circularly on construction.  These sets stand in for
the peak sets, their open neighborhoods, and the sampling grids that the
rest of the library certifies suprema on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, ResolutionExceededError
from .series import CoeffSeries, evaluate

TWO_PI = 2.0 * np.pi

# 4096 samples on the full circle by default.
DEFAULT_SAMPLE_DENSITY = 4096.0 / TWO_PI

PARTITION_ARC_CAP = 4096


def normalize_angle(theta: float) -> float:
    t = float(theta) % TWO_PI
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
    total = 0.0
    for center, hw in arcs:
        hw = float(hw)
        if not np.isfinite(hw) or hw <= 0.0:
            raise InvalidParameterError("arc half-widths must be positive")
        if hw >= np.pi:
            return ((0.0, np.pi),)
        c = normalize_angle(center)
        iv.append((c - hw, c + hw))
        total += 2.0 * hw
    if not iv:
        return ()
    if total >= TWO_PI:
        return ((0.0, np.pi),)
    iv.sort()
    merged = [list(iv[0])]
    for lo, hi in iv[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # wraparound: the last interval may reach past 2*pi into the first
    if len(merged) > 1 and merged[-1][1] >= merged[0][0] + TWO_PI:
        merged[0][0] = merged[-1][0] - TWO_PI
        merged.pop()
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
    sample_density: float = DEFAULT_SAMPLE_DENSITY

    def __post_init__(self):
        pts = tuple(sorted({normalize_angle(p) for p in self.points}))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "arcs", _merge_arcs(self.arcs))
        dens = float(self.sample_density)
        if not np.isfinite(dens) or dens <= 0.0:
            raise InvalidParameterError("sample_density must be positive")
        object.__setattr__(self, "sample_density", dens)

    @classmethod
    def from_points(cls, angles, sample_density: float = DEFAULT_SAMPLE_DENSITY) -> "BoundarySet":
        return cls(points=tuple(angles), sample_density=sample_density)

    @classmethod
    def full_circle(cls, sample_density: float = DEFAULT_SAMPLE_DENSITY) -> "BoundarySet":
        return cls(arcs=((0.0, np.pi),), sample_density=sample_density)

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

    def arc_sample_spacing(self) -> float:
        """Largest spacing between adjacent samples inside any arc (0 if none)."""
        worst = 0.0
        for _, hw in self.arcs:
            if self.is_full_circle:
                G = max(4, int(round(TWO_PI * self.sample_density)))
                worst = max(worst, TWO_PI / G)
            else:
                length = 2.0 * hw
                n_s = max(2, int(np.ceil(length * self.sample_density)) + 1)
                worst = max(worst, length / (n_s - 1))
        return worst

    def samples(self) -> np.ndarray:
        """Sorted sample angles: the points plus density-driven arc grids."""
        chunks = [np.asarray(self.points, dtype=float)]
        if self.is_full_circle:
            G = max(4, int(round(TWO_PI * self.sample_density)))
            chunks.append(np.linspace(0.0, TWO_PI, G, endpoint=False))
        else:
            for c, hw in self.arcs:
                length = 2.0 * hw
                n_s = max(2, int(np.ceil(length * self.sample_density)) + 1)
                chunks.append((np.linspace(c - hw, c + hw, n_s)) % TWO_PI)
        allpts = np.concatenate(chunks) if chunks else np.empty(0)
        return np.unique(allpts)


@dataclass(frozen=True)
class PiecewisePartition:
    """Disjoint pieces of a boundary set with one log-value per piece.

    ``pieces`` holds (piece, v) pairs where the piece is a point-only
    BoundarySet and exp(v) approximates the supplied ratio there within
    ``epsilon`` at every sample.
    """

    pieces: tuple
    epsilon: float


def neighborhood(E: BoundarySet, width: float) -> BoundarySet:
    """Open arc neighborhood of ``E`` of the given angular half-width."""
    width = float(width)
    if not np.isfinite(width) or width <= 0.0:
        raise InvalidParameterError("neighborhood width must be positive")
    arcs = [(p, width) for p in E.points]
    arcs += [(c, hw + width) for c, hw in E.arcs]
    if not arcs:
        return BoundarySet(sample_density=E.sample_density)
    return BoundarySet(arcs=tuple(arcs), sample_density=E.sample_density)


def sup_on_set(a: CoeffSeries, E: BoundarySet) -> float:
    """Upper bound for sup over ``E`` of |a| (stored polynomial part).

    Point sets are evaluated exactly.  Arc samples add a Lipschitz
    correction L * dtheta with L = sum k |a_k|, so the result upper-bounds
    the true supremum of the stored polynomial.
    """
    if E.is_empty:
        raise InvalidInputError("cannot take a supremum over an empty boundary set")
    vals = np.abs(evaluate(a, np.exp(1j * E.samples())))
    base = float(vals.max())
    spacing = E.arc_sample_spacing()
    if spacing > 0.0:
        L = float(np.sum(np.arange(len(a.coeffs)) * np.abs(a.coeffs)))
        base += L * spacing
    return base


def piecewise_partition(ratio_values: dict, E: BoundarySet, eps: float) -> PiecewisePartition:
    """Split sampled ratio values into pieces with near-constant ratio.

    ``ratio_values`` maps sample angles to nonzero complex ratios.  The
    circle is cut into k equal arcs (k doubling from 4), arc endpoints are
    nudged off the samples, and each nonempty piece gets v = Log(ratio at a
    representative).  Pieces are accepted once |ratio - exp(v)| < eps on
    all of their samples; otherwise k doubles up to PARTITION_ARC_CAP.
    """
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    if not ratio_values:
        raise InvalidInputError("ratio_values must be nonempty")
    angles = []
    ratios = []
    for t, v in sorted((normalize_angle(t), complex(v)) for t, v in ratio_values.items()):
        if abs(v) < 1e-300:
            raise InvalidInputError("ratio values must be nonzero")
        angles.append(t)
        ratios.append(v)
    angles = np.asarray(angles)
    ratios = np.asarray(ratios, dtype=np.complex128)

    worst_overall = np.inf
    k = 4
    while k <= PARTITION_ARC_CAP:
        bounds = []
        for j in range(k):
            b = TWO_PI * j / k
            gaps = (angles - b) % TWO_PI
            if gaps.size and (gaps.min() < 1e-9 or gaps.max() > TWO_PI - 1e-9):
                ahead = gaps[gaps >= 1e-9]
                gap_ccw = float(ahead.min()) if ahead.size else TWO_PI
                b += min(0.5 * gap_ccw, np.pi / (2 * k))
            bounds.append(b)
        bounds = np.asarray(bounds)
        idx = np.searchsorted(bounds, angles, side="right") - 1
        idx %= k

        pieces = []
        deviations = []
        ok = True
        for piece_id in range(k):
            mask = idx == piece_id
            if not np.any(mask):
                continue
            v = np.log(ratios[mask][0])
            dev = float(np.max(np.abs(ratios[mask] - np.exp(v))))
            if dev >= eps:
                ok = False
                worst_overall = min(worst_overall, dev)
                break
            piece = BoundarySet(points=tuple(angles[mask]), sample_density=E.sample_density)
            pieces.append((piece, complex(v)))
            deviations.append(dev)
        if ok:
            pieces.sort(key=lambda pv: pv[0].points[0])
            achieved = max(deviations) if deviations else 0.0
            return PiecewisePartition(tuple(pieces), achieved)
        k *= 2
    raise ResolutionExceededError(
        "piecewise partition could not reach the requested deviation",
        {"arc_cap": PARTITION_ARC_CAP, "worst_piece_deviation": worst_overall, "eps": eps},
    )
