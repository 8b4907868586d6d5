"""Certified peak functions on boundary sets, and equilibrium measures.

The construction runs boundary-first: a nonnegative profile u concentrated
on the peak set, its analytic completion F = u + i (conjugate of u), and
the peak function h = 1 - exp(-F).  Nonnegativity of u keeps |exp(-F)| at
most 1 on the closed disc, which is what makes the certified sup bound 2
possible at all.  Two profile families are provided:

* "bump": compactly supported smooth bumps, vanishing off the requested
  neighborhood exactly; needs fine grids for small masses.
* "poisson": Poisson-kernel peaks whose completion is a closed-form
  geometric series; supports hard degree budgets, at the price of profile
  tails that only decay (rather than vanish) off the neighborhood.

Profiles are always smoothed by a triangular (Fejer) spectral damping
before completion: sharp truncation of a narrow peak rings negative and
destroys the sup certificate, while the damped profile stays nonnegative
and is itself a trigonometric polynomial, so its completion is exact.

The Dirichlet-energy variant replaces the profile by a sum of equilibrium
potentials of shrinking arc neighborhoods, weighted by their capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from .boundary import TWO_PI, BoundarySet, circle_gap
from .errors import (
    ConstructionError,
    IllConditionedError,
    InvalidInputError,
    InvalidParameterError,
    ResolutionExceededError,
)
from .opa import _check_pivot, _condition
from .series import CoeffSeries, dilate, eval_on_circle_grid, exp_series
from .spaces import dirichlet_integral

BUMP_MIN_CELLS = 4
GRID_CAP_LOG2 = 22
CERT_GRID_LOG2 = 14
CERT_RADII = (0.5, 0.9, 0.99)
SUP_BOUND_TOL = 1e-6
PEAK_DEV_GRID_TOL = 1e-4
RIPPLE_MIN_DEGREE = 4096


def _bump_phi(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    mask = np.abs(t) < 1.0 - 1e-12
    tm = t[mask]
    out[mask] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


_PHI_GRID = np.linspace(-1.0, 1.0, 20001)
BUMP_INTEGRAL = float(np.trapezoid(_bump_phi(_PHI_GRID), _PHI_GRID))


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Nonnegative boundary values sampled on a uniform 2**grid_log2 grid."""

    grid_values: np.ndarray
    grid_log2: int

    def __post_init__(self):
        vals = np.asarray(self.grid_values, dtype=float)
        if vals.ndim != 1 or len(vals) != (1 << self.grid_log2):
            raise InvalidInputError("grid length must equal 2**grid_log2")
        if vals.min() < -1e-9:
            raise InvalidInputError("boundary profile must be nonnegative")
        vals = np.maximum(vals, 0.0)
        vals.setflags(write=False)
        object.__setattr__(self, "grid_values", vals)

    @property
    def mass(self) -> float:
        """(1/2 pi) integral of u; the periodic trapezoid rule is the mean."""
        return float(np.mean(self.grid_values))


@dataclass(frozen=True)
class CertifiedBounds:
    sup_bound: float
    off_neighborhood_sup: float
    peak_deviation: float
    dirichlet_energy: float | None = None


@dataclass(frozen=True, eq=False)
class RudinFunction:
    completion: CoeffSeries
    h: CoeffSeries
    peak_set: BoundarySet
    neighborhood: BoundarySet
    certified: CertifiedBounds


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability weights on circle nodes with logarithmic energy/capacity."""

    nodes: np.ndarray
    weights: np.ndarray
    energy: float
    capacity: float


def _require_point_peaks(E: BoundarySet) -> None:
    if E.positive_measure:
        raise InvalidInputError("peak sets must be finite point sets, not arcs")


def _containing_arc_margin(E: BoundarySet, U: BoundarySet) -> float:
    """Smallest angular gap from a peak point to the edge of its arc in U."""
    if U.is_full_circle:
        return np.pi
    margin = np.inf
    for p in E.points:
        best = -np.inf
        for c, hw in U.arcs:
            best = max(best, hw - circle_gap(p, c))
        if best <= 0.0:
            raise InvalidInputError("every peak point must lie inside the neighborhood")
        margin = min(margin, best)
    return float(margin)


def bump_profile(
    E: BoundarySet,
    U: BoundarySet,
    peak: float,
    mass_target: float,
    grid_log2: int,
) -> BoundaryFunction:
    """Sum of smooth compact bumps of height ``peak`` at the points of E.

    Bump widths start from the room available inside U and shrink until the
    total mass is below ``mass_target``.  Widths that fall under
    BUMP_MIN_CELLS grid cells cannot be represented and raise a resolution
    error suggesting a larger grid.
    """
    if peak <= 0.0 or mass_target <= 0.0:
        raise InvalidParameterError("peak and mass_target must be positive")
    _require_point_peaks(E)
    G = 1 << grid_log2
    if E.is_empty:
        return BoundaryFunction(np.zeros(G), grid_log2)
    margin = _containing_arc_margin(E, U)
    n_peaks = len(E.points)
    w_mass = 0.9 * (mass_target / n_peaks) * TWO_PI / (peak * BUMP_INTEGRAL)
    width = min(0.999 * margin, w_mass)
    cell = TWO_PI / G
    theta = np.arange(G) * cell
    for _ in range(8):
        if width < BUMP_MIN_CELLS * cell:
            raise ResolutionExceededError(
                "bump width %.3g needs a finer grid; raise grid_log2 above %d"
                % (width, grid_log2),
                {"width": width, "grid_log2": grid_log2, "min_cells": BUMP_MIN_CELLS},
            )
        u = np.zeros(G)
        for p in E.points:
            delta = (theta - p + np.pi) % TWO_PI - np.pi
            u += peak * _bump_phi(delta / width)
        bf = BoundaryFunction(u, grid_log2)
        if bf.mass < mass_target:
            return bf
        width *= 0.9
    raise ConstructionError(
        "bump mass failed to drop below target", {"mass": bf.mass, "target": mass_target}
    )


def fejer_mean(u: BoundaryFunction, N: int) -> BoundaryFunction:
    """Triangular spectral damping at degree N; preserves nonnegativity and mass."""
    G = 1 << u.grid_log2
    if N > G // 2:
        raise InvalidParameterError("damping degree exceeds the grid Nyquist limit")
    spec = np.fft.rfft(u.grid_values)
    k = np.arange(len(spec))
    damp = np.where(k <= N, 1.0 - k / (N + 1.0), 0.0)
    vals = np.fft.irfft(spec * damp, n=G)
    return BoundaryFunction(np.maximum(vals, 0.0), u.grid_log2)


def analytic_completion(u: BoundaryFunction, N: int) -> CoeffSeries:
    """Taylor coefficients of the analytic extension of u + i (conjugate u).

    c_0 is the mean of u and c_k = 2 * (k-th Fourier coefficient) for
    k >= 1, which normalizes the conjugate function to vanish at the
    origin.  The tail bound collects the spectrum left beyond N (up to
    grid aliasing).
    """
    G = 1 << u.grid_log2
    if N > G // 2:
        raise InvalidParameterError("completion degree exceeds the grid Nyquist limit")
    uhat = np.fft.rfft(u.grid_values) / G
    c = np.zeros(N + 1, dtype=np.complex128)
    c[0] = uhat[0].real
    if N >= 1:
        c[1:] = 2.0 * uhat[1 : N + 1]
    tail = float(np.linalg.norm(2.0 * uhat[N + 1 :]))
    return CoeffSeries(c, tail)


def _exp_within_ripple(F: CoeffSeries, grid_log2: int, ripple: float):
    """h = 1 - exp(-F) truncated where the discarded spectral mass fits ``ripple``.

    The C-infinity bump behind F has a sub-geometric spectrum, so a fixed
    truncation degree can leave ripple at the dip far above the certified
    peak-deviation budget.  Measuring the cumulative tail and picking the
    degree from it keeps the dip depth honest.  The read-off runs to degree
    G - 1, so the tail also counts the spectrum past the Nyquist cap, which
    a grid too coarse for exp(-F) fills; None means no degree below the cap
    fits and the caller should enlarge the grid.  The degree never drops
    below RIPPLE_MIN_DEGREE, even where a lower one fits.
    """
    G = 1 << grid_log2
    e = exp_series(-F, G - 1, grid_log2)
    mags = np.abs(e.coeffs)
    tail = np.cumsum(mags[::-1])[::-1]
    cap = G // 2 - 1
    feasible = np.nonzero(tail[1 : cap + 2] <= ripple)[0]
    if len(feasible) == 0:
        return None
    degree = min(max(int(feasible[0]), RIPPLE_MIN_DEGREE), cap)
    h_tail = float(np.linalg.norm(mags[degree + 1 :]))
    return CoeffSeries([1.0]) - CoeffSeries(e.coeffs[: degree + 1], h_tail)


def _peak_function_from_profile(u: BoundaryFunction, N: int, degree: int):
    """Damped completion F and h = 1 - exp(-F) truncated at ``degree``."""
    damped = fejer_mean(u, N)
    F = analytic_completion(damped, N)
    return F, CoeffSeries([1.0]) - exp_series(-F, degree, u.grid_log2)


def _values_at_angles(a: CoeffSeries, angles: np.ndarray) -> np.ndarray:
    """Direct evaluation at unit-circle angles; fast for few points, any degree."""
    k = np.arange(len(a.coeffs))
    return np.asarray(
        [np.dot(a.coeffs, np.exp(1j * k * t)) for t in np.atleast_1d(angles)]
    )


def _certify(h: CoeffSeries, E: BoundarySet, U: BoundarySet, dirichlet_energy=None):
    """Measure the certified block of a peak function on the standard grids."""
    q = CERT_GRID_LOG2
    G = 1 << q
    angles = np.arange(G) * (TWO_PI / G)
    in_U = np.zeros(G, dtype=bool)
    for c, hw in U.arcs:
        in_U |= np.abs((angles - c + np.pi) % TWO_PI - np.pi) <= hw
    circle = np.abs(eval_on_circle_grid(h, q))
    sup_bound = float(circle.max())
    off_vals = [circle[~in_U]] if not in_U.all() else []

    if U.arcs:
        d_U = 2.0 * np.sin(min(hw for _, hw in U.arcs) / 2.0)
    else:
        d_U = 0.0
    peak_z = np.exp(1j * np.asarray(E.points)) if E.points else np.empty(0, complex)
    for r in CERT_RADII:
        vals_r = np.abs(eval_on_circle_grid(dilate(h, r), q))
        sup_bound = max(sup_bound, float(vals_r.max()))
        if peak_z.size:
            z = r * np.exp(1j * angles)
            far = np.min(np.abs(z[:, None] - peak_z[None, :]), axis=1) >= d_U
        else:
            far = np.ones(G, dtype=bool)
        if far.any():
            off_vals.append(vals_r[far])
    off_sup = float(max(chunk.max() for chunk in off_vals)) if off_vals else 0.0

    if E.points:
        peak_dev = float(np.max(np.abs(_values_at_angles(h, np.asarray(E.points)) - 1.0)))
    else:
        peak_dev = 0.0
    return CertifiedBounds(sup_bound, off_sup, peak_dev, dirichlet_energy)


def _trivial_peak(E: BoundarySet, U: BoundarySet, dirichlet: bool) -> RudinFunction:
    zero = CoeffSeries([0.0])
    energy = 0.0 if dirichlet else None
    return RudinFunction(zero, zero, E, U, CertifiedBounds(0.0, 0.0, 0.0, energy))


def _damped_peak_at(uhat: np.ndarray, N: int, theta: float) -> float:
    k = np.arange(1, N + 1)
    damp = 1.0 - k / (N + 1.0)
    return float(uhat[0].real + 2.0 * np.sum((uhat[1 : N + 1] * damp * np.exp(1j * k * theta)).real))


def hardy_rudin(
    E: BoundarySet,
    U: BoundarySet,
    eps: float,
    peak: float,
    profile: str = "bump",
    grid_log2: int = CERT_GRID_LOG2,
    max_degree: int | None = None,
    mass_target: float | None = None,
) -> RudinFunction:
    """Peak function with certified bounds: |h| <= 2, |h| < eps off U, h near 1 on E.

    The profile mass delta is derived from the chord distance between the
    off-neighborhood region and the peaks so that exp(mass bound) - 1 stays
    under eps with a factor-2 safety margin; ``mass_target`` overrides it.
    The "bump" profile auto-refines its grid (two certification retries,
    grid capped at 2**20).  The "poisson" profile honors ``max_degree`` as
    a hard degree budget and fails construction rather than exceed it.
    """
    if eps <= 0.0 or peak <= 0.0:
        raise InvalidParameterError("eps and peak must be positive")
    _require_point_peaks(E)
    if E.is_empty:
        return _trivial_peak(E, U, dirichlet=False)
    margin = _containing_arc_margin(E, U)
    dist = 2.0 * np.sin(min(margin, np.pi) / 2.0)
    delta = mass_target if mass_target is not None else 0.25 * dist * (-np.log1p(-min(eps, 0.999)))

    target_dev = np.exp(-peak) + PEAK_DEV_GRID_TOL
    slack = peak + np.log(target_dev)
    m_req = -np.log(target_dev) + 0.5 * min(slack, 1.4)

    if profile == "poisson":
        return _poisson_peak(E, U, eps, peak, delta, max_degree or 2048, grid_log2)
    if profile != "bump":
        raise InvalidParameterError("profile must be 'bump' or 'poisson'")

    q = grid_log2
    tries = 0
    diag = {}
    best_peak = -np.inf
    grids_tried = []
    while q <= GRID_CAP_LOG2 and tries < 3:
        try:
            u = bump_profile(E, U, peak, delta, q)
        except ResolutionExceededError:
            q += 2
            continue
        G = 1 << q
        uhat = np.fft.rfft(u.grid_values) / G
        grids_tried.append(q)
        N = None
        cand = 256
        while cand <= G // 2:
            reached = min(_damped_peak_at(uhat, cand, p) for p in E.points)
            best_peak = max(best_peak, reached)
            if reached >= m_req:
                N = cand
                break
            cand *= 2
        if N is None:
            diag = {
                "reason": "damping-degree search found no N <= G/2 reaching m_req",
                "best_damped_peak": best_peak,
                "m_req": float(m_req),
                "grids_tried": grids_tried,
            }
            q += 2
            continue
        damped = fejer_mean(u, N)
        F = analytic_completion(damped, N)
        attained = min(_damped_peak_at(uhat, N, p) for p in E.points)
        h = _exp_within_ripple(F, q, 0.5 * (target_dev - np.exp(-attained)))
        if h is None:
            diag = {
                "reason": "exp read-off tail exceeds the peak deviation budget",
                "grid_log2": q,
                "damping_degree": N,
            }
            q += 2
            continue
        cert = _certify(h, E, U)
        if (
            cert.sup_bound <= 2.0 + SUP_BOUND_TOL
            and cert.off_neighborhood_sup < eps
            and cert.peak_deviation < target_dev
        ):
            return RudinFunction(F, h, E, U, cert)
        diag = {
            "sup_bound": cert.sup_bound,
            "off_neighborhood_sup": cert.off_neighborhood_sup,
            "peak_deviation": cert.peak_deviation,
            "grid_log2": q,
            "damping_degree": N,
        }
        tries += 1
        q += 2
    raise ConstructionError("peak function certification failed within grid budget", diag)


def _poisson_damped_gain(x: float, degree: int) -> float:
    """Damped peak multiplier s(rho) = 1 + 2 sum rho^k (1 - k/(D+1)) at rho = 1-x."""
    rho = 1.0 - x
    k = np.arange(1, degree + 1, dtype=float)
    return float(1.0 + 2.0 * np.sum(rho**k * (1.0 - k / (degree + 1.0))))


def _poisson_peak(
    E: BoundarySet,
    U: BoundarySet,
    eps: float,
    peak: float,
    delta: float,
    degree: int,
    grid_log2: int,
) -> RudinFunction:
    """Poisson-kernel peaks with the kernel width solved from the mass budget."""
    mass_allow = 0.9 * delta
    gain_req = max(len(E.points) * peak / mass_allow, 1.2)
    if gain_req > degree + 0.5:
        raise ConstructionError(
            "degree budget cannot carry the requested peak at this mass",
            {"required_gain": gain_req, "degree": degree},
        )
    lo, hi = 1e-12, 0.999999
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _poisson_damped_gain(mid, degree) > gain_req:
            lo = mid
        else:
            hi = mid
    x = lo
    rho = 1.0 - x
    height = peak / _poisson_damped_gain(x, degree)

    q = max(grid_log2, int(4 * degree - 1).bit_length(), CERT_GRID_LOG2)
    G = 1 << q
    theta = np.arange(G) * (TWO_PI / G)
    u = np.zeros(G)
    for p in E.points:
        d = theta - p
        u += height * (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(d) + rho * rho)
    bf = BoundaryFunction(u, q)
    F, h = _peak_function_from_profile(bf, degree, degree)
    cert = _certify(h, E, U)
    if cert.sup_bound > 2.0 + SUP_BOUND_TOL or cert.off_neighborhood_sup >= eps:
        raise ConstructionError(
            "poisson peak failed certification at this degree",
            {
                "sup_bound": cert.sup_bound,
                "off_neighborhood_sup": cert.off_neighborhood_sup,
                "peak_deviation": cert.peak_deviation,
                "degree": degree,
                "kernel_width": x,
            },
        )
    return RudinFunction(F, h, E, U, cert)


def equilibrium_measure(arcs: BoundarySet, nodes_per_arc: int) -> DiscreteMeasure:
    """Minimize discrete logarithmic energy over probability weights on arc nodes.

    Chebyshev-distributed nodes per proper arc; uniform nodes on the full
    circle (so symmetry forces the uniform measure there).  The energy
    w^T A w, A the negated kernel with self-energy on the diagonal, is
    strictly convex on the simplex (A is positive definite on sum w = 0),
    so w = y / sum(y) with A y = 1 is the minimizer when all its entries
    are positive.  A may be indefinite (it is on the full circle); adding
    a constant c to every entry adds exactly c to the energy on the
    simplex, so one Cholesky solve on A + c gives the same w.  A failed
    factor or a pivot under opa's PIVOT_RTOL rule raises
    IllConditionedError, and a nonpositive weight ConstructionError.

    The capacity estimate is biased upward: an arc of half-angle hw has
    capacity sin(hw/2), and at 512 nodes the estimate exceeds it by 2.11%,
    1.75%, 1.50%, 1.41% and 1.33% for hw = 0.05, 0.3, 1.0, pi/2 and 2.5.
    """
    if not arcs.positive_measure:
        raise InvalidInputError("equilibrium measures need arcs of positive length")
    if nodes_per_arc < 8:
        raise InvalidParameterError("nodes_per_arc must be at least 8")

    if arcs.is_full_circle:
        nodes = np.linspace(0.0, TWO_PI, nodes_per_arc, endpoint=False)
    else:
        parts = []
        for c, hw in arcs.arcs:
            i = np.arange(nodes_per_arc)
            parts.append((c + hw * np.cos(np.pi * (2 * i + 1) / (2 * nodes_per_arc))) % TWO_PI)
        nodes = np.sort(np.concatenate(parts))

    x = np.exp(1j * nodes)
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, 1.0)
    K = np.log(dist)

    # A bare zero diagonal makes the discrete energy degenerate: dropping the
    # self-interaction rewards piling all mass on one far-apart node pair.
    # The optimizer therefore carries the self-energy of each atom smeared
    # over half its cell, which is the standard discretization and keeps the
    # minimizer on the continuum equilibrium.  Reported energy and capacity
    # still exclude the diagonal.
    n = len(nodes)
    gaps = np.copy(dist)
    np.fill_diagonal(gaps, np.inf)
    cell = 0.5 * gaps.min(axis=1)
    K_opt = K + np.diag(np.log(np.maximum(cell, 1e-300)))

    shifted = (1.0 + np.max(np.abs(K_opt))) - K_opt
    try:
        factor = scipy.linalg.cho_factor(shifted)
    except np.linalg.LinAlgError:
        raise IllConditionedError(
            "shifted energy matrix is not numerically positive definite",
            condition_estimate=float("inf"),
            diagnostics={"nodes": n},
        )

    solve = partial(scipy.linalg.cho_solve, factor)
    condition = partial(_condition, np.max(np.sum(np.abs(shifted), axis=0)), solve, n)
    _check_pivot(np.min(np.diag(factor[0])) ** 2, np.trace(shifted), condition, nodes=n)
    y = solve(np.ones(n))
    w = y / np.sum(y)
    if not np.min(w) > 0.0:
        raise ConstructionError(
            "energy minimizer leaves the simplex interior",
            {"min_weight": float(np.min(w)), "nodes": n},
        )
    energy = float(-w @ K @ w)
    # Excluding the diagonal biases the discrete energy low, so exp(-energy)
    # can land a hair above 1 on the full circle; no subset of the circle has
    # capacity above 1, so the certified value is clipped there.
    return DiscreteMeasure(nodes, w, energy, float(min(np.exp(-energy), 1.0)))


def dirichlet_rudin(
    E: BoundarySet,
    U: BoundarySet,
    eps: float,
    levels: int = 4,
    nodes_per_arc: int = 64,
    truncation_degree: int = 2048,
) -> RudinFunction:
    """Peak function with certified Dirichlet energy at most eps.

    Builds F as a capacity-weighted sum of equilibrium potentials of
    nested arc neighborhoods of E (widths shrinking by 4 per level), with
    h = 1 - exp(-F).  The energy certificate is the coefficient formula
    applied to h directly.  When the certificate or the off-neighborhood
    bound fails, the first-level width shrinks by 4 and the construction
    retries, up to 12 attempts.
    """
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    if levels < 2:
        raise InvalidParameterError("at least 2 nesting levels are required")
    _require_point_peaks(E)
    if E.is_empty:
        return _trivial_peak(E, U, dirichlet=True)
    w1 = 0.5 * _containing_arc_margin(E, U)

    N = truncation_degree
    ks = np.arange(1, N + 1)
    diag = {}
    for _ in range(12):
        coeffs = np.zeros(N + 1, dtype=np.complex128)
        cap_sum = 0.0
        for level in range(levels):
            wn = w1 * 4.0 ** (-level)
            En = BoundarySet(arcs=tuple((p, wn) for p in E.points))
            mu = equilibrium_measure(En, nodes_per_arc)
            muhat = np.exp(-1j * np.outer(ks, mu.nodes)) @ mu.weights
            coeffs[0] += mu.capacity * np.log(2.0)
            coeffs[1:] += mu.capacity * muhat / ks
            cap_sum += mu.capacity
        F = CoeffSeries(coeffs, cap_sum / np.sqrt(N))
        h = CoeffSeries([1.0]) - exp_series(-F, N)
        energy = dirichlet_integral(h)
        cert = _certify(h, E, U, dirichlet_energy=energy)
        if (
            energy <= 0.7 * eps
            and cert.off_neighborhood_sup < 0.95 * eps
            and cert.sup_bound <= 2.0 + SUP_BOUND_TOL
        ):
            return RudinFunction(F, h, E, U, cert)
        diag = {
            "dirichlet_energy": energy,
            "off_neighborhood_sup": cert.off_neighborhood_sup,
            "first_level_width": w1,
        }
        w1 /= 4.0
    raise ConstructionError("Dirichlet peak construction exhausted its width budget", diag)
