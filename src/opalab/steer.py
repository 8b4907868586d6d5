"""Steering: nudge f so that late reciprocal approximants hit a boundary target.

Given f with f(0) != 0, a nonvanishing polynomial target g on a finite
boundary set E, and eps, produce F close to f in norm together with an
order m whose approximant Q_m of 1/F lands within eps of g on E.  The
construction factors f into inner and outer parts, steers the zero-free
outer quotient h with the zero-free approximation pipeline toward 1/g on
E, and reattaches the inner factor.  The returned approximant is computed
from the zero-free part P alone; multiplying back the inner factor times
its normalizing scalar leaves the approximant unchanged, which is the
identity the tests check coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import ORIGIN_TOL, blaschke_series, polynomial_inner_outer
from .boundary import BoundarySet
from .errors import (
    ApproximationBudgetError,
    InvalidInputError,
    InvalidParameterError,
)
from .opa import _opa_orders
from .series import CoeffSeries, evaluate, multiply
from .spaces import AlphaWeight, norm_alpha, space_weight
from .zerofree import _normalize_targets, simultaneous_zero_free

M_SEARCH_CAP = 16384
DELTA_ROUNDS = 6
F_TRUNCATION = 512


@dataclass(frozen=True, eq=False)
class StructuredProduct:
    scalar: complex
    inner_zeros: tuple
    P: CoeffSeries


@dataclass(frozen=True)
class AchievedErrors:
    norm_error: float
    boundary_error: float


@dataclass(frozen=True, eq=False)
class SteerResult:
    F_structured: StructuredProduct
    F_coeffs: CoeffSeries
    m: int
    Q_m: CoeffSeries
    achieved: AchievedErrors


def _search(P: CoeffSeries, target, E: BoundarySet, tol: float, w: AlphaWeight):
    """(m, Q_m) for the first order m with sup over E of |Q_m - target| below tol.

    One walk over the orders 0..M_SEARCH_CAP stops at the first that
    passes; Q_m is copied out of the walk's buffers before it stops.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidParameterError("tol must be positive and finite")
    refs = _normalize_targets(target, E)
    thetas = np.asarray(E.points)
    powers = np.ones((len(thetas), 0))
    for m, (coeffs, _) in enumerate(_opa_orders(P, w, M_SEARCH_CAP)):
        if m == powers.shape[1]:
            powers = np.exp(1j * np.outer(thetas, np.arange(2 * m + 1)))
        if np.max(np.abs(powers[:, : m + 1] @ coeffs - refs)) < tol:
            return m, CoeffSeries(coeffs, 0.0)
    raise ApproximationBudgetError(
        "approximant order search exceeded its cap",
        {"cap": M_SEARCH_CAP, "tol": tol},
    )


def opa_search_m(P: CoeffSeries, target, E: BoundarySet, tol: float, w: AlphaWeight) -> int:
    """First order m with sup over E of |Q_m - target| below tol.

    One walk over the orders 0..M_SEARCH_CAP stops at the first that
    passes.  ``steer`` takes Q_m from the same walk; this wrapper keeps
    only the order.
    """
    return _search(P, target, E, tol, w)[0]


def steer(
    f: CoeffSeries,
    g: CoeffSeries,
    E: BoundarySet,
    eps: float,
    space: str = "hardy",
) -> SteerResult:
    """Produce F near f whose order-m reciprocal approximant tracks g on E.

    The pointwise tolerance passed to the zero-free stage starts at
    0.9*(eps/2)*min|1/g|^2, the linearization of |g - 1/P| <= eps/2 around
    P = 1/g, and halves until the measured sup on E is under eps/2.
    """
    w = space_weight(space)
    if not 0.0 < eps < np.inf:
        raise InvalidParameterError("eps must be positive and finite")
    if E.positive_measure or not E.points:
        raise InvalidInputError("steering needs a finite nonempty point set E")
    for series, name in ((f, "f"), (g, "g")):
        if series.tail_bound != 0.0:
            raise InvalidInputError(name + " must be an exact polynomial")
        if not np.any(series.coeffs):
            raise InvalidInputError(name + " must not be the zero polynomial")
    if f.coeffs[0] == 0.0:
        raise InvalidInputError("f(0) must be nonzero; divide out the z-power first")
    zs = np.exp(1j * np.asarray(E.points))
    g_vals = evaluate(g, zs)
    if np.min(np.abs(g_vals)) < 1e-14:
        raise InvalidInputError("g must be nonzero at every point of E")

    factorization = polynomial_inner_outer(f)
    inner_zeros = factorization.inner_zeros
    if inner_zeros and w.alpha == 1.0:
        raise InvalidParameterError(
            "dirichlet steering is only defined for f with no zeros in the disc"
        )
    if 0 in inner_zeros:
        raise InvalidInputError(
            "f has a root within %g of 0; divide out the z-power first" % ORIGIN_TOL
        )
    if inner_zeros:
        # sigma = conj(B(0)), and B(0) = prod |a_j| for zeros a_j off the origin
        sigma = complex(math.prod(abs(a) for a in inner_zeros)).conjugate()
    else:
        sigma = 1.0 + 0.0j
    h = (1.0 / sigma) * factorization.outer

    inv_g = 1.0 / g_vals
    eps_space = 0.9 * eps / max(abs(sigma), 1e-12)
    delta = 0.9 * (eps / 2.0) * float(np.min(np.abs(inv_g))) ** 2
    zf = None
    for _ in range(DELTA_ROUNDS):
        zf = simultaneous_zero_free(
            h, inv_g, E, eps_space, space, boundary_eps=delta
        )
        circle_gap_sup = float(np.max(np.abs(g_vals - 1.0 / evaluate(zf.P, zs))))
        if circle_gap_sup < eps / 2.0:
            break
        delta /= 2.0
    else:
        raise ApproximationBudgetError(
            "pointwise tolerance refinement failed to bring 1/P within eps/2 of g",
            {"last_sup": circle_gap_sup, "delta": delta},
        )
    P = zf.P

    m, Q_m = _search(P, 1.0 / evaluate(P, zs), E, eps / 2.0, w)

    deg_P = len(P.coeffs) - 1
    if inner_zeros:
        n_trunc = max(F_TRUNCATION, deg_P + 128, m + 128)
        B = blaschke_series(inner_zeros, n_trunc)
        F_coeffs = sigma * multiply(B, P, max_degree=n_trunc)
    else:
        F_coeffs = CoeffSeries(P.coeffs, 0.0)

    norm_error = norm_alpha(F_coeffs - f, w) + F_coeffs.tail_bound
    boundary_error = float(np.max(np.abs(evaluate(Q_m, zs) - g_vals)))
    return SteerResult(
        StructuredProduct(sigma, inner_zeros, P),
        F_coeffs,
        m,
        Q_m,
        AchievedErrors(norm_error, boundary_error),
    )
