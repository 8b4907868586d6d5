"""Finite Blaschke products and inner-outer splitting of polynomials.

A zero a inside the disc contributes the normalized factor
(|a|/a) (a - z) / (1 - conj(a) z); a zero at the origin contributes z.
Splitting a polynomial replaces each interior root a by (1 - conj(a) z)
in the outer part, so the outer part keeps the boundary modulus of the
input while staying zero-free on the open disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRootError, InvalidInputError, InvalidParameterError
from .series import CoeffSeries, multiply

BOUNDARY_TOL = 1e-9
CLUSTER_RADIUS = 1e-8
ORIGIN_TOL = 1e-8


@dataclass(frozen=True)
class InnerOuterFactorization:
    """B(inner_zeros) * outer reproduces the input polynomial.

    This construction folds every phase into the outer factor.
    """

    inner_zeros: tuple
    outer: CoeffSeries


def _factor_coeffs(a: complex, N: int) -> np.ndarray:
    if a == 0:
        out = np.zeros(N + 1, dtype=np.complex128)
        if N >= 1:
            out[1] = 1.0
        else:
            raise InvalidParameterError("N must be >= 1 to hold a factor of z")
        return out
    mod = abs(a)
    out = np.empty(N + 1, dtype=np.complex128)
    out[0] = mod
    out[1:] = (mod / a) * (mod * mod - 1.0) * np.conj(a) ** np.arange(N)
    return out


def _product_tail_bound(zeros, N: int) -> float:
    """Cauchy-estimate bound on the H^2 mass of the product beyond degree N."""
    nonzero = [z for z in zeros if z != 0]
    if not nonzero:
        return 0.0
    amax = max(abs(z) for z in nonzero)
    origin_count = len(zeros) - len(nonzero)
    best = np.inf
    for frac in (0.25, 0.5, 0.75):
        rho = 1.0 + frac * (1.0 / amax - 1.0)
        if rho <= 1.0:
            continue
        big = rho**origin_count
        for z in nonzero:
            big *= (abs(z) + rho) / (1.0 - abs(z) * rho)
        tail = big * rho ** (-(N + 1)) / np.sqrt(1.0 - rho**-2)
        best = min(best, tail)
    return float(best)


def blaschke_series(zeros, N: int) -> CoeffSeries:
    """Coefficient series of the finite product with the given zeros, to degree N."""
    zeros = [complex(z) for z in zeros]
    for z in zeros:
        if abs(z) >= 1.0:
            raise InvalidInputError("Blaschke zeros must lie strictly inside the disc")
    if N < max(1, len(zeros)):
        raise InvalidParameterError("N too small to hold the requested product")
    if not zeros:
        return CoeffSeries(np.ones(1), 0.0)
    prod = CoeffSeries(_factor_coeffs(zeros[0], N), 0.0)
    for z in zeros[1:]:
        prod = multiply(prod, CoeffSeries(_factor_coeffs(z, N), 0.0), max_degree=N)
    return CoeffSeries(prod.coeffs, _product_tail_bound(zeros, N))


def _cluster_roots(roots: np.ndarray) -> list:
    """Average root clusters of radius CLUSTER_RADIUS to stabilize multiplicities."""
    order = np.lexsort((roots.imag, roots.real))
    clusters = []
    for r in roots[order]:
        placed = False
        for cl in clusters:
            if abs(r - cl[-1]) <= CLUSTER_RADIUS:
                cl.append(r)
                placed = True
                break
        if not placed:
            clusters.append([r])
    out = []
    for cl in clusters:
        mean = complex(np.mean(cl))
        if abs(mean) < ORIGIN_TOL:
            mean = 0.0
        out.extend([mean] * len(cl))
    return out


def polynomial_inner_outer(p: CoeffSeries) -> InnerOuterFactorization:
    """Split an exact polynomial into Blaschke zeros and a zero-free outer part.

    Roots within 1e-9 of the unit circle make the splitting ill-posed and
    raise BoundaryRootError.
    """
    if not p.is_exact_polynomial():
        raise InvalidInputError("inner-outer splitting needs an exact polynomial")
    c = p.coeffs
    if not np.any(c):
        raise InvalidInputError("cannot factor the zero polynomial")
    deg_eff = int(np.max(np.nonzero(np.abs(c) > 0)[0]))
    lead = c[deg_eff]
    if deg_eff == 0:
        return InnerOuterFactorization((), p)

    roots = np.roots(c[deg_eff::-1])
    roots = _cluster_roots(roots)
    for r in roots:
        if abs(abs(r) - 1.0) <= BOUNDARY_TOL:
            raise BoundaryRootError(f"root {r} lies on the unit circle within tolerance")

    inner = sorted((r for r in roots if abs(r) < 1.0), key=lambda z: (z.real, z.imag))
    outer_roots = [r for r in roots if abs(r) > 1.0]

    kappa = complex(lead)
    for a in inner:
        if a != 0:
            kappa *= -a / abs(a)
    out = np.array([kappa], dtype=np.complex128)
    for a in inner:
        if a != 0:
            out = np.convolve(out, [1.0, -np.conj(a)])
    for b in outer_roots:
        out = np.convolve(out, [-b, 1.0])
    return InnerOuterFactorization(tuple(inner), CoeffSeries(out, 0.0))
