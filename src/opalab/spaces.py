"""Weighted inner products and norms for the scale of spaces on the disc.

A function sum a_k z^k lies in the alpha-weighted space when
sum (k+1)^alpha |a_k|^2 is finite; alpha = 0 is the classical boundary-L2
(Hardy) case, alpha = 1 the Dirichlet case.  Everything here works on the
stored coefficient ranges of :class:`CoeffSeries` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .series import CoeffSeries


@dataclass(frozen=True)
class AlphaWeight:
    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not np.isfinite(a) or not (0.0 <= a <= 1.0):
            raise InvalidParameterError("alpha must lie in [0, 1]")
        object.__setattr__(self, "alpha", a)


HARDY = AlphaWeight(0.0)
DIRICHLET = AlphaWeight(1.0)


def coefficient_weights(n_terms: int, w: AlphaWeight) -> np.ndarray:
    """(k+1)^alpha for k = 0..n_terms-1, with fast paths for alpha 0 and 1."""
    if w.alpha == 0.0:
        return np.ones(n_terms)
    k1 = np.arange(1, n_terms + 1, dtype=float)
    if w.alpha == 1.0:
        return k1
    return k1 ** w.alpha


def inner_product_alpha(a: CoeffSeries, b: CoeffSeries, w: AlphaWeight) -> complex:
    """sum (k+1)^alpha a_k conj(b_k) over the stored overlap."""
    n = min(len(a.coeffs), len(b.coeffs))
    weights = coefficient_weights(n, w)
    return complex(np.sum(weights * a.coeffs[:n] * np.conj(b.coeffs[:n])))


def norm_alpha(a: CoeffSeries, w: AlphaWeight) -> float:
    val = inner_product_alpha(a, a, w).real
    return float(np.sqrt(max(val, 0.0)))


def dirichlet_integral(a: CoeffSeries) -> float:
    """sum k |a_k|^2, the normalized area integral of |a'|^2 over the disc."""
    k = np.arange(len(a.coeffs), dtype=float)
    return float(np.sum(k * np.abs(a.coeffs) ** 2))
