"""Weighted inner products and the Dirichlet integral.

Coefficient formulas are cross-checked two independent ways: a bare python
loop over the defining sums, and tensor polar/circle quadrature of the area
and boundary integrals they are documented to equal.
"""

import numpy as np
import pytest

from opalab import (
    AlphaWeight,
    CoeffSeries,
    InvalidParameterError,
    dirichlet_integral,
    inner_product_alpha,
    norm_alpha,
)

H2 = AlphaWeight(0.0)
DIR = AlphaWeight(1.0)


def inner_sum_oracle(a, b, alpha):
    """The defining weighted coefficient sum, written as a plain loop."""
    total = 0j
    for k in range(min(len(a), len(b))):
        total += (k + 1) ** alpha * a[k] * np.conj(b[k])
    return total


def area_quadrature_of_derivative(coeffs, nr=512, nt=1024):
    """(1/pi) integral over the disc of |f'|^2 on a tensor polar grid.

    Uniform angles are exact for trig polynomials; the radial direction
    uses Gauss-Legendre nodes because a uniform trapezoid rule at 512
    nodes stalls near 1e-5 and would mask real defects.
    """
    dpoly = np.asarray([k * c for k, c in enumerate(coeffs)][1:], complex)
    if len(dpoly) == 0:
        return 0.0
    x, wx = np.polynomial.legendre.leggauss(nr)
    r, wr = 0.5 * (x + 1.0), 0.5 * wx
    t = np.linspace(0.0, 2 * np.pi, nt, endpoint=False)
    z = r[:, None] * np.exp(1j * t[None, :])
    vals = np.abs(np.polyval(dpoly[::-1], z)) ** 2 * r[:, None]
    ang = vals.mean(axis=1) * 2 * np.pi
    return float(np.dot(wr, ang) / np.pi)


def circle_quadrature_of_modulus(coeffs, nt=1024):
    """(1/2pi) integral over the circle of |f|^2, exact for small degrees."""
    t = np.linspace(0.0, 2 * np.pi, nt, endpoint=False)
    vals = np.abs(np.polyval(np.asarray(coeffs, complex)[::-1], np.exp(1j * t))) ** 2
    return float(vals.mean())


def random_poly(rng, deg):
    return CoeffSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


# ---------------------------------------------------------- inner products

def test_inner_product_hand_values():
    one_minus = CoeffSeries([1.0, -1.0])
    one_plus = CoeffSeries([1.0, 1.0])
    assert inner_product_alpha(one_minus, one_plus, H2) == pytest.approx(0.0)
    assert inner_product_alpha(one_minus, one_minus, H2) == pytest.approx(2.0)
    assert inner_product_alpha(one_minus, one_minus, DIR) == pytest.approx(3.0)
    assert inner_product_alpha(one_minus, one_minus, DIR) == pytest.approx(
        inner_sum_oracle(one_minus.coeffs, one_minus.coeffs, 1.0)
    )


def test_inner_product_matches_loop_on_random_inputs():
    rng = np.random.default_rng(40)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        w = AlphaWeight(alpha)
        for _ in range(8):
            a = random_poly(rng, int(rng.integers(0, 11)))
            b = random_poly(rng, int(rng.integers(0, 11)))
            want = inner_sum_oracle(a.coeffs, b.coeffs, alpha)
            assert inner_product_alpha(a, b, w) == pytest.approx(want, abs=1e-13)


def test_norm_hand_values():
    assert norm_alpha(CoeffSeries([1.0]), H2) == pytest.approx(1.0)
    assert norm_alpha(CoeffSeries([1.0]), DIR) == pytest.approx(1.0)
    assert norm_alpha(CoeffSeries([1.0, -1.0]), H2) == pytest.approx(np.sqrt(2.0))
    assert norm_alpha(CoeffSeries([1.0, -1.0]), DIR) == pytest.approx(np.sqrt(3.0))


# ------------------------------------------------------- dirichlet integral

def test_dirichlet_integral_small_cases():
    assert dirichlet_integral(CoeffSeries([5.0])) == 0.0
    assert dirichlet_integral(CoeffSeries([0.0, 1.0])) == pytest.approx(1.0)
    z2 = CoeffSeries([0.0, 0.0, 1.0])
    assert dirichlet_integral(z2) == pytest.approx(2.0)
    assert area_quadrature_of_derivative(z2.coeffs) == pytest.approx(2.0, abs=1e-9)


def test_dirichlet_integral_agrees_with_area_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(6):
        a = random_poly(rng, int(rng.integers(1, 9)))
        want = area_quadrature_of_derivative(a.coeffs)
        assert dirichlet_integral(a) == pytest.approx(want, abs=1e-9)


def test_dirichlet_norm_splits_into_energy_plus_h2():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = random_poly(rng, int(rng.integers(0, 11)))
        lhs = norm_alpha(a, DIR) ** 2
        rhs = dirichlet_integral(a) + norm_alpha(a, H2) ** 2
        assert abs(lhs - rhs) < 1e-12
        quad = area_quadrature_of_derivative(a.coeffs) + circle_quadrature_of_modulus(a.coeffs)
        assert abs(lhs - quad) < 1e-6


# --------------------------------------------------------------- properties

def test_norm_monotone_in_alpha():
    rng = np.random.default_rng(43)
    alphas = [0.0, 0.3, 0.7, 1.0]
    for _ in range(15):
        a = random_poly(rng, int(rng.integers(0, 11)))
        norms = [norm_alpha(a, AlphaWeight(al)) for al in alphas]
        assert all(n1 <= n2 + 1e-14 for n1, n2 in zip(norms, norms[1:]))


def test_cauchy_schwarz():
    rng = np.random.default_rng(44)
    for alpha in (0.0, 0.5, 1.0):
        w = AlphaWeight(alpha)
        for _ in range(10):
            a = random_poly(rng, int(rng.integers(0, 11)))
            b = random_poly(rng, int(rng.integers(0, 11)))
            lhs = abs(inner_product_alpha(a, b, w))
            assert lhs <= norm_alpha(a, w) * norm_alpha(b, w) + 1e-12


def test_alpha_weight_range_enforced():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(InvalidParameterError):
            AlphaWeight(bad)
    AlphaWeight(0.0)
    AlphaWeight(1.0)
