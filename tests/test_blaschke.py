"""Finite unit-modulus products and the polynomial splitting built on them.

The oracle below multiplies out each factor literally: the linear part
(a - z) scaled to unit boundary modulus, times an explicitly summed
geometric series for the denominator.  The library computes the same
coefficients from a closed form, so convolution agreement checks both.
"""

import numpy as np
import pytest

from opalab import (
    BoundaryRootError,
    CoeffSeries,
    InvalidInputError,
    InvalidParameterError,
    blaschke_series,
    multiply,
    polynomial_inner_outer,
)
from opalab.series import eval_on_circle_grid


def factor_oracle(a, N):
    """Degree-N expansion of one unit-modulus factor with zero at ``a``."""
    if a == 0:
        out = np.zeros(N + 1, complex)
        out[1] = 1.0
        return out
    geometric = np.conj(a) ** np.arange(N + 1)
    prod = np.convolve([a, -1.0], geometric)[: N + 1]
    return (abs(a) / a) * prod


def product_oracle(zeros, N):
    acc = np.zeros(N + 1, complex)
    acc[0] = 1.0
    for a in zeros:
        acc = np.convolve(acc, factor_oracle(a, N))[: N + 1]
    return acc


def poly_from_roots(rng, roots):
    scale = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return CoeffSeries(scale * np.poly(roots)[::-1])


# ------------------------------------------------------------ the expansion

def test_single_zero_pinned_expansion():
    b = blaschke_series([0.5], 2)
    assert np.allclose(b.coeffs, [0.5, -0.75, -0.375], atol=1e-15)
    assert b.tail_bound > 0.0


def test_empty_product_is_one():
    b = blaschke_series([], 8)
    assert np.allclose(b.coeffs, [1.0])
    assert b.tail_bound == 0.0


def test_zero_at_origin_is_z():
    b = blaschke_series([0.0], 4)
    assert np.allclose(b.coeffs, [0.0, 1.0, 0.0, 0.0, 0.0])
    assert b.tail_bound == 0.0


def test_zeros_outside_disc_rejected():
    with pytest.raises(InvalidInputError):
        blaschke_series([1.0], 8)
    with pytest.raises(InvalidInputError):
        blaschke_series([0.3, 1.2j], 8)
    with pytest.raises(InvalidParameterError):
        blaschke_series([0.1, 0.2, 0.3], 2)


def test_expansion_matches_convolution_oracle():
    rng = np.random.default_rng(60)
    for _ in range(20):
        count = int(rng.integers(1, 5))
        zeros = rng.uniform(0.0, 0.8, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        zeros = [0.0 if abs(z) < 0.05 else complex(z) for z in zeros]
        got = blaschke_series(zeros, 48)
        assert np.allclose(got.coeffs, product_oracle(zeros, 48), atol=1e-12)


def test_truncation_norm_and_boundary_modulus():
    rng = np.random.default_rng(61)
    for _ in range(10):
        count = int(rng.integers(1, 4))
        zeros = rng.uniform(0.1, 0.7, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        b = blaschke_series(list(zeros), 256)
        norm = np.linalg.norm(b.coeffs)
        assert norm <= 1.0 + 1e-12             # the full product has unit norm
        assert norm >= 1.0 - b.tail_bound - 1e-12
        mods = np.abs(eval_on_circle_grid(b, 12))
        slack = b.tail_bound + 1e-10
        assert np.max(mods) <= 1.0 + slack
        assert np.min(mods) >= 1.0 - slack


# ------------------------------------------------------------ inner / outer

def test_split_of_z_minus_half():
    fac = polynomial_inner_outer(CoeffSeries([-0.5, 1.0]))
    assert np.allclose(fac.inner_zeros, [0.5], atol=1e-12)
    assert np.allclose(fac.outer.coeffs, [-1.0, 0.5], atol=1e-12)


def test_split_of_zero_free_polynomial_is_trivial():
    fac = polynomial_inner_outer(CoeffSeries([1.0, -0.5]))
    assert fac.inner_zeros == ()
    assert np.allclose(fac.outer.coeffs, [1.0, -0.5], atol=1e-12)


def test_split_of_z_and_of_constant():
    fac = polynomial_inner_outer(CoeffSeries([0.0, 1.0]))
    assert fac.inner_zeros == (0.0,)
    assert np.allclose(fac.outer.coeffs, [1.0])
    const = polynomial_inner_outer(CoeffSeries([2.5j]))
    assert const.inner_zeros == ()
    assert np.allclose(const.outer.coeffs, [2.5j])


def test_split_reconstructs_and_outer_is_zero_free():
    rng = np.random.default_rng(62)
    for trial in range(12):
        inside = int(rng.integers(0, 3))
        outside = int(rng.integers(1, 4))
        roots = np.concatenate([
            rng.uniform(0.05, 0.9, inside) * np.exp(1j * rng.uniform(0, 2 * np.pi, inside)),
            rng.uniform(1.1, 3.0, outside) * np.exp(1j * rng.uniform(0, 2 * np.pi, outside)),
        ])
        p = poly_from_roots(rng, roots)
        fac = polynomial_inner_outer(p)
        assert len(fac.inner_zeros) == inside

        got = np.sort_complex(np.asarray(fac.inner_zeros))
        want = np.sort_complex(roots[:inside])
        assert np.allclose(got, want, atol=1e-7)

        for r in np.roots(fac.outer.coeffs[::-1]):
            assert abs(r) > 1.0 - 1e-6

        B = blaschke_series(list(fac.inner_zeros), 256)
        prod = multiply(B, fac.outer, max_degree=256 + len(fac.outer.coeffs))
        k = len(p.coeffs)
        assert np.allclose(prod.coeffs[:k], p.coeffs, atol=1e-10)
        assert np.max(np.abs(prod.coeffs[k:]), initial=0.0) < 1e-10

        scale = np.max(np.abs(p.coeffs))
        p_mod = np.abs(eval_on_circle_grid(p, 12))
        o_mod = np.abs(eval_on_circle_grid(fac.outer, 12))
        assert np.max(np.abs(p_mod - o_mod)) < 1e-8 * max(1.0, scale)


def test_roots_near_circle_are_refused():
    with pytest.raises(BoundaryRootError):
        polynomial_inner_outer(CoeffSeries([1.0, -1.0]))
    with pytest.raises(BoundaryRootError):
        polynomial_inner_outer(CoeffSeries([-(1.0 + 1e-10), 1.0]))
    # a root a comfortable 1e-6 outside splits fine
    polynomial_inner_outer(CoeffSeries([-(1.0 + 1e-6), 1.0]))


def test_degenerate_inputs_rejected():
    with pytest.raises(InvalidInputError):
        polynomial_inner_outer(CoeffSeries([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        polynomial_inner_outer(CoeffSeries([1.0, -0.5], tail_bound=1e-8))
