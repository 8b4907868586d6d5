"""Series arithmetic checked against direct convolution and pointwise exp.

The reference implementations here are deliberately naive: numpy's full
convolution for products, math.factorial for the exponential, numpy roots
for zero placement.  The library must agree with them, not the other way
around.
"""

import math

import numpy as np
import pytest

from opalab import (
    CoeffSeries,
    InvalidInputError,
    InvalidParameterError,
    dilate,
    evaluate,
    exp_series,
    multiply,
    zero_free_on_closed_disc,
)
from opalab.series import eval_on_circle_grid


def product_oracle(a, b):
    """Untruncated Cauchy product straight from numpy."""
    return np.convolve(np.asarray(a, complex), np.asarray(b, complex))


def random_poly(rng, deg, scale=1.0):
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    return CoeffSeries(scale * c)


def exp_recurrence(c, N):
    """Taylor coefficients of exp(sum c_k z^k) up to degree N, term by term.

    The derivative recurrence n b_n = sum_{k=1..n} k c_k b_{n-k} with
    b_0 = exp(c_0): no grid, so no aliasing, only rounding.
    """
    c = np.asarray(c, dtype=np.complex128)
    ka = np.arange(len(c)) * c
    b = np.zeros(N + 1, dtype=np.complex128)
    b[0] = np.exp(c[0])
    for n in range(1, N + 1):
        m = min(n, len(c) - 1)
        b[n] = np.dot(ka[1 : m + 1], b[n - 1 : n - m - 1 if n > m else None : -1]) / n
    return b


def poly_from_roots(roots, lead=1.0):
    """Coefficients of lead * prod (z - r), ascending order."""
    c = np.atleast_1d(np.poly(np.asarray(roots, complex)))[::-1]
    return CoeffSeries(lead * c)


# ---------------------------------------------------------------- multiply

def test_multiply_difference_of_squares():
    p = multiply(CoeffSeries([1.0, 1.0]), CoeffSeries([1.0, -1.0]))
    assert np.allclose(p.coeffs, [1.0, 0.0, -1.0], atol=1e-15)
    assert p.tail_bound == 0.0


def test_multiply_by_one_is_identity():
    rng = np.random.default_rng(11)
    a = random_poly(rng, 7)
    p = multiply(a, CoeffSeries([1.0]))
    assert np.array_equal(p.coeffs, a.coeffs)


def test_multiply_square_of_one_minus_z():
    p = multiply(CoeffSeries([1.0, -1.0, 0.0]), CoeffSeries([1.0, -1.0, 0.0]))
    assert np.allclose(p.coeffs[:3], [1.0, -2.0, 1.0], atol=1e-15)
    assert np.allclose(p.coeffs[3:], 0.0, atol=1e-15)


def test_multiply_matches_convolution():
    rng = np.random.default_rng(12)
    for _ in range(25):
        da, db = rng.integers(0, 9, size=2)
        a, b = random_poly(rng, da), random_poly(rng, db)
        want = product_oracle(a.coeffs, b.coeffs)
        got = multiply(a, b, max_degree=da + db)
        assert np.allclose(got.coeffs, want, atol=1e-14)
        assert got.tail_bound == 0.0


def test_multiply_default_degree_policy_records_cut_mass():
    # Products past max_degree are not lost silently: the l2 mass of the cut
    # coefficients lands in the tail bound.  With no max_degree the product
    # is the full one.
    rng = np.random.default_rng(13)
    a = random_poly(rng, 200)
    b = random_poly(rng, 200)
    full = product_oracle(a.coeffs, b.coeffs)
    p = multiply(a, b, max_degree=256)
    assert p.truncation_degree == 256
    assert p.tail_bound == pytest.approx(float(np.linalg.norm(full[257:])), rel=1e-12)
    exact = multiply(a, b)
    assert np.array_equal(exact.coeffs, full)
    assert exact.tail_bound == 0.0


def test_multiply_commutative_and_associative():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = random_poly(rng, int(rng.integers(0, 9)))
        b = random_poly(rng, int(rng.integers(0, 9)))
        c = random_poly(rng, int(rng.integers(0, 9)))
        ab = multiply(a, b, max_degree=32)
        ba = multiply(b, a, max_degree=32)
        assert np.allclose(ab.coeffs, ba.coeffs, atol=1e-12)
        left = multiply(ab, c, max_degree=32)
        right = multiply(a, multiply(b, c, max_degree=32), max_degree=32)
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_multiply_rejects_negative_max_degree():
    with pytest.raises(InvalidParameterError):
        multiply(CoeffSeries([1.0]), CoeffSeries([1.0]), max_degree=-1)


# -------------------------------------------------------------- exp_series

def test_exp_of_z_gives_factorial_reciprocals():
    e = exp_series(CoeffSeries([0.0, 1.0]), 12)
    want = [1.0 / math.factorial(k) for k in range(13)]
    assert np.allclose(e.coeffs, want, rtol=1e-14)


def test_exp_of_zero_and_of_log_constant():
    assert np.allclose(exp_series(CoeffSeries([0.0]), 4).coeffs, [1, 0, 0, 0, 0])
    shifted = exp_series(CoeffSeries([math.log(2.0), 0.0]), 4)
    assert shifted.coeffs[0] == pytest.approx(2.0, rel=1e-15)
    assert np.allclose(shifted.coeffs[1:], 0.0, atol=1e-15)


def test_exp_matches_pointwise_exponential_inside_disc():
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = random_poly(rng, 6, scale=0.5)
        e = exp_series(a, 96)
        for z in (0.3 + 0.4j, -0.55j, 0.8):
            want = np.exp(evaluate(a, z))
            assert abs(evaluate(e, z) - want) < 1e-10


def test_exp_times_exp_of_negation_is_one():
    rng = np.random.default_rng(16)
    for _ in range(12):
        a = random_poly(rng, int(rng.integers(0, 9)))
        p = multiply(exp_series(a, 64), exp_series(-a, 64), max_degree=64)
        assert abs(p.coeffs[0] - 1.0) < 1e-10
        assert np.max(np.abs(p.coeffs[1:])) < 1e-10


def test_exp_rejects_negative_degree():
    with pytest.raises(InvalidParameterError):
        exp_series(CoeffSeries([0.0, 1.0]), -2)


@pytest.mark.parametrize("N", [64, 1024, 4096])
def test_exp_matches_the_recurrence_on_needle_shaped_inputs(N):
    # the shipped multipliers exp(F) have F of degree N/2 with sum |F_k|
    # near 4; the default grid must leave no visible aliasing there
    rng = np.random.default_rng(N)
    c = rng.normal(size=N // 2 + 1) + 1j * rng.normal(size=N // 2 + 1)
    c *= 4.0 / np.sum(np.abs(c))
    want = exp_recurrence(c, N)
    got = exp_series(CoeffSeries(c), N).coeffs
    assert len(got) == N + 1
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_exp_on_a_given_grid_is_the_grid_spectrum():
    rng = np.random.default_rng(19)
    a = random_poly(rng, 40, scale=0.1)
    N, q = 50, 9
    want = np.fft.fft(np.exp(eval_on_circle_grid(a, q)))[: N + 1] / 2**q
    assert np.array_equal(exp_series(a, N, q).coeffs, want)


def test_exp_rejects_a_degree_past_the_grid():
    with pytest.raises(InvalidParameterError):
        exp_series(CoeffSeries([0.0, 1.0]), 16, 4)


def test_exp_tail_bound_is_the_grid_mass_past_the_degree():
    # exp(z) at N = 3 reads off the default grid G = 16, whose spectrum is
    # 1/k! for k < G (aliasing adds 1/(k+16)! and less, below 1e-17 relative)
    e = exp_series(CoeffSeries([0.0, 1.0]), 3)
    want = math.sqrt(sum(1.0 / math.factorial(k) ** 2 for k in range(4, 16)))
    assert e.tail_bound == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------- evaluate

def test_evaluate_small_cases():
    assert evaluate(CoeffSeries([1.0, -1.0]), 1j) == pytest.approx(1 - 1j)
    rng = np.random.default_rng(17)
    a = random_poly(rng, 5)
    assert evaluate(a, 0.0) == a.coeffs[0]
    assert evaluate(CoeffSeries([1.0, 1.0, 1.0]), 1.0) == pytest.approx(3.0)


def test_evaluate_on_an_array_equals_pointwise_calls():
    # callers evaluate at all points of E at once; the Horner arithmetic is
    # the same per point, so the values are identical, not just close
    rng = np.random.default_rng(18)
    zs = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    for n in (1, 7, 3000):
        a = random_poly(rng, n)
        assert np.array_equal(evaluate(a, zs), [evaluate(a, z) for z in zs])


def horner_oracle(c, z):
    """One coefficient at a time, from the top: the pre-blocked evaluator."""
    acc = np.full(np.shape(z), c[-1], dtype=np.complex128)
    for ck in c[-2::-1]:
        acc = acc * z + ck
    return acc


def test_evaluate_at_high_degree_matches_direct_sum_and_horner():
    # Degree 2**17 + 9: rows of 362, the second Horner pass is 363 long.
    rng = np.random.default_rng(22)
    a = random_poly(rng, (1 << 17) + 9, scale=1e-3)
    c = a.coeffs
    k = np.arange(len(c))
    angles = np.array([0.0, 1.0, np.pi / 2, 2.5, -3.0])
    direct = np.array([np.dot(c, np.exp(1j * k * t)) for t in angles])
    on_circle = evaluate(a, np.exp(1j * angles))
    assert np.max(np.abs(on_circle - direct)) < 1e-12 * np.sum(np.abs(c))
    inside = np.array([0.0, 0.5, -0.3 + 0.8j, 0.99j, 0.999 * np.exp(2j)])
    want = horner_oracle(c, inside)
    assert np.max(np.abs(evaluate(a, inside) - want)) < 1e-13 * np.sum(np.abs(c))
    assert evaluate(a, 0.0) == c[0]


# ------------------------------------------------------------------ dilate

def test_dilate_scales_coefficients_geometrically():
    d = dilate(CoeffSeries([1.0, 1.0]), 0.5)
    assert np.allclose(d.coeffs, [1.0, 0.5])
    d2 = dilate(CoeffSeries([0.0, 0.0, 4.0]), 0.5)
    assert np.allclose(d2.coeffs, [0.0, 0.0, 1.0])


def test_dilate_identity_at_radius_one():
    rng = np.random.default_rng(18)
    a = random_poly(rng, 6)
    assert np.array_equal(dilate(a, 1.0).coeffs, a.coeffs)


def test_dilate_commutes_with_argument_scaling():
    rng = np.random.default_rng(19)
    a = random_poly(rng, 8)
    for r in (0.3, 0.77, 1.0):
        for z in (0.9, -0.2 + 0.6j, 1j):
            assert evaluate(dilate(a, r), z) == pytest.approx(evaluate(a, r * z), abs=1e-14)


def test_dilate_shrinks_tail_bound():
    a = CoeffSeries([1.0, 1.0], tail_bound=1.0)
    assert dilate(a, 0.5).tail_bound == pytest.approx(0.5**2)


@pytest.mark.parametrize("r", [0.0, -0.5, 1.5, float("nan")])
def test_dilate_rejects_bad_radius(r):
    with pytest.raises(InvalidParameterError):
        dilate(CoeffSeries([1.0]), r)


# --------------------------------------------- zero_free_on_closed_disc

def test_zero_free_three_hand_cases():
    ok = zero_free_on_closed_disc(CoeffSeries([1.0, -0.5]))
    assert ok.zero_free and ok.winding_number == 0 and ok.min_modulus_on_circle > 0

    inside = zero_free_on_closed_disc(CoeffSeries([1.0, -2.0]))
    assert not inside.zero_free

    on_circle = zero_free_on_closed_disc(CoeffSeries([1.0, -1.0]))
    assert not on_circle.zero_free


def test_zero_free_tracks_root_placement():
    rng = np.random.default_rng(20)
    for trial in range(100):
        deg = int(rng.integers(1, 7))
        radii = rng.uniform(1.05, 3.0, deg)
        angles = rng.uniform(0, 2 * np.pi, deg)
        roots = radii * np.exp(1j * angles)
        if trial % 2 == 1:
            # pull one root inside the disc
            roots[0] = rng.uniform(0.05, 0.95) * np.exp(1j * angles[0])
        p = poly_from_roots(roots, lead=complex(rng.uniform(0.5, 2.0)))
        report = zero_free_on_closed_disc(p)
        should_be_free = trial % 2 == 0
        assert report.zero_free == should_be_free, (trial, roots)
        if report.zero_free:
            assert report.winding_number == 0
            assert report.min_modulus_on_circle > 0


def test_zero_free_margin_covers_fft_rounding():
    # (1 + delta) - z has its smallest grid modulus delta at z = 1 and
    # L = 1.  On the 2**14 grid delta clears L * dtheta by 2e-14, less
    # than the rounding allowance of the grid values, so that grid must
    # not certify: the grid escalates, or at the cap the report is
    # indeterminate.
    q = 14
    G = 1 << q
    delta = 2.0 * np.pi / G + 2e-14
    p = CoeffSeries([1.0 + delta, -1.0])
    m = float(np.min(np.abs(eval_on_circle_grid(p, q))))
    rho = 8.0 * np.finfo(float).eps * q * (2.0 + delta)
    assert 2.0 * np.pi / G < m < 2.0 * np.pi / G + rho

    report = zero_free_on_closed_disc(p, grid_log2=q)
    assert report.grid_size > G
    assert report.zero_free and not report.indeterminate
    capped = zero_free_on_closed_disc(p, grid_log2=q, cap_log2=q)
    assert capped.indeterminate and not capped.zero_free


def test_zero_free_rejects_degenerate_inputs():
    with pytest.raises(InvalidInputError):
        zero_free_on_closed_disc(CoeffSeries([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        zero_free_on_closed_disc(CoeffSeries([1.0, 0.5], tail_bound=0.1))


# ------------------------------------------------------- CoeffSeries type

def test_coeff_series_validation():
    with pytest.raises(InvalidInputError):
        CoeffSeries([])
    with pytest.raises(InvalidInputError):
        CoeffSeries([1.0, float("inf")])
    with pytest.raises(InvalidParameterError):
        CoeffSeries([1.0], tail_bound=-0.5)
    a = CoeffSeries([1.0, 2.0, 3.0])
    assert a.truncation_degree == 2
    assert a.is_exact_polynomial()
    assert not CoeffSeries([1.0], tail_bound=0.25).is_exact_polynomial()


def test_grid_evaluation_folds_high_degrees():
    # Values on the 2**q roots of unity are exact even when the polynomial
    # degree exceeds the grid, because z**G = 1 there.
    rng = np.random.default_rng(21)
    a = random_poly(rng, 40)
    vals = eval_on_circle_grid(a, 4)
    zs = np.exp(2j * np.pi * np.arange(16) / 16)
    direct = np.array([evaluate(a, z) for z in zs])
    assert np.allclose(vals, direct, atol=1e-12)
