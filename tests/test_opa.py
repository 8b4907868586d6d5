"""Reciprocal least-squares approximants against a from-scratch solver.

The reference below assembles the normal equations by shifting coefficient
vectors and summing the defining weighted products, then solves with
numpy's generic lstsq.  No code is shared with the library's Gram or
Levinson paths, so agreement is meaningful.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalab import (
    AlphaWeight,
    BoundarySet,
    CoeffSeries,
    IllConditionedError,
    InvalidInputError,
    InvalidParameterError,
    blaschke_series,
    convergence_profile,
    evaluate,
    gram_matrix,
    multiply,
    opa_search_m,
    opa_solve,
)
from opalab.opa import residual_projection

H2 = AlphaWeight(0.0)
DIR = AlphaWeight(1.0)


def weighted_design(f_coeffs, n, alpha):
    """Matrix of q -> q f (deg q <= n) in the weighted l2 metric, and the
    weighted coefficient vector of the constant 1."""
    f = np.asarray(f_coeffs, complex)
    L = len(f) + n
    weights = np.sqrt((np.arange(L) + 1.0) ** alpha)
    design = np.zeros((L, n + 1), complex)
    for j in range(n + 1):
        design[j : j + len(f), j] = f
    target = np.zeros(L, complex)
    target[0] = 1.0
    return design * weights[:, None], target * weights


def normal_equations_oracle(f_coeffs, n, alpha):
    """Solve min ||q f - 1|| for deg q <= n by explicit least squares.

    Returns (coefficients, residual).  Built on the design matrix of the
    map q -> q f in the weighted l2 metric, which avoids even forming the
    Gram matrix the library uses.
    """
    design, target = weighted_design(f_coeffs, n, alpha)
    A, *_ = np.linalg.lstsq(design, target, rcond=None)
    return A, float(np.linalg.norm(design @ A - target))


def oracle_gram(f_coeffs, n, alpha):
    design, _ = weighted_design(f_coeffs, n, alpha)
    return design.conj().T @ design


def closed_form_reciprocal_of_one_minus_z(n):
    coeffs = np.array([1.0 - (k + 1.0) / (n + 2.0) for k in range(n + 1)])
    return coeffs, 1.0 / (n + 2.0)


def random_poly(rng, deg, nonzero_at_origin=True):
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    if nonzero_at_origin and abs(c[0]) < 0.2:
        c[0] += 0.5
    return CoeffSeries(c)


# -------------------------------------------------------------- gram system

def test_gram_of_one_minus_z_alpha0():
    g = gram_matrix(CoeffSeries([1.0, -1.0]), 1, H2)
    assert np.allclose(g.M, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-14)
    assert np.allclose(g.C, [1.0, 0.0], atol=1e-15)


def test_gram_of_one_minus_z_alpha1():
    g = gram_matrix(CoeffSeries([1.0, -1.0]), 1, DIR)
    assert np.allclose(g.M, [[3.0, -2.0], [-2.0, 5.0]], atol=1e-14)
    assert np.allclose(g.C, [1.0, 0.0], atol=1e-15)
    assert g.M[0, 0] != g.M[1, 1]      # the weight breaks the shift symmetry


def test_gram_of_constant_one_is_identity():
    g = gram_matrix(CoeffSeries([1.0]), 4, H2)
    assert np.allclose(g.M, np.eye(5), atol=1e-15)
    assert np.allclose(g.C, [1, 0, 0, 0, 0], atol=1e-15)


def test_gram_structure_on_random_polynomials():
    rng = np.random.default_rng(50)
    for _ in range(20):
        f = random_poly(rng, int(rng.integers(1, 11)), nonzero_at_origin=False)
        n = int(rng.integers(0, 7))
        g0 = gram_matrix(f, n, H2)
        assert np.max(np.abs(g0.M - g0.M.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(g0.M)) > 0.0
        for d in range(n):
            assert np.max(np.abs(np.diag(g0.M, d)[:-1] - np.diag(g0.M, d)[1:])) < 1e-12
        g1 = gram_matrix(f, n, DIR)
        assert np.max(np.abs(g1.M - g1.M.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(g1.M)) > 0.0


# ---------------------------------------------------------------- opa_solve

def test_solver_agrees_with_lstsq_reference():
    rng = np.random.default_rng(51)
    for alpha in (0.0, 1.0):
        w = AlphaWeight(alpha)
        for _ in range(10):
            f = random_poly(rng, int(rng.integers(1, 9)))
            n = int(rng.integers(0, 9))
            want_A, want_res = normal_equations_oracle(f.coeffs, n, alpha)
            got = opa_solve(f, n, w)
            assert np.allclose(got.Q.coeffs, want_A, atol=1e-9)
            assert got.residual == pytest.approx(want_res, abs=1e-9)


def test_one_minus_z_closed_form_small_orders():
    f = CoeffSeries([1.0, -1.0])
    r1 = opa_solve(f, 1, H2)
    assert np.allclose(r1.Q.coeffs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert r1.residual**2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    r0 = opa_solve(f, 0, H2)
    assert r0.Q.coeffs[0] == pytest.approx(0.5, abs=1e-12)
    assert r0.residual**2 == pytest.approx(0.5, abs=1e-12)
    # and the lstsq reference reproduces the closed form too
    A, res = normal_equations_oracle(f.coeffs, 5, 0.0)
    want, want_res2 = closed_form_reciprocal_of_one_minus_z(5)
    assert np.allclose(A, want, atol=1e-12)
    assert res**2 == pytest.approx(want_res2, abs=1e-12)


def test_vanishing_at_origin_returns_zero_approximant():
    r = opa_solve(CoeffSeries([0.0, 1.0]), 3, H2)
    assert np.allclose(r.Q.coeffs, 0.0)
    assert r.residual == pytest.approx(1.0)


def test_zero_polynomial_rejected():
    with pytest.raises(InvalidInputError):
        opa_solve(CoeffSeries([0.0, 0.0, 0.0]), 2, H2)


def test_truncated_input_needs_degree_margin():
    short = CoeffSeries(np.ones(16), tail_bound=1e-6)
    with pytest.raises(InvalidParameterError):
        opa_solve(short, 4, H2)
    padded = CoeffSeries(np.ones(200), tail_bound=1e-6)
    opa_solve(padded, 4, H2)       # enough stored coefficients, accepted


def test_residual_identities_and_range():
    rng = np.random.default_rng(52)
    for _ in range(15):
        f = random_poly(rng, int(rng.integers(1, 9)))
        r = opa_solve(f, int(rng.integers(0, 8)), H2)
        assert 0.0 <= r.residual <= 1.0 + 1e-12
        assert abs(r.residual - residual_projection(r, f)) < 1e-10


def test_residual_monotone_in_order():
    rng = np.random.default_rng(53)
    for _ in range(8):
        f = random_poly(rng, int(rng.integers(1, 7)))
        res = [opa_solve(f, n, H2).residual for n in range(13)]
        assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))


def test_scalar_covariance():
    rng = np.random.default_rng(54)
    f = random_poly(rng, 6)
    for c in (2.0, -0.5 + 1.25j, 3j):
        base = opa_solve(f, 5, H2).Q.coeffs
        scaled = opa_solve(CoeffSeries(c * f.coeffs), 5, H2).Q.coeffs
        assert np.allclose(scaled, base / c, atol=1e-10)


def test_inner_multiplier_factors_out():
    # Multiplying f by a unit-modulus product with B(0) != 0 rescales the
    # approximant by conj(B(0)) and nothing else.
    rng = np.random.default_rng(55)
    for _ in range(5):
        f = random_poly(rng, int(rng.integers(1, 6)))
        zeros = rng.uniform(0.2, 0.7, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        B = blaschke_series(list(zeros), 256)
        fB = multiply(f, B, max_degree=256 + f.truncation_degree)
        sigma = np.conj(evaluate(B, 0.0))
        for n in (0, 3, 7, 10):
            lhs = opa_solve(fB, n, H2).Q.coeffs
            rhs = sigma * opa_solve(f, n, H2).Q.coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-6 + 10 * fB.tail_bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=9,
    ),
    f0=st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5, allow_nan=False),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    n_max=st.integers(0, 10),
)
def test_every_order_matches_the_reference(coeffs, f0, alpha, n_max):
    c = np.asarray([f0] + coeffs[1:], complex)
    f = CoeffSeries(c)
    w = AlphaWeight(alpha)
    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    rows = convergence_profile(f, n_max, w, BoundarySet.from_points(list(np.angle(zs))), [0.5j])
    for n in range(n_max + 1):
        want_A, want_res = normal_equations_oracle(c, n, alpha)
        got = opa_solve(f, n, w)
        assert np.max(np.abs(got.Q.coeffs - want_A)) < 1e-9
        assert got.residual == pytest.approx(want_res, abs=1e-9)
        assert rows[n]["residual"] == pytest.approx(want_res, abs=1e-9)
        want_q = np.polynomial.polynomial.polyval(zs, want_A)
        want_sup = np.max(np.abs(want_q - 1.0 / np.polynomial.polynomial.polyval(zs, c)))
        assert rows[n]["sup_circle"] == pytest.approx(want_sup, abs=1e-9)


def test_condition_estimate_tracks_the_reference_gram():
    rng = np.random.default_rng(57)
    cases = [(random_poly(rng, int(rng.integers(1, 9))).coeffs, int(rng.integers(0, 33)), alpha)
             for alpha in (0.0, 1.0) for _ in range(10)]
    cases += [(np.polynomial.polynomial.polypow([1.0, -1.0], k), n, 0.0)
              for k in range(1, 9) for n in (4, 16, 32)]
    for c, n, alpha in cases:
        gram = oracle_gram(c, n, alpha)
        want = np.linalg.cond(gram)
        got = opa_solve(CoeffSeries(c), n, AlphaWeight(alpha)).condition_estimate
        assert want / (10 * (n + 1)) <= got <= want * 10 * (n + 1)
        # onenormest bounds ||M^{-1}||_1 from below, so the estimate cannot
        # exceed the exact 1-norm condition number beyond rounding
        assert got <= np.linalg.cond(gram, 1) * 1.001


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_estimate_survives_subnormal_solve_entries():
    # At this order one solve of the estimator returns a subnormal entry;
    # unflushed, it overflows into NaN in the next probe vector.
    c = [1.0, -0.5, 0.25]
    got = opa_solve(CoeffSeries(c), 1024, AlphaWeight(0.5)).condition_estimate
    want = np.linalg.cond(oracle_gram(c, 1024, 0.5), 1)
    assert np.isfinite(got)
    assert got == pytest.approx(want, rel=1e-8)


def test_flat_boundary_zero_is_refused_as_ill_conditioned():
    f = CoeffSeries(np.polynomial.polynomial.polypow([1.0, -1.0], 10))
    with pytest.raises(IllConditionedError):
        opa_solve(f, 64, H2)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hardy_walks_allocate_no_gram_matrix():
    # One (n+1) x (n+1) complex matrix takes 16 (n+1)^2 bytes; at alpha = 0
    # the walks over the orders stay linear in the order.
    f = CoeffSeries([1.0, -0.99])
    n = 2048
    probes = BoundarySet.from_points([0.0, 1.0])
    for call in (lambda: opa_solve(f, n, H2), lambda: convergence_profile(f, n, H2, probes, [0.5])):
        _, peak = _peak_bytes(call)
        assert peak < (n + 1) ** 2
    E = BoundarySet.from_points([0.0])
    m, peak = _peak_bytes(lambda: opa_search_m(f, [100.0], E, 1e-3, H2))
    assert m > 1000 and peak < (m + 1) ** 2


# ------------------------------------------------------ convergence_profile

def test_profile_of_constant_one_is_exact_everywhere():
    rows = convergence_profile(
        CoeffSeries([1.0]), 4, H2, BoundarySet.from_points([0.0, 1.0]), [0.0, 0.5j]
    )
    assert len(rows) == 5
    for row in rows:
        assert row["sup_circle"] == pytest.approx(0.0, abs=1e-14)
        assert row["max_interior"] == pytest.approx(0.0, abs=1e-14)


def test_profile_interior_error_follows_closed_form():
    rows = convergence_profile(
        CoeffSeries([1.0, -1.0]), 12, H2, BoundarySet.from_points([np.pi]), [0.0]
    )
    for row in rows:
        want = 1.0 / (row["n"] + 2.0)
        assert row["max_interior"] == pytest.approx(want, abs=1e-10)


def test_profile_circle_crossing_for_zero_free_polynomial():
    # Pinned when this suite was first assembled: the sup error at angle 0
    # first dips under 1e-3 at order 11 and never rises afterwards.
    rows = convergence_profile(
        CoeffSeries([1.0, -0.5]), 64, H2, BoundarySet.from_points([0.0]), [0.0]
    )
    sups = [row["sup_circle"] for row in rows]
    crossing = next(n for n, s in enumerate(sups) if s < 1e-3)
    assert crossing == 11
    tail = sups[crossing:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
