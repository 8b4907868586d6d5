"""Boundary profiles, harmonic completion, peak functions, arc capacities.

The completion oracle here never touches Fourier coefficients: it
integrates the boundary profile against the explicit Poisson kernel with
the periodic trapezoid rule and compares interior values directly.  The
equilibrium oracle is projected gradient descent on the simplex, run
against the same discrete energy.
"""

import numpy as np
import pytest
import scipy.linalg

from opalab import (
    BoundaryFunction,
    BoundarySet,
    ConstructionError,
    IllConditionedError,
    InvalidInputError,
    InvalidParameterError,
    ResolutionExceededError,
    analytic_completion,
    bump_profile,
    dirichlet_rudin,
    equilibrium_measure,
    evaluate,
    fejer_mean,
    hardy_rudin,
    neighborhood,
)
from opalab import opa
from opalab.series import eval_on_circle_grid

E0 = BoundarySet.from_points([0.0])
loud = pytest.mark.filterwarnings("error::RuntimeWarning")


def poisson_oracle(u, r, theta):
    """Interior harmonic extension via direct kernel quadrature."""
    G = len(u.grid_values)
    t = np.arange(G) * (2.0 * np.pi / G)
    kernel = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(theta - t) + r * r)
    return float(np.mean(kernel * u.grid_values))


def grid_values(series, grid_log2):
    """Exact values of a coefficient series on the 2**grid_log2 circle grid."""
    return eval_on_circle_grid(series, grid_log2)


def energy_matrix(nodes):
    """A = -log|x_i - x_j| off the diagonal, minus log(half the nearest gap) on it."""
    x = np.exp(1j * nodes)
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    A = -np.log(np.where(np.isinf(dist), 1.0, dist))
    np.fill_diagonal(A, -np.log(0.5 * dist.min(axis=1)))
    return A


def project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0.0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def projected_gradient_oracle(A, iterations=2000):
    """Minimize w^T A w on the simplex by projected gradient steps of 1/(2.2 L)."""
    L = np.linalg.norm(A, 2)
    w = np.full(len(A), 1.0 / len(A))
    for _ in range(iterations):
        w = project_simplex(w - (2.0 / (2.2 * L)) * (A @ w))
    return w


# ----------------------------------------------------------------- profiles

def test_bump_empty_peak_set_is_zero():
    u = bump_profile(BoundarySet(), BoundarySet.full_circle(), 12.0, 0.05, 10)
    assert not np.any(u.grid_values)


def test_bump_height_mass_and_support():
    U = neighborhood(E0, 0.4)
    u = bump_profile(E0, U, 12.0, 0.05, 12)
    assert u.grid_values[0] == pytest.approx(12.0, abs=1e-12)
    assert u.mass < 0.05
    theta = np.arange(1 << 12) * (2.0 * np.pi / (1 << 12))
    gap = np.minimum(theta, 2.0 * np.pi - theta)
    assert not np.any(u.grid_values[gap > 0.4])


def test_bump_support_shrinks_when_peak_doubles():
    U = neighborhood(E0, 0.5)
    lo = bump_profile(E0, U, 12.0, 0.01, 14)
    hi = bump_profile(E0, U, 24.0, 0.01, 14)
    assert lo.mass < 0.01 and hi.mass < 0.01
    ratio = np.count_nonzero(hi.grid_values) / np.count_nonzero(lo.grid_values)
    assert 0.4 < ratio < 0.6


def test_bump_needs_enough_grid_cells():
    with pytest.raises(ResolutionExceededError):
        bump_profile(E0, neighborhood(E0, 0.4), 12.0, 1e-4, 6)
    with pytest.raises(InvalidParameterError):
        bump_profile(E0, neighborhood(E0, 0.4), -1.0, 0.05, 10)
    with pytest.raises(InvalidInputError):
        bump_profile(BoundarySet(arcs=((0.0, 0.1),)), BoundarySet.full_circle(), 2.0, 0.1, 10)


def test_profile_type_rejects_negative_values():
    with pytest.raises(InvalidInputError):
        BoundaryFunction(np.cos(np.arange(256) * (2 * np.pi / 256)), 8)
    with pytest.raises(InvalidInputError):
        BoundaryFunction(np.ones(100), 8)


def test_fejer_mean_keeps_mass_and_sign_and_lowers_peak():
    u = bump_profile(E0, neighborhood(E0, 0.4), 12.0, 0.05, 12)
    d = fejer_mean(u, 512)
    assert d.mass == pytest.approx(u.mass, abs=1e-12)
    assert d.grid_values.min() >= 0.0
    assert d.grid_values[0] < u.grid_values[0]
    with pytest.raises(InvalidParameterError):
        fejer_mean(u, (1 << 11) + 1)


# --------------------------------------------------------------- completion

def test_completion_of_constant():
    F = analytic_completion(BoundaryFunction(np.ones(256), 8), 16)
    assert np.allclose(F.coeffs, [1.0] + [0.0] * 16, atol=1e-13)
    assert F.tail_bound < 1e-12


def test_completion_of_raised_cosine_and_linearity():
    # cos(theta) alone is not a valid nonnegative profile, so the cosine
    # coefficient is extracted from 1 + cos(theta) by subtracting the
    # constant's completion, which the linearity test justifies.
    G = 256
    theta = np.arange(G) * (2 * np.pi / G)
    F = analytic_completion(BoundaryFunction(1.0 + np.cos(theta), 8), 8)
    want = np.zeros(9)
    want[0] = 1.0
    want[1] = 1.0
    assert np.allclose(F.coeffs, want, atol=1e-13)

    rng = np.random.default_rng(70)
    a = BoundaryFunction(1.5 + np.cos(theta), 8)
    b = BoundaryFunction(rng.uniform(0.0, 1.0, G), 8)
    lin = analytic_completion(BoundaryFunction(2.0 * a.grid_values + 3.0 * b.grid_values, 8), 32)
    combo = 2.0 * analytic_completion(a, 32).coeffs + 3.0 * analytic_completion(b, 32).coeffs
    assert np.allclose(lin.coeffs, combo, atol=1e-12)


def test_completion_degree_capped_at_nyquist():
    with pytest.raises(InvalidParameterError):
        analytic_completion(BoundaryFunction(np.ones(256), 8), 129)


def test_completion_matches_poisson_kernel_quadrature():
    u = bump_profile(E0, neighborhood(E0, 0.5), 2.0, 0.3, 12)
    F = analytic_completion(u, 2048)
    r = 0.99
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        got = evaluate(F, r * np.exp(1j * theta)).real
        assert got == pytest.approx(poisson_oracle(u, r, theta), abs=1e-6)


def test_completion_real_part_stays_nonnegative_inside():
    u = bump_profile(E0, neighborhood(E0, 0.5), 3.0, 0.2, 12)
    F = analytic_completion(u, 2048)
    for r in (0.3, 0.9):
        z = r * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        assert np.min(evaluate(F, z).real) >= -1e-6


# ----------------------------------------------------------- peak functions

def test_hardy_peak_empty_set_is_zero_function():
    rf = hardy_rudin(BoundarySet(), BoundarySet.full_circle(), 0.05, 12.0)
    assert np.allclose(rf.h.coeffs, 0.0)
    assert rf.certified.sup_bound == 0.0


def test_hardy_peak_single_point_certificate():
    rf = hardy_rudin(E0, neighborhood(E0, 0.2), 0.05, 8.0)
    assert rf.certified.sup_bound <= 2.0 + 1e-6
    assert rf.certified.off_neighborhood_sup < 0.05
    assert rf.certified.peak_deviation < np.exp(-8.0) + 1e-4
    vals = grid_values(rf.h, 12)
    assert np.max(np.abs(vals)) <= rf.certified.sup_bound + 1e-9
    assert abs(vals[0] - 1.0) <= rf.certified.peak_deviation + 1e-12


def test_hardy_peak_two_points_small_between():
    E = BoundarySet.from_points([0.0, np.pi / 2])
    rf = hardy_rudin(E, neighborhood(E, 0.1), 0.01, 12.0)
    vals = grid_values(rf.h, 12)
    G = 1 << 12
    assert abs(vals[G // 2]) < 0.01            # angle pi sits far from both peaks
    assert abs(vals[0] - 1.0) < 2e-4
    assert abs(vals[G // 4] - 1.0) < 2e-4


def test_hardy_peak_deviation_improves_with_height():
    lo = hardy_rudin(E0, neighborhood(E0, 0.2), 0.05, 8.0)
    hi = hardy_rudin(E0, neighborhood(E0, 0.2), 0.05, 12.0)
    assert hi.certified.peak_deviation < lo.certified.peak_deviation


def test_hardy_peak_poisson_profile_variant():
    rf = hardy_rudin(E0, neighborhood(E0, 0.3), 0.3, 4.0, profile="poisson", max_degree=2048)
    assert rf.certified.sup_bound <= 2.0 + 1e-6
    assert rf.certified.off_neighborhood_sup < 0.3
    assert len(rf.h.coeffs) <= 2049
    with pytest.raises(InvalidParameterError):
        hardy_rudin(E0, neighborhood(E0, 0.3), 0.3, 4.0, profile="wavelet")


def test_hardy_peak_rejects_bad_domains():
    with pytest.raises(InvalidInputError):
        hardy_rudin(BoundarySet(arcs=((0.0, 0.2),)), BoundarySet.full_circle(), 0.05, 12.0)
    with pytest.raises(InvalidParameterError):
        hardy_rudin(E0, neighborhood(E0, 0.2), -0.05, 12.0)
    with pytest.raises(InvalidInputError):
        hardy_rudin(BoundarySet.from_points([1.0]), neighborhood(E0, 0.2), 0.05, 12.0)


def test_hardy_peak_damping_search_failure_carries_diagnostics():
    E = BoundarySet.from_points([0.0, np.pi / 2])
    with pytest.raises(ConstructionError) as info:
        hardy_rudin(E, neighborhood(E, 0.2), 0.01, 6.0)
    diag = info.value.diagnostics
    assert "damping-degree search" in diag["reason"]
    assert diag["best_damped_peak"] < diag["m_req"]
    assert diag["grids_tried"] and max(diag["grids_tried"]) <= 22


# ------------------------------------------------------------- equilibrium

@loud
def test_equilibrium_full_circle_is_uniform():
    mu = equilibrium_measure(BoundarySet.full_circle(), 512)
    assert np.max(np.abs(mu.weights - 1.0 / 512)) < 1e-6
    assert mu.capacity == pytest.approx(1.0, abs=2e-2)
    assert mu.capacity <= 1.0


@loud
def test_equilibrium_semicircle_capacity():
    mu = equilibrium_measure(BoundarySet(arcs=((0.0, np.pi / 2),)), 512)
    target = np.sin(np.pi / 4)
    assert abs(mu.capacity - target) / target < 0.03


@loud
@pytest.mark.parametrize("hw", [0.05, 0.3, 1.0, np.pi / 2, 2.5])
def test_equilibrium_capacity_overestimates_the_arc_closed_form(hw):
    # An arc of half-angle hw has capacity sin(hw/2) (Ransford, Potential
    # Theory in the Complex Plane, Table 5.1); the discrete estimate lies
    # above it, by less than 3%.
    mu = equilibrium_measure(BoundarySet(arcs=((0.7, hw),)), 512)
    bias = mu.capacity / np.sin(hw / 2.0) - 1.0
    assert 0.0 < bias < 0.03


@loud
def test_equilibrium_capacity_strictly_shrinks_with_the_arc():
    big = equilibrium_measure(BoundarySet(arcs=((0.0, np.pi / 2),)), 256)
    small = equilibrium_measure(BoundarySet(arcs=((0.0, np.pi / 4),)), 256)
    assert small.capacity < big.capacity


@loud
def test_equilibrium_weights_form_a_probability_vector():
    mu = equilibrium_measure(BoundarySet(arcs=((1.0, 0.7),)), 64)
    assert np.sum(mu.weights) == pytest.approx(1.0, abs=1e-12)
    assert np.min(mu.weights) >= -1e-15


@loud
def test_equilibrium_rejects_degenerate_inputs():
    with pytest.raises(InvalidInputError):
        equilibrium_measure(BoundarySet.from_points([0.0]), 64)
    with pytest.raises(InvalidParameterError):
        equilibrium_measure(BoundarySet.full_circle(), 4)


@loud
@pytest.mark.parametrize(
    "arcs, nodes",
    [
        (((1.0, 0.7),), 128),
        (((0.0, 0.3), (2.0, 0.5)), 64),
        (None, 128),
    ],
)
def test_equilibrium_is_the_exact_simplex_minimizer(arcs, nodes):
    E = BoundarySet.full_circle() if arcs is None else BoundarySet(arcs=arcs)
    mu = equilibrium_measure(E, nodes)
    A = energy_matrix(mu.nodes)
    oracle = projected_gradient_oracle(A)
    assert mu.weights @ A @ mu.weights <= oracle @ A @ oracle + 1e-12
    assert np.min(mu.weights) > 0.0
    stationary = A @ mu.weights
    assert np.ptp(stationary) < 1e-10


@loud
def test_equilibrium_failed_factor_is_ill_conditioned(monkeypatch):
    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    with pytest.raises(IllConditionedError) as info:
        equilibrium_measure(BoundarySet(arcs=((1.0, 0.7),)), 64)
    assert info.value.diagnostics["nodes"] == 64


@loud
def test_equilibrium_small_pivot_carries_a_condition_estimate(monkeypatch):
    monkeypatch.setattr(opa, "PIVOT_RTOL", 1.0)
    with pytest.raises(IllConditionedError) as info:
        equilibrium_measure(BoundarySet(arcs=((0.0, 0.3), (2.0, 0.5))), 32)
    assert info.value.diagnostics["nodes"] == 64
    assert 1.0 < info.value.condition_estimate < np.inf


@loud
def test_equilibrium_nonpositive_weight_is_a_construction_error(monkeypatch):
    solve = scipy.linalg.cho_solve

    def flip_one(factor, b):
        y = solve(factor, b)
        y[0] = -y[0]
        return y

    monkeypatch.setattr(scipy.linalg, "cho_solve", flip_one)
    with pytest.raises(ConstructionError) as info:
        equilibrium_measure(BoundarySet(arcs=((1.0, 0.7),)), 64)
    assert info.value.diagnostics["min_weight"] < 0.0
    assert info.value.diagnostics["nodes"] == 64


# ---------------------------------------------------- low-energy peak route

def test_dirichlet_peak_empty_set():
    rf = dirichlet_rudin(BoundarySet(), BoundarySet.full_circle(), 0.05)
    assert np.allclose(rf.h.coeffs, 0.0)
    assert rf.certified.dirichlet_energy == 0.0


def test_dirichlet_peak_single_point():
    rf = dirichlet_rudin(E0, neighborhood(E0, 0.3), 0.05)
    assert rf.certified.dirichlet_energy is not None
    assert 0.0 <= rf.certified.dirichlet_energy <= 0.05
    assert rf.certified.off_neighborhood_sup < 0.05
    # the certificate is the coefficient formula applied to the stored h
    k = np.arange(len(rf.h.coeffs))
    direct = float(np.sum(k * np.abs(rf.h.coeffs) ** 2))
    assert rf.certified.dirichlet_energy == pytest.approx(direct, abs=1e-10)
    # the route trades peak height for energy, so the deviation can be
    # large at a fixed truncation; the certificate must still match it
    vals = grid_values(rf.h, 12)
    assert abs(vals[0] - 1.0) <= rf.certified.peak_deviation + 1e-9


def test_dirichlet_peak_rejects_arcs_and_bad_eps():
    with pytest.raises(InvalidInputError):
        dirichlet_rudin(BoundarySet(arcs=((0.0, 0.2),)), BoundarySet.full_circle(), 0.05)
    with pytest.raises(InvalidParameterError):
        dirichlet_rudin(E0, neighborhood(E0, 0.3), 0.0)
    with pytest.raises(InvalidParameterError):
        dirichlet_rudin(E0, neighborhood(E0, 0.3), 0.05, levels=1)
