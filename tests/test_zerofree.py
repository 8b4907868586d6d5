"""Simultaneous zero-free approximation and its multiplier construction.

The two norm-splitting inequalities the error accounting leans on are
checked here on random polynomials by brute-force convolution, entirely
outside the library's own bookkeeping.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.optimize

from opalab import (
    ApproximationBudgetError,
    BoundarySet,
    CoeffSeries,
    InvalidInputError,
    InvalidParameterError,
    evaluate,
    simultaneous_zero_free,
)
from opalab import zerofree
from opalab.series import eval_on_circle_grid, zero_free_on_closed_disc

E_ONE = BoundarySet.from_points([0.0])
E_PAIR = BoundarySet.from_points([0.0, np.pi / 2])


def deriv(c):
    c = np.asarray(c, complex)
    return c[1:] * np.arange(1, len(c))


def h2_norm2(c):
    return float(np.sum(np.abs(c) ** 2))


def dirichlet_energy(c):
    c = np.asarray(c, complex)
    return float(np.sum(np.arange(len(c)) * np.abs(c) ** 2))


def area_norm2(c):
    """Squared Bergman-type norm: sum of |c_k|^2 / (k+1)."""
    c = np.asarray(c, complex)
    return float(np.sum(np.abs(c) ** 2 / (np.arange(len(c)) + 1.0)))


# ------------------------------------------------------- splitting lemmas

def test_boundary_sup_controls_weighted_h2_product():
    # ||g * u||_H2 <= sup_circle |g| * ||u||_H2 for polynomials, via full
    # convolution on one side and a fine-grid modulus maximum on the other.
    rng = np.random.default_rng(80)
    for _ in range(10):
        g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        u = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        lhs = h2_norm2(np.convolve(g, u))
        sup2 = np.max(np.abs(eval_on_circle_grid(CoeffSeries(g), 13))) ** 2
        assert lhs <= sup2 * h2_norm2(u) * (1.0 + 1e-9) + 1e-12


def test_derivative_split_controls_dirichlet_energy():
    # With u = g*phi - g the product rule gives u' = g'(phi-1) + g phi',
    # so the energy is at most twice the two area terms combined.
    rng = np.random.default_rng(81)
    for _ in range(10):
        g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        phi = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        phi_minus_1 = phi.copy()
        phi_minus_1[0] -= 1.0
        u = np.convolve(g, phi_minus_1)
        lhs = dirichlet_energy(u)
        a = area_norm2(np.convolve(deriv(g), phi_minus_1))
        b = area_norm2(np.convolve(g, deriv(phi)))
        assert lhs <= 2.0 * (a + b) * (1.0 + 1e-12) + 1e-12


# ------------------------------------------------------------ needle kernel

KERNEL_SIZES = [(8, 64), (64, 1024), (512, 4096)]
W2 = np.abs(eval_on_circle_grid(CoeffSeries([1.0, -0.5]), zerofree.NEEDLE_GRID_LOG2)) ** 2


def grid_objective(theta, v, base_width, w2, band):
    """The needle objective computed on the grid: profile = hats . p, then
    F = ifft(fft(profile) * mask), with the adjoint as the mirrored FFT pair.
    Returns (cost_grad, residuals); residuals(p) is the real vector
    [Re r1, Im r1, r2, Re r3, Im r3] whose sum of squares is the cost."""
    G = zerofree._G
    hats = zerofree._hat_basis(theta, base_width)
    nn = len(hats)
    am = np.zeros(G, dtype=complex)
    am[: band + 1] = zerofree._analytic_mask(band)
    point_row = (np.fft.fft(hats, axis=1) * am) @ np.exp(1j * np.arange(G) * theta) / G

    def field(p):
        prof = p[nn:] @ hats + 1j * (p[:nn] @ hats)
        return np.fft.ifft(np.fft.fft(prof) * am), complex((p[nn:] + 1j * p[:nn]) @ point_row)

    def cost_grad(p):
        F, Fz = field(p)
        B = np.exp(F)
        D = B - 1.0
        viol = np.maximum(0.0, -F.real - zerofree.RE_FLOOR)
        dv = Fz - v
        E = (
            np.mean(w2 * np.abs(D) ** 2)
            + zerofree.FLOOR_PENALTY * np.mean(viol**2)
            + zerofree.POINT_PENALTY * abs(dv) ** 2
        )
        gr_re = (2.0 * w2 * np.real(np.conj(D) * B) - 2.0 * zerofree.FLOOR_PENALTY * viol) / G
        gr_im = -2.0 * w2 * np.imag(np.conj(D) * B) / G
        pull = np.fft.ifft(np.fft.fft(gr_re + 1j * gr_im) * np.conj(am))
        anchor = 2.0 * zerofree.POINT_PENALTY * np.conj(dv) * point_row
        gpsi = hats @ pull.imag + np.real(1j * anchor)
        gu = hats @ pull.real + np.real(anchor)
        return E, np.concatenate([gpsi, gu])

    def residuals(p):
        F, Fz = field(p)
        r1 = np.sqrt(w2 / G) * (np.exp(F) - 1.0)
        r2 = np.sqrt(zerofree.FLOOR_PENALTY / G) * np.maximum(0.0, -F.real - zerofree.RE_FLOOR)
        r3 = np.sqrt(zerofree.POINT_PENALTY) * (Fz - v)
        return np.concatenate([r1.real, r1.imag, r2, [r3.real, r3.imag]])

    return cost_grad, residuals


def random_params(rng, n):
    # large enough that the floor penalty is active somewhere
    return 1.5 * rng.standard_normal(n)


@pytest.mark.parametrize("level,band", KERNEL_SIZES)
def test_spectral_objective_matches_the_grid_objective(level, band):
    rng = np.random.default_rng(level)
    theta, v = 0.3, 0.7 + 0.4j
    cost_grad, _, x0, _ = zerofree._needle_objective(theta, v, 1.0 / level, W2, band)
    reference, _ = grid_objective(theta, v, 1.0 / level, W2, band)
    for p in (x0, random_params(rng, len(x0)), random_params(rng, len(x0))):
        E, g = cost_grad(p)
        E_ref, g_ref = reference(p)
        assert abs(E - E_ref) <= 1e-12 * abs(E_ref)
        assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


def test_spectral_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    cost_grad, _, x0, _ = zerofree._needle_objective(1.0, -0.5 + 0.8j, 1.0 / 8, W2, 64)
    p = random_params(rng, len(x0))
    _, g = cost_grad(p)
    h = 1e-6
    for i in (0, 5, len(p) // 2, len(p) - 3):
        step = np.zeros_like(p)
        step[i] = h
        fd = (cost_grad(p + step)[0] - cost_grad(p - step)[0]) / (2.0 * h)
        assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("level,band", KERNEL_SIZES[:2])
def test_gauss_newton_matrix_and_gradient_match_the_residual_jacobian(level, band):
    # J by central differences of the grid-domain residuals at a point where
    # the floor is active; the Gauss-Newton matrix is 2 J^T J and the
    # gradient 2 J^T r.
    rng = np.random.default_rng(level + 1)
    theta, v = 0.3, 0.7 + 0.4j
    cost_grad, gauss_newton, x0, _ = zerofree._needle_objective(theta, v, 1.0 / level, W2, band)
    _, residuals = grid_objective(theta, v, 1.0 / level, W2, band)
    p = random_params(rng, len(x0))
    r = residuals(p)
    assert np.any(r[2 * zerofree._G : 3 * zerofree._G] > 0.0)
    h = 1e-6
    J = np.empty((len(r), len(p)))
    for i in range(len(p)):
        step = np.zeros_like(p)
        step[i] = h
        J[:, i] = (residuals(p + step) - residuals(p - step)) / (2.0 * h)
    A_ref = 2.0 * J.T @ J
    g_ref = 2.0 * J.T @ r
    assert np.linalg.norm(gauss_newton(p) - A_ref) <= 1e-6 * np.linalg.norm(A_ref)
    assert np.linalg.norm(cost_grad(p)[1] - g_ref) <= 1e-6 * np.linalg.norm(g_ref)


def dense_gauss_newton(theta, v, base_width, w2, band):
    """The Gauss-Newton matrix summed over every grid point, in grid chunks,
    with H from the complex FFT of the hats, plus the floor block on the
    columns where the floor is active."""
    G = zerofree._G
    hats = zerofree._hat_basis(theta, base_width)
    S = np.fft.fft(hats, axis=1)[:, : band + 1] * zerofree._analytic_mask(band)
    H = np.fft.ifft(S, G, axis=1)
    point_row = S @ np.exp(1j * np.arange(band + 1) * theta) / G
    nn = len(hats)

    def gauss_newton(p):
        F = (p[nn:] + 1j * p[:nn]) @ H
        mod = np.sqrt(w2 / G) * np.exp(F.real)
        M = zerofree.POINT_PENALTY * np.outer(np.conj(point_row), point_row)
        for s in range(0, G, 2048):
            K = H[:, s : s + 2048] * mod[s : s + 2048]
            M += np.conj(K) @ K.T
        Ha = H[:, F.real < -zerofree.RE_FLOOR]
        R = np.concatenate([Ha.imag, -Ha.real])
        A = np.block([[M.real, M.imag], [-M.imag, M.real]])
        return 2.0 * (A + (zerofree.FLOOR_PENALTY / G) * (R @ R.T)), F

    return gauss_newton


@pytest.mark.parametrize("level,band", KERNEL_SIZES)
def test_gauss_newton_matrix_matches_the_dense_grid_sum(level, band):
    # The band-sized sum is exact, so it meets the sum over all G points to
    # rounding, on both sides of L = G (L < G at band 64 and 1024, L = G at
    # band 4096).
    rng = np.random.default_rng(level + 2)
    theta, v = 0.3, 0.7 + 0.4j
    _, gauss_newton, x0, _ = zerofree._needle_objective(theta, v, 1.0 / level, W2, band)
    reference = dense_gauss_newton(theta, v, 1.0 / level, W2, band)
    for p in (x0, random_params(rng, len(x0)), random_params(rng, len(x0))):
        A_ref, F = reference(p)
        A = gauss_newton(p)
        assert np.linalg.norm(A - A_ref) <= 1e-12 * np.linalg.norm(A_ref)
    assert np.any(F.real < -zerofree.RE_FLOOR)


def test_needle_ladder_past_pi_is_refused():
    # At level 1 the ladder's outer nodes lie 4 and 6 base widths out, past
    # pi, where the last hat is zero and the Gauss-Newton matrix singular.
    with pytest.raises(InvalidParameterError, match="reaches pi"):
        zerofree._refined_needle(0.0, 0.3 + 0.2j, 1.0, W2, 64)
    c = zerofree._refined_needle(0.0, 0.3 + 0.2j, 0.5, W2, 64)
    assert abs(evaluate(CoeffSeries(c), 1.0) - (0.3 + 0.2j)) < 1e-12


def test_refined_needle_fits_through_one_minimize_call(monkeypatch):
    # perfbench's needle-fit span wraps zerofree.minimize and reads nit and
    # nfev off its result.
    fits = []
    real_minimize = zerofree.minimize

    def spy(fun, x0, *args, **kwargs):
        res = real_minimize(fun, x0, *args, **kwargs)
        fits.append((fun(x0)[0], res))
        return res

    monkeypatch.setattr(zerofree, "minimize", spy)
    zerofree._refined_needle(0.3, 0.7 + 0.4j, 1.0 / 16, W2, 64)
    assert len(fits) == 1
    cost_x0, res = fits[0]
    assert 1 <= res.nit <= zerofree.NEEDLE_MAXITER
    assert res.nfev >= res.nit
    assert res.fun <= cost_x0


def scipy_levenberg_marquardt(fun, x0, jac, hess, maxiter, **_):
    # The damped Gauss-Newton loop in scipy's custom-method form, as the
    # needle fits ran it through scipy.optimize.minimize.
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    nfev, nit, lam = 1, 0, 1e-3
    stalled = False
    while nit < maxiter and not stalled:
        g, A = jac(x), hess(x)
        D = np.diag(np.diag(A))
        while True:
            step = np.linalg.solve(A + lam * D, -g)
            if np.linalg.norm(step) <= np.finfo(float).eps * np.linalg.norm(x):
                stalled = True
                break
            f_new = fun(x + step)
            nfev += 1
            if f_new < f:
                x, f, lam = x + step, f_new, lam / 3.0
                nit += 1
                break
            lam *= 4.0
    return scipy.optimize.OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev)


@pytest.mark.parametrize("level,band", [KERNEL_SIZES[0], KERNEL_SIZES[2]])
def test_minimize_reproduces_the_scipy_custom_method(level, band):
    cost_grad, gauss_newton, x0, _ = zerofree._needle_objective(
        0.3, 0.7 + 0.4j, 1.0 / level, W2, band
    )
    want = scipy.optimize.minimize(
        cost_grad,
        x0,
        jac=True,
        hess=gauss_newton,
        method=scipy_levenberg_marquardt,
        options={"maxiter": zerofree.NEEDLE_MAXITER},
    )
    got = zerofree.minimize(cost_grad, x0, gauss_newton)
    assert np.array_equal(got.x, want.x)
    assert (got.fun, got.nit, got.nfev) == (want.fun, want.nit, want.nfev)


def quadratic_least_squares():
    A = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, -1.0], [1.0, 0.0, 4.0], [1.0, 1.0, 1.0]])
    x_min = np.array([1.0, -2.0, 0.5])
    b = A @ x_min

    def cost_grad(x):
        r = A @ x - b
        return float(r @ r), 2.0 * A.T @ r

    return cost_grad, lambda x: 2.0 * A.T @ A, x_min


def test_minimize_lowers_the_cost_within_the_step_cap():
    cost_grad, hess, x_min = quadratic_least_squares()
    x0 = x_min + np.array([3.0, -1.0, 2.0])
    fit = zerofree.minimize(cost_grad, x0, hess)
    assert 1 <= fit.nit <= zerofree.NEEDLE_MAXITER
    assert fit.nfev >= fit.nit + 1
    assert fit.fun < cost_grad(x0)[0]
    assert fit.fun == cost_grad(fit.x)[0]


def test_minimize_started_at_the_minimum_takes_the_stall_exit():
    cost_grad, hess, x_min = quadratic_least_squares()
    assert cost_grad(x_min)[0] == 0.0
    fit = zerofree.minimize(cost_grad, x_min, hess)
    assert np.array_equal(fit.x, x_min)
    assert (fit.nit, fit.nfev) == (0, 1)


def test_refined_needle_hits_its_value_off_the_grid():
    theta, v, band = 1.234567, 0.6 - 0.9j, 64
    c = zerofree._refined_needle(theta, v, 1.0 / 8, W2, band)
    assert len(c) == band + 1
    assert abs(evaluate(CoeffSeries(c), np.exp(1j * theta)) - v) < 1e-12


# ------------------------------------------------------- main construction

def test_matching_targets_take_the_identity_path():
    g = CoeffSeries([2.0])
    for space in ("hardy", "dirichlet"):
        res = simultaneous_zero_free(g, [2.0, 2.0], E_PAIR, 0.05, space=space)
        assert res.space_error == pytest.approx(0.0, abs=1e-15)
        assert res.boundary_error == pytest.approx(0.0, abs=1e-15)
        assert res.report.zero_free
        assert res.trace.level == 0


def test_small_shift_of_a_linear_polynomial():
    g = CoeffSeries([1.0, -0.5])
    target = 1.1 * evaluate(g, 1.0)
    res = simultaneous_zero_free(g, [target], E_ONE, 0.1)
    assert res.report.zero_free and not res.report.indeterminate
    assert 0.0 <= res.space_error < 0.1
    assert res.boundary_error < 0.1
    # the trace records the multiplier degree budget; P adds deg(g) on top
    assert len(res.P.coeffs) - 1 <= res.trace.degree + len(g.coeffs) - 1
    fresh = zero_free_on_closed_disc(res.P)
    assert fresh.zero_free and not fresh.indeterminate
    # the reported boundary error is exactly the worst pointwise miss
    miss = abs(evaluate(res.P, 1.0) - target)
    assert res.boundary_error == pytest.approx(miss, abs=1e-12)


def test_each_point_gets_its_own_log(monkeypatch):
    # The three ratios lie within the tolerance of one another, so a
    # partition of E into near-constant pieces could share one log among
    # them; each needle must instead carry the log of its own point.
    targets = {0.2: 1.4, 0.5: 1.405, 1.0: 1.41}
    seen = []
    real_needle = zerofree._refined_needle

    def spy(theta, v, *args):
        seen.append((theta, v))
        return real_needle(theta, v, *args)

    monkeypatch.setattr(zerofree, "_refined_needle", spy)
    E = BoundarySet.from_points(list(targets))
    res = simultaneous_zero_free(CoeffSeries([1.0]), list(targets.values()), E, 0.1)
    assert {theta for theta, _ in seen} == set(targets)
    for theta, v in seen:
        assert v == pytest.approx(cmath.log(targets[theta]), abs=1e-15)
    assert res.report.zero_free and not res.report.indeterminate
    assert res.space_error < 0.1
    assert res.boundary_error < 0.1
    for theta, t in targets.items():
        assert abs(evaluate(res.P, np.exp(1j * theta)) - t) < 0.1


def test_halving_the_budget_never_loosens_the_errors():
    # At eps = 0.2 a dilation radius can happen to hit the target exactly,
    # which would break literal monotonicity; the pinned pair below stops
    # at the same attempt on both runs, where the property is exact.
    g = CoeffSeries([1.0, -0.5])
    target = [1.1 * evaluate(g, 1.0)]
    loose = simultaneous_zero_free(g, target, E_ONE, 0.1)
    tight = simultaneous_zero_free(g, target, E_ONE, 0.05)
    assert tight.space_error <= loose.space_error + 1e-12
    assert tight.boundary_error <= loose.boundary_error + 1e-12


def test_dirichlet_point_bound_aborts_unreachable_targets():
    g = CoeffSeries(1.0 / np.array([math.factorial(k) for k in range(13)], float))
    E = BoundarySet.from_points([0.0, np.pi])
    with pytest.raises(ApproximationBudgetError) as exc:
        simultaneous_zero_free(g, [2.0, -1.0], E, 0.1, space="dirichlet")
    diag = exc.value.diagnostics
    assert diag["required_boundary_deviation"] == pytest.approx(1.3678794413212816, abs=1e-9)
    assert diag["point_bound_constant"] == pytest.approx(3.0967362828694434, abs=1e-9)
    assert diag["coefficient_budget"] == pytest.approx(0.30967362828694437, abs=1e-9)
    assert diag["max_degree"] == 8204


def test_rejections():
    ok_target = [1.0]
    with pytest.raises(InvalidInputError):
        simultaneous_zero_free(CoeffSeries([1.0, -2.0]), ok_target, E_ONE, 0.1)
    with pytest.raises(InvalidInputError):
        simultaneous_zero_free(CoeffSeries([0.0, 0.0]), ok_target, E_ONE, 0.1)
    with pytest.raises(InvalidInputError):
        simultaneous_zero_free(CoeffSeries([1.0, -0.5]), [0.0], E_ONE, 0.1)
    with pytest.raises(InvalidInputError):
        simultaneous_zero_free(
            CoeffSeries([1.0, -0.5]), ok_target, BoundarySet(arcs=((0.0, 0.1),)), 0.1
        )
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            simultaneous_zero_free(CoeffSeries([1.0, -0.5]), ok_target, E_ONE, bad)
        with pytest.raises(InvalidParameterError):
            simultaneous_zero_free(
                CoeffSeries([1.0, -0.5]), ok_target, E_ONE, 0.1, boundary_eps=bad
            )
    with pytest.raises(InvalidParameterError):
        simultaneous_zero_free(CoeffSeries([1.0, -0.5]), ok_target, E_ONE, 0.1, space="pdq")
    with pytest.raises(InvalidInputError):
        simultaneous_zero_free(CoeffSeries([1.0, -0.5]), [1.0, 1.0], E_ONE, 0.1)
    for bad in (np.nan, np.inf, complex(1.0, -np.inf)):
        with pytest.raises(InvalidInputError):
            simultaneous_zero_free(CoeffSeries([1.0, 0.5]), [bad], E_ONE, 0.05)
        with pytest.raises(InvalidInputError):
            simultaneous_zero_free(CoeffSeries([1.0, 0.5]), {0.0: bad}, E_ONE, 0.05)


def test_diverging_polish_ends_the_attempt_and_the_schedule_goes_on(monkeypatch):
    # 64 points of a Cantor set on [0, pi/2]: at level 8 and 16 the needles
    # overlap, and the one-needle-per-point polish drives sum |F_k| past
    # F_L1_CAP, beyond which exp(F) overflows.
    monkeypatch.setattr(zerofree, "LEVEL_CAP", 16)
    monkeypatch.setattr(zerofree, "DEGREE_CAP", 128)
    cells = [(0.0, 1.0)]
    for _ in range(5):
        cells = [c for a, b in cells for c in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    points = sorted({np.pi / 2 * t for cell in cells for t in cell})
    rng = np.random.default_rng(0)
    targets = np.exp(rng.uniform(-0.5, 0.5, 64) + 1j * rng.uniform(-1.0, 1.0, 64))
    with pytest.raises(ApproximationBudgetError) as exc:
        simultaneous_zero_free(
            CoeffSeries([1.0, 0.5]), list(targets), BoundarySet.from_points(points), 0.1
        )
    diverged = exc.value.diagnostics["diverged"]
    assert (16, 128) in diverged and (8, 128) in diverged
