"""Least-squares polynomial approximants of reciprocals on the disc.

For a coefficient series f and order n, the degree-n polynomial Q_n
minimizing ||Q f - 1|| in the alpha-weighted norm is conj(f(0)) K_n(., 0),
where K_n is the reproducing kernel of the polynomials of degree <= n in
the |f|^2-weighted space.  The kernels are nested, so one walk over the
orders gives every Q_n: Levinson's recursion on the autocorrelation of f
at alpha = 0, and at alpha > 0 a Cholesky factor of the Gram matrix grown
one row per order.  That matrix has band width deg f, so the alpha > 0
walk keeps only its band and the last deg f rows of the inverse factor;
neither walk forms a matrix.  A walk keeps its state in buffers that
double with the order reached and hands out views of them, so what it
yields is valid until it takes its next step.  ``opa_solve`` takes the
last order of a walk, ``convergence_profile`` reports every order of one
walk, and the order search in ``steer`` stops a walk at the first order
that passes and keeps that order's approximant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IllConditionedError, InvalidInputError, InvalidParameterError
from .series import CoeffSeries, evaluate, multiply
from .spaces import AlphaWeight, coefficient_weights, norm_alpha

GRAM_TAIL_MARGIN = 128
PIVOT_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Normal equations of the reciprocal least-squares problem.

    M[j, k] = <z^j f, z^k f> in the alpha weight; C = (conj(f(0)), 0, ..., 0).
    The row vector A of approximant coefficients solves A M = C.
    """

    M: np.ndarray
    C: np.ndarray
    n: int
    alpha: AlphaWeight


@dataclass(frozen=True, eq=False)
class OpaResult:
    Q: CoeffSeries
    residual: float
    condition_estimate: float
    n: int


def _validate_f(f: CoeffSeries, n: int) -> None:
    if n < 0:
        raise InvalidParameterError("order n must be nonnegative")
    if not np.any(f.coeffs):
        raise InvalidInputError("f must not be identically zero")
    if f.tail_bound > 0.0 and f.truncation_degree < n + GRAM_TAIL_MARGIN:
        raise InvalidParameterError(
            "truncated f needs truncation_degree >= n + %d for a reliable Gram system"
            % GRAM_TAIL_MARGIN
        )


def _autocorrelation(c: np.ndarray, n: int) -> np.ndarray:
    """r_d = sum_t c_{t+d} conj(c_t) for d = 0..n (zero past the degree), by FFT."""
    spec = np.fft.fft(c, 1 << (2 * len(c) - 1).bit_length())
    r = np.fft.ifft(spec.real**2 + spec.imag**2)[: min(n + 1, len(c))]
    return np.pad(r, (0, n + 1 - len(r)))


def gram_matrix(f: CoeffSeries, n: int, w: AlphaWeight) -> GramSystem:
    """Assemble the (n+1) x (n+1) Gram system for f in the given weight.

    M = C^T diag((t+1)^alpha) conj(C) with C[t, j] = f_{t-j}, the banded
    matrix of multiplication by f on polynomials of degree <= n.
    """
    _validate_f(f, n)
    c = f.coeffs
    cols = np.arange(n + 1)
    conv = np.zeros((len(c) + n, n + 1), dtype=np.complex128)
    conv[np.arange(len(c))[:, None] + cols, cols] = c[:, None]
    M = (conv.T * coefficient_weights(len(c) + n, w)) @ np.conj(conv)
    M = 0.5 * (M + M.conj().T)
    C = np.zeros(n + 1, dtype=np.complex128)
    C[0] = np.conj(c[0])
    return GramSystem(M, C, n, w)


def _condition(norm1: float, solve, size: int) -> float:
    """||M||_1 times a lower bound of ||M^{-1}||_1, for Hermitian M applied through ``solve``.

    Hager's method: from x = 1/size, step to the unit vector e_j at the
    largest |entry| of M^{-1} sign(M^{-1} x) while ||M^{-1} x||_1 grows, for
    at most 5 steps; Higham's alternating-sign vector b_i = (-1)^i (1 +
    i/(size-1)) then guards against a local maximum (Higham 1988, ACM TOMS
    14:381, Alg. 4.1).  sign(y) = y/|y| is taken in real arithmetic, with
    sign(0) = 1, so subnormal entries of y cannot overflow it.
    """
    x = np.full(size, 1.0 / size)
    est, j = 0.0, None
    for _ in range(5):
        y = solve(x)
        mag = np.abs(y)
        if j is not None and np.sum(mag) <= est:
            break
        est = np.sum(mag)
        safe = np.where(mag > 0.0, mag, 1.0)
        z = np.abs(solve(np.where(mag > 0.0, y.real / safe + 1j * (y.imag / safe), 1.0)))
        if j is not None and z[j] == np.max(z):
            break
        j = int(np.argmax(z))
        x = np.zeros(size)
        x[j] = 1.0
    alternating = (-1.0) ** np.arange(size) * (1.0 + np.arange(size) / max(size - 1, 1))
    est = max(est, 2.0 * np.sum(np.abs(solve(alternating))) / (3.0 * size))
    return float(norm1 * est)


def _levinson_condition(r: np.ndarray, x: np.ndarray) -> float:
    """Condition estimate of the Hermitian Toeplitz M_n with M_n x = e_0.

    Gohberg-Semencul: M_n^{-1} = (A A^H - B B^H) / x_0 with A and B lower
    triangular Toeplitz of first columns x and (0, conj x_n, ..., conj x_1),
    each product taken by FFT.
    """
    size = len(x)
    sums = np.cumsum(np.abs(r[:size]))
    L = 1 << (2 * size - 1).bit_length()
    b = np.concatenate(([0.0], np.conj(x[:0:-1])))
    spectra = [np.fft.fft(col, L) for col in (x, np.conj(x), b, np.conj(b))]

    def lower(k, v):
        return np.fft.ifft(spectra[k] * np.fft.fft(v, L))[:size]

    def solve(v):
        v = v[::-1]
        return (lower(0, lower(1, v)[::-1]) - lower(2, lower(3, v)[::-1])) / x[0].real

    return _condition(np.max(sums + sums[::-1] - sums[0]), solve, size)


def _band_condition(L: np.ndarray, M: np.ndarray) -> float:
    """Condition estimate of M = L L^H from the bands L[i, i-K..i] and M[i-K..i, i], row i each.

    M^{-1} v is one forward substitution with L and one back substitution
    with L^H, each touching the K + 1 stored entries of a row of L.
    """
    size, K = L.shape[0], L.shape[1] - 1
    absM = np.abs(M)
    norm1 = absM.sum(axis=1)
    for s in range(1, K + 1):
        norm1[: size - s] += absM[s:, K - s]
    L_conj = np.conj(L)

    def solve(v):
        y = np.zeros(K + size, dtype=np.complex128)
        for i in range(size):
            y[K + i] = (v[i] - L[i, :K] @ y[i : K + i]) / L[i, K]
        for i in range(size - 1, -1, -1):
            y[K + i] /= L[i, K]
            y[i : K + i] -= L_conj[i, :K] * y[K + i]
        return y[K:]

    return _condition(np.max(norm1), solve, size)


def _check_pivot(low: float, trace: float, condition, **diagnostics) -> None:
    """Refuse a factor whose smallest pivot is below PIVOT_RTOL * its trace."""
    if not low >= PIVOT_RTOL * trace:
        raise IllConditionedError(
            "pivot below the conditioning threshold",
            condition_estimate=condition(),
            diagnostics=dict(diagnostics, pivot_ratio=float(low / max(trace, 1e-300))),
        )


def _levinson_orders(f: CoeffSeries, n_max: int):
    """Levinson on M[j, k] = r_{k-j}: x_n solves M_n x_n = e_0, Q_n = conj(f(0) x_n).

    With eps = sum_k conj(r_{n-k}) x_{n-1}[k], the step is
    x_n = ([x_{n-1}; 0] - eps [0; reverse(conj x_{n-1})]) / (1 - |eps|^2),
    and the pivot of M_n is 1 / Re x_n[0].  The step runs in place: x_n,
    its scratch reversal and Q_n sit in buffers that double with the
    order reached, and dividing by 1 - |eps|^2 is a multiply by its
    reciprocal, which is what numpy's complex division by a real does.
    """
    r = _autocorrelation(f.coeffs, n_max)
    r_conj = np.conj(r)
    c0 = f.coeffs[0]
    x_buf, t_buf, q_buf = (np.zeros(1, dtype=np.complex128) for _ in range(3))
    x_buf[0] = 1.0 / r[0].real
    low = r[0].real
    for n in range(n_max + 1):
        if n == len(x_buf):
            size = min(2 * n, n_max + 1)
            x_buf = np.concatenate((x_buf, np.zeros(size - n, dtype=np.complex128)))
            t_buf, q_buf = (np.empty(size, dtype=np.complex128) for _ in range(2))
        x, t, q = x_buf[: n + 1], t_buf[: n + 1], q_buf[: n + 1]
        if n:
            eps = np.dot(r_conj[n:0:-1], x[:n])
            np.conj(x[::-1], out=t)
            np.multiply(eps, t, out=t)  # eps first: t *= eps rounds differently
            x -= t
            x *= 1.0 / (1.0 - abs(eps) ** 2)
            low = min(low, 1.0 / x[0].real)
        condition = partial(_levinson_condition, r, x)
        _check_pivot(low, (n + 1) * r[0].real, condition, n=n, alpha=0.0)
        np.multiply(c0, x, out=q)
        yield np.conj(q, out=q), condition


def _banded_orders(f: CoeffSeries, w: AlphaWeight, n_max: int):
    """The Cholesky factor M = L L^H grown one row per order, with x_n = row n of L^{-1}
    and Q_n = Q_{n-1} + conj(f(0) x_n[0]) x_n.

    With k = min(deg f, n), order n reads the band column
    M[n-s, n] = sum_u (u+n+1)^alpha conj(f_u) f_{u+s} for s = 0..k, then
    conj(L[n, n-k:n]) = L^{-1} M[:, n] restricted to those rows, the pivot
    L_nn^2 = M_nn - |L[n, n-k:n]|^2 and x_n = (e_n - L[n, n-k:n] X) / L_nn.
    X, the last k rows of L^{-1}, sits in a ring of slots j mod K.  The
    buffers, Q_n's among them, double when the walk outgrows them, so an
    open-ended walk holds at most twice the orders it reaches.
    """
    c = f.coeffs
    d = len(c) - 1
    K = min(d, n_max)
    windows = sliding_window_view(np.concatenate((c, np.zeros(K))), d + 1)
    X = np.zeros((max(K, 1), 0), dtype=np.complex128)
    L_band = M_band = np.zeros((0, K + 1), dtype=np.complex128)
    q_buf = np.zeros(0, dtype=np.complex128)
    low, trace = np.inf, 0.0
    for n in range(n_max + 1):
        k = min(K, n)
        if n == len(L_band):
            grow = min(max(n, 64), n_max + 1 - n)
            X = np.pad(X, ((0, 0), (0, grow)))
            L_band, M_band = (np.pad(band, ((0, grow), (0, 0))) for band in (L_band, M_band))
            q_buf = np.pad(q_buf, (0, grow))
        weighted = np.conj(c) * np.arange(n + 1, n + d + 2, dtype=float) ** w.alpha
        column = np.einsum("su,u->s", windows[: k + 1], weighted)[::-1]
        M_band[n, K - k :] = column
        slots = X[:, n - k : n] @ column[:k]  # conj(L[n, j]) in slot j mod K
        pivot = column[k].real - np.vdot(slots, slots).real
        if not pivot > 0.0:
            raise IllConditionedError(
                "Gram matrix is not numerically positive definite",
                condition_estimate=float("inf"),
                diagnostics={"n": n, "alpha": w.alpha},
            )
        L_band[n, K - k : K] = np.conj(slots[np.arange(n - k, n) % len(X)])
        L_band[n, K] = np.sqrt(pivot)
        x = -(np.conj(slots) @ X[:, : n + 1])
        x[n] += 1.0
        x /= L_band[n, K]
        X[n % len(X), : n + 1] = x
        low, trace = min(low, pivot), trace + column[k].real
        q = q_buf[: n + 1]
        q += np.multiply(np.conj(c[0] * x[0]), x, out=x)
        condition = partial(_band_condition, L_band[: n + 1], M_band[: n + 1])
        _check_pivot(low, trace, condition, n=n, alpha=w.alpha)
        yield q, condition


def _opa_orders(f: CoeffSeries, w: AlphaWeight, n_max: int):
    """Yield (coefficients of Q_n, condition) for n = 0..n_max from one walk.

    ``condition()`` returns the 1-norm condition estimate of the order-n
    Gram matrix at the cost of a few solves.  The coefficients are a view
    of the walk's buffers, and ``condition`` reads views of them: both
    hold order n only until the walk advances, so a consumer copies what
    it keeps (``CoeffSeries`` copies its input).  Up
    to order n, the walk takes O(n) time per order and keeps O(n) numbers
    at alpha = 0, and O(n deg f) of each at alpha > 0.  Raises
    IllConditionedError at the first order that fails the pivot check.
    """
    _validate_f(f, n_max)
    if w.alpha == 0.0:
        return _levinson_orders(f, n_max)
    return _banded_orders(f, w, n_max)


def _residual(Q: CoeffSeries, f: CoeffSeries, w: AlphaWeight) -> float:
    return norm_alpha(multiply(Q, f) - CoeffSeries([1.0]), w)


def opa_solve(f: CoeffSeries, n: int, w: AlphaWeight) -> OpaResult:
    """Solve for the order-n reciprocal approximant of f.

    The residual ||Q f - 1|| is measured directly from the product and is
    cross-checkable against the projection identity 1 - Re(a_0 f(0)).
    condition_estimate is ||M_n||_1 times a Hager estimate of ||M_n^{-1}||_1.
    """
    for coeffs, condition in _opa_orders(f, w, n):
        pass
    Q = CoeffSeries(coeffs, 0.0)
    return OpaResult(Q, _residual(Q, f, w), condition(), n)


def convergence_profile(
    f: CoeffSeries,
    n_max: int,
    w: AlphaWeight,
    circle_angles,
    disc_probes,
) -> list:
    """Residual and pointwise reciprocal errors for each order up to n_max.

    ``circle_angles`` lists the probe angles on the circle; ``disc_probes``
    is a list of interior points.  Returns one dict per order with keys
    n, residual, sup_circle, max_interior (CSV-ready).  Probe points where
    f vanishes produce inf entries rather than errors.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be nonnegative")
    circle_z = np.exp(1j * np.asarray(circle_angles, dtype=float))
    zs = np.concatenate((circle_z, np.asarray(list(disc_probes), dtype=np.complex128)))
    f_vals = evaluate(f, zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_f = np.where(np.abs(f_vals) > 0, 1.0 / f_vals, np.inf)
    powers = np.vander(zs, n_max + 1, increasing=True)
    split = len(circle_z)
    rows = []
    for n, (coeffs, _) in enumerate(_opa_orders(f, w, n_max)):
        err = np.abs(powers[:, : n + 1] @ coeffs - inv_f)
        rows.append(
            {
                "n": n,
                "residual": _residual(CoeffSeries(coeffs, 0.0), f, w),
                "sup_circle": float(np.max(err[:split])),
                "max_interior": float(np.max(err[split:], initial=0.0)),
            }
        )
    return rows
