"""Least-squares polynomial approximants of reciprocals on the disc.

For a coefficient series f and order n, the degree-n polynomial Q_n
minimizing ||Q f - 1|| in the alpha-weighted norm is conj(f(0)) K_n(., 0),
where K_n is the reproducing kernel of the polynomials of degree <= n in
the |f|^2-weighted space.  The kernels are nested, so one walk over the
orders gives every Q_n: Levinson's recursion on the autocorrelation of f
at alpha = 0, with no matrix formed, and one Cholesky factor of the
largest Gram matrix at alpha > 0.  ``opa_solve`` takes the last order of
a walk, ``convergence_profile`` reports every order of one walk, and the
order search in ``steer`` stops a walk at the first order that passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, onenormest

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
    """||M||_1 times onenormest of M^{-1}, applied through ``solve``.

    One probe column (t = 1) keeps the estimate deterministic; wider
    blocks draw random columns from numpy's global generator.
    """
    inverse = LinearOperator((size, size), matvec=solve, rmatvec=solve, dtype=np.complex128)
    return float(norm1 * onenormest(inverse, t=1))


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
        v = np.ravel(v)[::-1]
        return (lower(0, lower(1, v)[::-1]) - lower(2, lower(3, v)[::-1])) / x[0].real

    return _condition(np.max(sums + sums[::-1] - sums[0]), solve, size)


def _cholesky_condition(M: np.ndarray, inv: np.ndarray) -> float:
    """Condition estimate of M = L L^H, applied through inv = L^{-1}."""
    norm1 = np.max(np.sum(np.abs(M), axis=0))
    return _condition(norm1, lambda v: inv.conj().T @ (inv @ np.ravel(v)), len(M))


def _check_pivot(low: float, trace: float, n: int, alpha: float, condition) -> None:
    """Refuse order n when its smallest pivot is below PIVOT_RTOL * trace(M_n)."""
    if not low >= PIVOT_RTOL * trace:
        raise IllConditionedError(
            "Gram pivot below the conditioning threshold",
            condition_estimate=condition(),
            diagnostics={"n": n, "alpha": alpha, "pivot_ratio": float(low / max(trace, 1e-300))},
        )


def _levinson_orders(f: CoeffSeries, n_max: int):
    """Levinson on M[j, k] = r_{k-j}: x_n solves M_n x_n = e_0, Q_n = conj(f(0) x_n).

    With eps = sum_k conj(r_{n-k}) x_{n-1}[k], the step is
    x_n = ([x_{n-1}; 0] - eps [0; reverse(conj x_{n-1})]) / (1 - |eps|^2),
    and the pivot of M_n is 1 / Re x_n[0].
    """
    r = _autocorrelation(f.coeffs, n_max)
    r_conj = np.conj(r)
    x = np.array([1.0 / r[0].real], dtype=np.complex128)
    low = r[0].real
    for n in range(n_max + 1):
        if n:
            eps = np.dot(r_conj[n:0:-1], x)
            x = np.append(x, 0.0)
            x = (x - eps * np.conj(x[::-1])) / (1.0 - abs(eps) ** 2)
            low = min(low, 1.0 / x[0].real)
        condition = partial(_levinson_condition, r, x)
        _check_pivot(low, (n + 1) * r[0].real, n, 0.0, condition)
        yield np.conj(f.coeffs[0] * x), condition


def _cholesky_orders(f: CoeffSeries, w: AlphaWeight, n_max: int, block: int):
    """Kernel sums from one factor M = L L^H: with u = L^{-1} e_0,
    Q_n = Q_{n-1} + conj(f(0) u_n) (row n of L^{-1}).

    The factor is built at order ``block`` and rebuilt at twice the order
    reached each time the walk outgrows it.
    """
    q = np.zeros(0, dtype=np.complex128)
    low = np.inf
    top = -1
    for n in range(n_max + 1):
        if n > top:
            top = min(max(block, 2 * n), n_max)
            M = gram_matrix(f, top, w).M
            try:
                factor = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                raise IllConditionedError(
                    "Gram matrix is not numerically positive definite",
                    condition_estimate=float("inf"),
                    diagnostics={"n": top, "alpha": w.alpha},
                )
            inv = scipy.linalg.solve_triangular(factor, np.eye(top + 1), lower=True)
            pivots = np.diag(factor).real ** 2
            trace = np.cumsum(np.diag(M).real)
        low = min(low, pivots[n])
        q = np.append(q, 0.0) + np.conj(f.coeffs[0] * inv[n, 0]) * inv[n, : n + 1]
        condition = partial(_cholesky_condition, M[: n + 1, : n + 1], inv[: n + 1, : n + 1])
        _check_pivot(low, trace[n], n, w.alpha, condition)
        yield q, condition


def _opa_orders(f: CoeffSeries, w: AlphaWeight, n_max: int, block: int | None = None):
    """Yield (coefficients of Q_n, condition) for n = 0..n_max from one walk.

    ``condition()`` returns the 1-norm condition estimate of the order-n
    Gram matrix at the cost of a few solves.  At alpha > 0 the first
    factor has order ``block`` (default n_max), so an open-ended walk
    builds no more than it reaches.  Raises IllConditionedError at the
    first order that fails the pivot check.
    """
    _validate_f(f, n_max)
    if w.alpha == 0.0:
        return _levinson_orders(f, n_max)
    return _cholesky_orders(f, w, n_max, n_max if block is None else block)


def _residual(Q: CoeffSeries, f: CoeffSeries, w: AlphaWeight) -> float:
    prod = multiply(Q, f, max_degree=Q.truncation_degree + f.truncation_degree)
    return norm_alpha(prod - CoeffSeries([1.0]), w)


def opa_solve(f: CoeffSeries, n: int, w: AlphaWeight) -> OpaResult:
    """Solve for the order-n reciprocal approximant of f.

    The residual ||Q f - 1|| is measured directly from the product and is
    cross-checkable against the projection identity 1 - Re(a_0 f(0)).
    condition_estimate is ||M_n||_1 times a onenormest of ||M_n^{-1}||_1.
    """
    for coeffs, condition in _opa_orders(f, w, n):
        pass
    Q = CoeffSeries(coeffs, 0.0)
    return OpaResult(Q, _residual(Q, f, w), condition(), n)


def residual_projection(result: OpaResult, f: CoeffSeries) -> float:
    """Residual via the projection identity sqrt(1 - Re(a_0 f(0)))."""
    val = 1.0 - (result.Q.coeffs[0] * f.coeffs[0]).real
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


def convergence_profile(
    f: CoeffSeries,
    n_max: int,
    w: AlphaWeight,
    probes,
    disc_probes,
) -> list:
    """Residual and pointwise reciprocal errors for each order up to n_max.

    ``probes`` is a BoundarySet sampled on the circle; ``disc_probes`` is a
    list of interior points.  Returns one dict per order with keys
    n, residual, sup_circle, max_interior (CSV-ready).  Probe points where
    f vanishes produce inf entries rather than errors.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max must be nonnegative")
    circle_z = np.exp(1j * probes.samples())
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
