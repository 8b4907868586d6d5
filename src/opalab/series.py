"""Truncated complex power series and polynomial arithmetic on the unit disc.

The central value type is :class:`CoeffSeries`, an immutable vector of Taylor
coefficients a_0..a_N together with a certified bound on the H^2 mass of
whatever was discarded past the truncation degree.  Exact polynomials carry
``tail_bound = 0``.  Arithmetic lives in module-level functions so the value
type stays dumb and hashable-by-identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

WINDING_GRID_LOG2 = 14
WINDING_GRID_CAP_LOG2 = 20
FFT_ROUNDING = 8.0


def _as_coeff_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    arr = np.atleast_1d(arr)
    if arr.ndim != 1:
        raise InvalidInputError("coefficients must form a one-dimensional vector")
    if arr.size == 0:
        raise InvalidInputError("coefficient vector must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("coefficients must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class CoeffSeries:
    """Taylor coefficients plus a certified H^2 bound on the discarded tail.

    Attributes
    ----------
    coeffs:
        Complex vector; index k holds the coefficient of z**k.
    tail_bound:
        Nonnegative real.  Zero marks an exact polynomial; a positive value
        upper-bounds the H^2 norm of everything past the stored range.
    """

    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        tb = float(self.tail_bound)
        if not np.isfinite(tb) or tb < 0.0:
            raise InvalidParameterError("tail_bound must be finite and nonnegative")
        object.__setattr__(self, "tail_bound", tb)

    @property
    def truncation_degree(self) -> int:
        return len(self.coeffs) - 1

    def is_exact_polynomial(self) -> bool:
        return self.tail_bound == 0.0

    def h2_norm(self) -> float:
        """l2 norm of the stored coefficients; the tail is not included."""
        return float(np.linalg.norm(self.coeffs))

    def pad(self, degree: int) -> "CoeffSeries":
        """Extend with zero coefficients up to ``degree`` (no-op if shorter)."""
        if degree <= self.truncation_degree:
            return self
        out = np.zeros(degree + 1, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return CoeffSeries(out, self.tail_bound)

    def __add__(self, other: "CoeffSeries") -> "CoeffSeries":
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=np.complex128)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return CoeffSeries(out, self.tail_bound + other.tail_bound)

    def __sub__(self, other: "CoeffSeries") -> "CoeffSeries":
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CoeffSeries":
        return CoeffSeries(-self.coeffs, self.tail_bound)

    def __mul__(self, scalar) -> "CoeffSeries":
        if isinstance(scalar, CoeffSeries):
            raise TypeError("use multiply() for series products")
        c = complex(scalar)
        return CoeffSeries(self.coeffs * c, self.tail_bound * abs(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class ZeroFreeReport:
    """Outcome of the argument-principle certificate on the closed disc.

    ``indeterminate`` marks the case where the Lipschitz margin never
    resolved at the grid cap; it is distinct from a certified ``False``.
    """

    zero_free: bool
    winding_number: int
    min_modulus_on_circle: float
    grid_size: int
    indeterminate: bool = False


def multiply(a: CoeffSeries, b: CoeffSeries, max_degree: int | None = None) -> CoeffSeries:
    """Cauchy product, truncated at ``max_degree`` (the full product by default).

    Tail bounds propagate as ||a|| tail(b) + ||b|| tail(a) + tail(a) tail(b)
    in H^2 norms, plus the l2 mass of any truncated product coefficients.
    """
    full = np.convolve(a.coeffs, b.coeffs)
    if max_degree is None:
        max_degree = len(full) - 1
    if max_degree < 0:
        raise InvalidParameterError("max_degree must be nonnegative")
    tail = (
        a.h2_norm() * b.tail_bound
        + b.h2_norm() * a.tail_bound
        + a.tail_bound * b.tail_bound
    )
    if len(full) - 1 > max_degree:
        tail += float(np.linalg.norm(full[max_degree + 1 :]))
        full = full[: max_degree + 1]
    return CoeffSeries(full, tail)


def exp_series(a: CoeffSeries, N: int | None = None, grid_log2: int | None = None) -> CoeffSeries:
    """Taylor coefficients of exp(a) up to degree ``N``, read off a circle grid.

    With G = 2**grid_log2 and spec = fft(exp(a at the G-th roots of unity)) / G,
    the coefficients are spec[:N+1] and ``tail_bound`` is the l2 mass of
    spec[N+1:].  ``N`` defaults to the truncation degree of ``a``; only the
    stored coefficients of ``a`` enter.

    exp(a) has no negative frequencies, so spec[j] for every j < G is the
    Taylor coefficient b_j plus the aliases b_{j+G}, b_{j+2G}, ...  The
    default grid is the smallest power of two with G >= 4 (max(N, deg a) + 1),
    which leaves the spectrum room to decay past N: on the 41 zero-free
    multipliers of the steering examples (N up to 4096) it matches the
    power-series recurrence to 2.4e-16 in relative l2 norm, while G = 4N
    leaves aliasing at 7.1e-12.  ``tail_bound`` is the grid's estimate of
    the mass of b_{N+1}..b_{G-1}, not yet a certificate: the mass past G
    and the rounding of the transform are not in it.
    """
    if N is None:
        N = a.truncation_degree
    if N < 0:
        raise InvalidParameterError("N must be nonnegative")
    if grid_log2 is None:
        grid_log2 = (4 * (max(N, a.truncation_degree) + 1) - 1).bit_length()
    G = 1 << grid_log2
    if N >= G:
        raise InvalidParameterError("N must lie below the grid size")
    spec = np.fft.fft(np.exp(eval_on_circle_grid(a, grid_log2))) / G
    return CoeffSeries(spec[: N + 1], float(np.linalg.norm(spec[N + 1 :])))


def evaluate(a: CoeffSeries, z):
    """Two-level Horner evaluation of the stored polynomial part at ``z``.

    The N + 1 coefficients fill rows of B = floor(sqrt(N + 1)); one Horner
    pass in z runs down the columns of every row at once while it builds
    z**B, and a second runs in z**B over the row values, so a call costs
    about 2 sqrt(N) vectorized steps.  Every step is elementwise, and ``z``
    is flattened first, so a point's value does not depend on the other
    points, and a scalar takes the same path.  (numpy rounds a complex
    product of numpy scalars, or an in-place one on a single element,
    differently from its vector loop, hence no 0-d values and no ``*=``.)
    ``z`` may be a scalar or an ndarray; the tail bound controls the
    committed error only on the closed unit disc.
    """
    zz = np.asarray(z, dtype=np.complex128)
    x = zz.reshape(-1)
    c = a.coeffs
    B = math.isqrt(len(c))
    rows = np.zeros(-(-len(c) // B) * B, dtype=np.complex128)
    rows[: len(c)] = c
    rows = rows.reshape(-1, B)
    acc = np.repeat(rows[:, -1:], len(x), axis=1)
    zB = x
    for j in range(B - 2, -1, -1):
        acc = acc * x + rows[:, j : j + 1]
        zB = zB * x
    out = acc[-1]
    for row in acc[-2::-1]:
        out = out * zB + row
    if zz.ndim == 0:
        return complex(out[0])
    return out.reshape(zz.shape)


def dilate(a: CoeffSeries, r: float) -> CoeffSeries:
    """Replace a(z) by a(r z) for 0 < r <= 1."""
    r = float(r)
    if not (0.0 < r <= 1.0):
        raise InvalidParameterError("dilation radius must lie in (0, 1]")
    if r == 1.0:
        return a
    powers = np.power(r, np.arange(len(a.coeffs)))
    return CoeffSeries(a.coeffs * powers, a.tail_bound * r ** (a.truncation_degree + 1))


def eval_on_circle_grid(a: CoeffSeries, grid_log2: int) -> np.ndarray:
    """Values of the stored polynomial at the G = 2**grid_log2 roots of unity.

    Exact up to rounding even when the degree exceeds G, because the
    coefficients are folded mod G before the transform (z**G = 1 there).
    """
    G = 1 << grid_log2
    c = a.coeffs
    folded = np.zeros(G, dtype=np.complex128)
    for start in range(0, len(c), G):
        chunk = c[start : start + G]
        folded[: len(chunk)] += chunk
    return np.fft.ifft(folded) * G


def _discrete_winding(vals: np.ndarray) -> int:
    nz = vals[vals != 0]
    if len(nz) < 2:
        return 0
    total = float(np.sum(np.angle(np.roll(nz, -1) / nz)))
    return int(round(total / (2.0 * np.pi)))


def zero_free_on_closed_disc(
    p: CoeffSeries,
    grid_log2: int = WINDING_GRID_LOG2,
    cap_log2: int = WINDING_GRID_CAP_LOG2,
) -> ZeroFreeReport:
    """Certify that an exact polynomial has no zeros in the closed unit disc.

    The certificate combines the argument winding along the circle with a
    Lipschitz margin: with L = sum k |p_k| and grid spacing dtheta, a
    minimum sampled modulus above L * dtheta + rho rules out circle zeros,
    and winding 0 then rules out interior zeros by the argument principle.
    rho = FFT_ROUNDING * eps * log2(G) * sum |p_k| bounds the rounding
    error of each grid value from eval_on_circle_grid: every value passes
    through log2(G) butterfly stages whose operands are at most sum |p_k|,
    each costing a few machine epsilons, and FFT_ROUNDING = 8 covers that
    few with room.  The grid doubles from 2**grid_log2 until the margin
    resolves or the cap is hit, in which case the report is marked
    indeterminate.
    """
    if not p.is_exact_polynomial():
        raise InvalidInputError("zero-freeness certification needs an exact polynomial")
    c = p.coeffs
    if not np.any(c):
        raise InvalidInputError("the zero polynomial has no zero-free certificate")
    L = float(np.sum(np.arange(len(c)) * np.abs(c)))
    stage_rounding = FFT_ROUNDING * np.finfo(float).eps * float(np.sum(np.abs(c)))
    q = max(grid_log2, int(4 * len(c) - 1).bit_length())
    cap = max(cap_log2, q)
    while True:
        G = 1 << q
        vals = eval_on_circle_grid(p, q)
        mods = np.abs(vals)
        m = float(mods.min())
        dtheta = 2.0 * np.pi / G
        if m == 0.0:
            return ZeroFreeReport(False, _discrete_winding(vals), 0.0, G, False)
        if m > L * dtheta + stage_rounding * q:
            w = _discrete_winding(vals)
            return ZeroFreeReport(w == 0, w, m, G, False)
        if q >= cap:
            return ZeroFreeReport(False, _discrete_winding(vals), m, G, True)
        q += 1
