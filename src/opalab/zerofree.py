"""Simultaneous zero-free approximation: match g in norm and targets on E.

Given a zero-free g, boundary targets on a finite set E, and a budget eps,
the pipeline produces an exact polynomial P, certified zero-free on the
closed disc, with ||P - g|| < eps in the chosen space and |P - target| < eps
at every point of E.  The multiplier is Phi = exp(F) where F collects one
analytic needle per point, each with damped boundary peak exactly 1, so
P = g_r * Phi hits target_j = g_r(zeta_j) * exp(v_j) while moving g_r very
little in norm.  Each point gets its own log, v_j = Log(target_j / g_r(zeta_j))
on the principal branch: the paper cuts a general closed null set E into
pieces of near-constant ratio, and for the finite E accepted here every
piece is one point.

Each needle is fitted, not fixed.  Closed-form profiles (Gaussian, tent,
Poisson, outer-kernel quotients) all waste norm through the same channel:
the harmonic conjugate of whatever carries the phase spills order-one values
onto the shoulders, the conjugate of the modulus profile tilts the phase,
and under exp these couplings stack multiplicatively in the same angular
zone.  Tight budgets need the log-modulus and phase boundary profiles tuned
jointly, so each needle starts from a tent/Gaussian guess on a graded node
ladder and is refined by a few Levenberg-Marquardt steps on the actual
mismatch energy weight * |exp(F) - 1|^2, with the analytic completion and
the band limit inside the objective, so fine structure the band cannot
resolve buys nothing.  The module's own ``minimize`` takes the steps; every
fit resolves through that one global name, so a profiler that rebinds it
sees each fit.  The fit sees exp(F) on a 2^NEEDLE_GRID_LOG2 grid, not the
exp series truncated at the multiplier degree that ships; the polish rounds
and the zero-free certificate handle that truncation.  The step
count NEEDLE_MAXITER sets how far the needles converge, and with it the
approximant order m that steering needs: fully converged needles leave
spectral mass past the degree, the truncated exp misses the target at the
peak, and m grows past what the order search allows.  Two penalties keep the
fit honest: a floor on Re F (a needle that digs |Phi| toward zero would
leave the winding certificate no margin) and the point condition F = v at
the needle's center, enforced exactly afterwards by rescaling.  The band
limit stays at half the multiplier degree so exp has spectral headroom;
truncation is the only step that can create disc zeros, so the final
polynomial is always pushed through the certificate and retried on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundarySet
from .errors import (
    ApproximationBudgetError,
    InvalidInputError,
    InvalidParameterError,
)
from .series import (
    CoeffSeries,
    ZeroFreeReport,
    dilate,
    eval_on_circle_grid,
    evaluate,
    exp_series,
    multiply,
    zero_free_on_closed_disc,
)
from .spaces import AlphaWeight, norm_alpha, space_weight

LEVEL_CAP = 512
DEGREE_CAP = 8192
LEVEL_START = 8
DEGREE_START = 128
DILATION_SCHEDULE = tuple(1.0 - 10.0 ** (-k) for k in range(1, 8))
TRIVIAL_RATIO_TOL = 1e-12
NEEDLE_GRID_LOG2 = 14
NODE_LADDER = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
LADDER_SCALE = 8.0
BAND_DAMP = 3.2
RE_FLOOR = 1.25
FLOOR_PENALTY = 500.0
POINT_PENALTY = 1.0
NEEDLE_MAXITER = 8
POLISH_ROUNDS = 8
# sum |F_k| bounds |F| on the closed disc.  Past this cap exp(F), its
# products or its squared norms could overflow; the polish of overlapping
# needles can diverge that far, and the attempt is then dropped.
F_L1_CAP = 300.0

_G = 1 << NEEDLE_GRID_LOG2
_ANG = 2.0 * np.pi * np.arange(_G) / _G
_GN_CHUNK = 2048


@dataclass(frozen=True)
class ZeroFreeTrace:
    dilation: float
    level: int
    degree: int


@dataclass(frozen=True, eq=False)
class ZeroFreeApproxResult:
    P: CoeffSeries
    report: ZeroFreeReport
    space_error: float
    boundary_error: float
    trace: ZeroFreeTrace


def _analytic_mask(band: int) -> np.ndarray:
    """Fourier multiplier on frequencies 0..band taking a complex boundary
    profile u + i*psi to the boundary values of its band-limited analytic
    completion.

    Positive frequencies are doubled (completion of a real profile is
    coefficient-doubling); negatives and those past the band are dropped, and
    everything rides a Gaussian roll-off that is negligible at the band edge,
    so hard truncation at the band adds no ringing.
    """
    am = 2.0 * np.exp(-((BAND_DAMP * np.arange(band + 1) / band) ** 2))
    am[0] = 1.0
    return am


def _hat_basis(theta: float, base_width: float) -> np.ndarray:
    """Piecewise-linear hats on a graded node ladder around theta.

    Nodes cluster at the needle center (spacing base_width / LADDER_SCALE)
    and stretch to 6 base widths, so one ladder resolves both a narrow peak
    and its wide shoulders; profiles are even in the local angle.
    """
    t = np.abs(np.angle(np.exp(1j * (_ANG - theta))))
    nodes = np.asarray(NODE_LADDER, dtype=float) * (base_width / LADDER_SCALE)
    hats = np.zeros((len(nodes), _G))
    for p in range(len(nodes)):
        if p > 0:
            lo = nodes[p - 1]
            m = (t >= lo) & (t <= nodes[p])
            hats[p][m] = (t[m] - lo) / (nodes[p] - lo)
        else:
            m = t <= nodes[1]
            hats[p][m] = (nodes[1] - t[m]) / nodes[1]
        if 0 < p < len(nodes) - 1:
            hi = nodes[p + 1]
            m = (t > nodes[p]) & (t <= hi)
            hats[p][m] = (hi - t[m]) / (hi - nodes[p])
    return hats


def _needle_objective(
    theta: float, v: complex, base_width: float, w2: np.ndarray, band: int
):
    """Fit objective of one needle: (cost_grad, gauss_newton, x0, spectrum).

    The parameters p = (psi, u) are nodal phase and log-modulus values on the
    hat ladder, and F = (u + i psi) H on the grid, where the rows of
    H = ifft(S) are the completed, band-limited hats.  The cost is the sum of
    squares of three residuals: r1 = sqrt(w2/G)(exp(F) - 1) on the grid, a
    stiff r2 = sqrt(FLOOR_PENALTY/G) * max(0, -Re F - RE_FLOOR) (certificate
    margin), and a soft anchor r3 = sqrt(POINT_PENALTY)(F(zeta) - v) on the
    point value (kept exact by the final rescale; the anchor only stops the
    fit from trading the point for energy).  cost_grad(p) returns the cost
    and its exact gradient 2 J^T r, gauss_newton(p) the matrix 2 J^T J, x0 is
    the tent/Gaussian start, and spectrum(p) is _G times the needle's
    coefficients 0..band.
    """
    hats = _hat_basis(theta, base_width)
    nn = len(hats)
    S = np.fft.fft(hats, axis=1)[:, : band + 1] * _analytic_mask(band)
    H = np.fft.ifft(S, _G, axis=1)
    point_row = S @ np.exp(1j * np.arange(band + 1) * theta) / _G
    sw = np.sqrt(w2 / _G)
    floor_w = FLOOR_PENALTY / _G

    def spectrum(p: np.ndarray) -> np.ndarray:
        return np.einsum("p,pk->k", p[nn:] + 1j * p[:nn], S)

    def cost_grad(p: np.ndarray):
        c = p[nn:] + 1j * p[:nn]
        F = c @ H
        B = np.exp(F)
        r1 = sw * (B - 1.0)
        viol = np.maximum(0.0, -F.real - RE_FLOOR)
        dv = complex(c @ point_row) - v
        E = (
            float(np.vdot(r1, r1).real)
            + floor_w * float(viol @ viol)
            + POINT_PENALTY * abs(dv) ** 2
        )
        a = np.conj(H @ (sw * B * np.conj(r1))) + POINT_PENALTY * np.conj(point_row) * dv
        Hv = H @ viol
        grad = 2.0 * np.concatenate([a.imag + floor_w * Hv.imag, a.real - floor_w * Hv.real])
        return E, grad

    def gauss_newton(p: np.ndarray) -> np.ndarray:
        F = (p[nn:] + 1j * p[:nn]) @ H
        # |d r1 / d c| = sw |exp(F)| |H|: the phase of exp(F) cancels in M
        mod = sw * np.exp(F.real)
        M = POINT_PENALTY * np.outer(np.conj(point_row), point_row)
        for s in range(0, _G, _GN_CHUNK):
            K = H[:, s : s + _GN_CHUNK] * mod[s : s + _GN_CHUNK]
            M += np.conj(K) @ K.T
        Ha = H[:, F.real < -RE_FLOOR]
        R = np.concatenate([Ha.imag, -Ha.real])
        A = np.block([[M.real, M.imag], [-M.imag, M.real]]) + floor_w * (R @ R.T)
        return 2.0 * A

    nodes = np.asarray(NODE_LADDER, dtype=float) * (base_width / LADDER_SCALE)
    x0 = np.concatenate([
        v.imag * np.maximum(0.0, 1.0 - nodes / base_width),
        v.real * np.exp(-((nodes / (base_width / 3.0)) ** 2)),
    ])
    return cost_grad, gauss_newton, x0, spectrum


@dataclass(frozen=True, eq=False)
class NeedleFit:
    x: np.ndarray
    fun: float
    nit: int
    nfev: int


def minimize(cost_grad, x0, hess) -> NeedleFit:
    """Levenberg-Marquardt on cost_grad(x) = (cost, gradient) and the
    Gauss-Newton matrix hess(x): each step solves (A + lam diag(A)) d = -g;
    lam starts at 1e-3, is divided by 3 on an accepted step and multiplied
    by 4 on a rejected one.  The loop stops after NEEDLE_MAXITER accepted
    steps, or when no damped step lowers the cost: the damping has shrunk
    the step below the rounding of x.
    """
    x = np.asarray(x0, dtype=float)
    f, g = cost_grad(x)
    nfev, nit, lam = 1, 0, 1e-3
    while nit < NEEDLE_MAXITER:
        A = hess(x)
        D = np.diag(np.diag(A))
        while True:
            step = np.linalg.solve(A + lam * D, -g)
            if np.linalg.norm(step) <= np.finfo(float).eps * np.linalg.norm(x):
                return NeedleFit(x, f, nit, nfev)
            f_new, g_new = cost_grad(x + step)
            nfev += 1
            if f_new < f:
                x, f, g, lam = x + step, f_new, g_new, lam / 3.0
                nit += 1
                break
            lam *= 4.0
    return NeedleFit(x, f, nit, nfev)


def _refined_needle(
    theta: float, v: complex, base_width: float, w2: np.ndarray, band: int
) -> np.ndarray:
    """Coefficients of one needle F with F(e^{i theta}) = v exactly.

    One ``minimize`` call fits the least-squares objective of
    _needle_objective.  The profile is linear in its parameters and the
    completion, band limit and Hilbert transform are Fourier multipliers, so
    H is computed once per fit, the residual Jacobian is exact, and the
    Gauss-Newton matrix is one 12 x 12 complex block built in grid chunks.

    The fit scores exp(F) on the grid, not the truncated exp series that
    ships, and it stops after NEEDLE_MAXITER steps, short of convergence: the
    step count sets the order m that steering needs (module docstring).
    """
    cost_grad, gauss_newton, x0, spectrum = _needle_objective(theta, v, base_width, w2, band)
    c = spectrum(minimize(cost_grad, x0, gauss_newton).x) / _G
    return c * (v / evaluate(CoeffSeries(c), np.exp(1j * theta)))


def _normalize_targets(target, E: BoundarySet) -> np.ndarray:
    if not E.points or E.positive_measure:
        raise InvalidInputError(
            "zero-free approximation needs a finite nonempty point set E"
        )
    pts = np.asarray(E.points)
    if isinstance(target, dict):
        out = np.empty(len(pts), dtype=np.complex128)
        keys = [(float(t), complex(v)) for t, v in target.items()]
        for i, p in enumerate(pts):
            hit = [v for t, v in keys if abs((t - p + np.pi) % (2 * np.pi) - np.pi) < 1e-9]
            if len(hit) != 1:
                raise InvalidInputError("target must assign exactly one value per point of E")
            out[i] = hit[0]
    else:
        out = np.asarray(target, dtype=np.complex128)
        if out.shape != pts.shape:
            raise InvalidInputError("target values must align with the points of E")
    if not np.all(np.isfinite(out)):
        raise InvalidInputError("targets must be finite")
    if np.any(np.abs(out) == 0.0):
        raise InvalidInputError("targets must be nonzero everywhere on E")
    return out


def _select_dilation(g: CoeffSeries, eps: float, w: AlphaWeight):
    for r in DILATION_SCHEDULE:
        g_r = dilate(g, r)
        if norm_alpha(g_r - g, w) >= eps / 4.0:
            continue
        report = zero_free_on_closed_disc(g_r)
        if report.zero_free and not report.indeterminate:
            return r, g_r
    raise ApproximationBudgetError(
        "no dilation radius gives a certified zero-free g_r within eps/4",
        {"schedule": DILATION_SCHEDULE},
    )


def _dirichlet_point_bound_abort(g, targets, zs, eps, gate, g_degree):
    """Abort early when the Dirichlet norm budget provably cannot reach a target.

    Point evaluations are controlled by |u(z)| <= ||u||_D * sqrt(sum 1/(k+1))
    over the representable degrees, so a target too far from g at a point of
    E is out of reach at any degree the budget allows.
    """
    max_deg = DEGREE_CAP + g_degree
    const = float(np.sqrt(np.sum(1.0 / np.arange(1.0, max_deg + 2.0))))
    reachable = eps * const + gate
    deviation = float(np.max(np.abs(targets - evaluate(g, zs))))
    if deviation > reachable:
        raise ApproximationBudgetError(
            "Dirichlet norm budget cannot move g far enough at a point of E",
            {
                "required_boundary_deviation": deviation,
                "coefficient_budget": eps * const,
                "point_bound_constant": const,
                "max_degree": max_deg,
            },
        )


def simultaneous_zero_free(
    g: CoeffSeries,
    target,
    E: BoundarySet,
    eps: float,
    space: str = "hardy",
    boundary_eps: float | None = None,
) -> ZeroFreeApproxResult:
    """Produce certified zero-free P with ||P-g|| < eps and |P-target| < eps on E.

    ``space`` names an entry of ``spaces.SPACES``.  ``boundary_eps`` tightens
    only the pointwise gate (used by the steering construction, which needs
    boundary accuracy finer than the norm budget).  The retry schedule
    doubles needle level and multiplier degree in step up to the caps, then
    re-walks the degree cap with wider needles; an attempt whose polish
    drives sum |F_k| past F_L1_CAP is dropped.  Exhaustion raises a budget
    error carrying the best errors achieved and the dropped (level, degree)
    attempts under ``diverged``.
    """
    w = space_weight(space)
    if eps <= 0.0:
        raise InvalidParameterError("eps must be positive")
    gate = boundary_eps if boundary_eps is not None else eps
    if gate <= 0.0:
        raise InvalidParameterError("boundary_eps must be positive")
    targets = _normalize_targets(target, E)
    zs = np.exp(1j * np.asarray(E.points))

    probe = zero_free_on_closed_disc(dilate(g, 1.0 - 1e-6))
    if not probe.zero_free or probe.indeterminate:
        raise InvalidInputError(
            "g must be zero-free on the open unit disc (winding certificate failed)"
        )

    r, g_r = _select_dilation(g, eps, w)
    ratios = targets / evaluate(g_r, zs)
    point_vs = [(float(p), complex(np.log(ratios[i]))) for i, p in enumerate(E.points)]

    if all(abs(v) <= TRIVIAL_RATIO_TOL for _, v in point_vs):
        P = CoeffSeries(g_r.coeffs, 0.0)
        report = zero_free_on_closed_disc(P)
        space_error = norm_alpha(P - g, w) + g.tail_bound
        boundary_error = float(np.max(np.abs(evaluate(P, zs) - targets)))
        trace = ZeroFreeTrace(r, 0, len(P.coeffs) - 1)
        if report.zero_free and space_error < eps and boundary_error < gate:
            return ZeroFreeApproxResult(P, report, space_error, boundary_error, trace)
        raise ApproximationBudgetError(
            "trivial path failed its own gates",
            {"space_error": space_error, "boundary_error": boundary_error},
        )

    if w.alpha == 1.0:
        _dirichlet_point_bound_abort(g, targets, zs, eps, gate, len(g.coeffs) - 1)

    attempts = []
    dg = DEGREE_START
    while dg < DEGREE_CAP:
        for lv in (dg * LEVEL_START // DEGREE_START, dg * 2 * LEVEL_START // DEGREE_START):
            attempts.append((min(lv, LEVEL_CAP), dg))
        dg *= 2
    for lv in (LEVEL_CAP, LEVEL_CAP // 2, LEVEL_CAP // 4, LEVEL_CAP // 8):
        attempts.append((lv, DEGREE_CAP))
    attempts = list(dict.fromkeys(attempts))

    w2 = np.abs(eval_on_circle_grid(g_r, NEEDLE_GRID_LOG2)) ** 2
    best = {"space_error": np.inf, "boundary_error": np.inf, "level": 0, "degree": 0}
    diverged = []
    for level, degree in attempts:
        band = degree // 2
        needles = [
            (p, v, _refined_needle(p, v, 1.0 / level, w2, band))
            for p, v in point_vs
            if abs(v) > TRIVIAL_RATIO_TOL
        ]
        F = np.zeros(band + 1, dtype=np.complex128)
        for _, _, c in needles:
            F += c

        for polish in range(POLISH_ROUNDS + 1):
            if not np.sum(np.abs(F)) <= F_L1_CAP:
                P = None
                break
            phi = exp_series(CoeffSeries(F, 0.0), degree)
            P = CoeffSeries(multiply(g_r, phi).coeffs, 0.0)
            P_vals = evaluate(P, zs)
            boundary_error = float(np.max(np.abs(P_vals - targets)))
            if boundary_error < gate or polish == POLISH_ROUNDS:
                break
            # downstream truncation moved the point values; re-add the missing
            # log-ratio on the needles already fitted for this attempt
            shift = {}
            for i, p in enumerate(E.points):
                ratio = targets[i] / P_vals[i]
                shift[float(p)] = complex(np.log(np.abs(ratio)) + 1j * np.angle(ratio))
            F = F + sum((shift[p] / v) * c for p, v, c in needles)
        if P is None:
            diverged.append((level, degree))
            continue
        space_error = norm_alpha(P - g, w) + g.tail_bound
        if space_error + boundary_error < best["space_error"] + best["boundary_error"]:
            best = {
                "space_error": space_error,
                "boundary_error": boundary_error,
                "level": level,
                "degree": degree,
            }
        if space_error < eps and boundary_error < gate:
            report = zero_free_on_closed_disc(P)
            if report.zero_free and not report.indeterminate:
                trace = ZeroFreeTrace(r, level, degree)
                return ZeroFreeApproxResult(
                    P, report, space_error, boundary_error, trace
                )
    raise ApproximationBudgetError(
        "needle level and degree budgets exhausted", {**best, "diverged": diverged}
    )
