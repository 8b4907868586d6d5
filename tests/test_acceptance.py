"""Top-level acceptance checks, one per numbered criterion.

Each test prints exactly one [PASS]/[FAIL] line with its measured numbers
and then asserts.  Criterion 8's second half (the Dirichlet-norm variant
at eps = 0.1) is stated as written even though the pointwise evaluation
bound makes that instance unreachable at any implementable degree; it is
expected to fail and the failure line carries the proof constants.
"""

import json
import math
import time

import numpy as np
import pytest

from opalab import (
    AlphaWeight,
    ApproximationBudgetError,
    BoundarySet,
    CoeffSeries,
    DomainError,
    blaschke_series,
    equilibrium_measure,
    dirichlet_rudin,
    evaluate,
    gram_matrix,
    hardy_rudin,
    multiply,
    neighborhood,
    opa_solve,
    polynomial_inner_outer,
    simultaneous_zero_free,
    steer,
)
from opalab.cli import main as cli_main
from opalab.series import eval_on_circle_grid
from opalab.spaces import norm_alpha

H2 = AlphaWeight(0.0)
DIR = AlphaWeight(1.0)

# Crossing order for criterion 4, measured once and pinned as a regression
# constant: the 4096-grid sup error of the reciprocal approximants of
# 1 - z/2 first drops under 1e-3 at order 11 (sup there 7.32e-4).
CROSSING_N = 11


def line(capsys, num, ok, text):
    with capsys.disabled():
        print("\n[%s] criterion %02d: %s" % ("PASS" if ok else "FAIL", num, text))


def test_criterion_01(capsys):
    t0 = time.perf_counter()
    f = CoeffSeries([1.0, -1.0])
    worst_coeff = 0.0
    worst_res = 0.0
    for n in range(31):
        r = opa_solve(f, n, H2)
        want = np.array([1.0 - (k + 1.0) / (n + 2.0) for k in range(n + 1)])
        worst_coeff = max(worst_coeff, float(np.max(np.abs(r.Q.coeffs - want))))
        worst_res = max(worst_res, abs(r.residual**2 - 1.0 / (n + 2.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_coeff <= 1e-10 and worst_res <= 1e-10 and elapsed < 1.0
    text = (
        "closed form for 1/(1-z), n = 0..30: coeff dev %.2e, residual dev %.2e "
        "(%.2fs < 1s)" % (worst_coeff, worst_res, elapsed)
    )
    line(capsys, 1, ok, text)
    assert ok, text


def test_criterion_02(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    worst_toe = 0.0
    for _ in range(100):
        deg = int(rng.integers(1, 11))
        f = CoeffSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        n = int(rng.integers(1, 9))
        M0 = gram_matrix(f, n, H2).M
        ok &= bool(np.max(np.abs(M0 - M0.conj().T)) < 1e-12)
        ok &= bool(np.min(np.linalg.eigvalsh(M0)) > 0.0)
        for d in range(n):
            diag = np.diag(M0, d)
            worst_toe = max(worst_toe, float(np.max(np.abs(diag - diag[0]))))
        M1 = gram_matrix(f, n, DIR).M
        ok &= bool(np.max(np.abs(M1 - M1.conj().T)) < 1e-12)
        ok &= bool(np.min(np.linalg.eigvalsh(M1)) > 0.0)
    ok &= worst_toe < 1e-12
    W = gram_matrix(CoeffSeries([1.0, -1.0]), 1, DIR).M
    ok &= abs(W[0, 0] - 3.0) < 1e-12 and abs(W[1, 1] - 5.0) < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    text = (
        "Gram structure on 100 random polynomials: Toeplitz dev %.2e, "
        "witness diag (%.0f, %.0f) (%.2fs < 5s)" % (worst_toe, W[0, 0].real, W[1, 1].real, elapsed)
    )
    line(capsys, 2, ok, text)
    assert ok, text


def test_criterion_03(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 6))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(c[0]) < 0.2:
            c[0] += 0.5
        f = CoeffSeries(c)
        count = int(rng.integers(1, 4))
        zeros = rng.uniform(0.1, 0.7, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        B = blaschke_series(list(zeros), 256)
        fB = multiply(f, B, max_degree=256 + deg)
        sigma = complex(np.conj(evaluate(B, 0.0)))
        for n in range(11):
            lhs = opa_solve(fB, n, H2).Q.coeffs
            rhs = sigma * opa_solve(f, n, H2).Q.coeffs
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    text = (
        "inner-factor invariance over 20 random pairs, n <= 10: "
        "max coeff dev %.2e (%.2fs < 30s)" % (worst, elapsed)
    )
    line(capsys, 3, ok, text)
    assert ok, text


def test_criterion_04(capsys):
    t0 = time.perf_counter()
    f = CoeffSeries([1.0, -0.5])
    recip = 1.0 / eval_on_circle_grid(f, 12)
    sups = []
    for n in range(129):
        q = opa_solve(f, n, H2).Q
        sups.append(float(np.max(np.abs(eval_on_circle_grid(q, 12) - recip))))
    crossing = next((n for n, s in enumerate(sups) if s < 1e-3), None)
    tail = sups[crossing:] if crossing is not None else []
    max_rise = max((b - a for a, b in zip(tail, tail[1:])), default=np.inf)
    elapsed = time.perf_counter() - t0
    ok = crossing == CROSSING_N and crossing <= 128 and max_rise <= 1e-9
    text = (
        "4096-grid sup error of 1/(1-z/2) crosses 1e-3 at n = %s "
        "(pinned %d), later rise %.1e (%.2fs)" % (crossing, CROSSING_N, max_rise, elapsed)
    )
    line(capsys, 4, ok, text)
    assert ok, text


def test_criterion_05(capsys):
    t0 = time.perf_counter()
    E = BoundarySet.from_points([0.0, np.pi / 2])
    rf = hardy_rudin(E, neighborhood(E, 0.1), 0.01, 12.0)
    c = rf.certified
    elapsed = time.perf_counter() - t0
    dev_limit = math.exp(-12.0) + 1e-4
    ok = (
        c.sup_bound <= 2.0 + 1e-6
        and c.off_neighborhood_sup < 0.01
        and c.peak_deviation < dev_limit
        and elapsed < 10.0
    )
    text = (
        "peak function on {1, i}: sup %.6f, off %.2e, peak dev %.2e < %.2e "
        "(%.2fs < 10s)" % (c.sup_bound, c.off_neighborhood_sup, c.peak_deviation,
                           dev_limit, elapsed)
    )
    line(capsys, 5, ok, text)
    assert ok, text


def test_criterion_06(capsys):
    t0 = time.perf_counter()
    full = equilibrium_measure(BoundarySet.full_circle(), 512)
    half = equilibrium_measure(BoundarySet(arcs=((0.0, np.pi / 2),)), 512)
    elapsed = time.perf_counter() - t0
    target = math.sin(math.pi / 4.0)
    ok = (
        abs(full.capacity - 1.0) <= 0.02
        and abs(half.capacity - target) / target <= 0.03
        and elapsed < 20.0
    )
    text = (
        "capacity: full circle %.6f (within 2%% of 1), semicircle %.6f vs %.4f "
        "(%.2fs < 20s)" % (full.capacity, half.capacity, target, elapsed)
    )
    line(capsys, 6, ok, text)
    assert ok, text


def test_criterion_07(capsys):
    t0 = time.perf_counter()
    E = BoundarySet.from_points([0.0])
    rf = dirichlet_rudin(E, neighborhood(E, 0.3), 0.05)
    h = rf.h.coeffs
    k = np.arange(len(h))
    energy_direct = float(np.sum(k * np.abs(h) ** 2))
    h2_sq = float(np.sum(np.abs(h) ** 2))
    full_sq = norm_alpha(rf.h, DIR) ** 2
    gap = abs(full_sq - (energy_direct + h2_sq))
    elapsed = time.perf_counter() - t0
    ok = (
        rf.certified.dirichlet_energy is not None
        and rf.certified.dirichlet_energy <= 0.05
        and abs(rf.certified.dirichlet_energy - energy_direct) <= 1e-10
        and gap <= 1e-10
    )
    text = (
        "low-energy peak on {1}: energy %.3e <= 0.05, norm identity gap %.2e "
        "(%.2fs)" % (rf.certified.dirichlet_energy, gap, elapsed)
    )
    line(capsys, 7, ok, text)
    assert ok, text


def test_criterion_08(capsys):
    g = CoeffSeries(1.0 / np.array([math.factorial(k) for k in range(13)], float))
    E = BoundarySet.from_points([0.0, np.pi])
    targets = [2.0, -1.0]

    t0 = time.perf_counter()
    res = simultaneous_zero_free(g, targets, E, 0.05, space="hardy")
    t_hardy = time.perf_counter() - t0
    ok_h = (
        res.report.zero_free
        and not res.report.indeterminate
        and res.space_error < 0.05
        and res.boundary_error < 0.05
        and t_hardy < 60.0
    )

    t1 = time.perf_counter()
    ok_d = False
    detail_d = ""
    try:
        res_d = simultaneous_zero_free(g, targets, E, 0.1, space="dirichlet")
        ok_d = (
            res_d.report.zero_free
            and res_d.space_error < 0.1
            and res_d.boundary_error < 0.1
            and time.perf_counter() - t1 < 60.0
        )
        detail_d = "dirichlet errors (%.3f, %.3f)" % (res_d.space_error, res_d.boundary_error)
    except ApproximationBudgetError as exc:
        d = exc.diagnostics
        detail_d = (
            "dirichlet leg infeasible: needs |P-g| moving a point value by %.4f "
            "but the norm budget only reaches %.4f at max degree %d"
            % (
                d.get("required_boundary_deviation", float("nan")),
                d.get("coefficient_budget", float("nan")) + 0.1,
                d.get("max_degree", -1),
            )
        )

    ok = ok_h and ok_d
    text = (
        "zero-free approximation of truncated e^z: hardy errors (%.4f, %.4f) in %.1fs; %s"
        % (res.space_error, res.boundary_error, t_hardy, detail_d)
    )
    line(capsys, 8, ok, text)
    assert ok, text


def test_criterion_09(capsys):
    f = CoeffSeries([-0.5, 1.0])
    E = BoundarySet.from_points([0.0])
    results = []
    ok = True
    for val in (3.0, -2.0, 5.0j):
        t0 = time.perf_counter()
        res = steer(f, CoeffSeries([val]), E, 0.1)
        elapsed = time.perf_counter() - t0
        nf = len(res.F_coeffs.coeffs)
        diff = res.F_coeffs.coeffs.copy()
        diff[: len(f.coeffs)] -= f.coeffs
        norm_err = float(np.linalg.norm(diff))
        track = abs(evaluate(res.Q_m, 1.0) - val)
        direct = opa_solve(res.F_coeffs, res.m, H2).Q
        ident = float(np.max(np.abs(direct.coeffs - res.Q_m.coeffs)))
        ok &= norm_err < 0.1 and track < 0.1 and ident <= 1e-6 and elapsed < 120.0
        results.append("g=%s: m=%d, |F-f|=%.3f, track %.3f, ident %.1e, %.0fs"
                       % (val, res.m, norm_err, track, ident, elapsed))
    text = "steering z - 1/2 on {1}: " + "; ".join(results)
    line(capsys, 9, ok, text)
    assert ok, text


def test_criterion_10(capsys, tmp_path):
    ok = True
    r = opa_solve(CoeffSeries([0.0, 1.0, 0.5]), 4, H2)
    ok &= bool(np.all(r.Q.coeffs == 0.0)) and r.residual == 1.0

    def jfile(name, tree):
        p = tmp_path / name
        p.write_text(json.dumps(tree))
        return str(p)

    g_file = jfile("g.json", {"coeffs": [[2.0, 0.0]]})
    f_file = jfile("f.json", {"coeffs": [[1.0, 0.0], [-0.5, 0.0]]})
    arcs_file = jfile("arcs.json", {"arcs": [[0.0, 0.5]]})
    targets_file = jfile("t.json", {"targets": [[0.0, 2.0, 0.0]]})
    code_zf = cli_main(
        ["zerofree", "approx", "--g", g_file, "--set", arcs_file, "--targets",
         targets_file, "--eps", "0.1", "--out", str(tmp_path / "zf.json")]
    )
    code_st = cli_main(
        ["steer", "--f", f_file, "--g", g_file, "--set", arcs_file,
         "--eps", "0.1", "--out", str(tmp_path / "st.json")]
    )
    ok &= code_zf == 2 and code_st == 2
    capsys.readouterr()

    zero = CoeffSeries([0.0, 0.0])
    one_pt = BoundarySet.from_points([0.0])
    rejected = 0
    for call in (
        lambda: opa_solve(zero, 2, H2),
        lambda: simultaneous_zero_free(zero, [1.0], one_pt, 0.1),
        lambda: steer(zero, CoeffSeries([2.0]), one_pt, 0.1),
        lambda: steer(CoeffSeries([1.0, -0.5]), zero, one_pt, 0.1),
        lambda: polynomial_inner_outer(zero),
    ):
        try:
            call()
        except DomainError:
            rejected += 1
    ok &= rejected == 5
    text = (
        "degenerate contracts: Q = 0 with residual 1 at f(0) = 0, arc sets exit "
        "(%d, %d), zero polynomial rejected %d/5 places" % (code_zf, code_st, rejected)
    )
    line(capsys, 10, ok, text)
    assert ok, text
