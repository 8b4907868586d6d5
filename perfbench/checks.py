"""The benchmark's own checks of every CLI output, read back from the artifacts.

None of this calls opalab: each check recomputes what the output claims with
numpy/scipy.  A check returns a list of problems (empty when the output meets
its contract) and a count of certified bounds that fall below what the
checker sees on its own grid.
"""

import csv
import json
import math
import os

import numpy as np
import scipy.linalg

SUP_LIMIT = 2.0 + 1e-6  # |h| <= 2 with the library's stated tolerance
OPA_MATCH = 1e-6
RESIDUAL_MATCH = 1e-6
GRID_FACTOR = 8
GRID_MIN_LOG2 = 14
WINDING_CAP_LOG2 = 22


def series(tree):
    c = np.array([complex(re, im) for re, im in tree["coeffs"]], dtype=np.complex128)
    return c, float(tree.get("tail_bound", 0.0))


def at_angles(c, thetas):
    """sum_k c_k exp(i k theta), summed directly."""
    k = np.arange(len(c))
    return np.array([np.dot(c, np.exp(1j * k * t)) for t in thetas])


def grid_size(n_coeffs):
    """Smallest power of two at least GRID_FACTOR times the coefficient count."""
    return 1 << max(GRID_MIN_LOG2, (GRID_FACTOR * n_coeffs - 1).bit_length())


def circle_values(c, G):
    """Values at exp(2 pi i j / G), j < G, for G >= len(c)."""
    return np.fft.ifft(c, n=G) * G


def in_arcs(angles, arcs):
    mask = np.zeros(len(angles), dtype=bool)
    for center, hw in arcs:
        mask |= np.abs((angles - center + np.pi) % (2.0 * np.pi) - np.pi) <= hw
    return mask


def opa_oracle(F, m):
    """Order-m least-squares approximant of 1/F without forming the matrix.

    The normal equations are Toeplitz in the autocorrelation
    r_d = sum_t F_{t+d} conj(F_t) (taken by FFT); in conjugated form
    toeplitz(conj(r), r) x = F_0 e_0 and Q = conj(x).
    """
    L = 1 << (2 * len(F)).bit_length()
    spec = np.fft.fft(F, L)
    r = np.fft.ifft(np.abs(spec) ** 2)[: len(F)]
    r = np.concatenate([r, np.zeros(max(0, m + 1 - len(r)))])[: m + 1]
    rhs = np.zeros(m + 1, dtype=np.complex128)
    rhs[0] = F[0]
    return np.conj(scipy.linalg.solve_toeplitz((np.conj(r), r), rhs))


def zero_free_certificate(c):
    """(zero-free, grid) from the winding number plus a Lipschitz margin.

    With L = sum k |c_k| and spacing d = 2 pi / G, a sampled modulus above
    L d keeps every arc between neighbouring samples away from 0, so the
    sampled winding is the true one and winding 0 means no zero in the
    closed disc.  The grid doubles until the margin resolves.
    """
    lip = float(np.sum(np.arange(len(c)) * np.abs(c)))
    G = grid_size(len(c))
    while True:
        vals = circle_values(c, G)
        if np.abs(vals).min() > lip * 2.0 * np.pi / G:
            turns = np.sum(np.angle(np.roll(vals, -1) / vals)) / (2.0 * np.pi)
            return int(round(turns)) == 0, G
        if G >= 1 << WINDING_CAP_LOG2:
            return False, G
        G *= 2


def _steer(a, p):
    out = a["outputs"]
    F, F_tail = series(out["F_coeffs"])
    Q, _ = series(out["Q_m"])
    m = int(out["m"])
    problems = []
    f = np.array(p["f"], dtype=np.complex128)
    diff = F.copy()
    diff[: len(f)] -= f
    norm = float(np.linalg.norm(diff)) + F_tail
    if not norm < p["eps"]:
        problems.append("|F - f| = %.3g >= eps" % norm)
    track = float(np.max(np.abs(at_angles(Q, p["E"]) - p["goal"])))
    if not track < p["eps"]:
        problems.append("|Q_m - g| = %.3g >= eps on E" % track)
    if len(Q) != m + 1:
        problems.append("Q_m has %d coefficients for m = %d" % (len(Q), m))
    else:
        dev = float(np.max(np.abs(opa_oracle(F, m) - Q)))
        if not dev <= OPA_MATCH:
            problems.append("Q_m differs from the OPA of F by %.3g" % dev)
    return problems, 0


def _zerofree(a, p):
    P, P_tail = series(a["outputs"]["P"])
    g = np.array(p["g"], dtype=np.complex128)
    problems = []
    n = max(len(P), len(g))
    diff = np.zeros(n, dtype=np.complex128)
    diff[: len(P)] += P
    diff[: len(g)] -= g
    norm = float(np.linalg.norm(diff)) + P_tail
    if not norm < p["eps"]:
        problems.append("||P - g|| = %.3g >= eps" % norm)
    point = float(np.max(np.abs(at_angles(P, p["E"]) - np.array(p["targets"]))))
    if not point < p["eps"]:
        problems.append("|P - target| = %.3g >= eps on E" % point)
    zero_free, G = zero_free_certificate(P)
    if not zero_free:
        problems.append("no zero-free certificate for P on a %d-point grid" % G)
    return problems, 0


def _peak(a, p):
    h, _ = series(a["outputs"]["h"])
    cert = a["outputs"]["certified"]
    G = grid_size(len(h))
    mods = np.abs(circle_values(h, G))
    off = mods[~in_arcs(2.0 * np.pi * np.arange(G) / G, p["U"])]
    seen_sup = float(mods.max())
    seen_off = float(off.max()) if off.size else 0.0
    problems = []
    if not seen_sup <= SUP_LIMIT:
        problems.append("|h| reaches %.6g > 2" % seen_sup)
    if not seen_off < p["eps"]:
        problems.append("|h| reaches %.3g >= eps off U" % seen_off)
    dev = float(np.max(np.abs(at_angles(h, p["E"]) - 1.0)))
    if abs(dev - cert["peak_deviation"]) > 1e-8:
        problems.append("peak deviation %.6g, reported %.6g" % (dev, cert["peak_deviation"]))
    if "max_peak_deviation" in p and not dev < p["max_peak_deviation"]:
        problems.append("peak deviation %.3g over budget" % dev)
    if "max_energy" in p:
        energy = float(np.sum(np.arange(len(h)) * np.abs(h) ** 2))
        if not energy <= p["max_energy"]:
            problems.append("Dirichlet energy %.3g > eps" % energy)
        if abs(energy - float(cert["dirichlet_energy"])) > 1e-10 * max(1.0, energy):
            problems.append("Dirichlet energy %.6g, reported %s" % (energy, cert["dirichlet_energy"]))
    tol = 1e-9
    under = int(cert["sup_bound"] < seen_sup - tol) + int(cert["off_neighborhood_sup"] < seen_off - tol)
    return problems, under


def _capacity(a, p, csv_rows):
    out = a["outputs"]
    w = np.array(out["weights"], dtype=float)
    problems = []
    rel = abs(out["capacity"] - p["target"]) / p["target"]
    if not rel <= p["rtol"]:
        problems.append("capacity %.6g is %.2f%% from sin(pi/4)" % (out["capacity"], 100 * rel))
    if len(w) != p["nodes"] or w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-9:
        problems.append("weights are not a probability vector on %d nodes" % p["nodes"])
    if len(csv_rows) != len(w) or not np.allclose([float(r["weight"]) for r in csv_rows], w, rtol=0, atol=1e-15):
        problems.append("CSV weights disagree with the JSON artifact")
    return problems, 0


def _converge(a, p, csv_rows):
    rows = a["outputs"]["profile"]
    n_max = p["n_max"]
    problems = []
    if [r["n"] for r in rows] != list(range(n_max + 1)) or len(csv_rows) != n_max + 1:
        return ["profile rows do not cover orders 0..%d" % n_max], 0
    f = np.array(p["f"], dtype=np.complex128)
    # Columns z^k f for k <= n_max, weighted inner product sum (t+1)^alpha.
    A = np.zeros((n_max + len(f), n_max + 1), dtype=np.complex128)
    for k in range(n_max + 1):
        A[k : k + len(f), k] = f
    wts = np.arange(1.0, len(A) + 1.0) ** p["alpha"]
    gram = A.conj().T @ (wts[:, None] * A)
    worst = 0.0
    for row in rows:
        n = row["n"]
        rhs = np.zeros(n + 1, dtype=np.complex128)
        rhs[0] = np.conj(f[0])
        a0 = scipy.linalg.solve(gram[: n + 1, : n + 1], rhs, assume_a="pos")[0]
        projected = math.sqrt(max(0.0, 1.0 - (a0 * f[0]).real))
        worst = max(worst, abs(projected - row["residual"]), abs(float(csv_rows[n]["residual"]) - row["residual"]))
    if not worst <= RESIDUAL_MATCH:
        problems.append("residuals differ from the projection identity by %.3g" % worst)
    return problems, 0


def _budget(stderr, p):
    try:
        err = json.loads(stderr)
    except ValueError:
        return ["stderr holds no JSON error object"], 0
    problems = []
    if err.get("error") != p["error"]:
        problems.append("error %r, expected %s" % (err.get("error"), p["error"]))
    diag = err.get("diagnostics", {})
    for key, want in p["diagnostics"].items():
        got = diag.get(key)
        if not isinstance(got, (int, float)) or abs(got - want) > 1e-9 * max(1.0, abs(want)):
            problems.append("%s = %r, expected %r" % (key, got, want))
    return problems, 0


def check(op, code, stderr):
    """(problems, cert_underreports) for one operation's outcome."""
    if code != op.expect_code:
        return ["exit code %r, expected %d" % (code, op.expect_code)], 0
    if op.check == "budget":
        return _budget(stderr, op.params)
    try:
        with open(op.out, encoding="utf-8") as fh:
            artifact = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["artifact unreadable: %s" % exc], 0
    if artifact.get("schema_version") != 1 or artifact.get("command") not in (op.argv[0], " ".join(op.argv[:2])):
        return ["artifact envelope does not match the command"], 0
    if op.check in ("capacity", "converge"):
        csv_path = os.path.splitext(op.out)[0] + ".csv"
        try:
            with open(csv_path, encoding="utf-8", newline="") as fh:
                csv_rows = list(csv.DictReader(fh))
        except OSError as exc:
            return ["CSV unreadable: %s" % exc], 0
        return {"capacity": _capacity, "converge": _converge}[op.check](artifact, op.params, csv_rows)
    return {"steer": _steer, "zerofree": _zerofree, "peak": _peak}[op.check](artifact, op.params)
