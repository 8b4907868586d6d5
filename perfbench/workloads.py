"""Seeded workload definitions: input files and the CLI operations run on them.

The seed draws one rotation phi = 2*pi*k / 2**14 and the whole configuration
turns by it: coefficients a_k -> a_k * exp(-i*k*phi) (that is f(z) ->
f(exp(-i*phi) z)), and every boundary angle moves by +phi.  The problem is the
same at every seed; seed 0 is phi = 0, the acceptance-criterion inputs.  The
rotation is a whole number of cells of the 2**14 needle and certificate grids,
so the library's discretization turns with the problem: seeds differ by
rounding and by the digits written to the artifacts, not by the work asked.

This module imports nothing from opalab and no numpy: the child imports it
before the library, and the checker uses it to know what each input was.
"""

import cmath
import math
import random
from dataclasses import dataclass

ROTATION_GRID = 1 << 14
WORKLOADS = ("steer_goals", "zerofree_exp", "peaks_profiles")


def rotation(seed: int):
    """(k, phi) for a seed; seed 0 is the unrotated configuration."""
    k = 0 if seed == 0 else random.Random(seed).randrange(ROTATION_GRID)
    return k, 2.0 * math.pi * k / ROTATION_GRID


def turn(coeffs, phi):
    """Coefficients of f(exp(-i*phi) z)."""
    return [complex(c) * cmath.exp(-1j * k * phi) for k, c in enumerate(coeffs)]


def angle(theta, phi):
    return (theta + phi) % (2.0 * math.pi)


def coeff_file(coeffs):
    return {"coeffs": [[c.real, c.imag] for c in map(complex, coeffs)]}


@dataclass
class Op:
    """One CLI call, the exit code it must give, and what the checker needs."""

    name: str
    argv: list
    expect_code: int
    check: str
    params: dict
    out: str


STEER_F = [-0.5, 1.0]
STEER_GOALS = (("m2", -2.0), ("5j", 5j))
STEER_EPS = 0.1

EXP_G = [1.0 / math.factorial(k) for k in range(13)]
EXP_POINTS = (0.0, math.pi)
EXP_TARGETS = (2.0, -1.0)
HARDY_EPS = 0.05
DIRICHLET_EPS = 0.1
# Constants of the infeasible Dirichlet leg (criterion 8), as the budget
# error reports them at every rotation.
DIRICHLET_LEG = {
    "required_boundary_deviation": 1.3678794413212816,
    "coefficient_budget": 0.30967362828694434,
    "max_degree": 8204,
}

PEAK_POINTS = (0.0, math.pi / 2.0)
PEAK_U = 0.3
PEAK_EPS = 0.01
PEAK_HEIGHT = 12.0
DPEAK_POINTS = (0.0,)
DPEAK_U = 0.3
DPEAK_EPS = 0.05
CAPACITY_NODES = 512
CONVERGE_F = [1.0, -0.5]
CONVERGE_N_MAX = 256


def build(workload: str, phi: float, inputs_dir: str, out_dir: str):
    """(files, ops): input trees by file path, and the operations in order."""
    files = {}
    ops = []

    def put(name, tree):
        path = "%s/%s" % (inputs_dir, name)
        files[path] = tree
        return path

    def op(name, argv, expect_code, check, **params):
        out = "%s/%s.json" % (out_dir, name)
        ops.append(Op(name, argv + ["--out", out], expect_code, check, params, out))

    if workload == "steer_goals":
        f = turn(STEER_F, phi)
        E = [angle(0.0, phi)]
        f_path = put("steer_f.json", coeff_file(f))
        e_path = put("steer_e.json", {"points": E})
        for tag, goal in STEER_GOALS:
            g_path = put("steer_g_%s.json" % tag, coeff_file([goal]))
            op("steer_%s" % tag,
               ["steer", "--f", f_path, "--g", g_path, "--set", e_path, "--eps", repr(STEER_EPS)],
               0, "steer", f=f, goal=goal, E=E, eps=STEER_EPS)
    elif workload == "zerofree_exp":
        g = turn(EXP_G, phi)
        E = [angle(t, phi) for t in EXP_POINTS]
        g_path = put("exp_g.json", coeff_file(g))
        e_path = put("exp_e.json", {"points": E})
        t_path = put("exp_t.json", {"targets": [[t, v, 0.0] for t, v in zip(E, EXP_TARGETS)]})
        common = ["zerofree", "approx", "--g", g_path, "--set", e_path, "--targets", t_path]
        op("zerofree_hardy", common + ["--eps", repr(HARDY_EPS)], 0, "zerofree",
           g=g, E=E, targets=list(EXP_TARGETS), eps=HARDY_EPS)
        op("zerofree_dirichlet", common + ["--eps", repr(DIRICHLET_EPS), "--space", "dirichlet"],
           3, "budget", error="ApproximationBudgetError", diagnostics=DIRICHLET_LEG)
    elif workload == "peaks_profiles":
        E = [angle(t, phi) for t in PEAK_POINTS]
        U = [[p, PEAK_U] for p in E]
        e_path = put("peak_e.json", {"points": E})
        u_path = put("peak_u.json", {"arcs": U})
        op("rudin_hardy",
           ["rudin", "build", "--set", e_path, "--u", u_path,
            "--eps", repr(PEAK_EPS), "--peak", repr(PEAK_HEIGHT)],
           0, "peak", E=E, U=U, eps=PEAK_EPS, max_peak_deviation=math.exp(-PEAK_HEIGHT) + 1e-4)
        DE = [angle(t, phi) for t in DPEAK_POINTS]
        DU = [[p, DPEAK_U] for p in DE]
        de_path = put("dpeak_e.json", {"points": DE})
        du_path = put("dpeak_u.json", {"arcs": DU})
        op("rudin_dirichlet",
           ["rudin", "build", "--space", "dirichlet", "--set", de_path, "--u", du_path,
            "--eps", repr(DPEAK_EPS)],
           0, "peak", E=DE, U=DU, eps=DPEAK_EPS, max_energy=DPEAK_EPS)
        semi_path = put("semicircle.json", {"arcs": [[angle(0.0, phi), math.pi / 2.0]]})
        op("capacity", ["rudin", "capacity", "--set", semi_path, "--nodes", str(CAPACITY_NODES)],
           0, "capacity", nodes=CAPACITY_NODES, target=math.sin(math.pi / 4.0), rtol=0.03)
        f = turn(CONVERGE_F, phi)
        f_path = put("converge_f.json", coeff_file(f))
        for alpha in (0, 1):
            op("converge_alpha%d" % alpha,
               ["opa", "converge", "--f", f_path, "--n-max", str(CONVERGE_N_MAX),
                "--alpha", str(alpha)],
               0, "converge", f=f, n_max=CONVERGE_N_MAX, alpha=float(alpha))
    else:
        raise ValueError("unknown workload %r" % workload)
    return files, ops
