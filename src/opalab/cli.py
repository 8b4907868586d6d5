"""Command-line front end: parse, dispatch one subcommand, persist the run.

Every invocation that reaches a library call writes a run artifact
(schema_version 1) with the command line, an echo of all inputs, the
result tree, and timing diagnostics.  Table-shaped results additionally
land next to the artifact as CSV.  Exit codes: 0 success, 2 domain errors,
3 budget/convergence errors, 64 usage; library errors are mirrored as a
JSON object on stderr so scripted callers never have to parse prose.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .boundary import BoundarySet
from .errors import BudgetError, DomainError, InvalidInputError
from .opa import convergence_profile, opa_solve
from .rudin import dirichlet_rudin, equilibrium_measure, hardy_rudin
from .serialize import (
    boundary_set_from_json,
    coeff_series_from_json,
    dumps,
    load_json,
    targets_from_json,
    to_jsonable,
)
from .spaces import AlphaWeight
from .steer import steer
from .zerofree import simultaneous_zero_free

SCHEMA_VERSION = 1
EX_OK = 0
EX_DOMAIN = 2
EX_BUDGET = 3
EX_USAGE = 64
DEFAULT_OUT_DIR = "runs"
OUT_DIR_ENV = "OPALAB_OUT"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for domain
    errors and wants 64 for usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


def _build_parser() -> _Parser:
    parser = _Parser(prog="opalab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="opalab " + __version__)
    sub = parser.add_subparsers(dest="group", metavar="command")

    def common(p):
        p.add_argument("--out", help="artifact file path (default runs/<timestamp>-<command>.json)")
        p.add_argument("--config", help="key=value file with option defaults; flags win")

    opa = sub.add_parser("opa", help="reciprocal least-squares approximants")
    opa_sub = opa.add_subparsers(dest="subcommand", metavar="subcommand")

    solve = opa_sub.add_parser("solve", help="one approximant order")
    solve.add_argument("--f", required=True, help="coefficient JSON for f")
    solve.add_argument("--n", type=int, help="approximant order")
    solve.add_argument("--alpha", type=float, help="space weight exponent (default 0)")
    solve.add_argument("--solver", choices=["dense", "toeplitz"], help="accepted and ignored")
    common(solve)

    conv = opa_sub.add_parser("converge", help="error profile over orders 0..n-max")
    conv.add_argument("--f", required=True, help="coefficient JSON for f")
    conv.add_argument("--n-max", dest="n_max", type=int, help="largest order")
    conv.add_argument("--alpha", type=float, help="space weight exponent (default 0)")
    conv.add_argument("--probes", type=int, help="circle probe count (default 256)")
    conv.add_argument(
        "--interior-radius", dest="interior_radius", type=float,
        help="radius of the 16-point interior probe ring (default 0.9)",
    )
    common(conv)

    rudin = sub.add_parser("rudin", help="certified peak functions and capacity")
    rudin_sub = rudin.add_subparsers(dest="subcommand", metavar="subcommand")

    build = rudin_sub.add_parser("build", help="peak function on a boundary set")
    build.add_argument("--space", choices=["hardy", "dirichlet"], help="default hardy")
    build.add_argument("--set", dest="set_path", required=True, help="peak-set JSON (points)")
    build.add_argument("--u", dest="u_path", required=True, help="neighborhood JSON (arcs)")
    build.add_argument("--eps", type=float, help="off-neighborhood tolerance")
    build.add_argument("--peak", type=float, help="hardy peak exponent (default 12)")
    build.add_argument("--levels", type=int, help="dirichlet nesting depth (default 4)")
    build.add_argument(
        "--nodes-per-arc", dest="nodes_per_arc", type=int,
        help="dirichlet quadrature nodes per arc (default 64)",
    )
    common(build)

    cap = rudin_sub.add_parser("capacity", help="equilibrium measure of an arc set")
    cap.add_argument("--set", dest="set_path", required=True, help="arc-set JSON")
    cap.add_argument("--nodes", type=int, help="nodes per arc (default 128)")
    cap.add_argument(
        "--iterations", type=int,
        help="accepted and ignored: the minimizer comes from one linear solve",
    )
    common(cap)

    zf = sub.add_parser("zerofree", help="simultaneous zero-free approximation")
    zf_sub = zf.add_subparsers(dest="subcommand", metavar="subcommand")
    approx = zf_sub.add_parser("approx", help="certified zero-free P near g with targets on E")
    approx.add_argument("--g", required=True, help="coefficient JSON for g")
    approx.add_argument("--set", dest="set_path", required=True, help="point-set JSON for E")
    approx.add_argument("--targets", required=True, help="target JSON {angle: value}")
    approx.add_argument("--eps", type=float, help="norm and pointwise budget")
    approx.add_argument("--space", choices=["hardy", "dirichlet"], help="default hardy")
    approx.add_argument(
        "--boundary-eps", dest="boundary_eps", type=float,
        help="tighter pointwise gate (default eps)",
    )
    common(approx)

    st = sub.add_parser("steer", help="steer reciprocal approximant boundary values")
    st.add_argument("--f", required=True, help="coefficient JSON for f")
    st.add_argument("--g", required=True, help="coefficient JSON for the boundary goal g")
    st.add_argument("--set", dest="set_path", required=True, help="point-set JSON for E")
    st.add_argument("--eps", type=float, help="tracking budget")
    st.add_argument("--space", choices=["hardy", "dirichlet"], help="default hardy")
    common(st)

    self_p = sub.add_parser("selftest", help="run the built-in invariant suite")
    common(self_p)

    return parser


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidInputError("config line without '=': %r" % raw.strip())
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise InvalidInputError("cannot read config file: %s" % exc)
    return out


def _setting(args, config: dict, name: str, builtin, cast):
    """Layering: built-in default, then config file, then explicit flag."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        try:
            return cast(config[name])
        except (TypeError, ValueError):
            raise InvalidInputError("config value for %s is not a valid %s" % (name, cast.__name__))
    return builtin


def _artifact_path(args, command: str) -> str:
    if getattr(args, "out", None):
        return args.out
    out_dir = os.environ.get(OUT_DIR_ENV, DEFAULT_OUT_DIR)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return os.path.join(out_dir, "%s-%s.json" % (stamp, command.replace(" ", "-")))


def _atomic_write(path: str, text: str) -> None:
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_artifact(path: str, command: str, inputs: dict, outputs, diagnostics: dict) -> None:
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    _atomic_write(path, dumps(to_jsonable(artifact)) + "\n")


def _write_csv(path: str, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append("%.17g" % float(cell))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _load_series(path: str):
    return coeff_series_from_json(_load_tree(path))


def _load_tree(path: str) -> dict:
    try:
        return load_json(path)
    except OSError as exc:
        raise InvalidInputError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        raise InvalidInputError("%s is not valid JSON: %s" % (path, exc))


def _cmd_opa_solve(args, config):
    f = _load_series(args.f)
    n = _setting(args, config, "n", None, int)
    if n is None:
        raise InvalidInputError("opa solve needs --n (or n in the config file)")
    alpha = _setting(args, config, "alpha", 0.0, float)
    result = opa_solve(f, int(n), AlphaWeight(alpha))
    inputs = {"f": f, "n": int(n), "alpha": alpha}
    outputs = {
        "Q": result.Q,
        "residual": result.residual,
        "residual_sq": result.residual**2,
        "condition_estimate": result.condition_estimate,
        "n": result.n,
    }
    return inputs, outputs, {}, None


def _cmd_opa_converge(args, config):
    f = _load_series(args.f)
    n_max = _setting(args, config, "n_max", None, int)
    if n_max is None:
        raise InvalidInputError("opa converge needs --n-max (or n_max in the config file)")
    alpha = _setting(args, config, "alpha", 0.0, float)
    probes = _setting(args, config, "probes", 256, int)
    radius = _setting(args, config, "interior_radius", 0.9, float)
    circle = BoundarySet.full_circle(sample_density=max(probes, 8) / (2.0 * np.pi))
    ring = [radius * np.exp(2j * np.pi * k / 16.0) for k in range(16)]
    rows = convergence_profile(f, int(n_max), AlphaWeight(alpha), circle, ring)
    inputs = {
        "f": f, "n_max": int(n_max), "alpha": alpha,
        "probes": probes, "interior_radius": radius,
    }
    table = [[r["n"], r["residual"], r["sup_circle"], r["max_interior"]] for r in rows]
    csv_payload = (["n", "residual", "sup_circle", "max_interior"], table)
    return inputs, {"profile": rows}, {"orders": len(rows)}, csv_payload


def _cmd_rudin_build(args, config):
    E = boundary_set_from_json(_load_tree(args.set_path))
    U = boundary_set_from_json(_load_tree(args.u_path))
    space = _setting(args, config, "space", "hardy", str)
    eps = _setting(args, config, "eps", None, float)
    if eps is None:
        raise InvalidInputError("rudin build needs --eps (or eps in the config file)")
    inputs = {"space": space, "set": E, "u": U, "eps": eps}
    if space == "hardy":
        peak = _setting(args, config, "peak", 12.0, float)
        rf = hardy_rudin(E, U, eps=eps, peak=peak)
        inputs["peak"] = peak
    else:
        levels = _setting(args, config, "levels", 4, int)
        nodes = _setting(args, config, "nodes_per_arc", 64, int)
        rf = dirichlet_rudin(E, U, eps=eps, levels=levels, nodes_per_arc=nodes)
        inputs["levels"] = levels
        inputs["nodes_per_arc"] = nodes
    outputs = {"h": rf.h, "completion": rf.completion, "certified": rf.certified}
    diag = {"h_degree": len(rf.h.coeffs) - 1}
    return inputs, outputs, diag, None


def _cmd_rudin_capacity(args, config):
    arcs = boundary_set_from_json(_load_tree(args.set_path))
    nodes = _setting(args, config, "nodes", 128, int)
    measure = equilibrium_measure(arcs, nodes)
    inputs = {"set": arcs, "nodes": nodes}
    table = [[float(t), float(w)] for t, w in zip(measure.nodes, measure.weights)]
    return inputs, measure, {"node_count": len(table)}, (["angle", "weight"], table)


def _cmd_zerofree_approx(args, config):
    g = _load_series(args.g)
    E = boundary_set_from_json(_load_tree(args.set_path))
    targets = targets_from_json(_load_tree(args.targets))
    eps = _setting(args, config, "eps", None, float)
    if eps is None:
        raise InvalidInputError("zerofree approx needs --eps (or eps in the config file)")
    space = _setting(args, config, "space", "hardy", str)
    boundary_eps = _setting(args, config, "boundary_eps", None, float)
    result = simultaneous_zero_free(g, targets, E, eps, space, boundary_eps=boundary_eps)
    inputs = {
        "g": g, "set": E,
        "targets": {"%r" % t: v for t, v in targets.items()},
        "eps": eps, "space": space, "boundary_eps": boundary_eps,
    }
    outputs = {
        "P": result.P,
        "report": result.report,
        "space_error": result.space_error,
        "boundary_error": result.boundary_error,
    }
    return inputs, outputs, {"trace": result.trace}, None


def _cmd_steer(args, config):
    f = _load_series(args.f)
    g = _load_series(args.g)
    E = boundary_set_from_json(_load_tree(args.set_path))
    eps = _setting(args, config, "eps", None, float)
    if eps is None:
        raise InvalidInputError("steer needs --eps (or eps in the config file)")
    space = _setting(args, config, "space", "hardy", str)
    result = steer(f, g, E, eps, space)
    inputs = {"f": f, "g": g, "set": E, "eps": eps, "space": space}
    return inputs, result, {"P_degree": len(result.F_structured.P.coeffs) - 1}, None


def _cmd_selftest(args, config):
    from .series import CoeffSeries, evaluate, exp_series
    from .blaschke import blaschke_series
    from .steer import steer as steer_fn

    checks = []

    f = CoeffSeries([1.0, -1.0])
    n = 5
    res = opa_solve(f, n, AlphaWeight(0.0))
    want = np.array([1.0 - (k + 1.0) / (n + 2.0) for k in range(n + 1)])
    ok = bool(
        np.max(np.abs(np.asarray(res.Q.coeffs) - want)) < 1e-10
        and abs(res.residual**2 - 1.0 / (n + 2.0)) < 1e-10
    )
    checks.append(("reciprocal approximant closed form at f = 1 - z", ok))

    from .opa import gram_matrix
    gm = gram_matrix(CoeffSeries([1.0, 0.5, 0.25]), 6, AlphaWeight(0.0)).M
    ok = bool(
        np.allclose(gm, gm.conj().T, atol=1e-12)
        and np.allclose(gm, np.asarray(
            [[gm[abs(i - j) if i >= j else 0, 0 if i >= j else abs(i - j)]
              for j in range(7)] for i in range(7)]), atol=1e-12)
    )
    checks.append(("alpha = 0 Gram matrix Hermitian Toeplitz", ok))

    F = CoeffSeries([0.1, 0.2 + 0.1j, -0.05])
    phi = exp_series(F, 64)
    zs = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 17))
    ok = bool(
        np.max(np.abs(evaluate(phi, zs) - np.exp(evaluate(F, zs)))) < 1e-12
    )
    checks.append(("exponential of a series matches pointwise exp", ok))

    B = blaschke_series((0.4 + 0.2j,), 512)
    circ = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    ok = bool(np.max(np.abs(np.abs(evaluate(B, circ)) - 1.0)) < 1e-6)
    checks.append(("Blaschke factor unimodular on the circle", ok))

    try:
        steer_fn(CoeffSeries([0.0, 1.0]), CoeffSeries([1.0]), BoundarySet(points=(0.0,)), 0.1)
        ok = False
    except DomainError:
        ok = True
    checks.append(("steer rejects f with f(0) = 0", ok))

    for name, ok in checks:
        print("%s  %s" % ("ok " if ok else "FAIL", name))
    if not all(ok for _, ok in checks):
        raise InvalidInputError("selftest found failing invariants")
    outputs = {"checks": [{"name": name, "ok": ok} for name, ok in checks]}
    return {}, outputs, {"check_count": len(checks)}, None


_DISPATCH = {
    ("opa", "solve"): _cmd_opa_solve,
    ("opa", "converge"): _cmd_opa_converge,
    ("rudin", "build"): _cmd_rudin_build,
    ("rudin", "capacity"): _cmd_rudin_capacity,
    ("zerofree", "approx"): _cmd_zerofree_approx,
    ("steer", None): _cmd_steer,
    ("selftest", None): _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.group is None:
        parser.print_usage(sys.stderr)
        return EX_USAGE
    sub = getattr(args, "subcommand", None)
    handler = _DISPATCH.get((args.group, sub))
    if handler is None:
        parser.print_usage(sys.stderr)
        return EX_USAGE
    command = args.group if sub is None else "%s %s" % (args.group, sub)

    try:
        config = _load_config(getattr(args, "config", None))
        started = time.perf_counter()
        inputs, outputs, diagnostics, csv_payload = handler(args, config)
        elapsed = time.perf_counter() - started
    except DomainError as exc:
        _print_error(exc)
        return EX_DOMAIN
    except BudgetError as exc:
        _print_error(exc)
        return EX_BUDGET

    diagnostics = dict(diagnostics)
    diagnostics["elapsed_seconds"] = elapsed
    path = _artifact_path(args, command)
    _write_artifact(path, command, inputs, outputs, diagnostics)
    if csv_payload is not None:
        header, rows = csv_payload
        _write_csv(os.path.splitext(path)[0] + ".csv", header, rows)
    print(path)
    return EX_OK


def _print_error(exc) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    diagnostics = getattr(exc, "diagnostics", None)
    if diagnostics:
        payload["diagnostics"] = diagnostics
    sys.stderr.write(dumps(to_jsonable(payload)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
