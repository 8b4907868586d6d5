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
from collections import namedtuple
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
from .spaces import SPACES, AlphaWeight, space_weight
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


# One value of a command: its flag, else the config file, else ``default``.
# A REQUIRED setting has no default, and the command fails without a value.
Setting = namedtuple("Setting", "name cast default help choices", defaults=(None,))
REQUIRED = object()
_SPACE = Setting("space", str, "hardy", "function space", tuple(SPACES))
_ALPHA = Setting("alpha", float, 0.0, "space weight exponent")

SETTINGS = {
    "opa solve": (Setting("n", int, REQUIRED, "approximant order"), _ALPHA),
    "opa converge": (
        Setting("n_max", int, REQUIRED, "largest order"),
        _ALPHA,
        Setting("probes", int, 256, "circle probe count"),
        Setting("interior_radius", float, 0.9, "radius of the 16-point interior probe ring"),
    ),
    "rudin build": (
        _SPACE,
        Setting("eps", float, REQUIRED, "off-neighborhood tolerance"),
        Setting("peak", float, 12.0, "hardy peak exponent"),
        Setting("levels", int, 4, "dirichlet nesting depth"),
        Setting("nodes_per_arc", int, 64, "dirichlet quadrature nodes per arc"),
    ),
    "rudin capacity": (Setting("nodes", int, 128, "nodes per arc"),),
    "zerofree approx": (
        Setting("eps", float, REQUIRED, "norm and pointwise budget"),
        _SPACE,
        Setting("boundary_eps", float, None, "tighter pointwise gate (default eps)"),
    ),
    "steer": (Setting("eps", float, REQUIRED, "tracking budget"), _SPACE),
    "selftest": (),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="opalab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="opalab " + __version__)
    sub = parser.add_subparsers(dest="group", metavar="command")

    def command(subparsers, name, help_text):
        p = subparsers.add_parser(name.split()[-1], help=help_text)
        for s in SETTINGS[name]:
            shown = s.help
            if s.default not in (None, REQUIRED):
                shown += " (default %s)" % (s.default,)
            p.add_argument(_flag(s.name), dest=s.name, type=s.cast, choices=s.choices, help=shown)
        p.add_argument("--out", help="artifact file path (default runs/<timestamp>-<command>.json)")
        p.add_argument("--config", help="key=value file with option defaults; flags win")
        return p

    opa = sub.add_parser("opa", help="reciprocal least-squares approximants")
    opa_sub = opa.add_subparsers(dest="subcommand", metavar="subcommand")

    solve = command(opa_sub, "opa solve", "one approximant order")
    solve.add_argument("--f", required=True, help="coefficient JSON for f")
    solve.add_argument("--solver", choices=["dense", "toeplitz"], help="accepted and ignored")

    conv = command(opa_sub, "opa converge", "error profile over orders 0..n-max")
    conv.add_argument("--f", required=True, help="coefficient JSON for f")

    rudin = sub.add_parser("rudin", help="certified peak functions and capacity")
    rudin_sub = rudin.add_subparsers(dest="subcommand", metavar="subcommand")

    build = command(rudin_sub, "rudin build", "peak function on a boundary set")
    build.add_argument("--set", dest="set_path", required=True, help="peak-set JSON (points)")
    build.add_argument("--u", dest="u_path", required=True, help="neighborhood JSON (arcs)")

    cap = command(rudin_sub, "rudin capacity", "equilibrium measure of an arc set")
    cap.add_argument("--set", dest="set_path", required=True, help="arc-set JSON")
    cap.add_argument(
        "--iterations", type=int,
        help="accepted and ignored: the minimizer comes from one linear solve",
    )

    zf = sub.add_parser("zerofree", help="simultaneous zero-free approximation")
    zf_sub = zf.add_subparsers(dest="subcommand", metavar="subcommand")
    approx = command(zf_sub, "zerofree approx", "certified zero-free P near g with targets on E")
    approx.add_argument("--g", required=True, help="coefficient JSON for g")
    approx.add_argument("--set", dest="set_path", required=True, help="point-set JSON for E")
    approx.add_argument("--targets", required=True, help="target JSON {angle: value}")

    st = command(sub, "steer", "steer reciprocal approximant boundary values")
    st.add_argument("--f", required=True, help="coefficient JSON for f")
    st.add_argument("--g", required=True, help="coefficient JSON for the boundary goal g")
    st.add_argument("--set", dest="set_path", required=True, help="point-set JSON for E")

    command(sub, "selftest", "run the built-in invariant suite")
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


def _resolve(args, command: str, config: dict) -> None:
    """Set each of the command's settings on ``args``: flag, then config file,
    then default."""
    for s in SETTINGS[command]:
        if getattr(args, s.name) is not None:
            continue
        if s.name in config:
            try:
                value = s.cast(config[s.name])
            except (TypeError, ValueError):
                raise InvalidInputError(
                    "config value for %s is not a valid %s" % (s.name, s.cast.__name__)
                )
        elif s.default is REQUIRED:
            raise InvalidInputError(
                "%s needs %s (or %s in the config file)" % (command, _flag(s.name), s.name)
            )
        else:
            value = s.default
        setattr(args, s.name, value)


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


def _cmd_opa_solve(args):
    f = _load_series(args.f)
    result = opa_solve(f, args.n, AlphaWeight(args.alpha))
    inputs = {"f": f, "n": args.n, "alpha": args.alpha}
    outputs = {
        "Q": result.Q,
        "residual": result.residual,
        "residual_sq": result.residual**2,
        "condition_estimate": result.condition_estimate,
        "n": result.n,
    }
    return inputs, outputs, {}, None


def _cmd_opa_converge(args):
    f = _load_series(args.f)
    circle = np.linspace(0.0, 2.0 * np.pi, max(args.probes, 8), endpoint=False)
    ring = [args.interior_radius * np.exp(2j * np.pi * k / 16.0) for k in range(16)]
    rows = convergence_profile(f, args.n_max, AlphaWeight(args.alpha), circle, ring)
    inputs = {
        "f": f, "n_max": args.n_max, "alpha": args.alpha,
        "probes": args.probes, "interior_radius": args.interior_radius,
    }
    table = [[r["n"], r["residual"], r["sup_circle"], r["max_interior"]] for r in rows]
    csv_payload = (["n", "residual", "sup_circle", "max_interior"], table)
    return inputs, {"profile": rows}, {"orders": len(rows)}, csv_payload


def _cmd_rudin_build(args):
    E = boundary_set_from_json(_load_tree(args.set_path))
    U = boundary_set_from_json(_load_tree(args.u_path))
    inputs = {"space": args.space, "set": E, "u": U, "eps": args.eps}
    if space_weight(args.space).alpha == 0.0:
        rf = hardy_rudin(E, U, eps=args.eps, peak=args.peak)
        inputs["peak"] = args.peak
    else:
        rf = dirichlet_rudin(
            E, U, eps=args.eps, levels=args.levels, nodes_per_arc=args.nodes_per_arc
        )
        inputs["levels"] = args.levels
        inputs["nodes_per_arc"] = args.nodes_per_arc
    outputs = {"h": rf.h, "completion": rf.completion, "certified": rf.certified}
    diag = {"h_degree": len(rf.h.coeffs) - 1}
    return inputs, outputs, diag, None


def _cmd_rudin_capacity(args):
    arcs = boundary_set_from_json(_load_tree(args.set_path))
    measure = equilibrium_measure(arcs, args.nodes)
    inputs = {"set": arcs, "nodes": args.nodes}
    table = [[float(t), float(w)] for t, w in zip(measure.nodes, measure.weights)]
    return inputs, measure, {"node_count": len(table)}, (["angle", "weight"], table)


def _cmd_zerofree_approx(args):
    g = _load_series(args.g)
    E = boundary_set_from_json(_load_tree(args.set_path))
    targets = targets_from_json(_load_tree(args.targets))
    result = simultaneous_zero_free(
        g, targets, E, args.eps, args.space, boundary_eps=args.boundary_eps
    )
    inputs = {
        "g": g, "set": E,
        "targets": {"%r" % t: v for t, v in targets.items()},
        "eps": args.eps, "space": args.space, "boundary_eps": args.boundary_eps,
    }
    outputs = {
        "P": result.P,
        "report": result.report,
        "space_error": result.space_error,
        "boundary_error": result.boundary_error,
    }
    return inputs, outputs, {"trace": result.trace}, None


def _cmd_steer(args):
    f = _load_series(args.f)
    g = _load_series(args.g)
    E = boundary_set_from_json(_load_tree(args.set_path))
    result = steer(f, g, E, args.eps, args.space)
    inputs = {"f": f, "g": g, "set": E, "eps": args.eps, "space": args.space}
    return inputs, result, {"P_degree": len(result.F_structured.P.coeffs) - 1}, None


def _cmd_selftest(args):
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
    "opa solve": _cmd_opa_solve,
    "opa converge": _cmd_opa_converge,
    "rudin build": _cmd_rudin_build,
    "rudin capacity": _cmd_rudin_capacity,
    "zerofree approx": _cmd_zerofree_approx,
    "steer": _cmd_steer,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    sub = getattr(args, "subcommand", None)
    command = args.group if sub is None else "%s %s" % (args.group, sub)
    handler = _DISPATCH.get(command)
    if handler is None:
        parser.print_usage(sys.stderr)
        return EX_USAGE

    try:
        _resolve(args, command, _load_config(args.config))
        started = time.perf_counter()
        inputs, outputs, diagnostics, csv_payload = handler(args)
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
