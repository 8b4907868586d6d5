"""Self-test of the benchmark: its checker must catch bad outputs, its trace
must cover every per-layer metric, and it must refuse to run without sources.

    python3 perfbench/selftest.py

Runs from the root of a source checkout in about three minutes, writes only
under .perfbench_tmp/, and exits non-zero on the first broken expectation.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import run  # pins the thread counts before numpy loads
import checks
import workloads

ROOT = run.ROOT
SCRATCH = os.path.join(run.SCRATCH, "selftest-%d" % os.getpid())


def fail(message):
    raise SystemExit("selftest: " + message)


def run_ops(wanted):
    """Run the named operations of seed 0 in this process; returns {name: (op, code, stderr)}."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from opalab.cli import main as cli_main

    outcomes = {}
    for workload in workloads.WORKLOADS:
        files, ops = workloads.build(workload, 0.0, os.path.join(SCRATCH, "in"),
                                     os.path.join(SCRATCH, "out"))
        os.makedirs(os.path.join(SCRATCH, "in"), exist_ok=True)
        for path, tree in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tree, fh)
        for op in ops:
            if op.name in wanted:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli_main(op.argv)
                outcomes[op.name] = (op, code, err.getvalue())
    return outcomes


def corrupted(op, edit):
    """A copy of op whose artifact went through edit(artifact)."""
    with open(op.out, encoding="utf-8") as fh:
        artifact = json.load(fh)
    edit(artifact)
    bad = copy.copy(op)
    bad.out = op.out[:-5] + "_bad.json"
    with open(bad.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh)
    return bad


def move_q(artifact):
    artifact["outputs"]["Q_m"]["coeffs"][3][0] += 1e-3


def scale_h(artifact):
    coeffs = artifact["outputs"]["h"]["coeffs"]
    h, _ = checks.series({"coeffs": coeffs})
    s = 2.5 / float(abs(checks.circle_values(h, checks.grid_size(len(h)))).max())
    artifact["outputs"]["h"]["coeffs"] = [[s * re, s * im] for re, im in coeffs]


def corruption_checks():
    outcomes = run_ops({"steer_m2", "rudin_dirichlet", "zerofree_dirichlet"})
    steer_op, code, err = outcomes["steer_m2"]
    peak_op, pcode, perr = outcomes["rudin_dirichlet"]
    leg_op, lcode, lerr = outcomes["zerofree_dirichlet"]
    for op, c, e in outcomes.values():
        problems, _ = checks.check(op, c, e)
        if problems:
            fail("genuine output of %s rejected: %s" % (op.name, problems))
    cases = [
        ("Q_m with one coefficient moved by 1e-3", corrupted(steer_op, move_q), code, err),
        ("h scaled so that |h| > 2", corrupted(peak_op, scale_h), pcode, perr),
        ("Dirichlet leg with exit code 0", leg_op, 0, lerr),
    ]
    for label, op, c, e in cases:
        problems, _ = checks.check(op, c, e)
        if not problems:
            fail("checker accepted a " + label)
        print("ok  checker rejects a %s: %s" % (label, problems[0]))


def trace_coverage():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seen = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
        if proc.returncode != 0:
            fail("traced run of %s failed:\n%s" % (workload, proc.stderr))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            fail("traced run of %s has failed operations:\n%s" % (workload, proc.stdout))
        for name, m in result["metrics"].items():
            if m["value"] != 0.0:
                seen.setdefault(name, []).append(workload)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in seen]
    if missing:
        fail("no workload of BENCHMARK.json reports these per-layer metrics: %s" % missing)
    print("ok  every per-layer metric is measured on a workload of BENCHMARK.json")


def refuses_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steer_goals", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py printed a result without opalab sources")
    print("ok  run.py exits %d without sources" % proc.returncode)


def main():
    os.makedirs(SCRATCH)
    try:
        refuses_without_sources()
        corruption_checks()
        trace_coverage()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.SCRATCH)


if __name__ == "__main__":
    main()
